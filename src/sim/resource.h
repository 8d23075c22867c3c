// Shared simulated resources with k service lanes.
//
// This is the queueing heart of the simulator. A Resource models a hardware
// unit with `lanes` parallel servers (NIC DMA engines, NIC cores, the NIC
// atomic unit, node memory channels). Concurrent actors reserve service time
// on it: an operation arriving at simulated time `t` with service demand `s`
// is placed into the EARLIEST idle interval of length `s` that starts at or
// after `t`, across all lanes:
//
//     finish = earliest_fit(t, s) + s.
//
// Because every actor funnels through the same reservation state, saturation
// and serialization emerge naturally: when offered load exceeds lane
// capacity the busy intervals pack solid and finish times stretch — the
// mechanism behind the paper's queue-scaling plateau (Fig. 6c) and CAS
// serialization costs (Fig. 1).
//
// Why interval gap-filling rather than a simple per-lane "free from T"
// ratchet: reservations are issued by real threads in real-time order, which
// need not match simulated-time order. A ratchet would let one client with a
// fast clock push the lane horizon forward and then force every slower
// client to queue behind *idle* time — phantom serialization that destroys
// the fidelity of closed-loop benchmarks. Gap-filling serves each request at
// its own simulated arrival whenever the unit was actually idle then.
//
// Lane store: each lane keeps its busy intervals in a sorted flat vector of
// {start, end}. Lookups search back from the lane's tail with doubling
// steps and binary-search only the final bracket, since arrivals land a few
// dozen intervals from the tail of lanes holding thousands; a reservation at
// or after the tail is answered in O(1) and appended; an interval that
// exactly touches a neighbour is merged in place; anything else is inserted
// with one memmove. Lanes hold thousands of intervals in steady state but first-fit
// scans only a fraction of one past the lookup, so the contiguous buffer
// (no per-reservation node allocation, no pointer chasing) is what keeps
// reservation cheap on the host.
//
// Memory bound: when a lane accumulates more than kMaxIntervals busy
// intervals, small idle gaps are swept and merged (smallest resolution
// first, doubling until the count halves) by one in-place compaction pass
// per resolution. This introduces phantom busy time bounded by the sweep
// resolution per merged gap — nanoseconds against microsecond-scale
// operations — and never penalizes whole timelines the way a floor-based
// prune would. reset() releases lane storage outright, so a drained
// resource returns its memory between benchmark repetitions.
//
// Thread-safety: each lane's interval buffer is guarded by its own spinlock
// (critical sections are one binary search plus an append, in-place merge
// or short memmove), so concurrent ranks only collide when they genuinely
// contend for the same lane. One global lock here used to funnel every rank
// in the cluster through a single cache line — at paper-scale topologies
// (2560 ranks) that lock, not the modelled hardware, was the bottleneck.
// Uncontended requests (a lane idle at `now`) commit under a single lane
// lock, scanning from a per-thread rotated origin so they spread across
// lanes instead of convoying on lane 0 — timing-invisible, since start ==
// now on every idle lane. Only saturated placements serialize on the
// arbiter mutex, which keeps scan+commit atomic so simulated placement
// depends on reservation order, never on microtiming between real threads
// (determinism of the bench JSON records relies on this).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "common/spin.h"
#include "common/striped.h"
#include "sim/time.h"
#include "sim/timeseries.h"

namespace hcl::sim {

class Resource {
 public:
  static constexpr std::size_t kMaxIntervals = 1 << 18;  // per lane

  /// One busy interval [start, end) on a lane.
  struct Interval {
    Nanos start;
    Nanos end;
  };

  /// `lanes` parallel servers. An optional TimeSeries receives per-bucket
  /// busy-time for utilization plots (Fig. 4a).
  explicit Resource(int lanes, TimeSeries* busy_series = nullptr)
      : lanes_(static_cast<std::size_t>(lanes > 0 ? lanes : 1)),
        lanes_state_(lanes_),
        busy_series_(busy_series) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Reserve `service` ns starting no earlier than `now`; returns completion
  /// time. Zero/negative service returns `now` without touching lanes.
  Nanos reserve(Nanos now, Nanos service) {
    if (service <= 0) return now;
    const std::size_t n = lanes_state_.size();
    const std::size_t origin = n == 1 ? 0 : detail::tls_stripe() % n;
    Nanos start = -1;
    // Fast path: any lane idle at `now` serves immediately. Which lane wins
    // is timing-invisible (start == now on all of them, and later placements
    // depend only on the multiset of busy intervals across lanes, which is
    // permutation-invariant), so the rotated origin spreads lock traffic
    // without perturbing simulated results.
    for (std::size_t i = 0; i < n && start < 0; ++i) {
      Lane& lane = lanes_state_[(origin + i) % n];
      std::lock_guard<SpinLock> guard(lane.lock);
      const Nanos s = earliest_fit(lane, now, service);
      if (s <= now) {
        insert_interval(lane, s, s + service);
        start = s;
      }
    }
    if (start < 0) {
      // Saturated: rival placements must be scan+commit atomic, or the
      // result depends on microtiming between the election scan and the
      // commit (run-to-run jitter in simulated time — observed as ~µs
      // flutter in bench JSON records). One arbiter mutex orders rivals so
      // placement depends only on reservation order, exactly like the old
      // global-lock design; the scan still takes lane locks briefly, and a
      // fast-path commit that steals the elected gap mid-scan is caught by
      // revalidating before insert (each steal consumes idle-at-now
      // capacity, so the retry loop terminates).
      std::lock_guard<std::mutex> order(saturated_mu_);
      for (;;) {
        std::size_t best = 0;
        Nanos best_start = std::numeric_limits<Nanos>::max();
        for (std::size_t i = 0; i < n; ++i) {
          std::lock_guard<SpinLock> guard(lanes_state_[i].lock);
          const Nanos s = earliest_fit(lanes_state_[i], now, service);
          if (s < best_start) {
            best_start = s;
            best = i;
          }
        }
        Lane& lane = lanes_state_[best];
        std::lock_guard<SpinLock> guard(lane.lock);
        if (earliest_fit(lane, now, service) == best_start) {
          insert_interval(lane, best_start, best_start + service);
          start = best_start;
          break;
        }
      }
    }
    busy_total_.fetch_add(service, std::memory_order_relaxed);
    if (busy_series_ != nullptr) busy_series_->add(start, service);
    return start + service;
  }

  /// Total service time ever granted (across all lanes).
  [[nodiscard]] Nanos busy_total() const noexcept {
    return busy_total_.load(std::memory_order_relaxed);
  }

  /// Latest busy-interval end across lanes (when the resource fully drains).
  [[nodiscard]] Nanos horizon() const {
    Nanos h = 0;
    for (const auto& lane : lanes_state_) {
      std::lock_guard<SpinLock> guard(lane.lock);
      if (!lane.busy.empty()) h = std::max(h, lane.busy.back().end);
    }
    return h;
  }

  [[nodiscard]] int lanes() const noexcept { return static_cast<int>(lanes_); }

  /// Copy of one lane's busy intervals, sorted by start (diagnostics/tests).
  [[nodiscard]] std::vector<Interval> intervals(int lane) const {
    const Lane& l = lanes_state_.at(static_cast<std::size_t>(lane));
    std::lock_guard<SpinLock> guard(l.lock);
    return l.busy;
  }

  /// Utilization in [0,1] over an elapsed window.
  [[nodiscard]] double utilization(Nanos elapsed) const noexcept {
    if (elapsed <= 0) return 0.0;
    return static_cast<double>(busy_total()) /
           (static_cast<double>(elapsed) * static_cast<double>(lanes_));
  }

  /// Reset all lanes and counters (between benchmark repetitions). Frees the
  /// lane buffers rather than clearing them: a long run leaves thousands of
  /// intervals of capacity per lane, which would otherwise stay resident.
  void reset() {
    for (auto& lane : lanes_state_) {
      std::lock_guard<SpinLock> guard(lane.lock);
      std::vector<Interval>().swap(lane.busy);
    }
    busy_total_.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Lane {
    mutable SpinLock lock;
    /// Non-overlapping busy intervals sorted by start. Guarded by `lock`.
    std::vector<Interval> busy;
  };

  /// std::partition_point(first, last, before), found from the tail: probe
  /// back 1, 2, 4, ... intervals until one lies `before` the key, then
  /// binary-search that last bracket. O(log d) in the distance d from the
  /// tail rather than O(log n) over the lane; same answer.
  template <typename It, typename Before>
  static It search_from_tail(It first, It last, Before before) {
    std::ptrdiff_t step = 1;
    for (;;) {  // invariant: nothing in [last, end) lies before the key
      if (last - first <= step) {
        return std::partition_point(first, last, before);
      }
      const It probe = last - step;
      if (before(*probe)) return std::partition_point(probe + 1, last, before);
      last = probe;
      step *= 2;
    }
  }

  /// Earliest start >= now of an idle hole of `service` length.
  static Nanos earliest_fit(const Lane& lane, Nanos now, Nanos service) {
    const auto& busy = lane.busy;
    if (busy.empty() || busy.back().end <= now) return now;  // idle tail
    Nanos candidate = now;
    // First interval that could constrain candidate: the one before or at it.
    auto it = search_from_tail(
        busy.begin(), busy.end(),
        [candidate](const Interval& iv) { return iv.start <= candidate; });
    if (it != busy.begin() && std::prev(it)->end > candidate) {
      candidate = std::prev(it)->end;
    }
    for (; it != busy.end(); ++it) {
      if (candidate + service <= it->start) break;  // fits in this gap
      candidate = std::max(candidate, it->end);
    }
    return candidate;
  }

  static void insert_interval(Lane& lane, Nanos start, Nanos end) {
    auto& busy = lane.busy;
    // First interval starting at or after `start`; the common append at the
    // tail skips the search.
    auto next = busy.empty() || busy.back().start < start
                    ? busy.end()
                    : search_from_tail(busy.begin(), busy.end(),
                                       [start](const Interval& iv) {
                                         return iv.start < start;
                                       });
    // Merge with an adjacent predecessor/successor when exactly contiguous.
    if (next != busy.begin() && std::prev(next)->end == start) {
      auto prev = std::prev(next);
      if (next != busy.end() && next->start == end) {
        prev->end = next->end;
        busy.erase(next);
      } else {
        prev->end = end;
      }
    } else if (next != busy.end() && next->start == end) {
      next->start = start;
    } else {
      busy.insert(next, Interval{start, end});
    }
    prune(lane);
  }

  /// Sweep-merge idle gaps smaller than a doubling resolution until the
  /// interval count is comfortable again. Each pass compacts in place,
  /// folding every interval whose gap to the survivor before it is within
  /// `epsilon` into that survivor.
  static void prune(Lane& lane) {
    auto& busy = lane.busy;
    if (busy.size() <= kMaxIntervals) return;
    Nanos epsilon = 64;
    while (busy.size() > kMaxIntervals / 2) {
      std::size_t kept = 0;
      for (std::size_t i = 1; i < busy.size(); ++i) {
        if (busy[i].start - busy[kept].end <= epsilon) {
          busy[kept].end = busy[i].end;
        } else {
          busy[++kept] = busy[i];
        }
      }
      busy.resize(kept + 1);
      epsilon *= 2;
    }
  }

  std::size_t lanes_;
  std::vector<Lane> lanes_state_;
  /// Orders saturated placements (see reserve()); never held by the
  /// idle-at-now fast path.
  std::mutex saturated_mu_;
  std::atomic<Nanos> busy_total_{0};
  TimeSeries* busy_series_;
};

}  // namespace hcl::sim
