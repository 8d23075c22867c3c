// Conservative time-window synchronization for actor clocks.
//
// Actors advance their simulated clocks from unsynchronized real threads, so
// without coordination one actor can race arbitrarily far ahead in simulated
// time, reserve future resource slots, and decouple from the contention it
// should be experiencing (its competitors' requests — earlier in simulated
// time — would be issued later in real time). The classic conservative
// parallel-discrete-event fix: no actor may advance more than a window W
// beyond the slowest ACTIVE actor. The slowest actor is never throttled, so
// progress is guaranteed. Server stubs run inline on their caller's thread
// under the caller's clock, so rank threads are the only ones throttled.
//
// W trades fidelity against parallelism: it must exceed one operation's
// simulated span (so the common path never throttles) and stay far below
// benchmark horizons. 500 us fits every workload here.
//
// Scale (DESIGN.md §5j): at 2560 ranks a flat O(ranks) floor scan under
// every throttle serializes the cluster on one cache line. The floor is
// therefore striped: ranks live in fixed stripes of 64, each stripe keeps a
// LOWER-BOUND cache of its active minimum, and the global floor is the min
// over stripe caches with a lazy exact-rescan of only the winning stripe.
// Lower-bound staleness is the safe direction — a stale-low floor causes an
// extra recompute, never a window breach. All transitions that can LOWER a
// floor (activations) are serialized against cache raises by per-stripe
// locks plus an activation sequence number, closing the lost-min races this
// file historically had (see the regression tests in
// tests/sim/clock_window_test.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/spin.h"
#include "sim/time.h"

namespace hcl::sim {

namespace detail {

/// Cooperative-wait hook for multiplexed runners (cluster.h): when a rank
/// must wait out the window, the runner parks the rank (yielding its worker
/// thread to a pending or admissible rank) instead of sleeping. Installed
/// per worker thread; null means "sleep for real" (the dedicated
/// thread-per-rank mode).
class ThrottleParker {
 public:
  virtual ~ThrottleParker() = default;
  /// Called with the rank's published clock. Returns once the scheduler has
  /// resumed the rank; the caller rechecks the window condition in a loop.
  virtual void park(int rank, Nanos now) = 0;
};

inline thread_local ThrottleParker* tls_parker = nullptr;

}  // namespace detail

class ClockWindow {
 public:
  static constexpr Nanos kWindow = 500 * kMicrosecond;
  /// Ranks per floor stripe: one cache line of clocks worth of ranks. 64
  /// keeps the stripe scan short while bounding the stripe-min array at 40
  /// entries for the paper's 2560-rank topology.
  static constexpr int kStripeRanks = 64;
  static constexpr Nanos kNoFloor = std::numeric_limits<Nanos>::max();

  explicit ClockWindow(int ranks)
      : clocks_(static_cast<std::size_t>(ranks)),
        active_(static_cast<std::size_t>(ranks)),
        stripes_((static_cast<std::size_t>(ranks) + kStripeRanks - 1) /
                 kStripeRanks) {
    for (auto& c : clocks_) c.store(0, std::memory_order_relaxed);
    for (auto& a : active_) a.store(0, std::memory_order_relaxed);
  }

  /// Register `rank` as active at clock `now`. Idempotent (the runner
  /// pre-activates every rank, then ActorScope re-activates on the driving
  /// thread). The whole activation runs under edge_lock_ (edge lock, then
  /// stripe lock — the order deactivate uses), so it is atomic against a
  /// raiser's validate+raise pair, and the global cache is lowered BEFORE
  /// the clock becomes visible: no reader can see the new clock in the
  /// exact floor while the cache still holds a higher one, and no raise can
  /// bury it (the historical store(min(load, now)) lost-min race). The
  /// sequence bump comes last, after the clock is published: a raise
  /// computed from a scan that may have missed it fails validation, and one
  /// that read the new sequence scanned after the clock was visible.
  void activate(int rank, Nanos now) {
    Stripe& s = stripe_of(rank);
    std::lock_guard<SpinLock> eg(edge_lock_);
    atomic_min(floor_cache_, now);
    {
      std::lock_guard<SpinLock> sg(s.lock);
      clocks_[static_cast<std::size_t>(rank)].store(now,
                                                    std::memory_order_release);
      if (active_[static_cast<std::size_t>(rank)].exchange(
              1, std::memory_order_acq_rel) == 0) {
        active_count_.fetch_add(1, std::memory_order_acq_rel);
      }
      atomic_min(s.floor, now);
    }
    activation_seq_.fetch_add(1, std::memory_order_acq_rel);
  }

  void deactivate(int rank) {
    Stripe& s = stripe_of(rank);
    bool was_last = false;
    {
      std::lock_guard<SpinLock> sg(s.lock);
      if (active_[static_cast<std::size_t>(rank)].exchange(
              0, std::memory_order_acq_rel) != 0) {
        was_last =
            active_count_.fetch_sub(1, std::memory_order_acq_rel) == 1;
      }
    }
    if (!was_last) return;
    // Last rank out: clear the run's floor so back-to-back runs (run_phases
    // after reset_clocks) don't inherit a stale-HIGH cache that would let
    // early ranks of the next run sail past the window unchecked.
    std::lock_guard<SpinLock> eg(edge_lock_);
    if (active_count_.load(std::memory_order_acquire) != 0) return;
    activation_seq_.fetch_add(1, std::memory_order_acq_rel);
    floor_cache_.store(kNoFloor, std::memory_order_release);
    for (auto& stripe : stripes_) {
      std::lock_guard<SpinLock> sg(stripe.lock);
      stripe.floor.store(scan_stripe(index_of(stripe)),
                         std::memory_order_release);
    }
  }

  /// Publish `now` for `rank` and wait (really, or cooperatively when a
  /// runner installed a parker) until no longer more than kWindow ahead of
  /// the slowest active actor.
  void throttle(int rank, Nanos now) {
    clocks_[static_cast<std::size_t>(rank)].store(now,
                                                  std::memory_order_relaxed);
    // Fast path: the cached floor is a lower bound; being stale-low only
    // causes extra recomputes, never unsafety. (Subtract instead of adding
    // kWindow so the +inf empty-window sentinel cannot overflow.)
    if (now - kWindow <= floor_cache_.load(std::memory_order_acquire)) return;
    for (;;) {
      const Nanos f = current_floor();
      if (f == kNoFloor || now - kWindow <= f) return;
      if (detail::tls_parker != nullptr) {
        detail::tls_parker->park(rank, now);
      } else {
        // Sleep, don't spin: waiting threads must cede the CPU to the
        // stragglers they are waiting on.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  /// Minimum clock among active actors — INCLUDING the caller, so the
  /// slowest actor trivially passes its own check (now <= now + W) and the
  /// cached floor is a valid lower bound for every waiter. (An earlier
  /// exclude-self variant let the slowest actor cache the second-slowest
  /// clock, poisoning the fast path for everyone.) Returns kNoFloor when no
  /// actor is active.
  ///
  /// Cost: O(stripes) to find the winning stripe cache + O(kStripeRanks) to
  /// rescan only that stripe exactly, instead of the historical O(ranks)
  /// full scan. Loops while the winning stripe's cache was stale-low.
  [[nodiscard]] Nanos current_floor() {
    for (;;) {
      const std::uint64_t seq =
          activation_seq_.load(std::memory_order_acquire);
      Nanos best = kNoFloor;
      std::size_t best_stripe = stripes_.size();
      for (std::size_t i = 0; i < stripes_.size(); ++i) {
        const Nanos v = stripes_[i].floor.load(std::memory_order_acquire);
        if (v < best) {
          best = v;
          best_stripe = i;
        }
      }
      Nanos exact = kNoFloor;
      if (best_stripe != stripes_.size()) {
        Stripe& s = stripes_[best_stripe];
        std::lock_guard<SpinLock> sg(s.lock);
        exact = scan_stripe(best_stripe);
        if (exact != best) {
          // Cache was stale (ranks advanced or deactivated): raise it —
          // safe under the stripe lock, which excludes concurrent
          // activations into this stripe — and re-elect a winner.
          s.floor.store(exact, std::memory_order_release);
          continue;
        }
      }
      // Raise the global fast-path cache, but only if no activation landed
      // since this computation began (an activation may have introduced a
      // rank below `exact` that the scan missed).
      const Nanos cached = floor_cache_.load(std::memory_order_relaxed);
      if (exact > cached) {
        std::lock_guard<SpinLock> eg(edge_lock_);
        if (activation_seq_.load(std::memory_order_acquire) == seq) {
          atomic_max(floor_cache_, exact);
        }
      }
      return exact;
    }
  }

  /// Exact O(ranks) floor scan — kept for tests and debugging; the hot path
  /// uses current_floor().
  [[nodiscard]] Nanos exact_floor() const {
    Nanos f = kNoFloor;
    for (std::size_t r = 0; r < clocks_.size(); ++r) {
      if (active_[r].load(std::memory_order_acquire) != 0) {
        f = std::min(f, clocks_[r].load(std::memory_order_acquire));
      }
    }
    return f;
  }

  /// The fast-path bound as currently cached (tests assert it never exceeds
  /// the exact floor).
  [[nodiscard]] Nanos cached_floor() const noexcept {
    return floor_cache_.load(std::memory_order_acquire);
  }

  [[nodiscard]] int active_count() const noexcept {
    return active_count_.load(std::memory_order_acquire);
  }

 private:
  struct alignas(64) Stripe {
    SpinLock lock;
    /// Lower bound on the minimum clock among this stripe's active ranks;
    /// kNoFloor when (believed) empty.
    std::atomic<Nanos> floor{std::numeric_limits<Nanos>::max()};
  };

  [[nodiscard]] Stripe& stripe_of(int rank) noexcept {
    return stripes_[static_cast<std::size_t>(rank) / kStripeRanks];
  }
  [[nodiscard]] std::size_t index_of(const Stripe& s) const noexcept {
    return static_cast<std::size_t>(&s - stripes_.data());
  }

  /// Exact min over the stripe's active ranks; call with the stripe lock
  /// held so no activation can land mid-scan.
  [[nodiscard]] Nanos scan_stripe(std::size_t stripe) const {
    const std::size_t lo = stripe * kStripeRanks;
    const std::size_t hi =
        std::min(lo + static_cast<std::size_t>(kStripeRanks), clocks_.size());
    Nanos f = kNoFloor;
    for (std::size_t r = lo; r < hi; ++r) {
      if (active_[r].load(std::memory_order_acquire) != 0) {
        f = std::min(f, clocks_[r].load(std::memory_order_relaxed));
      }
    }
    return f;
  }

  static void atomic_min(std::atomic<Nanos>& cell, Nanos v) noexcept {
    Nanos cur = cell.load(std::memory_order_relaxed);
    while (v < cur && !cell.compare_exchange_weak(
                          cur, v, std::memory_order_acq_rel,
                          std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<Nanos>& cell, Nanos v) noexcept {
    Nanos cur = cell.load(std::memory_order_relaxed);
    while (v > cur && !cell.compare_exchange_weak(
                          cur, v, std::memory_order_acq_rel,
                          std::memory_order_relaxed)) {
    }
  }

  std::vector<std::atomic<Nanos>> clocks_;
  std::vector<std::atomic<std::uint8_t>> active_;
  std::vector<Stripe> stripes_;
  /// Global fast-path lower bound on the floor. Lowered by activations
  /// (CAS-min, always safe), raised only by current_floor() after sequence
  /// validation under edge_lock_.
  std::atomic<Nanos> floor_cache_{std::numeric_limits<Nanos>::max()};
  /// Bumped by every activation (and the idle reset); a floor raise computed
  /// across a bump is discarded.
  std::atomic<std::uint64_t> activation_seq_{0};
  std::atomic<int> active_count_{0};
  /// Serializes floor_cache_ raises against each other, against whole
  /// activations and against the idle reset. Taken before a stripe lock
  /// (activate, deactivate), never while one is held.
  SpinLock edge_lock_;
};

}  // namespace hcl::sim
