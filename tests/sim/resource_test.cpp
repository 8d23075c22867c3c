#include "sim/resource.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/striped.h"

namespace hcl::sim {
namespace {

using Interval = Resource::Interval;

std::vector<std::pair<Nanos, Nanos>> as_pairs(const std::vector<Interval>& v) {
  std::vector<std::pair<Nanos, Nanos>> out;
  out.reserve(v.size());
  for (const auto& iv : v) out.emplace_back(iv.start, iv.end);
  return out;
}

/// Brute-force model of Resource's placement rules: per-lane sorted interval
/// lists with no merging, first fit found by a linear scan from the front,
/// the same idle-at-now lane rotation and lowest-index saturated election.
class ReferenceResource {
 public:
  ReferenceResource(int lanes, std::size_t origin)
      : lanes_(static_cast<std::size_t>(lanes)), origin_(origin) {}

  Nanos reserve(Nanos now, Nanos service) {
    const std::size_t n = lanes_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t l = (origin_ + i) % n;
      if (fit(lanes_[l], now, service) == now) return place(l, now, service);
    }
    std::size_t best = 0;
    for (std::size_t l = 1; l < n; ++l) {
      if (fit(lanes_[l], now, service) < fit(lanes_[best], now, service)) {
        best = l;
      }
    }
    return place(best, fit(lanes_[best], now, service), service);
  }

  /// The lane with exactly touching intervals coalesced: the form the flat
  /// store keeps.
  [[nodiscard]] std::vector<Interval> merged(std::size_t lane) const {
    std::vector<Interval> out;
    for (const auto& iv : lanes_[lane]) {
      if (!out.empty() && out.back().end == iv.start) {
        out.back().end = iv.end;
      } else {
        out.push_back(iv);
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }

 private:
  static Nanos fit(const std::vector<Interval>& lane, Nanos now,
                   Nanos service) {
    Nanos t = now;
    for (const auto& iv : lane) {
      if (iv.end <= t) continue;
      if (iv.start >= t + service) break;
      t = iv.end;
    }
    return t;
  }

  Nanos place(std::size_t lane, Nanos start, Nanos service) {
    auto& v = lanes_[lane];
    auto at = std::find_if(v.begin(), v.end(), [&](const Interval& iv) {
      return iv.start > start;
    });
    v.insert(at, Interval{start, start + service});
    return start + service;
  }

  std::vector<std::vector<Interval>> lanes_;
  std::size_t origin_;
};

TEST(Resource, SingleLaneSerializes) {
  Resource r(1);
  // Two operations arriving "at the same time" must be served back-to-back.
  EXPECT_EQ(r.reserve(0, 100), 100);
  EXPECT_EQ(r.reserve(0, 100), 200);
  EXPECT_EQ(r.reserve(0, 100), 300);
}

TEST(Resource, IdleLaneStartsAtArrival) {
  Resource r(1);
  EXPECT_EQ(r.reserve(1'000, 50), 1'050);
  // Arrival after the lane is free again: no queueing.
  EXPECT_EQ(r.reserve(5'000, 50), 5'050);
}

TEST(Resource, MultiLaneParallelism) {
  Resource r(2);
  EXPECT_EQ(r.reserve(0, 100), 100);  // lane 0
  EXPECT_EQ(r.reserve(0, 100), 100);  // lane 1 — parallel
  EXPECT_EQ(r.reserve(0, 100), 200);  // queues behind the earliest lane
}

TEST(Resource, ZeroServiceIsFree) {
  Resource r(1);
  EXPECT_EQ(r.reserve(42, 0), 42);
  EXPECT_EQ(r.busy_total(), 0);
}

TEST(Resource, BusyTotalAccumulates) {
  Resource r(4);
  r.reserve(0, 10);
  r.reserve(0, 20);
  EXPECT_EQ(r.busy_total(), 30);
}

TEST(Resource, UtilizationFraction) {
  Resource r(2);
  r.reserve(0, 100);
  r.reserve(0, 100);
  // 200 ns busy over (100 ns elapsed x 2 lanes) = fully utilized.
  EXPECT_DOUBLE_EQ(r.utilization(100), 1.0);
  EXPECT_DOUBLE_EQ(r.utilization(200), 0.5);
}

TEST(Resource, HorizonTracksLatestLane) {
  Resource r(2);
  r.reserve(0, 100);
  r.reserve(0, 300);
  EXPECT_EQ(r.horizon(), 300);
}

TEST(Resource, ResetClearsState) {
  Resource r(1);
  r.reserve(0, 500);
  r.reset();
  EXPECT_EQ(r.busy_total(), 0);
  EXPECT_EQ(r.reserve(0, 10), 10);
}

TEST(Resource, MakespanUnderConcurrentReservations) {
  // Total service pushed from many threads must equal busy_total, and the
  // horizon must be at least total/lanes (conservation of work).
  Resource r(4);
  constexpr int kThreads = 8;
  constexpr int kOps = 5'000;
  constexpr Nanos kService = 7;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&r] {
      for (int i = 0; i < kOps; ++i) r.reserve(0, kService);
    });
  }
  for (auto& t : pool) t.join();
  const Nanos total = static_cast<Nanos>(kThreads) * kOps * kService;
  EXPECT_EQ(r.busy_total(), total);
  EXPECT_GE(r.horizon(), total / 4);
}

TEST(Resource, FeedsBusySeries) {
  TimeSeries series(100, 10);
  Resource r(1, &series);
  r.reserve(0, 50);    // bucket 0
  r.reserve(250, 30);  // bucket 2 (starts at 250)
  EXPECT_EQ(series.bucket(0), 50);
  EXPECT_EQ(series.bucket(2), 30);
}

TEST(Resource, SaturationStretchesFinishTimes) {
  // The mechanism behind the queue-scaling plateau (Fig. 6c): with offered
  // load >> capacity, the k-th op finishes around k*service/lanes.
  Resource r(2);
  Nanos finish = 0;
  for (int i = 0; i < 1'000; ++i) finish = r.reserve(0, 10);
  EXPECT_EQ(finish, 1'000 * 10 / 2);
}

/// Where FlatStoreMatchesBruteForceReference aims its arrivals.
enum class Arrival {
  kAnywhere,  // uniform over the lane, from empty lanes
  kNearTail,  // within 64 intervals of the tail of a 4 Ki-interval lane
  kFarPast,   // within the first 16 intervals of a 4 Ki-interval lane
};

TEST(Resource, FlatStoreMatchesBruteForceReference) {
  // Seeded random reservation streams mixing arrivals in past gaps, arrivals
  // past the tail, and reservations built to touch an existing interval on
  // the left, on the right, or on both sides (exact-adjacency merges). The
  // kNearTail and kFarPast streams first grow every lane past 4 Ki
  // intervals, so the lookup's search back from the tail crosses several
  // doublings or runs all the way to the front.
  for (const Arrival mode :
       {Arrival::kAnywhere, Arrival::kNearTail, Arrival::kFarPast}) {
    for (const int lanes : {1, 2, 32}) {
      // The reference is linear per op; keep the 4 Ki-interval lanes few.
      if (mode != Arrival::kAnywhere && lanes > 2) continue;
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message()
                     << "mode=" << static_cast<int>(mode) << " lanes=" << lanes
                     << " seed=" << seed);
        Resource r(lanes);
        ReferenceResource ref(
            lanes, lanes == 1 ? 0
                              : detail::tls_stripe() %
                                    static_cast<unsigned>(lanes));
        Rng rng(seed);
        Nanos horizon = 0;
        if (mode != Arrival::kAnywhere) {
          // Tail appends separated by idle gaps; `lanes` arrivals at the same
          // instant land one per lane.
          for (int i = 0; i < 4'200; ++i) {
            const Nanos now =
                horizon + 1 + static_cast<Nanos>(rng.next_below(1'000));
            for (int l = 0; l < lanes; ++l) {
              const Nanos service = 1 + static_cast<Nanos>(rng.next_below(100));
              const Nanos want = ref.reserve(now, service);
              ASSERT_EQ(r.reserve(now, service), want) << "fill " << i;
              horizon = std::max(horizon, want);
            }
          }
          for (std::size_t l = 0; l < ref.lanes(); ++l) {
            ASSERT_GE(ref.merged(l).size(), 4'096u) << "lane " << l;
          }
        }
        for (int op = 0; op < 3'000; ++op) {
          Nanos service = 1 + static_cast<Nanos>(rng.next_below(200));
          Nanos now = static_cast<Nanos>(rng.next_below(
              static_cast<std::uint64_t>(horizon) + 500));
          const auto lane = rng.next_below(ref.lanes());
          const auto busy = ref.merged(lane);
          if (!busy.empty()) {
            std::size_t k = 0;
            if (mode == Arrival::kNearTail) {
              k = busy.size() - 1 -
                  rng.next_below(std::min<std::size_t>(64, busy.size()));
              now = busy[k].start + static_cast<Nanos>(rng.next_below(1'000));
            } else if (mode == Arrival::kFarPast) {
              k = rng.next_below(std::min<std::size_t>(16, busy.size()));
              now = static_cast<Nanos>(
                  rng.next_below(static_cast<std::uint64_t>(busy[k].end) + 1));
            } else {
              k = rng.next_below(busy.size());
            }
            switch (rng.next_below(4)) {
              case 0:  // arrival at an interval's end: touches on the left
                now = busy[k].end;
                break;
              case 1:  // finish exactly at an interval's start: on the right
                now = std::max<Nanos>(0, busy[k].start - service);
                break;
              case 2:  // fill a whole gap: touches on both sides
                if (k + 1 < busy.size()) {
                  now = busy[k].end;
                  service = busy[k + 1].start - busy[k].end;
                }
                break;
              default:  // uniform arrival, mostly into past gaps
                break;
            }
          }
          const Nanos want = ref.reserve(now, service);
          ASSERT_EQ(r.reserve(now, service), want) << "op " << op;
          horizon = std::max(horizon, want);
        }
        for (std::size_t l = 0; l < ref.lanes(); ++l) {
          EXPECT_EQ(as_pairs(r.intervals(static_cast<int>(l))),
                    as_pairs(ref.merged(l)))
              << "lane " << l;
        }
        EXPECT_EQ(r.horizon(), horizon);
      }
    }
  }
}

TEST(Resource, SweepCompactsOverfullLane) {
  // Tail appends with random idle gaps push one lane just past
  // kMaxIntervals; the sweep must halve it without losing busy time.
  Resource r(1);
  Rng rng(7);
  std::vector<Interval> issued;
  issued.reserve(Resource::kMaxIntervals + 1);
  Nanos t = 0;
  Nanos total = 0;
  for (std::size_t i = 0; i <= Resource::kMaxIntervals; ++i) {
    if (i == Resource::kMaxIntervals) {
      ASSERT_EQ(r.intervals(0).size(), Resource::kMaxIntervals);
    }
    t += 1 + static_cast<Nanos>(rng.next_below(1'000));
    const Nanos service = 1 + static_cast<Nanos>(rng.next_below(100));
    ASSERT_EQ(r.reserve(t, service), t + service);
    issued.push_back(Interval{t, t + service});
    t += service;
    total += service;
  }
  const auto swept = r.intervals(0);
  EXPECT_LE(swept.size(), Resource::kMaxIntervals / 2);
  for (std::size_t i = 0; i < swept.size(); ++i) {
    ASSERT_LT(swept[i].start, swept[i].end);
    if (i > 0) {
      ASSERT_LT(swept[i - 1].end, swept[i].start);
    }
  }
  // Every granted interval lies inside one swept interval.
  std::size_t j = 0;
  for (const auto& iv : issued) {
    while (j < swept.size() && swept[j].end < iv.end) ++j;
    ASSERT_LT(j, swept.size());
    ASSERT_LE(swept[j].start, iv.start);
  }
  EXPECT_EQ(swept.front().start, issued.front().start);
  EXPECT_EQ(r.horizon(), issued.back().end);
  EXPECT_EQ(r.busy_total(), total);
}

TEST(Resource, ResetThenReuseMatchesFreshResource) {
  Resource used(2);
  Resource fresh(2);
  for (int i = 0; i < 5'000; ++i) used.reserve(i * 3, 50);
  used.reset();
  EXPECT_EQ(used.busy_total(), 0);
  EXPECT_EQ(used.horizon(), 0);
  EXPECT_TRUE(used.intervals(0).empty());
  EXPECT_TRUE(used.intervals(1).empty());
  Rng rng(11);
  for (int i = 0; i < 2'000; ++i) {
    const Nanos now = static_cast<Nanos>(rng.next_below(20'000));
    const Nanos service = 1 + static_cast<Nanos>(rng.next_below(100));
    ASSERT_EQ(used.reserve(now, service), fresh.reserve(now, service)) << i;
  }
  EXPECT_EQ(used.busy_total(), fresh.busy_total());
  EXPECT_EQ(used.horizon(), fresh.horizon());
  for (int l = 0; l < 2; ++l) {
    EXPECT_EQ(as_pairs(used.intervals(l)), as_pairs(fresh.intervals(l)));
  }
}

}  // namespace
}  // namespace hcl::sim
