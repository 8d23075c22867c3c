// Multiplexing-equivalence suite (DESIGN.md §5j): running the same workload
// at different worker counts must change wall-clock behaviour only —
// per-rank simulated clocks and fabric counter totals must come out
// byte-identical. The probe workload is contention-free by construction
// (every rank's reservations land in its own pre-spaced slots), because
// gap-filling under genuine contention is real-arrival-order sensitive by
// design — there the guarantee is totals, not per-op placement (second
// test).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "fabric/fabric.h"
#include "serial/archive.h"
#include "sim/cluster.h"

namespace hcl::sim {
namespace {

struct RunResult {
  std::vector<Nanos> clocks;
  std::int64_t packets = 0;
  std::int64_t bytes = 0;
  std::int64_t writes = 0;
};

constexpr int kNodes = 4;
constexpr int kProcs = 8;
constexpr int kIters = 16;
constexpr std::size_t kLen = 2048;

RunResult run_spaced_workload(unsigned max_threads) {
  const Topology topo(kNodes, kProcs);
  Cluster cluster(topo, /*seed=*/42);
  fabric::Fabric fab(topo, CostModel::ares());
  // Per-target scratch: each rank writes its own region, no data races.
  std::vector<std::vector<char>> dst(
      static_cast<std::size_t>(kNodes),
      std::vector<char>(static_cast<std::size_t>(kProcs) * kLen, 0));
  std::vector<char> src(kLen, 'x');

  // Slots: ranks sharing a node (and thus a target NIC) are offset by
  // kSlot >> one op's total service, so no two reservations ever overlap
  // and gap-filling serves every request at its arrival time regardless of
  // real scheduling order.
  const Nanos kSlot = 8 * kMicrosecond;
  const Nanos kStride = kSlot * kProcs;
  cluster.run(
      [&](Actor& a) {
        const int local = topo.local_index(a.rank());
        const NodeId target = (a.node() + 1) % kNodes;
        for (int i = 0; i < kIters; ++i) {
          a.advance_to(i * kStride + local * kSlot);
          fab.put(a, target,
                  dst[static_cast<std::size_t>(target)].data() +
                      static_cast<std::size_t>(local) * kLen,
                  src.data(), kLen);
        }
      },
      max_threads);

  RunResult out;
  out.clocks.reserve(static_cast<std::size_t>(topo.num_ranks()));
  for (Rank r = 0; r < topo.num_ranks(); ++r) {
    out.clocks.push_back(cluster.actor(r).now());
  }
  for (NodeId n = 0; n < kNodes; ++n) {
    const auto& c = fab.nic(n).counters();
    out.packets += c.total_packets.load();
    out.bytes += c.total_bytes.load();
    out.writes += c.write_count.load();
  }
  return out;
}

TEST(Multiplex, SimulatedResultsIndependentOfThreadCap) {
  const int ranks = kNodes * kProcs;
  // max_threads = num_ranks (a worker per rank), num_ranks/4, and 2 —
  // identical per-rank clocks and counter totals.
  const RunResult full = run_spaced_workload(static_cast<unsigned>(ranks));
  const RunResult quarter =
      run_spaced_workload(static_cast<unsigned>(ranks / 4));
  const RunResult two = run_spaced_workload(2);

  EXPECT_GT(full.writes, 0);
  EXPECT_EQ(full.clocks, quarter.clocks);
  EXPECT_EQ(full.clocks, two.clocks);
  EXPECT_EQ(full.packets, quarter.packets);
  EXPECT_EQ(full.packets, two.packets);
  EXPECT_EQ(full.bytes, quarter.bytes);
  EXPECT_EQ(full.bytes, two.bytes);
  EXPECT_EQ(full.writes, quarter.writes);
  EXPECT_EQ(full.writes, two.writes);
}

TEST(Multiplex, ContendedWorkloadPreservesCounterTotals) {
  // Under genuine contention per-op placement is real-order sensitive (by
  // design; see resource.h), but totals are order-independent sums and the
  // makespan must stay within the window guarantee of the slowest rank.
  const Topology topo(2, 16);
  auto run_once = [&](unsigned max_threads) {
    Cluster cluster(topo, 7);
    fabric::Fabric fab(topo, CostModel::ares());
    std::vector<char> src(kLen, 'y');
    std::vector<std::vector<char>> dst(
        2, std::vector<char>(static_cast<std::size_t>(topo.num_ranks()) *
                             kLen));
    cluster.run(
        [&](Actor& a) {
          const NodeId target = (a.node() + 1) % 2;
          for (int i = 0; i < kIters; ++i) {
            fab.put(a, target,
                    dst[static_cast<std::size_t>(target)].data() +
                        static_cast<std::size_t>(a.rank()) * kLen,
                    src.data(), kLen);
          }
        },
        max_threads);
    std::int64_t packets = 0;
    std::int64_t writes = 0;
    for (NodeId n = 0; n < 2; ++n) {
      packets += fab.nic(n).counters().total_packets.load();
      writes += fab.nic(n).counters().write_count.load();
    }
    return std::pair<std::int64_t, std::int64_t>(packets, writes);
  };
  const auto full = run_once(32);
  const auto four = run_once(4);
  EXPECT_EQ(full, four);
  EXPECT_EQ(full.second, 2LL * 16 * kIters);
}

TEST(Multiplex, ManyRanksOnTinyPoolAllComplete) {
  // Work conservation at a rank:thread ratio near the paper topology's
  // (2560 ranks : ~16 workers): every rank runs exactly once and the
  // window invariant holds throughout.
  const Topology topo(10, 30);  // 300 ranks
  Cluster cluster(topo, 3);
  std::atomic<int> visits{0};
  std::atomic<int> violations{0};
  cluster.run(
      [&](Actor& a) {
        visits.fetch_add(1, std::memory_order_relaxed);
        for (int i = 0; i < 8; ++i) {
          a.advance(ClockWindow::kWindow / 4);
          if (a.now() > a.window()->exact_floor() + ClockWindow::kWindow) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      /*max_threads=*/4);
  EXPECT_EQ(visits.load(), 300);
  EXPECT_EQ(violations.load(), 0);
}

TEST(Multiplex, ParkedRanksResumeWithTheirOwnActorAndBuffers) {
  // Every step jumps a rank two windows ahead, so it parks until every rank
  // reaches that step; the last to arrive is the first to jump next step,
  // so each rank parks at least kSteps / 2 times. A parked fiber resumes on
  // whichever of the three workers admits it, and in between its worker
  // runs other ranks. After each park the rank must still see itself as
  // the current actor, and a pooled buffer held across every park must keep
  // its bytes while other ranks take and return buffers on the same
  // workers.
  constexpr int kSteps = 16;
  const Topology topo(4, 16);  // 64 ranks
  Cluster cluster(topo, 11);
  std::atomic<int> wrong_actor{0};
  std::atomic<int> torn_buffer{0};
  cluster.run(
      [&](Actor& a) {
        serial::OutArchive held;
        for (int step = 0; step < kSteps; ++step) {
          held.u64(static_cast<std::uint64_t>(a.rank()) * kSteps + step);
          {
            serial::OutArchive churn;  // takes and returns a spare
            churn.u64(~std::uint64_t{0});
          }
          a.advance(2 * ClockWindow::kWindow);
          if (&this_actor() != &a || this_actor().rank() != a.rank()) {
            wrong_actor.fetch_add(1, std::memory_order_relaxed);
          }
        }
        serial::InArchive in(held.buffer());
        for (int step = 0; step < kSteps; ++step) {
          if (in.u64() !=
              static_cast<std::uint64_t>(a.rank()) * kSteps + step) {
            torn_buffer.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      /*max_threads=*/3);
  EXPECT_EQ(wrong_actor.load(), 0);
  EXPECT_EQ(torn_buffer.load(), 0);
  for (Rank r = 0; r < topo.num_ranks(); ++r) {
    EXPECT_EQ(cluster.actor(r).now(), kSteps * 2 * ClockWindow::kWindow);
  }
}

}  // namespace
}  // namespace hcl::sim
