// Replica failover & recovery (DESIGN.md §5f): kill a server, ops re-route
// to the promoted replica (reads AND writes, scalar AND batched), rejoin
// replays the promoted journal into the primary before it resumes
// ownership, and the fenced epoch stream keeps cached leases from serving
// pre-failover values.
#include "core/hosted_queue.h"
#include "core/partitioned_map.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fabric/fault_plan.h"
#include "txn/txn.h"

namespace hcl {
namespace {

using fabric::FaultPlan;
using sim::Actor;
using sim::CostModel;

Context::Config zero_config(int nodes, int procs,
                            std::shared_ptr<FaultPlan> plan) {
  Context::Config cfg;
  cfg.num_nodes = nodes;
  cfg.procs_per_node = procs;
  cfg.model = CostModel::zero();
  cfg.fault_plan = std::move(plan);
  return cfg;
}

/// First key >= lo whose partition is `p`.
template <typename Map>
int key_in_partition(const Map& m, int p, int lo = 0) {
  for (int k = lo;; ++k) {
    if (m.partition_of(k) == p) return k;
  }
}

// ---------------------------------------------------------------------------
// unordered_map: the full kill -> promote -> rejoin -> repair arc.
// ---------------------------------------------------------------------------

TEST(Failover, UnorderedMapKillPromoteRejoinRepair) {
  auto plan = std::make_shared<FaultPlan>(1);
  Context ctx(zero_config(3, 1, plan));
  unordered_map<int, int> m(ctx, {.num_partitions = 3, .replication = 1});
  // Partition 1 lives on node 1; its standby is partition 2 on node 2.
  ASSERT_EQ(m.partition_owner(1), 1);
  const int ka = key_in_partition(m, 1);
  const int kb = key_in_partition(m, 1, ka + 1);
  const int kc = key_in_partition(m, 1, kb + 1);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(ka, 100));
    EXPECT_TRUE(m.insert(kc, 300));
  });

  plan->fail_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;  // ranks on the dead node stay quiet
    int v = 0;
    EXPECT_TRUE(m.find(ka, &v));  // replica serves the pre-kill value
    EXPECT_EQ(v, 100);
    EXPECT_FALSE(m.upsert(ka, 200));  // overwrite (not fresh), via standby
    EXPECT_TRUE(m.insert(kb, 400));   // fresh insert while down
    EXPECT_TRUE(m.erase(kc));         // erase while down
    EXPECT_TRUE(m.find(ka, &v));
    EXPECT_EQ(v, 200);
    EXPECT_FALSE(m.find(kc, &v));
  });
  EXPECT_TRUE(m.partition_promoted(1));
  EXPECT_GE(m.repair_backlog(1), 3u);
  EXPECT_GT(ctx.fabric().nic(2).counters().failovers.load(), 0);
  EXPECT_GT(plan->counters().node_down_rejections.load(), 0);

  plan->rejoin_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    m.heal(self);
    int v = 0;
    EXPECT_TRUE(m.find(ka, &v));  // now answered by the repaired primary
    EXPECT_EQ(v, 200);
    EXPECT_TRUE(m.find(kb, &v));
    EXPECT_EQ(v, 400);
    EXPECT_FALSE(m.find(kc, &v));
  });
  EXPECT_FALSE(m.partition_promoted(1));
  EXPECT_EQ(m.repair_backlog(1), 0u);
  // The repaired primary adopted an epoch above the failover fence
  // (term << 32), so no epoch it ever issued can collide with the
  // promoted stream.
  EXPECT_GT(m.partition_epoch(1), std::uint64_t{1} << 32);
  EXPECT_GT(ctx.fabric().nic(1).counters().repair_ops.load(), 0);
}

TEST(Failover, UnorderedMapBatchedOpsRescuedMidBundle) {
  auto plan = std::make_shared<FaultPlan>(2);
  Context ctx(zero_config(3, 1, plan));
  unordered_map<int, int> m(ctx,
                            {.num_partitions = 3,
                             .replication = 1,
                             .batch = {.max_ops = 8, .max_bytes = 1 << 20,
                                       .max_delay_ns = 1'000'000}});
  std::vector<int> keys;
  for (int i = 0; static_cast<int>(keys.size()) < 6; ++i) {
    if (m.partition_of(i) == 1) keys.push_back(i);
  }
  std::vector<int> values(keys.size(), 7);

  // Route is still marked up when the bundle ships, so it targets the
  // dead primary; the settle loop's rescue hook must re-issue every
  // constituent against the standby.
  plan->fail_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    auto landed = m.insert_batch(keys, values);
    for (bool ok : landed) EXPECT_TRUE(ok);
    auto found = m.find_batch(keys);
    for (std::size_t i = 0; i < found.size(); ++i) {
      ASSERT_TRUE(found[i].has_value());
      EXPECT_EQ(*found[i], 7);
    }
  });
  EXPECT_TRUE(m.partition_promoted(1));

  plan->rejoin_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    m.heal(self);
    auto found = m.find_batch(keys);  // repaired primary has every element
    for (const auto& f : found) {
      ASSERT_TRUE(f.has_value());
      EXPECT_EQ(*f, 7);
    }
  });
  EXPECT_FALSE(m.partition_promoted(1));
}

TEST(Failover, NoReplicationMeansUnavailable) {
  auto plan = std::make_shared<FaultPlan>(3);
  Context ctx(zero_config(2, 1, plan));
  unordered_map<int, int> m(ctx, {.num_partitions = 2});  // replication = 0
  const int k = key_in_partition(m, 1);
  plan->fail_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    try {
      int v;
      m.find(k, &v);
      FAIL() << "find against a dead, unreplicated partition must throw";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kUnavailable);
    }
  });
  plan->rejoin_node(1);
}

// ---------------------------------------------------------------------------
// ordered map.
// ---------------------------------------------------------------------------

TEST(Failover, OrderedMapKillPromoteRejoinRepair) {
  auto plan = std::make_shared<FaultPlan>(4);
  Context ctx(zero_config(3, 1, plan));
  map<int, int> m(ctx, {.num_partitions = 3, .replication = 1});
  const int ka = key_in_partition(m, 1);
  const int kb = key_in_partition(m, 1, ka + 1);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(ka, 10));
  });

  plan->fail_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    int v = 0;
    EXPECT_TRUE(m.find(ka, &v));
    EXPECT_EQ(v, 10);
    EXPECT_TRUE(m.insert(kb, 20));
    EXPECT_TRUE(m.erase(ka));
  });
  EXPECT_TRUE(m.partition_promoted(1));

  plan->rejoin_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    m.heal(self);
    int v = 0;
    EXPECT_FALSE(m.find(ka, &v));
    EXPECT_TRUE(m.find(kb, &v));
    EXPECT_EQ(v, 20);
  });
  EXPECT_FALSE(m.partition_promoted(1));
  EXPECT_GT(m.partition_epoch(1), std::uint64_t{1} << 32);
}

// ---------------------------------------------------------------------------
// queue: FIFO order must survive promotion and repair.
// ---------------------------------------------------------------------------

TEST(Failover, QueueFifoOrderSurvivesKillAndRejoin) {
  auto plan = std::make_shared<FaultPlan>(5);
  Context ctx(zero_config(2, 1, plan));
  queue<int> q(ctx, {.replication = 1});  // host node 0, mirror on node 1
  ASSERT_EQ(q.standby_node(), 1);

  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;  // remote client only
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  });
  EXPECT_EQ(q.mirror_size(), 5u);  // lock-step mirror

  plan->fail_node(0);
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    for (int i = 5; i < 10; ++i) EXPECT_TRUE(q.push(i));  // promoted pushes
    int v = -1;
    EXPECT_TRUE(q.pop(&v));  // FIFO front, served by the mirror
    EXPECT_EQ(v, 0);
  });
  EXPECT_TRUE(q.promoted());
  EXPECT_EQ(q.repair_backlog(), 6u);  // 5 pushes + 1 pop

  plan->rejoin_node(0);
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    q.heal(self);
    for (int expect = 1; expect < 10; ++expect) {  // converged, in order
      int v = -1;
      EXPECT_TRUE(q.pop(&v));
      EXPECT_EQ(v, expect);
    }
    int v;
    EXPECT_FALSE(q.pop(&v));
  });
  EXPECT_FALSE(q.promoted());
  EXPECT_TRUE(q.empty());
}

TEST(Failover, QueuePushBatchReroutesWhileDown) {
  auto plan = std::make_shared<FaultPlan>(6);
  Context ctx(zero_config(2, 1, plan));
  queue<int> q(ctx, {.replication = 1,
                     .batch = {.max_ops = 4, .max_bytes = 1 << 20,
                               .max_delay_ns = 1'000'000}});
  plan->fail_node(0);
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    auto landed = q.push_batch({1, 2, 3, 4, 5});
    for (bool ok : landed) EXPECT_TRUE(ok);
  });
  EXPECT_TRUE(q.promoted());
  plan->rejoin_node(0);
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    q.heal(self);
    for (int expect = 1; expect <= 5; ++expect) {
      int v = -1;
      EXPECT_TRUE(q.pop(&v));
      EXPECT_EQ(v, expect);
    }
  });
  EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------------------------
// priority queue: pop-min identity must survive promotion and repair.
// ---------------------------------------------------------------------------

TEST(Failover, PriorityQueueMinOrderSurvivesKillAndRejoin) {
  auto plan = std::make_shared<FaultPlan>(7);
  Context ctx(zero_config(2, 1, plan));
  priority_queue<int> pq(ctx, {.replication = 1});

  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    for (int v : {30, 10, 50}) EXPECT_TRUE(pq.push(v));
  });
  EXPECT_EQ(pq.mirror_size(), 3u);

  plan->fail_node(0);
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    EXPECT_TRUE(pq.push(20));
    int v = -1;
    EXPECT_TRUE(pq.pop(&v));  // min of {30,10,50,20} from the mirror
    EXPECT_EQ(v, 10);
  });
  EXPECT_TRUE(pq.promoted());

  plan->rejoin_node(0);
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    pq.heal(self);
    for (int expect : {20, 30, 50}) {
      int v = -1;
      EXPECT_TRUE(pq.pop(&v));
      EXPECT_EQ(v, expect);
    }
  });
  EXPECT_FALSE(pq.promoted());
  EXPECT_TRUE(pq.empty());
}

// ---------------------------------------------------------------------------
// Cache coherence across failover: the promoted epoch stream is fenced at
// (term << 32), so one response from the promoted replica makes every
// lease taken on the dead primary's epochs stale.
// ---------------------------------------------------------------------------

TEST(Failover, PromotedEpochFenceStalesCachedLeases) {
  auto plan = std::make_shared<FaultPlan>(8);
  Context ctx(zero_config(3, 1, plan));
  unordered_map<int, int> m(
      ctx, {.num_partitions = 3,
            .replication = 1,
            .cache = {.capacity = 64,
                      .ttl_ns = 1'000'000'000,  // lease never expires here
                      .mode = cache::CacheMode::kInvalidate}});
  const int ka = key_in_partition(m, 1);
  const int kb = key_in_partition(m, 1, ka + 1);

  // Single phase: barriers revoke leases, so the whole arc runs inside
  // one run() on one rank.
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    ASSERT_TRUE(m.insert(ka, 1));
    int v = 0;
    ASSERT_TRUE(m.find(ka, &v));  // miss, fills the cache
    ASSERT_TRUE(m.find(ka, &v));  // hit from the lease
    EXPECT_GE(m.cache_stats().hits, 1);

    plan->fail_node(1);
    // Write a DIFFERENT key through the promoted replica: the response
    // carries the fenced epoch, which must invalidate ka's lease.
    ASSERT_TRUE(m.upsert(kb, 2));
    const auto stale_before = m.cache_stats().stale_reads;
    ASSERT_TRUE(m.find(ka, &v));  // fenced epoch forces revalidation
    EXPECT_EQ(v, 1);              // replica still serves the right value
    EXPECT_GT(m.cache_stats().stale_reads, stale_before);
    plan->rejoin_node(1);
    m.heal(self);
  });
}

// ---------------------------------------------------------------------------
// Async ops take the same route as sync ops: the standby while the route
// marks the primary down, and the rejoined primary only once it is repaired.
// ---------------------------------------------------------------------------

TEST(Failover, MapAsyncWriteReroutesWhilePrimaryMarkedDown) {
  auto plan = std::make_shared<FaultPlan>(9);
  Context ctx(zero_config(3, 1, plan));
  unordered_map<int, int> m(ctx, {.num_partitions = 3, .replication = 1});
  const int ka = key_in_partition(m, 1);
  const int kb = key_in_partition(m, 1, ka + 1);

  plan->fail_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.upsert(ka, 1));  // marks node 1 down in the route table
    bool inserted = false;
    EXPECT_NO_THROW(inserted = m.async_insert(kb, 2).get(self));
    EXPECT_TRUE(inserted);
  });
  EXPECT_TRUE(m.partition_promoted(1));

  plan->rejoin_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    m.heal(self);
    int v = 0;
    EXPECT_TRUE(m.find(kb, &v));
    EXPECT_EQ(v, 2);
  });
  EXPECT_FALSE(m.partition_promoted(1));
}

TEST(Failover, QueueAsyncPushReroutesWhileHostMarkedDown) {
  auto plan = std::make_shared<FaultPlan>(10);
  Context ctx(zero_config(2, 1, plan));
  queue<int> q(ctx, {.replication = 1});  // host node 0, mirror on node 1

  plan->fail_node(0);
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    EXPECT_TRUE(q.push(1));  // marks node 0 down in the route table
    bool pushed = false;
    EXPECT_NO_THROW(pushed = q.async_push(2).get(self));
    EXPECT_TRUE(pushed);
  });
  EXPECT_TRUE(q.promoted());

  plan->rejoin_node(0);
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    q.heal(self);
    for (int expect = 1; expect <= 2; ++expect) {
      int v = -1;
      EXPECT_TRUE(q.pop(&v));
      EXPECT_EQ(v, expect);
    }
  });
  EXPECT_TRUE(q.empty());
}

TEST(Failover, MapEntryPointsRepairRejoinedPrimaryBeforeReading) {
  auto plan = std::make_shared<FaultPlan>(11);
  Context ctx(zero_config(3, 1, plan));
  unordered_map<int, int> m(ctx, {.num_partitions = 3, .replication = 1});
  const int k = key_in_partition(m, 1);
  ctx.run_one(0, [&](Actor&) { EXPECT_TRUE(m.insert(k, 1)); });

  // Each cycle writes through the standby, rejoins WITHOUT heal(), and reads
  // once: first an async op on a remote rank, then a sync op on the rank
  // co-located with the primary. Both must see the standby's write.
  for (int cycle = 0; cycle < 2; ++cycle) {
    SCOPED_TRACE(cycle == 0 ? "async remote" : "sync co-located");
    const int value = 10 + cycle;
    plan->fail_node(1);
    ctx.run_one(0, [&](Actor&) { EXPECT_FALSE(m.upsert(k, value)); });
    EXPECT_TRUE(m.partition_promoted(1));
    plan->rejoin_node(1);
    ctx.run([&](Actor& self) {
      if (cycle == 0 && self.rank() == 0) {
        EXPECT_EQ(m.async_find(k).get(self), std::optional<int>(value));
      }
      if (cycle == 1 && self.node() == 1) {
        int v = 0;
        EXPECT_TRUE(m.find(k, &v));
        EXPECT_EQ(v, value);
      }
    });
    EXPECT_FALSE(m.partition_promoted(1));
  }
}

TEST(Failover, QueueEntryPointsRepairRejoinedHostBeforeReading) {
  auto plan = std::make_shared<FaultPlan>(12);
  Context ctx(zero_config(2, 1, plan));
  queue<int> q(ctx, {.replication = 1});  // host node 0, mirror on node 1
  ctx.run_one(1, [&](Actor&) {
    for (int i = 1; i <= 4; ++i) EXPECT_TRUE(q.push(i));
  });

  // Each cycle pops the front through the standby, rejoins WITHOUT heal(),
  // and pops once more: first async on the remote rank, then sync on the
  // host's rank. Both must see the standby's pop.
  for (int cycle = 0; cycle < 2; ++cycle) {
    SCOPED_TRACE(cycle == 0 ? "async remote" : "sync co-located");
    plan->fail_node(0);
    ctx.run_one(1, [&](Actor&) {
      int v = -1;
      EXPECT_TRUE(q.pop(&v));
      EXPECT_EQ(v, 1 + 2 * cycle);
    });
    EXPECT_TRUE(q.promoted());
    plan->rejoin_node(0);
    ctx.run([&](Actor& self) {
      if (cycle == 0 && self.node() == 1) {
        EXPECT_EQ(q.async_pop().get(self), std::optional<int>(2));
      }
      if (cycle == 1 && self.node() == 0) {
        int v = -1;
        EXPECT_TRUE(q.pop(&v));
        EXPECT_EQ(v, 4);
      }
    });
    EXPECT_FALSE(q.promoted());
  }
  EXPECT_TRUE(q.empty());
}

TEST(Failover, RejoinRepairsEveryPartitionOnTheNode) {
  auto plan = std::make_shared<FaultPlan>(13);
  Context ctx(zero_config(3, 1, plan));
  unordered_map<int, int> m(ctx, {.num_partitions = 6, .replication = 1});
  ASSERT_EQ(m.partition_owner(1), 1);
  ASSERT_EQ(m.partition_owner(4), 1);
  const int ka = key_in_partition(m, 1);
  const int kb = key_in_partition(m, 4);
  ctx.run_one(0, [&](Actor&) {
    EXPECT_TRUE(m.insert(ka, 1));
    EXPECT_TRUE(m.insert(kb, 1));
  });
  plan->fail_node(1);
  ctx.run_one(0, [&](Actor&) {
    EXPECT_FALSE(m.upsert(ka, 2));
    EXPECT_FALSE(m.upsert(kb, 2));
  });
  plan->rejoin_node(1);
  // The first op repairs node 1 and clears its route mark; partition 4,
  // promoted on the same node, must not be left behind un-repaired.
  ctx.run_one(0, [&](Actor&) {
    int v = 0;
    EXPECT_TRUE(m.find(ka, &v));
    EXPECT_EQ(v, 2);
    EXPECT_TRUE(m.find(kb, &v));
    EXPECT_EQ(v, 2);
  });
  EXPECT_FALSE(m.partition_promoted(1));
  EXPECT_FALSE(m.partition_promoted(4));
}

TEST(Failover, TxnAfterRejoinCommitsOnTheRepairedPrimary) {
  auto plan = std::make_shared<FaultPlan>(14);
  Context ctx(zero_config(3, 1, plan));
  unordered_map<int, int> m(ctx, {.num_partitions = 3, .replication = 1});
  const int ka = key_in_partition(m, 1);
  const int kb = key_in_partition(m, 1, ka + 1);
  ctx.run_one(0, [&](Actor&) {
    EXPECT_TRUE(m.insert(ka, 1));
    EXPECT_TRUE(m.insert(kb, 1));
  });
  plan->fail_node(1);
  ctx.run_one(0, [&](Actor&) {
    EXPECT_FALSE(m.upsert(ka, 2));
    EXPECT_FALSE(m.upsert(kb, 2));
  });
  plan->rejoin_node(1);
  // Before any plain op repairs node 1: a read-modify-write txn on ka and
  // a blind-write txn on kb. Neither may read or commit on the un-repaired
  // primary, whose writes the journal replay would overwrite.
  txn::TxnCoordinator coord(ctx);
  ctx.run_one(0, [&](Actor& self) {
    int seen = -1;
    EXPECT_TRUE(coord.run(self, [&](txn::Txn& t) {
                       m.txn_find(self, t, ka, &seen);
                       m.txn_put(t, ka, seen + 10);
                     }).ok());
    EXPECT_EQ(seen, 2);
  });
  plan->fail_node(1);
  ctx.run_one(0, [&](Actor&) { EXPECT_FALSE(m.upsert(kb, 3)); });
  plan->rejoin_node(1);
  ctx.run_one(0, [&](Actor& self) {
    EXPECT_TRUE(
        coord.run(self, [&](txn::Txn& t) { m.txn_put(t, kb, 30); }).ok());
    m.heal(self);
    int v = 0;
    EXPECT_TRUE(m.find(ka, &v));
    EXPECT_EQ(v, 12);
    EXPECT_TRUE(m.find(kb, &v));
    EXPECT_EQ(v, 30);
  });
}

// ---------------------------------------------------------------------------
// Regression for the Context::run barrier contract (src/core/context.h):
// replication fan-outs execute inline on the mutating rank's thread, so
// every replica write and epoch bump has been applied by the time run()
// joins — the next phase's epoch piggyback comparisons start consistent.
// ---------------------------------------------------------------------------

TEST(Failover, BarrierQuiescesReplicationBeforeJoin) {
  Context ctx(zero_config(2, 1, nullptr));
  unordered_map<int, int> m(ctx, {.num_partitions = 2, .replication = 1});
  const int k = key_in_partition(m, 0);
  const std::uint64_t replica_epoch_before = m.partition_epoch(1);
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;  // remote writer: real RPC + fan-out
    EXPECT_TRUE(m.insert(k, 42));
  });
  // Immediately after the barrier, no drain: the replica store holds the
  // fanned-out write and its epoch bump is visible.
  EXPECT_EQ(m.replica_size(1), 1u);
  EXPECT_GT(m.partition_epoch(1), replica_epoch_before);
}

}  // namespace
}  // namespace hcl
