// Heat-driven shard rebalancing (DESIGN.md §5g): split/merge/migrate move
// slots and keys under the container latch with zero failed ops, routes
// follow the shard map, the heat advisor acts only on skew, and the whole
// feature is fenced behind rebalance.enabled. Also covers the route-aware
// introspection fixes (size/for_each across a kill -> promote -> rejoin
// cycle) and the degenerate-replica-placement construction check.
#include "core/hosted_queue.h"
#include "core/partitioned_map.h"
#include "core/sets.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fabric/fault_plan.h"

namespace hcl {
namespace {

using fabric::FaultPlan;
using sim::Actor;
using sim::CostModel;

Context::Config zero_config(int nodes, int procs,
                            std::shared_ptr<FaultPlan> plan = nullptr) {
  Context::Config cfg;
  cfg.num_nodes = nodes;
  cfg.procs_per_node = procs;
  cfg.model = CostModel::zero();
  cfg.fault_plan = std::move(plan);
  return cfg;
}

core::RebalancePolicy enabled_policy(std::int64_t min_ops = 1,
                                     std::int64_t cooldown = 1) {
  core::RebalancePolicy rb;
  rb.enabled = true;
  rb.min_ops = min_ops;
  rb.cooldown_ops = cooldown;
  return rb;
}

/// First key >= lo whose partition is `p`.
template <typename Map>
int key_in_partition(const Map& m, int p, int lo = 0) {
  for (int k = lo;; ++k) {
    if (m.partition_of(k) == p) return k;
  }
}

// ---------------------------------------------------------------------------
// split / merge: slot ownership moves, keys follow, routes stay correct.
// ---------------------------------------------------------------------------

TEST(Rebalance, SplitMovesSlotsAndKeysFollowRoutes) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.rebalance = enabled_policy();
  unordered_map<int, int> m(ctx, opts);

  std::vector<int> keys;
  for (int k = 0; static_cast<int>(keys.size()) < 32; ++k) {
    if (m.partition_of(k) == 0) keys.push_back(k);
  }
  ctx.run_one(0, [&](Actor&) {
    for (int k : keys) ASSERT_TRUE(m.insert(k, k * 10));
    // Concentrate heat on partition 0 so split() peels its hot slots.
    for (int round = 0; round < 8; ++round) {
      for (int k : keys) {
        int v = 0;
        ASSERT_TRUE(m.find(k, &v));
      }
    }
    const std::size_t moved = m.split(0);
    EXPECT_GT(moved, 0u);
    EXPECT_EQ(m.rebalances(), 1u);
    // Every key is still reachable through the post-split routes, and at
    // least one of partition 0's keys now routes elsewhere.
    bool rerouted = false;
    for (int k : keys) {
      int v = 0;
      EXPECT_TRUE(m.find(k, &v));
      EXPECT_EQ(v, k * 10);
      rerouted = rerouted || m.partition_of(k) != 0;
    }
    EXPECT_TRUE(rerouted);
  });
  EXPECT_EQ(m.size(), keys.size());
  // The move shows up on the destination NIC's migration counters.
  std::int64_t migrations = 0;
  for (int n = 0; n < 3; ++n) {
    migrations += ctx.fabric().nic(n).counters().migrations.load();
  }
  EXPECT_EQ(migrations, 1);
}

TEST(Rebalance, MergeDrainsSourcePartition) {
  Context ctx(zero_config(2, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 2;
  opts.rebalance = enabled_policy();
  unordered_map<int, int> m(ctx, opts);

  std::vector<int> keys;
  for (int k = 0; static_cast<int>(keys.size()) < 16; ++k) {
    if (m.partition_of(k) == 0) keys.push_back(k);
  }
  ctx.run_one(0, [&](Actor&) {
    for (int k : keys) ASSERT_TRUE(m.insert(k, k));
    const std::size_t moved = m.merge(0, 1);
    EXPECT_EQ(moved, keys.size());
    for (int k : keys) {
      EXPECT_EQ(m.partition_of(k), 1);  // every slot now owned by 1
      int v = 0;
      EXPECT_TRUE(m.find(k, &v));
      EXPECT_EQ(v, k);
    }
  });
  EXPECT_EQ(m.size(), keys.size());
  for (int slot = 0; slot < m.num_slots(); ++slot) {
    EXPECT_EQ(m.slot_owner(slot), 1);
  }
}

TEST(Rebalance, OrderedMapSplitPreservesGlobalOrder) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.rebalance = enabled_policy();
  map<int, int> m(ctx, opts);

  std::vector<int> keys;
  for (int k = 0; static_cast<int>(keys.size()) < 24; ++k) {
    if (m.partition_of(k) == 0) keys.push_back(k);
  }
  ctx.run_one(0, [&](Actor&) {
    for (int k : keys) ASSERT_TRUE(m.insert(k, k + 1));
    for (int round = 0; round < 8; ++round) {
      for (int k : keys) {
        int v = 0;
        ASSERT_TRUE(m.find(k, &v));
      }
    }
    EXPECT_GT(m.split(0), 0u);
    for (int k : keys) {
      int v = 0;
      EXPECT_TRUE(m.find(k, &v));
      EXPECT_EQ(v, k + 1);
    }
  });
  // Ordered visit still yields every key exactly once, in order.
  std::vector<int> visited;
  m.for_each_ordered([&](const int& k, const int&) { visited.push_back(k); });
  EXPECT_EQ(visited.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

TEST(Rebalance, SetForwardersMoveSlots) {
  Context ctx(zero_config(2, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 2;
  opts.rebalance = enabled_policy();
  unordered_set<int> s(ctx, opts);

  std::vector<int> keys;
  for (int k = 0; static_cast<int>(keys.size()) < 8; ++k) {
    if (s.partition_of(k) == 0) keys.push_back(k);
  }
  ctx.run_one(0, [&](Actor&) {
    for (int k : keys) ASSERT_TRUE(s.insert(k));
    EXPECT_EQ(s.merge(0, 1), keys.size());
    for (int k : keys) EXPECT_TRUE(s.find(k));
  });
  EXPECT_EQ(s.rebalances(), 1u);
  EXPECT_EQ(s.size(), keys.size());
}

// ---------------------------------------------------------------------------
// migrate: partition re-homes, replication chain and queue mirror follow.
// ---------------------------------------------------------------------------

TEST(Rebalance, MigrateRehomesPartition) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.rebalance = enabled_policy();
  unordered_map<int, int> m(ctx, opts);
  const int k0 = key_in_partition(m, 0);

  ctx.run_one(0, [&](Actor&) {
    ASSERT_TRUE(m.insert(k0, 5));
    EXPECT_FALSE(m.migrate(0, m.partition_owner(0)));  // already there
    EXPECT_TRUE(m.migrate(0, 2));
    EXPECT_EQ(m.partition_owner(0), 2);
    int v = 0;
    EXPECT_TRUE(m.find(k0, &v));  // now a remote RPC to node 2
    EXPECT_EQ(v, 5);
    EXPECT_FALSE(m.upsert(k0, 6));  // write path follows too (overwrite)
    EXPECT_TRUE(m.find(k0, &v));
    EXPECT_EQ(v, 6);
  });
  EXPECT_GT(ctx.fabric().nic(2).counters().migrations.load(), 0);
  EXPECT_GT(ctx.fabric().nic(2).counters().migrated_bytes.load(), 0);
}

TEST(Rebalance, QueueMigrateMovesHostAndStandby) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions opts;
  opts.rebalance = enabled_policy();
  queue<int> q(ctx, opts);
  ASSERT_EQ(q.host_node(), 0);

  ctx.run_one(0, [&](Actor&) {
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.push(i));
    EXPECT_TRUE(q.migrate(1));
    EXPECT_EQ(q.host_node(), 1);
    EXPECT_EQ(q.standby_node(), 2);
    int v = -1;
    EXPECT_TRUE(q.pop(&v));
    EXPECT_EQ(v, 0);  // FIFO order survives the move
  });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_GT(ctx.fabric().nic(1).counters().migrations.load(), 0);
}

TEST(Rebalance, PriorityQueueMigrateMovesHost) {
  Context ctx(zero_config(2, 1));
  core::ContainerOptions opts;
  opts.rebalance = enabled_policy();
  priority_queue<int> pq(ctx, opts);

  ctx.run_one(0, [&](Actor&) {
    ASSERT_TRUE(pq.push(9));
    ASSERT_TRUE(pq.push(3));
    EXPECT_TRUE(pq.migrate(1));
    EXPECT_EQ(pq.host_node(), 1);
    int v = -1;
    EXPECT_TRUE(pq.pop(&v));
    EXPECT_EQ(v, 3);  // min-order survives the move
  });
}

// ---------------------------------------------------------------------------
// Advisor: rebalance_tick splits only under real skew with enough signal.
// ---------------------------------------------------------------------------

TEST(Rebalance, TickSplitsHotPartitionUnderSkew) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.rebalance = enabled_policy(/*min_ops=*/64, /*cooldown=*/128);
  unordered_map<int, int> m(ctx, opts);

  std::vector<int> hot;
  for (int k = 0; static_cast<int>(hot.size()) < 8; ++k) {
    if (m.partition_of(k) == 1) hot.push_back(k);
  }
  ctx.run_one(0, [&](Actor&) {
    for (int k : hot) ASSERT_TRUE(m.insert(k, k));
    for (int round = 0; round < 32; ++round) {
      for (int k : hot) {
        int v = 0;
        ASSERT_TRUE(m.find(k, &v));
      }
    }
    EXPECT_EQ(m.rebalance_tick(), 1);  // the hot partition was split
    EXPECT_EQ(m.rebalances(), 1u);
    // Heat was reset by the move; an immediate second tick has no signal.
    EXPECT_EQ(m.rebalance_tick(), -1);
  });
}

TEST(Rebalance, TickDoesNothingOnUniformLoad) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.rebalance = enabled_policy(/*min_ops=*/32, /*cooldown=*/32);
  unordered_map<int, int> m(ctx, opts);

  ctx.run_one(0, [&](Actor&) {
    for (int k = 0; k < 128; ++k) ASSERT_TRUE(m.insert(k, k));
    EXPECT_EQ(m.rebalance_tick(), -1);
    EXPECT_EQ(m.rebalances(), 0u);
  });
}

// ---------------------------------------------------------------------------
// Gating: everything behind rebalance.enabled; bad arguments rejected.
// ---------------------------------------------------------------------------

TEST(Rebalance, DisabledByDefaultAndGated) {
  Context ctx(zero_config(2, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 2;
  opts.rebalance.enabled = false;
  unordered_map<int, int> m(ctx, opts);

  ctx.run_one(0, [&](Actor&) {
    try {
      m.split(0);
      FAIL() << "split must throw when rebalancing is disabled";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
    }
    try {
      m.merge(0, 1);
      FAIL() << "merge must throw when rebalancing is disabled";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
    }
    try {
      m.migrate(0, 1);
      FAIL() << "migrate must throw when rebalancing is disabled";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
    }
    EXPECT_EQ(m.rebalance_tick(), -1);  // advisor no-ops instead of throwing
  });
}

TEST(Rebalance, RejectsBadArgumentsAndDownNodes) {
  auto plan = std::make_shared<FaultPlan>(7);
  Context ctx(zero_config(3, 1, plan));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.rebalance = enabled_policy();
  unordered_map<int, int> m(ctx, opts);

  ctx.run_one(0, [&](Actor&) {
    try {
      m.merge(1, 1);
      FAIL() << "merge(p, p) must be rejected";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
    }
    try {
      m.migrate(0, 99);
      FAIL() << "migrate to a bad node must be rejected";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
    }
    try {
      m.split(-1);
      FAIL() << "split of a bad partition must be rejected";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
    }
  });

  plan->fail_node(2);
  ctx.run_one(0, [&](Actor&) {
    try {
      m.migrate(0, 2);
      FAIL() << "migrate onto a dead node must be rejected";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kUnavailable);
    }
    try {
      m.merge(2, 0);  // partition 2 lives on the dead node
      FAIL() << "moving a partition hosted on a dead node must be rejected";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
    }
  });
  plan->rejoin_node(2);
}

TEST(Rebalance, RefusesMoveWhilePromotedUntilHeal) {
  auto plan = std::make_shared<FaultPlan>(11);
  Context ctx(zero_config(3, 1, plan));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.replication = 1;
  opts.rebalance = enabled_policy();
  unordered_map<int, int> m(ctx, opts);
  const int k1 = key_in_partition(m, 1);

  plan->fail_node(1);
  ctx.run_one(0, [&](Actor&) {
    ASSERT_TRUE(m.insert(k1, 1));  // promotes partition 1's standby
  });
  ASSERT_TRUE(m.partition_promoted(1));

  plan->rejoin_node(1);
  ctx.run_one(0, [&](Actor& self) {
    try {
      m.split(1);
      FAIL() << "split of a promoted partition must be rejected";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
    }
    m.heal(self);
    // Healed: moves are allowed again (merge drains partition 1 into 0).
    EXPECT_EQ(m.merge(1, 0), 1u);
    int v = 0;
    EXPECT_TRUE(m.find(k1, &v));
    EXPECT_EQ(v, 1);
  });
}

// ---------------------------------------------------------------------------
// Route-aware introspection (bugfix): size()/visit must overlay the
// promoted journal across a kill -> promote -> rejoin cycle.
// ---------------------------------------------------------------------------

TEST(Rebalance, SizeIsRouteAwareAcrossFailoverCycle) {
  auto plan = std::make_shared<FaultPlan>(3);
  Context ctx(zero_config(3, 1, plan));
  unordered_map<int, int> m(ctx, {.num_partitions = 3, .replication = 1});
  const int ka = key_in_partition(m, 1);
  const int kb = key_in_partition(m, 1, ka + 1);
  const int kc = key_in_partition(m, 1, kb + 1);

  ctx.run_one(0, [&](Actor&) {
    ASSERT_TRUE(m.insert(ka, 100));
    ASSERT_TRUE(m.insert(kc, 300));
  });
  EXPECT_EQ(m.size(), 2u);

  plan->fail_node(1);
  ctx.run_one(0, [&](Actor&) {
    ASSERT_FALSE(m.upsert(ka, 200));  // overwrite via the standby
    ASSERT_TRUE(m.insert(kb, 400));   // fresh insert while down
    ASSERT_TRUE(m.erase(kc));         // erase while down
  });
  ASSERT_TRUE(m.partition_promoted(1));
  // The dead primary's base map still holds {ka, kc}; the journal holds
  // upsert(ka), insert(kb), erase(kc). Authoritative count: {ka, kb} = 2.
  EXPECT_EQ(m.size(), 2u);
  // The visitor agrees with the journal overlay, not the stale base.
  std::map<int, int> seen;
  m.for_each([&](const int& k, const int& v) { seen[k] = v; });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen.at(ka), 200);
  EXPECT_EQ(seen.at(kb), 400);
  EXPECT_EQ(seen.count(kc), 0u);

  plan->rejoin_node(1);
  ctx.run_one(0, [&](Actor& self) { m.heal(self); });
  EXPECT_EQ(m.size(), 2u);
  seen.clear();
  m.for_each([&](const int& k, const int& v) { seen[k] = v; });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen.at(ka), 200);
}

TEST(Rebalance, OrderedVisitIsRouteAwareWhilePromoted) {
  auto plan = std::make_shared<FaultPlan>(5);
  Context ctx(zero_config(3, 1, plan));
  map<int, int> m(ctx, {.num_partitions = 3, .replication = 1});
  const int ka = key_in_partition(m, 1);
  const int kb = key_in_partition(m, 1, ka + 1);

  ctx.run_one(0, [&](Actor&) { ASSERT_TRUE(m.insert(ka, 1)); });
  plan->fail_node(1);
  ctx.run_one(0, [&](Actor&) {
    ASSERT_TRUE(m.insert(kb, 2));  // lands in the promoted journal
    ASSERT_TRUE(m.erase(ka));
  });
  ASSERT_TRUE(m.partition_promoted(1));
  EXPECT_EQ(m.size(), 1u);
  std::vector<std::pair<int, int>> visited;
  m.for_each_ordered(
      [&](const int& k, const int& v) { visited.emplace_back(k, v); });
  ASSERT_EQ(visited.size(), 1u);
  EXPECT_EQ(visited[0].first, kb);
  EXPECT_EQ(visited[0].second, 2);
  plan->rejoin_node(1);
  ctx.run_one(0, [&](Actor& self) { m.heal(self); });
  EXPECT_EQ(m.size(), 1u);
}

// ---------------------------------------------------------------------------
// Degenerate replica placement (bugfix): co-located replicas are rejected
// at construction instead of silently losing fault tolerance.
// ---------------------------------------------------------------------------

TEST(Rebalance, RejectsCoLocatedReplicasAtConstruction) {
  Context ctx(zero_config(1, 2));
  // Every partition of a 1-node cluster is co-located: replication could
  // never survive the only node's loss.
  try {
    unordered_map<int, int> m(ctx, {.num_partitions = 2, .replication = 1});
    FAIL() << "co-located replicas must be rejected";
  } catch (const HclError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
  }
  try {
    map<int, int> m(ctx, {.num_partitions = 2, .replication = 1});
    FAIL() << "co-located ordered replicas must be rejected";
  } catch (const HclError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
  }
  try {
    queue<int> q(ctx, {.replication = 1});
    FAIL() << "a co-located queue mirror must be rejected";
  } catch (const HclError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
  }
  try {
    priority_queue<int> pq(ctx, {.replication = 1});
    FAIL() << "a co-located priority-queue mirror must be rejected";
  } catch (const HclError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
  }
  // Unreplicated containers on one node stay legal.
  unordered_map<int, int> ok(ctx, {.num_partitions = 2});
  EXPECT_EQ(ok.num_partitions(), 2);
}

TEST(Rebalance, AcceptsDistinctNodeReplicas) {
  Context ctx(zero_config(3, 1));
  unordered_map<int, int> m(ctx, {.num_partitions = 3, .replication = 2});
  map<int, int> om(ctx, {.num_partitions = 3, .replication = 1});
  queue<int> q(ctx, {.replication = 1});
  EXPECT_EQ(m.num_partitions(), 3);
  EXPECT_EQ(om.num_partitions(), 3);
  EXPECT_EQ(q.standby_node(), 1);
}

}  // namespace
}  // namespace hcl
