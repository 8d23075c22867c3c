// Cross-partition transactions with an epoch-validated optimistic commit
// (DESIGN.md §5h): staging, two-phase validate+lock / apply, abort-then-
// retry, the high-level multi-key ops, and the interaction matrix — cache
// leases, replica failover (intent replay on promotion), rebalance fences,
// and the commit/abort/retry counters.
#include "txn/txn.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/hosted_queue.h"
#include "core/partitioned_map.h"
#include "core/sets.h"
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

/// First key >= lo whose partition is `p`.
template <typename Map>
int key_in_partition(const Map& m, int p, int lo = 0) {
  for (int k = lo;; ++k) {
    if (m.partition_of(k) == p) return k;
  }
}

// ---------------------------------------------------------------------------
// Commit basics: multi_put, read-your-writes, counters.
// ---------------------------------------------------------------------------

TEST(Txn, MultiPutCommitsAcrossPartitions) {
  Context ctx(zero_config(3, 1));
  unordered_map<int, int> m(ctx, {.num_partitions = 3});
  txn::TxnCoordinator coord(ctx);
  const int ka = key_in_partition(m, 0);
  const int kb = key_in_partition(m, 1);
  const int kc = key_in_partition(m, 2);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    std::uint64_t csn = 0;
    const Status st = coord.multi_put<unordered_map<int, int>, int, int>(
        self, m, {{ka, 1}, {kb, 2}, {kc, 3}}, &csn);
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_GT(csn, 0u);
    int v = 0;
    EXPECT_TRUE(m.find(ka, &v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(m.find(kb, &v));
    EXPECT_EQ(v, 2);
    EXPECT_TRUE(m.find(kc, &v));
    EXPECT_EQ(v, 3);
  });
  EXPECT_EQ(coord.commits(), 1);
  EXPECT_EQ(coord.aborts(), 0);
  EXPECT_EQ(coord.retries(), 0);
  // Counter parity: exactly one txn_commits tick on the coordinator's NIC.
  EXPECT_EQ(ctx.fabric().nic(0).counters().txn_commits.load(), 1);
  EXPECT_EQ(ctx.fabric().nic(0).counters().txn_aborts.load(), 0);
}

TEST(Txn, ReadYourWritesWithinTransaction) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> m(ctx, {.num_partitions = 2});
  txn::TxnCoordinator coord(ctx);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(1, 10));
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      EXPECT_TRUE(m.txn_find(self, t, 1, &v));
      EXPECT_EQ(v, 10);  // committed state before any staging
      m.txn_put(t, 1, 20);
      EXPECT_TRUE(m.txn_find(self, t, 1, &v));
      EXPECT_EQ(v, 20);  // own staged write wins
      m.txn_erase(t, 1);
      EXPECT_FALSE(m.txn_find(self, t, 1, &v));  // own staged erase wins
      m.txn_put(t, 1, 30);
    });
    EXPECT_TRUE(st.ok()) << st.message();
    int v = 0;
    EXPECT_TRUE(m.find(1, &v));
    EXPECT_EQ(v, 30);
  });
}

// ---------------------------------------------------------------------------
// Conflicts: epoch validation, abort-then-retry, zero observable state.
// ---------------------------------------------------------------------------

TEST(Txn, EpochConflictAbortsThenRetrySucceeds) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> m(ctx, {.num_partitions = 2});
  txn::TxnCoordinator coord(ctx);
  const int k = key_in_partition(m, 1);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(k, 1));
    int attempt = 0;
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      EXPECT_TRUE(m.txn_find(self, t, k, &v));
      if (attempt++ == 0) {
        // A rival writes AFTER our read: prepare must see the moved epoch.
        EXPECT_FALSE(m.upsert(k, 100));
      }
      m.txn_put(t, k, v + 1);
    });
    EXPECT_TRUE(st.ok()) << st.message();
    int v = 0;
    EXPECT_TRUE(m.find(k, &v));
    EXPECT_EQ(v, 101);  // retried attempt read the rival's 100
  });
  EXPECT_EQ(coord.commits(), 1);
  EXPECT_EQ(coord.aborts(), 1);
  EXPECT_EQ(coord.retries(), 1);
  EXPECT_EQ(ctx.fabric().nic(0).counters().txn_retries.load(), 1);
}

TEST(Txn, AbortLeavesZeroObservableState) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> m(ctx, {.num_partitions = 2});
  txn::TxnPolicy policy;
  policy.max_retries = 0;  // surface the abort instead of retrying
  txn::TxnCoordinator coord(ctx, policy);
  const int kr = key_in_partition(m, 0);   // read (conflicted) key
  const int kw = key_in_partition(m, 1);   // staged-write key

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(kr, 1));
    const std::uint64_t epoch_w_before = m.partition_epoch(1);
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      EXPECT_TRUE(m.txn_find(self, t, kr, &v));
      EXPECT_FALSE(m.upsert(kr, 2));  // rival write -> conflict at prepare
      m.txn_put(t, kw, 42);
    });
    EXPECT_EQ(st.code(), StatusCode::kAborted);
    // The aborted intent is invisible everywhere: no value, no epoch bump
    // on the staged-write partition, no intent slot left behind.
    int v = 0;
    EXPECT_FALSE(m.find(kw, &v));
    EXPECT_EQ(m.partition_epoch(1), epoch_w_before);
    EXPECT_FALSE(m.txn_slot_held(0));
    EXPECT_FALSE(m.txn_slot_held(1));
    EXPECT_TRUE(m.find(kr, &v));
    EXPECT_EQ(v, 2);  // the rival's write is the only surviving effect
  });
  EXPECT_EQ(coord.commits(), 0);
  EXPECT_EQ(coord.aborts(), 1);
  EXPECT_EQ(ctx.fabric().nic(0).counters().txn_aborts.load(), 1);
}

// ---------------------------------------------------------------------------
// High-level shapes: CAS, read-modify-write.
// ---------------------------------------------------------------------------

TEST(Txn, CompareAndSwapValue) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> m(ctx, {.num_partitions = 2});
  txn::TxnCoordinator coord(ctx);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(5, 50));
    bool swapped = false;
    EXPECT_TRUE(coord.compare_and_swap_value(self, m, 5, 50, 60, &swapped).ok());
    EXPECT_TRUE(swapped);
    int v = 0;
    EXPECT_TRUE(m.find(5, &v));
    EXPECT_EQ(v, 60);
    // Mismatch: the transaction still commits (a validated "no").
    EXPECT_TRUE(coord.compare_and_swap_value(self, m, 5, 50, 70, &swapped).ok());
    EXPECT_FALSE(swapped);
    EXPECT_TRUE(m.find(5, &v));
    EXPECT_EQ(v, 60);
    // Absent key never swaps.
    EXPECT_TRUE(coord.compare_and_swap_value(self, m, 6, 0, 1, &swapped).ok());
    EXPECT_FALSE(swapped);
    EXPECT_FALSE(m.find(6, &v));
  });
  EXPECT_EQ(coord.commits(), 3);
}

TEST(Txn, ReadModifyWriteAndErase) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> m(ctx, {.num_partitions = 2});
  txn::TxnCoordinator coord(ctx);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(7, 1));
    EXPECT_TRUE(coord
                    .read_modify_write(self, m, 7,
                                       [](std::optional<int>& v) {
                                         ASSERT_TRUE(v.has_value());
                                         *v += 10;
                                       })
                    .ok());
    int v = 0;
    EXPECT_TRUE(m.find(7, &v));
    EXPECT_EQ(v, 11);
    // nullopt result = transactional erase.
    EXPECT_TRUE(coord
                    .read_modify_write(self, m, 7,
                                       [](std::optional<int>& val) {
                                         val.reset();
                                       })
                    .ok());
    EXPECT_FALSE(m.find(7, &v));
  });
}

// ---------------------------------------------------------------------------
// Ordered map parity.
// ---------------------------------------------------------------------------

TEST(Txn, OrderedMapCommitAndConflict) {
  Context ctx(zero_config(2, 1));
  map<int, int> m(ctx, {.num_partitions = 2});
  txn::TxnCoordinator coord(ctx);
  const int ka = key_in_partition(m, 0);
  const int kb = key_in_partition(m, 1);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    const Status put =
        coord.multi_put<map<int, int>, int, int>(self, m, {{ka, 1}, {kb, 2}});
    EXPECT_TRUE(put.ok()) << put.message();
    int v = 0;
    EXPECT_TRUE(m.find(ka, &v));
    EXPECT_EQ(v, 1);
    // Conflict-and-retry through the skiplist container: any rival mutation
    // in kb's partition moves its epoch and fails our validation.
    const int rival = key_in_partition(m, 1, kb + 1);
    int attempt = 0;
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int cur = 0;
      EXPECT_TRUE(m.txn_find(self, t, kb, &cur));
      if (attempt++ == 0) EXPECT_TRUE(m.insert(rival, 50));
      m.txn_put(t, kb, cur + 1);
    });
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_TRUE(m.find(kb, &v));
    EXPECT_EQ(v, 3);
  });
  EXPECT_EQ(coord.commits(), 2);
  EXPECT_EQ(coord.retries(), 1);
}

// ---------------------------------------------------------------------------
// Sets.
// ---------------------------------------------------------------------------

TEST(Txn, SetAddRemoveContains) {
  Context ctx(zero_config(2, 1));
  unordered_set<int> us(ctx, {.num_partitions = 2});
  set<int> os(ctx, {.num_partitions = 2});
  txn::TxnCoordinator coord(ctx);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(us.insert(1));
    EXPECT_TRUE(os.insert(2));
    const Status st = coord.run(self, [&](txn::Txn& t) {
      EXPECT_TRUE(us.txn_contains(self, t, 1));
      EXPECT_FALSE(os.txn_contains(self, t, 9));
      us.txn_remove(t, 1);
      us.txn_add(t, 3);
      os.txn_add(t, 9);
    });
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_FALSE(us.contains(1));
    EXPECT_TRUE(us.contains(3));
    EXPECT_TRUE(os.contains(9));
  });
  EXPECT_EQ(coord.commits(), 1);
}

// ---------------------------------------------------------------------------
// Queues: cross-container transfer, pre-txn pop visibility, pop-min rule.
// ---------------------------------------------------------------------------

TEST(Txn, TransferIsAtomicAndEmptyQueueCommitsNoOp) {
  Context ctx(zero_config(2, 1));
  queue<int> q(ctx);
  unordered_map<int, int> m(ctx, {.num_partitions = 2});
  txn::TxnCoordinator coord(ctx);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(q.push(7));
    bool moved = false;
    std::uint64_t csn = 0;
    const Status st = coord.transfer(
        self, q, m,
        [](int item) { return std::pair<int, int>(item, item * 10); }, &moved,
        &csn);
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_TRUE(moved);
    EXPECT_GT(csn, 0u);
    int v = 0;
    EXPECT_TRUE(m.find(7, &v));
    EXPECT_EQ(v, 70);
    EXPECT_TRUE(q.empty());
    // Empty queue: the transfer commits as a validated no-op.
    EXPECT_TRUE(coord
                    .transfer(self, q, m,
                              [](int item) {
                                return std::pair<int, int>(item, item);
                              },
                              &moved)
                    .ok());
    EXPECT_FALSE(moved);
  });
  EXPECT_EQ(coord.commits(), 2);
}

TEST(Txn, QueuePopsSeePreTransactionStateOnly) {
  Context ctx(zero_config(2, 1));
  queue<int> q(ctx);
  txn::TxnCoordinator coord(ctx);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(q.push(10));
    const Status st = coord.run(self, [&](txn::Txn& t) {
      q.txn_push(t, 20);
      int v = 0;
      EXPECT_TRUE(q.txn_pop(self, t, &v));
      EXPECT_EQ(v, 10);  // pre-txn front, not the staged 20
      EXPECT_FALSE(q.txn_pop(self, t, &v));  // own push is NOT poppable
    });
    EXPECT_TRUE(st.ok()) << st.message();
    int v = 0;
    EXPECT_TRUE(q.pop(&v));
    EXPECT_EQ(v, 20);  // the staged push landed, the staged pop consumed 10
    EXPECT_TRUE(q.empty());
  });
}

TEST(Txn, PriorityQueueSinglePopRuleAndPopsBeforePushes) {
  Context ctx(zero_config(2, 1));
  priority_queue<int> pq(ctx);
  txn::TxnCoordinator coord(ctx);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(pq.push(5));
    EXPECT_TRUE(pq.push(9));
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      EXPECT_TRUE(pq.txn_pop(self, t, &v));
      EXPECT_EQ(v, 5);        // pre-txn minimum
      pq.txn_push(t, 1);      // would be the new minimum...
      try {
        pq.txn_pop(self, t, &v);  // ...but a second staged pop is refused
        FAIL() << "second txn_pop must throw";
      } catch (const HclError& e) {
        EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
      }
    });
    EXPECT_TRUE(st.ok()) << st.message();
    // Commit applied the pop (removing 5) BEFORE the push of 1.
    int v = 0;
    EXPECT_TRUE(pq.pop(&v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(pq.pop(&v));
    EXPECT_EQ(v, 9);
    EXPECT_TRUE(pq.empty());
  });
}

// ---------------------------------------------------------------------------
// Cache interaction: commits refresh leases, aborts never populate them.
// ---------------------------------------------------------------------------

TEST(Txn, CacheLeaseIsFreshAfterCommit) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> m(
      ctx, {.num_partitions = 2,
            .cache = {.capacity = 64,
                      .ttl_ns = 10 * sim::kMillisecond,
                      .mode = cache::CacheMode::kInvalidate}});
  txn::TxnCoordinator coord(ctx);
  const int k = key_in_partition(m, 1);  // remote to rank 0 -> cacheable

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(k, 1));
    int v = 0;
    EXPECT_TRUE(m.find(k, &v));  // populates the lease at the old epoch
    EXPECT_EQ(v, 1);
    const Status put = coord.multi_put<unordered_map<int, int>, int, int>(
        self, m, {{k, 2}});
    EXPECT_TRUE(put.ok()) << put.message();
    // The long-TTL lease would still be live; the commit's write-through
    // invalidation must keep it from serving the pre-txn value.
    EXPECT_TRUE(m.find(k, &v));
    EXPECT_EQ(v, 2);
  });
}

TEST(Txn, AbortedIntentNeverServedFromCache) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> m(
      ctx, {.num_partitions = 2,
            .cache = {.capacity = 64,
                      .ttl_ns = 10 * sim::kMillisecond,
                      .mode = cache::CacheMode::kUpdate}});
  txn::TxnPolicy policy;
  policy.max_retries = 0;
  txn::TxnCoordinator coord(ctx, policy);
  const int k = key_in_partition(m, 1);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(k, 1));
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      EXPECT_TRUE(m.txn_find(self, t, k, &v));
      EXPECT_FALSE(m.upsert(k, 2));  // force the abort
      m.txn_put(t, k, 99);           // the intent that must stay invisible
    });
    EXPECT_EQ(st.code(), StatusCode::kAborted);
    int v = 0;
    EXPECT_TRUE(m.find(k, &v));
    EXPECT_EQ(v, 2);  // never 99, cached or authoritative
    EXPECT_TRUE(m.find(k, &v));
    EXPECT_EQ(v, 2);
  });
}

// ---------------------------------------------------------------------------
// Failover interaction: fail-fast prepares, intent replay on promotion.
// ---------------------------------------------------------------------------

TEST(Txn, DownNodeFailsFastWithUnavailable) {
  auto plan = std::make_shared<FaultPlan>(1);
  Context ctx(zero_config(3, 1, plan));
  unordered_map<int, int> m(ctx, {.num_partitions = 3, .replication = 1});
  txn::TxnCoordinator coord(ctx);
  const int k = key_in_partition(m, 1);

  plan->fail_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    // Blind write toward the dead partition: prepare fails fast with
    // kUnavailable — no standby reroute, no retry burn.
    const Status st =
        coord.run(self, [&](txn::Txn& t) { m.txn_put(t, k, 1); });
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    // Transactional reads fail fast the same way.
    const Status rd = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      (void)m.txn_find(self, t, k, &v);
    });
    EXPECT_EQ(rd.code(), StatusCode::kUnavailable);
  });
  EXPECT_EQ(coord.commits(), 0);
  EXPECT_EQ(coord.retries(), 0);
  EXPECT_EQ(coord.aborts(), 2);  // every failed attempt records as an abort
}

TEST(Txn, IntentReplayAfterStandbyPromotion) {
  auto plan = std::make_shared<FaultPlan>(1);
  Context ctx(zero_config(3, 1, plan));
  unordered_map<int, int> m(ctx, {.num_partitions = 3, .replication = 1});
  txn::TxnCoordinator coord(ctx);
  const int k = key_in_partition(m, 1);
  const txn::TxnPolicy policy;

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    // Drive the two phases by hand so the primary can die INSIDE the
    // prepare->commit window — the case the staged replica intents exist
    // for. Prepare validates and stages onto the standby...
    txn::Txn t = coord.begin();
    m.txn_put(t, k, 55);
    {
      rpc::Batcher prep(ctx.rpc(), policy.batch);
      for (auto* p : t.participants()) p->enqueue_prepare(self, prep, t.id());
      prep.flush_all(self);
    }
    for (auto* p : t.participants()) {
      EXPECT_TRUE(p->settle_prepare(self).ok());
    }
    EXPECT_TRUE(m.txn_slot_held(1));

    // ...the primary dies with the slot held...
    plan->fail_node(1);

    // ...and settle_commit reroutes to the commit's failover twin, which promotes the
    // standby and replays the staged intents into the promoted stream.
    {
      rpc::Batcher apply(ctx.rpc(), policy.batch);
      for (auto* p : t.participants()) p->enqueue_commit(self, apply, t.id());
      apply.flush_all(self);
    }
    for (auto* p : t.participants()) {
      EXPECT_TRUE(p->settle_commit(self, t.id()).ok());
    }
    EXPECT_TRUE(m.partition_promoted(1));
    int v = 0;
    EXPECT_TRUE(m.find(k, &v));  // served by the promoted standby
    EXPECT_EQ(v, 55);
  });

  plan->rejoin_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    m.heal(self);
    int v = 0;
    EXPECT_TRUE(m.find(k, &v));  // repair replayed the txn's write
    EXPECT_EQ(v, 55);
  });
  EXPECT_FALSE(m.partition_promoted(1));
}

// ---------------------------------------------------------------------------
// Rebalance interaction: pending intents pin the shard.
// ---------------------------------------------------------------------------

TEST(Txn, MigrateRefusedWhileIntentsPending) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.rebalance.enabled = true;
  unordered_map<int, int> m(ctx, opts);
  txn::TxnCoordinator coord(ctx);
  const int k = key_in_partition(m, 1);
  const txn::TxnPolicy policy;

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    txn::Txn t = coord.begin();
    m.txn_put(t, k, 1);
    {
      rpc::Batcher prep(ctx.rpc(), policy.batch);
      for (auto* p : t.participants()) p->enqueue_prepare(self, prep, t.id());
      prep.flush_all(self);
    }
    for (auto* p : t.participants()) {
      EXPECT_TRUE(p->settle_prepare(self).ok());
    }
    EXPECT_TRUE(m.txn_slot_held(1));
    // The prepared slot pins the partition against shard moves.
    try {
      m.migrate(1, 0);
      FAIL() << "migrate must refuse while intents are pending";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
    }
    // Abort releases the slot; the move is allowed again.
    for (auto* p : t.participants()) p->send_abort(self, t.id());
    EXPECT_FALSE(m.txn_slot_held(1));
    int v = 0;
    EXPECT_FALSE(m.find(k, &v));  // the aborted intent never landed
    EXPECT_TRUE(m.migrate(1, 0));
  });
}

TEST(Txn, QueueMigrateRefusedWhileIntentsPending) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions opts;
  opts.rebalance.enabled = true;
  queue<int> q(ctx, opts);
  txn::TxnCoordinator coord(ctx);
  const txn::TxnPolicy policy;

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    txn::Txn t = coord.begin();
    q.txn_push(t, 1);
    {
      rpc::Batcher prep(ctx.rpc(), policy.batch);
      for (auto* p : t.participants()) p->enqueue_prepare(self, prep, t.id());
      prep.flush_all(self);
    }
    for (auto* p : t.participants()) {
      EXPECT_TRUE(p->settle_prepare(self).ok());
    }
    EXPECT_TRUE(q.txn_slot_held());
    try {
      q.migrate(1);
      FAIL() << "migrate must refuse while intents are pending";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
    }
    for (auto* p : t.participants()) p->send_abort(self, t.id());
    EXPECT_FALSE(q.txn_slot_held());
    EXPECT_TRUE(q.empty());  // the aborted push never landed
    EXPECT_TRUE(q.migrate(1));
  });
}

// ---------------------------------------------------------------------------
// Policy knobs.
// ---------------------------------------------------------------------------

TEST(Txn, RetryBudgetExhaustionSurfacesAborted) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> m(ctx, {.num_partitions = 2});
  txn::TxnPolicy policy;
  policy.max_retries = 2;
  txn::TxnCoordinator coord(ctx, policy);
  const int k = key_in_partition(m, 0);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(k, 0));
    // Every attempt conflicts: the rival writes after each read.
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      EXPECT_TRUE(m.txn_find(self, t, k, &v));
      m.upsert(k, v + 1);  // rival write after our read
      m.txn_put(t, k, 1000);
    });
    EXPECT_EQ(st.code(), StatusCode::kAborted);
    int v = 0;
    EXPECT_TRUE(m.find(k, &v));
    EXPECT_EQ(v, 3);  // 1 initial + 2 retries' worth of rival writes
  });
  EXPECT_EQ(coord.commits(), 0);
  EXPECT_EQ(coord.aborts(), 3);
  EXPECT_EQ(coord.retries(), 2);
}

}  // namespace
}  // namespace hcl
