// Cross-partition transactions with an epoch-validated optimistic commit
// (DESIGN.md §5h): staging, two-phase validate+lock / apply, abort-then-
// retry, the high-level multi-key ops, and the interaction matrix — cache
// leases, replica failover (intent replay on promotion), rebalance fences,
// and the commit/abort/retry counters.
#include "txn/txn.h"

#include <gtest/gtest.h>

#include <atomic>
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

/// Drive t's prepare leg by hand, leaving whatever it locked held; the
/// first refusal, or Ok.
Status prepare_by_hand(Context& ctx, Actor& self, txn::Txn& t) {
  const txn::TxnPolicy policy;
  {
    rpc::Batcher prep(ctx.rpc(), policy.batch);
    t.for_each([&](txn::ParticipantBase& p) {
      p.enqueue_prepare(self, prep, t.id());
    });
    prep.flush_all(self);
  }
  Status first = Status::Ok();
  t.for_each([&](txn::ParticipantBase& p) {
    const Status st = p.settle_prepare(self);
    if (!st.ok() && first.ok()) first = st;
  });
  return first;
}

Status commit_by_hand(Context& ctx, Actor& self, txn::Txn& t) {
  const txn::TxnPolicy policy;
  {
    rpc::Batcher apply(ctx.rpc(), policy.batch);
    t.for_each([&](txn::ParticipantBase& p) {
      p.enqueue_commit(self, apply, t.id());
    });
    apply.flush_all(self);
  }
  Status first = Status::Ok();
  t.for_each([&](txn::ParticipantBase& p) {
    const Status st = p.settle_commit(self, t.id());
    if (!st.ok() && first.ok()) first = st;
  });
  return first;
}

void abort_by_hand(Actor& self, txn::Txn& t) {
  t.for_each([&](txn::ParticipantBase& p) { p.send_abort(self, t.id()); });
}

/// Every abort-cause counter, summed over the cluster's NICs.
std::int64_t abort_causes(Context& ctx) {
  std::int64_t n = 0;
  for (int node = 0; node < ctx.topology().num_nodes(); ++node) {
    auto& c = ctx.fabric().nic(node).counters();
    n += c.txn_abort_slot_held.load() + c.txn_abort_conflict.load() +
         c.txn_abort_moved.load() + c.txn_abort_underflow.load() +
         c.txn_abort_eager.load();
  }
  return n;
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
    // Conflict-and-retry through the skiplist container: a rival write of
    // the key we read stamps its stripe past our read, so validation fails
    // exactly once and the retry reads the rival's value.
    int attempt = 0;
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int cur = 0;
      EXPECT_TRUE(m.txn_find(self, t, kb, &cur));
      if (attempt++ == 0) EXPECT_FALSE(m.upsert(kb, 50));
      m.txn_put(t, kb, cur + 1);
    });
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_TRUE(m.find(kb, &v));
    EXPECT_EQ(v, 51);
  });
  EXPECT_EQ(coord.commits(), 2);
  EXPECT_EQ(coord.aborts(), 1);
  EXPECT_EQ(coord.retries(), 1);
}

TEST(Txn, OrderedMapDifferentKeyRivalCommitsFirstTry) {
  Context ctx(zero_config(2, 1));
  map<int, int> m(ctx, {.num_partitions = 2});
  txn::TxnCoordinator coord(ctx);
  const int kb = key_in_partition(m, 1);
  const int rival = key_in_partition(m, 1, kb + 1);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    // The first prepare on a partition builds its stripe table with every
    // stamp at the then-current epoch; commit once so the table predates
    // the read below.
    const Status put =
        coord.multi_put<map<int, int>, int, int>(self, m, {{kb, 2}});
    EXPECT_TRUE(put.ok()) << put.message();
    // A rival insert of a DIFFERENT key in kb's partition moves the
    // partition epoch but not kb's stripe: validation is per key, so the
    // transaction commits on its first attempt.
    int attempt = 0;
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int cur = 0;
      EXPECT_TRUE(m.txn_find(self, t, kb, &cur));
      if (attempt++ == 0) EXPECT_TRUE(m.insert(rival, 50));
      m.txn_put(t, kb, cur + 1);
    });
    EXPECT_TRUE(st.ok()) << st.message();
    int v = 0;
    EXPECT_TRUE(m.find(kb, &v));
    EXPECT_EQ(v, 3);
    EXPECT_TRUE(m.find(rival, &v));
    EXPECT_EQ(v, 50);
  });
  EXPECT_EQ(coord.commits(), 2);
  EXPECT_EQ(coord.aborts(), 0);
  EXPECT_EQ(coord.retries(), 0);
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

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    // Drive the two phases by hand so the primary can die INSIDE the
    // prepare->commit window — the case the staged replica intents exist
    // for. Prepare validates and stages onto the standby...
    txn::Txn t = coord.begin();
    m.txn_put(t, k, 55);
    EXPECT_TRUE(prepare_by_hand(ctx, self, t).ok());
    EXPECT_TRUE(m.txn_slot_held(1));

    // ...the primary dies with the slot held...
    plan->fail_node(1);

    // ...and settle_commit reroutes to the commit's failover twin, which promotes the
    // standby and replays the staged intents into the promoted stream.
    EXPECT_TRUE(commit_by_hand(ctx, self, t).ok());
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

  // The queue's one partition takes the same legs: hosted on node 1 with
  // its mirror on node 2, the host dies with the intent slot held and the
  // commit's failover twin replays the push prepare staged on the mirror.
  core::ContainerOptions qopts;
  qopts.first_node = 1;
  qopts.replication = 1;
  queue<int> q(ctx, qopts);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    txn::Txn t = coord.begin();
    q.txn_push(t, 7);
    EXPECT_TRUE(prepare_by_hand(ctx, self, t).ok());
    EXPECT_TRUE(q.txn_slot_held());
    plan->fail_node(1);
    EXPECT_TRUE(commit_by_hand(ctx, self, t).ok());
    EXPECT_TRUE(q.promoted());
    EXPECT_EQ(q.repair_backlog(), 1u);
    EXPECT_EQ(q.mirror_size(), 1u);
  });
  plan->rejoin_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    q.heal(self);
    EXPECT_FALSE(q.txn_slot_held());  // presumed abort on repair
    int v = 0;
    EXPECT_TRUE(q.pop(&v));  // repair replayed the txn's push into the host
    EXPECT_EQ(v, 7);
    EXPECT_FALSE(q.pop(&v));
  });
  EXPECT_FALSE(q.promoted());
}

// An abort sent while the host is down goes to the standby (fo_txn_abort)
// and drops the records prepare staged there. A duplicate commit of the
// aborted txn that reaches the promoted standby then finds nothing to
// replay, so the aborted write shows up neither on the promoted standby
// nor after heal.
TEST(Txn, AbortWhileHostDownDropsStagedIntents) {
  auto plan = std::make_shared<FaultPlan>(1);
  Context ctx(zero_config(3, 1, plan));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.replication = 1;
  unordered_map<int, int> m(ctx, opts);
  txn::TxnCoordinator coord(ctx);
  const int k = key_in_partition(m, 1);
  const int other = key_in_partition(m, 1, k + 1);
  auto keys = [&] {
    std::vector<int> out;
    m.for_each([&](const int& key, const int&) { out.push_back(key); });
    return out;
  };

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    txn::Txn t = coord.begin();
    m.txn_put(t, k, 55);
    EXPECT_TRUE(prepare_by_hand(ctx, self, t).ok());
    plan->fail_node(1);
    abort_by_hand(self, t);
    (void)m.upsert(other, 1);  // fails over and promotes the standby
    EXPECT_TRUE(m.partition_promoted(1));
    EXPECT_TRUE(commit_by_hand(ctx, self, t).ok());
    EXPECT_EQ(m.repair_backlog(1), 1u);
  });
  EXPECT_EQ(keys(), std::vector<int>{other});

  plan->rejoin_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() == 0) m.heal(self);
  });
  EXPECT_FALSE(m.partition_promoted(1));
  EXPECT_FALSE(m.txn_slot_held(1));
  EXPECT_EQ(keys(), std::vector<int>{other});
}

TEST(Txn, QueueAbortWhileHostDownDropsStagedIntents) {
  auto plan = std::make_shared<FaultPlan>(1);
  Context ctx(zero_config(3, 1, plan));
  core::ContainerOptions qopts;
  qopts.first_node = 1;
  qopts.replication = 1;
  queue<int> q(ctx, qopts);
  txn::TxnCoordinator coord(ctx);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    txn::Txn t = coord.begin();
    q.txn_push(t, 7);
    EXPECT_TRUE(prepare_by_hand(ctx, self, t).ok());
    plan->fail_node(1);
    abort_by_hand(self, t);
    EXPECT_TRUE(q.push(8));  // fails over and promotes the mirror
    EXPECT_TRUE(q.promoted());
    EXPECT_TRUE(commit_by_hand(ctx, self, t).ok());
    EXPECT_EQ(q.repair_backlog(), 1u);
    EXPECT_EQ(q.mirror_size(), 1u);
  });

  plan->rejoin_node(1);
  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    q.heal(self);
    int v = 0;
    EXPECT_TRUE(q.pop(&v));
    EXPECT_EQ(v, 8);
    EXPECT_FALSE(q.pop(&v));  // the aborted push never landed
  });
  EXPECT_FALSE(q.promoted());
  EXPECT_FALSE(q.txn_slot_held());
}

// The participant legs' contract, the same for both cores: a commit re-sent
// after a later commit is Ok and applies nothing, a prepare re-sent for a
// committed txn is Ok and holds nothing, a commit with nothing prepared is
// refused, and an abort by a txn holding nothing leaves a rival's hold.
TEST(Txn, BothCoresKeepTheLegContract) {
  Context ctx(zero_config(2, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 2;
  opts.rebalance.enabled = true;
  unordered_map<int, int> m(ctx, opts);
  queue<int> q(ctx, opts);
  txn::TxnCoordinator coord(ctx);
  const int k = key_in_partition(m, 1);

  // One core's legs: `stage(t, v)` stages a write of v, `state()` reads
  // what the committed writes left, `held()` asks whether a prepare holds
  // anything, and `move()` migrates the host.
  auto check = [&](Actor& self, auto stage, auto state, auto held,
                   auto move) {
    txn::Txn a = coord.begin();
    stage(a, 1);
    ASSERT_TRUE(prepare_by_hand(ctx, self, a).ok());
    ASSERT_TRUE(commit_by_hand(ctx, self, a).ok());
    txn::Txn b = coord.begin();
    stage(b, 2);
    ASSERT_TRUE(prepare_by_hand(ctx, self, b).ok());
    ASSERT_TRUE(commit_by_hand(ctx, self, b).ok());
    const int before = state();
    // A's commit leg once more, as settle_commit re-sends it after a
    // transient failure: A already applied, so it is Ok and applies nothing.
    const Status again = commit_by_hand(ctx, self, a);
    EXPECT_TRUE(again.ok()) << again.to_string();
    EXPECT_EQ(state(), before);
    // A's prepare once more: A stands committed, so it is Ok, holds nothing
    // and pins nothing.
    const Status reprepared = prepare_by_hand(ctx, self, a);
    EXPECT_TRUE(reprepared.ok()) << reprepared.to_string();
    EXPECT_FALSE(held());
    EXPECT_NO_THROW(move());
    // A commit with nothing prepared is a presumed abort.
    txn::Txn c = coord.begin();
    stage(c, 3);
    EXPECT_EQ(commit_by_hand(ctx, self, c).code(),
              StatusCode::kFailedPrecondition);
    // E holds nothing, so its abort leaves D's hold in place.
    txn::Txn d = coord.begin();
    stage(d, 4);
    ASSERT_TRUE(prepare_by_hand(ctx, self, d).ok());
    txn::Txn e = coord.begin();
    stage(e, 5);
    abort_by_hand(self, e);
    EXPECT_TRUE(held());
    EXPECT_TRUE(commit_by_hand(ctx, self, d).ok());
    EXPECT_FALSE(held());
  };

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    check(
        self, [&](txn::Txn& t, int v) { m.txn_put(t, k, v); },
        [&] {
          int v = 0;
          return m.find(k, &v) ? v : -1;
        },
        [&] { return m.txn_slot_held(1); }, [&] { (void)m.migrate(1, 0); });
    int v = 0;
    EXPECT_TRUE(m.find(k, &v));
    EXPECT_EQ(v, 4);

    check(
        self, [&](txn::Txn& t, int v) { q.txn_push(t, v); },
        [&] { return static_cast<int>(q.size()); },
        [&] { return q.txn_slot_held(); }, [&] { (void)q.migrate(1); });
    for (const int want : {1, 2, 4}) {
      EXPECT_TRUE(q.pop(&v));
      EXPECT_EQ(v, want);
    }
    EXPECT_FALSE(q.pop(&v));
  });
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

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    txn::Txn t = coord.begin();
    m.txn_put(t, k, 1);
    EXPECT_TRUE(prepare_by_hand(ctx, self, t).ok());
    EXPECT_TRUE(m.txn_slot_held(1));
    // The prepared slot pins the partition against shard moves.
    try {
      m.migrate(1, 0);
      FAIL() << "migrate must refuse while intents are pending";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
    }
    // Abort releases the slot; the move is allowed again.
    abort_by_hand(self, t);
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

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    txn::Txn t = coord.begin();
    q.txn_push(t, 1);
    EXPECT_TRUE(prepare_by_hand(ctx, self, t).ok());
    EXPECT_TRUE(q.txn_slot_held());
    try {
      q.migrate(1);
      FAIL() << "migrate must refuse while intents are pending";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
    }
    abort_by_hand(self, t);
    EXPECT_FALSE(q.txn_slot_held());
    EXPECT_TRUE(q.empty());  // the aborted push never landed
    EXPECT_TRUE(q.migrate(1));
  });
}

// ---------------------------------------------------------------------------
// Key granularity: stripes, not partitions, lock and validate.
// ---------------------------------------------------------------------------

TEST(Txn, DisjointKeysOfOnePartitionHoldIntentsAtOnce) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> m(ctx, {.num_partitions = 2});
  txn::TxnCoordinator coord(ctx);
  const int k1 = key_in_partition(m, 1);
  const int k2 = key_in_partition(m, 1, k1 + 1);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    EXPECT_TRUE(m.insert(k1, 10));
    txn::Txn t1 = coord.begin();
    txn::Txn t2 = coord.begin();
    int v = 0;
    EXPECT_TRUE(m.txn_find(self, t1, k1, &v));
    m.txn_put(t1, k1, v + 1);
    m.txn_put(t2, k2, 20);
    // Both prepares validate and hold their intents in one partition...
    EXPECT_TRUE(prepare_by_hand(ctx, self, t1).ok());
    EXPECT_TRUE(prepare_by_hand(ctx, self, t2).ok());
    EXPECT_TRUE(m.txn_slot_held(1));
    // ...while a third on t1's key still finds its stripe held.
    txn::Txn t3 = coord.begin();
    m.txn_put(t3, k1, 99);
    EXPECT_EQ(prepare_by_hand(ctx, self, t3).code(), StatusCode::kAborted);
    abort_by_hand(self, t3);
    EXPECT_TRUE(commit_by_hand(ctx, self, t2).ok());
    EXPECT_TRUE(m.txn_slot_held(1));  // t1 still holds k1's stripe
    EXPECT_TRUE(commit_by_hand(ctx, self, t1).ok());
    EXPECT_FALSE(m.txn_slot_held(1));
    EXPECT_TRUE(m.find(k1, &v));
    EXPECT_EQ(v, 11);
    EXPECT_TRUE(m.find(k2, &v));
    EXPECT_EQ(v, 20);
  });
  EXPECT_EQ(ctx.fabric().nic(1).counters().txn_abort_slot_held.load(), 1);
}

TEST(Txn, AnyHeldStripePinsPartitionAgainstMoves) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.rebalance.enabled = true;
  unordered_map<int, int> m(ctx, opts);
  txn::TxnCoordinator coord(ctx);
  const int k1 = key_in_partition(m, 1);
  const int k2 = key_in_partition(m, 1, k1 + 1);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    txn::Txn t1 = coord.begin();
    txn::Txn t2 = coord.begin();
    m.txn_put(t1, k1, 1);
    m.txn_put(t2, k2, 2);
    EXPECT_TRUE(prepare_by_hand(ctx, self, t1).ok());
    EXPECT_TRUE(prepare_by_hand(ctx, self, t2).ok());
    auto expect_pinned = [&] {
      EXPECT_TRUE(m.txn_slot_held(1));
      try {
        m.migrate(1, 0);
        FAIL() << "migrate must refuse while any stripe is held";
      } catch (const HclError& e) {
        EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
      }
    };
    expect_pinned();
    abort_by_hand(self, t1);
    expect_pinned();  // t2 still holds its stripe
    abort_by_hand(self, t2);
    EXPECT_FALSE(m.txn_slot_held(1));
    EXPECT_TRUE(m.migrate(1, 0));
  });
}

TEST(Txn, ReadBeforeMigrateOfItsPartitionAborts) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions opts;
  opts.num_partitions = 3;
  opts.rebalance.enabled = true;
  unordered_map<int, int> m(ctx, opts);
  txn::TxnCoordinator coord(ctx);
  const int k = key_in_partition(m, 1);

  ctx.run([&](Actor& self) {
    if (self.rank() != 0) return;
    // Committed through a txn so partition 1's stripe table predates the
    // read below (see OrderedMapDifferentKeyRivalCommitsFirstTry).
    const Status put =
        coord.multi_put<unordered_map<int, int>, int, int>(self, m, {{k, 1}});
    EXPECT_TRUE(put.ok()) << put.message();
    int attempt = 0;
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      EXPECT_TRUE(m.txn_find(self, t, k, &v));
      // The move writes no key, but it fences the partition: a read that
      // predates it must not validate.
      if (attempt++ == 0) EXPECT_TRUE(m.migrate(1, 2));
      m.txn_put(t, k, v + 1);
    });
    EXPECT_TRUE(st.ok()) << st.message();
    int v = 0;
    EXPECT_TRUE(m.find(k, &v));
    EXPECT_EQ(v, 2);
  });
  EXPECT_EQ(coord.aborts(), 1);
  EXPECT_EQ(coord.retries(), 1);
  EXPECT_EQ(ctx.fabric().nic(2).counters().txn_abort_moved.load(), 1);
  EXPECT_EQ(abort_causes(ctx), 1);
}

// Contended transactions where each attempt has exactly one participant
// that can refuse: multi_put and read_modify_write on a one-partition map,
// and transfers from a shared queue into a sink map only their own rank
// touches. Every abort then has exactly one cause.
TEST(Txn, AbortCausesSumToTxnAborts) {
  Context ctx(zero_config(2, 2));
  unordered_map<int, int> hot(ctx, {.num_partitions = 1});
  queue<int> q(ctx);
  std::vector<std::unique_ptr<unordered_map<int, int>>> sinks;
  for (int r = 0; r < 4; ++r) {
    sinks.push_back(std::make_unique<unordered_map<int, int>>(
        ctx, core::ContainerOptions{.num_partitions = 1}));
  }
  txn::TxnCoordinator coord(ctx);
  txn::TxnPolicy no_retry;
  no_retry.max_retries = 0;
  txn::TxnCoordinator doomed(ctx, no_retry);
  constexpr int kItems = 48;

  // One abort of each deterministic cause.
  ctx.run_one(0, [&](Actor& self) {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.push(i));
    EXPECT_TRUE(hot.insert(0, 0));
    int attempt = 0;
    EXPECT_TRUE(coord
                    .run(self,
                         [&](txn::Txn& t) {
                           int v = 0;
                           EXPECT_TRUE(hot.txn_find(self, t, 0, &v));
                           if (attempt++ == 0) hot.upsert(0, v);
                           hot.txn_put(t, 0, v + 1);
                         })
                    .ok());
    attempt = 0;
    EXPECT_TRUE(coord
                    .run(self,
                         [&](txn::Txn& t) {
                           int item = 0;
                           EXPECT_TRUE(q.txn_pop(self, t, &item));
                           if (attempt++ == 0) EXPECT_TRUE(q.push(kItems));
                           EXPECT_TRUE(q.txn_pop(self, t, &item));
                         })
                    .ok());
    txn::Txn holder = coord.begin();
    hot.txn_put(holder, 1, 1);
    EXPECT_TRUE(prepare_by_hand(ctx, self, holder).ok());
    EXPECT_EQ((doomed.multi_put<unordered_map<int, int>, int, int>(
                   self, hot, {{1, 2}}))
                  .code(),
              StatusCode::kAborted);
    abort_by_hand(self, holder);
  });
  const std::size_t queued = q.size();

  std::atomic<int> rmw_commits{0};
  std::atomic<std::size_t> moved{0};
  ctx.run([&](Actor& self) {
    auto& sink = *sinks[static_cast<std::size_t>(self.rank())];
    for (int i = 0; i < 16; ++i) {
      const int a = i % 3;
      const Status put = coord.multi_put<unordered_map<int, int>, int, int>(
          self, hot, {{a, i}, {a + 1, i}});
      EXPECT_TRUE(put.ok() || put.code() == StatusCode::kAborted);
      const Status rmw = coord.read_modify_write(
          self, hot, 100, [](std::optional<int>& v) { v = v.value_or(0) + 1; });
      if (rmw.ok()) rmw_commits.fetch_add(1);
      bool did = false;
      const Status tr = coord.transfer(
          self, q, sink,
          [](int item) { return std::pair<int, int>(item, item); }, &did);
      EXPECT_TRUE(tr.ok() || tr.code() == StatusCode::kAborted);
      if (did) moved.fetch_add(1);
    }
  });

  std::int64_t aborts = 0;
  for (int n = 0; n < 2; ++n) {
    aborts += ctx.fabric().nic(n).counters().txn_aborts.load();
  }
  EXPECT_EQ(aborts, coord.aborts() + doomed.aborts());
  EXPECT_GE(aborts, 3);
  EXPECT_EQ(abort_causes(ctx), aborts);
  auto& c0 = ctx.fabric().nic(0).counters();
  EXPECT_GE(c0.txn_abort_conflict.load(), 1);
  EXPECT_GE(c0.txn_abort_slot_held.load(), 1);
  EXPECT_GE(c0.txn_abort_eager.load(), 1);
  // The contended commits are still exact: every RMW counted once, every
  // moved item in exactly one sink.
  ctx.run_one(0, [&](Actor&) {
    int v = 0;
    EXPECT_EQ(hot.find(100, &v) ? v : 0, rmw_commits.load());
    std::size_t landed = 0;
    for (auto& sink : sinks) landed += sink->size();
    EXPECT_EQ(landed, moved.load());
    EXPECT_EQ(q.size() + moved.load(), queued);
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
