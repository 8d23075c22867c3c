// The shared container contract, checked once over every instantiation of
// the two generic cores: both maps (core::PartitionedMap over CuckooStore
// and SkipListStore) and both queues (core::HostedQueue over FifoStore and
// HeapStore). Store-specific behaviour — global key order, FIFO vs min
// order, the O(log n) descent charge, the one-staged-pop rule — stays in
// the per-container test files.
#include "core/hosted_queue.h"
#include "core/partitioned_map.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "fabric/fault_plan.h"
#include "txn/txn.h"

namespace hcl {
namespace {

using fabric::FaultPlan;
using sim::Actor;

Context::Config zero_config(int nodes, int procs,
                            std::shared_ptr<FaultPlan> plan = nullptr) {
  Context::Config cfg;
  cfg.num_nodes = nodes;
  cfg.procs_per_node = procs;
  cfg.model = sim::CostModel::zero();
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

/// A journal path private to one container type; every file it prefixes is
/// removed on construction and destruction.
template <typename T>
class ScratchJournal {
 public:
  ScratchJournal()
      : dir_(std::filesystem::temp_directory_path()),
        base_("hcl_contract_" + std::to_string(typeid(T).hash_code())) {
    clear();
  }
  ~ScratchJournal() { clear(); }
  [[nodiscard]] std::string path() const { return (dir_ / base_).string(); }

 private:
  void clear() const {
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().filename().string().rfind(base_, 0) == 0) {
        std::filesystem::remove(entry.path());
      }
    }
  }
  std::filesystem::path dir_;
  std::string base_;
};

// ---- hybrid parity (§III.C.5) ----------------------------------------------
// A co-located caller skips the RPC but runs the op's own server body, so an
// op costs the same co-located as against a same-sized remote partition,
// less the F: equal L/R/W, a caller clock advance equal to the remote stub's
// handler stage, and replication issued at the op's finish on both paths.

/// Two nodes, one rank each, the ares cost model, tracing on and the shm
/// tier off, so every remote scalar op leaves one kScalar span.
Context::Config parity_config() {
  Context::Config cfg;
  cfg.num_nodes = 2;
  cfg.procs_per_node = 1;
  cfg.trace = obs::TracePolicy{};
  cfg.trace.enabled = true;
  cfg.shm.enabled = false;
  return cfg;
}

/// Replicated, cache off: every remote read reaches its stub.
core::ContainerOptions parity_options(int first_node = 0) {
  core::ContainerOptions options;
  options.first_node = first_node;
  options.replication = 1;
  options.cache = cache::CachePolicy{};
  return options;
}

/// What one op did: its OpStats delta, the caller's clock advance and end,
/// and the spans it committed.
struct Footprint {
  core::OpStats::Snapshot stats{};
  sim::Nanos advance = 0;
  sim::Nanos end = 0;
  std::vector<obs::Span> spans;
};

/// Run `op` after an idle millisecond (the previous op's fan-outs drained)
/// and record its footprint.
template <typename Op>
Footprint footprint(Context& ctx, Actor& self, Op&& op) {
  self.advance_to(self.now() + sim::kMillisecond);
  const auto before = ctx.op_stats().snapshot();
  const std::size_t seen = ctx.tracer().spans().size();
  const sim::Nanos start = self.now();
  op();
  const auto after = ctx.op_stats().snapshot();
  Footprint f;
  f.stats = {after.remote_invocations - before.remote_invocations,
             after.local_ops - before.local_ops,
             after.local_reads - before.local_reads,
             after.local_writes - before.local_writes};
  f.end = self.now();
  f.advance = f.end - start;
  const auto spans = ctx.tracer().spans();
  for (std::size_t i = seen; i < spans.size(); ++i) {
    f.spans.push_back(*spans[i]);
  }
  return f;
}

/// `local` (co-located) and `remote` ran the same op: the checks above.
/// The remote stub is the op's one kScalar span, or its one-op bundle's
/// kBatchOp span.
void expect_parity(const Footprint& local, const Footprint& remote,
                   const std::string& op) {
  SCOPED_TRACE(op);
  EXPECT_EQ(local.stats.remote_invocations, 0);
  EXPECT_EQ(remote.stats.remote_invocations, 1);
  EXPECT_EQ(local.stats.local_ops, remote.stats.local_ops);
  EXPECT_EQ(local.stats.local_reads, remote.stats.local_reads);
  EXPECT_EQ(local.stats.local_writes, remote.stats.local_writes);
  const obs::Span* stub = nullptr;
  int stubs = 0;
  for (const obs::Span& span : remote.spans) {
    if (span.kind == obs::SpanKind::kScalar ||
        span.kind == obs::SpanKind::kBatchOp) {
      stub = &span;
      ++stubs;
    }
  }
  ASSERT_EQ(stubs, 1);
  EXPECT_EQ(local.advance, stub->stage_duration(obs::Stage::kHandler));
  const auto mirrors = [](const Footprint& f, sim::Nanos finish) {
    int n = 0;
    for (const obs::Span& span : f.spans) {
      if (span.kind != obs::SpanKind::kReplication) continue;
      EXPECT_EQ(span.issue_ns, finish) << "replication span " << n;
      ++n;
    }
    return n;
  };
  EXPECT_EQ(mirrors(local, local.end), mirrors(remote, stub->handler_end_ns));
}

// ===========================================================================
// Maps: hcl::unordered_map and hcl::map
// ===========================================================================

template <typename M>
class MapContract : public ::testing::Test {};

using MapTypes = ::testing::Types<unordered_map<int, int>, map<int, int>>;
TYPED_TEST_SUITE(MapContract, MapTypes);

TYPED_TEST(MapContract, ScalarOpsAcrossRanks) {
  Context ctx(zero_config(2, 2));
  TypeParam m(ctx);
  ctx.run([&](Actor& self) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(m.insert(self.rank() * 100 + i, self.rank()));
      EXPECT_FALSE(m.insert(self.rank() * 100 + i, -1));  // duplicate
    }
  });
  ctx.run([&](Actor& self) {
    const int neighbour = (self.rank() + 1) % ctx.topology().num_ranks();
    for (int i = 0; i < 16; ++i) {
      int v = -1;
      ASSERT_TRUE(m.find(neighbour * 100 + i, &v));
      EXPECT_EQ(v, neighbour);
    }
  });
  EXPECT_EQ(m.size(), 4u * 16u);
  ctx.run_one(0, [&](Actor&) {
    EXPECT_FALSE(m.upsert(5, 55));  // overwrite: not fresh
    EXPECT_TRUE(m.upsert(999, 9));  // fresh
    int v = 0;
    EXPECT_TRUE(m.find(5, &v));
    EXPECT_EQ(v, 55);
    EXPECT_TRUE(m.contains(999));
    EXPECT_TRUE(m.erase(999));
    EXPECT_FALSE(m.erase(999));
    EXPECT_FALSE(m.contains(999));
  });
  EXPECT_EQ(m.size(), 4u * 16u);
}

TYPED_TEST(MapContract, BatchOpsMatchScalarSemantics) {
  Context ctx(zero_config(2, 1));
  TypeParam m(ctx);
  ctx.run_one(0, [&](Actor&) {
    // A duplicate inside one batch observes its earlier sibling.
    const std::vector<int> keys{1, 2, 3, 4, 5, 3};
    const std::vector<int> values{10, 20, 30, 40, 50, 99};
    std::vector<Status> statuses;
    const auto inserted = m.insert_batch(keys, values, &statuses);
    EXPECT_EQ(inserted, (std::vector<bool>{true, true, true, true, true, false}));
    for (const Status& st : statuses) EXPECT_TRUE(st.ok()) << st.message();
    const auto found = m.find_batch({1, 3, 6});
    ASSERT_EQ(found.size(), 3u);
    EXPECT_EQ(found[0], std::optional<int>(10));
    EXPECT_EQ(found[1], std::optional<int>(30));
    EXPECT_FALSE(found[2].has_value());
    EXPECT_EQ(m.erase_batch({2, 6, 2}), (std::vector<bool>{true, false, false}));
  });
  EXPECT_EQ(m.size(), 4u);
  EXPECT_THROW(m.insert_batch({1, 2}, {1}), HclError);
}

TYPED_TEST(MapContract, AsyncInsertAndFind) {
  Context ctx(zero_config(2, 2));
  TypeParam m(ctx);
  ctx.run([&](Actor& self) {
    std::vector<rpc::Future<bool>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(m.async_insert(self.rank() * 100 + i, i));
    }
    for (auto& f : futures) EXPECT_TRUE(f.get(self));
    auto found = m.async_find(self.rank() * 100 + 7).get(self);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, 7);
  });
  EXPECT_EQ(m.size(), 4u * 8u);
}

TYPED_TEST(MapContract, RegisteredMutatorsApplyAndFetch) {
  Context ctx(zero_config(2, 2));
  TypeParam m(ctx);
  const auto add = m.template register_mutator<int>(
      [](int& value, const int& delta) { value += delta; });
  const auto add_fetch = m.template register_mutator<int>(
      [](int& value, const int& delta) { return value += delta; });
  ctx.run([&](Actor&) {
    for (int i = 0; i < 25; ++i) m.apply(7, add, 1, 0);
  });
  ctx.run_one(0, [&](Actor&) {
    int v = 0;
    ASSERT_TRUE(m.find(7, &v));
    EXPECT_EQ(v, 4 * 25);  // one server-side RMW per call, none lost
    EXPECT_EQ(m.template apply_fetch<int>(7, add_fetch, 5), 105);
    EXPECT_TRUE(m.apply(8, add, 2, 40));  // fresh: init, then the mutator
    EXPECT_TRUE(m.find(8, &v));
    EXPECT_EQ(v, 42);
    EXPECT_THROW(m.apply(9, 99, 1), HclError);  // unknown mutator id
  });
}

TYPED_TEST(MapContract, ResizeKeepsContents) {
  Context ctx(zero_config(2, 1));
  TypeParam m(ctx);
  ctx.run_one(0, [&](Actor&) {
    for (int i = 0; i < 64; ++i) m.insert(i, i);
    for (int p = 0; p < m.num_partitions(); ++p) EXPECT_TRUE(m.resize(p, 1024));
    EXPECT_FALSE(m.resize(m.num_partitions(), 1024));
    for (int i = 0; i < 64; ++i) {
      int v = -1;
      ASSERT_TRUE(m.find(i, &v));
      EXPECT_EQ(v, i);
    }
  });
}

/// Every (key, value) a map's route-aware for_each visits, key-sorted.
template <typename Map>
std::map<int, int> contents(Map& m) {
  std::map<int, int> out;
  m.for_each([&](const int& k, const int& v) { out[k] = v; });
  return out;
}

TYPED_TEST(MapContract, FailoverWithReplicationOne) {
  // One script of ops on partition 1's keys runs twice: against a map whose
  // partition 1 is down (served by the promoted standby partition 2) and
  // against a fault-free reference map. Every op's return value, and the
  // contents after heal(), must match the live primary's.
  auto plan = std::make_shared<FaultPlan>(21);
  Context ctx(zero_config(3, 1, plan));
  Context ref_ctx(zero_config(3, 1));
  TypeParam m(ctx, {.num_partitions = 3, .replication = 1});
  TypeParam ref(ref_ctx, {.num_partitions = 3, .replication = 1});
  std::vector<int> k;  // k[0..6]: seven keys of partition 1
  for (int lo = 0; k.size() < 7; lo = k.back() + 1) {
    k.push_back(key_in_partition(m, 1, lo));
  }
  const auto register_mutators = [](TypeParam& target) {
    const auto add = target.template register_mutator<int>(
        [](int& value, const int& delta) { value += delta; });
    const auto add_fetch = target.template register_mutator<int>(
        [](int& value, const int& delta) { return value += delta; });
    return std::make_pair(add, add_fetch);
  };
  const auto ids = register_mutators(m);
  EXPECT_EQ(register_mutators(ref), ids);
  const auto add = ids.first;
  const auto add_fetch = ids.second;
  const auto preload = [&](TypeParam& target) {
    EXPECT_TRUE(target.insert(k[0], 1));
    EXPECT_TRUE(target.insert(k[2], 3));
    EXPECT_TRUE(target.apply(k[6], add, 7));  // mutator-made: not replicated
  };
  // Return values in op order: bools as 0/1, a missing find as -1.
  const auto script = [&](TypeParam& target) {
    std::vector<int> r;
    int v = 0;
    r.push_back(target.find(k[0], &v));
    r.push_back(v);
    r.push_back(target.upsert(k[0], 2));
    r.push_back(target.insert(k[1], 4));
    r.push_back(target.insert(k[0], 9));  // existing key
    r.push_back(target.erase(k[2]));
    r.push_back(target.erase(k[4]));  // missing key
    r.push_back(target.apply(k[5], add, 5, 10));  // fresh: init, then +5
    r.push_back(target.apply(k[0], add, 1));
    r.push_back(target.template apply_fetch<int>(k[1], add_fetch, 6));
    for (bool b : target.insert_batch({k[3]}, {5})) r.push_back(b);
    for (bool b : target.erase_batch({k[1], k[2]})) r.push_back(b);
    for (const auto& f : target.find_batch({k[0], k[2]})) {
      r.push_back(f.value_or(-1));
    }
    r.push_back(target.upsert(k[3], 8));
    return r;
  };

  std::vector<int> expected;
  ref_ctx.run_one(0, [&](Actor&) {
    preload(ref);
    expected = script(ref);
  });
  EXPECT_EQ(expected,
            (std::vector<int>{1, 1, 0, 1, 0, 1, 0, 1, 0, 10, 1, 1, 0, 3, -1, 0}));

  ctx.run_one(0, [&](Actor&) { preload(m); });
  EXPECT_EQ(m.replica_size(2), 2u);  // partition 1's standby is partition 2
  plan->fail_node(1);
  ctx.run_one(0, [&](Actor&) {
    EXPECT_EQ(script(m), expected);
    // The one known divergence: the standby never held the mutator-made
    // key, so its erase misses — but it journals the erase anyway, and the
    // repair removes the key from the primary.
    EXPECT_FALSE(m.erase(k[6]));
  });
  ref_ctx.run_one(0, [&](Actor&) { EXPECT_TRUE(ref.erase(k[6])); });
  EXPECT_TRUE(m.partition_promoted(1));
  // Route-aware: base + failover journal, including the journaled erase of
  // a key the standby never held.
  EXPECT_EQ(m.size(), ref.size());
  EXPECT_EQ(contents(m), contents(ref));

  plan->rejoin_node(1);
  ctx.run_one(0, [&](Actor& self) {
    m.heal(self);
    int v = 0;
    EXPECT_TRUE(m.find(k[0], &v));  // answered by the repaired primary
    EXPECT_EQ(v, 3);
    EXPECT_TRUE(m.find(k[5], &v));
    EXPECT_EQ(v, 15);
    EXPECT_FALSE(m.find(k[1], &v));
  });
  EXPECT_FALSE(m.partition_promoted(1));
  EXPECT_EQ(m.repair_backlog(1), 0u);
  EXPECT_EQ(m.size(), ref.size());
  EXPECT_EQ(contents(m), contents(ref));
}

TYPED_TEST(MapContract, JournalReopenRecovers) {
  const ScratchJournal<TypeParam> journal;
  core::ContainerOptions options;
  options.persist_path = journal.path();
  {
    Context ctx(zero_config(2, 1));
    TypeParam m(ctx, options);
    const auto add = m.template register_mutator<int>(
        [](int& value, const int& delta) { value += delta; });
    ctx.run_one(0, [&](Actor&) {
      for (int i = 0; i < 40; ++i) m.insert(i, i);
      m.erase(13);
      m.upsert(7, 700);
      m.apply(8, add, 1000);
      m.insert_batch({100, 101}, {1, 2});
      m.erase_batch({101});
    });
  }  // container and context destroyed: "crash"
  Context ctx(zero_config(2, 1));
  TypeParam m(ctx, options);
  EXPECT_EQ(m.size(), 40u);
  ctx.run_one(0, [&](Actor&) {
    int v = 0;
    EXPECT_FALSE(m.find(13, &v));
    EXPECT_FALSE(m.find(101, &v));
    ASSERT_TRUE(m.find(7, &v));
    EXPECT_EQ(v, 700);
    ASSERT_TRUE(m.find(8, &v));
    EXPECT_EQ(v, 1008);
    ASSERT_TRUE(m.find(100, &v));
    EXPECT_EQ(v, 1);
  });
}

TYPED_TEST(MapContract, TxnPutFindErase) {
  Context ctx(zero_config(3, 1));
  TypeParam m(ctx, {.num_partitions = 3});
  txn::TxnCoordinator coord(ctx);
  const int ka = key_in_partition(m, 0);
  const int kb = key_in_partition(m, 1);
  const int kc = key_in_partition(m, 2);
  ctx.run_one(0, [&](Actor& self) {
    EXPECT_TRUE(m.insert(kc, 3));
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      EXPECT_FALSE(m.txn_find(self, t, ka, &v));
      m.txn_put(t, ka, 1);
      m.txn_put(t, kb, 2);
      m.txn_put(t, kb, 22);  // last write per key wins
      m.txn_erase(t, kc);
      EXPECT_TRUE(m.txn_find(self, t, ka, &v));  // read-your-writes
      EXPECT_EQ(v, 1);
      EXPECT_FALSE(m.txn_find(self, t, kc, &v));
    });
    EXPECT_TRUE(st.ok()) << st.message();
    int v = 0;
    EXPECT_TRUE(m.find(ka, &v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(m.find(kb, &v));
    EXPECT_EQ(v, 22);
    EXPECT_FALSE(m.find(kc, &v));
    // A put over an existing key overwrites it.
    EXPECT_TRUE(coord.run(self, [&](txn::Txn& t) { m.txn_put(t, ka, 11); }).ok());
    EXPECT_TRUE(m.find(ka, &v));
    EXPECT_EQ(v, 11);
  });
  EXPECT_EQ(coord.commits(), 2);
  for (int p = 0; p < 3; ++p) EXPECT_FALSE(m.txn_slot_held(p));
}

TYPED_TEST(MapContract, HybridParity) {
  Context ctx(parity_config());
  TypeParam m(ctx, parity_options());
  ASSERT_EQ(m.partition_owner(0), 0);  // co-located with rank 0
  ASSERT_EQ(m.partition_owner(1), 1);
  const auto add = m.template register_mutator<int>(
      [](int& value, const int& delta) { value += delta; });
  const auto add_fetch = m.template register_mutator<int>(
      [](int& value, const int& delta) { return value += delta; });
  // kp[p][0..3] are the op keys in partition p, kp[p][4..11] the preload.
  std::vector<int> kp[2];
  for (int p = 0; p < 2; ++p) {
    for (int lo = 0; kp[p].size() < 12; lo = kp[p].back() + 1) {
      kp[p].push_back(key_in_partition(m, p, lo));
    }
  }
  ctx.run_one(0, [&](Actor& self) {
    for (int p = 0; p < 2; ++p) {
      for (int i = 4; i < 12; ++i) ASSERT_TRUE(m.insert(kp[p][i], i));
    }
    // Each op runs on partition 0 (hybrid), then on partition 1 (remote);
    // op(k, p) returns what it returned, flattened to ints.
    const auto both = [&](const std::string& name, auto op) {
      std::vector<int> got[2];
      Footprint f[2];
      for (int p = 0; p < 2; ++p) {
        f[p] = footprint(ctx, self, [&] { got[p] = op(kp[p], p); });
      }
      EXPECT_EQ(got[0], got[1]) << name;
      expect_parity(f[0], f[1], name);
    };
    using Keys = const std::vector<int>&;
    both("insert", [&](Keys k, int) {
      return std::vector<int>{m.insert(k[0], 1)};
    });
    both("insert existing", [&](Keys k, int) {
      return std::vector<int>{m.insert(k[0], 9)};
    });
    both("upsert", [&](Keys k, int) {
      return std::vector<int>{m.upsert(k[0], 2)};
    });
    both("find", [&](Keys k, int) {
      int v = -1;
      const bool hit = m.find(k[0], &v);
      return std::vector<int>{hit, v};
    });
    both("find missing", [&](Keys k, int) {
      return std::vector<int>{m.find(k[1])};
    });
    both("async_insert", [&](Keys k, int) {
      return std::vector<int>{m.async_insert(k[1], 3).get(self)};
    });
    both("async_find", [&](Keys k, int) {
      return std::vector<int>{m.async_find(k[1]).get(self).value_or(-1)};
    });
    both("apply", [&](Keys k, int) {
      return std::vector<int>{m.apply(k[2], add, 5, 10)};
    });
    both("apply_fetch", [&](Keys k, int) {
      return std::vector<int>{m.template apply_fetch<int>(k[2], add_fetch, 6)};
    });
    both("insert_batch", [&](Keys k, int) {
      const auto r = m.insert_batch({k[3]}, {4});
      return std::vector<int>(r.begin(), r.end());
    });
    both("find_batch", [&](Keys k, int) {
      return std::vector<int>{m.find_batch({k[3]})[0].value_or(-1)};
    });
    both("erase_batch", [&](Keys k, int) {
      const auto r = m.erase_batch({k[3]});
      return std::vector<int>(r.begin(), r.end());
    });
    both("erase", [&](Keys k, int) { return std::vector<int>{m.erase(k[0])}; });
    both("resize", [&](Keys, int p) {
      return std::vector<int>{m.resize(p, 4096)};
    });
    both("txn_find", [&](Keys k, int) {
      txn::Txn t(1);
      int v = -1;
      const bool hit = m.txn_find(self, t, k[2], &v);
      return std::vector<int>{hit, v};
    });
  });
  // Same state: every key holds the same value on both partitions, and each
  // partition's replica set mirrors the other's writes.
  ctx.run_one(0, [&](Actor&) {
    for (std::size_t i = 0; i < kp[0].size(); ++i) {
      int v0 = -1;
      int v1 = -1;
      EXPECT_EQ(m.find(kp[0][i], &v0), m.find(kp[1][i], &v1)) << i;
      EXPECT_EQ(v0, v1) << i;
    }
  });
  EXPECT_EQ(m.replica_size(0), m.replica_size(1));
}

TYPED_TEST(MapContract, SplitMergeMigrate) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions options;
  options.num_partitions = 3;
  options.rebalance.enabled = true;
  options.rebalance.min_ops = 1;
  options.rebalance.cooldown_ops = 1;
  TypeParam m(ctx, options);
  std::vector<int> keys;
  for (int k = 0; keys.size() < 24; ++k) {
    if (m.partition_of(k) == 0) keys.push_back(k);
  }
  const auto all_present = [&] {
    for (int k : keys) {
      int v = -1;
      EXPECT_TRUE(m.find(k, &v)) << "key " << k;
      EXPECT_EQ(v, k * 10);
    }
  };
  ctx.run_one(0, [&](Actor&) {
    for (int k : keys) ASSERT_TRUE(m.insert(k, k * 10));
    all_present();  // heat on partition 0
    EXPECT_GT(m.split(0), 0u);
    all_present();
    EXPECT_GT(m.merge(0, 2), 0u);
    for (int k : keys) EXPECT_NE(m.partition_of(k), 0);
    all_present();
    EXPECT_TRUE(m.migrate(2, 0));
    EXPECT_EQ(m.partition_owner(2), 0);
    EXPECT_FALSE(m.migrate(2, 0));  // already there
    all_present();
  });
  EXPECT_EQ(m.rebalances(), 2u);
  EXPECT_EQ(m.size(), keys.size());
}

// ===========================================================================
// Queues: hcl::queue and hcl::priority_queue. Elements are pushed in
// ascending order, so FIFO order and min order agree.
// ===========================================================================

template <typename Q>
class QueueContract : public ::testing::Test {};

using QueueTypes = ::testing::Types<queue<int>, priority_queue<int>>;
TYPED_TEST_SUITE(QueueContract, QueueTypes);

/// Pop everything from `q`, in pop order.
template <typename Q>
std::vector<int> drain(Q& q) {
  std::vector<int> out;
  int v = 0;
  while (q.pop(&v)) out.push_back(v);
  return out;
}

TYPED_TEST(QueueContract, ScalarBulkAndBatchOps) {
  Context ctx(zero_config(2, 1));
  TypeParam q(ctx, {.first_node = 1});  // remote from rank 0
  ctx.run_one(0, [&](Actor&) {
    int v = 0;
    EXPECT_FALSE(q.pop(&v));
    for (int i = 1; i <= 4; ++i) EXPECT_TRUE(q.push(i));
    EXPECT_TRUE(q.push(std::vector<int>{5, 6, 7}));
    std::vector<Status> statuses;
    EXPECT_EQ(q.push_batch({8, 9}, &statuses), (std::vector<bool>{true, true}));
    for (const Status& st : statuses) EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(q.size(), 9u);
    EXPECT_TRUE(q.pop(&v));
    EXPECT_EQ(v, 1);
    std::vector<int> bulk;
    EXPECT_EQ(q.pop(&bulk, 3), 3u);
    EXPECT_EQ(bulk, (std::vector<int>{2, 3, 4}));
    EXPECT_EQ(drain(q), (std::vector<int>{5, 6, 7, 8, 9}));
    EXPECT_EQ(q.pop(&bulk, 3), 0u);
  });
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(QueueContract, AsyncPushPopRemoteAndCoLocated) {
  Context ctx(zero_config(2, 1));
  TypeParam q(ctx);  // hosted on node 0
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    auto a = q.async_push(1);
    auto b = q.async_push(2);
    EXPECT_TRUE(a.get(self));
    EXPECT_TRUE(b.get(self));
  });
  ctx.run_one(0, [&](Actor& self) {  // co-located: resolved immediately
    EXPECT_TRUE(q.async_push(3).get(self));
    EXPECT_EQ(q.async_pop().get(self), std::optional<int>(1));
  });
  ctx.run([&](Actor& self) {
    if (self.node() != 1) return;
    EXPECT_EQ(q.async_pop().get(self), std::optional<int>(2));
  });
  EXPECT_EQ(q.size(), 1u);
}

TYPED_TEST(QueueContract, FailoverWithReplicationOne) {
  // One script runs from node 1 against a queue whose host (node 0) is
  // down, served by the promoted mirror, and against a fault-free
  // reference queue: return values and the drain order after heal() must
  // match the live host's.
  auto plan = std::make_shared<FaultPlan>(22);
  Context ctx(zero_config(2, 1, plan));
  Context ref_ctx(zero_config(2, 1));
  TypeParam q(ctx, {.replication = 1});  // host node 0, mirror on node 1
  TypeParam ref(ref_ctx, {.replication = 1});
  const auto on_node1 = [](Context& c, auto body) {
    c.run([&](Actor& self) {
      if (self.node() == 1) body(self);
    });
  };
  const auto preload = [](TypeParam& target) {
    for (int i = 1; i <= 3; ++i) EXPECT_TRUE(target.push(i));
  };
  // Return values in op order: bools as 0/1, a popped element as itself.
  const auto script = [](TypeParam& target) {
    std::vector<int> r;
    int v = 0;
    r.push_back(target.pop(&v));
    r.push_back(v);
    r.push_back(target.push(4));
    r.push_back(target.push(std::vector<int>{5}));
    for (bool b : target.push_batch({6})) r.push_back(b);
    std::vector<int> bulk;
    r.push_back(static_cast<int>(target.pop(&bulk, 2)));
    r.insert(r.end(), bulk.begin(), bulk.end());
    return r;
  };

  std::vector<int> expected;
  std::vector<int> expected_drain;
  on_node1(ref_ctx, [&](Actor&) {
    preload(ref);
    expected = script(ref);
    expected_drain = drain(ref);
  });
  EXPECT_EQ(expected, (std::vector<int>{1, 1, 1, 1, 1, 2, 2, 3}));
  EXPECT_EQ(expected_drain, (std::vector<int>{4, 5, 6}));

  on_node1(ctx, [&](Actor&) { preload(q); });
  EXPECT_EQ(q.mirror_size(), 3u);
  plan->fail_node(0);
  on_node1(ctx, [&](Actor&) { EXPECT_EQ(script(q), expected); });
  EXPECT_TRUE(q.promoted());
  EXPECT_EQ(q.repair_backlog(), 6u);  // 3 pops + 3 pushes

  plan->rejoin_node(0);
  on_node1(ctx, [&](Actor& self) {
    q.heal(self);
    EXPECT_EQ(drain(q), expected_drain);
  });
  EXPECT_FALSE(q.promoted());
  EXPECT_EQ(q.repair_backlog(), 0u);
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(QueueContract, JournalReopenRecovers) {
  const ScratchJournal<TypeParam> journal;
  core::ContainerOptions options;
  options.persist_path = journal.path();
  {
    Context ctx(zero_config(1, 1));
    TypeParam q(ctx, options);
    ctx.run_one(0, [&](Actor&) {
      for (int i = 1; i <= 6; ++i) q.push(i);
      int v = 0;
      q.pop(&v);
      q.pop(&v);
      q.push_batch({7, 8});
    });
  }  // "crash"
  Context ctx(zero_config(1, 1));
  TypeParam q(ctx, options);
  EXPECT_EQ(q.size(), 6u);
  ctx.run_one(0, [&](Actor&) {
    EXPECT_EQ(drain(q), (std::vector<int>{3, 4, 5, 6, 7, 8}));
  });
}

TYPED_TEST(QueueContract, TxnPushPop) {
  Context ctx(zero_config(2, 1));
  TypeParam q(ctx, {.first_node = 1});
  txn::TxnCoordinator coord(ctx);
  ctx.run_one(0, [&](Actor& self) {
    EXPECT_TRUE(q.push(10));
    EXPECT_TRUE(q.push(20));
    const Status st = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      EXPECT_TRUE(q.txn_pop(self, t, &v));
      EXPECT_EQ(v, 10);  // the pre-transaction front
      q.txn_push(t, 30);
    });
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(drain(q), (std::vector<int>{20, 30}));
    // An empty queue's txn_pop stages nothing and commits as a no-op.
    const Status empty = coord.run(self, [&](txn::Txn& t) {
      int v = 0;
      EXPECT_FALSE(q.txn_pop(self, t, &v));
    });
    EXPECT_TRUE(empty.ok()) << empty.message();
  });
  EXPECT_EQ(coord.commits(), 2);
  EXPECT_FALSE(q.txn_slot_held());
}

TYPED_TEST(QueueContract, HybridParity) {
  Context ctx(parity_config());
  TypeParam q[2] = {TypeParam(ctx, parity_options(0)),   // co-located
                    TypeParam(ctx, parity_options(1))};  // remote
  ctx.run_one(0, [&](Actor& self) {
    for (auto& target : q) {
      for (int i = 1; i <= 8; ++i) ASSERT_TRUE(target.push(i));
    }
    // Each op runs on q[0] (hybrid), then on q[1] (remote); op(target)
    // returns what it returned, flattened to ints.
    const auto both = [&](const std::string& name, auto op) {
      std::vector<int> got[2];
      Footprint f[2];
      for (int i = 0; i < 2; ++i) {
        f[i] = footprint(ctx, self, [&] { got[i] = op(q[i]); });
      }
      EXPECT_EQ(got[0], got[1]) << name;
      expect_parity(f[0], f[1], name);
    };
    both("push", [](TypeParam& t) { return std::vector<int>{t.push(9)}; });
    both("bulk push", [](TypeParam& t) {
      return std::vector<int>{t.push(std::vector<int>{10, 11})};
    });
    both("push_batch", [](TypeParam& t) {
      const auto r = t.push_batch({12});
      return std::vector<int>(r.begin(), r.end());
    });
    both("pop", [](TypeParam& t) {
      int v = -1;
      const bool ok = t.pop(&v);
      return std::vector<int>{ok, v};
    });
    both("bulk pop", [](TypeParam& t) {
      std::vector<int> out{-1};
      out.push_back(static_cast<int>(t.pop(&out, 3)));
      return out;
    });
    both("async_push", [&](TypeParam& t) {
      return std::vector<int>{t.async_push(13).get(self)};
    });
    both("async_pop", [&](TypeParam& t) {
      return std::vector<int>{t.async_pop().get(self).value_or(-1)};
    });
    both("txn_pop", [&](TypeParam& t) {
      txn::Txn txn(1);
      int v = -1;
      const bool ok = t.txn_pop(self, txn, &v);
      return std::vector<int>{ok, v};
    });
  });
  EXPECT_EQ(q[0].mirror_size(), q[1].mirror_size());
  ctx.run_one(0, [&](Actor&) { EXPECT_EQ(drain(q[0]), drain(q[1])); });
}

TYPED_TEST(QueueContract, TxnPopFailsFastWhileHostIsDown) {
  // A txn read fails fast while the host is down — for a rank on the host's
  // own node too, not just a remote one: the promoted mirror's reads cannot
  // be epoch-validated, and the dead host's store is no longer the queue.
  auto plan = std::make_shared<FaultPlan>(23);
  Context ctx(zero_config(2, 1, plan));
  core::ContainerOptions options;
  options.replication = 1;  // host node 0, mirror node 1
  TypeParam q(ctx, options);
  ctx.run_one(0, [&](Actor&) { EXPECT_TRUE(q.push(1)); });
  plan->fail_node(0);
  ctx.run([&](Actor& self) {
    txn::Txn t(1);
    int v = -1;
    try {
      q.txn_pop(self, t, &v);
      ADD_FAILURE() << "rank " << self.rank() << " read a dead host";
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kUnavailable) << "rank " << self.rank();
    }
    EXPECT_EQ(v, -1);
  });
  EXPECT_EQ(q.size(), 1u);
}

TYPED_TEST(QueueContract, MigrateMovesHostAndKeepsContents) {
  Context ctx(zero_config(3, 1));
  core::ContainerOptions options;
  options.rebalance.enabled = true;
  TypeParam q(ctx, options);
  ctx.run_one(0, [&](Actor&) {
    for (int i = 1; i <= 4; ++i) q.push(i);
    EXPECT_FALSE(q.migrate(0));  // already hosted there
    EXPECT_TRUE(q.migrate(2));
    EXPECT_EQ(q.host_node(), 2);
    EXPECT_EQ(q.standby_node(), 0);
    EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 3, 4}));  // now remote pops
  });
}

}  // namespace
}  // namespace hcl
