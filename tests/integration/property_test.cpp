// Property-based sweeps (TEST_P) across the stack: invariants that must
// hold for every parameter combination, not just hand-picked cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/hcl.h"
#include "lf/cuckoo_map.h"
#include "lf/skiplist_map.h"
#include "serial/serialize.h"
#include "txn/txn.h"

namespace hcl {
namespace {

// ---------------------------------------------------------------------------
// Serialization: random structured values round-trip under every backend and
// payload size.
// ---------------------------------------------------------------------------

struct WireCase {
  std::size_t string_len;
  std::size_t vector_len;
  std::uint64_t seed;
};

class SerializationRoundTrip : public ::testing::TestWithParam<WireCase> {};

struct Nested {
  std::int64_t id = 0;
  std::string name;
  std::vector<double> samples;
  std::map<std::string, std::uint32_t> tags;

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & id & name & samples & tags;
  }
  bool operator==(const Nested&) const = default;
};

TEST_P(SerializationRoundTrip, RawAndPackedAgree) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  Nested value;
  value.id = static_cast<std::int64_t>(rng.next() - (std::uint64_t{1} << 62));
  value.name = rng.next_string(param.string_len);
  value.samples.resize(param.vector_len);
  for (auto& s : value.samples) s = rng.next_double() * 1e9;
  for (std::size_t i = 0; i < param.vector_len % 7; ++i) {
    value.tags[rng.next_string(4)] = static_cast<std::uint32_t>(rng.next());
  }

  auto raw = serial::pack<Nested, serial::RawBackend>(value);
  auto packed = serial::pack<Nested, serial::PackedBackend>(value);
  EXPECT_EQ((serial::unpack<Nested, serial::RawBackend>(raw)), value);
  EXPECT_EQ((serial::unpack<Nested, serial::PackedBackend>(packed)), value);
  // Truncating any prefix must never produce a silent wrong value: it either
  // throws or the full decode above already proved integrity.
  if (raw.size() > 4) {
    auto cut = raw;
    cut.resize(cut.size() / 2);
    EXPECT_THROW(
        (serial::unpack<Nested, serial::RawBackend>(std::span<const std::byte>(cut))),
        HclError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerializationRoundTrip,
    ::testing::Values(WireCase{0, 0, 1}, WireCase{1, 1, 2}, WireCase{16, 8, 3},
                      WireCase{255, 64, 4}, WireCase{4096, 1000, 5},
                      WireCase{100'000, 0, 6}, WireCase{7, 4096, 7}));

// ---------------------------------------------------------------------------
// CuckooMap: under any (threads, initial buckets), N disjoint inserts all
// land, all are findable, and size is exact.
// ---------------------------------------------------------------------------

class CuckooSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(CuckooSweep, AllInsertsLandAndAreFound) {
  const auto [threads, buckets] = GetParam();
  lf::CuckooMap<std::uint64_t, std::uint64_t> map(buckets);
  constexpr std::uint64_t kPerThread = 4'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&map, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t k = static_cast<std::uint64_t>(t) * kPerThread + i;
        ASSERT_TRUE(map.insert(k, k ^ 0xABCD));
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(threads) * kPerThread);
  for (std::uint64_t k = 0;
       k < static_cast<std::uint64_t>(threads) * kPerThread; k += 37) {
    std::uint64_t v = 0;
    ASSERT_TRUE(map.find(k, &v));
    EXPECT_EQ(v, k ^ 0xABCD);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CuckooSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(2u, 128u, 8192u)));

// ---------------------------------------------------------------------------
// SkipListMap: after any interleaving of inserts and erases, iteration is
// strictly ordered and matches a reference std::map.
// ---------------------------------------------------------------------------

class SkipListSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SkipListSweep, MatchesReferenceModel) {
  Rng rng(GetParam());
  lf::SkipListMap<int, int> list;
  std::map<int, int> reference;
  for (int op = 0; op < 20'000; ++op) {
    const int key = static_cast<int>(rng.next_below(500));
    if ((rng.next() & 3) != 0) {
      const int value = static_cast<int>(rng.next());
      if (reference.emplace(key, value).second) {
        EXPECT_TRUE(list.insert(key, value));
      } else {
        EXPECT_FALSE(list.insert(key, value));
      }
    } else {
      EXPECT_EQ(list.erase(key), reference.erase(key) > 0);
    }
  }
  std::vector<std::pair<int, int>> got;
  list.for_each([&](const int& k, const int& v) { got.emplace_back(k, v); });
  std::vector<std::pair<int, int>> expected(reference.begin(), reference.end());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SkipListSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---------------------------------------------------------------------------
// Distributed containers: for every topology shape, the SPMD
// insert-find-erase contract holds and sizes are exact.
// ---------------------------------------------------------------------------

struct TopoCase {
  int nodes;
  int procs;
  int partitions;  // -1 = default (one per node)
};

class ContainerTopologySweep : public ::testing::TestWithParam<TopoCase> {};

TEST_P(ContainerTopologySweep, UnorderedMapContract) {
  const auto& param = GetParam();
  Context::Config cfg;
  cfg.num_nodes = param.nodes;
  cfg.procs_per_node = param.procs;
  cfg.model = sim::CostModel::zero();
  Context ctx(cfg);
  core::ContainerOptions options;
  options.num_partitions = param.partitions;
  unordered_map<std::uint64_t, std::uint64_t> map(ctx, options);

  constexpr int kPerRank = 64;
  ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = static_cast<std::uint64_t>(self.rank()) * kPerRank + i;
      ASSERT_TRUE(map.insert(k, k * 2 + 1));
    }
  });
  const auto ranks = static_cast<std::size_t>(ctx.topology().num_ranks());
  EXPECT_EQ(map.size(), ranks * kPerRank);

  ctx.run([&](sim::Actor& self) {
    // Read a shifted rank's keys (forces a mix of local and remote).
    const int other = (self.rank() + 1) % ctx.topology().num_ranks();
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = static_cast<std::uint64_t>(other) * kPerRank + i;
      std::uint64_t v = 0;
      ASSERT_TRUE(map.find(k, &v));
      EXPECT_EQ(v, k * 2 + 1);
    }
  });
  // Erase own even keys — a separate phase, so reads above never race with
  // a neighbour's deletions.
  ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; i += 2) {
      const auto k = static_cast<std::uint64_t>(self.rank()) * kPerRank + i;
      ASSERT_TRUE(map.erase(k));
    }
  });
  EXPECT_EQ(map.size(), ranks * kPerRank / 2);
}

TEST_P(ContainerTopologySweep, QueueConservation) {
  const auto& param = GetParam();
  Context::Config cfg;
  cfg.num_nodes = param.nodes;
  cfg.procs_per_node = param.procs;
  cfg.model = sim::CostModel::zero();
  Context ctx(cfg);
  queue<std::uint64_t> q(ctx);

  constexpr int kPerRank = 50;
  std::atomic<std::uint64_t> pushed_sum{0}, popped_sum{0};
  std::atomic<std::uint64_t> popped_count{0};
  ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; ++i) {
      const auto v = static_cast<std::uint64_t>(self.rank()) * kPerRank + i;
      q.push(v);
      pushed_sum.fetch_add(v);
    }
    std::uint64_t out;
    for (int i = 0; i < kPerRank / 2 && q.pop(&out); ++i) {
      popped_sum.fetch_add(out);
      popped_count.fetch_add(1);
    }
  });
  // Drain the rest; totals must balance exactly.
  ctx.run_one(0, [&](sim::Actor&) {
    std::uint64_t out;
    while (q.pop(&out)) {
      popped_sum.fetch_add(out);
      popped_count.fetch_add(1);
    }
  });
  EXPECT_EQ(popped_count.load(),
            static_cast<std::uint64_t>(ctx.topology().num_ranks()) * kPerRank);
  EXPECT_EQ(pushed_sum.load(), popped_sum.load());
}

TEST_P(ContainerTopologySweep, PriorityQueueGlobalOrder) {
  const auto& param = GetParam();
  Context::Config cfg;
  cfg.num_nodes = param.nodes;
  cfg.procs_per_node = param.procs;
  cfg.model = sim::CostModel::zero();
  Context ctx(cfg);
  priority_queue<std::uint64_t> pq(ctx);

  constexpr int kPerRank = 50;
  ctx.run([&](sim::Actor& self) {
    Rng rng(static_cast<std::uint64_t>(self.rank()) + 1);
    for (int i = 0; i < kPerRank; ++i) pq.push(rng.next_below(1'000'000));
  });
  ctx.run_one(0, [&](sim::Actor&) {
    std::uint64_t prev = 0, cur = 0;
    std::size_t n = 0;
    while (pq.pop(&cur)) {
      EXPECT_GE(cur, prev);
      prev = cur;
      ++n;
    }
    EXPECT_EQ(n, static_cast<std::size_t>(ctx.topology().num_ranks()) * kPerRank);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContainerTopologySweep,
    ::testing::Values(TopoCase{1, 1, -1}, TopoCase{1, 8, -1},
                      TopoCase{2, 2, -1}, TopoCase{4, 4, -1},
                      TopoCase{8, 2, -1}, TopoCase{4, 4, 2},
                      TopoCase{3, 5, 7}));

// ---------------------------------------------------------------------------
// Fault tolerance: under a seeded mix of injected drops, delays, duplicated
// requests, handler throws, and transient NACKs, every container op must
// resolve to a definite outcome (success or a well-formed HclError — never a
// hang, never corruption), and after repairing the reported failures the map
// is exactly the intended set.
// ---------------------------------------------------------------------------

class FaultSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSweep, MapStaysConsistentUnderInjectedFaults) {
  auto plan = std::make_shared<fabric::FaultPlan>(GetParam());
  fabric::FaultProbabilities p;
  p.drop = 0.02;
  p.delay = 0.05;
  p.delay_ns = 30 * sim::kMicrosecond;
  p.throw_handler = 0.02;
  p.unavailable = 0.03;
  p.duplicate = 0.02;
  plan->set(fabric::OpClass::kRpc, p);

  Context::Config cfg;
  cfg.num_nodes = 4;
  cfg.procs_per_node = 4;
  cfg.model = sim::CostModel::zero();
  cfg.rpc_options.timeout_ns = 2 * sim::kMillisecond;
  cfg.rpc_options.max_retries = 4;
  cfg.fault_plan = plan;
  Context ctx(cfg);
  unordered_map<std::uint64_t, std::uint64_t> map(ctx);

  constexpr int kPerRank = 128;
  const auto ranks = static_cast<std::size_t>(ctx.topology().num_ranks());
  std::vector<std::vector<std::uint64_t>> failed(ranks);

  ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = static_cast<std::uint64_t>(self.rank()) * kPerRank + i;
      try {
        // Retries absorb transient faults; duplicate delivery may make a
        // landed insert report false (the discarded twin got there first) —
        // either way the key is in.
        (void)map.insert(k, k ^ 0xF00D);
      } catch (const HclError& e) {
        // What the retry policy cannot absorb must surface as one of the
        // definite terminal codes — anything else is a protocol bug.
        ASSERT_TRUE(e.code() == StatusCode::kInternal ||
                    e.code() == StatusCode::kDeadlineExceeded ||
                    e.code() == StatusCode::kUnavailable)
            << "unexpected terminal code: " << e.what();
        failed[static_cast<std::size_t>(self.rank())].push_back(k);
      }
    }
  });

  // Repair with faults cleared: upsert covers both "never executed" (dropped)
  // and "executed but reported late" (deadline passed after side effects).
  ctx.set_fault_plan(nullptr);
  ctx.run([&](sim::Actor& self) {
    for (const auto k : failed[static_cast<std::size_t>(self.rank())]) {
      (void)map.upsert(k, k ^ 0xF00D);
    }
  });

  EXPECT_EQ(map.size(), ranks * kPerRank);
  ctx.run([&](sim::Actor& self) {
    const int other = (self.rank() + 1) % ctx.topology().num_ranks();
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = static_cast<std::uint64_t>(other) * kPerRank + i;
      std::uint64_t v = 0;
      ASSERT_TRUE(map.find(k, &v));
      EXPECT_EQ(v, k ^ 0xF00D);
    }
  });
  EXPECT_GT(plan->counters().total(), 0) << "fault plan never fired";
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultSweep,
                         ::testing::Values(101u, 202u, 303u));

// ---------------------------------------------------------------------------
// Batched-vs-scalar equivalence: the same seeded op stream applied through
// the coalesced bulk APIs (insert_batch/find_batch/erase_batch, push_batch)
// and one-at-a-time must produce identical per-op results and identical
// final state, for every topology shape / partition count / flush policy.
// Coalescing is a transport optimization — it must never be observable.
// ---------------------------------------------------------------------------

struct BatchEquivCase {
  int nodes;
  int procs;
  int partitions;       // -1 = default (one per node)
  std::size_t max_ops;  // bundle flush threshold under test
  std::uint64_t seed;
};

class BatchedScalarEquivalence : public ::testing::TestWithParam<BatchEquivCase> {};

TEST_P(BatchedScalarEquivalence, MapBulkOpsMatchScalarOps) {
  const auto& param = GetParam();
  Context::Config cfg;
  cfg.num_nodes = param.nodes;
  cfg.procs_per_node = param.procs;
  cfg.model = sim::CostModel::zero();
  Context scalar_ctx(cfg);
  Context batched_ctx(cfg);

  core::ContainerOptions scalar_opts;
  scalar_opts.num_partitions = param.partitions;
  core::ContainerOptions batched_opts = scalar_opts;
  batched_opts.batch.max_ops = param.max_ops;
  batched_opts.batch.max_bytes = 1 << 20;
  batched_opts.batch.max_delay_ns = 0;
  unordered_map<std::uint64_t, std::uint64_t> scalar_map(scalar_ctx, scalar_opts);
  unordered_map<std::uint64_t, std::uint64_t> batched_map(batched_ctx, batched_opts);

  constexpr int kPerRank = 96;
  const auto ranks = static_cast<std::size_t>(scalar_ctx.topology().num_ranks());
  const std::uint64_t seed = param.seed;
  auto key_of = [](int rank, int i) {
    return static_cast<std::uint64_t>(rank) * kPerRank + static_cast<std::uint64_t>(i);
  };
  auto val_of = [seed](std::uint64_t k) { return k * 0x9E3779B97F4A7C15ULL + seed; };

  // Phase 1+2: fresh inserts (all land), then duplicate inserts (all reject).
  std::vector<std::vector<bool>> scalar_ins(ranks), batched_ins(ranks);
  std::vector<std::vector<bool>> scalar_dup(ranks), batched_dup(ranks);
  scalar_ctx.run([&](sim::Actor& self) {
    auto& ins = scalar_ins[static_cast<std::size_t>(self.rank())];
    auto& dup = scalar_dup[static_cast<std::size_t>(self.rank())];
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = key_of(self.rank(), i);
      ins.push_back(scalar_map.insert(k, val_of(k)));
    }
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = key_of(self.rank(), i);
      dup.push_back(scalar_map.insert(k, val_of(k) + 1));
    }
  });
  batched_ctx.run([&](sim::Actor& self) {
    std::vector<std::uint64_t> keys, values;
    for (int i = 0; i < kPerRank; ++i) {
      keys.push_back(key_of(self.rank(), i));
      values.push_back(val_of(keys.back()));
    }
    batched_ins[static_cast<std::size_t>(self.rank())] =
        batched_map.insert_batch(keys, values);
    for (auto& v : values) ++v;
    batched_dup[static_cast<std::size_t>(self.rank())] =
        batched_map.insert_batch(keys, values);
  });
  EXPECT_EQ(scalar_ins, batched_ins);
  EXPECT_EQ(scalar_dup, batched_dup);
  EXPECT_EQ(scalar_map.size(), batched_map.size());

  // Phase 3: find a shifted rank's keys (mix of local and remote partitions).
  std::vector<std::vector<std::optional<std::uint64_t>>> scalar_found(ranks),
      batched_found(ranks);
  scalar_ctx.run([&](sim::Actor& self) {
    const int other = (self.rank() + 1) % scalar_ctx.topology().num_ranks();
    auto& found = scalar_found[static_cast<std::size_t>(self.rank())];
    for (int i = 0; i < kPerRank; ++i) {
      std::uint64_t v = 0;
      found.push_back(scalar_map.find(key_of(other, i), &v)
                          ? std::optional<std::uint64_t>(v)
                          : std::nullopt);
    }
  });
  batched_ctx.run([&](sim::Actor& self) {
    const int other = (self.rank() + 1) % batched_ctx.topology().num_ranks();
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < kPerRank; ++i) keys.push_back(key_of(other, i));
    batched_found[static_cast<std::size_t>(self.rank())] =
        batched_map.find_batch(keys);
  });
  EXPECT_EQ(scalar_found, batched_found);

  // Phase 4: erase own even keys, then re-erase them (now all misses).
  std::vector<std::vector<bool>> scalar_erased(ranks), batched_erased(ranks);
  std::vector<std::vector<bool>> scalar_missed(ranks), batched_missed(ranks);
  scalar_ctx.run([&](sim::Actor& self) {
    auto& erased = scalar_erased[static_cast<std::size_t>(self.rank())];
    auto& missed = scalar_missed[static_cast<std::size_t>(self.rank())];
    for (int i = 0; i < kPerRank; i += 2) {
      erased.push_back(scalar_map.erase(key_of(self.rank(), i)));
    }
    for (int i = 0; i < kPerRank; i += 2) {
      missed.push_back(scalar_map.erase(key_of(self.rank(), i)));
    }
  });
  batched_ctx.run([&](sim::Actor& self) {
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < kPerRank; i += 2) keys.push_back(key_of(self.rank(), i));
    batched_erased[static_cast<std::size_t>(self.rank())] =
        batched_map.erase_batch(keys);
    batched_missed[static_cast<std::size_t>(self.rank())] =
        batched_map.erase_batch(keys);
  });
  EXPECT_EQ(scalar_erased, batched_erased);
  EXPECT_EQ(scalar_missed, batched_missed);
  EXPECT_EQ(scalar_map.size(), batched_map.size());

  // Final state: every key the scalar map can answer, the batched map answers
  // identically (one full-keyspace sweep from rank 0).
  std::vector<std::optional<std::uint64_t>> scalar_state, batched_state;
  scalar_ctx.run_one(0, [&](sim::Actor&) {
    for (std::size_t r = 0; r < ranks; ++r) {
      for (int i = 0; i < kPerRank; ++i) {
        std::uint64_t v = 0;
        scalar_state.push_back(scalar_map.find(key_of(static_cast<int>(r), i), &v)
                                   ? std::optional<std::uint64_t>(v)
                                   : std::nullopt);
      }
    }
  });
  batched_ctx.run_one(0, [&](sim::Actor&) {
    std::vector<std::uint64_t> keys;
    for (std::size_t r = 0; r < ranks; ++r) {
      for (int i = 0; i < kPerRank; ++i) keys.push_back(key_of(static_cast<int>(r), i));
    }
    batched_state = batched_map.find_batch(keys);
  });
  EXPECT_EQ(scalar_state, batched_state);
}

TEST_P(BatchedScalarEquivalence, QueuePushBatchPreservesFifo) {
  const auto& param = GetParam();
  if (param.nodes < 2) GTEST_SKIP() << "needs a remote queue host";
  Context::Config cfg;
  cfg.num_nodes = param.nodes;
  cfg.procs_per_node = param.procs;
  cfg.model = sim::CostModel::zero();
  Context scalar_ctx(cfg);
  Context batched_ctx(cfg);

  core::ContainerOptions scalar_opts;
  scalar_opts.first_node = 1;  // rank 0 pushes remotely, through the coalescer
  core::ContainerOptions batched_opts = scalar_opts;
  batched_opts.batch.max_ops = param.max_ops;
  batched_opts.batch.max_delay_ns = 0;
  queue<std::uint64_t> scalar_q(scalar_ctx, scalar_opts);
  queue<std::uint64_t> batched_q(batched_ctx, batched_opts);

  constexpr int kTotal = 192;
  Rng rng(param.seed);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < kTotal; ++i) values.push_back(rng.next());

  scalar_ctx.run_one(0, [&](sim::Actor&) {
    for (const auto v : values) ASSERT_TRUE(scalar_q.push(v));
  });
  batched_ctx.run_one(0, [&](sim::Actor&) {
    const auto ok = batched_q.push_batch(values);
    EXPECT_TRUE(std::all_of(ok.begin(), ok.end(), [](bool b) { return b; }));
  });

  // Coalescing must preserve FIFO: both queues drain to the same sequence.
  std::vector<std::uint64_t> scalar_drained, batched_drained;
  scalar_ctx.run_one(0, [&](sim::Actor&) {
    std::uint64_t out;
    while (scalar_q.pop(&out)) scalar_drained.push_back(out);
  });
  batched_ctx.run_one(0, [&](sim::Actor&) {
    std::uint64_t out;
    while (batched_q.pop(&out)) batched_drained.push_back(out);
  });
  EXPECT_EQ(scalar_drained, values);
  EXPECT_EQ(scalar_drained, batched_drained);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchedScalarEquivalence,
    ::testing::Values(BatchEquivCase{2, 2, -1, 8, 17},
                      BatchEquivCase{4, 4, -1, 32, 29},
                      BatchEquivCase{4, 2, 2, 4, 41},
                      BatchEquivCase{3, 5, 7, 16, 53},
                      BatchEquivCase{8, 2, -1, 1, 67}));  // max_ops=1: scalar ship

// Under a seeded fault mix (bundle-level transport faults + per-constituent
// faults inside delivered bundles) every batched op must still resolve to a
// definite per-op status, and after repairing exactly the reported failures
// the batched map converges to the same final state as a fault-free scalar
// run of the same stream.
class BatchedFaultEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchedFaultEquivalence, RepairedBatchedRunMatchesFaultFreeScalarRun) {
  auto plan = std::make_shared<fabric::FaultPlan>(GetParam());
  fabric::FaultProbabilities rpc_p;
  rpc_p.drop = 0.02;  // whole-bundle transport loss, absorbed by retries
  rpc_p.unavailable = 0.03;
  plan->set(fabric::OpClass::kRpc, rpc_p);
  fabric::FaultProbabilities op_p;
  op_p.drop = 0.04;  // constituent dropped from a delivered bundle
  op_p.throw_handler = 0.03;
  op_p.unavailable = 0.03;
  op_p.duplicate = 0.02;
  plan->set(fabric::OpClass::kBatchOp, op_p);

  Context::Config cfg;
  cfg.num_nodes = 4;
  cfg.procs_per_node = 4;
  cfg.model = sim::CostModel::zero();
  Context scalar_ctx(cfg);

  Context::Config faulty_cfg = cfg;
  faulty_cfg.rpc_options.timeout_ns = 2 * sim::kMillisecond;
  faulty_cfg.rpc_options.max_retries = 4;
  faulty_cfg.fault_plan = plan;
  Context batched_ctx(faulty_cfg);

  core::ContainerOptions scalar_opts;
  core::ContainerOptions batched_opts;
  batched_opts.batch.max_ops = 16;
  batched_opts.batch.max_delay_ns = 0;
  unordered_map<std::uint64_t, std::uint64_t> scalar_map(scalar_ctx, scalar_opts);
  unordered_map<std::uint64_t, std::uint64_t> batched_map(batched_ctx, batched_opts);

  constexpr int kPerRank = 128;
  const auto ranks = static_cast<std::size_t>(scalar_ctx.topology().num_ranks());
  auto key_of = [](int rank, int i) {
    return static_cast<std::uint64_t>(rank) * kPerRank + static_cast<std::uint64_t>(i);
  };
  auto val_of = [](std::uint64_t k) { return k ^ 0xBEEFCAFEULL; };

  // The intended stream: insert all own keys, then erase the even ones.
  scalar_ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = key_of(self.rank(), i);
      ASSERT_TRUE(scalar_map.insert(k, val_of(k)));
    }
  });
  scalar_ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; i += 2) {
      ASSERT_TRUE(scalar_map.erase(key_of(self.rank(), i)));
    }
  });

  // Batched run under faults: per-op statuses captured, never a throw/hang.
  std::vector<std::vector<std::uint64_t>> failed_inserts(ranks);
  batched_ctx.run([&](sim::Actor& self) {
    std::vector<std::uint64_t> keys, vals;
    for (int i = 0; i < kPerRank; ++i) {
      keys.push_back(key_of(self.rank(), i));
      vals.push_back(val_of(keys.back()));
    }
    std::vector<Status> statuses;
    (void)batched_map.insert_batch(keys, vals, &statuses);
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      if (statuses[i].ok()) continue;
      ASSERT_TRUE(statuses[i].code() == StatusCode::kInternal ||
                  statuses[i].code() == StatusCode::kDeadlineExceeded ||
                  statuses[i].code() == StatusCode::kUnavailable)
          << "indefinite per-op status: " << statuses[i].to_string();
      failed_inserts[static_cast<std::size_t>(self.rank())].push_back(keys[i]);
    }
  });
  // Repair exactly what was reported failed, fault-free (upsert covers both
  // never-executed and executed-but-reported-failed constituents).
  batched_ctx.set_fault_plan(nullptr);
  batched_ctx.run([&](sim::Actor& self) {
    for (const auto k : failed_inserts[static_cast<std::size_t>(self.rank())]) {
      (void)batched_map.upsert(k, val_of(k));
    }
  });

  // Erase phase, faults back on.
  batched_ctx.set_fault_plan(plan);
  std::vector<std::vector<std::uint64_t>> failed_erases(ranks);
  batched_ctx.run([&](sim::Actor& self) {
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < kPerRank; i += 2) keys.push_back(key_of(self.rank(), i));
    std::vector<Status> statuses;
    (void)batched_map.erase_batch(keys, &statuses);
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      if (!statuses[i].ok()) {
        failed_erases[static_cast<std::size_t>(self.rank())].push_back(keys[i]);
      }
    }
  });
  batched_ctx.set_fault_plan(nullptr);
  batched_ctx.run([&](sim::Actor& self) {
    for (const auto k : failed_erases[static_cast<std::size_t>(self.rank())]) {
      (void)batched_map.erase(k);
    }
  });

  // Convergence: repaired batched state == fault-free scalar state.
  EXPECT_EQ(batched_map.size(), scalar_map.size());
  std::vector<std::optional<std::uint64_t>> scalar_state, batched_state;
  scalar_ctx.run_one(0, [&](sim::Actor&) {
    for (std::size_t r = 0; r < ranks; ++r) {
      for (int i = 0; i < kPerRank; ++i) {
        std::uint64_t v = 0;
        scalar_state.push_back(scalar_map.find(key_of(static_cast<int>(r), i), &v)
                                   ? std::optional<std::uint64_t>(v)
                                   : std::nullopt);
      }
    }
  });
  batched_ctx.run_one(0, [&](sim::Actor&) {
    std::vector<std::uint64_t> keys;
    for (std::size_t r = 0; r < ranks; ++r) {
      for (int i = 0; i < kPerRank; ++i) keys.push_back(key_of(static_cast<int>(r), i));
    }
    batched_state = batched_map.find_batch(keys);
  });
  EXPECT_EQ(scalar_state, batched_state);
  EXPECT_GT(plan->counters().total(), 0) << "fault plan never fired";
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchedFaultEquivalence,
                         ::testing::Values(401u, 502u, 603u));

// ---------------------------------------------------------------------------
// Failover convergence (DESIGN.md §5f): a workload that kills one server
// mid-run, fails over to the promoted replica, then rejoins and repairs,
// must converge byte-for-byte to the state of a fault-free twin running
// the same op stream — across topology shapes, replication factors, cache
// modes, and batching policies, including per-constituent kBatchOp faults
// injected during the down window.
// ---------------------------------------------------------------------------

struct FailoverCase {
  int nodes;
  int procs;
  int partitions;
  int replication;
  cache::CacheMode mode;  // forced on for the faulty run
  bool batched;           // phase-2 ops coalesced vs scalar
  std::uint64_t seed;
};

class FailoverConvergenceSweep : public ::testing::TestWithParam<FailoverCase> {};

TEST_P(FailoverConvergenceSweep, KillPromoteRejoinRepairMatchesFaultFreeTwin) {
  const auto& param = GetParam();
  constexpr sim::NodeId kVictim = 1;
  constexpr int kPerRank = 48;

  auto plan = std::make_shared<fabric::FaultPlan>(param.seed);
  if (param.batched) {
    // Per-constituent faults inside delivered bundles, on top of the kill.
    fabric::FaultProbabilities op_p;
    op_p.drop = 0.03;
    op_p.throw_handler = 0.03;
    op_p.unavailable = 0.03;
    plan->set(fabric::OpClass::kBatchOp, op_p);
  }

  Context::Config ref_cfg;
  ref_cfg.num_nodes = param.nodes;
  ref_cfg.procs_per_node = param.procs;
  ref_cfg.model = sim::CostModel::zero();
  Context ref_ctx(ref_cfg);

  Context::Config fo_cfg = ref_cfg;
  fo_cfg.fault_plan = plan;
  Context fo_ctx(fo_cfg);

  core::ContainerOptions ref_opts;
  ref_opts.num_partitions = param.partitions;
  ref_opts.replication = param.replication;
  core::ContainerOptions fo_opts = ref_opts;
  fo_opts.cache = {.capacity = 256,
                   .ttl_ns = 50 * sim::kMicrosecond,
                   .mode = param.mode};
  if (param.batched) {
    fo_opts.batch = {.max_ops = 8, .max_bytes = 1 << 16, .max_delay_ns = 0};
  }
  unordered_map<std::uint64_t, std::uint64_t> ref_map(ref_ctx, ref_opts);
  unordered_map<std::uint64_t, std::uint64_t> fo_map(fo_ctx, fo_opts);

  auto key_of = [](int rank, int i) {
    return static_cast<std::uint64_t>(rank) * kPerRank +
           static_cast<std::uint64_t>(i);
  };
  auto fresh_of = [](int rank, int i) {
    return 1'000'000 + static_cast<std::uint64_t>(rank) * kPerRank +
           static_cast<std::uint64_t>(i);
  };
  auto val_of = [](std::uint64_t k) { return k * 3 + 1; };

  // Phase 1 (both runs, no faults yet): every rank inserts its keys.
  for (Context* c : {&ref_ctx, &fo_ctx}) {
    auto& m = (c == &ref_ctx) ? ref_map : fo_map;
    c->run([&](sim::Actor& self) {
      for (int i = 0; i < kPerRank; ++i) {
        const auto k = key_of(self.rank(), i);
        ASSERT_TRUE(m.insert(k, val_of(k)));
      }
    });
  }

  // Phase 2: the victim dies. Live ranks keep writing — fresh inserts plus
  // erases of a third of their phase-1 keys; ranks hosted on the victim
  // stay quiet (SPMD code cannot run on a dead server). The reference twin
  // executes the identical stream fault-free.
  ref_ctx.run([&](sim::Actor& self) {
    if (self.node() == kVictim) return;
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = fresh_of(self.rank(), i);
      ASSERT_TRUE(ref_map.insert(k, val_of(k)));
    }
    for (int i = 0; i < kPerRank; i += 3) {
      ASSERT_TRUE(ref_map.erase(key_of(self.rank(), i)));
    }
  });

  plan->fail_node(kVictim);
  const auto ranks = static_cast<std::size_t>(fo_ctx.topology().num_ranks());
  std::vector<std::vector<std::uint64_t>> failed_inserts(ranks);
  std::vector<std::vector<std::uint64_t>> failed_erases(ranks);
  fo_ctx.run([&](sim::Actor& self) {
    if (self.node() == kVictim) return;
    const auto r = static_cast<std::size_t>(self.rank());
    std::vector<std::uint64_t> ins_keys, ins_vals, del_keys;
    for (int i = 0; i < kPerRank; ++i) {
      ins_keys.push_back(fresh_of(self.rank(), i));
      ins_vals.push_back(val_of(ins_keys.back()));
    }
    for (int i = 0; i < kPerRank; i += 3) {
      del_keys.push_back(key_of(self.rank(), i));
    }
    if (param.batched) {
      std::vector<Status> statuses;
      (void)fo_map.insert_batch(ins_keys, ins_vals, &statuses);
      for (std::size_t i = 0; i < statuses.size(); ++i) {
        if (!statuses[i].ok()) failed_inserts[r].push_back(ins_keys[i]);
      }
      statuses.clear();
      (void)fo_map.erase_batch(del_keys, &statuses);
      for (std::size_t i = 0; i < statuses.size(); ++i) {
        if (!statuses[i].ok()) failed_erases[r].push_back(del_keys[i]);
      }
    } else {
      for (std::size_t i = 0; i < ins_keys.size(); ++i) {
        ASSERT_TRUE(fo_map.insert(ins_keys[i], ins_vals[i]));
      }
      for (const auto k : del_keys) ASSERT_TRUE(fo_map.erase(k));
    }
  });
  // Repair the transiently-failed constituents scalar, victim still down:
  // every re-issue goes through the failover path.
  fo_ctx.run([&](sim::Actor& self) {
    if (self.node() == kVictim) return;
    const auto r = static_cast<std::size_t>(self.rank());
    for (const auto k : failed_inserts[r]) (void)fo_map.upsert(k, val_of(k));
    for (const auto k : failed_erases[r]) (void)fo_map.erase(k);
  });

  // Phase 3: rejoin; an explicit heal repairs every promoted partition
  // before anyone (including the victim's own ranks, whose local hybrid
  // path bypasses routing) reads again.
  plan->rejoin_node(kVictim);
  fo_ctx.run_one(0, [&](sim::Actor& self) { fo_map.heal(self); });
  for (int p = 0; p < fo_map.num_partitions(); ++p) {
    EXPECT_FALSE(fo_map.partition_promoted(p)) << "partition " << p;
    EXPECT_EQ(fo_map.repair_backlog(p), 0u) << "partition " << p;
  }

  // Byte-for-byte convergence with the fault-free twin over the whole
  // keyspace, phase-1 and phase-2 keys alike.
  EXPECT_EQ(fo_map.size(), ref_map.size());
  std::vector<std::optional<std::uint64_t>> ref_state, fo_state;
  ref_ctx.run_one(0, [&](sim::Actor&) {
    for (std::size_t r = 0; r < ranks; ++r) {
      for (int i = 0; i < kPerRank; ++i) {
        std::uint64_t v = 0;
        ref_state.push_back(ref_map.find(key_of(static_cast<int>(r), i), &v)
                                ? std::optional<std::uint64_t>(v)
                                : std::nullopt);
        v = 0;
        ref_state.push_back(ref_map.find(fresh_of(static_cast<int>(r), i), &v)
                                ? std::optional<std::uint64_t>(v)
                                : std::nullopt);
      }
    }
  });
  fo_ctx.run_one(0, [&](sim::Actor&) {
    for (std::size_t r = 0; r < ranks; ++r) {
      for (int i = 0; i < kPerRank; ++i) {
        std::uint64_t v = 0;
        fo_state.push_back(fo_map.find(key_of(static_cast<int>(r), i), &v)
                               ? std::optional<std::uint64_t>(v)
                               : std::nullopt);
        v = 0;
        fo_state.push_back(fo_map.find(fresh_of(static_cast<int>(r), i), &v)
                               ? std::optional<std::uint64_t>(v)
                               : std::nullopt);
      }
    }
  });
  EXPECT_EQ(ref_state, fo_state);
  EXPECT_GT(plan->counters().node_down_rejections.load(), 0)
      << "the kill window never rejected an op";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FailoverConvergenceSweep,
    ::testing::Values(
        FailoverCase{2, 2, 4, 1, cache::CacheMode::kOff, false, 11u},
        FailoverCase{3, 1, 3, 1, cache::CacheMode::kInvalidate, true, 22u},
        FailoverCase{4, 2, 8, 2, cache::CacheMode::kUpdate, true, 33u},
        FailoverCase{3, 2, 6, 2, cache::CacheMode::kInvalidate, false, 44u},
        FailoverCase{2, 1, 4, 1, cache::CacheMode::kUpdate, false, 55u},
        FailoverCase{4, 1, 4, 1, cache::CacheMode::kOff, true, 66u},
        FailoverCase{3, 1, 3, 1, cache::CacheMode::kInvalidate, true, 77u}));

// ---------------------------------------------------------------------------
// Rebalance convergence (DESIGN.md §5g): a workload that splits, merges,
// and migrates shards MID-RUN — with per-constituent kBatchOp faults
// injected into the phase between moves — must converge byte-for-byte to
// a fault-free twin that never moved anything, with zero failed ops in
// every fault-free phase, across cache modes, batching policies, and
// replication factors.
// ---------------------------------------------------------------------------

struct RebalanceCase {
  int nodes;
  int procs;
  int partitions;
  int replication;
  cache::CacheMode mode;  // forced on for the rebalancing run
  bool batched;           // phase-2 ops coalesced (with kBatchOp faults)
  std::uint64_t seed;
};

class RebalanceConvergenceSweep : public ::testing::TestWithParam<RebalanceCase> {};

TEST_P(RebalanceConvergenceSweep, MidRunMovesMatchStaticTwin) {
  const auto& param = GetParam();
  constexpr int kPerRank = 48;

  auto plan = std::make_shared<fabric::FaultPlan>(param.seed);
  if (param.batched) {
    fabric::FaultProbabilities op_p;
    op_p.drop = 0.04;
    op_p.throw_handler = 0.03;
    op_p.unavailable = 0.03;
    op_p.duplicate = 0.02;
    plan->set(fabric::OpClass::kBatchOp, op_p);
  }

  Context::Config ref_cfg;
  ref_cfg.num_nodes = param.nodes;
  ref_cfg.procs_per_node = param.procs;
  ref_cfg.model = sim::CostModel::zero();
  Context ref_ctx(ref_cfg);
  Context::Config rb_cfg = ref_cfg;  // faults installed only around phase 2
  if (param.batched) {
    rb_cfg.rpc_options.timeout_ns = 2 * sim::kMillisecond;
    rb_cfg.rpc_options.max_retries = 4;
  }
  Context rb_ctx(rb_cfg);

  core::ContainerOptions ref_opts;
  ref_opts.num_partitions = param.partitions;
  ref_opts.replication = param.replication;
  core::ContainerOptions rb_opts = ref_opts;
  rb_opts.rebalance.enabled = true;
  rb_opts.cache = {.capacity = 256,
                   .ttl_ns = 50 * sim::kMicrosecond,
                   .mode = param.mode};
  if (param.batched) {
    rb_opts.batch = {.max_ops = 8, .max_bytes = 1 << 16, .max_delay_ns = 0};
  }
  unordered_map<std::uint64_t, std::uint64_t> ref_map(ref_ctx, ref_opts);
  unordered_map<std::uint64_t, std::uint64_t> rb_map(rb_ctx, rb_opts);

  auto key_of = [](int rank, int i) {
    return static_cast<std::uint64_t>(rank) * kPerRank +
           static_cast<std::uint64_t>(i);
  };
  auto fresh_of = [](int rank, int i) {
    return 1'000'000 + static_cast<std::uint64_t>(rank) * kPerRank +
           static_cast<std::uint64_t>(i);
  };
  auto val_of = [](std::uint64_t k) { return k * 5 + 3; };

  // Phase 1 (fault-free, both runs): every rank inserts its keys. Zero
  // failed ops: every insert must land.
  for (Context* c : {&ref_ctx, &rb_ctx}) {
    auto& m = (c == &ref_ctx) ? ref_map : rb_map;
    c->run([&](sim::Actor& self) {
      for (int i = 0; i < kPerRank; ++i) {
        const auto k = key_of(self.rank(), i);
        ASSERT_TRUE(m.insert(k, val_of(k)));
      }
    });
  }

  // Move #1, mid-run: split partition 0 and re-home partition 1.
  rb_ctx.run_one(0, [&](sim::Actor&) {
    (void)rb_map.split(0);
    const int target =
        (rb_map.partition_owner(1) + 1) % rb_ctx.topology().num_nodes();
    EXPECT_TRUE(rb_map.migrate(1, target));
    EXPECT_EQ(rb_map.partition_owner(1), target);
  });
  EXPECT_GE(rb_map.rebalances(), 1u);

  // Phase 2, across the moved routes: fresh inserts plus erases of a third
  // of the phase-1 keys. Batched cases run it under injected kBatchOp
  // faults with per-op statuses; scalar cases run fault-free and assert
  // zero failed ops outright.
  if (param.batched) rb_ctx.set_fault_plan(plan);
  ref_ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = fresh_of(self.rank(), i);
      ASSERT_TRUE(ref_map.insert(k, val_of(k)));
    }
    for (int i = 0; i < kPerRank; i += 3) {
      ASSERT_TRUE(ref_map.erase(key_of(self.rank(), i)));
    }
  });
  const auto ranks = static_cast<std::size_t>(rb_ctx.topology().num_ranks());
  std::vector<std::vector<std::uint64_t>> failed_inserts(ranks);
  std::vector<std::vector<std::uint64_t>> failed_erases(ranks);
  rb_ctx.run([&](sim::Actor& self) {
    const auto r = static_cast<std::size_t>(self.rank());
    std::vector<std::uint64_t> ins_keys, ins_vals, del_keys;
    for (int i = 0; i < kPerRank; ++i) {
      ins_keys.push_back(fresh_of(self.rank(), i));
      ins_vals.push_back(val_of(ins_keys.back()));
    }
    for (int i = 0; i < kPerRank; i += 3) {
      del_keys.push_back(key_of(self.rank(), i));
    }
    if (param.batched) {
      std::vector<Status> statuses;
      (void)rb_map.insert_batch(ins_keys, ins_vals, &statuses);
      for (std::size_t i = 0; i < statuses.size(); ++i) {
        if (!statuses[i].ok()) failed_inserts[r].push_back(ins_keys[i]);
      }
      statuses.clear();
      (void)rb_map.erase_batch(del_keys, &statuses);
      for (std::size_t i = 0; i < statuses.size(); ++i) {
        if (!statuses[i].ok()) failed_erases[r].push_back(del_keys[i]);
      }
    } else {
      for (std::size_t i = 0; i < ins_keys.size(); ++i) {
        ASSERT_TRUE(rb_map.insert(ins_keys[i], ins_vals[i]))
            << "failed op after a mid-run move";
      }
      for (const auto k : del_keys) {
        ASSERT_TRUE(rb_map.erase(k)) << "failed op after a mid-run move";
      }
    }
  });
  // Repair the transiently-failed constituents fault-free.
  rb_ctx.set_fault_plan(nullptr);
  rb_ctx.run([&](sim::Actor& self) {
    const auto r = static_cast<std::size_t>(self.rank());
    for (const auto k : failed_inserts[r]) (void)rb_map.upsert(k, val_of(k));
    for (const auto k : failed_erases[r]) (void)rb_map.erase(k);
  });

  // Move #2, after the churn: merge the split-off destination back and
  // re-home partition 1 again (cache leases must revalidate every time).
  rb_ctx.run_one(0, [&](sim::Actor&) {
    if (param.partitions > 2) (void)rb_map.merge(2, 0);
    EXPECT_TRUE(rb_map.migrate(1, rb_map.partition_owner(0) == 0 ? 1 : 0) ||
                true);
  });

  // Byte-for-byte convergence with the never-moved twin, zero failed ops
  // in the readback.
  EXPECT_EQ(rb_map.size(), ref_map.size());
  std::vector<std::optional<std::uint64_t>> ref_state, rb_state;
  ref_ctx.run_one(0, [&](sim::Actor&) {
    for (std::size_t r = 0; r < ranks; ++r) {
      for (int i = 0; i < kPerRank; ++i) {
        std::uint64_t v = 0;
        ref_state.push_back(ref_map.find(key_of(static_cast<int>(r), i), &v)
                                ? std::optional<std::uint64_t>(v)
                                : std::nullopt);
        v = 0;
        ref_state.push_back(ref_map.find(fresh_of(static_cast<int>(r), i), &v)
                                ? std::optional<std::uint64_t>(v)
                                : std::nullopt);
      }
    }
  });
  rb_ctx.run_one(0, [&](sim::Actor&) {
    for (std::size_t r = 0; r < ranks; ++r) {
      for (int i = 0; i < kPerRank; ++i) {
        std::uint64_t v = 0;
        rb_state.push_back(rb_map.find(key_of(static_cast<int>(r), i), &v)
                               ? std::optional<std::uint64_t>(v)
                               : std::nullopt);
        v = 0;
        rb_state.push_back(rb_map.find(fresh_of(static_cast<int>(r), i), &v)
                               ? std::optional<std::uint64_t>(v)
                               : std::nullopt);
      }
    }
  });
  EXPECT_EQ(ref_state, rb_state);
  EXPECT_GE(rb_map.rebalances(), param.partitions > 2 ? 2u : 1u);
  if (param.batched) {
    EXPECT_GT(plan->counters().total(), 0) << "fault plan never fired";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RebalanceConvergenceSweep,
    ::testing::Values(
        RebalanceCase{2, 2, 4, 0, cache::CacheMode::kOff, false, 101u},
        RebalanceCase{3, 1, 3, 1, cache::CacheMode::kInvalidate, true, 202u},
        RebalanceCase{4, 2, 8, 2, cache::CacheMode::kUpdate, true, 303u},
        RebalanceCase{3, 2, 6, 1, cache::CacheMode::kInvalidate, false, 404u},
        RebalanceCase{2, 1, 4, 1, cache::CacheMode::kUpdate, false, 505u},
        RebalanceCase{4, 1, 4, 0, cache::CacheMode::kOff, true, 606u}));

// ---------------------------------------------------------------------------
// Cache transparency: the same phased op stream run with the client-side
// read cache ON and OFF must produce identical per-op results and identical
// final state — for every topology shape, partition count, replication
// factor, batching policy, cache mode, and lease TTL (including ttl_ns=0,
// the exact-consistency setting). Phases are separated by run() barriers
// (which revoke leases), and within a phase no rank writes a key another
// rank reads, so bounded staleness ≤ TTL collapses to exact equivalence —
// caching is a latency optimization, never an observable one.
// ---------------------------------------------------------------------------

struct CacheEquivCase {
  int nodes;
  int procs;
  int partitions;        // -1 = default (one per node)
  int replication;       // async replica partitions per update
  std::size_t batch_ops; // 0 = scalar API; >0 = bulk API with this flush size
  cache::CacheMode mode;
  sim::Nanos ttl_ns;
  std::uint64_t seed;
};

class CacheTransparencySweep : public ::testing::TestWithParam<CacheEquivCase> {};

TEST_P(CacheTransparencySweep, CachedRunMatchesUncachedRun) {
  const auto& param = GetParam();
  Context::Config cfg;
  cfg.num_nodes = param.nodes;
  cfg.procs_per_node = param.procs;
  cfg.model = sim::CostModel::zero();
  Context plain_ctx(cfg);
  Context cached_ctx(cfg);

  core::ContainerOptions plain_opts;
  plain_opts.num_partitions = param.partitions;
  plain_opts.replication = param.replication;
  plain_opts.cache.mode = cache::CacheMode::kOff;
  if (param.batch_ops > 0) {
    plain_opts.batch.max_ops = param.batch_ops;
    plain_opts.batch.max_delay_ns = 0;
  }
  core::ContainerOptions cached_opts = plain_opts;
  cached_opts.cache.mode = param.mode;
  cached_opts.cache.ttl_ns = param.ttl_ns;
  cached_opts.cache.capacity = 64;  // small enough to exercise eviction
  unordered_map<std::uint64_t, std::uint64_t> plain_map(plain_ctx, plain_opts);
  unordered_map<std::uint64_t, std::uint64_t> cached_map(cached_ctx, cached_opts);

  constexpr int kPerRank = 64;
  const auto ranks = static_cast<std::size_t>(plain_ctx.topology().num_ranks());
  const std::uint64_t seed = param.seed;
  auto key_of = [](int rank, int i) {
    return static_cast<std::uint64_t>(rank) * kPerRank + static_cast<std::uint64_t>(i);
  };
  auto val_of = [seed](std::uint64_t k) { return k * 0x9E3779B97F4A7C15ULL + seed; };

  // One phased workload, applied identically to both maps. Reads repeat so
  // the cached run serves genuine hits; writes to read keys happen only in
  // later phases, across lease-revoking barriers.
  auto run_insert_phase = [&](Context& ctx, auto& map) {
    ctx.run([&](sim::Actor& self) {
      if (param.batch_ops > 0) {
        std::vector<std::uint64_t> keys, vals;
        for (int i = 0; i < kPerRank; ++i) {
          keys.push_back(key_of(self.rank(), i));
          vals.push_back(val_of(keys.back()));
        }
        const auto ok = map.insert_batch(keys, vals);
        for (const bool b : ok) ASSERT_TRUE(b);
      } else {
        for (int i = 0; i < kPerRank; ++i) {
          const auto k = key_of(self.rank(), i);
          ASSERT_TRUE(map.insert(k, val_of(k)));
        }
      }
    });
  };
  // Reads a shifted rank's keys kRepeats times; returns per-rank result rows.
  auto run_find_phase = [&](Context& ctx, auto& map, int shift, int repeats) {
    std::vector<std::vector<std::optional<std::uint64_t>>> found(ranks);
    ctx.run([&](sim::Actor& self) {
      const int other = (self.rank() + shift) % ctx.topology().num_ranks();
      auto& row = found[static_cast<std::size_t>(self.rank())];
      for (int rep = 0; rep < repeats; ++rep) {
        if (param.batch_ops > 0) {
          std::vector<std::uint64_t> keys;
          for (int i = 0; i < kPerRank; ++i) keys.push_back(key_of(other, i));
          auto results = map.find_batch(keys);
          for (auto& r : results) row.push_back(std::move(r));
        } else {
          for (int i = 0; i < kPerRank; ++i) {
            std::uint64_t v = 0;
            row.push_back(map.find(key_of(other, i), &v)
                              ? std::optional<std::uint64_t>(v)
                              : std::nullopt);
          }
        }
      }
    });
    return found;
  };
  auto run_upsert_phase = [&](Context& ctx, auto& map) {
    ctx.run([&](sim::Actor& self) {
      for (int i = 0; i < kPerRank; i += 2) {
        const auto k = key_of(self.rank(), i);
        (void)map.upsert(k, val_of(k) + 7);
      }
    });
  };
  auto run_erase_phase = [&](Context& ctx, auto& map) {
    std::vector<std::vector<bool>> erased(ranks);
    ctx.run([&](sim::Actor& self) {
      std::vector<std::uint64_t> keys;
      for (int i = 0; i < kPerRank; i += 3) keys.push_back(key_of(self.rank(), i));
      auto& row = erased[static_cast<std::size_t>(self.rank())];
      if (param.batch_ops > 0) {
        const auto ok = map.erase_batch(keys);
        row.insert(row.end(), ok.begin(), ok.end());
        const auto again = map.erase_batch(keys);  // all misses now
        row.insert(row.end(), again.begin(), again.end());
      } else {
        for (const auto k : keys) row.push_back(map.erase(k));
        for (const auto k : keys) row.push_back(map.erase(k));
      }
    });
    return erased;
  };
  auto final_state = [&](Context& ctx, auto& map) {
    std::vector<std::optional<std::uint64_t>> state;
    ctx.run_one(0, [&](sim::Actor&) {
      for (std::size_t r = 0; r < ranks; ++r) {
        for (int i = 0; i < kPerRank; ++i) {
          std::uint64_t v = 0;
          state.push_back(map.find(key_of(static_cast<int>(r), i), &v)
                              ? std::optional<std::uint64_t>(v)
                              : std::nullopt);
        }
      }
    });
    return state;
  };

  run_insert_phase(plain_ctx, plain_map);
  run_insert_phase(cached_ctx, cached_map);
  EXPECT_EQ(plain_map.size(), cached_map.size());

  // Repeated remote reads: the cached run serves hits, results must agree.
  EXPECT_EQ(run_find_phase(plain_ctx, plain_map, 1, 3),
            run_find_phase(cached_ctx, cached_map, 1, 3));

  // Cross-rank writes, then re-reads of the same keys from a different
  // shift: the epoch piggyback + barrier revocation must surface every
  // update, cached or not.
  run_upsert_phase(plain_ctx, plain_map);
  run_upsert_phase(cached_ctx, cached_map);
  EXPECT_EQ(run_find_phase(plain_ctx, plain_map, 2, 2),
            run_find_phase(cached_ctx, cached_map, 2, 2));

  EXPECT_EQ(run_erase_phase(plain_ctx, plain_map),
            run_erase_phase(cached_ctx, cached_map));
  EXPECT_EQ(plain_map.size(), cached_map.size());

  // Re-read after erasure (negative caching must agree with ground truth),
  // then the full-keyspace state sweep.
  EXPECT_EQ(run_find_phase(plain_ctx, plain_map, 1, 2),
            run_find_phase(cached_ctx, cached_map, 1, 2));
  EXPECT_EQ(final_state(plain_ctx, plain_map), final_state(cached_ctx, cached_map));

  const auto stats = cached_map.cache_stats();
  if (cached_opts.cache.enabled() && param.ttl_ns > 0 && ranks > 1) {
    EXPECT_GT(stats.hits, 0) << "cache-on sweep never served a hit";
  }
  if (param.ttl_ns == 0) {
    EXPECT_EQ(stats.hits, 0) << "ttl_ns=0 must revalidate every read";
  }
  if (param.replication > 0) {
    // Replica partitions saw the async writes: their epochs advanced.
    std::uint64_t replica_epochs = 0;
    for (int p = 0; p < cached_map.num_partitions(); ++p) {
      replica_epochs += cached_map.partition_epoch(p);
    }
    EXPECT_GT(replica_epochs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheTransparencySweep,
    ::testing::Values(
        // Scalar ops, invalidate mode, across topology shapes.
        CacheEquivCase{2, 2, -1, 0, 0, cache::CacheMode::kInvalidate,
                       100 * sim::kMicrosecond, 11},
        CacheEquivCase{4, 4, -1, 0, 0, cache::CacheMode::kInvalidate,
                       100 * sim::kMicrosecond, 13},
        CacheEquivCase{3, 5, 7, 0, 0, cache::CacheMode::kInvalidate,
                       100 * sim::kMicrosecond, 17},
        // Update mode (write-through re-cache of the writer's own outcome).
        CacheEquivCase{4, 2, 2, 0, 0, cache::CacheMode::kUpdate,
                       100 * sim::kMicrosecond, 19},
        // ttl_ns=0: exact consistency, every consult revalidates.
        CacheEquivCase{4, 4, -1, 0, 0, cache::CacheMode::kInvalidate, 0, 23},
        // Batched ops through the coalescer, cache on.
        CacheEquivCase{4, 4, -1, 0, 8, cache::CacheMode::kInvalidate,
                       100 * sim::kMicrosecond, 29},
        CacheEquivCase{3, 5, 7, 0, 16, cache::CacheMode::kUpdate,
                       100 * sim::kMicrosecond, 31},
        // Replication × cache (satellite: replica epochs must advance).
        CacheEquivCase{4, 2, -1, 1, 0, cache::CacheMode::kInvalidate,
                       100 * sim::kMicrosecond, 37},
        CacheEquivCase{4, 4, -1, 2, 8, cache::CacheMode::kUpdate,
                       100 * sim::kMicrosecond, 41}));

// Under a seeded fault mix, a cached run must (a) never serve a pre-write
// value past its lease after a retried write — the writer invalidates its
// own entry before the first attempt ships — and (b) converge, after
// repairing exactly the reported failures, to the same final state as a
// fault-free uncached run of the intended stream. Per-op equivalence under
// faults is not meaningful (a cache hit skips the fault draw an uncached
// read would consume, shifting the seeded sequence), so convergence is the
// property: faults change timing, never correctness.
class CacheFaultConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheFaultConvergence, RepairedCachedRunMatchesFaultFreeUncachedRun) {
  auto plan = std::make_shared<fabric::FaultPlan>(GetParam());
  fabric::FaultProbabilities p;
  p.drop = 0.03;
  p.throw_handler = 0.02;
  p.unavailable = 0.03;
  p.duplicate = 0.02;
  plan->set(fabric::OpClass::kRpc, p);

  Context::Config cfg;
  cfg.num_nodes = 4;
  cfg.procs_per_node = 4;
  cfg.model = sim::CostModel::zero();
  Context plain_ctx(cfg);

  Context::Config faulty_cfg = cfg;
  faulty_cfg.rpc_options.timeout_ns = 2 * sim::kMillisecond;
  faulty_cfg.rpc_options.max_retries = 4;
  faulty_cfg.fault_plan = plan;
  Context cached_ctx(faulty_cfg);

  core::ContainerOptions plain_opts;
  plain_opts.cache.mode = cache::CacheMode::kOff;
  core::ContainerOptions cached_opts = plain_opts;
  cached_opts.cache.mode = cache::CacheMode::kInvalidate;
  cached_opts.cache.ttl_ns = 100 * sim::kMicrosecond;
  unordered_map<std::uint64_t, std::uint64_t> plain_map(plain_ctx, plain_opts);
  unordered_map<std::uint64_t, std::uint64_t> cached_map(cached_ctx, cached_opts);

  constexpr int kPerRank = 96;
  const auto ranks = static_cast<std::size_t>(plain_ctx.topology().num_ranks());
  auto key_of = [](int rank, int i) {
    return static_cast<std::uint64_t>(rank) * kPerRank + static_cast<std::uint64_t>(i);
  };
  auto val_of = [](std::uint64_t k) { return k ^ 0xCAC4EDULL; };

  // Intended stream, fault-free and uncached: insert all, overwrite evens.
  plain_ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = key_of(self.rank(), i);
      ASSERT_TRUE(plain_map.insert(k, val_of(k)));
    }
  });
  plain_ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; i += 2) {
      const auto k = key_of(self.rank(), i);
      (void)plain_map.upsert(k, val_of(k) + 1);
    }
  });

  // Cached run under faults. Reads are interleaved after the writes so the
  // cache is hot while retries and failures are in flight.
  std::vector<std::vector<std::uint64_t>> failed(ranks);
  auto record_failure = [&](int rank, std::uint64_t k, const HclError& e) {
    ASSERT_TRUE(e.code() == StatusCode::kInternal ||
                e.code() == StatusCode::kDeadlineExceeded ||
                e.code() == StatusCode::kUnavailable)
        << "unexpected terminal code: " << e.what();
    failed[static_cast<std::size_t>(rank)].push_back(k);
  };
  cached_ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; ++i) {
      const auto k = key_of(self.rank(), i);
      try {
        (void)cached_map.insert(k, val_of(k));
      } catch (const HclError& e) {
        record_failure(self.rank(), k, e);
      }
      // Read back through the cache immediately — under faults the write
      // may have taken retries; the value served must never be older than
      // the attempted write (the writer's entry was invalidated up front).
      try {
        std::uint64_t v = 0;
        if (cached_map.find(k, &v)) EXPECT_EQ(v, val_of(k));
      } catch (const HclError&) {
        // A failed read is acceptable under faults; staleness is not.
      }
    }
  });
  // Read-only phase, faults still on: with no writers in flight the epochs
  // are quiescent, so the second sweep is served from lease-valid entries —
  // genuine hits while transport faults are still being drawn for misses.
  cached_ctx.run([&](sim::Actor& self) {
    for (int rep = 0; rep < 2; ++rep) {
      for (int i = 0; i < kPerRank; ++i) {
        const auto k = key_of(self.rank(), i);
        try {
          std::uint64_t v = 0;
          if (cached_map.find(k, &v)) EXPECT_EQ(v, val_of(k));
        } catch (const HclError&) {
        }
      }
    }
  });

  cached_ctx.run([&](sim::Actor& self) {
    for (int i = 0; i < kPerRank; i += 2) {
      const auto k = key_of(self.rank(), i);
      bool wrote = true;
      try {
        (void)cached_map.upsert(k, val_of(k) + 1);
      } catch (const HclError& e) {
        wrote = false;  // old value may legitimately survive until repair
        record_failure(self.rank(), k, e);
      }
      if (!wrote) continue;
      try {
        std::uint64_t v = 0;
        if (cached_map.find(k, &v)) EXPECT_EQ(v, val_of(k) + 1);
      } catch (const HclError&) {
      }
    }
  });

  // Repair exactly the reported failures, fault-free.
  cached_ctx.set_fault_plan(nullptr);
  cached_ctx.run([&](sim::Actor& self) {
    for (const auto k : failed[static_cast<std::size_t>(self.rank())]) {
      const auto i = static_cast<int>(k % kPerRank);
      (void)cached_map.upsert(k, i % 2 == 0 ? val_of(k) + 1 : val_of(k));
    }
  });

  // Convergence: cached+faulty+repaired state == uncached fault-free state.
  EXPECT_EQ(cached_map.size(), plain_map.size());
  std::vector<std::optional<std::uint64_t>> plain_state, cached_state;
  plain_ctx.run_one(0, [&](sim::Actor&) {
    for (std::size_t r = 0; r < ranks; ++r) {
      for (int i = 0; i < kPerRank; ++i) {
        std::uint64_t v = 0;
        plain_state.push_back(plain_map.find(key_of(static_cast<int>(r), i), &v)
                                  ? std::optional<std::uint64_t>(v)
                                  : std::nullopt);
      }
    }
  });
  cached_ctx.run_one(0, [&](sim::Actor&) {
    for (std::size_t r = 0; r < ranks; ++r) {
      for (int i = 0; i < kPerRank; ++i) {
        std::uint64_t v = 0;
        cached_state.push_back(cached_map.find(key_of(static_cast<int>(r), i), &v)
                                   ? std::optional<std::uint64_t>(v)
                                   : std::nullopt);
      }
    }
  });
  EXPECT_EQ(plain_state, cached_state);
  EXPECT_GT(plan->counters().total(), 0) << "fault plan never fired";
  EXPECT_GT(cached_map.cache_stats().hits, 0) << "cache never exercised";
}

INSTANTIATE_TEST_SUITE_P(Sweep, CacheFaultConvergence,
                         ::testing::Values(701u, 802u, 903u));

// ---------------------------------------------------------------------------
// Cost-model monotonicity: with the Ares model, simulated time must grow
// with payload size for every remote container op.
// ---------------------------------------------------------------------------

class PayloadMonotonicity : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PayloadMonotonicity, BiggerPayloadsCostMore) {
  const std::int64_t bytes = GetParam();
  Context ctx({.num_nodes = 2, .procs_per_node = 1});
  unordered_map<std::uint64_t, std::string> map(ctx);
  std::uint64_t remote_key = 0;
  while (map.partition_owner(map.partition_of(remote_key)) == 0) ++remote_key;

  sim::Nanos small_cost = 0, big_cost = 0;
  ctx.run_one(0, [&](sim::Actor& self) {
    const sim::Nanos t0 = self.now();
    map.insert(remote_key, std::string(64, 'a'));
    small_cost = self.now() - t0;
    map.erase(remote_key);
    const sim::Nanos t1 = self.now();
    map.insert(remote_key, std::string(static_cast<std::size_t>(bytes), 'b'));
    big_cost = self.now() - t1;
  });
  EXPECT_GT(big_cost, small_cost);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PayloadMonotonicity,
                         ::testing::Values(64 << 10, 512 << 10, 2 << 20));

// ---------------------------------------------------------------------------
// Transaction serializability oracle (DESIGN.md §5h): concurrent multi-key
// transactions from every rank — under per-constituent kBatchOp faults,
// cache modes, batching policies, a mid-run node kill, and a mid-run shard
// split — must produce a final state byte-for-byte identical to a
// single-threaded replay of the COMMITTED transactions in CSN order. The
// CSN is drawn while every participant's intent slot is held, so CSN order
// is a legal serial order; any divergence is a serializability violation.
// Aborted transactions (conflicts, down nodes, exhausted retry budgets) are
// excluded from the replay and must leave zero observable state.
// ---------------------------------------------------------------------------

struct TxnSweepCase {
  int nodes;
  int procs;
  int partitions;
  int replication;
  cache::CacheMode mode;  // read-cache mode for the transactional run
  bool batched;           // inject per-constituent kBatchOp faults
  bool failover;          // kill node 1 mid-run (needs replication >= 1)
  bool split;             // split shard 0 mid-run (enables rebalancing)
  std::uint64_t seed;
};

class TxnSerializabilitySweep : public ::testing::TestWithParam<TxnSweepCase> {};

namespace txn_sweep {

constexpr std::uint64_t kKeys = 48;
constexpr int kTxnsPerRank = 24;

/// Abstract single-transaction body: the SAME deterministic function runs
/// against the distributed map (staged through a Txn) and against the local
/// model (during the CSN-order replay). `read` returns 0 for absent keys.
struct TxnOps {
  std::function<std::uint64_t(std::uint64_t)> read;
  std::function<void(std::uint64_t, std::uint64_t)> write;
  std::function<void(std::uint64_t)> erase;
};

/// Body (sweep_seed, rank, idx, round) — reads two keys, writes one derived
/// value, and either erases or rewrites the second key. Pure given the map
/// state it reads, which is what makes the serial-order replay an oracle.
inline void run_body(std::uint64_t sweep_seed, int rank, int idx, int round,
                     const TxnOps& ops) {
  Rng g(mix64(sweep_seed ^ (static_cast<std::uint64_t>(rank) * 1000003 +
                            static_cast<std::uint64_t>(idx) * 7919 +
                            static_cast<std::uint64_t>(round) * 104729)));
  const std::uint64_t k1 = g.next_below(kKeys);
  const std::uint64_t k2 = g.next_below(kKeys);
  const bool drop_k2 = (g.next() & 1) != 0;
  const std::uint64_t v1 = ops.read(k1);
  const std::uint64_t v2 = ops.read(k2);
  ops.write(k1, v1 + v2 + static_cast<std::uint64_t>(idx) + 1);
  if (drop_k2) {
    ops.erase(k2);
  } else {
    ops.write(k2, v2 * 3 + static_cast<std::uint64_t>(rank) + 1);
  }
}

struct Commit {
  std::uint64_t csn;
  int rank;
  int idx;
  int round;
};

}  // namespace txn_sweep

TEST_P(TxnSerializabilitySweep, ConcurrentTxnsMatchCsnOrderReplay) {
  using txn_sweep::Commit;
  using txn_sweep::kKeys;
  using txn_sweep::kTxnsPerRank;
  using txn_sweep::TxnOps;
  const auto& param = GetParam();
  const std::uint64_t seed = env_seed(param.seed);
  SCOPED_TRACE(::testing::Message()
               << "reproduce with HCL_SEED=" << seed << " ctest -R TxnSeri");
  constexpr sim::NodeId kVictim = 1;

  auto plan = std::make_shared<fabric::FaultPlan>(seed);
  if (param.batched) {
    // Transient per-constituent faults inside the prepare/commit bundles:
    // drops and handler throws surface as kAborted and must be absorbed by
    // the coordinator's abort-then-retry loop, never by lost intents.
    fabric::FaultProbabilities op_p;
    op_p.drop = 0.02;
    op_p.throw_handler = 0.02;
    op_p.unavailable = 0.02;
    plan->set(fabric::OpClass::kBatchOp, op_p);
  }

  Context::Config cfg;
  cfg.num_nodes = param.nodes;
  cfg.procs_per_node = param.procs;
  cfg.model = sim::CostModel::zero();
  cfg.fault_plan = plan;
  Context ctx(cfg);

  core::ContainerOptions opts;
  opts.num_partitions = param.partitions;
  opts.replication = param.replication;
  opts.cache = {.capacity = 256,
                .ttl_ns = 50 * sim::kMicrosecond,
                .mode = param.mode};
  if (param.batched) {
    opts.batch = {.max_ops = 8, .max_bytes = 1 << 16, .max_delay_ns = 0};
  }
  opts.rebalance.enabled = param.split;
  unordered_map<std::uint64_t, std::uint64_t> m(ctx, opts);
  txn::TxnCoordinator coord(ctx);

  // Phase A: deterministic base state, mirrored into the local model.
  std::map<std::uint64_t, std::uint64_t> model;
  ctx.run_one(0, [&](sim::Actor&) {
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(m.insert(k, k * 7 + 1));
    }
  });
  for (std::uint64_t k = 0; k < kKeys; ++k) model[k] = k * 7 + 1;

  // Phases B/C: every rank runs its transaction stream CONCURRENTLY against
  // the shared keyspace. Commits are logged with their CSN; aborted or
  // unavailable transactions are logged nowhere and must stay invisible.
  std::mutex log_mutex;
  std::vector<Commit> committed;
  auto run_round = [&](int round) {
    ctx.run([&](sim::Actor& self) {
      if (param.failover && round == 1 && self.node() == kVictim) {
        return;  // SPMD ranks on the victim cannot run once it dies
      }
      for (int i = 0; i < kTxnsPerRank; ++i) {
        // Rank 0 fires the mid-run events halfway through round 1, while
        // every other rank's transactions are in flight.
        if (round == 1 && self.rank() == 0 && i == kTxnsPerRank / 2) {
          if (param.split) m.split(0);
          if (param.failover) plan->fail_node(kVictim);
        }
        std::uint64_t csn = 0;
        const Status st = coord.run(
            self,
            [&](txn::Txn& t) {
              TxnOps ops;
              ops.read = [&](std::uint64_t k) {
                std::uint64_t v = 0;
                return m.txn_find(self, t, k, &v) ? v : 0;
              };
              ops.write = [&](std::uint64_t k, std::uint64_t v) {
                m.txn_put(t, k, v);
              };
              ops.erase = [&](std::uint64_t k) { m.txn_erase(t, k); };
              txn_sweep::run_body(seed, self.rank(), i, round, ops);
            },
            &csn);
        if (st.ok()) {
          std::lock_guard<std::mutex> lk(log_mutex);
          committed.push_back(Commit{csn, self.rank(), i, round});
        } else {
          // Only conflict exhaustion or a down participant may fail a
          // transaction; anything else is a protocol bug.
          EXPECT_TRUE(st.code() == StatusCode::kAborted ||
                      st.code() == StatusCode::kUnavailable)
              << st.message();
        }
      }
    });
  };
  run_round(0);
  run_round(1);

  // Recovery: rejoin the victim and heal every promoted partition before
  // the oracle reads. Transactions committed through the commit's failover
  // twin during the down window must survive the repair.
  if (param.failover) {
    plan->rejoin_node(kVictim);
    ctx.run_one(0, [&](sim::Actor& self) { m.heal(self); });
    for (int p = 0; p < m.num_partitions(); ++p) {
      EXPECT_FALSE(m.partition_promoted(p)) << "partition " << p;
    }
  }

  // Deliberate abort, post-run: a conflicting rival forces kAborted with a
  // zero retry budget; the staged sentinel write must never become visible.
  const std::uint64_t kSentinel = kKeys + 1000;
  txn::TxnPolicy no_retry;
  no_retry.max_retries = 0;
  txn::TxnCoordinator doomed(ctx, no_retry);
  ctx.run_one(0, [&](sim::Actor& self) {
    const Status st = doomed.run(self, [&](txn::Txn& t) {
      std::uint64_t v = 0;
      (void)m.txn_find(self, t, 0, &v);  // v stays 0 when key 0 was erased
      (void)m.upsert(0, v + 1);  // rival moves the epoch after our read
      m.txn_put(t, kSentinel, 0xDEAD);
    });
    EXPECT_EQ(st.code(), StatusCode::kAborted);
  });

  // The oracle: replay ONLY the committed transactions, single-threaded, in
  // CSN order, against the local model.
  std::sort(committed.begin(), committed.end(),
            [](const Commit& a, const Commit& b) { return a.csn < b.csn; });
  for (std::size_t i = 1; i < committed.size(); ++i) {
    ASSERT_NE(committed[i].csn, committed[i - 1].csn) << "duplicate CSN";
  }
  for (const Commit& c : committed) {
    TxnOps ops;
    ops.read = [&](std::uint64_t k) {
      auto it = model.find(k);
      return it == model.end() ? 0 : it->second;
    };
    ops.write = [&](std::uint64_t k, std::uint64_t v) { model[k] = v; };
    ops.erase = [&](std::uint64_t k) { model.erase(k); };
    txn_sweep::run_body(seed, c.rank, c.idx, c.round, ops);
  }
  {
    // The doomed transaction's rival write ran AFTER every commit above, so
    // it lands on the model after the replay, at whatever value the serial
    // history left behind (0 when some commit erased key 0).
    auto it0 = model.find(0);
    model[0] = (it0 == model.end() ? 0 : it0->second) + 1;
  }

  // Byte-for-byte convergence over the whole keyspace (plus the sentinel,
  // which must have stayed invisible).
  std::vector<std::optional<std::uint64_t>> dist_state;
  ctx.run_one(0, [&](sim::Actor&) {
    for (std::uint64_t k = 0; k <= kKeys; ++k) {
      const std::uint64_t probe = (k == kKeys) ? kSentinel : k;
      std::uint64_t v = 0;
      dist_state.push_back(m.find(probe, &v) ? std::optional<std::uint64_t>(v)
                                             : std::nullopt);
    }
  });
  std::vector<std::optional<std::uint64_t>> model_state;
  for (std::uint64_t k = 0; k <= kKeys; ++k) {
    const std::uint64_t probe = (k == kKeys) ? kSentinel : k;
    auto it = model.find(probe);
    model_state.push_back(it == model.end()
                              ? std::nullopt
                              : std::optional<std::uint64_t>(it->second));
  }
  EXPECT_EQ(dist_state, model_state);
  EXPECT_FALSE(model_state.back().has_value());

  // Counter parity: coordinator aggregates and the per-NIC txn_* counters
  // tell the same story, and every logged commit is a counted commit.
  EXPECT_EQ(static_cast<std::int64_t>(committed.size()), coord.commits());
  std::int64_t nic_commits = 0, nic_aborts = 0, nic_retries = 0;
  for (int n = 0; n < param.nodes; ++n) {
    auto& c = ctx.fabric().nic(n).counters();
    nic_commits += c.txn_commits.load();
    nic_aborts += c.txn_aborts.load();
    nic_retries += c.txn_retries.load();
  }
  EXPECT_EQ(nic_commits, coord.commits() + doomed.commits());
  EXPECT_EQ(nic_aborts, coord.aborts() + doomed.aborts());
  EXPECT_EQ(nic_retries, coord.retries() + doomed.retries());
  EXPECT_GE(doomed.aborts(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TxnSerializabilitySweep,
    ::testing::Values(
        TxnSweepCase{2, 2, 4, 0, cache::CacheMode::kOff, false, false, false,
                     101u},
        TxnSweepCase{3, 1, 3, 1, cache::CacheMode::kInvalidate, true, true,
                     false, 202u},
        TxnSweepCase{3, 2, 6, 1, cache::CacheMode::kUpdate, true, false, true,
                     303u},
        TxnSweepCase{4, 1, 4, 1, cache::CacheMode::kInvalidate, false, true,
                     true, 404u},
        TxnSweepCase{2, 1, 4, 0, cache::CacheMode::kUpdate, true, false, false,
                     505u},
        TxnSweepCase{4, 2, 8, 2, cache::CacheMode::kOff, false, true, false,
                     606u}));

// ---------------------------------------------------------------------------
// The queue's transaction legs under faults (DESIGN.md §5h): every rank runs
// TxnCoordinator::transfer from a replicated queue into a replicated map,
// with no faults, with per-constituent kBatchOp faults inside the prepare and
// commit bundles, or with the queue's host killed mid-run and rejoined. The
// oracle is conservation: every pushed item ends up exactly once, in the map
// (under its value) or left in the queue, and every attempt is one kTxn span
// counted as one commit or one abort.
// ---------------------------------------------------------------------------

struct TransferCase {
  bool batched;   // inject per-constituent kBatchOp faults
  bool failover;  // kill the queue's host mid-run, then rejoin and heal
  std::uint64_t seed;
};

class TxnTransferSweep : public ::testing::TestWithParam<TransferCase> {};

TEST_P(TxnTransferSweep, EveryItemEndsUpExactlyOnce) {
  const auto& param = GetParam();
  const std::uint64_t seed = env_seed(param.seed);
  SCOPED_TRACE(::testing::Message()
               << "reproduce with HCL_SEED=" << seed
               << " ctest -R TxnTransfer");
  constexpr int kNodes = 3;
  constexpr sim::NodeId kHost = 1;  // the queue's host; its mirror is node 2
  constexpr std::uint64_t kItems = 64;
  constexpr int kTransfersPerRank = 8;

  auto plan = std::make_shared<fabric::FaultPlan>(seed);
  if (param.batched) {
    fabric::FaultProbabilities op_p;
    op_p.drop = 0.02;
    op_p.throw_handler = 0.02;
    op_p.unavailable = 0.02;
    plan->set(fabric::OpClass::kBatchOp, op_p);
  }
  Context::Config cfg;
  cfg.num_nodes = kNodes;
  cfg.procs_per_node = 2;
  cfg.model = sim::CostModel::zero();
  cfg.fault_plan = plan;
  cfg.trace.enabled = true;  // exact kTxn span counts
  cfg.trace.path.clear();
  Context ctx(cfg);

  core::ContainerOptions qopts;
  qopts.first_node = kHost;
  qopts.replication = 1;
  queue<std::uint64_t> q(ctx, qopts);
  unordered_map<std::uint64_t, std::uint64_t> m(
      ctx, {.num_partitions = kNodes, .replication = 1});
  txn::TxnCoordinator coord(ctx);
  const auto value_of = [](std::uint64_t item) { return item * 3 + 1; };

  ctx.run_one(0, [&](sim::Actor&) {
    for (std::uint64_t i = 0; i < kItems; ++i) ASSERT_TRUE(q.push(i));
  });
  auto run_round = [&](int round) {
    ctx.run([&](sim::Actor& self) {
      if (param.failover && round == 1 && self.node() == kHost) {
        return;  // SPMD ranks on the host cannot run once it dies
      }
      for (int i = 0; i < kTransfersPerRank; ++i) {
        if (param.failover && round == 1 && self.rank() == 0 &&
            i == kTransfersPerRank / 2) {
          plan->fail_node(kHost);
        }
        const Status st = coord.transfer(self, q, m, [&](std::uint64_t item) {
          return std::pair<std::uint64_t, std::uint64_t>(item, value_of(item));
        });
        // Only conflict exhaustion or a down participant may fail a
        // transfer; anything else is a protocol bug.
        EXPECT_TRUE(st.ok() || st.code() == StatusCode::kAborted ||
                    st.code() == StatusCode::kUnavailable)
            << st.to_string();
      }
    });
  };
  run_round(0);
  run_round(1);
  if (param.failover) {
    plan->rejoin_node(kHost);
    ctx.run_one(0, [&](sim::Actor& self) {
      q.heal(self);
      m.heal(self);
    });
    EXPECT_FALSE(q.promoted());
    EXPECT_FALSE(q.txn_slot_held());
  }

  // Conservation: the map's keys and what is left in the queue partition
  // the pushed items, and every moved item carries its value.
  std::vector<int> seen(kItems, 0);
  m.for_each([&](const std::uint64_t& key, const std::uint64_t& value) {
    ASSERT_LT(key, kItems);
    EXPECT_EQ(value, value_of(key)) << "item " << key;
    ++seen[key];
  });
  ctx.run_one(0, [&](sim::Actor&) {
    std::uint64_t item = 0;
    while (q.pop(&item)) {
      ASSERT_LT(item, kItems);
      ++seen[item];
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[i], 1) << "item " << i;
  }

  std::int64_t txn_spans = 0, nic_commits = 0, nic_aborts = 0;
  for (int n = 0; n < kNodes; ++n) {
    txn_spans += ctx.tracer().span_count(n, obs::SpanKind::kTxn);
    nic_commits += ctx.fabric().nic(n).counters().txn_commits.load();
    nic_aborts += ctx.fabric().nic(n).counters().txn_aborts.load();
  }
  EXPECT_EQ(txn_spans, coord.commits() + coord.aborts());
  EXPECT_EQ(nic_commits, coord.commits());
  EXPECT_EQ(nic_aborts, coord.aborts());
  EXPECT_GT(coord.commits(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TxnTransferSweep,
                         ::testing::Values(TransferCase{false, false, 111u},
                                           TransferCase{true, false, 222u},
                                           TransferCase{false, true, 333u}));

// ---------------------------------------------------------------------------
// Shm-tier equivalence (DESIGN.md §5i): the shared-memory transport is a
// pure routing/cost substitution — a twin running the identical phased
// workload with the tier ON (whole cluster one pod, so every eligible op
// rides a ring) must converge byte-for-byte with a tier-OFF twin, across
// topology shapes, batching policies, cache modes, and a mid-run failover
// window with per-constituent kBatchOp faults. Counter parity: client RPCs
// are counted identically on both tiers (shm_sends only tells the split).
// ---------------------------------------------------------------------------

struct ShmCase {
  int nodes;
  int procs;
  int partitions;
  int replication;
  cache::CacheMode mode;  // forced identically on BOTH twins
  bool batched;
  bool faults;  // mid-run kill/promote/rejoin + kBatchOp faults
  std::uint64_t seed;
};

class ShmEquivalenceSweep : public ::testing::TestWithParam<ShmCase> {};

TEST_P(ShmEquivalenceSweep, ShmOnMatchesShmOffByteForByte) {
  const auto& param = GetParam();
  constexpr sim::NodeId kVictim = 1;
  constexpr int kPerRank = 48;

  auto make_plan = [&] {
    auto plan = std::make_shared<fabric::FaultPlan>(param.seed);
    if (param.faults && param.batched) {
      fabric::FaultProbabilities op_p;
      op_p.drop = 0.03;
      op_p.throw_handler = 0.03;
      op_p.unavailable = 0.03;
      plan->set(fabric::OpClass::kBatchOp, op_p);
    }
    return plan;
  };

  Context::Config off_cfg;
  off_cfg.num_nodes = param.nodes;
  off_cfg.procs_per_node = param.procs;
  off_cfg.model = sim::CostModel::zero();
  off_cfg.shm = shm::ShmPolicy{};  // tier off regardless of the environment
  Context::Config on_cfg = off_cfg;
  on_cfg.shm.enabled = true;
  on_cfg.shm.pod_nodes = param.nodes;  // one pod: maximal ring traffic
  Context off_ctx(off_cfg);
  Context on_ctx(on_cfg);

  core::ContainerOptions opts;
  opts.num_partitions = param.partitions;
  opts.replication = param.replication;
  opts.cache = {.capacity = 256,
                .ttl_ns = 50 * sim::kMicrosecond,
                .mode = param.mode};
  if (param.batched) {
    opts.batch = {.max_ops = 8, .max_bytes = 1 << 16, .max_delay_ns = 0};
  }
  unordered_map<std::uint64_t, std::uint64_t> off_map(off_ctx, opts);
  unordered_map<std::uint64_t, std::uint64_t> on_map(on_ctx, opts);

  auto key_of = [](int rank, int i) {
    return static_cast<std::uint64_t>(rank) * kPerRank +
           static_cast<std::uint64_t>(i);
  };
  auto fresh_of = [](int rank, int i) {
    return 1'000'000 + static_cast<std::uint64_t>(rank) * kPerRank +
           static_cast<std::uint64_t>(i);
  };
  auto val_of = [](std::uint64_t k) { return k * 7 + 2; };
  const auto ranks = static_cast<std::size_t>(on_ctx.topology().num_ranks());

  // Each twin runs the IDENTICAL phased workload; transient per-op failures
  // during a twin's fault window are repaired by that twin before compare.
  auto run_workload = [&](Context& ctx,
                          unordered_map<std::uint64_t, std::uint64_t>& map) {
    // Phase 1, fault-free: every rank inserts its keys. Must all land.
    ctx.run([&](sim::Actor& self) {
      for (int i = 0; i < kPerRank; ++i) {
        const auto k = key_of(self.rank(), i);
        ASSERT_TRUE(map.insert(k, val_of(k)));
      }
    });

    std::shared_ptr<fabric::FaultPlan> plan;
    if (param.faults) {
      plan = make_plan();
      ctx.set_fault_plan(plan);
      plan->fail_node(kVictim);
    }

    // Phase 2: fresh inserts plus erases of a third of the phase-1 keys.
    // Under faults the victim's ranks stay quiet and failed constituents
    // are repaired through the failover path, victim still down.
    std::vector<std::vector<std::uint64_t>> failed_inserts(ranks);
    std::vector<std::vector<std::uint64_t>> failed_erases(ranks);
    ctx.run([&](sim::Actor& self) {
      if (param.faults && self.node() == kVictim) return;
      const auto r = static_cast<std::size_t>(self.rank());
      std::vector<std::uint64_t> ins_keys, ins_vals, del_keys;
      for (int i = 0; i < kPerRank; ++i) {
        ins_keys.push_back(fresh_of(self.rank(), i));
        ins_vals.push_back(val_of(ins_keys.back()));
      }
      for (int i = 0; i < kPerRank; i += 3) {
        del_keys.push_back(key_of(self.rank(), i));
      }
      if (param.batched) {
        std::vector<Status> statuses;
        (void)map.insert_batch(ins_keys, ins_vals, &statuses);
        for (std::size_t i = 0; i < statuses.size(); ++i) {
          if (!statuses[i].ok()) failed_inserts[r].push_back(ins_keys[i]);
        }
        statuses.clear();
        (void)map.erase_batch(del_keys, &statuses);
        for (std::size_t i = 0; i < statuses.size(); ++i) {
          if (!statuses[i].ok()) failed_erases[r].push_back(del_keys[i]);
        }
      } else {
        for (std::size_t i = 0; i < ins_keys.size(); ++i) {
          ASSERT_TRUE(map.insert(ins_keys[i], ins_vals[i]));
        }
        for (const auto k : del_keys) ASSERT_TRUE(map.erase(k));
      }
    });
    if (param.faults) {
      ctx.run([&](sim::Actor& self) {
        if (self.node() == kVictim) return;
        const auto r = static_cast<std::size_t>(self.rank());
        for (const auto k : failed_inserts[r]) (void)map.upsert(k, val_of(k));
        for (const auto k : failed_erases[r]) (void)map.erase(k);
      });
      plan->rejoin_node(kVictim);
      ctx.run_one(0, [&](sim::Actor& self) { map.heal(self); });
      // But the victim's ranks never ran phase 2: replay their slice so
      // both twins executed the same logical op stream end-to-end.
      ctx.run([&](sim::Actor& self) {
        if (self.node() != kVictim) return;
        for (int i = 0; i < kPerRank; ++i) {
          const auto k = fresh_of(self.rank(), i);
          (void)map.upsert(k, val_of(k));
        }
        for (int i = 0; i < kPerRank; i += 3) {
          (void)map.erase(key_of(self.rank(), i));
        }
      });
    }

    // Final read of the whole keyspace from one rank.
    std::vector<std::optional<std::uint64_t>> state;
    ctx.run_one(0, [&](sim::Actor&) {
      for (std::size_t r = 0; r < ranks; ++r) {
        for (int i = 0; i < kPerRank; ++i) {
          std::uint64_t v = 0;
          state.push_back(map.find(key_of(static_cast<int>(r), i), &v)
                              ? std::optional<std::uint64_t>(v)
                              : std::nullopt);
          v = 0;
          state.push_back(map.find(fresh_of(static_cast<int>(r), i), &v)
                              ? std::optional<std::uint64_t>(v)
                              : std::nullopt);
        }
      }
    });
    return state;
  };

  const auto off_state = run_workload(off_ctx, off_map);
  const auto on_state = run_workload(on_ctx, on_map);
  EXPECT_EQ(on_map.size(), off_map.size());
  EXPECT_EQ(on_state, off_state);

  // Tier split: the on-twin really rode rings (multi-node pods put even
  // cross-node traffic on them), the off-twin never did.
  std::int64_t on_shm = 0, off_shm = 0;
  for (int n = 0; n < param.nodes; ++n) {
    on_shm += on_ctx.fabric().nic(n).counters().shm_sends.load();
    off_shm += off_ctx.fabric().nic(n).counters().shm_sends.load();
  }
  EXPECT_GT(on_shm, 0);
  EXPECT_EQ(off_shm, 0);

  // Counter parity on the deterministic slice: with no faults and no cache
  // (retries and hit/miss streams are the only timing-dependent counters),
  // both twins issued the exact same number of client RPCs — the tier moves
  // traffic, it never adds or removes ops.
  if (!param.faults && param.mode == cache::CacheMode::kOff) {
    std::int64_t on_rpcs = 0, off_rpcs = 0;
    for (int n = 0; n < param.nodes; ++n) {
      on_rpcs += on_ctx.fabric().nic(n).counters().rpc_count.load();
      off_rpcs += off_ctx.fabric().nic(n).counters().rpc_count.load();
    }
    EXPECT_EQ(on_rpcs, off_rpcs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShmEquivalenceSweep,
    ::testing::Values(
        ShmCase{2, 2, 4, 1, cache::CacheMode::kOff, false, false, 17u},
        ShmCase{3, 1, 3, 1, cache::CacheMode::kOff, true, false, 28u},
        ShmCase{4, 2, 8, 2, cache::CacheMode::kInvalidate, true, false, 39u},
        ShmCase{3, 2, 6, 1, cache::CacheMode::kUpdate, false, false, 40u},
        ShmCase{2, 2, 4, 2, cache::CacheMode::kOff, false, true, 51u},
        ShmCase{3, 1, 3, 2, cache::CacheMode::kInvalidate, true, true, 62u},
        ShmCase{4, 2, 8, 2, cache::CacheMode::kUpdate, true, true, 73u}));

}  // namespace
}  // namespace hcl
