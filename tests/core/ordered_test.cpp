#include "core/partitioned_map.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/sets.h"
#include "fabric/fault_plan.h"

namespace hcl {
namespace {

using sim::Actor;
using sim::CostModel;

Context::Config zero_config(int nodes, int procs) {
  Context::Config cfg;
  cfg.num_nodes = nodes;
  cfg.procs_per_node = procs;
  cfg.model = CostModel::zero();
  return cfg;
}

TEST(OrderedMap, InsertFindEraseAcrossRanks) {
  Context ctx(zero_config(4, 2));
  map<int, std::string> m(ctx);
  ctx.run([&](Actor& self) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(m.insert(self.rank() * 100 + i, std::to_string(self.rank())));
    }
  });
  ctx.run([&](Actor& self) {
    const int other = (self.rank() + 3) % ctx.topology().num_ranks();
    std::string v;
    ASSERT_TRUE(m.find(other * 100 + 5, &v));
    EXPECT_EQ(v, std::to_string(other));
  });
  ctx.run_one(0, [&](Actor&) {
    EXPECT_TRUE(m.erase(5));
    EXPECT_FALSE(m.contains(5));
  });
}

TEST(OrderedMap, GloballyOrderedIteration) {
  Context ctx(zero_config(4, 1));
  map<int, int> m(ctx);
  ctx.run([&](Actor& self) {
    for (int i = 0; i < 64; ++i) m.insert(self.rank() + i * 4, i);
  });
  int prev = -1;
  std::size_t count = 0;
  m.for_each_ordered([&](const int& k, const int&) {
    EXPECT_GT(k, prev);
    prev = k;
    ++count;
  });
  EXPECT_EQ(count, 4u * 64u);
}

TEST(OrderedMap, CustomComparator) {
  Context ctx(zero_config(2, 1));
  map<int, int, std::greater<int>> m(ctx);
  ctx.run_one(0, [&](Actor&) {
    for (int k : {3, 1, 2}) m.insert(k, k);
  });
  std::vector<int> order;
  m.for_each_ordered([&](const int& k, const int&) { order.push_back(k); });
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(OrderedMap, OrderedCostsMoreThanUnorderedWouldLocally) {
  // The Table I log N term: inserting into a populated ordered partition
  // costs more simulated time than into an empty one.
  Context::Config cfg;
  cfg.num_nodes = 1;
  cfg.procs_per_node = 1;
  Context ctx(cfg);
  map<int, int> m(ctx);
  sim::Nanos first_cost = 0, later_cost = 0;
  ctx.run_one(0, [&](Actor& self) {
    const sim::Nanos t0 = self.now();
    m.insert(0, 0);
    first_cost = self.now() - t0;
    for (int i = 1; i < 5000; ++i) m.insert(i, i);
    const sim::Nanos t1 = self.now();
    m.insert(99'999, 1);
    later_cost = self.now() - t1;
  });
  EXPECT_GT(later_cost, first_cost);
}

TEST(OrderedMap, ResizeCharge) {
  Context ctx(zero_config(2, 1));
  map<int, int> m(ctx);
  ctx.run_one(0, [&](Actor&) {
    for (int i = 0; i < 10; ++i) m.insert(i, i);
    EXPECT_TRUE(m.resize(0, 1024));
    EXPECT_FALSE(m.resize(-1, 1024));
    EXPECT_FALSE(m.resize(99, 1024));
  });
}

TEST(OrderedMap, ReplicationLands) {
  Context ctx(zero_config(4, 1));
  core::ContainerOptions options;
  options.replication = 2;
  map<int, int> m(ctx, options);
  ctx.run([&](Actor& self) { m.insert(self.rank(), self.rank()); });
  std::size_t replicas = 0;
  for (int p = 0; p < m.num_partitions(); ++p) replicas += m.replica_size(p);
  EXPECT_EQ(replicas, 4u * 2u);
}

TEST(UnorderedSet, BasicMembership) {
  Context ctx(zero_config(2, 2));
  unordered_set<std::string> s(ctx);
  ctx.run([&](Actor& self) {
    EXPECT_TRUE(s.insert("rank-" + std::to_string(self.rank())));
    EXPECT_FALSE(s.insert("rank-" + std::to_string(self.rank())));
  });
  ctx.run([&](Actor& self) {
    const int other = (self.rank() + 1) % 4;
    EXPECT_TRUE(s.find("rank-" + std::to_string(other)));
    EXPECT_FALSE(s.find("missing"));
  });
  EXPECT_EQ(s.size(), 4u);
  ctx.run_one(0, [&](Actor&) {
    EXPECT_TRUE(s.erase("rank-0"));
    EXPECT_FALSE(s.contains("rank-0"));
  });
}

TEST(UnorderedSet, ForEachVisitsAllKeys) {
  Context ctx(zero_config(2, 1));
  unordered_set<int> s(ctx);
  ctx.run_one(0, [&](Actor&) {
    for (int i = 0; i < 50; ++i) s.insert(i);
  });
  std::set<int> seen;
  s.for_each([&](const int& k) { seen.insert(k); });
  EXPECT_EQ(seen.size(), 50u);
}

TEST(OrderedSet, OrderedTraversal) {
  Context ctx(zero_config(4, 1));
  set<int> s(ctx);
  ctx.run([&](Actor& self) {
    for (int i = 0; i < 32; ++i) s.insert(self.rank() * 1000 + i);
  });
  int prev = -1;
  std::size_t n = 0;
  s.for_each_ordered([&](const int& k) {
    EXPECT_GT(k, prev);
    prev = k;
    ++n;
  });
  EXPECT_EQ(n, 4u * 32u);
}

TEST(OrderedSet, AsyncInsert) {
  Context ctx(zero_config(2, 1));
  set<int> s(ctx);
  ctx.run_one(0, [&](Actor& self) {
    auto f = s.async_insert(42);
    EXPECT_TRUE(f.get(self));
    EXPECT_TRUE(s.contains(42));
  });
}

// Bulk ops on the ordered map must agree with the scalar ops they coalesce:
// duplicate inserts reject, find_batch distinguishes hits from misses, and
// erase_batch reports per-key presence — mirroring the unordered_map
// batch contract.
TEST(OrderedMap, BatchOpsMatchScalarSemantics) {
  Context ctx(zero_config(4, 1));
  core::ContainerOptions options;
  options.batch.max_ops = 8;
  options.batch.max_delay_ns = 0;
  map<int, std::string> m(ctx, options);

  constexpr int kPerRank = 24;
  ctx.run([&](Actor& self) {
    std::vector<int> keys;
    std::vector<std::string> values;
    for (int i = 0; i < kPerRank; ++i) {
      keys.push_back(self.rank() * 1000 + i);
      values.push_back("v" + std::to_string(self.rank() * 1000 + i));
    }
    const auto ok = m.insert_batch(keys, values);
    for (const bool b : ok) EXPECT_TRUE(b);
    // Re-inserting the same keys must reject every one.
    const auto dup = m.insert_batch(keys, values);
    for (const bool b : dup) EXPECT_FALSE(b);
  });
  EXPECT_EQ(m.size(), static_cast<std::size_t>(4 * kPerRank));

  ctx.run([&](Actor& self) {
    const int other = (self.rank() + 1) % 4;
    std::vector<int> keys;
    for (int i = 0; i < kPerRank; ++i) keys.push_back(other * 1000 + i);
    keys.push_back(other * 1000 + 999);  // miss
    const auto found = m.find_batch(keys);
    ASSERT_EQ(found.size(), keys.size());
    for (int i = 0; i < kPerRank; ++i) {
      ASSERT_TRUE(found[static_cast<std::size_t>(i)].has_value());
      EXPECT_EQ(*found[static_cast<std::size_t>(i)],
                "v" + std::to_string(keys[static_cast<std::size_t>(i)]));
    }
    EXPECT_FALSE(found.back().has_value());
  });

  ctx.run_one(0, [&](Actor&) {
    std::vector<int> evens;
    for (int r = 0; r < 4; ++r) {
      for (int i = 0; i < kPerRank; i += 2) evens.push_back(r * 1000 + i);
    }
    const auto ok = m.erase_batch(evens);
    for (const bool b : ok) EXPECT_TRUE(b);
    const auto again = m.erase_batch(evens);
    for (const bool b : again) EXPECT_FALSE(b);
  });
  EXPECT_EQ(m.size(), static_cast<std::size_t>(4 * kPerRank / 2));

  // Global iteration order survives batched mutation.
  int prev = -1;
  m.for_each_ordered([&](const int& k, const std::string&) {
    EXPECT_GT(k, prev);
    prev = k;
  });
}

// A dropped constituent of a coalesced bundle must surface as a failed
// Status for exactly that op; the rest of the bundle lands. Repairing the
// failed key converges the map to the fault-free state.
TEST(OrderedMap, BatchStatusesCaptureInjectedFaults) {
  Context ctx(zero_config(2, 1));
  core::ContainerOptions options;
  options.batch.max_ops = 8;
  options.batch.max_delay_ns = 0;
  map<int, std::string> m(ctx, options);

  auto plan = std::make_shared<fabric::FaultPlan>(17);
  plan->trigger_at(1, fabric::OpClass::kBatchOp, 2, fabric::FaultKind::kDrop);
  ctx.set_fault_plan(plan);

  constexpr int kKeys = 48;
  std::vector<int> failed;
  ctx.run_one(0, [&](Actor&) {
    std::vector<int> keys;
    std::vector<std::string> values;
    for (int i = 0; i < kKeys; ++i) {
      keys.push_back(i);
      values.push_back("v" + std::to_string(i));
    }
    std::vector<Status> statuses;
    const auto ok = m.insert_batch(keys, values, &statuses);
    ASSERT_EQ(statuses.size(), keys.size());
    for (int i = 0; i < kKeys; ++i) {
      if (!statuses[static_cast<std::size_t>(i)].ok()) {
        failed.push_back(i);
      } else {
        EXPECT_TRUE(ok[static_cast<std::size_t>(i)]);
      }
    }
  });
  ASSERT_EQ(failed.size(), 1u);  // exactly the triggered constituent

  ctx.set_fault_plan(nullptr);
  ctx.run_one(0, [&](Actor&) {
    for (const int k : failed) m.insert(k, "v" + std::to_string(k));
  });
  EXPECT_EQ(m.size(), static_cast<std::size_t>(kKeys));
  ctx.run_one(0, [&](Actor&) {
    for (int i = 0; i < kKeys; ++i) {
      std::string v;
      ASSERT_TRUE(m.find(i, &v));
      EXPECT_EQ(v, "v" + std::to_string(i));
    }
  });
}

TEST(UnorderedSet, BatchRoundTrip) {
  Context ctx(zero_config(2, 2));
  core::ContainerOptions options;
  options.batch.max_ops = 8;
  options.batch.max_delay_ns = 0;
  unordered_set<int> s(ctx, options);

  ctx.run([&](Actor& self) {
    std::vector<int> keys;
    for (int i = 0; i < 16; ++i) keys.push_back(self.rank() * 100 + i);
    const auto ok = s.insert_batch(keys);
    for (const bool b : ok) EXPECT_TRUE(b);
    const auto dup = s.insert_batch(keys);
    for (const bool b : dup) EXPECT_FALSE(b);
  });
  EXPECT_EQ(s.size(), 4u * 16u);

  ctx.run([&](Actor& self) {
    const int other = (self.rank() + 1) % 4;
    std::vector<int> keys;
    for (int i = 0; i < 16; ++i) keys.push_back(other * 100 + i);
    keys.push_back(other * 100 + 99);  // absent
    const auto present = s.find_batch(keys);
    for (std::size_t i = 0; i + 1 < present.size(); ++i) {
      EXPECT_TRUE(present[i]);
    }
    EXPECT_FALSE(present.back());
  });

  ctx.run_one(0, [&](Actor&) {
    std::vector<int> keys;
    for (int r = 0; r < 4; ++r) {
      for (int i = 0; i < 16; ++i) keys.push_back(r * 100 + i);
    }
    const auto ok = s.erase_batch(keys);
    for (const bool b : ok) EXPECT_TRUE(b);
    const auto gone = s.find_batch(keys);
    for (const bool b : gone) EXPECT_FALSE(b);
  });
  EXPECT_EQ(s.size(), 0u);
}

TEST(OrderedSet, BatchRoundTrip) {
  Context ctx(zero_config(2, 1));
  core::ContainerOptions options;
  options.batch.max_ops = 4;
  options.batch.max_delay_ns = 0;
  set<int> s(ctx, options);

  ctx.run_one(0, [&](Actor&) {
    std::vector<int> keys;
    for (int i = 31; i >= 0; --i) keys.push_back(i);  // reverse order
    const auto ok = s.insert_batch(keys);
    for (const bool b : ok) EXPECT_TRUE(b);
    const auto present = s.find_batch(keys);
    for (const bool b : present) EXPECT_TRUE(b);
  });

  // Traversal is ordered regardless of batched-insert order.
  int prev = -1;
  std::size_t n = 0;
  s.for_each_ordered([&](const int& k) {
    EXPECT_GT(k, prev);
    prev = k;
    ++n;
  });
  EXPECT_EQ(n, 32u);

  ctx.run_one(0, [&](Actor&) {
    std::vector<int> evens;
    for (int i = 0; i < 32; i += 2) evens.push_back(i);
    const auto ok = s.erase_batch(evens);
    for (const bool b : ok) EXPECT_TRUE(b);
  });
  EXPECT_EQ(s.size(), 16u);
}

}  // namespace
}  // namespace hcl
