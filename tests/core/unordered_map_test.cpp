#include "core/partitioned_map.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

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

TEST(UnorderedMap, InsertFindAcrossRanks) {
  Context ctx(zero_config(4, 4));
  unordered_map<int, int> map(ctx);
  ctx.run([&](Actor& self) {
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(map.insert(self.rank() * 1000 + i, self.rank()));
    }
  });
  ctx.run([&](Actor& self) {
    const int neighbour = (self.rank() + 1) % ctx.topology().num_ranks();
    for (int i = 0; i < 32; ++i) {
      int v = -1;
      ASSERT_TRUE(map.find(neighbour * 1000 + i, &v));
      EXPECT_EQ(v, neighbour);
    }
  });
  EXPECT_EQ(map.size(), 16u * 32u);
}

TEST(UnorderedMap, DuplicateInsertRejectedGlobally) {
  Context ctx(zero_config(2, 2));
  unordered_map<int, int> map(ctx);
  std::atomic<int> winners{0};
  ctx.run([&](Actor&) {
    if (map.insert(7, 1)) winners.fetch_add(1);
  });
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(map.size(), 1u);
}

TEST(UnorderedMap, EraseUpsertContains) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, std::string> map(ctx);
  ctx.run_one(0, [&](Actor&) {
    EXPECT_TRUE(map.insert(1, "one"));
    EXPECT_TRUE(map.contains(1));
    EXPECT_FALSE(map.upsert(1, "uno"));  // overwrite, not fresh
    std::string v;
    EXPECT_TRUE(map.find(1, &v));
    EXPECT_EQ(v, "uno");
    EXPECT_TRUE(map.erase(1));
    EXPECT_FALSE(map.erase(1));
    EXPECT_FALSE(map.contains(1));
  });
}

TEST(UnorderedMap, VariableLengthValues) {
  Context ctx(zero_config(2, 2));
  unordered_map<int, std::string> map(ctx);
  ctx.run([&](Actor& self) {
    // Variable-length entries (paper: "entries can be of variable-length").
    map.insert(self.rank(), std::string(static_cast<std::size_t>(self.rank() + 1) * 100, 'x'));
  });
  ctx.run([&](Actor& self) {
    std::string v;
    ASSERT_TRUE(map.find(self.rank(), &v));
    EXPECT_EQ(v.size(), static_cast<std::size_t>(self.rank() + 1) * 100);
  });
}

TEST(UnorderedMap, PartitionsSpreadAcrossNodes) {
  Context ctx(zero_config(4, 1));
  unordered_map<int, int> map(ctx);
  EXPECT_EQ(map.num_partitions(), 4);
  for (int p = 0; p < 4; ++p) EXPECT_EQ(map.partition_owner(p), p);
  // Keys spread over all partitions.
  std::vector<int> hits(4, 0);
  for (int k = 0; k < 1000; ++k) ++hits[static_cast<std::size_t>(map.partition_of(k))];
  for (int h : hits) EXPECT_GT(h, 100);
}

TEST(UnorderedMap, CustomPartitionCountAndFirstNode) {
  Context ctx(zero_config(4, 1));
  core::ContainerOptions options;
  options.num_partitions = 2;
  options.first_node = 3;
  unordered_map<int, int> map(ctx, options);
  EXPECT_EQ(map.num_partitions(), 2);
  EXPECT_EQ(map.partition_owner(0), 3);
  EXPECT_EQ(map.partition_owner(1), 0);  // wraps
}

TEST(UnorderedMap, HybridLocalAccessIsCheaper) {
  // With the Ares cost model, an op on a co-located partition must cost far
  // less simulated time than one on a remote partition (the §III.C.5 claim).
  Context::Config cfg;
  cfg.num_nodes = 2;
  cfg.procs_per_node = 1;
  Context ctx(cfg);
  unordered_map<int, int> map(ctx);
  // Find a local key and a remote key for rank 0 (node 0).
  int local_key = -1, remote_key = -1;
  for (int k = 0; k < 1000 && (local_key < 0 || remote_key < 0); ++k) {
    if (map.partition_owner(map.partition_of(k)) == 0) {
      if (local_key < 0) local_key = k;
    } else if (remote_key < 0) {
      remote_key = k;
    }
  }
  ASSERT_GE(local_key, 0);
  ASSERT_GE(remote_key, 0);
  sim::Nanos local_cost = 0, remote_cost = 0;
  ctx.run_one(0, [&](Actor& self) {
    const sim::Nanos t0 = self.now();
    map.insert(local_key, 1);
    local_cost = self.now() - t0;
    const sim::Nanos t1 = self.now();
    map.insert(remote_key, 1);
    remote_cost = self.now() - t1;
  });
  EXPECT_LT(local_cost, remote_cost);
  EXPECT_GT(remote_cost, ctx.model().net_base_latency_ns);
}

TEST(UnorderedMap, OpStatsMatchTableOne) {
  // Table I: one remote insert = 1 F + 1 L + 1 W; one remote find = 1 F +
  // 1 L + 1 R. Hybrid/local ops contribute no F.
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> map(ctx);
  int local_key = -1, remote_key = -1;
  for (int k = 0; k < 1000 && (local_key < 0 || remote_key < 0); ++k) {
    if (map.partition_owner(map.partition_of(k)) == 0) {
      if (local_key < 0) local_key = k;
    } else if (remote_key < 0) {
      remote_key = k;
    }
  }
  ctx.reset_measurement();
  ctx.run_one(0, [&](Actor&) {
    map.insert(remote_key, 1);
  });
  auto s = ctx.op_stats().snapshot();
  EXPECT_EQ(s.remote_invocations, 1);
  EXPECT_EQ(s.local_ops, 1);
  EXPECT_EQ(s.local_writes, 1);
  EXPECT_EQ(s.local_reads, 0);

  ctx.reset_measurement();
  ctx.run_one(0, [&](Actor&) {
    int v;
    map.find(remote_key, &v);
  });
  s = ctx.op_stats().snapshot();
  EXPECT_EQ(s.remote_invocations, 1);
  EXPECT_EQ(s.local_reads, 1);
  EXPECT_EQ(s.local_writes, 0);

  ctx.reset_measurement();
  ctx.run_one(0, [&](Actor&) {
    map.insert(local_key, 1);
  });
  s = ctx.op_stats().snapshot();
  EXPECT_EQ(s.remote_invocations, 0);  // hybrid path: no F
  EXPECT_EQ(s.local_writes, 1);
}

TEST(UnorderedMap, RegisteredMutatorRmwInOneInvocation) {
  Context ctx(zero_config(2, 2));
  unordered_map<std::string, long> map(ctx);
  const auto add = map.register_mutator<long>(
      [](long& value, const long& delta) { value += delta; });
  ctx.run([&](Actor&) {
    for (int i = 0; i < 100; ++i) {
      map.apply(std::string("counter"), add, 1L, 0L);
    }
  });
  long total = 0;
  ASSERT_TRUE([&] {
    bool found = false;
    ctx.run_one(0, [&](Actor&) { found = map.find("counter", &total); });
    return found;
  }());
  EXPECT_EQ(total, 4 * 100);
}

TEST(UnorderedMap, ExplicitResizeKeepsContents) {
  Context ctx(zero_config(2, 1));
  unordered_map<int, int> map(ctx);
  ctx.run_one(0, [&](Actor&) {
    for (int i = 0; i < 100; ++i) map.insert(i, i);
    for (int p = 0; p < map.num_partitions(); ++p) {
      EXPECT_TRUE(map.resize(p, 4096));
    }
    for (int i = 0; i < 100; ++i) {
      int v;
      ASSERT_TRUE(map.find(i, &v));
      EXPECT_EQ(v, i);
    }
  });
}

TEST(UnorderedMap, ReplicationCopiesUpdates) {
  Context ctx(zero_config(4, 1));
  core::ContainerOptions options;
  options.replication = 1;
  unordered_map<int, int> map(ctx, options);
  ctx.run([&](Actor& self) {
    for (int i = 0; i < 16; ++i) map.insert(self.rank() * 100 + i, i);
  });
  // run() drains NICs, so asynchronous replication has landed.
  std::size_t replicas = 0;
  for (int p = 0; p < map.num_partitions(); ++p) replicas += map.replica_size(p);
  EXPECT_EQ(replicas, 4u * 16u);
}

TEST(UnorderedMap, PersistenceRecoversAfterRestart) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hcl_umap_persist").string();
  for (int p = 0; p < 8; ++p) std::filesystem::remove(path + ".p" + std::to_string(p));
  {
    Context ctx(zero_config(2, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    unordered_map<int, std::string> map(ctx, options);
    ctx.run_one(0, [&](Actor&) {
      for (int i = 0; i < 50; ++i) map.insert(i, "v" + std::to_string(i));
      map.erase(13);
      map.upsert(7, "updated");
    });
  }  // container + context destroyed ("crash")
  {
    Context ctx(zero_config(2, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    unordered_map<int, std::string> map(ctx, options);
    EXPECT_EQ(map.size(), 49u);
    ctx.run_one(0, [&](Actor&) {
      std::string v;
      EXPECT_FALSE(map.find(13, &v));
      ASSERT_TRUE(map.find(7, &v));
      EXPECT_EQ(v, "updated");
      ASSERT_TRUE(map.find(42, &v));
      EXPECT_EQ(v, "v42");
    });
  }
  for (int p = 0; p < 8; ++p) std::filesystem::remove(path + ".p" + std::to_string(p));
}

// Coalesced bulk ops journal one per-op record each (not one record per
// bundle), so recovery is independent of how ops were batched on the wire —
// including bundles where an injected fault dropped a constituent: the
// dropped op never executed, so it must be absent after replay.
TEST(UnorderedMap, PersistenceRecoversAfterBatchedInserts) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hcl_umap_batch_persist").string();
  for (int p = 0; p < 8; ++p) std::filesystem::remove(path + ".p" + std::to_string(p));
  constexpr int kKeys = 60;
  std::vector<int> dropped, erased;
  {
    Context ctx(zero_config(2, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    options.batch.max_ops = 8;
    options.batch.max_delay_ns = 0;
    unordered_map<int, std::string> map(ctx, options);

    // Drop the 3rd constituent of the first bundle delivered to node 1.
    auto plan = std::make_shared<fabric::FaultPlan>(11);
    plan->trigger_at(1, fabric::OpClass::kBatchOp, 2, fabric::FaultKind::kDrop);
    ctx.set_fault_plan(plan);

    ctx.run_one(0, [&](Actor&) {
      std::vector<int> keys;
      std::vector<std::string> values;
      for (int i = 0; i < kKeys; ++i) {
        keys.push_back(i);
        values.push_back("v" + std::to_string(i));
      }
      std::vector<Status> statuses;
      const auto ok = map.insert_batch(keys, values, &statuses);
      for (int i = 0; i < kKeys; ++i) {
        if (!statuses[static_cast<std::size_t>(i)].ok()) {
          dropped.push_back(i);
        } else {
          EXPECT_TRUE(ok[static_cast<std::size_t>(i)]);
        }
      }
    });
    ASSERT_EQ(dropped.size(), 1u);  // exactly the triggered constituent

    ctx.set_fault_plan(nullptr);
    ctx.run_one(0, [&](Actor&) {
      std::vector<int> evens;
      for (int i = 0; i < kKeys; i += 6) evens.push_back(i);
      const auto ok = map.erase_batch(evens);
      for (std::size_t i = 0; i < evens.size(); ++i) {
        if (ok[i]) erased.push_back(evens[i]);
      }
    });
  }  // "crash"
  {
    Context ctx(zero_config(2, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    unordered_map<int, std::string> map(ctx, options);
    std::vector<bool> gone(kKeys, false);
    for (const int k : dropped) gone[static_cast<std::size_t>(k)] = true;
    for (const int k : erased) gone[static_cast<std::size_t>(k)] = true;
    std::size_t expected = 0;
    for (int i = 0; i < kKeys; ++i) {
      if (!gone[static_cast<std::size_t>(i)]) ++expected;
    }
    EXPECT_EQ(map.size(), expected);
    ctx.run_one(0, [&](Actor&) {
      for (int i = 0; i < kKeys; ++i) {
        std::string v;
        if (gone[static_cast<std::size_t>(i)]) {
          EXPECT_FALSE(map.find(i, &v)) << "key " << i;
        } else {
          ASSERT_TRUE(map.find(i, &v)) << "key " << i;
          EXPECT_EQ(v, "v" + std::to_string(i));
        }
      }
    });
  }
  for (int p = 0; p < 8; ++p) std::filesystem::remove(path + ".p" + std::to_string(p));
}

TEST(UnorderedMap, ManyConcurrentRanksStress) {
  Context ctx(zero_config(4, 8));
  unordered_map<std::uint64_t, std::uint64_t> map(ctx);
  constexpr int kPerRank = 500;
  ctx.run([&](Actor& self) {
    for (int i = 0; i < kPerRank; ++i) {
      const std::uint64_t k = static_cast<std::uint64_t>(self.rank()) * kPerRank + i;
      ASSERT_TRUE(map.insert(k, k * 2));
    }
    for (int i = 0; i < kPerRank; i += 7) {
      const std::uint64_t k = static_cast<std::uint64_t>(self.rank()) * kPerRank + i;
      std::uint64_t v = 0;
      ASSERT_TRUE(map.find(k, &v));
      EXPECT_EQ(v, k * 2);
    }
  });
  EXPECT_EQ(map.size(), 32u * kPerRank);
}

}  // namespace
}  // namespace hcl
