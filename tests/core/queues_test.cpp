#include "core/hosted_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
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

TEST(Queue, PushPopAcrossNodes) {
  Context ctx(zero_config(4, 1));
  queue<int> q(ctx);  // hosted on node 0
  EXPECT_EQ(q.host_node(), 0);
  ctx.run([&](Actor& self) { q.push(self.rank()); });
  EXPECT_EQ(q.size(), 4u);
  std::atomic<int> popped{0};
  ctx.run([&](Actor&) {
    int v;
    if (q.pop(&v)) popped.fetch_add(1);
  });
  EXPECT_EQ(popped.load(), 4);
  EXPECT_TRUE(q.empty());
}

TEST(Queue, PopOnEmptyFails) {
  Context ctx(zero_config(2, 1));
  queue<int> q(ctx);
  ctx.run([&](Actor&) {
    int v;
    EXPECT_FALSE(q.pop(&v));  // both local (rank 0) and remote (rank 1)
  });
}

TEST(Queue, MwmrConcurrentProducersConsumers) {
  Context ctx(zero_config(4, 4));
  queue<long> q(ctx);
  constexpr int kPerRank = 200;
  std::atomic<long> sum_pushed{0}, sum_popped{0};
  std::atomic<int> n_popped{0};
  ctx.run([&](Actor& self) {
    if (self.rank() % 2 == 0) {
      for (int i = 0; i < kPerRank; ++i) {
        const long v = self.rank() * kPerRank + i;
        q.push(v);
        sum_pushed.fetch_add(v);
      }
    } else {
      long v;
      for (int i = 0; i < kPerRank * 2; ++i) {
        if (q.pop(&v)) {
          sum_popped.fetch_add(v);
          n_popped.fetch_add(1);
        }
      }
    }
  });
  // Drain what consumers missed.
  ctx.run_one(0, [&](Actor&) {
    long v;
    while (q.pop(&v)) {
      sum_popped.fetch_add(v);
      n_popped.fetch_add(1);
    }
  });
  EXPECT_EQ(sum_pushed.load(), sum_popped.load());
  EXPECT_EQ(n_popped.load(), 8 * kPerRank);
}

TEST(Queue, BulkPushPop) {
  Context ctx(zero_config(2, 1));
  queue<int> q(ctx);
  ctx.run_one(1, [&](Actor&) {  // rank 1 = node 1, remote from host node 0
    EXPECT_TRUE(q.push(std::vector<int>{1, 2, 3, 4, 5}));
    std::vector<int> got;
    EXPECT_EQ(q.pop(&got, 3), 3u);
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.pop(&got, 10), 2u);
    EXPECT_EQ(got.size(), 5u);
  });
}

TEST(Queue, FifoOrderFromSingleProducer) {
  Context ctx(zero_config(2, 1));
  queue<int> q(ctx);
  ctx.run_one(1, [&](Actor&) {
    for (int i = 0; i < 100; ++i) q.push(i);
    int v;
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(q.pop(&v));
      EXPECT_EQ(v, i);
    }
  });
}

TEST(Queue, VariableLengthElements) {
  Context ctx(zero_config(2, 1));
  queue<std::string> q(ctx);
  ctx.run_one(1, [&](Actor&) {
    q.push(std::string(10, 'a'));
    q.push(std::string(10'000, 'b'));
    std::string v;
    ASSERT_TRUE(q.pop(&v));
    EXPECT_EQ(v.size(), 10u);
    ASSERT_TRUE(q.pop(&v));
    EXPECT_EQ(v.size(), 10'000u);
  });
}

TEST(Queue, HostNodePlacementOption) {
  Context ctx(zero_config(4, 1));
  core::ContainerOptions options;
  options.first_node = 2;
  queue<int> q(ctx, options);
  EXPECT_EQ(q.host_node(), 2);
}

TEST(Queue, PersistenceRecoversPendingElements) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hcl_queue_persist").string();
  std::filesystem::remove(path + ".q0");
  {
    Context ctx(zero_config(1, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    queue<int> q(ctx, options);
    ctx.run_one(0, [&](Actor&) {
      for (int i = 0; i < 10; ++i) q.push(i);
      int v;
      q.pop(&v);
      q.pop(&v);  // 0 and 1 consumed
    });
  }
  {
    Context ctx(zero_config(1, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    queue<int> q(ctx, options);
    EXPECT_EQ(q.size(), 8u);
    ctx.run_one(0, [&](Actor&) {
      int v;
      ASSERT_TRUE(q.pop(&v));
      EXPECT_EQ(v, 2);  // FIFO position preserved across restart
    });
  }
  std::filesystem::remove(path + ".q0");
}

// push_batch journals one kPush record per element (not one per bundle), so
// replay rebuilds the queue independently of how pushes were coalesced — and
// a constituent dropped mid-bundle by the fault plan never executed, so it
// is absent from the recovered FIFO while its siblings keep their order.
TEST(Queue, PersistenceRecoversBatchedPushes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hcl_queue_batch_persist").string();
  std::filesystem::remove(path + ".q0");
  constexpr int kTotal = 12;
  std::vector<int> surviving;
  {
    Context ctx(zero_config(2, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    options.first_node = 1;  // rank 0 pushes remotely, through the coalescer
    options.batch.max_ops = 4;
    options.batch.max_delay_ns = 0;
    queue<int> q(ctx, options);

    auto plan = std::make_shared<fabric::FaultPlan>(13);
    plan->trigger_at(1, fabric::OpClass::kBatchOp, 3, fabric::FaultKind::kDrop);
    ctx.set_fault_plan(plan);

    ctx.run_one(0, [&](Actor&) {
      std::vector<int> values;
      for (int i = 0; i < kTotal; ++i) values.push_back(100 + i);
      std::vector<Status> statuses;
      const auto ok = q.push_batch(values, &statuses);
      for (int i = 0; i < kTotal; ++i) {
        if (statuses[static_cast<std::size_t>(i)].ok()) {
          EXPECT_TRUE(ok[static_cast<std::size_t>(i)]);
          surviving.push_back(values[static_cast<std::size_t>(i)]);
        }
      }
    });
    ASSERT_EQ(surviving.size(), kTotal - 1u);  // exactly one dropped

    ctx.set_fault_plan(nullptr);
    ctx.run_one(0, [&](Actor&) {
      int v;
      ASSERT_TRUE(q.pop(&v));
      EXPECT_EQ(v, surviving[0]);
      ASSERT_TRUE(q.pop(&v));
      EXPECT_EQ(v, surviving[1]);
    });
  }  // "crash"
  {
    Context ctx(zero_config(2, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    options.first_node = 1;
    queue<int> q(ctx, options);
    EXPECT_EQ(q.size(), surviving.size() - 2);
    ctx.run_one(0, [&](Actor&) {
      int v;
      for (std::size_t i = 2; i < surviving.size(); ++i) {
        ASSERT_TRUE(q.pop(&v));
        EXPECT_EQ(v, surviving[i]);  // FIFO preserved across restart
      }
      EXPECT_FALSE(q.pop(&v));
    });
  }
  std::filesystem::remove(path + ".q0");
}

TEST(PriorityQueue, GlobalMinOrder) {
  Context ctx(zero_config(4, 1));
  priority_queue<int> pq(ctx);
  ctx.run([&](Actor& self) {
    for (int i = 0; i < 25; ++i) pq.push(self.rank() * 25 + i);
  });
  EXPECT_EQ(pq.size(), 100u);
  ctx.run_one(0, [&](Actor&) {
    int prev = -1, v;
    int n = 0;
    while (pq.pop(&v)) {
      EXPECT_GE(v, prev);
      prev = v;
      ++n;
    }
    EXPECT_EQ(n, 100);
  });
}

TEST(PriorityQueue, CustomComparator) {
  Context ctx(zero_config(2, 1));
  priority_queue<int, std::greater<int>> pq(ctx);
  ctx.run_one(1, [&](Actor&) {
    for (int v : {3, 9, 1}) pq.push(v);
    int out;
    ASSERT_TRUE(pq.pop(&out));
    EXPECT_EQ(out, 9);
  });
}

TEST(PriorityQueue, BulkOps) {
  Context ctx(zero_config(2, 1));
  priority_queue<int> pq(ctx);
  ctx.run_one(1, [&](Actor&) {
    EXPECT_TRUE(pq.push(std::vector<int>{9, 1, 5, 3}));
    std::vector<int> got;
    EXPECT_EQ(pq.pop(&got, 3), 3u);
    EXPECT_EQ(got, (std::vector<int>{1, 3, 5}));
  });
}

TEST(PriorityQueue, PushCostGrowsWithDepth) {
  Context::Config cfg;
  cfg.num_nodes = 1;
  cfg.procs_per_node = 1;
  Context ctx(cfg);
  priority_queue<int> pq(ctx);
  sim::Nanos early = 0, late = 0;
  ctx.run_one(0, [&](Actor& self) {
    const sim::Nanos t0 = self.now();
    pq.push(0);
    early = self.now() - t0;
    for (int i = 0; i < 20'000; ++i) pq.push(i);
    const sim::Nanos t1 = self.now();
    pq.push(7);
    late = self.now() - t1;
  });
  EXPECT_GT(late, early);  // the O(log n) Table I term
}

TEST(PriorityQueue, ConcurrentMixedWorkload) {
  Context ctx(zero_config(2, 4));
  priority_queue<int> pq(ctx);
  std::atomic<long> pushed{0}, popped{0};
  ctx.run([&](Actor& self) {
    int v;
    for (int i = 0; i < 200; ++i) {
      if ((i + self.rank()) % 2 == 0) {
        pq.push(i);
        pushed.fetch_add(1);
      } else if (pq.pop(&v)) {
        popped.fetch_add(1);
      }
    }
  });
  long drained = 0;
  ctx.run_one(0, [&](Actor&) {
    int v;
    while (pq.pop(&v)) ++drained;
  });
  EXPECT_EQ(pushed.load(), popped.load() + drained);
}

// ---------------------------------------------------------------------------
// Hybrid async fast path: co-located async ops must stay in shared memory
// (§III.C.5), exactly like their synchronous siblings. They used to cross
// the RoR pipeline and count as remote invocations.
// ---------------------------------------------------------------------------

TEST(Queue, CoLocatedAsyncOpsStayLocal) {
  Context ctx(zero_config(2, 1));
  queue<int> q(ctx);  // hosted on node 0, same node as rank 0
  ctx.run_one(0, [&](Actor& self) {
    const auto f = ctx.op_stats().remote_invocations.load();
    const auto rpcs = ctx.fabric().nic(0).counters().rpc_count.load();
    const auto writes = ctx.op_stats().local_writes.load();
    auto push = q.async_push(42);
    EXPECT_TRUE(push.get(self));
    auto pop = q.async_pop();
    auto v = pop.get(self);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
    EXPECT_EQ(ctx.op_stats().remote_invocations.load(), f);  // no F charged
    EXPECT_EQ(ctx.fabric().nic(0).counters().rpc_count.load(), rpcs);
    EXPECT_GT(ctx.op_stats().local_writes.load(), writes);
  });
  // The remote rank still pays the wire: same ops from node 1 are RPCs.
  ctx.run_one(1, [&](Actor& self) {
    const auto f = ctx.op_stats().remote_invocations.load();
    auto push = q.async_push(7);
    EXPECT_TRUE(push.get(self));
    auto pop = q.async_pop();
    EXPECT_EQ(pop.get(self).value(), 7);
    EXPECT_EQ(ctx.op_stats().remote_invocations.load(), f + 2);
  });
}

TEST(PriorityQueue, CoLocatedAsyncOpsStayLocal) {
  Context ctx(zero_config(2, 1));
  priority_queue<int> pq(ctx);  // hosted on node 0
  ctx.run_one(0, [&](Actor& self) {
    const auto f = ctx.op_stats().remote_invocations.load();
    const auto rpcs = ctx.fabric().nic(0).counters().rpc_count.load();
    EXPECT_TRUE(pq.async_push(30).get(self));
    EXPECT_TRUE(pq.async_push(10).get(self));
    EXPECT_TRUE(pq.async_push(20).get(self));
    auto v = pq.async_pop().get(self);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 10);  // min-order preserved through the local path
    EXPECT_EQ(ctx.op_stats().remote_invocations.load(), f);
    EXPECT_EQ(ctx.fabric().nic(0).counters().rpc_count.load(), rpcs);
  });
  ctx.run_one(1, [&](Actor& self) {
    const auto f = ctx.op_stats().remote_invocations.load();
    EXPECT_TRUE(pq.async_push(5).get(self));
    EXPECT_EQ(pq.async_pop().get(self).value(), 5);
    EXPECT_EQ(ctx.op_stats().remote_invocations.load(), f + 2);
  });
}

// ---------------------------------------------------------------------------
// Persistence under interleaved batched pushes and pops: replay converges to
// the survivors in order, even when the fault plan kills a mid-bundle op.
// ---------------------------------------------------------------------------

TEST(Queue, PersistenceRecoversInterleavedBatchedOps) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hcl_queue_interleave_persist")
          .string();
  std::filesystem::remove(path + ".q0");
  std::vector<int> expect;  // model of the host's surviving FIFO
  {
    Context ctx(zero_config(2, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    options.first_node = 1;  // rank 0 drives everything through the wire
    options.batch.max_ops = 4;
    options.batch.max_delay_ns = 0;
    queue<int> q(ctx, options);

    auto plan = std::make_shared<fabric::FaultPlan>(17);
    plan->trigger_at(1, fabric::OpClass::kBatchOp, 5, fabric::FaultKind::kDrop);
    ctx.set_fault_plan(plan);

    ctx.run_one(0, [&](Actor&) {
      std::vector<Status> statuses;
      const std::vector<int> first{0, 1, 2, 3, 4, 5};  // op #5 is dropped
      const auto ok1 = q.push_batch(first, &statuses);
      for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(ok1[i], statuses[i].ok());
        if (statuses[i].ok()) expect.push_back(first[i]);
      }
      ASSERT_EQ(expect.size(), 5u);

      int v = 0;
      for (int i = 0; i < 2; ++i) {  // scalar pops interleave with bundles
        ASSERT_TRUE(q.pop(&v));
        EXPECT_EQ(v, expect.front());
        expect.erase(expect.begin());
      }

      const std::vector<int> second{6, 7, 8, 9, 10, 11};
      const auto ok2 = q.push_batch(second, &statuses);
      for (std::size_t i = 0; i < second.size(); ++i) {
        ASSERT_TRUE(ok2[i]) << i;
        expect.push_back(second[i]);
      }

      ASSERT_TRUE(q.pop(&v));
      EXPECT_EQ(v, expect.front());
      expect.erase(expect.begin());
    });
  }  // "crash"
  {
    Context ctx(zero_config(2, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    options.first_node = 1;
    queue<int> q(ctx, options);
    EXPECT_EQ(q.size(), expect.size());
    ctx.run_one(0, [&](Actor&) {
      int v = 0;
      for (const int want : expect) {
        ASSERT_TRUE(q.pop(&v));
        EXPECT_EQ(v, want);  // FIFO of the survivors, across the restart
      }
      EXPECT_FALSE(q.pop(&v));
    });
  }
  std::filesystem::remove(path + ".q0");
}

TEST(PriorityQueue, PersistenceRecoversInterleavedBatchedOps) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hcl_pq_interleave_persist")
          .string();
  std::filesystem::remove(path + ".pq0");
  std::vector<int> expect;  // sorted survivors at crash time
  {
    Context ctx(zero_config(2, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    options.first_node = 1;
    options.batch.max_ops = 4;
    options.batch.max_delay_ns = 0;
    priority_queue<int> pq(ctx, options);

    auto plan = std::make_shared<fabric::FaultPlan>(19);
    plan->trigger_at(1, fabric::OpClass::kBatchOp, 2, fabric::FaultKind::kDrop);
    ctx.set_fault_plan(plan);

    ctx.run_one(0, [&](Actor&) {
      std::multiset<int> model;
      std::vector<Status> statuses;
      const std::vector<int> first{50, 40, 30, 20};  // op #2 (30) is dropped
      const auto ok1 = pq.push_batch(first, &statuses);
      for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(ok1[i], statuses[i].ok());
        if (statuses[i].ok()) model.insert(first[i]);
      }
      ASSERT_EQ(model.size(), 3u);
      ASSERT_FALSE(statuses[2].ok());

      int v = 0;
      ASSERT_TRUE(pq.pop(&v));  // a pop between the bundles removes the min
      EXPECT_EQ(v, *model.begin());
      model.erase(model.begin());

      const std::vector<int> second{10, 60, 25};
      const auto ok2 = pq.push_batch(second, &statuses);
      for (std::size_t i = 0; i < second.size(); ++i) {
        ASSERT_TRUE(ok2[i]) << i;
        model.insert(second[i]);
      }

      ASSERT_TRUE(pq.pop(&v));
      EXPECT_EQ(v, *model.begin());
      model.erase(model.begin());
      expect.assign(model.begin(), model.end());
    });
  }  // "crash"
  {
    Context ctx(zero_config(2, 1));
    core::ContainerOptions options;
    options.persist_path = path;
    options.first_node = 1;
    priority_queue<int> pq(ctx, options);
    EXPECT_EQ(pq.size(), expect.size());
    ctx.run_one(0, [&](Actor&) {
      int v = 0;
      for (const int want : expect) {  // replay converged to the survivors
        ASSERT_TRUE(pq.pop(&v));
        EXPECT_EQ(v, want);  // and pops still drain in min-order
      }
      EXPECT_FALSE(pq.pop(&v));
    });
  }
  std::filesystem::remove(path + ".pq0");
}

}  // namespace
}  // namespace hcl
