#include "rpc/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace hcl::rpc {
namespace {

using sim::Actor;
using sim::CostModel;
using sim::Nanos;
using sim::Topology;

struct RpcTest : ::testing::Test {
  RpcTest() : fabric(Topology(2, 2), CostModel::ares()), engine(fabric) {}
  fabric::Fabric fabric;
  Engine engine;
};

TEST_F(RpcTest, SyncInvokeReturnsValue) {
  const FuncId add = engine.bind<int, int, int>(
      [](ServerCtx&, const int& a, const int& b) { return a + b; });
  Actor client(0, 0, 1);
  EXPECT_EQ((engine.invoke<int>(client, 1, add, 2, 3)), 5);
  EXPECT_GT(client.now(), 0);
}

TEST_F(RpcTest, StringArgsAndResult) {
  const FuncId concat = engine.bind<std::string, std::string, std::string>(
      [](ServerCtx&, const std::string& a, const std::string& b) {
        return a + b;
      });
  Actor client(0, 0, 1);
  EXPECT_EQ((engine.invoke<std::string>(client, 1, concat, std::string("foo"),
                                        std::string("bar"))),
            "foobar");
}

TEST_F(RpcTest, VoidResult) {
  std::atomic<int> hits{0};
  const FuncId poke =
      engine.bind<void, int>([&](ServerCtx&, const int& v) { hits += v; });
  Actor client(0, 0, 1);
  engine.invoke<void>(client, 1, poke, 5);
  EXPECT_EQ(hits.load(), 5);
}

TEST_F(RpcTest, HandlerRunsOnTargetContext) {
  const FuncId where =
      engine.bind<int>([](ServerCtx& ctx) { return static_cast<int>(ctx.node); });
  Actor client(0, 0, 1);
  EXPECT_EQ((engine.invoke<int>(client, 1, where)), 1);
  EXPECT_EQ((engine.invoke<int>(client, 0, where)), 0);
}

TEST_F(RpcTest, AsyncInvokeOverlapsAndResolves) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  Actor client(0, 0, 1);
  std::vector<Future<int>> futures;
  futures.reserve(16);
  for (int i = 0; i < 16; ++i) {
    futures.push_back(engine.async_invoke<int>(client, 1, echo, i));
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futures[i].get(client), i);
}

TEST_F(RpcTest, AsyncChargesLessThanSyncPerCall) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  Actor sync_client(0, 0, 1), async_client(1, 0, 2);
  constexpr int kOps = 32;
  for (int i = 0; i < kOps; ++i) (void)engine.invoke<int>(sync_client, 1, echo, i);
  // Fresh simulated lanes so the async client does not queue behind the
  // sync client's reservations.
  fabric.reset_metrics();
  std::vector<Future<int>> fs;
  for (int i = 0; i < kOps; ++i) fs.push_back(engine.async_invoke<int>(async_client, 1, echo, i));
  for (auto& f : fs) (void)f.get(async_client);
  // Pipelined async issue must beat strictly serial round trips.
  EXPECT_LT(async_client.now(), sync_client.now());
}

TEST_F(RpcTest, FutureReadyAndThen) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  Actor client(0, 0, 1);
  std::atomic<bool> fired{false};
  auto f = engine.async_invoke<int>(client, 1, echo, 9);
  f.then([&] { fired.store(true); });
  EXPECT_EQ(f.get(client), 9);
  EXPECT_TRUE(fired.load());
  EXPECT_TRUE(f.ready());
}

TEST_F(RpcTest, UnknownFuncIdFails) {
  Actor client(0, 0, 1);
  auto f = engine.async_invoke<int>(client, 1, /*id=*/999'999, 1);
  EXPECT_EQ(f.wait(client).code(), StatusCode::kNotFound);
}

TEST_F(RpcTest, UnbindMakesIdUnknown) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  engine.unbind(echo);
  Actor client(0, 0, 1);
  auto f = engine.async_invoke<int>(client, 1, echo, 1);
  EXPECT_EQ(f.wait(client).code(), StatusCode::kNotFound);
}

TEST_F(RpcTest, DispatchRacesBindAndUnbindOfOtherIds) {
  // Dispatch reads the registry with no lock: binds and unbinds of other
  // ids (whole leaves of the table retired and freed included) must not
  // disturb an in-flight id. The TSan leg checks the publication order.
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v + 1; });
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load()) {
      const FuncId id =
          engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
      engine.unbind(id);
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> wrong{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Actor client(t, 0, 1);
      for (int i = 0; i < 2000; ++i) {
        if (engine.invoke<int>(client, 1, echo, i) != i + 1) wrong.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true);
  churn.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(RpcTest, UnboundLeafIsFreedAndItsIdsStayUnknown) {
  // Bind and unbind a full leaf's worth of ids: the leaf is freed, and an
  // invoke of any of them still resolves kNotFound.
  std::vector<FuncId> ids;
  for (std::size_t i = 0; i < 2 * detail::HandlerTable::kLeafSlots; ++i) {
    ids.push_back(
        engine.bind<int, int>([](ServerCtx&, const int& v) { return v; }));
  }
  for (const FuncId id : ids) engine.unbind(id);
  Actor client(0, 0, 1);
  for (const FuncId id : {ids.front(), ids[ids.size() / 2], ids.back()}) {
    EXPECT_EQ(engine.async_invoke<int>(client, 1, id, 1).wait(client).code(),
              StatusCode::kNotFound);
  }
  const FuncId fresh =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v * 3; });
  EXPECT_GT(fresh, ids.back());
  EXPECT_EQ(engine.invoke<int>(client, 1, fresh, 5), 15);
}

TEST_F(RpcTest, HandlerErrorPropagatesAsStatus) {
  const FuncId boom = engine.bind<int>([](ServerCtx&) -> int {
    throw HclError(Status::Capacity("partition full"));
  });
  Actor client(0, 0, 1);
  auto f = engine.async_invoke<int>(client, 1, boom);
  EXPECT_EQ(f.wait(client).code(), StatusCode::kCapacity);
  auto g = engine.async_invoke<int>(client, 1, boom);
  EXPECT_THROW(g.get(client), HclError);
}

TEST_F(RpcTest, ServerSideCallbackChain) {
  // Stage 1 produces a value; each chained stage consumes the previous
  // serialized result (the paper's "multiple operations in one call").
  const FuncId produce =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v * 2; });
  const FuncId add_ten = engine.bind_raw([](ServerCtx&,
                                            std::span<const std::byte> prev,
                                            serial::OutArchive& out) {
    serial::InArchive in(prev);
    int v;
    serial::load(in, v);
    serial::save(out, v + 10);
  });
  Actor client(0, 0, 1);
  EXPECT_EQ((engine.invoke_chain<int>(client, 1, produce, {add_ten, add_ten}, 5)),
            5 * 2 + 10 + 10);
}

TEST_F(RpcTest, ChainCostsOneWireCrossing) {
  const FuncId produce =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  const FuncId identity = engine.bind_raw(
      [](ServerCtx&, std::span<const std::byte> prev, serial::OutArchive& out) {
        out.raw_bytes(prev.data(), prev.size());
      });
  Actor client(0, 0, 1);
  (void)engine.invoke_chain<int>(client, 1, produce, {identity, identity, identity}, 1);
  // One RPC send despite four server-side stages.
  EXPECT_EQ(fabric.nic(1).counters().rpc_count.load(), 1);
}

TEST_F(RpcTest, HandlerChargesSimTime) {
  const FuncId slow = engine.bind<int>([](ServerCtx& ctx) {
    ctx.finish = ctx.fabric->local_write(ctx.node, ctx.start, 1 << 20);
    return 1;
  });
  Actor client(0, 0, 1);
  (void)engine.invoke<int>(client, 1, slow);
  const auto& m = fabric.model();
  EXPECT_GE(client.now(), m.mem_write_time(1 << 20));
}

TEST_F(RpcTest, ServerInvokeFiresWithoutClientCost) {
  std::atomic<int> replicas{0};
  const FuncId replicate =
      engine.bind<void, int>([&](ServerCtx&, const int&) { replicas.fetch_add(1); });
  // Handler on node 1 re-invokes onto node 0 (asynchronous replication).
  const FuncId primary = engine.bind<int, int>(
      [&, replicate](ServerCtx& ctx, const int& v) {
        engine.server_invoke(ctx.node, 0, ctx.finish, replicate, v);
        return v;
      });
  Actor client(0, 0, 1);
  EXPECT_EQ((engine.invoke<int>(client, 1, primary, 3)), 3);
  EXPECT_EQ(replicas.load(), 1);
}

TEST_F(RpcTest, ConcurrentClientsAllSucceed) {
  std::atomic<long> total{0};
  const FuncId acc = engine.bind<long, int>([&](ServerCtx&, const int& v) {
    return total.fetch_add(v) + v;
  });
  constexpr int kClients = 8;
  constexpr int kOps = 200;
  std::vector<std::thread> pool;
  std::vector<std::unique_ptr<Actor>> actors;
  for (int c = 0; c < kClients; ++c) actors.push_back(std::make_unique<Actor>(c, 0, c));
  for (auto& a : actors) {
    pool.emplace_back([&, ap = a.get()] {
      for (int i = 0; i < kOps; ++i) (void)engine.invoke<long>(*ap, 1, acc, 1);
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(total.load(), kClients * kOps);
}

TEST_F(RpcTest, TotalInvocationsCounted) {
  const FuncId echo = engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  Actor client(0, 0, 1);
  const auto before = engine.total_invocations();
  for (int i = 0; i < 5; ++i) (void)engine.invoke<int>(client, 1, echo, i);
  EXPECT_EQ(engine.total_invocations() - before, 5);
}

}  // namespace
}  // namespace hcl::rpc
