// The RoR error protocol under injected fabric faults: every failure mode —
// throwing handlers, lost/duplicated requests, NIC stalls, transient NACKs,
// expired deadlines — must surface as a definite Status on the future.
// Never an unfulfilled state, never an exception crossing the stub boundary.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/fault_plan.h"
#include "rpc/engine.h"

namespace hcl::rpc {
namespace {

using fabric::FaultKind;
using fabric::FaultPlan;
using fabric::FaultProbabilities;
using fabric::OpClass;
using sim::Actor;
using sim::CostModel;
using sim::Nanos;
using sim::Topology;

struct FaultTest : ::testing::Test {
  FaultTest()
      : plan(std::make_shared<FaultPlan>(7)),
        fabric(Topology(2, 2), CostModel::ares()),
        engine(fabric) {
    fabric.set_fault_plan(plan);
  }
  std::shared_ptr<FaultPlan> plan;
  fabric::Fabric fabric;
  Engine engine;
};

// ---------------------------------------------------------------------------
// Handler exception containment (the future-hang bugfix).
// ---------------------------------------------------------------------------

TEST_F(FaultTest, RuntimeErrorHandlerResolvesInternal) {
  const FuncId boom = engine.bind<int>([](ServerCtx&) -> int {
    throw std::runtime_error("boom");
  });
  Actor client(0, 0, 1);
  auto f = engine.async_invoke<int>(client, 1, boom);
  const Status st = f.wait(client);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("boom"), std::string::npos);
  // get() on the same error surfaces it as HclError, not a hang or crash.
  auto g = engine.async_invoke<int>(client, 1, boom);
  EXPECT_THROW(g.get(client), HclError);
}

TEST_F(FaultTest, NonExceptionThrowResolvesInternal) {
  const FuncId weird = engine.bind_raw(
      [](ServerCtx&, std::span<const std::byte>, serial::OutArchive&) {
        throw 42;  // NOLINT: deliberately not a std::exception
      });
  Actor client(0, 0, 1);
  EXPECT_EQ(engine.async_invoke<int>(client, 1, weird).wait(client).code(),
            StatusCode::kInternal);
}

TEST_F(FaultTest, ThrowingChainedStageResolvesAsStatus) {
  const FuncId produce =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  const FuncId bad_stage = engine.bind_raw(
      [](ServerCtx&, std::span<const std::byte>, serial::OutArchive&) {
        throw std::runtime_error("stage died");
      });
  Actor client(0, 0, 1);
  auto f = engine.async_invoke_chain<int>(client, 1, produce, {bad_stage}, 3);
  EXPECT_EQ(f.wait(client).code(), StatusCode::kInternal);
}

TEST_F(FaultTest, MissingChainedHandlerIsNotFound) {
  const FuncId produce =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  Actor client(0, 0, 1);
  auto f = engine.async_invoke_chain<int>(client, 1, produce,
                                          {/*unbound=*/424'242}, 3);
  EXPECT_EQ(f.wait(client).code(), StatusCode::kNotFound);
}

TEST_F(FaultTest, ErrorPathStillChargesNicBusyTime) {
  // The handler consumes simulated NIC-core time, then fails; Fig. 4a
  // utilization must include that span (success and failure alike).
  const FuncId charge_then_throw = engine.bind<int>([this](ServerCtx& ctx) -> int {
    ctx.finish = fabric.local_write(ctx.node, ctx.start, 1 << 20);
    throw HclError(Status::Capacity("full after work"));
  });
  Actor client(0, 0, 1);
  const auto before =
      fabric.nic(1).counters().handler_busy_ns.load(std::memory_order_relaxed);
  EXPECT_EQ(engine.async_invoke<int>(client, 1, charge_then_throw).wait(client).code(),
            StatusCode::kCapacity);
  const auto after =
      fabric.nic(1).counters().handler_busy_ns.load(std::memory_order_relaxed);
  EXPECT_GE(after - before, fabric.model().mem_write_time(1 << 20));
}

// ---------------------------------------------------------------------------
// Null-state Future guards.
// ---------------------------------------------------------------------------

TEST(FutureGuards, DefaultConstructedFutureFailsLoudly) {
  Future<int> f;
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f.ready());  // safe probe, no throw
  EXPECT_THROW((void)f.response_ready_ns(), HclError);
  EXPECT_THROW(f.then([] {}), HclError);
  Actor client(0, 0, 1);
  EXPECT_THROW((void)f.get(client), HclError);
  EXPECT_THROW((void)f.wait(client), HclError);
  try {
    (void)f.response_ready_ns();
    FAIL() << "expected HclError";
  } catch (const HclError& e) {
    EXPECT_EQ(e.code(), StatusCode::kFailedPrecondition);
  }
}

// ---------------------------------------------------------------------------
// Injected faults -> engine retry policy.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, RetryUntilSuccessAfterDrops) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  plan->trigger_at(1, OpClass::kRpc, 0, FaultKind::kDrop);
  plan->trigger_at(1, OpClass::kRpc, 1, FaultKind::kDrop);
  Actor client(0, 0, 1);
  InvokeOptions opts;
  opts.max_retries = 3;
  auto f = engine.async_invoke_opt<int>(client, 1, echo, opts, 9);
  EXPECT_TRUE(f.wait(client).ok());
  EXPECT_EQ(plan->counters().drops.load(), 2);
  EXPECT_GE(fabric.nic(1).counters().rpc_retries.load(), 2);
  // Each lost request costs a full lost-request timeout in simulated time.
  EXPECT_GE(f.response_ready_ns(),
            2 * fabric.model().rpc_lost_request_timeout_ns);
}

TEST_F(FaultTest, DropsExhaustRetriesToDeadlineExceeded) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  FaultProbabilities p;
  p.drop = 1.0;
  plan->set_node(1, OpClass::kRpc, p);
  Actor client(0, 0, 1);
  InvokeOptions opts;
  opts.max_retries = 2;
  auto f = engine.async_invoke_opt<int>(client, 1, echo, opts, 1);
  EXPECT_EQ(f.wait(client).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(plan->counters().drops.load(), 3);  // initial try + 2 retries
  EXPECT_GE(fabric.nic(1).counters().rpc_timeouts.load(), 1);
}

TEST_F(FaultTest, DropWithNoDeadlineStillResolves) {
  // timeout_ns == 0 ("wait forever") must NOT mean an unfulfilled future
  // when the request is lost: the lost-request timeout kicks in.
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  FaultProbabilities p;
  p.drop = 1.0;
  plan->set_node(1, OpClass::kRpc, p);
  Actor client(0, 0, 1);
  auto f = engine.async_invoke<int>(client, 1, echo, 5);
  EXPECT_EQ(f.wait(client).code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(f.response_ready_ns(), fabric.model().rpc_lost_request_timeout_ns);
}

TEST_F(FaultTest, TransientUnavailableRetriesThenSucceeds) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  plan->trigger_at(1, OpClass::kRpc, 0, FaultKind::kUnavailable);
  Actor client(0, 0, 1);
  InvokeOptions opts;
  opts.max_retries = 1;
  EXPECT_EQ((engine.invoke_opt<int>(client, 1, echo, opts, 11)), 11);
  EXPECT_EQ(plan->counters().unavailable.load(), 1);
  EXPECT_EQ(fabric.nic(1).counters().rpc_retries.load(), 1);
}

TEST_F(FaultTest, UnavailableWithoutRetriesSurfaces) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  plan->trigger_at(1, OpClass::kRpc, 0, FaultKind::kUnavailable);
  Actor client(0, 0, 1);
  EXPECT_EQ(engine.async_invoke<int>(client, 1, echo, 1).wait(client).code(),
            StatusCode::kUnavailable);
}

TEST_F(FaultTest, DeadlineExpiryOnSlowHandler) {
  // The handler takes ~3 ms of simulated time; the client allows 100 us.
  const FuncId slow = engine.bind<int>([this](ServerCtx& ctx) {
    ctx.finish = fabric.local_write(ctx.node, ctx.start, 16 << 20);
    return 1;
  });
  Actor client(0, 0, 1);
  InvokeOptions opts;
  opts.timeout_ns = 100 * sim::kMicrosecond;
  auto f = engine.async_invoke_opt<int>(client, 1, slow, opts);
  EXPECT_EQ(f.wait(client).code(), StatusCode::kDeadlineExceeded);
  // The future resolves at the deadline, not at the handler's finish.
  EXPECT_LE(f.response_ready_ns(),
            client.now() + opts.timeout_ns + fabric.model().net_base_latency_ns);
  EXPECT_GE(fabric.nic(1).counters().rpc_timeouts.load(), 1);
}

TEST_F(FaultTest, DuplicateDeliveryRunsHandlerTwice) {
  std::atomic<int> hits{0};
  const FuncId count = engine.bind<int, int>([&](ServerCtx&, const int& v) {
    hits.fetch_add(1);
    return v;
  });
  plan->trigger_at(1, OpClass::kRpc, 0, FaultKind::kDuplicate);
  Actor client(0, 0, 1);
  // The response is still well-formed and correct; idempotent handlers make
  // duplicate delivery invisible to the caller.
  EXPECT_EQ((engine.invoke<int>(client, 1, count, 4)), 4);
  EXPECT_EQ(hits.load(), 2);
  EXPECT_EQ(plan->counters().duplicates.load(), 1);
}

TEST_F(FaultTest, InjectedThrowFaultResolvesInternal) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  plan->trigger_at(1, OpClass::kRpc, 0, FaultKind::kThrow);
  Actor client(0, 0, 1);
  const Status st = engine.async_invoke<int>(client, 1, echo, 1).wait(client);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("injected"), std::string::npos);
  EXPECT_EQ(plan->counters().throws.load(), 1);
}

TEST_F(FaultTest, DelayFaultLengthensResponseTime) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  Actor a(0, 0, 1), b(1, 0, 2);
  auto clean = engine.async_invoke<int>(a, 1, echo, 1);
  (void)clean.wait(a);
  FaultProbabilities p;
  p.delay = 1.0;
  p.delay_ns = 500 * sim::kMicrosecond;
  plan->set_node(1, OpClass::kRpc, p);
  auto stalled = engine.async_invoke<int>(b, 1, echo, 1);
  EXPECT_TRUE(stalled.wait(b).ok());
  EXPECT_GE(stalled.response_ready_ns() - clean.response_ready_ns(),
            p.delay_ns);
  EXPECT_EQ(plan->counters().delays.load(), 1);
}

TEST_F(FaultTest, OneSidedVerbsSufferNicStalls) {
  FaultProbabilities p;
  p.delay = 1.0;
  p.delay_ns = 250 * sim::kMicrosecond;
  plan->set_node(1, OpClass::kOneSided, p);
  Actor client(0, 0, 1);
  std::uint64_t src = 42, dst = 0;
  fabric.put(client, 1, &dst, &src, sizeof(src));
  EXPECT_EQ(dst, 42u);  // data still moves
  EXPECT_GE(client.now(), p.delay_ns);
}

// ---------------------------------------------------------------------------
// Determinism and mixed seeded runs.
// ---------------------------------------------------------------------------

TEST(FaultPlanDeterminism, SameSeedSameDecisions) {
  FaultProbabilities p;
  p.drop = 0.2;
  p.delay = 0.3;
  p.throw_handler = 0.1;
  p.unavailable = 0.15;
  FaultPlan a(99), b(99), c(100);
  a.set(OpClass::kRpc, p);
  b.set(OpClass::kRpc, p);
  c.set(OpClass::kRpc, p);
  bool differs_from_c = false;
  for (int i = 0; i < 256; ++i) {
    const auto da = a.next(3, OpClass::kRpc);
    const auto db = b.next(3, OpClass::kRpc);
    const auto dc = c.next(3, OpClass::kRpc);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.throw_handler, db.throw_handler);
    EXPECT_EQ(da.unavailable, db.unavailable);
    EXPECT_EQ(da.delay_ns, db.delay_ns);
    differs_from_c |= (da.drop != dc.drop) || (da.delay_ns != dc.delay_ns) ||
                      (da.unavailable != dc.unavailable);
  }
  EXPECT_TRUE(differs_from_c);  // different seed, different fault schedule
  EXPECT_EQ(a.ops_seen(3, OpClass::kRpc), 256u);
}

TEST_F(FaultTest, SeededMixedFaultsAlwaysResolveDefinite) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  FaultProbabilities p;
  p.drop = 0.05;
  p.delay = 0.05;
  p.throw_handler = 0.03;
  p.unavailable = 0.05;
  p.duplicate = 0.03;
  plan->set(OpClass::kRpc, p);
  Actor client(0, 0, 1);
  InvokeOptions opts;
  opts.max_retries = 4;
  opts.timeout_ns = 5 * sim::kMillisecond;
  int ok = 0, failed = 0;
  for (int i = 0; i < 400; ++i) {
    auto f = engine.async_invoke_opt<int>(client, 1, echo, opts, i);
    const Status st = f.wait(client);
    switch (st.code()) {
      case StatusCode::kOk:
        ++ok;
        break;
      case StatusCode::kInternal:
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kUnavailable:
        ++failed;
        break;
      default:
        FAIL() << "unexpected status " << st.to_string();
    }
  }
  EXPECT_EQ(ok + failed, 400);
  EXPECT_GT(ok, 300);                        // retries absorb most faults
  EXPECT_GT(plan->counters().total(), 0);    // but faults really fired
}

// ---------------------------------------------------------------------------
// send_request local-path timing (hybrid-vs-remote fairness fix).
// ---------------------------------------------------------------------------

TEST(SendRequestTiming, LocalPathChargesInjectionOverhead) {
  fabric::Fabric fabric(Topology(2, 1), CostModel::ares());
  Actor client(0, 0, 1);
  // Node-local request-buffer write begins only after the local doorbell
  // charge (DESIGN.md §5i): "local" pays the same shm_doorbell_ns rate the
  // shared-memory tier uses, not the NIC WQE injection overhead.
  const Nanos arrival = fabric.send_request(client, 0, 0);
  EXPECT_GE(arrival, fabric.model().shm_doorbell_ns);
  EXPECT_LT(arrival, fabric.model().wire_overhead_ns + fabric.model().net_base_latency_ns);
}

TEST(SendRequestTiming, NotBeforeDefersReissue) {
  fabric::Fabric fabric(Topology(2, 1), CostModel::ares());
  Actor client(0, 0, 1);
  Nanos issued = 0;
  const Nanos resend_at = 3 * sim::kMillisecond;
  const Nanos arrival = fabric.send_request(client, 1, 64, resend_at, &issued);
  EXPECT_EQ(issued, resend_at);
  EXPECT_GE(arrival, resend_at + fabric.model().net_base_latency_ns);
  // The async caller's own clock only pays the injection overhead.
  EXPECT_LT(client.now(), resend_at);
}

// ---------------------------------------------------------------------------
// Exponential back-off saturation (max_backoff_ns clamp).
// ---------------------------------------------------------------------------

// A long retry budget used to overflow the grown back-off (the int64 cast of
// backoff * multiplier wrapped negative), sending re-sends BACKWARDS in
// simulated time. With the clamp the schedule is exactly computable: capped
// exponential back-off, every re-send strictly later than the last.
TEST(BackoffClamp, LongRetryBudgetSaturatesAtMaxBackoff) {
  fabric::Fabric fabric(Topology(2, 1), CostModel::zero());
  Engine engine(fabric);
  auto plan = std::make_shared<FaultPlan>(3);
  FaultProbabilities p;
  p.drop = 1.0;  // every attempt is lost; the client walks the full schedule
  plan->set(OpClass::kRpc, p);
  fabric.set_fault_plan(plan);
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });

  Actor client(0, 0, 1);
  InvokeOptions opts;
  opts.timeout_ns = 1'000;
  opts.max_retries = 64;  // x4 growth overflows int64 by retry 31 unclamped
  opts.backoff_ns = 1'000;
  opts.backoff_multiplier = 4.0;
  opts.max_backoff_ns = 1'000'000;
  auto f = engine.async_invoke_opt<int>(client, 1, echo, opts, 7);
  EXPECT_EQ(f.wait(client).code(), StatusCode::kDeadlineExceeded);
  // 65 attempts x 1 us timeout, back-offs 1+4+16+64+256 us, then 59 saturated
  // at the 1 ms cap. Any overflow would shatter this exact total.
  EXPECT_EQ(client.now(), 59'406'000);
  EXPECT_EQ(fabric.nic(1).counters().rpc_retries.load(), 64);
}

// ---------------------------------------------------------------------------
// Node membership (DESIGN.md §5f): fail_node / rejoin_node and the engine's
// failover plumbing on top of them.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, FailNodeShortCircuitsDecide) {
  plan->fail_node(1);
  const auto d = plan->decide(1, OpClass::kRpc, 0);
  EXPECT_TRUE(d.node_down);
  EXPECT_TRUE(d.any());
  EXPECT_EQ(plan->counters().node_down_rejections.load(), 1);
  // Membership rejections are bookkeeping, not injected faults: total()
  // still reads zero so fault-budget assertions stay unchanged.
  EXPECT_EQ(plan->counters().total(), 0);
  plan->rejoin_node(1);
  EXPECT_FALSE(plan->node_down(1));
  EXPECT_FALSE(plan->decide(1, OpClass::kRpc, 1).node_down);
}

TEST_F(FaultTest, InvokeAgainstDownNodeFailsFastUnavailable) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  plan->fail_node(1);
  Actor client(0, 0, 1);
  auto f = engine.async_invoke<int>(client, 1, echo, 7);
  const Status st = f.wait(client);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("node down"), std::string::npos);
  // Fail-fast: no retry schedule was walked against a dead node.
  EXPECT_EQ(fabric.nic(1).counters().rpc_retries.load(), 0);
  plan->rejoin_node(1);
  EXPECT_EQ(engine.invoke<int>(client, 1, echo, 7), 7);
}

TEST_F(FaultTest, RouteTableMarksAndClears) {
  RouteTable& route = engine.route();
  EXPECT_FALSE(route.contains(1));
  route.insert(1);
  EXPECT_TRUE(route.contains(1));
  EXPECT_FALSE(route.contains(0));
  route.erase(1);
  EXPECT_FALSE(route.contains(1));
  route.insert(0);
  route.insert(1);
  route.clear();
  EXPECT_FALSE(route.contains(0));
  EXPECT_FALSE(route.contains(1));
}

TEST(RouteTable, NodesSixtyFourApartDoNotAlias) {
  RouteTable route(130);
  route.insert(0);
  EXPECT_TRUE(route.contains(0));
  EXPECT_FALSE(route.contains(64));
  EXPECT_FALSE(route.contains(128));
  // The reverse: marking and clearing node 64 leaves node 0's mark alone.
  route.insert(64);
  EXPECT_TRUE(route.contains(64));
  route.erase(64);
  EXPECT_FALSE(route.contains(64));
  EXPECT_TRUE(route.contains(0));
  route.insert(129);
  route.clear();
  EXPECT_FALSE(route.contains(0));
  EXPECT_FALSE(route.contains(129));
  // A node past the topology is refused, not wrapped onto a real one.
  EXPECT_THROW(route.insert(130), HclError);
  EXPECT_THROW(route.insert(-1), HclError);
  EXPECT_FALSE(route.contains(130));
}

TEST(FaultPlanNodes, NodesSixtyFourApartDoNotAlias) {
  FaultPlan plan(7);
  plan.fail_node(0);
  plan.degrade_shm(1);
  EXPECT_TRUE(plan.node_down(0));
  EXPECT_TRUE(plan.shm_degraded(1));
  EXPECT_FALSE(plan.node_down(64));
  EXPECT_FALSE(plan.shm_degraded(65));
  EXPECT_FALSE(plan.node_down(1));
  EXPECT_FALSE(plan.shm_degraded(0));
  plan.fail_node(64);
  plan.rejoin_node(64);
  EXPECT_TRUE(plan.node_down(0));
  EXPECT_THROW(plan.fail_node(FaultPlan::kMaxNodes), HclError);
  EXPECT_THROW(plan.degrade_shm(-1), HclError);
  EXPECT_FALSE(plan.node_down(FaultPlan::kMaxNodes));
}

TEST_F(FaultTest, FailoverInvokeBumpsStandbyCounter) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  Actor client(0, 0, 1);
  auto f = engine.async_invoke_failover<int>(client, 1, echo, 9);
  EXPECT_EQ(f.get(client), 9);
  EXPECT_EQ(fabric.nic(1).counters().failovers.load(), 1);
}

TEST_F(FaultTest, ServerInvokeSkipsDownTarget) {
  std::atomic<int> executed{0};
  const FuncId fanout = engine.bind<bool, int>(
      [&executed](ServerCtx&, const int&) {
        executed.fetch_add(1);
        return true;
      });
  plan->fail_node(1);
  engine.server_invoke(0, 1, 0, fanout, 5);  // absorbed, never executes
  EXPECT_EQ(executed.load(), 0);
  plan->rejoin_node(1);
  engine.server_invoke(0, 1, 0, fanout, 5);
  EXPECT_EQ(executed.load(), 1);
}

}  // namespace
}  // namespace hcl::rpc
