// Shared-memory transport tier (DESIGN.md §5i): ring/slot mechanics, pod
// routing policy, and the engine integration — pod-local ops ride the ring
// at local-memory rates with zero wire packets, and every ineligible case
// (full ring, oversize payload, per-container opt-out, fault-degraded pod)
// falls back transparently to the RDMA path.
#include "shm/ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/hcl.h"
#include "fabric/fault_plan.h"
#include "obs/trace.h"
#include "rpc/batch.h"
#include "rpc/engine.h"
#include "shm/transport.h"

namespace hcl {
namespace {

using obs::Span;
using obs::SpanKind;
using obs::TracePolicy;
using obs::Tracer;
using rpc::Engine;
using rpc::FuncId;
using rpc::InvokeOptions;
using rpc::ServerCtx;
using shm::Ring;
using shm::ShmPolicy;
using shm::SlotHandle;
using shm::Transport;
using sim::Actor;
using sim::CostModel;
using sim::Nanos;
using sim::Topology;

// ---------------------------------------------------------------------------
// Ring: bounded slot bitmask + arena chunks
// ---------------------------------------------------------------------------

TEST(ShmRing, AcquireExhaustReleaseReacquire) {
  Ring ring(4, 1024);
  EXPECT_EQ(ring.slots(), 4);
  EXPECT_EQ(ring.free_slots(), 4);
  int slots[4];
  for (int& s : slots) {
    s = ring.try_acquire();
    ASSERT_GE(s, 0);
  }
  EXPECT_EQ(ring.free_slots(), 0);
  EXPECT_EQ(ring.try_acquire(), -1);  // full → RDMA fallback signal
  // Out-of-order release: slot 2 frees first and is the next acquired.
  ring.release(slots[2]);
  EXPECT_EQ(ring.free_slots(), 1);
  EXPECT_EQ(ring.try_acquire(), slots[2]);
}

TEST(ShmRing, ClampsSlotsAndChunkBytes) {
  Ring tiny(0, 16);
  EXPECT_EQ(tiny.slots(), 1);
  EXPECT_EQ(tiny.chunk_bytes(), 256);  // floor: one cache-line-ish request
  Ring wide(100, 1 << 20);
  EXPECT_EQ(wide.slots(), 64);  // one bitmask word
  EXPECT_EQ(wide.free_slots(), 64);
}

TEST(ShmRing, ChunksAreExclusivePerSlot) {
  Ring ring(8, 512);
  const auto a = ring.chunk(0);
  const auto b = ring.chunk(1);
  EXPECT_EQ(a.size(), 512u);
  EXPECT_EQ(b.data(), a.data() + 512);  // contiguous arena, disjoint chunks
}

TEST(ShmRing, PublishedBytesReadBack) {
  Ring ring(2, 512);
  const int s = ring.try_acquire();
  ASSERT_GE(s, 0);
  EXPECT_EQ(ring.published_bytes(s), 0);  // acquisition resets the doorbell
  ring.publish(s, 77);
  EXPECT_EQ(ring.published_bytes(s), 77);
}

TEST(ShmRing, SlotHandleReleasesOnDestructionAndMove) {
  Ring ring(2, 512);
  {
    SlotHandle h(&ring, ring.try_acquire());
    ASSERT_TRUE(h.valid());
    EXPECT_EQ(ring.free_slots(), 1);
    SlotHandle moved = std::move(h);
    EXPECT_FALSE(h.valid());  // NOLINT(bugprone-use-after-move): moved-from is empty
    EXPECT_TRUE(moved.valid());
    EXPECT_EQ(ring.free_slots(), 1);  // a move never double-releases
  }
  EXPECT_EQ(ring.free_slots(), 2);  // destruction returned the slot
  SlotHandle empty;
  EXPECT_FALSE(empty.valid());
  empty.reset();  // reset on an empty handle is a no-op
  EXPECT_EQ(ring.free_slots(), 2);
}

// ---------------------------------------------------------------------------
// Transport: pod topology + per-container opt-out policy
// ---------------------------------------------------------------------------

TEST(ShmTransport, PodLocalityFollowsPolicy) {
  ShmPolicy same_node;
  same_node.enabled = true;  // pod_nodes = 1: same node only
  Transport t1(Topology(4, 1), same_node);
  EXPECT_TRUE(t1.pod_local(2, 2));
  EXPECT_FALSE(t1.pod_local(0, 1));

  ShmPolicy pods;
  pods.enabled = true;
  pods.pod_nodes = 2;  // pods {0,1} and {2,3}
  Transport t2(Topology(4, 1), pods);
  EXPECT_TRUE(t2.pod_local(0, 1));
  EXPECT_TRUE(t2.pod_local(2, 3));
  EXPECT_FALSE(t2.pod_local(1, 2));  // adjacent nodes, different pods
}

TEST(ShmTransport, NormalizeClampsPolicy) {
  ShmPolicy p;
  p.pod_nodes = -3;
  p.ring_slots = 1000;
  p.chunk_bytes = 1;
  const ShmPolicy n = shm::normalize(p);
  EXPECT_EQ(n.pod_nodes, 1);
  EXPECT_EQ(n.ring_slots, 64);
  EXPECT_EQ(n.chunk_bytes, 256);
}

TEST(ShmTransport, DenyListRoutesFuncsToWire) {
  ShmPolicy p;
  p.enabled = true;
  Transport t(Topology(2, 1), p);
  EXPECT_TRUE(t.allows(7));  // nothing denied: single relaxed load
  t.deny(7);
  EXPECT_FALSE(t.allows(7));
  EXPECT_TRUE(t.allows(8));
}

TEST(ShmTransport, TryAcquireReturnsInvalidWhenFull) {
  ShmPolicy p;
  p.enabled = true;
  p.ring_slots = 1;
  Transport t(Topology(2, 1), p);
  SlotHandle a = t.try_acquire(1);
  ASSERT_TRUE(a.valid());
  SlotHandle b = t.try_acquire(1);
  EXPECT_FALSE(b.valid());
  EXPECT_TRUE(t.try_acquire(0).valid());  // rings are per destination node
}

// ---------------------------------------------------------------------------
// Engine integration: pod-local ops ride the ring
// ---------------------------------------------------------------------------

TracePolicy trace_on() {
  TracePolicy p;
  p.enabled = true;
  p.sample_every = 1;
  return p;
}

ShmPolicy pod2_policy(int ring_slots = 4, std::int64_t chunk_bytes = 64 << 10) {
  ShmPolicy p;
  p.enabled = true;
  p.pod_nodes = 2;  // both fabric nodes share one pod
  p.ring_slots = ring_slots;
  p.chunk_bytes = chunk_bytes;
  return p;
}

struct ShmEngineTest : ::testing::Test {
  ShmEngineTest()
      : fabric(Topology(2, 2), CostModel::ares()),
        engine(fabric),
        transport(Topology(2, 2), pod2_policy()) {
    engine.set_shm(&transport);
  }
  fabric::Fabric fabric;
  Engine engine;
  Transport transport;
};

TEST_F(ShmEngineTest, ScalarRidesRingWithZeroWirePackets) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  Actor client(0, 0, 1);
  EXPECT_EQ((engine.invoke<int>(client, 1, echo, 42)), 42);
  const auto& c = fabric.nic(1).counters();
  EXPECT_EQ(c.shm_sends.load(), 1);
  EXPECT_EQ(c.rpc_count.load(), 1);  // it is still an RPC — tier split only
  EXPECT_GT(c.shm_bytes.load(), 0);
  EXPECT_EQ(c.total_packets.load(), 0);   // nothing crossed the wire
  EXPECT_EQ(c.total_bytes.load(), 0);     // arena bytes are not wire bytes
  EXPECT_EQ(c.shm_ring_full_fallbacks.load(), 0);
  EXPECT_EQ(transport.ring(1).free_slots(), transport.policy().ring_slots);
}

TEST_F(ShmEngineTest, ShmFloorBeatsRdmaScalarPath) {
  // Same tiny op, twin fabrics: one engine with the tier, one without. The
  // shm path must undercut the RDMA scalar path by at least the A11
  // acceptance floor (3x) for small pod-local ops.
  fabric::Fabric wire_fabric(Topology(2, 2), CostModel::ares());
  Engine wire_engine(wire_fabric);
  const FuncId shm_echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  const FuncId wire_echo =
      wire_engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  Actor shm_client(0, 0, 1), wire_client(0, 0, 1);
  constexpr int kOps = 64;
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ((engine.invoke<int>(shm_client, 1, shm_echo, i)), i);
    EXPECT_EQ((wire_engine.invoke<int>(wire_client, 1, wire_echo, i)), i);
  }
  EXPECT_LT(shm_client.now() * 3, wire_client.now());
}

TEST_F(ShmEngineTest, FullRingFallsBackToWireAndCounts) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  // Hold every slot of node 1's ring so the send finds it full.
  std::vector<SlotHandle> hogs;
  for (int i = 0; i < transport.policy().ring_slots; ++i) {
    hogs.push_back(transport.try_acquire(1));
    ASSERT_TRUE(hogs.back().valid());
  }
  Actor client(0, 0, 1);
  EXPECT_EQ((engine.invoke<int>(client, 1, echo, 5)), 5);  // still succeeds
  const auto& c = fabric.nic(1).counters();
  EXPECT_EQ(c.shm_ring_full_fallbacks.load(), 1);
  EXPECT_EQ(c.shm_sends.load(), 0);
  EXPECT_EQ(c.rpc_count.load(), 1);
  EXPECT_GT(c.total_packets.load(), 0);  // the fallback crossed the wire
}

TEST_F(ShmEngineTest, OversizePayloadRidesWireWithoutFallbackCount) {
  // A transport with minimum chunks: any non-trivial payload is oversize
  // for the ring. That is an eligibility miss, not a ring-full fallback.
  Transport small(Topology(2, 2), pod2_policy(/*ring_slots=*/4,
                                              /*chunk_bytes=*/1));
  engine.set_shm(&small);
  const FuncId len = engine.bind<int, std::string>(
      [](ServerCtx&, const std::string& s) { return static_cast<int>(s.size()); });
  Actor client(0, 0, 1);
  const std::string big(4096, 'x');
  EXPECT_EQ((engine.invoke<int>(client, 1, len, big)), 4096);
  const auto& c = fabric.nic(1).counters();
  EXPECT_EQ(c.shm_sends.load(), 0);
  EXPECT_EQ(c.shm_ring_full_fallbacks.load(), 0);
  EXPECT_GT(c.total_packets.load(), 0);
  EXPECT_EQ(small.ring(1).free_slots(), 4);  // the probed slot was returned
}

TEST_F(ShmEngineTest, DeniedFuncRidesWire) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  transport.deny(echo);
  Actor client(0, 0, 1);
  EXPECT_EQ((engine.invoke<int>(client, 1, echo, 9)), 9);
  const auto& c = fabric.nic(1).counters();
  EXPECT_EQ(c.shm_sends.load(), 0);
  EXPECT_GT(c.total_packets.load(), 0);
}

TEST_F(ShmEngineTest, DegradedPodFallsBackUntilRestored) {
  auto plan = std::make_shared<fabric::FaultPlan>(1);
  fabric.set_fault_plan(plan);
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  Actor client(0, 0, 1);
  plan->degrade_shm(1);  // destination's memory domain is fenced off
  EXPECT_EQ((engine.invoke<int>(client, 1, echo, 1)), 1);
  const auto& c = fabric.nic(1).counters();
  EXPECT_EQ(c.shm_sends.load(), 0);  // rode the wire while degraded
  plan->restore_shm(1);
  EXPECT_EQ((engine.invoke<int>(client, 1, echo, 2)), 2);
  EXPECT_EQ(c.shm_sends.load(), 1);  // back on the ring
}

TEST_F(ShmEngineTest, RetriesRedoorbellTheSameSlot) {
  auto plan = std::make_shared<fabric::FaultPlan>(7);
  fabric::FaultProbabilities p;
  p.unavailable = 0.4;
  plan->set(fabric::OpClass::kRpc, p);
  fabric.set_fault_plan(plan);
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  InvokeOptions opts;
  opts.max_retries = 8;
  Actor client(0, 0, 1);
  constexpr int kOps = 100;
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ((engine.invoke_opt<int>(client, 1, echo, opts, i)), i);
  }
  const auto& c = fabric.nic(1).counters();
  // Every attempt (first sends and re-doorbells alike) stayed on the ring:
  // the send-side counters agree, and faults really fired.
  EXPECT_EQ(c.shm_sends.load(), c.rpc_count.load());
  EXPECT_GT(c.rpc_count.load(), kOps);
  EXPECT_EQ(c.total_packets.load(), 0);
  EXPECT_EQ(transport.ring(1).free_slots(), transport.policy().ring_slots);
}

TEST_F(ShmEngineTest, ChainRidesRingInOneDelivery) {
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
  EXPECT_EQ((engine.invoke_chain<int>(client, 1, produce, {add_ten}, 5)), 20);
  const auto& c = fabric.nic(1).counters();
  EXPECT_EQ(c.shm_sends.load(), 1);  // one doorbell despite two stages
  EXPECT_EQ(c.rpc_count.load(), 1);
  EXPECT_EQ(c.total_packets.load(), 0);
}

TEST_F(ShmEngineTest, BatchBundleRidesRing) {
  const FuncId echo =
      engine.bind<int, int>([](ServerCtx&, const int& v) { return v; });
  rpc::BatchPolicy policy;
  policy.max_ops = 64;
  policy.max_delay_ns = 0;
  rpc::Batcher batcher(engine, policy);
  Actor client(0, 0, 1);
  std::vector<rpc::Future<int>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(batcher.enqueue<int>(client, 1, echo, i));
  }
  batcher.flush(client, 1);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(futures[i].get(client), i);
  const auto& c = fabric.nic(1).counters();
  EXPECT_EQ(c.shm_sends.load(), 1);  // ONE bundle, one doorbell
  EXPECT_EQ(c.rpc_batches.load(), 1);
  EXPECT_EQ(c.rpc_batched_ops.load(), 8);
  EXPECT_EQ(c.total_packets.load(), 0);  // request and pulls all local
}

TEST_F(ShmEngineTest, ReplicationFanOutRidesRingWithoutRpcCount) {
  std::atomic<int> replicas{0};
  const FuncId replicate =
      engine.bind<void, int>([&](ServerCtx&, const int&) { replicas.fetch_add(1); });
  const FuncId primary = engine.bind<int, int>(
      [&, replicate](ServerCtx& ctx, const int& v) {
        engine.server_invoke(ctx.node, 0, ctx.finish, replicate, v);
        return v;
      });
  Actor client(1, 1, 1);  // client co-located with the primary on node 1
  EXPECT_EQ((engine.invoke<int>(client, 1, primary, 3)), 3);
  EXPECT_EQ(replicas.load(), 1);
  const auto& c = fabric.nic(0).counters();
  // The fan-out rode node 0's ring but is not a client RPC: shm_sends only.
  EXPECT_EQ(c.shm_sends.load(), 1);
  EXPECT_EQ(c.rpc_count.load(), 0);
  EXPECT_EQ(c.total_packets.load(), 0);
}

// ---------------------------------------------------------------------------
// Tracing: kShm spans reconcile exactly against fabric counters
// ---------------------------------------------------------------------------

TEST_F(ShmEngineTest, ShmSpanStagesAndReconciliation) {
  Tracer tracer(trace_on(), 2);
  engine.set_tracer(&tracer);
  constexpr Nanos kWork = 500;
  const FuncId busy = engine.bind<int>([](ServerCtx& ctx) {
    ctx.finish = ctx.start + kWork;
    return 1;
  });
  Actor client(0, 0, 1);
  EXPECT_EQ((engine.invoke<int>(client, 1, busy)), 1);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  const Span& s = *spans[0];
  const auto& m = fabric.model();
  EXPECT_EQ(s.kind, SpanKind::kShm);  // scalar upgraded to the shm kind
  EXPECT_EQ(s.inject_done_ns, m.shm_doorbell_ns);
  EXPECT_EQ(s.dispatch_ns, m.shm_dispatch_ns);
  EXPECT_EQ(s.exec_start_ns, s.arrival_ns + m.shm_dispatch_ns);  // no queue
  EXPECT_EQ(s.handler_end_ns, s.exec_start_ns + kWork);
  EXPECT_EQ(s.request_packets, 0);
  EXPECT_EQ(s.pull_packets, 0);
  // Exact reconciliation: tracer stage sums == fabric busy counters, and the
  // packet sums agree (both zero — nothing crossed the wire).
  EXPECT_EQ(tracer.accounted_handler_ns(1),
            fabric.nic(1).counters().handler_busy_ns.load());
  EXPECT_EQ(tracer.latency_histogram(1, SpanKind::kShm).count(), 1);
  EXPECT_EQ(tracer.latency_histogram(1, SpanKind::kScalar).count(), 0);
}

// ---------------------------------------------------------------------------
// Context wiring: Config.shm, per-container opt-out
// ---------------------------------------------------------------------------

Context::Config shm_config(int nodes, int procs) {
  Context::Config cfg;
  cfg.num_nodes = nodes;
  cfg.procs_per_node = procs;
  cfg.shm.enabled = true;
  cfg.shm.pod_nodes = nodes;  // whole cluster is one pod
  return cfg;
}

TEST(ShmContext, ContainerTrafficRidesRing) {
  Context ctx(shm_config(2, 2));
  ASSERT_NE(ctx.shm_transport(), nullptr);
  unordered_map<int, int> map(ctx);
  ctx.run([&](Actor& self) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(map.insert(self.rank() * 100 + i, i));
    }
  });
  std::int64_t shm_sends = 0;
  for (int n = 0; n < 2; ++n) {
    shm_sends += ctx.fabric().nic(n).counters().shm_sends.load();
  }
  EXPECT_GT(shm_sends, 0);
}

TEST(ShmContext, PerContainerOptOutRoutesToWire) {
  Context ctx(shm_config(2, 2));
  core::ContainerOptions options;
  options.shm.enabled = false;  // this container opts out of the tier
  unordered_map<int, int> map(ctx, options);
  ctx.run([&](Actor& self) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(map.insert(self.rank() * 100 + i, i));
    }
    int v = -1;
    ASSERT_TRUE(map.find(self.rank() * 100, &v));
  });
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(ctx.fabric().nic(n).counters().shm_sends.load(), 0) << n;
  }
}

TEST(ShmContext, DisabledTierLeavesTransportNull) {
  Context::Config cfg;
  cfg.num_nodes = 2;
  cfg.procs_per_node = 1;
  cfg.shm = ShmPolicy{};  // force-off regardless of the process environment
  Context ctx(cfg);
  EXPECT_EQ(ctx.shm_transport(), nullptr);
  core::ContainerOptions options;
  options.shm.enabled = false;  // opt-out registration must be a no-op
  unordered_map<int, int> map(ctx, options);
  ctx.run([&](Actor& self) { ASSERT_TRUE(map.insert(self.rank(), 1)); });
}

}  // namespace
}  // namespace hcl
