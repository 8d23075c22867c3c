#include "fabric/fabric.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

namespace hcl::fabric {
namespace {

using sim::Actor;
using sim::CostModel;
using sim::Nanos;
using sim::Topology;

struct FabricTest : ::testing::Test {
  FabricTest() : fabric(Topology(2, 2), CostModel::ares()) {}
  Fabric fabric;
};

TEST_F(FabricTest, PutMovesBytesAndAdvancesClock) {
  Actor client(0, 0, 1);
  std::vector<char> src(4096, 'x');
  std::vector<char> dst(4096, 0);
  fabric.put(client, /*target=*/1, dst.data(), src.data(), src.size());
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
  // latency + wire + latency at minimum.
  const auto& m = fabric.model();
  EXPECT_GE(client.now(), 2 * m.net_base_latency_ns + m.wire_time(4096));
}

TEST_F(FabricTest, LocalPutSkipsWire) {
  Actor client(0, 0, 1);
  char src[64] = "local";
  char dst[64] = {};
  fabric.put(client, /*target=*/0, dst, src, sizeof(src));
  EXPECT_STREQ(dst, "local");
  // No packets recorded anywhere for node-local traffic.
  EXPECT_EQ(fabric.nic(0).counters().total_packets.load(), 0);
  // Far cheaper than a remote round trip.
  EXPECT_LT(client.now(), fabric.model().net_base_latency_ns);
}

TEST_F(FabricTest, GetReadsRemoteBytes) {
  Actor client(0, 0, 1);
  char remote[32] = "remote-data";
  char local[32] = {};
  fabric.get(client, 1, local, remote, sizeof(remote));
  EXPECT_STREQ(local, "remote-data");
  EXPECT_GT(fabric.nic(1).counters().read_count.load(), 0);
}

TEST_F(FabricTest, RegisteredPutChargesBufferPrep) {
  // Small puts (eager protocol) copy through a bounce buffer at the source;
  // large puts (rendezvous) pin on the registration lane.
  Actor a(0, 0, 1), b(1, 0, 2);
  char src[4096] = {}, dst[4096];
  fabric.put(a, 1, dst, src, sizeof(src), /*registered_buffer=*/false);
  fabric.put(b, 1, dst, src, sizeof(src), /*registered_buffer=*/true);
  EXPECT_GT(b.now(), a.now());                        // bounce copy charged
  EXPECT_EQ(fabric.reg_unit(0).busy_total(), 0);      // below rendezvous size
  EXPECT_GT(fabric.mem_channels(0).busy_total(), 0);  // source-side copy

  Actor c(2, 0, 3);
  const std::size_t big =
      static_cast<std::size_t>(fabric.model().bcl_rendezvous_bytes);
  fabric.charge_put(c, 1, big, /*registered_buffer=*/true);
  EXPECT_GT(fabric.reg_unit(0).busy_total(), 0);      // dynamic pinning
}

TEST_F(FabricTest, Cas64SemanticActsOnWord) {
  Actor client(0, 0, 1);
  std::atomic<std::uint64_t> word{5};
  std::uint64_t expected = 5;
  EXPECT_TRUE(fabric.cas64(client, 1, word, expected, 9));
  EXPECT_EQ(word.load(), 9u);
  expected = 5;  // stale
  EXPECT_FALSE(fabric.cas64(client, 1, word, expected, 11));
  EXPECT_EQ(expected, 9u);  // CAS loads the current value on failure
  EXPECT_EQ(word.load(), 9u);
}

TEST_F(FabricTest, RemoteAtomicsSerializeOnNicPipeline) {
  // Two clients CASing remote words: the second serializes behind the first
  // on the NIC processing pipeline (the Fig. 1 serialization effect).
  Actor a(0, 0, 1), b(1, 0, 2);
  std::atomic<std::uint64_t> word{0};
  std::uint64_t e0 = 0, e1 = 1;
  fabric.cas64(a, 1, word, e0, 1);
  fabric.cas64(b, 1, word, e1, 2);
  const auto& m = fabric.model();
  EXPECT_EQ(a.now(), 2 * m.net_base_latency_ns + m.nic_atomic_service_ns);
  EXPECT_EQ(b.now(), 2 * m.net_base_latency_ns + 2 * m.nic_atomic_service_ns);
  EXPECT_EQ(fabric.nic(1).counters().atomic_count.load(), 2);
}

TEST_F(FabricTest, Faa64ReturnsPrevious) {
  Actor client(0, 0, 1);
  std::atomic<std::uint64_t> word{10};
  EXPECT_EQ(fabric.faa64(client, 1, word, 5), 10u);
  EXPECT_EQ(word.load(), 15u);
}

TEST_F(FabricTest, Load64ReadsValue) {
  Actor client(0, 0, 1);
  std::atomic<std::uint64_t> word{77};
  EXPECT_EQ(fabric.load64(client, 1, word), 77u);
  EXPECT_GT(client.now(), 0);
}

TEST_F(FabricTest, SendRequestReturnsArrivalAfterLatencyAndWire) {
  Actor client(0, 0, 1);
  const Nanos arrival = fabric.send_request(client, 1, 4096);
  const auto& m = fabric.model();
  EXPECT_EQ(arrival, m.net_base_latency_ns + m.wire_time(4096));
  // Client only pays injection overhead — the send is one-sided.
  EXPECT_EQ(client.now(), m.wire_overhead_ns);
  EXPECT_EQ(fabric.nic(1).counters().rpc_count.load(), 1);
}

TEST_F(FabricTest, NicBeginQueuesOnCores) {
  const Nanos t1 = fabric.nic_begin(1, 100);
  EXPECT_EQ(t1, 100 + fabric.model().nic_rpc_dispatch_ns);
}

TEST_F(FabricTest, PullResponseAdvancesPastReady) {
  Actor client(0, 0, 1);
  fabric.pull_response(client, 1, 64, /*response_ready=*/10'000);
  const auto& m = fabric.model();
  EXPECT_GE(client.now(), 10'000 + 3 * m.net_base_latency_ns + m.wire_time(64));
}

TEST_F(FabricTest, WireSaturationEmerges) {
  // 40 clients pushing 4 KB ops at one target: per-op spacing approaches
  // 40 x wire_time (closed-loop saturation), the Fig. 1 RPC-cost mechanism.
  constexpr int kClients = 40;
  constexpr int kOps = 64;
  std::vector<std::unique_ptr<Actor>> actors;
  std::vector<char> src(4096);
  // One destination buffer per client: the puts copy real bytes.
  std::vector<std::vector<char>> dst(kClients, std::vector<char>(4096));
  for (int c = 0; c < kClients; ++c) actors.push_back(std::make_unique<Actor>(c, 0, c));
  std::vector<std::thread> pool;
  for (int c = 0; c < kClients; ++c) {
    pool.emplace_back([&, c] {
      for (int i = 0; i < kOps; ++i) {
        fabric.put(*actors[c], 1, dst[c].data(), src.data(), 4096);
      }
    });
  }
  for (auto& t : pool) t.join();
  Nanos max_finish = 0;
  for (auto& a : actors) max_finish = std::max(max_finish, a->now());
  const Nanos total_wire = static_cast<Nanos>(kClients) * kOps *
                           fabric.model().wire_time(4096);
  // Makespan must be at least the serialized wire time (conservation).
  EXPECT_GE(max_finish, total_wire);
  EXPECT_EQ(fabric.nic(1).counters().write_count.load(), kClients * kOps);
}

TEST_F(FabricTest, PacketsAccounted) {
  Actor client(0, 0, 1);
  char src[8192] = {}, dst[8192];
  fabric.put(client, 1, dst, src, sizeof(src));
  // 8 KB over a 4 KB MTU = 2 packets.
  EXPECT_EQ(fabric.nic(1).counters().total_packets.load(), 2);
  EXPECT_EQ(fabric.nic(1).counters().total_bytes.load(), 8192);
}

TEST_F(FabricTest, LocalCasChargesContededCost) {
  EXPECT_EQ(fabric.local_cas(0, 0), fabric.model().local_cas_ns);
  EXPECT_EQ(fabric.local_cas(0, 100, 2), 100 + 2 * fabric.model().local_cas_ns);
}

TEST_F(FabricTest, LocalWriteUsesChannels) {
  const auto& m = fabric.model();
  const Nanos t = fabric.local_write(0, 0, 1 << 20);
  EXPECT_EQ(t, m.mem_write_time(1 << 20));
  // Copies multiply the channel crossings.
  const Nanos t3 = fabric.local_write(1, 0, 1 << 20, 3);
  EXPECT_GE(t3, 3 * m.mem_write_time(1 << 20));
}

TEST_F(FabricTest, NicComputeUtilization) {
  Actor client(0, 0, 1);
  std::atomic<std::uint64_t> word{0};
  for (int i = 0; i < 100; ++i) fabric.faa64(client, 1, word, 1);
  const double u = fabric.nic_compute_utilization(1, client.now());
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 2.0);  // atomic unit + cores can each reach 1.0
}

TEST_F(FabricTest, ResetMetricsClearsEverything) {
  Actor client(0, 0, 1);
  char src[64] = {}, dst[64];
  fabric.put(client, 1, dst, src, sizeof(src));
  fabric.reset_metrics();
  EXPECT_EQ(fabric.nic(1).counters().total_packets.load(), 0);
  EXPECT_EQ(fabric.nic(1).ingress().busy_total(), 0);
}

TEST_F(FabricTest, InvalidNodeThrows) {
  Actor client(0, 0, 1);
  char b[8];
  EXPECT_THROW(fabric.put(client, 99, b, b, 8), HclError);
}

}  // namespace
}  // namespace hcl::fabric
