// Figure 1 — the motivating test case (§II.C).
//
// 40 clients on node 0 issue 8192 insert()s of 4 KB each against a hashmap
// partition on node 1, under three designs:
//   BCL               — client-side: remote CAS (reserve) + RDMA write +
//                       remote CAS (set ready), per insert,
//   RPC with CAS      — one RPC bundles the three steps; the CASes execute
//                       locally on the target,
//   RPC lock-free     — one RPC, lock-free local insert (no CAS at all).
//
// Paper result: BCL ~1.062 s/client with ~2/3 spent in remote CAS;
// RPC+CAS ~2x faster; lock-free ~2.5x faster.
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "rpc/engine.h"

namespace {

using namespace hcl;          // NOLINT
using namespace hcl::bench;   // NOLINT

struct Breakdown {
  double reserve = 0, write = 0, ready = 0, rpc = 0, local = 0;
  [[nodiscard]] double total() const { return reserve + write + ready + rpc + local; }
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv,
                  {kFullFlag,
                   {"--clients", "concurrent client ranks"},
                   {"--ops", "operations per client"},
                   {"--bytes", "payload bytes per op"}});
  const int clients = static_cast<int>(args.get("--clients", 40));
  const auto ops = args.get("--ops", args.full() ? 8192 : 2048);
  const std::int64_t op_bytes = args.get("--bytes", 4096);

  print_header("Figure 1", "motivating test: client-side vs procedural insert");
  std::printf("clients=%d ops/client=%" PRId64 " op=%s\n\n", clients, ops,
              human_bytes(op_bytes).c_str());

  Context ctx({.num_nodes = 2, .procs_per_node = clients});
  auto& fabric = ctx.fabric();
  const auto& model = ctx.model();
  constexpr sim::NodeId kTarget = 1;

  // Shared "bucket state" words on the target partition.
  std::vector<std::atomic<std::uint64_t>> states(1 << 20);

  // ---- BCL: 2 remote CAS + 1 remote write per insert --------------------
  Breakdown bcl;
  {
    ctx.reset_measurement();
    std::atomic<std::int64_t> t_reserve{0}, t_write{0}, t_ready{0};
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;  // clients live on node 0 only
      for (std::int64_t i = 0; i < ops; ++i) {
        auto& word = states[static_cast<std::size_t>(
            (self.rank() * ops + i) & (states.size() - 1))];
        sim::Nanos t0 = self.now();
        std::uint64_t expected = 0;
        fabric.cas64(self, kTarget, word, expected, 1);  // reserve
        sim::Nanos t1 = self.now();
        fabric.charge_put(self, kTarget, static_cast<std::size_t>(op_bytes),
                          /*registered_buffer=*/true);
        sim::Nanos t2 = self.now();
        expected = 1;
        fabric.cas64(self, kTarget, word, expected, 2);  // set ready
        sim::Nanos t3 = self.now();
        t_reserve.fetch_add(t1 - t0, std::memory_order_relaxed);
        t_write.fetch_add(t2 - t1, std::memory_order_relaxed);
        t_ready.fetch_add(t3 - t2, std::memory_order_relaxed);
      }
    });
    const double per_client = static_cast<double>(clients);
    bcl.reserve = sim::to_seconds(t_reserve.load()) / per_client;
    bcl.write = sim::to_seconds(t_write.load()) / per_client;
    bcl.ready = sim::to_seconds(t_ready.load()) / per_client;
    for (auto& s : states) s.store(0, std::memory_order_relaxed);
  }

  // ---- RPC with CAS: one invocation, CASes local on the target ----------
  Breakdown rpc_cas;
  {
    ctx.reset_measurement();
    rpc::Engine& engine = ctx.rpc();
    std::atomic<std::int64_t> local_ns{0};
    const auto insert_cas = engine.bind<bool, Blob>(
        [&](rpc::ServerCtx& sctx, const Blob& payload) {
          // reserve CAS + data write + ready CAS, all node-local.
          const sim::Nanos s0 = sctx.start;
          sim::Nanos t = fabric.local_cas(sctx.node, s0);
          t = fabric.local_write(sctx.node, t + model.mem_insert_base_ns,
                                 static_cast<std::int64_t>(payload.nominal));
          t = fabric.local_cas(sctx.node, t);
          sctx.finish = t;
          local_ns.fetch_add(t - s0, std::memory_order_relaxed);
          return true;
        });
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      for (std::int64_t i = 0; i < ops; ++i) {
        (void)engine.invoke<bool>(self, kTarget, insert_cas,
                                  Blob{static_cast<std::uint64_t>(op_bytes)});
      }
    });
    const double per_client = static_cast<double>(clients);
    double mean_total = 0;
    for (int r = 0; r < clients; ++r) {
      mean_total += sim::to_seconds(ctx.cluster().actor(r).now());
    }
    mean_total /= per_client;
    rpc_cas.local = sim::to_seconds(local_ns.load()) / per_client;
    rpc_cas.rpc = mean_total - rpc_cas.local;
    engine.unbind(insert_cas);
  }

  // ---- RPC lock-free: one invocation, no CAS ----------------------------
  Breakdown rpc_lf;
  {
    ctx.reset_measurement();
    rpc::Engine& engine = ctx.rpc();
    std::atomic<std::int64_t> local_ns{0};
    const auto insert_lf = engine.bind<bool, Blob>(
        [&](rpc::ServerCtx& sctx, const Blob& payload) {
          const sim::Nanos s0 = sctx.start;
          sctx.finish =
              fabric.local_write(sctx.node, s0 + model.mem_insert_base_ns,
                                 static_cast<std::int64_t>(payload.nominal));
          local_ns.fetch_add(sctx.finish - s0, std::memory_order_relaxed);
          return true;
        });
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      for (std::int64_t i = 0; i < ops; ++i) {
        (void)engine.invoke<bool>(self, kTarget, insert_lf,
                                  Blob{static_cast<std::uint64_t>(op_bytes)});
      }
    });
    const double per_client = static_cast<double>(clients);
    double mean_total = 0;
    for (int r = 0; r < clients; ++r) {
      mean_total += sim::to_seconds(ctx.cluster().actor(r).now());
    }
    mean_total /= per_client;
    rpc_lf.local = sim::to_seconds(local_ns.load()) / per_client;
    rpc_lf.rpc = mean_total - rpc_lf.local;
    engine.unbind(insert_lf);
  }

  // ---- report ------------------------------------------------------------
  const double scale = args.full() ? 1.0 : 8192.0 / static_cast<double>(ops);
  std::printf("avg seconds per client (x%.0f op scale -> paper-equivalent)\n",
              scale);
  std::printf("%-18s %10s %10s %10s %10s %10s %10s\n", "approach", "reserve",
              "insert", "ready", "rpc-call", "local", "TOTAL");
  std::printf("%-18s %10.3f %10.3f %10.3f %10s %10s %10.3f\n", "BCL",
              bcl.reserve * scale, bcl.write * scale, bcl.ready * scale, "-",
              "-", bcl.total() * scale);
  std::printf("%-18s %10s %10s %10s %10.3f %10.3f %10.3f\n", "RPC with CAS",
              "-", "-", "-", rpc_cas.rpc * scale, rpc_cas.local * scale,
              rpc_cas.total() * scale);
  std::printf("%-18s %10s %10s %10s %10.3f %10.3f %10.3f\n", "RPC lock-free",
              "-", "-", "-", rpc_lf.rpc * scale, rpc_lf.local * scale,
              rpc_lf.total() * scale);
  std::printf("\nspeedup vs BCL:  RPC with CAS %.2fx   RPC lock-free %.2fx\n",
              bcl.total() / rpc_cas.total(), bcl.total() / rpc_lf.total());
  std::printf("paper:           RPC with CAS ~2x     RPC lock-free ~2.5x\n");
  write_json(
      "BENCH_FIG1_MOTIVATING.json",
      jsonf("{\"bench\": \"fig1_motivating\", \"clients\": %d, "
            "\"ops_per_client\": %" PRId64 ", \"op_bytes\": %" PRId64 ", "
            "\"bcl_client_s\": %.4f, \"rpc_cas_client_s\": %.4f, "
            "\"rpc_lockfree_client_s\": %.4f, "
            "\"rpc_cas_speedup_x\": %.2f, \"rpc_lockfree_speedup_x\": %.2f}",
            clients, ops, op_bytes, bcl.total() * scale,
            rpc_cas.total() * scale, rpc_lf.total() * scale,
            bcl.total() / rpc_cas.total(), bcl.total() / rpc_lf.total()));
  print_footer();
  return 0;
}
