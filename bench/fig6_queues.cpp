// Figure 6(c) — scaling the single-partition queues with client count (§IV.C).
//
// One queue partition hosted on node 0; the number of clients issuing
// push/pop sweeps up (320 -> 2560 in the paper). Paper shapes: throughput
// rises, peaks once the target is saturated, then plateaus; the priority
// queue ~30% slower than the FIFO queue (log N push); BCL's circular queue
// caps at ~35K push / ~43K pop — far below HCL.
#include <cstdio>
#include <vector>

#include "bcl/bcl.h"
#include "bench_util.h"

namespace {

using namespace hcl;         // NOLINT
using namespace hcl::bench;  // NOLINT

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv,
                  {kFullFlag,
                   {"--ops", "operations per client"},
                   {"--bytes", "payload bytes per op"}});
  const bool full = args.full();
  const auto ops = args.get("--ops", full ? 8192 : 64);
  const std::int64_t op_bytes = args.get("--bytes", 64);
  std::vector<int> client_counts = full ? std::vector<int>{320, 640, 1280, 2560}
                                        : std::vector<int>{32, 64, 128, 256, 512};

  print_header("Figure 6(c)", "queue scaling with client count (single partition)");
  std::printf("ops/client=%" PRId64 " element=%s, queue hosted on node 0\n\n", ops,
              human_bytes(op_bytes).c_str());
  std::printf("%8s | %12s %12s %12s | %12s %12s\n", "clients", "FIFO push/s",
              "PQ push/s", "BCL push/s", "FIFO pop/s", "BCL pop/s");

  double last_fifo_push = 0, last_fifo_pop = 0, last_pq_push = 0;
  double last_bcl_push = 0, last_bcl_pop = 0;
  for (int clients : client_counts) {
    // Topology: clients spread over nodes with 8 per node (so most are
    // remote from the queue's host, as in the paper's 64-node runs).
    const int procs = 8;
    const int nodes = std::max(2, (clients + procs - 1) / procs);
    Context::Config cfg;
    cfg.num_nodes = nodes;
    cfg.procs_per_node = procs;
    cfg.model.node_memory_budget_bytes = 512LL << 30;
    Context ctx(cfg);
    const std::int64_t total_ops = static_cast<std::int64_t>(clients) * ops;
    auto tp = [&](double s) {
      return s > 0 ? static_cast<double>(total_ops) / s : 0;
    };
    auto is_client = [&](sim::Actor& self) { return self.rank() < clients; };

    double fifo_push = 0, fifo_pop = 0, pq_push = 0, bcl_push = 0, bcl_pop = 0;
    {
      queue<Blob> q(ctx);
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        if (!is_client(self)) return;
        for (std::int64_t i = 0; i < ops; ++i) {
          q.push(Blob{static_cast<std::uint64_t>(op_bytes)});
        }
      });
      fifo_push = tp(ctx.elapsed_seconds());
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        if (!is_client(self)) return;
        Blob out;
        for (std::int64_t i = 0; i < ops; ++i) q.pop(&out);
      });
      fifo_pop = tp(ctx.elapsed_seconds());
    }
    {
      priority_queue<std::uint64_t> pq(ctx);
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        if (!is_client(self)) return;
        for (std::int64_t i = 0; i < ops; ++i) {
          pq.push(static_cast<std::uint64_t>(self.rank()) * ops + i);
        }
      });
      pq_push = tp(ctx.elapsed_seconds());
    }
    {
      bcl::CircularQueue<Blob> q(ctx, static_cast<std::size_t>(total_ops) * 2);
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        if (!is_client(self)) return;
        for (std::int64_t i = 0; i < ops; ++i) {
          throw_if_error(q.push(Blob{static_cast<std::uint64_t>(op_bytes)}));
        }
      });
      bcl_push = tp(ctx.elapsed_seconds());
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        if (!is_client(self)) return;
        Blob out;
        for (std::int64_t i = 0; i < ops; ++i) (void)q.pop(&out);
      });
      bcl_pop = tp(ctx.elapsed_seconds());
    }

    std::printf("%8d | %10.0f/s %10.0f/s %10.0f/s | %10.0f/s %10.0f/s  (PQ %-3.0f%% of FIFO, HCL/BCL %.1fx)\n",
                clients, fifo_push, pq_push, bcl_push, fifo_pop, bcl_pop,
                100.0 * pq_push / fifo_push, fifo_push / bcl_push);
    last_fifo_push = fifo_push;
    last_fifo_pop = fifo_pop;
    last_pq_push = pq_push;
    last_bcl_push = bcl_push;
    last_bcl_pop = bcl_pop;
  }
  write_json(
      "BENCH_FIG6_QUEUES.json",
      jsonf("{\"bench\": \"fig6_queues\", \"clients\": %d, "
            "\"ops_per_client\": %" PRId64 ", "
            "\"fifo_push_ops_s\": %.0f, \"pq_push_ops_s\": %.0f, "
            "\"bcl_push_ops_s\": %.0f, \"fifo_pop_ops_s\": %.0f, "
            "\"bcl_pop_ops_s\": %.0f, "
            "\"pq_vs_fifo_pct\": %.2f, \"fifo_vs_bcl_x\": %.2f}",
            client_counts.back(), ops, last_fifo_push, last_pq_push,
            last_bcl_push, last_fifo_pop, last_bcl_pop,
            100.0 * last_pq_push / last_fifo_push,
            last_fifo_push / last_bcl_push));
  std::printf("\npaper: throughput peaks once the host NIC saturates, then plateaus;\n"
              "priority queue ~30%% slower than FIFO; BCL caps at ~35K push / 43K pop.\n");
  print_footer();
  return 0;
}
