// Figure 5 — hybrid data access model performance (§IV.B.2).
//
// 40 clients issue 8192 writes (inserts) / reads (finds) against one target
// partition, sweeping the operation size from 4 KB to 8 MB. Two placements:
//   (a) intra-node — partition co-located with the clients. HCL bypasses the
//       RPC infrastructure entirely (direct shared memory, ~45/55 GB/s
//       plateaus); BCL still runs its CAS protocol through the runtime with
//       bounce-buffer copies (~4/12 GB/s).
//   (b) inter-node — partition remote. HCL bundles each op in one RPC and
//       tracks the wire (~4.2 GB/s); BCL pays CAS round trips plus dynamic
//       pinning for large payloads (~1.3 GB/s ceiling) and RUNS OUT OF
//       MEMORY above 1 MB (exclusive per-client buffer pools x pool depth
//       exceed the node budget).
#include <cstdio>
#include <string>
#include <vector>

#include "bcl/bcl.h"
#include "bench_util.h"

namespace {

using namespace hcl;         // NOLINT
using namespace hcl::bench;  // NOLINT

struct Cell {
  double gbps = 0;
  bool oom = false;
};

std::int64_t ops_for(std::int64_t bytes, std::int64_t base_ops) {
  // Keep total moved bytes roughly constant across the sweep.
  const std::int64_t ops = base_ops * 4096 / bytes;
  return std::max<std::int64_t>(16, std::min(base_ops, ops));
}

double gbps(double total_bytes, double seconds) {
  return seconds > 0 ? total_bytes / seconds / 1e9 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv,
                  {kFullFlag,
                   {"--clients", "concurrent client ranks"},
                   {"--ops", "operations per client"}});
  const int clients = static_cast<int>(args.get("--clients", 40));
  const auto base_ops = args.get("--ops", args.full() ? 8192 : 512);

  print_header("Figure 5", "hybrid access model: intra- and inter-node bandwidth sweep");
  std::printf("clients=%d, ops scaled to constant volume from %" PRId64 " @4KB\n\n",
              clients, base_ops);

  const std::vector<std::int64_t> sizes = {
      4 << 10,  8 << 10,  16 << 10,  32 << 10,  64 << 10,  128 << 10,
      256 << 10, 512 << 10, 1 << 20, 2 << 20,  4 << 20,   8 << 20};

  // Headline means per locality (for BENCH_FIG5_HYBRID.json).
  double mean_ins[2] = {0, 0}, mean_find[2] = {0, 0};
  double mean_bcl_ins[2] = {0, 0}, mean_bcl_find[2] = {0, 0};

  // One context per locality so budgets/lanes are clean.
  for (const bool intra : {true, false}) {
    Context::Config cfg;
    cfg.num_nodes = 2;
    cfg.procs_per_node = clients;
    Context ctx(cfg);
    const sim::NodeId target = intra ? 0 : 1;

    std::printf("--- %s-node access (partition on node %d, clients on node 0) ---\n",
                intra ? "intra" : "inter", target);
    std::printf("%8s | %12s %12s | %12s %12s | %8s %8s\n", "size",
                "HCL ins GB/s", "BCL ins GB/s", "HCL find GB/s",
                "BCL find GB/s", "ins x", "find x");

    double hcl_ins_sum = 0, bcl_ins_sum = 0, hcl_find_sum = 0, bcl_find_sum = 0;
    int summed = 0;
    for (std::int64_t size : sizes) {
      const std::int64_t ops = ops_for(size, base_ops);
      const double volume =
          static_cast<double>(clients) * ops * static_cast<double>(size);

      Cell hcl_ins, hcl_find, bcl_ins, bcl_find;

      // ---- HCL ----------------------------------------------------------
      {
        core::ContainerOptions options;
        options.num_partitions = 1;
        options.first_node = target;
        unordered_map<std::uint64_t, Blob> map(ctx, options);
        ctx.reset_measurement();
        ctx.run([&](sim::Actor& self) {
          if (self.node() != 0) return;
          for (std::int64_t i = 0; i < ops; ++i) {
            map.insert(static_cast<std::uint64_t>(self.rank()) * ops + i,
                       Blob{static_cast<std::uint64_t>(size)});
          }
        });
        hcl_ins.gbps = gbps(volume, ctx.elapsed_seconds());
        ctx.reset_measurement();
        ctx.run([&](sim::Actor& self) {
          if (self.node() != 0) return;
          Blob out;
          for (std::int64_t i = 0; i < ops; ++i) {
            map.find(static_cast<std::uint64_t>(self.rank()) * ops + i, &out);
          }
        });
        hcl_find.gbps = gbps(volume, ctx.elapsed_seconds());
        // Release the budget consumed by this size before the next one.
        ctx.fabric().memory(target).release(
            ctx.fabric().memory(target).used(), 0);
      }

      // ---- BCL ----------------------------------------------------------
      {
        ctx.reset_measurement();
        core::ContainerOptions options;
        options.num_partitions = 1;
        options.first_node = target;
        try {
          bcl::HashMap<std::uint64_t, Blob> map(
              ctx, static_cast<std::size_t>(clients) * ops * 2, options,
              /*entry_bytes=*/static_cast<std::size_t>(size));
          std::atomic<bool> oom{false};
          ctx.run([&](sim::Actor& self) {
            if (self.node() != 0 || oom.load()) return;
            for (std::int64_t i = 0; i < ops; ++i) {
              Status st = map.insert(
                  static_cast<std::uint64_t>(self.rank()) * ops + i,
                  Blob{static_cast<std::uint64_t>(size)});
              if (st.code() == StatusCode::kOutOfMemory) {
                oom.store(true);
                return;
              }
            }
          });
          if (oom.load()) {
            bcl_ins.oom = bcl_find.oom = true;
          } else {
            bcl_ins.gbps = gbps(volume, ctx.elapsed_seconds());
            ctx.reset_measurement();
            ctx.run([&](sim::Actor& self) {
              if (self.node() != 0) return;
              Blob out;
              for (std::int64_t i = 0; i < ops; ++i) {
                (void)map.find(
                    static_cast<std::uint64_t>(self.rank()) * ops + i, &out);
              }
            });
            bcl_find.gbps = gbps(volume, ctx.elapsed_seconds());
          }
        } catch (const HclError& e) {
          if (e.code() != StatusCode::kOutOfMemory) throw;
          bcl_ins.oom = bcl_find.oom = true;  // static table didn't even fit
        }
        ctx.fabric().memory(0).release(ctx.fabric().memory(0).used(), 0);
        ctx.fabric().memory(1).release(ctx.fabric().memory(1).used(), 0);
      }

      char bcl_ins_s[16], bcl_find_s[16];
      if (bcl_ins.oom) {
        std::snprintf(bcl_ins_s, sizeof(bcl_ins_s), "%12s", "OOM");
        std::snprintf(bcl_find_s, sizeof(bcl_find_s), "%12s", "OOM");
      } else {
        std::snprintf(bcl_ins_s, sizeof(bcl_ins_s), "%12.2f", bcl_ins.gbps);
        std::snprintf(bcl_find_s, sizeof(bcl_find_s), "%12.2f", bcl_find.gbps);
        hcl_ins_sum += hcl_ins.gbps;
        bcl_ins_sum += bcl_ins.gbps;
        hcl_find_sum += hcl_find.gbps;
        bcl_find_sum += bcl_find.gbps;
        ++summed;
      }
      std::printf("%8s | %12.2f %s | %12.2f %s | %7.1fx %7.1fx\n",
                  human_bytes(size).c_str(), hcl_ins.gbps, bcl_ins_s,
                  hcl_find.gbps, bcl_find_s,
                  bcl_ins.oom ? 0.0 : hcl_ins.gbps / bcl_ins.gbps,
                  bcl_find.oom ? 0.0 : hcl_find.gbps / bcl_find.gbps);
    }
    if (summed > 0) {
      std::printf("mean over non-OOM sizes: HCL ins %.1f find %.1f | BCL ins %.1f find %.1f GB/s\n",
                  hcl_ins_sum / summed, hcl_find_sum / summed,
                  bcl_ins_sum / summed, bcl_find_sum / summed);
      mean_ins[intra ? 0 : 1] = hcl_ins_sum / summed;
      mean_find[intra ? 0 : 1] = hcl_find_sum / summed;
      mean_bcl_ins[intra ? 0 : 1] = bcl_ins_sum / summed;
      mean_bcl_find[intra ? 0 : 1] = bcl_find_sum / summed;
    }
    if (intra) {
      std::printf("paper: HCL plateaus ~45 (ins) / ~55 (find) GB/s from 32KB; "
                  "BCL averages ~4 / ~12 GB/s; HCL 2-20x (ins), 1.5-7.2x (find)\n\n");
    } else {
      std::printf("paper: HCL ~4-4.2 GB/s at 1MB; BCL 1.3 (ins) / 4 (find) GB/s; "
                  "HCL 3.1-12x (ins), 1.1-9x (find); BCL OOM above 1MB\n\n");
    }
  }
  write_json(
      "BENCH_FIG5_HYBRID.json",
      jsonf("{\"bench\": \"fig5_hybrid\", \"clients\": %d, "
            "\"base_ops\": %" PRId64 ", "
            "\"intra_hcl_insert_gbps\": %.2f, \"intra_hcl_find_gbps\": %.2f, "
            "\"intra_bcl_insert_gbps\": %.2f, \"intra_bcl_find_gbps\": %.2f, "
            "\"inter_hcl_insert_gbps\": %.2f, \"inter_hcl_find_gbps\": %.2f, "
            "\"inter_bcl_insert_gbps\": %.2f, \"inter_bcl_find_gbps\": %.2f}",
            clients, base_ops, mean_ins[0], mean_find[0], mean_bcl_ins[0],
            mean_bcl_find[0], mean_ins[1], mean_find[1], mean_bcl_ins[1],
            mean_bcl_find[1]));
  print_footer();
  return 0;
}
