// Figure 6(b) — scaling the distributed sets (§IV.C).
//
// Same sweep as Fig. 6(a) with HCL::unordered_set and HCL::set (BCL has no
// set). Paper shapes: close-to-linear scaling (~620K op/s at 64 partitions);
// sets 7-14% faster than the map counterparts (no value serialized); the
// ordered set slower than the unordered one.
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

using namespace hcl;         // NOLINT
using namespace hcl::bench;  // NOLINT

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv,
                  {kFullFlag,
                   kProcsFlag,
                   {"--ops", "operations per client"},
                   {"--bytes", "payload bytes per op"}});
  const bool full = args.full();
  const int procs = static_cast<int>(args.get("--procs-per-node", full ? 40 : 4));
  const auto ops = args.get("--ops", full ? 8192 : 128);
  const std::int64_t op_bytes = args.get("--bytes", 64 << 10);
  std::vector<int> node_counts = full ? std::vector<int>{8, 16, 32, 64}
                                      : std::vector<int>{4, 8, 16, 32};

  print_header("Figure 6(b)", "set scaling with partition count");
  std::printf("procs/node=%d ops/client=%" PRId64 "\n\n", procs, ops);
  std::printf("%6s | %14s %14s | %14s | %16s\n", "nodes", "uset ins op/s",
              "set ins op/s", "uset find op/s", "uset vs umap ins");

  double last_uset_ins = 0, last_uset_find = 0, last_oset_ins = 0;
  double last_uset_vs_umap_pct = 0;
  for (int nodes : node_counts) {
    Context::Config cfg;
    cfg.num_nodes = nodes;
    cfg.procs_per_node = procs;
    cfg.model.node_memory_budget_bytes = 512LL << 30;
    Context ctx(cfg);
    const std::int64_t total_ops =
        static_cast<std::int64_t>(nodes) * procs * ops;
    auto tp = [&](double s) {
      return s > 0 ? static_cast<double>(total_ops) / s : 0;
    };

    // Map with same payload, as the 7-14%-faster comparison anchor.
    double umap_ins = 0;
    {
      unordered_map<std::uint64_t, Blob> m(ctx);
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        for (std::int64_t i = 0; i < ops; ++i) {
          m.insert(static_cast<std::uint64_t>(self.rank()) * ops + i,
                   Blob{static_cast<std::uint64_t>(op_bytes)});
        }
      });
      umap_ins = tp(ctx.elapsed_seconds());
    }

    double uset_ins = 0, uset_find = 0, oset_ins = 0;
    {
      // Set keys carry the payload (the element IS the key): same bytes as
      // the map's key+value minus the value framing.
      unordered_set<std::uint64_t> s(ctx);
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        for (std::int64_t i = 0; i < ops; ++i) {
          s.insert(static_cast<std::uint64_t>(self.rank()) * ops + i);
        }
      });
      uset_ins = tp(ctx.elapsed_seconds());
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        for (std::int64_t i = 0; i < ops; ++i) {
          s.find(static_cast<std::uint64_t>(self.rank()) * ops + i);
        }
      });
      uset_find = tp(ctx.elapsed_seconds());
    }
    {
      set<std::uint64_t> s(ctx);
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        for (std::int64_t i = 0; i < ops; ++i) {
          s.insert(static_cast<std::uint64_t>(self.rank()) * ops + i);
        }
      });
      oset_ins = tp(ctx.elapsed_seconds());
    }

    std::printf("%6d | %12.0f/s %12.0f/s | %12.0f/s | %+14.0f%%\n", nodes,
                uset_ins, oset_ins, uset_find,
                100.0 * (uset_ins / umap_ins - 1.0));
    last_uset_ins = uset_ins;
    last_uset_find = uset_find;
    last_oset_ins = oset_ins;
    last_uset_vs_umap_pct = 100.0 * (uset_ins / umap_ins - 1.0);
  }
  write_json(
      "BENCH_FIG6_SETS.json",
      jsonf("{\"bench\": \"fig6_sets\", \"nodes\": %d, \"procs_per_node\": %d, "
            "\"ops_per_client\": %" PRId64 ", "
            "\"uset_insert_ops_s\": %.0f, \"oset_insert_ops_s\": %.0f, "
            "\"uset_find_ops_s\": %.0f, \"uset_vs_umap_insert_pct\": %.2f}",
            node_counts.back(), procs, ops, last_uset_ins, last_oset_ins,
            last_uset_find, last_uset_vs_umap_pct));
  std::printf("\npaper: unordered_set ~620K op/s at 64 partitions, ~linear;\n"
              "sets 7-14%% faster than maps; ordered set slower than unordered.\n");
  print_footer();
  return 0;
}
