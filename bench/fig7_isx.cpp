// Figure 7(a) — ISx integer sort, weak scaling (§IV.D.1).
//
// Bucket sort over uniformly distributed keys, weak-scaled with node count
// (data per rank constant). HCL's variant pushes keys into per-node
// priority queues, so the sort cost hides behind the network; BCL pays
// per-key client-side queue pushes plus a local sort phase. Paper: BCL
// scales linearly to 686 s at 64 nodes; HCL scales sub-linearly (~1.4x per
// doubling) to 57 s — ~12x faster at the largest scale.
#include <cstdio>
#include <vector>

#include "apps/isx.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace hcl;         // NOLINT
  using namespace hcl::bench;  // NOLINT
  using namespace hcl::apps;   // NOLINT

  const Args args(argc, argv,

                  {kFullFlag,

                   kNodesFlag,

                   kProcsFlag,

                   kBudgetFlag,

                   {"--keys-per-rank", "ISx keys sorted per rank"}});
  const bool full = args.full();
  const int procs = static_cast<int>(args.get("--procs-per-node", 4));
  const auto keys = args.get("--keys-per-rank", full ? 1 << 14 : 1 << 10);
  // --nodes pins a single topology (paper headline: --nodes 64
  // --procs-per-node 40); --budget-s arms the wall-clock assert.
  const int only_nodes = static_cast<int>(args.get("--nodes", 0));
  const WallBudget budget(static_cast<double>(args.get("--budget-s", 0)));
  std::vector<int> node_counts = full ? std::vector<int>{8, 16, 32, 64}
                                      : std::vector<int>{2, 4, 8, 16};
  if (only_nodes > 0) node_counts = {only_nodes};

  print_header("Figure 7(a)", "ISx bucket sort, weak scaling");
  std::printf("procs/node=%d keys/rank=%" PRId64 " (weak scaling)\n\n", procs, keys);
  std::printf("%6s | %10s %10s | %8s | %8s %8s\n", "nodes", "HCL (s)",
              "BCL (s)", "BCL/HCL", "sortedH", "sortedB");

  double prev_hcl = 0;
  double last_hcl_s = 0, last_bcl_s = 0;
  bool last_sorted_hcl = false, last_sorted_bcl = false;
  std::int64_t failed_ops = 0;  // here: runs that produced an unsorted result
  for (int nodes : node_counts) {
    Context::Config cfg;
    cfg.num_nodes = nodes;
    cfg.procs_per_node = procs;
    cfg.model.node_memory_budget_bytes = 512LL << 30;
    Context ctx(cfg);

    IsxConfig isx;
    isx.keys_per_rank = static_cast<std::size_t>(keys);
    auto hcl_result = run_isx_hcl(ctx, isx);
    auto bcl_result = run_isx_bcl(ctx, isx);

    std::printf("%6d | %10.3f %10.3f | %7.1fx | %8s %8s", nodes,
                hcl_result.seconds, bcl_result.seconds,
                bcl_result.seconds / hcl_result.seconds,
                hcl_result.sorted ? "yes" : "NO",
                bcl_result.sorted ? "yes" : "NO");
    if (prev_hcl > 0) {
      std::printf("   (HCL growth per doubling: %.2fx)", hcl_result.seconds / prev_hcl);
    }
    std::printf("\n");
    prev_hcl = hcl_result.seconds;
    last_hcl_s = hcl_result.seconds;
    last_bcl_s = bcl_result.seconds;
    last_sorted_hcl = hcl_result.sorted;
    last_sorted_bcl = bcl_result.sorted;
    if (!hcl_result.sorted) ++failed_ops;
    if (!bcl_result.sorted) ++failed_ops;
    budget.check(jsonf("nodes=%d", nodes).c_str());
  }

  write_json(
      "BENCH_FIG7_ISX.json",
      jsonf("{\"bench\": \"fig7_isx\", \"nodes\": %d, \"procs_per_node\": %d, "
            "\"keys_per_rank\": %" PRId64 ", \"failed_ops\": %" PRId64 ", "
            "\"hcl_seconds\": %.3f, \"bcl_seconds\": %.3f, "
            "\"bcl_hcl_ratio\": %.2f, \"sorted_hcl\": %s, \"sorted_bcl\": %s}",
            node_counts.back(), procs, keys, failed_ops, last_hcl_s, last_bcl_s,
            last_bcl_s / last_hcl_s, last_sorted_hcl ? "true" : "false",
            last_sorted_bcl ? "true" : "false"));
  std::printf("wall: %.1f s%s\n", budget.elapsed_s(),
              budget.budget_s() > 0
                  ? jsonf(" (budget %.0f s)", budget.budget_s()).c_str()
                  : "");
  std::printf("\npaper: BCL 686 s at the largest scale, linear growth; HCL 57 s,\n"
              "~1.4x growth per doubling (the priority queue hides the sort).\n");
  hcl::bench::print_footer();
  return 0;
}
