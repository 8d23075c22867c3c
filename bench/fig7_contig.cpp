// Figure 7(b) — Meraculous contig generation, weak scaling (§IV.D.2).
//
// Builds a de Bruijn graph of overlapping k-mers in a distributed unordered
// map (read-modify-write of extension masks), then walks unique-extension
// chains to emit contigs (find-dominated). Paper: HCL 1.8x faster at the
// smallest scale to 12x at the largest.
#include <cstdio>
#include <vector>

#include "apps/meraculous.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace hcl;         // NOLINT
  using namespace hcl::bench;  // NOLINT
  using namespace hcl::apps;   // NOLINT

  const Args args(argc, argv,

                  {kFullFlag,

                   kProcsFlag,

                   {"--ref-per-node", "synthetic reference length per node"}});
  const bool full = args.full();
  const int procs = static_cast<int>(args.get("--procs-per-node", 4));
  const auto ref_per_node = args.get("--ref-per-node", full ? 50'000 : 3'000);
  std::vector<int> node_counts = full ? std::vector<int>{8, 16, 32, 64}
                                      : std::vector<int>{2, 4, 8, 16};

  print_header("Figure 7(b)", "Meraculous contig generation, weak scaling");
  std::printf("procs/node=%d reference bases/node=%" PRId64 " (weak scaling, k=21)\n\n",
              procs, ref_per_node);
  std::printf("%6s | %10s %10s | %8s | %9s %12s\n", "nodes", "HCL (s)",
              "BCL (s)", "BCL/HCL", "contigs", "bases");

  double last_hcl_s = 0, last_bcl_s = 0;
  std::uint64_t last_contigs = 0, last_bases = 0;
  for (int nodes : node_counts) {
    Context::Config cfg;
    cfg.num_nodes = nodes;
    cfg.procs_per_node = procs;
    cfg.model.node_memory_budget_bytes = 512LL << 30;
    Context ctx(cfg);

    GenomeConfig g;
    g.reference_length = static_cast<std::size_t>(ref_per_node) * nodes;
    g.read_length = 100;
    g.coverage = 3.0;
    g.k = 21;
    auto genome = generate_genome(g);

    auto hcl_result = run_contig_hcl(ctx, genome);
    auto bcl_result = run_contig_bcl(ctx, genome);

    std::printf("%6d | %10.3f %10.3f | %7.2fx | %9" PRIu64 " %12" PRIu64 "\n",
                nodes, hcl_result.seconds, bcl_result.seconds,
                bcl_result.seconds / hcl_result.seconds, hcl_result.contigs,
                hcl_result.total_bases);
    last_hcl_s = hcl_result.seconds;
    last_bcl_s = bcl_result.seconds;
    last_contigs = hcl_result.contigs;
    last_bases = hcl_result.total_bases;
  }
  write_json(
      "BENCH_FIG7_CONTIG.json",
      jsonf("{\"bench\": \"fig7_contig\", \"nodes\": %d, "
            "\"procs_per_node\": %d, \"ref_per_node\": %" PRId64 ", "
            "\"hcl_seconds\": %.3f, \"bcl_seconds\": %.3f, "
            "\"bcl_hcl_ratio\": %.2f, \"contigs\": %" PRIu64 ", "
            "\"bases\": %" PRIu64 "}",
            node_counts.back(), procs, ref_per_node, last_hcl_s, last_bcl_s,
            last_bcl_s / last_hcl_s, last_contigs, last_bases));
  std::printf("\npaper: HCL 1.8x faster at 8 nodes growing to 12x at 64 nodes.\n");
  print_footer();
  return 0;
}
