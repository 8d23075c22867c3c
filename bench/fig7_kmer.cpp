// Figure 7(c) — Meraculous k-mer counting, weak scaling (§IV.D.2).
//
// A histogram of k-mer occurrences built in a distributed unordered map.
// HCL increments via one registered-mutator invocation per k-mer; BCL's
// client-side model needs probe + CAS-lock + read + write + CAS-unlock.
// Paper: HCL 2.17x faster at the smallest scale to 8x at the largest.
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
  const auto ref_per_node = args.get("--ref-per-node", full ? 50'000 : 4'000);
  std::vector<int> node_counts = full ? std::vector<int>{8, 16, 32, 64}
                                      : std::vector<int>{2, 4, 8, 16};

  print_header("Figure 7(c)", "Meraculous k-mer counting, weak scaling");
  std::printf("procs/node=%d reference bases/node=%" PRId64 " (weak scaling, k=21)\n\n",
              procs, ref_per_node);
  std::printf("%6s | %10s %10s | %8s | %12s\n", "nodes", "HCL (s)", "BCL (s)",
              "BCL/HCL", "kmers");

  double last_hcl_s = 0, last_bcl_s = 0;
  std::uint64_t last_kmers = 0;
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

    auto hcl_result = run_kmer_count_hcl(ctx, genome);
    auto bcl_result = run_kmer_count_bcl(ctx, genome);

    std::printf("%6d | %10.3f %10.3f | %7.2fx | %12" PRIu64 "\n", nodes,
                hcl_result.seconds, bcl_result.seconds,
                bcl_result.seconds / hcl_result.seconds, hcl_result.total_kmers);
    last_hcl_s = hcl_result.seconds;
    last_bcl_s = bcl_result.seconds;
    last_kmers = hcl_result.total_kmers;
  }
  write_json(
      "BENCH_FIG7_KMER.json",
      jsonf("{\"bench\": \"fig7_kmer\", \"nodes\": %d, \"procs_per_node\": %d, "
            "\"ref_per_node\": %" PRId64 ", "
            "\"hcl_seconds\": %.3f, \"bcl_seconds\": %.3f, "
            "\"bcl_hcl_ratio\": %.2f, \"kmers\": %" PRIu64 "}",
            node_counts.back(), procs, ref_per_node, last_hcl_s, last_bcl_s,
            last_bcl_s / last_hcl_s, last_kmers));
  std::printf("\npaper: HCL 2.17x faster at 8 nodes growing to 8x at 64 nodes.\n");
  print_footer();
  return 0;
}
