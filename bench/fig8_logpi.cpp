// Figure 8 — distributed log pseudo-indexing, weak scaling + A12 ablation.
//
// A logpi-style inverted index (token -> posting list of line offsets):
// a write-heavy batched ingest phase, then an interactive phase of
// multi-term AND/OR queries over Zipfian-skewed terms. HCL ships flushes
// through insert_batch and appends duplicate tokens with ONE server-side
// mutator invocation; queries go through find_batch. BCL pays a full
// client-side rmw (probe + CAS-lock + read + write + unlock) per posting
// chunk and a scalar find per term. Both variants index the same
// deterministic stream, so the query checksums must agree exactly.
//
// The A12 rows re-run the same workload at a small fixed topology with one
// subsystem armed at a time — read cache, heat-driven rebalancing, shm
// tier — and must converge to the baseline checksum (the subsystems buy
// time, never different answers).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/logpi.h"
#include "bench_util.h"

namespace {

hcl::apps::LogpiConfig make_config(const hcl::bench::Args& args) {
  hcl::apps::LogpiConfig config;
  config.lines_per_rank =
      static_cast<std::size_t>(args.get("--lines-per-rank", 128));
  config.tokens_per_line = static_cast<int>(args.get("--tokens-per-line", 4));
  config.vocab = static_cast<std::uint64_t>(args.get("--vocab", 4096));
  config.theta = static_cast<double>(args.get("--theta-x100", 99)) / 100.0;
  // The ingest:query mix knob — queries issued per rank against
  // lines_per_rank lines ingested per rank.
  config.queries_per_rank =
      static_cast<std::size_t>(args.get("--queries-per-rank", 64));
  config.terms_per_query = static_cast<int>(args.get("--terms", 3));
  config.flush_lines = static_cast<std::size_t>(args.get("--flush-lines", 64));
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hcl;         // NOLINT
  using namespace hcl::bench;  // NOLINT
  using namespace hcl::apps;   // NOLINT

  // Determinism contract: the BCL rmw lock dance resolves CAS rivalry in
  // real-thread order, so with >1 multiplexer worker the simulated times
  // (not the checksums) wobble run-to-run. Pin the canonical one-worker
  // schedule so BENCH_*.json is byte-stable; HCL_SIM_THREADS still wins
  // when set explicitly.
  setenv("HCL_SIM_THREADS", "1", /*overwrite=*/0);

  const Args args(argc, argv,

                  {kFullFlag,

                   kNodesFlag,

                   kProcsFlag,

                   kBudgetFlag,

                   {"--lines-per-rank", "log lines ingested per rank"},

                   {"--tokens-per-line", "address tokens per line"},

                   {"--vocab", "token universe size"},

                   {"--theta-x100", "Zipfian skew theta x 100"},

                   {"--queries-per-rank", "multi-term queries per rank"},

                   {"--terms", "terms per AND/OR query"},

                   {"--flush-lines", "lines buffered between insert_batch flushes"}});
  const bool full = args.full();
  const int procs = static_cast<int>(args.get("--procs-per-node", 4));
  // --nodes pins a single topology (paper-style headline: --nodes 64
  // --procs-per-node 40); --budget-s arms the wall-clock assert.
  const int only_nodes = static_cast<int>(args.get("--nodes", 0));
  const WallBudget budget(static_cast<double>(args.get("--budget-s", 0)));
  std::vector<int> node_counts = full ? std::vector<int>{8, 16, 32, 64}
                                      : std::vector<int>{2, 4, 8, 16};
  if (only_nodes > 0) node_counts = {only_nodes};

  const LogpiConfig config = make_config(args);

  print_header("Figure 8", "logpi inverted index: batched ingest + skewed multi-term queries");
  std::printf("procs/node=%d lines/rank=%zu queries/rank=%zu vocab=%llu "
              "theta=%.2f terms=%d (weak scaling)\n\n",
              procs, config.lines_per_rank, config.queries_per_rank,
              static_cast<unsigned long long>(config.vocab), config.theta,
              config.terms_per_query);
  std::printf("%6s | %9s %9s | %9s %9s | %7s %7s | %5s\n", "nodes",
              "ingestH", "queryH", "ingestB", "queryB", "ing B/H", "qry B/H",
              "match");

  std::int64_t failed_ops = 0;
  LogpiResult last_hcl, last_bcl;
  int last_nodes = 0;
  for (int nodes : node_counts) {
    Context::Config cfg;
    cfg.num_nodes = nodes;
    cfg.procs_per_node = procs;
    cfg.model.node_memory_budget_bytes = 512LL << 30;
    Context ctx(cfg);

    const LogpiResult h = run_logpi_hcl(ctx, config);
    const LogpiResult b = run_logpi_bcl(ctx, config);
    const bool match = h.query_checksum == b.query_checksum &&
                       h.postings == b.postings &&
                       h.distinct_tokens == b.distinct_tokens;
    failed_ops += h.failed_ops + b.failed_ops + (match ? 0 : 1);

    std::printf("%6d | %9.3f %9.3f | %9.3f %9.3f | %6.1fx %6.1fx | %5s\n",
                nodes, h.ingest_seconds, h.query_seconds, b.ingest_seconds,
                b.query_seconds, b.ingest_seconds / h.ingest_seconds,
                b.query_seconds / h.query_seconds, match ? "yes" : "NO");
    last_hcl = h;
    last_bcl = b;
    last_nodes = nodes;
    budget.check(jsonf("nodes=%d", nodes).c_str());
  }

  // --- A12: subsystem ablation rows at a fixed small topology -------------
  // One mechanism armed per row; every row must converge to the baseline
  // query checksum. Topology is fixed (4x8) so these rows are identical no
  // matter which --nodes the curve above ran at.
  struct A12Row {
    const char* name;
    double ingest_ms = 0, query_ms = 0;
    std::uint64_t checksum = 0;
    std::int64_t failed = 0;
  };
  std::vector<A12Row> rows;
  const auto a12 = [&](const char* name, bool shm_on,
                       core::ContainerOptions options) {
    Context::Config cfg;
    cfg.num_nodes = 4;
    cfg.procs_per_node = 8;
    cfg.model.node_memory_budget_bytes = 512LL << 30;
    if (shm_on) {
      cfg.shm.enabled = true;
      cfg.shm.pod_nodes = 2;
    }
    Context ctx(cfg);
    const LogpiResult r = run_logpi_hcl(ctx, config, options);
    rows.push_back({name, r.ingest_seconds * 1e3, r.query_seconds * 1e3,
                    r.query_checksum, r.failed_ops});
    budget.check(jsonf("A12 %s", name).c_str());
  };

  a12("baseline", false, {});
  {
    core::ContainerOptions o;
    o.cache.mode = cache::CacheMode::kInvalidate;
    o.cache.capacity = 4096;
    a12("cache", false, o);
  }
  {
    core::ContainerOptions o;
    o.rebalance.enabled = true;
    o.rebalance.min_ops = 256;
    o.rebalance.cooldown_ops = 256;
    a12("rebalance", false, o);
  }
  a12("shm", true, {});

  std::printf("\nA12 (4x8 fixed topology, one subsystem armed per row):\n");
  std::printf("%10s | %10s %10s | %9s\n", "variant", "ingest ms", "query ms",
              "converged");
  bool a12_converged = true;
  for (const auto& row : rows) {
    const bool ok = row.checksum == rows.front().checksum && row.failed == 0;
    a12_converged = a12_converged && ok;
    std::printf("%10s | %10.3f %10.3f | %9s\n", row.name, row.ingest_ms,
                row.query_ms, ok ? "yes" : "NO");
  }
  if (!a12_converged) ++failed_ops;

  const bool last_match = last_hcl.query_checksum == last_bcl.query_checksum;
  write_json(
      "BENCH_FIG8_LOGPI.json",
      jsonf("{\"bench\": \"fig8_logpi\", \"nodes\": %d, \"procs_per_node\": %d, "
            "\"lines_per_rank\": %zu, \"queries_per_rank\": %zu, "
            "\"vocab\": %llu, \"theta_x100\": %d, \"failed_ops\": %" PRId64 ", "
            "\"hcl_ingest_seconds\": %.3f, \"hcl_query_seconds\": %.3f, "
            "\"bcl_ingest_seconds\": %.3f, \"bcl_query_seconds\": %.3f, "
            "\"ingest_bcl_hcl_ratio\": %.2f, \"query_bcl_hcl_ratio\": %.2f, "
            "\"batch_inserted\": %llu, \"appends\": %llu, "
            "\"distinct_tokens\": %llu, \"query_hits\": %llu, "
            "\"query_checksum\": %llu, \"checksum_match\": %s}",
            last_nodes, procs, config.lines_per_rank, config.queries_per_rank,
            static_cast<unsigned long long>(config.vocab),
            static_cast<int>(config.theta * 100.0 + 0.5), failed_ops,
            last_hcl.ingest_seconds, last_hcl.query_seconds,
            last_bcl.ingest_seconds, last_bcl.query_seconds,
            last_bcl.ingest_seconds / last_hcl.ingest_seconds,
            last_bcl.query_seconds / last_hcl.query_seconds,
            static_cast<unsigned long long>(last_hcl.batch_inserted),
            static_cast<unsigned long long>(last_hcl.appends),
            static_cast<unsigned long long>(last_hcl.distinct_tokens),
            static_cast<unsigned long long>(last_hcl.query_hits),
            static_cast<unsigned long long>(last_hcl.query_checksum),
            last_match ? "true" : "false"));
  write_json(
      "BENCH_A12.json",
      jsonf("{\"ablation\": \"A12\", \"app\": \"logpi\", \"nodes\": 4, "
            "\"procs_per_node\": 8, "
            "\"baseline_ingest_ms\": %.3f, \"baseline_query_ms\": %.3f, "
            "\"cache_ingest_ms\": %.3f, \"cache_query_ms\": %.3f, "
            "\"rebalance_ingest_ms\": %.3f, \"rebalance_query_ms\": %.3f, "
            "\"shm_ingest_ms\": %.3f, \"shm_query_ms\": %.3f, "
            "\"cache_query_speedup\": %.2f, \"shm_ingest_speedup\": %.2f, "
            "\"converged\": %s}",
            rows[0].ingest_ms, rows[0].query_ms, rows[1].ingest_ms,
            rows[1].query_ms, rows[2].ingest_ms, rows[2].query_ms,
            rows[3].ingest_ms, rows[3].query_ms,
            rows[0].query_ms / rows[1].query_ms,
            rows[0].ingest_ms / rows[3].ingest_ms,
            a12_converged ? "true" : "false"));

  std::printf("wall: %.1f s%s\n", budget.elapsed_s(),
              budget.budget_s() > 0
                  ? jsonf(" (budget %.0f s)", budget.budget_s()).c_str()
                  : "");
  std::printf("\nHCL amortizes the flush (one insert_batch per %zu lines, one\n"
              "server-side mutator per duplicate token) and batches query terms;\n"
              "BCL pays a client-side lock dance per posting chunk and a round\n"
              "trip per term.\n",
              config.flush_lines);
  hcl::bench::print_footer();
  return 0;
}
