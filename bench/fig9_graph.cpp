// Figure 9 — MetallGraph-style graph store: transactional edge ingest,
// degree queries, k-hop BFS; weak scaling + hop-depth sweep + A13 ablation.
//
// Vertices and adjacency live in two sharded containers. HCL bulk-upserts
// vertices through the atomic multi_put shape, streams edges into per-node
// queue lanes, and drains them in small batches — one cross-container
// transaction per batch (pops + both endpoints' adjacency RMWs — never a
// half-inserted edge);
// traversal reads adjacency frontier-by-frontier through find_batch. BCL
// appends each endpoint with an independent client-side rmw lock dance and
// traverses with scalar finds. Both build the same adjacency multiset, so
// the BFS and degree checksums must agree exactly.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/graph_store.h"
#include "bench_util.h"

namespace {

hcl::apps::GraphConfig make_config(const hcl::bench::Args& args, int ranks) {
  hcl::apps::GraphConfig config;
  config.vertices = static_cast<std::uint64_t>(
                        args.get("--verts-per-rank", 32)) *
                    static_cast<std::uint64_t>(ranks);
  config.avg_degree =
      static_cast<double>(args.get("--avg-degree", 6));
  config.khop = static_cast<int>(args.get("--khop", 2));
  config.bfs_sources = static_cast<int>(args.get("--bfs-sources", 8));
  config.degree_samples =
      static_cast<std::size_t>(args.get("--degree-samples", 32));
  config.drainers_per_node =
      static_cast<int>(args.get("--drainers-per-node", 1));
  config.edges_per_txn =
      static_cast<std::size_t>(args.get("--edges-per-txn", 1));
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hcl;         // NOLINT
  using namespace hcl::bench;  // NOLINT
  using namespace hcl::apps;   // NOLINT

  // Determinism contract: OCC epoch validation (and the BCL CAS dance)
  // resolves same-instant rivals in real-thread order, so with >1
  // multiplexer worker the abort counts and simulated times (not the
  // checksums) wobble run-to-run. Pin the canonical one-worker schedule
  // so BENCH_*.json is byte-stable; HCL_SIM_THREADS still wins when set
  // explicitly.
  setenv("HCL_SIM_THREADS", "1", /*overwrite=*/0);

  const Args args(argc, argv,

                  {kFullFlag,

                   kNodesFlag,

                   kProcsFlag,

                   kBudgetFlag,

                   {"--verts-per-rank", "vertices per rank"},

                   {"--avg-degree", "average undirected degree"},

                   {"--khop", "BFS traversal depth"},

                   {"--bfs-sources", "BFS source vertices per run"},

                   {"--degree-samples", "degree probes per rank"},

                   {"--drainers-per-node", "ranks per node draining edge lanes"},

                   {"--edges-per-txn", "edges per drain transaction"}});
  const bool full = args.full();
  const int procs = static_cast<int>(args.get("--procs-per-node", 4));
  // --nodes pins a single topology (paper-style headline: --nodes 64
  // --procs-per-node 40); --budget-s arms the wall-clock assert.
  const int only_nodes = static_cast<int>(args.get("--nodes", 0));
  const WallBudget budget(static_cast<double>(args.get("--budget-s", 0)));
  std::vector<int> node_counts = full ? std::vector<int>{8, 16, 32, 64}
                                      : std::vector<int>{2, 4, 8, 16};
  if (only_nodes > 0) node_counts = {only_nodes};

  print_header("Figure 9",
               "graph store: txn edge ingest, degree queries, k-hop BFS");
  std::printf("procs/node=%d verts/rank=%" PRId64 " avg-degree=%" PRId64
              " khop=%" PRId64 " (weak scaling)\n\n",
              procs, args.get("--verts-per-rank", 32),
              args.get("--avg-degree", 6), args.get("--khop", 2));
  std::printf("%6s | %9s %9s | %9s %9s | %7s %7s | %5s\n", "nodes", "buildH",
              "queryH(ms)", "buildB", "queryB(ms)", "bld B/H", "qry B/H",
              "match");

  std::int64_t failed_ops = 0;
  GraphResult last_hcl, last_bcl;
  int last_nodes = 0;
  for (int nodes : node_counts) {
    Context::Config cfg;
    cfg.num_nodes = nodes;
    cfg.procs_per_node = procs;
    cfg.model.node_memory_budget_bytes = 512LL << 30;
    Context ctx(cfg);

    const GraphConfig config = make_config(args, nodes * procs);
    const GraphResult h = run_graph_hcl(ctx, config);
    const GraphResult b = run_graph_bcl(ctx, config);
    const bool match = h.bfs_checksum == b.bfs_checksum &&
                       h.degree_checksum == b.degree_checksum &&
                       h.transferred == h.edges;
    failed_ops += h.failed_ops + b.failed_ops + (match ? 0 : 1);

    std::printf("%6d | %9.3f %9.3f | %9.3f %9.3f | %6.1fx %6.1fx | %5s\n",
                nodes, h.build_seconds, h.query_seconds * 1e3, b.build_seconds,
                b.query_seconds * 1e3, b.build_seconds / h.build_seconds,
                b.query_seconds / h.query_seconds, match ? "yes" : "NO");
    last_hcl = h;
    last_bcl = b;
    last_nodes = nodes;
    budget.check(jsonf("nodes=%d", nodes).c_str());
  }

  // --- Hop-depth sweep at a fixed small topology ---------------------------
  // Deeper traversals grow the frontier, so HCL's find_batch amortization
  // widens against BCL's per-vertex round trips.
  std::printf("\nhop-depth sweep (4x8 fixed topology):\n");
  std::printf("%5s | %9s %9s | %7s | %8s\n", "khop", "queryH(ms)",
              "queryB(ms)", "qry B/H", "reached");
  for (int khop : {1, 2, 3}) {
    Context::Config cfg;
    cfg.num_nodes = 4;
    cfg.procs_per_node = 8;
    cfg.model.node_memory_budget_bytes = 512LL << 30;
    Context ctx(cfg);
    GraphConfig config = make_config(args, 32);
    config.khop = khop;
    const GraphResult h = run_graph_hcl(ctx, config);
    const GraphResult b = run_graph_bcl(ctx, config);
    const bool match = h.bfs_checksum == b.bfs_checksum;
    failed_ops += h.failed_ops + b.failed_ops + (match ? 0 : 1);
    std::printf("%5d | %9.3f %9.3f | %6.1fx | %8llu%s\n", khop,
                h.query_seconds * 1e3, b.query_seconds * 1e3,
                b.query_seconds / h.query_seconds,
                static_cast<unsigned long long>(h.bfs_reached),
                match ? "" : "  MISMATCH");
    budget.check(jsonf("khop=%d", khop).c_str());
  }

  // --- A13: subsystem ablation rows at a fixed small topology --------------
  struct A13Row {
    const char* name;
    double build_ms = 0, query_ms = 0;
    std::uint64_t bfs_checksum = 0, degree_checksum = 0, transferred = 0,
                  edges = 0;
    std::int64_t failed = 0;
  };
  std::vector<A13Row> rows;
  const auto a13 = [&](const char* name, bool shm_on,
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
    const GraphResult r = run_graph_hcl(ctx, make_config(args, 32), options);
    rows.push_back({name, r.build_seconds * 1e3, r.query_seconds * 1e3,
                    r.bfs_checksum, r.degree_checksum, r.transferred, r.edges,
                    r.failed_ops});
    budget.check(jsonf("A13 %s", name).c_str());
  };

  a13("baseline", false, {});
  {
    core::ContainerOptions o;
    o.cache.mode = cache::CacheMode::kInvalidate;
    o.cache.capacity = 4096;
    a13("cache", false, o);
  }
  {
    core::ContainerOptions o;
    o.rebalance.enabled = true;
    o.rebalance.min_ops = 256;
    o.rebalance.cooldown_ops = 256;
    a13("rebalance", false, o);
  }
  a13("shm", true, {});

  std::printf("\nA13 (4x8 fixed topology, one subsystem armed per row):\n");
  std::printf("%10s | %10s %10s | %11s %6s | %9s\n", "variant", "build ms",
              "query ms", "moved", "failed", "converged");
  bool a13_converged = true;
  for (const auto& row : rows) {
    const bool ok = row.bfs_checksum == rows.front().bfs_checksum &&
                    row.degree_checksum == rows.front().degree_checksum &&
                    row.transferred == row.edges && row.failed == 0;
    a13_converged = a13_converged && ok;
    std::printf("%10s | %10.3f %10.3f | %5llu/%-5llu %6" PRId64 " | %9s\n",
                row.name, row.build_ms, row.query_ms,
                static_cast<unsigned long long>(row.transferred),
                static_cast<unsigned long long>(row.edges), row.failed,
                ok ? "yes" : "NO");
  }
  if (!a13_converged) ++failed_ops;

  const bool last_match = last_hcl.bfs_checksum == last_bcl.bfs_checksum;
  write_json(
      "BENCH_FIG9_GRAPH.json",
      jsonf("{\"bench\": \"fig9_graph\", \"nodes\": %d, \"procs_per_node\": %d, "
            "\"vertices\": %llu, \"edges\": %llu, \"khop\": %d, "
            "\"failed_ops\": %" PRId64 ", "
            "\"hcl_build_seconds\": %.3f, \"hcl_query_ms\": %.3f, "
            "\"bcl_build_seconds\": %.3f, \"bcl_query_ms\": %.3f, "
            "\"build_bcl_hcl_ratio\": %.2f, \"query_bcl_hcl_ratio\": %.2f, "
            "\"transferred\": %llu, \"bfs_reached\": %llu, "
            "\"bfs_checksum\": %llu, \"txn_commits\": %" PRId64 ", "
            "\"txn_aborts\": %" PRId64 ", \"checksum_match\": %s}",
            last_nodes, procs,
            static_cast<unsigned long long>(last_hcl.vertices),
            static_cast<unsigned long long>(last_hcl.edges),
            static_cast<int>(args.get("--khop", 2)), failed_ops,
            last_hcl.build_seconds, last_hcl.query_seconds * 1e3,
            last_bcl.build_seconds, last_bcl.query_seconds * 1e3,
            last_bcl.build_seconds / last_hcl.build_seconds,
            last_bcl.query_seconds / last_hcl.query_seconds,
            static_cast<unsigned long long>(last_hcl.transferred),
            static_cast<unsigned long long>(last_hcl.bfs_reached),
            static_cast<unsigned long long>(last_hcl.bfs_checksum),
            last_hcl.txn_commits, last_hcl.txn_aborts,
            last_match ? "true" : "false"));
  write_json(
      "BENCH_A13.json",
      jsonf("{\"ablation\": \"A13\", \"app\": \"graph_store\", \"nodes\": 4, "
            "\"procs_per_node\": 8, "
            "\"baseline_build_ms\": %.3f, \"baseline_query_ms\": %.3f, "
            "\"cache_build_ms\": %.3f, \"cache_query_ms\": %.3f, "
            "\"rebalance_build_ms\": %.3f, \"rebalance_query_ms\": %.3f, "
            "\"shm_build_ms\": %.3f, \"shm_query_ms\": %.3f, "
            "\"cache_query_speedup\": %.2f, \"shm_build_speedup\": %.2f, "
            "\"converged\": %s}",
            rows[0].build_ms, rows[0].query_ms, rows[1].build_ms,
            rows[1].query_ms, rows[2].build_ms, rows[2].query_ms,
            rows[3].build_ms, rows[3].query_ms,
            rows[0].query_ms / rows[1].query_ms,
            rows[0].build_ms / rows[3].build_ms,
            a13_converged ? "true" : "false"));

  std::printf("wall: %.1f s%s\n", budget.elapsed_s(),
              budget.budget_s() > 0
                  ? jsonf(" (budget %.0f s)", budget.budget_s()).c_str()
                  : "");
  std::printf("\nHCL drains edges in atomic pop+RMW transaction batches and batches\n"
              "BFS frontiers; BCL pays two independent lock dances per edge (no\n"
              "cross-endpoint atomicity) and a round trip per vertex.\n");
  hcl::bench::print_footer();
  return 0;
}
