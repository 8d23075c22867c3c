// Table I — operation cost model validation.
//
// The paper expresses each container operation's cost as a formula over
//   F (remote function invocations), L (local ops), R (local reads),
//   W (local writes), N (entries), E (elements).
// This bench performs one remote-partition operation per row, reads the
// library's operation counters, and prints measured counts against the
// paper's formula. A second section verifies the hybrid model: co-located
// operations cost 0 F.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace hcl;         // NOLINT
using namespace hcl::bench;  // NOLINT

struct Row {
  const char* structure;
  const char* op;
  const char* formula;
  core::OpStats::Snapshot got;
};

std::vector<Row> g_rows;

void report(const char* structure, const char* op, const char* formula,
            Context& ctx) {
  g_rows.push_back({structure, op, formula, ctx.op_stats().snapshot()});
  ctx.reset_measurement();
}

/// First key whose partition is remote (resp. local) for rank 0.
template <typename C>
int pick_key(C& container, Context& ctx, bool want_local) {
  for (int k = 0;; ++k) {
    const bool local = container.partition_owner(container.partition_of(k)) ==
                       ctx.topology().node_of(0);
    if (local == want_local) return k;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, {});  // no flags; --help still answers
  print_header("Table I", "per-operation cost accounting (F / L / R / W)");

  Context::Config cfg;
  cfg.num_nodes = 2;
  cfg.procs_per_node = 1;
  cfg.model = sim::CostModel::zero();
  Context ctx(cfg);

  // ---- unordered_map -----------------------------------------------------
  {
    unordered_map<int, int> m(ctx);
    const int rk = pick_key(m, ctx, false);
    const int lk = pick_key(m, ctx, true);
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { m.insert(rk, 1); });
    report("unordered_map", "insert (remote)", "F + L + W", ctx);
    ctx.run_one(0, [&](sim::Actor&) { int v; m.find(rk, &v); });
    report("unordered_map", "find (remote)", "F + L + R", ctx);
    ctx.run_one(0, [&](sim::Actor&) { m.insert(lk, 1); });
    report("unordered_map", "insert (hybrid)", "L + W (no F)", ctx);
    ctx.run_one(0, [&](sim::Actor&) { m.resize(1, 4096); });
    report("unordered_map", "resize (remote)", "F + N(R + W)", ctx);
  }

  // ---- map (ordered) -----------------------------------------------------
  {
    map<int, int> m(ctx);
    const int rk = pick_key(m, ctx, false);
    // Populate so log N > 1 is visible in L.
    ctx.run_one(0, [&](sim::Actor&) {
      for (int i = 0; i < 64; ++i) m.insert(rk + 1000 + i * 2, i);
    });
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { m.insert(rk, 1); });
    report("map", "insert (remote)", "F + L*logN + W", ctx);
    ctx.run_one(0, [&](sim::Actor&) { int v; m.find(rk, &v); });
    report("map", "find (remote)", "F + L*logN + R", ctx);
  }

  // ---- unordered_set -------------------------------------------------------
  {
    unordered_set<int> s(ctx);
    const int rk = pick_key(s, ctx, false);
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { s.insert(rk); });
    report("unordered_set", "insert (remote)", "F + L + W", ctx);
    ctx.run_one(0, [&](sim::Actor&) { s.find(rk); });
    report("unordered_set", "find (remote)", "F + L + R", ctx);
  }

  // ---- set (ordered) -------------------------------------------------------
  {
    set<int> s(ctx);
    const int rk = pick_key(s, ctx, false);
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { s.insert(rk); });
    report("set", "insert (remote)", "F + L*logN + W", ctx);
    ctx.run_one(0, [&](sim::Actor&) { s.find(rk); });
    report("set", "find (remote)", "F + L*logN + R", ctx);
  }

  // ---- queue ---------------------------------------------------------------
  {
    core::ContainerOptions options;
    options.first_node = 1;  // remote from rank 0
    queue<int> q(ctx, options);
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { q.push(7); });
    report("queue", "push (remote)", "F + L + W", ctx);
    ctx.run_one(0, [&](sim::Actor&) { int v; q.pop(&v); });
    report("queue", "pop (remote)", "F + L + R", ctx);
    ctx.run_one(0, [&](sim::Actor&) {
      q.push(std::vector<int>{1, 2, 3, 4});
    });
    report("queue", "push bulk E=4", "F + L + E*W", ctx);
    ctx.run_one(0, [&](sim::Actor&) {
      std::vector<int> out;
      q.pop(&out, 4);
    });
    report("queue", "pop bulk E=4", "F + L + E*R", ctx);
  }

  // ---- priority_queue --------------------------------------------------------
  {
    core::ContainerOptions options;
    options.first_node = 1;
    priority_queue<int> pq(ctx, options);
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { pq.push(7); });
    report("priority_queue", "push (remote)", "F + L*logN + W", ctx);
    ctx.run_one(0, [&](sim::Actor&) { int v; pq.pop(&v); });
    report("priority_queue", "pop (remote)", "F + L + R", ctx);
  }

  std::printf("%-16s %-18s %-18s %4s %4s %4s %4s\n", "structure", "operation",
              "paper formula", "F", "L", "R", "W");
  for (const auto& row : g_rows) {
    std::printf("%-16s %-18s %-18s %4" PRId64 " %4" PRId64 " %4" PRId64
                " %4" PRId64 "\n",
                row.structure, row.op, row.formula, row.got.remote_invocations,
                row.got.local_ops, row.got.local_reads, row.got.local_writes);
  }
  std::printf(
      "\nChecks: every remote op shows exactly F=1 (one bundled invocation);\n"
      "hybrid ops show F=0; ordered structures show L=log N descent steps;\n"
      "resize shows N reads + N writes; bulk ops keep F=1 for E elements.\n");
  print_footer();
  return 0;
}
