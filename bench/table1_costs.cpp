// Table I — operation cost model validation.
//
// The paper expresses each container operation's cost as a formula over
//   F (remote function invocations), L (local ops), R (local reads),
//   W (local writes), N (entries), E (elements).
// This bench performs one operation per row, reads the library's operation
// counters, and prints measured counts against the paper's formula. Hybrid
// rows verify the hybrid model: a co-located operation runs the same server
// body, so it costs the remote row's L/R/W with 0 F — for the async shapes
// too. Every row carries its expected counts; the bench exits 1 if any
// measured count differs.
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
  core::OpStats::Snapshot want;
  core::OpStats::Snapshot got;
};

std::vector<Row> g_rows;

/// Record the counts since the last report against `want` = {F, L, R, W}.
void report(const char* structure, const char* op, const char* formula,
            core::OpStats::Snapshot want, Context& ctx) {
  g_rows.push_back({structure, op, formula, want, ctx.op_stats().snapshot()});
  ctx.reset_measurement();
}

bool same(const core::OpStats::Snapshot& a, const core::OpStats::Snapshot& b) {
  return a.remote_invocations == b.remote_invocations &&
         a.local_ops == b.local_ops && a.local_reads == b.local_reads &&
         a.local_writes == b.local_writes;
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
    report("unordered_map", "insert (remote)", "F + L + W", {1, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { int v; m.find(rk, &v); });
    report("unordered_map", "find (remote)", "F + L + R", {1, 1, 1, 0}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { m.insert(lk, 1); });
    report("unordered_map", "insert (hybrid)", "L + W (no F)",
           {0, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { m.resize(1, 4096); });
    report("unordered_map", "resize (remote)", "F + N(R + W)",
           {1, 0, 1, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { int v; m.find(lk, &v); });
    report("unordered_map", "find (hybrid)", "L + R (no F)", {0, 1, 1, 0}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { m.resize(0, 4096); });
    report("unordered_map", "resize (hybrid)", "N(R + W) (no F)",
           {0, 0, 1, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { m.erase(lk); });
    report("unordered_map", "erase (hybrid)", "L + W (no F)",
           {0, 1, 0, 1}, ctx);
    // The async shapes run the same server bodies (§III.C.4).
    ctx.run_one(0, [&](sim::Actor& self) { m.async_insert(rk, 2).get(self); });
    report("unordered_map", "async_insert (remote)", "F + L + W",
           {1, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor& self) { m.async_find(rk).get(self); });
    report("unordered_map", "async_find (remote)", "F + L + R",
           {1, 1, 1, 0}, ctx);
    ctx.run_one(0, [&](sim::Actor& self) { m.async_insert(lk, 2).get(self); });
    report("unordered_map", "async_insert (hybrid)", "L + W (no F)",
           {0, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor& self) { m.async_find(lk).get(self); });
    report("unordered_map", "async_find (hybrid)", "L + R (no F)",
           {0, 1, 1, 0}, ctx);
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
    report("map", "insert (remote)", "F + L*logN + W", {1, 5, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { int v; m.find(rk, &v); });
    report("map", "find (remote)", "F + L*logN + R", {1, 5, 1, 0}, ctx);
  }

  // ---- unordered_set -------------------------------------------------------
  {
    unordered_set<int> s(ctx);
    const int rk = pick_key(s, ctx, false);
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { s.insert(rk); });
    report("unordered_set", "insert (remote)", "F + L + W", {1, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { s.find(rk); });
    report("unordered_set", "find (remote)", "F + L + R", {1, 1, 1, 0}, ctx);
  }

  // ---- set (ordered) -------------------------------------------------------
  {
    set<int> s(ctx);
    const int rk = pick_key(s, ctx, false);
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { s.insert(rk); });
    report("set", "insert (remote)", "F + L*logN + W", {1, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { s.find(rk); });
    report("set", "find (remote)", "F + L*logN + R", {1, 1, 1, 0}, ctx);
  }

  // ---- queue ---------------------------------------------------------------
  {
    core::ContainerOptions options;
    options.first_node = 1;  // remote from rank 0
    queue<int> q(ctx, options);
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { q.push(7); });
    report("queue", "push (remote)", "F + L + W", {1, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { int v; q.pop(&v); });
    report("queue", "pop (remote)", "F + L + R", {1, 1, 1, 0}, ctx);
    ctx.run_one(0, [&](sim::Actor&) {
      q.push(std::vector<int>{1, 2, 3, 4});
    });
    report("queue", "push bulk E=4", "F + L + E*W", {1, 1, 0, 4}, ctx);
    ctx.run_one(0, [&](sim::Actor&) {
      std::vector<int> out;
      q.pop(&out, 4);
    });
    report("queue", "pop bulk E=4", "F + L + E*R", {1, 1, 4, 0}, ctx);
    ctx.run_one(0, [&](sim::Actor& self) { q.async_push(8).get(self); });
    report("queue", "async_push (remote)", "F + L + W", {1, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor& self) { q.async_pop().get(self); });
    report("queue", "async_pop (remote)", "F + L + R", {1, 1, 1, 0}, ctx);
  }
  {
    queue<int> q(ctx);  // hosted on rank 0's node
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { q.push(7); });
    report("queue", "push (hybrid)", "L + W (no F)", {0, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { int v; q.pop(&v); });
    report("queue", "pop (hybrid)", "L + R (no F)", {0, 1, 1, 0}, ctx);
    ctx.run_one(0, [&](sim::Actor&) {
      q.push(std::vector<int>{1, 2, 3, 4});
    });
    report("queue", "push bulk (hybrid)", "L + E*W (no F)", {0, 1, 0, 4}, ctx);
    ctx.run_one(0, [&](sim::Actor&) {
      std::vector<int> out;
      q.pop(&out, 4);
    });
    report("queue", "pop bulk (hybrid)", "L + E*R (no F)", {0, 1, 4, 0}, ctx);
    ctx.run_one(0, [&](sim::Actor& self) { q.async_push(8).get(self); });
    report("queue", "async_push (hybrid)", "L + W (no F)", {0, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor& self) { q.async_pop().get(self); });
    report("queue", "async_pop (hybrid)", "L + R (no F)", {0, 1, 1, 0}, ctx);
  }

  // ---- priority_queue --------------------------------------------------------
  {
    core::ContainerOptions options;
    options.first_node = 1;
    priority_queue<int> pq(ctx, options);
    ctx.reset_measurement();
    ctx.run_one(0, [&](sim::Actor&) { pq.push(7); });
    report("priority_queue", "push (remote)", "F + L*logN + W",
           {1, 1, 0, 1}, ctx);
    ctx.run_one(0, [&](sim::Actor&) { int v; pq.pop(&v); });
    report("priority_queue", "pop (remote)", "F + L + R", {1, 1, 1, 0}, ctx);
  }

  std::printf("%-16s %-22s %-18s %4s %4s %4s %4s\n", "structure", "operation",
              "paper formula", "F", "L", "R", "W");
  for (const auto& row : g_rows) {
    std::printf("%-16s %-22s %-18s %4" PRId64 " %4" PRId64 " %4" PRId64
                " %4" PRId64 "\n",
                row.structure, row.op, row.formula, row.got.remote_invocations,
                row.got.local_ops, row.got.local_reads, row.got.local_writes);
  }
  std::printf(
      "\nChecks: every remote op shows exactly F=1 (one bundled invocation);\n"
      "hybrid ops show F=0; ordered structures show L=log N descent steps;\n"
      "resize shows N reads + N writes; bulk ops keep F=1 for E elements.\n");
  int mismatches = 0;
  for (const auto& row : g_rows) {
    if (same(row.want, row.got)) continue;
    ++mismatches;
    std::printf("MISMATCH %s %s: expected F=%" PRId64 " L=%" PRId64
                " R=%" PRId64 " W=%" PRId64 "\n",
                row.structure, row.op, row.want.remote_invocations,
                row.want.local_ops, row.want.local_reads,
                row.want.local_writes);
  }
  print_footer();
  return mismatches == 0 ? 0 : 1;
}
