// hclbench — the repository benchmark, one workload per invocation.
//
//   hclbench --workload <kv_scalar_skewed|kv_bulk_ingest|graph_txn>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--scratch <dir>] [--guard-tol <fraction>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics from an untraced half, a traced half, a single-rank replay and the
// layer probes. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status is non-zero when any correctness check or the trace guard
// fails. See README.md in this directory.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

extern char** environ;

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/tmp";
  double guard_tol = 0.05;
};

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 9;

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--scratch") {
      o->scratch = v;
    } else if (flag == "--guard-tol") {
      o->guard_tol = std::strtod(v, nullptr);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !o->workload.empty() && o->seconds > 0;
}

/// Every HCL_* variable changes some default a workload relies on.
bool ambient_config_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HCL_", 4) == 0) {
      std::fprintf(stderr, "refusing to run: %s is set; unset every HCL_* variable\n", *e);
      clean = false;
    }
  }
  return clean;
}

/// Removes the run's scratch directory (journals, probe files) on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent)
      : path_(parent + "/run-" + std::to_string(::getpid())) {
    std::filesystem::create_directories(path_ + "/plain");
    std::filesystem::create_directories(path_ + "/traced");
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Passes over the pool a measured phase runs at least, so each pool round
/// has a median host time.
constexpr int kMinPasses = 3;

/// Totals of one measured phase: whole passes over the workload's pool of
/// generated rounds, repeated until `seconds` elapsed.
struct Phase {
  double host_s = 0;
  /// Per pool round: its items and the host wall seconds of each pass.
  std::vector<std::int64_t> pool_items;
  std::vector<std::vector<double>> pool_host_s;
  hcl::sim::Nanos sim_ns = 0;
  std::int64_t items = 0;
  int rounds = 0;
  Counters counters;
  std::unique_ptr<Recorder> rec;

  /// Items of one pass over the time of a typical pass: the sum over pool
  /// rounds of each round's median time across passes, so a burst of load
  /// from outside the process that slows one pass of a round is ignored.
  [[nodiscard]] double host_ops_per_s() const {
    double items = 0, seconds = 0;
    for (std::size_t r = 0; r < pool_items.size(); ++r) {
      items += static_cast<double>(pool_items[r]);
      seconds += median(pool_host_s[r]);
    }
    return ratio(items, seconds);
  }
  [[nodiscard]] double sim_ops_per_s() const {
    return ratio(static_cast<double>(items) * 1e9, static_cast<double>(sim_ns));
  }
  [[nodiscard]] double sim_mean_us() const { return rec->latency().mean() / 1e3; }
  [[nodiscard]] double sim_p50_us() const { return static_cast<double>(rec->latency().percentile(50)) / 1e3; }
  [[nodiscard]] double sim_p99_us() const { return static_cast<double>(rec->latency().percentile(99)) / 1e3; }
};

Phase measure(Workload& w, double seconds) {
  Phase p;
  p.rec = std::make_unique<Recorder>(kRanks, false);
  const int pool = w.pool_rounds();
  p.pool_items.assign(static_cast<std::size_t>(pool), 0);
  p.pool_host_s.assign(static_cast<std::size_t>(pool), {});
  const auto start = Clock::now();
  do {
    RoundStats st = w.round(*p.rec);
    const auto r = static_cast<std::size_t>(p.rounds % pool);
    p.pool_items[r] = st.items;
    p.pool_host_s[r].push_back(st.host_s);
    p.host_s += st.host_s;
    p.sim_ns += st.sim_ns;
    p.items += st.items;
    p.counters.add(st.counters);
    ++p.rounds;
    // Start every pass from a trimmed heap, so peak RSS is one pass's
    // footprint rather than what the allocator kept from earlier ones.
    // Once per pass, so the page faults refilling it land in few rounds.
    if (p.rounds % pool == 0) malloc_trim(0);
  } while (seconds_since(start) < seconds || p.rounds % pool != 0 ||
           p.rounds < kMinPasses * pool);
  return p;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void describe(const char* label, const Phase& p) {
  std::printf("# %s: %d rounds, %lld items, %lld calls (%lld failed), latency samples %lld, "
              "host %.3f s, sim %.6f s\n",
              label, p.rounds, static_cast<long long>(p.items),
              static_cast<long long>(p.rec->calls()), static_cast<long long>(p.rec->failed()),
              static_cast<long long>(p.rec->latency().count()), p.host_s,
              static_cast<double>(p.sim_ns) / 1e9);
}

/// Per-layer metric names, in output order. Every name is printed on every
/// workload; a layer a workload never exercises reads 0 in its counters.
const std::vector<std::pair<std::string, std::string>>& layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n;
    for (const char* call : kCallNames) {
      n.emplace_back(std::string("core.") + call + ".host_ns", "ns");
      n.emplace_back(std::string("core.") + call + ".allocs", "count");
    }
    n.emplace_back("core.remote_frac", "1/item");
    n.emplace_back("rpc.echo.host_ns", "ns");
    n.emplace_back("rpc.echo.allocs", "count");
    n.emplace_back("rpc.batch_echo.host_ns_per_op", "ns");
    n.emplace_back("rpc.calls_per_item", "1/item");
    n.emplace_back("rpc.items_per_bundle", "count");
    for (const char* stage : kStageNames) {
      n.emplace_back(std::string("rpc.stage.") + stage + "_ns", "ns");
    }
    for (const char* m : {"sim.reserve_idle.host_ns", "sim.reserve_busy.host_ns"}) n.emplace_back(m, "ns");
    n.emplace_back("sim.nic_core_util", "fraction");
    n.emplace_back("sim.ingress_util", "fraction");
    n.emplace_back("fabric.packets_per_item", "1/item");
    n.emplace_back("fabric.bytes_per_item", "B/item");
    n.emplace_back("serial.pack.host_ns", "ns");
    n.emplace_back("serial.unpack.host_ns", "ns");
    n.emplace_back("serial.pack.allocs", "count");
    n.emplace_back("shm.send_frac", "fraction");
    n.emplace_back("shm.ring_full_fallbacks", "1/item");
    n.emplace_back("shm.echo.host_ns", "ns");
    n.emplace_back("cache.hit_ratio", "fraction");
    n.emplace_back("cache.invalidations_per_write", "1/write");
    n.emplace_back("cache.stale_reads", "1/read");
    n.emplace_back("cache.hit.host_ns", "ns");
    for (const char* m : {"lf.cuckoo_find.host_ns", "lf.cuckoo_upsert.host_ns",
                          "lf.skiplist_insert.host_ns", "lf.skiplist_find.host_ns",
                          "memory.journal_append.host_ns"}) {
      n.emplace_back(m, "ns");
    }
    n.emplace_back("memory.journal_bytes_per_write", "B");
    n.emplace_back("txn.aborts_per_commit", "ratio");
    n.emplace_back("txn.retries_per_commit", "ratio");
    n.emplace_back("txn.p50_ns", "ns");
    n.emplace_back("txn.p99_ns", "ns");
    n.emplace_back("txn.commit.host_ns", "ns");
    n.emplace_back("apps.build_sim_s", "s");
    n.emplace_back("apps.query_sim_s", "s");
    n.emplace_back("obs.trace_overhead", "ratio");
    return n;
  }();
  return names;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed, const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Simulated end-to-end metrics of a traced phase must match the untraced
/// phase's: exactly on the one-worker graph workload, within `tol` on the
/// four-worker kv workloads. Returns the number of mismatches.
int trace_guard(const Phase& plain, const Phase& traced, bool exact, double tol) {
  int bad = 0;
  const std::pair<const char*, std::pair<double, double>> pairs[] = {
      {"sim_ops_per_s", {plain.sim_ops_per_s(), traced.sim_ops_per_s()}},
      {"sim_mean_us", {plain.sim_mean_us(), traced.sim_mean_us()}},
      {"sim_p50_us", {plain.sim_p50_us(), traced.sim_p50_us()}},
      {"sim_p99_us", {plain.sim_p99_us(), traced.sim_p99_us()}},
  };
  for (const auto& [name, v] : pairs) {
    const double rel = std::fabs(ratio(v.second, v.first) - 1.0);
    const bool ok = exact ? v.first == v.second : rel <= tol;
    std::printf("# guard %s: untraced %.17g traced %.17g (%s)\n", name, v.first, v.second,
                ok ? "ok" : "MISMATCH");
    if (!ok) ++bad;
  }
  return bad;
}

int run(const Options& o) {
  ScratchDir scratch(o.scratch);
  WorkloadFactory make;
  if (o.workload == "kv_scalar_skewed") {
    make = kv_scalar_skewed(o.seed);
  } else if (o.workload == "kv_bulk_ingest") {
    make = kv_bulk_ingest(o.seed, scratch.path());
  } else if (o.workload == "graph_txn") {
    make = graph_txn(o.seed);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }

  Metrics metrics;
  std::int64_t failed = 0;
  std::int64_t attempted = 0;

  if (!o.trace) {
    // Set up several times (Context, containers, preload); keep the last.
    std::vector<double> setup;
    std::unique_ptr<Workload> w;
    for (int k = 0; k < kSetups; ++k) {
      w.reset();
      // Hand the torn-down instance's pages back, so peak RSS measures one
      // instance rather than how the allocator happened to keep the last.
      malloc_trim(0);
      const auto t0 = Clock::now();
      w = make(false);
      setup.push_back(seconds_since(t0));
    }
    std::printf("# setups (s):");
    for (double s : setup) std::printf(" %.6f", s);
    std::printf("\n");
    const Phase p = measure(*w, o.seconds);
    describe(o.workload.c_str(), p);
    failed = p.rec->failed() + w->check();
    attempted = p.rec->calls();
    metrics = {
        {"host_ops_per_s", p.host_ops_per_s(), "items/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"sim_ops_per_s", p.sim_ops_per_s(), "items/s"},
        {"sim_mean_us", p.sim_mean_us(), "us"},
        {"sim_p99_us", p.sim_p99_us(), "us"},
    };
    // The median is printed but not reported: on kv_scalar_skewed most calls
    // are uncontended remote finds whose simulated latency is one exact
    // cost-model constant, so it reads the same on every run.
    std::printf("# host items per wall s over the whole phase %.6g\n",
                ratio(static_cast<double>(p.items), p.host_s));
    std::printf("# sim_p50_us %.3f us over %lld calls\n", p.sim_p50_us(),
                static_cast<long long>(p.rec->latency().count()));
    std::printf("# failed_frac %.6g (%lld of %lld)\n",
                ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                static_cast<long long>(failed), static_cast<long long>(attempted));
    print_result(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
  }

  // Traced run: untraced half, replay, traced half, probes.
  Metrics layer;
  auto w = make(false);
  const Phase plain = measure(*w, o.seconds / 2);
  describe("untraced", plain);
  failed += plain.rec->failed() + w->check();
  attempted += plain.rec->calls();
  Recorder replay(kRanks, true);
  count_allocations(true);
  w->replay(replay);
  count_allocations(false);
  for (int c = 0; c < kNumCalls; ++c) {
    const CallCost cc = replay.cost(static_cast<Call>(c));
    const auto items = static_cast<double>(cc.items);
    layer.push_back({std::string("core.") + kCallNames[static_cast<std::size_t>(c)] + ".host_ns",
                     ratio(static_cast<double>(cc.host_ns), items), "ns"});
    layer.push_back({std::string("core.") + kCallNames[static_cast<std::size_t>(c)] + ".allocs",
                     ratio(static_cast<double>(cc.allocs), items), "count"});
  }

  auto t = make(true);
  const Phase traced = measure(*t, o.seconds / 2);
  describe("traced", traced);
  failed += traced.rec->failed() + t->check();
  attempted += traced.rec->calls();
  failed += trace_guard(plain, traced, t->workers() == 1, o.guard_tol);

  const Counters& c = traced.counters;
  const auto items = static_cast<double>(traced.items);
  layer.push_back({"core.remote_frac", ratio(static_cast<double>(c.remote_invocations), items), "1/item"});
  layer.push_back({"rpc.calls_per_item", ratio(static_cast<double>(c.rpc_count), items), "1/item"});
  layer.push_back({"rpc.items_per_bundle",
                   ratio(static_cast<double>(c.rpc_batched_ops), static_cast<double>(c.rpc_batches)), "count"});
  for (std::size_t s = 0; s < kStageNames.size(); ++s) {
    layer.push_back({std::string("rpc.stage.") + kStageNames[s] + "_ns",
                     ratio(static_cast<double>(c.stage_ns[s]), static_cast<double>(c.spans)), "ns"});
  }
  layer.push_back({"sim.nic_core_util", ratio(c.core_busy_ns, c.core_capacity_ns), "fraction"});
  layer.push_back({"sim.ingress_util", ratio(c.ingress_busy_ns, c.ingress_capacity_ns), "fraction"});
  layer.push_back({"fabric.packets_per_item", ratio(static_cast<double>(c.packets), items), "1/item"});
  layer.push_back({"fabric.bytes_per_item", ratio(static_cast<double>(c.bytes), items), "B/item"});
  layer.push_back({"shm.send_frac", ratio(static_cast<double>(c.shm_sends), static_cast<double>(c.rpc_count)), "fraction"});
  layer.push_back({"shm.ring_full_fallbacks", ratio(static_cast<double>(c.shm_fallbacks), items), "1/item"});
  layer.push_back({"txn.aborts_per_commit",
                   ratio(static_cast<double>(c.txn_aborts), static_cast<double>(c.txn_commits)), "ratio"});
  layer.push_back({"txn.retries_per_commit",
                   ratio(static_cast<double>(c.txn_retries), static_cast<double>(c.txn_commits)), "ratio"});
  layer.push_back({"txn.p50_ns", static_cast<double>(c.txn_latency.percentile(50)), "ns"});
  layer.push_back({"txn.p99_ns", static_cast<double>(c.txn_latency.percentile(99)), "ns"});
  layer.push_back({"obs.trace_overhead", ratio(plain.host_ops_per_s(), traced.host_ops_per_s()), "ratio"});
  t->layer_metrics(*traced.rec, layer);

  ProbeContext pc;
  pc.scratch_dir = scratch.path();
  const double dispatch_handler =
      ratio(static_cast<double>(c.stage_ns[2] + c.stage_ns[3]), static_cast<double>(c.spans));
  pc.service_ns = dispatch_handler > 0 ? static_cast<hcl::sim::Nanos>(dispatch_handler)
                                       : hcl::sim::CostModel::ares().nic_rpc_dispatch_ns;
  t.reset();
  const std::int64_t probe_failures = w->probes(pc, layer);
  std::printf("# probes: %lld failed\n", static_cast<long long>(probe_failures));
  failed += probe_failures;

  // One entry per declared per-layer metric, in declaration order.
  for (const auto& [name, unit] : layer_names()) {
    const auto it = std::find_if(layer.begin(), layer.end(),
                                 [&](const Metric& m) { return m.name == name; });
    metrics.push_back({name, it != layer.end() ? it->value : 0.0, unit});
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: hclbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--scratch <dir>] [--guard-tol <fraction>]\n");
    return 2;
  }
  if (!perfbench::ambient_config_clean()) return 2;
  // Only apps::run_graph_hcl (the graph probe) uses the default thread cap;
  // one worker keeps its OCC outcome deterministic, as fig9 pins it.
  setenv("HCL_SIM_THREADS", "1", 1);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
