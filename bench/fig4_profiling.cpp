// Figure 4 — profiling HCL vs BCL (§IV.B.1).
//
// 40 clients on node 0, one target partition on node 1, 8192 writes of 4 KB
// per client. Three time series sampled per simulated-time bucket:
//   (a) NIC compute utilization at the target — the paper reports ~33% for
//       HCL's RPC-over-RDMA vs ~60% (spiking 90%) for BCL's remote-CAS
//       traffic,
//   (b) resident memory — BCL pre-allocates its static partition plus
//       per-client exclusive buffers up front; HCL starts at 128 buckets and
//       grows dynamically,
//   (c) packets per second — BCL moves ~4x more packets for the same
//       payload (per-op CAS round trips) and is slower to saturate.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bcl/bcl.h"
#include "bench_util.h"
#include "common/rng.h"

namespace {

using namespace hcl;         // NOLINT
using namespace hcl::bench;  // NOLINT

struct Series {
  double seconds = 0;
  std::vector<double> nic_util;      // fraction per bucket
  std::vector<double> packets_per_s;
  std::vector<double> memory_mb;
  std::vector<double> cache_hits_per_s;  // client-cache hits the NIC never saw
};

Series sample(Context& ctx, sim::NodeId target, sim::NodeId client_node) {
  Series s;
  s.seconds = ctx.elapsed_seconds();
  auto& counters = ctx.fabric().nic(target).counters();
  const auto width = counters.packets.bucket_width();
  const auto n = static_cast<std::size_t>(
                     sim::from_seconds(s.seconds) / width) + 1;
  const auto atomic_ns = static_cast<double>(ctx.model().nic_atomic_service_ns);
  const auto mem0 = ctx.fabric().memory_gauge(client_node).snapshot_filled();
  const auto mem1 = ctx.fabric().memory_gauge(target).snapshot_filled();
  for (std::size_t b = 0; b < n && b < counters.busy.size(); ++b) {
    // NIC compute = server-stub time over nic_cores contexts + remote-atomic
    // RMW time on its single context.
    (void)atomic_ns;
    const double core_busy = static_cast<double>(counters.busy.bucket(b));
    const double atomic_busy =
        static_cast<double>(counters.atomic_busy.bucket(b));
    s.nic_util.push_back(core_busy / (static_cast<double>(width) *
                                      static_cast<double>(ctx.model().nic_cores)) +
                         atomic_busy / static_cast<double>(width));
    s.packets_per_s.push_back(static_cast<double>(counters.packets.bucket(b)) /
                              sim::to_seconds(width));
    const double bytes = static_cast<double>(mem0[b] + mem1[b]);
    s.memory_mb.push_back(bytes / (1 << 20));
    s.cache_hits_per_s.push_back(
        static_cast<double>(counters.cache_hits.bucket(b)) /
        sim::to_seconds(width));
  }
  return s;
}

// Per-stage RoR pipeline breakdown from the tracer's stage histograms
// (DESIGN.md §5e) — the span-level view behind Fig. 4's utilization curves.
void print_stage_breakdown(hcl::Context& ctx, sim::NodeId target) {
  auto& tracer = ctx.tracer();
  if (!tracer.enabled()) return;
  std::printf("\nper-stage pipeline breakdown at node %d (%lld spans):\n",
              static_cast<int>(target),
              static_cast<long long>(tracer.recorded()));
  std::printf("  %-9s %10s %12s %12s %12s %12s\n", "stage", "ops", "mean ns",
              "p50 ns", "p99 ns", "max ns");
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    if (stage == obs::Stage::kInject) continue;  // subsumed by the wire stage
    const auto& h = tracer.stage_histogram(target, stage);
    if (h.count() == 0) continue;
    std::printf("  %-9s %10lld %12.0f %12lld %12lld %12lld\n",
                std::string(obs::to_string(stage)).c_str(),
                static_cast<long long>(h.count()), h.mean(),
                static_cast<long long>(h.percentile(50)),
                static_cast<long long>(h.percentile(99)),
                static_cast<long long>(h.max()));
  }
}

// Cross-check the span-level stage sums against the fabric's independent
// counters; the two accountings must agree within 1% (they are exact on
// fault-free runs). Returns 1 on divergence so CI fails loudly.
int check_reconciliation(hcl::Context& ctx, int num_nodes) {
  auto& tracer = ctx.tracer();
  if (!tracer.enabled()) return 0;
  const auto pct = [](double a, double b) {
    const double denom = std::max(std::abs(a), std::abs(b));
    return denom > 0 ? 100.0 * std::abs(a - b) / denom : 0.0;
  };
  int rc = 0;
  long long span_handler = 0, busy = 0, span_packets = 0, packets = 0;
  for (int n = 0; n < num_nodes; ++n) {
    span_handler += tracer.accounted_handler_ns(n);
    busy += ctx.fabric().nic(n).counters().handler_busy_ns.load();
    span_packets += tracer.accounted_packets(n);
    packets += ctx.fabric().nic(n).counters().total_packets.load();
  }
  const double handler_delta = pct(static_cast<double>(span_handler),
                                   static_cast<double>(busy));
  const double packet_delta = pct(static_cast<double>(span_packets),
                                  static_cast<double>(packets));
  std::printf("span/counter reconciliation: handler %lld vs %lld ns "
              "(d=%.3f%%); packets %lld vs %lld (d=%.3f%%)\n",
              span_handler, busy, handler_delta, span_packets, packets,
              packet_delta);
  if (handler_delta > 1.0 || packet_delta > 1.0) {
    std::fprintf(stderr, "FAIL: span stage sums diverge >1%% from counters\n");
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv,
                  {kFullFlag,
                   {"--clients", "concurrent client ranks"},
                   {"--ops", "operations per client"},
                   {"--bytes", "payload bytes per op"}});
  const int clients = static_cast<int>(args.get("--clients", 40));
  const auto ops = args.get("--ops", args.full() ? 8192 : 1024);
  const std::int64_t op_bytes = args.get("--bytes", 4096);

  print_header("Figure 4", "system profiling: HCL RPC-over-RDMA vs BCL client-side");
  std::printf("clients=%d ops/client=%" PRId64 " op=%s (target partition on node 1)\n\n",
              clients, ops, human_bytes(op_bytes).c_str());

  Context::Config cfg;
  cfg.num_nodes = 2;
  cfg.procs_per_node = clients;
  cfg.fabric_options.series_bucket = 10 * sim::kMillisecond;
  cfg.fabric_options.series_len = 4096;
  // Trace the HCL phase for the per-stage breakdown (free in simulated time:
  // trace_span_ns defaults to 0, so the Fig. 4 curves are unchanged). The
  // path stays empty — the Chrome-trace export happens in the dedicated
  // section at the end, from its own Context.
  cfg.trace.enabled = true;
  cfg.trace.sample_every = 64;
  cfg.trace.path.clear();
  Context ctx(cfg);
  int rc = 0;

  // ---- HCL: distributed map, partition on node 1 -------------------------
  Series hcl_series;
  {
    core::ContainerOptions options;
    options.num_partitions = 1;
    options.first_node = 1;
    unordered_map<std::uint64_t, Blob> map(ctx, options);
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      for (std::int64_t i = 0; i < ops; ++i) {
        map.insert(static_cast<std::uint64_t>(self.rank()) * ops + i,
                   Blob{static_cast<std::uint64_t>(op_bytes)});
      }
    });
    hcl_series = sample(ctx, 1, 0);
    // Span-level view of the same run, printed before the BCL phase resets
    // the measurement window (which clears the tracer too).
    print_stage_breakdown(ctx, 1);
    rc |= check_reconciliation(ctx, 2);
  }

  // ---- BCL: static hashmap, partition on node 1 --------------------------
  Series bcl_series;
  {
    ctx.reset_measurement();
    core::ContainerOptions options;
    options.num_partitions = 1;
    options.first_node = 1;
    bcl::HashMap<std::uint64_t, Blob> map(
        ctx, static_cast<std::size_t>(clients) * ops * 2, options);
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      for (std::int64_t i = 0; i < ops; ++i) {
        throw_if_error(
            map.insert(static_cast<std::uint64_t>(self.rank()) * ops + i,
                       Blob{static_cast<std::uint64_t>(op_bytes)}));
      }
    });
    bcl_series = sample(ctx, 1, 0);
  }

  std::printf("end-to-end: HCL %.2f s   BCL %.2f s   (BCL/HCL = %.2fx; paper: 10.5 s vs 28 s = 2.7x)\n\n",
              hcl_series.seconds, bcl_series.seconds,
              bcl_series.seconds / hcl_series.seconds);

  const std::size_t rows = std::max(hcl_series.nic_util.size(),
                                    bcl_series.nic_util.size());
  std::printf("%6s | %12s %12s | %12s %12s | %10s %10s\n", "t(ms)",
              "HCL util%", "BCL util%", "HCL pkt/s", "BCL pkt/s", "HCL MB",
              "BCL MB");
  auto at = [](const std::vector<double>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0.0;
  };
  const auto step = std::max<std::size_t>(1, rows / 24);
  for (std::size_t b = 0; b < rows; b += step) {
    std::printf("%6zu | %12.1f %12.1f | %12.0f %12.0f | %10.1f %10.1f\n",
                b * 10, 100 * at(hcl_series.nic_util, b),
                100 * at(bcl_series.nic_util, b), at(hcl_series.packets_per_s, b),
                at(bcl_series.packets_per_s, b), at(hcl_series.memory_mb, b),
                at(bcl_series.memory_mb, b));
  }

  // Aggregates (the headline comparisons).
  auto mean_nonzero = [](const std::vector<double>& v) {
    double sum = 0;
    int n = 0;
    for (double x : v) {
      if (x > 0) {
        sum += x;
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  const double hcl_util =
      100 * ctx.fabric().nic_compute_utilization(1, sim::from_seconds(bcl_series.seconds));
  (void)hcl_util;
  std::printf(
      "\nmean NIC compute utilization: HCL %.0f%%  BCL %.0f%%   (paper: ~33%% vs ~60%%)\n",
      100 * mean_nonzero(hcl_series.nic_util), 100 * mean_nonzero(bcl_series.nic_util));
  std::printf("mean packet rate: HCL %.0f pkt/s  BCL %.0f pkt/s — HCL sustains %.1fx BCL's rate\n"
              "(paper: \"BCL achieves 4x less packet rate\" and is slower to saturate)\n",
              mean_nonzero(hcl_series.packets_per_s),
              mean_nonzero(bcl_series.packets_per_s),
              mean_nonzero(hcl_series.packets_per_s) /
                  std::max(1.0, mean_nonzero(bcl_series.packets_per_s)));
  std::printf("peak memory: HCL %.1f MB (dynamic ramp)  BCL %.1f MB (static from t=0)\n",
              *std::max_element(hcl_series.memory_mb.begin(), hcl_series.memory_mb.end()),
              *std::max_element(bcl_series.memory_mb.begin(), bcl_series.memory_mb.end()));
  write_json(
      "BENCH_FIG4_PROFILING.json",
      jsonf("{\"bench\": \"fig4_profiling\", \"clients\": %d, "
            "\"ops_per_client\": %" PRId64 ", "
            "\"hcl_seconds\": %.3f, \"bcl_seconds\": %.3f, "
            "\"bcl_hcl_ratio\": %.2f, "
            "\"hcl_mean_nic_util_pct\": %.1f, \"bcl_mean_nic_util_pct\": %.1f, "
            "\"hcl_bcl_packet_rate_x\": %.2f}",
            clients, ops, hcl_series.seconds, bcl_series.seconds,
            bcl_series.seconds / hcl_series.seconds,
            100 * mean_nonzero(hcl_series.nic_util),
            100 * mean_nonzero(bcl_series.nic_util),
            mean_nonzero(hcl_series.packets_per_s) /
                std::max(1.0, mean_nonzero(bcl_series.packets_per_s))));

  // ---- Read cache: RPC traffic a warm cache removes (DESIGN.md §5d) -------
  // Same topology, Zipfian read-back of a warm keyspace, cache off vs. on.
  // Hits are absorbed client-side, so the target NIC's packet rate and
  // compute utilization drop by the hit fraction; cache_hits/s shows where
  // the reads went instead.
  {
    constexpr std::uint64_t kKeys = 1024;
    Series cold, warm;
    std::int64_t hits = 0, misses = 0;
    for (const bool cached : {false, true}) {
      Context::Config read_cfg = cfg;
      Context rctx(read_cfg);
      core::ContainerOptions options;
      options.num_partitions = 1;
      options.first_node = 1;
      if (cached) {
        options.cache.mode = cache::CacheMode::kInvalidate;
        options.cache.ttl_ns = 10 * sim::kMillisecond;
        options.cache.capacity = kKeys;
      } else {
        options.cache.mode = cache::CacheMode::kOff;
      }
      unordered_map<std::uint64_t, std::uint64_t> map(rctx, options);
      rctx.run_one(0, [&](sim::Actor&) {
        for (std::uint64_t k = 0; k < kKeys; ++k) (void)map.upsert(k, k);
      });
      rctx.reset_measurement();
      rctx.run([&](sim::Actor& self) {
        if (self.node() != 0) return;
        Rng rng(static_cast<std::uint64_t>(self.rank()) + 1);
        ZipfGen zipf(kKeys, 0.99, rng);
        std::uint64_t v = 0;
        for (std::int64_t i = 0; i < ops; ++i) {
          (void)map.find(zipf.next_scrambled(), &v);
        }
      });
      (cached ? warm : cold) = sample(rctx, 1, 0);
      if (cached) {
        const auto stats = map.cache_stats();
        hits = stats.hits;
        misses = stats.misses;
      }
    }
    // Totals, not rates: the cached run finishes sooner at a similar service
    // rate, so the removed traffic shows up as fewer packets end to end.
    auto total_packets = [&](const Series& s) {
      return mean_nonzero(s.packets_per_s) * s.seconds;
    };
    std::printf(
        "\nread-back (zipf .99, %" PRId64 " reads/client): cache-off %.2f ms vs "
        "cache-on %.2f ms (%.1fx)\n"
        "  target NIC: %.0fk -> %.0fk packets total, util %.1f%% -> %.1f%%; "
        "%.0f cache hits/s absorbed client-side (%" PRId64 " hits, %" PRId64
        " misses)\n",
        ops, cold.seconds * 1e3, warm.seconds * 1e3,
        cold.seconds / warm.seconds, total_packets(cold) / 1e3,
        total_packets(warm) / 1e3, 100 * mean_nonzero(cold.nic_util),
        100 * mean_nonzero(warm.nic_util),
        mean_nonzero(warm.cache_hits_per_s), hits, misses);
  }
  // ---- Traced batched+cached Zipfian read-back: Chrome-trace export ------
  // A fully-sampled run of the coalesced + cached read path, exported as
  // Chrome trace events (load in Perfetto or chrome://tracing). The CI
  // trace leg json-parses the file to keep the exporter well-formed.
  {
    const char* env_path = std::getenv("HCL_TRACE_PATH");
    const std::string trace_path =
        env_path != nullptr ? env_path : "fig4_trace.json";
    constexpr std::uint64_t kTraceKeys = 512;
    Context::Config tcfg = cfg;
    tcfg.trace.enabled = true;
    tcfg.trace.sample_every = 4;
    tcfg.trace.path.clear();  // exported explicitly below
    Context tctx(tcfg);
    core::ContainerOptions options;
    options.num_partitions = 1;
    options.first_node = 1;
    options.cache.mode = cache::CacheMode::kInvalidate;
    options.cache.ttl_ns = 10 * sim::kMillisecond;
    options.cache.capacity = kTraceKeys;
    unordered_map<std::uint64_t, std::uint64_t> map(tctx, options);
    tctx.run_one(0, [&](sim::Actor&) {
      std::vector<std::uint64_t> keys(kTraceKeys), values(kTraceKeys);
      for (std::uint64_t k = 0; k < kTraceKeys; ++k) keys[k] = values[k] = k;
      (void)map.insert_batch(keys, values);  // batch parent + per-op spans
    });
    tctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      Rng rng(static_cast<std::uint64_t>(self.rank()) + 101);
      ZipfGen zipf(kTraceKeys, 0.99, rng);
      std::vector<std::uint64_t> keys(64);
      for (int round = 0; round < 4; ++round) {
        for (auto& k : keys) k = zipf.next_scrambled();
        (void)map.find_batch(keys);  // cache hit/miss + batched RPC spans
      }
    });
    auto& tracer = tctx.tracer();
    const Status exported = tracer.export_json(trace_path);
    if (exported.ok()) {
      std::printf("\ntrace: %lld spans recorded, %lld retained (1-in-%llu) -> %s\n",
                  static_cast<long long>(tracer.recorded()),
                  static_cast<long long>(tracer.retained()),
                  static_cast<unsigned long long>(tracer.policy().sample_every),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n",
                   exported.to_string().c_str());
      rc = 1;
    }
    rc |= check_reconciliation(tctx, 2);
  }
  print_footer();
  return rc;
}
