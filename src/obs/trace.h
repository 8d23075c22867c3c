// Op-level tracing for the RoR pipeline (DESIGN.md §5e).
//
// The paper's profiling argument (Fig. 4) attributes end-to-end cost to the
// stages of the RPC-over-RDMA pipeline; Mercury and Brock et al. make the
// same case with per-stage breakdowns. This subsystem records one Span per
// op — scalar invocation, batched constituent, chained stage, replication
// fan-out, cache hit/miss — carrying the op's simulated-time stage
// boundaries:
//
//   issue ──inject──▶ (client WQE injection, wire_overhead_ns)
//   issue ──wire────▶ arrival          (base latency + ingress reservation;
//                                       overlaps inject, which it subsumes)
//   arrival ─queue──▶ exec_start-dispatch  (NIC work-queue wait)
//           dispatch▶ exec_start       (WQE de-marshal / bundle-op pickup)
//   exec_start ─handler─▶ handler_end  (server stub, chain stages included)
//   ready ──pull────▶ pull_done        (client RDMA_READ of the response;
//                                       recorded when the future is awaited)
//
// Sink side, per (target node, op class): an HDR-style latency histogram
// (issue→ready), per-stage histograms, and exact per-stage nanosecond sums
// that reconcile against fabric counters (handler stage sums equal
// handler_busy_ns on fault-free runs; request+pull packet sums equal
// total_packets). Span *records* are retained with head-based sampling
// (1-in-N) for the Chrome-trace-event JSON exporter (Perfetto-loadable);
// histograms and sums always see every span, so reconciliation is exact
// even when sampling discards most records.
//
// Everything is behind TracePolicy (ContainerOptions / Context::Config;
// HCL_TRACE / HCL_TRACE_SAMPLE / HCL_TRACE_PATH env toggles). Default-off
// allocates nothing, charges nothing, and adds no cost-model term.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "obs/histogram.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace hcl::obs {

/// Op classes the tracer distinguishes (one latency histogram per class per
/// target node).
enum class SpanKind : std::uint8_t {
  kScalar = 0,       // one async_invoke/invoke through the full RoR pipeline
  kBatch = 1,        // a coalesced bundle's parent invocation (batch_exec)
  kBatchOp = 2,      // one constituent op inside a delivered bundle
  kChainStage = 3,   // one server-side invoke_chain stage
  kReplication = 4,  // server-side fire-and-forget replication fan-out
  kCacheHit = 5,     // read served from the client cache (no RPC)
  kCacheMiss = 6,    // cache consult that fell through to the RPC
  kFailover = 7,     // op re-routed to a promoted replica (primary down)
  kRepair = 8,       // anti-entropy replay into a rejoined primary
  kMigration = 9,    // bulk-path shard move (split/merge/migrate, §5g)
  kTxn = 10,         // one TxnCoordinator attempt (validate→commit|abort, §5h)
  kShm = 11,         // scalar op delivered through the shm ring tier (§5i)
};
inline constexpr std::size_t kNumSpanKinds = 12;

[[nodiscard]] inline std::string_view to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kScalar: return "scalar";
    case SpanKind::kBatch: return "batch";
    case SpanKind::kBatchOp: return "batch_op";
    case SpanKind::kChainStage: return "chain_stage";
    case SpanKind::kReplication: return "replication";
    case SpanKind::kCacheHit: return "cache_hit";
    case SpanKind::kCacheMiss: return "cache_miss";
    case SpanKind::kFailover: return "failover";
    case SpanKind::kRepair: return "repair";
    case SpanKind::kMigration: return "migration";
    case SpanKind::kTxn: return "txn";
    case SpanKind::kShm: return "shm";
  }
  return "unknown";
}

/// Pipeline stages a span's boundaries delimit.
enum class Stage : std::uint8_t {
  kInject = 0,    // client WQE injection (subsumed by kWire; reported apart)
  kWire = 1,      // issue -> request landed in the target's request buffer
  kQueue = 2,     // NIC work-queue wait before a core picked the WQE up
  kDispatch = 3,  // WQE de-marshal/dispatch (or bundle-op pickup)
  kHandler = 4,   // server stub execution, chain stages included
  kPull = 5,      // response RDMA_READ back to the client
};
inline constexpr std::size_t kNumStages = 6;

[[nodiscard]] inline std::string_view to_string(Stage stage) noexcept {
  switch (stage) {
    case Stage::kInject: return "inject";
    case Stage::kWire: return "wire";
    case Stage::kQueue: return "queue";
    case Stage::kDispatch: return "dispatch";
    case Stage::kHandler: return "handler";
    case Stage::kPull: return "pull";
  }
  return "unknown";
}

/// One op's record. Absolute simulated-time boundaries; -1 = not reached
/// (e.g. a dropped request has no exec_start, an unawaited future no
/// pull_done). On retries the boundaries reflect the FINAL attempt, while
/// `attempts` and `request_packets` accumulate across all of them.
struct Span {
  SpanKind kind = SpanKind::kScalar;
  std::uint64_t func_id = 0;
  sim::NodeId target = 0;
  std::int32_t client_rank = -1;  // -1 = server-originated (chain/replication)
  std::uint32_t batch_index = 0;
  std::uint32_t bundle_ops = 0;  // kBatch only: constituents carried
  std::uint32_t attempts = 1;
  StatusCode status = StatusCode::kOk;
  std::int64_t request_packets = 0;  // all attempts (matches send_request)
  std::int64_t pull_packets = 0;     // the one response pull, if charged

  sim::Nanos issue_ns = -1;        // request left the client stub
  sim::Nanos inject_done_ns = -1;  // client-side WQE injection complete
  sim::Nanos arrival_ns = -1;      // request buffer written at the target
  sim::Nanos dispatch_ns = 0;      // dispatch/pickup service DURATION
  sim::Nanos exec_start_ns = -1;   // handler began (dispatch complete)
  sim::Nanos handler_end_ns = -1;  // handler (and chain) finished
  sim::Nanos ready_ns = -1;        // response ready (incl. injected delay)
  sim::Nanos pull_done_ns = -1;    // client finished pulling the response

  [[nodiscard]] sim::Nanos stage_duration(Stage stage) const noexcept {
    const auto span_of = [](sim::Nanos from, sim::Nanos to) -> sim::Nanos {
      return (from >= 0 && to >= from) ? to - from : 0;
    };
    switch (stage) {
      case Stage::kInject: return span_of(issue_ns, inject_done_ns);
      case Stage::kWire: return span_of(issue_ns, arrival_ns);
      case Stage::kQueue:
        return exec_start_ns >= 0
                   ? span_of(arrival_ns, exec_start_ns - dispatch_ns)
                   : 0;
      case Stage::kDispatch: return exec_start_ns >= 0 ? dispatch_ns : 0;
      case Stage::kHandler: return span_of(exec_start_ns, handler_end_ns);
      case Stage::kPull: return span_of(ready_ns, pull_done_ns);
    }
    return 0;
  }

  /// End-to-end latency: issue→ready for client ops, arrival→ready for
  /// server-originated spans. The pull is excluded (it is charged when the
  /// future is awaited, which may be long after the response was ready).
  [[nodiscard]] sim::Nanos latency_ns() const noexcept {
    const sim::Nanos start = issue_ns >= 0 ? issue_ns : arrival_ns;
    return (start >= 0 && ready_ns >= start) ? ready_ns - start : 0;
  }
};

/// Tracing knobs, carried on Context::Config and core::ContainerOptions.
struct TracePolicy {
  /// Master switch. Off (the default) means the tracer allocates nothing and
  /// every span hook in the engine is a branch-and-skip.
  bool enabled = false;
  /// Head-based sampling for RETAINED span records (the JSON exporter):
  /// 1-in-N commits keep their Span object. Histograms and stage sums always
  /// aggregate every span regardless. 1 = retain everything.
  std::uint64_t sample_every = 1;
  /// Retention cap on sampled span records (drops are counted, not silent).
  std::size_t max_spans = std::size_t{1} << 16;
  /// When non-empty, the tracer auto-exports Chrome-trace JSON here at
  /// destruction (explicit export_json() calls take precedence).
  std::string path;
};

/// Session-wide default for TracePolicy, mirroring cache::default_policy():
/// off unless HCL_TRACE=1/on/true; HCL_TRACE_SAMPLE sets sample_every and
/// HCL_TRACE_PATH the auto-export path. The CI tier1-trace-on leg runs the
/// whole suite through this with tracing forced on.
inline TracePolicy default_trace_policy() {
  static const TracePolicy policy = [] {
    TracePolicy p;
    p.enabled = env_bool("HCL_TRACE", p.enabled);
    p.sample_every =
        env_number<std::uint64_t>("HCL_TRACE_SAMPLE", p.sample_every, 1);
    p.path = env_string("HCL_TRACE_PATH", p.path);
    return p;
  }();
  return policy;
}

/// The per-Context span sink. Thread-safe: histogram/sum aggregation is
/// lock-free (every rank thread commits concurrently);
/// only sampled-record retention takes a mutex.
class Tracer {
 public:
  Tracer(TracePolicy policy, int num_nodes) : policy_(std::move(policy)) {
    if (policy_.sample_every == 0) policy_.sample_every = 1;
    if (policy_.enabled) {
      nodes_.reserve(static_cast<std::size_t>(num_nodes > 0 ? num_nodes : 1));
      for (int n = 0; n < (num_nodes > 0 ? num_nodes : 1); ++n) {
        nodes_.push_back(std::make_unique<NodeAgg>());
      }
    }
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  ~Tracer() {
    if (policy_.enabled && !policy_.path.empty() && !exported_ &&
        retained() > 0) {
      (void)export_json(policy_.path);
    }
  }

  [[nodiscard]] bool enabled() const noexcept { return policy_.enabled; }
  [[nodiscard]] const TracePolicy& policy() const noexcept { return policy_; }

  /// Aggregate a finished span (histograms + stage sums see every commit)
  /// and retain its record 1-in-sample_every times. The pull stage is not
  /// known yet — record_pull() adds it when the future is awaited; the
  /// shared Span object is already retained, so the exporter sees it.
  void commit(const std::shared_ptr<Span>& span) {
    if (!policy_.enabled || span == nullptr) return;
    NodeAgg& agg = node(span->target);
    const auto k = static_cast<std::size_t>(span->kind);
    agg.latency[k].record(span->latency_ns());
    KindSums& sums = agg.sums[k];
    for (std::size_t s = 0; s < kNumStages; ++s) {
      if (s == static_cast<std::size_t>(Stage::kPull)) continue;
      const sim::Nanos d = span->stage_duration(static_cast<Stage>(s));
      if (d > 0) {
        agg.stage[s].record(d);
        sums.stage_ns[s].fetch_add(d, std::memory_order_relaxed);
      }
    }
    sums.request_packets.fetch_add(span->request_packets,
                                   std::memory_order_relaxed);
    sums.spans.fetch_add(1, std::memory_order_relaxed);
    const auto n = recorded_.fetch_add(1, std::memory_order_relaxed);
    if (n % policy_.sample_every == 0) {
      std::lock_guard<std::mutex> guard(spans_mutex_);
      if (spans_.size() < policy_.max_spans) {
        spans_.push_back(span);
      } else {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Record the response pull for an already-committed span (the caller
  /// guards against double charging — one pull per span).
  void record_pull(Span& span, sim::Nanos pull_done, std::int64_t packets) {
    if (!policy_.enabled) return;
    span.pull_done_ns = pull_done;
    span.pull_packets += packets;
    const sim::Nanos d = span.stage_duration(Stage::kPull);
    NodeAgg& agg = node(span.target);
    KindSums& sums = agg.sums[static_cast<std::size_t>(span.kind)];
    if (d > 0) {
      agg.stage[static_cast<std::size_t>(Stage::kPull)].record(d);
      sums.stage_ns[static_cast<std::size_t>(Stage::kPull)].fetch_add(
          d, std::memory_order_relaxed);
    }
    sums.pull_packets.fetch_add(packets, std::memory_order_relaxed);
  }

  // ------------------------------------------------------------------
  // Accessors (Context::tracer() is the public surface)
  // ------------------------------------------------------------------

  [[nodiscard]] const Histogram& latency_histogram(sim::NodeId n,
                                                   SpanKind kind) const {
    return node(n).latency[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const Histogram& stage_histogram(sim::NodeId n,
                                                 Stage stage) const {
    return node(n).stage[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] std::int64_t stage_sum_ns(sim::NodeId n, SpanKind kind,
                                          Stage stage) const {
    return node(n)
        .sums[static_cast<std::size_t>(kind)]
        .stage_ns[static_cast<std::size_t>(stage)]
        .load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t span_count(sim::NodeId n, SpanKind kind) const {
    return node(n).sums[static_cast<std::size_t>(kind)].spans.load(
        std::memory_order_relaxed);
  }

  /// Handler-stage nanoseconds that reconcile with the fabric's
  /// handler_busy_ns counter: scalar + replication handler stages, plus
  /// batched constituents' pickup+handler (which telescope to their bundle's
  /// busy span). kBatch parents and kChainStage spans are EXCLUDED — their
  /// time is already counted through constituents / the owning scalar span.
  /// Exact on fault-free runs (injected duplicates execute outside any span).
  [[nodiscard]] std::int64_t accounted_handler_ns(sim::NodeId n) const {
    const NodeAgg& agg = node(n);
    const auto sum = [&agg](SpanKind kind, Stage stage) {
      return agg.sums[static_cast<std::size_t>(kind)]
          .stage_ns[static_cast<std::size_t>(stage)]
          .load(std::memory_order_relaxed);
    };
    return sum(SpanKind::kScalar, Stage::kHandler) +
           sum(SpanKind::kShm, Stage::kHandler) +
           sum(SpanKind::kReplication, Stage::kHandler) +
           sum(SpanKind::kBatchOp, Stage::kDispatch) +
           sum(SpanKind::kBatchOp, Stage::kHandler) +
           sum(SpanKind::kFailover, Stage::kHandler) +
           sum(SpanKind::kRepair, Stage::kHandler);
  }

  /// Request + pull packets across all span kinds; reconciles with the
  /// fabric's total_packets for RPC-only traffic.
  [[nodiscard]] std::int64_t accounted_packets(sim::NodeId n) const {
    const NodeAgg& agg = node(n);
    std::int64_t total = 0;
    for (const KindSums& sums : agg.sums) {
      total += sums.request_packets.load(std::memory_order_relaxed) +
               sums.pull_packets.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Spans aggregated (every commit) vs. records retained for export.
  [[nodiscard]] std::int64_t recorded() const noexcept {
    return static_cast<std::int64_t>(recorded_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::int64_t retained() const {
    std::lock_guard<std::mutex> guard(spans_mutex_);
    return static_cast<std::int64_t>(spans_.size());
  }
  [[nodiscard]] std::int64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the retained (sampled) span records.
  [[nodiscard]] std::vector<std::shared_ptr<Span>> spans() const {
    std::lock_guard<std::mutex> guard(spans_mutex_);
    return spans_;
  }

  void reset() {
    for (auto& agg : nodes_) {
      for (auto& h : agg->latency) h.reset();
      for (auto& h : agg->stage) h.reset();
      for (auto& sums : agg->sums) {
        for (auto& ns : sums.stage_ns) ns.store(0, std::memory_order_relaxed);
        sums.request_packets.store(0, std::memory_order_relaxed);
        sums.pull_packets.store(0, std::memory_order_relaxed);
        sums.spans.store(0, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> guard(spans_mutex_);
    spans_.clear();
    recorded_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    exported_ = false;
  }

  /// Export the retained spans as Chrome trace events (the JSON format
  /// chrome://tracing and Perfetto load): one complete ("X") event per span
  /// plus one per present stage, nested by time containment. pid = target
  /// node, tid = originating client rank (server-originated spans get a
  /// synthetic 100000+node lane). Timestamps are microseconds of simulated
  /// time.
  Status export_json(const std::string& path) {
    std::vector<std::shared_ptr<Span>> snapshot;
    {
      std::lock_guard<std::mutex> guard(spans_mutex_);
      snapshot = spans_;
    }
    std::string out;
    out.reserve(snapshot.size() * 512 + 1024);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
                  "\"recorded\":%lld,\"retained\":%zu,\"sample_every\":%llu},"
                  "\"traceEvents\":[",
                  static_cast<long long>(recorded()), snapshot.size(),
                  static_cast<unsigned long long>(policy_.sample_every));
    out += buf;
    bool first = true;
    std::vector<bool> named_pid(nodes_.size(), false);
    const auto emit = [&](const char* name, sim::Nanos ts, sim::Nanos dur,
                          int pid, long long tid, const Span& span) {
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"ph\":\"X\",\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
          "\"pid\":%d,\"tid\":%lld,\"args\":{\"func\":%llu,\"status\":\"%.*s\","
          "\"attempts\":%u,\"batch_index\":%u,\"req_packets\":%lld,"
          "\"pull_packets\":%lld}}",
          first ? "" : ",", name, static_cast<double>(ts) / 1e3,
          static_cast<double>(dur) / 1e3, pid, tid,
          static_cast<unsigned long long>(span.func_id),
          static_cast<int>(to_string(span.status).size()),
          to_string(span.status).data(), span.attempts, span.batch_index,
          static_cast<long long>(span.request_packets),
          static_cast<long long>(span.pull_packets));
      out += buf;
      first = false;
    };
    for (const auto& span : snapshot) {
      if (span == nullptr) continue;
      const int pid = static_cast<int>(span->target);
      const long long tid = span->client_rank >= 0
                                ? static_cast<long long>(span->client_rank)
                                : 100000LL + pid;
      const sim::Nanos start = span->issue_ns >= 0    ? span->issue_ns
                               : span->arrival_ns >= 0 ? span->arrival_ns
                                                       : span->exec_start_ns;
      sim::Nanos end = span->pull_done_ns >= 0   ? span->pull_done_ns
                       : span->ready_ns >= 0     ? span->ready_ns
                                                 : span->handler_end_ns;
      if (start < 0 || end < start) continue;
      std::string parent(to_string(span->kind));
      emit(parent.c_str(), start, end - start, pid, tid, *span);
      const auto emit_stage = [&](Stage stage, sim::Nanos from, sim::Nanos to) {
        if (from < 0 || to < from) return;
        const std::string name =
            parent + "/" + std::string(to_string(stage));
        emit(name.c_str(), from, to - from, pid, tid, *span);
      };
      emit_stage(Stage::kWire, span->issue_ns, span->arrival_ns);
      emit_stage(Stage::kInject, span->issue_ns, span->inject_done_ns);
      if (span->exec_start_ns >= 0) {
        emit_stage(Stage::kQueue, span->arrival_ns,
                   span->exec_start_ns - span->dispatch_ns);
        emit_stage(Stage::kDispatch, span->exec_start_ns - span->dispatch_ns,
                   span->exec_start_ns);
      }
      emit_stage(Stage::kHandler, span->exec_start_ns, span->handler_end_ns);
      emit_stage(Stage::kPull, span->ready_ns, span->pull_done_ns);
      if (static_cast<std::size_t>(pid) < named_pid.size() &&
          !named_pid[static_cast<std::size_t>(pid)]) {
        named_pid[static_cast<std::size_t>(pid)] = true;
        std::snprintf(buf, sizeof(buf),
                      ",{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                      "\"args\":{\"name\":\"node %d\"}}",
                      pid, pid);
        out += buf;
      }
    }
    out += "]}\n";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file.is_open()) {
      return Status::Internal("cannot open trace output: " + path);
    }
    file.write(out.data(), static_cast<std::streamsize>(out.size()));
    file.flush();
    if (!file.good()) {
      return Status::Internal("short write exporting trace: " + path);
    }
    exported_ = true;
    return Status::Ok();
  }

 private:
  struct KindSums {
    std::array<std::atomic<std::int64_t>, kNumStages> stage_ns{};
    std::atomic<std::int64_t> request_packets{0};
    std::atomic<std::int64_t> pull_packets{0};
    std::atomic<std::int64_t> spans{0};
  };
  struct NodeAgg {
    std::array<Histogram, kNumSpanKinds> latency{};
    std::array<Histogram, kNumStages> stage{};
    std::array<KindSums, kNumSpanKinds> sums{};
  };

  NodeAgg& node(sim::NodeId n) {
    const auto i = static_cast<std::size_t>(n);
    return *nodes_[i < nodes_.size() ? i : 0];
  }
  [[nodiscard]] const NodeAgg& node(sim::NodeId n) const {
    const auto i = static_cast<std::size_t>(n);
    return *nodes_[i < nodes_.size() ? i : 0];
  }

  TracePolicy policy_;
  std::vector<std::unique_ptr<NodeAgg>> nodes_;
  mutable std::mutex spans_mutex_;
  std::vector<std::shared_ptr<Span>> spans_;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::int64_t> dropped_{0};
  bool exported_ = false;
};

}  // namespace hcl::obs
