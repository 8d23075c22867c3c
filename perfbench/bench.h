// Shared pieces of the repository benchmark: pinned configuration, the
// per-call recorder, fabric/tracer counter snapshots and the workload
// interface. See README.md in this directory for what is measured and why.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "core/hcl.h"

namespace perfbench {

using hcl::Context;
using Clock = std::chrono::steady_clock;

/// Every workload runs on 8 simulated nodes x 4 ranks.
inline constexpr int kNodes = 8;
inline constexpr int kProcs = 4;
inline constexpr int kRanks = kNodes * kProcs;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Allocation counter: bench.cpp replaces the global operator new. Counting is
// off unless a probe or the single-rank replay turns it on, so the measured
// workload runs pay one relaxed load per allocation.
// ---------------------------------------------------------------------------
void count_allocations(bool on);
std::int64_t allocations();

// ---------------------------------------------------------------------------
// Self-checking payload: word 0 is the key, the last word a checksum over the
// rest, so a reader can tell that a value belongs to the key it was read for
// and arrived intact. Trivially copyable, so it takes the memcpy wire path.
// ---------------------------------------------------------------------------
template <std::size_t Words>
struct Record {
  static_assert(Words >= 3);
  std::uint64_t w[Words];
  friend bool operator==(const Record&, const Record&) = default;
};

template <std::size_t W>
std::uint64_t record_checksum(const Record<W>& r) {
  std::uint64_t h = 0x6a09e667f3bcc909ULL;
  for (std::size_t i = 0; i + 1 < W; ++i) h = hcl::mix64(h ^ r.w[i]);
  return h;
}

template <std::size_t W>
Record<W> make_record(std::uint64_t key, std::uint64_t tag) {
  Record<W> r{};
  r.w[0] = key;
  r.w[1] = tag;
  for (std::size_t i = 2; i + 1 < W; ++i) r.w[i] = hcl::mix64(key ^ hcl::mix64(tag + i));
  r.w[W - 1] = record_checksum(r);
  return r;
}

template <std::size_t W>
bool record_ok(std::uint64_t key, const Record<W>& r) {
  return r.w[0] == key && r.w[W - 1] == record_checksum(r);
}

// ---------------------------------------------------------------------------
// Configuration pinned field by field, so no HCL_* default can leak in.
// ---------------------------------------------------------------------------
Context::Config pinned_config(int nodes, int procs, bool traced, bool shm);
hcl::core::ContainerOptions pinned_options(const Context::Config& config);
/// Host workers for the 4-worker workloads: min(4, hardware threads).
unsigned kv_workers();

// ---------------------------------------------------------------------------
// Per-call recording.
// ---------------------------------------------------------------------------
enum Call : int { kFind, kUpsert, kInsertBatch, kFindBatch, kQueuePush, kTxnRun };
inline constexpr int kNumCalls = 6;
inline constexpr std::array<const char*, kNumCalls> kCallNames = {
    "find", "upsert", "insert_batch", "find_batch", "queue_push", "txn_run"};

/// Exact simulated-latency tallies: a count per distinct nanosecond value.
/// One per rank, so recording shares no cache line between threads; memory
/// grows with the distinct latencies seen, not with run length, so peak RSS
/// does not grow with host speed.
class LatencyHist {
 public:
  void record(hcl::sim::Nanos ns) {
    ++counts_[ns];
    ++count_;
    sum_ += ns;
  }
  void merge(const LatencyHist& other);
  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample. Stable
  /// under replicating the sample set, so identical rounds give identical
  /// percentiles however many rounds ran.
  [[nodiscard]] hcl::sim::Nanos percentile(double p) const;

 private:
  std::unordered_map<hcl::sim::Nanos, std::int64_t> counts_;
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
};

struct CallCost {
  std::int64_t calls = 0;
  std::int64_t items = 0;
  std::int64_t host_ns = 0;  // replay mode only
  std::int64_t allocs = 0;   // replay mode only
};

/// One rank's tallies; written only by the thread driving that rank.
struct alignas(64) RankStats {
  std::int64_t calls = 0;
  std::int64_t failed = 0;
  std::array<CallCost, kNumCalls> cost{};
  LatencyHist latency;
};

/// Times every public call a rank makes on its actor clock. In host mode
/// (the single-rank replay) it also takes wall time and allocations around
/// each call; that is only meaningful when one rank runs at a time.
class Recorder {
 public:
  Recorder(int ranks, bool host_mode) : ranks_(static_cast<std::size_t>(ranks)), host_(host_mode) {}

  /// `fn` returns false when the call's result was not OK or failed its
  /// correctness check; a thrown HclError also counts as failed.
  template <typename F>
  void call(hcl::sim::Actor& self, Call c, std::int64_t items, F&& fn) {
    RankStats& rs = ranks_[static_cast<std::size_t>(self.rank())];
    const hcl::sim::Nanos sim0 = self.now();
    Clock::time_point t0{};
    std::int64_t a0 = 0;
    if (host_) {
      a0 = allocations();
      t0 = Clock::now();
    }
    bool ok = false;
    try {
      ok = fn();
    } catch (const hcl::HclError&) {
      ok = false;
    }
    CallCost& cc = rs.cost[c];
    if (host_) {
      cc.host_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
      cc.allocs += allocations() - a0;
    }
    ++cc.calls;
    cc.items += items;
    rs.latency.record(self.now() - sim0);
    ++rs.calls;
    if (!ok) ++rs.failed;
  }

  [[nodiscard]] std::int64_t calls() const;
  [[nodiscard]] std::int64_t failed() const;
  [[nodiscard]] CallCost cost(Call c) const;
  /// Every rank's call latencies merged.
  [[nodiscard]] LatencyHist latency() const;

 private:
  std::vector<RankStats> ranks_;
  bool host_;
};

// ---------------------------------------------------------------------------
// Fabric, op-stats and tracer totals over all nodes for one round.
// ---------------------------------------------------------------------------
inline constexpr std::array<hcl::obs::Stage, 5> kStages = {
    hcl::obs::Stage::kWire, hcl::obs::Stage::kQueue, hcl::obs::Stage::kDispatch,
    hcl::obs::Stage::kHandler, hcl::obs::Stage::kPull};
inline constexpr std::array<const char*, 5> kStageNames = {"wire", "queue", "dispatch",
                                                           "handler", "pull"};

struct Counters {
  std::int64_t rpc_count = 0, rpc_batches = 0, rpc_batched_ops = 0;
  std::int64_t packets = 0, bytes = 0;
  std::int64_t shm_sends = 0, shm_fallbacks = 0;
  std::int64_t txn_commits = 0, txn_aborts = 0, txn_retries = 0;
  std::int64_t remote_invocations = 0;
  double core_busy_ns = 0, core_capacity_ns = 0;
  double ingress_busy_ns = 0, ingress_capacity_ns = 0;
  std::array<std::int64_t, 5> stage_ns{};
  std::int64_t spans = 0;
  LatencyHist txn_latency;  // retained (sampled) kTxn spans

  void add(const Counters& o);
  /// Read every node's totals after a round whose makespan is `makespan_ns`.
  static Counters read(Context& ctx, hcl::sim::Nanos makespan_ns);
};

// ---------------------------------------------------------------------------
// Metrics output.
// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

inline double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------
struct RoundStats {
  double host_s = 0;          // wall seconds of the measured Context::run calls
  hcl::sim::Nanos sim_ns = 0; // simulated makespan, summed over phases
  std::int64_t items = 0;     // key operations completed
  Counters counters;
};

/// What the layer probes need beyond the workload's own keys and values.
struct ProbeContext {
  std::string scratch_dir;
  /// Mean simulated NIC-core service per RPC span (dispatch + handler) seen
  /// in the traced run; shapes the sim::Resource probe.
  hcl::sim::Nanos service_ns = 1000;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One measured round: fixed work, run from simulated time 0.
  virtual RoundStats round(Recorder& rec) = 0;
  /// One round's calls again, ranks one at a time, for clean host timers.
  virtual void replay(Recorder& rec) = 0;
  /// Post-run correctness checks; returns the number that failed.
  virtual std::int64_t check() = 0;
  /// Per-layer metrics the workload's own containers carry (cache stats)
  /// over everything this instance measured; `rec` holds its call counts.
  virtual void layer_metrics(const Recorder& rec, Metrics& out) = 0;
  /// Probes over this workload's keys and values (probes.h); returns the
  /// number of probe results that failed their check.
  virtual std::int64_t probes(const ProbeContext& pc, Metrics& out) = 0;
  /// Real host worker threads the workload hands to Context::run.
  [[nodiscard]] virtual unsigned workers() const = 0;
  /// Distinct generated rounds the workload cycles through; a measured
  /// phase always ends on a whole pass, so every one weighs the same.
  [[nodiscard]] virtual int pool_rounds() const = 0;
};

/// Builds (sets up) one instance of a workload over inputs generated once.
using WorkloadFactory = std::function<std::unique_ptr<Workload>(bool traced)>;

WorkloadFactory kv_scalar_skewed(std::uint64_t seed);
WorkloadFactory kv_bulk_ingest(std::uint64_t seed, const std::string& scratch_dir);
WorkloadFactory graph_txn(std::uint64_t seed);

}  // namespace perfbench
