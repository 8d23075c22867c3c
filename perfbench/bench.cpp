// Shared benchmark plumbing: the counting operator new, pinned
// configuration, the latency histogram and the counter snapshots.
#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>
#include <thread>

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::int64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace

// The array forms forward to these, and the library's default operator
// delete releases with free(), which matches malloc and aligned_alloc.
void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}

namespace perfbench {

void count_allocations(bool on) { g_count_allocs.store(on, std::memory_order_relaxed); }
std::int64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

Context::Config pinned_config(int nodes, int procs, bool traced, bool shm) {
  Context::Config c;
  c.num_nodes = nodes;
  c.procs_per_node = procs;
  c.model = hcl::sim::CostModel::ares();
  // Accounted, never allocated: large enough that no workload can hit it.
  c.model.node_memory_budget_bytes = std::int64_t{64} << 30;
  c.fabric_options = hcl::fabric::FabricOptions{};
  c.seed = 42;
  c.rpc_options = hcl::rpc::InvokeOptions{};
  c.fault_plan = nullptr;
  c.trace = hcl::obs::TracePolicy{};
  if (traced) {
    c.trace.enabled = true;
    // Retained records only feed the txn latency percentiles; histograms
    // and stage sums see every span regardless of sampling.
    c.trace.sample_every = 4;
    c.trace.max_spans = std::size_t{1} << 16;
  }
  c.shm = hcl::shm::ShmPolicy{};
  if (shm) {
    c.shm.enabled = true;
    c.shm.pod_nodes = 2;
  }
  return c;
}

hcl::core::ContainerOptions pinned_options(const Context::Config& config) {
  hcl::core::ContainerOptions o;
  o.num_partitions = -1;
  o.first_node = 0;
  o.replication = 0;
  o.persist_path.clear();
  o.sync_mode = hcl::mem::SyncMode::kPerOp;
  o.initial_buckets = 128;
  o.batch = hcl::rpc::BatchPolicy{};
  o.cache = hcl::cache::CachePolicy{};
  o.cache.mode = hcl::cache::CacheMode::kOff;
  o.rebalance = hcl::core::RebalancePolicy{};
  o.rebalance.enabled = false;
  o.trace = config.trace;
  o.shm = hcl::shm::ShmPolicy{};
  o.shm.enabled = true;  // participate whenever the Context's tier is on
  return o;
}

unsigned kv_workers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

void LatencyHist::merge(const LatencyHist& other) {
  for (const auto& [ns, n] : other.counts_) counts_[ns] += n;
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHist::mean() const {
  return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
}

hcl::sim::Nanos LatencyHist::percentile(double p) const {
  if (count_ == 0) return 0;
  auto rank = static_cast<std::int64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<std::int64_t>(rank, 1, count_);
  std::vector<std::pair<hcl::sim::Nanos, std::int64_t>> sorted(counts_.begin(), counts_.end());
  std::sort(sorted.begin(), sorted.end());
  std::int64_t seen = 0;
  for (const auto& [ns, n] : sorted) {
    seen += n;
    if (seen >= rank) return ns;
  }
  return sorted.back().first;
}

LatencyHist Recorder::latency() const {
  LatencyHist all;
  for (const auto& r : ranks_) all.merge(r.latency);
  return all;
}

std::int64_t Recorder::calls() const {
  std::int64_t n = 0;
  for (const auto& r : ranks_) n += r.calls;
  return n;
}

std::int64_t Recorder::failed() const {
  std::int64_t n = 0;
  for (const auto& r : ranks_) n += r.failed;
  return n;
}

CallCost Recorder::cost(Call c) const {
  CallCost sum;
  for (const auto& r : ranks_) {
    sum.calls += r.cost[c].calls;
    sum.items += r.cost[c].items;
    sum.host_ns += r.cost[c].host_ns;
    sum.allocs += r.cost[c].allocs;
  }
  return sum;
}

void Counters::add(const Counters& o) {
  rpc_count += o.rpc_count;
  rpc_batches += o.rpc_batches;
  rpc_batched_ops += o.rpc_batched_ops;
  packets += o.packets;
  bytes += o.bytes;
  shm_sends += o.shm_sends;
  shm_fallbacks += o.shm_fallbacks;
  txn_commits += o.txn_commits;
  txn_aborts += o.txn_aborts;
  txn_retries += o.txn_retries;
  remote_invocations += o.remote_invocations;
  core_busy_ns += o.core_busy_ns;
  core_capacity_ns += o.core_capacity_ns;
  ingress_busy_ns += o.ingress_busy_ns;
  ingress_capacity_ns += o.ingress_capacity_ns;
  for (std::size_t s = 0; s < stage_ns.size(); ++s) stage_ns[s] += o.stage_ns[s];
  spans += o.spans;
  txn_latency.merge(o.txn_latency);
}

Counters Counters::read(Context& ctx, hcl::sim::Nanos makespan_ns) {
  Counters c;
  const auto span = static_cast<double>(makespan_ns);
  const hcl::obs::Tracer& tracer = ctx.tracer();
  for (int n = 0; n < ctx.topology().num_nodes(); ++n) {
    auto& nic = ctx.fabric().nic(n);
    auto& k = nic.counters();
    c.rpc_count += k.rpc_count.load();
    c.rpc_batches += k.rpc_batches.load();
    c.rpc_batched_ops += k.rpc_batched_ops.load();
    c.packets += k.total_packets.load();
    c.bytes += k.total_bytes.load();
    c.shm_sends += k.shm_sends.load();
    c.shm_fallbacks += k.shm_ring_full_fallbacks.load();
    c.txn_commits += k.txn_commits.load();
    c.txn_aborts += k.txn_aborts.load();
    c.txn_retries += k.txn_retries.load();
    c.core_busy_ns += static_cast<double>(nic.cores().busy_total());
    c.core_capacity_ns += span * nic.cores().lanes();
    c.ingress_busy_ns += static_cast<double>(nic.ingress().busy_total());
    c.ingress_capacity_ns += span * nic.ingress().lanes();
    if (!tracer.enabled()) continue;
    for (auto kind : {hcl::obs::SpanKind::kScalar, hcl::obs::SpanKind::kBatchOp,
                      hcl::obs::SpanKind::kShm}) {
      for (std::size_t s = 0; s < kStages.size(); ++s) {
        c.stage_ns[s] += tracer.stage_sum_ns(n, kind, kStages[s]);
      }
      c.spans += tracer.span_count(n, kind);
    }
  }
  c.remote_invocations = ctx.op_stats().remote_invocations.load();
  if (tracer.enabled()) {
    for (const auto& span : tracer.spans()) {
      if (span != nullptr && span->kind == hcl::obs::SpanKind::kTxn) {
        c.txn_latency.record(span->latency_ns());
      }
    }
  }
  return c;
}

}  // namespace perfbench
