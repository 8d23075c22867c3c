// hcl::Context — the library runtime a program initializes once.
//
// "During initialization, one or more processes in the node can create a
// shared memory segment that other processes (both local and remote) can
// read and write to by invoking functions" (§III). The Context owns the
// simulated cluster (ranks/actors), the fabric (NICs, memory budgets), and
// the RPC-over-RDMA engine that containers bind their server stubs into.
//
// Typical use (mirrors the paper's Fig. 3 sketch):
//
//   hcl::Context ctx({.num_nodes = 4, .procs_per_node = 8});
//   hcl::unordered_map<int, double> map(ctx, {.num_partitions = 4});
//   ctx.run([&](hcl::sim::Actor& self) {
//     map.insert(self.rank(), 1.5);
//     double v;
//     map.find(self.rank(), &v);
//   });
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/read_cache.h"
#include "core/persist_log.h"
#include "core/shard_map.h"
#include "fabric/fabric.h"
#include "rpc/engine.h"
#include "core/op_stats.h"
#include "shm/transport.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "sim/topology.h"

namespace hcl {

class Context {
 public:
  struct Config {
    int num_nodes = 1;
    int procs_per_node = 1;
    sim::CostModel model = sim::CostModel::ares();
    fabric::FabricOptions fabric_options{};
    std::uint64_t seed = 42;
    /// Default reliability policy for every container RPC issued through
    /// this context. Containers translate retryable statuses (Unavailable,
    /// Retry, lost requests) into transparent bounded retries via this; what
    /// survives the policy surfaces as an HclError with a definite code.
    rpc::InvokeOptions rpc_options{};
    /// Optional fabric fault plan, installed before any traffic. When null
    /// (default), the fabric is fault-free.
    std::shared_ptr<fabric::FaultPlan> fault_plan = nullptr;
    /// Pipeline tracing & latency histograms (DESIGN.md §5e). Off by
    /// default; default_trace_policy() honors HCL_TRACE / HCL_TRACE_SAMPLE /
    /// HCL_TRACE_PATH so whole suites can run trace-on without code changes
    /// (the CI trace-on matrix leg).
    obs::TracePolicy trace = obs::default_trace_policy();
    /// Shared-memory transport tier (DESIGN.md §5i). Off by default;
    /// default_shm_policy() honors HCL_SHM / HCL_SHM_POD so whole suites can
    /// run with pod-local traffic on the ring (the tier1-shm CI leg).
    shm::ShmPolicy shm = shm::default_shm_policy();
  };

  explicit Context(const Config& config)
      : topology_(config.num_nodes, config.procs_per_node),
        cluster_(topology_, config.seed),
        fabric_(topology_, config.model, config.fabric_options),
        tracer_(config.trace, config.num_nodes),
        engine_(fabric_) {
    engine_.set_default_options(config.rpc_options);
    engine_.set_tracer(&tracer_);
    if (config.shm.enabled) {
      shm_ = std::make_unique<shm::Transport>(topology_, config.shm);
      engine_.set_shm(shm_.get());
    }
    if (config.fault_plan != nullptr) {
      fabric_.set_fault_plan(config.fault_plan);
    }
  }

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] const sim::Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] sim::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] fabric::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] rpc::Engine& rpc() noexcept { return engine_; }
  [[nodiscard]] const sim::CostModel& model() const noexcept {
    return fabric_.model();
  }
  [[nodiscard]] core::OpStats& op_stats() noexcept { return op_stats_; }

  /// The shm transport tier (DESIGN.md §5i); null when Config.shm is off.
  [[nodiscard]] shm::Transport* shm_transport() noexcept { return shm_.get(); }

  /// The pipeline tracer (DESIGN.md §5e): per-node/per-op-class latency and
  /// stage histograms plus sampled spans for the Chrome-trace exporter.
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  /// Non-null only when tracing is on — the form container internals pass
  /// down so the default-off path stays a null check.
  [[nodiscard]] obs::Tracer* tracer_if_enabled() noexcept {
    return tracer_.enabled() ? &tracer_ : nullptr;
  }

  /// Install or clear (nullptr) the fabric fault plan between phases. No
  /// server-side work outlives a run() (stubs execute inline on the calling
  /// rank's thread), so the swap is safe whenever no phase is running.
  void set_fault_plan(std::shared_ptr<fabric::FaultPlan> plan) {
    fabric_.set_fault_plan(std::move(plan));
  }

  /// Run `fn(actor)` on every rank (SPMD main, like mpirun).
  void run(const std::function<void(sim::Actor&)>& fn, unsigned max_threads = 0) {
    cluster_.run(fn, max_threads);
    // Server stubs and replication fan-outs (Engine::server_invoke) execute
    // INLINE on the issuing rank's thread — asynchrony is simulated-time
    // only — so by the time cluster_.run() joins, every replication write
    // (and its epoch bump) has already applied in real time and the lease
    // revocation below compares settled epochs. The subtle cross-phase
    // hazard is elsewhere: failover PROMOTION fences a partition's epoch
    // stream at (term << 32), so a rejoined primary must adopt an epoch above
    // the fence during repair or its piggybacks would compare stale forever
    // (regression-tested in failover_test.cpp).
    revoke_cache_leases();
  }

  /// Run `fn` on a single rank (driver-style sections of tests/benches).
  void run_one(sim::Rank rank, const std::function<void(sim::Actor&)>& fn) {
    cluster_.run_ranks(rank, rank + 1, fn);
    revoke_cache_leases();
  }

  /// Container read caches register their invalidate_all here so every
  /// run()/run_one() edge revokes all leases (DESIGN.md §5d: BSP-barrier
  /// lease revocation — cross-phase reads are always authoritative).
  /// Returns a token for unregister_cache_hook (container destructor).
  std::uint64_t register_cache_hook(std::function<void()> hook) {
    std::lock_guard<std::mutex> guard(cache_hooks_mutex_);
    const std::uint64_t id = next_cache_hook_id_++;
    cache_hooks_.emplace(id, std::move(hook));
    return id;
  }

  void unregister_cache_hook(std::uint64_t id) {
    std::lock_guard<std::mutex> guard(cache_hooks_mutex_);
    cache_hooks_.erase(id);
  }

  /// Revoke every registered cache's leases. Called at run edges (above);
  /// also safe to call manually between phases.
  void revoke_cache_leases() {
    std::lock_guard<std::mutex> guard(cache_hooks_mutex_);
    for (auto& [id, hook] : cache_hooks_) hook();
  }

  /// BSP phases with simulated-time barriers between them.
  void run_phases(const std::vector<std::function<void(sim::Actor&)>>& phases,
                  unsigned max_threads = 0) {
    for (const auto& phase : phases) {
      run(phase, max_threads);
      cluster_.align_clocks();
    }
  }

  /// Makespan of the last run (simulated seconds).
  [[nodiscard]] double elapsed_seconds() const {
    return sim::to_seconds(cluster_.max_time());
  }

  /// Reset clocks, fabric lanes, counters, and op stats between benchmark
  /// repetitions. Container *contents* are untouched.
  void reset_measurement() {
    cluster_.reset_clocks();
    fabric_.reset_metrics();
    tracer_.reset();
    op_stats_.reset();
    if (shm_ != nullptr) shm_->reset_timing();
  }

 private:
  sim::Topology topology_;
  sim::Cluster cluster_;
  fabric::Fabric fabric_;
  obs::Tracer tracer_;
  rpc::Engine engine_;
  core::OpStats op_stats_;
  std::unique_ptr<shm::Transport> shm_;

  std::mutex cache_hooks_mutex_;
  std::uint64_t next_cache_hook_id_ = 1;
  std::unordered_map<std::uint64_t, std::function<void()>> cache_hooks_;
};

namespace core {

/// Options shared by every distributed container.
struct ContainerOptions {
  /// Number of partitions (server memory segments). Multi-partition
  /// structures default to one partition per node; queues are
  /// single-partitioned (§III.D: "single- and multi-partitioned data
  /// structures").
  int num_partitions = -1;
  /// Node hosting partition 0; partition i lives on (first_node + i) % N.
  int first_node = 0;
  /// Asynchronous replication factor: every update is re-hashed to this
  /// many additional partitions, server-side (§III.A.4).
  int replication = 0;
  /// When non-empty, each partition journals its updates through a real
  /// memory-mapped file `<persist_path>.p<i>` and can recover from it
  /// (§III.C.6). See persist_log.h for the mechanism.
  std::string persist_path;
  mem::SyncMode sync_mode = mem::SyncMode::kPerOp;
  /// Initial bucket count per partition (the paper's default is 128).
  std::size_t initial_buckets = 128;
  /// Flush policy for the bulk (coalesced) APIs — insert_batch/find_batch/
  /// erase_batch/push_batch. Oversized batches are chunked automatically:
  /// each per-destination bundle ships when this policy trips.
  rpc::BatchPolicy batch{};
  /// Client-side read cache with epoch leases (DESIGN.md §5d). Off by
  /// default; default_policy() honors HCL_CACHE_MODE and
  /// -DHCL_CACHE_DEFAULT_ON so whole suites can run cache-on without code
  /// changes (the CI cache-on matrix leg).
  cache::CachePolicy cache = cache::default_policy();
  /// Heat-driven shard rebalancing (DESIGN.md §5g). Off by default — routing
  /// stays the static hash % P and split/merge/migrate throw
  /// FailedPrecondition. default_rebalance_policy() honors HCL_REBALANCE so
  /// whole suites can run with the indirection layer live (the
  /// tier1-rebalance CI leg).
  core::RebalancePolicy rebalance = core::default_rebalance_policy();
  /// Span tracing for this container's cache hit/miss path (DESIGN.md §5e).
  /// Only consulted when the owning Context's tracer is enabled; the policy
  /// here lets a single container opt its cache spans out.
  obs::TracePolicy trace = obs::default_trace_policy();
  /// Shared-memory transport tier participation (DESIGN.md §5i). Only the
  /// `enabled` field is consulted per-container, and only as an OPT-OUT:
  /// when the Context's tier is on but this is off, the container denies its
  /// bound FuncIds so its ops ride RDMA even when pod-local. Defaults to
  /// participating (a no-op when the Context's tier is off); ring/pod sizing
  /// always comes from Context::Config.shm.
  shm::ShmPolicy shm{.enabled = true};
};

/// Helpers shared by container implementations.
inline int resolve_partitions(const ContainerOptions& options,
                              const sim::Topology& topology) {
  const int p = options.num_partitions > 0 ? options.num_partitions
                                           : topology.num_nodes();
  if (p <= 0) throw HclError(Status::InvalidArgument("num_partitions"));
  return p;
}

inline sim::NodeId partition_node(const ContainerOptions& options,
                                  const sim::Topology& topology, int partition) {
  return (options.first_node + partition) % topology.num_nodes();
}

/// A replicated data op's two registry entries, bound from ONE server body
/// (DESIGN.md §5f): `primary` serves the op where its data lives, and its
/// failover twin `standby` serves it on the promoted standby while the
/// primary is down.
struct Twins {
  rpc::FuncId primary = 0;
  rpc::FuncId standby = 0;
};

/// Every FuncId one container binds, recorded as it is bound: unbound when
/// the container dies, and denied the shm tier (when that tier is on) for a
/// container that opted out of it (ContainerOptions.shm, DESIGN.md §5i), so
/// its ops ride RDMA even when pod-local.
class Bindings {
 public:
  Bindings(Context& ctx, bool shm) : ctx_(&ctx), shm_(shm) {}
  Bindings(const Bindings&) = delete;
  Bindings& operator=(const Bindings&) = delete;
  ~Bindings() { for (const rpc::FuncId id : ids_) ctx_->rpc().unbind(id); }

  /// Engine::bind<R, Args...>(fn), recorded.
  template <typename R, typename... Args, typename F>
  rpc::FuncId bind(F fn) {
    const rpc::FuncId id = ctx_->rpc().template bind<R, Args...>(std::move(fn));
    ids_.push_back(id);
    if (!shm_ && ctx_->shm_transport()) ctx_->shm_transport()->deny(id);
    return id;
  }

 private:
  Context* ctx_;
  bool shm_;
  std::vector<rpc::FuncId> ids_;
};

/// log2-style level count for ordered-structure cost charging.
inline int depth_levels(std::size_t n) {
  int levels = 1;
  while (n > 1) {
    n >>= 1;
    ++levels;
  }
  return levels;
}

}  // namespace core
}  // namespace hcl
