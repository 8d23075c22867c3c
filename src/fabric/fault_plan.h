// Fault injection for the simulated fabric (the "as many scenarios as you
// can imagine" half of the ROADMAP's north star).
//
// Real RDMA fabrics fail in specific, recoverable ways: requests are dropped
// by a congested switch, completions are delayed by a NIC stall, a target QP
// transiently NACKs, duplicate delivery happens under retransmission, and a
// remote handler can simply crash. Mercury-style RPC layers treat failure
// delivery as a protocol obligation; Storm-style dataplanes prove robustness
// by *injecting* these faults rather than assuming their absence. A FaultPlan
// makes every one of those scenarios schedulable, seeded, and deterministic.
//
// Determinism: each (node, op-class) pair carries a monotonically increasing
// op index; a decision for op `i` is a pure hash of (seed, node, class, i,
// fault-kind). Two runs with the same seed and the same per-actor op order
// draw identical faults — single-threaded actors replay exactly, and even
// multi-threaded sweeps keep the *marginal* fault rates fixed. On top of the
// probabilistic stream, explicit trigger points ("fail the 3rd RPC into node
// 1 with a drop") pin down regression tests.
//
// The plan never blocks and never allocates on the hot path; injected-fault
// totals are exposed as counters so benches can report what actually fired.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/hash.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace hcl::fabric {

/// Classes of fabric operations a fault plan can target independently.
enum class OpClass : std::uint8_t {
  kRpc = 0,       // RoR request path (send_request -> handler -> response)
  kOneSided = 1,  // put/get verbs
  kAtomic = 2,    // remote CAS/FAA
  kBatchOp = 3,   // one constituent op inside a delivered RPC batch bundle
};
inline constexpr std::size_t kNumOpClasses = 4;

/// Kinds of injectable faults.
enum class FaultKind : std::uint8_t {
  kDrop = 0,         // request lost on the wire; handler never runs
  kDuplicate = 1,    // request delivered twice (retransmission)
  kDelay = 2,        // response held back by a NIC stall window
  kThrow = 3,        // handler raises a foreign (non-HclError) exception
  kUnavailable = 4,  // target NACKs with a transient Unavailable
};
inline constexpr std::size_t kNumFaultKinds = 5;

/// Per-(node, class) fault probabilities, all in [0, 1].
struct FaultProbabilities {
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double throw_handler = 0.0;
  double unavailable = 0.0;
  /// Length of one injected NIC stall (added to the response-ready time).
  sim::Nanos delay_ns = 20 * sim::kMicrosecond;
};

/// What the plan decided for one operation.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool throw_handler = false;
  bool unavailable = false;
  /// The target node is administratively down (fail_node): a hard NACK, not
  /// a transient one — retrying the same node cannot succeed until rejoin.
  bool node_down = false;
  sim::Nanos delay_ns = 0;

  [[nodiscard]] bool any() const noexcept {
    return drop || duplicate || throw_handler || unavailable || node_down ||
           delay_ns > 0;
  }
};

/// Totals of faults that actually fired (not merely configured).
struct FaultCounters {
  std::atomic<std::int64_t> drops{0};
  std::atomic<std::int64_t> duplicates{0};
  std::atomic<std::int64_t> delays{0};
  std::atomic<std::int64_t> throws{0};
  std::atomic<std::int64_t> unavailable{0};
  /// Ops rejected because their target node was down (not part of total():
  /// a dead node rejects every op sent at it, which would swamp the
  /// injected-fault totals benches report).
  std::atomic<std::int64_t> node_down_rejections{0};

  [[nodiscard]] std::int64_t total() const noexcept {
    return drops.load(std::memory_order_relaxed) +
           duplicates.load(std::memory_order_relaxed) +
           delays.load(std::memory_order_relaxed) +
           throws.load(std::memory_order_relaxed) +
           unavailable.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    drops.store(0);
    duplicates.store(0);
    delays.store(0);
    throws.store(0);
    unavailable.store(0);
    node_down_rejections.store(0);
  }
};

class FaultPlan {
 public:
  /// The nodes a plan can take down or degrade: a plan is built before the
  /// topology it will be installed on, so its node sets have this fixed
  /// capacity, and Fabric refuses a larger topology.
  static constexpr int kMaxNodes = 4096;

  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // ------------------------------------------------------------------
  // Configuration (call before traffic; cheap shared-lock reads after).
  // ------------------------------------------------------------------

  /// Set the probabilities for one op class on every node.
  void set(OpClass cls, const FaultProbabilities& p) {
    std::lock_guard<std::mutex> guard(config_mutex_);
    defaults_[static_cast<std::size_t>(cls)] = p;
  }

  /// Override the probabilities for one op class on one node.
  void set_node(sim::NodeId node, OpClass cls, const FaultProbabilities& p) {
    std::lock_guard<std::mutex> guard(config_mutex_);
    overrides_[node_class_key(node, cls)] = p;
  }

  /// Deterministic trigger point: the `nth` operation (0-based) of `cls`
  /// into `node` fires `kind`, regardless of probabilities. For kDelay the
  /// stall length comes from the node's configured delay_ns.
  void trigger_at(sim::NodeId node, OpClass cls, std::uint64_t nth,
                  FaultKind kind) {
    std::lock_guard<std::mutex> guard(config_mutex_);
    triggers_[trigger_key(node, cls, nth)] |= (1u << static_cast<unsigned>(kind));
  }

  // ------------------------------------------------------------------
  // Membership events (node crash / recovery).
  // ------------------------------------------------------------------

  /// Take `node` down: every op targeting it is rejected (FaultDecision::
  /// node_down) until rejoin_node(). Unlike kUnavailable this is a *hard*
  /// failure — retrying the same target cannot succeed; clients must
  /// fail over. Idempotent; callable mid-run from actor code. A node
  /// outside [0, kMaxNodes) is refused.
  void fail_node(sim::NodeId node) { down_.insert(node); }

  /// Bring `node` back. The node rejoins with whatever state it held at
  /// crash time — anti-entropy repair (core layer) replays what it missed.
  void rejoin_node(sim::NodeId node) { down_.erase(node); }

  /// The membership view: is `node` currently down?
  [[nodiscard]] bool node_down(sim::NodeId node) const noexcept {
    return down_.contains(node);
  }

  // ------------------------------------------------------------------
  // Shm-tier degradation (DESIGN.md §5i).
  // ------------------------------------------------------------------

  /// Mark `node`'s shared-memory transport degraded (a CXL-pod link fault,
  /// a poisoned ring): pod-local requests to or from it fall back to the
  /// RDMA path until restore_shm(). The node itself stays up — this is a
  /// tier outage, not a membership event. Idempotent; callable mid-run.
  void degrade_shm(sim::NodeId node) { shm_degraded_.insert(node); }

  /// Restore `node`'s shared-memory transport.
  void restore_shm(sim::NodeId node) { shm_degraded_.erase(node); }

  /// Is `node`'s shm tier currently degraded?
  [[nodiscard]] bool shm_degraded(sim::NodeId node) const noexcept {
    return shm_degraded_.contains(node);
  }

  // ------------------------------------------------------------------
  // Hot path
  // ------------------------------------------------------------------

  /// Consume one op slot for (node, cls) and decide its faults. Thread-safe;
  /// deterministic in (seed, node, cls, per-slot index).
  FaultDecision next(sim::NodeId node, OpClass cls) {
    const std::uint64_t index =
        op_index(node, cls).fetch_add(1, std::memory_order_relaxed);
    return decide(node, cls, index);
  }

  /// Pure decision for a given op index (does not consume a slot).
  FaultDecision decide(sim::NodeId node, OpClass cls, std::uint64_t index) {
    if (node_down(node)) {
      // A dead node executes nothing and delays nothing: the op is rejected
      // outright. Probability draws are skipped, but the op index was already
      // consumed, so the surviving nodes' fault streams are unperturbed.
      FaultDecision d;
      d.node_down = true;
      d.unavailable = true;
      counters_.node_down_rejections.fetch_add(1, std::memory_order_relaxed);
      return d;
    }
    FaultProbabilities p;
    unsigned forced = 0;
    {
      std::lock_guard<std::mutex> guard(config_mutex_);
      auto it = overrides_.find(node_class_key(node, cls));
      p = it != overrides_.end() ? it->second
                                 : defaults_[static_cast<std::size_t>(cls)];
      auto tr = triggers_.find(trigger_key(node, cls, index));
      if (tr != triggers_.end()) forced = tr->second;
    }
    FaultDecision d;
    d.drop = fires(node, cls, index, FaultKind::kDrop, p.drop, forced);
    d.duplicate =
        fires(node, cls, index, FaultKind::kDuplicate, p.duplicate, forced);
    d.throw_handler =
        fires(node, cls, index, FaultKind::kThrow, p.throw_handler, forced);
    d.unavailable =
        fires(node, cls, index, FaultKind::kUnavailable, p.unavailable, forced);
    if (fires(node, cls, index, FaultKind::kDelay, p.delay, forced)) {
      d.delay_ns = p.delay_ns;
    }
    // A dropped request can't also execute; drop dominates.
    if (d.drop) {
      d.duplicate = d.throw_handler = d.unavailable = false;
      d.delay_ns = 0;
    }
    record(d);
    return d;
  }

  [[nodiscard]] const FaultCounters& counters() const noexcept {
    return counters_;
  }
  FaultCounters& counters() noexcept { return counters_; }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Ops drawn so far for (node, cls) — diagnostics and tests.
  [[nodiscard]] std::uint64_t ops_seen(sim::NodeId node, OpClass cls) {
    return op_index(node, cls).load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t node_class_key(sim::NodeId node,
                                                OpClass cls) noexcept {
    return (static_cast<std::uint64_t>(node) << 8) |
           static_cast<std::uint64_t>(cls);
  }
  static constexpr std::uint64_t trigger_key(sim::NodeId node, OpClass cls,
                                             std::uint64_t nth) noexcept {
    // nth dominates the low bits; node/class salt the high bits.
    return mix64(node_class_key(node, cls) ^ 0x5441424c45ULL) ^ nth;
  }

  /// Deterministic uniform draw in [0,1) for one (op, kind) pair.
  bool fires(sim::NodeId node, OpClass cls, std::uint64_t index, FaultKind kind,
             double probability, unsigned forced) const noexcept {
    if (forced & (1u << static_cast<unsigned>(kind))) return true;
    if (probability <= 0.0) return false;
    std::uint64_t h = seed_;
    h = mix64(h ^ (static_cast<std::uint64_t>(node) + 0x9e3779b97f4a7c15ULL));
    h = mix64(h ^ static_cast<std::uint64_t>(cls));
    h = mix64(h ^ index);
    h = mix64(h ^ static_cast<std::uint64_t>(kind));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < probability;
  }

  void record(const FaultDecision& d) noexcept {
    if (d.drop) counters_.drops.fetch_add(1, std::memory_order_relaxed);
    if (d.duplicate) counters_.duplicates.fetch_add(1, std::memory_order_relaxed);
    if (d.delay_ns > 0) counters_.delays.fetch_add(1, std::memory_order_relaxed);
    if (d.throw_handler) counters_.throws.fetch_add(1, std::memory_order_relaxed);
    if (d.unavailable)
      counters_.unavailable.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t>& op_index(sim::NodeId node, OpClass cls) {
    const std::uint64_t key = node_class_key(node, cls);
    {
      std::lock_guard<std::mutex> guard(config_mutex_);
      auto it = indices_.find(key);
      if (it == indices_.end()) {
        it = indices_.emplace(key, std::make_unique<std::atomic<std::uint64_t>>(0))
                 .first;
      }
      return *it->second;
    }
  }

  std::uint64_t seed_;
  sim::NodeSet down_{kMaxNodes};
  sim::NodeSet shm_degraded_{kMaxNodes};
  std::mutex config_mutex_;
  std::array<FaultProbabilities, kNumOpClasses> defaults_{};
  std::unordered_map<std::uint64_t, FaultProbabilities> overrides_;
  std::unordered_map<std::uint64_t, unsigned> triggers_;  // kind bitmask
  std::unordered_map<std::uint64_t, std::unique_ptr<std::atomic<std::uint64_t>>>
      indices_;
  FaultCounters counters_;
};

}  // namespace hcl::fabric
