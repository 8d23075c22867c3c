// Shared-memory transport tier: pod topology, per-destination rings, and the
// eligibility policy the RPC engine consults before every send (DESIGN.md
// §5i).
//
// Ranks on the same node — or within the same configurable "CXL pod" of
// nodes — skip the RoR wire entirely: requests travel through a bounded
// shm::Ring into the destination's arena and are charged local-memory rates
// (shm_doorbell_ns + mem-channel byte time) instead of wire_overhead +
// net_base_latency + 4.5 GB/s. Everything about the tier is best-effort:
// non-pod-local targets, oversize payloads, full rings, fault-degraded pods,
// and per-container opt-outs all fall back transparently to the RDMA path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_set>
#include <vector>

#include "common/env.h"
#include "shm/ring.h"
#include "sim/topology.h"

namespace hcl::shm {

/// Tier configuration. `pod_nodes` groups consecutive node ids into pods
/// (pod 0 = nodes [0, pod_nodes), ...); 1 means same-node only. Rings are
/// per destination NODE, matching the sim's one-server-rank-per-node layout
/// (a multi-rank-per-node deployment would key rings per server rank).
/// `chunk_bytes` is a policy field, not an env knob: it bounds the largest
/// request the ring carries, and oversize ops simply ride RDMA.
struct ShmPolicy {
  bool enabled = false;
  int pod_nodes = 1;
  int ring_slots = 32;
  std::int64_t chunk_bytes = 64 << 10;
};

/// Process-wide default, read once from the environment:
///   HCL_SHM=1|on|true      enable the tier
///   HCL_SHM_POD=N          pod size in nodes (default 1 = same-node only)
inline const ShmPolicy& default_shm_policy() {
  static const ShmPolicy policy = [] {
    ShmPolicy p;
    p.enabled = env_bool("HCL_SHM", p.enabled);
    p.pod_nodes = env_number("HCL_SHM_POD", p.pod_nodes, 1);
    return p;
  }();
  return policy;
}

/// Clamp a (possibly user-supplied) policy into the ranges the ring
/// implementation supports.
inline ShmPolicy normalize(ShmPolicy p) {
  if (p.pod_nodes < 1) p.pod_nodes = 1;
  if (p.ring_slots < 1) p.ring_slots = 1;
  if (p.ring_slots > 64) p.ring_slots = 64;
  if (p.chunk_bytes < 256) p.chunk_bytes = 256;
  return p;
}

class Transport {
 public:
  Transport(const sim::Topology& topo, ShmPolicy policy)
      : policy_(normalize(policy)), num_nodes_(topo.num_nodes()) {
    rings_.reserve(static_cast<std::size_t>(num_nodes_));
    for (int n = 0; n < num_nodes_; ++n) {
      rings_.push_back(
          std::make_unique<Ring>(policy_.ring_slots, policy_.chunk_bytes));
    }
  }

  [[nodiscard]] const ShmPolicy& policy() const noexcept { return policy_; }

  /// Two nodes share a memory domain: same node, or same pod when pods span
  /// more than one node.
  [[nodiscard]] bool pod_local(sim::NodeId a, sim::NodeId b) const noexcept {
    if (a == b) return true;
    if (policy_.pod_nodes <= 1) return false;
    return a / policy_.pod_nodes == b / policy_.pod_nodes;
  }

  [[nodiscard]] Ring& ring(sim::NodeId target) noexcept {
    return *rings_[static_cast<std::size_t>(target)];
  }

  /// Claim a slot on `target`'s ring, or an invalid handle when the ring is
  /// full (caller falls back to RDMA and counts shm_ring_full_fallbacks).
  [[nodiscard]] SlotHandle try_acquire(sim::NodeId target) noexcept {
    Ring& r = ring(target);
    const int slot = r.try_acquire();
    if (slot < 0) return {};
    return {&r, slot};
  }

  /// Per-container opt-out (ContainerOptions.shm.enabled = false): the
  /// container registers its bound FuncIds here and the engine routes them
  /// over RDMA even when pod-local. The atomic flag keeps the common case
  /// (nothing denied) a single relaxed load on the send path.
  void deny(std::uint64_t func_id) {
    std::unique_lock lock(deny_mutex_);
    denied_.insert(func_id);
    has_denied_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool allows(std::uint64_t func_id) const {
    if (!has_denied_.load(std::memory_order_acquire)) return true;
    std::shared_lock lock(deny_mutex_);
    return denied_.find(func_id) == denied_.end();
  }

  /// Drop per-ring consumer reservations between benchmark repetitions
  /// (mirrors Fabric::reset_counters' Resource resets).
  void reset_timing() {
    for (auto& r : rings_) r->reset_timing();
  }

 private:
  ShmPolicy policy_;
  int num_nodes_;
  std::vector<std::unique_ptr<Ring>> rings_;

  mutable std::shared_mutex deny_mutex_;
  std::unordered_set<std::uint64_t> denied_;
  std::atomic<bool> has_denied_{false};
};

}  // namespace hcl::shm
