// Shard indirection and heat-driven rebalancing policy (DESIGN.md §5g).
//
// The paper places keys with a static `hash % P` (Table I's serverLocation),
// so a Zipfian tenant melts one server no matter how many nodes exist. The
// ShardMap inserts one level of indirection between the hash space and the
// physical partitions: the hash picks one of S = slots_per_partition * P
// *slots*, and each slot records which physical partition currently owns it.
// split()/merge()/migrate() move slot ownership (and the resident keys) at
// runtime; every routing decision — scalar, batched, failover — re-reads the
// slot table, so ops issued after a move land on the new owner with no client
// involvement.
//
// Because S is a multiple of P and slots start at `slot % P`, the default
// placement is bit-identical to the historical `hash % P`: with rebalancing
// disabled (the default) nothing observable changes, which is what lets the
// tier1-rebalance CI leg run the whole suite with HCL_REBALANCE=1 and demand
// the same results.
//
// Heat: each slot carries a relaxed atomic op counter bumped on every routing
// decision while rebalancing is enabled. Slot heat aggregates to partition
// heat; the advisor (container::rebalance_tick) cross-checks it against the
// owner NIC's traffic counters before recommending a split. Counters are
// approximate by design — heat is a relative signal, not an audit trail.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/env.h"

namespace hcl::core {

/// Per-container rebalancing knobs, carried on core::ContainerOptions
/// (default off so existing benches and tests are byte-for-byte unchanged).
struct RebalancePolicy {
  /// Master switch: when false the shard map is frozen at `slot % P` and
  /// split/merge/migrate throw FailedPrecondition.
  bool enabled = false;
  /// Hash-space slots per physical partition (S = slots * P). More slots =
  /// finer-grained splits; 1 makes split() a no-op (nothing to peel off).
  int slots_per_partition = 8;
  /// rebalance_tick recommends a split when the hottest partition's heat
  /// exceeds hot_factor * mean partition heat...
  double hot_factor = 2.0;
  /// ...and routes the peeled slots to a partition colder than
  /// cold_factor * mean (falling back to the global coldest).
  double cold_factor = 0.5;
  /// Minimum routed ops before the advisor has enough signal to act.
  std::int64_t min_ops = 1024;
  /// Routed ops that must elapse between advisor-initiated moves, so one hot
  /// burst cannot thrash slots back and forth.
  std::int64_t cooldown_ops = 4096;
};

/// Session-wide default for ContainerOptions::rebalance: off unless the
/// environment turns it on. The tier1-rebalance CI leg sets HCL_REBALANCE=1
/// to run the whole suite with the indirection layer live, so routing
/// regressions fail CI.
inline RebalancePolicy default_rebalance_policy() {
  static const RebalancePolicy policy = [] {
    RebalancePolicy p;
    p.enabled = env_bool("HCL_REBALANCE", p.enabled);
    return p;
  }();
  return policy;
}

/// The slot table: S = slots_per_partition * P atomic owner entries plus a
/// heat counter per slot. Readers (every op's partition_of) load with acquire
/// and never block; writers (split/merge) store under the container's
/// rebalance latch, which excludes all ops, so the atomics only defend the
/// disabled-latch fast path and introspection reads.
class ShardMap {
 public:
  ShardMap(int num_partitions, int slots_per_partition)
      : num_partitions_(num_partitions),
        owners_(static_cast<std::size_t>(num_partitions) *
                static_cast<std::size_t>(slots_per_partition)),
        heat_(owners_.size()) {
    for (std::size_t s = 0; s < owners_.size(); ++s) {
      // slot % P: with S a multiple of P this makes hash->slot->owner
      // bit-identical to the historical hash % P until a slot moves.
      owners_[s].store(static_cast<int>(s % static_cast<std::size_t>(
                           num_partitions_)),
                       std::memory_order_relaxed);
      heat_[s].store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] int num_slots() const noexcept {
    return static_cast<int>(owners_.size());
  }
  [[nodiscard]] int num_partitions() const noexcept { return num_partitions_; }

  [[nodiscard]] int slot_of(std::uint64_t mixed_hash) const noexcept {
    return static_cast<int>(mixed_hash % owners_.size());
  }

  /// Routing read: which physical partition owns this (mixed) hash now.
  [[nodiscard]] int partition_of(std::uint64_t mixed_hash) const noexcept {
    return owners_[static_cast<std::size_t>(slot_of(mixed_hash))].load(
        std::memory_order_acquire);
  }

  [[nodiscard]] int owner(int slot) const noexcept {
    return owners_[static_cast<std::size_t>(slot)].load(
        std::memory_order_acquire);
  }

  void set_owner(int slot, int partition) noexcept {
    owners_[static_cast<std::size_t>(slot)].store(partition,
                                                  std::memory_order_release);
  }

  /// Heat bump on the routing path (enabled mode only). Relaxed: heat is a
  /// relative load signal, never a correctness input.
  void record_op(int slot) const noexcept {
    heat_[static_cast<std::size_t>(slot)].fetch_add(1,
                                                    std::memory_order_relaxed);
    total_ops_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t slot_heat(int slot) const noexcept {
    return heat_[static_cast<std::size_t>(slot)].load(
        std::memory_order_relaxed);
  }

  /// Sum of slot heat currently attributed to `partition`.
  [[nodiscard]] std::int64_t partition_heat(int partition) const noexcept {
    std::int64_t sum = 0;
    for (std::size_t s = 0; s < owners_.size(); ++s) {
      if (owners_[s].load(std::memory_order_acquire) == partition) {
        sum += heat_[s].load(std::memory_order_relaxed);
      }
    }
    return sum;
  }

  /// Slots currently owned by `partition`, hottest first.
  [[nodiscard]] std::vector<int> slots_of(int partition) const {
    std::vector<int> slots;
    for (std::size_t s = 0; s < owners_.size(); ++s) {
      if (owners_[s].load(std::memory_order_acquire) == partition) {
        slots.push_back(static_cast<int>(s));
      }
    }
    return slots;
  }

  [[nodiscard]] std::int64_t total_ops() const noexcept {
    return total_ops_.load(std::memory_order_relaxed);
  }

  /// Decay after a move so the advisor judges the NEW placement, not the
  /// traffic that provoked the move.
  void reset_heat() noexcept {
    for (auto& h : heat_) h.store(0, std::memory_order_relaxed);
  }

 private:
  int num_partitions_;
  std::vector<std::atomic<int>> owners_;
  mutable std::vector<std::atomic<std::int64_t>> heat_;
  mutable std::atomic<std::int64_t> total_ops_{0};
};

}  // namespace hcl::core
