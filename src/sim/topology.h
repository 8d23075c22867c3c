// Cluster topology: nodes, processes-per-node, and the rank <-> node map.
//
// Mirrors the paper's testbed layout (64 nodes x 40 ranks = 2560 clients on
// Ares); every benchmark constructs a Topology matching the figure it
// reproduces, optionally scaled down (DESIGN.md §2).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hcl::sim {

using Rank = int;
using NodeId = int;

class Topology {
 public:
  Topology(int num_nodes, int procs_per_node)
      : num_nodes_(num_nodes), procs_per_node_(procs_per_node) {
    if (num_nodes <= 0 || procs_per_node <= 0) {
      throw HclError(Status::InvalidArgument("topology dimensions must be positive"));
    }
  }

  [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] int procs_per_node() const noexcept { return procs_per_node_; }
  [[nodiscard]] int num_ranks() const noexcept { return num_nodes_ * procs_per_node_; }

  /// Ranks are laid out block-wise: node 0 hosts ranks [0, P), node 1 hosts
  /// [P, 2P), ... — the same layout mpirun uses with block mapping.
  [[nodiscard]] NodeId node_of(Rank rank) const noexcept {
    return rank / procs_per_node_;
  }
  [[nodiscard]] int local_index(Rank rank) const noexcept {
    return rank % procs_per_node_;
  }
  [[nodiscard]] Rank first_rank_on(NodeId node) const noexcept {
    return node * procs_per_node_;
  }
  [[nodiscard]] bool valid_rank(Rank rank) const noexcept {
    return rank >= 0 && rank < num_ranks();
  }
  [[nodiscard]] bool valid_node(NodeId node) const noexcept {
    return node >= 0 && node < num_nodes_;
  }
  /// True when two ranks share a node — the predicate behind the hybrid
  /// data-access model (paper §III.C.5).
  [[nodiscard]] bool co_located(Rank a, Rank b) const noexcept {
    return node_of(a) == node_of(b);
  }

 private:
  int num_nodes_;
  int procs_per_node_;
};

/// A set of nodes that any thread may read and change: one bit per node,
/// in one atomic word per 64 nodes of its capacity. A node outside
/// [0, capacity) is refused (HclError kInvalidArgument) and is never in the
/// set, so no two nodes share a bit.
class NodeSet {
 public:
  explicit NodeSet(int capacity)
      : words_(capacity > 0 ? (static_cast<std::size_t>(capacity) + 63) / 64
                            : 0),
        capacity_(capacity) {}

  void insert(NodeId node) {
    word(node).fetch_or(bit(node), std::memory_order_acq_rel);
  }
  void erase(NodeId node) {
    word(node).fetch_and(~bit(node), std::memory_order_acq_rel);
  }
  [[nodiscard]] bool contains(NodeId node) const noexcept {
    return node >= 0 && node < capacity_ &&
           (words_[static_cast<std::size_t>(node) / 64].load(
                std::memory_order_acquire) &
            bit(node)) != 0;
  }
  void clear() noexcept {
    for (auto& w : words_) w.store(0, std::memory_order_release);
  }

 private:
  static std::uint64_t bit(NodeId node) noexcept {
    return 1ULL << (static_cast<unsigned>(node) % 64u);
  }
  std::atomic<std::uint64_t>& word(NodeId node) {
    if (node < 0 || node >= capacity_) {
      throw HclError(Status::InvalidArgument(
          "node " + std::to_string(node) + " is outside a set of " +
          std::to_string(capacity_)));
    }
    return words_[static_cast<std::size_t>(node) / 64];
  }

  std::vector<std::atomic<std::uint64_t>> words_;
  int capacity_;
};

}  // namespace hcl::sim
