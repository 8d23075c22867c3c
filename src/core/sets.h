// hcl::unordered_set / hcl::set — distributed sets (paper §III.D.1/.2).
//
// "Both structures ... Each bucket is a struct consisting of a key and a
// value for maps and a key for sets." Both sets are one thin adapter,
// core::PartitionedSet<Store>, over core::PartitionedMap<Store> with an
// empty mapped value — the same CuckooStore / SkipListStore the maps use
// (core/stores.h). Because no value is serialized or journaled, set traffic
// is smaller — the mechanism behind "sets are 7% to 14% faster than the map
// counterparts" (Fig. 6b).
#pragma once

#include <functional>

#include "core/partitioned_map.h"

namespace hcl {

namespace core {
/// Empty mapped value for sets: zero bytes on the wire (empty types are
/// elided by the serializer), so set traffic carries keys only.
struct Unit {
  friend bool operator==(const Unit&, const Unit&) { return true; }
};
static_assert(std::is_empty_v<Unit>);

template <typename Store>
class PartitionedSet {
  using K = typename Store::key_type;

 public:
  using key_type = K;

  PartitionedSet(Context& ctx, core::ContainerOptions options = {})
      : impl_(ctx, options) {}

  /// Insert; false if the key was already present.
  bool insert(const K& key) { return impl_.insert(key, Unit{}); }
  /// Membership test (Table I: "Find item in set, return if exists").
  bool find(const K& key) { return impl_.find(key, nullptr); }
  bool contains(const K& key) { return find(key); }
  bool erase(const K& key) { return impl_.erase(key); }
  bool resize(int partition_id, std::size_t new_size) {
    return impl_.resize(partition_id, new_size);
  }

  rpc::Future<bool> async_insert(const K& key) {
    return impl_.async_insert(key, Unit{});
  }

  // Bulk API (op coalescing; same contract as the map's *_batch).
  std::vector<bool> insert_batch(const std::vector<K>& keys,
                                 std::vector<Status>* statuses = nullptr) {
    return impl_.insert_batch(keys, std::vector<Unit>(keys.size()), statuses);
  }
  /// Bulk membership test; results[i] is find(keys[i]).
  std::vector<bool> find_batch(const std::vector<K>& keys,
                               std::vector<Status>* statuses = nullptr) {
    auto found = impl_.find_batch(keys, statuses);
    std::vector<bool> results(found.size(), false);
    for (std::size_t i = 0; i < found.size(); ++i) {
      results[i] = found[i].has_value();
    }
    return results;
  }
  std::vector<bool> erase_batch(const std::vector<K>& keys,
                                std::vector<Status>* statuses = nullptr) {
    return impl_.erase_batch(keys, statuses);
  }

  [[nodiscard]] std::size_t size() { return impl_.size(); }
  [[nodiscard]] int num_partitions() const noexcept {
    return impl_.num_partitions();
  }
  [[nodiscard]] int partition_of(const K& key) const {
    return impl_.partition_of(key);
  }
  [[nodiscard]] sim::NodeId partition_owner(int p) const {
    return impl_.partition_owner(p);
  }
  [[nodiscard]] cache::CacheStats cache_stats() const {
    return impl_.cache_stats();
  }

  // Heat-driven shard rebalancing (DESIGN.md §5g), forwarded to the map.
  std::size_t split(int p) { return impl_.split(p); }
  std::size_t merge(int p, int q) { return impl_.merge(p, q); }
  bool migrate(int p, int node) { return impl_.migrate(p, node); }
  int rebalance_tick() { return impl_.rebalance_tick(); }
  [[nodiscard]] std::int64_t partition_heat(int p) const {
    return impl_.partition_heat(p);
  }
  [[nodiscard]] std::size_t rebalances() const noexcept {
    return impl_.rebalances();
  }

  // Transactions (DESIGN.md §5h), forwarded to the map. txn_add/txn_remove
  // stage intents on the coordinator; txn_contains is a validated read.
  void txn_add(txn::Txn& t, const K& key) { impl_.txn_put(t, key, Unit{}); }
  void txn_remove(txn::Txn& t, const K& key) { impl_.txn_erase(t, key); }
  bool txn_contains(sim::Actor& self, txn::Txn& t, const K& key) {
    return impl_.txn_find(self, t, key, nullptr);
  }

  template <typename F>
  void for_each(F&& fn) {
    impl_.for_each([&fn](const K& k, const Unit&) { fn(k); });
  }
  /// Visit keys in comparator order across all partitions (ordered stores).
  template <typename F>
  void for_each_ordered(F&& fn)
    requires Store::kOrdered
  {
    impl_.for_each_ordered([&fn](const K& k, const Unit&) { fn(k); });
  }

 private:
  PartitionedMap<Store> impl_;
};

}  // namespace core

template <typename K, typename HashFn = Hash<K>>
using unordered_set = core::PartitionedSet<core::CuckooStore<K, core::Unit, HashFn>>;

template <typename K, typename Less = std::less<K>, typename HashFn = Hash<K>>
using set = core::PartitionedSet<core::SkipListStore<K, core::Unit, Less, HashFn>>;

}  // namespace hcl
