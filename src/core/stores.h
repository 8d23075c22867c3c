// Local-store adapters for the two generic container cores (DESIGN.md §5).
//
// The paper's containers are "single-partitioned structures abstracted
// behind a global interface" (§III.D): one distribution layer over a
// swappable local structure. core::PartitionedMap<Store> is that layer for
// the maps and core::HostedQueue<Store> for the queues; the adapters below
// are the swappable part. Each wraps one lock-free structure behind the
// store concept its core calls, and carries the few facts that differ
// between stores as constants plus ONE cost function, descent():
//
//   * CuckooStore   (hcl::unordered_map) — lf::CuckooMap, flat O(1) cost
//   * SkipListStore (hcl::map)           — lf::SkipListMap, O(log n) descent
//   * FifoStore     (hcl::queue)         — lf::MsQueue, flat O(1) cost
//   * HeapStore     (hcl::priority_queue)— lf::PriorityQueue, O(log n) push
//
// Beside them sits the one Table I charging function both cores' server
// bodies call, charge_server(). A co-located caller runs those same bodies
// in its own thread against hybrid_ctx() (§III.C.5), so each op is written
// and charged once, whichever path delivers it.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/hash.h"
#include "core/context.h"
#include "lf/cuckoo_map.h"
#include "lf/ms_queue.h"
#include "lf/priority_queue.h"
#include "lf/skiplist_map.h"
#include "rpc/engine.h"
#include "sim/actor.h"
#include "sim/cost_model.h"

namespace hcl::core {

/// Table I's per-access structure term: `ops` local operations (L) and
/// `ns` of simulated time charged before the byte cost. Flat structures
/// are one L and no extra time; ordered ones pay L·log N levels.
struct Descent {
  std::int64_t ops = 1;
  sim::Nanos ns = 0;
};

inline Descent log_descent(std::size_t n, const sim::CostModel& model) {
  const int levels = depth_levels(n);
  return {levels, static_cast<sim::Nanos>(levels) * model.mem_level_ns};
}

/// The hybrid path (§III.C.5): a caller co-located with `node` skips the RPC
/// and runs the op's own server body in its thread, against this context. It
/// starts at the caller's clock, and `caller` makes the body's charge
/// (finish_at) advance that clock at the charge point — a ClockWindow
/// throttle point: before a write's apply and replication, after a read.
inline rpc::ServerCtx hybrid_ctx(sim::Actor& self, sim::NodeId node) {
  rpc::ServerCtx sctx;
  sctx.node = node;
  sctx.start = self.now();
  sctx.finish = sctx.start;
  sctx.caller = &self;
  return sctx;
}

/// End a server body's charge at `t`: its finish and, on the hybrid path,
/// the caller's clock.
inline sim::Nanos finish_at(rpc::ServerCtx& sctx, sim::Nanos t) {
  sctx.finish = t;
  if (sctx.caller != nullptr) sctx.caller->advance_to(t);
  return t;
}

/// Table I's charge for one server body, on the NIC core or a co-located
/// caller's (hybrid_ctx): `elements` elements written (insert base term) or
/// read (find base term) on sctx.node — the structure-op base term plus the
/// descent `d`, then the memory-channel byte cost. Inside a coalesced bundle
/// only the first constituent pays the base term — Table I's bulk shape
/// F + L + E·W: one L (setup, hash tables warm in cache), then per-element
/// byte costs. The descent is per-op and charged for every one.
inline sim::Nanos charge_server(Context& ctx, rpc::ServerCtx& sctx, Descent d,
                                std::int64_t bytes, bool write,
                                std::int64_t elements = 1) {
  auto& stats = ctx.op_stats();
  stats.local_ops.fetch_add(d.ops, std::memory_order_relaxed);
  const auto& m = ctx.model();
  const bool first = sctx.batch_index == 0;
  if (write) {
    stats.local_writes.fetch_add(elements, std::memory_order_relaxed);
    const sim::Nanos base = first ? m.mem_insert_base_ns : 0;
    return finish_at(sctx, ctx.fabric().local_write(
                               sctx.node, sctx.start + base + d.ns, bytes));
  }
  stats.local_reads.fetch_add(elements, std::memory_order_relaxed);
  const sim::Nanos base = first ? m.mem_find_base_ns : 0;
  return finish_at(sctx, ctx.fabric().local_read(
                             sctx.node, sctx.start + base + d.ns, bytes));
}

// ---- map stores: insert/upsert/update_fn/find/erase/for_each/size -------

template <typename K, typename V, typename HashFn = Hash<K>>
class CuckooStore {
 public:
  using key_type = K;
  using mapped_type = V;
  using hasher = HashFn;

  /// First-level (partition) hash salt: "HCL_PART".
  static constexpr std::uint64_t kPartitionSalt = 0x48434c5f50415254ULL;
  /// Every fresh entry charges the node memory budget (Fig. 4(b) gauge).
  static constexpr bool kChargesEntryMemory = true;
  static constexpr bool kOrdered = false;

  bool insert(const K& key, const V& value) { return map_.insert(key, value); }
  bool upsert(const K& key, const V& value) { return map_.upsert(key, value); }
  template <typename F>
  bool update_fn(const K& key, F&& fn, const V& init) {
    return map_.update_fn(key, std::forward<F>(fn), init);
  }
  bool find(const K& key, V* out) const { return map_.find(key, out); }
  bool erase(const K& key) { return map_.erase(key); }
  template <typename F>
  void for_each(F&& fn) const {
    map_.for_each(std::forward<F>(fn));
  }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  /// Physical bucket growth (Table I resize).
  void reserve(std::size_t buckets) { map_.reserve(buckets); }

  [[nodiscard]] Descent descent(const sim::CostModel&) const { return {}; }
  /// Table I resize, N (R + W): every entry read and rewritten once.
  [[nodiscard]] std::int64_t resize_bytes() const {
    return static_cast<std::int64_t>(size()) * 64;
  }

 private:
  lf::CuckooMap<K, V, HashFn> map_{2};
};

template <typename K, typename V, typename Less = std::less<K>,
          typename HashFn = Hash<K>>
class SkipListStore {
 public:
  using key_type = K;
  using mapped_type = V;
  using hasher = HashFn;
  using key_compare = Less;

  /// First-level (partition) hash salt: "HCLORDER".
  static constexpr std::uint64_t kPartitionSalt = 0x48434c4f52444552ULL;
  static constexpr bool kChargesEntryMemory = false;
  static constexpr bool kOrdered = true;

  bool insert(const K& key, const V& value) { return list_.insert(key, value); }
  bool upsert(const K& key, const V& value) {
    return list_.upsert(key, [&](V& v) { v = value; }, value);
  }
  template <typename F>
  bool update_fn(const K& key, F&& fn, const V& init) {
    return list_.upsert(key, std::forward<F>(fn), init);
  }
  bool find(const K& key, V* out) const { return list_.find_value(key, out); }
  bool erase(const K& key) { return list_.erase(key); }
  template <typename F>
  void for_each(F&& fn) const {
    list_.for_each(std::forward<F>(fn));
  }
  [[nodiscard]] std::size_t size() const { return list_.size(); }
  /// A skiplist never reallocates; resize only charges the re-insertion.
  void reserve(std::size_t) {}

  /// Table I: L·log N for every access, insert and find alike.
  [[nodiscard]] Descent descent(const sim::CostModel& model) const {
    return log_descent(size(), model);
  }
  /// Table I resize, N·log N (R + W).
  [[nodiscard]] std::int64_t resize_bytes() const {
    return static_cast<std::int64_t>(size()) * depth_levels(size()) * 64;
  }

 private:
  lf::SkipListMap<K, V, Less> list_;
};

// ---- queue stores: push/pop/peek_nth/size --------------------------------

template <typename T>
class FifoStore {
 public:
  using value_type = T;

  static constexpr const char* kJournalSuffix = ".q0";
  /// A FIFO transaction may stage any number of pops: the k-th reads the
  /// k-th element behind the pre-transaction front.
  static constexpr bool kOneStagedPop = false;

  void push(T value) { q_.push(std::move(value)); }
  bool pop(T* out) { return q_.pop(out); }
  bool peek_nth(std::size_t n, T* out) const { return q_.peek_nth(n, out); }
  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] bool empty() const { return q_.empty(); }

  /// Cost of a push; pops are flat for every queue store.
  [[nodiscard]] Descent descent(const sim::CostModel&) const { return {}; }

 private:
  lf::MsQueue<T> q_;
};

template <typename T, typename Less = std::less<T>>
class HeapStore {
 public:
  using value_type = T;

  static constexpr const char* kJournalSuffix = ".pq0";
  /// Pop-min's target shifts once the first staged pop lands, so a second
  /// staged pop's read could not be validated: one per transaction.
  static constexpr bool kOneStagedPop = true;

  void push(T value) { q_.push(std::move(value)); }
  bool pop(T* out) { return q_.pop(out); }
  /// Only the minimum is observable (n == 0; kOneStagedPop keeps it so).
  bool peek_nth(std::size_t n, T* out) const { return n == 0 && q_.peek(out); }
  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] bool empty() const { return q_.empty(); }

  /// Table I: push is F + L·log N + W; pop-min stays F + L + R.
  [[nodiscard]] Descent descent(const sim::CostModel& model) const {
    return log_descent(size(), model);
  }

 private:
  lf::PriorityQueue<T, Less> q_;
};

}  // namespace hcl::core
