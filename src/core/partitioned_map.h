// core::PartitionedMap<Store> — the one distribution layer under both
// distributed maps (paper §III.D.1/.2):
//
//   hcl::unordered_map<K, V, HashFn>   = PartitionedMap<CuckooStore<...>>
//   hcl::map<K, V, Less, HashFn>       = PartitionedMap<SkipListStore<...>>
//
// A single logically contiguous hash space distributed block-wise among
// multiple partitions in the global address space. Two levels of hashing:
// the first (salted per store) picks the partition, the second places the
// key inside the partition's local store — a concurrent cuckoo table or an
// ordered lazy skiplist (core/stores.h). The paper calls these
// "single-partitioned structures abstracted behind a global interface".
//
// Access follows the hybrid data access model (§III.C.5): if the chosen
// partition is co-located with the caller, the RPC infrastructure is
// bypassed entirely and the caller runs the op's own server body in its
// thread, on shared memory; otherwise the operation ships as ONE
// RPC-over-RDMA invocation and the same body executes on the target NIC
// core (Table I: insert = F + L + W, find = F + L + R; the ordered store
// adds its L·log N descent through Store::descent()).
//
// Extras the paper describes and we implement:
//   * asynchronous variants returning futures (§III.C.4),
//   * asynchronous server-side replication (§III.A.4), with failover to a
//     promoted replica while a primary is down (DESIGN.md §5f): every
//     replicated op's server body is written ONCE against a serving side
//     and bound twice — its primary FuncId and its failover twin; routing,
//     failover state, repair, the twin binding, the txn participant legs,
//     intent table and stubs, and the record format come from
//     core/failover.h, one lane per partition (the map keeps its stripe
//     stamps, fence and read-set validation),
//   * per-operation durability through a memory-mapped journal (§III.C.6),
//   * explicit per-partition resize (Table I),
//   * registered *mutators* — named server-side read-modify-write functions
//     shipped by id, the procedural-paradigm primitive that client-side
//     (BCL-style) designs fundamentally cannot express in one round trip.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/read_cache.h"
#include "common/hash.h"
#include "core/bulk.h"
#include "core/context.h"
#include "core/failover.h"
#include "core/stores.h"
#include "rpc/batch.h"
#include "rpc/engine.h"
#include "serial/databox.h"
#include "txn/txn.h"

namespace hcl {
namespace core {

template <typename Store>
class PartitionedMap {
  using K = typename Store::key_type;
  using V = typename Store::mapped_type;
  using HashFn = typename Store::hasher;

  // Defined with the other transaction internals below (§5h); declared here
  // so the public txn_* methods can name it.
  class TxnParticipant;

 public:
  using key_type = K;
  using mapped_type = V;
  using MutatorId = std::uint32_t;

  PartitionedMap(Context& ctx, core::ContainerOptions options = {})
      : ctx_(&ctx),
        options_(options),
        num_partitions_(core::resolve_partitions(options, ctx.topology())),
        shard_map_(num_partitions_,
                   std::max(1, options.rebalance.slots_per_partition)),
        bindings_(ctx, options.shm.enabled) {
    partitions_.reserve(static_cast<std::size_t>(num_partitions_));
    for (int p = 0; p < num_partitions_; ++p) {
      auto part = std::make_unique<Partition>();
      part->node = core::partition_node(options_, ctx_->topology(), p);
      part->store.reserve(options_.initial_buckets);
      if (!options_.persist_path.empty()) {
        Store& store = part->store;
        part->journal.open(ctx_->fabric().memory(part->node),
                           options_.persist_path + ".p" + std::to_string(p),
                           options_.sync_mode, [&](const Record& rec) {
                             if (rec.op == LogOp::kErase) {
                               store.erase(rec.key);
                             } else {
                               store.upsert(rec.key, rec.value);
                             }
                           });
      }
      partitions_.push_back(std::move(part));
    }
    // Degenerate replica placement (DESIGN.md §5f): if some partition has
    // every replica candidate co-located with its primary, one node loss
    // takes primary and standbys together and the availability guarantee is
    // silently void. Refuse up front instead.
    if (options_.replication > 0) {
      for (int p = 0; p < num_partitions_; ++p) {
        bool distinct = false;
        for (int r = 1; r <= options_.replication && !distinct; ++r) {
          const int q = (p + r) % num_partitions_;
          distinct = partition(q).node != partition(p).node;
        }
        if (!distinct) {
          throw HclError(Status::InvalidArgument(
              "replication requires a replica partition on a distinct node; "
              "add nodes, partitions, or drop replication"));
        }
      }
    }
    std::vector<sim::NodeId> owners;
    owners.reserve(partitions_.size());
    for (const auto& part : partitions_) owners.push_back(part->node);
    cache_ = std::make_unique<cache::ReadCache<K, V, HashFn>>(
        ctx_->fabric(), options_.cache, ctx_->topology().num_ranks(),
        std::move(owners),
        options_.trace.enabled ? ctx_->tracer_if_enabled() : nullptr);
    if (cache_->enabled()) {
      cache_hook_ = ctx_->register_cache_hook(
          [c = cache_.get()] { c->invalidate_all(); });
    }
    bind_handlers();
  }

  PartitionedMap(const PartitionedMap&) = delete;
  PartitionedMap& operator=(const PartitionedMap&) = delete;

  ~PartitionedMap() {
    if (cache_hook_ != 0) ctx_->unregister_cache_hook(cache_hook_);
  }

  /// The map's record shape (core/failover.h) for its journals and intent
  /// blobs: insert and upsert carry the key and value, erase the key alone.
  /// Journal replay and the repair replay apply inserts as upserts.
  enum class LogOp : std::uint8_t { kInsert = 1, kUpsert = 2, kErase = 3 };
  using Record = core::Record<LogOp, LogOp::kErase, LogOp::kErase, K, V>;

  // ------------------------------------------------------------------
  // Synchronous API (paper Table I)
  // ------------------------------------------------------------------

  /// Insert; false if the key already exists. Cost: F + L + W (remote) or
  /// L + W (co-located partition).
  bool insert(const K& key, const V& value) {
    return run(insert_op(key, value));
  }

  /// Insert-or-overwrite; true when newly inserted.
  bool upsert(const K& key, const V& value) {
    return run(data_op(
        upsert_, &PartitionedMap::upsert_body,
        [&](bool, bool ok) { return ok ? Known(value) : Known(); }, key,
        value));
  }

  /// Lookup; returns true and fills `out`. Cost: F + L + R (remote) or
  /// L + R (co-located).
  bool find(const K& key, V* out = nullptr) {
    std::optional<V> result = run(find_op(key));
    if (result.has_value() && out != nullptr) *out = std::move(*result);
    return result.has_value();
  }

  [[nodiscard]] bool contains(const K& key) { return find(key, nullptr); }

  /// Remove; false if absent.
  bool erase(const K& key) { return run(erase_op(key)); }

  /// Explicitly resize one partition (Table I: F + N(R + W); the ordered
  /// store charges N·log N (R + W) and needs no physical reallocation). No
  /// failover twin: a dead primary fails kUnavailable.
  bool resize(int partition_id, std::size_t new_buckets) {
    auto guard = op_guard();
    if (partition_id < 0 || partition_id >= num_partitions_) return false;
    const auto buckets = static_cast<std::uint64_t>(new_buckets);
    return core::call<bool>(
        *ctx_, sim::this_actor(), lane(partition_id), resize_,
        [&](rpc::ServerCtx& sctx) {
          return resize_body(sctx, partition_id, buckets);
        },
        buckets);
  }

  // ------------------------------------------------------------------
  // Bulk API (op coalescing, Table I's bulk rows): ops are grouped per
  // destination partition node and ship as bundled invocations under
  // `options.batch`; co-located ops take the hybrid shared-memory path
  // inline. Element order is preserved per destination, so duplicate keys
  // observe each other in argument order, exactly like the scalar loop.
  //
  // Failure semantics: with `statuses == nullptr` the first failed op
  // throws HclError (scalar semantics). With a `statuses` vector, every
  // op's own Status is recorded — a fault mid-bundle fails only the ops it
  // touched (the result slot of a failed op keeps its default) — and
  // nothing throws.
  // ------------------------------------------------------------------

  /// Bulk insert; results[i] is insert(keys[i], values[i]).
  std::vector<bool> insert_batch(const std::vector<K>& keys,
                                 const std::vector<V>& values,
                                 std::vector<Status>* statuses = nullptr) {
    if (keys.size() != values.size()) {
      throw HclError(
          Status::InvalidArgument("insert_batch: keys/values size mismatch"));
    }
    return run_batch<std::vector<bool>>(
        keys.size(), statuses,
        [&](std::size_t i) { return insert_op(keys[i], values[i]); });
  }

  /// Bulk lookup; results[i] is the value found for keys[i], if any.
  std::vector<std::optional<V>> find_batch(const std::vector<K>& keys,
                                           std::vector<Status>* statuses = nullptr) {
    return run_batch<std::vector<std::optional<V>>>(
        keys.size(), statuses, [&](std::size_t i) { return find_op(keys[i]); });
  }

  /// Bulk erase; results[i] is erase(keys[i]).
  std::vector<bool> erase_batch(const std::vector<K>& keys,
                                std::vector<Status>* statuses = nullptr) {
    return run_batch<std::vector<bool>>(
        keys.size(), statuses,
        [&](std::size_t i) { return erase_op(keys[i]); });
  }

  // ------------------------------------------------------------------
  // Failover & recovery (DESIGN.md §5f). Detection and repair are lazy —
  // the first op that trips over a dead primary reroutes, and the first
  // op routed at a rejoined primary replays the promoted standby's
  // journal — so no background machinery exists. heal() is the eager
  // form: a deterministic recovery point for tests and benchmarks.
  // ------------------------------------------------------------------

  /// Repair every promoted partition whose primary has rejoined and clear
  /// its stale route mark. Safe to call any time; no-op when nothing is
  /// promoted. Partitions whose primaries are still down are skipped.
  void heal(sim::Actor& self) {
    auto guard = op_guard();
    for (int p = 0; p < num_partitions_; ++p) core::heal(*ctx_, self, lane(p));
  }

  // ------------------------------------------------------------------
  // Asynchronous API (§III.C.4)
  // ------------------------------------------------------------------

  /// Async insert. The write's cache entry is invalidated before it ships;
  /// the completion epoch is never harvested (a continuation runs on
  /// whichever thread fulfills the future, which must not touch this rank's
  /// store), so the entry simply stays cold.
  rpc::Future<bool> async_insert(const K& key, const V& value) {
    return run_async(insert_op(key, value));
  }

  /// Async lookup; bypasses the read cache.
  rpc::Future<std::optional<V>> async_find(const K& key) {
    return run_async(find_op(key));
  }

  // ------------------------------------------------------------------
  // Registered mutators: procedural read-modify-write in one invocation.
  // ------------------------------------------------------------------

  /// Register a named server-side mutator `fn(V& value, const Arg& arg)`.
  /// `fn` may return void (pure mutation) or a serializable R, fetched by
  /// apply_fetch(). Must be called identically (same order) before any
  /// apply() — typically right after construction, like bind().
  template <typename Arg, typename F>
  MutatorId register_mutator(F fn) {
    using R = std::invoke_result_t<F, V&, const std::decay_t<Arg>&>;
    const auto id = static_cast<MutatorId>(mutators_.size());
    mutators_.push_back(
        [fn = std::move(fn)](V& value, std::span<const std::byte> raw)
            -> std::vector<std::byte> {
          serial::InArchive in(raw);
          std::decay_t<Arg> arg{};
          serial::load(in, arg);
          if constexpr (std::is_void_v<R>) {
            fn(value, arg);
            return {};
          } else {
            R result = fn(value, arg);
            serial::OutArchive out;
            serial::save(out, result);
            return out.take();
          }
        });
    return id;
  }

  /// Apply a registered mutator to `key` (inserting `init` first if absent)
  /// in ONE remote invocation. Returns true when the key was newly created.
  /// This is the paper's procedural-programming payoff: a read-modify-write
  /// with no client-side lock or retry loop.
  template <typename Arg>
  bool apply(const K& key, MutatorId mutator, const Arg& arg, const V& init = V{}) {
    const auto raw = pack(arg);
    return run(data_op(apply_, &PartitionedMap::apply_body, unknown, key,
                       mutator, raw, init));
  }

  /// Like apply(), but returns the value the mutator computed (fetch-and-
  /// modify). Still exactly one remote invocation — the BCL equivalent
  /// needs a CAS-lock round-trip dance (bcl::HashMap::rmw).
  template <typename R, typename Arg>
  R apply_fetch(const K& key, MutatorId mutator, const Arg& arg,
                const V& init = V{}) {
    const auto raw = pack(arg);
    const auto bytes =
        run(data_op(apply_fetch_, &PartitionedMap::apply_fetch_body, unknown,
                    key, mutator, raw, init));
    serial::InArchive in{std::span<const std::byte>(bytes)};
    R result{};
    serial::load(in, result);
    return result;
  }

  // ------------------------------------------------------------------
  // Transactions (DESIGN.md §5h). These stage intents CLIENT-side into the
  // Txn; nothing ships until TxnCoordinator::commit runs the two-phase
  // epoch-validated protocol through the participants created here.
  // ------------------------------------------------------------------

  /// Stage an upsert of `key` into the transaction. Last write per key wins
  /// within the txn; the write is blind (no epoch captured) unless the txn
  /// also read this partition.
  void txn_put(txn::Txn& t, const K& key, const V& value) {
    auto guard = op_guard();
    participant(t, partition_of(key)).stage(LogOp::kUpsert, key, &value);
  }

  /// Stage an erase of `key` into the transaction.
  void txn_erase(txn::Txn& t, const K& key) {
    auto guard = op_guard();
    participant(t, partition_of(key)).stage(LogOp::kErase, key, nullptr);
  }

  /// Transactional read: serves the txn's own staged write first
  /// (read-your-writes), otherwise reads the authoritative partition —
  /// BYPASSING the read cache, because the partition epoch captured here is
  /// what prepare validates the key's stripe against; a cached value would
  /// pin a lease epoch, not the partition's current one. Throws
  /// kUnavailable when the partition's node is down (fail fast — no standby
  /// reroute, the fenced failover epoch stream cannot be validated).
  bool txn_find(sim::Actor& self, txn::Txn& t, const K& key, V* out = nullptr) {
    auto guard = op_guard();
    const int p = partition_of(key);
    TxnParticipant& tp = participant(t, p);
    bool staged_hit = false;
    bool staged_present = false;
    tp.read_intent(key, &staged_hit, &staged_present, out);
    if (staged_hit) return staged_present;
    std::uint64_t epoch = 0;
    auto result = core::txn_read<std::optional<V>>(
        *ctx_, self, lane(p),
        [&](rpc::ServerCtx& sctx) {
          return find_body(sctx, primary_side(p), key);
        },
        &epoch, find_.primary, key);
    tp.note_read(stripe_of(key), epoch);
    if (!result.has_value()) return false;
    if (out != nullptr) *out = std::move(*result);
    return true;
  }

  /// Diagnostics: does any prepared transaction hold a stripe of partition
  /// `p` (§5h)?
  [[nodiscard]] bool txn_slot_held(int p) { return partition(p).txn.held(); }

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  [[nodiscard]] int num_partitions() const noexcept { return num_partitions_; }
  [[nodiscard]] sim::NodeId partition_owner(int p) const {
    return partition(p).node;
  }
  /// Routing read through the shard map (DESIGN.md §5g). With rebalancing
  /// disabled (default) the slot table is frozen at `slot % P`, which makes
  /// this bit-identical to the historical `hash % P`; enabled, it re-reads
  /// slot ownership — so ops issued after a split/merge land on the new
  /// owner — and feeds the slot's heat counter.
  [[nodiscard]] int partition_of(const K& key) const {
    const std::uint64_t h = mix64(hash_(key) ^ Store::kPartitionSalt);
    const int slot = shard_map_.slot_of(h);
    if (options_.rebalance.enabled) shard_map_.record_op(slot);
    return shard_map_.owner(slot);
  }

  /// Total elements across partitions (no simulated cost; diagnostics).
  /// Route-aware (DESIGN.md §5f): a promoted partition's authoritative
  /// state is its base map PLUS the failover journal the standby accepted
  /// while the primary was down — summing the base alone would read the
  /// dead primary's stale count. The journal overlay applies the final op
  /// per key, under fo.mutex so a racing failover write can't tear it.
  [[nodiscard]] std::size_t size() {
    auto guard = op_guard();
    std::int64_t n = 0;
    for (const auto& partp : partitions_) {
      Partition& part = *partp;
      std::lock_guard<std::mutex> fo_guard(part.fo.mutex);
      n += static_cast<std::int64_t>(part.store.size());
      if (!part.fo.promoted) continue;
      for (const auto& [k, v] : overlay(part)) {
        V tmp{};
        n += (v.has_value() ? 1 : 0) - (part.store.find(k, &tmp) ? 1 : 0);
      }
    }
    return static_cast<std::size_t>(n);
  }

  /// Elements replicated into partition `p` from elsewhere (diagnostics).
  /// Reads under fo.mutex so the count is consistent with any in-flight
  /// failover write into this partition's replica set.
  [[nodiscard]] std::size_t replica_size(int p) {
    auto guard = op_guard();
    Partition& part = partition(p);
    std::lock_guard<std::mutex> fo_guard(part.fo.mutex);
    return part.replicas.size();
  }

  /// Aggregate read-cache counters across all ranks (DESIGN.md §5d).
  [[nodiscard]] cache::CacheStats cache_stats() const { return cache_->stats(); }

  /// Current mutation epoch of partition `p` (diagnostics / tests).
  [[nodiscard]] std::uint64_t partition_epoch(int p) const {
    return partition(p).epoch.load(std::memory_order_acquire);
  }

  /// Failover diagnostics (DESIGN.md §5f): is partition p's standby
  /// currently promoted, and how many ops await anti-entropy repair?
  [[nodiscard]] bool partition_promoted(int p) {
    return partition(p).fo.is_promoted();
  }
  [[nodiscard]] std::size_t repair_backlog(int p) {
    return partition(p).fo.backlog();
  }

  /// Visit every (key, value) in every partition — local introspection for
  /// tests/apps; not a consistent global snapshot under concurrency.
  /// Route-aware like size(): a promoted partition's failover journal
  /// overlays its base map (final op per key), so post-failover visitors
  /// see the standby's accepted writes, not the dead primary's state.
  template <typename F>
  void for_each(F&& fn) {
    auto guard = op_guard();
    for (const auto& partp : partitions_) {
      Partition& part = *partp;
      std::lock_guard<std::mutex> fo_guard(part.fo.mutex);
      if (!part.fo.promoted) {
        part.store.for_each(fn);
        continue;
      }
      const auto last = overlay(part);
      part.store.for_each([&](const K& k, const V& v) {
        if (last.find(k) == last.end()) fn(k, v);
      });
      for (const auto& [k, v] : last) {
        if (v.has_value()) fn(k, *v);
      }
    }
  }

  /// Globally ordered visit (ordered stores only): the route-aware
  /// for_each() snapshot, sorted by the store's comparator.
  template <typename F>
  void for_each_ordered(F&& fn)
    requires Store::kOrdered
  {
    std::vector<std::pair<K, V>> all;
    for_each([&](const K& k, const V& v) { all.emplace_back(k, v); });
    typename Store::key_compare less;
    std::stable_sort(all.begin(), all.end(), [&](const auto& a, const auto& b) {
      return less(a.first, b.first);
    });
    for (const auto& [k, v] : all) fn(k, v);
  }

  // ------------------------------------------------------------------
  // Heat-driven shard rebalancing (DESIGN.md §5g). split/merge/migrate
  // mutate slot ownership / placement under the container-wide latch every
  // public op holds shared, so a move begins only once in-flight ops have
  // drained and no op observes a half-moved shard: ops issued before the
  // move complete against the old owner, ops issued after re-read the slot
  // table and land on the new one — zero failed ops, no client stall
  // beyond the move itself. All three require rebalance.enabled and refuse
  // partitions with failover state in flight (promoted or down) — heal()
  // first after a fault cycle.
  // ------------------------------------------------------------------

  /// Split hot partition `p`: peel its hottest slots (about half its
  /// recorded heat, always leaving one slot behind) off to the coldest
  /// other partition, moving resident keys and their replica chains over
  /// the bulk path. Returns the number of keys moved.
  std::size_t split(int p) {
    sim::Actor& self = sim::this_actor();
    require_rebalance_enabled();
    check_partition(p);
    std::unique_lock<std::shared_mutex> latch(rebalance_latch_);
    const int dst = coldest_partition(p);
    if (dst < 0) return 0;
    require_movable(p, dst);
    auto slots = shard_map_.slots_of(p);
    if (slots.size() <= 1) return 0;  // nothing to peel off
    std::stable_sort(slots.begin(), slots.end(), [&](int a, int b) {
      return shard_map_.slot_heat(a) > shard_map_.slot_heat(b);
    });
    const std::int64_t total = shard_map_.partition_heat(p);
    std::vector<int> moving;
    std::int64_t moved_heat = 0;
    for (int slot : slots) {
      if (moving.size() + 1 >= slots.size()) break;
      moving.push_back(slot);
      moved_heat += shard_map_.slot_heat(slot);
      if (2 * moved_heat >= total) break;
    }
    return move_slots(self, moving, p, dst);
  }

  /// Merge partition `p` into `q`: every slot (and key) p owns moves to q,
  /// leaving p empty and unroutable until a later split hands slots back.
  std::size_t merge(int p, int q) {
    sim::Actor& self = sim::this_actor();
    require_rebalance_enabled();
    check_partition(p);
    check_partition(q);
    if (p == q) throw HclError(Status::InvalidArgument("merge: p == q"));
    std::unique_lock<std::shared_mutex> latch(rebalance_latch_);
    require_movable(p, q);
    return move_slots(self, shard_map_.slots_of(p), p, q);
  }

  /// Re-home partition `p` onto `node`: slot ownership stays, the physical
  /// host changes (subsequent ops route RPCs at the new node; the hybrid
  /// local path follows automatically). Bulk-charges the partition's bytes
  /// across the wire. Returns false when `p` already lives on `node`.
  bool migrate(int p, int node) {
    sim::Actor& self = sim::this_actor();
    require_rebalance_enabled();
    check_partition(p);
    if (node < 0 || node >= ctx_->topology().num_nodes()) {
      throw HclError(Status::InvalidArgument("migrate: bad node"));
    }
    if (ctx_->fabric().node_down(node)) {
      throw HclError(Status::Unavailable("migrate: target node down"));
    }
    std::unique_lock<std::shared_mutex> latch(rebalance_latch_);
    require_movable(p, p);
    Partition& part = partition(p);
    if (part.node == node) return false;
    const sim::Nanos start = self.now();
    std::int64_t bytes = 0;
    std::size_t keys = 0;
    part.store.for_each([&](const K& key, const V& value) {
      bytes += wire_bytes(key, value);
      ++keys;
    });
    const sim::NodeId src_node = part.node;
    part.node = node;
    raise(part.fence, part.epoch.fetch_add(1, std::memory_order_release) + 1);
    core::charge_move(*ctx_, options_, self, src_node, node,
                      static_cast<std::int64_t>(keys), bytes, start);
    cache_->invalidate_all();
    return true;
  }

  /// Heat advisor: when the hottest partition's heat exceeds
  /// rebalance.hot_factor x the mean — with enough accumulated signal and
  /// the cooldown elapsed, and a destination colder than cold_factor x the
  /// mean available — split it. Heat comes from the routing-path slot
  /// counters, cross-checked against the owner NIC's packet counters (which
  /// see batched and replica traffic the router does not) to break ties.
  /// Returns the partition split, or -1 when no action was taken. Drivers
  /// call this between phases; it never runs behind the app's back.
  int rebalance_tick() {
    if (!options_.rebalance.enabled) return -1;
    const auto& rb = options_.rebalance;
    std::vector<std::int64_t> heat(static_cast<std::size_t>(num_partitions_));
    std::int64_t sum = 0;
    for (int p = 0; p < num_partitions_; ++p) {
      heat[static_cast<std::size_t>(p)] = shard_map_.partition_heat(p);
      sum += heat[static_cast<std::size_t>(p)];
    }
    const std::int64_t threshold =
        moves_.load(std::memory_order_relaxed) == 0
            ? rb.min_ops
            : std::max(rb.min_ops, rb.cooldown_ops);
    if (sum < threshold) return -1;
    int hottest = 0;
    for (int p = 1; p < num_partitions_; ++p) {
      const auto hp = heat[static_cast<std::size_t>(p)];
      const auto hb = heat[static_cast<std::size_t>(hottest)];
      if (hp > hb || (hp == hb && nic_packets(p) > nic_packets(hottest))) {
        hottest = p;
      }
    }
    const double mean =
        static_cast<double>(sum) / static_cast<double>(num_partitions_);
    if (static_cast<double>(heat[static_cast<std::size_t>(hottest)]) <
        rb.hot_factor * mean) {
      return -1;
    }
    const int dst = coldest_partition(hottest);
    if (dst < 0 || static_cast<double>(shard_map_.partition_heat(dst)) >
                       rb.cold_factor * mean) {
      return -1;
    }
    return split(hottest) > 0 ? hottest : -1;
  }

  /// Rebalancing diagnostics: heat attributed to partition p (routing-path
  /// op counts since the last move), slot table shape, and completed moves.
  [[nodiscard]] std::int64_t partition_heat(int p) const {
    return shard_map_.partition_heat(p);
  }
  [[nodiscard]] int num_slots() const noexcept {
    return shard_map_.num_slots();
  }
  [[nodiscard]] int slot_owner(int slot) const {
    return shard_map_.owner(slot);
  }
  [[nodiscard]] std::size_t rebalances() const noexcept {
    return moves_.load(std::memory_order_relaxed);
  }

 private:
  /// Stripes per partition in the transaction table (DESIGN.md §5h),
  /// indexed by the top bits of the routing hash: slot routing takes
  /// `hash % slots`, so one partition's keys still spread over every
  /// stripe.
  static constexpr int kStripeBits = 10;
  static constexpr std::size_t kStripes = std::size_t{1} << kStripeBits;

  struct Partition {
    sim::NodeId node = 0;
    Store store;
    Store replicas;
    core::Journal<Record> journal;
    /// Mutation epoch (DESIGN.md §5d): bumped by every state change —
    /// insert/erase that took effect, every upsert/mutator, every batched
    /// constituent, and replication writes landing here. Piggybacked on
    /// every RPC response so client read caches learn of staleness lazily.
    std::atomic<std::uint64_t> epoch{0};
    /// Failover state (DESIGN.md §5f, core::FailoverState), keyed by THIS
    /// (primary) partition but semantically owned by whichever standby is
    /// promoted for it; its fenced epoch stream is what failover responses
    /// piggyback.
    core::FailoverState<Record> fo;
    /// Key-granular transaction state (DESIGN.md §5h). `stamps` points at
    /// the stripe stamps, allocated at the first prepare (maps that never
    /// see a transaction pay nothing): the epoch the last write to any key
    /// of the stripe produced, only ever raised. `fence` is the epoch of the
    /// last migrate/split/merge or repair adoption: a read older than it is
    /// refused. `txn` is the intent table (core::IntentTable).
    std::atomic<std::atomic<std::uint64_t>*> stamps{nullptr};
    std::unique_ptr<std::atomic<std::uint64_t>[]> stamp_table;
    std::atomic<std::uint64_t> fence{0};
    core::IntentTable<Record> txn{kStripes};
  };

  [[nodiscard]] Partition& partition(int p) const {
    return *partitions_[static_cast<std::size_t>(p)];
  }

  // ---- failover & recovery (DESIGN.md §5f) --------------------------

  /// Partition p as core/failover.h routes it: its primary; as standby the
  /// first replica partition on a distinct, live node (the (p + r) % P walk
  /// the replication fan-out uses), none when replication == 0, on a single
  /// node, or with every standby down; and the repair pass, which fences
  /// the caller's cache with the epoch the primary adopts.
  struct Lane {
    PartitionedMap* owner;
    int p;

    [[nodiscard]] sim::NodeId node() const { return owner->partition(p).node; }
    [[nodiscard]] std::tuple<int> prefix() const { return {p}; }
    [[nodiscard]] std::optional<core::Standby<int, int>> standby() const {
      for (int r = 1; r <= owner->options_.replication; ++r) {
        const int q = (p + r) % owner->num_partitions_;
        const sim::NodeId n = owner->partition(q).node;
        if (n != node() && !owner->ctx_->fabric().node_down(n)) {
          return core::Standby<int, int>{n, {p, q}};
        }
      }
      return std::nullopt;
    }
    /// Repairs every partition on the node: the route mark cleared next
    /// is per node, so none may stay promoted behind it.
    void repair(sim::Actor& self) const {
      for (int q = 0; q < owner->num_partitions_; ++q) {
        const Lane on{owner, q};
        if (on.node() != node()) continue;
        owner->partition(q).fo.repair(
            *owner->ctx_, self, on, owner->repair_id_,
            [](std::uint64_t fence) { return std::make_tuple(fence); },
            [&](std::uint64_t epoch) {
              owner->cache_->fence_partition(self, q, epoch);
            });
      }
    }
  };
  [[nodiscard]] Lane lane(int p) { return Lane{this, p}; }

  /// The final op per key in a promoted partition's failover journal
  /// (fo.mutex held): the value it leaves, or nullopt for an erase.
  static std::unordered_map<K, std::optional<V>, HashFn> overlay(
      const Partition& part) {
    std::unordered_map<K, std::optional<V>, HashFn> last;
    for (auto it = part.fo.journal.rbegin(); it != part.fo.journal.rend();
         ++it) {
      if (last.find(it->key) != last.end()) continue;  // a later op won
      last.emplace(it->key, it->op == LogOp::kErase
                                ? std::nullopt
                                : std::optional<V>(it->value));
    }
    return last;
  }

  // ---- transaction internals (DESIGN.md §5h) ------------------------

  /// The participant for one partition of this map: the shared legs
  /// (core::Participant) over its lane, plus staged intents and the read
  /// set as (stripe, observed epoch) pairs. Lives inside the Txn; the
  /// coordinator drives it through the txn::ParticipantBase interface.
  class TxnParticipant : public core::Participant<Lane, Record> {
   public:
    TxnParticipant(PartitionedMap* owner, int p)
        : core::Participant<Lane, Record>(*owner->ctx_, Lane{owner, p},
                                          owner->txn_stubs_.commit,
                                          owner->txn_stubs_.abort) {}
    ~TxnParticipant() override {
      VectorPool<std::uint64_t>::give(std::move(reads_));
    }

    // -- client-side staging (txn_put / txn_erase / txn_find) ---------

    void stage(LogOp op, const K& key, const V* value) {
      for (Record& rec : this->intents_) {
        if (rec.key == key) {
          rec.op = op;
          rec.value = value != nullptr ? *value : V{};
          return;
        }
      }
      this->intents_.emplace_back(op, key, value);
    }

    /// Read-your-writes: *hit = this txn staged `key`; *present = it stages
    /// a value (vs. an erase).
    void read_intent(const K& key, bool* hit, bool* present, V* out) const {
      *hit = false;
      *present = false;
      for (const Record& rec : this->intents_) {
        if (rec.key != key) continue;
        *hit = true;
        if (rec.op != LogOp::kErase) {
          *present = true;
          if (out != nullptr) *out = rec.value;
        }
        return;
      }
    }

    /// Record a read of a key in `stripe` that observed partition epoch
    /// `epoch`. Prepare refuses if the stripe was stamped later; two reads
    /// in one stripe keep the older epoch, the stricter check.
    void note_read(std::uint32_t stripe, std::uint64_t epoch) {
      for (std::size_t i = 0; i < reads_.size(); i += 2) {
        if (reads_[i] == stripe) {
          reads_[i + 1] = std::min(reads_[i + 1], epoch);
          return;
        }
      }
      reads_.push_back(stripe);
      reads_.push_back(epoch);
    }

    // -- protocol legs driven by the coordinator ----------------------

    void enqueue_prepare(sim::Actor& self, rpc::Batcher& batch,
                         std::uint64_t txn_id) override {
      this->enqueue_prepare_call(self, batch,
                                 this->lane_.owner->txn_stubs_.prepare, txn_id,
                                 reads_);
    }

    /// Opens the cache write window of every staged key first.
    void enqueue_commit(sim::Actor& self, rpc::Batcher& batch,
                        std::uint64_t txn_id) override {
      for (const Record& rec : this->intents_) {
        this->lane_.owner->cache_->begin_write(self, this->lane_.p, rec.key);
      }
      core::Participant<Lane, Record>::enqueue_commit(self, batch, txn_id);
    }

    [[nodiscard]] std::shared_mutex* latch() const noexcept override {
      PartitionedMap* owner = this->lane_.owner;
      return owner->options_.rebalance.enabled ? &owner->rebalance_latch_
                                               : nullptr;
    }

   private:
    /// Close the begin_write window opened in enqueue_commit: committed
    /// values (or definite absences) re-enter the cache under the commit
    /// epoch. Abort paths never get here, so the entries stay invalidated
    /// — an aborted intent can never be served from a lease. With the
    /// cache off there is nothing to close, so no value is copied.
    void committed(sim::Actor& self, std::uint64_t epoch) override {
      auto& cache = *this->lane_.owner->cache_;
      if (!cache.enabled()) return;
      for (const Record& rec : this->intents_) {
        const std::optional<V> known = rec.op == LogOp::kErase
                                           ? std::nullopt
                                           : std::optional<V>(rec.value);
        cache.complete_write(self, this->lane_.p, rec.key, epoch, &known);
      }
    }

    /// Flattened (stripe, epoch) pairs, one per stripe read.
    std::vector<std::uint64_t> reads_ = VectorPool<std::uint64_t>::take();
  };

  TxnParticipant& participant(txn::Txn& t, int p) {
    return t.template participant<TxnParticipant>(
        this, p, [&] { return txn::make_participant<TxnParticipant>(this, p); });
  }

  // ---- shard rebalancing internals (DESIGN.md §5g) ------------------

  /// Shared-latch guard every public op holds for its full duration when
  /// rebalancing is enabled (unlocked — free — otherwise, keeping the
  /// default path unchanged). split/merge/migrate take the latch
  /// exclusively, so a move only begins once in-flight ops drained. Server
  /// stubs take NO lock: they execute inline on the calling rank's stack,
  /// under that caller's shared hold (see Context::run on inline fan-outs),
  /// and a same-thread re-acquire would be UB.
  [[nodiscard]] std::shared_lock<std::shared_mutex> op_guard() const {
    if (!options_.rebalance.enabled) return {};
    return std::shared_lock<std::shared_mutex>(rebalance_latch_);
  }

  void require_rebalance_enabled() const {
    if (!options_.rebalance.enabled) {
      throw HclError(Status::FailedPrecondition(
          "rebalancing disabled; set ContainerOptions::rebalance.enabled"));
    }
  }
  void check_partition(int p) const {
    if (p < 0 || p >= num_partitions_) {
      throw HclError(Status::InvalidArgument("bad partition id"));
    }
  }

  /// Moves touch failover state only when it is quiescent: both endpoints
  /// must be un-promoted with live primaries (heal() first after a fault)
  /// and hold no transaction intents on any stripe — a moved key would
  /// strand its intent record on the old owner, so the move defers to the
  /// in-flight commit (which the rebalance latch already fences at the
  /// container level; this check catches stripes left by a coordinator that
  /// died mid-protocol).
  void require_movable(int p, int q) {
    for (int part_id : {p, q}) {
      Partition& part = partition(part_id);
      if (ctx_->fabric().node_down(part.node)) {
        throw HclError(
            Status::FailedPrecondition("rebalance: partition node is down"));
      }
      if (part.fo.is_promoted()) {
        throw HclError(Status::FailedPrecondition(
            "rebalance: partition promoted; heal() first"));
      }
      if (part.txn.pending()) {
        throw HclError(Status::FailedPrecondition(
            "rebalance: transaction intents pending"));
      }
    }
  }

  /// Coldest partition other than `exclude` by slot heat; -1 when the map
  /// has a single partition.
  [[nodiscard]] int coldest_partition(int exclude) const {
    int best = -1;
    std::int64_t best_heat = 0;
    for (int q = 0; q < num_partitions_; ++q) {
      if (q == exclude) continue;
      const std::int64_t h = shard_map_.partition_heat(q);
      if (best < 0 || h < best_heat) {
        best = q;
        best_heat = h;
      }
    }
    return best;
  }

  [[nodiscard]] std::int64_t nic_packets(int p) const {
    return ctx_->fabric().nic(partition(p).node).counters().total_packets.load(
        std::memory_order_relaxed);
  }

  /// Routing read without the heat bump (introspection / migration scans).
  [[nodiscard]] int route_partition(const K& key) const {
    return shard_map_.partition_of(mix64(hash_(key) ^ Store::kPartitionSalt));
  }

  /// The migration core (unique latch held): flip slot ownership, then move
  /// every resident key whose slot moved — erased from src and upserted
  /// into dst through the journaling apply_* paths, so persist logs and
  /// mutation epochs stay authoritative on both ends — and re-home its
  /// replica chain with direct writes (the op-path RPC fan-out is
  /// deliberately bypassed: migration traffic rides the bulk lane, not the
  /// op lane; core::charge_move charges it). Ends by revoking every
  /// read-cache lease: entries cached under src's epoch stream must never
  /// be validated against dst's.
  std::size_t move_slots(sim::Actor& self, const std::vector<int>& slots,
                         int src, int dst) {
    if (slots.empty() || src == dst) return 0;
    Partition& from = partition(src);
    Partition& to = partition(dst);
    const sim::Nanos start = self.now();
    for (int slot : slots) shard_map_.set_owner(slot, dst);
    std::vector<std::pair<K, V>> moving;
    from.store.for_each([&](const K& key, const V& value) {
      if (route_partition(key) == dst) moving.emplace_back(key, value);
    });
    std::int64_t bytes = 0;
    for (auto& [key, value] : moving) {
      bytes += wire_bytes(key, value);
      apply_erase(primary_side(src), key);
      apply_upsert(primary_side(dst), key, value, start);
      for (int r = 1; r <= options_.replication; ++r) {
        partition((src + r) % num_partitions_).replicas.erase(key);
        Partition& rep = partition((dst + r) % num_partitions_);
        rep.replicas.upsert(key, value);
        rep.epoch.fetch_add(1, std::memory_order_release);
      }
    }
    // Bump and fence the endpoints even when no key moved so leases and
    // txn reads on either epoch stream revalidate before trusting post-move
    // placement.
    raise(from.fence, from.epoch.fetch_add(1, std::memory_order_release) + 1);
    raise(to.fence, to.epoch.fetch_add(1, std::memory_order_release) + 1);
    shard_map_.reset_heat();
    moves_.fetch_add(1, std::memory_order_relaxed);
    core::charge_move(*ctx_, options_, self, from.node, to.node,
                      static_cast<std::int64_t>(moving.size()), bytes, start);
    cache_->invalidate_all();
    return moving.size();
  }

  // ---- cost charging ------------------------------------------------

  static std::int64_t key_bytes(const K& key) {
    return static_cast<std::int64_t>(serial::packed_size(key));
  }
  static std::int64_t wire_bytes(const K& key, const V& value) {
    return static_cast<std::int64_t>(serial::packed_size(key) +
                                     serial::packed_size(value));
  }

  /// Table I's structure term for an access to `part` (its store's
  /// descent: L, or L·log N for the ordered store), charged by
  /// core::charge_server.
  [[nodiscard]] core::Descent descent(const Partition& part) const {
    return part.store.descent(ctx_->model());
  }

  // ---- serving sides (DESIGN.md §5f) ---------------------------------

  /// Where one data op executes. The primary side is partition p itself:
  /// its store, persist journal and mutation epoch, plus the replica
  /// fan-out. The standby side is entered under p's fo.mutex once p's
  /// primary is confirmed down and promoted (FailoverState::enter_standby):
  /// standby partition q's replica set, p's failover journal and p's fenced
  /// epoch, and it never fans out. `host` is the partition whose node runs
  /// the op.
  struct Side {
    int p;
    Partition& owner;
    Partition& host;
    bool standby;
    [[nodiscard]] Store& store() const {
      return standby ? host.replicas : owner.store;
    }
  };

  Side primary_side(int p) {
    Partition& part = partition(p);
    return Side{p, part, part, false};
  }

  /// The side's mutation epoch, piggybacked on every response (§5d).
  [[nodiscard]] std::uint64_t epoch_of(const Side& s) const {
    return s.standby ? s.owner.fo.epoch
                     : s.owner.epoch.load(std::memory_order_acquire);
  }


  // ---- data ops, each declared once (DESIGN.md §5) ------------------
  // Twins, server body, wire arguments (key first) and cache hooks; run,
  // run_async and run_batch derive the scalar, async and batch shapes.

  /// What a completed write tells the cache its key holds: a value, a
  /// definite absence (an engaged nullopt), or nothing (disengaged).
  using Known = std::optional<std::optional<V>>;
  /// A mutator's outcome is server-computed: note the epoch, never re-cache.
  static constexpr auto unknown = [](const auto&, bool) { return Known(); };
  /// The hook of the one read: a cache lookup ahead, store_read after.
  struct Read {};

  template <typename R, typename Hook, typename... Args>
  struct Op {
    using Result = R;
    static constexpr bool kRead = std::is_same_v<Hook, Read>;
    const core::Twins& twins;
    R (PartitionedMap::*body)(rpc::ServerCtx&, const Side&, const Args&...);
    Hook known;  // a write's completion: known(result, ok)
    std::tuple<const Args&...> args;
    [[nodiscard]] const K& key() const { return std::get<0>(args); }
    template <typename F>
    auto wire(F&& f) const {
      return std::apply(f, args);
    }
  };
  template <typename R, typename Hook, typename... Args>
  static Op<R, Hook, Args...> data_op(
      const core::Twins& twins,
      R (PartitionedMap::*body)(rpc::ServerCtx&, const Side&, const Args&...),
      Hook known, const std::type_identity_t<Args>&... args) {
    return {twins, body, known, {args...}};
  }

  /// A rejected insert leaves someone else's value in place: unknown.
  auto insert_op(const K& key, const V& value) {
    return data_op(
        insert_, &PartitionedMap::insert_body,
        [v = &value](bool fresh, bool ok) {
          return ok && fresh ? Known(*v) : Known();
        },
        key, value);
  }
  auto find_op(const K& key) {
    return data_op(find_, &PartitionedMap::find_body, Read{}, key);
  }
  /// After an erase the key is definitely absent (false = already gone).
  auto erase_op(const K& key) {
    return data_op(
        erase_, &PartitionedMap::erase_body,
        [](bool, bool ok) { return ok ? Known(std::in_place) : Known(); }, key);
  }

  /// `op`'s server body on partition p's primary side.
  template <typename O>
  auto body_of(const O& op, int p) {
    return [this, &op, p](rpc::ServerCtx& sctx) {
      return op.wire([&](const auto&... args) {
        return (this->*op.body)(sctx, primary_side(p), args...);
      });
    };
  }

  /// The cache hook ahead of a remote op: a write opens its key's write
  /// window; a read consults the cache, and a serveable hit is its result.
  template <typename O>
  std::optional<typename O::Result> ahead(sim::Actor& self, int p,
                                          const O& op) {
    if constexpr (O::kRead) {
      V value{};
      bool present = false;
      if (cache_->lookup(self, p, op.key(), &value, &present)) {
        return std::make_optional(present ? std::optional<V>(std::move(value))
                                          : std::nullopt);
      }
    } else {
      cache_->begin_write(self, p, op.key());
    }
    return std::nullopt;
  }

  /// The cache hook after a remote op resolved (`ok`: it did not fail).
  template <typename O>
  void complete(sim::Actor& self, int p, const O& op,
                const typename O::Result& result, std::uint64_t epoch,
                bool ok) {
    if constexpr (O::kRead) {
      cache_->store_read(self, p, op.key(), result, epoch);
    } else {
      const Known known = op.known(result, ok);
      cache_->complete_write(self, p, op.key(), epoch,
                             known ? &*known : nullptr);
    }
  }

  /// The scalar shape: the routed call behind the cache hooks.
  template <typename O>
  typename O::Result run(const O& op) {
    using R = typename O::Result;
    auto guard = op_guard();
    sim::Actor& self = sim::this_actor();
    const int p = partition_of(op.key());
    return core::route(
        *ctx_, self, lane(p), body_of(op, p), [&](const auto&) -> R {
          if (auto hit = ahead(self, p, op)) return std::move(*hit);
          return op.wire([&](const auto&... args) {
            return core::routed<R>(
                *ctx_, self, lane(p), op.twins,
                [&](rpc::Future<R>& future) {
                  R result = future.get(self);
                  complete(self, p, op, result, future.response_epoch(), true);
                  return result;
                },
                args...);
          });
        });
  }

  /// The async shape: a write still opens its key's write window first;
  /// no lookup and no completion.
  template <typename O>
  rpc::Future<typename O::Result> run_async(const O& op) {
    auto guard = op_guard();
    sim::Actor& self = sim::this_actor();
    const int p = partition_of(op.key());
    if constexpr (!O::kRead) cache_->begin_write(self, p, op.key());
    return op.wire([&](const auto&... args) {
      return core::call_async<typename O::Result>(
          *ctx_, self, lane(p), op.twins, body_of(op, p), args...);
    });
  }

  /// The batch shape, the one *_batch loop: element op_of(i) runs inline
  /// when co-located, is served by the cache, or is enqueued and settled.
  template <typename Results, typename OpOf>
  Results run_batch(std::size_t n, std::vector<Status>* statuses,
                    OpOf&& op_of) {
    using O = std::invoke_result_t<OpOf&, std::size_t>;
    using R = typename O::Result;
    auto guard = op_guard();
    sim::Actor& self = sim::this_actor();
    Results results(n);
    if (statuses != nullptr) statuses->assign(n, Status::Ok());
    rpc::Batcher batcher(ctx_->rpc(), options_.batch,
                         ctx_->rpc().default_options());
    std::vector<std::pair<std::size_t, rpc::Future<R>>> remote;
    for (std::size_t i = 0; i < n; ++i) {
      const O op = op_of(i);
      const int p = partition_of(op.key());
      const auto body = body_of(op, p);
      core::route(
          *ctx_, self, lane(p),
          [&](rpc::ServerCtx& sctx) { results[i] = body(sctx); },
          [&](const auto& to) {
            if (auto hit = ahead(self, p, op)) {
              results[i] = std::move(*hit);
              return;
            }
            remote.emplace_back(i, op.wire([&](const auto&... args) {
              return core::enqueue<R>(batcher, self, lane(p), to, op.twins,
                                      args...);
            }));
          });
    }
    core::settle_batch(
        ctx_->op_stats(), batcher, self, remote, results, statuses,
        [&](std::size_t i, const rpc::Future<R>& future, bool ok) {
          const O op = op_of(i);
          if (O::kRead && !ok) return;
          complete(self, partition_of(op.key()), op, results[i],
                   future.response_epoch(), ok);
        },
        [&](std::size_t i) {
          const O op = op_of(i);
          return op.wire([&](const auto&... args) {
            return core::rescue<R>(*ctx_, self, lane(partition_of(op.key())),
                                   op.twins, args...);
          });
        });
    return results;
  }

  template <typename Arg>
  static std::vector<std::byte> pack(const Arg& arg) {
    serial::OutArchive out;
    serial::save(out, arg);
    return out.take();
  }

  // ---- real structure mutation + journal ----------------------------

  bool apply_insert(const Side& s, const K& key, const V& value,
                    sim::Nanos t) {
    const bool ok = s.store().insert(key, value);
    if (ok) {
      charge_entry_memory(s, wire_bytes(key, value), t);
      record(s, LogOp::kInsert, key, &value);
    }
    return ok;
  }
  bool apply_upsert(const Side& s, const K& key, const V& value,
                    sim::Nanos t) {
    const bool fresh = s.store().upsert(key, value);
    if (fresh) charge_entry_memory(s, wire_bytes(key, value), t);
    record(s, LogOp::kUpsert, key, &value);
    return fresh;
  }
  /// The standby journals an erase even on a miss: the key may exist on
  /// the (down) primary but not in the replica set (mutator-created entries
  /// are never replicated); the replayed erase no-ops when truly absent.
  bool apply_erase(const Side& s, const K& key) {
    const bool ok = s.store().erase(key);
    if (ok || s.standby) record(s, LogOp::kErase, key, nullptr);
    return ok;
  }

  /// Dynamic memory growth (paper §IV.B.1: "HCL manages memory dynamically
  /// and initializes the target partition with a smaller size ... expands as
  /// operations are executed"). Every fresh primary entry charges the node
  /// budget, which feeds the Fig. 4(b) resident-memory gauge. Erase does not
  /// refund (allocator retention), a deliberate approximation; replica sets
  /// and stores that do not charge (Store::kChargesEntryMemory) skip it.
  void charge_entry_memory(const Side& s, std::int64_t bytes, sim::Nanos t) {
    if constexpr (Store::kChargesEntryMemory) {
      if (s.standby) return;
      throw_if_error(ctx_->fabric().memory(s.owner.node).reserve(bytes + 64, t));
    }
  }

  struct MutatorOutcome {
    bool fresh = false;
    std::vector<std::byte> result;
  };

  MutatorOutcome apply_mutator(const Side& s, const K& key, MutatorId mutator,
                               const std::vector<std::byte>& raw, const V& init) {
    if (mutator >= mutators_.size()) {
      throw HclError(Status::InvalidArgument("unknown mutator id"));
    }
    MutatorOutcome outcome;
    V snapshot{};
    outcome.fresh = s.store().update_fn(
        key,
        [&](V& value) {
          outcome.result = mutators_[mutator](value, std::span<const std::byte>(raw));
          snapshot = value;
        },
        init);
    record(s, LogOp::kUpsert, key, &snapshot);
    return outcome;
  }

  /// Journal one applied write and bump the side's epoch: the persist log
  /// and partition epoch (primary), or the failover journal the repair pass
  /// replays and the fenced epoch (standby). A primary write also stamps
  /// its key's stripe with the epoch it produced, once the stamps exist.
  /// The bump and the stamps load are seq_cst, pairing with stamps_of(): a
  /// write that finds no stamps bumped the epoch before they were
  /// published, so their initial values cover it.
  void record(const Side& s, LogOp op, const K& key, const V* value) {
    Partition& part = s.owner;
    if (s.standby) {
      part.fo.journal.emplace_back(op, key, value);
      ++part.fo.epoch;
      return;
    }
    part.journal.append(op, key, value);
    const std::uint64_t epoch = part.epoch.fetch_add(1) + 1;
    if (std::atomic<std::uint64_t>* stamps = part.stamps.load()) {
      raise(stamps[stripe_of(key)], epoch);
    }
  }

  /// The one record-apply loop — txn_commit on either side and the repair
  /// replay: every record lands through the journaling apply_* paths at
  /// `ready` and fans out to the replicas (primary side only). Inserts
  /// replay as upserts.
  void apply_records(const Side& s, const std::vector<Record>& recs,
                     sim::Nanos ready) {
    for (const Record& rec : recs) {
      if (rec.op == LogOp::kErase) {
        apply_erase(s, rec.key);
      } else {
        apply_upsert(s, rec.key, rec.value, ready);
      }
      replicate(s, ready, rec.op, rec.key, &rec.value);
    }
  }
  static std::int64_t record_bytes(const std::vector<Record>& recs) {
    std::int64_t bytes = 0;
    for (const Record& rec : recs) {
      bytes += rec.op == LogOp::kErase ? key_bytes(rec.key)
                                       : wire_bytes(rec.key, rec.value);
    }
    return bytes;
  }

  // ---- replication (§III.A.4) ---------------------------------------

  /// Fan one primary-side write out to the replica chain; erases ship the
  /// key alone. The standby side never fans out.
  void replicate(const Side& s, sim::Nanos ready, LogOp op, const K& key,
                 const V* value) {
    if (s.standby) return;
    for (int r = 1; r <= options_.replication; ++r) {
      const int target = (s.p + r) % num_partitions_;
      const sim::NodeId to = partition(target).node;
      if (op == LogOp::kErase) {
        ctx_->rpc().server_invoke(s.owner.node, to, ready, replica_erase_id_,
                                  target, key);
      } else {
        ctx_->rpc().server_invoke(s.owner.node, to, ready, replica_upsert_id_,
                                  target, key, *value);
      }
    }
  }

  // ---- key-granular OCC (DESIGN.md §5h) -------------------------------

  /// Stamps and fences only move forward.
  static void raise(std::atomic<std::uint64_t>& a, std::uint64_t v) {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (cur < v && !a.compare_exchange_weak(cur, v)) {
    }
  }

  [[nodiscard]] std::uint32_t stripe_of(const K& key) const {
    return static_cast<std::uint32_t>(
        mix64(hash_(key) ^ Store::kPartitionSalt) >> (64 - kStripeBits));
  }

  /// The partition's stripe stamps (its txn mutex held), allocated on first
  /// use at the current epoch: no read can have observed a write that
  /// predates them without also observing that epoch.
  static std::atomic<std::uint64_t>* stamps_of(Partition& part) {
    std::atomic<std::uint64_t>* stamps =
        part.stamps.load(std::memory_order_relaxed);
    if (stamps != nullptr) return stamps;
    part.stamp_table = std::make_unique<std::atomic<std::uint64_t>[]>(kStripes);
    stamps = part.stamp_table.get();
    part.stamps.store(stamps);
    const std::uint64_t epoch = part.epoch.load();
    for (std::size_t i = 0; i < kStripes; ++i) raise(stamps[i], epoch);
    return stamps;
  }

  /// The map's serving sides as core/failover.h binds them: primary stubs
  /// take (p), failover twins and replica-host stubs (p, q). Each partition
  /// is an intent table of kStripes stripes.
  struct Server {
    PartitionedMap* owner;
    using Prefix = std::tuple<int>;
    using StandbyPrefix = std::tuple<int, int>;
    /// The read set: flattened (stripe, observed epoch) pairs.
    using Check = std::vector<std::uint64_t>;

    Side primary(int p) const { return owner->primary_side(p); }
    Side replica(int p, int q) const {
      return Side{p, owner->partition(p), owner->partition(q), true};
    }
    std::pair<std::unique_lock<std::mutex>, Side> enter(int p, int q) const {
      Partition& part = owner->partition(p);
      return {part.fo.enter_standby(owner->ctx_->fabric(), part.node,
                                    "primary is up; repair and retry"),
              replica(p, q)};
    }
    core::IntentTable<Record>& table(const Side& s) const { return s.host.txn; }
    bool standby(const Side& s) const { return s.standby; }
    int key(const Side& s) const { return s.p; }
    core::Descent descent(const Side& s) const {
      return owner->descent(s.host);
    }
    std::uint64_t epoch(const Side& s) const { return owner->epoch_of(s); }
    /// p's replica chain, the (p + r) % P walk replicate() takes.
    template <typename Fn>
    void each_replica(const Side& s, Fn&& fn) const {
      for (int r = 1; r <= owner->options_.replication; ++r) {
        const int q = (s.p + r) % owner->num_partitions_;
        fn(s.owner.node, owner->partition(q).node, s.p, q);
      }
    }
    static std::int64_t check_bytes(const Check& reads) {
      return static_cast<std::int64_t>(8 * reads.size());
    }

    /// Every stripe a prepare locks: those its reads observed and those its
    /// records write, sorted and distinct.
    std::vector<std::uint32_t> stripes(
        const Check& reads, const std::vector<Record>& intents) const {
      std::vector<std::uint32_t> out;
      out.reserve(reads.size() / 2 + intents.size());
      for (std::size_t i = 0; i + 1 < reads.size(); i += 2) {
        out.push_back(static_cast<std::uint32_t>(reads[i] & (kStripes - 1)));
      }
      for (const Record& rec : intents) {
        out.push_back(owner->stripe_of(rec.key));
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }

    /// Why a prepare no rival blocks may still not hold, or null: a read's
    /// stripe was stamped after the epoch the read observed, a move fenced
    /// the partition after the oldest read, or a written key no longer
    /// routes here (a shard move between staging and prepare; blind writes
    /// carry no epoch).
    const txn::Refusal* validate(const Side& s, const Check& reads,
                                 const std::vector<Record>& intents,
                                 std::uint64_t) const {
      const std::atomic<std::uint64_t>* stamps = stamps_of(s.owner);
      std::uint64_t oldest_read = ~std::uint64_t{0};
      for (std::size_t i = 0; i + 1 < reads.size(); i += 2) {
        if (stamps[reads[i] & (kStripes - 1)].load() > reads[i + 1]) {
          return &txn::kEpochConflict;
        }
        oldest_read = std::min(oldest_read, reads[i + 1]);
      }
      if (s.owner.fence.load(std::memory_order_acquire) > oldest_read) {
        return &txn::kFenced;
      }
      for (const Record& rec : intents) {
        if (owner->route_partition(rec.key) != s.p) return &txn::kKeyMoved;
      }
      return nullptr;
    }

    /// Charge the commit's write, then apply its records when it lands.
    void apply(rpc::ServerCtx& sctx, const Side& s,
               const std::vector<Record>& intents) const {
      const sim::Nanos ready = core::charge_server(
          *owner->ctx_, sctx, owner->descent(s.host),
          16 + record_bytes(intents), /*write=*/true);
      owner->apply_records(s, intents, ready);
    }
  };
  [[nodiscard]] Server server() { return Server{this}; }

  // ---- data op server bodies -----------------------------------------
  // Each written once: bind_twins binds it as the primary stub and its
  // failover twin, and a co-located caller runs it in its own thread
  // against core::hybrid_ctx (§III.C.5).

  bool insert_body(rpc::ServerCtx& sctx, const Side& s, const K& key,
                   const V& value) {
    const sim::Nanos ready =
        core::charge_server(*ctx_, sctx, descent(s.host),
                            wire_bytes(key, value), /*write=*/true);
    const bool ok = apply_insert(s, key, value, ready);
    if (ok) replicate(s, ready, LogOp::kUpsert, key, &value);
    sctx.epoch = epoch_of(s);
    return ok;
  }
  bool upsert_body(rpc::ServerCtx& sctx, const Side& s, const K& key,
                   const V& value) {
    const sim::Nanos ready =
        core::charge_server(*ctx_, sctx, descent(s.host),
                            wire_bytes(key, value), /*write=*/true);
    const bool fresh = apply_upsert(s, key, value, ready);
    replicate(s, ready, LogOp::kUpsert, key, &value);
    sctx.epoch = epoch_of(s);
    return fresh;
  }
  std::optional<V> find_body(rpc::ServerCtx& sctx, const Side& s,
                             const K& key) {
    // Epoch BEFORE the read: a concurrent write can only make the
    // piggybacked epoch conservatively stale, never too fresh.
    sctx.epoch = epoch_of(s);
    V value{};
    const bool hit = s.store().find(key, &value);
    core::charge_server(*ctx_, sctx, descent(s.host),
                        hit ? wire_bytes(key, value) : key_bytes(key),
                        /*write=*/false);
    return hit ? std::optional<V>(std::move(value)) : std::nullopt;
  }
  bool erase_body(rpc::ServerCtx& sctx, const Side& s, const K& key) {
    const sim::Nanos ready =
        core::charge_server(*ctx_, sctx, descent(s.host), key_bytes(key),
                            /*write=*/true);
    const bool ok = apply_erase(s, key);
    replicate(s, ready, LogOp::kErase, key, nullptr);
    sctx.epoch = epoch_of(s);
    return ok;
  }
  /// Table I resize, F + N(R + W): every entry is read and rewritten
  /// (Store::resize_bytes); no L.
  bool resize_body(rpc::ServerCtx& sctx, const int& p,
                   const std::uint64_t& buckets) {
    Partition& part = partition(p);
    const auto n = static_cast<std::int64_t>(part.store.size());
    const std::int64_t bytes = part.store.resize_bytes();
    const sim::Nanos t =
        ctx_->fabric().local_read(sctx.node, sctx.start, bytes);
    core::finish_at(sctx, ctx_->fabric().local_write(sctx.node, t, bytes));
    ctx_->op_stats().local_reads.fetch_add(n, std::memory_order_relaxed);
    ctx_->op_stats().local_writes.fetch_add(n, std::memory_order_relaxed);
    part.store.reserve(static_cast<std::size_t>(buckets));
    sctx.epoch = part.epoch.load(std::memory_order_acquire);
    return true;
  }
  bool apply_body(rpc::ServerCtx& sctx, const Side& s, const K& key,
                  const std::uint32_t& mutator,
                  const std::vector<std::byte>& raw, const V& init) {
    core::charge_server(*ctx_, sctx, descent(s.host),
                        key_bytes(key) + static_cast<std::int64_t>(raw.size()),
                        /*write=*/true);
    const bool fresh = apply_mutator(s, key, mutator, raw, init).fresh;
    sctx.epoch = epoch_of(s);
    return fresh;
  }
  std::vector<std::byte> apply_fetch_body(rpc::ServerCtx& sctx, const Side& s,
                                          const K& key,
                                          const std::uint32_t& mutator,
                                          const std::vector<std::byte>& raw,
                                          const V& init) {
    core::charge_server(*ctx_, sctx, descent(s.host),
                        key_bytes(key) + static_cast<std::int64_t>(raw.size()),
                        /*write=*/true);
    auto result = apply_mutator(s, key, mutator, raw, init).result;
    sctx.epoch = epoch_of(s);
    return result;
  }

  void bind_handlers() {
    insert_ = core::bind_twins<bool, K, V>(
        bindings_, server(), [this](auto&&... a) { return insert_body(a...); });
    upsert_ = core::bind_twins<bool, K, V>(
        bindings_, server(), [this](auto&&... a) { return upsert_body(a...); });
    find_ = core::bind_twins<std::optional<V>, K>(
        bindings_, server(), [this](auto&&... a) { return find_body(a...); });
    erase_ = core::bind_twins<bool, K>(
        bindings_, server(), [this](auto&&... a) { return erase_body(a...); });
    resize_.primary = bindings_.bind<bool, int, std::uint64_t>(
        [this](auto&&... a) { return resize_body(a...); });
    apply_ =
        core::bind_twins<bool, K, std::uint32_t, std::vector<std::byte>, V>(
            bindings_, server(),
            [this](auto&&... a) { return apply_body(a...); });
    apply_fetch_ = core::bind_twins<std::vector<std::byte>, K, std::uint32_t,
                                    std::vector<std::byte>, V>(
        bindings_, server(),
        [this](auto&&... a) { return apply_fetch_body(a...); });
    replica_upsert_id_ = bindings_.bind<bool, int, K, V>(
        [this](rpc::ServerCtx& sctx, const int& p, const K& key, const V& value) {
          Partition& part = partition(p);
          core::charge_server(*ctx_, sctx, descent(part),
                              wire_bytes(key, value), /*write=*/true);
          part.replicas.upsert(key, value);
          // Replication writes mutate this partition's state, so they bump
          // its epoch: clients holding leases on it revalidate (§5d).
          part.epoch.fetch_add(1, std::memory_order_release);
          sctx.epoch = part.epoch.load(std::memory_order_acquire);
          return true;
        });
    replica_erase_id_ = bindings_.bind<bool, int, K>(
        [this](rpc::ServerCtx& sctx, const int& p, const K& key) {
          Partition& part = partition(p);
          core::charge_server(*ctx_, sctx, descent(part), key_bytes(key),
                              /*write=*/true);
          part.replicas.erase(key);
          part.epoch.fetch_add(1, std::memory_order_release);
          sctx.epoch = part.epoch.load(std::memory_order_acquire);
          return true;
        });
    // Anti-entropy repair (primary side): replay the promoted standby's
    // journal delta through the record-apply loop — so the delta also
    // lands in the primary's persist log and re-fans to the other replicas
    // — then adopt an epoch ABOVE the promotion fence. Without adoption the
    // rejoined primary's piggybacks would compare stale against fenced
    // leases forever (see Context::run).
    repair_id_ =
        bindings_.bind<std::uint64_t, int, std::vector<std::byte>, std::uint64_t>(
            [this](rpc::ServerCtx& sctx, const int& p,
                   const std::vector<std::byte>& blob,
                   const std::uint64_t& fence) {
              Partition& part = partition(p);
              return core::repair_stub(
                  *ctx_, sctx, blob, part.txn,
                  [&](const std::vector<Record>& delta) {
                    apply_records(primary_side(p), delta, sctx.start);
                    core::charge_server(*ctx_, sctx, descent(part),
                                        8 + record_bytes(delta),
                                        /*write=*/true);
                    sctx.epoch = 1 + std::max(fence, part.epoch.load());
                    part.epoch.store(sctx.epoch, std::memory_order_release);
                    raise(part.fence, sctx.epoch);
                  });
            });
    txn_stubs_.bind(*ctx_, bindings_, server());
  }

  Context* ctx_;
  core::ContainerOptions options_;
  int num_partitions_;
  /// Hash-space -> physical-partition indirection (DESIGN.md §5g).
  core::ShardMap shard_map_;
  /// Container-wide rebalance latch: public ops shared, moves exclusive.
  /// Never touched when rebalancing is disabled (op_guard returns an
  /// unlocked guard), keeping the default path free.
  mutable std::shared_mutex rebalance_latch_;
  /// Completed split/merge moves (the advisor's cooldown basis).
  std::atomic<std::size_t> moves_{0};
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<std::function<std::vector<std::byte>(V&, std::span<const std::byte>)>>
      mutators_;

  /// Replicated ops: each primary FuncId and its failover twin, bound from
  /// one server body (core::bind_twins). resize_ has no twin.
  core::Twins insert_, upsert_, find_, erase_, resize_, apply_, apply_fetch_;
  rpc::FuncId replica_upsert_id_ = 0, replica_erase_id_ = 0, repair_id_ = 0;
  core::TxnStubs<Server, Record> txn_stubs_;
  HashFn hash_;

  /// Client-side read cache (DESIGN.md §5d); constructed even when disabled
  /// so call sites stay branch-free (every method no-ops off).
  std::unique_ptr<cache::ReadCache<K, V, HashFn>> cache_;
  std::uint64_t cache_hook_ = 0;
  core::Bindings bindings_;
};

}  // namespace core

/// The paper's flagship distributed hash map (§III.D.1).
template <typename K, typename V, typename HashFn = Hash<K>>
using unordered_map = core::PartitionedMap<core::CuckooStore<K, V, HashFn>>;

/// Ordered distributed map (§III.D.2); `Less` orders for_each_ordered().
template <typename K, typename V, typename Less = std::less<K>,
          typename HashFn = Hash<K>>
using map = core::PartitionedMap<core::SkipListStore<K, V, Less, HashFn>>;

}  // namespace hcl
