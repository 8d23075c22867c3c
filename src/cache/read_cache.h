// Client-side read-through caching with epoch leases (DESIGN.md §5d).
//
// The paper's hybrid data-access model (§III.C.5) bypasses the wire only
// when the caller is co-located with the partition; every remote find still
// pays a full F round trip. This subsystem extends "bypass the wire when you
// can" to remote partitions: each rank keeps a private read-through cache of
// remotely fetched entries (positive AND negative results), and serves
// repeat reads from client DRAM at cache_hit_ns instead of a NIC round trip.
//
// Coherence — the epoch-lease protocol:
//   * every partition keeps a monotonically increasing mutation epoch,
//     bumped by every successful insert/erase, every upsert/mutator, every
//     batched constituent, and every replication write;
//   * every RPC response (scalar or per-op batch slot) piggybacks the
//     partition's current epoch (ServerCtx::epoch -> Future::response_epoch);
//   * a cached entry records the epoch it was read at plus a simulated-time
//     lease (CachePolicy::ttl_ns). It is served only while the lease is
//     unexpired AND its epoch is not older than the highest epoch this rank
//     has seen from that partition. A later response proving a higher epoch
//     therefore invalidates older entries lazily — piggybacked invalidation,
//     no server push;
//   * a writer invalidates its own entry BEFORE the write ships
//     (begin_write), so a retried/failed write can never leave its issuer
//     serving the pre-write value; on completion the piggybacked epoch is
//     recorded and, in CacheMode::kUpdate, the known outcome is re-cached;
//   * Context::run()/run_one() barriers revoke every lease (invalidate_all),
//     so cross-phase reads are always authoritative — BSP-barrier lease
//     revocation, the property the on/off equivalence sweeps rely on.
//
// Guarantee: staleness is bounded by min(ttl_ns, time-to-next-barrier);
// ttl_ns = 0 means every consult revalidates (exact consistency, identical
// results to cache-off at the cost of the full RPC).
//
// Threading: each rank touches only its own store (one worker drives a
// rank at a time); invalidate_all runs between phases, after the runner's
// workers joined. Aggregate stats are atomics because ranks update them
// concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/hash.h"
#include "fabric/fabric.h"
#include "obs/trace.h"
#include "sim/actor.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace hcl::cache {

/// What the cache does with the writer's own entry when one of its writes
/// completes (reads always populate).
enum class CacheMode : std::uint8_t {
  kOff = 0,         // no cache: every remote read is an RPC (the default)
  kInvalidate = 1,  // writes drop the entry; the next read refetches
  kUpdate = 2,      // writes re-cache the known outcome at the new epoch
};

/// Per-container knobs, carried on core::ContainerOptions (default off so
/// existing benches and tests are byte-for-byte unchanged).
struct CachePolicy {
  /// Max cached entries per rank; 0 disables the cache.
  std::size_t capacity = 1024;
  /// Simulated-time lease per entry. 0 = revalidate on every read (exact
  /// consistency: identical results to cache-off).
  sim::Nanos ttl_ns = 100 * sim::kMicrosecond;
  CacheMode mode = CacheMode::kOff;

  [[nodiscard]] bool enabled() const noexcept {
    return mode != CacheMode::kOff && capacity > 0;
  }
};

/// Session-wide default for ContainerOptions::cache: off unless the build
/// (-DHCL_CACHE_DEFAULT_ON=ON) or the environment turns it on. The CI
/// cache-on matrix leg sets HCL_CACHE_MODE=invalidate|update to run the
/// whole container and property suites with caching enabled, so coherence
/// regressions fail CI.
inline CachePolicy default_policy() {
  static const CachePolicy policy = [] {
    CachePolicy p;
#ifdef HCL_CACHE_DEFAULT_ON
    p.mode = CacheMode::kInvalidate;
#endif
    const std::string mode = env_string("HCL_CACHE_MODE", "");
    if (mode == "invalidate") {
      p.mode = CacheMode::kInvalidate;
    } else if (mode == "update") {
      p.mode = CacheMode::kUpdate;
    } else if (mode == "off") {
      p.mode = CacheMode::kOff;
    }
    return p;
  }();
  return policy;
}

/// Aggregate counters across all ranks (diagnostics / ablations). The
/// per-NIC fabric counters carry the same events attributed to the node
/// whose traffic was (or was not) avoided.
struct CacheStats {
  std::int64_t hits = 0;           // served from client DRAM, no RPC
  std::int64_t misses = 0;         // fell through to the authoritative RPC
  std::int64_t stale_reads = 0;    // dropped: epoch older than last seen
  std::int64_t expired = 0;        // dropped: lease TTL elapsed
  std::int64_t invalidations = 0;  // dropped: own write / stale epoch
  std::int64_t evictions = 0;      // dropped: capacity pressure (FIFO)
};

/// The per-rank read-through cache one keyed container owns. K/V/HashFn
/// match the container's. Entries belong to remote partitions only — the
/// hybrid local path never consults the cache (shared memory is already
/// cheaper than a hit).
template <typename K, typename V, typename HashFn = Hash<K>>
class ReadCache {
 public:
  ReadCache(fabric::Fabric& fabric, CachePolicy policy, int num_ranks,
            std::vector<sim::NodeId> partition_nodes,
            obs::Tracer* tracer = nullptr)
      : fabric_(&fabric),
        policy_(policy),
        partition_nodes_(std::move(partition_nodes)),
        tracer_(tracer) {
    if (policy_.enabled()) {
      stores_.resize(static_cast<std::size_t>(num_ranks));
      for (auto& rs : stores_) {
        rs.last_seen.assign(partition_nodes_.size(), 0);
      }
    }
  }

  ReadCache(const ReadCache&) = delete;
  ReadCache& operator=(const ReadCache&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return policy_.enabled(); }
  [[nodiscard]] const CachePolicy& policy() const noexcept { return policy_; }

  /// Read-path consult. Returns true on a serveable hit — lease unexpired
  /// and epoch not older than the freshest this rank has seen from the
  /// partition — filling *present (and *out when present). Returns false
  /// when the caller must issue the authoritative RPC. Charges client-core
  /// time only; a hit never touches the fabric.
  bool lookup(sim::Actor& self, int partition, const K& key, V* out,
              bool* present) {
    if (!enabled()) return false;
    RankStore& rs = store(self);
    const sim::Nanos consult_start = self.now();
    self.advance(fabric_->model().cache_check_ns);
    auto& counters = nic_counters(partition);
    auto it = rs.entries.find(key);
    if (it == rs.entries.end()) {
      return miss(self, partition, counters, consult_start);
    }
    Entry& entry = it->second;
    if (entry.epoch < rs.last_seen[static_cast<std::size_t>(partition)]) {
      // Piggybacked invalidation: a later response from this partition
      // carried a higher epoch, so the entry may predate a mutation.
      rs.entries.erase(it);
      compact_fifo(rs);
      stats_stale_.fetch_add(1, std::memory_order_relaxed);
      stats_invalidations_.fetch_add(1, std::memory_order_relaxed);
      counters.cache_stale_count.fetch_add(1, std::memory_order_relaxed);
      counters.cache_invalidation_count.fetch_add(1, std::memory_order_relaxed);
      return miss(self, partition, counters, consult_start);
    }
    if (policy_.ttl_ns <= 0 || self.now() - entry.read_at >= policy_.ttl_ns) {
      // Lease expired (ttl_ns == 0: every consult revalidates).
      rs.entries.erase(it);
      compact_fifo(rs);
      stats_expired_.fetch_add(1, std::memory_order_relaxed);
      return miss(self, partition, counters, consult_start);
    }
    self.advance(fabric_->model().cache_hit_ns);
    stats_hits_.fetch_add(1, std::memory_order_relaxed);
    counters.cache_hit_count.fetch_add(1, std::memory_order_relaxed);
    counters.cache_hits.add(self.now(), 1);
    record_span(self, partition, obs::SpanKind::kCacheHit, consult_start);
    *present = entry.present;
    if (entry.present && out != nullptr) *out = entry.value;
    return true;
  }

  /// Refresh after an authoritative read: record the piggybacked epoch and
  /// cache the result (negative results too — an absent key is knowledge).
  void store_read(sim::Actor& self, int partition, const K& key,
                  const std::optional<V>& result, std::uint64_t epoch) {
    if (!enabled()) return;
    RankStore& rs = store(self);
    note_epoch(rs, partition, epoch);
    put(rs, key, result.has_value() ? &*result : nullptr, result.has_value(),
        epoch, self.now());
  }

  /// Called BEFORE a write to `key` ships (scalar or batched constituent):
  /// drop the writer's own entry so no retry/failure path can leave it
  /// serving the pre-write value.
  void begin_write(sim::Actor& self, int partition, const K& key) {
    if (!enabled()) return;
    RankStore& rs = store(self);
    if (rs.entries.erase(key) > 0) {
      compact_fifo(rs);
      stats_invalidations_.fetch_add(1, std::memory_order_relaxed);
      nic_counters(partition).cache_invalidation_count.fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  /// Called after a write's response resolved: record the piggybacked epoch;
  /// in kUpdate mode re-cache the known outcome (`known` engaged = present
  /// with that value, disengaged = definitely absent, nullptr = outcome
  /// unknown, e.g. a rejected insert left someone else's value in place).
  void complete_write(sim::Actor& self, int partition, const K& key,
                      std::uint64_t epoch, const std::optional<V>* known) {
    if (!enabled()) return;
    RankStore& rs = store(self);
    note_epoch(rs, partition, epoch);
    if (policy_.mode != CacheMode::kUpdate || known == nullptr || epoch == 0) {
      return;
    }
    put(rs, key, known->has_value() ? &**known : nullptr, known->has_value(),
        epoch, self.now());
  }

  /// Ownership-change fence (failover/repair, DESIGN.md §5f): raise this
  /// rank's high-water epoch for `partition` to at least `epoch`. Promotion
  /// epochs start at a fence (term << 32) that dominates any epoch the dead
  /// primary ever published, so entries cached off the primary's epoch
  /// stream go stale on the next consult instead of serving pre-failover
  /// values; on repair the recovered primary adopts an epoch ABOVE the
  /// fence, keeping the partition's epoch stream monotonic across ownership
  /// changes (otherwise the primary's small epochs would read as permanently
  /// stale and the cache would never serve its partitions again).
  void fence_partition(sim::Actor& self, int partition, std::uint64_t epoch) {
    if (!enabled()) return;
    note_epoch(store(self), partition, epoch);
  }

  /// Barrier hook (Context::run edges): revoke every lease on every rank.
  /// Runs between phases with no actor threads live; epoch knowledge
  /// (last_seen) survives — only the entries go.
  void invalidate_all() {
    for (auto& rs : stores_) {
      rs.entries.clear();
      rs.fifo.clear();
    }
  }

  /// Introspection for invariant tests: one rank's live entry count and its
  /// eviction-deque length (live slots + ghosts). compact_fifo guarantees
  /// debug_fifo_size <= 2 * debug_entry_count + kFifoSlack after every put.
  [[nodiscard]] std::size_t debug_entry_count(int rank) const {
    return stores_[static_cast<std::size_t>(rank)].entries.size();
  }
  [[nodiscard]] std::size_t debug_fifo_size(int rank) const {
    return stores_[static_cast<std::size_t>(rank)].fifo.size();
  }

  [[nodiscard]] CacheStats stats() const {
    CacheStats s;
    s.hits = stats_hits_.load(std::memory_order_relaxed);
    s.misses = stats_misses_.load(std::memory_order_relaxed);
    s.stale_reads = stats_stale_.load(std::memory_order_relaxed);
    s.expired = stats_expired_.load(std::memory_order_relaxed);
    s.invalidations = stats_invalidations_.load(std::memory_order_relaxed);
    s.evictions = stats_evictions_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Entry {
    std::uint64_t epoch = 0;   // partition epoch the entry was read/written at
    sim::Nanos read_at = 0;    // lease start (simulated time)
    bool present = false;      // false = cached negative (key known absent)
    V value{};
  };

  /// One rank's private store. FIFO eviction: `fifo` records first-insert
  /// order; entries dropped early (invalidation/staleness) leave ghosts that
  /// eviction skips, and put() compacts the deque whenever ghosts outnumber
  /// live entries (see the bound there). Correctness is
  /// eviction-policy-independent — eviction only converts hits into misses.
  struct RankStore {
    std::unordered_map<K, Entry, HashFn> entries;
    std::deque<K> fifo;
    std::vector<std::uint64_t> last_seen;  // per partition, piggybacked max
  };

  RankStore& store(sim::Actor& self) {
    return stores_[static_cast<std::size_t>(self.rank())];
  }

  fabric::NicCounters& nic_counters(int partition) {
    return fabric_->nic(partition_nodes_[static_cast<std::size_t>(partition)])
        .counters();
  }

  bool miss(sim::Actor& self, int partition, fabric::NicCounters& counters,
            sim::Nanos consult_start) {
    stats_misses_.fetch_add(1, std::memory_order_relaxed);
    counters.cache_miss_count.fetch_add(1, std::memory_order_relaxed);
    record_span(self, partition, obs::SpanKind::kCacheMiss, consult_start);
    return false;
  }

  /// Client-side consult span (DESIGN.md §5e): no server stages, just the
  /// probe window. The authoritative RPC a miss falls through to records its
  /// own full-pipeline span.
  void record_span(sim::Actor& self, int partition, obs::SpanKind kind,
                   sim::Nanos consult_start) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    auto span = std::make_shared<obs::Span>();
    span->kind = kind;
    span->target = partition_nodes_[static_cast<std::size_t>(partition)];
    span->client_rank = self.rank();
    span->issue_ns = consult_start;
    span->inject_done_ns = consult_start;
    span->arrival_ns = consult_start;
    span->ready_ns = self.now();
    tracer_->commit(span);
  }

  static void note_epoch(RankStore& rs, int partition, std::uint64_t epoch) {
    auto& seen = rs.last_seen[static_cast<std::size_t>(partition)];
    if (epoch > seen) seen = epoch;
  }

  void put(RankStore& rs, const K& key, const V* value, bool present,
           std::uint64_t epoch, sim::Nanos now) {
    auto it = rs.entries.find(key);
    if (it != rs.entries.end()) {
      if (epoch < it->second.epoch) {
        // No-downgrade: an older (or epoch-0 transport-failure) piggyback
        // must never replace a fresher entry or restart its lease. Fresh
        // inserts at epoch 0 stay allowed — a never-mutated partition
        // legitimately publishes epoch 0.
        return;
      }
      it->second = Entry{epoch, now, present, value != nullptr ? *value : V{}};
      return;
    }
    while (rs.entries.size() >= policy_.capacity) {
      if (rs.fifo.empty()) {  // unreachable once compaction holds (below):
        rs.entries.clear();   // every live entry keeps one fifo slot
        break;
      }
      K victim = std::move(rs.fifo.front());
      rs.fifo.pop_front();
      if (rs.entries.erase(victim) > 0) {
        stats_evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    rs.entries.emplace(key,
                       Entry{epoch, now, present, value != nullptr ? *value : V{}});
    rs.fifo.push_back(key);
    compact_fifo(rs);
  }

  /// Ghost control. A key leaves `entries` without leaving `fifo` on
  /// invalidation, staleness, or TTL expiry, and a re-insert pushes a SECOND
  /// fifo slot for the same key — so a re-insert-heavy churn workload grows
  /// the deque without bound while entries stays capped. Whenever dead slots
  /// (ghosts + duplicates) outnumber live entries beyond a slack constant,
  /// rebuild the deque keeping only the FIRST slot of each live key: O(fifo)
  /// work amortized against the >= fifo/2 pushes since the last compaction,
  /// and FIFO age order is preserved exactly. Runs after every path that
  /// mutates entries (put, begin_write, stale/expired lookup erases), so
  /// the invariant holds after every cache mutation:
  ///   fifo.size() <= 2 * entries.size() + kFifoSlack.
  static constexpr std::size_t kFifoSlack = 16;

  void compact_fifo(RankStore& rs) {
    if (rs.fifo.size() <= 2 * rs.entries.size() + kFifoSlack) return;
    std::deque<K> live;
    std::unordered_map<K, bool, HashFn> kept;  // first occurrence wins
    kept.reserve(rs.entries.size());
    for (auto& key : rs.fifo) {
      auto entry = rs.entries.find(key);
      if (entry == rs.entries.end()) continue;  // ghost
      auto [it, inserted] = kept.emplace(key, true);
      if (!inserted) continue;  // duplicate from a re-insert
      live.push_back(std::move(key));
    }
    rs.fifo = std::move(live);
  }

  fabric::Fabric* fabric_;
  CachePolicy policy_;
  std::vector<sim::NodeId> partition_nodes_;
  obs::Tracer* tracer_ = nullptr;
  std::vector<RankStore> stores_;

  std::atomic<std::int64_t> stats_hits_{0};
  std::atomic<std::int64_t> stats_misses_{0};
  std::atomic<std::int64_t> stats_stale_{0};
  std::atomic<std::int64_t> stats_expired_{0};
  std::atomic<std::int64_t> stats_invalidations_{0};
  std::atomic<std::int64_t> stats_evictions_{0};
};

}  // namespace hcl::cache
