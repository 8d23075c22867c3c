// Concurrent cuckoo hash map (paper §III.D.1).
//
// "We employ a lock-free Cuckoo Hash algorithm, which allows multiple
// insertions on the same key to be always consistent, resolves cache
// collisions using a secondary array of buckets, and utilizes concurrency to
// increase write performance."
//
// Design (in the spirit of Nguyen & Tsigas' lock-free cuckoo hashing and
// libcuckoo's fine-grained implementation):
//   * 4-way set-associative buckets; two independent hash functions choose
//     two candidate buckets per key (primary + the "secondary array").
//   * Lookups are optimistic and lock-free for trivially copyable
//     key/value pairs: a per-bucket sequence lock validates that no writer
//     intervened (readers never block writers). Non-trivially-copyable
//     payloads fall back to briefly holding the bucket spinlock — copying a
//     std::string while a writer mutates it is not merely torn, it is UB.
//   * Writers take the two bucket locks in index order.
//   * Displacement ("kicking") serializes on a structure-wide displacement
//     lock and announces itself through a global sequence counter so that
//     concurrent lookups never miss a key that is in flight between its two
//     buckets. Writers read the same counter: a key they find absent while
//     a kick chain ran may have been in hand, so they look again rather
//     than insert a second copy or report a failed erase. A bounded stash
//     absorbs the (astronomically rare) failed kick chain so no element is
//     ever lost.
//   * Resize doubles the bucket array (load factor 0.75, the paper's
//     threshold), swaps an atomic table pointer, and retires the old table
//     through EBR so in-flight lock-free readers stay safe.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/spin.h"
#include "lf/ebr.h"

namespace hcl::lf {

template <typename K, typename V, typename HashFn = Hash<K>,
          typename AltHashFn = AltHash<K>, typename Eq = std::equal_to<K>>
class CuckooMap {
 public:
  static constexpr std::size_t kSlotsPerBucket = 4;
  static constexpr double kMaxLoadFactor = 0.75;  // paper §III.D.1
  static constexpr int kMaxKicks = 64;

  explicit CuckooMap(std::size_t initial_buckets = 128)
      : table_(new Table(next_pow2(initial_buckets < 2 ? 2 : initial_buckets))) {}

  CuckooMap(const CuckooMap&) = delete;
  CuckooMap& operator=(const CuckooMap&) = delete;

  ~CuckooMap() { delete table_.load(std::memory_order_relaxed); }

  /// Insert; returns false (and leaves the map unchanged) if the key exists.
  bool insert(const K& key, const V& value) {
    return write_op(key, [&](std::optional<std::pair<K, V>>& slot, bool found) {
      if (found) return false;
      slot.emplace(key, value);
      return true;
    });
  }

  /// Insert or overwrite; returns true when the key was newly inserted.
  bool upsert(const K& key, const V& value) {
    return write_op(key, [&](std::optional<std::pair<K, V>>& slot, bool found) {
      if (found) {
        slot->second = value;
        return false;  // not a new element
      }
      slot.emplace(key, value);
      return true;
    });
  }

  /// Atomic read-modify-write: if the key exists apply `fn(V&)`, otherwise
  /// insert `init` first and then apply. The whole step runs under the
  /// bucket locks — this is the histogram-update primitive the Meraculous
  /// k-mer kernel needs. Returns true when the key was newly inserted.
  template <typename F>
  bool update_fn(const K& key, F&& fn, const V& init = V{}) {
    return write_op(key, [&](std::optional<std::pair<K, V>>& slot, bool found) {
      if (!found) slot.emplace(key, init);
      fn(slot->second);
      return !found;
    });
  }

  /// Lookup. Lock-free for trivially copyable payloads.
  bool find(const K& key, V* out = nullptr) const {
    const std::uint64_t h1 = hash_(key);
    const std::uint64_t h2 = alt_hash_(key);
    Ebr::Guard guard(ebr_);
    for (;;) {
      const std::uint64_t dseq = displacement_seq_.read_begin();
      Table* t = table_.load(std::memory_order_acquire);
      bool hit = probe_bucket(t->bucket(h1), h1, key, out) ||
                 probe_bucket(t->bucket(h2), h1, key, out) || probe_stash(key, out);
      if (displacement_seq_.read_validate(dseq)) return hit;
      // A displacement was in flight: the key may have been between buckets.
    }
  }

  [[nodiscard]] bool contains(const K& key) const { return find(key, nullptr); }

  /// Remove; returns false if absent.
  bool erase(const K& key) {
    const std::uint64_t h1 = hash_(key);
    const std::uint64_t h2 = alt_hash_(key);
    Ebr::Guard guard(ebr_);
    std::shared_lock resize_guard(resize_mutex_);
    for (;;) {
      const std::uint64_t dseq = displacement_seq_.read_begin();
      Table* t = table_.load(std::memory_order_acquire);
      Bucket& b1 = t->bucket(h1);
      Bucket& b2 = t->bucket(h2);
      BucketLock locks(b1, b2);
      for (Bucket* b : {&b1, &b2}) {
        for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
          if (b->tags[s] == h1 && b->slots[s].has_value() &&
              eq_(b->slots[s]->first, key)) {
            b->seq.write_begin();
            b->slots[s].reset();
            b->tags[s] = 0;
            b->seq.write_end();
            size_.fetch_sub(1, std::memory_order_relaxed);
            return true;
          }
        }
      }
      if (erase_from_stash(key)) return true;
      // Absent — unless a displacement held the key in hand meanwhile.
      if (displacement_seq_.read_validate(dseq)) return false;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] std::size_t bucket_count() const {
    Ebr::Guard guard(ebr_);
    return table_.load(std::memory_order_acquire)->mask + 1;
  }
  [[nodiscard]] std::size_t capacity() const {
    return bucket_count() * kSlotsPerBucket;
  }
  [[nodiscard]] double load_factor() const {
    return static_cast<double>(size()) / static_cast<double>(capacity());
  }

  /// Explicit grow to at least `min_buckets` (paper: resize "can be either
  /// triggered by the user explicitly or automatically").
  void reserve(std::size_t min_buckets) { grow_to(next_pow2(min_buckets)); }

  /// Visit every element under bucket locks. `fn(const K&, const V&)`.
  /// Mutations from other threads are excluded bucket-by-bucket.
  template <typename F>
  void for_each(F&& fn) const {
    Ebr::Guard guard(ebr_);
    std::shared_lock resize_guard(resize_mutex_);
    Table* t = table_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i <= t->mask; ++i) {
      Bucket& b = t->buckets[i];
      std::lock_guard<SpinLock> bucket_guard(b.lock);
      for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
        if (b.slots[s].has_value()) fn(b.slots[s]->first, b.slots[s]->second);
      }
    }
    std::lock_guard<SpinLock> stash_guard(stash_lock_);
    for (const auto& kv : stash_) fn(kv.first, kv.second);
  }

  void clear() {
    std::unique_lock resize_guard(resize_mutex_);
    Table* old = table_.load(std::memory_order_acquire);
    table_.store(new Table(old->mask + 1), std::memory_order_release);
    size_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<SpinLock> stash_guard(stash_lock_);
      stash_.clear();
      stash_nonempty_.store(false, std::memory_order_release);
    }
    Ebr::Guard guard(ebr_);
    ebr_.retire_delete(old);
  }

 private:
  struct Bucket {
    SpinLock lock;
    mutable SeqLock seq;
    std::array<std::uint64_t, kSlotsPerBucket> tags{};  // primary hash of key
    std::array<std::optional<std::pair<K, V>>, kSlotsPerBucket> slots;
  };

  struct Table {
    explicit Table(std::size_t n) : mask(n - 1), buckets(n) {}
    std::size_t mask;
    std::vector<Bucket> buckets;
    Bucket& bucket(std::uint64_t h) { return buckets[h & mask]; }
  };

  /// Lock two buckets in address order (same bucket locks once).
  class BucketLock {
   public:
    BucketLock(Bucket& a, Bucket& b) : a_(&a), b_(&b == &a ? nullptr : &b) {
      if (b_ != nullptr && b_ < a_) std::swap(a_, b_);
      a_->lock.lock();
      if (b_ != nullptr) b_->lock.lock();
    }
    ~BucketLock() {
      if (b_ != nullptr) b_->lock.unlock();
      a_->lock.unlock();
    }

   private:
    Bucket* a_;
    Bucket* b_;
  };

  static constexpr bool kTrivialPayload =
      std::is_trivially_copyable_v<std::optional<std::pair<K, V>>>;

  bool probe_bucket(Bucket& b, std::uint64_t tag, const K& key, V* out) const {
    if constexpr (kTrivialPayload) {
      // Optimistic lock-free read validated by the bucket seqlock.
      for (;;) {
        const std::uint64_t s = b.seq.read_begin();
        std::array<std::uint64_t, kSlotsPerBucket> tags = b.tags;
        std::array<std::optional<std::pair<K, V>>, kSlotsPerBucket> slots;
        std::memcpy(&slots, &b.slots, sizeof(slots));
        if (!b.seq.read_validate(s)) continue;
        for (std::size_t i = 0; i < kSlotsPerBucket; ++i) {
          if (tags[i] == tag && slots[i].has_value() && eq_(slots[i]->first, key)) {
            if (out != nullptr) *out = slots[i]->second;
            return true;
          }
        }
        return false;
      }
    } else {
      std::lock_guard<SpinLock> guard(b.lock);
      for (std::size_t i = 0; i < kSlotsPerBucket; ++i) {
        if (b.tags[i] == tag && b.slots[i].has_value() &&
            eq_(b.slots[i]->first, key)) {
          if (out != nullptr) *out = b.slots[i]->second;
          return true;
        }
      }
      return false;
    }
  }

  bool probe_stash(const K& key, V* out) const {
    if (!stash_nonempty_.load(std::memory_order_acquire)) return false;
    std::lock_guard<SpinLock> guard(stash_lock_);
    for (const auto& kv : stash_) {
      if (eq_(kv.first, key)) {
        if (out != nullptr) *out = kv.second;
        return true;
      }
    }
    return false;
  }

  bool erase_from_stash(const K& key) {
    if (!stash_nonempty_.load(std::memory_order_acquire)) return false;
    std::lock_guard<SpinLock> guard(stash_lock_);
    for (auto it = stash_.begin(); it != stash_.end(); ++it) {
      if (eq_(it->first, key)) {
        stash_.erase(it);
        if (stash_.empty()) stash_nonempty_.store(false, std::memory_order_release);
        size_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Common write path: locate the key (or a free slot) under both bucket
  /// locks and run `mut(slot, found)`. `mut` returns true when it added a
  /// new element.
  template <typename Mut>
  bool write_op(const K& key, Mut&& mut) {
    const std::uint64_t h1 = hash_(key);
    const std::uint64_t h2 = alt_hash_(key);
    for (;;) {
      if (grow_pending_.load(std::memory_order_acquire)) {
        grow_to((table_.load(std::memory_order_acquire)->mask + 1) * 2);
      }
      bool need_grow = false;
      {
        Ebr::Guard guard(ebr_);
        std::shared_lock resize_guard(resize_mutex_);
        const std::uint64_t dseq = displacement_seq_.read_begin();
        Table* t = table_.load(std::memory_order_acquire);
        Bucket& b1 = t->bucket(h1);
        Bucket& b2 = t->bucket(h2);
        {
          BucketLock locks(b1, b2);
          // Existing key?
          for (Bucket* b : {&b1, &b2}) {
            for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
              if (b->tags[s] == h1 && b->slots[s].has_value() &&
                  eq_(b->slots[s]->first, key)) {
                b->seq.write_begin();
                const bool added = mut(b->slots[s], /*found=*/true);
                b->seq.write_end();
                return added;
              }
            }
          }
          // Stash may hold it (mid-displacement leftovers).
          if (stash_nonempty_.load(std::memory_order_acquire)) {
            std::lock_guard<SpinLock> stash_guard(stash_lock_);
            for (auto& kv : stash_) {
              if (eq_(kv.first, key)) {
                std::optional<std::pair<K, V>> tmp(std::move(kv));
                const bool added = mut(tmp, /*found=*/true);
                kv = std::move(*tmp);
                return added;
              }
            }
          }
          // Absent from both buckets and the stash — unless a displacement
          // since dseq held the key in hand between buckets. Adding it now
          // would duplicate it, so look again once the kick chain is done.
          if (!displacement_seq_.read_validate(dseq)) continue;
          // Free slot in either bucket?
          for (Bucket* b : {&b1, &b2}) {
            for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
              if (!b->slots[s].has_value()) {
                b->seq.write_begin();
                const bool added = mut(b->slots[s], /*found=*/false);
                if (added) b->tags[s] = h1;
                b->seq.write_end();
                if (added) size_.fetch_add(1, std::memory_order_relaxed);
                maybe_schedule_grow();
                return added;
              }
            }
          }
        }  // release bucket locks before displacing
        // Both buckets full: displace.
        if (displace_and_free(*t, h1, h2)) continue;  // a slot freed — retry
        need_grow = true;
      }  // release resize shared lock before growing
      if (need_grow) {
        grow_to((table_.load(std::memory_order_acquire)->mask + 1) * 2);
      }
    }
  }

  /// Random-walk cuckoo displacement: evict items from one of the two full
  /// buckets toward their alternate buckets until a slot frees up. Runs
  /// under the structure-wide displacement lock; the displacement seqlock
  /// keeps concurrent lookups from missing in-flight keys. Returns false if
  /// the kick chain exceeded its budget (caller resizes).
  bool displace_and_free(Table& t, std::uint64_t h1, std::uint64_t h2) {
    std::lock_guard<SpinLock> dguard(displace_lock_);
    // Re-check: another displacer may have freed space already.
    if (bucket_has_space(t.bucket(h1)) || bucket_has_space(t.bucket(h2))) {
      return true;
    }
    displacement_seq_.write_begin();
    bool ok = false;
    std::uint64_t cur_hash = (kick_rng_.next() & 1) ? h1 : h2;
    std::optional<std::pair<K, V>> pending;  // item "in hand"
    std::uint64_t pending_tag = 0;
    for (int kick = 0; kick < kMaxKicks; ++kick) {
      Bucket& b = t.bucket(cur_hash);
      std::lock_guard<SpinLock> bucket_guard(b.lock);
      if (pending.has_value()) {
        // Place the pending item into any free slot of its bucket.
        bool placed = false;
        for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
          if (!b.slots[s].has_value()) {
            b.seq.write_begin();
            b.slots[s] = std::move(pending);
            b.tags[s] = pending_tag;
            b.seq.write_end();
            pending.reset();
            placed = true;
            break;
          }
        }
        if (placed) {
          ok = true;
          break;
        }
      }
      // Evict a random victim and carry it to its alternate bucket.
      const std::size_t victim = kick_rng_.next() & (kSlotsPerBucket - 1);
      if (!b.slots[victim].has_value()) {
        // Raced with an erase: a slot is free now.
        if (pending.has_value()) {
          b.seq.write_begin();
          b.slots[victim] = std::move(pending);
          b.tags[victim] = pending_tag;
          b.seq.write_end();
          pending.reset();
        }
        ok = true;
        break;
      }
      b.seq.write_begin();
      std::optional<std::pair<K, V>> evicted = std::move(b.slots[victim]);
      const std::uint64_t evicted_tag = b.tags[victim];
      if (pending.has_value()) {
        b.slots[victim] = std::move(pending);
        b.tags[victim] = pending_tag;
      } else {
        b.slots[victim].reset();
        b.tags[victim] = 0;
      }
      b.seq.write_end();
      pending = std::move(evicted);
      pending_tag = evicted_tag;
      // The victim's alternate bucket: one of its two hashes differs from
      // the bucket it sat in.
      const std::uint64_t ph1 = pending_tag;  // tag stores the primary hash
      const std::uint64_t ph2 = alt_hash_(pending->first);
      cur_hash = ((ph1 & t.mask) == (cur_hash & t.mask)) ? ph2 : ph1;
    }
    if (pending.has_value()) {
      // Kick budget exhausted: stash the in-hand item so nothing is lost.
      std::lock_guard<SpinLock> stash_guard(stash_lock_);
      stash_.push_back(std::move(*pending));
      stash_nonempty_.store(true, std::memory_order_release);
      // The displacement freed net space only if ok; report failure so the
      // caller grows the table (the stash drains on resize).
    }
    displacement_seq_.write_end();
    return ok;
  }

  static bool bucket_has_space(Bucket& b) {
    std::lock_guard<SpinLock> guard(b.lock);
    for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
      if (!b.slots[s].has_value()) return true;
    }
    return false;
  }

  void maybe_schedule_grow() {
    Table* t = table_.load(std::memory_order_acquire);
    const auto cap = (t->mask + 1) * kSlotsPerBucket;
    if (static_cast<double>(size()) >
        kMaxLoadFactor * static_cast<double>(cap)) {
      grow_pending_.store(true, std::memory_order_release);
    }
  }

  void grow_to(std::size_t new_buckets) {
    std::unique_lock resize_guard(resize_mutex_);
    Table* old = table_.load(std::memory_order_acquire);
    if (old->mask + 1 >= new_buckets) return;  // raced; already big enough
    auto* fresh = new Table(new_buckets);
    // No writers are active (unique lock); move everything across.
    std::vector<std::pair<K, V>> overflow;
    for (std::size_t i = 0; i <= old->mask; ++i) {
      for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
        if (old->buckets[i].slots[s].has_value()) {
          auto& kv = *old->buckets[i].slots[s];
          if (!place_direct(*fresh, std::move(kv))) {
            overflow.push_back(std::move(kv));
          }
        }
      }
    }
    {
      std::lock_guard<SpinLock> stash_guard(stash_lock_);
      for (auto& kv : stash_) {
        if (!place_direct(*fresh, std::move(kv))) overflow.push_back(std::move(kv));
      }
      stash_ = std::move(overflow);
      stash_nonempty_.store(!stash_.empty(), std::memory_order_release);
    }
    table_.store(fresh, std::memory_order_release);
    grow_pending_.store(false, std::memory_order_release);
    Ebr::Guard guard(ebr_);
    ebr_.retire_delete(old);
  }

  /// Single-threaded placement during resize (no locks needed: unique).
  bool place_direct(Table& t, std::pair<K, V>&& kv) {
    const std::uint64_t h1 = hash_(kv.first);
    const std::uint64_t h2 = alt_hash_(kv.first);
    for (std::uint64_t h : {h1, h2}) {
      Bucket& b = t.bucket(h);
      for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
        if (!b.slots[s].has_value()) {
          b.slots[s] = std::move(kv);
          b.tags[s] = h1;
          return true;
        }
      }
    }
    // Sequential kick chain.
    std::optional<std::pair<K, V>> pending(std::move(kv));
    std::uint64_t pending_tag = h1;
    std::uint64_t cur = h1;
    for (int kick = 0; kick < kMaxKicks * 4; ++kick) {
      Bucket& b = t.bucket(cur);
      for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
        if (!b.slots[s].has_value()) {
          b.slots[s] = std::move(pending);
          b.tags[s] = pending_tag;
          return true;
        }
      }
      const std::size_t victim = kick_rng_.next() & (kSlotsPerBucket - 1);
      std::swap(*b.slots[victim], *pending);
      std::swap(b.tags[victim], pending_tag);
      const std::uint64_t ph2 = alt_hash_(pending->first);
      cur = ((pending_tag & t.mask) == (cur & t.mask)) ? ph2 : pending_tag;
    }
    kv = std::move(*pending);
    return false;
  }

  mutable Ebr ebr_;
  std::atomic<Table*> table_;
  mutable std::shared_mutex resize_mutex_;
  std::atomic<std::size_t> size_{0};
  std::atomic<bool> grow_pending_{false};

  mutable SpinLock displace_lock_;
  mutable SpinLock stash_lock_;  // lock order: bucket -> stash, displace -> stash
  mutable SeqLock displacement_seq_;
  std::vector<std::pair<K, V>> stash_;
  std::atomic<bool> stash_nonempty_{false};
  Rng kick_rng_{0xC0FFEE};  // guarded by displace_lock_ / resize unique lock

  HashFn hash_;
  AltHashFn alt_hash_;
  Eq eq_;
};

}  // namespace hcl::lf
