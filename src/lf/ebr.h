// Epoch-based memory reclamation (EBR) for the lock-free structures.
//
// The paper's local structures are lock-free with MWMR access (§III.D); that
// requires safe memory reclamation: a node unlinked by one thread may still
// be traversed by another. EBR is the classic scheme: readers pin the global
// epoch while inside a critical region; retired nodes are freed only after
// every pinned thread has moved past the epoch in which they were retired
// (two epochs behind the current one).
//
// Design notes:
//   * One Ebr instance per data structure (no global singletons).
//   * Threads register lazily into a fixed slot table; a slot is reused via
//     thread-id hashing, so at most kMaxThreads distinct concurrent threads
//     are supported (plenty for the simulated cluster's rank runners).
//   * retire() is called on the unlink path only, so a spinlock-guarded
//     limbo list is cheap relative to the structural CAS traffic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/spin.h"
#include "common/status.h"

namespace hcl::lf {

class Ebr {
 public:
  static constexpr std::size_t kMaxThreads = 512;
  static constexpr std::size_t kAdvanceThreshold = 128;  // retires per attempt

  Ebr() {
    for (auto& s : slots_) s.state.store(kQuiescent, std::memory_order_relaxed);
  }

  Ebr(const Ebr&) = delete;
  Ebr& operator=(const Ebr&) = delete;

 private:
  struct Slot;  // defined below; Guard holds a pointer to its thread's slot

 public:

  ~Ebr() {
    // No guards may be alive here; drain every limbo generation.
    for (auto& limbo : limbo_) {
      for (auto& fn : limbo) fn();
      limbo.clear();
    }
  }

  /// RAII pin: while alive, nodes retired in the current or later epochs
  /// will not be freed.
  class Guard {
   public:
    explicit Guard(Ebr& ebr) : ebr_(&ebr), slot_(&ebr.my_slot()) {
      // Re-entrant pins (a find inside an iteration) just nest.
      if (slot_->depth++ == 0) {
        const std::uint64_t e = ebr_->epoch_.load(std::memory_order_acquire);
        slot_->state.store(e << 1 | 1, std::memory_order_seq_cst);
      }
    }
    ~Guard() {
      if (--slot_->depth == 0) {
        slot_->state.store(kQuiescent, std::memory_order_release);
      }
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Ebr* ebr_;
    Slot* slot_;
  };

  /// Defer `deleter` until no pinned thread can still hold a reference.
  /// Must be called while holding a Guard (the unlinking thread is pinned).
  void retire(std::function<void()> deleter) {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    {
      std::lock_guard<SpinLock> guard(limbo_lock_);
      limbo_[e % 3].push_back(std::move(deleter));
    }
    if (retired_since_advance_.fetch_add(1, std::memory_order_relaxed) + 1 >=
        kAdvanceThreshold) {
      retired_since_advance_.store(0, std::memory_order_relaxed);
      try_advance();
    }
  }

  template <typename T>
  void retire_delete(T* p) {
    retire([p] { delete p; });
  }

  /// Attempt to move the epoch forward and free the generation that is two
  /// epochs behind. Safe to call at any time.
  void try_advance() {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    for (const auto& s : slots_) {
      const std::uint64_t st = s.state.load(std::memory_order_seq_cst);
      if (st != kQuiescent && (st >> 1) != e) return;  // straggler pinned
    }
    std::uint64_t expected = e;
    if (!epoch_.compare_exchange_strong(expected, e + 1,
                                        std::memory_order_acq_rel)) {
      return;  // someone else advanced
    }
    // Epoch is now e+1: generation (e+2)%3 == (e-1)%3 is unreachable.
    std::vector<std::function<void()>> to_free;
    {
      std::lock_guard<SpinLock> guard(limbo_lock_);
      to_free.swap(limbo_[(e + 2) % 3]);
    }
    for (auto& fn : to_free) fn();
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kQuiescent = 0;

  struct Slot {
    std::atomic<std::uint64_t> state{kQuiescent};  // epoch<<1|1 when pinned
    int depth = 0;                                 // re-entrancy count
    char pad[48];                                  // avoid false sharing
  };

  // Slot indices are process-global (a thread uses the same index in every
  // Ebr instance) and are recycled when the thread exits, so arbitrarily
  // many short-lived threads work as long as at most kMaxThreads are alive
  // concurrently.
  struct TlsIndex {
    std::size_t index;
    TlsIndex() {
      std::lock_guard<SpinLock> guard(pool().lock);
      auto& pool_ref = pool();
      if (!pool_ref.free.empty()) {
        index = pool_ref.free.back();
        pool_ref.free.pop_back();
      } else {
        index = pool_ref.next++;
        if (index >= kMaxThreads) {
          throw HclError(Status::Internal("EBR thread slots exhausted"));
        }
      }
    }
    ~TlsIndex() {
      std::lock_guard<SpinLock> guard(pool().lock);
      pool().free.push_back(index);
    }
    struct Pool {
      SpinLock lock;
      std::size_t next = 0;
      std::vector<std::size_t> free;
    };
    static Pool& pool() {
      static Pool p;
      return p;
    }
  };

  Slot& my_slot() {
    thread_local TlsIndex tls;
    return slots_[tls.index];
  }

  std::atomic<std::uint64_t> epoch_{1};
  std::array<Slot, kMaxThreads> slots_;
  SpinLock limbo_lock_;
  std::array<std::vector<std::function<void()>>, 3> limbo_;
  std::atomic<std::size_t> retired_since_advance_{0};
};

}  // namespace hcl::lf
