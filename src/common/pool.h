// Per-thread recycling for the RoR hot path (DESIGN.md §5b): the storage an
// op needs over and over — byte buffers, bundle lists, a future's shared
// state — is taken from the running thread's spares and handed back when
// the op is done, instead of being allocated and freed per op.
//
// Both pools are thread-local. A simulated rank runs on one host thread at
// a time, and a checked-out item is never shared: a handler that invokes
// another op from inside a handler, or another fiber parked on the same
// worker, takes a different one. Items may be returned on another thread
// than the one they came from (a fiber resumed elsewhere, a future dropped
// by another rank); they then join that thread's spares. Each pool keeps a
// bounded number of items of bounded size, so nothing large stays resident.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace hcl {

/// Spare vectors of T, kept with their capacity: at most kMaxVectors per
/// thread, each at most kMaxRetainedBytes of capacity (a bigger one is
/// freed when given back).
template <typename T>
class VectorPool {
 public:
  static constexpr std::size_t kMaxVectors = 32;
  static constexpr std::size_t kMaxRetainedBytes = std::size_t{64} << 10;

  /// An empty vector, with the capacity of a spare when there is one.
  [[nodiscard]] static std::vector<T> take() noexcept {
    Spares& s = local();
    if (s.count == 0) return {};
    return std::move(s.items[--s.count]);
  }

  /// Clear `v` and keep it as a spare (or let it free its storage).
  static void give(std::vector<T>&& v) noexcept {
    if (v.capacity() == 0 || v.capacity() * sizeof(T) > kMaxRetainedBytes) {
      return;  // the caller's moved-from vector frees it
    }
    v.clear();
    Spares& s = local();
    if (s.count < kMaxVectors) s.items[s.count++] = std::move(v);
  }

 private:
  struct Spares {
    std::vector<T> items[kMaxVectors];
    std::size_t count = 0;
  };

  /// Not inlined: a fiber may resume on another worker thread, so the
  /// thread-local address is looked up on every call, never cached by a
  /// caller across a park point.
  [[gnu::noinline]] static Spares& local() noexcept {
    thread_local Spares spares;
    return spares;
  }
};

/// A std::allocator stand-in that recycles blocks of up to kMaxBlockBytes
/// through a per-thread free list per block type (at most kMaxBlocks each):
/// std::allocate_shared builds a future's shared state with it, and a
/// node-based container's nodes and bucket arrays come from it, without
/// touching the heap once the thread is warm.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  static constexpr std::size_t kMaxBlockBytes = 4096;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT: rebind

  T* allocate(std::size_t n) {
    if (n * sizeof(T) <= kMaxBlockBytes) {
      if (void* block = FreeList::local().pop(n)) return static_cast<T*>(block);
    }
    return std::allocator<T>{}.allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) <= kMaxBlockBytes && FreeList::local().push(p, n)) return;
    std::allocator<T>{}.deallocate(p, n);
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }

 private:
  struct FreeList {
    static constexpr std::size_t kMaxBlocks = 256;
    struct Block {
      void* at;
      std::size_t n;  // objects the block holds
    };
    Block blocks[kMaxBlocks];
    std::size_t count = 0;

    /// The most recently freed block of exactly `n` objects, or null.
    void* pop(std::size_t n) noexcept {
      for (std::size_t i = count; i-- > 0;) {
        if (blocks[i].n != n) continue;
        void* at = blocks[i].at;
        blocks[i] = blocks[--count];
        return at;
      }
      return nullptr;
    }
    bool push(void* at, std::size_t n) noexcept {
      if (count == kMaxBlocks) return false;
      blocks[count++] = {at, n};
      return true;
    }
    ~FreeList() {
      while (count > 0) {
        const Block& b = blocks[--count];
        std::allocator<T>{}.deallocate(static_cast<T*>(b.at), b.n);
      }
    }

    [[gnu::noinline]] static FreeList& local() noexcept {
      thread_local FreeList list;
      return list;
    }
  };
};

/// A shared T whose block (object and reference counts) comes from the
/// running thread's PoolAllocator free list.
template <typename T>
[[nodiscard]] std::shared_ptr<T> make_pooled() {
  return std::allocate_shared<T>(PoolAllocator<T>{});
}

}  // namespace hcl
