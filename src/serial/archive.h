// Binary archives: the byte-level reader/writer DataBoxes serialize through.
//
// BasicOutArchive appends to a byte vector drawn from its thread's
// BufferPool; BasicInArchive consumes a non-owning view. Both are
// parameterized by a SerializerBackend that controls integer encoding.
// `operator&` supports cereal-style symmetric `serialize(Ar&)` methods on
// user types (paper: "users can define their own custom serialization
// function").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "serial/backend.h"

namespace hcl::serial {

/// Byte buffers every heap archive draws from and returns to (DESIGN.md
/// §5b): an op's request, response or bundle bytes reuse capacity an
/// earlier op grew instead of re-growing it from empty.
using BufferPool = VectorPool<std::byte>;

/// Give a buffer released from an archive back to this thread's pool.
inline void recycle(std::vector<std::byte>&& bytes) noexcept {
  BufferPool::give(std::move(bytes));
}

template <SerializerBackend Backend = RawBackend>
class BasicOutArchive {
 public:
  static constexpr bool is_saving = true;
  static constexpr bool is_loading = false;
  using backend_type = Backend;

  BasicOutArchive() noexcept : buf_(BufferPool::take()) {}
  ~BasicOutArchive() { recycle(std::move(buf_)); }

  BasicOutArchive(BasicOutArchive&& other) noexcept
      : buf_(std::move(other.buf_)) {}
  /// Swaps, so the buffer this archive held goes back to the pool with
  /// `other` instead of being freed.
  BasicOutArchive& operator=(BasicOutArchive&& other) noexcept {
    buf_.swap(other.buf_);
    return *this;
  }
  BasicOutArchive(const BasicOutArchive&) = delete;
  BasicOutArchive& operator=(const BasicOutArchive&) = delete;

  void raw_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  void u64(std::uint64_t v) { Backend::put_u64(buf_, v); }
  void i64(std::int64_t v) { Backend::put_u64(buf_, zigzag_encode(v)); }

  /// Grow by `n` bytes in one step and return where they start, for a
  /// caller that fills them in place (the one-pass scalar-sequence path).
  std::byte* extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  void f64(double v) { raw_bytes(&v, sizeof(v)); }
  void f32(float v) { raw_bytes(&v, sizeof(v)); }

  /// Make room for `n` more bytes in at most one allocation (geometric, so
  /// repeated appends still grow amortized).
  void reserve_more(std::size_t n) {
    const std::size_t need = buf_.size() + n;
    if (need > buf_.capacity()) {
      buf_.reserve(std::max(need, 2 * buf_.capacity()));
    }
  }
  /// Drop everything written after the first `n` bytes (keeps capacity).
  void truncate(std::size_t n) noexcept { buf_.resize(n); }

  [[nodiscard]] const std::vector<std::byte>& buffer() const noexcept { return buf_; }
  /// Written bytes, writable in place (a length patched after its payload).
  [[nodiscard]] std::byte* data() noexcept { return buf_.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  /// A right-sized copy of the bytes; the pooled buffer stays with the
  /// archive, so a caller that keeps the result holds no spare capacity.
  [[nodiscard]] std::vector<std::byte> take() const {
    return std::vector<std::byte>(buf_.begin(), buf_.end());
  }
  /// Hand the pooled buffer itself over; its new owner gives it back with
  /// recycle() once the bytes are consumed.
  [[nodiscard]] std::vector<std::byte> release() noexcept {
    return std::move(buf_);
  }
  void clear() noexcept { buf_.clear(); }

  /// Symmetric-serialize support: `ar & field` writes when saving.
  template <typename T>
  BasicOutArchive& operator&(const T& v);
  template <typename T>
  BasicOutArchive& operator<<(const T& v) { return *this & v; }

 private:
  std::vector<std::byte> buf_;
};

template <SerializerBackend Backend = RawBackend>
class BasicInArchive {
 public:
  static constexpr bool is_saving = false;
  static constexpr bool is_loading = true;
  using backend_type = Backend;

  explicit BasicInArchive(std::span<const std::byte> data)
      : cursor_(data.data()), end_(data.data() + data.size()) {}

  void raw_bytes(void* p, std::size_t n) { std::memcpy(p, consume(n), n); }

  /// Consume `n` bytes in one bounds check and return where they start
  /// (underflow when fewer remain).
  const std::byte* consume(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cursor_) < n) detail::underflow();
    const std::byte* at = cursor_;
    cursor_ += n;
    return at;
  }

  std::uint64_t u64() { return Backend::get_u64(cursor_, end_); }
  std::int64_t i64() { return zigzag_decode(Backend::get_u64(cursor_, end_)); }

  double f64() {
    double v;
    raw_bytes(&v, sizeof(v));
    return v;
  }
  float f32() {
    float v;
    raw_bytes(&v, sizeof(v));
    return v;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - cursor_);
  }
  [[nodiscard]] bool exhausted() const noexcept { return cursor_ == end_; }

  /// Symmetric-serialize support: `ar & field` reads when loading.
  template <typename T>
  BasicInArchive& operator&(T& v);
  template <typename T>
  BasicInArchive& operator>>(T& v) { return *this & v; }

 private:
  const std::byte* cursor_;
  const std::byte* end_;
};

using OutArchive = BasicOutArchive<RawBackend>;
using InArchive = BasicInArchive<RawBackend>;
using PackedOutArchive = BasicOutArchive<PackedBackend>;
using PackedInArchive = BasicInArchive<PackedBackend>;

/// Any byte sink the save() dispatch can write through — the heap-growing
/// BasicOutArchive above or the fixed-capacity arena archive (arena.h).
template <typename Ar>
concept OutputArchive =
    Ar::is_saving && SerializerBackend<typename Ar::backend_type> &&
    requires(Ar& ar, std::uint64_t u, const void* p, std::size_t n) {
      ar.u64(u);
      ar.raw_bytes(p, n);
    };

/// Any byte source the load() dispatch can read through.
template <typename Ar>
concept InputArchive =
    Ar::is_loading && SerializerBackend<typename Ar::backend_type> &&
    requires(Ar& ar, void* p, std::size_t n) {
      { ar.u64() } -> std::same_as<std::uint64_t>;
      { ar.remaining() } -> std::convertible_to<std::size_t>;
      ar.raw_bytes(p, n);
    };

}  // namespace hcl::serial
