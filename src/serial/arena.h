// Arena serialization: the zero-allocation small-op fast path (DESIGN.md §5i).
//
// BasicFlatOutArchive writes through the same save() dispatch as the heap
// archives, but into a caller-owned fixed-capacity buffer — a shared-memory
// ring slot's arena chunk on the shm transport tier. Nothing grows: when the
// value does not fit, the archive flips its overflow flag and the caller
// falls back to the heap path. Reading needs no new type — BasicInArchive is
// already a non-owning view, so the consumer side of the ring deserializes
// straight out of the arena with zero copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "serial/serialize.h"

namespace hcl::serial {

template <SerializerBackend Backend = RawBackend>
class BasicFlatOutArchive {
 public:
  static constexpr bool is_saving = true;
  static constexpr bool is_loading = false;
  using backend_type = Backend;

  explicit BasicFlatOutArchive(std::span<std::byte> arena)
      : begin_(arena.data()),
        cursor_(arena.data()),
        end_(arena.data() + arena.size()) {}

  void raw_bytes(const void* p, std::size_t n) {
    if (std::byte* at = extend(n)) std::memcpy(at, p, n);
  }

  /// Claim `n` bytes in one bounds check and return where they start, or
  /// null (and flip the overflow flag) when they do not fit.
  std::byte* extend(std::size_t n) {
    if (overflow_ || static_cast<std::size_t>(end_ - cursor_) < n) {
      overflow_ = true;
      return nullptr;
    }
    std::byte* at = cursor_;
    cursor_ += n;
    return at;
  }

  void u64(std::uint64_t v) {
    if (overflow_ || !Backend::put_u64(cursor_, end_, v)) overflow_ = true;
  }
  void i64(std::int64_t v) { u64(zigzag_encode(v)); }

  void f64(double v) { raw_bytes(&v, sizeof(v)); }
  void f32(float v) { raw_bytes(&v, sizeof(v)); }

  /// False once any write has not fit; the buffer contents are then
  /// unspecified and the caller must re-serialize through a growing archive.
  [[nodiscard]] bool ok() const noexcept { return !overflow_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(cursor_ - begin_);
  }
  [[nodiscard]] std::span<const std::byte> written() const noexcept {
    return {begin_, size()};
  }

  template <typename T>
  BasicFlatOutArchive& operator&(const T& v) {
    save(*this, v);
    return *this;
  }
  template <typename T>
  BasicFlatOutArchive& operator<<(const T& v) {
    return *this & v;
  }

 private:
  std::byte* begin_;
  std::byte* cursor_;
  std::byte* end_;
  bool overflow_ = false;
};

using FlatOutArchive = BasicFlatOutArchive<RawBackend>;
using PackedFlatOutArchive = BasicFlatOutArchive<PackedBackend>;

static_assert(OutputArchive<FlatOutArchive>);
static_assert(OutputArchive<PackedFlatOutArchive>);

}  // namespace hcl::serial
