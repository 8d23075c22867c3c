// The DataBox abstraction (paper §III.C).
//
// "A DataBox is a template that provides mechanisms for defining,
// serializing, transmitting, and storing complex data structures." It wraps
// a value of any serializable type and offers:
//   * to_bytes / from_bytes through a pluggable SerializerBackend,
//   * the byte-copyable fast path (no serialization for simple types),
//   * the compile-time fixed-vs-variable length distinction,
//   * packed_size accounting so the fabric can charge wire time for exactly
//     the bytes that would cross the network.
//
// The transmission mechanism itself (RPC over RDMA) lives in src/rpc/; a
// DataBox is the payload vocabulary it speaks.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "serial/serialize.h"

namespace hcl::serial {

/// Measure the wire size of a value: constant for byte-copyable types, one
/// counting pass (BasicSizeArchive, nothing stored) otherwise.
template <typename T, SerializerBackend Backend = RawBackend>
[[nodiscard]] std::size_t packed_size(const T& v) {
  if constexpr (is_fixed_wire_size_v<T>) {
    (void)v;
    return sizeof(T);
  } else {
    BasicSizeArchive<Backend> count;
    save(count, v);
    return count.size();
  }
}

template <typename T, SerializerBackend Backend = RawBackend>
class DataBox {
 public:
  using value_type = T;
  using backend_type = Backend;

  /// Compile-time distinction between fixed and variable length objects
  /// (paper: "this distinction is handled during the compile-time of the
  /// application").
  static constexpr bool kFixedSize = has_constant_wire_size_v<T>;

  DataBox() = default;
  explicit DataBox(T value) : value_(std::move(value)) {}

  [[nodiscard]] T& value() noexcept { return value_; }
  [[nodiscard]] const T& value() const noexcept { return value_; }
  [[nodiscard]] T&& take() noexcept { return std::move(value_); }

  /// Serialize for transmission or storage.
  [[nodiscard]] std::vector<std::byte> to_bytes() const {
    return pack<T, Backend>(value_);
  }

  /// Reconstruct from received/stored bytes.
  static DataBox from_bytes(std::span<const std::byte> bytes) {
    return DataBox(unpack<T, Backend>(bytes));
  }

  /// Number of bytes the boxed value occupies on the wire, counted without
  /// encoding (serial::packed_size).
  [[nodiscard]] std::size_t packed_size() const {
    return serial::packed_size<T, Backend>(value_);
  }

  friend bool operator==(const DataBox& a, const DataBox& b) {
    return a.value_ == b.value_;
  }

 private:
  T value_{};
};

}  // namespace hcl::serial
