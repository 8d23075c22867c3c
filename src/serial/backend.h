// Serializer backends (paper §III.C.2).
//
// The paper supports multiple serialization libraries behind the DataBox
// abstraction (MSGPACK, Cereal, FlatBuffers) "since different serialization
// libraries excel in different environments". We reproduce the pluggable
// surface with two real wire formats:
//   * RawBackend    — fixed-width little-endian integers (fast, larger)
//   * PackedBackend — LEB128 varint integers (slower, smaller)
// Backends control only integer encoding; floats and raw byte blobs are
// always memcpy'd. A backend is any type satisfying SerializerBackend.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"

namespace hcl::serial {

/// What a serializer backend must provide. The cursor-based put_u64 writes
/// into a caller-owned fixed buffer (the arena fast path, DESIGN.md §5i) and
/// reports overflow instead of growing; the vector overload always succeeds.
/// size_u64 is the byte count put_u64 writes for `v` (the counting archive,
/// serialize.h).
template <typename B>
concept SerializerBackend = requires(std::vector<std::byte>& out,
                                     const std::byte*& cursor,
                                     const std::byte* end, std::byte*& wcursor,
                                     std::byte* wend, std::uint64_t v) {
  { B::put_u64(out, v) } -> std::same_as<void>;
  { B::put_u64(wcursor, wend, v) } -> std::same_as<bool>;
  { B::get_u64(cursor, end) } -> std::same_as<std::uint64_t>;
  { B::size_u64(v) } -> std::same_as<std::size_t>;
  { B::name() } -> std::convertible_to<const char*>;
};

namespace detail {
[[noreturn]] inline void underflow() {
  throw HclError(Status::InvalidArgument("archive underflow: truncated input"));
}
}  // namespace detail

/// Fixed-width little-endian encoding. Words are memcpy'd as host bytes,
/// like floats, so the host must be little-endian.
static_assert(std::endian::native == std::endian::little,
              "RawBackend copies host bytes as its little-endian wire words");

struct RawBackend {
  static constexpr const char* name() noexcept { return "raw"; }

  /// One word into 8 bytes the caller has already made room for — the
  /// unchecked step of the one-pass scalar-sequence path (serialize.h).
  static void store(std::byte* at, std::uint64_t v) noexcept {
    std::memcpy(at, &v, 8);
  }

  /// One word out of 8 bytes the caller has already bounds-checked.
  static std::uint64_t load(const std::byte* at) noexcept {
    std::uint64_t v;
    std::memcpy(&v, at, 8);
    return v;
  }

  static constexpr std::size_t size_u64(std::uint64_t) noexcept { return 8; }

  static void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
    std::byte b[8];
    store(b, v);
    out.insert(out.end(), b, b + 8);
  }

  static bool put_u64(std::byte*& cursor, std::byte* end, std::uint64_t v) {
    if (end - cursor < 8) return false;
    store(cursor, v);
    cursor += 8;
    return true;
  }

  static std::uint64_t get_u64(const std::byte*& cursor, const std::byte* end) {
    if (end - cursor < 8) detail::underflow();
    const std::uint64_t v = load(cursor);
    cursor += 8;
    return v;
  }
};

/// LEB128 varint encoding (msgpack-spirited compact integers).
struct PackedBackend {
  static constexpr const char* name() noexcept { return "packed"; }

  /// One byte per started 7-bit group; 0 still takes one byte.
  static constexpr std::size_t size_u64(std::uint64_t v) noexcept {
    return v == 0 ? 1 : static_cast<std::size_t>(std::bit_width(v) + 6) / 7;
  }

  static void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    out.push_back(static_cast<std::byte>(v));
  }

  static bool put_u64(std::byte*& cursor, std::byte* end, std::uint64_t v) {
    std::byte buf[10];
    int n = 0;
    while (v >= 0x80) {
      buf[n++] = static_cast<std::byte>((v & 0x7F) | 0x80);
      v >>= 7;
    }
    buf[n++] = static_cast<std::byte>(v);
    if (end - cursor < n) return false;
    std::memcpy(cursor, buf, static_cast<std::size_t>(n));
    cursor += n;
    return true;
  }

  static std::uint64_t get_u64(const std::byte*& cursor, const std::byte* end) {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (cursor >= end) detail::underflow();
      const auto b = std::to_integer<std::uint8_t>(*cursor++);
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
      if (shift >= 64) {
        throw HclError(Status::InvalidArgument("varint too long"));
      }
    }
    return v;
  }
};

static_assert(SerializerBackend<RawBackend>);
static_assert(SerializerBackend<PackedBackend>);

/// ZigZag transform so small negative integers stay small under varints.
constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace hcl::serial
