// Serialization dispatch: how a value of any supported type becomes bytes.
//
// Resolution order (paper §III.C.2 semantics):
//   1. user-defined symmetric `serialize(Ar&)` member — custom data types,
//   2. arithmetic / enum scalars — backend integer encoding,
//   3. byte-copyable types — single memcpy ("DataBoxes do not use
//      serialization for simple byte-copyable data types"),
//   4. STL containers — recursive structural encoding ("HCL provides native
//      support for standard STL containers"),
//   5. anything else — compile error pointing at the customization point.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "serial/archive.h"

namespace hcl::serial {

// ---------------------------------------------------------------------------
// Type traits
// ---------------------------------------------------------------------------

template <typename T, template <typename...> class Tmpl>
inline constexpr bool is_spec_v = false;
template <template <typename...> class Tmpl, typename... Args>
inline constexpr bool is_spec_v<Tmpl<Args...>, Tmpl> = true;

template <typename T>
inline constexpr bool is_std_array_v = false;
template <typename T, std::size_t N>
inline constexpr bool is_std_array_v<std::array<T, N>> = true;

/// The byte-copyable fast path: raw memcpy is a valid representation.
/// Pointers are excluded — they are exactly the thing the paper says "do not
/// carry a meaningful interpretation outside the scope of the source
/// process".
template <typename T>
inline constexpr bool is_byte_copyable_v =
    std::is_trivially_copyable_v<T> && !std::is_pointer_v<T> &&
    !std::is_member_pointer_v<T>;

template <typename T, typename Ar>
concept HasMemberSerialize = requires(T& t, Ar& ar) {
  { t.serialize(ar) };
};

/// True when raw memcpy is the representation the dispatch will actually
/// choose: byte-copyable AND no custom serialize member (a type can be
/// trivially copyable yet define its own wire format — e.g. a payload whose
/// nominal size differs from its footprint).
template <typename T>
inline constexpr bool is_memcpy_serialized_v =
    is_byte_copyable_v<T> && !HasMemberSerialize<T, BasicOutArchive<RawBackend>>;

template <typename T>
inline constexpr bool is_string_v =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::u16string> ||
    std::is_same_v<T, std::u32string> || std::is_same_v<T, std::wstring>;

template <typename T>
inline constexpr bool is_sequence_v =
    is_spec_v<T, std::vector> || is_spec_v<T, std::deque>;

template <typename T>
inline constexpr bool is_map_like_v =
    is_spec_v<T, std::map> || is_spec_v<T, std::unordered_map> ||
    is_spec_v<T, std::multimap> || is_spec_v<T, std::unordered_multimap>;

template <typename T>
inline constexpr bool is_set_like_v =
    is_spec_v<T, std::set> || is_spec_v<T, std::unordered_set> ||
    is_spec_v<T, std::multiset> || is_spec_v<T, std::unordered_multiset>;

template <typename>
inline constexpr bool dependent_false_v = false;

/// Integers (not bool) and enums: scalars every backend encodes as one
/// 64-bit word — zigzag for signed integers, the underlying-type value for
/// enums. to_word/from_word are that mapping, shared by the scalar branches
/// and the one-pass sequence path below.
template <typename T>
inline constexpr bool is_word_scalar_v =
    std::is_enum_v<T> || (std::is_integral_v<T> && !std::is_same_v<T, bool>);

template <typename T>
constexpr std::uint64_t to_word(T v) noexcept {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<std::uint64_t>(
        static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_signed_v<T>) {
    return zigzag_encode(static_cast<std::int64_t>(v));
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

template <typename T>
constexpr T from_word(std::uint64_t w) noexcept {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<T>(static_cast<std::underlying_type_t<T>>(w));
  } else if constexpr (std::is_signed_v<T>) {
    return static_cast<T>(zigzag_decode(w));
  } else {
    return static_cast<T>(w);
  }
}

/// A vector of word scalars under the fixed-width backend: its elements are
/// 8-byte words back to back, so save/load reserve or bounds-check the whole
/// run once and encode it in one loop — the same bytes as element by element.
template <typename Ar, typename T>
inline constexpr bool is_word_vector_v =
    is_spec_v<T, std::vector> && is_word_scalar_v<typename T::value_type> &&
    std::is_same_v<typename Ar::backend_type, RawBackend>;

/// True when the serialized size of T is a compile-time constant equal to
/// sizeof(T) — the paper's fixed-vs-variable-length DataBox distinction,
/// "handled during the compile-time of the application". Must match the
/// dispatch below exactly: only types that reach the raw-memcpy branch
/// qualify (std templates are structural even when trivially copyable).
template <typename T>
inline constexpr bool is_std_template_v =
    is_spec_v<T, std::pair> || is_spec_v<T, std::tuple> ||
    is_spec_v<T, std::optional> || is_spec_v<T, std::variant> ||
    is_std_array_v<T>;

template <typename T>
inline constexpr bool is_fixed_wire_size_v =
    is_memcpy_serialized_v<T> && !std::is_empty_v<T> && !std::is_enum_v<T> &&
    !std::is_arithmetic_v<T> && !is_std_template_v<T>;

/// Wire size is a compile-time constant (though not necessarily sizeof(T):
/// scalars are backend-encoded). The paper's compile-time fixed/variable
/// distinction (§III.C.2).
template <typename T>
inline constexpr bool has_constant_wire_size_v =
    std::is_arithmetic_v<T> || std::is_enum_v<T> || std::is_empty_v<T> ||
    is_fixed_wire_size_v<T>;

/// Fewest bytes one serialized T occupies under any backend. load() bounds
/// a wire-supplied element count by remaining() ÷ this before allocating.
/// 0 — empty types, custom serialize members (whose encoding may be empty)
/// — leaves the count unbounded.
template <typename T>
constexpr std::size_t min_wire_size() {
  if constexpr (std::is_empty_v<T> ||
                HasMemberSerialize<T, BasicOutArchive<RawBackend>>) {
    return 0;
  } else if constexpr (is_fixed_wire_size_v<T> || std::is_floating_point_v<T>) {
    return sizeof(T);
  } else if constexpr (is_spec_v<T, std::pair>) {
    return min_wire_size<typename T::first_type>() +
           min_wire_size<typename T::second_type>();
  } else if constexpr (is_spec_v<T, std::tuple>) {
    return []<typename... Es>(std::tuple<Es...>*) {
      return (std::size_t{0} + ... + min_wire_size<Es>());
    }(static_cast<T*>(nullptr));
  } else if constexpr (is_std_array_v<T>) {
    return std::tuple_size_v<T> * min_wire_size<typename T::value_type>();
  } else {
    // Integers, enums and bools take at least one varint byte; strings,
    // containers, optionals and variants start with one.
    return 1;
  }
}

// ---------------------------------------------------------------------------
// save
// ---------------------------------------------------------------------------

/// The elements of a word-scalar sequence, without its count: under the
/// fixed-width backend claimed in one extend and stored in one loop, under
/// any other one word at a time.
template <OutputArchive Ar, typename E>
void save_word_run(Ar& ar, std::span<const E> run) {
  if constexpr (std::is_same_v<typename Ar::backend_type, RawBackend>) {
    if (std::byte* at = ar.extend(run.size() * 8)) {
      for (const E e : run) {
        RawBackend::store(at, to_word(e));
        at += 8;
      }
    }
  } else {
    for (const E e : run) ar.u64(to_word(e));
  }
}

template <OutputArchive Ar, typename T>
void save(Ar& ar, const T& v) {
  if constexpr (HasMemberSerialize<T, Ar>) {
    // Symmetric serialize: contract is "does not mutate when saving".
    const_cast<T&>(v).serialize(ar);
  } else if constexpr (std::is_empty_v<T>) {
    // Empty types carry no information and may share storage (EBO inside
    // tuples), so they must never be memcpy'd: zero bytes on the wire.
  } else if constexpr (is_word_scalar_v<T>) {
    ar.u64(to_word(v));
  } else if constexpr (std::is_same_v<T, bool>) {
    ar.u64(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, double>) {
    ar.f64(v);
  } else if constexpr (std::is_same_v<T, float>) {
    ar.f32(v);
  } else if constexpr (is_string_v<T>) {
    ar.u64(v.size());
    ar.raw_bytes(v.data(), v.size() * sizeof(typename T::value_type));
  } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
    ar.u64(v.size());
    for (bool b : v) ar.u64(b ? 1 : 0);
  } else if constexpr (is_sequence_v<T>) {
    ar.u64(v.size());
    if constexpr (is_fixed_wire_size_v<typename T::value_type> &&
                  is_spec_v<T, std::vector>) {
      ar.raw_bytes(v.data(), v.size() * sizeof(typename T::value_type));
    } else if constexpr (is_word_vector_v<Ar, T>) {
      save_word_run(ar, std::span<const typename T::value_type>(v));
    } else {
      for (const auto& e : v) save(ar, e);
    }
  } else if constexpr (is_std_array_v<T>) {
    for (const auto& e : v) save(ar, e);
  } else if constexpr (is_spec_v<T, std::pair>) {
    save(ar, v.first);
    save(ar, v.second);
  } else if constexpr (is_spec_v<T, std::tuple>) {
    std::apply([&ar](const auto&... elems) { (save(ar, elems), ...); }, v);
  } else if constexpr (is_spec_v<T, std::optional>) {
    ar.u64(v.has_value() ? 1 : 0);
    if (v.has_value()) save(ar, *v);
  } else if constexpr (is_spec_v<T, std::variant>) {
    ar.u64(v.index());
    std::visit([&ar](const auto& alt) { save(ar, alt); }, v);
  } else if constexpr (is_map_like_v<T> || is_set_like_v<T>) {
    ar.u64(v.size());
    for (const auto& e : v) {
      if constexpr (is_map_like_v<T>) {
        save(ar, e.first);
        save(ar, e.second);
      } else {
        save(ar, e);
      }
    }
  } else if constexpr (is_memcpy_serialized_v<T>) {
    ar.raw_bytes(&v, sizeof(T));  // fast path: POD structs of scalars
  } else {
    static_assert(dependent_false_v<T>,
                  "type is not serializable: add a member "
                  "`template <class Ar> void serialize(Ar&)`");
  }
}

// ---------------------------------------------------------------------------
// load
// ---------------------------------------------------------------------------

template <InputArchive Ar, typename V, std::size_t... Is>
void load_variant_alt(Ar& ar, V& v, std::size_t index,
                      std::index_sequence<Is...>);

/// A wire-supplied element count, rejected as an underflow when the input
/// left cannot hold that many elements — checked before any allocation.
template <InputArchive Ar>
std::size_t load_count(Ar& ar, std::size_t min_element_bytes) {
  const std::uint64_t n = ar.u64();
  if (min_element_bytes > 0 && n > ar.remaining() / min_element_bytes) {
    detail::underflow();
  }
  return static_cast<std::size_t>(n);
}

template <InputArchive Ar, typename T>
void load(Ar& ar, T& v) {
  if constexpr (HasMemberSerialize<T, Ar>) {
    v.serialize(ar);
  } else if constexpr (std::is_empty_v<T>) {
    // See save(): empty types occupy no wire bytes and must not be written
    // through (potential EBO aliasing).
  } else if constexpr (is_word_scalar_v<T>) {
    v = from_word<T>(ar.u64());
  } else if constexpr (std::is_same_v<T, bool>) {
    v = ar.u64() != 0;
  } else if constexpr (std::is_same_v<T, double>) {
    v = ar.f64();
  } else if constexpr (std::is_same_v<T, float>) {
    v = ar.f32();
  } else if constexpr (is_string_v<T>) {
    const auto n = load_count(ar, sizeof(typename T::value_type));
    v.resize(n);
    ar.raw_bytes(v.data(), n * sizeof(typename T::value_type));
  } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
    const auto n = load_count(ar, 1);
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = ar.u64() != 0;
  } else if constexpr (is_sequence_v<T>) {
    using E = typename T::value_type;
    const auto n = load_count(ar, min_wire_size<E>());
    if constexpr (is_word_vector_v<Ar, T>) {
      // All n words are bounds-checked before the vector is sized.
      const std::byte* at = ar.consume(n * 8);
      v.resize(n);
      for (auto& e : v) {
        e = from_word<E>(RawBackend::load(at));
        at += 8;
      }
    } else {
      v.resize(n);
      if constexpr (is_fixed_wire_size_v<E> && is_spec_v<T, std::vector>) {
        ar.raw_bytes(v.data(), n * sizeof(E));
      } else {
        for (auto& e : v) load(ar, e);
      }
    }
  } else if constexpr (is_std_array_v<T>) {
    for (auto& e : v) load(ar, e);
  } else if constexpr (is_spec_v<T, std::pair>) {
    load(ar, v.first);
    load(ar, v.second);
  } else if constexpr (is_spec_v<T, std::tuple>) {
    std::apply([&ar](auto&... elems) { (load(ar, elems), ...); }, v);
  } else if constexpr (is_spec_v<T, std::optional>) {
    if (ar.u64() != 0) {
      typename T::value_type inner{};
      load(ar, inner);
      v = std::move(inner);
    } else {
      v.reset();
    }
  } else if constexpr (is_spec_v<T, std::variant>) {
    const auto index = static_cast<std::size_t>(ar.u64());
    load_variant_alt(ar, v, index,
                     std::make_index_sequence<std::variant_size_v<T>>{});
  } else if constexpr (is_map_like_v<T>) {
    const auto n = static_cast<std::size_t>(ar.u64());
    v.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename T::key_type k{};
      typename T::mapped_type m{};
      load(ar, k);
      load(ar, m);
      v.emplace(std::move(k), std::move(m));
    }
  } else if constexpr (is_set_like_v<T>) {
    const auto n = static_cast<std::size_t>(ar.u64());
    v.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename T::key_type k{};
      load(ar, k);
      v.insert(std::move(k));
    }
  } else if constexpr (is_memcpy_serialized_v<T>) {
    ar.raw_bytes(&v, sizeof(T));
  } else {
    static_assert(dependent_false_v<T>,
                  "type is not deserializable: add a member "
                  "`template <class Ar> void serialize(Ar&)`");
  }
}

template <InputArchive Ar, typename V, std::size_t... Is>
void load_variant_alt(Ar& ar, V& v, std::size_t index,
                      std::index_sequence<Is...>) {
  bool matched = false;
  (([&] {
     if (Is == index) {
       std::variant_alternative_t<Is, V> alt{};
       load(ar, alt);
       v = std::move(alt);
       matched = true;
     }
   }()),
   ...);
  if (!matched) {
    throw HclError(Status::InvalidArgument("variant index out of range"));
  }
}

// ---------------------------------------------------------------------------
// Symmetric operator& (declared in archive.h)
// ---------------------------------------------------------------------------

template <SerializerBackend B>
template <typename T>
BasicOutArchive<B>& BasicOutArchive<B>::operator&(const T& v) {
  save(*this, v);
  return *this;
}

template <SerializerBackend B>
template <typename T>
BasicInArchive<B>& BasicInArchive<B>::operator&(T& v) {
  load(*this, v);
  return *this;
}

// ---------------------------------------------------------------------------
// Counting archive
// ---------------------------------------------------------------------------

/// Runs the same save() dispatch as the heap and arena archives but stores
/// nothing: every write adds its encoded length to a counter, so the count
/// equals the bytes a real archive of the same backend would hold.
template <SerializerBackend Backend = RawBackend>
class BasicSizeArchive {
 public:
  static constexpr bool is_saving = true;
  static constexpr bool is_loading = false;
  using backend_type = Backend;

  void raw_bytes(const void*, std::size_t n) noexcept { size_ += n; }
  void u64(std::uint64_t v) noexcept { size_ += Backend::size_u64(v); }
  void i64(std::int64_t v) noexcept { u64(zigzag_encode(v)); }
  /// Counts the run and returns null, so the in-place fill is skipped.
  std::byte* extend(std::size_t n) noexcept {
    size_ += n;
    return nullptr;
  }
  void f64(double) noexcept { size_ += sizeof(double); }
  void f32(float) noexcept { size_ += sizeof(float); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  template <typename T>
  BasicSizeArchive& operator&(const T& v) {
    save(*this, v);
    return *this;
  }
  template <typename T>
  BasicSizeArchive& operator<<(const T& v) {
    return *this & v;
  }

 private:
  std::size_t size_ = 0;
};

using SizeArchive = BasicSizeArchive<RawBackend>;
using PackedSizeArchive = BasicSizeArchive<PackedBackend>;

static_assert(OutputArchive<SizeArchive>);
static_assert(OutputArchive<PackedSizeArchive>);

/// Append what `write(ar)` emits to `out` with at most one growth step: a
/// counting pass over the same writer sizes the buffer first.
template <SerializerBackend B, typename Write>
void write_sized(BasicOutArchive<B>& out, const Write& write) {
  BasicSizeArchive<B> count;
  write(count);
  out.reserve_more(count.size());
  write(out);
}

// ---------------------------------------------------------------------------
// Convenience entry points
// ---------------------------------------------------------------------------

template <typename T, SerializerBackend B = RawBackend>
std::vector<std::byte> pack(const T& v) {
  BasicOutArchive<B> ar;
  save(ar, v);
  return ar.take();
}

template <typename T, SerializerBackend B = RawBackend>
T unpack(std::span<const std::byte> bytes) {
  BasicInArchive<B> ar(bytes);
  T v{};
  load(ar, v);
  return v;
}

}  // namespace hcl::serial
