// The one-pass scalar-sequence path: a std::vector of integers (not bool)
// or enums under the fixed-width backend is grown (or bounds-checked) once
// and encoded in one loop. Its bytes must equal the element-by-element
// encoding — little-endian u64 words, zigzag for signed types, the
// underlying-type value for enums — in the heap and the arena archive, and
// its decoder must turn every corrupted input into a value or an
// InvalidArgument, never a crash or an allocation the input cannot back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "serial/arena.h"
#include "serial/serialize.h"

namespace hcl::serial {
namespace {

enum class Signed : std::int16_t { kNeg = -7, kZero = 0, kPos = 300 };

/// The per-element encoding, written out by hand.
template <typename Ar, typename E>
std::vector<std::byte> reference(const std::vector<E>& v) {
  Ar ar;
  ar.u64(v.size());
  for (const E e : v) {
    if constexpr (std::is_enum_v<E>) {
      ar.u64(static_cast<std::uint64_t>(
          static_cast<std::underlying_type_t<E>>(e)));
    } else if constexpr (std::is_signed_v<E>) {
      ar.i64(static_cast<std::int64_t>(e));
    } else {
      ar.u64(static_cast<std::uint64_t>(e));
    }
  }
  return ar.take();
}

template <typename E>
void expect_matches_reference(const std::vector<E>& v) {
  const std::vector<std::byte> want = reference<OutArchive>(v);
  EXPECT_EQ(pack(v), want);

  // The arena archive writes the same bytes into an exact-fit buffer...
  std::vector<std::byte> arena(want.size());
  FlatOutArchive flat{std::span<std::byte>(arena)};
  save(flat, v);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat.size(), want.size());
  EXPECT_EQ(arena, want);
  // ...and overflows on one byte less.
  std::vector<std::byte> small(want.size() - 1);
  FlatOutArchive tight{std::span<std::byte>(small)};
  save(tight, v);
  EXPECT_FALSE(tight.ok());

  EXPECT_EQ(unpack<std::vector<E>>(std::span<const std::byte>(want)), v);
  // The varint backend keeps its element-by-element encoding.
  EXPECT_EQ((pack<std::vector<E>, PackedBackend>(v)),
            reference<PackedOutArchive>(v));
}

TEST(WordSequence, BytesEqualPerElementEncoding) {
  expect_matches_reference(std::vector<std::uint8_t>{0, 1, 127, 128, 255});
  expect_matches_reference(std::vector<std::int32_t>{
      0, -1, 1, std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max()});
  expect_matches_reference(std::vector<std::int64_t>{
      INT64_MIN, -1, 0, 1, INT64_MAX});
  expect_matches_reference(std::vector<std::uint64_t>{0, 1, 1ULL << 63, ~0ULL});
  expect_matches_reference(
      std::vector<std::byte>{std::byte{0}, std::byte{0x7f}, std::byte{0xff}});
  expect_matches_reference(
      std::vector<Signed>{Signed::kNeg, Signed::kZero, Signed::kPos});
  expect_matches_reference(std::vector<std::int64_t>{});
}

TEST(WordSequence, NestedSequencesRoundTrip) {
  // Adjacency-list shape: an outer per-element vector of word vectors.
  using AdjLists = std::vector<std::vector<std::uint64_t>>;
  const AdjLists adj{{}, {1, 2, 3}, {~0ULL}};
  const auto bytes = pack(adj);
  EXPECT_EQ(unpack<AdjLists>(std::span<const std::byte>(bytes)), adj);
}

/// Decode `bytes` as a std::vector<E>: either a value whose elements the
/// input actually holds, or InvalidArgument with nothing allocated.
template <typename E>
bool decode_is_bounded(const std::vector<std::byte>& bytes) {
  std::vector<E> out;
  InArchive in{std::span<const std::byte>(bytes)};
  try {
    load(in, out);
  } catch (const HclError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument) << e.what();
    EXPECT_EQ(out.capacity(), 0u);
    return false;
  }
  EXPECT_LE(out.capacity() * 8, bytes.size());
  return true;
}

/// Seeded mutation sweep over encoded vectors: bit flips, truncations and
/// inflated length prefixes.
template <typename E>
void mutation_sweep(std::uint64_t seed) {
  Rng rng(seed);
  for (int round = 0; round < 300; ++round) {
    std::vector<E> v(rng.next_below(24));
    for (auto& e : v) e = static_cast<E>(rng.next());
    const std::vector<std::byte> good = pack(v);
    std::vector<std::byte> bad = good;
    switch (rng.next_below(3)) {
      case 0: {  // flip 1..3 bits anywhere
        const auto flips = 1 + rng.next_below(3);
        for (std::uint64_t i = 0; i < flips; ++i) {
          const auto bit = rng.next_below(bad.size() * 8);
          bad[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        }
        (void)decode_is_bounded<E>(bad);
        break;
      }
      case 1: {  // cut anywhere short of the end
        bad.resize(rng.next_below(bad.size()));
        EXPECT_FALSE(decode_is_bounded<E>(bad));
        break;
      }
      default: {  // claim more elements than the input holds
        // The second claim passes load_count's one-byte-per-element bound
        // but not the eight bytes each element needs.
        const std::uint64_t claims[] = {
            v.size() + 1 + rng.next_below(8),
            std::max<std::uint64_t>(1, v.size() * 8), 1ULL << 61, ~0ULL};
        const std::uint64_t n = claims[rng.next_below(4)];
        RawBackend::store(bad.data(), n);
        EXPECT_FALSE(decode_is_bounded<E>(bad));
        break;
      }
    }
  }
}

TEST(WordSequence, MutatedInputEndsInValueOrInvalidArgument) {
  mutation_sweep<std::uint8_t>(11);
  mutation_sweep<std::int32_t>(12);
  mutation_sweep<std::int64_t>(13);
  mutation_sweep<std::uint64_t>(14);
  mutation_sweep<std::byte>(15);
  mutation_sweep<Signed>(16);
}

}  // namespace
}  // namespace hcl::serial
