// serial::packed_size counts the bytes save() would write through a
// size-only archive (BasicSizeArchive): the same dispatch, nothing stored.
// The count must equal pack(v).size() for every type the dispatch handles,
// under both backends — the fabric charges wire time from it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "core/failover.h"
#include "serial/databox.h"

namespace hcl::serial {
namespace {

enum class Color : std::uint8_t { kRed = 1, kBlue = 200 };
enum class Wide : std::int64_t { kLow = -5, kHigh = 1LL << 40 };

struct Fixed {
  std::int32_t a;
  double b;
  std::uint16_t c;
};

/// A type with its own wire format (a member serialize).
struct Custom {
  std::uint64_t id = 0;
  std::string name;
  std::vector<std::int32_t> values;

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & id & name & values;
  }
};

template <typename T>
void expect_sizes(const T& v) {
  EXPECT_EQ((packed_size<T, RawBackend>(v)), (pack<T, RawBackend>(v).size()));
  EXPECT_EQ((packed_size<T, PackedBackend>(v)),
            (pack<T, PackedBackend>(v).size()));
}

TEST(PackedSize, Scalars) {
  for (const std::uint64_t u :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 35, std::numeric_limits<std::uint64_t>::max()}) {
    expect_sizes(u);
    expect_sizes(static_cast<std::uint32_t>(u));
    expect_sizes(static_cast<std::int64_t>(u));
    expect_sizes(-static_cast<std::int64_t>(u >> 1));
  }
  expect_sizes(true);
  expect_sizes(false);
  expect_sizes(3.5);
  expect_sizes(2.25f);
  expect_sizes(static_cast<std::int8_t>(-3));
}

TEST(PackedSize, Enums) {
  expect_sizes(Color::kRed);
  expect_sizes(Color::kBlue);
  expect_sizes(Wide::kLow);
  expect_sizes(Wide::kHigh);
}

TEST(PackedSize, Strings) {
  expect_sizes(std::string());
  expect_sizes(std::string("variable-length payload"));
  expect_sizes(std::string(300, 'x'));
  expect_sizes(std::u16string(u"wide"));
}

TEST(PackedSize, WordVectors) {
  expect_sizes(std::vector<std::uint64_t>{});
  expect_sizes(std::vector<std::uint64_t>{0, 1, 200, 1ULL << 50});
  expect_sizes(std::vector<std::int32_t>{-1, 0, 70000});
  expect_sizes(std::vector<Color>{Color::kRed, Color::kBlue});
  expect_sizes(std::vector<std::byte>(130, std::byte{0xAB}));
  expect_sizes(std::vector<bool>{true, false, true});
}

TEST(PackedSize, FixedSizeStructs) {
  expect_sizes(Fixed{1, 2.0, 3});
  expect_sizes(std::vector<Fixed>(5, Fixed{-1, 0.5, 9}));
  expect_sizes(std::array<std::uint32_t, 4>{1, 300, 70000, 0});
}

TEST(PackedSize, NestedContainers) {
  expect_sizes(std::vector<std::vector<std::uint64_t>>{{1, 2}, {}, {1ULL << 60}});
  expect_sizes(std::map<std::string, std::vector<std::int32_t>>{
      {"a", {1, -2, 300}}, {"bb", {}}});
  expect_sizes(std::unordered_map<std::uint32_t, std::string>{{7, "seven"}});
}

TEST(PackedSize, OptionalVariantPairTuple) {
  expect_sizes(std::optional<std::uint64_t>{});
  expect_sizes(std::optional<std::uint64_t>{1ULL << 20});
  expect_sizes(std::variant<std::int32_t, std::string>{std::string("alt")});
  expect_sizes(std::variant<std::int32_t, std::string>{-400});
  expect_sizes(std::pair<std::uint16_t, std::string>{500, "p"});
  expect_sizes(std::tuple<std::uint8_t, double, std::vector<std::int64_t>>{
      9, 1.5, {-1, 1LL << 33}});
}

TEST(PackedSize, MemberSerialize) {
  expect_sizes(Custom{});
  expect_sizes(Custom{1ULL << 40, "custom", {1, -1, 100000}});
  expect_sizes(std::vector<Custom>{Custom{3, "x", {}}, Custom{}});
}

/// A txn intent blob (core::RecordBlob): its counting pass counts the
/// records without encoding them, and must agree with the encoding.
TEST(PackedSize, RecordBlob) {
  enum class Op : std::uint8_t { kPut = 1, kDrop = 2 };
  using Keyed = core::Record<Op, Op::kDrop, Op::kDrop, std::string, Custom>;
  using Keyless = core::Record<Op, Op::kDrop, Op::kDrop, core::NoKey,
                               std::vector<std::int64_t>>;
  const Custom value{9, "value", {1, -300}};
  const std::vector<std::int64_t> words{-1, 1LL << 40};
  expect_sizes(core::record_blob(std::vector<Keyed>{}));
  expect_sizes(core::record_blob(std::vector<Keyed>{
      Keyed(Op::kPut, "k", &value), Keyed(Op::kDrop, std::string(200, 'x'),
                                          nullptr)}));
  expect_sizes(core::record_blob(std::vector<Keyless>{
      Keyless(Op::kPut, {}, &words), Keyless(Op::kDrop, {}, nullptr)}));
}

TEST(PackedSize, DataBoxAgrees) {
  const DataBox<Custom, PackedBackend> box(Custom{77, "box", {5}});
  EXPECT_EQ(box.packed_size(), box.to_bytes().size());
}

/// A word whose varint width is spread over 1..10 bytes.
std::uint64_t spread_word(Rng& rng) {
  return rng.next() >> rng.next_below(64);
}

using Leaf = std::tuple<std::uint32_t, std::optional<std::string>,
                        std::variant<std::int64_t, std::vector<std::uint16_t>>>;
using Nested = std::vector<std::map<std::string, std::vector<Leaf>>>;

Leaf random_leaf(Rng& rng) {
  Leaf leaf;
  std::get<0>(leaf) = static_cast<std::uint32_t>(spread_word(rng));
  if (rng.next_below(2) == 0) {
    std::get<1>(leaf) = rng.next_string(rng.next_below(20));
  }
  if (rng.next_below(2) == 0) {
    std::get<2>(leaf) = -static_cast<std::int64_t>(spread_word(rng) >> 1);
  } else {
    std::vector<std::uint16_t> v(rng.next_below(6));
    for (auto& e : v) e = static_cast<std::uint16_t>(spread_word(rng));
    std::get<2>(leaf) = std::move(v);
  }
  return leaf;
}

TEST(PackedSize, SeededNestedSweep) {
  Rng rng(1510);
  for (int round = 0; round < 200; ++round) {
    Nested value(rng.next_below(4));
    for (auto& m : value) {
      const auto keys = rng.next_below(4);
      for (std::uint64_t k = 0; k < keys; ++k) {
        auto& leaves = m[rng.next_string(1 + rng.next_below(8))];
        leaves.resize(rng.next_below(4));
        for (auto& leaf : leaves) leaf = random_leaf(rng);
      }
    }
    expect_sizes(value);
    std::vector<std::uint64_t> words(rng.next_below(16));
    for (auto& w : words) w = spread_word(rng);
    expect_sizes(words);
    expect_sizes(std::make_pair(spread_word(rng), words));
  }
}

}  // namespace
}  // namespace hcl::serial
