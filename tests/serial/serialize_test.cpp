#include "serial/serialize.h"

#include <gtest/gtest.h>

#include "serial/arena.h"

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <variant>
#include <vector>

namespace hcl::serial {
namespace {

template <typename T, SerializerBackend B = RawBackend>
T round_trip(const T& v) {
  auto bytes = pack<T, B>(v);
  return unpack<T, B>(std::span<const std::byte>(bytes));
}

TEST(Serialize, Integers) {
  EXPECT_EQ(round_trip<int>(42), 42);
  EXPECT_EQ(round_trip<int>(-42), -42);
  EXPECT_EQ(round_trip<std::int64_t>(INT64_MIN), INT64_MIN);
  EXPECT_EQ(round_trip<std::int64_t>(INT64_MAX), INT64_MAX);
  EXPECT_EQ(round_trip<std::uint64_t>(~0ULL), ~0ULL);
  EXPECT_EQ(round_trip<std::uint8_t>(255), 255);
  EXPECT_EQ(round_trip<char>('x'), 'x');
}

TEST(Serialize, Bool) {
  EXPECT_EQ(round_trip<bool>(true), true);
  EXPECT_EQ(round_trip<bool>(false), false);
}

TEST(Serialize, Floats) {
  EXPECT_DOUBLE_EQ(round_trip<double>(3.14159), 3.14159);
  EXPECT_FLOAT_EQ(round_trip<float>(2.5f), 2.5f);
  EXPECT_DOUBLE_EQ(round_trip<double>(-0.0), -0.0);
}

enum class Color : std::uint8_t { kRed = 1, kBlue = 7 };

TEST(Serialize, Enum) {
  EXPECT_EQ(round_trip<Color>(Color::kBlue), Color::kBlue);
}

TEST(Serialize, Strings) {
  EXPECT_EQ(round_trip<std::string>(""), "");
  EXPECT_EQ(round_trip<std::string>("hello"), "hello");
  const std::string big(100'000, 'q');
  EXPECT_EQ(round_trip(big), big);
  // Embedded NULs survive.
  std::string nul("a\0b", 3);
  EXPECT_EQ(round_trip(nul), nul);
}

TEST(Serialize, VectorOfTrivial) {
  std::vector<int> v{1, -2, 3, 40'000};
  EXPECT_EQ(round_trip(v), v);
  EXPECT_EQ(round_trip(std::vector<int>{}), std::vector<int>{});
}

TEST(Serialize, VectorOfStrings) {
  std::vector<std::string> v{"a", "", "long string with spaces"};
  EXPECT_EQ(round_trip(v), v);
}

TEST(Serialize, VectorBool) {
  std::vector<bool> v{true, false, true, true};
  EXPECT_EQ(round_trip(v), v);
}

TEST(Serialize, NestedContainers) {
  std::vector<std::vector<std::string>> v{{"a", "b"}, {}, {"c"}};
  EXPECT_EQ(round_trip(v), v);
}

TEST(Serialize, PairAndTuple) {
  auto p = std::make_pair(std::string("k"), 7);
  EXPECT_EQ(round_trip(p), p);
  auto t = std::make_tuple(1, std::string("two"), 3.0);
  EXPECT_EQ(round_trip(t), t);
}

TEST(Serialize, PairOfIntsIsStructural) {
  // std::pair is never trivially copyable (user-provided operator=), so it
  // takes the structural path: two backend-encoded ints of 8 bytes each.
  auto bytes = pack(std::make_pair(1, 2));
  EXPECT_EQ(bytes.size(), 16u);
}

TEST(Serialize, Maps) {
  std::map<std::string, int> m{{"a", 1}, {"b", 2}};
  EXPECT_EQ(round_trip(m), m);
  std::unordered_map<int, std::string> u{{1, "x"}, {2, "y"}};
  EXPECT_EQ(round_trip(u), u);
}

TEST(Serialize, Sets) {
  std::set<int> s{3, 1, 2};
  EXPECT_EQ(round_trip(s), s);
  std::unordered_set<std::string> u{"p", "q"};
  EXPECT_EQ(round_trip(u), u);
}

TEST(Serialize, Optional) {
  EXPECT_EQ(round_trip(std::optional<std::string>{"v"}),
            std::optional<std::string>{"v"});
  EXPECT_EQ(round_trip(std::optional<std::string>{}),
            std::optional<std::string>{});
}

TEST(Serialize, Variant) {
  using V = std::variant<int, std::string, double>;
  EXPECT_EQ(round_trip(V{42}), V{42});
  EXPECT_EQ(round_trip(V{std::string("s")}), V{std::string("s")});
  EXPECT_EQ(round_trip(V{2.5}), V{2.5});
}

struct Pod {
  int a;
  double b;
  char c[8];
  bool operator==(const Pod&) const = default;
};
static_assert(is_byte_copyable_v<Pod>);

TEST(Serialize, PodFastPath) {
  Pod p{1, 2.5, "hi", };
  EXPECT_EQ(round_trip(p), p);
  EXPECT_EQ(pack(p).size(), sizeof(Pod));
}

struct Custom {
  int id = 0;
  std::string name;
  std::vector<double> samples;

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & id & name & samples;
  }
  bool operator==(const Custom&) const = default;
};

TEST(Serialize, CustomMemberSerialize) {
  Custom c{7, "sensor", {1.0, 2.0, 3.0}};
  EXPECT_EQ(round_trip(c), c);
}

TEST(Serialize, CustomInsideContainers) {
  std::vector<Custom> v{{1, "a", {}}, {2, "b", {9.0}}};
  EXPECT_EQ(round_trip(v), v);
  std::map<int, Custom> m{{5, {5, "e", {0.5}}}};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Serialize, PackedBackendRoundTrips) {
  Custom c{123456, "packed", {4.0}};
  EXPECT_EQ((round_trip<Custom, PackedBackend>(c)), c);
  EXPECT_EQ((round_trip<std::int64_t, PackedBackend>(-1)), -1);
  EXPECT_EQ((round_trip<std::uint64_t, PackedBackend>(~0ULL)), ~0ULL);
}

TEST(Serialize, PackedBackendIsSmallerForSmallInts) {
  const std::vector<std::uint64_t> small{1, 2, 3, 4, 5};
  // vector<uint64_t> is byte-copyable so it rides the memcpy path in both;
  // compare scalar framing instead.
  EXPECT_LT((pack<std::uint64_t, PackedBackend>(5).size()),
            (pack<std::uint64_t, RawBackend>(5).size()));
  (void)small;
}

struct Empty {
  friend bool operator==(const Empty&, const Empty&) { return true; }
};

TEST(Serialize, EmptyTypesAreZeroBytes) {
  EXPECT_EQ(pack(Empty{}).size(), 0u);
}

TEST(Serialize, EmptyTypeInTupleDoesNotClobberNeighbours) {
  // Regression: an empty element inside a tuple may share storage with a
  // real element (EBO); memcpy-deserializing it used to clobber that
  // element's bytes.
  auto t = std::make_tuple(1, 3, Empty{});
  auto bytes = pack(t);
  auto back = unpack<std::tuple<int, int, Empty>>(std::span<const std::byte>(bytes));
  EXPECT_EQ(std::get<0>(back), 1);
  EXPECT_EQ(std::get<1>(back), 3);
}

TEST(Serialize, TruncatedInputThrows) {
  auto bytes = pack(std::string("hello"));
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW(unpack<std::string>(std::span<const std::byte>(bytes)), HclError);
}

TEST(Serialize, VariantBadIndexThrows) {
  using V = std::variant<int, double>;
  OutArchive out;
  out.u64(9);  // invalid index
  auto bytes = out.take();
  EXPECT_THROW(unpack<V>(std::span<const std::byte>(bytes)), HclError);
}

TEST(Serialize, ZigZag) {
  EXPECT_EQ(zigzag_decode(zigzag_encode(0)), 0);
  EXPECT_EQ(zigzag_decode(zigzag_encode(-1)), -1);
  EXPECT_EQ(zigzag_decode(zigzag_encode(INT64_MIN)), INT64_MIN);
  EXPECT_EQ(zigzag_decode(zigzag_encode(INT64_MAX)), INT64_MAX);
  EXPECT_EQ(zigzag_encode(-1), 1u);  // small negatives stay small
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Archive, StreamOperators) {
  OutArchive out;
  out << 1 << std::string("two") << 3.5;
  InArchive in(std::span<const std::byte>(out.buffer()));
  int a;
  std::string b;
  double c;
  in >> a >> b >> c;
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, "two");
  EXPECT_DOUBLE_EQ(c, 3.5);
  EXPECT_TRUE(in.exhausted());
}

TEST(Archive, RemainingTracksCursor) {
  OutArchive out;
  out.u64(1);
  out.u64(2);
  InArchive in(std::span<const std::byte>(out.buffer()));
  EXPECT_EQ(in.remaining(), 16u);
  in.u64();
  EXPECT_EQ(in.remaining(), 8u);
}

/// Decode `T` from `bytes`, returning the StatusCode it failed with (kOk on
/// success). A std::bad_alloc escapes and fails the test.
template <typename T, SerializerBackend B = RawBackend>
StatusCode decode_code(const std::vector<std::byte>& bytes) {
  try {
    (void)unpack<T, B>(std::span<const std::byte>(bytes));
    return StatusCode::kOk;
  } catch (const HclError& e) {
    return e.code();
  }
}

TEST(BoundedDecode, HugeSequenceLengthIsInvalidArgumentNotBadAlloc) {
  OutArchive out;
  out.u64(std::uint64_t{1} << 36);  // 2^36 u64s claimed by an 8-byte buffer
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(decode_code<std::vector<std::uint64_t>>(out.buffer()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(decode_code<std::vector<std::string>>(out.buffer()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(decode_code<std::string>(out.buffer()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(decode_code<std::vector<bool>>(out.buffer()),
            StatusCode::kInvalidArgument);
}

TEST(BoundedDecode, LengthJustPastTheInputIsRejectedAndExactFitDecodes) {
  OutArchive fits;
  fits.u64(3);
  fits.raw_bytes("abc", 3);
  EXPECT_EQ(decode_code<std::string>(fits.buffer()), StatusCode::kOk);
  OutArchive lies;
  lies.u64(4);
  lies.raw_bytes("abc", 3);
  EXPECT_EQ(decode_code<std::string>(lies.buffer()),
            StatusCode::kInvalidArgument);
  // Packed varints: two one-byte u64 elements fit in two bytes.
  const std::vector<std::uint64_t> small{1, 2};
  auto packed = pack<std::vector<std::uint64_t>, PackedBackend>(small);
  EXPECT_EQ((decode_code<std::vector<std::uint64_t>, PackedBackend>(packed)),
            StatusCode::kOk);
  packed.pop_back();
  EXPECT_EQ((decode_code<std::vector<std::uint64_t>, PackedBackend>(packed)),
            StatusCode::kInvalidArgument);
}

TEST(BoundedDecode, MinWireSizeFollowsTheEncoding) {
  static_assert(min_wire_size<std::uint64_t>() == 1);
  static_assert(min_wire_size<double>() == sizeof(double));
  static_assert(min_wire_size<std::string>() == 1);
  static_assert(min_wire_size<std::pair<int, double>>() == 1 + sizeof(double));
  static_assert(min_wire_size<std::tuple<int, int, int>>() == 3);
  static_assert(min_wire_size<std::array<std::uint32_t, 4>>() == 4);
  struct Empty {};
  static_assert(min_wire_size<Empty>() == 0);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Flat (arena) archives: the zero-allocation shm fast path (DESIGN.md §5i)
// ---------------------------------------------------------------------------

TEST(FlatArchive, RoundTripsThroughCallerBuffer) {
  std::byte arena[256];
  FlatOutArchive out(arena);
  save(out, 42);
  save(out, std::string("ring"));
  save(out, std::vector<double>{1.5, 2.5});
  ASSERT_TRUE(out.ok());
  // Flat bytes are identical to the heap archive's — the reader cannot tell.
  InArchive in(out.written());
  int a;
  std::string b;
  std::vector<double> c;
  load(in, a);
  load(in, b);
  load(in, c);
  EXPECT_EQ(a, 42);
  EXPECT_EQ(b, "ring");
  EXPECT_EQ(c, (std::vector<double>{1.5, 2.5}));
  EXPECT_TRUE(in.exhausted());
}

TEST(FlatArchive, OverflowFlagsInsteadOfGrowing) {
  std::byte arena[8];
  FlatOutArchive out(arena);
  save(out, std::string("this string does not fit in eight bytes"));
  EXPECT_FALSE(out.ok());
  // Writes after overflow are swallowed; size never passes the capacity.
  save(out, 7);
  EXPECT_FALSE(out.ok());
  EXPECT_LE(out.size(), sizeof(arena));
}

TEST(FlatArchive, PackedBackendWritesVarints) {
  std::byte arena[64];
  PackedFlatOutArchive out(arena);
  out.u64(5);  // one varint byte, vs 8 fixed bytes on the raw backend
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.size(), 1u);
  PackedInArchive in(out.written());
  EXPECT_EQ(in.u64(), 5u);
}

TEST(FlatArchive, PackedPutU64BoundsChecks) {
  std::byte buf[16];
  std::byte* cursor = buf;
  EXPECT_TRUE(PackedBackend::put_u64(cursor, buf + sizeof(buf), 300));
  EXPECT_EQ(cursor - buf, 2);  // 300 needs two varint bytes
  std::byte tiny[1];
  std::byte* c2 = tiny;
  EXPECT_FALSE(PackedBackend::put_u64(c2, tiny + 1, ~0ULL));  // 10 bytes
  EXPECT_EQ(c2, tiny);  // a failed put leaves the cursor untouched
}

}  // namespace
}  // namespace hcl::serial
