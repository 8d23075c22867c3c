// core::decode_records, the one decoder of txn intent and repair blobs both
// cores call: every hostile blob — a huge record count, an unknown op code,
// any truncation, random bit flips — must end in records or
// HclError(kInvalidArgument), never a crash or an allocation the input
// cannot back.
#include "core/failover.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serial/serialize.h"

namespace hcl::core {
namespace {

/// The map's record shape: an op, a key, and a value unless it erases.
enum class Op : std::uint8_t { kInsert = 1, kUpsert = 2, kErase = 3 };

struct Record {
  Op op = Op::kUpsert;
  std::string key;
  std::vector<int> value;
};

std::vector<std::byte> encode(const std::vector<Record>& recs) {
  serial::OutArchive out;
  out.u64(recs.size());
  for (const Record& rec : recs) {
    out.u64(static_cast<std::uint64_t>(rec.op));
    serial::save(out, rec.key);
    if (rec.op != Op::kErase) serial::save(out, rec.value);
  }
  return out.take();
}

std::vector<Record> decode(std::span<const std::byte> blob) {
  return decode_records<Record>(blob, Op::kErase,
                                [](serial::InArchive& in, Op op) {
                                  Record rec;
                                  rec.op = op;
                                  serial::load(in, rec.key);
                                  if (op != Op::kErase) {
                                    serial::load(in, rec.value);
                                  }
                                  return rec;
                                });
}

/// Decode `blob`; true when it decoded, false on kInvalidArgument (any
/// other outcome fails the test).
bool decodes(std::span<const std::byte> blob) {
  try {
    (void)decode(blob);
    return true;
  } catch (const HclError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument) << e.what();
    return false;
  }
}

std::vector<Record> sample() {
  return {{Op::kInsert, "alpha", {1, 2, 3}},
          {Op::kErase, "beta", {}},
          {Op::kUpsert, "gamma", {-7}}};
}

void put_u64(std::vector<std::byte>& blob, std::size_t at, std::uint64_t v) {
  serial::RawBackend::store(blob.data() + at, v);
}

TEST(IntentDecode, RoundTripsARealBlob) {
  const auto recs = decode(encode(sample()));
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].op, Op::kInsert);
  EXPECT_EQ(recs[0].value, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(recs[1].op, Op::kErase);
  EXPECT_EQ(recs[1].key, "beta");
  EXPECT_EQ(recs[2].value, std::vector<int>{-7});
  EXPECT_TRUE(decode(encode({})).empty());
}

TEST(IntentDecode, HugeCountIsRefusedBeforeAllocating) {
  for (const std::uint64_t count :
       {std::uint64_t{4}, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    auto blob = encode(sample());
    put_u64(blob, 0, count);
    EXPECT_FALSE(decodes(blob)) << count;
  }
}

TEST(IntentDecode, UnknownOpIsRefused) {
  for (const std::uint64_t code :
       {std::uint64_t{0}, std::uint64_t{4}, std::uint64_t{1} << 63}) {
    auto blob = encode(sample());
    put_u64(blob, 8, code);  // the first record's op code
    EXPECT_FALSE(decodes(blob)) << code;
  }
}

TEST(IntentDecode, EveryTruncationIsRefused) {
  const auto blob = encode(sample());
  for (std::size_t n = 0; n < blob.size(); ++n) {
    EXPECT_FALSE(decodes(std::span<const std::byte>(blob.data(), n))) << n;
  }
}

TEST(IntentDecode, SeededBitFlipsEndInRecordsOrInvalidArgument) {
  Rng rng(21);
  const auto good = encode(sample());
  for (int round = 0; round < 500; ++round) {
    auto bad = good;
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < flips; ++i) {
      const auto bit = rng.next_below(bad.size() * 8);
      bad[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
    (void)decodes(bad);
  }
}

}  // namespace
}  // namespace hcl::core
