// core::decode_records, the one decoder of txn intent and repair blobs, over
// both cores' real record shapes (core/failover.h): every hostile blob — a
// huge record count, an unknown op code, any truncation, random bit flips —
// must end in records or HclError(kInvalidArgument), never a crash or an
// allocation the input cannot back.
#include "core/failover.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hcl.h"
#include "serial/serialize.h"

namespace hcl::core {
namespace {

/// The map's shape: an op, a key, and a value unless it erases.
using MapRecord = unordered_map<std::string, std::vector<int>>::Record;
using MapOp = MapRecord::op_type;
/// The queue's shape: an op, and a value when it pushes.
using QueueRecord = queue<std::vector<int>>::Record;
using QueueOp = QueueRecord::op_type;

/// The blob bytes decode_records reads, as core::RecordBlob writes them
/// into a request.
template <typename Rec>
std::vector<std::byte> encode(const std::vector<Rec>& recs) {
  return serial::unpack<std::vector<std::byte>>(
      serial::pack(core::record_blob(recs)));
}

/// Decode `blob` in shape Rec; true when it decoded, false on
/// kInvalidArgument (any other outcome fails the test).
template <typename Rec>
bool decodes(std::span<const std::byte> blob) {
  try {
    (void)decode_records<Rec>(blob);
    return true;
  } catch (const HclError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument) << e.what();
    return false;
  }
}

std::vector<MapRecord> map_sample() {
  const std::vector<int> one{1, 2, 3};
  const std::vector<int> three{-7};
  return {MapRecord(MapOp::kInsert, "alpha", &one),
          MapRecord(MapOp::kErase, "beta", nullptr),
          MapRecord(MapOp::kUpsert, "gamma", &three)};
}

std::vector<QueueRecord> queue_sample() {
  const std::vector<int> pushed{4, 5};
  return {QueueRecord(QueueOp::kPush, {}, &pushed),
          QueueRecord(QueueOp::kPop, {}, nullptr),
          QueueRecord(QueueOp::kPush, {}, &pushed)};
}

/// Run `check(blob, decodes)` over both shapes' sample blobs.
template <typename Check>
void for_each_shape(Check&& check) {
  check(encode(map_sample()), &decodes<MapRecord>);
  check(encode(queue_sample()), &decodes<QueueRecord>);
}

void put_u64(std::vector<std::byte>& blob, std::size_t at, std::uint64_t v) {
  serial::RawBackend::store(blob.data() + at, v);
}

TEST(IntentDecode, RoundTripsARealBlob) {
  const auto recs = decode_records<MapRecord>(encode(map_sample()));
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].op, MapOp::kInsert);
  EXPECT_EQ(recs[0].value, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(recs[1].op, MapOp::kErase);
  EXPECT_EQ(recs[1].key, "beta");
  EXPECT_EQ(recs[2].value, std::vector<int>{-7});
  EXPECT_TRUE(decode_records<MapRecord>(encode<MapRecord>({})).empty());

  const auto queued = decode_records<QueueRecord>(encode(queue_sample()));
  ASSERT_EQ(queued.size(), 3u);
  EXPECT_EQ(queued[0].op, QueueOp::kPush);
  EXPECT_EQ(queued[0].value, (std::vector<int>{4, 5}));
  EXPECT_EQ(queued[1].op, QueueOp::kPop);
  EXPECT_TRUE(queued[1].value.empty());
  EXPECT_EQ(queued[2].value, (std::vector<int>{4, 5}));
}

TEST(IntentDecode, HugeCountIsRefusedBeforeAllocating) {
  for_each_shape([](std::vector<std::byte> blob, auto decodes) {
    for (const std::uint64_t count :
         {std::uint64_t{4}, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
      put_u64(blob, 0, count);
      EXPECT_FALSE(decodes(blob)) << count;
    }
  });
}

TEST(IntentDecode, UnknownOpIsRefused) {
  // Op 0, the code past each shape's last op, and a huge code.
  for (const std::uint64_t code :
       {std::uint64_t{0}, std::uint64_t{4}, std::uint64_t{1} << 63}) {
    auto blob = encode(map_sample());
    put_u64(blob, 8, code);  // the first record's op code
    EXPECT_FALSE(decodes<MapRecord>(blob)) << code;
  }
  for (const std::uint64_t code :
       {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{1} << 63}) {
    auto blob = encode(queue_sample());
    put_u64(blob, 8, code);
    EXPECT_FALSE(decodes<QueueRecord>(blob)) << code;
  }
}

TEST(IntentDecode, EveryTruncationIsRefused) {
  for_each_shape([](const std::vector<std::byte>& blob, auto decodes) {
    for (std::size_t n = 0; n < blob.size(); ++n) {
      EXPECT_FALSE(decodes(std::span<const std::byte>(blob.data(), n))) << n;
    }
  });
}

TEST(IntentDecode, SeededBitFlipsEndInRecordsOrInvalidArgument) {
  Rng rng(21);
  for_each_shape([&](const std::vector<std::byte>& good, auto decodes) {
    for (int round = 0; round < 500; ++round) {
      auto bad = good;
      const auto flips = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const auto bit = rng.next_below(bad.size() * 8);
        bad[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      }
      (void)decodes(bad);
    }
  });
}

}  // namespace
}  // namespace hcl::core
