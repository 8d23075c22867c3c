#include "memory/segment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <vector>

#include "core/persist_log.h"

namespace hcl::mem {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Segment, HeapSegmentChargesBudget) {
  NodeMemory node(0, 1 << 20);
  auto s = Segment::create(node, 4096);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(node.used(), 4096);
  EXPECT_TRUE(s->valid());
  EXPECT_FALSE(s->persistent());
}

TEST(Segment, ZeroInitialized) {
  NodeMemory node(0, 1 << 20);
  auto s = Segment::create(node, 256);
  ASSERT_TRUE(s.ok());
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(s->data()[i], std::byte{0});
}

TEST(Segment, DestructorReleasesBudget) {
  NodeMemory node(0, 1 << 20);
  {
    auto s = Segment::create(node, 4096);
    ASSERT_TRUE(s.ok());
  }
  EXPECT_EQ(node.used(), 0);
}

TEST(Segment, CreateFailsOverBudget) {
  NodeMemory node(0, 100);
  auto s = Segment::create(node, 4096);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(node.used(), 0);
}

TEST(Segment, ResizeGrowPreservesData) {
  NodeMemory node(0, 1 << 20);
  auto s = Segment::create(node, 16);
  ASSERT_TRUE(s.ok());
  std::memcpy(s->data(), "abcdefghijklmnop", 16);
  ASSERT_TRUE(s->resize(1024).ok());
  EXPECT_EQ(std::memcmp(s->data(), "abcdefghijklmnop", 16), 0);
  EXPECT_EQ(node.used(), 1024);
  // Grown tail is zeroed.
  EXPECT_EQ(s->data()[1023], std::byte{0});
}

TEST(Segment, ResizeShrinkReleasesBudget) {
  NodeMemory node(0, 1 << 20);
  auto s = Segment::create(node, 1024);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(s->resize(256).ok());
  EXPECT_EQ(node.used(), 256);
  EXPECT_EQ(s->size(), 256u);
}

TEST(Segment, ResizeFailsOverBudgetWithoutSideEffects) {
  NodeMemory node(0, 1'000);
  auto s = Segment::create(node, 500);
  ASSERT_TRUE(s.ok());
  Status st = s->resize(2'000);
  EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(s->size(), 500u);
  EXPECT_EQ(node.used(), 500);
}

TEST(Segment, CheckRange) {
  NodeMemory node(0, 1 << 20);
  auto s = Segment::create(node, 100);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->check_range(0, 100).ok());
  EXPECT_TRUE(s->check_range(90, 10).ok());
  EXPECT_FALSE(s->check_range(90, 11).ok());
  EXPECT_FALSE(s->check_range(~std::size_t{0}, 2).ok());  // overflow guard
}

TEST(Segment, PersistentSegmentWritesThroughFile) {
  NodeMemory node(0, 1 << 20);
  const auto path = temp_path("hcl_seg_persist.bin");
  {
    auto s = Segment::create_persistent(node, 128, path, SyncMode::kPerOp);
    ASSERT_TRUE(s.ok()) << s.status().to_string();
    EXPECT_TRUE(s->persistent());
    std::memcpy(s->data(), "durable", 7);
    EXPECT_TRUE(s->sync_after_write().ok());
  }
  auto reopened = Segment::create_persistent(node, 128, path, SyncMode::kRelaxed);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(std::memcmp(reopened->data(), "durable", 7), 0);
  reopened = Segment();  // close before unlink
  std::filesystem::remove(path);
}

TEST(Segment, SyncAfterWriteIsNoOpForRelaxedAndVolatile) {
  NodeMemory node(0, 1 << 20);
  auto heap = Segment::create(node, 64);
  ASSERT_TRUE(heap.ok());
  EXPECT_TRUE(heap->sync_after_write().ok());

  const auto path = temp_path("hcl_seg_relaxed.bin");
  auto relaxed = Segment::create_persistent(node, 64, path, SyncMode::kRelaxed);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_TRUE(relaxed->sync_after_write().ok());  // defers to background
  EXPECT_TRUE(relaxed->sync().ok());              // explicit flush works
  relaxed = Segment();
  std::filesystem::remove(path);
}

TEST(Segment, MoveTransfersBudgetOwnership) {
  NodeMemory node(0, 1 << 20);
  auto s = Segment::create(node, 512);
  ASSERT_TRUE(s.ok());
  Segment t = std::move(s.value());
  EXPECT_EQ(node.used(), 512);
  t = Segment();
  EXPECT_EQ(node.used(), 0);
}

TEST(Segment, ReopenedPersistentSegmentChargesWholeFile) {
  NodeMemory node(0, 1 << 20);
  const auto path = temp_path("hcl_seg_reopen_grown.bin");
  std::filesystem::remove(path);
  {
    auto s = Segment::create_persistent(node, 64, path, SyncMode::kPerOp);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(s->resize(4096).ok());
  }
  EXPECT_EQ(node.used(), 0);
  {
    auto s = Segment::create_persistent(node, 64, path, SyncMode::kPerOp);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->size(), 4096u);
    EXPECT_EQ(node.used(), 4096);
  }
  EXPECT_EQ(node.used(), 0);
  NodeMemory tight(1, 1024);  // the grown file no longer fits this budget
  auto refused = Segment::create_persistent(tight, 64, path, SyncMode::kPerOp);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(tight.used(), 0);
  std::filesystem::remove(path);
}

TEST(PersistLog, JournalPastFirstMiBRecoversEveryRecordAfterReopen) {
  // Regression: reopening used to truncate the journal file back to the
  // log's 1 MiB initial size, dropping every record past it.
  NodeMemory node(0, std::int64_t{64} << 20);
  const auto path = temp_path("hcl_persist_log_grown.bin");
  std::filesystem::remove(path);
  constexpr int kRecords = 3'000;
  std::vector<std::byte> payload(1'000);
  std::size_t logged = 0;
  {
    auto log = core::PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(log.ok()) << log.status().to_string();
    for (int i = 0; i < kRecords; ++i) {
      std::memcpy(payload.data(), &i, sizeof(i));
      ASSERT_TRUE((*log)->append(payload).ok());
    }
    ASSERT_TRUE((*log)->sync().ok());
    logged = (*log)->bytes_logged();
    ASSERT_GT(logged, std::size_t{1} << 20);
  }
  {
    auto log = core::PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(log.ok()) << log.status().to_string();
    EXPECT_EQ((*log)->bytes_logged(), logged);
    int seen = 0;
    (*log)->replay([&](std::span<const std::byte> rec) {
      ASSERT_EQ(rec.size(), payload.size());
      int id = -1;
      std::memcpy(&id, rec.data(), sizeof(id));
      EXPECT_EQ(id, seen);
      ++seen;
    });
    EXPECT_EQ(seen, kRecords);
  }  // unmap before unlink
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace hcl::mem
