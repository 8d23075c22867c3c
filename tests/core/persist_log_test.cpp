// The persist journal as its own owner: the mapped file, the node-budget
// charge for every byte of the mapping, the sync policy, and the record
// frame that stops replay at a torn append.
#include "core/persist_log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "memory/node_memory.h"

namespace hcl::core {
namespace {

using mem::NodeMemory;
using mem::SyncMode;

constexpr std::int64_t kMiB = std::int64_t{1} << 20;

/// A fresh path under the temp directory; each test names its own, since
/// ctest runs the cases in parallel processes.
std::string temp_path(const std::string& name) {
  const auto path = (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove(path);
  return path;
}

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::vector<std::string> records(const PersistLog& log) {
  std::vector<std::string> out;
  log.replay([&](std::span<const std::byte> rec) {
    out.emplace_back(reinterpret_cast<const char*>(rec.data()), rec.size());
  });
  return out;
}

TEST(PersistLog, AppendWritesThroughTheFile) {
  NodeMemory node(0, 4 * kMiB);
  const auto path = temp_path("hcl_persist_write_through.bin");
  {
    auto log = PersistLog::open(node, path, SyncMode::kPerOp);
    ASSERT_TRUE(log.ok()) << log.status().to_string();
    ASSERT_TRUE((*log)->append(bytes_of("durable")).ok());
  }
  {
    auto reopened = PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(records(**reopened), std::vector<std::string>{"durable"});
  }  // unmap before unlink
  std::filesystem::remove(path);
}

TEST(PersistLog, RelaxedAppendDefersSync) {
  NodeMemory node(0, 4 * kMiB);
  const auto path = temp_path("hcl_persist_relaxed.bin");
  {
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE((*log)->append(bytes_of("later")).ok());  // no msync
    EXPECT_TRUE((*log)->sync().ok());                     // explicit flush
  }
  std::filesystem::remove(path);
}

TEST(PersistLog, EmptyRecordIsRefused) {
  NodeMemory node(0, 4 * kMiB);
  const auto path = temp_path("hcl_persist_empty.bin");
  {
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->append({}).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ((*log)->bytes_logged(), 0u);
  }
  std::filesystem::remove(path);
}

TEST(PersistLog, OpenChargesTheInitialMapping) {
  NodeMemory node(0, 16 * kMiB);
  const auto path = temp_path("hcl_persist_open_charge.bin");
  auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(node.used(), kMiB);
  EXPECT_EQ((*log)->bytes_logged(), 0u);
  std::filesystem::remove(path);
}

TEST(PersistLog, DestructionReleasesTheWholeCharge) {
  NodeMemory node(0, 16 * kMiB);
  const auto path = temp_path("hcl_persist_release.bin");
  {
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->append(bytes_of("kept")).ok());
    EXPECT_EQ(node.used(), kMiB);
  }
  EXPECT_EQ(node.used(), 0);
  std::filesystem::remove(path);
}

TEST(PersistLog, GrowthKeepsRecordsAndChargesTheDelta) {
  NodeMemory node(0, 16 * kMiB);
  const auto path = temp_path("hcl_persist_budget.bin");
  const std::vector<std::byte> payload(1'000, std::byte{0x5a});
  int appended = 0;
  {
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(node.used(), kMiB);
    while ((*log)->bytes_logged() <= std::size_t{1} << 20) {
      ASSERT_TRUE((*log)->append(payload).ok());
      ++appended;
    }
    EXPECT_EQ(node.used(), 2 * kMiB);
  }
  EXPECT_EQ(node.used(), 0);
  {
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(node.used(), 2 * kMiB);  // the whole grown file
    EXPECT_EQ(records(**log).size(), static_cast<std::size_t>(appended));
  }
  EXPECT_EQ(node.used(), 0);
  std::filesystem::remove(path);
}

TEST(PersistLog, ReopenChargesTheWholeFile) {
  NodeMemory node(0, 16 * kMiB);
  const auto path = temp_path("hcl_persist_reopen_grown.bin");
  {
    auto log = PersistLog::open(node, path, SyncMode::kPerOp, 64);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->append(std::vector<std::byte>(3'000)).ok());
    EXPECT_EQ(node.used(), 4096);
  }
  {
    auto log = PersistLog::open(node, path, SyncMode::kPerOp, 64);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(node.used(), 4096);
  }
  EXPECT_EQ(node.used(), 0);
  NodeMemory tight(1, 1024);  // the grown file no longer fits this budget
  auto refused = PersistLog::open(tight, path, SyncMode::kPerOp, 64);
  EXPECT_EQ(refused.status().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(tight.used(), 0);
  std::filesystem::remove(path);
}

TEST(PersistLog, OpenOverBudgetChargesNothing) {
  NodeMemory node(0, kMiB - 1);
  const auto path = temp_path("hcl_persist_over_budget.bin");
  auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
  EXPECT_EQ(log.status().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(node.used(), 0);
  EXPECT_FALSE(std::filesystem::exists(path));  // refused before mapping
}

TEST(PersistLog, GrowthOverBudgetFailsTheAppendOnly) {
  NodeMemory node(0, 4096 + 1'000);
  const auto path = temp_path("hcl_persist_growth_refused.bin");
  {
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed, 4096);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->append(bytes_of("kept")).ok());
    const std::size_t logged = (*log)->bytes_logged();
    const Status st = (*log)->append(std::vector<std::byte>(5'000));
    EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
    EXPECT_EQ(node.used(), 4096);
    EXPECT_EQ((*log)->bytes_logged(), logged);
    ASSERT_TRUE((*log)->append(bytes_of("after")).ok());  // still appendable
    EXPECT_EQ(records(**log), (std::vector<std::string>{"kept", "after"}));
  }
  EXPECT_EQ(node.used(), 0);
  std::filesystem::remove(path);
}

TEST(PersistLog, MovedLogCarriesItsCharge) {
  NodeMemory node(0, 4 * kMiB);
  const auto path = temp_path("hcl_persist_moved.bin");
  auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
  ASSERT_TRUE(log.ok());
  std::unique_ptr<PersistLog> moved = std::move(log.value());
  EXPECT_EQ(node.used(), kMiB);
  moved.reset();
  EXPECT_EQ(node.used(), 0);
  std::filesystem::remove(path);
}

TEST(PersistLog, TornAppendIsNotReplayedAndIsOverwritten) {
  NodeMemory node(0, 4 * kMiB);
  const auto path = temp_path("hcl_persist_torn.bin");
  std::size_t first_end = 0;
  std::size_t second_end = 0;
  {
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->append(bytes_of("first")).ok());
    first_end = (*log)->bytes_logged();
    ASSERT_TRUE((*log)->append(bytes_of("second")).ok());
    second_end = (*log)->bytes_logged();
  }
  // Cut the second record two bytes short: its length word and checksum
  // reached the file, the end of its payload did not.
  std::filesystem::resize_file(path, second_end - 2);
  {
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(records(**log), std::vector<std::string>{"first"});
    EXPECT_EQ((*log)->bytes_logged(), first_end);
    ASSERT_TRUE((*log)->append(bytes_of("third")).ok());
  }
  {
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(records(**log), (std::vector<std::string>{"first", "third"}));
  }
  std::filesystem::remove(path);
}

TEST(PersistLog, JournalPastFirstMiBRecoversEveryRecordAfterReopen) {
  // Regression: reopening used to truncate the journal file back to the
  // log's 1 MiB initial size, dropping every record past it.
  NodeMemory node(0, 64 * kMiB);
  const auto path = temp_path("hcl_persist_log_grown.bin");
  constexpr int kRecords = 3'000;
  std::vector<std::byte> payload(1'000);
  std::size_t logged = 0;
  {
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
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
    auto log = PersistLog::open(node, path, SyncMode::kRelaxed);
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

TEST(PersistLog, PerOpAppendsPastTheFirstMiBReopenIntact) {
  // Each kPerOp append syncs its own record's bytes; records laid down after
  // the mapping grew past its first MiB must survive a reopen like the rest.
  NodeMemory node(0, 64 * kMiB);
  const auto path = temp_path("hcl_persist_log_per_op_grown.bin");
  constexpr int kRecords = 1'200;
  std::vector<std::byte> payload(1'000);
  std::size_t logged = 0;
  {
    auto log = PersistLog::open(node, path, SyncMode::kPerOp);
    ASSERT_TRUE(log.ok()) << log.status().to_string();
    for (int i = 0; i < kRecords; ++i) {
      std::memcpy(payload.data(), &i, sizeof(i));
      ASSERT_TRUE((*log)->append(payload).ok());
    }
    logged = (*log)->bytes_logged();
    ASSERT_GT(logged, std::size_t{1} << 20);
  }
  {
    auto log = PersistLog::open(node, path, SyncMode::kPerOp);
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
}  // namespace hcl::core
