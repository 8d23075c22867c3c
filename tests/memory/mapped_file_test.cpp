#include "memory/mapped_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

namespace hcl::mem {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class MappedFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : cleanup_) std::filesystem::remove(p);
  }
  std::string track(const std::string& p) {
    cleanup_.push_back(p);
    return p;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(MappedFileTest, CreatesAndMaps) {
  auto path = track(temp_path("hcl_mf_create.bin"));
  auto f = MappedFile::open(path, 4096);
  ASSERT_TRUE(f.ok()) << f.status().to_string();
  EXPECT_EQ(f->size(), 4096u);
  EXPECT_TRUE(f->is_open());
  EXPECT_EQ(std::filesystem::file_size(path), 4096u);
}

TEST_F(MappedFileTest, WritesPersistAfterSync) {
  auto path = track(temp_path("hcl_mf_persist.bin"));
  {
    auto f = MappedFile::open(path, 64);
    ASSERT_TRUE(f.ok());
    std::memcpy(f->data(), "hello durable world", 19);
    ASSERT_TRUE(f->sync(0, f->size(), true).ok());
  }  // destructor unmaps
  std::ifstream in(path, std::ios::binary);
  char buf[19] = {};
  in.read(buf, 19);
  EXPECT_EQ(std::string(buf, 19), "hello durable world");
}

TEST_F(MappedFileTest, ReopenSeesPreviousContents) {
  auto path = track(temp_path("hcl_mf_reopen.bin"));
  {
    auto f = MappedFile::open(path, 32);
    ASSERT_TRUE(f.ok());
    f->data()[0] = std::byte{0xAB};
    ASSERT_TRUE(f->sync(0, f->size()).ok());
  }
  auto g = MappedFile::open(path, 32);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->data()[0], std::byte{0xAB});
}

TEST_F(MappedFileTest, ReopenSmallerMapsWholeFile) {
  // A file that grew past its initial size must not be truncated back to it
  // on reopen.
  auto path = track(temp_path("hcl_mf_reopen_grown.bin"));
  {
    auto f = MappedFile::open(path, 16);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f->resize(8192).ok());
    f->data()[8191] = std::byte{0x5A};
    ASSERT_TRUE(f->sync(0, f->size()).ok());
  }
  auto g = MappedFile::open(path, 16);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->size(), 8192u);
  EXPECT_EQ(std::filesystem::file_size(path), 8192u);
  EXPECT_EQ(g->data()[8191], std::byte{0x5A});
}

TEST_F(MappedFileTest, ResizeGrowsPreservingContents) {
  auto path = track(temp_path("hcl_mf_grow.bin"));
  auto f = MappedFile::open(path, 16);
  ASSERT_TRUE(f.ok());
  std::memcpy(f->data(), "0123456789abcdef", 16);
  ASSERT_TRUE(f->resize(4096).ok());
  EXPECT_EQ(f->size(), 4096u);
  EXPECT_EQ(std::memcmp(f->data(), "0123456789abcdef", 16), 0);
  // New region must be usable.
  f->data()[4095] = std::byte{0x7F};
  EXPECT_TRUE(f->sync(0, f->size()).ok());
}

TEST_F(MappedFileTest, MoveTransfersOwnership) {
  auto path = track(temp_path("hcl_mf_move.bin"));
  auto f = MappedFile::open(path, 64);
  ASSERT_TRUE(f.ok());
  MappedFile g = std::move(f.value());
  EXPECT_TRUE(g.is_open());
  EXPECT_EQ(g.size(), 64u);
}

TEST_F(MappedFileTest, AsyncSyncAlsoReachesDisk) {
  auto path = track(temp_path("hcl_mf_async.bin"));
  auto f = MappedFile::open(path, 64);
  ASSERT_TRUE(f.ok());
  std::memset(f->data(), 0x42, 64);
  EXPECT_TRUE(f->sync(0, f->size(), false).ok());  // MS_ASYNC: must not fail
}

TEST_F(MappedFileTest, OpenFailsOnBadPath) {
  auto f = MappedFile::open("/nonexistent-dir-zzz/file.bin", 64);
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInternal);
}

TEST_F(MappedFileTest, SyncOnClosedFails) {
  MappedFile f;
  EXPECT_EQ(f.sync(0, 0).code(), StatusCode::kInvalidArgument);
}

TEST_F(MappedFileTest, SyncCoversARangeAndRefusesOneOutsideTheMapping) {
  auto path = track(temp_path("hcl_mf_range.bin"));
  auto f = MappedFile::open(path, 8192);
  ASSERT_TRUE(f.ok());
  std::memset(f->data() + 4000, 0x33, 200);
  EXPECT_TRUE(f->sync(4000, 200).ok());  // unaligned, across a page edge
  EXPECT_TRUE(f->sync(8192, 0).ok());    // empty, at the end
  EXPECT_EQ(f->sync(8192, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(f->sync(0, 8193).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(f->sync(8193, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(f->sync(~std::size_t{0}, 2).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hcl::mem
