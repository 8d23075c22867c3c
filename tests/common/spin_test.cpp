#include "common/spin.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

namespace hcl {
namespace {

TEST(SpinLock, MutualExclusionUnderContention) {
  SpinLock lock;
  long counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<SpinLock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(SpinLock, TryLockFailsWhenHeld) {
  SpinLock lock;
  lock.lock();
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SeqLock, ReaderSeesConsistentPair) {
  // Writer keeps the invariant a == b; readers must never observe a != b
  // after validation succeeds.
  SeqLock seq;
  std::atomic<long> a{0}, b{0};
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    for (long i = 1; i < 200'000; ++i) {
      seq.write_begin();
      a.store(i, std::memory_order_relaxed);
      b.store(i, std::memory_order_relaxed);
      seq.write_end();
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t s = seq.read_begin();
        const long ra = a.load(std::memory_order_relaxed);
        const long rb = b.load(std::memory_order_relaxed);
        if (seq.read_validate(s) && ra != rb) {
          violations.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(SeqLock, ReadBeginReturnsEvenSequence) {
  SeqLock seq;
  EXPECT_EQ(seq.read_begin() % 2, 0u);
  seq.write_begin();
  seq.write_end();
  EXPECT_EQ(seq.read_begin() % 2, 0u);
}

TEST(Backoff, PausesDoNotHang) {
  Backoff b;
  for (int i = 0; i < 50; ++i) b.pause();
  b.reset();
  b.pause();
  SUCCEED();
}

}  // namespace
}  // namespace hcl
