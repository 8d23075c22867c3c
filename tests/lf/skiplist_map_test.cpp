#include "lf/skiplist_map.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace hcl::lf {
namespace {

TEST(SkipListMap, InsertFindBasic) {
  SkipListMap<int, std::string> map;
  EXPECT_TRUE(map.insert(5, "five"));
  EXPECT_TRUE(map.insert(1, "one"));
  EXPECT_TRUE(map.insert(9, "nine"));
  std::string v;
  EXPECT_TRUE(map.find_value(5, &v));
  EXPECT_EQ(v, "five");
  EXPECT_FALSE(map.find_value(7, &v));
  EXPECT_EQ(map.size(), 3u);
}

TEST(SkipListMap, DuplicateRejected) {
  SkipListMap<int, int> map;
  EXPECT_TRUE(map.insert(1, 10));
  EXPECT_FALSE(map.insert(1, 20));
  int v;
  map.find_value(1, &v);
  EXPECT_EQ(v, 10);
}

TEST(SkipListMap, OrderedIteration) {
  SkipListMap<int, int> map;
  const std::vector<int> keys{42, 7, 19, 3, 99, 55, 1};
  for (int k : keys) map.insert(k, k * 10);
  std::vector<int> visited;
  map.for_each([&](const int& k, const int& v) {
    visited.push_back(k);
    EXPECT_EQ(v, k * 10);
  });
  std::vector<int> expected = keys;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(visited, expected);
}

TEST(SkipListMap, EraseRemoves) {
  SkipListMap<int, int> map;
  map.insert(1, 10);
  map.insert(2, 20);
  EXPECT_TRUE(map.erase(1));
  EXPECT_FALSE(map.erase(1));
  EXPECT_FALSE(map.contains(1));
  EXPECT_TRUE(map.contains(2));
  EXPECT_EQ(map.size(), 1u);
}

TEST(SkipListMap, UpdateExisting) {
  SkipListMap<int, int> map;
  map.insert(1, 10);
  EXPECT_TRUE(map.update(1, [](int& v) { v += 5; }));
  int v;
  map.find_value(1, &v);
  EXPECT_EQ(v, 15);
  EXPECT_FALSE(map.update(99, [](int&) {}));
}

TEST(SkipListMap, UpsertInsertsThenUpdates) {
  SkipListMap<int, int> map;
  EXPECT_TRUE(map.upsert(1, [](int& v) { ++v; }, 0));   // inserted, 0 -> 1
  EXPECT_FALSE(map.upsert(1, [](int& v) { ++v; }, 0));  // updated, 1 -> 2
  int v;
  map.find_value(1, &v);
  EXPECT_EQ(v, 2);
}

TEST(SkipListMap, PopFrontReturnsMin) {
  SkipListMap<int, int> map;
  for (int k : {30, 10, 20}) map.insert(k, k);
  int key = 0, value = 0;
  EXPECT_TRUE(map.pop_front(&key, &value));
  EXPECT_EQ(key, 10);
  EXPECT_TRUE(map.pop_front(&key, &value));
  EXPECT_EQ(key, 20);
  EXPECT_TRUE(map.pop_front(&key, &value));
  EXPECT_EQ(key, 30);
  EXPECT_FALSE(map.pop_front(&key, &value));
  EXPECT_TRUE(map.empty());
}

TEST(SkipListMap, FrontPeeksWithoutRemoval) {
  SkipListMap<int, int> map;
  map.insert(5, 50);
  map.insert(2, 20);
  int key = 0;
  EXPECT_TRUE(map.front(&key));
  EXPECT_EQ(key, 2);
  EXPECT_EQ(map.size(), 2u);
}

TEST(SkipListMap, CustomComparatorReversesOrder) {
  SkipListMap<int, int, std::greater<int>> map;
  for (int k : {1, 3, 2}) map.insert(k, k);
  int key = 0;
  map.pop_front(&key);
  EXPECT_EQ(key, 3);  // "smallest" under greater<> is the largest int
}

TEST(SkipListMap, ManySequentialInserts) {
  SkipListMap<int, int> map;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(map.insert(i, i));
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; i += 503) EXPECT_TRUE(map.contains(i));
}

TEST(SkipListMap, ConcurrentDisjointInserts) {
  SkipListMap<int, int> map;
  constexpr int kThreads = 8;
  constexpr int kPer = 5'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&map, t] {
      for (int i = 0; i < kPer; ++i) {
        ASSERT_TRUE(map.insert(t * kPer + i, i));
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kThreads) * kPer);
  // Full order check.
  int prev = -1;
  std::size_t count = 0;
  map.for_each([&](const int& k, const int&) {
    EXPECT_GT(k, prev);
    prev = k;
    ++count;
  });
  EXPECT_EQ(count, static_cast<std::size_t>(kThreads) * kPer);
}

TEST(SkipListMap, ConcurrentSameKeyOneWinner) {
  for (int round = 0; round < 10; ++round) {
    SkipListMap<int, int> map;
    std::atomic<int> winners{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
      pool.emplace_back([&, t] {
        if (map.insert(7, t)) winners.fetch_add(1);
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(winners.load(), 1);
  }
}

TEST(SkipListMap, ConcurrentPopFrontDrainsExactlyOnce) {
  SkipListMap<int, int> map;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) map.insert(i, i);
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      int k, v;
      while (map.pop_front(&k, &v)) {
        sum.fetch_add(k, std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(popped.load(), kN);
  EXPECT_EQ(sum.load(), static_cast<long>(kN) * (kN - 1) / 2);
  EXPECT_TRUE(map.empty());
}

TEST(SkipListMap, ConcurrentInsertEraseChurn) {
  SkipListMap<int, int> map;
  std::atomic<long> net{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(t * 13 + 1);
      for (int i = 0; i < 10'000; ++i) {
        const int k = static_cast<int>(rng.next_below(256));
        if ((rng.next() & 1) != 0) {
          if (map.insert(k, k)) net.fetch_add(1);
        } else {
          if (map.erase(k)) net.fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(static_cast<long>(map.size()), net.load());
  int prev = -1;
  map.for_each([&](const int& k, const int& v) {
    EXPECT_EQ(k, v);
    EXPECT_GT(k, prev);
    prev = k;
  });
}

TEST(SkipListMap, ConcurrentReadersNeverSeeTornValues) {
  SkipListMap<int, std::string> map;
  for (int i = 0; i < 64; ++i) map.insert(i, std::string(100, 'a'));
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    char c = 'b';
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 64; ++i) {
        map.update(i, [c](std::string& s) { s.assign(100, c); });
      }
      c = c == 'z' ? 'a' : c + 1;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < 20'000; ++i) {
        std::string v;
        if (map.find_value(static_cast<int>(rng.next_below(64)), &v)) {
          if (v.size() != 100 ||
              v.find_first_not_of(v[0]) != std::string::npos) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace hcl::lf
