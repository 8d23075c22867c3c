#include "lf/cuckoo_map.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace hcl::lf {
namespace {

TEST(CuckooMap, InsertFindBasic) {
  CuckooMap<int, int> map;
  EXPECT_TRUE(map.insert(1, 100));
  EXPECT_TRUE(map.insert(2, 200));
  int v = 0;
  EXPECT_TRUE(map.find(1, &v));
  EXPECT_EQ(v, 100);
  EXPECT_TRUE(map.find(2, &v));
  EXPECT_EQ(v, 200);
  EXPECT_FALSE(map.find(3, &v));
  EXPECT_EQ(map.size(), 2u);
}

TEST(CuckooMap, DuplicateInsertRejected) {
  CuckooMap<int, int> map;
  EXPECT_TRUE(map.insert(1, 100));
  EXPECT_FALSE(map.insert(1, 999));
  int v = 0;
  EXPECT_TRUE(map.find(1, &v));
  EXPECT_EQ(v, 100);  // original value preserved
  EXPECT_EQ(map.size(), 1u);
}

TEST(CuckooMap, UpsertOverwrites) {
  CuckooMap<int, int> map;
  EXPECT_TRUE(map.upsert(1, 100));
  EXPECT_FALSE(map.upsert(1, 999));
  int v = 0;
  EXPECT_TRUE(map.find(1, &v));
  EXPECT_EQ(v, 999);
}

TEST(CuckooMap, UpdateFnIncrementsAtomically) {
  CuckooMap<std::uint64_t, int> map;
  EXPECT_TRUE(map.update_fn(7, [](int& c) { ++c; }, 0));
  EXPECT_FALSE(map.update_fn(7, [](int& c) { ++c; }, 0));
  int v = 0;
  EXPECT_TRUE(map.find(7, &v));
  EXPECT_EQ(v, 2);
}

TEST(CuckooMap, EraseRemoves) {
  CuckooMap<int, int> map;
  map.insert(1, 100);
  EXPECT_TRUE(map.erase(1));
  EXPECT_FALSE(map.erase(1));
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.size(), 0u);
}

TEST(CuckooMap, ReinsertAfterErase) {
  CuckooMap<int, int> map;
  map.insert(1, 100);
  map.erase(1);
  EXPECT_TRUE(map.insert(1, 200));
  int v = 0;
  EXPECT_TRUE(map.find(1, &v));
  EXPECT_EQ(v, 200);
}

TEST(CuckooMap, GrowsBeyondInitialCapacity) {
  CuckooMap<int, int> map(/*initial_buckets=*/2);  // 8 slots
  constexpr int kN = 10'000;
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(map.insert(i, i * 2));
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kN));
  EXPECT_GT(map.bucket_count(), 2u);
  for (int i = 0; i < kN; ++i) {
    int v = 0;
    ASSERT_TRUE(map.find(i, &v)) << i;
    EXPECT_EQ(v, i * 2);
  }
  EXPECT_LE(map.load_factor(), (CuckooMap<int, int>::kMaxLoadFactor) + 0.05);
}

TEST(CuckooMap, ExplicitReserve) {
  CuckooMap<int, int> map(2);
  map.reserve(1024);
  EXPECT_GE(map.bucket_count(), 1024u);
  map.insert(1, 1);
  EXPECT_TRUE(map.contains(1));
}

TEST(CuckooMap, NonTrivialPayloads) {
  CuckooMap<std::string, std::string> map;
  EXPECT_TRUE(map.insert("key-one", std::string(1000, 'a')));
  EXPECT_TRUE(map.insert("key-two", "short"));
  std::string v;
  EXPECT_TRUE(map.find("key-one", &v));
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_TRUE(map.erase("key-one"));
  EXPECT_FALSE(map.contains("key-one"));
}

TEST(CuckooMap, ForEachVisitsAll) {
  CuckooMap<int, int> map;
  for (int i = 0; i < 100; ++i) map.insert(i, i);
  std::set<int> seen;
  map.for_each([&](const int& k, const int& v) {
    EXPECT_EQ(k, v);
    seen.insert(k);
  });
  EXPECT_EQ(seen.size(), 100u);
}

TEST(CuckooMap, ClearEmpties) {
  CuckooMap<int, int> map;
  for (int i = 0; i < 50; ++i) map.insert(i, i);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.contains(25));
  EXPECT_TRUE(map.insert(25, 1));
}

struct Mod8Hash {
  std::uint64_t operator()(const int& k) const {
    return static_cast<std::uint64_t>(k % 8);  // pathological on purpose
  }
};

TEST(CuckooMap, SurvivesPathologicalHash) {
  // All keys collide into 8 primary buckets; the alternate hash and
  // displacement/stash machinery must still make every insert succeed.
  CuckooMap<int, int, Mod8Hash> map(8);
  for (int i = 0; i < 2'000; ++i) ASSERT_TRUE(map.insert(i, i));
  for (int i = 0; i < 2'000; ++i) {
    int v = 0;
    ASSERT_TRUE(map.find(i, &v)) << i;
    EXPECT_EQ(v, i);
  }
}

TEST(CuckooMap, ConcurrentDisjointInserts) {
  CuckooMap<int, int> map(4);
  constexpr int kThreads = 8;
  constexpr int kPer = 10'000;
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
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPer; i += 97) {
      int v = 0;
      ASSERT_TRUE(map.find(t * kPer + i, &v));
      EXPECT_EQ(v, i);
    }
  }
}

TEST(CuckooMap, ConcurrentSameKeyInsertExactlyOneWins) {
  // "multiple insertions on the same key are always consistent" (§III.D.1).
  for (int round = 0; round < 20; ++round) {
    CuckooMap<int, int> map;
    std::atomic<int> winners{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
      pool.emplace_back([&, t] {
        if (map.insert(42, t)) winners.fetch_add(1);
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(winners.load(), 1);
    EXPECT_EQ(map.size(), 1u);
  }
}

TEST(CuckooMap, ConcurrentReadersDuringWrites) {
  CuckooMap<std::uint64_t, std::uint64_t> map(4);
  std::atomic<bool> stop{false};
  std::atomic<long> misread{0};
  // Writers insert (k, k*3); readers must only ever observe v == k*3.
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 20'000; ++i) {
        map.insert(t * 20'000 + i, (t * 20'000 + i) * 3);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_below(80'000);
        std::uint64_t v = 0;
        if (map.find(k, &v) && v != k * 3) misread.fetch_add(1);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(misread.load(), 0);
  EXPECT_EQ(map.size(), 80'000u);
}

TEST(CuckooMap, ConcurrentUpdateFnCountsExactly) {
  // The k-mer histogram pattern: many threads increment shared counters.
  CuckooMap<int, long> map;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20'000;
  constexpr int kKeys = 64;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        map.update_fn(static_cast<int>(rng.next_below(kKeys)),
                      [](long& c) { ++c; }, 0);
      }
    });
  }
  for (auto& th : pool) th.join();
  long total = 0;
  map.for_each([&](const int&, const long& c) { total += c; });
  EXPECT_EQ(total, static_cast<long>(kThreads) * kOpsPerThread);
}

TEST(CuckooMap, ConcurrentInsertEraseChurn) {
  CuckooMap<int, int> map(8);
  constexpr int kThreads = 8;
  std::atomic<long> net{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(t * 7 + 1);
      for (int i = 0; i < 20'000; ++i) {
        const int k = static_cast<int>(rng.next_below(512));
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
  // Every surviving value must equal its key (no corruption).
  map.for_each([&](const int& k, const int& v) { EXPECT_EQ(k, v); });
}

// A displacement carries a resident key "in hand" between its two buckets.
// A writer that looks for the key in that window must still see it: a
// duplicate insert must not land a second copy, and an erase must not miss.
// One thread grows the table with fresh keys (forcing kick chains) while
// three others work on disjoint slices of the resident keys.
TEST(CuckooMap, KeysInHandDuringDisplacementStayVisibleToWriters) {
  constexpr std::uint64_t kResident = 4096;
  constexpr std::uint64_t kFresh = 100'000;
  for (int round = 0; round < 12; ++round) {
    CuckooMap<std::uint64_t, std::uint64_t> map(2);
    for (std::uint64_t k = 0; k < kResident; ++k) map.insert(k, k);
    std::atomic<bool> done{false};
    std::atomic<int> duplicated{0};
    std::atomic<int> missed{0};
    std::vector<std::thread> pool;
    pool.emplace_back([&] {
      for (std::uint64_t k = kResident; k < kResident + kFresh; ++k) {
        map.insert(k, k);
      }
      done = true;
    });
    for (std::uint64_t t = 0; t < 3; ++t) {
      pool.emplace_back([&, t] {
        for (std::uint64_t k = t; !done.load(std::memory_order_relaxed);
             k = k + 3 < kResident ? k + 3 : t) {
          if (t == 0) {
            if (!map.erase(k)) ++missed;
            if (!map.insert(k, k)) ++duplicated;
          } else if (map.insert(k, 0)) {
            ++duplicated;
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    ASSERT_EQ(duplicated.load(), 0) << "round " << round;
    ASSERT_EQ(missed.load(), 0) << "round " << round;
    ASSERT_EQ(map.size(), kResident + kFresh) << "round " << round;
  }
}

TEST(CuckooMap, ConcurrentGrowDuringReads) {
  CuckooMap<std::uint64_t, std::uint64_t> map(2);
  for (std::uint64_t i = 0; i < 64; ++i) map.insert(i, i);
  std::atomic<bool> stop{false};
  std::atomic<long> lost{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        std::uint64_t v = 0;
        if (!map.find(i, &v)) lost.fetch_add(1);
      }
    }
  });
  // Force repeated resizes under the reader.
  for (std::uint64_t i = 64; i < 50'000; ++i) map.insert(i, i);
  stop.store(true);
  reader.join();
  EXPECT_EQ(lost.load(), 0);  // pre-inserted keys never disappear
}

}  // namespace
}  // namespace hcl::lf
