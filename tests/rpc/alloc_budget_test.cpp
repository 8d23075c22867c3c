// Allocation budget of the RoR hot path (DESIGN.md §5b). Each op encodes
// once into pooled buffers, so a warm thread's scalar invoke, 16-op bundle
// and one-key multi_put commit allocate no more than the counts pinned
// here. A change that brings back a per-op growth chain — a fresh request
// vector, a copied response, an unpooled future state — fails this test
// instead of showing up only as host-time noise.
//
// This binary replaces the global operator new with a counting one, so it
// is its own test executable. Only allocations made on a thread that has
// switched counting on are counted: every op below runs inline on the
// calling thread (handlers execute in the caller's thread).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/partitioned_map.h"
#include "rpc/batch.h"
#include "rpc/engine.h"
#include "txn/txn.h"

namespace {

thread_local bool tls_counting = false;
thread_local std::int64_t tls_allocs = 0;

void* counted(std::size_t n) {
  if (tls_counting) ++tls_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  if (tls_counting) ++tls_allocs;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hcl {
namespace {

using rpc::FuncId;
using rpc::ServerCtx;
using sim::Actor;

/// Allocations per call of `op` on this thread, after `warm` calls that
/// fill the thread's pools. The simulator's own reservation lanes still
/// grow geometrically as simulated time advances (sim::Resource), which
/// amortizes to a few hundredths of an allocation per call; the budgets
/// below leave room for exactly that.
template <typename Op>
double allocs_per_call(Op&& op, int warm = 32, int measured = 256) {
  for (int i = 0; i < warm; ++i) op(i);
  tls_allocs = 0;
  tls_counting = true;
  for (int i = 0; i < measured; ++i) op(warm + i);
  tls_counting = false;
  return static_cast<double>(tls_allocs) / measured;
}

/// A memcpy-serialized value, like the kv benchmark's record.
struct Record {
  std::uint64_t key = 0;
  std::uint64_t words[3] = {};
};

TEST(AllocBudget, ScalarInvokeEchoOfAMemcpyValue) {
  fabric::Fabric fabric(sim::Topology(2, 1), sim::CostModel::ares());
  rpc::Engine engine(fabric);
  const FuncId echo = engine.bind<Record, Record>(
      [](ServerCtx&, const Record& r) { return r; });
  Actor client(0, 0, 1);
  const double allocs = allocs_per_call([&](int i) {
    Record r;
    r.key = static_cast<std::uint64_t>(i);
    const Record back = engine.invoke<Record>(client, 1, echo, r);
    ASSERT_EQ(back.key, r.key);
  });
  EXPECT_LE(allocs, 0.05);
}

TEST(AllocBudget, SixteenOpBatcherBundle) {
  fabric::Fabric fabric(sim::Topology(2, 1), sim::CostModel::ares());
  rpc::Engine engine(fabric);
  const FuncId echo = engine.bind<Record, Record>(
      [](ServerCtx&, const Record& r) { return r; });
  Actor client(0, 0, 1);
  std::vector<rpc::Future<Record>> futures;
  futures.reserve(16);
  const double allocs = allocs_per_call([&](int i) {
    {
      rpc::Batcher batcher(engine, rpc::BatchPolicy{.max_ops = 16,
                                                    .max_bytes = 1 << 20,
                                                    .max_delay_ns = 0});
      for (int k = 0; k < 16; ++k) {
        Record r;
        r.key = static_cast<std::uint64_t>(i * 16 + k);
        futures.push_back(batcher.enqueue<Record>(client, 1, echo, r));
      }
      batcher.flush_all(client);
    }
    for (int k = 0; k < 16; ++k) {
      ASSERT_EQ(futures[static_cast<std::size_t>(k)].get(client).key,
                static_cast<std::uint64_t>(i * 16 + k));
    }
    futures.clear();
  });
  EXPECT_LE(allocs, 0.05);
}

TEST(AllocBudget, OneKeyMultiPutCommit) {
  Context::Config cfg;
  cfg.num_nodes = 2;
  cfg.procs_per_node = 1;
  cfg.model = sim::CostModel::zero();
  Context ctx(cfg);
  unordered_map<std::uint64_t, std::uint64_t> map(ctx, {.num_partitions = 2});
  txn::TxnCoordinator coord(ctx);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs(1);
  double allocs = -1;
  ctx.run_one(0, [&](Actor& self) {
    allocs = allocs_per_call([&](int i) {
      pairs[0] = {static_cast<std::uint64_t>(i % 8),
                  static_cast<std::uint64_t>(i)};
      const Status st = coord.multi_put(self, map, pairs);
      ASSERT_TRUE(st.ok()) << st.to_string();
    });
  });
  // Server side: the prepare stub decodes its intent blob and the records
  // in it, and sizes its stripe list.
  EXPECT_LE(allocs, 3.05);
}

}  // namespace
}  // namespace hcl
