// The op coalescer (rpc::Batcher + Engine::send_batch): flush triggers
// (count, bytes, simulated-time window), FIFO order within a destination,
// per-op status isolation under injected mid-batch faults, corrupted bundle
// and response bytes, whole-bundle transport faults through the retry
// policy, shared single-pull charging, and the dangling-future guard on
// batched invokes.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fabric/fault_plan.h"
#include "rpc/batch.h"
#include "rpc/engine.h"

namespace hcl::rpc {
namespace {

using fabric::FaultKind;
using fabric::FaultPlan;
using fabric::FaultProbabilities;
using fabric::OpClass;
using sim::Actor;
using sim::CostModel;
using sim::Nanos;
using sim::Topology;

/// Functional fixture: zero cost model so only semantics matter, plus a
/// server-side tape recording handler execution order.
struct BatchTest : ::testing::Test {
  BatchTest()
      : plan(std::make_shared<FaultPlan>(7)),
        fabric(Topology(2, 2), CostModel::zero()),
        engine(fabric) {
    fabric.set_fault_plan(plan);
    echo_id = engine.bind<int, int>([this](ServerCtx& sctx, const int& v) {
      std::lock_guard<std::mutex> guard(tape_mutex);
      tape.push_back(v);
      sctx.finish = sctx.start;
      return v * 2;
    });
  }

  /// A policy that never auto-flushes — explicit flush only.
  static BatchPolicy manual() {
    BatchPolicy p;
    p.max_ops = 1u << 20;
    p.max_bytes = 1u << 30;
    p.max_delay_ns = 0;
    return p;
  }

  std::shared_ptr<FaultPlan> plan;
  fabric::Fabric fabric;
  Engine engine;
  FuncId echo_id = 0;
  std::mutex tape_mutex;
  std::vector<int> tape;
};

// ---------------------------------------------------------------------------
// Flush triggers.
// ---------------------------------------------------------------------------

TEST_F(BatchTest, FlushOnOpCountThreshold) {
  BatchPolicy policy = manual();
  policy.max_ops = 4;
  Batcher batcher(engine, policy);
  Actor client(0, 0, 1);
  std::vector<Future<int>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(batcher.enqueue<int>(client, 1, echo_id, i));
    EXPECT_FALSE(futures.back().ready());  // still coalescing
  }
  EXPECT_EQ(batcher.pending_ops(1), 3u);
  futures.push_back(batcher.enqueue<int>(client, 1, echo_id, 3));  // trips
  EXPECT_EQ(batcher.pending_ops(1), 0u);
  EXPECT_EQ(batcher.flushes(), 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(futures[static_cast<std::size_t>(i)].ready());
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(client), i * 2);
  }
}

TEST_F(BatchTest, FlushOnByteThreshold) {
  BatchPolicy policy = manual();
  policy.max_bytes = 64;  // each op carries ~8B payload + 16B framing
  Batcher batcher(engine, policy);
  Actor client(0, 0, 1);
  std::vector<Future<int>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(batcher.enqueue<int>(client, 1, echo_id, i));
  }
  EXPECT_GE(batcher.flushes(), 1);        // tripped by bytes, not count
  EXPECT_LT(batcher.pending_ops(1), 6u);  // something shipped
  batcher.flush_all(client);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(client), i * 2);
  }
}

TEST_F(BatchTest, FlushOnSimulatedTimeWindow) {
  BatchPolicy policy = manual();
  policy.max_delay_ns = 10 * sim::kMicrosecond;
  Batcher batcher(engine, policy);
  Actor client(0, 0, 1);
  auto first = batcher.enqueue<int>(client, 1, echo_id, 1);
  EXPECT_FALSE(first.ready());
  client.advance(20 * sim::kMicrosecond);  // the window expires in sim time
  auto second = batcher.enqueue<int>(client, 1, echo_id, 2);  // linger trips
  EXPECT_TRUE(first.ready());
  EXPECT_TRUE(second.ready());
  EXPECT_EQ(batcher.flushes(), 1);
  EXPECT_EQ(first.get(client), 2);
  EXPECT_EQ(second.get(client), 4);
}

TEST_F(BatchTest, PollFlushesExpiredWindows) {
  BatchPolicy policy = manual();
  policy.max_delay_ns = 10 * sim::kMicrosecond;
  Batcher batcher(engine, policy);
  Actor client(0, 0, 1);
  auto f = batcher.enqueue<int>(client, 1, echo_id, 5);
  batcher.poll(client);
  EXPECT_FALSE(f.ready());  // window not expired yet
  client.advance(11 * sim::kMicrosecond);
  batcher.poll(client);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.get(client), 10);
}

TEST_F(BatchTest, ExplicitFlushShipsPartialBundle) {
  Batcher batcher(engine, manual());
  Actor client(0, 0, 1);
  auto f = batcher.enqueue<int>(client, 1, echo_id, 21);
  EXPECT_EQ(batcher.pending_ops(1), 1u);
  batcher.flush(client, 1);
  EXPECT_EQ(batcher.pending_ops(1), 0u);
  EXPECT_EQ(f.get(client), 42);
  batcher.flush(client, 1);  // empty flush is a no-op
  EXPECT_EQ(batcher.flushes(), 1);
}

// ---------------------------------------------------------------------------
// Ordering and fan-out.
// ---------------------------------------------------------------------------

TEST_F(BatchTest, FifoOrderWithinDestination) {
  Batcher batcher(engine, manual());
  Actor client(0, 0, 1);
  std::vector<Future<int>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(batcher.enqueue<int>(client, 1, echo_id, i));
  }
  batcher.flush_all(client);
  ASSERT_EQ(tape.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(tape[static_cast<std::size_t>(i)], i);  // server saw FIFO order
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(client), i * 2);
  }
}

TEST_F(BatchTest, FifoOrderPreservedAcrossAutoFlushChunks) {
  BatchPolicy policy = manual();
  policy.max_ops = 3;  // 8 ops -> chunks of 3, 3, 2
  Batcher batcher(engine, policy);
  Actor client(0, 0, 1);
  std::vector<Future<int>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(batcher.enqueue<int>(client, 1, echo_id, i));
  }
  batcher.flush_all(client);
  EXPECT_EQ(batcher.flushes(), 3);
  ASSERT_EQ(tape.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(tape[static_cast<std::size_t>(i)], i);
  }
}

TEST_F(BatchTest, IndependentQueuesPerDestination) {
  fabric::Fabric wide(Topology(3, 1), CostModel::zero());
  Engine eng(wide);
  std::mutex mutex;
  std::vector<std::pair<sim::NodeId, int>> seen;
  const FuncId record = eng.bind<int, int>(
      [&](ServerCtx& sctx, const int& v) {
        std::lock_guard<std::mutex> guard(mutex);
        seen.emplace_back(sctx.node, v);
        return v;
      });
  Batcher batcher(eng, manual());
  Actor client(0, 0, 1);
  auto f1 = batcher.enqueue<int>(client, 1, record, 10);
  auto f2 = batcher.enqueue<int>(client, 2, record, 20);
  auto f3 = batcher.enqueue<int>(client, 1, record, 11);
  EXPECT_EQ(batcher.pending_ops(1), 2u);
  EXPECT_EQ(batcher.pending_ops(2), 1u);
  batcher.flush(client, 1);  // ships node 1 only
  EXPECT_TRUE(f1.ready());
  EXPECT_TRUE(f3.ready());
  EXPECT_FALSE(f2.ready());
  batcher.flush_all(client);
  EXPECT_EQ(f1.get(client), 10);
  EXPECT_EQ(f2.get(client), 20);
  EXPECT_EQ(f3.get(client), 11);
}

// ---------------------------------------------------------------------------
// Per-op status isolation under mid-batch faults (OpClass::kBatchOp).
// ---------------------------------------------------------------------------

TEST_F(BatchTest, HandlerThrowMidBatchFailsOnlyThatOp) {
  plan->trigger_at(1, OpClass::kBatchOp, 2, FaultKind::kThrow);
  Batcher batcher(engine, manual());
  Actor client(0, 0, 1);
  std::vector<Future<int>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(batcher.enqueue<int>(client, 1, echo_id, i));
  }
  batcher.flush_all(client);
  for (int i = 0; i < 5; ++i) {
    const Status st = futures[static_cast<std::size_t>(i)].wait(client);
    if (i == 2) {
      EXPECT_EQ(st.code(), StatusCode::kInternal);
      EXPECT_NE(st.message().find("injected"), std::string::npos);
    } else {
      EXPECT_TRUE(st.ok()) << "op " << i << ": " << st.to_string();
      EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(client), i * 2);
    }
  }
  EXPECT_EQ(plan->counters().throws.load(), 1);
}

TEST_F(BatchTest, DropMidBatchSkipsOnlyThatOp) {
  plan->trigger_at(1, OpClass::kBatchOp, 1, FaultKind::kDrop);
  Batcher batcher(engine, manual());
  Actor client(0, 0, 1);
  std::vector<Future<int>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(batcher.enqueue<int>(client, 1, echo_id, i));
  }
  batcher.flush_all(client);
  for (int i = 0; i < 4; ++i) {
    const Status st = futures[static_cast<std::size_t>(i)].wait(client);
    if (i == 1) {
      EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    } else {
      EXPECT_TRUE(st.ok());
    }
  }
  // The dropped op never executed — no side effects, unlike its siblings.
  ASSERT_EQ(tape.size(), 3u);
  EXPECT_EQ(tape, (std::vector<int>{0, 2, 3}));
}

TEST_F(BatchTest, HclErrorFromBatchedHandlerKeepsItsCode) {
  const FuncId capacity = engine.bind<int, int>(
      [](ServerCtx&, const int&) -> int {
        throw HclError(Status::Capacity("partition full"));
      });
  Batcher batcher(engine, manual());
  Actor client(0, 0, 1);
  auto good = batcher.enqueue<int>(client, 1, echo_id, 1);
  auto bad = batcher.enqueue<int>(client, 1, capacity, 2);
  batcher.flush_all(client);
  EXPECT_TRUE(good.wait(client).ok());
  EXPECT_EQ(bad.wait(client).code(), StatusCode::kCapacity);
}

TEST_F(BatchTest, UnboundHandlerMidBatchIsNotFound) {
  Batcher batcher(engine, manual());
  Actor client(0, 0, 1);
  auto good = batcher.enqueue<int>(client, 1, echo_id, 1);
  auto bad = batcher.enqueue<int>(client, 1, /*unbound=*/424'242, 2);
  batcher.flush_all(client);
  EXPECT_TRUE(good.wait(client).ok());
  EXPECT_EQ(bad.wait(client).code(), StatusCode::kNotFound);
}

TEST_F(BatchTest, DuplicateMidBatchRunsHandlerTwice) {
  plan->trigger_at(1, OpClass::kBatchOp, 0, FaultKind::kDuplicate);
  Batcher batcher(engine, manual());
  Actor client(0, 0, 1);
  auto f0 = batcher.enqueue<int>(client, 1, echo_id, 7);
  auto f1 = batcher.enqueue<int>(client, 1, echo_id, 8);
  batcher.flush_all(client);
  EXPECT_EQ(f0.get(client), 14);  // response still well-formed
  EXPECT_EQ(f1.get(client), 16);
  EXPECT_EQ(tape, (std::vector<int>{7, 7, 8}));  // op 0 executed twice
  EXPECT_EQ(plan->counters().duplicates.load(), 1);
}

TEST_F(BatchTest, SeededBatchFaultMixAlwaysResolvesDefinite) {
  FaultProbabilities p;
  p.drop = 0.05;
  p.throw_handler = 0.05;
  p.unavailable = 0.05;
  p.duplicate = 0.03;
  plan->set(OpClass::kBatchOp, p);
  BatchPolicy policy = manual();
  policy.max_ops = 16;
  Batcher batcher(engine, policy);
  Actor client(0, 0, 1);
  std::vector<Future<int>> futures;
  for (int i = 0; i < 400; ++i) {
    futures.push_back(batcher.enqueue<int>(client, 1, echo_id, i));
  }
  batcher.flush_all(client);
  int ok = 0, failed = 0;
  for (auto& f : futures) {
    const Status st = f.wait(client);
    if (st.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(st.code() == StatusCode::kInternal ||
                  st.code() == StatusCode::kUnavailable)
          << st.to_string();
      ++failed;
    }
  }
  EXPECT_EQ(ok + failed, 400);
  EXPECT_GT(ok, 300);   // most of the bundle survives
  EXPECT_GT(failed, 0); // but faults really fired, each poisoning one slot
  EXPECT_GT(plan->counters().total(), 0);
}

// ---------------------------------------------------------------------------
// Corrupted wire bytes: a bundle request or response slot whose lengths lie
// ends in a Status, and no length is trusted before it is bounds-checked.
// ---------------------------------------------------------------------------

/// A request whose wire bytes are exactly `words`, little-endian.
struct RawWords {
  std::vector<std::uint64_t> words;
  template <typename Ar>
  void serialize(Ar& ar) {
    for (const std::uint64_t w : words) ar.u64(w);
  }
};

/// Lengths that overrun `remaining` bytes: just past the end, and sizes no
/// allocation could back.
std::uint64_t inflated_length(Rng& rng, std::uint64_t remaining) {
  const std::uint64_t claims[] = {remaining + 1 + rng.next_below(64),
                                  std::uint64_t{1} << 40,
                                  std::uint64_t{1} << 61, ~std::uint64_t{0}};
  return claims[rng.next_below(4)];
}

TEST_F(BatchTest, SeededCorruptBundleRequestsEndInStatus) {
  // Flipped bits reach the argument too, so the handler must take any int.
  const FuncId id = engine.bind<int, int>([](ServerCtx& sctx, const int& v) {
    sctx.finish = sctx.start;
    return v;
  });
  Rng rng(21);
  Actor client(0, 0, 1);
  for (int round = 0; round < 200; ++round) {
    // A well-formed bundle of 1..3 ops: count, then (id, len, payload) per
    // op; an int argument is one 8-byte word.
    const std::uint64_t ops = 1 + rng.next_below(3);
    RawWords bundle;
    bundle.words.push_back(ops);
    std::vector<std::size_t> len_at;
    for (std::uint64_t i = 0; i < ops; ++i) {
      bundle.words.push_back(id);
      len_at.push_back(bundle.words.size());
      bundle.words.push_back(8);
      bundle.words.push_back(rng.next_below(1000));
    }
    const bool inflate = rng.next_below(2) == 0;
    if (inflate) {
      const std::size_t at = len_at[rng.next_below(ops)];
      const std::uint64_t remaining = 8 * (bundle.words.size() - at - 1);
      bundle.words[at] = inflated_length(rng, remaining);
    } else {
      const auto bit = rng.next_below(64 * bundle.words.size());
      bundle.words[bit / 64] ^= std::uint64_t{1} << (bit % 64);
    }
    auto future = engine.async_invoke<bool>(client, 1,
                                            engine.batch_executor_id(), bundle);
    const Status st = future.wait(client);
    if (inflate) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.to_string();
    }
  }
}

TEST(BatchSlot, SeededCorruptResponseSlotsEndInStatus) {
  Rng rng(22);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::byte> result(rng.next_below(40));
    for (auto& b : result) b = static_cast<std::byte>(rng.next());
    const detail::BatchSlot good{
        Status(static_cast<StatusCode>(rng.next_below(4)),
               std::string(rng.next_below(12), 'm')),
        static_cast<Nanos>(rng.next_below(1u << 20)), rng.next(), result};
    serial::OutArchive out;
    detail::write_batch_slot(out, good);
    std::vector<std::byte> bytes = out.take();
    {
      serial::InArchive in{std::span<const std::byte>(bytes)};
      const detail::BatchSlot back = detail::read_batch_slot(in);
      EXPECT_EQ(back.status, good.status);
      EXPECT_EQ(back.ready, good.ready);
      EXPECT_EQ(back.epoch, good.epoch);
      EXPECT_TRUE(std::equal(back.payload.begin(), back.payload.end(),
                             result.begin(), result.end()));
    }
    // The payload length word sits right before the payload.
    const std::size_t len_at = bytes.size() - result.size() - 8;
    const int kind = static_cast<int>(rng.next_below(3));
    if (kind == 0) {
      serial::RawBackend::store(bytes.data() + len_at,
                                inflated_length(rng, result.size()));
    } else if (kind == 1) {
      bytes.resize(rng.next_below(bytes.size()));
    } else {
      const auto bit = rng.next_below(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
    serial::InArchive in{std::span<const std::byte>(bytes)};
    try {
      const detail::BatchSlot slot = detail::read_batch_slot(in);
      EXPECT_EQ(kind, 2) << "an inflated or cut slot must not decode";
      EXPECT_LE(slot.payload.size(), bytes.size());
    } catch (const HclError& e) {
      EXPECT_EQ(e.code(), StatusCode::kInvalidArgument) << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-bundle transport faults go through the retry policy.
// ---------------------------------------------------------------------------

TEST_F(BatchTest, BundleDropFailsEveryConstituentDefinitely) {
  plan->trigger_at(1, OpClass::kRpc, 0, FaultKind::kDrop);
  Batcher batcher(engine, manual());  // default options: no retries
  Actor client(0, 0, 1);
  auto f0 = batcher.enqueue<int>(client, 1, echo_id, 1);
  auto f1 = batcher.enqueue<int>(client, 1, echo_id, 2);
  batcher.flush_all(client);
  EXPECT_EQ(f0.wait(client).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(f1.wait(client).code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(tape.empty());  // the bundle never arrived
}

TEST_F(BatchTest, BundleDropIsAbsorbedByRetryPolicy) {
  plan->trigger_at(1, OpClass::kRpc, 0, FaultKind::kDrop);
  InvokeOptions opts;
  opts.max_retries = 2;
  Batcher batcher(engine, manual(), opts);
  Actor client(0, 0, 1);
  auto f0 = batcher.enqueue<int>(client, 1, echo_id, 1);
  auto f1 = batcher.enqueue<int>(client, 1, echo_id, 2);
  batcher.flush_all(client);
  EXPECT_EQ(f0.get(client), 2);
  EXPECT_EQ(f1.get(client), 4);
  EXPECT_GE(fabric.nic(1).counters().rpc_retries.load(), 1);
}

// ---------------------------------------------------------------------------
// Dangling-future guards on batched invokes.
// ---------------------------------------------------------------------------

TEST_F(BatchTest, DestroyedBatcherResolvesPendingFutures) {
  Actor client(0, 0, 1);
  Future<int> orphan;
  {
    Batcher batcher(engine, manual());
    orphan = batcher.enqueue<int>(client, 1, echo_id, 9);
    EXPECT_FALSE(orphan.ready());
  }  // never flushed
  EXPECT_TRUE(orphan.ready());  // resolved, not hung
  const Status st = orphan.wait(client);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_THROW((void)orphan.get(client), HclError);
  EXPECT_TRUE(tape.empty());  // the op never ran
}

TEST_F(BatchTest, MovedFromBatchedFutureFailsLoudly) {
  Batcher batcher(engine, manual());
  Actor client(0, 0, 1);
  auto f = batcher.enqueue<int>(client, 1, echo_id, 1);
  batcher.flush_all(client);
  Future<int> taken = std::move(f);
  EXPECT_EQ(taken.get(client), 2);
  // NOLINTNEXTLINE(bugprone-use-after-move): the guard is the test.
  EXPECT_THROW((void)f.get(client), HclError);
}

// ---------------------------------------------------------------------------
// Cost accounting: one wire crossing, one pull, amortized dispatch.
// ---------------------------------------------------------------------------

struct BatchCostTest : ::testing::Test {
  BatchCostTest() : fabric(Topology(2, 2), CostModel::ares()), engine(fabric) {
    echo_id = engine.bind<int, int>([](ServerCtx& sctx, const int& v) {
      sctx.finish = sctx.start;  // no structure cost; isolate RoR overheads
      return v;
    });
  }
  fabric::Fabric fabric;
  Engine engine;
  FuncId echo_id = 0;
};

TEST_F(BatchCostTest, OneBundleIsOneWireInvocation) {
  BatchPolicy policy;
  policy.max_ops = 64;
  policy.max_delay_ns = 0;
  Batcher batcher(engine, policy);
  Actor client(0, 0, 1);
  std::vector<Future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(batcher.enqueue<int>(client, 1, echo_id, i));
  }
  batcher.flush_all(client);
  for (auto& f : futures) (void)f.get(client);
  auto& counters = fabric.nic(1).counters();
  EXPECT_EQ(counters.rpc_count.load(), 1);    // Table I: one F for the bundle
  EXPECT_EQ(counters.rpc_batches.load(), 1);
  EXPECT_EQ(counters.rpc_batched_ops.load(), 32);
}

TEST_F(BatchCostTest, AwaitingSiblingsChargesOnePull) {
  BatchPolicy policy;
  policy.max_ops = 64;
  policy.max_delay_ns = 0;
  Batcher batcher(engine, policy);
  Actor client(0, 0, 1);
  std::vector<Future<int>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(batcher.enqueue<int>(client, 1, echo_id, i));
  }
  batcher.flush_all(client);
  (void)futures[0].get(client);
  const Nanos after_first = client.now();
  for (int i = 1; i < 8; ++i) (void)futures[static_cast<std::size_t>(i)].get(client);
  // Siblings share the packed response: later awaits advance to the pull's
  // completion but never re-pay wire overhead.
  EXPECT_EQ(client.now(), after_first);
}

TEST_F(BatchCostTest, CoalescingAmortizesPerOpOverhead) {
  constexpr int kOps = 32;
  Actor batched_client(0, 0, 1);
  BatchPolicy policy;
  policy.max_ops = kOps;
  policy.max_delay_ns = 0;
  Batcher batcher(engine, policy);
  std::vector<Future<int>> futures;
  for (int i = 0; i < kOps; ++i) {
    futures.push_back(batcher.enqueue<int>(batched_client, 1, echo_id, i));
  }
  batcher.flush_all(batched_client);
  for (auto& f : futures) (void)f.get(batched_client);
  const Nanos batched = batched_client.now();

  Actor scalar_client(1, 0, 2);
  for (int i = 0; i < kOps; ++i) {
    (void)engine.invoke<int>(scalar_client, 1, echo_id, i);
  }
  const Nanos scalar = scalar_client.now();
  // One round trip + per-op sub-dispatch vs kOps full round trips.
  EXPECT_LT(batched * 2, scalar);
}

TEST_F(BatchCostTest, SingleOpBundleDegeneratesToScalarInvoke) {
  BatchPolicy policy;
  policy.max_ops = 64;
  policy.max_delay_ns = 0;
  Batcher batcher(engine, policy);
  Actor client(0, 0, 1);
  auto f = batcher.enqueue<int>(client, 1, echo_id, 21);
  batcher.flush_all(client);
  EXPECT_EQ(f.get(client), 21);
  auto& counters = fabric.nic(1).counters();
  EXPECT_EQ(counters.rpc_count.load(), 1);
  EXPECT_EQ(counters.rpc_batches.load(), 0);  // no bundle framing
  EXPECT_EQ(counters.rpc_batched_ops.load(), 0);
}

}  // namespace
}  // namespace hcl::rpc
