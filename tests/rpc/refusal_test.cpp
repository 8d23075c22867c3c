// Refusal as a value: a stub that sets ServerCtx::status and returns must be
// indistinguishable, to the caller and on the simulated clock, from a stub
// that throws HclError with the same Status — same code and message, same
// response-ready time, same (untouched) epoch, same packed-response bytes and
// the same caller clock after the await. Covers a scalar invoke, a bundle
// constituent, a server-side chain and a duplicate delivery inside a bundle;
// also pins that wait() and get() charge the caller's clock identically, and
// that every failure kind is contained alike in all three execution shapes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fabric/fault_plan.h"
#include "rpc/batch.h"
#include "rpc/engine.h"

namespace hcl::rpc {
namespace {

using fabric::FaultKind;
using fabric::FaultPlan;
using fabric::OpClass;
using sim::Actor;
using sim::CostModel;
using sim::Nanos;
using sim::Topology;

enum class Mode { kRefuse, kThrow };

/// One simulated world: a 2-node fabric with the real cost model, an echo
/// stub, a stub that says no (by `mode`), and a chain stage.
struct World {
  explicit World(Mode mode)
      : plan(std::make_shared<FaultPlan>(7)),
        fabric(Topology(2, 2), CostModel::ares()),
        engine(fabric) {
    fabric.set_fault_plan(plan);
    echo = engine.bind<int, int>([](ServerCtx& sctx, const int& v) {
      sctx.finish = sctx.start + 100;
      sctx.epoch = 5;
      return v;
    });
    no = engine.bind<int, int>([this, mode](ServerCtx& sctx, const int& v) {
      ++no_calls;
      sctx.finish = sctx.start + 250;  // work before the "no" is still paid
      const Status st = Status::Aborted("txn prepare: intent slot held");
      if (mode == Mode::kThrow) throw HclError(st);
      sctx.status = st;
      return v;
    });
    stage = engine.bind<int, int>([this](ServerCtx& sctx, const int& v) {
      ++stage_calls;
      sctx.finish = sctx.start + 50;
      return v + 1;
    });
  }

  /// A 3-op bundle with the refused op in the middle.
  std::vector<Future<int>> bundle(Actor& client) {
    BatchPolicy manual;
    manual.max_ops = 64;
    manual.max_delay_ns = 0;
    Batcher batcher(engine, manual);
    std::vector<Future<int>> out;
    out.push_back(batcher.enqueue<int>(client, 1, echo, 1));
    out.push_back(batcher.enqueue<int>(client, 1, no, 2));
    out.push_back(batcher.enqueue<int>(client, 1, echo, 3));
    batcher.flush_all(client);
    return out;
  }

  [[nodiscard]] std::int64_t wire_bytes() {
    return fabric.nic(1).counters().total_bytes.load();
  }

  std::shared_ptr<FaultPlan> plan;
  fabric::Fabric fabric;
  Engine engine;
  FuncId echo = 0;
  FuncId no = 0;
  FuncId stage = 0;
  int no_calls = 0;
  int stage_calls = 0;
};

/// Everything the caller can observe about one awaited future.
struct Seen {
  StatusCode code = StatusCode::kOk;
  std::string message;
  Nanos ready = 0;
  std::uint64_t epoch = 0;
  Nanos clock = 0;
  bool operator==(const Seen&) const = default;
};

Seen observe(Future<int>& f, Actor& client) {
  const Status st = f.wait(client);
  return {st.code(), st.message(), f.response_ready_ns(), f.response_epoch(),
          client.now()};
}

void expect_refused(const Seen& seen) {
  EXPECT_EQ(seen.code, StatusCode::kAborted);
  // The message keeps the form a caught HclError's what() carries.
  EXPECT_EQ(seen.message, "ABORTED: txn prepare: intent slot held");
  EXPECT_EQ(seen.epoch, 0u);
}

TEST(Refusal, ScalarInvokeMatchesThrow) {
  Seen seen[2];
  for (const Mode mode : {Mode::kRefuse, Mode::kThrow}) {
    World w(mode);
    Actor client(0, 0, 1);
    auto f = w.engine.async_invoke<int>(client, 1, w.no, 3);
    seen[static_cast<int>(mode)] = observe(f, client);
  }
  expect_refused(seen[0]);
  EXPECT_EQ(seen[0], seen[1]);
}

TEST(Refusal, BundleConstituentMatchesThrowAndSparesSiblings) {
  std::vector<Seen> seen[2];
  std::int64_t bytes[2] = {0, 0};
  for (const Mode mode : {Mode::kRefuse, Mode::kThrow}) {
    World w(mode);
    Actor client(0, 0, 1);
    auto futures = w.bundle(client);
    for (auto& f : futures) {
      seen[static_cast<int>(mode)].push_back(observe(f, client));
    }
    EXPECT_EQ(futures[0].get(client), 1);
    EXPECT_EQ(futures[2].get(client), 3);
    bytes[static_cast<int>(mode)] = w.wire_bytes();
  }
  ASSERT_EQ(seen[0].size(), 3u);
  EXPECT_TRUE(seen[0][0].code == StatusCode::kOk && seen[0][0].epoch == 5);
  expect_refused(seen[0][1]);
  EXPECT_TRUE(seen[0][2].code == StatusCode::kOk && seen[0][2].epoch == 5);
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(bytes[0], bytes[1]);  // same packed response on the wire
}

TEST(Refusal, RefusalStopsTheServerChain) {
  Seen seen[2];
  for (const Mode mode : {Mode::kRefuse, Mode::kThrow}) {
    World w(mode);
    Actor client(0, 0, 1);
    auto f = w.engine.async_invoke_chain<int>(client, 1, w.no, {w.stage}, 3);
    seen[static_cast<int>(mode)] = observe(f, client);
    EXPECT_EQ(w.stage_calls, 0);
  }
  expect_refused(seen[0]);
  EXPECT_EQ(seen[0], seen[1]);
}

TEST(Refusal, RefusedDuplicateDeliveryInABundleRunsOnce) {
  std::vector<Seen> seen[2];
  for (const Mode mode : {Mode::kRefuse, Mode::kThrow}) {
    World w(mode);
    w.plan->trigger_at(1, OpClass::kBatchOp, 1, FaultKind::kDuplicate);
    Actor client(0, 0, 1);
    auto futures = w.bundle(client);
    for (auto& f : futures) {
      seen[static_cast<int>(mode)].push_back(observe(f, client));
    }
    EXPECT_EQ(w.no_calls, 1);  // the refused twin ends the op
    EXPECT_EQ(w.plan->counters().duplicates.load(), 1);
  }
  ASSERT_EQ(seen[0].size(), 3u);
  expect_refused(seen[0][1]);
  EXPECT_EQ(seen[0], seen[1]);
}

/// Caller clock after awaiting one future by wait() or by get().
Nanos clock_after(bool use_get, bool batched, bool refused) {
  World w(Mode::kRefuse);
  Actor client(0, 0, 1);
  const FuncId id = refused ? w.no : w.echo;
  Future<int> f;
  if (batched) {
    auto futures = w.bundle(client);
    f = std::move(futures[refused ? 1 : 0]);
  } else {
    f = w.engine.async_invoke<int>(client, 1, id, 4);
  }
  if (!use_get) {
    (void)f.wait(client);
  } else if (refused) {
    EXPECT_THROW((void)f.get(client), HclError);
  } else {
    (void)f.get(client);
  }
  return client.now();
}

TEST(Refusal, WaitAndGetChargeTheSamePull) {
  for (const bool batched : {false, true}) {
    for (const bool refused : {false, true}) {
      EXPECT_EQ(clock_after(false, batched, refused),
                clock_after(true, batched, refused))
          << "batched=" << batched << " refused=" << refused;
    }
  }
}

/// How a stub fails in the containment table below.
enum class Failure {
  kHclError,
  kStdException,
  kNonException,
  kRefusal,
  kUnbound
};
/// Where the failing stub sits: the invoked stub itself, the first chained
/// stage after a healthy one, or the middle op of a 3-op bundle.
enum class Position { kFirstStage, kChainStage, kBundleOp };

/// The code and message one (failure, position) case must resolve with.
Status expected_status(Failure failure, Position position, FuncId unbound) {
  switch (failure) {
    case Failure::kHclError:
      return Status(StatusCode::kCapacity, "CAPACITY: stub full");
    case Failure::kStdException:
      return Status::Internal("handler threw: stub died");
    case Failure::kNonException:
      return Status::Internal("handler threw a non-exception type");
    case Failure::kRefusal:
      return Status(StatusCode::kAborted, "ABORTED: stub says no");
    case Failure::kUnbound:
      return position == Position::kChainStage
                 ? Status::NotFound("chained handler missing")
                 : Status::NotFound("no handler bound for id " +
                                    std::to_string(unbound));
  }
  return Status::Ok();
}

// Failure containment is one step for every execution shape: each failure
// kind, at each position, resolves with the same code and message, stops the
// chain behind it, and leaves bundle siblings untouched.
TEST(Refusal, FailureContainmentAcrossExecutionShapes) {
  constexpr FuncId kUnbound = 424'242;
  for (const Failure failure :
       {Failure::kHclError, Failure::kStdException, Failure::kNonException,
        Failure::kRefusal, Failure::kUnbound}) {
    for (const Position position :
         {Position::kFirstStage, Position::kChainStage, Position::kBundleOp}) {
      SCOPED_TRACE("failure=" + std::to_string(static_cast<int>(failure)) +
                   " position=" + std::to_string(static_cast<int>(position)));
      World w(Mode::kRefuse);
      const FuncId bad =
          failure == Failure::kUnbound
              ? kUnbound
              : w.engine.bind<int, int>([failure](ServerCtx& sctx,
                                                  const int& v) -> int {
                  switch (failure) {
                    case Failure::kHclError:
                      throw HclError(Status::Capacity("stub full"));
                    case Failure::kStdException:
                      throw std::runtime_error("stub died");
                    case Failure::kNonException:
                      throw 42;  // NOLINT: deliberately not a std::exception
                    default:
                      sctx.status = Status::Aborted("stub says no");
                      return v;
                  }
                });
      const Status want = expected_status(failure, position, kUnbound);
      Actor client(0, 0, 1);
      if (position == Position::kBundleOp) {
        BatchPolicy manual;
        manual.max_ops = 64;
        manual.max_delay_ns = 0;
        Batcher batcher(w.engine, manual);
        auto first = batcher.enqueue<int>(client, 1, w.echo, 1);
        auto middle = batcher.enqueue<int>(client, 1, bad, 2);
        auto last = batcher.enqueue<int>(client, 1, w.echo, 3);
        batcher.flush_all(client);
        const Status st = middle.wait(client);
        EXPECT_EQ(st.code(), want.code());
        EXPECT_EQ(st.message(), want.message());
        EXPECT_EQ(first.get(client), 1);
        EXPECT_EQ(last.get(client), 3);
      } else {
        const std::vector<FuncId> chain =
            position == Position::kFirstStage
                ? std::vector<FuncId>{w.stage}
                : std::vector<FuncId>{bad, w.stage};
        const FuncId head = position == Position::kFirstStage ? bad : w.echo;
        auto f = w.engine.async_invoke_chain<int>(client, 1, head, chain, 3);
        const Status st = f.wait(client);
        EXPECT_EQ(st.code(), want.code());
        EXPECT_EQ(st.message(), want.message());
        EXPECT_EQ(w.stage_calls, 0);  // nothing runs behind a failed stage
      }
    }
  }
}

}  // namespace
}  // namespace hcl::rpc
