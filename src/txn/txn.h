// Cross-partition transactions with an epoch-validated optimistic commit
// (DESIGN.md §5h; ROADMAP item 1, after Storm's argument that a fast
// transactional dataplane is the step past one-shot remote ops).
//
// The protocol composes parts the codebase already ships:
//
//   * staging      — reads and writes buffer CLIENT-side in a Txn; each
//                    read records the epoch it observed (maps per key
//                    stripe, queues per queue; reads return the
//                    authoritative value, writes are "blind" until
//                    validated),
//   * validate+lock — one batched prepare bundle per target node: each
//                    participant takes no-wait locks on what it touches
//                    (map key stripes, the queue's intent slot; a rival
//                    holder → kAborted, never a queue), checks that no
//                    read went stale since, stores the journal-backed
//                    intent records, and stages them onto its replica chain,
//   * commit       — a second bundle applies every intent through the same
//                    apply_*/replicate_* paths ordinary writes use (journal,
//                    epoch bump, replication fan-out, cache completion), or
//   * abort        — a fan-out releases every lock; aborted intents
//                    were never applied, so rollback is O(participants) and
//                    leaves zero observable state (journal, cache, replicas).
//
// The commit sequence number (CSN) is drawn while every participant's locks
// are held, so CSN order IS a legal serial order — the property the
// serializability-oracle sweep replays against. Serializability is
// guaranteed among transactional ops; plain container ops interleave at op
// granularity (they take no locks), matching the "txn islands" contract
// FaRM-style OCC systems document.
//
// Interaction matrix (details in DESIGN.md §5h): intents ride the batch
// coalescer; commits bump partition epochs so ReadCache leases revalidate
// and aborts never touch the cache; prepare stages intents to the replica
// chain so a standby promotion can replay them (txn_commit's failover twin)
// or drop them (fo_txn_abort); the containers' rebalance latch is held
// shared for the whole commit so shard moves fence against in-flight
// transactions; every coordinator attempt ends as exactly one kTxn span
// plus one txn_commits or txn_aborts count on the coordinator's NIC.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/pool.h"
#include "core/context.h"
#include "rpc/batch.h"

namespace hcl::txn {

/// Process-wide transaction id source. Ids must be unique across every
/// coordinator and every retry attempt (a retried transaction re-runs under
/// a FRESH id so a stale intent slot from a dropped prepare response can
/// never be mistaken for the new attempt's).
inline std::atomic<std::uint64_t> g_txn_id{1};

/// Epoch sentinel for a queue participant that only pushes: the transaction
/// never read the queue, so prepare skips the epoch compare (the intent slot
/// still guards it against rival transactions).
inline constexpr std::uint64_t kBlindEpoch = ~std::uint64_t{0};

/// Why a participant refuses a prepare (DESIGN.md §5h): the NicCounters
/// abort-cause counter it bumps on the refusing node, and its message.
struct Refusal {
  fabric::NicCounters::Counter fabric::NicCounters::*cause;
  const char* why;

  /// Refuse sctx's op (a Status, not a throw: an abort is a routine outcome
  /// of OCC) and count the cause. The one refusal site of each core.
  void refuse(rpc::ServerCtx& sctx) const {
    (sctx.fabric->nic(sctx.node).counters().*cause)
        .fetch_add(1, std::memory_order_relaxed);
    sctx.status = Status::Aborted(why);
  }
};
inline constexpr Refusal kSlotHeld{&fabric::NicCounters::txn_abort_slot_held,
                                   "txn prepare: intent slot held"};
inline constexpr Refusal kEpochConflict{
    &fabric::NicCounters::txn_abort_conflict, "txn prepare: epoch conflict"};
inline constexpr Refusal kFenced{&fabric::NicCounters::txn_abort_moved,
                                 "txn prepare: partition moved since read"};
inline constexpr Refusal kKeyMoved{&fabric::NicCounters::txn_abort_moved,
                                   "txn prepare: key moved by rebalance"};
inline constexpr Refusal kUnderflow{&fabric::NicCounters::txn_abort_underflow,
                                    "txn prepare: queue underflow"};

/// Coordinator knobs. default_txn_policy() honors HCL_TXN_RETRIES so whole
/// suites can be tuned without code changes.
struct TxnPolicy {
  /// Abort-then-retry attempts run() makes after a validation conflict
  /// (kAborted). Other failures surface immediately.
  int max_retries = 8;
  /// Linear backoff before retry k waits k * backoff_ns in SIMULATED time,
  /// de-synchronizing rival coordinators the way the engine's exponential
  /// backoff de-synchronizes transport retries.
  sim::Nanos backoff_ns = 2 * sim::kMicrosecond;
  /// Flush policy for the prepare/commit bundles. Intents for co-located
  /// partitions coalesce into one RDMA_SEND per target node per phase;
  /// max_delay_ns is 0 because the coordinator flushes explicitly.
  rpc::BatchPolicy batch{/*max_ops=*/16, /*max_bytes=*/32 << 10,
                         /*max_delay_ns=*/0};
};

inline TxnPolicy default_txn_policy() {
  static const TxnPolicy policy = [] {
    TxnPolicy p;
    p.max_retries = env_number("HCL_TXN_RETRIES", p.max_retries, 0);
    return p;
  }();
  return policy;
}

/// One (container, partition) a transaction touched. Containers implement
/// this next to their server stubs (they know the wire format, FuncIds, and
/// failover layout); the coordinator drives the protocol through it.
class ParticipantBase {
 public:
  virtual ~ParticipantBase() = default;

  /// Enqueue this participant's validate+lock op onto the prepare bundle.
  virtual void enqueue_prepare(sim::Actor& self, rpc::Batcher& batch,
                               std::uint64_t txn_id) = 0;
  /// Await the prepare. Ok = epoch validated and intent slot held. kAborted
  /// = validation conflict (retryable by re-running the whole transaction).
  /// kUnavailable = the partition's node is down — fail fast, no standby
  /// reroute (the promoted stream's fenced epochs cannot be validated
  /// against a primary-captured snapshot).
  [[nodiscard]] virtual Status settle_prepare(sim::Actor& self) = 0;

  /// Enqueue this participant's commit op (apply intents, bump epochs).
  virtual void enqueue_commit(sim::Actor& self, rpc::Batcher& batch,
                              std::uint64_t txn_id) = 0;
  /// Await the commit. Commits are idempotent server-side, so participants
  /// re-invoke on transient failures and reroute to the commit's failover
  /// twin on the standby when the primary died between prepare-ack and commit.
  [[nodiscard]] virtual Status settle_commit(sim::Actor& self,
                                             std::uint64_t txn_id) = 0;

  /// Roll this participant back: clear the intent slot (no-op for a rival
  /// or already-resolved txn_id) and drop staged replica records. Must not
  /// throw — abort runs on every failure path, dead nodes included.
  virtual void send_abort(sim::Actor& self, std::uint64_t txn_id) noexcept = 0;

  /// The owning container's rebalance latch (null when rebalancing is off).
  /// The coordinator holds every distinct latch SHARED across the whole
  /// prepare→commit window, so split/merge/migrate (exclusive holders)
  /// fence against in-flight transactions instead of tearing intents.
  [[nodiscard]] virtual std::shared_mutex* latch() const noexcept = 0;
};

/// Frees a participant into its type's PoolAllocator free list.
struct ParticipantDelete {
  void (*destroy)(ParticipantBase*) = nullptr;
  void operator()(ParticipantBase* p) const noexcept { destroy(p); }
};
using ParticipantPtr = std::unique_ptr<ParticipantBase, ParticipantDelete>;

/// Build a P (a container's participant) in a block from the thread's
/// PoolAllocator<P> free list, so a transaction's participants reuse the
/// storage an earlier transaction's freed.
template <typename P, typename... A>
ParticipantPtr make_participant(A&&... args) {
  PoolAllocator<P> alloc;
  P* p = alloc.allocate(1);
  try {
    ::new (static_cast<void*>(p)) P(std::forward<A>(args)...);
  } catch (...) {
    alloc.deallocate(p, 1);
    throw;
  }
  return ParticipantPtr(p, ParticipantDelete{[](ParticipantBase* base) {
                          P* q = static_cast<P*>(base);
                          q->~P();
                          PoolAllocator<P>{}.deallocate(q, 1);
                        }});
}

/// A staged transaction: client-side read/write intents per touched
/// (container, partition). Cheap to create and to throw away — nothing
/// leaves the client until TxnCoordinator::commit ships the prepare bundle.
/// Its participant list and the participants themselves come from the
/// thread's pools (common/pool.h).
class Txn {
 public:
  explicit Txn(std::uint64_t id) noexcept : id_(id) {}
  ~Txn() { VectorPool<Entry>::give(std::move(entries_)); }

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;
  Txn(Txn&&) = default;
  Txn& operator=(Txn&&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Find-or-create the participant for (container, partition). `make`
  /// builds the container-specific participant on first touch
  /// (make_participant).
  template <typename P, typename Make>
  P& participant(const void* container, int partition, Make&& make) {
    for (auto& e : entries_) {
      if (e.container == container && e.partition == partition) {
        return static_cast<P&>(*e.part);
      }
    }
    entries_.push_back(Entry{container, partition, make()});
    return static_cast<P&>(*entries_.back().part);
  }

  /// Call `fn(ParticipantBase&)` for every participant, in first-touch
  /// order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& e : entries_) fn(*e.part);
  }

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

 private:
  struct Entry {
    const void* container;
    int partition;
    ParticipantPtr part;
  };

  std::uint64_t id_;
  std::vector<Entry> entries_ = VectorPool<Entry>::take();
};

/// Drives the two-phase epoch-validated commit. One coordinator is shared by
/// all ranks (like the containers themselves); commits_/aborts_/retries_
/// aggregate across them and reconcile with the per-NIC txn_* counters.
class TxnCoordinator {
 public:
  explicit TxnCoordinator(Context& ctx, TxnPolicy policy = default_txn_policy())
      : ctx_(&ctx), policy_(policy) {}

  TxnCoordinator(const TxnCoordinator&) = delete;
  TxnCoordinator& operator=(const TxnCoordinator&) = delete;

  [[nodiscard]] Txn begin() {
    return Txn(g_txn_id.fetch_add(1, std::memory_order_relaxed));
  }

  /// Run the staged transaction through prepare → commit (or abort). On Ok,
  /// *csn receives the commit sequence number — drawn while every intent
  /// slot is held, so CSN order is a legal serial order. kAborted means a
  /// rival won validation (retryable); kUnavailable means a touched node is
  /// down. Either way every intent slot has been released.
  Status commit(sim::Actor& self, Txn& txn, std::uint64_t* csn = nullptr) {
    const sim::Nanos start = self.now();

    // Fence shard moves: hold every distinct container latch shared for the
    // whole commit.
    const LatchHold held(txn);

    // Phase 1: validate + lock. One bundle per target node.
    {
      rpc::Batcher prep(ctx_->rpc(), policy_.batch);
      txn.for_each(
          [&](ParticipantBase& p) { p.enqueue_prepare(self, prep, txn.id()); });
      prep.flush_all(self);
    }
    Status bad = Status::Ok();
    txn.for_each([&](ParticipantBase& p) {
      const Status st = p.settle_prepare(self);
      if (!st.ok() && bad.ok()) bad = st;
    });
    const sim::Nanos validated = self.now();
    if (!bad.ok()) {
      // Abort EVERY participant, including ones whose prepare "failed": a
      // dropped response may have left the slot held server-side, and abort
      // is idempotent everywhere else.
      abort_all(self, txn);
      finish(self, start, validated, self.now(), /*committed=*/false,
             bad.code());
      return bad;
    }

    // Every slot is held: this CSN's position is the serial position.
    const std::uint64_t csn_value =
        next_csn_.fetch_add(1, std::memory_order_relaxed);

    // Phase 2: apply intents, bump epochs, release slots.
    const sim::Nanos committing = self.now();
    {
      rpc::Batcher apply(ctx_->rpc(), policy_.batch);
      txn.for_each(
          [&](ParticipantBase& p) { p.enqueue_commit(self, apply, txn.id()); });
      apply.flush_all(self);
    }
    txn.for_each([&](ParticipantBase& p) {
      const Status st = p.settle_commit(self, txn.id());
      if (!st.ok() && bad.ok()) bad = st;
    });
    if (!bad.ok()) {
      // A commit leg failed terminally (possible only when a partition with
      // no replica died mid-commit — documented limitation). Release any
      // still-held slots; participants that already applied are unaffected
      // (abort is a no-op after commit). Counted as an abort for span and
      // counter parity.
      abort_all(self, txn);
      finish(self, start, validated, committing, /*committed=*/false,
             bad.code());
      return bad;
    }

    if (csn != nullptr) *csn = csn_value;
    finish(self, start, validated, committing, /*committed=*/true,
           StatusCode::kOk);
    return Status::Ok();
  }

  /// Stage-and-commit with the abort-then-retry loop: `fn(Txn&)` stages the
  /// transaction body (it may throw HclError on a read failure or an eager
  /// client-side conflict), then commit() runs it. kAborted outcomes re-run
  /// `fn` under a FRESH txn id with linear simulated-time backoff, up to
  /// max_retries times; anything else surfaces immediately.
  template <typename Fn>
  Status run(sim::Actor& self, Fn&& fn, std::uint64_t* csn = nullptr) {
    if (policy_.max_retries < 0) {
      return Status::Aborted("txn retry budget exhausted");
    }
    Status last;  // every attempt sets it
    for (int attempt = 0; attempt <= policy_.max_retries; ++attempt) {
      if (attempt > 0) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        ctx_->fabric().nic(self.node()).counters().txn_retries.fetch_add(
            1, std::memory_order_relaxed);
        if (policy_.backoff_ns > 0) self.advance(policy_.backoff_ns * attempt);
      }
      Txn txn = begin();
      const sim::Nanos start = self.now();
      try {
        fn(txn);
      } catch (const HclError& e) {
        // Staging failed before anything shipped: no server-side state
        // exists (prepare only runs inside commit()), so there is nothing
        // to roll back — record the abort and decide on retry.
        finish(self, start, self.now(), self.now(), /*committed=*/false,
               e.code());
        last = Status(e.code(), e.what());
        if (e.code() == StatusCode::kAborted) continue;
        return last;
      }
      last = commit(self, txn, csn);
      if (last.code() != StatusCode::kAborted) return last;
    }
    return last;
  }

  // ------------------------------------------------------------------
  // High-level multi-key ops (ROADMAP item 1's headline shapes). All are
  // run() wrappers, so each inherits the abort-then-retry loop.
  // ------------------------------------------------------------------

  /// Atomically upsert every pair — all visible or none, across partitions
  /// and containers' shard moves.
  template <typename Map, typename K, typename V>
  Status multi_put(sim::Actor& self, Map& map,
                   const std::vector<std::pair<K, V>>& pairs,
                   std::uint64_t* csn = nullptr) {
    return run(
        self,
        [&](Txn& t) {
          for (const auto& [k, v] : pairs) map.txn_put(t, k, v);
        },
        csn);
  }

  /// Compare-and-swap on a key's VALUE: swap to `desired` iff the key is
  /// present and currently equals `expected`. *swapped reports whether the
  /// swap happened (a committed "no" is a successful transaction).
  template <typename Map, typename K, typename V>
  Status compare_and_swap_value(sim::Actor& self, Map& map, const K& key,
                                const V& expected, const V& desired,
                                bool* swapped = nullptr,
                                std::uint64_t* csn = nullptr) {
    bool did = false;
    const Status st = run(
        self,
        [&](Txn& t) {
          V current{};
          const bool found = map.txn_find(self, t, key, &current);
          did = found && current == expected;
          if (did) map.txn_put(t, key, desired);
        },
        csn);
    if (swapped != nullptr) *swapped = st.ok() && did;
    return st;
  }

  /// Read-modify-write: `fn(std::optional<V>&)` sees the current value (or
  /// nullopt) and leaves the desired one (nullopt = erase). The write is
  /// epoch-validated against the read, so a racing writer aborts us instead
  /// of being silently overwritten.
  template <typename Map, typename K, typename F>
  Status read_modify_write(sim::Actor& self, Map& map, const K& key, F&& fn,
                           std::uint64_t* csn = nullptr) {
    return run(
        self,
        [&](Txn& t) {
          typename Map::mapped_type current{};
          const bool found = map.txn_find(self, t, key, &current);
          std::optional<typename Map::mapped_type> value;
          if (found) value.emplace(std::move(current));
          fn(value);
          if (value.has_value()) {
            map.txn_put(t, key, *value);
          } else if (found) {
            map.txn_erase(t, key);
          }
        },
        csn);
  }

  /// Cross-container transfer: pop the queue's front and insert it into the
  /// map under `make_kv(item) -> {key, value}` — atomically. An empty queue
  /// commits a no-op (*transferred = false); the popped item can never be
  /// lost or duplicated, the A10 ablation's invariant.
  template <typename Queue, typename Map, typename MakeKV>
  Status transfer(sim::Actor& self, Queue& from, Map& to, MakeKV&& make_kv,
                  bool* transferred = nullptr, std::uint64_t* csn = nullptr) {
    bool moved = false;
    const Status st = run(
        self,
        [&](Txn& t) {
          moved = false;
          typename Queue::value_type item{};
          if (!from.txn_pop(self, t, &item)) return;
          auto kv = make_kv(std::move(item));
          to.txn_put(t, kv.first, kv.second);
          moved = true;
        },
        csn);
    if (transferred != nullptr) *transferred = st.ok() && moved;
    return st;
  }

  [[nodiscard]] std::int64_t commits() const noexcept {
    return commits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t aborts() const noexcept {
    return aborts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t retries() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const TxnPolicy& policy() const noexcept { return policy_; }

 private:
  /// Holds the distinct rebalance latches of a txn's participants shared
  /// for its lifetime. Address order prevents two opposite-direction
  /// transfers from deadlocking on each other's latch; each pass picks the
  /// next latch above the last one taken, so nothing is collected.
  class LatchHold {
   public:
    explicit LatchHold(const Txn& txn) : txn_(txn) {
      each([](std::shared_mutex& l) { l.lock_shared(); });
    }
    ~LatchHold() {
      each([](std::shared_mutex& l) { l.unlock_shared(); });
    }
    LatchHold(const LatchHold&) = delete;
    LatchHold& operator=(const LatchHold&) = delete;

   private:
    template <typename Fn>
    void each(Fn&& fn) const {
      const std::less<const std::shared_mutex*> before;
      const std::shared_mutex* last = nullptr;
      for (;;) {
        std::shared_mutex* next = nullptr;
        txn_.for_each([&](ParticipantBase& p) {
          std::shared_mutex* l = p.latch();
          if (l != nullptr && (last == nullptr || before(last, l)) &&
              (next == nullptr || before(l, next))) {
            next = l;
          }
        });
        if (next == nullptr) return;
        fn(*next);
        last = next;
      }
    }

    const Txn& txn_;
  };

  /// Fan the abort out to EVERY participant. Idempotent at every receiver:
  /// a slot held by a rival txn, an already-committed txn, or no txn at all
  /// is left untouched.
  void abort_all(sim::Actor& self, Txn& txn) noexcept {
    txn.for_each([&](ParticipantBase& p) { p.send_abort(self, txn.id()); });
  }

  /// Record one attempt's outcome: exactly one kTxn span and exactly one
  /// txn_commits or txn_aborts count, both on the coordinator's NIC — the
  /// reconciliation the sweep and A10 assert. The span is fabricated
  /// client-side (like migration spans): validate = issue→inject_done,
  /// commit/abort = exec_start→handler_end.
  void finish(sim::Actor& self, sim::Nanos start, sim::Nanos validated,
              sim::Nanos resolving, bool committed, StatusCode code) {
    auto& counters = ctx_->fabric().nic(self.node()).counters();
    (committed ? counters.txn_commits : counters.txn_aborts)
        .fetch_add(1, std::memory_order_relaxed);
    (committed ? commits_ : aborts_).fetch_add(1, std::memory_order_relaxed);
    if (auto* tracer = ctx_->tracer_if_enabled()) {
      auto span = std::make_shared<obs::Span>();
      span->kind = obs::SpanKind::kTxn;
      span->target = self.node();
      span->client_rank = self.rank();
      span->status = code;
      span->issue_ns = start;
      span->inject_done_ns = validated;  // validate stage (prepare settled)
      span->arrival_ns = resolving;      // commit/abort bundle enqueued
      span->exec_start_ns = resolving;
      span->handler_end_ns = self.now();
      span->ready_ns = self.now();
      tracer->commit(span);
    }
  }

  Context* ctx_;
  TxnPolicy policy_;
  std::atomic<std::uint64_t> next_csn_{1};
  std::atomic<std::int64_t> commits_{0};
  std::atomic<std::int64_t> aborts_{0};
  std::atomic<std::int64_t> retries_{0};
};

}  // namespace hcl::txn
