// core::HostedQueue<Store> — the one distribution layer under both
// distributed queues (paper §III.D.3):
//
//   hcl::queue<T>                = HostedQueue<FifoStore<T>>       (§III.D.3A)
//   hcl::priority_queue<T, Less> = HostedQueue<HeapStore<T, Less>> (§III.D.3B)
//
// Single-partitioned (splitting a queue across partitions would violate its
// ordering property, §III.D) but globally visible: every rank can push/pop.
// The partition is hosted on `options.first_node`; co-located ranks take the
// hybrid shared-memory path, running the op's own server body in their
// thread, and remote ranks go through one RPC per op (or per bulk op —
// Table I lists the vector forms with cost F + L + E·W / E·R).
// The local store (core/stores.h) is the lock-free MS queue or the
// skiplist-backed priority queue (DESIGN.md §5 substitution for the
// multi-dimensional-list design); the latter's push carries the O(log n)
// ordering cost (Table I: F + L·log N + W) through Store::descent(), while
// pop-min stays F + L + R. The ISx kernel exploits exactly this: pushing
// keys keeps them sorted "for free" behind the network (Fig. 7a).
// With replication the standby mirrors the host and takes over while it is
// down (DESIGN.md §5f); every op's server body is written once against a
// serving side and bound twice, as its primary FuncId and failover twin.
// Routing, failover state, repair, txn participant legs and the record format
// come from core/failover.h, for which the queue is a one-partition lane.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bulk.h"
#include "core/context.h"
#include "core/failover.h"
#include "core/stores.h"
#include "rpc/batch.h"
#include "rpc/engine.h"
#include "serial/databox.h"
#include "txn/txn.h"

namespace hcl {
namespace core {

template <typename Store>
class HostedQueue {
  using T = typename Store::value_type;
  class TxnParticipant;  // defined with the txn internals below

 public:
  using value_type = T;

  HostedQueue(Context& ctx, core::ContainerOptions options = {})
      : ctx_(&ctx),
        node_(core::partition_node(options, ctx.topology(), 0)),
        standby_node_((core::partition_node(options, ctx.topology(), 0) + 1) %
                      ctx.topology().num_nodes()),
        options_(options),
        bindings_(ctx, options.shm.enabled) {
    // Degenerate replica placement (DESIGN.md §5f): a mirror co-located
    // with the host would vanish with it on one node loss.
    if (options_.replication >= 1 && standby_node_ == node_) {
      throw HclError(Status::InvalidArgument(
          "replication requires a standby on a distinct node; "
          "add nodes or drop replication"));
    }
    if (!options_.persist_path.empty()) {
      // Sequential replay: a push inserts, a pop removes the then-front (or
      // then-minimum) — converging exactly to the survivors for every
      // store, since pop-min depends on WHICH elements were live then.
      journal_.open(ctx_->fabric().memory(node_),
                    options_.persist_path + Store::kJournalSuffix,
                    options_.sync_mode, [&](Record rec) {
                      if (rec.op == LogOp::kPush) {
                        impl_.push(std::move(rec.value));
                      } else {
                        (void)impl_.pop(&rec.value);  // discarded
                      }
                    });
    }
    bind_handlers();
  }

  HostedQueue(const HostedQueue&) = delete;
  HostedQueue& operator=(const HostedQueue&) = delete;

  /// The queue's record shape (core/failover.h) for its journals and intent
  /// blobs: a push carries its value, a pop nothing.
  enum class LogOp : std::uint8_t { kPush = 1, kPop = 2 };
  using Record = core::Record<LogOp, LogOp::kPop, LogOp::kPop, core::NoKey, T>;

  /// Push one element. Cost: F + L + W (remote), L + W (co-located).
  bool push(const T& value) {
    return call(push_, &HostedQueue::push_body, value);
  }

  /// Bulk push (Table I: F + L + E·W) — one invocation, E elements.
  bool push(const std::vector<T>& values) {
    return call(push_bulk_, &HostedQueue::push_bulk_body, values);
  }

  /// Coalesced bulk push: elements ship as per-op invocations bundled under
  /// `options.batch` (one RDMA_SEND per tripped bundle), each journaled as
  /// its own per-op record — unlike the vector-payload push() above, a fault
  /// mid-bundle fails only the elements it touched. With `statuses` non-null
  /// per-element Statuses are recorded and nothing throws; otherwise the
  /// first failure throws HclError. results[i] is push(values[i]).
  std::vector<bool> push_batch(const std::vector<T>& values,
                               std::vector<Status>* statuses = nullptr) {
    sim::Actor& self = sim::this_actor();
    std::vector<bool> results(values.size(), false);
    if (statuses != nullptr) statuses->assign(values.size(), Status::Ok());
    rpc::Batcher batcher(ctx_->rpc(), options_.batch,
                         ctx_->rpc().default_options());
    const Lane host = lane();
    std::vector<std::pair<std::size_t, rpc::Future<bool>>> remote;
    remote.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      core::route(
          *ctx_, self, host,
          [&](rpc::ServerCtx& sctx) {
            results[i] = push_body(sctx, Side::kPrimary, values[i]);
          },
          [&](const auto& to) {
            remote.emplace_back(i, core::enqueue<bool>(batcher, self, host, to,
                                                       push_, values[i]));
          });
    }
    core::settle_batch(
        ctx_->op_stats(), batcher, self, remote, results, statuses,
        [](std::size_t, const rpc::Future<bool>&, bool) {},
        [&](std::size_t i) {
          return core::rescue<bool>(*ctx_, self, host, push_, values[i]);
        });
    return results;
  }

  /// Pop one element; false when the queue is empty.
  bool pop(T* out) {
    std::optional<T> result = call(pop_, &HostedQueue::pop_body);
    if (result.has_value() && out != nullptr) *out = std::move(*result);
    return result.has_value();
  }

  /// Bulk pop of up to `count` elements (Table I: F + L + E·R).
  std::size_t pop(std::vector<T>* out, std::size_t count) {
    std::vector<T> got = call(pop_bulk_, &HostedQueue::pop_bulk_body,
                              static_cast<std::uint64_t>(count));
    for (auto& v : got) out->push_back(std::move(v));
    return got.size();
  }

  /// Async push. Co-located callers take the hybrid shared-memory path —
  /// the op applies immediately at local cost and the returned future is
  /// already resolved (awaiting it is free); only remote callers cross the
  /// wire and count as remote invocations.
  rpc::Future<bool> async_push(const T& value) {
    return call_async(push_, &HostedQueue::push_body, value);
  }

  /// Async pop (hybrid fast path as async_push; nullopt when empty).
  rpc::Future<std::optional<T>> async_pop() {
    return call_async(pop_, &HostedQueue::pop_body);
  }

  // ---- transactions (DESIGN.md §5h) ---------------------------------
  // The queue joins cross-container transactions as one participant (it is
  // single-partitioned). Intents are a log — pushes append at the staged
  // tail, pops consume from the pre-transaction front. txn_commit applies
  // every staged pop BEFORE any staged push, so a transaction never
  // consumes its own pushed element, even one that would be the new
  // minimum; for a FIFO store this equals staging order, since prepare
  // bounds the pops by the pre-transaction length. Serializability holds
  // among transactional ops; mixing PLAIN pops with transactional pops on
  // the same queue voids the pop-atomicity guarantee (plain ops do not
  // consult intent slots — the "txn islands" contract, see txn/txn.h).

  /// Stage a push. Blind (no epoch capture): order among rival transactions
  /// is fixed by their CSNs, not by staging time.
  void txn_push(txn::Txn& t, const T& value) {
    participant(t).stage(LogOp::kPush, &value);
  }

  /// Read the element the transaction's NEXT staged pop would consume (the
  /// k-th from the pre-transaction front after k staged pops) and stage that
  /// pop. False — and nothing staged — when fewer than k+1 elements are
  /// queued; a transaction never pops its own staged pushes. The queue epoch
  /// is captured even on the empty path, so prepare re-validates emptiness.
  /// Stores with Store::kOneStagedPop throw FailedPrecondition on a second.
  bool txn_pop(sim::Actor& self, txn::Txn& t, T* out) {
    TxnParticipant& part = participant(t);
    const std::size_t k = part.staged_pops();
    check_pop_limit(k);
    const auto n = static_cast<std::uint64_t>(k);
    std::uint64_t epoch = 0;
    auto result = core::txn_read<std::optional<T>>(
        *ctx_, self, lane(),
        [&](rpc::ServerCtx& sctx) { return txn_peek_body(sctx, n); }, &epoch,
        txn_peek_id_, n);
    part.note_epoch(self, epoch);
    if (!result.has_value()) return false;
    part.stage(LogOp::kPop, nullptr);
    if (out != nullptr) *out = std::move(*result);
    return true;
  }

  /// Diagnostic: is a prepared transaction's intent slot currently held?
  [[nodiscard]] bool txn_slot_held() {
    std::lock_guard<std::mutex> guard(txn_mutex_);
    return txn_holder_ != 0;
  }

  [[nodiscard]] sim::NodeId host_node() const noexcept { return node_; }
  [[nodiscard]] sim::NodeId standby_node() const noexcept { return standby_node_; }
  [[nodiscard]] std::size_t size() const { return impl_.size(); }
  [[nodiscard]] bool empty() const { return impl_.empty(); }

  /// Eager recovery point (DESIGN.md §5f): replay the promoted standby's
  /// journal into the rejoined host and clear its stale route mark. No-op
  /// while the host is still down or nothing is promoted.
  void heal(sim::Actor& self) { core::heal(*ctx_, self, lane()); }

  /// Failover diagnostics (DESIGN.md §5f).
  [[nodiscard]] bool promoted() { return fo_.is_promoted(); }
  [[nodiscard]] std::size_t repair_backlog() { return fo_.backlog(); }
  /// Elements mirrored onto the standby (diagnostics).
  [[nodiscard]] std::size_t mirror_size() const { return mirror_.size(); }

  /// Re-home the queue onto `node` (DESIGN.md §5g): the host — and the
  /// standby slot that trails it — change; contents ride the bulk lane as
  /// one transfer (bytes estimated from the element count; elements are
  /// in-process, so no physical copy). Requires rebalancing enabled and
  /// quiescent failover state. Returns false when already on `node`.
  bool migrate(int node) {
    sim::Actor& self = sim::this_actor();
    if (!options_.rebalance.enabled) {
      throw HclError(Status::FailedPrecondition(
          "rebalancing disabled; set ContainerOptions::rebalance.enabled"));
    }
    if (node < 0 || node >= ctx_->topology().num_nodes()) {
      throw HclError(Status::InvalidArgument("migrate: bad node"));
    }
    if (ctx_->fabric().node_down(node)) {
      throw HclError(Status::Unavailable("migrate: target node down"));
    }
    if (ctx_->fabric().node_down(node_)) {
      throw HclError(
          Status::FailedPrecondition("rebalance: queue host is down"));
    }
    std::lock_guard<std::mutex> guard(fo_.mutex);
    if (fo_.promoted) {
      throw HclError(Status::FailedPrecondition(
          "rebalance: queue promoted; heal() first"));
    }
    {
      // Prepared intents pin the host: moving it would orphan the intent
      // slot and the standby's staged records (DESIGN.md §5h).
      std::lock_guard<std::mutex> txn_guard(txn_mutex_);
      if (txn_holder_ != 0 || !staged_.empty()) {
        throw HclError(Status::FailedPrecondition(
            "rebalance: transaction intents pending"));
      }
    }
    if (node == node_) return false;
    const sim::Nanos start = self.now();
    const auto elements = static_cast<std::int64_t>(impl_.size());
    const std::int64_t bytes = elements * bytes_of(T{});
    const sim::NodeId src = node_;
    node_ = node;
    standby_node_ = (node + 1) % ctx_->topology().num_nodes();
    // The move is a mutation: staged-but-unprepared transactions that read
    // the old home must fail validation rather than commit across it.
    epoch_.fetch_add(1, std::memory_order_release);
    core::charge_move(*ctx_, options_, self, src, node_, elements, bytes,
                      start);
    return true;
  }

 private:
  /// Stores whose pop target moves after the first staged pop
  /// (Store::kOneStagedPop) accept one staged pop per transaction.
  static void check_pop_limit(std::size_t) {}
  static void check_pop_limit(std::size_t staged)
    requires Store::kOneStagedPop
  {
    if (staged > 0) {
      throw HclError(Status::FailedPrecondition(
          "txn pop: priority queue supports one staged pop per transaction"));
    }
  }

  static std::int64_t bytes_of(const T& v) {
    return static_cast<std::int64_t>(serial::packed_size(v));
  }

  /// Writes (pushes) pay the store's descent — flat for FIFO, L·log N for
  /// the priority queue; reads (pops, peeks) are flat for every store.
  [[nodiscard]] core::Descent descent(bool write) const {
    return write ? impl_.descent(ctx_->model()) : core::Descent{};
  }

  // ---- serving sides (DESIGN.md §5f) ---------------------------------

  /// Where one queue op executes. The primary side is the host: impl_, the
  /// persist journal and epoch_, mirrored onto the standby. The standby
  /// side is entered under fo_.mutex once the host is confirmed down and
  /// the mirror promoted (FailoverState::enter_standby): mirror_ plus the
  /// failover journal the repair pass replays; it keeps no epoch and never
  /// mirrors.
  enum class Side : std::uint8_t { kPrimary, kStandby };

  [[nodiscard]] Store& store(Side s) {
    return s == Side::kStandby ? mirror_ : impl_;
  }

  void apply_push(Side s, const T& value) {
    store(s).push(value);
    record(s, LogOp::kPush, &value);
  }
  bool apply_pop(Side s, T* out) {
    // pop_mutex_ serializes payload-moving pops against txn_peek's
    // traversal (MsQueue::peek's external-serialization contract) and keeps
    // a priority queue's min snapshot consistent with its captured epoch.
    std::lock_guard<std::mutex> guard(pop_mutex_);
    const bool ok = store(s).pop(out);
    if (ok) record(s, LogOp::kPop, nullptr);
    return ok;
  }

  /// Journal one applied op: the persist journal plus an epoch bump
  /// (primary), or the failover journal (standby).
  void record(Side s, LogOp op, const T* value) {
    if (s == Side::kStandby) {
      fo_.journal.emplace_back(op, core::NoKey{}, value);
      return;
    }
    journal_.append(op, {}, value);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  /// The one record-apply loop — txn_commit on either side and the repair
  /// replay — in the order given. A pop that finds the store empty applies
  /// nothing: a PLAIN pop raced the commit window, outside the txn-islands
  /// guarantee. With `mirrored`, each applied op is mirrored at `ready`
  /// (primary side only); the repair replay passes false, because the
  /// mirror already holds every op it replays.
  void apply_records(Side s, const std::vector<Record>& recs,
                     sim::Nanos ready, bool mirrored) {
    for (const Record& rec : recs) {
      T scratch{};
      if (rec.op == LogOp::kPush) {
        apply_push(s, rec.value);
      } else if (!apply_pop(s, &scratch)) {
        continue;
      }
      if (mirrored) mirror(s, ready, rec.op, &rec.value);
    }
  }
  static std::int64_t record_bytes(const std::vector<Record>& recs) {
    std::int64_t bytes = 0;
    for (const Record& rec : recs) {
      bytes += rec.op == LogOp::kPush ? bytes_of(rec.value) : 8;
    }
    return bytes;
  }

  // ---- failover & recovery (DESIGN.md §5f) --------------------------
  // Queues are single-partitioned, so replication means a whole-structure
  // mirror: with `options.replication >= 1` every push/pop on the host
  // fans out (fire-and-forget, like the maps' replica stubs) to a mirror
  // queue hosted on the next node. When the host dies the mirror is
  // promoted — FIFO (or min) order is preserved because the inline fan-out
  // applies mirror ops in the same order as the host, so the mirror holds
  // the same sequence (or multiset) — and rejoin replays the promoted
  // journal back through the host's journaling push/pop paths.

  [[nodiscard]] bool has_standby() const noexcept {
    return options_.replication >= 1 && standby_node_ != node_;
  }

  /// The queue's one partition as core/failover.h routes it: the host, the
  /// mirror while it is live, and the repair pass (the repair stub takes
  /// the journal alone).
  struct Lane {
    HostedQueue* owner;
    [[nodiscard]] sim::NodeId node() const { return owner->node_; }
    [[nodiscard]] std::tuple<> prefix() const { return {}; }
    [[nodiscard]] std::optional<core::Standby<>> standby() const {
      if (!owner->has_standby() ||
          owner->ctx_->fabric().node_down(owner->standby_node_)) {
        return std::nullopt;
      }
      return core::Standby<>{owner->standby_node_, {}};
    }
    void repair(sim::Actor& self) const {
      owner->fo_.repair(
          *owner->ctx_, self, *this, owner->repair_id_,
          [](std::uint64_t) { return std::tuple<>(); }, [](std::uint64_t) {});
    }
  };
  [[nodiscard]] Lane lane() { return Lane{this}; }

  /// The sync and async shapes of op `op`: its server body `body` on the
  /// host side, shipped with `args`, through the one client route.
  template <typename R, typename... Args>
  using Body = R (HostedQueue::*)(rpc::ServerCtx&, Side, const Args&...);
  template <typename R, typename... Args>
  R call(const core::Twins& op, Body<R, Args...> body,
         const std::type_identity_t<Args>&... args) {
    return core::call<R>(*ctx_, sim::this_actor(), lane(), op,
                         primary_body(body, args...), args...);
  }
  template <typename R, typename... Args>
  rpc::Future<R> call_async(const core::Twins& op, Body<R, Args...> body,
                            const std::type_identity_t<Args>&... args) {
    return core::call_async<R>(*ctx_, sim::this_actor(), lane(), op,
                               primary_body(body, args...), args...);
  }
  template <typename R, typename... Args>
  auto primary_body(Body<R, Args...> body, const Args&... args) {
    return [this, body, &args...](rpc::ServerCtx& sctx) {
      return (this->*body)(sctx, Side::kPrimary, args...);
    };
  }

  /// Mirror one primary-side op onto the standby; the standby side never
  /// mirrors.
  void mirror(Side s, sim::Nanos ready, LogOp op, const T* value) {
    if (s == Side::kStandby || !has_standby()) return;
    if (op == LogOp::kPush) {
      ctx_->rpc().server_invoke(node_, standby_node_, ready, replica_push_id_,
                                *value);
    } else {
      ctx_->rpc().server_invoke(node_, standby_node_, ready, replica_pop_id_);
    }
  }

  // ---- transaction internals (DESIGN.md §5h) ------------------------

  static std::size_t pops(const std::vector<Record>& recs) {
    return static_cast<std::size_t>(
        std::count_if(recs.begin(), recs.end(),
                      [](const Record& rec) { return rec.op == LogOp::kPop; }));
  }
  /// Commit order (see the public txn notes): every staged pop, then every
  /// staged push, each in staging order.
  static std::vector<Record> in_commit_order(std::vector<Record> intents) {
    std::stable_partition(
        intents.begin(), intents.end(),
        [](const Record& rec) { return rec.op == LogOp::kPop; });
    return intents;
  }

  /// The queue's participant: the shared legs (core::Participant) over its
  /// one lane, plus staging. The intent list is an ordered log; see the
  /// public txn section for the visibility contract.
  class TxnParticipant : public core::Participant<Lane, Record> {
   public:
    explicit TxnParticipant(HostedQueue* owner)
        : core::Participant<Lane, Record>(*owner->ctx_, Lane{owner},
                                          owner->txn_commit_,
                                          owner->txn_abort_) {}

    void stage(LogOp op, const T* value) {
      this->intents_.emplace_back(op, core::NoKey{}, value);
    }

    [[nodiscard]] std::size_t staged_pops() const {
      return pops(this->intents_);
    }

    /// Capture the queue epoch at first contact; a later read observing a
    /// different epoch aborts eagerly, before the prepare ever ships.
    void note_epoch(sim::Actor& self, std::uint64_t epoch) {
      if (expected_epoch_ == txn::kBlindEpoch) {
        expected_epoch_ = epoch;
      } else if (expected_epoch_ != epoch) {
        this->ctx_->fabric().nic(self.node()).counters().txn_abort_eager
            .fetch_add(1, std::memory_order_relaxed);
        throw HclError(Status::Aborted("txn read: queue epoch moved"));
      }
    }

    void enqueue_prepare(sim::Actor& self, rpc::Batcher& batch,
                         std::uint64_t txn_id) override {
      this->enqueue_prepare_call(self, batch,
                                 this->lane_.owner->txn_prepare_id_, txn_id,
                                 expected_epoch_);
    }

    [[nodiscard]] std::shared_mutex* latch() const noexcept override {
      return nullptr;  // queues fence migrate via the intent-slot refusal
    }

   private:
    std::uint64_t expected_epoch_ = txn::kBlindEpoch;
  };

  TxnParticipant& participant(txn::Txn& t) {
    return t.template participant<TxnParticipant>(
        this, 0, [&] { return txn::make_participant<TxnParticipant>(this); });
  }

  /// Bind one op's server body twice, from the one `body(sctx, side,
  /// args...)`: as `primary` on the host, and as its failover twin
  /// `standby` on the promoted mirror. Both take the same wire arguments.
  template <typename R, typename... Args, typename Body>
  core::Twins bind_twins(Body body) {
    core::Twins op;
    op.primary = bindings_.bind<R, Args...>(
        [body](rpc::ServerCtx& sctx, const Args&... args) {
          return body(sctx, Side::kPrimary, args...);
        });
    op.standby = bindings_.bind<R, Args...>(
        [this, body](rpc::ServerCtx& sctx, const Args&... args) {
          const auto guard = fo_.enter_standby(
              ctx_->fabric(), node_, "queue host is up; repair and retry");
          return body(sctx, Side::kStandby, args...);
        });
    return op;
  }

  /// The intents a commit applies on side s, under txn_mutex_. The host
  /// releases the slot its prepare validated; false means it already
  /// committed txn_id (a re-sent commit after a lost response). The
  /// standby — the host died after prepare-ack — takes the records that
  /// prepare staged on it.
  bool take_intents(Side s, std::uint64_t txn_id,
                    std::vector<Record>* intents) {
    if (s == Side::kStandby) {
      *intents = staged_.take(txn_id, 0);
      return true;
    }
    if (recent_commits_.contains(txn_id)) return false;
    if (txn_holder_ != txn_id) {
      throw HclError(Status::FailedPrecondition(
          "txn commit: intent slot not held (presumed abort)"));
    }
    intents->swap(txn_intents_);
    txn_holder_ = 0;
    recent_commits_.add(txn_id);
    return true;
  }

  // ---- op server bodies ------------------------------------------------
  // Each written once: bind_twins (or bind, for txn_peek) binds it as the
  // host's stub and its failover twin, and a co-located caller runs it in
  // its own thread against core::hybrid_ctx (§III.C.5).

  bool push_body(rpc::ServerCtx& sctx, Side s, const T& value) {
    core::charge_server(*ctx_, sctx, descent(true), bytes_of(value),
                        /*write=*/true);
    apply_push(s, value);
    mirror(s, sctx.finish, LogOp::kPush, &value);
    return true;
  }
  bool push_bulk_body(rpc::ServerCtx& sctx, Side s,
                      const std::vector<T>& values) {
    std::int64_t bytes = 0;
    for (const auto& v : values) bytes += bytes_of(v);
    core::charge_server(*ctx_, sctx, descent(true), bytes, /*write=*/true,
                        static_cast<std::int64_t>(values.size()));
    for (const auto& v : values) {
      apply_push(s, v);
      mirror(s, sctx.finish, LogOp::kPush, &v);
    }
    return true;
  }
  std::optional<T> pop_body(rpc::ServerCtx& sctx, Side s) {
    T v{};
    const bool ok = apply_pop(s, &v);
    core::charge_server(*ctx_, sctx, descent(false), ok ? bytes_of(v) : 8,
                        /*write=*/false);
    if (ok) mirror(s, sctx.finish, LogOp::kPop, nullptr);
    return ok ? std::optional<T>(std::move(v)) : std::nullopt;
  }
  /// Every pop is mirrored at the charge's finish.
  std::vector<T> pop_bulk_body(rpc::ServerCtx& sctx, Side s,
                               const std::uint64_t& count) {
    std::vector<T> got;
    T v{};
    std::int64_t bytes = 0;
    while (got.size() < count && apply_pop(s, &v)) {
      bytes += bytes_of(v);
      got.push_back(std::move(v));
    }
    core::charge_server(*ctx_, sctx, descent(false), bytes > 0 ? bytes : 8,
                        /*write=*/false, static_cast<std::int64_t>(got.size()));
    for (std::size_t i = 0; i < got.size(); ++i) {
      mirror(s, sctx.finish, LogOp::kPop, nullptr);
    }
    return got;
  }
  /// The element `n` places behind the front, and the epoch it was read at.
  std::optional<T> txn_peek_body(rpc::ServerCtx& sctx, const std::uint64_t& n) {
    T tmp{};
    bool ok = false;
    {
      std::lock_guard<std::mutex> guard(pop_mutex_);
      sctx.epoch = epoch_.load(std::memory_order_acquire);
      ok = impl_.peek_nth(static_cast<std::size_t>(n), &tmp);
    }
    core::charge_server(*ctx_, sctx, descent(false), ok ? bytes_of(tmp) : 8,
                        /*write=*/false);
    return ok ? std::optional<T>(std::move(tmp)) : std::nullopt;
  }

  void bind_handlers() {
    push_ = bind_twins<bool, T>(
        [this](auto&&... a) { return push_body(a...); });
    push_bulk_ = bind_twins<bool, std::vector<T>>(
        [this](auto&&... a) { return push_bulk_body(a...); });
    pop_ = bind_twins<std::optional<T>>(
        [this](auto&&... a) { return pop_body(a...); });
    pop_bulk_ = bind_twins<std::vector<T>, std::uint64_t>(
        [this](auto&&... a) { return pop_bulk_body(a...); });
    // ---- mirror stubs (standby side): keep the standby's copy in
    // lock-step with the host; order is preserved because server_invoke
    // executes inline on the issuing thread.
    replica_push_id_ =
        bindings_.bind<bool, T>([this](rpc::ServerCtx& sctx, const T& value) {
          core::charge_server(*ctx_, sctx, descent(true), bytes_of(value),
                              /*write=*/true);
          mirror_.push(value);
          return true;
        });
    replica_pop_id_ = bindings_.bind<bool>([this](rpc::ServerCtx& sctx) {
      core::charge_server(*ctx_, sctx, descent(true), 8, /*write=*/true);
      T scratch{};
      mirror_.pop(&scratch);
      return true;
    });
    // Anti-entropy repair (host side): replay through the record-apply
    // loop so the delta lands in the persist log too.
    repair_id_ = bindings_.bind<std::uint64_t, std::vector<std::byte>>(
        [this](rpc::ServerCtx& sctx, const std::vector<std::byte>& blob) {
          return core::repair_stub(
              *ctx_, sctx, blob, staged_, [&](const std::vector<Record>& delta) {
                apply_records(Side::kPrimary, delta, sctx.start,
                              /*mirrored=*/false);
                core::charge_server(*ctx_, sctx, descent(true),
                                    8 + record_bytes(delta), /*write=*/true,
                                    static_cast<std::int64_t>(delta.size()));
                // Presumed abort (§5h): the slot from before the crash is dead.
                std::lock_guard<std::mutex> guard(txn_mutex_);
                txn_holder_ = 0;
                txn_intents_.clear();
              });
        });
    // ---- transaction stubs (DESIGN.md §5h; protocol notes in
    // core::PartitionedMap). txn_mutex_ is released before standby fan-out.
    txn_peek_id_ = bindings_.bind<std::optional<T>, std::uint64_t>(
        [this](auto&&... a) { return txn_peek_body(a...); });
    txn_prepare_id_ =
        bindings_.bind<std::uint64_t, std::uint64_t, std::uint64_t,
                    std::vector<std::byte>>(
            [this](rpc::ServerCtx& sctx, const std::uint64_t& txn_id,
                   const std::uint64_t& expected,
                   const std::vector<std::byte>& blob) {
              const sim::Nanos ready = core::charge_server(
                  *ctx_, sctx, descent(true),
                  static_cast<std::int64_t>(blob.size()) + 16, /*write=*/true);
              const auto intents = core::decode_records<Record>(blob);
              std::uint64_t cur = 0;
              {
                std::lock_guard<std::mutex> guard(txn_mutex_);
                cur = epoch_.load(std::memory_order_acquire);
                if (recent_commits_.contains(txn_id)) {
                  sctx.epoch = cur;
                  return cur;
                }
                const txn::Refusal* no = nullptr;
                if (txn_holder_ != 0 && txn_holder_ != txn_id) {
                  no = &txn::kSlotHeld;
                } else if (expected != txn::kBlindEpoch && cur != expected) {
                  no = &txn::kEpochConflict;
                } else if (pops(intents) > impl_.size()) {
                  no = &txn::kUnderflow;
                }
                if (no != nullptr) {
                  no->refuse(sctx);
                  return cur;
                }
                txn_holder_ = txn_id;
                txn_intents_ = intents;
              }
              if (has_standby() && !intents.empty()) {
                ctx_->rpc().server_invoke(node_, standby_node_, ready,
                                          replica_txn_stage_id_, txn_id, blob);
              }
              sctx.epoch = cur;
              return cur;
            });
    // Commit: the host applies the intents its prepare validated; the
    // failover twin — the host died between prepare-ack and commit —
    // replays the records that prepare staged on the standby.
    txn_commit_ = bind_twins<std::uint64_t, std::uint64_t>(
        [this](rpc::ServerCtx& sctx, Side s, const std::uint64_t& txn_id) {
          std::vector<Record> intents;
          {
            std::lock_guard<std::mutex> guard(txn_mutex_);
            if (!take_intents(s, txn_id, &intents)) {
              core::charge_server(*ctx_, sctx, descent(true), 16,
                                  /*write=*/true);
            } else {
              core::charge_server(*ctx_, sctx, descent(true),
                                  16 + record_bytes(intents), /*write=*/true,
                                  static_cast<std::int64_t>(intents.size()));
              apply_records(s, in_commit_order(intents), sctx.finish,
                            /*mirrored=*/true);
            }
          }
          if (s == Side::kPrimary && has_standby() && !intents.empty()) {
            ctx_->rpc().server_invoke(node_, standby_node_, sctx.finish,
                                      replica_txn_resolve_id_, txn_id);
          }
          // The promoted mirror keeps no epoch.
          sctx.epoch =
              s == Side::kPrimary ? epoch_.load(std::memory_order_acquire) : 0;
          return sctx.epoch;
        });
    txn_abort_.primary = bindings_.bind<bool, std::uint64_t>(
        [this](rpc::ServerCtx& sctx, const std::uint64_t& txn_id) {
          core::charge_server(*ctx_, sctx, descent(true), 16, /*write=*/true);
          bool held = false;
          {
            std::lock_guard<std::mutex> guard(txn_mutex_);
            if (txn_holder_ == txn_id) {
              txn_holder_ = 0;
              txn_intents_.clear();
              held = true;
            }
          }
          if (has_standby()) {
            ctx_->rpc().server_invoke(node_, standby_node_, sctx.finish,
                                      replica_txn_resolve_id_, txn_id);
          }
          // Aborts bump nothing: no epoch, no journal, no mirror writes.
          sctx.epoch = epoch_.load(std::memory_order_acquire);
          return held;
        });
    // Standby staging (core::StagingLedger): the resolve stub and the
    // abort's failover twin both drop the records a prepare staged; neither
    // enters the standby side (no promotion).
    replica_txn_stage_id_ =
        bindings_.bind<bool, std::uint64_t, std::vector<std::byte>>(
            [this](rpc::ServerCtx& sctx, const std::uint64_t& txn_id,
                   const std::vector<std::byte>& blob) {
              return staged_.stage(*ctx_, sctx, descent(true), txn_id, 0, blob);
            });
    const auto drop = [this](rpc::ServerCtx& sctx, const std::uint64_t& txn_id) {
      return staged_.drop(*ctx_, sctx, descent(true), txn_id, 0);
    };
    replica_txn_resolve_id_ = bindings_.bind<bool, std::uint64_t>(drop);
    txn_abort_.standby = bindings_.bind<bool, std::uint64_t>(drop);
  }

  Context* ctx_;
  sim::NodeId node_;
  sim::NodeId standby_node_;
  core::ContainerOptions options_;
  Store impl_;
  /// Standby-side mirror of impl_, maintained by the replica stubs and
  /// served by the failover twins while the host is down (DESIGN.md §5f).
  Store mirror_;
  core::Journal<Record> journal_;
  core::FailoverState<Record> fo_;
  /// Mutation epoch (DESIGN.md §5h): bumped by every applied push/pop and
  /// by migrate, validated by txn prepare against the read-time capture.
  std::atomic<std::uint64_t> epoch_{0};
  /// Serializes payload-moving pops against txn_peek traversals (the
  /// MsQueue peek/pop external-serialization contract).
  std::mutex pop_mutex_;
  /// Transaction intent slot (semantics match the maps' per-partition
  /// fields; see core::PartitionedMap::Partition) and the records prepares
  /// staged here while this node was the standby.
  std::mutex txn_mutex_;
  std::uint64_t txn_holder_ = 0;
  std::vector<Record> txn_intents_;
  core::RecentCommits recent_commits_;
  core::StagingLedger<Record> staged_;
  /// Replicated ops: each primary FuncId and its failover twin, bound from
  /// one server body (bind_twins); txn_abort_ pairs the host's abort with
  /// the standby's fo_txn_abort.
  core::Twins push_, push_bulk_, pop_, pop_bulk_, txn_commit_, txn_abort_;
  rpc::FuncId replica_push_id_ = 0, replica_pop_id_ = 0, repair_id_ = 0,
              txn_peek_id_ = 0, txn_prepare_id_ = 0,
              replica_txn_stage_id_ = 0, replica_txn_resolve_id_ = 0;
  core::Bindings bindings_;
};

}  // namespace core

/// Distributed MWMR FIFO queue (§III.D.3A).
template <typename T>
using queue = core::HostedQueue<core::FifoStore<T>>;

/// Distributed MWMR priority queue (§III.D.3B); pop returns the minimum.
template <typename T, typename Less = std::less<T>>
using priority_queue = core::HostedQueue<core::HeapStore<T, Less>>;

}  // namespace hcl
