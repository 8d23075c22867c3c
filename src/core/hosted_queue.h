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
// Routing, failover state, repair, the twin binding, the txn participant
// legs, intent table and stubs, and the record format come from
// core/failover.h, for which the queue is a one-partition lane and an intent
// table of one stripe; the queue keeps only its epoch and underflow check.
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
  [[nodiscard]] bool txn_slot_held() { return txn_.held(); }

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
    // Prepared intents pin the host: moving it would orphan the intent
    // slot and the standby's staged records (DESIGN.md §5h).
    if (txn_.pending()) {
      throw HclError(Status::FailedPrecondition(
          "rebalance: transaction intents pending"));
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

  /// The queue's serving sides as core/failover.h binds them: no stub takes
  /// a prefix, and the queue is an intent table of one stripe, validated
  /// against its epoch and length.
  struct Server {
    HostedQueue* owner;
    using Prefix = std::tuple<>;
    using StandbyPrefix = std::tuple<>;
    /// The epoch the txn's reads observed, or txn::kBlindEpoch.
    using Check = std::uint64_t;

    Side primary() const { return Side::kPrimary; }
    Side replica() const { return Side::kStandby; }
    std::pair<std::unique_lock<std::mutex>, Side> enter() const {
      return {owner->fo_.enter_standby(owner->ctx_->fabric(), owner->node_,
                                       "queue host is up; repair and retry"),
              Side::kStandby};
    }
    core::IntentTable<Record>& table(Side) const { return owner->txn_; }
    bool standby(Side s) const { return s == Side::kStandby; }
    int key(Side) const { return 0; }
    core::Descent descent(Side) const { return owner->descent(true); }
    /// The promoted mirror keeps no epoch.
    std::uint64_t epoch(Side s) const {
      return standby(s) ? 0 : owner->epoch_.load(std::memory_order_acquire);
    }
    template <typename Fn>
    void each_replica(Side, Fn&& fn) const {
      if (owner->has_standby()) fn(owner->node_, owner->standby_node_);
    }
    static std::int64_t check_bytes(Check) { return 0; }
    static std::vector<std::uint32_t> stripes(Check,
                                              const std::vector<Record>&) {
      return {0};
    }
    const txn::Refusal* validate(Side, Check expected,
                                 const std::vector<Record>& intents,
                                 std::uint64_t cur) const {
      if (expected != txn::kBlindEpoch && cur != expected) {
        return &txn::kEpochConflict;
      }
      if (pops(intents) > owner->impl_.size()) return &txn::kUnderflow;
      return nullptr;
    }
    /// Charge one write element per record, then apply them in commit order.
    void apply(rpc::ServerCtx& sctx, Side s,
               const std::vector<Record>& intents) const {
      core::charge_server(*owner->ctx_, sctx, owner->descent(true),
                          16 + record_bytes(intents), /*write=*/true,
                          static_cast<std::int64_t>(intents.size()));
      owner->apply_records(s, in_commit_order(intents), sctx.finish,
                           /*mirrored=*/true);
    }
  };
  [[nodiscard]] Server server() { return Server{this}; }

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
                                          owner->txn_stubs_.commit,
                                          owner->txn_stubs_.abort) {}

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
                                 this->lane_.owner->txn_stubs_.prepare, txn_id,
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
    push_ = core::bind_twins<bool, T>(
        bindings_, server(), [this](auto&&... a) { return push_body(a...); });
    push_bulk_ = core::bind_twins<bool, std::vector<T>>(
        bindings_, server(),
        [this](auto&&... a) { return push_bulk_body(a...); });
    pop_ = core::bind_twins<std::optional<T>>(
        bindings_, server(), [this](auto&&... a) { return pop_body(a...); });
    pop_bulk_ = core::bind_twins<std::vector<T>, std::uint64_t>(
        bindings_, server(),
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
              *ctx_, sctx, blob, txn_, [&](const std::vector<Record>& delta) {
                apply_records(Side::kPrimary, delta, sctx.start,
                              /*mirrored=*/false);
                core::charge_server(*ctx_, sctx, descent(true),
                                    8 + record_bytes(delta), /*write=*/true,
                                    static_cast<std::int64_t>(delta.size()));
              });
        });
    txn_peek_id_ = bindings_.bind<std::optional<T>, std::uint64_t>(
        [this](auto&&... a) { return txn_peek_body(a...); });
    txn_stubs_.bind(*ctx_, bindings_, server());
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
  /// The transaction intent slot, one stripe (core::IntentTable), and the
  /// records prepares staged here while this node was the standby.
  core::IntentTable<Record> txn_{1};
  /// Replicated ops: each primary FuncId and its failover twin, bound from
  /// one server body (core::bind_twins).
  core::Twins push_, push_bulk_, pop_, pop_bulk_;
  rpc::FuncId replica_push_id_ = 0, replica_pop_id_ = 0, repair_id_ = 0,
              txn_peek_id_ = 0;
  core::TxnStubs<Server, Record> txn_stubs_;
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
