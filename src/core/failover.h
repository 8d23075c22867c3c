// Shared failover and transaction-participant layer for both container cores
// (DESIGN.md §5f/§5h): the one client route every entry point takes, the
// failover state and its repair pass, the txn read leg and participant legs,
// the server half of both (twin binding, intent table, txn stubs), move
// charging, and the records they carry (the journal and intent codec, the
// persist journal, the standby's staged txns) — written once.
//
// A core describes one of its partitions to this layer as a *lane*, a small
// value with four members:
//
//   sim::NodeId node() const            the primary's node
//   std::tuple<...> prefix() const      wire arguments the primary stubs take
//                                       ahead of the op's own ((p) for a map
//                                       partition, () for a queue)
//   std::optional<Standby<...>> standby() const
//                                       the live standby and its twins' wire
//                                       prefix, or none
//   void repair(sim::Actor&) const      run the core's repair pass
//
// and each op as its twins plus its server body `body(sctx)`. Every client
// entry point is one call of route(): call() is the sync shape,
// call_async() the async shape, and a batch element enqueues at the target
// route() chose.
//
// The server half is written here once too: each op's twin binding
// (bind_twins), the intent table a prepare holds (IntentTable) and every txn
// stub (TxnStubs). A core describes its serving sides as a *server*:
//
//   Prefix, StandbyPrefix, Check        its primary and twin wire prefixes
//                                       (std::tuple), what a prepare checks
//   primary(Prefix...), replica(StandbyPrefix...), enter(StandbyPrefix...)
//                                       the Side a prefix names; enter also
//                                       promotes the standby, under its lock
//   table, standby, key, descent, epoch (of a Side)
//                                       its host's IntentTable, standby?, its
//                                       staging key, Table I descent, epoch
//   each_replica(s, fn)                 fn(from, to, StandbyPrefix...) for
//                                       each replica host of a primary
//   check_bytes, stripes, validate, apply
//                                       the core's prepare and commit rules
//
// Nothing here knows which core called it; a queue is a one-partition,
// one-stripe caller of the same code. Wire shapes and cache hooks stay with
// the cores, and each declares its record shape once, as a core::Record.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/context.h"
#include "core/persist_log.h"
#include "core/stores.h"
#include "rpc/batch.h"
#include "rpc/engine.h"
#include "serial/databox.h"
#include "txn/txn.h"

namespace hcl::core {

/// A live standby as this layer addresses it: its node and the wire prefix
/// its failover twins take ahead of the op's own arguments.
template <typename... Prefix>
struct Standby {
  sim::NodeId node;
  std::tuple<Prefix...> prefix;
};

/// The target of one routed call: the lane's live standby, or none for the
/// primary.
template <typename Lane>
using StandbyOf = decltype(std::declval<const Lane&>().standby());

/// Call `fn(node, id, prefix...)` for `op` at its target: the failover
/// twin on the standby `to`, or the primary.
template <typename Lane, typename Fn>
auto at(const Lane& lane, const StandbyOf<Lane>& to, const Twins& op,
        Fn&& fn) {
  if (to) {
    return std::apply(
        [&](const auto&... pre) { return fn(to->node, op.standby, pre...); },
        to->prefix);
  }
  return std::apply(
      [&](const auto&... pre) { return fn(lane.node(), op.primary, pre...); },
      lane.prefix());
}

/// Ship `op` to the primary, or its failover twin to the standby `to`.
template <typename R, typename Lane, typename... Args>
rpc::Future<R> send(rpc::Engine& engine, sim::Actor& self, const Lane& lane,
                    const StandbyOf<Lane>& to, const Twins& op,
                    const Args&... args) {
  return at(lane, to, op, [&](sim::NodeId node, rpc::FuncId id,
                              const auto&... pre) {
    return to ? engine.template async_invoke_failover<R>(self, node, id,
                                                         pre..., args...)
              : engine.template async_invoke<R>(self, node, id, pre...,
                                                args...);
  });
}

/// send() into a bundle: the same target choice, shipped by `batcher`.
template <typename R, typename Lane, typename... Args>
rpc::Future<R> enqueue(rpc::Batcher& batcher, sim::Actor& self,
                       const Lane& lane, const StandbyOf<Lane>& to,
                       const Twins& op, const Args&... args) {
  return at(lane, to, op, [&](sim::NodeId node, rpc::FuncId id,
                              const auto&... pre) {
    return batcher.template enqueue<R>(self, node, id, pre..., args...);
  });
}

/// Repair a rejoined primary and clear its stale route mark.
template <typename Lane>
void rejoin(Context& ctx, sim::Actor& self, const Lane& lane) {
  lane.repair(self);
  ctx.rpc().route().erase(lane.node());
}

/// Repair a rejoined primary whose route mark outlived the fault, so no
/// entry point reads or writes its un-repaired store.
template <typename Lane>
void repair_stale(Context& ctx, sim::Actor& self, const Lane& lane) {
  if (ctx.rpc().route().contains(lane.node()) &&
      !ctx.fabric().node_down(lane.node())) {
    rejoin(ctx, self, lane);
  }
}

/// Eager recovery point: rejoin the primary unless it is still down.
template <typename Lane>
void heal(Context& ctx, sim::Actor& self, const Lane& lane) {
  if (!ctx.fabric().node_down(lane.node())) rejoin(ctx, self, lane);
}

/// The routed call every remote sync op makes: count it, send it, hand the
/// future to `done`. A rejoined primary is repaired and unmarked first;
/// then the primary is tried unless route-marked down. On kUnavailable with
/// the fabric confirming the node dead, it is marked and the op reroutes to
/// the standby exactly once; the standby's kFailedPrecondition (the primary
/// rejoined between our check and the stub running) loops back once to
/// repair and retry. An op without a failover twin (op.standby == 0) has no
/// standby to reroute to: a dead primary stays kUnavailable.
template <typename R, typename Lane, typename Done, typename... Args>
auto routed(Context& ctx, sim::Actor& self, const Lane& lane, const Twins& op,
            Done&& done, const Args&... args) {
  auto call = [&](const StandbyOf<Lane>& to) {
    ctx.op_stats().remote_invocations.fetch_add(1, std::memory_order_relaxed);
    auto future = send<R>(ctx.rpc(), self, lane, to, op, args...);
    return done(future);
  };
  auto& route = ctx.rpc().route();
  for (int round = 0;; ++round) {
    repair_stale(ctx, self, lane);
    if (!route.contains(lane.node())) {
      try {
        return call(std::nullopt);
      } catch (const HclError& e) {
        if (round > 0 || e.code() != StatusCode::kUnavailable ||
            !ctx.fabric().node_down(lane.node())) {
          throw;
        }
      }
    }
    const auto to = op.standby != 0 ? lane.standby() : std::nullopt;
    if (!to) {
      throw HclError(Status::Unavailable("primary down and no live standby"));
    }
    route.insert(lane.node());
    try {
      return call(to);
    } catch (const HclError& e) {
      if (round > 0 || e.code() != StatusCode::kFailedPrecondition) throw;
    }
  }
}

/// The target an op is shipped to at issue time, as the async and batch
/// shapes choose it: the live standby while the primary is marked down and
/// dead, else the primary (repairing it first when a stale route mark
/// outlived a rejoin).
template <typename Lane>
StandbyOf<Lane> batch_route(Context& ctx, sim::Actor& self, const Lane& lane) {
  repair_stale(ctx, self, lane);
  if (ctx.rpc().route().contains(lane.node())) return lane.standby();
  return std::nullopt;
}

/// The one client route (§III.C.5, §5f): batch_route picks the target; a
/// caller co-located with the primary runs `local(sctx)` in its thread
/// against hybrid_ctx (no F), any other caller gets `remote(to)`.
template <typename Lane, typename Local, typename Remote>
decltype(auto) route(Context& ctx, sim::Actor& self, const Lane& lane,
                     Local&& local, Remote&& remote) {
  const auto to = batch_route(ctx, self, lane);
  if (lane.node() == self.node()) {
    auto sctx = hybrid_ctx(self, lane.node());
    return local(sctx);
  }
  return remote(to);
}

/// The sync shape: route() with routed() as the remote leg.
template <typename R, typename Lane, typename Body, typename... Args>
R call(Context& ctx, sim::Actor& self, const Lane& lane, const Twins& op,
       Body&& body, const Args&... args) {
  return route(ctx, self, lane, body, [&](const StandbyOf<Lane>&) {
    return routed<R>(
        ctx, self, lane, op,
        [&](rpc::Future<R>& future) { return future.get(self); }, args...);
  });
}

/// The async shape (§III.C.4): a resolved future over the body when
/// co-located, else the op sent unsettled to the target route() chose.
template <typename R, typename Lane, typename Body, typename... Args>
rpc::Future<R> call_async(Context& ctx, sim::Actor& self, const Lane& lane,
                          const Twins& op, Body&& body, const Args&... args) {
  return route(
      ctx, self, lane,
      [&](rpc::ServerCtx& sctx) {
        return ctx.rpc().template resolved_future<R>(self, lane.node(),
                                                     body(sctx));
      },
      [&](const StandbyOf<Lane>& to) {
        ctx.op_stats().remote_invocations.fetch_add(1,
                                                    std::memory_order_relaxed);
        return send<R>(ctx.rpc(), self, lane, to, op, args...);
      });
}

/// settle_batch's rescue for an op that failed kUnavailable: when its
/// primary genuinely died under the bundle, mark it in the route table and
/// re-issue the op to the live standby. An invalid future (a transient
/// fault, or no live standby) lets the op's failure stand.
template <typename R, typename Lane, typename... Args>
rpc::Future<R> rescue(Context& ctx, sim::Actor& self, const Lane& lane,
                      const Twins& op, const Args&... args) {
  if (!ctx.fabric().node_down(lane.node())) return {};
  const auto to = lane.standby();
  if (!to) return {};
  ctx.rpc().route().insert(lane.node());
  return send<R>(ctx.rpc(), self, lane, to, op, args...);
}

/// The txn read leg (DESIGN.md §5h): fail fast while the lane's primary is
/// down — a promoted standby's fenced epoch stream cannot be validated —
/// and repair a rejoined one, then run the read's server body `body(sctx)`
/// in the caller's thread when
/// co-located, or invoke its stub `id` on the primary (the lane's prefix,
/// then `args`). `*epoch` gets the epoch the read observed. A transient
/// transport failure surfaces as a retryable kAborted, so TxnCoordinator::run
/// re-stages the whole transaction.
template <typename R, typename Lane, typename Body, typename... Args>
R txn_read(Context& ctx, sim::Actor& self, const Lane& lane, Body&& body,
           std::uint64_t* epoch, rpc::FuncId id, const Args&... args) {
  if (ctx.fabric().node_down(lane.node())) {
    throw HclError(Status::Unavailable("txn read: partition node is down"));
  }
  repair_stale(ctx, self, lane);
  if (lane.node() == self.node()) {
    auto sctx = hybrid_ctx(self, lane.node());
    R result = body(sctx);
    *epoch = sctx.epoch;
    return result;
  }
  try {
    ctx.op_stats().remote_invocations.fetch_add(1, std::memory_order_relaxed);
    auto future = std::apply(
        [&](const auto&... pre) {
          return ctx.rpc().template async_invoke<R>(self, lane.node(), id,
                                                    pre..., args...);
        },
        lane.prefix());
    R result = future.get(self);
    *epoch = future.response_epoch();
    return result;
  } catch (const HclError& e) {
    if (e.code() == StatusCode::kAborted ||
        (e.code() == StatusCode::kUnavailable &&
         ctx.fabric().node_down(lane.node()))) {
      throw;
    }
    throw HclError(Status::Aborted(e.what()));
  }
}

/// The key of a shape whose records have none (a queue's): no wire bytes.
struct NoKey {};

/// One record of a core's record shape, declared over its op enum (codes
/// 1..Last). On the wire: the op code as a u64, the key (NoKey writes
/// nothing), then the value unless the op is Bare. A journal entry is one
/// record; a blob is a u64 record count, then the records.
template <typename Op, Op Last, Op Bare, typename K, typename V>
struct Record {
  using op_type = Op;
  using key_type = K;
  using value_type = V;

  Op op{};
  [[no_unique_address]] K key{};
  V value{};

  Record() = default;
  /// `v` is null for the bare op.
  Record(Op o, const K& k, const V* v)
      : op(o), key(k), value(v != nullptr ? *v : V{}) {}

  /// Write one record from its fields; `*v` is read only when `o` carries a
  /// value, so a write is journaled without copying its value.
  template <typename Ar>
  static void write(Ar& ar, Op o, const K& k, const V* v) {
    ar.u64(static_cast<std::uint64_t>(o));
    serial::save(ar, k);
    if (o != Bare) serial::save(ar, *v);
  }

  /// Read one record; an op code outside [1, Last] or a truncated record
  /// throws HclError(kInvalidArgument).
  static Record read(serial::InArchive& in) {
    const std::uint64_t code = in.u64();
    if (code == 0 || code > static_cast<std::uint64_t>(Last)) {
      throw HclError(Status::InvalidArgument("record: unknown op"));
    }
    Record rec;
    rec.op = static_cast<Op>(code);
    serial::load(in, rec.key);
    if (rec.op != Bare) serial::load(in, rec.value);
    return rec;
  }
};

/// The one decoder of intent and repair blobs. A count the bytes left cannot
/// hold (8 per record), an unknown op code or a truncated blob throws
/// HclError(kInvalidArgument) before allocating.
template <typename Rec>
std::vector<Rec> decode_records(std::span<const std::byte> blob) {
  serial::InArchive in(blob);
  const std::size_t count = serial::load_count(in, 8);
  std::vector<Rec> recs;
  recs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) recs.push_back(Rec::read(in));
  return recs;
}

/// The blob decode_records reads, written straight into a request as the
/// `std::vector<std::byte>` argument its stub takes (a u64 byte count, then
/// one word per byte) without building that vector. Saving only. The
/// fixed-width counting pass counts the records without storing them; any
/// other archive gets them encoded once into a pooled scratch archive and
/// widened from there.
template <typename Rec>
struct RecordBlob {
  std::span<const Rec> recs;

  template <typename Ar>
  void write(Ar& ar) const {
    ar.u64(recs.size());
    for (const Rec& rec : recs) Rec::write(ar, rec.op, rec.key, &rec.value);
  }

  template <typename Ar>
  void serialize(Ar& ar) const {
    if constexpr (std::is_same_v<Ar, serial::SizeArchive>) {
      serial::SizeArchive blob;
      write(blob);
      ar.u64(blob.size());
      ar.extend(blob.size() * 8);
    } else {
      serial::OutArchive blob;
      write(blob);
      ar.u64(blob.size());
      serial::save_word_run(ar, std::span<const std::byte>(blob.buffer()));
    }
  }
};

template <typename Rec>
RecordBlob<Rec> record_blob(const std::vector<Rec>& recs) {
  return {recs};
}

/// A partition's persist journal (§III.C.6): one record per write its
/// primary applied.
template <typename Rec>
class Journal {
 public:
  /// Open the journal at `path` and hand each record in it to `apply`, in
  /// append order; a record the shape refuses throws, failing the
  /// container's construction.
  template <typename Apply>
  void open(mem::NodeMemory& memory, const std::string& path,
            mem::SyncMode mode, Apply&& apply) {
    auto log = PersistLog::open(memory, path, mode);
    throw_if_error(log.status());
    log_ = std::move(log.value());
    log_->replay([&](std::span<const std::byte> bytes) {
      serial::InArchive in(bytes);
      apply(Rec::read(in));
    });
  }

  /// Journal one applied write; a no-op when the container does not persist.
  void append(typename Rec::op_type op, const typename Rec::key_type& key,
              const typename Rec::value_type* value) {
    if (log_ == nullptr) return;
    serial::OutArchive out;
    Rec::write(out, op, key, value);
    throw_if_error(log_->append(std::span<const std::byte>(out.buffer())));
  }

 private:
  std::unique_ptr<PersistLog> log_;
};

/// The standby half of txn participation (§5h), one per replica host: the
/// intent records a prepare staged here, keyed by (txn id, primary
/// partition; a queue is partition 0), so a promoted standby can replay a
/// prepared-but-uncommitted txn (the commit's failover twin) or drop it.
/// Its mutex is a leaf (nothing is locked under it), so a caller may hold
/// its IntentTable's txn mutex or not.
template <typename Rec>
class StagingLedger {
 public:
  /// The stage stub's body: charge the blob's write on the host (descent
  /// `d`), then keep its records.
  bool stage(Context& ctx, rpc::ServerCtx& sctx, Descent d,
             std::uint64_t txn_id, int p, const std::vector<std::byte>& blob) {
    charge_server(ctx, sctx, d, static_cast<std::int64_t>(blob.size()),
                  /*write=*/true);
    std::vector<Rec> recs = decode_records<Rec>(blob);
    std::lock_guard<std::mutex> guard(mutex_);
    staged_[{txn_id, p}] = std::move(recs);
    return true;
  }

  /// The body of the resolve stub and of the abort's failover twin: charge a
  /// 16-byte write, then drop what the txn staged. Not a failover write, so
  /// it never promotes the standby.
  bool drop(Context& ctx, rpc::ServerCtx& sctx, Descent d,
            std::uint64_t txn_id, int p) {
    charge_server(ctx, sctx, d, 16, /*write=*/true);
    std::lock_guard<std::mutex> guard(mutex_);
    staged_.erase({txn_id, p});
    return true;
  }

  /// What the commit's failover twin applies, removed (none when re-sent).
  std::vector<Rec> take(std::uint64_t txn_id, int p) {
    std::lock_guard<std::mutex> guard(mutex_);
    auto staged = staged_.extract({txn_id, p});
    return staged ? std::move(staged.mapped()) : std::vector<Rec>{};
  }

  /// Presumed abort (repair): whatever was staged before a crash is dead.
  void clear() {
    std::lock_guard<std::mutex> guard(mutex_);
    staged_.clear();
  }

  [[nodiscard]] bool empty() {
    std::lock_guard<std::mutex> guard(mutex_);
    return staged_.empty();
  }

 private:
  std::mutex mutex_;
  std::map<std::pair<std::uint64_t, int>, std::vector<Rec>> staged_;
};

/// One partition's intent table (§5h), the server half of txn participation
/// both cores share: the txn mutex, the prepared txns it holds (each with the
/// stripes it locked and the records its commit applies), the txns it
/// committed last, and the records other primaries staged on this host. A
/// map partition has 1,024 stripes, the queue one; validation stays with
/// the core (Server::validate).
template <typename Rec>
class IntentTable {
 public:
  /// A validated prepare: the stripes it locked and the records its commit
  /// applies.
  struct Held {
    std::uint64_t txn_id = 0;
    std::vector<std::uint32_t> stripes;
    std::vector<Rec> intents;
  };

  explicit IntentTable(std::size_t stripes) : stripes_(stripes) {}

  /// The txn mutex: guards the holds and the recent commits. A commit
  /// applies under it; it is never held across a stage or resolve fan-out.
  std::mutex mutex;
  StagingLedger<Rec> staged;

  /// Is txn_id among the last 64 commits here (mutex held)? Then a re-sent
  /// commit or prepare (a lost response, a transient fault) is recognized
  /// while later txns commit.
  [[nodiscard]] bool committed(std::uint64_t txn_id) const {
    return std::find(recent_.begin(), recent_.end(), txn_id) != recent_.end();
  }

  /// kSlotHeld when a rival txn holds one of `entry`'s stripes (mutex held).
  [[nodiscard]] const txn::Refusal* rival(const Held& entry) const {
    if (holders_ == nullptr) return nullptr;
    for (const std::uint32_t stripe : entry.stripes) {
      const std::uint64_t holder = holders_[stripe];
      if (holder != 0 && holder != entry.txn_id) return &txn::kSlotHeld;
    }
    return nullptr;
  }

  /// Lock `entry`'s stripes for its txn (mutex held). A duplicate delivery
  /// re-prepares: the first copy is dropped.
  void hold(Held entry) {
    release(entry.txn_id);
    if (holders_ == nullptr) {
      holders_ = std::make_unique<std::uint64_t[]>(stripes_);
    }
    for (const std::uint32_t stripe : entry.stripes) {
      holders_[stripe] = entry.txn_id;
    }
    held_.push_back(std::move(entry));
  }

  /// Drop txn_id's hold and free its stripes (mutex held); its records move
  /// to *intents when non-null. False when txn_id holds nothing here.
  bool release(std::uint64_t txn_id, std::vector<Rec>* intents = nullptr) {
    auto it = std::find_if(held_.begin(), held_.end(),
                           [&](const Held& e) { return e.txn_id == txn_id; });
    if (it == held_.end()) return false;
    for (const std::uint32_t stripe : it->stripes) holders_[stripe] = 0;
    if (intents != nullptr) intents->swap(it->intents);
    if (it != held_.end() - 1) *it = std::move(held_.back());
    held_.pop_back();
    return true;
  }

  /// The records txn_id's commit applies, released (mutex held). False when
  /// txn_id already committed (a re-sent commit after a lost response); a
  /// txn holding nothing is refused kFailedPrecondition (presumed abort).
  bool take(std::uint64_t txn_id, std::vector<Rec>* intents) {
    if (committed(txn_id)) return false;
    if (!release(txn_id, intents)) {
      throw HclError(Status::FailedPrecondition(
          "txn commit: intent slot not held (presumed abort)"));
    }
    recent_[next_++ % recent_.size()] = txn_id;
    return true;
  }

  /// Presumed abort (repair): every hold and staged record from before a
  /// crash is dead.
  void clear() {
    {
      std::lock_guard<std::mutex> guard(mutex);
      while (!held_.empty()) release(held_.back().txn_id);
    }
    staged.clear();
  }

  /// Does a prepared txn hold a stripe here?
  [[nodiscard]] bool held() {
    std::lock_guard<std::mutex> guard(mutex);
    return !held_.empty();
  }

  /// A hold or a staged record pins the host against moves: moving it would
  /// orphan them.
  [[nodiscard]] bool pending() {
    std::lock_guard<std::mutex> guard(mutex);
    return !held_.empty() || !staged.empty();
  }

 private:
  std::size_t stripes_;
  std::unique_ptr<std::uint64_t[]> holders_;
  std::vector<Held> held_;
  std::array<std::uint64_t, 64> recent_{};
  std::size_t next_ = 0;
};

/// Bind a stub whose wire arguments are the prefix `Pre` (a std::tuple of
/// types) and then `Args`, as `body(sctx, (server.*side)(pre...), args...)`.
template <typename Pre, typename R, typename... Args>
struct Stub;
template <typename... Pre, typename R, typename... Args>
struct Stub<std::tuple<Pre...>, R, Args...> {
  template <typename Server, typename SideOf, typename Body>
  static rpc::FuncId bind(Bindings& b, Server server, SideOf side, Body body) {
    return b.bind<R, Pre..., Args...>(
        [server, side, body](rpc::ServerCtx& sctx, const Pre&... pre,
                             const Args&... args) {
          return body(sctx, (server.*side)(pre...), args...);
        });
  }
};

/// Bind one op's server body `body(sctx, side, args...)` twice: as the
/// primary stub, on the side server.primary(prefix...) names, and as its
/// failover twin, which promotes the standby (server.enter) and serves the
/// side it returns under the failover mutex. Both take `Args` after their
/// prefix.
template <typename R, typename... Args, typename Server, typename Body>
Twins bind_twins(Bindings& b, Server server, Body body) {
  const auto standby = [body](rpc::ServerCtx& sctx, const auto& entered,
                              const Args&... args) {
    return body(sctx, entered.second, args...);
  };
  return {Stub<typename Server::Prefix, R, Args...>::bind(
              b, server, &Server::primary, body),
          Stub<typename Server::StandbyPrefix, R, Args...>::bind(
              b, server, &Server::enter, standby)};
}

/// Every txn stub of one container (§5h), bound once over its server, in
/// this order: the prepare shell, the commit stub and its failover twin,
/// the abort stub, then on the replica hosts the stage and resolve stubs
/// and the abort's failover twin (dropping staged records is no failover
/// write, so it never promotes the standby).
template <typename Server, typename Rec>
class TxnStubs {
  using Blob = std::vector<std::byte>;
  using Check = typename Server::Check;

 public:
  void bind(Context& ctx, Bindings& b, Server server) {
    ctx_ = &ctx;
    server_ = server;
    using Pre = typename Server::Prefix;
    using StandbyPre = typename Server::StandbyPrefix;
    const auto primary = &Server::primary;
    const auto replica = &Server::replica;
    prepare = Stub<Pre, std::uint64_t, std::uint64_t, Check, Blob>::bind(
        b, server, primary, [this](auto&&... a) { return prepare_body(a...); });
    commit = bind_twins<std::uint64_t, std::uint64_t>(
        b, server, [this](auto&&... a) { return commit_body(a...); });
    abort.primary = Stub<Pre, bool, std::uint64_t>::bind(
        b, server, primary, [this](auto&&... a) { return abort_body(a...); });
    stage_ = Stub<StandbyPre, bool, std::uint64_t, Blob>::bind(
        b, server, replica,
        [this](rpc::ServerCtx& sctx, const auto& s, const std::uint64_t& id,
               const Blob& blob) {
          return server_.table(s).staged.stage(*ctx_, sctx, server_.descent(s),
                                               id, server_.key(s), blob);
        });
    const auto drop = [this](rpc::ServerCtx& sctx, const auto& s,
                             const std::uint64_t& id) {
      return server_.table(s).staged.drop(*ctx_, sctx, server_.descent(s), id,
                                          server_.key(s));
    };
    resolve_ =
        Stub<StandbyPre, bool, std::uint64_t>::bind(b, server, replica, drop);
    abort.standby =
        Stub<StandbyPre, bool, std::uint64_t>::bind(b, server, replica, drop);
  }

  rpc::FuncId prepare = 0;
  Twins commit;
  Twins abort;

 private:
  /// The prepare shell: charge, decode, and under the txn mutex let a txn
  /// that already committed stand, refuse a rival hold or what the core's
  /// validation refuses (no-wait: a refusal never queues), else hold; then
  /// stage the writes on the replica hosts, for a promoted standby to
  /// replay, with the txn mutex released.
  template <typename Side>
  std::uint64_t prepare_body(rpc::ServerCtx& sctx, const Side& s,
                             const std::uint64_t& txn_id, const Check& check,
                             const Blob& blob) {
    const sim::Nanos ready = charge_server(
        *ctx_, sctx, server_.descent(s),
        static_cast<std::int64_t>(blob.size()) + server_.check_bytes(check) +
            16,
        /*write=*/true);
    typename IntentTable<Rec>::Held entry{txn_id, {},
                                          decode_records<Rec>(blob)};
    entry.stripes = server_.stripes(check, entry.intents);
    const bool writes = !entry.intents.empty();
    IntentTable<Rec>& table = server_.table(s);
    std::uint64_t cur = 0;
    {
      std::lock_guard<std::mutex> guard(table.mutex);
      cur = server_.epoch(s);
      if (table.committed(txn_id)) {
        sctx.epoch = cur;
        return cur;
      }
      const txn::Refusal* no = table.rival(entry);
      if (no == nullptr) no = server_.validate(s, check, entry.intents, cur);
      if (no != nullptr) {
        no->refuse(sctx);
        return cur;
      }
      table.hold(std::move(entry));
    }
    if (writes) fan_out(s, ready, stage_, txn_id, blob);
    sctx.epoch = cur;
    return cur;
  }

  /// The primary applies what its prepare held, under the txn mutex so no
  /// rival prepare interleaves between two of its records (the core's apply
  /// fans out to replica stubs, which take no txn mutex), then drops what
  /// it staged. The twin, reached when the primary died after prepare-ack,
  /// applies what prepare staged on this standby (nothing when re-sent).
  template <typename Side>
  std::uint64_t commit_body(rpc::ServerCtx& sctx, const Side& s,
                            const std::uint64_t& txn_id) {
    IntentTable<Rec>& table = server_.table(s);
    std::vector<Rec> intents;
    {
      std::lock_guard<std::mutex> guard(table.mutex);
      if (server_.standby(s)) {
        intents = table.staged.take(txn_id, server_.key(s));
        server_.apply(sctx, s, intents);
      } else if (table.take(txn_id, &intents)) {
        server_.apply(sctx, s, intents);
      } else {
        charge_server(*ctx_, sctx, server_.descent(s), 16, /*write=*/true);
      }
    }
    if (!server_.standby(s) && !intents.empty()) {
      fan_out(s, sctx.finish, resolve_, txn_id);
    }
    sctx.epoch = server_.epoch(s);
    return sctx.epoch;
  }

  /// Release the hold and drop what prepare staged, unconditionally (a
  /// prepare whose response was lost may have staged before the client gave
  /// up). An abort bumps nothing: no epoch, journal or replica write.
  template <typename Side>
  bool abort_body(rpc::ServerCtx& sctx, const Side& s,
                  const std::uint64_t& txn_id) {
    charge_server(*ctx_, sctx, server_.descent(s), 16, /*write=*/true);
    IntentTable<Rec>& table = server_.table(s);
    bool held = false;
    {
      std::lock_guard<std::mutex> guard(table.mutex);
      held = table.release(txn_id);
    }
    fan_out(s, sctx.finish, resolve_, txn_id);
    sctx.epoch = server_.epoch(s);
    return held;
  }

  /// Invoke stub `id` with `args` on every replica host of side `s`, inline
  /// at `ready`.
  template <typename Side, typename... Args>
  void fan_out(const Side& s, sim::Nanos ready, rpc::FuncId id,
               const Args&... args) {
    server_.each_replica(s, [&](sim::NodeId from, sim::NodeId to,
                                const auto&... pre) {
      ctx_->rpc().server_invoke(from, to, ready, id, pre..., args...);
    });
  }

  Context* ctx_ = nullptr;
  Server server_{};
  rpc::FuncId stage_ = 0;
  rpc::FuncId resolve_ = 0;
};

/// One partition's failover state: the promotion flag and term, the fenced
/// epoch stream the promoted standby publishes, and the journal of ops it
/// accepted while the primary was down. Mutated only under `mutex` — and the
/// repair pass holds it ACROSS its replay RPC, so late failover writes and
/// the journal drain serialize instead of racing.
template <typename Record>
struct FailoverState {
  std::mutex mutex;
  bool promoted = false;
  std::uint64_t term = 0;
  std::uint64_t epoch = 0;
  std::vector<Record> journal;

  /// Enter the standby side (`mutex` stays held by the returned lock).
  /// Failover twins serve ONLY while the primary is down; if it is back,
  /// kFailedPrecondition(`refusal`) — non-retryable, so the engine surfaces
  /// it at once — sends the client to repair and retry. Checked under the
  /// mutex, closing the race where a late failover write would append to a
  /// journal the repair pass already drained. The first entry promotes: new
  /// term, and the epoch stream is fenced at (term << 32) — a value
  /// dominating any epoch the primary ever published (per-op increments
  /// never approach 2^32) — so leases taken on the primary's stream go stale
  /// instead of serving pre-failover values (ReadCache::fence_partition).
  [[nodiscard]] std::unique_lock<std::mutex> enter_standby(
      const fabric::Fabric& fabric, sim::NodeId primary, const char* refusal) {
    std::unique_lock<std::mutex> guard(mutex);
    if (!fabric.node_down(primary)) {
      throw HclError(Status::FailedPrecondition(refusal));
    }
    if (!promoted) {
      promoted = true;
      ++term;
      epoch = std::max(epoch, term << 32);
    }
    return guard;
  }

  /// Anti-entropy repair: replay the journal into the lane's rejoined
  /// primary as ONE repair RPC to stub `id`, whose arguments after its prefix
  /// are the journal as a record blob, then the tuple `extra(fence)`;
  /// `adopted(epoch)` then sees the epoch the primary adopted. Racing
  /// repairers serialize on the mutex (losers see no promotion and return).
  /// On failure (the primary died again) the journal and promotion flag are
  /// restored for a later pass.
  template <typename Lane, typename Extra, typename Adopted>
  void repair(Context& ctx, sim::Actor& self, const Lane& lane, rpc::FuncId id,
              Extra&& extra, Adopted&& adopted) {
    std::lock_guard<std::mutex> guard(mutex);
    if (!promoted) return;
    std::vector<Record> delta;
    delta.swap(journal);
    promoted = false;
    try {
      ctx.op_stats().remote_invocations.fetch_add(1, std::memory_order_relaxed);
      auto future = std::apply(
          [&](const auto&... args) {
            return ctx.rpc().template async_invoke_repair<std::uint64_t>(
                self, lane.node(), id, args...);
          },
          std::tuple_cat(lane.prefix(), std::make_tuple(record_blob(delta)),
                         extra(term << 32)));
      (void)future.get(self);
      adopted(future.response_epoch());
    } catch (...) {
      promoted = true;
      journal = std::move(delta);
      throw;
    }
  }

  /// Diagnostics: is the standby promoted, and how many ops await repair?
  [[nodiscard]] bool is_promoted() {
    std::lock_guard<std::mutex> guard(mutex);
    return promoted;
  }
  [[nodiscard]] std::size_t backlog() {
    std::lock_guard<std::mutex> guard(mutex);
    return journal.size();
  }
};

/// The repair stub's shell on the rejoined primary (§5f): decode the
/// promoted standby's journal delta, hand it to `replay` (the core's apply
/// and charge), clear `table` (presumed abort, §5h: the coordinators of
/// holds from before the crash saw the node down and either committed
/// through the commit's failover twin, whose writes the journal just
/// replayed, or aborted), count the replayed ops on the serving NIC, and
/// answer how many there were.
template <typename Rec, typename Replay>
std::uint64_t repair_stub(Context& ctx, rpc::ServerCtx& sctx,
                          const std::vector<std::byte>& blob,
                          IntentTable<Rec>& table, Replay&& replay) {
  const std::vector<Rec> delta = decode_records<Rec>(blob);
  replay(delta);
  table.clear();
  ctx.fabric().nic(sctx.node).counters().repair_ops.fetch_add(
      static_cast<std::int64_t>(delta.size()), std::memory_order_relaxed);
  return delta.size();
}

/// Bulk-path charging and observability for a completed move (DESIGN.md
/// §5g): a read at the source, one wire transfer, a write at the
/// destination (migration bytes never ride the op path), migration
/// counters on the destination NIC, and a client-side kMigration span (no
/// server stages — the move runs on the initiating rank).
inline void charge_move(Context& ctx, const ContainerOptions& options,
                        sim::Actor& self, sim::NodeId src, sim::NodeId dst,
                        std::int64_t items, std::int64_t bytes,
                        sim::Nanos start) {
  sim::Nanos t = ctx.fabric().local_read(src, start, bytes);
  if (src != dst) t += ctx.model().wire_time(bytes);
  t = ctx.fabric().local_write(dst, t, bytes);
  self.advance_to(t);
  auto& counters = ctx.fabric().nic(dst).counters();
  counters.migrations.fetch_add(1, std::memory_order_relaxed);
  counters.migrated_keys.fetch_add(items, std::memory_order_relaxed);
  counters.migrated_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (src != dst) counters.record_packets(t, ctx.model().packets(bytes), bytes);
  obs::Tracer* tracer =
      options.trace.enabled ? ctx.tracer_if_enabled() : nullptr;
  if (tracer == nullptr) return;
  auto span = std::make_shared<obs::Span>();
  span->kind = obs::SpanKind::kMigration;
  span->target = dst;
  span->client_rank = self.rank();
  span->issue_ns = start;
  span->inject_done_ns = start;
  span->arrival_ns = start;
  span->ready_ns = self.now();
  tracer->commit(span);
}

/// The transaction-participant legs both cores share (DESIGN.md §5h), for
/// one lane and the core's record shape. A core derives its participant
/// from this, stages its intent records into `intents_`, enqueues its own
/// prepare (its wire shape) and may hook the commit.
template <typename Lane, typename Rec>
class Participant : public txn::ParticipantBase {
 public:
  /// `commit` is the commit stub and its failover twin; `abort` pairs the
  /// primary's abort stub with the standby's fo_txn_abort, which drops the
  /// records prepare staged there without promoting it.
  Participant(Context& ctx, Lane lane, const Twins& commit, const Twins& abort)
      : ctx_(&ctx), lane_(lane), commit_op_(commit), abort_op_(abort) {}
  ~Participant() override { VectorPool<Rec>::give(std::move(intents_)); }

  Status settle_prepare(sim::Actor& self) override {
    if (node_down_) return Status::Unavailable("txn: participant node is down");
    const Status st = prepare_.wait(self);
    if (st.ok() || st.code() == StatusCode::kAborted) return st;
    if (st.code() == StatusCode::kUnavailable &&
        ctx_->fabric().node_down(lane_.node())) {
      return st;  // died mid-prepare: fail fast
    }
    // Transient transport failure (lost bundle, injected fault): the slot
    // MAY be held server-side without us knowing — the coordinator aborts
    // every participant before retrying, which clears it.
    return Status::Aborted(st.to_string());
  }

  void enqueue_commit(sim::Actor& self, rpc::Batcher& batch,
                      std::uint64_t txn_id) override {
    ctx_->op_stats().remote_invocations.fetch_add(1, std::memory_order_relaxed);
    commit_ = enqueue_at_primary(self, batch, commit_op_.primary, txn_id);
  }

  /// Commit is idempotent server-side, so transient failures re-invoke
  /// directly; a primary that died after prepare-ack reroutes to the
  /// commit's failover twin, which replays the records prepare staged on
  /// the standby.
  Status settle_commit(sim::Actor& self, std::uint64_t txn_id) override {
    for (int round = 0; round < 4; ++round) {
      try {
        const std::uint64_t epoch =
            round == 0 && prepare_.valid() && commit_.valid()
                ? commit_.get(self)
                : send<std::uint64_t>(ctx_->rpc(), self, lane_, std::nullopt,
                                      commit_op_, txn_id)
                      .get(self);
        committed(self, epoch);
        return Status::Ok();
      } catch (const HclError& e) {
        if (e.code() == StatusCode::kUnavailable &&
            ctx_->fabric().node_down(lane_.node())) {
          return commit_failover(self, txn_id);
        }
        if (round == 3) return Status(e.code(), e.what());
      }
    }
    return Status::Internal("txn commit: unreachable");
  }

  /// With the primary dead, the abort goes to the live standby so a later
  /// promotion cannot replay this txn's staged records.
  void send_abort(sim::Actor& self, std::uint64_t txn_id) noexcept override {
    try {
      StandbyOf<Lane> to;
      if (ctx_->fabric().node_down(lane_.node())) {
        to = lane_.standby();
        if (!to) return;
      }
      (void)send<bool>(ctx_->rpc(), self, lane_, to, abort_op_, txn_id)
          .get(self);
    } catch (...) {
      // Best effort: a slot left held is cleared by the repair pass
      // (presumed abort) once the fault heals.
    }
  }

 protected:
  /// The commit applied; `epoch` is the epoch its response carried.
  virtual void committed(sim::Actor&, std::uint64_t) {}

  /// Enqueue the prepare stub `id` with `args`, then the intents as a record
  /// blob, after the lane's prefix, repairing a rejoined primary first (a
  /// commit on its un-repaired store would be overwritten by the replay); a
  /// primary already down fails fast in settle_prepare instead.
  template <typename... Args>
  void enqueue_prepare_call(sim::Actor& self, rpc::Batcher& batch,
                            rpc::FuncId id, const Args&... args) {
    if (ctx_->fabric().node_down(lane_.node())) {
      node_down_ = true;
      return;
    }
    repair_stale(*ctx_, self, lane_);
    ctx_->op_stats().remote_invocations.fetch_add(1, std::memory_order_relaxed);
    prepare_ = enqueue_at_primary(self, batch, id, args...,
                                  record_blob(intents_));
  }

  Context* ctx_;
  Lane lane_;
  /// The staged intent records.
  std::vector<Rec> intents_ = VectorPool<Rec>::take();

 private:
  template <typename... Args>
  rpc::Future<std::uint64_t> enqueue_at_primary(sim::Actor& self,
                                                rpc::Batcher& batch,
                                                rpc::FuncId id,
                                                const Args&... args) {
    return std::apply(
        [&](const auto&... pre) {
          return batch.template enqueue<std::uint64_t>(self, lane_.node(), id,
                                                       pre..., args...);
        },
        lane_.prefix());
  }

  Status commit_failover(sim::Actor& self, std::uint64_t txn_id) {
    const auto to = lane_.standby();
    if (!to) {
      return Status::Unavailable("txn commit: primary down, no live standby");
    }
    ctx_->rpc().route().insert(lane_.node());
    try {
      committed(self, send<std::uint64_t>(ctx_->rpc(), self, lane_, to,
                                          commit_op_, txn_id)
                          .get(self));
      return Status::Ok();
    } catch (const HclError& e) {
      return Status(e.code(), e.what());
    }
  }

  Twins commit_op_;
  Twins abort_op_;
  rpc::Future<std::uint64_t> prepare_;
  rpc::Future<std::uint64_t> commit_;
  bool node_down_ = false;
};

}  // namespace hcl::core
