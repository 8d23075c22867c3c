// The RPC-over-RDMA engine (paper §III.B, Fig. 2).
//
// Server side: users bind() functions into an invocation registry; each bind
// returns a FuncId. When a client invoke()s, the client stub serializes the
// arguments into a request (DataBox wire format), RDMA_SENDs it into the
// target's request buffer (fabric.send_request), and the server stub
// de-marshals and runs the bound function with a simulated start time from
// the target's NIC-core reservation. The response is serialized into the
// response buffer; the client *pulls* it with RDMA_READ
// (fabric.pull_response).
//
// Execution note: the server stub physically executes inline on the calling
// thread (cheap on a small host), but its TIMING is entirely the target
// NIC's — request wire arrival, NIC-core reservation, target-local memory
// charges. Concurrency is still real: many client threads execute handlers
// against the same partition simultaneously. Futures therefore resolve
// eagerly in real time while modelling asynchrony in simulated time: the
// response-ready timestamp is computed from the full RoR pipeline, and
// Future::get() charges the caller's clock only when it actually awaits.
//
// Three invocation shapes, per §III.C.4 and §III.C.3:
//   * invoke        — synchronous (block until the future resolves),
//   * async_invoke  — returns Future<R>,
//   * invoke_chain  — server-side callback chaining: after the main function,
//     each chained FuncId runs on the same NIC core, receiving the previous
//     stage's serialized result as its argument payload ("aggregate multiple
//     data-local operations together ... with one call").
//
// Handlers receive a ServerCtx carrying the simulated start time and must
// record their simulated finish time (local structure costs are charged by
// the handler through the fabric's local_* primitives).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fabric/fabric.h"
#include "obs/trace.h"
#include "rpc/future.h"
#include "serial/arena.h"
#include "serial/databox.h"
#include "shm/transport.h"
#include "sim/actor.h"

namespace hcl::rpc {

using FuncId = std::uint64_t;

/// Per-invocation reliability policy (timeout / retry-with-backoff). All
/// charging happens in *simulated* time: retries lengthen the future's
/// response-ready timestamp, not the client's real wall clock.
struct InvokeOptions {
  /// Deadline measured from the request leaving the client to the response
  /// landing in the response buffer. 0 = no deadline (but a *lost* request
  /// still resolves after the cost model's lost-request timeout — a future
  /// must never stay unfulfilled).
  sim::Nanos timeout_ns = 0;
  /// Re-sends after a transient failure (drop, Unavailable, Retry) before
  /// the final status is surfaced. 0 = fail fast.
  int max_retries = 0;
  /// Simulated back-off before the first re-send; doubles each retry
  /// (multiplied by backoff_multiplier).
  sim::Nanos backoff_ns = 2 * sim::kMicrosecond;
  double backoff_multiplier = 2.0;
  /// Ceiling on the grown back-off. Without one, a long retry budget
  /// overflows the sim::Nanos product and re-sends go BACKWARDS in simulated
  /// time; with it, back-off growth saturates (standard capped exponential
  /// back-off). <= 0 disables the cap (overflow is still prevented).
  sim::Nanos max_backoff_ns = 100 * sim::kMillisecond;
};

/// Flush policy for the client-side op coalescer (rpc::Batcher and the
/// containers' bulk APIs). A per-destination pending bundle ships as ONE
/// RDMA_SEND as soon as ANY threshold trips: op count, queued payload bytes,
/// or a simulated-time linger window measured from the bundle's first
/// enqueue (checked on enqueue/poll — there is no background flusher thread,
/// matching the paper's client-driven RoR pipeline).
struct BatchPolicy {
  /// Flush when this many ops are pending for one destination.
  std::size_t max_ops = 32;
  /// Flush when the pending serialized payload reaches this many bytes.
  std::size_t max_bytes = 32 << 10;
  /// Flush when the oldest pending op has lingered this long in simulated
  /// time. 0 disables the time trigger (count/bytes/explicit flush only).
  sim::Nanos max_delay_ns = 10 * sim::kMicrosecond;
};

/// Per-rank routing table for failover (DESIGN.md §5f). Each client rank
/// remembers which nodes it has OBSERVED down (a "node down" Unavailable
/// after failover-policy retry exhaustion) so later ops — scalar or enqueued
/// into a batch — route straight to the promoted standby without re-paying
/// the detection probe. Marks are per-engine hints, not cluster consensus:
/// a stale mark is corrected the first time the standby answers
/// kFailedPrecondition ("primary is up") and the client retries the primary.
/// One bit per node of the topology (sim::NodeSet).
using RouteTable = sim::NodeSet;

/// Execution context handed to every server stub.
struct ServerCtx {
  sim::NodeId node = 0;     // node the stub runs on
  sim::Nanos start = 0;     // simulated time the stub begins executing
  sim::Nanos finish = 0;    // handler sets this to its simulated completion
  fabric::Fabric* fabric = nullptr;  // for charging local structure costs
  /// Position of this op inside a coalesced bundle; 0 for scalar invocations
  /// and for a bundle's first constituent. Handlers charging structure costs
  /// use it to amortize the per-op base term across a bundle (Table I's bulk
  /// shape F + L + E·W: one L, then per-element byte costs).
  std::uint32_t batch_index = 0;
  /// Partition mutation epoch the handler publishes with its response
  /// (DESIGN.md §5d). Every container stub — read or write — sets this to
  /// its partition's current epoch; the engine piggybacks it on the scalar
  /// or per-op batch response so clients can validate cached entries.
  std::uint64_t epoch = 0;
  /// A handler refuses its op by setting this and returning (DESIGN.md §5c):
  /// the engine then treats the op exactly like one whose handler threw
  /// HclError(status) — the result is discarded, the chain stops, `epoch` is
  /// left as the handler set it — without paying for an unwind. Routine
  /// outcomes (OCC aborts) refuse; exceptions stay for real faults.
  Status status;
  /// The co-located caller running this stub in its own thread (the hybrid
  /// path, §III.C.5), whose clock the stub's charge advances; null for every
  /// context the engine builds.
  sim::Actor* caller = nullptr;
};

/// Type-erased server stub: reads its request payload and appends its
/// result to `out` — the scalar response, or its slot in a bundle's packed
/// response (DESIGN.md §5b). A stub that fails or refuses may leave partial
/// bytes; the engine cuts them.
using RawHandler = std::function<void(ServerCtx&, std::span<const std::byte>,
                                      serial::OutArchive&)>;

namespace detail {

/// One constituent's slot in a packed batch response: status code and
/// message, the simulated time its handler finished, its piggybacked epoch,
/// and its length-prefixed result bytes.
struct BatchSlot {
  Status status;
  sim::Nanos ready = 0;
  std::uint64_t epoch = 0;
  std::span<const std::byte> payload;
};

inline void write_batch_slot(serial::OutArchive& out, const BatchSlot& slot) {
  out.u64(static_cast<std::uint64_t>(slot.status.code()));
  serial::save(out, slot.status.message());
  out.i64(slot.ready);
  out.u64(slot.epoch);
  out.u64(slot.payload.size());
  if (!slot.payload.empty()) {
    out.raw_bytes(slot.payload.data(), slot.payload.size());
  }
}

/// A slot's fixed words when its status carries no message: code, message
/// length, ready, epoch and payload length.
inline constexpr std::size_t kSlotHeaderBytes = 40;

/// Open a slot whose payload a handler appends in place: reserve its header
/// words and return where the slot starts.
inline std::size_t open_batch_slot(serial::OutArchive& out) {
  const std::size_t at = out.size();
  (void)out.extend(kSlotHeaderBytes);
  return at;
}

/// Close the slot opened at `at`: an OK op keeps the payload written after
/// the header and gets its words patched in; a failed one is rewritten as
/// a payload-less slot carrying its message. Same bytes as
/// write_batch_slot either way.
inline void close_batch_slot(serial::OutArchive& out, std::size_t at,
                             Status status, sim::Nanos ready,
                             std::uint64_t epoch) {
  if (!status.ok()) {
    out.truncate(at);
    write_batch_slot(out, {std::move(status), ready, epoch, {}});
    return;
  }
  const std::uint64_t words[5] = {
      static_cast<std::uint64_t>(StatusCode::kOk), 0,
      serial::zigzag_encode(ready), epoch,
      out.size() - at - kSlotHeaderBytes};
  for (int i = 0; i < 5; ++i) {
    serial::RawBackend::store(out.data() + at + 8 * i, words[i]);
  }
}

/// Decode one slot as a view into `in`'s buffer. Every length is checked
/// against the bytes that remain before anything is allocated; a torn or
/// inflated slot throws HclError(kInvalidArgument).
inline BatchSlot read_batch_slot(serial::InArchive& in) {
  BatchSlot slot;
  const auto code = static_cast<StatusCode>(in.u64());
  std::string message;
  serial::load(in, message);
  slot.status = Status(code, std::move(message));
  slot.ready = in.i64();
  slot.epoch = in.u64();
  const std::uint64_t len = in.u64();
  slot.payload = {in.consume(len), len};
  return slot;
}

/// One coalesced-but-unsent op: its registry id and the future state the
/// eventual per-op status fans out to. Its request bytes are already framed
/// in its bundle (Batcher).
struct PendingOp {
  FuncId id = 0;
  std::shared_ptr<FutureState> state;
  /// Simulated time the op entered the coalescer — the constituent span's
  /// issue point, so client-side linger shows up in its inject/wire stages.
  sim::Nanos enqueued_at = 0;
};

/// The invocation registry (§III.B): a FuncId-indexed table whose slots
/// never move, so dispatch reads a handler with two acquire loads — no lock
/// and no copy. Ids count up from 1 and are never reused. bind publishes a
/// handler with a release store; unbind clears its slot and destroys it, so
/// an id must not be unbound while one of its ops is in flight (containers
/// unbind when they are destroyed, after their traffic drained; a handler
/// outliving its container would run against freed state anyway). A leaf
/// whose ids have all been bound and unbound is freed, so a process that
/// builds and drops containers keeps memory proportional to the handlers
/// bound now, not to every id ever issued.
class HandlerTable {
 public:
  static constexpr std::size_t kLeafSlots = 1024;
  static constexpr std::size_t kLeaves = 4096;  // 4 Mi ids

  HandlerTable() : leaves_(new std::atomic<Leaf*>[kLeaves]()) {}
  HandlerTable(const HandlerTable&) = delete;
  HandlerTable& operator=(const HandlerTable&) = delete;
  ~HandlerTable() {
    for (std::size_t i = 0; i < kLeaves; ++i) {
      Leaf* leaf = leaves_[i].load(std::memory_order_relaxed);
      if (leaf == nullptr) continue;
      for (auto& slot : leaf->slots) delete slot.load(std::memory_order_relaxed);
      delete leaf;
    }
  }

  FuncId add(RawHandler handler) {
    std::lock_guard<std::mutex> guard(mutex_);
    const FuncId id = next_;
    const std::size_t at = id / kLeafSlots;
    if (at >= kLeaves) {
      throw HclError(Status::Capacity("rpc registry: FuncId space exhausted"));
    }
    Leaf* leaf = leaves_[at].load(std::memory_order_relaxed);
    if (leaf == nullptr) {
      leaf = new Leaf();
      leaves_[at].store(leaf, std::memory_order_release);
    }
    leaf->slots[id % kLeafSlots].store(new RawHandler(std::move(handler)),
                                       std::memory_order_release);
    ++next_;
    return id;
  }

  void remove(FuncId id) {
    std::lock_guard<std::mutex> guard(mutex_);
    if (id == 0 || id >= next_) return;
    const std::size_t at = id / kLeafSlots;
    Leaf* leaf = leaves_[at].load(std::memory_order_relaxed);
    if (leaf == nullptr) return;
    RawHandler* handler = leaf->slots[id % kLeafSlots].exchange(
        nullptr, std::memory_order_acq_rel);
    if (handler == nullptr) return;
    delete handler;
    if (++leaf->retired == kLeafSlots) {
      leaves_[at].store(nullptr, std::memory_order_release);
      delete leaf;
    }
  }

  /// The handler bound to `id`, or null.
  [[nodiscard]] const RawHandler* find(FuncId id) const noexcept {
    const std::size_t at = id / kLeafSlots;
    if (at >= kLeaves) return nullptr;
    const Leaf* leaf = leaves_[at].load(std::memory_order_acquire);
    return leaf == nullptr
               ? nullptr
               : leaf->slots[id % kLeafSlots].load(std::memory_order_acquire);
  }

 private:
  struct Leaf {
    std::atomic<RawHandler*> slots[kLeafSlots] = {};
    std::size_t retired = 0;  // slots bound and then unbound (under mutex_)
  };

  std::mutex mutex_;
  FuncId next_ = 1;
  std::unique_ptr<std::atomic<Leaf*>[]> leaves_;
};

}  // namespace detail

class Engine {
 public:
  explicit Engine(fabric::Fabric& fabric)
      : fabric_(&fabric), route_(fabric.topology().num_nodes()) {
    // The batch executor is a built-in stub: one delivered bundle runs its
    // constituent ops back-to-back on the NIC core that dispatched it.
    batch_exec_id_ = bind_raw([this](ServerCtx& ctx,
                                     std::span<const std::byte> request,
                                     serial::OutArchive& out) {
      run_batch(ctx, request, out);
    });
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] fabric::Fabric& fabric() noexcept { return *fabric_; }

  /// Attach the Context's tracer (DESIGN.md §5e). Null (the default) or a
  /// disabled tracer keeps every span hook a branch-and-skip.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }
  [[nodiscard]] bool tracing() const noexcept {
    return tracer_ != nullptr && tracer_->enabled();
  }

  /// Attach the Context's shared-memory transport tier (DESIGN.md §5i).
  /// Null (the default) keeps every send on the RDMA path; when set, each
  /// send consults shm_route_ok() and rides the destination's ring when the
  /// endpoints share a memory domain. Set before traffic.
  void set_shm(shm::Transport* transport) noexcept { shm_ = transport; }
  [[nodiscard]] shm::Transport* shm_transport() const noexcept { return shm_; }

  /// Tier eligibility for one (source node, destination node, function)
  /// triple: a transport is attached, the endpoints are pod-local, neither
  /// end's shm tier is fault-degraded, and the function's container has not
  /// opted out. Ring capacity and payload size are checked at send time —
  /// this is the routing predicate only.
  [[nodiscard]] bool shm_route_ok(sim::NodeId from, sim::NodeId to,
                                  FuncId id) const {
    return shm_ != nullptr && shm_->pod_local(from, to) &&
           !fabric_->shm_degraded(from) && !fabric_->shm_degraded(to) &&
           shm_->allows(id);
  }

  /// Default reliability policy applied to every invoke/async_invoke that
  /// does not pass explicit options. Set before traffic (not synchronized
  /// against in-flight invocations).
  void set_default_options(const InvokeOptions& options) noexcept {
    default_options_ = options;
  }
  [[nodiscard]] const InvokeOptions& default_options() const noexcept {
    return default_options_;
  }

  /// This engine's (per-rank-shared) membership routing hints.
  [[nodiscard]] RouteTable& route() noexcept { return route_; }

  // ------------------------------------------------------------------
  // Registry (bind / unbind), §III.B: "users submit their functions by
  // calling the bind() method that maps them to an RPC invocation registry".
  // ------------------------------------------------------------------

  FuncId bind_raw(RawHandler handler) {
    return registry_.add(std::move(handler));
  }

  /// Bind a typed function `R fn(ServerCtx&, const Args&...)`. Its result
  /// is serialized straight into the response the engine hands the stub.
  template <typename R, typename... Args, typename F>
  FuncId bind(F fn) {
    return bind_raw([fn = std::move(fn)](ServerCtx& ctx,
                                         std::span<const std::byte> request,
                                         serial::OutArchive& out) mutable {
      serial::InArchive in(request);
      std::tuple<std::decay_t<Args>...> args;
      std::apply([&in](auto&... unpacked) { (serial::load(in, unpacked), ...); },
                 args);
      if constexpr (std::is_void_v<R>) {
        std::apply([&](auto&... unpacked) { fn(ctx, unpacked...); }, args);
      } else {
        serial::save(out, std::apply(
                              [&](auto&... unpacked) { return fn(ctx, unpacked...); },
                              args));
      }
    });
  }

  /// Remove `id` from the registry. Its ops must have drained (see
  /// detail::HandlerTable); a later invoke of `id` resolves kNotFound.
  void unbind(FuncId id) { registry_.remove(id); }

  // ------------------------------------------------------------------
  // Client stubs
  // ------------------------------------------------------------------

  /// Asynchronous invocation: serialize, RDMA_SEND, enqueue on the target
  /// NIC, return immediately with a Future (client paid injection cost only).
  template <typename R, typename... Args>
  Future<R> async_invoke(sim::Actor& caller, sim::NodeId target, FuncId id,
                         const Args&... args) {
    return async_invoke_chain<R>(caller, target, id, {}, args...);
  }

  /// async_invoke with an explicit reliability policy.
  template <typename R, typename... Args>
  Future<R> async_invoke_opt(sim::Actor& caller, sim::NodeId target, FuncId id,
                             const InvokeOptions& options, const Args&... args) {
    return async_invoke_chain_opt<R>(caller, target, id, {}, options, args...);
  }

  /// Asynchronous invocation with server-side callback chain.
  template <typename R, typename... Args>
  Future<R> async_invoke_chain(sim::Actor& caller, sim::NodeId target,
                               FuncId id, std::vector<FuncId> chain,
                               const Args&... args) {
    return async_invoke_chain_opt<R>(caller, target, id, std::move(chain),
                                     default_options_, args...);
  }

  /// The full client stub: serialize once, then run the attempt loop under
  /// `options`. The returned future is ALWAYS eventually fulfilled with a
  /// definite Status — faults, timeouts, and handler crashes included.
  template <typename R, typename... Args>
  Future<R> async_invoke_chain_opt(sim::Actor& caller, sim::NodeId target,
                                   FuncId id, std::vector<FuncId> chain,
                                   const InvokeOptions& options,
                                   const Args&... args) {
    return start<R>(caller, target, id, chain, options, obs::SpanKind::kScalar,
                    args...);
  }

  /// Failover invocation: the op's primary is down (or marked down in the
  /// route table), so send it to `standby` — the node hosting the promoted
  /// replica — under the failover policy. Identical pipeline to a scalar
  /// invoke; differs only in policy, span kind (kFailover, so traces show
  /// re-routed ops distinctly), and the standby NIC's `failovers` counter.
  template <typename R, typename... Args>
  Future<R> async_invoke_failover(sim::Actor& caller, sim::NodeId standby,
                                  FuncId id, const Args&... args) {
    fabric_->nic(standby).counters().failovers.fetch_add(
        1, std::memory_order_relaxed);
    return start<R>(caller, standby, id, {}, kFailoverOptions,
                    obs::SpanKind::kFailover, args...);
  }

  /// Anti-entropy repair invocation: replay a promoted replica's journal
  /// delta into its rejoined primary (SpanKind::kRepair, so traces show the
  /// recovery pass distinctly). Runs under the failover policy; the
  /// primary-side stub accounts repair_ops per replayed record.
  template <typename R, typename... Args>
  Future<R> async_invoke_repair(sim::Actor& caller, sim::NodeId primary,
                                FuncId id, const Args&... args) {
    return start<R>(caller, primary, id, {}, kFailoverOptions,
                    obs::SpanKind::kRepair, args...);
  }

  /// Synchronous invocation (paper: the caller "blocks waiting for the
  /// response immediately after making the invocation call").
  template <typename R, typename... Args>
  R invoke(sim::Actor& caller, sim::NodeId target, FuncId id,
           const Args&... args) {
    return async_invoke<R>(caller, target, id, args...).get(caller);
  }

  /// invoke with an explicit reliability policy.
  template <typename R, typename... Args>
  R invoke_opt(sim::Actor& caller, sim::NodeId target, FuncId id,
               const InvokeOptions& options, const Args&... args) {
    return async_invoke_opt<R>(caller, target, id, options, args...).get(caller);
  }

  /// Synchronous invocation with a server-side callback chain; returns the
  /// final stage's result.
  template <typename R, typename... Args>
  R invoke_chain(sim::Actor& caller, sim::NodeId target, FuncId id,
                 std::vector<FuncId> chain, const Args&... args) {
    return async_invoke_chain<R>(caller, target, id, std::move(chain), args...)
        .get(caller);
  }

  // ------------------------------------------------------------------
  // Batched invocation (op coalescing): used by rpc::Batcher and the
  // containers' bulk APIs.
  // ------------------------------------------------------------------

  /// Ship `ops` to `target` as ONE bundled RDMA_SEND, execute them
  /// back-to-back on a single NIC-core dispatch, and fan the packed response
  /// out to every constituent's future. `bundle` is the request exactly as
  /// it goes on the wire — a count word, then per op its id, payload length
  /// and payload (Batcher frames each op there as it is enqueued); this
  /// writes the count. Failure semantics:
  ///   * batch-level transport faults (drop, NACK, deadline) go through the
  ///     normal retry policy in `options`; what survives resolves EVERY
  ///     constituent with that status,
  ///   * per-op faults (OpClass::kBatchOp draws) and handler failures
  ///     resolve only the op they touch — the rest of the bundle completes.
  /// All constituent futures share one BatchPull, so awaiting them charges
  /// exactly one response pull, and each reads its slot in place from the
  /// packed response the pull holds. A single-op bundle degenerates to a
  /// plain scalar invocation (no bundle framing, no sub-dispatch charge).
  void send_batch(sim::Actor& caller, sim::NodeId target,
                  std::span<const detail::PendingOp> ops,
                  serial::OutArchive& bundle, const InvokeOptions& options) {
    if (ops.empty()) return;
    if (ops.size() == 1) {
      auto& op = ops.front();
      issue(caller, target, op.id, {}, options, *op.state,
            obs::SpanKind::kScalar, /*shm_ok=*/true,
            Serialized{std::span<const std::byte>(bundle.buffer())
                           .subspan(kBundleOpOffset)});
      return;
    }
    const std::size_t bundle_size = ops.size();
    serial::RawBackend::store(bundle.data(), bundle_size);

    // A bundle may ride the shm ring only if EVERY constituent's container
    // allows it — the batch executor id itself is engine-level and never
    // denied, so the per-op check carries the opt-out through coalescing.
    bool shm_ok = true;
    if (shm_ != nullptr) {
      for (const auto& op : ops) {
        if (!shm_->allows(op.id)) {
          shm_ok = false;
          break;
        }
      }
    }

    // The parent future carries the whole bundle through the ordinary
    // attempt loop (retry/backoff/deadline included); run_attempts always
    // fulfills it synchronously because handlers execute inline.
    detail::FutureState parent;
    issue(caller, target, batch_exec_id_, {}, options, parent,
          obs::SpanKind::kBatch, shm_ok, Serialized{bundle.buffer()});
    if (parent.span != nullptr) {
      parent.span->bundle_ops = static_cast<std::uint32_t>(bundle_size);
    }

    auto pull = make_pooled<detail::BatchPull>();
    pull->total_bytes = parent.bytes.size();
    pull->ready = parent.response_ready_ns;
    pull->span = parent.span;  // the ONE shared pull is recorded there
    pull->via_shm = parent.via_shm;
    if (!parent.status.ok()) {
      // Whole-bundle transport failure: every constituent gets the parent's
      // status (no response to unpack, so the shared pull is empty).
      for (auto& op : ops) {
        op.state->batch_pull = pull;
        op.state->fulfill({}, parent.response_ready_ns, parent.status);
      }
      return;
    }
    pull->response = parent.take_payload();
    serial::InArchive in{std::span<const std::byte>(pull->response)};
    std::size_t next = 0;
    // Constituent spans: the server records each op's finish time in its
    // packed slot, so client-side we can reconstruct the bundle's internal
    // timeline exactly — op i picks up at (previous finish + nic_batch_op_ns)
    // and its pickup+handler stages telescope to the bundle's busy span.
    const bool traced = tracing() && parent.span != nullptr;
    const sim::Nanos pickup = fabric_->model().nic_batch_op_ns;
    sim::Nanos op_cursor = traced ? parent.span->exec_start_ns : 0;
    try {
      for (; next < ops.size(); ++next) {
        detail::BatchSlot slot = detail::read_batch_slot(in);
        const sim::Nanos op_ready = slot.ready;
        if (traced && op_cursor >= 0) {
          auto span = std::make_shared<obs::Span>();
          span->kind = obs::SpanKind::kBatchOp;
          span->func_id = ops[next].id;
          span->target = target;
          span->client_rank = parent.span->client_rank;
          span->batch_index = static_cast<std::uint32_t>(next);
          span->attempts = parent.span->attempts;
          span->status = slot.status.code();
          span->issue_ns = ops[next].enqueued_at;
          span->inject_done_ns = parent.span->inject_done_ns;
          span->arrival_ns = parent.span->arrival_ns;
          span->dispatch_ns = pickup;
          span->exec_start_ns = op_cursor + pickup;
          span->handler_end_ns = std::max(op_ready, span->exec_start_ns);
          span->ready_ns = span->handler_end_ns;
          // Packets stay on the kBatch parent: one wire crossing, one pull.
          op_cursor = span->handler_end_ns;
          ops[next].state->span = span;
          tracer_->commit(span);
        }
        ops[next].state->batch_pull = pull;
        ops[next].state->fulfill_view(slot.payload, op_ready,
                                      std::move(slot.status), slot.epoch);
      }
    } catch (const std::exception& e) {
      // A torn packed response must still resolve every remaining future.
      for (; next < ops.size(); ++next) {
        ops[next].state->batch_pull = pull;
        ops[next].state->fulfill(
            {}, parent.response_ready_ns,
            Status::Internal(std::string("malformed batch response: ") +
                             e.what()));
      }
    }
  }

  /// Registry id of the built-in batch executor (diagnostics/tests).
  [[nodiscard]] FuncId batch_executor_id() const noexcept {
    return batch_exec_id_;
  }

  /// Server-side fire-and-forget re-invocation (asynchronous replication,
  /// §III.A.4: "the target process will further hash an operation to more
  /// servers"). No actor clock is touched — replication is off the caller's
  /// critical path. `ready` is the simulated time the originating handler
  /// finished.
  template <typename... Args>
  void server_invoke(sim::NodeId origin, sim::NodeId target, sim::Nanos ready,
                     FuncId id, const Args&... args) {
    // A DOWN target absorbs nothing: the fan-out is suppressed entirely (no
    // execution, no ingress reservation). The anti-entropy repair pass
    // replays the missed delta when the node rejoins.
    if (fabric_->node_down(target)) return;
    const auto write = [&](auto& ar) { (serial::save(ar, args), ...); };
    sim::Nanos arrival = ready;
    // Pod-local fan-out rides the ring (DESIGN.md §5i): the replica copy
    // lands in the destination's arena for shm_doorbell_ns + memory-channel
    // time instead of a wire crossing. No rpc_count either way — the
    // replication fan-out was never a client RPC — so shm_sends here tells
    // the tier split for replication traffic specifically.
    RingRequest ring;
    if (origin != target && shm_route_ok(origin, target, id)) {
      ring = publish_slot(target, id, {}, write);
    }
    serial::OutArchive out;  // the request, when the ring did not take it
    std::span<const std::byte> request = ring.payload;
    sim::Resource* consumer = nullptr;
    if (ring.slot.valid()) {
      auto& counters = fabric_->nic(target).counters();
      counters.shm_sends.fetch_add(1, std::memory_order_relaxed);
      counters.shm_bytes.fetch_add(ring.wire_bytes, std::memory_order_relaxed);
      arrival = ready + fabric_->model().shm_doorbell_ns;
      arrival = fabric_->local_write(target, arrival, ring.wire_bytes);
      consumer = &ring.slot.ring()->consumer();
    } else {
      serial::write_sized(out, write);
      request = out.buffer();
      if (origin != target) {
        arrival += fabric_->model().net_base_latency_ns;
        arrival = fabric_->nic(target).ingress().reserve(
            arrival, fabric_->model().wire_time(rdma_bytes({}, request)));
      }
    }
    // Fire-and-forget: the completion (including any failure status) is
    // dropped, but execute() still contains every exception, so a crashing
    // replication handler can never unwind into the primary's stub.
    Completion done = execute(target, id, {}, request, arrival, false, consumer);
    if (tracing()) {
      auto span = std::make_shared<obs::Span>();
      span->kind = obs::SpanKind::kReplication;
      span->func_id = id;
      span->target = target;
      span->status = done.status.code();
      span->issue_ns = ready;
      span->inject_done_ns = ready;  // no client WQE: originates server-side
      span->arrival_ns = arrival;
      span->dispatch_ns = consumer != nullptr
                              ? fabric_->model().shm_dispatch_ns
                              : fabric_->model().nic_rpc_dispatch_ns;
      span->exec_start_ns = done.exec_start;
      span->handler_end_ns = done.ready;
      span->ready_ns = done.ready;
      // No packets attributed: send_request/pull_response never ran for the
      // fan-out (replication rides the simulated ingress reservation only),
      // so counters reconciliation stays exact.
      tracer_->commit(span);
    }
  }

  // ------------------------------------------------------------------
  // Used by Future<R>::get
  // ------------------------------------------------------------------

  /// Charge the caller for pulling the response that became ready on
  /// `target` (Fig. 2 steps 6-7) and record the pull on the op's span.
  void charge_pull(sim::Actor& caller, sim::NodeId target,
                   detail::FutureState& state) {
    const auto bytes =
        static_cast<std::int64_t>(state.bytes.size() + kResponseHeaderBytes);
    if (state.via_shm) {
      // The response sits in pod-shared memory: read it at local-memory
      // rates — no 3x net_base_latency RDMA_READ, no packets (§5i).
      fabric_->shm_pull(caller, target, bytes, state.response_ready_ns);
      if (tracing() && state.span != nullptr && state.span->pull_done_ns < 0) {
        tracer_->record_pull(*state.span, caller.now(), 0);
      }
      return;
    }
    fabric_->pull_response(caller, target, bytes, state.response_ready_ns);
    if (tracing() && state.span != nullptr && state.span->pull_done_ns < 0) {
      tracer_->record_pull(
          *state.span, caller.now(),
          target != caller.node() ? fabric_->model().packets(bytes) : 0);
    }
  }

  /// Charge the ONE pull of a packed batch response, shared by every
  /// constituent future. First awaiter pays the RDMA_READ; later awaiters
  /// only advance to its completion (the bytes are already client-side).
  void charge_batch_pull(sim::Actor& caller, sim::NodeId target,
                         detail::BatchPull& pull) {
    std::lock_guard<std::mutex> guard(pull.mutex);
    if (!pull.charged) {
      const auto bytes =
          static_cast<std::int64_t>(pull.total_bytes + kResponseHeaderBytes);
      if (pull.via_shm) {
        fabric_->shm_pull(caller, target, bytes, pull.ready);
      } else {
        fabric_->pull_response(caller, target, bytes, pull.ready);
      }
      pull.charged = true;
      pull.completion = caller.now();
      if (tracing() && pull.span != nullptr && pull.span->pull_done_ns < 0) {
        tracer_->record_pull(
            *pull.span, caller.now(),
            !pull.via_shm && target != caller.node()
                ? fabric_->model().packets(bytes)
                : 0);
      }
      return;
    }
    caller.advance_to(pull.completion);
  }

  /// An already-resolved future carrying `value` — the hybrid shared-memory
  /// fast path's async shape (§III.C.5: co-located callers bypass the wire).
  /// The caller has already applied the op and charged its local cost;
  /// awaiting the returned future charges nothing (pre-charged pull, the
  /// same idiom as Batcher::fail_pending) and no span is committed (cache
  /// hit/miss spans cover the client-side story; there is no pipeline here).
  template <typename R>
  Future<R> resolved_future(sim::Actor& caller, sim::NodeId node,
                            const R& value) {
    serial::OutArchive out;
    serial::save(out, value);
    auto state = detail::new_state();
    auto no_pull = make_pooled<detail::BatchPull>();
    no_pull->charged = true;
    no_pull->ready = caller.now();
    no_pull->completion = caller.now();
    state->batch_pull = std::move(no_pull);
    state->fulfill(out.release(), caller.now(), Status::Ok());
    return Future<R>(std::move(state), this, node);
  }

  /// Total RPCs that crossed the wire (for Table I accounting).
  [[nodiscard]] std::int64_t total_invocations() const {
    std::int64_t sum = 0;
    for (int n = 0; n < fabric_->topology().num_nodes(); ++n) {
      sum += fabric_->nic(n).counters().rpc_count.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  static constexpr std::size_t kHeaderBytes = 24;          // id + lens + caller
  /// Where a bundle's first op payload starts: count, id and length words.
  static constexpr std::size_t kBundleOpOffset = 24;
  static constexpr std::size_t kResponseHeaderBytes = 24;  // status + len + epoch

  /// Outcome of one server-side execution: a well-formed status plus the
  /// simulated time the response buffer was written. Never an exception.
  /// `payload` is the response archive the stub wrote into; its buffer
  /// moves into the op's future, or back to the pool with the Completion.
  struct Completion {
    serial::OutArchive payload;
    sim::Nanos ready = 0;
    sim::Nanos exec_start = 0;  // handler start = NIC dispatch completion
    Status status = Status::Ok();
    std::uint64_t epoch = 0;  // piggybacked partition epoch (ServerCtx::epoch)
  };

  /// RDMA wire bytes of a heap-resident request: the fixed header, one word
  /// per chained stage, then the payload.
  static std::int64_t rdma_bytes(const std::vector<FuncId>& chain,
                                 std::span<const std::byte> request) {
    return static_cast<std::int64_t>(kHeaderBytes + 8 * chain.size() +
                                     request.size());
  }

  /// A payload serialized before the send (a coalesced op or a packed
  /// bundle), as a writer: copied into a ring slot, or sent as is.
  struct Serialized {
    std::span<const std::byte> bytes;
    template <typename Archive>
    void operator()(Archive& ar) const {
      if (!bytes.empty()) ar.raw_bytes(bytes.data(), bytes.size());
    }
  };

  /// Serialize the shm slot wire format into `chunk`: varint header (func
  /// id, chain length, chain ids), the payload `write(archive)` emits, then
  /// a varint payload-length TRAILER — trailing so a producer can serialize
  /// without knowing the length up front. Returns the total published bytes
  /// (the tier's wire_bytes), or -1 when the op does not fit the slot's
  /// arena chunk (oversize: the caller releases the slot and rides RDMA).
  /// `payload` receives the payload's bytes inside the chunk, so the server
  /// stub can execute against a zero-copy view of the arena.
  template <typename Write>
  static std::int64_t pack_slot(std::span<std::byte> chunk, FuncId id,
                                const std::vector<FuncId>& chain,
                                const Write& write,
                                std::span<const std::byte>* payload) {
    serial::PackedFlatOutArchive header(chunk);
    header.u64(id);
    header.u64(chain.size());
    for (FuncId c : chain) header.u64(c);
    if (!header.ok()) return -1;
    serial::FlatOutArchive body(chunk.subspan(header.size()));
    write(body);
    if (!body.ok()) return -1;
    std::byte* cursor = chunk.data() + header.size() + body.size();
    if (!serial::PackedBackend::put_u64(cursor, chunk.data() + chunk.size(),
                                        body.size())) {
      return -1;
    }
    *payload = body.written();
    return static_cast<std::int64_t>(cursor - chunk.data());
  }

  /// A request published into a destination's shm ring: the slot (invalid
  /// when the op must ride RDMA), the bytes the tier charges, and the
  /// payload view the handler executes against.
  struct RingRequest {
    shm::SlotHandle slot;
    std::int64_t wire_bytes = 0;
    std::span<const std::byte> payload;
  };

  /// The one ring step every sender shares (DESIGN.md §5i): acquire a slot
  /// on `target`'s ring, pack the request straight into its arena chunk
  /// and publish it. A full ring counts a shm_ring_full_fallbacks; an op
  /// too big for a slot chunk releases the slot uncounted. Either way the
  /// returned slot is invalid and the op rides RDMA.
  template <typename Write>
  RingRequest publish_slot(sim::NodeId target, FuncId id,
                           const std::vector<FuncId>& chain,
                           const Write& write) {
    RingRequest ring;
    ring.slot = shm_->try_acquire(target);
    if (!ring.slot.valid()) {
      fabric_->nic(target).counters().shm_ring_full_fallbacks.fetch_add(
          1, std::memory_order_relaxed);
      return ring;
    }
    ring.wire_bytes =
        pack_slot(ring.slot.chunk(), id, chain, write, &ring.payload);
    if (ring.wire_bytes < 0) {
      ring.slot.reset();
    } else {
      ring.slot.ring()->publish(ring.slot.slot(), ring.wire_bytes);
    }
    return ring;
  }

  /// The typed client stub: serialize `args` and run them under `options`
  /// into a fresh future.
  template <typename R, typename... Args>
  Future<R> start(sim::Actor& caller, sim::NodeId target, FuncId id,
                  const std::vector<FuncId>& chain,
                  const InvokeOptions& options, obs::SpanKind kind,
                  const Args&... args) {
    auto state = detail::new_state();
    issue(caller, target, id, chain, options, *state, kind, /*shm_ok=*/true,
          [&](auto& ar) { (serial::save(ar, args), ...); });
    return Future<R>(std::move(state), this, target);
  }

  /// The one request path behind every client entry point. When the op may
  /// ride the shm tier (`shm_ok` and the route allows it), `write` emits the
  /// payload STRAIGHT into an acquired ring slot, so a small pod-local op
  /// touches no heap on the request side (DESIGN.md §5i). Otherwise — no
  /// route, a full ring, or an op oversize for a slot chunk — it is
  /// serialized for RDMA into a buffer checked out of the thread's pool,
  /// sized by a counting pass first so it grows at most once, and does not
  /// retry the ring. The buffer goes back to the pool when issue returns:
  /// run_attempts resolves `state` before that, because handlers execute
  /// inline.
  template <typename Write>
  void issue(sim::Actor& caller, sim::NodeId target, FuncId id,
             const std::vector<FuncId>& chain, const InvokeOptions& options,
             detail::FutureState& state, obs::SpanKind kind, bool shm_ok,
             const Write& write) {
    if (shm_ok && shm_route_ok(caller.node(), target, id)) {
      RingRequest ring = publish_slot(target, id, chain, write);
      if (ring.slot.valid()) {
        run_attempts(caller, target, id, chain, ring.payload, ring.wire_bytes,
                     options, state, kind, std::move(ring.slot));
        return;
      }
    }
    if constexpr (std::is_same_v<Write, Serialized>) {
      run_attempts(caller, target, id, chain, write.bytes,
                   rdma_bytes(chain, write.bytes), options, state, kind, {});
    } else {
      serial::OutArchive out;
      serial::write_sized(out, write);
      run_attempts(caller, target, id, chain, out.buffer(),
                   rdma_bytes(chain, out.buffer()), options, state, kind, {});
    }
  }

  /// The attempt loop behind every client stub. Exactly one fulfill() on
  /// `state`, no matter which faults fire: injected drops resolve after a
  /// timeout, transient statuses retry with exponential backoff in simulated
  /// time, and everything else surfaces as the completion's status. When
  /// tracing, the op's span records the LAST attempt's stage boundaries
  /// (earlier attempts show up as the attempt count plus their wire packets)
  /// and is committed exactly once, right before the single fulfill().
  ///
  /// A valid `slot` means issue() already published the request into the
  /// destination's ring: it replaces send_request with shm_send, dispatches
  /// on the ring's consumer lane, and emits zero packets. Retries re-ring
  /// the SAME slot (a fresh doorbell, not a fresh slot). Fault draws happen
  /// before the tier branch, so the fault stream is identical whether or
  /// not the tier is enabled.
  void run_attempts(sim::Actor& caller, sim::NodeId target, FuncId id,
                    const std::vector<FuncId>& chain,
                    std::span<const std::byte> request,
                    std::int64_t wire_bytes, const InvokeOptions& options,
                    detail::FutureState& state, obs::SpanKind kind,
                    shm::SlotHandle slot) {
    fabric::FaultPlan* plan = fabric_->fault_plan();
    auto& counters = fabric_->nic(target).counters();
    const int attempts = 1 + std::max(0, options.max_retries);
    sim::Nanos backoff = std::max<sim::Nanos>(options.backoff_ns, 1);
    sim::Nanos resend_at = 0;  // 0 = caller's current clock

    const bool use_shm = slot.valid();
    state.via_shm = use_shm;

    std::shared_ptr<obs::Span> span;
    if (tracing()) {
      span = std::make_shared<obs::Span>();
      // Only plain scalar ops change identity when they ride the ring;
      // failover/repair/batch spans keep their kinds (the tier split for
      // those still shows in shm_sends).
      span->kind = use_shm && kind == obs::SpanKind::kScalar
                       ? obs::SpanKind::kShm
                       : kind;
      span->func_id = id;
      span->target = target;
      span->client_rank = caller.rank();
      state.span = span;
      // Optional client-side bookkeeping charge (default 0: tracing is free
      // in simulated time, preserving the ablation numbers).
      if (fabric_->model().trace_span_ns > 0) {
        caller.advance(fabric_->model().trace_span_ns);
      }
    }
    const auto finish_span = [&](sim::Nanos ready, StatusCode code) {
      if (span == nullptr) return;
      span->ready_ns = ready;
      span->status = code;
      tracer_->commit(span);
    };

    for (int attempt = 0; attempt < attempts; ++attempt) {
      const bool last = attempt + 1 == attempts;
      if (attempt > 0) {
        counters.rpc_retries.fetch_add(1, std::memory_order_relaxed);
      }
      fabric::FaultDecision fault;
      if (plan != nullptr) fault = plan->next(target, fabric::OpClass::kRpc);

      sim::Nanos issued = 0;
      sim::Nanos arrival =
          use_shm
              ? fabric_->shm_send(caller, target, wire_bytes, resend_at,
                                  &issued)
              : fabric_->send_request(caller, target, wire_bytes, resend_at,
                                      &issued);
      const sim::Nanos deadline =
          options.timeout_ns > 0 ? issued + options.timeout_ns : 0;
      if (span != nullptr) {
        span->attempts = static_cast<std::uint32_t>(attempt + 1);
        span->issue_ns = issued;
        // Local injection (ring doorbell or loopback) pays shm_doorbell_ns;
        // only a true wire crossing pays the WQE injection overhead.
        span->inject_done_ns =
            issued + (use_shm || target == caller.node()
                          ? fabric_->model().shm_doorbell_ns
                          : fabric_->model().wire_overhead_ns);
        span->arrival_ns = arrival;
        if (!use_shm && target != caller.node()) {
          span->request_packets +=
              static_cast<std::int64_t>(fabric_->model().packets(wire_bytes));
        }
      }

      if (fault.drop) {
        // Request lost on the wire: the handler never runs; the client
        // notices only when its (explicit or lost-request) deadline passes.
        const sim::Nanos give_up =
            issued + (options.timeout_ns > 0
                          ? options.timeout_ns
                          : fabric_->model().rpc_lost_request_timeout_ns);
        if (last) {
          counters.rpc_timeouts.fetch_add(1, std::memory_order_relaxed);
          clear_exec_stages(span);
          finish_span(give_up, StatusCode::kDeadlineExceeded);
          state.fulfill({}, give_up,
                        Status::DeadlineExceeded("request dropped; retries exhausted"));
          return;
        }
        resend_at = give_up + backoff;
        backoff = grow(backoff, options);
        continue;
      }
      if (fault.unavailable) {
        // Transient NACK from the target endpoint (no side effects). A
        // node_down decision is a HARD NACK from a dead endpoint: the plan
        // returns it deterministically until rejoin, so burning the retry
        // budget against it only delays the caller — fail fast and let the
        // container's failover path consult fabric().node_down(target).
        // A ring-resident request NACKs at doorbell latency, not wire RTT.
        const sim::Nanos nack =
            arrival + (use_shm ? fabric_->model().shm_doorbell_ns
                               : fabric_->model().net_base_latency_ns);
        if (last || fault.node_down) {
          clear_exec_stages(span);
          finish_span(nack, StatusCode::kUnavailable);
          state.fulfill({}, nack,
                        Status::Unavailable(fault.node_down
                                                ? "node down"
                                                : "injected transient fault"));
          return;
        }
        resend_at = nack + backoff;
        backoff = grow(backoff, options);
        continue;
      }
      sim::Resource* consumer = use_shm ? &slot.ring()->consumer() : nullptr;
      if (fault.duplicate) {
        // Duplicate delivery (NIC-level retransmission): the handler runs
        // twice; the client consumes one response. Containers must be
        // idempotent under this (fault_test proves the contract). The twin
        // execution is invisible to the span (it charges the counters only),
        // so busy/span reconciliation is exact only on fault-free runs.
        (void)execute(target, id, chain, request, arrival, false, consumer);
      }

      Completion done = execute(target, id, chain, request, arrival,
                                fault.throw_handler, consumer);
      const sim::Nanos handler_end = done.ready;  // before any NIC-stall delay
      if (fault.delay_ns > 0) done.ready += fault.delay_ns;  // NIC stall
      if (span != nullptr) {
        span->dispatch_ns = use_shm ? fabric_->model().shm_dispatch_ns
                                    : fabric_->model().nic_rpc_dispatch_ns;
        span->exec_start_ns = done.exec_start;
        span->handler_end_ns = handler_end;
      }

      if (!last && is_retryable(done.status.code())) {
        resend_at = done.ready + backoff;
        backoff = grow(backoff, options);
        continue;
      }
      if (deadline > 0 && done.ready > deadline) {
        // The response exists but landed after the client stopped waiting.
        // Side effects may have happened — same contract as a real fabric.
        if (!last) {
          resend_at = deadline + backoff;
          backoff = grow(backoff, options);
          continue;
        }
        counters.rpc_timeouts.fetch_add(1, std::memory_order_relaxed);
        finish_span(deadline, StatusCode::kDeadlineExceeded);
        state.fulfill({}, deadline,
                      Status::DeadlineExceeded("response after deadline"));
        return;
      }
      finish_span(done.ready, done.status.code());
      state.fulfill(done.payload.release(), done.ready, std::move(done.status),
                    done.epoch);
      return;
    }
  }

  /// A final attempt that never reached the handler has no server-side
  /// stages — wipe them so the span's queue/dispatch/handler durations from
  /// an EARLIER attempt do not masquerade as this one's.
  static void clear_exec_stages(const std::shared_ptr<obs::Span>& span) {
    if (span == nullptr) return;
    span->dispatch_ns = 0;
    span->exec_start_ns = -1;
    span->handler_end_ns = -1;
  }

  static sim::Nanos grow(sim::Nanos backoff, const InvokeOptions& options) {
    const double mult =
        options.backoff_multiplier > 1.0 ? options.backoff_multiplier : 1.0;
    const sim::Nanos cap = options.max_backoff_ns > 0
                               ? options.max_backoff_ns
                               : std::numeric_limits<sim::Nanos>::max();
    // Grow in double and compare against the cap BEFORE narrowing: the
    // product can exceed sim::Nanos range long before the retry budget runs
    // out, and the old int64 cast wrapped negative (resend_at going
    // backwards in time).
    const double next = static_cast<double>(backoff) * mult;
    if (next >= static_cast<double>(cap)) return cap;
    return std::max(backoff, static_cast<sim::Nanos>(next));
  }

  /// The one execution step (DESIGN.md §5b): look up `id` and run it on
  /// `ctx` against `arg`, appending its result to `out`. Every scalar stub,
  /// chain stage and bundle constituent (its in-slot duplicate twin
  /// included) runs through here, so this is the one place a failure is
  /// contained: a missing handler, a refusal (ServerCtx::status), a thrown
  /// HclError, a foreign exception or a non-exception throw all become a
  /// well-formed Status with nothing appended — nothing ever unwinds across
  /// the stub boundary, so no waiter can be left blocked on an unfulfilled
  /// future. A non-null `injected` throws a fault-plan handler crash with
  /// that message once the handler is found.
  Status run_op(ServerCtx& ctx, FuncId id, std::span<const std::byte> arg,
                serial::OutArchive& out, const char* injected = nullptr) {
    const RawHandler* handler = registry_.find(id);
    if (handler == nullptr) {
      return Status::NotFound("no handler bound for id " + std::to_string(id));
    }
    const std::size_t mark = out.size();
    Status status;
    try {
      if (injected != nullptr) throw std::runtime_error(injected);
      (*handler)(ctx, arg, out);
      if (!ctx.status.ok()) {
        // A refusal reports the code and `to_string()` message a caught
        // HclError(status) yields, so the packed batch response — and
        // the simulated wire time it costs — is the same either way.
        status = Status(ctx.status.code(), ctx.status.to_string());
      }
    } catch (const HclError& e) {
      status = Status(e.code(), e.what());
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("handler threw: ") + e.what());
    } catch (...) {
      status = Status::Internal("handler threw a non-exception type");
    }
    if (!status.ok()) out.truncate(mark);
    return status;
  }

  /// Run the server stub (plus chain) for one delivered request: dispatch
  /// it on the target NIC (or the ring's consumer lane) and run_op each
  /// stage. The dispatch span is accounted as NIC-core busy time (Fig. 4a)
  /// on EVERY exit, not just success.
  Completion execute(sim::NodeId target, FuncId id,
                     const std::vector<FuncId>& chain,
                     std::span<const std::byte> request, sim::Nanos arrival,
                     bool inject_throw = false,
                     sim::Resource* shm_consumer = nullptr) {
    ServerCtx ctx;
    ctx.node = target;
    ctx.fabric = fabric_;
    // A ring-delivered request dispatches on the destination's single shm
    // consumer lane (shm_dispatch_ns per slot pickup, DESIGN.md §5i)
    // instead of the NIC cores' WQE dispatch.
    const sim::Nanos dispatch_ns = shm_consumer != nullptr
                                       ? fabric_->model().shm_dispatch_ns
                                       : fabric_->model().nic_rpc_dispatch_ns;
    const auto dispatch = [&](sim::Nanos at) {
      ctx.start = shm_consumer != nullptr
                      ? shm_consumer->reserve(at, dispatch_ns)
                      : fabric_->nic_begin(target, at);
      ctx.finish = ctx.start;
    };
    dispatch(arrival);
    const sim::Nanos dispatch_start = ctx.start;
    auto& counters = fabric_->nic(target).counters();
    // nic_begin returns the DISPATCH COMPLETION time; anything beyond the
    // dispatch service itself was spent queued behind other WQEs — or, on
    // the shm tier, behind earlier slots on the consumer lane (Fig. 4's
    // queue stage either way).
    const sim::Nanos queue_wait = ctx.start - arrival - dispatch_ns;
    if (queue_wait > 0) {
      counters.rpc_queue_wait_ns.fetch_add(queue_wait,
                                           std::memory_order_relaxed);
    }

    Completion done;
    done.status = run_op(ctx, id, request, done.payload,
                         inject_throw ? "injected handler fault" : nullptr);
    // Server-side callback chain: each stage consumes the previous stage's
    // serialized result, on the same NIC core, de-marshal cost included
    // (charged as one dispatch per stage). A failed or refused stage ends
    // it; a missing stage ends it before it is dispatched.
    for (FuncId next : chain) {
      if (!done.status.ok()) break;
      if (registry_.find(next) == nullptr) {
        done.payload.clear();
        done.status = Status::NotFound("chained handler missing");
        break;
      }
      const sim::Nanos prev_finish = ctx.finish;
      dispatch(ctx.finish);
      serial::OutArchive stage_out;
      done.status = run_op(ctx, next, done.payload.buffer(), stage_out);
      done.payload = std::move(stage_out);
      if (tracing()) {
        // One span per chained stage: "arrives" when the previous stage
        // finished, re-dispatches on the same NIC core, runs to finish.
        // Excluded from accounted_handler_ns (the parent scalar span's
        // handler stage already covers the whole chain).
        auto stage = std::make_shared<obs::Span>();
        stage->kind = obs::SpanKind::kChainStage;
        stage->func_id = next;
        stage->target = target;
        stage->status = done.status.code();
        stage->arrival_ns = prev_finish;
        stage->dispatch_ns = dispatch_ns;
        stage->exec_start_ns = ctx.start;
        stage->handler_end_ns = ctx.finish;
        stage->ready_ns = ctx.finish;
        tracer_->commit(stage);
      }
    }
    // Account the stub's execution span as NIC-core busy time (Fig. 4a) on
    // all exits — error paths charge whatever the handler consumed before
    // failing, so utilization under failure is not under-reported.
    counters.handler_busy_ns.fetch_add(ctx.finish - dispatch_start,
                                       std::memory_order_relaxed);
    counters.busy.add(dispatch_start, ctx.finish - dispatch_start);
    done.ready = ctx.finish;
    done.epoch = ctx.epoch;
    done.exec_start = dispatch_start;
    return done;
  }

  /// Server-side batch executor (the stub behind batch_exec_id_). Walks the
  /// packed bundle on the NIC core that dispatched it: each constituent pays
  /// a reduced sub-dispatch pickup (nic_batch_op_ns, not a fresh WQE
  /// dispatch), draws its own OpClass::kBatchOp fault, and runs through
  /// run_op like a scalar stub — one op's crash, drop, or NACK poisons only
  /// its own slot in the packed response. The enclosing execute() accounts
  /// the whole span as NIC-core busy time via ctx.finish. Each
  /// constituent's result is written straight into its slot of `out`, the
  /// packed response.
  void run_batch(ServerCtx& ctx, std::span<const std::byte> request,
                 serial::OutArchive& out) {
    serial::InArchive in(request);
    const std::uint64_t count = in.u64();
    fabric::FaultPlan* plan = fabric_->fault_plan();
    auto& counters = fabric_->nic(ctx.node).counters();
    counters.rpc_batches.fetch_add(1, std::memory_order_relaxed);
    counters.rpc_batched_ops.fetch_add(static_cast<std::int64_t>(count),
                                       std::memory_order_relaxed);
    const sim::Nanos pickup = fabric_->model().nic_batch_op_ns;

    sim::Nanos cursor = ctx.start;
    for (std::uint64_t i = 0; i < count; ++i) {
      const FuncId id = in.u64();
      const std::uint64_t len = in.u64();
      // A view into the request: bounds-checked, no copy per constituent.
      const std::span<const std::byte> arg(in.consume(len), len);

      fabric::FaultDecision fault;
      if (plan != nullptr) fault = plan->next(ctx.node, fabric::OpClass::kBatchOp);

      ServerCtx op_ctx;
      op_ctx.node = ctx.node;
      op_ctx.fabric = ctx.fabric;
      op_ctx.batch_index = static_cast<std::uint32_t>(i);
      op_ctx.start = cursor + pickup;
      op_ctx.finish = op_ctx.start;
      const std::size_t slot = detail::open_batch_slot(out);
      Status status;
      if (fault.drop) {
        // The work item fell off the bundle's queue: the op never ran, no
        // side effects, and only THIS slot reports the loss.
        status = Status::Unavailable("batched op dropped from the bundle");
      } else if (fault.unavailable) {
        status = Status::Unavailable(
            fault.node_down ? "node down"
                            : "injected transient fault (batched op)");
      } else {
        const char* injected = fault.throw_handler
                                   ? "injected handler fault (batched op)"
                                   : nullptr;
        if (fault.duplicate) {
          // Duplicate delivery inside the bundle: an in-slot twin runs
          // first and one result is kept (idempotence contract, as scalar).
          // A twin that fails or refuses ends the op, like a throw.
          ServerCtx twin = op_ctx;
          status = run_op(twin, id, arg, out, injected);
          out.truncate(slot + detail::kSlotHeaderBytes);
          if (status.ok()) {
            op_ctx.start = std::max(op_ctx.start, twin.finish);
            op_ctx.finish = op_ctx.start;
          }
        }
        if (status.ok()) status = run_op(op_ctx, id, arg, out, injected);
      }
      // A twin's finish and epoch are not the op's: charge op_ctx's.
      cursor = std::max(op_ctx.finish, cursor + pickup) + fault.delay_ns;
      detail::close_batch_slot(out, slot, std::move(status), cursor,
                               op_ctx.epoch);
    }
    ctx.finish = std::max(ctx.finish, cursor);
  }

  fabric::Fabric* fabric_;
  obs::Tracer* tracer_ = nullptr;
  shm::Transport* shm_ = nullptr;
  detail::HandlerTable registry_;
  InvokeOptions default_options_{};
  /// Reliability policy for the FAILOVER path (probing a suspected-dead
  /// primary, and invoking the promoted standby), distinct from the
  /// transient policy: a node-down NACK is deterministic, so probing the
  /// primary more than a couple of times before re-routing only adds
  /// simulated latency, and the standby (which is up) needs no long backoff
  /// ramp.
  static constexpr InvokeOptions kFailoverOptions{
      .max_retries = 2,
      .backoff_ns = sim::kMicrosecond,
      .max_backoff_ns = 100 * sim::kMicrosecond};
  RouteTable route_;
  FuncId batch_exec_id_ = 0;
};

// ---------------------------------------------------------------------------
// Future<R> methods that need Engine
// ---------------------------------------------------------------------------

template <typename R>
R Future<R>::get(sim::Actor& caller) {
  require_state("Future::get");
  throw_if_error(wait(caller));
  if constexpr (std::is_void_v<R>) {
    return;
  } else {
    serial::InArchive in(state_->bytes);
    R out{};
    serial::load(in, out);
    return out;
  }
}

template <typename R>
Status Future<R>::wait(sim::Actor& caller) {
  require_state("Future::wait");
  state_->wait();
  if (state_->batch_pull != nullptr) {
    engine_->charge_batch_pull(caller, target_, *state_->batch_pull);
  } else {
    engine_->charge_pull(caller, target_, *state_);
  }
  return state_->status;
}

}  // namespace hcl::rpc
