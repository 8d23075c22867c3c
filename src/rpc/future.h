// Futures for asynchronous RPC (paper §III.C.4).
//
// "Each function invocation creates a future object (much like C++ future
// and wait operations), which gets the response after the call is executed."
// Real synchronization: the thread that runs the server stub (inline, on a
// client rank's thread — rpc::Engine) fulfills the shared state, and a
// client that awaits it first blocks on a condition variable. Simulated
// timing: the state carries the simulated time at which the response landed
// in the server's response buffer; Future::get() charges the client's clock
// for the RDMA_READ pull (the client-pulling response paradigm of Fig. 2).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "common/status.h"
#include "obs/trace.h"
#include "serial/archive.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace hcl::rpc {

namespace detail {

/// Shared client-side pull accounting for one *packed batch response*: the
/// first constituent future that is awaited charges ONE RDMA_READ of the
/// whole packed buffer; every later await merely advances the caller's clock
/// to that pull's completion. Without this, awaiting N coalesced ops would
/// re-pay N wire overheads and erase the batching win.
struct BatchPull {
  ~BatchPull() { serial::recycle(std::move(response)); }

  std::mutex mutex;
  bool charged = false;
  sim::Nanos completion = 0;     // caller-side availability after the pull
  sim::Nanos ready = 0;          // when the packed response buffer was written
  std::size_t total_bytes = 0;   // packed response size (all constituents)
  /// The bundle parent's trace span, when tracing is on: the one shared pull
  /// is recorded there (constituents carry zero pull cost, matching the
  /// counters). Null when tracing is off.
  std::shared_ptr<obs::Span> span;
  /// Bundle was delivered through the shm ring tier (DESIGN.md §5i): the one
  /// shared pull reads the packed response out of local memory — no wire
  /// latency, no packets.
  bool via_shm = false;
  /// The packed response itself. Every constituent future reads its slot
  /// as a view into these bytes, which live as long as the last of them.
  std::vector<std::byte> response;
};

/// Type-erased completion state shared between the thread that ran the
/// server stub (producer) and the client (consumer).
struct FutureState {
  ~FutureState() { serial::recycle(std::move(payload)); }

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  /// The serialized response: `payload` for a scalar op, or a view of this
  /// op's slot in its bundle's packed response (BatchPull::response).
  std::span<const std::byte> bytes;
  sim::Nanos response_ready_ns = 0;   // when the response buffer was written
  Status status = Status::Ok();       // handler-level failure
  /// Partition mutation epoch piggybacked on the response (DESIGN.md §5d:
  /// the coherence signal for the client-side read cache). 0 when the
  /// response never reached the handler (transport failure) or the handler
  /// does not publish one.
  std::uint64_t epoch = 0;
  /// Non-null when this future is one constituent of a coalesced batch: all
  /// siblings share one BatchPull so the packed response crosses the wire
  /// once. Set by Engine::send_batch before fulfill() publishes the state.
  std::shared_ptr<BatchPull> batch_pull;
  /// This op's trace span when tracing is on (DESIGN.md §5e); the engine
  /// records the response pull on it when the future is awaited.
  std::shared_ptr<obs::Span> span;
  /// Request rode the shm ring tier (DESIGN.md §5i): the awaiting client
  /// pulls the response at local-memory rates (Fabric::shm_pull) instead of
  /// paying the 3x net_base_latency RDMA_READ, and the pull emits no packets.
  bool via_shm = false;
  std::vector<std::function<void(const FutureState&)>> continuations;

  /// Resolve with a response this state owns: a buffer an archive released,
  /// given back to the pool when the state dies.
  void fulfill(std::vector<std::byte> response, sim::Nanos ready, Status st,
               std::uint64_t response_epoch = 0) {
    publish(std::move(response), {}, ready, std::move(st), response_epoch);
  }

  /// Resolve with a view into bytes another owner keeps alive (a slot of
  /// the packed response `batch_pull` holds).
  void fulfill_view(std::span<const std::byte> view, sim::Nanos ready,
                    Status st, std::uint64_t response_epoch = 0) {
    publish({}, view, ready, std::move(st), response_epoch);
  }

  /// Move an owned response out (send_batch hands a bundle's packed
  /// response to its BatchPull); `bytes` stops viewing it.
  [[nodiscard]] std::vector<std::byte> take_payload() noexcept {
    bytes = {};
    return std::move(payload);
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return done; });
  }

  [[nodiscard]] bool ready() {
    std::lock_guard<std::mutex> guard(mutex);
    return done;
  }

  /// Attach a continuation; runs immediately if already done, otherwise on
  /// the fulfilling thread.
  void on_complete(std::function<void(const FutureState&)> fn) {
    {
      std::lock_guard<std::mutex> guard(mutex);
      if (!done) {
        continuations.push_back(std::move(fn));
        return;
      }
    }
    fn(*this);
  }

 private:
  std::vector<std::byte> payload;

  void publish(std::vector<std::byte> owned, std::span<const std::byte> view,
               sim::Nanos ready, Status st, std::uint64_t response_epoch) {
    std::vector<std::function<void(const FutureState&)>> to_run;
    {
      std::lock_guard<std::mutex> guard(mutex);
      payload = std::move(owned);
      bytes = payload.empty() ? view : std::span<const std::byte>(payload);
      response_ready_ns = ready;
      status = std::move(st);
      epoch = response_epoch;
      done = true;
      to_run.swap(continuations);
    }
    cv.notify_all();
    for (auto& fn : to_run) fn(*this);
  }
};

/// A fresh shared state from the running thread's pool (common/pool.h).
[[nodiscard]] inline std::shared_ptr<FutureState> new_state() {
  return make_pooled<FutureState>();
}

}  // namespace detail

class Engine;  // forward; pull-charging needs the fabric via the engine

/// A typed handle to an in-flight RPC. Decoding is deferred to get() so the
/// wire bytes cross exactly once.
template <typename R>
class Future {
 public:
  Future() = default;
  Future(std::shared_ptr<detail::FutureState> state, Engine* engine,
         sim::NodeId target)
      : state_(std::move(state)), engine_(engine), target_(target) {}

  /// A default-constructed (or moved-from) future has no shared state; every
  /// accessor below that needs one fails loudly with FailedPrecondition
  /// instead of dereferencing null. `ready()` is the safe probe: false.
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool ready() const { return state_ && state_->ready(); }

  /// Simulated time at which the response became ready (only after done).
  [[nodiscard]] sim::Nanos response_ready_ns() const {
    require_state("Future::response_ready_ns");
    return state_->response_ready_ns;
  }

  /// Partition mutation epoch piggybacked on the response (DESIGN.md §5d).
  /// Meaningful only after the future resolved; 0 on transport failure.
  [[nodiscard]] std::uint64_t response_epoch() const {
    require_state("Future::response_epoch");
    return state_->epoch;
  }

  /// Block (really) until the server stub completes, charge `caller`'s clock
  /// for the response pull (simulated), and decode the result.
  /// Defined in engine.h (needs Engine::pull_and_decode).
  R get(sim::Actor& caller);

  /// Status-only wait: charges exactly the pull get() charges (get() is
  /// wait() plus the decode), but reports a failure as a value — the cheap
  /// way to settle a future whose refusal is a routine outcome.
  Status wait(sim::Actor& caller);

  /// Client-side chaining: run `fn` when the response is ready (on the
  /// fulfilling thread). For server-side chaining see Engine::invoke_chain.
  void then(std::function<void()> fn) {
    require_state("Future::then");
    state_->on_complete([f = std::move(fn)](const detail::FutureState&) { f(); });
  }

 private:
  friend class Engine;

  void require_state(const char* where) const {
    if (state_ == nullptr) {
      throw HclError(Status::FailedPrecondition(
          std::string(where) + " on a future with no shared state "
                               "(default-constructed or moved-from)"));
    }
  }

  std::shared_ptr<detail::FutureState> state_;
  Engine* engine_ = nullptr;
  sim::NodeId target_ = 0;
};

}  // namespace hcl::rpc
