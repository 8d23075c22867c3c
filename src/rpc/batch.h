// Client-side op coalescing for the RoR engine (the batching half of the
// paper's "aggregate multiple operations ... with one call" claim, §III.C,
// Table I; cf. Brock et al.: RPC beats one-sided RDMA exactly when requests
// are aggregated).
//
// A Batcher keeps one pending queue per destination node. enqueue() appends
// a serialized op and returns its Future immediately; the queue ships as ONE
// bundled RDMA_SEND (Engine::send_batch) when any BatchPolicy threshold
// trips — op count, queued bytes, or the simulated-time linger window — or
// when the owner calls flush()/flush_all(). FIFO order within a destination
// is preserved across automatic flush chunks, so two ops on the same key
// observe each other in enqueue order.
//
// Ownership contract: a Batcher is a client-side object driven by the actor
// that flushes it (typically one per bulk call or one per rank). enqueue()
// is thread-safe, but the simulated-time charging of a flush belongs to the
// single actor passed in. A Batcher destroyed with pending (never-flushed)
// ops cannot ship them — it has no actor clock to charge — so it resolves
// every pending future with FailedPrecondition: a dangling batched invoke
// fails loudly instead of hanging a waiter (the core futures invariant).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rpc/engine.h"

namespace hcl::rpc {

class Batcher {
 public:
  explicit Batcher(Engine& engine, BatchPolicy policy = {})
      : Batcher(engine, policy, engine.default_options()) {}

  Batcher(Engine& engine, BatchPolicy policy, InvokeOptions options)
      : engine_(&engine), policy_(policy), options_(options) {}

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  ~Batcher() { fail_pending(); }

  /// Serialize one op for `target` and coalesce it. Returns the op's future
  /// right away; it resolves when its bundle ships and executes. May flush
  /// the destination's bundle inline if this enqueue trips the policy.
  template <typename R, typename... Args>
  Future<R> enqueue(sim::Actor& caller, sim::NodeId target, FuncId id,
                    const Args&... args) {
    serial::OutArchive out;
    (serial::save(out, args), ...);
    auto state = std::make_shared<detail::FutureState>();

    std::vector<detail::PendingOp> ready;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      Pending& dest = pending_[target];
      if (dest.ops.empty()) dest.opened_at = caller.now();
      dest.bytes += out.size() + kPerOpHeaderBytes;
      dest.ops.push_back(detail::PendingOp{id, out.take(), state, caller.now()});
      if (tripped(dest, caller.now())) ready = take_locked(dest);
    }
    if (!ready.empty()) ship(caller, target, std::move(ready));
    return Future<R>(state, engine_, target);
  }

  /// Ship `target`'s pending bundle now (no-op when empty).
  void flush(sim::Actor& caller, sim::NodeId target) {
    std::vector<detail::PendingOp> ready;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      auto it = pending_.find(target);
      if (it != pending_.end()) ready = take_locked(it->second);
    }
    if (!ready.empty()) ship(caller, target, std::move(ready));
  }

  /// Ship every destination's pending bundle.
  void flush_all(sim::Actor& caller) {
    std::vector<std::pair<sim::NodeId, std::vector<detail::PendingOp>>> ready;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      for (auto& [node, dest] : pending_) {
        if (!dest.ops.empty()) ready.emplace_back(node, take_locked(dest));
      }
    }
    for (auto& [node, ops] : ready) ship(caller, node, std::move(ops));
  }

  /// Re-check the simulated-time linger window on every destination — the
  /// async-pipelining hook for callers that enqueue sporadically. (There is
  /// no background flusher: simulated time only advances with its actor.)
  void poll(sim::Actor& caller) {
    if (policy_.max_delay_ns <= 0) return;
    std::vector<std::pair<sim::NodeId, std::vector<detail::PendingOp>>> ready;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      for (auto& [node, dest] : pending_) {
        if (!dest.ops.empty() &&
            caller.now() - dest.opened_at >= policy_.max_delay_ns) {
          ready.emplace_back(node, take_locked(dest));
        }
      }
    }
    for (auto& [node, ops] : ready) ship(caller, node, std::move(ops));
  }

  /// Ops queued (not yet shipped) for one destination.
  [[nodiscard]] std::size_t pending_ops(sim::NodeId target) const {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = pending_.find(target);
    return it == pending_.end() ? 0 : it->second.ops.size();
  }

  /// Bundles shipped so far (each is one remote invocation, Table I's F).
  [[nodiscard]] std::int64_t flushes() const noexcept {
    return flushes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const BatchPolicy& policy() const noexcept { return policy_; }

 private:
  // Mirrors Engine's per-op bundle framing (func id + payload length).
  static constexpr std::size_t kPerOpHeaderBytes = 16;

  struct Pending {
    std::vector<detail::PendingOp> ops;
    std::size_t bytes = 0;
    sim::Nanos opened_at = 0;  // caller clock at the bundle's first enqueue
  };

  [[nodiscard]] bool tripped(const Pending& dest, sim::Nanos now) const {
    return dest.ops.size() >= policy_.max_ops ||
           dest.bytes >= policy_.max_bytes ||
           (policy_.max_delay_ns > 0 &&
            now - dest.opened_at >= policy_.max_delay_ns);
  }

  static std::vector<detail::PendingOp> take_locked(Pending& dest) {
    std::vector<detail::PendingOp> ops;
    ops.swap(dest.ops);
    dest.bytes = 0;
    return ops;
  }

  void ship(sim::Actor& caller, sim::NodeId target,
            std::vector<detail::PendingOp> ops) {
    flushes_.fetch_add(1, std::memory_order_relaxed);
    engine_->send_batch(caller, target, std::move(ops), options_);
  }

  /// Settle every op still pending at destruction with a refusal. Costs
  /// nothing (no allocation) in the common case of no orphans.
  void fail_pending() {
    std::vector<std::vector<detail::PendingOp>> orphaned;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      for (auto& [node, dest] : pending_) {
        if (!dest.ops.empty()) orphaned.push_back(take_locked(dest));
      }
    }
    if (orphaned.empty()) return;
    const Status status = Status::FailedPrecondition(
        "Batcher destroyed with pending batched ops (flush() them first)");
    // Aborted ops never shipped, so hand every future a pre-charged pull:
    // awaiting one costs nothing and still yields a definite status.
    auto no_pull = std::make_shared<detail::BatchPull>();
    no_pull->charged = true;
    for (auto& ops : orphaned) {
      for (auto& op : ops) {
        op.state->batch_pull = no_pull;
        op.state->fulfill({}, 0, status);
      }
    }
  }

  Engine* engine_;
  BatchPolicy policy_;
  InvokeOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<sim::NodeId, Pending> pending_;
  std::atomic<std::int64_t> flushes_{0};
};

}  // namespace hcl::rpc
