// Client-side op coalescing for the RoR engine (the batching half of the
// paper's "aggregate multiple operations ... with one call" claim, §III.C,
// Table I; cf. Brock et al.: RPC beats one-sided RDMA exactly when requests
// are aggregated).
//
// A Batcher keeps one pending bundle per destination node. enqueue()
// serializes an op straight into its destination's bundle framing and
// returns its Future immediately; the bundle ships as ONE RDMA_SEND
// (Engine::send_batch) when any BatchPolicy threshold trips — op count,
// queued bytes, or the simulated-time linger window — or when the owner
// calls flush()/flush_all(). FIFO order within a destination
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

  /// Serialize one op for `target` straight into its destination's bundle
  /// (its id, payload length and payload: the bytes that go on the wire)
  /// and coalesce it. Returns the op's future right away; it resolves when
  /// its bundle ships and executes. May flush the destination's bundle
  /// inline if this enqueue trips the policy.
  template <typename R, typename... Args>
  Future<R> enqueue(sim::Actor& caller, sim::NodeId target, FuncId id,
                    const Args&... args) {
    auto state = detail::new_state();
    Flight ready;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      Pending& dest = pending_[target];
      serial::OutArchive& bundle = dest.bundle;
      if (dest.ops.empty()) {
        dest.opened_at = caller.now();
        bundle.u64(0);  // the op count, written when the bundle ships
      }
      bundle.u64(id);
      const std::size_t len_at = bundle.size();
      bundle.u64(0);
      serial::write_sized(bundle,
                          [&](auto& ar) { (serial::save(ar, args), ...); });
      serial::RawBackend::store(bundle.data() + len_at,
                                bundle.size() - len_at - 8);
      dest.ops.push_back(detail::PendingOp{id, state, caller.now()});
      if (tripped(dest, caller.now())) take_locked(target, dest, ready);
    }
    if (!ready.ops.empty()) ship(caller, ready);
    return Future<R>(std::move(state), engine_, target);
  }

  /// Ship `target`'s pending bundle now (no-op when empty).
  void flush(sim::Actor& caller, sim::NodeId target) {
    Flight ready;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      auto it = pending_.find(target);
      if (it != pending_.end() && !it->second.ops.empty()) {
        take_locked(target, it->second, ready);
      }
    }
    if (!ready.ops.empty()) ship(caller, ready);
  }

  /// Ship every destination's pending bundle.
  void flush_all(sim::Actor& caller) {
    take_all(caller, [](const Pending& dest) { return !dest.ops.empty(); });
  }

  /// Re-check the simulated-time linger window on every destination — the
  /// async-pipelining hook for callers that enqueue sporadically. (There is
  /// no background flusher: simulated time only advances with its actor.)
  void poll(sim::Actor& caller) {
    if (policy_.max_delay_ns <= 0) return;
    take_all(caller, [&](const Pending& dest) {
      return !dest.ops.empty() &&
             caller.now() - dest.opened_at >= policy_.max_delay_ns;
    });
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
  // The bundle's leading op-count word (not counted against max_bytes).
  static constexpr std::size_t kCountBytes = 8;

  using OpList = std::vector<detail::PendingOp>;

  /// One destination's open bundle: its ops' futures, and the request
  /// bytes framed so far. Both keep their storage across flushes: a flush
  /// swaps them for spares from the thread's pools.
  struct Pending {
    ~Pending() { VectorPool<detail::PendingOp>::give(std::move(ops)); }

    OpList ops = VectorPool<detail::PendingOp>::take();
    serial::OutArchive bundle;
    sim::Nanos opened_at = 0;  // caller clock at the bundle's first enqueue
  };

  /// A bundle taken out of its Pending to ship outside the lock.
  struct Flight {
    Flight() = default;
    Flight(Flight&&) = default;
    Flight& operator=(Flight&&) = default;
    ~Flight() { VectorPool<detail::PendingOp>::give(std::move(ops)); }

    sim::NodeId target = 0;
    OpList ops;
    serial::OutArchive bundle;
  };

  [[nodiscard]] bool tripped(const Pending& dest, sim::Nanos now) const {
    return dest.ops.size() >= policy_.max_ops ||
           dest.bundle.size() - kCountBytes >= policy_.max_bytes ||
           (policy_.max_delay_ns > 0 &&
            now - dest.opened_at >= policy_.max_delay_ns);
  }

  /// Move `dest`'s bundle into `out`, leaving `dest` the spares `out` held.
  static void take_locked(sim::NodeId target, Pending& dest, Flight& out) {
    out.target = target;
    out.ops.swap(dest.ops);
    dest.ops = VectorPool<detail::PendingOp>::take();
    out.bundle = std::move(dest.bundle);  // swaps the two buffers
  }

  /// Take every bundle `pick` selects under one lock, in the map's order,
  /// then ship them in that order.
  template <typename Pick>
  void take_all(sim::Actor& caller, Pick&& pick) {
    std::vector<Flight> ready = VectorPool<Flight>::take();
    {
      std::lock_guard<std::mutex> guard(mutex_);
      for (auto& [node, dest] : pending_) {
        if (pick(dest)) take_locked(node, dest, ready.emplace_back());
      }
    }
    for (Flight& flight : ready) ship(caller, flight);
    VectorPool<Flight>::give(std::move(ready));
  }

  void ship(sim::Actor& caller, Flight& flight) {
    flushes_.fetch_add(1, std::memory_order_relaxed);
    engine_->send_batch(caller, flight.target, flight.ops, flight.bundle,
                        options_);
  }

  /// Settle every op still pending at destruction with a refusal. Costs
  /// nothing (no allocation) in the common case of no orphans. Runs with no
  /// other user of the Batcher left, so it takes no lock.
  void fail_pending() {
    std::shared_ptr<detail::BatchPull> no_pull;
    Status status;
    for (auto& [node, dest] : pending_) {
      for (auto& op : dest.ops) {
        // Aborted ops never shipped, so hand every future a pre-charged
        // pull: awaiting one costs nothing and still yields a definite
        // status.
        if (no_pull == nullptr) {
          no_pull = make_pooled<detail::BatchPull>();
          no_pull->charged = true;
          status = Status::FailedPrecondition(
              "Batcher destroyed with pending batched ops (flush() them "
              "first)");
        }
        op.state->batch_pull = no_pull;
        op.state->fulfill({}, 0, status);
      }
    }
  }

  Engine* engine_;
  BatchPolicy policy_;
  InvokeOptions options_;
  mutable std::mutex mutex_;
  /// Destinations in hash order — the order flush_all ships them. Nodes
  /// and buckets come from the thread's PoolAllocator free lists.
  std::unordered_map<
      sim::NodeId, Pending, std::hash<sim::NodeId>, std::equal_to<>,
      PoolAllocator<std::pair<const sim::NodeId, Pending>>>
      pending_;
  std::atomic<std::int64_t> flushes_{0};
};

}  // namespace hcl::rpc
