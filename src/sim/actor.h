// Actors: the simulated analogue of an MPI rank.
//
// Each actor owns a logical clock and a deterministic RNG. Exactly one real
// thread drives an actor at any moment (the runner guarantees this), so the
// actor itself needs no synchronization. The "current actor" is published
// through a thread-local so that container APIs can keep the STL-like
// call shape of the paper (`map.insert(k, v)` with no explicit rank handle).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "sim/clock_window.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace hcl::sim {

class Actor {
 public:
  Actor(Rank rank, NodeId node, std::uint64_t seed)
      : rank_(rank), node_(node), rng_(seed) {}

  [[nodiscard]] Rank rank() const noexcept { return rank_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }

  [[nodiscard]] Nanos now() const noexcept { return clock_.now(); }

  void advance(Nanos delta) {
    clock_.advance(delta);
    maybe_throttle();
  }
  void advance_to(Nanos t) {
    clock_.advance_to(t);
    maybe_throttle();
  }
  void reset_clock(Nanos t = 0) noexcept { clock_.reset(t); }

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Wait (really) until this actor's clock is back inside the conservative
  /// time window. Fabric operations call this BEFORE reserving simulated
  /// resources: booking a slot and only then sleeping would let a racing
  /// client claim contiguous future slots ahead of slower peers.
  void sync_window() { maybe_throttle(); }

  /// Attach to a cluster's conservative time window (see clock_window.h).
  void bind_window(ClockWindow* window) noexcept { window_ = window; }
  [[nodiscard]] ClockWindow* window() const noexcept { return window_; }

 private:
  // Throttle only while this actor is being actively driven (the window is
  // engaged/disengaged by ActorScope); clock updates from the coordinator
  // thread (barriers, resets) never wait.
  void maybe_throttle() {
    if (window_ != nullptr && throttling_) window_->throttle(rank_, clock_.now());
  }

  friend class ActorScope;

  Rank rank_;
  NodeId node_;
  SimClock clock_;
  Rng rng_;
  ClockWindow* window_ = nullptr;
  bool throttling_ = false;
};

namespace detail {
/// The running thread's current-actor slot, looked up afresh on every call
/// for the reason tls_parker() gives (clock_window.h): a fiber that parked
/// may resume on another worker.
[[gnu::noipa]] inline Actor*& tls_actor() noexcept {
  thread_local Actor* actor = nullptr;
  return actor;
}
}  // namespace detail

/// The actor the calling thread is currently driving, or nullptr outside a
/// runner scope.
inline Actor* current_actor() noexcept { return detail::tls_actor(); }

/// The current actor, failing loudly when called outside a rank context —
/// container APIs use this so misuse is caught immediately.
inline Actor& this_actor() {
  Actor* a = detail::tls_actor();
  if (a == nullptr) {
    throw HclError(Status::InvalidArgument(
        "HCL container API called outside a rank context; "
        "use Cluster::run / ActorScope"));
  }
  return *a;
}

/// RAII publication of an actor on the calling thread, engaging the
/// cluster's time window for the duration.
class ActorScope {
 public:
  explicit ActorScope(Actor& actor) noexcept
      : actor_(&actor), previous_(detail::tls_actor()) {
    detail::tls_actor() = &actor;
    if (actor.window_ != nullptr) {
      actor.throttling_ = true;
      actor.window_->activate(actor.rank(), actor.now());
    }
  }
  ~ActorScope() {
    if (actor_->window_ != nullptr) {
      actor_->window_->deactivate(actor_->rank());
      actor_->throttling_ = false;
    }
    detail::tls_actor() = previous_;
  }
  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  Actor* actor_;
  Actor* previous_;
};

}  // namespace hcl::sim
