// The simulated cluster: actors for every rank plus the parallel runner.
//
// Substitution note (DESIGN.md §2, §5j): the paper launches 2560 MPI ranks
// over 64 physical nodes. Here a rank is an Actor. When the rank count is
// small (micro-benchmarks: 40 clients) each rank gets its own OS thread, so
// real concurrency exercises the lock-free structures. When the rank count
// exceeds the thread cap (scaling studies: 2560 clients), ranks are
// multiplexed over a bounded worker pool (sim/multiplex.h): every rank is
// registered in the conservative clock window up front, and ranks park /
// resume cooperatively at throttle points, so simulated-time queueing
// through sim::Resource is identical to the thread-per-rank mode — only
// wall-clock behaviour changes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/env.h"
#include "sim/actor.h"
#include "sim/clock_window.h"
#include "sim/multiplex.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace hcl::sim {

class Cluster {
 public:
  explicit Cluster(Topology topology, std::uint64_t seed = 42)
      : topology_(topology), window_(topology.num_ranks()) {
    actors_.reserve(static_cast<std::size_t>(topology_.num_ranks()));
    for (Rank r = 0; r < topology_.num_ranks(); ++r) {
      actors_.push_back(std::make_unique<Actor>(
          r, topology_.node_of(r), seed ^ (0x9e3779b97f4a7c15ULL * (r + 1))));
      actors_.back()->bind_window(&window_);
    }
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] int num_ranks() const noexcept { return topology_.num_ranks(); }

  [[nodiscard]] Actor& actor(Rank rank) { return *actors_.at(static_cast<std::size_t>(rank)); }

  /// Run `fn(actor)` once for every rank, in parallel. Blocks until all
  /// ranks finish. `max_threads == 0` picks a default: one thread per rank
  /// up to max(128, 4x hardware concurrency) — overridable with the
  /// HCL_SIM_THREADS env knob — multiplexed over a bounded worker pool
  /// beyond that.
  void run(const std::function<void(Actor&)>& fn, unsigned max_threads = 0) const {
    run_ranks(0, topology_.num_ranks(), fn, max_threads);
  }

  /// Run `fn` for ranks in [first, last).
  void run_ranks(Rank first, Rank last, const std::function<void(Actor&)>& fn,
                 unsigned max_threads = 0) const {
    const int count = last - first;
    if (count <= 0) return;
    const unsigned cap = max_threads != 0 ? max_threads : default_thread_cap();
    const unsigned threads = std::min<unsigned>(static_cast<unsigned>(count),
                                                std::max(1u, cap));

    // Every rank is registered in the clock window BEFORE any worker runs,
    // in BOTH modes: a rank the scheduler has not reached yet still holds
    // the time-window floor — otherwise running ranks would race ahead in
    // simulated time and the queueing contention they should experience
    // would evaporate (the historical multiplexed-path bug).
    for (Rank r = first; r < last; ++r) {
      Actor& a = *actors_[static_cast<std::size_t>(r)];
      if (a.window() != nullptr) a.window()->activate(r, a.now());
    }

    if (threads == static_cast<unsigned>(count)) {
      // One real thread per rank: full concurrency fidelity.
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (Rank r = first; r < last; ++r) {
        pool.emplace_back([this, r, &fn] {
          Actor& a = *actors_[static_cast<std::size_t>(r)];
          ActorScope scope(a);  // re-activates (idempotent), deactivates on exit
          fn(a);
        });
      }
      for (auto& t : pool) t.join();
      return;
    }

    // Multiplexed: a bounded worker pool drives all ranks, parking and
    // resuming them cooperatively at throttle points (sim/multiplex.h).
    run_multiplexed(actors_, first, last, fn, threads, &window_);
  }

  /// BSP-style phased execution: every phase runs on all ranks, then clocks
  /// are aligned to the global maximum (a barrier in simulated time). Used
  /// by the application kernels (ISx's distribute/sort/exchange phases).
  void run_phases(const std::vector<std::function<void(Actor&)>>& phases,
                  unsigned max_threads = 0) {
    for (const auto& phase : phases) {
      run(phase, max_threads);
      align_clocks();
    }
  }

  /// Advance every clock to the cluster-wide maximum (barrier semantics).
  void align_clocks() {
    Nanos horizon = 0;
    for (const auto& a : actors_) horizon = std::max(horizon, a->now());
    for (auto& a : actors_) a->advance_to(horizon);
  }

  /// Latest simulated time across all ranks (the makespan).
  [[nodiscard]] Nanos max_time() const {
    Nanos horizon = 0;
    for (const auto& a : actors_) horizon = std::max(horizon, a->now());
    return horizon;
  }

  /// Mean of per-rank clocks (per-client average completion, Fig. 1 style).
  [[nodiscard]] double mean_time_seconds() const {
    double sum = 0;
    for (const auto& a : actors_) sum += to_seconds(a->now());
    return actors_.empty() ? 0.0 : sum / static_cast<double>(actors_.size());
  }

  void reset_clocks(Nanos t = 0) {
    for (auto& a : actors_) a->reset_clock(t);
  }

 private:
  /// Default real-thread cap: one thread per rank up to max(128, 4x
  /// hardware concurrency) — per-rank threads are mostly throttled/blocked,
  /// so oversubscription is cheap and keeps full queueing fidelity at bench
  /// scales — multiplexed beyond that. HCL_SIM_THREADS overrides (README
  /// operator table); read once, env knobs don't change mid-process.
  static unsigned default_thread_cap() {
    static const unsigned cap = [] {
      const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
      return env_number("HCL_SIM_THREADS", std::max(128u, 4 * hw), 1u);
    }();
    return cap;
  }

  Topology topology_;
  mutable ClockWindow window_;
  std::vector<std::unique_ptr<Actor>> actors_;
};

}  // namespace hcl::sim
