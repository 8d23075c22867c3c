// The rank scheduler: a bounded worker pool running every simulated rank
// on a fiber (sim/fiber.h), in every build, sanitizer builds included.
//
// Fidelity contract (DESIGN.md §5j): the worker count must change wall-clock
// behaviour only, never simulated results. Two ingredients deliver that:
//
//   1. The caller (Cluster::run_ranks) registers EVERY rank in the
//      ClockWindow before any worker starts, so a rank that has not yet been
//      scheduled still holds the time-window floor — running ranks cannot
//      race ahead of pending ones in simulated time. (The historical
//      shared-index runner skipped this; queueing contention evaporated at
//      exactly the scales it mattered.)
//   2. A rank that must wait out the window parks instead of sleeping,
//      yielding its worker to a pending or admissible rank (the
//      ThrottleParker hook in clock_window.h). The floor-holding rank is
//      never throttled, so some runnable rank always exists: pending ranks
//      are claimed whenever the ready queue is empty, and parked ranks are
//      re-admitted as the floor rises.
//
// Each rank gets a heap stack (128 KiB) and suspends/resumes mid-call-stack,
// possibly on another worker. 2560-rank topologies run on a dozen workers;
// with as many workers as ranks every rank keeps a worker to itself.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/actor.h"
#include "sim/clock_window.h"
#include "sim/fiber.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace hcl::sim {

namespace detail {

/// Per-rank fiber stack bytes. The deepest sim stacks are container op
/// paths plus the serializer; 128 KiB clears them several times over while
/// keeping 2560 ranks near 300 MB.
inline constexpr std::size_t kFiberStackBytes = std::size_t{128} << 10;

}  // namespace detail

/// Precondition: every rank in [first, last) is already activated in
/// `window` (Cluster::run_ranks does this).
class MultiplexPool final : public detail::ThrottleParker {
 public:
  MultiplexPool(const std::vector<std::unique_ptr<Actor>>& actors, Rank first,
                Rank last, const std::function<void(Actor&)>& fn,
                unsigned threads, ClockWindow* window)
      : actors_(actors),
        last_(last),
        fn_(fn),
        threads_(threads),
        window_(window),
        next_pending_(first),
        unfinished_(last - first) {
    tasks_.reserve(static_cast<std::size_t>(last - first));
  }

  /// Blocks until every rank's fn has returned. The ranks run on fresh
  /// worker threads, never on the caller: which host thread runs a rank
  /// reaches simulated time through thread-keyed state (Resource's idle
  /// lane origin, the skiplist's level RNG), and a fresh thread per worker
  /// keeps that state the same from run to run.
  void run() {
    std::vector<std::thread> workers;
    workers.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i) {
      workers.emplace_back([this] { worker(); });
    }
    for (auto& w : workers) w.join();
  }

  /// ThrottleParker: called from inside a fiber at a throttle point.
  void park(int /*rank*/, Nanos now) override {
    tls_task_->parked_at = now;
    Fiber::yield();
  }

 private:
  struct Task {
    Actor* actor = nullptr;
    std::unique_ptr<Fiber> fiber;
    Nanos parked_at = 0;
    /// The rank's current-actor TLS, carried across worker migration: a
    /// fiber may park on one worker and resume on another, so the
    /// thread-local in actor.h is saved/restored around every resume.
    Actor* published_actor = nullptr;
  };

  void worker() {
    for (;;) {
      Task* t = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
          if (unfinished_ == 0) return;
          if (!ready_.empty()) {
            t = ready_.front();
            ready_.pop_front();
            break;
          }
          if (next_pending_ < last_) {
            t = start_task_locked(next_pending_++);
            break;
          }
          if (admit_parked_locked()) continue;
          cv_.wait_for(lk, std::chrono::microseconds(50));
        }
      }
      drive(t);
    }
  }

  Task* start_task_locked(Rank r) {
    tasks_.push_back(std::make_unique<Task>());
    Task* t = tasks_.back().get();
    t->actor = actors_[static_cast<std::size_t>(r)].get();
    return t;
  }

  /// Move every parked task whose clock is back inside the window onto the
  /// ready queue. Runs with mu_ held; takes window locks inside mu_ (the
  /// only nesting of the two, so the order is acyclic).
  bool admit_parked_locked() {
    if (parked_.empty()) return false;
    const Nanos f = window_->current_floor();
    bool any = false;
    for (std::size_t i = 0; i < parked_.size();) {
      if (f == ClockWindow::kNoFloor ||
          parked_[i]->parked_at - ClockWindow::kWindow <= f) {
        ready_.push_back(parked_[i]);
        parked_[i] = parked_.back();
        parked_.pop_back();
        any = true;
      } else {
        ++i;
      }
    }
    return any;
  }

  void drive(Task* t) {
    if (t->fiber == nullptr) {
      t->fiber = std::make_unique<Fiber>(detail::kFiberStackBytes,
                                         [this, t] {
                                           ActorScope scope(*t->actor);
                                           fn_(*t->actor);
                                         });
    }
    detail::ThrottleParker*& parker = detail::tls_parker();
    Actor*& actor = detail::tls_actor();
    Actor* const saved = actor;
    parker = this;
    tls_task_ = t;
    actor = t->published_actor;
    t->fiber->resume();
    t->published_actor = actor;
    actor = saved;
    tls_task_ = nullptr;
    parker = nullptr;
    const bool done = t->fiber->done();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (done) {
        --unfinished_;
      } else {
        parked_.push_back(t);
      }
    }
    cv_.notify_all();
  }

  inline static thread_local Task* tls_task_ = nullptr;

  const std::vector<std::unique_ptr<Actor>>& actors_;
  const Rank last_;
  const std::function<void(Actor&)>& fn_;
  const unsigned threads_;
  ClockWindow* window_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::deque<Task*> ready_;
  std::vector<Task*> parked_;
  Rank next_pending_;
  int unfinished_;
};

}  // namespace hcl::sim
