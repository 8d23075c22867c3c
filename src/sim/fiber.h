// Stackful fibers (ucontext) for the multiplexed rank runner.
//
// At paper-scale topologies (2560 ranks) a thread per rank melts the host,
// but a rank that must wait out the conservative time window cannot simply
// sleep on a pool thread — the pending ranks it is waiting FOR need that
// thread. Fibers square the circle: each rank runs on its own heap stack and
// yields its worker thread back to the scheduler at throttle points, so a
// bounded pool drives thousands of ranks with full window fidelity.
//
// Sanitizers don't track ucontext stack switches (ASan false-positives,
// TSan loses the happens-before spine), so fibers are compiled out under
// -fsanitize and the runner falls back to permit-gated real threads
// (cluster.h) — same scheduling contract, heavier footprint.
#pragma once

#if !defined(HCL_SIM_HAS_FIBERS)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HCL_SIM_HAS_FIBERS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HCL_SIM_HAS_FIBERS 0
#endif
#endif
#endif
#if !defined(HCL_SIM_HAS_FIBERS)
#if defined(__has_include)
#if __has_include(<ucontext.h>)
#define HCL_SIM_HAS_FIBERS 1
#else
#define HCL_SIM_HAS_FIBERS 0
#endif
#else
#define HCL_SIM_HAS_FIBERS 0
#endif
#endif

#if HCL_SIM_HAS_FIBERS

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <utility>

namespace hcl::sim {

class Fiber {
 public:
  /// Prepares `body` on a fresh heap stack; nothing runs until resume().
  /// The stack is left uninitialized: zero-filling it would write (and make
  /// resident) every rank's whole stack on every run.
  Fiber(std::size_t stack_bytes, std::function<void()> body)
      : stack_(std::make_unique_for_overwrite<char[]>(stack_bytes)),
        body_(std::move(body)) {
    getcontext(&callee_);
    callee_.uc_stack.ss_sp = stack_.get();
    callee_.uc_stack.ss_size = stack_bytes;
    callee_.uc_link = nullptr;  // bodies finish via the explicit yield below
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    // makecontext takes int-sized varargs; split the pointer across two.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wcast-function-type"
#endif
    makecontext(&callee_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run (or continue) the body on the calling thread until it yields or
  /// returns. A fiber may resume on a different thread than it last ran on;
  /// callers are responsible for migrating any thread-local state they care
  /// about (the runner virtualizes the current-actor TLS).
  void resume() {
    Fiber* prev = tls_current_;
    tls_current_ = this;
    swapcontext(&caller_, &callee_);
    tls_current_ = prev;
  }

  /// From inside a fiber body: suspend back to the resume() caller.
  static void yield() { swapcontext(&tls_current_->callee_, &tls_current_->caller_); }

  [[nodiscard]] bool done() const noexcept { return done_; }

 private:
  static void trampoline(unsigned hi, unsigned lo) {
    auto* f = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                       lo);
    // Exception parity with the thread-per-rank runner: an exception
    // escaping fn() on a std::thread terminates; unwinding through a
    // makecontext frame is undefined, so terminate explicitly instead.
    try {
      f->body_();
    } catch (...) {
      std::terminate();
    }
    f->done_ = true;
    yield();  // never returns
  }

  inline static thread_local Fiber* tls_current_ = nullptr;

  std::unique_ptr<char[]> stack_;
  std::function<void()> body_;
  ucontext_t caller_{};
  ucontext_t callee_{};
  bool done_ = false;
};

}  // namespace hcl::sim

#endif  // HCL_SIM_HAS_FIBERS
