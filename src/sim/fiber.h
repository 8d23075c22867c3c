// Stackful fibers (ucontext): the one way a simulated rank runs.
//
// At paper-scale topologies (2560 ranks) a thread per rank melts the host,
// but a rank that must wait out the conservative time window cannot simply
// sleep on a pool thread — the pending ranks it is waiting FOR need that
// thread. Fibers square the circle: each rank runs on its own heap stack and
// yields its worker thread back to the scheduler at throttle points, so a
// bounded pool drives thousands of ranks with full window fidelity.
//
// Sanitizer builds run the same fibers. The compiler's own
// __SANITIZE_ADDRESS__ / __SANITIZE_THREAD__ macros switch in the stack
// switch annotations: ASan is told which stack each swapcontext enters (so
// it neither reports the fiber stack as a bad access nor loses track of the
// worker's), and TSan gets one fiber context per Fiber, switched to right
// before each swapcontext, so happens-before follows the rank across
// workers.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace hcl::sim {

class Fiber {
 public:
  /// Prepares `body` on a fresh heap stack; nothing runs until resume().
  /// The stack is left uninitialized: zero-filling it would write (and make
  /// resident) every rank's whole stack on every run.
  Fiber(std::size_t stack_bytes, std::function<void()> body)
      : stack_(std::make_unique_for_overwrite<char[]>(stack_bytes)),
        stack_bytes_(stack_bytes),
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
#if defined(__SANITIZE_THREAD__)
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }

  ~Fiber() {
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsan_fiber_);
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
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, stack_.get(), stack_bytes_);
#endif
#if defined(__SANITIZE_THREAD__)
    caller_tsan_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
    swapcontext(&caller_, &callee_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    tls_current_ = prev;
  }

  /// From inside a fiber body: suspend back to the resume() caller.
  static void yield() { tls_current_->switch_out(false); }

  [[nodiscard]] bool done() const noexcept { return done_; }

 private:
  /// Swap back to the resuming worker. `last` marks the body's final exit,
  /// which tells ASan to drop the fiber's fake stack.
  void switch_out([[maybe_unused]] bool last) {
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(last ? nullptr : &fake_stack, caller_bottom_,
                                   caller_size_);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(caller_tsan_, 0);
#endif
    swapcontext(&callee_, &caller_);
    // Resumed, possibly by another worker: learn that worker's stack.
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, &caller_bottom_, &caller_size_);
#endif
  }

  static void trampoline(unsigned hi, unsigned lo) {
    auto* f = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                       lo);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &f->caller_bottom_,
                                    &f->caller_size_);
#endif
    // An exception escaping a rank body terminates, as it would on a
    // std::thread; unwinding through a makecontext frame is undefined, so
    // terminate explicitly instead.
    try {
      f->body_();
    } catch (...) {
      std::terminate();
    }
    f->done_ = true;
    f->switch_out(true);  // never returns
  }

  inline static thread_local Fiber* tls_current_ = nullptr;

  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
  std::function<void()> body_;
  ucontext_t caller_{};
  ucontext_t callee_{};
  bool done_ = false;
#if defined(__SANITIZE_ADDRESS__)
  const void* caller_bottom_ = nullptr;
  std::size_t caller_size_ = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_fiber_ = nullptr;
  void* caller_tsan_ = nullptr;
#endif
};

}  // namespace hcl::sim
