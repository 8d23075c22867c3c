// Per-node memory accounting.
//
// What a simulated node holds (container entries, persist journals, BCL
// partitions and buffers) reserves bytes against the node's budget. This is
// how the paper's observation that "BCL runs out of memory for operation
// sizes above 1 MB ... the overall capacity allocated to BCL should not
// exceed 60% of the total node memory" (§IV.B.2) is reproduced: BCL's static
// partitions plus per-client exclusive RDMA bounce buffers exceed the budget
// first, while HCL's dynamically grown partitions stay within it.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "sim/time.h"
#include "sim/timeseries.h"

namespace hcl::mem {

class NodeMemory {
 public:
  /// `gauge` (optional) receives resident-bytes samples for Fig. 4(b).
  NodeMemory(int node, std::int64_t budget_bytes,
             sim::GaugeSeries* gauge = nullptr)
      : node_(node), budget_(budget_bytes), gauge_(gauge) {}

  NodeMemory(const NodeMemory&) = delete;
  NodeMemory& operator=(const NodeMemory&) = delete;

  [[nodiscard]] int node() const noexcept { return node_; }
  [[nodiscard]] std::int64_t budget() const noexcept { return budget_; }
  [[nodiscard]] std::int64_t used() const noexcept {
    return used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

  /// Reserve `bytes` at simulated time `t`; fails with kOutOfMemory when the
  /// budget would be exceeded (the allocation is then not applied).
  Status reserve(std::int64_t bytes, sim::Nanos t) {
    std::int64_t cur = used_.load(std::memory_order_relaxed);
    for (;;) {
      const std::int64_t next = cur + bytes;
      if (next > budget_) {
        return Status::OutOfMemory("node " + std::to_string(node_) +
                                   " budget exceeded: used=" + std::to_string(cur) +
                                   " request=" + std::to_string(bytes) +
                                   " budget=" + std::to_string(budget_));
      }
      if (used_.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
        bump_peak(next);
        if (gauge_ != nullptr) gauge_->record(t, next);
        return Status::Ok();
      }
    }
  }

  void release(std::int64_t bytes, sim::Nanos t) {
    const std::int64_t next = used_.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
    if (gauge_ != nullptr) gauge_->record(t, next > 0 ? next : 0);
  }

  void set_gauge(sim::GaugeSeries* gauge) noexcept { gauge_ = gauge; }

  void reset_peak() noexcept { peak_.store(used(), std::memory_order_relaxed); }

 private:
  void bump_peak(std::int64_t v) noexcept {
    std::int64_t cur = peak_.load(std::memory_order_relaxed);
    while (v > cur &&
           !peak_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  int node_;
  std::int64_t budget_;
  std::atomic<std::int64_t> used_{0};
  std::atomic<std::int64_t> peak_{0};
  sim::GaugeSeries* gauge_;
};

}  // namespace hcl::mem
