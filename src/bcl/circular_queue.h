// bcl::CircularQueue — the client-side distributed FIFO baseline.
//
// The queue the paper benchmarks HCL::queue against (Fig. 6c). A fixed-size
// ring hosted on one node; all coordination is client-driven:
//   push: remote FAA on tail (slot reservation) + RDMA write + remote CAS
//         (publish) — plus a head probe for the full check,
//   pop:  remote head/tail probes + remote CAS to claim + RDMA read +
//         remote CAS to free the slot.
// Each push/pop therefore costs several serialized remote atomics — the
// cause of BCL's 35K/43K op/s ceilings against HCL's RPC-based queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bcl/runtime.h"
#include "common/spin.h"
#include "core/context.h"
#include "serial/databox.h"

namespace hcl::bcl {

template <typename T>
class CircularQueue {
 public:
  CircularQueue(Context& ctx, std::size_t capacity,
                core::ContainerOptions options = {})
      : ctx_(&ctx),
        buffers_(ctx),
        node_(core::partition_node(options, ctx.topology(), 0)),
        capacity_(next_pow2(capacity)),
        slots_(capacity_) {
    throw_if_error(ctx_->fabric().memory(node_).reserve(
        static_cast<std::int64_t>(capacity_ * sizeof(Slot)), 0));
  }

  CircularQueue(const CircularQueue&) = delete;
  CircularQueue& operator=(const CircularQueue&) = delete;

  ~CircularQueue() {
    ctx_->fabric().memory(node_).release(
        static_cast<std::int64_t>(capacity_ * sizeof(Slot)), 0);
  }

  /// Client-side push. kCapacity when the ring is full.
  Status push(const T& value) {
    sim::Actor& self = sim::this_actor();
    const auto bytes = static_cast<std::int64_t>(serial::packed_size(value));
    Status buf = buffers_.ensure(self, bytes);
    if (!buf.ok()) return buf;
    self.advance(ctx_->model().mem_insert_base_ns);  // client-side slot logic

    // Probe fullness (remote read of head), then reserve via remote FAA.
    const std::uint64_t head = ctx_->fabric().load64(self, node_, head_);
    const std::uint64_t ticket = ctx_->fabric().faa64(self, node_, tail_, 1);
    if (ticket - head >= capacity_) {
      // Undo the reservation (another remote atomic — the cost of
      // client-side coordination).
      ctx_->fabric().faa64(self, node_, tail_, static_cast<std::uint64_t>(-1));
      return Status::Capacity("bcl::CircularQueue full");
    }
    Slot& slot = slots_[ticket & (capacity_ - 1)];
    // Wait for the slot to drain if a popper still owns it.
    Backoff backoff;
    while (slot.state.load(std::memory_order_acquire) != kFree) backoff.pause();
    slot.value = value;
    ctx_->fabric().charge_put(self, node_, static_cast<std::size_t>(bytes),
                              /*registered_buffer=*/true);
    std::uint64_t expected = kFree;
    ctx_->fabric().cas64(self, node_, slot.state, expected, kReady);
    return Status::Ok();
  }

  /// Client-side pop. kNotFound when empty.
  Status pop(T* out) {
    sim::Actor& self = sim::this_actor();
    self.advance(ctx_->model().mem_find_base_ns);  // client-side slot logic
    Backoff backoff;
    for (;;) {
      const std::uint64_t head = ctx_->fabric().load64(self, node_, head_);
      const std::uint64_t tail = ctx_->fabric().load64(self, node_, tail_);
      if (head >= tail) return Status::NotFound();
      std::uint64_t expected = head;
      // Remote CAS to claim the head index.
      if (!ctx_->fabric().cas64(self, node_, head_, expected, head + 1)) {
        backoff.pause();
        continue;  // lost the race; re-probe (more remote traffic)
      }
      Slot& slot = slots_[head & (capacity_ - 1)];
      // Wait for the producer to publish.
      Backoff wait;
      while (slot.state.load(std::memory_order_acquire) != kReady) wait.pause();
      const std::size_t bytes = serial::packed_size(slot.value);
      if (out != nullptr) *out = std::move(slot.value);
      ctx_->fabric().charge_get(self, node_, bytes);
      // Remote CAS to release the slot for reuse.
      std::uint64_t ready = kReady;
      ctx_->fabric().cas64(self, node_, slot.state, ready, kFree);
      return Status::Ok();
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] sim::NodeId host_node() const noexcept { return node_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> state{kFree};
    T value{};
  };

  Context* ctx_;
  ClientBufferPool buffers_;
  sim::NodeId node_;
  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
};

}  // namespace hcl::bcl
