// The simulated communication fabric (OFI-like layer of the paper §III).
//
// One Fabric spans the whole simulated cluster. Per node it owns:
//   * a Nic (ingress DMA engine, atomic unit, NIC cores; timing only),
//   * the node memory channels (shared-memory bandwidth for the hybrid
//     access model),
//   * a "CAS unit" modeling cache-coherence serialization of contended
//     local atomics,
//   * a buffer registration/pinning lane (BCL's client-side buffer path),
//   * the node memory budget and its resident-bytes gauge.
//
// Two families of operations:
//   * one-sided verbs (put/get/cas/faa) — the primitives BCL's client-side
//     protocol is built from. They execute the real memory operation in the
//     caller's thread and advance the caller's simulated clock to the
//     operation's completion time.
//   * RoR transport hooks (send_request / nic_begin / pull_response) — the
//     primitives HCL's RPC-over-RDMA framework is built from (Fig. 2 flow).
//
// Locality: ops whose target is the caller's own node never touch the wire;
// they ride the node memory channels (shared-memory bypass).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/status.h"
#include "fabric/fault_plan.h"
#include "fabric/nic.h"
#include "memory/node_memory.h"
#include "sim/actor.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "sim/resource.h"
#include "sim/time.h"
#include "sim/timeseries.h"
#include "sim/topology.h"

namespace hcl::fabric {

struct FabricOptions {
  /// Width of one profiling bucket (Fig. 4 samples "per second" of
  /// simulated time; finer buckets keep short runs visible).
  sim::Nanos series_bucket = 50 * sim::kMillisecond;
  std::size_t series_len = 1200;
};

class Fabric {
 public:
  using Options = FabricOptions;

  explicit Fabric(const sim::Topology& topology,
                  sim::CostModel model = sim::CostModel::ares(),
                  Options options = Options{})
      : topology_(topology), model_(model), options_(options) {
    const int n = topology.num_nodes();
    nodes_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<NodeState>(i, model_, options_));
    }
  }

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] const sim::Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const sim::CostModel& model() const noexcept { return model_; }

  // ------------------------------------------------------------------
  // Fault injection. A null plan (the default) costs one branch per op.
  // ------------------------------------------------------------------

  /// Install (or clear, with nullptr) the fabric-wide fault plan. Install
  /// before traffic; swapping mid-run is safe only between phases. A
  /// topology past FaultPlan::kMaxNodes is refused.
  void set_fault_plan(std::shared_ptr<FaultPlan> plan) {
    if (plan != nullptr && topology_.num_nodes() > FaultPlan::kMaxNodes) {
      throw HclError(Status::InvalidArgument("fault plan: topology too large"));
    }
    fault_plan_ = std::move(plan);
  }
  [[nodiscard]] FaultPlan* fault_plan() const noexcept {
    return fault_plan_.get();
  }

  /// Membership view: is `n` currently down (fail_node on the installed
  /// fault plan)? With no plan installed every node is up. This is what the
  /// failover layer consults to distinguish a dead primary (re-route) from
  /// a transient NACK (retry same target), and to detect rejoin.
  [[nodiscard]] bool node_down(sim::NodeId n) const noexcept {
    return fault_plan_ != nullptr && fault_plan_->node_down(n);
  }

  Nic& nic(sim::NodeId n) { return node(n).nic; }
  mem::NodeMemory& memory(sim::NodeId n) { return node(n).memory; }
  sim::GaugeSeries& memory_gauge(sim::NodeId n) { return node(n).mem_gauge; }
  sim::Resource& mem_channels(sim::NodeId n) { return node(n).mem_channels; }
  sim::Resource& cas_unit(sim::NodeId n) { return node(n).cas_unit; }
  sim::Resource& reg_unit(sim::NodeId n) { return node(n).reg_unit; }

  // ------------------------------------------------------------------
  // Local (shared-memory) timing primitives. Callers are either a client on
  // its own node (hybrid fast path) or a server stub running on a NIC core.
  // They reserve the node's memory channels and return the completion time;
  // they do NOT touch any actor clock — callers decide what to await.
  // ------------------------------------------------------------------

  sim::Nanos local_write(sim::NodeId n, sim::Nanos start, std::int64_t bytes,
                         int copies = 1) {
    sim::Nanos t = start;
    const sim::Nanos service = model_.mem_write_time(bytes);
    for (int i = 0; i < copies; ++i) t = node(n).mem_channels.reserve(t, service);
    return t;
  }

  sim::Nanos local_read(sim::NodeId n, sim::Nanos start, std::int64_t bytes,
                        int copies = 1) {
    sim::Nanos t = start;
    const sim::Nanos service = model_.mem_read_time(bytes);
    for (int i = 0; i < copies; ++i) t = node(n).mem_channels.reserve(t, service);
    return t;
  }

  /// One (or `count`) contended local CAS. The cost model's local_cas_ns is
  /// a flat *contended* cost (cacheline ping-pong already folded in at the
  /// paper's 40-way calibration point), so it charges as latency rather
  /// than re-serializing through a shared unit.
  sim::Nanos local_cas(sim::NodeId n, sim::Nanos start, int count = 1) {
    (void)n;
    return start + static_cast<sim::Nanos>(count) * model_.local_cas_ns;
  }

  // ------------------------------------------------------------------
  // One-sided verbs (BCL's primitive set). Execute the real memory op and
  // advance the caller's clock to completion.
  // ------------------------------------------------------------------

  /// RDMA write (client push). `registered_buffer` engages the per-node
  /// pinning lane at the *source* (BCL's exclusive-buffer preparation).
  void put(sim::Actor& caller, sim::NodeId target, void* dst, const void* src,
           std::size_t len, bool registered_buffer = false) {
    caller.sync_window();
    sim::Nanos t = caller.now();
    t = charge_buffer_prep(caller.node(), t, len, registered_buffer);
    if (target == caller.node()) {
      // Shared-memory bypass: payload still crosses memory once per copy the
      // transport makes (containers add their own extra copies).
      t = local_write(target, t, static_cast<std::int64_t>(len));
    } else {
      t += model_.net_base_latency_ns;
      t = node(target).nic.ingress().reserve(
          t, model_.wire_time(static_cast<std::int64_t>(len)));
      record_remote(target, t, static_cast<std::int64_t>(len));
      t += model_.net_base_latency_ns;  // completion/ack back to the client
    }
    std::memcpy(dst, src, len);
    node(target).nic.counters().write_count.fetch_add(1, std::memory_order_relaxed);
    caller.advance_to(inject_stall(target, OpClass::kOneSided, t));
  }

  /// RDMA read (client pull).
  void get(sim::Actor& caller, sim::NodeId target, void* dst, const void* src,
           std::size_t len) {
    caller.sync_window();
    sim::Nanos t = caller.now();
    if (target == caller.node()) {
      t = local_read(target, t, static_cast<std::int64_t>(len));
    } else {
      t += model_.net_base_latency_ns;  // read request reaches the target
      t = node(target).nic.ingress().reserve(
          t, model_.wire_time(static_cast<std::int64_t>(len)));
      record_remote(target, t, static_cast<std::int64_t>(len));
      t += model_.net_base_latency_ns;  // data returns
    }
    std::memcpy(dst, src, len);
    node(target).nic.counters().read_count.fetch_add(1, std::memory_order_relaxed);
    caller.advance_to(inject_stall(target, OpClass::kOneSided, t));
  }

  /// Timing-only RDMA write: charges exactly what put() charges but moves no
  /// bytes — used when the payload is written natively by typed code (e.g. a
  /// non-trivially-copyable value assigned into a reserved bucket).
  void charge_put(sim::Actor& caller, sim::NodeId target, std::size_t len,
                  bool registered_buffer = false) {
    caller.sync_window();
    sim::Nanos t = caller.now();
    if (target == caller.node()) {
      // The client-side runtime still bounces node-local payloads through
      // its registered buffers (paper §IV.B.2 / Fig. 5a: BCL's intra-node
      // ceiling comes from these extra crossings).
      t = local_write(target, t, static_cast<std::int64_t>(len),
                      registered_buffer ? model_.bcl_local_insert_copies : 1);
    } else {
      t = charge_buffer_prep(caller.node(), t, len, registered_buffer);
      t += model_.net_base_latency_ns;
      t = node(target).nic.ingress().reserve(
          t, model_.wire_time(static_cast<std::int64_t>(len)));
      record_remote(target, t, static_cast<std::int64_t>(len));
      t += model_.net_base_latency_ns;
    }
    node(target).nic.counters().write_count.fetch_add(1, std::memory_order_relaxed);
    caller.advance_to(inject_stall(target, OpClass::kOneSided, t));
  }

  /// Timing-only RDMA read (see charge_put).
  /// `through_runtime` adds the client-side model's bounce-buffer crossings
  /// on node-local reads (BCL's local-find ceiling, Fig. 5a).
  void charge_get(sim::Actor& caller, sim::NodeId target, std::size_t len,
                  bool through_runtime = true) {
    caller.sync_window();
    sim::Nanos t = caller.now();
    if (target == caller.node()) {
      t = local_read(target, t, static_cast<std::int64_t>(len),
                     through_runtime ? model_.bcl_local_find_copies : 1);
    } else {
      t += model_.net_base_latency_ns;
      t = node(target).nic.ingress().reserve(
          t, model_.wire_time(static_cast<std::int64_t>(len)));
      record_remote(target, t, static_cast<std::int64_t>(len));
      t += model_.net_base_latency_ns;
    }
    node(target).nic.counters().read_count.fetch_add(1, std::memory_order_relaxed);
    caller.advance_to(inject_stall(target, OpClass::kOneSided, t));
  }

  /// Remote compare-and-swap on a 64-bit word. Serialized on the target's
  /// NIC atomic unit when remote, on the node CAS unit when local.
  bool cas64(sim::Actor& caller, sim::NodeId target, std::atomic<std::uint64_t>& word,
             std::uint64_t& expected, std::uint64_t desired) {
    advance_for_atomic(caller, target);
    return word.compare_exchange_strong(expected, desired,
                                        std::memory_order_acq_rel);
  }

  /// Remote fetch-and-add on a 64-bit word.
  std::uint64_t faa64(sim::Actor& caller, sim::NodeId target,
                      std::atomic<std::uint64_t>& word, std::uint64_t add) {
    advance_for_atomic(caller, target);
    return word.fetch_add(add, std::memory_order_acq_rel);
  }

  /// Remote 8-byte read (bucket-state probe and similar).
  std::uint64_t load64(sim::Actor& caller, sim::NodeId target,
                       const std::atomic<std::uint64_t>& word) {
    caller.sync_window();
    sim::Nanos t = caller.now();
    if (target == caller.node()) {
      t = local_read(target, t, 8);
    } else {
      t += model_.net_base_latency_ns;
      t = node(target).nic.ingress().reserve(t, model_.wire_time(8));
      record_remote(target, t, 8);
      t += model_.net_base_latency_ns;
    }
    caller.advance_to(t);
    return word.load(std::memory_order_acquire);
  }

  // ------------------------------------------------------------------
  // RoR transport hooks (used by rpc::Engine; Fig. 2 flow).
  // ------------------------------------------------------------------

  /// Step 2 of Fig. 2: RDMA_SEND of the request into the server's request
  /// buffer. Advances the caller only past the injection overhead (the send
  /// is one-sided and pipelined); returns the simulated time at which the
  /// request is available in the target's request buffer.
  ///
  /// `not_before` lets the engine's retry policy re-send at a simulated time
  /// later than the caller's clock (the re-send happens after a timeout the
  /// caller is not blocked on); `issued_at`, when non-null, receives the
  /// simulated time the request actually left the client (the anchor for
  /// invocation deadlines).
  sim::Nanos send_request(sim::Actor& caller, sim::NodeId target,
                          std::int64_t bytes, sim::Nanos not_before = 0,
                          sim::Nanos* issued_at = nullptr) {
    caller.sync_window();
    const sim::Nanos t0 = std::max(caller.now(), not_before);
    if (issued_at != nullptr) *issued_at = t0;
    if (target == caller.node()) {
      // Hybrid model note: HCL containers never RPC to their own node, but
      // the RPC layer still supports it (used by the ablation bench). A
      // node-local request needs no DMA setup — it pays the same doorbell
      // the shm tier charges ("local" has one injection constant, §5i), then
      // the request buffer write rides the node memory channels.
      caller.advance(model_.shm_doorbell_ns);
      return local_write(target, t0 + model_.shm_doorbell_ns, bytes);
    }
    caller.advance(model_.wire_overhead_ns);  // WQE injection on the client
    sim::Nanos arrival = t0 + model_.net_base_latency_ns;
    arrival = node(target).nic.ingress().reserve(arrival, model_.wire_time(bytes));
    record_remote(target, arrival, bytes);
    node(target).nic.counters().rpc_count.fetch_add(1, std::memory_order_relaxed);
    return arrival;
  }

  /// Steps 3-4: a NIC core picks the request off its (simulated) work queue
  /// and de-marshals it. Returns when the server stub may start executing —
  /// i.e. the DISPATCH COMPLETION time. Anything beyond the dispatch
  /// service itself was spent queued behind other WQEs; the engine
  /// attributes that gap to the NIC-queue stage (rpc_queue_wait_ns, and the
  /// queue stage of traced spans — DESIGN.md §5e).
  sim::Nanos nic_begin(sim::NodeId target, sim::Nanos arrival,
                       sim::Nanos extra_service = 0) {
    return node(target).nic.cores().reserve(
        arrival, model_.nic_rpc_dispatch_ns + extra_service);
  }

  /// Steps 6-7: completion notification plus the client's RDMA_READ pull of
  /// the response. Advances the caller's clock to full completion.
  void pull_response(sim::Actor& caller, sim::NodeId target, std::int64_t bytes,
                     sim::Nanos response_ready) {
    sim::Nanos t = response_ready;
    if (target == caller.node()) {
      t = local_read(target, t < caller.now() ? caller.now() : t, bytes);
    } else {
      t += model_.net_base_latency_ns;  // send-completion notification
      t += model_.net_base_latency_ns;  // client's read request travels
      t = node(target).nic.ingress().reserve(t, model_.wire_time(bytes));
      record_remote(target, t, bytes);
      t += model_.net_base_latency_ns;  // response payload returns
    }
    caller.advance_to(t);
  }

  // ------------------------------------------------------------------
  // Shm transport tier hooks (DESIGN.md §5i; used by rpc::Engine when the
  // route is pod-local). Payload movement rides the destination node's
  // memory channels — the SAME local-memory term the hybrid co-located
  // bypass charges — and records no wire packets.
  // ------------------------------------------------------------------

  /// Is `n`'s shm tier degraded on the installed fault plan? With no plan
  /// every pod link is healthy.
  [[nodiscard]] bool shm_degraded(sim::NodeId n) const noexcept {
    return fault_plan_ != nullptr && fault_plan_->shm_degraded(n);
  }

  /// Shm-tier request: producer doorbell plus one payload crossing into the
  /// destination ring's arena. Returns the time the filled slot is visible
  /// to the ring consumer. Counts rpc_count (it IS an RPC; shm_sends records
  /// the tier split) but no packets — nothing crossed the wire.
  sim::Nanos shm_send(sim::Actor& caller, sim::NodeId target, std::int64_t bytes,
                      sim::Nanos not_before = 0,
                      sim::Nanos* issued_at = nullptr) {
    caller.sync_window();
    const sim::Nanos t0 = std::max(caller.now(), not_before);
    if (issued_at != nullptr) *issued_at = t0;
    caller.advance(model_.shm_doorbell_ns);
    auto& counters = node(target).nic.counters();
    counters.rpc_count.fetch_add(1, std::memory_order_relaxed);
    counters.shm_sends.fetch_add(1, std::memory_order_relaxed);
    counters.shm_bytes.fetch_add(bytes, std::memory_order_relaxed);
    return local_write(target, t0 + model_.shm_doorbell_ns, bytes);
  }

  /// Shm-tier response pull: the client reads the response view out of the
  /// arena at local-memory rates. No completion round trips, no packets.
  void shm_pull(sim::Actor& caller, sim::NodeId target, std::int64_t bytes,
                sim::Nanos response_ready) {
    const sim::Nanos start =
        response_ready < caller.now() ? caller.now() : response_ready;
    node(target).nic.counters().shm_bytes.fetch_add(bytes,
                                                    std::memory_order_relaxed);
    caller.advance_to(local_read(target, start, bytes));
  }

  // ------------------------------------------------------------------

  /// Reset metrics and timing lanes on every node (between repetitions).
  void reset_metrics() {
    for (auto& n : nodes_) {
      n->nic.reset_metrics();
      n->mem_channels.reset();
      n->cas_unit.reset();
      n->reg_unit.reset();
      n->mem_gauge.reset();
    }
  }

  /// "NIC compute" utilization over [0, elapsed] — the quantity Fig. 4(a)
  /// tracks (DMA transfer time excluded; the paper's metric is processor
  /// utilization). Two contributions:
  ///   * remote atomics executed by the NIC's RMW engine (one context),
  ///   * server-stub execution on the NIC cores (dispatch + handler time,
  ///     spread over nic_cores contexts).
  [[nodiscard]] double nic_compute_utilization(sim::NodeId n, sim::Nanos elapsed) {
    if (elapsed <= 0) return 0.0;
    auto& st = node(n);
    const double atomic_busy =
        static_cast<double>(
            st.nic.counters().atomic_count.load(std::memory_order_relaxed)) *
        static_cast<double>(model_.nic_atomic_service_ns);
    const double core_busy =
        static_cast<double>(st.nic.cores().busy_total()) +
        static_cast<double>(
            st.nic.counters().handler_busy_ns.load(std::memory_order_relaxed));
    return atomic_busy / static_cast<double>(elapsed) +
           core_busy /
               (static_cast<double>(elapsed) * static_cast<double>(model_.nic_cores));
  }

 private:
  struct NodeState {
    NodeState(int id, const sim::CostModel& model, const Options& opts)
        : nic(id, model, opts.series_bucket, opts.series_len),
          mem_channels(model.mem_channels),
          cas_unit(model.local_cas_lanes),
          reg_unit(model.bcl_reg_lanes),
          mem_gauge(opts.series_bucket, opts.series_len),
          memory(id, model.node_memory_budget_bytes, &mem_gauge) {}

    Nic nic;
    sim::Resource mem_channels;
    sim::Resource cas_unit;
    sim::Resource reg_unit;
    sim::GaugeSeries mem_gauge;
    mem::NodeMemory memory;
  };

  NodeState& node(sim::NodeId n) {
    if (!topology_.valid_node(n)) {
      throw HclError(Status::InvalidArgument("invalid node id"));
    }
    return *nodes_[static_cast<std::size_t>(n)];
  }

  /// Client-side buffer preparation for one-sided puts: small payloads copy
  /// through pre-registered bounce buffers (eager protocol, one memory
  /// crossing at the source); large payloads dynamically pin, serialized on
  /// the node's registration lane (rendezvous protocol).
  sim::Nanos charge_buffer_prep(sim::NodeId source, sim::Nanos t, std::size_t len,
                                bool registered_buffer) {
    if (!registered_buffer) return t;
    if (static_cast<std::int64_t>(len) >= model_.bcl_rendezvous_bytes) {
      return node(source).reg_unit.reserve(
          t, model_.reg_time(static_cast<std::int64_t>(len)));
    }
    return local_write(source, t, static_cast<std::int64_t>(len));
  }

  void advance_for_atomic(sim::Actor& caller, sim::NodeId target) {
    caller.sync_window();
    sim::Nanos t = caller.now();
    auto& st = node(target);
    if (target == caller.node()) {
      t += model_.local_cas_ns;  // flat contended-CAS cost
    } else {
      // Remote atomics execute on the NIC's processing pipeline, which is
      // shared with inbound DMA (per-QP ordering on real RoCE hardware):
      // they reserve the same ingress engine the transfers use. This makes
      // BCL's per-insert cycle = 2 CAS + 1 write on one serialized engine —
      // the paper's Fig. 1 cost structure.
      t += model_.net_base_latency_ns;
      t = st.nic.ingress().reserve(t, model_.nic_atomic_service_ns);
      st.nic.counters().atomic_busy.add(t - model_.nic_atomic_service_ns,
                                        model_.nic_atomic_service_ns);
      record_remote(target, t, 8);
      t += model_.net_base_latency_ns;
    }
    st.nic.counters().atomic_count.fetch_add(1, std::memory_order_relaxed);
    caller.advance_to(inject_stall(target, OpClass::kAtomic, t));
  }

  /// Injected NIC stall window on non-RPC verbs (the RPC path draws its own
  /// richer fault decisions in the engine).
  sim::Nanos inject_stall(sim::NodeId target, OpClass cls, sim::Nanos t) {
    if (fault_plan_ == nullptr) return t;
    return t + fault_plan_->next(target, cls).delay_ns;
  }

  void record_remote(sim::NodeId target, sim::Nanos t, std::int64_t bytes) {
    node(target).nic.counters().record_packets(t, model_.packets(bytes), bytes);
  }

  sim::Topology topology_;
  sim::CostModel model_;
  Options options_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::shared_ptr<FaultPlan> fault_plan_;
};

}  // namespace hcl::fabric
