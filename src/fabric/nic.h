// The simulated RDMA NIC of one node.
//
// Mirrors the architecture of Fig. 2 in the paper:
//   * an ingress DMA engine ("wire") that serializes inbound transfers at
//     link bandwidth,
//   * an atomic execution unit that serializes remote CAS/FAA (the hardware
//     behaviour BCL's client-side protocol leans on),
//   * a set of NIC cores (BlueField-style) that run RPC server stubs,
//   * counters/time-series for the profiling figures.
//
// The NIC is timing state only: it owns no threads and no work queue. A
// server stub executes inline on the calling rank's thread (rpc::Engine);
// the "server stub on the NIC core" flow of the RoR framework is modelled by
// reserving a lane of cores() for the stub's dispatch and handler time.
#pragma once

#include <cstddef>

#include "fabric/counters.h"
#include "sim/cost_model.h"
#include "sim/resource.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace hcl::fabric {

class Nic {
 public:
  Nic(sim::NodeId node, const sim::CostModel& model, sim::Nanos series_bucket,
      std::size_t series_len)
      : node_(node),
        model_(model),
        counters_(series_bucket, series_len),
        ingress_(model.nic_dma_lanes, nullptr),
        atomic_unit_(model.nic_atomic_lanes, &counters_.atomic_busy),
        cores_(model.nic_cores, &counters_.busy) {}

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] sim::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const sim::CostModel& model() const noexcept { return model_; }

  NicCounters& counters() noexcept { return counters_; }
  sim::Resource& ingress() noexcept { return ingress_; }
  sim::Resource& atomic_unit() noexcept { return atomic_unit_; }
  /// The k-lane NIC-core reservoir RPC dispatch reserves on (Fabric::
  /// nic_begin). A reservation's completion time minus its arrival, minus
  /// the dispatch service itself, is time the request waited for a free
  /// core — surfaced as counters().rpc_queue_wait_ns and as the queue
  /// stage of traced spans (DESIGN.md §5e).
  sim::Resource& cores() noexcept { return cores_; }

  /// Reset all timing state (between benchmark repetitions).
  void reset_metrics() {
    counters_.reset();
    ingress_.reset();
    atomic_unit_.reset();
    cores_.reset();
  }

 private:
  sim::NodeId node_;
  sim::CostModel model_;
  NicCounters counters_;
  sim::Resource ingress_;
  sim::Resource atomic_unit_;
  sim::Resource cores_;
};

}  // namespace hcl::fabric
