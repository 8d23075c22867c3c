// Per-NIC traffic counters and time series, the data source for the
// profiling figure (Fig. 4): packets/s, NIC engine busy time, op mix.
// Hot scalar counters are striped (common/striped.h): at paper-scale
// topologies every rank bumps total_packets/rpc_count per op, and a single
// atomic per counter serializes the cluster on metric cache lines. Writes
// stay relaxed fetch_adds on per-thread cells; load() merges (exact).
#pragma once

#include <cstdint>

#include "common/striped.h"
#include "sim/time.h"
#include "sim/timeseries.h"

namespace hcl::fabric {

struct NicCounters {
  using Counter = hcl::StripedCounter<8>;

  NicCounters(sim::Nanos bucket_width, std::size_t num_buckets)
      : packets(bucket_width, num_buckets),
        busy(bucket_width, num_buckets),
        atomic_busy(bucket_width, num_buckets),
        cache_hits(bucket_width, num_buckets) {}

  /// Packets handled per simulated-time bucket (Fig. 4c).
  sim::TimeSeries packets;
  /// NIC-core busy nanoseconds per bucket: dispatch + server-stub execution
  /// (normalize by nic_cores contexts). Fig. 4a.
  sim::TimeSeries busy;
  /// Remote-atomic execution nanoseconds per bucket (one RMW context).
  sim::TimeSeries atomic_busy;
  /// Client-cache hits against partitions this NIC hosts, per bucket —
  /// remote reads that did NOT cross the wire. Plotted next to packets/s to
  /// show the RPC traffic a warm cache removes (fig4 --cache).
  sim::TimeSeries cache_hits;

  Counter total_packets;
  Counter total_bytes;
  Counter rpc_count;
  /// Client re-sends into this NIC (retry-with-backoff after a transient
  /// failure or a lost request).
  Counter rpc_retries;
  /// Invocations that ultimately resolved DeadlineExceeded against this NIC.
  Counter rpc_timeouts;
  /// Coalesced bundles executed by this NIC's batch executor, and the
  /// constituent ops they carried (rpc_batched_ops / rpc_batches = mean
  /// bundle size; Table I's E).
  Counter rpc_batches;
  Counter rpc_batched_ops;
  /// Server-stub execution time on the NIC cores (handler simulated spans).
  Counter handler_busy_ns;
  /// Time delivered WQEs spent queued behind other work before their NIC-core
  /// dispatch began (Fig. 4's queue stage; cross-checked by the tracer's
  /// per-span queue durations).
  Counter rpc_queue_wait_ns;
  Counter atomic_count;
  Counter read_count;
  Counter write_count;
  /// Client read-cache traffic against this NIC's partitions (DESIGN.md
  /// §5d): hits (no RPC issued), misses (fell through to the authoritative
  /// RPC), entries dropped by write-invalidation or piggybacked-epoch
  /// staleness, and stale-epoch reads specifically.
  Counter cache_hit_count;
  Counter cache_miss_count;
  Counter cache_invalidation_count;
  Counter cache_stale_count;
  /// Ops re-routed to this NIC because it hosts the promoted replica of a
  /// partition whose primary is down, and repair-replay ops this NIC (the
  /// recovered primary) absorbed during anti-entropy catch-up.
  Counter failovers;
  Counter repair_ops;
  /// Shard rebalancing traffic this NIC absorbed as the destination of a
  /// split/merge/migrate (DESIGN.md §5g): completed moves, keys landed, and
  /// bulk-path bytes (charged at wire rates but outside the op path).
  Counter migrations;
  Counter migrated_keys;
  Counter migrated_bytes;
  /// Cross-partition transaction outcomes attributed to the COORDINATOR's
  /// node (DESIGN.md §5h): every TxnCoordinator attempt ends as exactly one
  /// commit or one abort, so txn_commits + txn_aborts reconciles against the
  /// tracer's kTxn span count. txn_retries counts abort-then-retry loops
  /// (attempts re-run after a validation conflict), a subset of txn_aborts.
  Counter txn_commits;
  Counter txn_aborts;
  Counter txn_retries;
  /// Why attempts abort (DESIGN.md §5h). The first four count prepare
  /// refusals on the REFUSING participant's node, one per refused prepare,
  /// bumped at the single refusal site of each core's txn_prepare stub: a
  /// rival holds a needed intent slot or stripe, a read's version moved, the
  /// key or partition moved (route check, move fence), or the queue holds
  /// fewer elements than the staged pops. txn_abort_eager counts the
  /// client-side abort a queue read raises on the COORDINATOR's node. With
  /// one refusable participant per attempt and no faults, the five sum to
  /// txn_aborts.
  Counter txn_abort_slot_held;
  Counter txn_abort_conflict;
  Counter txn_abort_moved;
  Counter txn_abort_underflow;
  Counter txn_abort_eager;
  /// Shared-memory transport tier (DESIGN.md §5i), attributed to the
  /// DESTINATION node: requests delivered through its shm ring instead of
  /// the wire (client RPCs also count in rpc_count — shm_sends tells the
  /// tier split; replication fan-out rides the ring without bumping
  /// rpc_count, matching its wire path, so it shows only here),
  /// payload bytes carried in ring arenas (never in total_bytes —
  /// they cross memory channels, not the wire), and requests that found the
  /// ring full and fell back to the RDMA path.
  Counter shm_sends;
  Counter shm_bytes;
  Counter shm_ring_full_fallbacks;

  void record_packets(sim::Nanos t, std::int64_t n, std::int64_t bytes) {
    packets.add(t, n);
    total_packets.fetch_add(n, std::memory_order_relaxed);
    total_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  void reset() {
    packets.reset();
    busy.reset();
    atomic_busy.reset();
    total_packets.store(0);
    total_bytes.store(0);
    rpc_count.store(0);
    rpc_retries.store(0);
    rpc_timeouts.store(0);
    rpc_batches.store(0);
    rpc_batched_ops.store(0);
    handler_busy_ns.store(0);
    rpc_queue_wait_ns.store(0);
    atomic_count.store(0);
    read_count.store(0);
    write_count.store(0);
    cache_hits.reset();
    cache_hit_count.store(0);
    cache_miss_count.store(0);
    cache_invalidation_count.store(0);
    cache_stale_count.store(0);
    failovers.store(0);
    repair_ops.store(0);
    migrations.store(0);
    migrated_keys.store(0);
    migrated_bytes.store(0);
    txn_commits.store(0);
    txn_aborts.store(0);
    txn_retries.store(0);
    txn_abort_slot_held.store(0);
    txn_abort_conflict.store(0);
    txn_abort_moved.store(0);
    txn_abort_underflow.store(0);
    txn_abort_eager.store(0);
    shm_sends.store(0);
    shm_bytes.store(0);
    shm_ring_full_fallbacks.store(0);
  }
};

}  // namespace hcl::fabric
