// Layer probes for the traced run: each replays the workload's own keys and
// values through one layer's public functions in isolation, on the
// workload's topology, and reports host nanoseconds (and allocations) per op.
// Instantiated once per workload value type.
#pragma once

#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

template <typename V>
struct ProbeData {
  std::vector<std::uint64_t> keys;  // distinct
  std::vector<V> values;            // values[i] belongs to keys[i]
};

struct ProbeCost {
  double host_ns = 0;
  double allocs = 0;
};

/// `warm` untimed calls, then `n` timed calls of fn(i) with allocations
/// counted across every thread (probes run with no other work in flight).
template <typename F>
ProbeCost time_loop(std::size_t n, std::size_t warm, F&& fn) {
  for (std::size_t i = 0; i < warm; ++i) fn(i);
  count_allocations(true);
  const std::int64_t a0 = allocations();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) fn(warm + i);
  const double ns = seconds_since(t0) * 1e9;
  const std::int64_t a = allocations() - a0;
  count_allocations(false);
  return {ns / static_cast<double>(n), static_cast<double>(a) / static_cast<double>(n)};
}

/// Runs every layer probe; returns the number of probe results that failed
/// their own check (echo mismatch, lost cache hit, failed commit...).
template <typename V>
std::int64_t run_layer_probes(const ProbeContext& pc, const ProbeData<V>& d, Metrics& out) {
  namespace sim = hcl::sim;
  using Pair = std::pair<std::uint64_t, V>;
  std::int64_t bad = 0;
  const std::size_t n = d.keys.size();
  const auto model = hcl::sim::CostModel::ares();

  // rpc: bare Engine::invoke echo and a 64-op Batcher bundle, rank 0 (node 0)
  // to node 1; shm: the same echo with node 1 in rank 0's pod.
  for (const bool shm : {false, true}) {
    const Context::Config cfg = pinned_config(kNodes, kProcs, false, shm);
    Context ctx(cfg);
    const auto id = ctx.rpc().bind<V, V>([](hcl::rpc::ServerCtx&, const V& v) { return v; });
    ctx.run_one(0, [&](sim::Actor& self) {
      const ProbeCost echo = time_loop(20000, 256, [&](std::size_t i) {
        const V& v = d.values[i % n];
        if (!(ctx.rpc().template invoke<V>(self, 1, id, v) == v)) ++bad;
      });
      if (shm) {
        out.push_back({"shm.echo.host_ns", echo.host_ns, "ns"});
        return;
      }
      out.push_back({"rpc.echo.host_ns", echo.host_ns, "ns"});
      out.push_back({"rpc.echo.allocs", echo.allocs, "count"});
      hcl::rpc::BatchPolicy policy;
      policy.max_ops = 64;
      policy.max_bytes = std::size_t{1} << 22;
      policy.max_delay_ns = 0;
      std::vector<hcl::rpc::Future<V>> futures;
      constexpr std::size_t kBundle = 64;
      const ProbeCost bundle = time_loop(300, 4, [&](std::size_t b) {
        hcl::rpc::Batcher batcher(ctx.rpc(), policy);
        futures.clear();
        for (std::size_t j = 0; j < kBundle; ++j) {
          futures.push_back(batcher.enqueue<V>(self, 1, id, d.values[(b * kBundle + j) % n]));
        }
        batcher.flush_all(self);
        for (std::size_t j = 0; j < kBundle; ++j) {
          if (!(futures[j].get(self) == d.values[(b * kBundle + j) % n])) ++bad;
        }
      });
      out.push_back({"rpc.batch_echo.host_ns_per_op", bundle.host_ns / kBundle, "ns"});
    });
    if (shm) {
      std::int64_t sends = 0;
      for (int node = 0; node < kNodes; ++node) {
        sends += ctx.fabric().nic(node).counters().shm_sends.load();
      }
      if (sends == 0) ++bad;  // the echo never rode the ring
    }
  }

  // serial: DataBox pack/unpack of the workload's key+value.
  {
    std::vector<hcl::serial::DataBox<Pair>> boxes;
    std::vector<std::vector<std::byte>> packed;
    for (std::size_t i = 0; i < n; ++i) {
      boxes.emplace_back(Pair{d.keys[i], d.values[i]});
      packed.push_back(boxes.back().to_bytes());
    }
    std::size_t sink = 0;
    const ProbeCost pack = time_loop(100000, 256, [&](std::size_t i) {
      sink += boxes[i % n].to_bytes().size();
    });
    const ProbeCost unpack = time_loop(100000, 256, [&](std::size_t i) {
      const auto box = hcl::serial::DataBox<Pair>::from_bytes(packed[i % n]);
      if (box.value().first != d.keys[i % n]) ++bad;
    });
    if (sink == 0) ++bad;
    out.push_back({"serial.pack.host_ns", pack.host_ns, "ns"});
    out.push_back({"serial.unpack.host_ns", unpack.host_ns, "ns"});
    out.push_back({"serial.pack.allocs", pack.allocs, "count"});
  }

  // sim: Resource::reserve on a nic_cores-lane resource with the workload's
  // service time, arrivals spaced so a lane is always idle at `now`, then
  // arriving twice as fast as the lanes drain (saturated placement path).
  {
    const sim::Nanos service = std::max<sim::Nanos>(pc.service_ns, 1);
    sim::Resource idle(model.nic_cores);
    sim::Nanos t = 0;
    const ProbeCost idle_cost = time_loop(200000, 1024, [&](std::size_t) {
      t += service;
      idle.reserve(t, service);
    });
    sim::Resource busy(model.nic_cores);
    const sim::Nanos gap = std::max<sim::Nanos>(1, service / (2 * model.nic_cores));
    t = 0;
    const ProbeCost busy_cost = time_loop(200000, 1024, [&](std::size_t) {
      t += gap;
      busy.reserve(t, service);
    });
    out.push_back({"sim.reserve_idle.host_ns", idle_cost.host_ns, "ns"});
    out.push_back({"sim.reserve_busy.host_ns", busy_cost.host_ns, "ns"});
  }

  // cache: a find served from rank 0's read cache (remote keys, warmed once,
  // lease long enough that nothing expires mid-probe).
  {
    const Context::Config cfg = pinned_config(kNodes, kProcs, false, false);
    Context ctx(cfg);
    auto options = pinned_options(cfg);
    options.cache.mode = hcl::cache::CacheMode::kInvalidate;
    options.cache.capacity = 4096;
    options.cache.ttl_ns = sim::kSecond;
    hcl::unordered_map<std::uint64_t, V> map(ctx, options);
    std::vector<std::size_t> remote;
    for (std::size_t i = 0; i < n && remote.size() < 1024; ++i) {
      if (map.partition_owner(map.partition_of(d.keys[i])) != 0) remote.push_back(i);
    }
    ctx.run_one(0, [&](sim::Actor&) {
      for (std::size_t i : remote) map.insert(d.keys[i], d.values[i]);
    });
    ctx.run_one(0, [&](sim::Actor&) {
      V v{};
      for (std::size_t i : remote) map.find(d.keys[i], &v);
      const std::int64_t hits0 = map.cache_stats().hits;
      const ProbeCost hit = time_loop(50000, 0, [&](std::size_t i) {
        const std::size_t k = remote[i % remote.size()];
        if (!map.find(d.keys[k], &v) || !(v == d.values[k])) ++bad;
      });
      if (map.cache_stats().hits - hits0 != 50000) ++bad;
      out.push_back({"cache.hit.host_ns", hit.host_ns, "ns"});
    });
  }

  // lf: the partition-local structures under the containers.
  {
    hcl::lf::CuckooMap<std::uint64_t, V> cuckoo(128);
    for (std::size_t i = 0; i < n; ++i) cuckoo.insert(d.keys[i], d.values[i]);
    const ProbeCost find = time_loop(100000, 256, [&](std::size_t i) {
      V v{};
      if (!cuckoo.find(d.keys[i % n], &v)) ++bad;
    });
    const ProbeCost upsert = time_loop(100000, 256, [&](std::size_t i) {
      cuckoo.upsert(d.keys[i % n], d.values[(i + 1) % n]);
    });
    hcl::lf::SkipListMap<std::uint64_t, V> list;
    const ProbeCost insert = time_loop(n, 0, [&](std::size_t i) {
      if (!list.insert(d.keys[i], d.values[i])) ++bad;
    });
    const ProbeCost lookup = time_loop(100000, 256, [&](std::size_t i) {
      V v{};
      if (!list.find_value(d.keys[i % n], &v)) ++bad;
    });
    out.push_back({"lf.cuckoo_find.host_ns", find.host_ns, "ns"});
    out.push_back({"lf.cuckoo_upsert.host_ns", upsert.host_ns, "ns"});
    out.push_back({"lf.skiplist_insert.host_ns", insert.host_ns, "ns"});
    out.push_back({"lf.skiplist_find.host_ns", lookup.host_ns, "ns"});
  }

  // memory: PersistLog::append of container-shaped journal records.
  {
    const std::string path = pc.scratch_dir + "/probe.journal";
    hcl::mem::NodeMemory memory(0, std::int64_t{64} << 30);
    auto log = hcl::core::PersistLog::open(memory, path, hcl::mem::SyncMode::kRelaxed);
    if (!log.ok()) {
      ++bad;
    } else {
      std::vector<std::vector<std::byte>> records;
      for (std::size_t i = 0; i < n; ++i) {
        hcl::serial::OutArchive ar;
        ar.u64(1);
        hcl::serial::save(ar, d.keys[i]);
        hcl::serial::save(ar, d.values[i]);
        records.push_back(ar.take());
      }
      constexpr std::size_t kAppends = 20000;
      const ProbeCost append = time_loop(kAppends, 0, [&](std::size_t i) {
        if (!log.value()->append(records[i % n]).ok()) ++bad;
      });
      out.push_back({"memory.journal_append.host_ns", append.host_ns, "ns"});
      out.push_back({"memory.journal_bytes_per_write",
                     static_cast<double>(log.value()->bytes_logged()) / kAppends, "B"});
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }

  // txn: one 2-partition multi_put commit from rank 0.
  {
    const Context::Config cfg = pinned_config(kNodes, kProcs, false, false);
    Context ctx(cfg);
    hcl::unordered_map<std::uint64_t, std::uint64_t> map(ctx, pinned_options(cfg));
    hcl::txn::TxnCoordinator coord(ctx, hcl::txn::TxnPolicy{});
    std::uint64_t k1 = d.keys[0], k2 = d.keys[0];
    for (std::size_t i = 1; i < n && k2 == k1; ++i) {
      if (map.partition_of(d.keys[i]) != map.partition_of(k1)) k2 = d.keys[i];
    }
    if (k2 == k1) ++bad;
    ctx.run_one(0, [&](sim::Actor& self) {
      const ProbeCost commit = time_loop(4000, 64, [&](std::size_t i) {
        const std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs = {{k1, i}, {k2, i}};
        if (!coord.multi_put(self, map, pairs).ok()) ++bad;
      });
      out.push_back({"txn.commit.host_ns", commit.host_ns, "ns"});
    });
  }
  return bad;
}

}  // namespace perfbench
