// Ablations of HCL's design choices (DESIGN.md §5) — each toggles one
// mechanism the paper credits for performance and measures the cost of
// losing it.
//
//   A1. Hybrid data access model (§III.C.5): node-local ops via direct
//       shared memory vs. forcing them through the RPC loopback.
//   A2. Server-side callback chaining (§III.C.3): K dependent operations in
//       ONE invocation vs. K separate round trips.
//   A3. Bulk queue operations (Table I): one invocation for E elements vs.
//       E invocations.
//   A4. Asynchronous futures (§III.C.4): pipelined async_insert vs.
//       synchronous inserts.
//   A5. Fault injection & retry policy: what arming the reliability layer
//       costs when the fabric is clean, and what a lossy fabric costs when
//       bounded retries absorb the faults.
//   A6. Op coalescing (§III.C, Table I bulk rows): remote inserts shipped
//       through the client-side batcher (one RDMA_SEND per bundle, one
//       packed response, per-op dispatch amortized) vs. unbatched
//       one-insert-per-invocation, at small value sizes where per-op
//       overhead dominates the wire bytes.
//   A7. Client-side read cache (DESIGN.md §5d): a Zipfian read-heavy
//       workload against a remote partition with the epoch-lease cache on
//       vs. off (hits are charged local check+hit time instead of a fabric
//       round trip), plus the uniform write-heavy control where every write
//       bumps the partition epoch and the cache cannot help.
//   A8. Availability under a server kill (DESIGN.md §5f): one server dies
//       mid-run and rejoins at the 3/4 mark. With replication=1 every op in
//       the outage window completes through the promoted standby (zero
//       failed ops, bounded per-op dip); with replication=0 the same window
//       resolves every op as kUnavailable. Cache-on variant shows the fence
//       epoch staling leases without serving stale data.
//   A9. Heat-driven shard split (DESIGN.md §5g): a Zipfian (theta=0.99)
//       stream funneled through one partition's host, with a mid-run
//       split() peeling the hot slots off to the coldest partition. Static
//       placement bottlenecks one server NIC; the split spreads it. Run
//       cache-off and cache-on; the migration window must lose zero ops and
//       both variants must converge byte-for-byte.
//   A11. Shared-memory transport tier (DESIGN.md §5i): small pod-local echo
//       ops through the shm ring (doorbell + consumer-lane dispatch +
//       local-memory byte time) vs the same ops over the RDMA scalar path
//       (wire overhead + base latency + NIC dispatch + 3x-latency pull).
//       The tier's per-op floor must sit >=3x below the wire's.
//
// A6-A11 additionally drop BENCH_A<k>.json next to the binary so CI can diff
// the perf trajectory across commits (ROADMAP item 5).
//
// JSON determinism contract: simulated time is integer nanoseconds, but the
// reservation order of real threads can wobble a makespan by a few ns
// run-to-run. Every emitted float is therefore rounded COARSER than that
// noise floor (ms to microsecond precision, ratios to two decimals, op
// rates to integers), seeds are the Config defaults, and field order is
// fixed by the format strings — so a BENCH_A*.json only changes when the
// cost model or mechanism under test actually changes.
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "rpc/engine.h"
#include "txn/txn.h"

namespace {

using namespace hcl;         // NOLINT
using namespace hcl::bench;  // NOLINT

// write_json / jsonf live in bench_util.h now that every figure bench emits
// a BENCH_*.json record under the same determinism contract.

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv,
                  {{"--clients", "concurrent client ranks"},
                   {"--ops", "operations per client"}});
  const int clients = static_cast<int>(args.get("--clients", 16));
  const auto ops = args.get("--ops", 512);

  print_header("Ablations", "what each HCL design choice buys");
  std::printf("clients=%d ops/client=%" PRId64 "\n\n", clients, ops);

  // --- A1: hybrid access model -------------------------------------------
  {
    Context ctx({.num_nodes = 1, .procs_per_node = clients});
    auto& engine = ctx.rpc();
    const auto insert_like = engine.bind<bool, Blob>(
        [&](rpc::ServerCtx& sctx, const Blob& b) {
          sctx.finish = ctx.fabric().local_write(
              sctx.node, sctx.start + ctx.model().mem_insert_base_ns,
              static_cast<std::int64_t>(b.nominal));
          return true;
        });
    // Hybrid ON: direct shared-memory op.
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      for (std::int64_t i = 0; i < ops; ++i) {
        self.advance(ctx.model().mem_insert_base_ns);
        self.advance_to(ctx.fabric().local_write(self.node(), self.now(), 4096));
      }
    });
    const double with_hybrid = ctx.elapsed_seconds();
    // Hybrid OFF: same op shipped through the RPC loopback.
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      for (std::int64_t i = 0; i < ops; ++i) {
        (void)engine.invoke<bool>(self, 0, insert_like, Blob{4096});
      }
    });
    const double without_hybrid = ctx.elapsed_seconds();
    std::printf("A1 hybrid access model   : local-direct %.3f ms vs RPC-loopback %.3f ms -> %.1fx\n",
                with_hybrid * 1e3, without_hybrid * 1e3,
                without_hybrid / with_hybrid);
  }

  // --- A2: callback chaining ----------------------------------------------
  {
    Context ctx({.num_nodes = 2, .procs_per_node = clients});
    auto& engine = ctx.rpc();
    const auto stage = engine.bind_raw([&](rpc::ServerCtx& sctx,
                                           std::span<const std::byte> prev,
                                           serial::OutArchive& out) {
      sctx.finish = ctx.fabric().local_write(
          sctx.node, sctx.start + ctx.model().mem_insert_base_ns, 512);
      out.raw_bytes(prev.data(), prev.size());
    });
    constexpr int kStages = 4;
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      for (std::int64_t i = 0; i < ops; ++i) {
        (void)engine.invoke_chain<std::vector<std::byte>>(
            self, 1, stage, {stage, stage, stage}, std::vector<std::byte>(64));
      }
    });
    const double chained = ctx.elapsed_seconds();
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      for (std::int64_t i = 0; i < ops; ++i) {
        std::vector<std::byte> payload(64);
        for (int s = 0; s < kStages; ++s) {
          payload = engine.invoke<std::vector<std::byte>>(self, 1, stage, payload);
        }
      }
    });
    const double separate = ctx.elapsed_seconds();
    std::printf("A2 callback chaining (%d stages): one call %.3f ms vs %d round trips %.3f ms -> %.1fx\n",
                kStages, chained * 1e3, kStages, separate * 1e3,
                separate / chained);
  }

  // --- A3: bulk queue ops --------------------------------------------------
  {
    Context ctx({.num_nodes = 2, .procs_per_node = clients});
    queue<std::uint64_t> q(ctx, [] {
      core::ContainerOptions o;
      o.first_node = 1;
      return o;
    }());
    constexpr std::size_t kBatch = 32;
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      std::vector<std::uint64_t> batch(kBatch, 7);
      for (std::int64_t i = 0; i < ops / static_cast<std::int64_t>(kBatch); ++i) {
        q.push(batch);
      }
    });
    const double bulk = ctx.elapsed_seconds();
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      for (std::int64_t i = 0; i < ops; ++i) q.push(std::uint64_t{7});
    });
    const double single = ctx.elapsed_seconds();
    std::printf("A3 bulk push (E=%zu)      : bulk %.3f ms vs per-element %.3f ms -> %.1fx\n",
                kBatch, bulk * 1e3, single * 1e3, single / bulk);
  }

  // --- A4: asynchronous futures --------------------------------------------
  {
    Context ctx({.num_nodes = 2, .procs_per_node = clients});
    unordered_map<std::uint64_t, std::uint64_t> m(ctx, [] {
      core::ContainerOptions o;
      o.num_partitions = 1;
      o.first_node = 1;
      return o;
    }());
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      std::vector<rpc::Future<bool>> inflight;
      inflight.reserve(static_cast<std::size_t>(ops));
      for (std::int64_t i = 0; i < ops; ++i) {
        inflight.push_back(m.async_insert(
            static_cast<std::uint64_t>(self.rank()) * ops + i, 1));
      }
      for (auto& f : inflight) (void)f.get(self);
    });
    const double async_s = ctx.elapsed_seconds();
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      for (std::int64_t i = 0; i < ops; ++i) {
        m.insert(static_cast<std::uint64_t>(self.rank() + 1000) * ops + i, 1);
      }
    });
    const double sync_s = ctx.elapsed_seconds();
    std::printf("A4 async futures          : pipelined %.3f ms vs synchronous %.3f ms -> %.1fx\n",
                async_s * 1e3, sync_s * 1e3, sync_s / async_s);
  }

  // --- A5: fault injection & retry policy ----------------------------------
  {
    Context ctx({.num_nodes = 2, .procs_per_node = clients});
    auto& engine = ctx.rpc();
    const auto echo = engine.bind<std::uint64_t, std::uint64_t>(
        [](rpc::ServerCtx&, const std::uint64_t& v) { return v; });
    rpc::InvokeOptions policy;
    policy.timeout_ns = 2 * sim::kMillisecond;
    policy.max_retries = 3;
    const auto storm = [&](const rpc::InvokeOptions& opts) {
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        if (self.node() != 0) return;
        for (std::int64_t i = 0; i < ops; ++i) {
          try {
            (void)engine.invoke_opt<std::uint64_t>(
                self, 1, echo, opts, static_cast<std::uint64_t>(i));
          } catch (const HclError&) {
            // Retries exhausted: the op resolved with a definite error.
          }
        }
      });
      return ctx.elapsed_seconds();
    };
    const double clean = storm(rpc::InvokeOptions{});
    const double armed = storm(policy);  // policy on, fabric still clean
    auto plan = std::make_shared<fabric::FaultPlan>(7);
    fabric::FaultProbabilities p;
    p.drop = 0.02;
    p.delay = 0.05;
    p.delay_ns = 30 * sim::kMicrosecond;
    p.unavailable = 0.03;
    plan->set(fabric::OpClass::kRpc, p);
    ctx.set_fault_plan(plan);
    const double lossy = storm(policy);
    const auto retries =
        ctx.fabric().nic(1).counters().rpc_retries.load(std::memory_order_relaxed);
    ctx.set_fault_plan(nullptr);
    std::printf("A5 fault injection/retry  : clean %.3f ms, policy-armed %.3f ms (%.2fx), "
                "lossy fabric %.3f ms (%.2fx, %" PRId64 " faults -> %" PRId64 " retries)\n",
                clean * 1e3, armed * 1e3, armed / clean, lossy * 1e3,
                lossy / clean, plan->counters().total(), retries);
  }

  // --- A6: op coalescing (batched vs unbatched remote inserts) -------------
  {
    Context ctx({.num_nodes = 2, .procs_per_node = clients});
    unordered_map<std::uint64_t, std::uint64_t> m(ctx, [] {
      core::ContainerOptions o;
      o.num_partitions = 1;
      o.first_node = 1;  // every client insert is remote
      o.batch.max_ops = 32;
      o.batch.max_delay_ns = 0;
      return o;
    }());
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      std::vector<std::uint64_t> keys, values;
      for (std::int64_t i = 0; i < ops; ++i) {
        keys.push_back(static_cast<std::uint64_t>(self.rank()) * ops + i);
        values.push_back(1);
      }
      (void)m.insert_batch(keys, values);
    });
    const double batched = ctx.elapsed_seconds();
    const auto bundles =
        ctx.fabric().nic(1).counters().rpc_batches.load(std::memory_order_relaxed);
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      if (self.node() != 0) return;
      for (std::int64_t i = 0; i < ops; ++i) {
        m.insert(static_cast<std::uint64_t>(self.rank() + 1000) * ops + i, 1);
      }
    });
    const double scalar = ctx.elapsed_seconds();
    std::printf("A6 op coalescing (E=%zu)  : batched %.3f ms (%" PRId64 " bundles) vs "
                "unbatched %.3f ms -> %.1fx\n",
                std::size_t{32}, batched * 1e3, bundles, scalar * 1e3,
                scalar / batched);
    const double total_ops = static_cast<double>(ops) * clients;
    write_json(
        "BENCH_A6.json",
        jsonf("{\"ablation\": \"A6\", \"batched_ms\": %.3f, "
              "\"unbatched_ms\": %.3f, \"speedup\": %.2f, "
              "\"bundles\": %" PRId64 ", \"batched_ops_per_sec\": %.0f, "
              "\"unbatched_ops_per_sec\": %.0f}",
              batched * 1e3, scalar * 1e3, scalar / batched, bundles,
              total_ops / batched, total_ops / scalar));
  }

  // --- A7: client-side read cache (DESIGN.md §5d) ---------------------------
  {
    // Small warm keyspace, long read stream: the steady state is what the
    // cache accelerates; cold-miss fill is a one-time cost the stream
    // amortizes (YCSB-C runs orders of magnitude more ops than keys).
    constexpr std::uint64_t kKeys = 1024;
    const std::int64_t cache_ops = 2 * ops;
    auto make_opts = [&](bool cached) {
      core::ContainerOptions o;
      o.num_partitions = 1;
      o.first_node = 1;  // every client op is remote — the cacheable path
      if (cached) {
        o.cache.mode = cache::CacheMode::kInvalidate;
        o.cache.ttl_ns = 10 * sim::kMillisecond;
        o.cache.capacity = kKeys;
      } else {
        o.cache.mode = cache::CacheMode::kOff;
      }
      return o;
    };
    auto populate = [&](Context& ctx, auto& m) {
      ctx.run_one(0, [&](sim::Actor&) {
        for (std::uint64_t k = 0; k < kKeys; ++k) (void)m.upsert(k, k);
      });
    };
    // Read-heavy: Zipfian (theta=0.99, YCSB-C-style) reads of a warm
    // keyspace. Hot keys repeat, so a lease-valid entry answers most reads.
    auto zipf_reads = [&](Context& ctx, auto& m) {
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        if (self.node() != 0) return;
        Rng rng(static_cast<std::uint64_t>(self.rank()) + 1);
        ZipfGen zipf(kKeys, 0.99, rng);
        std::uint64_t v = 0;
        for (std::int64_t i = 0; i < cache_ops; ++i) {
          (void)m.find(zipf.next_scrambled(), &v);
        }
      });
      return ctx.elapsed_seconds();
    };
    // Write-heavy control: uniform 50/50 upsert/find. Every write bumps the
    // partition epoch, so cached entries go stale about as fast as they are
    // filled — the cache must cost (nearly) nothing here, not help.
    auto uniform_rw = [&](Context& ctx, auto& m) {
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        if (self.node() != 0) return;
        Rng rng(static_cast<std::uint64_t>(self.rank()) + 101);
        std::uint64_t v = 0;
        for (std::int64_t i = 0; i < cache_ops; ++i) {
          const auto k = rng.next_below(kKeys);
          if (i % 2 == 0) {
            (void)m.upsert(k, k + 1);
          } else {
            (void)m.find(k, &v);
          }
        }
      });
      return ctx.elapsed_seconds();
    };

    double zipf_off = 0, zipf_on = 0, rw_off = 0, rw_on = 0;
    cache::CacheStats zipf_stats{}, rw_stats{};
    for (const bool cached : {false, true}) {
      Context ctx({.num_nodes = 2, .procs_per_node = clients});
      unordered_map<std::uint64_t, std::uint64_t> m(ctx, make_opts(cached));
      populate(ctx, m);
      const double secs = zipf_reads(ctx, m);
      (cached ? zipf_on : zipf_off) = secs;
      if (cached) zipf_stats = m.cache_stats();
    }
    for (const bool cached : {false, true}) {
      Context ctx({.num_nodes = 2, .procs_per_node = clients});
      unordered_map<std::uint64_t, std::uint64_t> m(ctx, make_opts(cached));
      populate(ctx, m);
      const double secs = uniform_rw(ctx, m);
      (cached ? rw_on : rw_off) = secs;
      if (cached) rw_stats = m.cache_stats();
    }
    const auto hit_rate = [](const cache::CacheStats& s) {
      const auto consults = s.hits + s.misses;
      return consults > 0 ? 100.0 * static_cast<double>(s.hits) /
                                static_cast<double>(consults)
                          : 0.0;
    };
    std::printf("A7 read cache (zipf .99)  : cached %.3f ms vs uncached %.3f ms -> %.1fx "
                "(hit rate %.1f%%, %" PRId64 " hits / %" PRId64 " misses / %" PRId64
                " stale)\n",
                zipf_on * 1e3, zipf_off * 1e3, zipf_off / zipf_on,
                hit_rate(zipf_stats), zipf_stats.hits, zipf_stats.misses,
                zipf_stats.stale_reads);
    std::printf("A7 control (uniform 50%%w) : cached %.3f ms vs uncached %.3f ms -> %.2fx "
                "(hit rate %.1f%%, %" PRId64 " invalidations)\n",
                rw_on * 1e3, rw_off * 1e3, rw_off / rw_on, hit_rate(rw_stats),
                rw_stats.invalidations);
    const double total_ops = static_cast<double>(cache_ops) * clients;
    write_json(
        "BENCH_A7.json",
        jsonf("{\"ablation\": \"A7\", \"zipf_cached_ms\": %.3f, "
              "\"zipf_uncached_ms\": %.3f, \"zipf_speedup\": %.2f, "
              "\"zipf_hit_rate_pct\": %.1f, \"zipf_ops_per_sec\": %.0f, "
              "\"stale_reads\": %" PRId64 ", \"control_cached_ms\": %.3f, "
              "\"control_uncached_ms\": %.3f, \"control_speedup\": %.2f, "
              "\"invalidations\": %" PRId64 "}",
              zipf_on * 1e3, zipf_off * 1e3, zipf_off / zipf_on,
              hit_rate(zipf_stats), total_ops / zipf_on,
              zipf_stats.stale_reads, rw_on * 1e3, rw_off * 1e3, rw_off / rw_on,
              rw_stats.invalidations));
  }

  // --- A8: availability under a server kill (DESIGN.md §5f) -----------------
  {
    // Three phases of the same mixed workload against a partition hosted on
    // node 1: pre-kill (healthy), outage (node 1 down), post-rejoin (healed).
    // Clients live on node 0; the standby replica partition lives on node 2.
    constexpr std::uint64_t kKeys = 256;
    struct A8Result {
      double pre_ms = 0, down_ms = 0, post_ms = 0;
      std::int64_t failed = 0, failovers = 0, repairs = 0;
    };
    auto run_variant = [&](int replication, bool cached) {
      A8Result r;
      auto plan = std::make_shared<fabric::FaultPlan>(23);
      Context ctx({.num_nodes = 3, .procs_per_node = clients});
      ctx.set_fault_plan(plan);
      unordered_map<std::uint64_t, std::uint64_t> m(ctx, [&] {
        core::ContainerOptions o;
        o.num_partitions = 3;  // partition p lives on node p
        o.replication = replication;
        if (cached) {
          o.cache.mode = cache::CacheMode::kInvalidate;
          o.cache.ttl_ns = 10 * sim::kMillisecond;
          o.cache.capacity = kKeys;
        }
        return o;
      }());
      // Every client op targets keys of partition 1 — the one we will kill.
      std::vector<std::uint64_t> keys;
      for (std::uint64_t k = 0; keys.size() < kKeys; ++k) {
        if (m.partition_of(k) == 1) keys.push_back(k);
      }
      ctx.run_one(0, [&](sim::Actor&) {
        for (const auto k : keys) (void)m.upsert(k, k);
      });
      std::atomic<std::int64_t> failed{0};
      auto phase = [&](std::int64_t n) {
        ctx.reset_measurement();
        ctx.run([&](sim::Actor& self) {
          if (self.node() != 0) return;
          Rng rng(static_cast<std::uint64_t>(self.rank()) + 7);
          std::uint64_t v = 0;
          for (std::int64_t i = 0; i < n; ++i) {
            const auto k = keys[rng.next_below(kKeys)];
            try {
              if (i % 2 == 0) {
                (void)m.upsert(k, k + 1);
              } else {
                (void)m.find(k, &v);
              }
            } catch (const HclError&) {
              failed.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
        return ctx.elapsed_seconds() * 1e3;
      };
      r.pre_ms = phase(ops);
      plan->fail_node(1);
      r.down_ms = phase(ops / 2);
      // reset_measurement() zeroes NIC counters, so snapshot the outage's
      // failovers (standby = partition 2's node) and the heal's repaired
      // record count (primary = node 1) before the recovery phase runs.
      r.failovers = ctx.fabric().nic(2).counters().failovers.load(
          std::memory_order_relaxed);
      plan->rejoin_node(1);
      ctx.run_one(0, [&](sim::Actor& self) { m.heal(self); });
      r.repairs = ctx.fabric().nic(1).counters().repair_ops.load(
          std::memory_order_relaxed);
      r.post_ms = phase(ops / 2);
      r.failed = failed.load(std::memory_order_relaxed);
      return r;
    };
    const A8Result off = run_variant(1, false);
    const A8Result on = run_variant(1, true);
    const A8Result bare = run_variant(0, false);
    // Per-op cost (the outage/recovery phases run half as many ops).
    const auto per_op = [&](double ms, std::int64_t n) {
      return ms * 1e3 / static_cast<double>(n * clients);
    };
    auto print_line = [&](const char* tag, const A8Result& r) {
      std::printf("A8 %-23s: pre %.3f us/op, outage %.3f us/op (%.2fx), "
                  "recovered %.3f us/op, %" PRId64 " failed ops, %" PRId64
                  " failovers, %" PRId64 " repaired\n",
                  tag, per_op(r.pre_ms, ops), per_op(r.down_ms, ops / 2),
                  per_op(r.down_ms, ops / 2) / per_op(r.pre_ms, ops),
                  per_op(r.post_ms, ops / 2), r.failed, r.failovers, r.repairs);
    };
    print_line("kill/rejoin (repl=1)", off);
    print_line("kill/rejoin (+cache)", on);
    print_line("kill, no replication", bare);
    auto variant_json = [&](const char* tag, const A8Result& r) {
      return jsonf("\"%s\": {\"pre_us_per_op\": %.2f, "
                   "\"outage_us_per_op\": %.2f, \"post_us_per_op\": %.2f, "
                   "\"failed_ops\": %" PRId64 ", \"failovers\": %" PRId64
                   ", \"repaired\": %" PRId64 "}",
                   tag, per_op(r.pre_ms, ops), per_op(r.down_ms, ops / 2),
                   per_op(r.post_ms, ops / 2), r.failed, r.failovers,
                   r.repairs);
    };
    write_json("BENCH_A8.json",
               "{\"ablation\": \"A8\", " + variant_json("repl1", off) + ", " +
                   variant_json("repl1_cached", on) + ", " +
                   variant_json("repl0", bare) + "}");
  }

  // --- A9: heat-driven shard split under Zipfian skew (DESIGN.md §5g) ------
  {
    // Clients on node 0; 3 partitions hosted on nodes 1-3. Every op is a
    // Zipfian (theta=0.99) 16 KB upsert of a partition-0 key, so static
    // placement funnels the whole stream through node 1's single ingress
    // DMA lane — the serializing resource at 40GbE (DESIGN.md §2). A
    // mid-run split() peels the hot slots off to the coldest partition,
    // splitting the stream across two hosts. The same deterministic stream
    // runs cache-off and cache-on: the migration window must lose zero ops
    // and both variants must converge byte-for-byte.
    constexpr std::uint64_t kKeys = 256;
    constexpr std::uint64_t kValueBytes = 16 * 1024;
    // The hot host only saturates when client demand exceeds its ingress
    // capacity (~wire_time(16KB) per op); the scaled-down default client
    // count sits right at the knee, so give A9 a floor.
    const int a9_clients = std::max(clients, 24);
    struct A9Run {
      double pre_ms = 0, post_ms = 0;
      std::int64_t failed = 0;
      std::size_t moved_keys = 0;
      std::vector<std::uint64_t> state;
    };
    auto run_variant = [&](bool cached) {
      A9Run r;
      Context ctx({.num_nodes = 4, .procs_per_node = a9_clients});
      unordered_map<std::uint64_t, Blob> m(ctx, [&] {
        core::ContainerOptions o;
        o.num_partitions = 3;
        o.first_node = 1;  // node 0 hosts only clients
        o.rebalance.enabled = true;
        o.rebalance.slots_per_partition = 8;
        if (cached) {
          o.cache.mode = cache::CacheMode::kInvalidate;
          o.cache.ttl_ns = 10 * sim::kMillisecond;
          o.cache.capacity = kKeys;
        }
        return o;
      }());
      std::vector<std::uint64_t> keys;
      for (std::uint64_t k = 0; keys.size() < kKeys; ++k) {
        if (m.partition_of(k) == 0) keys.push_back(k);
      }
      // Upsert payloads depend only on the key and phase, so the final
      // state is deterministic regardless of rank interleaving.
      auto blob_of = [&](std::uint64_t k, std::uint64_t salt) {
        return Blob{kValueBytes + (k & 7) + salt};
      };
      ctx.run_one(0, [&](sim::Actor&) {
        for (const auto k : keys) (void)m.upsert(k, blob_of(k, 0));
      });
      std::atomic<std::int64_t> failed{0};
      auto phase = [&](std::uint64_t salt) {
        ctx.reset_measurement();
        ctx.run([&](sim::Actor& self) {
          if (self.node() != 0) return;
          Rng rng(static_cast<std::uint64_t>(self.rank()) * 977 + salt);
          ZipfGen zipf(kKeys, 0.99, rng);
          for (std::int64_t i = 0; i < ops; ++i) {
            const auto k = keys[zipf.next_scrambled()];
            try {
              (void)m.upsert(k, blob_of(k, salt));
            } catch (const HclError&) {
              failed.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
        return ctx.elapsed_seconds() * 1e3;
      };
      r.pre_ms = phase(1);
      ctx.run_one(0, [&](sim::Actor&) { r.moved_keys = m.split(0); });
      r.post_ms = phase(2);
      r.failed = failed.load(std::memory_order_relaxed);
      ctx.run_one(0, [&](sim::Actor&) {
        for (const auto k : keys) {
          Blob v;
          (void)m.find(k, &v);
          r.state.push_back(v.nominal);
        }
      });
      return r;
    };
    const A9Run plain = run_variant(false);
    const A9Run cached = run_variant(true);
    const bool converged = plain.state == cached.state;
    const double speedup = plain.pre_ms / plain.post_ms;
    const double total_ops = static_cast<double>(ops) * a9_clients;
    std::printf("A9 heat-driven split      : static %.3f ms vs post-split %.3f ms -> %.2fx "
                "(%zu keys migrated, %" PRId64 " failed ops, cache twin %s)\n",
                plain.pre_ms, plain.post_ms, speedup, plain.moved_keys,
                plain.failed + cached.failed,
                converged ? "converged" : "DIVERGED");
    write_json(
        "BENCH_A9.json",
        jsonf("{\"ablation\": \"A9\", \"pre_split_ms\": %.3f, "
              "\"post_split_ms\": %.3f, \"speedup\": %.2f, "
              "\"pre_ops_per_sec\": %.0f, \"post_ops_per_sec\": %.0f, "
              "\"moved_keys\": %zu, \"failed_ops\": %" PRId64 ", "
              "\"cached_speedup\": %.2f, \"cache_converged\": %s}",
              plain.pre_ms, plain.post_ms, speedup,
              total_ops / (plain.pre_ms / 1e3),
              total_ops / (plain.post_ms / 1e3), plain.moved_keys,
              plain.failed + cached.failed,
              cached.pre_ms / cached.post_ms, converged ? "true" : "false"));
  }

  // --- A10: cross-container transactions (DESIGN.md §5h) ------------------
  // Queue→map hand-off under concurrency, two ways: the epoch-validated txn
  // transfer (atomic: the popped item can never be lost or duplicated) vs
  // the lock-free-retry baseline (plain pop then plain insert — two
  // independent linearization points, the idiom transactions replace). The
  // txn variant must conserve every item (atomicity_violations == 0), and
  // its coordinator counters must reconcile exactly against the per-NIC
  // txn_* counters and the kTxn span counts on the tracing plane.
  {
    constexpr int kA10Nodes = 2;
    constexpr int kA10Procs = 4;
    const std::int64_t per_rank = std::max<std::int64_t>(8, ops / 16);
    const std::int64_t items = per_rank * kA10Nodes * kA10Procs;

    Context::Config cfg;
    cfg.num_nodes = kA10Nodes;
    cfg.procs_per_node = kA10Procs;
    cfg.trace.enabled = true;  // exact kTxn span counts for reconciliation
    cfg.trace.path.clear();
    Context ctx(cfg);
    auto val_of = [](std::uint64_t item) { return item * 3 + 1; };

    // Baseline: pop and insert as two plain ops. Fast, but nothing ties the
    // two together — a failure between them strands the item.
    queue<std::uint64_t> base_q(ctx);
    unordered_map<std::uint64_t, std::uint64_t> base_m(
        ctx, {.num_partitions = kA10Nodes});
    ctx.run_one(0, [&](sim::Actor&) {
      for (std::int64_t i = 0; i < items; ++i) {
        (void)base_q.push(static_cast<std::uint64_t>(i));
      }
    });
    ctx.reset_measurement();
    ctx.run([&](sim::Actor&) {
      std::uint64_t item = 0;
      while (base_q.pop(&item)) (void)base_m.insert(item, val_of(item));
    });
    const double baseline_ms = ctx.elapsed_seconds() * 1e3;
    const auto baseline_moved = static_cast<std::int64_t>(base_m.size());

    // Transactional: one transfer per item, every pop+put pair atomic. The
    // single queue intent slot makes rival coordinators abort-and-retry, so
    // the retry counter sees real contention.
    queue<std::uint64_t> txn_q(ctx);
    unordered_map<std::uint64_t, std::uint64_t> txn_m(
        ctx, {.num_partitions = kA10Nodes});
    txn::TxnCoordinator coord(ctx);
    ctx.run_one(0, [&](sim::Actor&) {
      for (std::int64_t i = 0; i < items; ++i) {
        (void)txn_q.push(static_cast<std::uint64_t>(i));
      }
    });
    ctx.reset_measurement();
    ctx.run([&](sim::Actor& self) {
      for (;;) {
        bool moved = false;
        const Status st = coord.transfer(
            self, txn_q, txn_m,
            [&](std::uint64_t item) {
              return std::pair<std::uint64_t, std::uint64_t>(item,
                                                             val_of(item));
            },
            &moved);
        if (st.ok() && !moved) break;  // committed no-op: queue drained
      }
    });
    const double txn_ms = ctx.elapsed_seconds() * 1e3;
    const auto txn_moved = static_cast<std::int64_t>(txn_m.size());

    // Atomicity: every item is in exactly one place, none lost, none doubled.
    std::int64_t violations = std::llabs(txn_moved - items);
    ctx.run_one(0, [&](sim::Actor&) {
      if (!txn_q.empty()) ++violations;
      for (std::int64_t i = 0; i < items; ++i) {
        std::uint64_t v = 0;
        if (!txn_m.find(static_cast<std::uint64_t>(i), &v) ||
            v != val_of(static_cast<std::uint64_t>(i))) {
          ++violations;
        }
      }
    });

    // Observability reconciliation: coordinator totals == per-NIC counter
    // sums == kTxn span counts (txn.h records exactly one span and one
    // commit-or-abort count per attempt).
    std::int64_t nic_commits = 0, nic_aborts = 0, txn_spans = 0;
    for (int n = 0; n < kA10Nodes; ++n) {
      nic_commits += ctx.fabric().nic(n).counters().txn_commits.load();
      nic_aborts += ctx.fabric().nic(n).counters().txn_aborts.load();
      txn_spans += ctx.tracer().span_count(n, obs::SpanKind::kTxn);
    }
    const bool counters_reconcile =
        nic_commits == coord.commits() && nic_aborts == coord.aborts() &&
        txn_spans == coord.commits() + coord.aborts();

    const double overhead = txn_ms / baseline_ms;
    std::printf(
        "A10 txn transfer          : baseline %.3f ms vs txn %.3f ms -> %.2fx "
        "overhead (%" PRId64 " items, %" PRId64 " violations, %lld commits, "
        "%lld aborts, %lld retries, counters %s)\n",
        baseline_ms, txn_ms, overhead, items, violations,
        static_cast<long long>(coord.commits()),
        static_cast<long long>(coord.aborts()),
        static_cast<long long>(coord.retries()),
        counters_reconcile ? "reconcile" : "DIVERGED");
    write_json(
        "BENCH_A10.json",
        jsonf("{\"ablation\": \"A10\", \"baseline_ms\": %.3f, "
              "\"txn_ms\": %.3f, \"txn_overhead\": %.2f, "
              "\"items\": %" PRId64 ", \"baseline_moved\": %" PRId64 ", "
              "\"txn_moved\": %" PRId64 ", "
              "\"atomicity_violations\": %" PRId64 ", "
              "\"commits\": %lld, \"aborts\": %lld, \"retries\": %lld, "
              "\"txn_spans\": %lld, \"counters_reconcile\": %s}",
              baseline_ms, txn_ms, overhead, items, baseline_moved, txn_moved,
              violations, static_cast<long long>(coord.commits()),
              static_cast<long long>(coord.aborts()),
              static_cast<long long>(coord.retries()),
              static_cast<long long>(txn_spans),
              counters_reconcile ? "true" : "false"));
  }

  // --- A11: shared-memory transport tier (DESIGN.md §5i) ------------------
  // Per-op FLOOR comparison on engine-level echo handlers (no container
  // handler base, which would drown the transport delta): clients on node 0,
  // server on node 1, pod_nodes=2 — pod-local but NOT same-node, so neither
  // the hybrid bypass nor the RPC loopback fires and the two runs differ
  // only in fabric tier. Few clients keep the single consumer lane (ring)
  // and the NIC cores (wire) out of saturation, so the elapsed/ops quotient
  // is each tier's unloaded per-op latency.
  {
    constexpr int kA11Procs = 4;
    const std::int64_t a11_ops = ops;
    std::int64_t failed[2] = {0, 0}, sends[2] = {0, 0}, fallbacks[2] = {0, 0};
    const auto run_tier = [&](bool shm_on, int slot) {
      Context::Config cfg;
      cfg.num_nodes = 2;
      cfg.procs_per_node = kA11Procs;
      cfg.shm.enabled = shm_on;
      cfg.shm.pod_nodes = 2;
      Context ctx(cfg);
      auto& engine = ctx.rpc();
      const auto echo = engine.bind<std::uint64_t, std::uint64_t>(
          [](rpc::ServerCtx&, const std::uint64_t& v) { return v; });
      std::atomic<std::int64_t> errors{0};
      ctx.reset_measurement();
      ctx.run([&](sim::Actor& self) {
        if (self.node() != 0) return;
        for (std::int64_t i = 0; i < a11_ops; ++i) {
          try {
            (void)engine.invoke<std::uint64_t>(self, 1, echo,
                                               static_cast<std::uint64_t>(i));
          } catch (const HclError&) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
      const auto& c = ctx.fabric().nic(1).counters();
      failed[slot] = errors.load();
      sends[slot] = c.shm_sends.load(std::memory_order_relaxed);
      fallbacks[slot] =
          c.shm_ring_full_fallbacks.load(std::memory_order_relaxed);
      // Every rank runs the same closed loop, so makespan / ops is one
      // client's sequential per-op latency.
      return ctx.elapsed_seconds() / static_cast<double>(a11_ops) * 1e6;
    };
    const double shm_us = run_tier(true, 0);
    const double rdma_us = run_tier(false, 1);
    const double ratio = rdma_us / shm_us;
    std::printf(
        "A11 shm transport tier    : ring %.3f us/op vs RDMA %.3f us/op -> "
        "%.1fx floor (%" PRId64 " shm sends, %" PRId64 " ring-full fallbacks, "
        "%" PRId64 " failed)\n",
        shm_us, rdma_us, ratio, sends[0], fallbacks[0],
        failed[0] + failed[1]);
    write_json(
        "BENCH_A11.json",
        jsonf("{\"ablation\": \"A11\", \"shm_us_per_op\": %.2f, "
              "\"rdma_us_per_op\": %.2f, \"floor_ratio\": %.2f, "
              "\"failed_ops\": %" PRId64 ", \"shm_sends\": %" PRId64 ", "
              "\"ring_full_fallbacks\": %" PRId64 "}",
              shm_us, rdma_us, ratio, failed[0] + failed[1], sends[0],
              fallbacks[0]));
  }

  std::printf("\nEach mechanism is a net win, as the paper claims (§III.C).\n");
  print_footer();
  return 0;
}
