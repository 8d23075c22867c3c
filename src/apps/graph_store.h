// MetallGraph-style distributed graph store (Fig. 9), HCL and BCL variants.
//
// A property graph as two sharded containers — vertex properties in one
// distributed unordered_map, adjacency lists in another — plus per-node
// edge-ingest queues, in the shape of MetallData's MetallGraph (vertex and
// edge tables as independent partitioned stores).
//
//   * HCL variant: vertices land through the transactional `multi_put`
//     shape (bulk atomic upserts). Edges stream into per-node hcl::queue
//     lanes and drainer ranks on each node move them in small batches, one
//     cross-container transaction per batch — txn_pop the edges,
//     read-modify-write BOTH endpoints' adjacency lists, commit — so an
//     edge is never half-inserted, no matter how pops, shard moves, or
//     rival appends interleave (the `transfer` txn shape generalized to
//     two puts per edge).
//     Degree and k-hop BFS queries read adjacency through `find_batch`
//     frontier by frontier.
//   * BCL variant: the same graph over bcl::HashMap. Each endpoint append
//     is an independent client-side rmw (probe, CAS-lock, read the whole
//     list, append, write it back, unlock) with NO atomicity between the
//     two endpoints; traversal is per-vertex scalar finds.
//
// Generation is deterministic per config: both variants build the same
// adjacency multiset, and the BFS/degree checksums are order-independent,
// so results must agree exactly.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bcl/bcl.h"
#include "common/rng.h"
#include "core/hcl.h"
#include "txn/txn.h"

namespace hcl::apps {

/// Adjacency list: neighbor vertex ids (append order nondeterministic
/// across concurrent committers; the multiset is deterministic).
using AdjList = std::vector<std::uint64_t>;

/// An undirected edge packed as (min << 32) | max; vertex ids < 2^32.
using EdgeId = std::uint64_t;

inline EdgeId pack_edge(std::uint64_t u, std::uint64_t v) {
  if (u > v) std::swap(u, v);
  return (u << 32) | v;
}
inline std::uint64_t edge_u(EdgeId e) { return e >> 32; }
inline std::uint64_t edge_v(EdgeId e) { return e & 0xffffffffULL; }

struct GraphConfig {
  std::uint64_t vertices = 2048;
  /// Average undirected degree; edges ≈ vertices * avg_degree / 2.
  double avg_degree = 6.0;
  std::uint64_t seed = 13;
  /// Max vertex upserts per multi_put transaction. Upserts are grouped by
  /// home partition before batching, so each txn has one participant and
  /// locks only its own keys' stripes: rival ranks' batches (disjoint id
  /// blocks) conflict only where two keys share a stripe.
  std::size_t vertex_batch = 32;
  /// Edges bundled per queue push (the ingest lanes take bulk pushes).
  std::size_t edge_push_chunk = 16;
  /// Ranks per node draining that node's edge lane transactionally. The
  /// txn layer locks and validates per key, so drainers conflict only on
  /// shared endpoints: at 64x40, 16 drainers per node cut the build from
  /// 0.46 s to 0.048 s (below BCL's 0.053 s) at 0.15 aborts/commit, and
  /// 4 per node to 0.13 s. The default of 1 keeps the committed records
  /// comparable across changes.
  int drainers_per_node = 1;
  /// Edges moved per drain transaction (pop + endpoint RMWs, one commit).
  /// Each extra edge adds up to two endpoint keys to the txn's lock and
  /// validation set: at 64x40, batches of 2 and 4 build 1.2-1.3x faster
  /// than 1 (0.38 / 0.35 s vs 0.46 s) at 0.08 / 0.13 aborts/commit; with
  /// many drainers per node batches past 2 raise aborts faster than they
  /// save rounds (16x4, 4 drainers: 0.019 s at 1 or 2, 0.028 s at 4).
  std::size_t edges_per_txn = 1;
  /// BFS sources (assigned round-robin to ranks) and traversal depth.
  int bfs_sources = 8;
  int khop = 2;
  /// Degree probes per rank in the query phase.
  std::size_t degree_samples = 32;
  /// BCL static table slack over vertex count.
  double bcl_table_slack = 2.0;
};

struct GraphResult {
  double build_seconds = 0;  // simulated: vertices + edge ingest + drain
  double query_seconds = 0;  // simulated: degree probes + k-hop BFS
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t transferred = 0;     // edges moved queue -> adjacency (HCL)
  std::uint64_t bfs_reached = 0;     // vertices reached across all sources
  std::uint64_t bfs_checksum = 0;    // order-independent traversal digest
  std::uint64_t degree_checksum = 0; // order-independent degree digest
  std::int64_t txn_commits = 0;
  std::int64_t txn_aborts = 0;
  std::int64_t failed_ops = 0;
};

namespace detail {

/// Deterministic unique undirected edge list (no self-loops), sorted by
/// packed id so every rank agrees on edge -> index without communication.
inline std::vector<EdgeId> graph_edges(const GraphConfig& config) {
  Rng rng(config.seed ^ 0xa24baed4963ee407ULL);
  const auto target = static_cast<std::size_t>(
      static_cast<double>(config.vertices) * config.avg_degree / 2.0);
  std::set<EdgeId> edges;
  std::size_t attempts = 0;
  while (edges.size() < target && attempts < target * 8 + 64) {
    ++attempts;
    const std::uint64_t u = rng.next_below(config.vertices);
    const std::uint64_t v = rng.next_below(config.vertices);
    if (u != v) edges.insert(pack_edge(u, v));
  }
  return {edges.begin(), edges.end()};
}

/// Deterministic vertex property (a synthetic label).
inline std::uint64_t vertex_prop(const GraphConfig& config, std::uint64_t v) {
  return mix64(v ^ config.seed);
}

/// BFS sources, round-robin assigned to ranks by index.
inline std::vector<std::uint64_t> bfs_sources(const GraphConfig& config) {
  std::vector<std::uint64_t> sources;
  sources.reserve(static_cast<std::size_t>(config.bfs_sources));
  for (int i = 0; i < config.bfs_sources; ++i) {
    sources.push_back(mix64(config.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1))) %
                      config.vertices);
  }
  return sources;
}

/// Order-independent digest of one source's reached set.
inline std::uint64_t bfs_digest(std::uint64_t source,
                                const std::unordered_set<std::uint64_t>& seen) {
  std::uint64_t h = mix64(source + 1);
  for (std::uint64_t v : seen) h += mix64(v ^ mix64(source ^ 0xd6e8feb86659fd93ULL));
  return h;
}

/// Sequential reference: k-hop BFS over an in-memory adjacency, the oracle
/// the distributed traversals (and tests) compare against.
inline std::unordered_set<std::uint64_t> khop_reference(
    const std::vector<EdgeId>& edges, std::uint64_t source, int khop) {
  std::unordered_map<std::uint64_t, AdjList> adj;
  for (EdgeId e : edges) {
    adj[edge_u(e)].push_back(edge_v(e));
    adj[edge_v(e)].push_back(edge_u(e));
  }
  std::unordered_set<std::uint64_t> seen{source};
  std::vector<std::uint64_t> frontier{source};
  for (int hop = 0; hop < khop && !frontier.empty(); ++hop) {
    std::vector<std::uint64_t> next;
    for (std::uint64_t v : frontier) {
      auto it = adj.find(v);
      if (it == adj.end()) continue;
      for (std::uint64_t n : it->second) {
        if (seen.insert(n).second) next.push_back(n);
      }
    }
    frontier = std::move(next);
  }
  seen.erase(source);
  return seen;
}

}  // namespace detail

/// HCL variant. `options` composes the subsystems under test for BOTH
/// container stores (cache, batching, rebalance arming).
inline GraphResult run_graph_hcl(Context& ctx, const GraphConfig& config,
                                 core::ContainerOptions options = {}) {
  const int nodes = ctx.topology().num_nodes();
  const int ranks = ctx.topology().num_ranks();

  unordered_map<std::uint64_t, std::uint64_t> props(ctx, options);
  unordered_map<std::uint64_t, AdjList> adj(ctx, options);
  txn::TxnCoordinator coord(ctx);

  // Edge-ingest lanes: drainers_per_node lanes per node, each with exactly
  // ONE consumer rank. A single-consumer lane never sees rival pops, so the
  // queue's epoch validation only fires on real conflicts (two drainers
  // committing rival appends to a shared endpoint) — rival drainers on one
  // queue would otherwise serialize the whole drain through abort storms.
  const int drainers =
      std::max(1, std::min(config.drainers_per_node,
                           ctx.topology().procs_per_node()));
  const int num_lanes = nodes * drainers;
  std::vector<std::unique_ptr<queue<EdgeId>>> lanes;
  lanes.reserve(static_cast<std::size_t>(num_lanes));
  for (int lane = 0; lane < num_lanes; ++lane) {
    core::ContainerOptions lane_options;
    lane_options.first_node = lane / drainers;  // lane lives with its drainer
    lanes.push_back(std::make_unique<queue<EdgeId>>(ctx, lane_options));
  }

  const auto edges = detail::graph_edges(config);
  GraphResult result;
  std::atomic<std::uint64_t> transferred{0};
  std::atomic<std::int64_t> failed{0};

  ctx.reset_measurement();
  ctx.run_phases({
      // Vertices: contiguous id blocks per rank, upserted through the
      // atomic multi_put shape in vertex_batch chunks.
      [&](sim::Actor& self) {
        const std::uint64_t per =
            (config.vertices + static_cast<std::uint64_t>(ranks) - 1) /
            static_cast<std::uint64_t>(ranks);
        const std::uint64_t lo = per * static_cast<std::uint64_t>(self.rank());
        const std::uint64_t hi = std::min(config.vertices, lo + per);
        // Group by home partition before batching: each batch is then one
        // participant, one prepare and one commit op, where 32
        // hash-scattered keys would spread one txn over ~32 partitions.
        // (When validation was partition-wide, such footprints livelocked
        // each other past any retry budget at 2560 ranks.)
        std::map<int, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
            groups;
        for (std::uint64_t v = lo; v < hi; ++v)
          groups[props.partition_of(v)].emplace_back(
              v, detail::vertex_prop(config, v));
        const std::size_t batch = std::max<std::size_t>(config.vertex_batch, 1);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
        for (auto& [partition, group] : groups) {
          (void)partition;
          for (std::size_t at = 0; at < group.size(); at += batch) {
            pairs.assign(group.begin() + static_cast<std::ptrdiff_t>(at),
                         group.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(at + batch, group.size())));
            // A failed multi_put committed nothing, so re-running it is
            // idempotent; only a persistently stuck batch counts as failed.
            Status st = Status::Ok();
            for (int attempt = 0; attempt < 64; ++attempt) {
              st = coord.multi_put(self, props, pairs);
              if (st.ok()) break;
            }
            if (!st.ok()) failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      // Edge ingest: each rank buckets its round-robin share by content
      // hash and bulk-pushes each bucket into its lane.
      [&](sim::Actor& self) {
        std::vector<std::vector<EdgeId>> chunks(
            static_cast<std::size_t>(num_lanes));
        for (std::size_t i = static_cast<std::size_t>(self.rank());
             i < edges.size(); i += static_cast<std::size_t>(ranks)) {
          chunks[static_cast<std::size_t>(mix64(edges[i]) %
                                          static_cast<std::uint64_t>(num_lanes))]
              .push_back(edges[i]);
        }
        const std::size_t chunk =
            config.edge_push_chunk > 0 ? config.edge_push_chunk : 1;
        for (int lane = 0; lane < num_lanes; ++lane) {
          auto& block = chunks[static_cast<std::size_t>(lane)];
          for (std::size_t off = 0; off < block.size(); off += chunk) {
            const std::size_t len = std::min(chunk, block.size() - off);
            lanes[static_cast<std::size_t>(lane)]->push(std::vector<EdgeId>(
                block.begin() + static_cast<std::ptrdiff_t>(off),
                block.begin() + static_cast<std::ptrdiff_t>(off + len)));
          }
        }
      },
      // Drain: each drainer rank owns one lane and moves its edges in
      // batches, one atomic cross-container transaction per batch — pops
      // plus both endpoints' adjacency RMWs.
      [&](sim::Actor& self) {
        const int local = ctx.topology().local_index(self.rank());
        if (local >= drainers) return;
        auto& lane =
            *lanes[static_cast<std::size_t>(self.node() * drainers + local)];
        const std::size_t batch = std::max<std::size_t>(config.edges_per_txn, 1);
        std::size_t stuck = 0;
        const std::size_t stuck_limit = edges.size() * 4 + 64;
        for (;;) {
          std::size_t got = 0;
          const Status st = coord.run(self, [&](txn::Txn& t) {
            got = 0;
            // Stage endpoint lists client-side so an endpoint shared by two
            // popped edges is read once and written once per transaction.
            std::map<std::uint64_t, AdjList> staged;
            for (std::size_t b = 0; b < batch; ++b) {
              EdgeId e = 0;
              if (!lane.txn_pop(self, t, &e)) break;
              ++got;
              for (std::uint64_t end : {edge_u(e), edge_v(e)}) {
                const std::uint64_t other = end == edge_u(e) ? edge_v(e)
                                                             : edge_u(e);
                auto it = staged.find(end);
                if (it == staged.end()) {
                  AdjList list;
                  adj.txn_find(self, t, end, &list);
                  it = staged.emplace(end, std::move(list)).first;
                }
                it->second.push_back(other);
              }
            }
            for (auto& [end, list] : staged) adj.txn_put(t, end, list);
          });
          if (!st.ok()) {
            // Retry budget exhausted under rival-drainer contention. Nothing
            // committed (the pops roll back with the txn), so the edges are
            // still in the lane — loop and re-attempt. Only giving up
            // (stuck_limit) counts as a failed op.
            if (++stuck > stuck_limit) {
              failed.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            continue;
          }
          if (got == 0) break;  // lane is empty — committed a validated no-op
          stuck = 0;
          transferred.fetch_add(got, std::memory_order_relaxed);
        }
      },
  });
  result.build_seconds = ctx.elapsed_seconds();

  // Between phases: let the heat advisor act on ingest skew before the
  // traversal phase (no-op unless the policy is armed).
  if (options.rebalance.enabled) {
    ctx.run_one(0, [&](sim::Actor&) { adj.rebalance_tick(); });
  }

  // Query phase: degree probes plus k-hop BFS, frontier by frontier
  // through find_batch.
  std::atomic<std::uint64_t> reached{0}, bfs_checksum{0}, degree_checksum{0};
  const auto sources = detail::bfs_sources(config);
  ctx.reset_measurement();
  ctx.run([&](sim::Actor& self) {
    Rng rng(config.seed ^ 0x94d049bb133111ebULL ^
            (0x9e3779b97f4a7c15ULL * (self.rank() + 1)));
    std::uint64_t my_degree = 0;
    try {
      std::vector<std::uint64_t> probes(config.degree_samples);
      for (auto& p : probes) p = rng.next_below(config.vertices);
      const auto found = adj.find_batch(probes);
      for (std::size_t i = 0; i < probes.size(); ++i) {
        const std::uint64_t d = found[i].has_value() ? found[i]->size() : 0;
        my_degree += mix64(probes[i] ^ mix64(d + 1));
      }
    } catch (const HclError&) {
      failed.fetch_add(1, std::memory_order_relaxed);
    }
    degree_checksum.fetch_add(my_degree, std::memory_order_relaxed);

    for (std::size_t s = static_cast<std::size_t>(self.rank());
         s < sources.size(); s += static_cast<std::size_t>(ranks)) {
      const std::uint64_t source = sources[s];
      std::unordered_set<std::uint64_t> seen{source};
      std::vector<std::uint64_t> frontier{source};
      try {
        for (int hop = 0; hop < config.khop && !frontier.empty(); ++hop) {
          const auto found = adj.find_batch(frontier);
          std::vector<std::uint64_t> next;
          for (const auto& list : found) {
            if (!list.has_value()) continue;
            for (std::uint64_t n : *list) {
              if (seen.insert(n).second) next.push_back(n);
            }
          }
          frontier = std::move(next);
        }
      } catch (const HclError&) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
      seen.erase(source);
      reached.fetch_add(seen.size(), std::memory_order_relaxed);
      bfs_checksum.fetch_add(detail::bfs_digest(source, seen),
                             std::memory_order_relaxed);
    }
  });
  result.query_seconds = ctx.elapsed_seconds();

  result.vertices = config.vertices;
  result.edges = edges.size();
  result.transferred = transferred.load(std::memory_order_relaxed);
  result.bfs_reached = reached.load(std::memory_order_relaxed);
  result.bfs_checksum = bfs_checksum.load(std::memory_order_relaxed);
  result.degree_checksum = degree_checksum.load(std::memory_order_relaxed);
  result.txn_commits = coord.commits();
  result.txn_aborts = coord.aborts();
  result.failed_ops = failed.load(std::memory_order_relaxed);
  return result;
}

/// BCL variant: client-side maintenance, per-endpoint rmw appends with no
/// cross-endpoint atomicity, scalar traversal reads.
inline GraphResult run_graph_bcl(Context& ctx, const GraphConfig& config) {
  const int ranks = ctx.topology().num_ranks();
  const auto edges = detail::graph_edges(config);

  const std::size_t adj_entry_bytes =
      sizeof(std::uint64_t) +
      static_cast<std::size_t>((config.avg_degree + 1.0) *
                               sizeof(std::uint64_t));
  bcl::HashMap<std::uint64_t, std::uint64_t> props(
      ctx,
      static_cast<std::size_t>(static_cast<double>(config.vertices) *
                               config.bcl_table_slack),
      {}, 2 * sizeof(std::uint64_t));
  bcl::HashMap<std::uint64_t, AdjList> adj(
      ctx,
      static_cast<std::size_t>(static_cast<double>(config.vertices) *
                               config.bcl_table_slack),
      {}, adj_entry_bytes);

  GraphResult result;
  std::atomic<std::int64_t> failed{0};

  ctx.reset_measurement();
  ctx.run_phases({
      // Vertices: one client-side insert per vertex, plus the static-model
      // tax of seeding every adjacency slot up front (limitation (e)) —
      // distinct keys per rank, which sidesteps the client-side
      // duplicate-insert race (bcl/hash_map.h limitation (d)) that would
      // otherwise split a vertex's adjacency across buckets.
      [&](sim::Actor& self) {
        const std::uint64_t per =
            (config.vertices + static_cast<std::uint64_t>(ranks) - 1) /
            static_cast<std::uint64_t>(ranks);
        const std::uint64_t lo = per * static_cast<std::uint64_t>(self.rank());
        const std::uint64_t hi = std::min(config.vertices, lo + per);
        for (std::uint64_t v = lo; v < hi; ++v) {
          if (!props.insert(v, detail::vertex_prop(config, v)).ok()) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
          if (!adj.insert(v, AdjList{}).ok()) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      // Edges: two independent rmw appends per edge (u's list, v's list).
      [&](sim::Actor& self) {
        for (std::size_t i = static_cast<std::size_t>(self.rank());
             i < edges.size(); i += static_cast<std::size_t>(ranks)) {
          const EdgeId e = edges[i];
          for (std::uint64_t end : {edge_u(e), edge_v(e)}) {
            const std::uint64_t other =
                end == edge_u(e) ? edge_v(e)
                                         : edge_u(e);
            const Status st = adj.rmw(
                end,
                [other](AdjList& list) { list.push_back(other); },
                AdjList{});
            if (!st.ok()) failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
  });
  result.build_seconds = ctx.elapsed_seconds();

  std::atomic<std::uint64_t> reached{0}, bfs_checksum{0}, degree_checksum{0};
  const auto sources = detail::bfs_sources(config);
  ctx.reset_measurement();
  ctx.run([&](sim::Actor& self) {
    Rng rng(config.seed ^ 0x94d049bb133111ebULL ^
            (0x9e3779b97f4a7c15ULL * (self.rank() + 1)));
    std::uint64_t my_degree = 0;
    for (std::size_t i = 0; i < config.degree_samples; ++i) {
      const std::uint64_t probe = rng.next_below(config.vertices);
      AdjList list;
      const std::uint64_t d = adj.find(probe, &list).ok() ? list.size() : 0;
      my_degree += mix64(probe ^ mix64(d + 1));
    }
    degree_checksum.fetch_add(my_degree, std::memory_order_relaxed);

    for (std::size_t s = static_cast<std::size_t>(self.rank());
         s < sources.size(); s += static_cast<std::size_t>(ranks)) {
      const std::uint64_t source = sources[s];
      std::unordered_set<std::uint64_t> seen{source};
      std::vector<std::uint64_t> frontier{source};
      for (int hop = 0; hop < config.khop && !frontier.empty(); ++hop) {
        std::vector<std::uint64_t> next;
        for (std::uint64_t v : frontier) {
          AdjList list;
          if (!adj.find(v, &list).ok()) continue;
          for (std::uint64_t n : list) {
            if (seen.insert(n).second) next.push_back(n);
          }
        }
        frontier = std::move(next);
      }
      seen.erase(source);
      reached.fetch_add(seen.size(), std::memory_order_relaxed);
      bfs_checksum.fetch_add(detail::bfs_digest(source, seen),
                             std::memory_order_relaxed);
    }
  });
  result.query_seconds = ctx.elapsed_seconds();

  result.vertices = config.vertices;
  result.edges = edges.size();
  result.bfs_reached = reached.load(std::memory_order_relaxed);
  result.bfs_checksum = bfs_checksum.load(std::memory_order_relaxed);
  result.degree_checksum = degree_checksum.load(std::memory_order_relaxed);
  result.failed_ops = failed.load(std::memory_order_relaxed);
  return result;
}

}  // namespace hcl::apps
