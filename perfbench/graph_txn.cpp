// graph_txn: the HCL side of apps::run_graph_hcl at fig9's defaults on
// 8 nodes x 4 ranks, one host worker. Vertices land through atomic multi_put
// batches, edges stream into per-node queue lanes and drain one edge per
// transaction (pop + both endpoints' adjacency RMWs), then degree probes and
// 2-hop BFS read adjacency through find_batch. The phases mirror
// run_graph_hcl call for call so every public call can be timed on its
// caller's actor clock; the traced run checks the result against
// run_graph_hcl itself.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_set>

#include "apps/graph_store.h"
#include "bench.h"
#include "probes.h"

namespace perfbench {
namespace {

namespace sim = hcl::sim;
namespace apps = hcl::apps;

/// OCC validation resolves same-instant rivals in real-thread order, so the
/// graph runs on one worker, as fig9 does, to keep simulated time exact.
constexpr unsigned kWorkers = 1;
/// Distinct graphs per run, one per round, cycled in whole passes. One
/// graph's OCC contention sets its makespan, so a single graph swings the
/// simulated metrics by ~15% from seed to seed; a pass over 16 averages it.
constexpr int kGraphs = 16;

using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

struct Graph {
  apps::GraphConfig config;
  std::vector<apps::EdgeId> edges;
  std::vector<std::uint64_t> sources;
  std::vector<std::uint64_t> source_digest;        // khop_reference digests
  std::vector<std::vector<std::uint64_t>> probes;  // [rank] degree probes
  std::uint64_t degree_checksum = 0;               // reference digest
};

using Inputs = std::vector<Graph>;

Graph generate_graph(std::uint64_t seed) {
  Graph g;
  Graph* in = &g;
  apps::GraphConfig& c = in->config;
  c.vertices = 32 * kRanks;
  c.avg_degree = 6.0;
  c.seed = seed;
  c.vertex_batch = 32;
  c.edge_push_chunk = 16;
  c.drainers_per_node = 1;
  c.edges_per_txn = 1;
  c.bfs_sources = 8;
  c.khop = 2;
  c.degree_samples = 32;
  in->edges = apps::detail::graph_edges(c);
  in->sources = apps::detail::bfs_sources(c);
  for (std::uint64_t s : in->sources) {
    in->source_digest.push_back(
        apps::detail::bfs_digest(s, apps::detail::khop_reference(in->edges, s, c.khop)));
  }
  std::vector<std::uint64_t> degree(c.vertices, 0);
  for (apps::EdgeId e : in->edges) {
    ++degree[apps::edge_u(e)];
    ++degree[apps::edge_v(e)];
  }
  for (int r = 0; r < kRanks; ++r) {
    hcl::Rng rng(c.seed ^ 0x94d049bb133111ebULL ^ (0x9e3779b97f4a7c15ULL * (r + 1)));
    std::vector<std::uint64_t> probes(c.degree_samples);
    for (auto& p : probes) {
      p = rng.next_below(c.vertices);
      in->degree_checksum += hcl::mix64(p ^ hcl::mix64(degree[p] + 1));
    }
    in->probes.push_back(std::move(probes));
  }
  return g;
}

std::shared_ptr<const Inputs> generate(std::uint64_t seed) {
  auto in = std::make_shared<Inputs>();
  for (int i = 0; i < kGraphs; ++i) {
    in->push_back(generate_graph(hcl::mix64(seed * kGraphs + static_cast<std::uint64_t>(i))));
  }
  return in;
}

/// One round's containers: vertex properties, adjacency, edge lanes.
struct Store {
  Store(Context& ctx, const hcl::core::ContainerOptions& options)
      : props(ctx, options), adj(ctx, options), coord(ctx, hcl::txn::TxnPolicy{}) {
    for (int lane = 0; lane < kNodes; ++lane) {
      auto lane_options = options;
      lane_options.first_node = lane;  // one lane per node, drained locally
      lanes.push_back(std::make_unique<hcl::queue<apps::EdgeId>>(ctx, lane_options));
    }
  }
  hcl::unordered_map<std::uint64_t, std::uint64_t> props;
  hcl::unordered_map<std::uint64_t, apps::AdjList> adj;
  hcl::txn::TxnCoordinator coord;
  std::vector<std::unique_ptr<hcl::queue<apps::EdgeId>>> lanes;
};

class GraphTxn final : public Workload {
 public:
  GraphTxn(std::shared_ptr<const Inputs> in, bool traced)
      : in_(std::move(in)),
        config_(pinned_config(kNodes, kProcs, traced, false)),
        ctx_(config_),
        store_(std::make_unique<Store>(ctx_, pinned_options(config_))) {}

  RoundStats round(Recorder& rec) override {
    const int index = rounds_++ % kGraphs;
    fresh_store(index);
    RoundStats st;
    const auto phases = make_phases(rec);
    ctx_.reset_measurement();
    auto t0 = Clock::now();
    ctx_.run_phases({phases[0], phases[1], phases[2]}, kWorkers);
    st.host_s = seconds_since(t0);
    const sim::Nanos build_ns = ctx_.cluster().max_time();
    st.counters = Counters::read(ctx_, build_ns);
    ctx_.reset_measurement();
    t0 = Clock::now();
    ctx_.run(phases[3], kWorkers);
    st.host_s += seconds_since(t0);
    const sim::Nanos query_ns = ctx_.cluster().max_time();
    st.counters.add(Counters::read(ctx_, query_ns));
    st.sim_ns = build_ns + query_ns;
    sim_times_[static_cast<std::size_t>(index)] = {build_ns, query_ns};
    st.items = static_cast<std::int64_t>(g_->config.vertices) +
               transferred_.load() + reads_.load();
    failures_ += round_failures();
    return st;
  }

  void replay(Recorder& rec) override {
    fresh_store(rounds_ % kGraphs);
    const auto phases = make_phases(rec);
    ctx_.reset_measurement();
    for (const auto& phase : phases) {
      for (int r = 0; r < kRanks; ++r) ctx_.run_one(r, phase);
    }
  }

  std::int64_t check() override {
    std::printf("# check: transferred == edges, failed ops, BFS and degree digests: %lld failed\n",
                static_cast<long long>(failures_));
    return failures_;
  }

  void layer_metrics(const Recorder&, Metrics&) override {}

  /// Layer probes over the first graph's adjacency records, plus
  /// apps::run_graph_hcl itself on that graph and a fresh Context.
  std::int64_t probes(const ProbeContext& pc, Metrics& out) override {
    const Graph& g = in_->front();
    ProbeData<apps::AdjList> d;
    std::map<std::uint64_t, apps::AdjList> adjacency;
    for (apps::EdgeId e : g.edges) {
      adjacency[apps::edge_u(e)].push_back(apps::edge_v(e));
      adjacency[apps::edge_v(e)].push_back(apps::edge_u(e));
    }
    for (auto& [v, list] : adjacency) {
      d.keys.push_back(v);
      d.values.push_back(list);
    }
    std::int64_t bad = run_layer_probes(pc, d, out);
    Context ctx(pinned_config(kNodes, kProcs, false, false));
    const apps::GraphResult r = apps::run_graph_hcl(ctx, g.config, pinned_options(config_));
    std::uint64_t digest = 0;
    for (std::uint64_t s : g.source_digest) digest += s;
    // This workload mirrors the app call for call, so on one worker its
    // simulated phase times must equal the app's exactly.
    const auto [build_ns, query_ns] = sim_times_.front();
    const bool same = r.bfs_checksum == digest && r.degree_checksum == g.degree_checksum &&
                      r.transferred == r.edges && r.failed_ops == 0 &&
                      r.build_seconds == sim::to_seconds(build_ns) &&
                      r.query_seconds == sim::to_seconds(query_ns);
    std::printf("# apps::run_graph_hcl: build %.9f s query %.9f s, workload build %.9f s query %.9f s (%s)\n",
                r.build_seconds, r.query_seconds, sim::to_seconds(build_ns),
                sim::to_seconds(query_ns), same ? "match" : "MISMATCH");
    if (!same) ++bad;
    out.push_back({"apps.build_sim_s", r.build_seconds, "s"});
    out.push_back({"apps.query_sim_s", r.query_seconds, "s"});
    return bad;
  }

  [[nodiscard]] unsigned workers() const override { return kWorkers; }
  [[nodiscard]] int pool_rounds() const override { return kGraphs; }

 private:
  void fresh_store(int index) {
    g_ = &(*in_)[static_cast<std::size_t>(index)];
    if (used_) {
      store_.reset();
      store_ = std::make_unique<Store>(ctx_, pinned_options(config_));
    }
    used_ = true;
    transferred_ = 0;
    reads_ = 0;
    failed_ = 0;
    digests_.assign(g_->sources.size(), 0);
    degree_sum_ = 0;
  }

  std::int64_t round_failures() const {
    std::int64_t f = failed_.load();
    if (static_cast<std::size_t>(transferred_.load()) != g_->edges.size()) ++f;
    if (digests_ != g_->source_digest) ++f;
    if (degree_sum_.load() != g_->degree_checksum) ++f;
    return f;
  }

  /// The four phases of run_graph_hcl (vertices, edge ingest, drain, query),
  /// each public call wrapped in the recorder.
  std::vector<std::function<void(sim::Actor&)>> make_phases(Recorder& rec) {
    Store& s = *store_;
    const Graph& g = *g_;
    const apps::GraphConfig& cfg = g.config;
    const auto& edges = g.edges;
    std::vector<std::function<void(sim::Actor&)>> phases;
    phases.emplace_back([&s, &cfg, &rec, this](sim::Actor& self) {
      const std::uint64_t per = (cfg.vertices + kRanks - 1) / kRanks;
      const std::uint64_t lo = per * static_cast<std::uint64_t>(self.rank());
      const std::uint64_t hi = std::min(cfg.vertices, lo + per);
      std::map<int, Pairs> groups;
      for (std::uint64_t v = lo; v < hi; ++v) {
        groups[s.props.partition_of(v)].emplace_back(v, apps::detail::vertex_prop(cfg, v));
      }
      Pairs pairs;
      for (auto& [partition, group] : groups) {
        for (std::size_t at = 0; at < group.size(); at += cfg.vertex_batch) {
          pairs.assign(group.begin() + static_cast<std::ptrdiff_t>(at),
                       group.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(at + cfg.vertex_batch, group.size())));
          // A failed multi_put committed nothing, so the app re-runs it.
          rec.call(self, kTxnRun, static_cast<std::int64_t>(pairs.size()), [&] {
            for (int attempt = 0; attempt < 64; ++attempt) {
              if (s.coord.multi_put(self, s.props, pairs).ok()) return true;
            }
            failed_.fetch_add(1);
            return false;
          });
        }
      }
    });
    phases.emplace_back([&s, &edges, &cfg, &rec](sim::Actor& self) {
      std::vector<std::vector<apps::EdgeId>> chunks(kNodes);
      for (std::size_t i = static_cast<std::size_t>(self.rank()); i < edges.size(); i += kRanks) {
        chunks[hcl::mix64(edges[i]) % kNodes].push_back(edges[i]);
      }
      for (int lane = 0; lane < kNodes; ++lane) {
        const auto& block = chunks[static_cast<std::size_t>(lane)];
        for (std::size_t off = 0; off < block.size(); off += cfg.edge_push_chunk) {
          const std::size_t len = std::min(cfg.edge_push_chunk, block.size() - off);
          const std::vector<apps::EdgeId> chunk(block.begin() + static_cast<std::ptrdiff_t>(off),
                                                block.begin() + static_cast<std::ptrdiff_t>(off + len));
          rec.call(self, kQueuePush, static_cast<std::int64_t>(len),
                   [&] { return s.lanes[static_cast<std::size_t>(lane)]->push(chunk); });
        }
      }
    });
    phases.emplace_back([&s, &edges, &rec, this](sim::Actor& self) {
      if (self.rank() % kProcs != 0) return;  // one drainer per node
      auto& lane = *s.lanes[static_cast<std::size_t>(self.node())];
      const std::size_t stuck_limit = edges.size() * 4 + 64;
      for (bool more = true; more;) {
        std::size_t got = 0;
        rec.call(self, kTxnRun, 1, [&] {
          for (std::size_t stuck = 0; stuck <= stuck_limit; ++stuck) {
            const hcl::Status st = s.coord.run(self, [&](hcl::txn::Txn& t) {
              got = 0;
              apps::EdgeId e = 0;
              if (!lane.txn_pop(self, t, &e)) return;
              got = 1;
              // Read both endpoints, then stage both writes, as the app does.
              const std::uint64_t u = apps::edge_u(e), v = apps::edge_v(e);
              apps::AdjList lu, lv;
              s.adj.txn_find(self, t, u, &lu);
              s.adj.txn_find(self, t, v, &lv);
              lu.push_back(v);
              lv.push_back(u);
              s.adj.txn_put(t, u, lu);
              s.adj.txn_put(t, v, lv);
            });
            if (st.ok()) return true;
          }
          failed_.fetch_add(1);
          got = 0;
          return false;
        });
        transferred_.fetch_add(static_cast<std::int64_t>(got));
        more = got > 0;
      }
    });
    phases.emplace_back([&s, &g, &rec, this](sim::Actor& self) {
      const auto r = static_cast<std::size_t>(self.rank());
      const auto& probes = g.probes[r];
      std::uint64_t degree_sum = 0;
      rec.call(self, kFindBatch, static_cast<std::int64_t>(probes.size()), [&] {
        const auto found = s.adj.find_batch(probes);
        for (std::size_t i = 0; i < probes.size(); ++i) {
          const std::uint64_t d = found[i].has_value() ? found[i]->size() : 0;
          degree_sum += hcl::mix64(probes[i] ^ hcl::mix64(d + 1));
        }
        return true;
      });
      reads_.fetch_add(static_cast<std::int64_t>(probes.size()));
      degree_sum_.fetch_add(degree_sum);
      for (std::size_t i = r; i < g.sources.size(); i += kRanks) {
        const std::uint64_t source = g.sources[i];
        std::unordered_set<std::uint64_t> seen{source};
        std::vector<std::uint64_t> frontier{source};
        for (int hop = 0; hop < g.config.khop && !frontier.empty(); ++hop) {
          std::vector<std::uint64_t> next;
          rec.call(self, kFindBatch, static_cast<std::int64_t>(frontier.size()), [&] {
            for (const auto& list : s.adj.find_batch(frontier)) {
              if (!list.has_value()) continue;
              for (std::uint64_t n : *list) {
                if (seen.insert(n).second) next.push_back(n);
              }
            }
            return true;
          });
          reads_.fetch_add(static_cast<std::int64_t>(frontier.size()));
          frontier = std::move(next);
        }
        seen.erase(source);
        digests_[i] = apps::detail::bfs_digest(source, seen);
      }
    });
    return phases;
  }

  std::shared_ptr<const Inputs> in_;
  Context::Config config_;
  Context ctx_;
  std::unique_ptr<Store> store_;
  bool used_ = false;
  std::atomic<std::int64_t> transferred_{0}, reads_{0}, failed_{0};
  std::atomic<std::uint64_t> degree_sum_{0};
  std::vector<std::uint64_t> digests_;  // [source] written by its one rank
  std::int64_t failures_ = 0;
  int rounds_ = 0;
  const Graph* g_ = nullptr;  // the graph of the current round
  /// Simulated (build, query) times of each graph's last measured round.
  std::vector<std::pair<sim::Nanos, sim::Nanos>> sim_times_ =
      std::vector<std::pair<sim::Nanos, sim::Nanos>>(kGraphs);
};

}  // namespace

WorkloadFactory graph_txn(std::uint64_t seed) {
  auto in = generate(seed);
  return [in](bool traced) -> std::unique_ptr<Workload> {
    return std::make_unique<GraphTxn>(in, traced);
  };
}

}  // namespace perfbench
