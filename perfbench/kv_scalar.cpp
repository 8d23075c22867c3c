// kv_scalar_skewed: 8 nodes x 4 ranks issue scalar find (90%) / upsert (10%)
// over scrambled Zipf(0.99) keys against a preloaded unordered_map of 64 Ki
// 256-byte values, with each rank's read cache on (kInvalidate, 4 Ki
// entries). Every miss or write is one Engine invoke, so the scalar
// RPC-over-RDMA path and the cache carry the host work.
#include <cstdio>

#include "bench.h"
#include "probes.h"

namespace perfbench {
namespace {

namespace sim = hcl::sim;

constexpr std::size_t kKeys = 64 * 1024;
constexpr std::size_t kWords = 32;  // 256-byte values
constexpr int kCallsPerRound = 512; // per rank
constexpr int kPoolRounds = 8;      // distinct generated rounds, cycled
constexpr std::size_t kCacheEntries = 4096;
constexpr std::uint32_t kFindOp = ~std::uint32_t{0};

using Value = Record<kWords>;
using Map = hcl::unordered_map<std::uint64_t, Value>;

struct Op {
  std::uint32_t key;    // index into Inputs::keys
  std::uint32_t value;  // index into Inputs::writes, or kFindOp
};

struct Inputs {
  std::vector<std::uint64_t> keys;
  std::vector<Value> preload;
  std::vector<Value> writes;
  std::vector<std::vector<Op>> ops;  // [pool_round * kRanks + rank]
};

std::shared_ptr<const Inputs> generate(std::uint64_t seed) {
  auto in = std::make_shared<Inputs>();
  in->keys.resize(kKeys);
  in->preload.resize(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    in->keys[i] = hcl::mix64(seed ^ (i * 0x9e3779b97f4a7c15ULL));
    in->preload[i] = make_record<kWords>(in->keys[i], 0);
  }
  in->ops.resize(static_cast<std::size_t>(kPoolRounds * kRanks));
  for (int r = 0; r < kRanks; ++r) {
    hcl::Rng rng(hcl::mix64(seed + 0x51ed27 + static_cast<std::uint64_t>(r)));
    hcl::ZipfGen zipf(kKeys, 0.99, rng);
    for (int pr = 0; pr < kPoolRounds; ++pr) {
      auto& ops = in->ops[static_cast<std::size_t>(pr * kRanks + r)];
      ops.reserve(kCallsPerRound);
      for (int c = 0; c < kCallsPerRound; ++c) {
        const auto key = static_cast<std::uint32_t>(zipf.next_scrambled());
        if (rng.next_below(10) == 0) {
          const std::uint64_t tag = 1 + static_cast<std::uint64_t>(pr * kRanks + r) * kCallsPerRound + c;
          ops.push_back({key, static_cast<std::uint32_t>(in->writes.size())});
          in->writes.push_back(make_record<kWords>(in->keys[key], tag));
        } else {
          ops.push_back({key, kFindOp});
        }
      }
    }
  }
  return in;
}

class KvScalar final : public Workload {
 public:
  KvScalar(std::shared_ptr<const Inputs> in, bool traced)
      : in_(std::move(in)),
        config_(pinned_config(kNodes, kProcs, traced, false)),
        ctx_(config_),
        map_(ctx_, options(config_)) {
    // Preload: each rank bulk-inserts its slice of the keyspace.
    const std::size_t per = kKeys / kRanks;
    ctx_.run(
        [&](sim::Actor& self) {
          const std::size_t lo = per * static_cast<std::size_t>(self.rank());
          for (std::size_t at = lo; at < lo + per; at += 256) {
            const std::vector<std::uint64_t> keys(in_->keys.begin() + at,
                                                  in_->keys.begin() + at + 256);
            const std::vector<Value> values(in_->preload.begin() + at,
                                            in_->preload.begin() + at + 256);
            for (bool fresh : map_.insert_batch(keys, values)) {
              if (!fresh) preload_failures_.fetch_add(1, std::memory_order_relaxed);
            }
          }
        },
        kv_workers());
    ctx_.reset_measurement();
    cache0_ = map_.cache_stats();
  }

  RoundStats round(Recorder& rec) override {
    const auto& ops = in_->ops;
    const std::size_t pool = static_cast<std::size_t>(rounds_++ % kPoolRounds);
    ctx_.reset_measurement();
    const auto t0 = Clock::now();
    ctx_.run(
        [&](sim::Actor& self) {
          for (const Op& op : ops[pool * kRanks + static_cast<std::size_t>(self.rank())]) {
            issue(rec, self, op);
          }
        },
        kv_workers());
    RoundStats st;
    st.host_s = seconds_since(t0);
    st.sim_ns = ctx_.cluster().max_time();
    st.items = std::int64_t{kRanks} * kCallsPerRound;
    st.counters = Counters::read(ctx_, st.sim_ns);
    return st;
  }

  void replay(Recorder& rec) override {
    const std::size_t pool = static_cast<std::size_t>(rounds_ % kPoolRounds);
    ctx_.reset_measurement();
    for (int r = 0; r < kRanks; ++r) {
      ctx_.run_one(r, [&](sim::Actor& self) {
        for (const Op& op : in_->ops[pool * kRanks + static_cast<std::size_t>(r)]) {
          issue(rec, self, op);
        }
      });
    }
  }

  std::int64_t check() override {
    std::int64_t seen = 0, corrupt = 0;
    ctx_.run_one(0, [&](sim::Actor&) {
      map_.for_each([&](const std::uint64_t& k, const Value& v) {
        ++seen;
        if (!record_ok(k, v)) ++corrupt;
      });
    });
    std::printf("# check: for_each saw %lld keys (want %zu), %lld corrupt\n",
                static_cast<long long>(seen), kKeys, static_cast<long long>(corrupt));
    return corrupt + (seen == static_cast<std::int64_t>(kKeys) ? 0 : 1) +
           preload_failures_.load();
  }

  void layer_metrics(const Recorder& rec, Metrics& out) override {
    const hcl::cache::CacheStats now = map_.cache_stats();
    const double hits = static_cast<double>(now.hits - cache0_.hits);
    const double misses = static_cast<double>(now.misses - cache0_.misses);
    out.push_back({"cache.hit_ratio", ratio(hits, hits + misses), "fraction"});
    out.push_back({"cache.invalidations_per_write",
                   ratio(static_cast<double>(now.invalidations - cache0_.invalidations),
                         static_cast<double>(rec.cost(kUpsert).calls)),
                   "1/write"});
    out.push_back({"cache.stale_reads",
                   ratio(static_cast<double>(now.stale_reads - cache0_.stale_reads),
                         hits + misses),
                   "1/read"});
  }

  std::int64_t probes(const ProbeContext& pc, Metrics& out) override {
    ProbeData<Value> d;
    for (std::size_t i = 0; i < kKeys; i += 16) {
      d.keys.push_back(in_->keys[i]);
      d.values.push_back(in_->preload[i]);
    }
    return run_layer_probes(pc, d, out);
  }

  [[nodiscard]] unsigned workers() const override { return kv_workers(); }
  [[nodiscard]] int pool_rounds() const override { return kPoolRounds; }

 private:
  static hcl::core::ContainerOptions options(const Context::Config& config) {
    auto o = pinned_options(config);
    o.cache.mode = hcl::cache::CacheMode::kInvalidate;
    o.cache.capacity = kCacheEntries;
    o.cache.ttl_ns = 100 * sim::kMicrosecond;
    return o;
  }

  void issue(Recorder& rec, sim::Actor& self, const Op& op) {
    const std::uint64_t key = in_->keys[op.key];
    if (op.value == kFindOp) {
      rec.call(self, kFind, 1, [&] {
        Value v{};
        return map_.find(key, &v) && record_ok(key, v);
      });
    } else {
      // Every key was preloaded, so an upsert that reports a fresh insert
      // means a key went missing.
      rec.call(self, kUpsert, 1, [&] { return !map_.upsert(key, in_->writes[op.value]); });
    }
  }

  std::shared_ptr<const Inputs> in_;
  Context::Config config_;
  Context ctx_;
  Map map_;
  std::uint64_t rounds_ = 0;
  hcl::cache::CacheStats cache0_{};
  std::atomic<std::int64_t> preload_failures_{0};
};

}  // namespace

WorkloadFactory kv_scalar_skewed(std::uint64_t seed) {
  auto in = generate(seed);
  return [in](bool traced) -> std::unique_ptr<Workload> {
    return std::make_unique<KvScalar>(in, traced);
  };
}

}  // namespace perfbench
