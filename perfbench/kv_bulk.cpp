// kv_bulk_ingest: 8 nodes x 4 ranks bulk-load an ordered map of 1 KiB values
// with replication 1, a relaxed-sync journal and the shm tier (2-node pods)
// on, cache off. Each rank calls insert_batch with 64 fresh keys from its own
// range; every fifth call is instead a find_batch of 64 keys it already
// wrote. Each round loads a fresh map so memory stays bounded.
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "probes.h"

namespace perfbench {
namespace {

namespace sim = hcl::sim;

constexpr std::size_t kWords = 128;  // 1 KiB values
constexpr std::size_t kBatch = 64;
constexpr int kCallsPerRound = 10;   // per rank; calls 4 and 9 read back
constexpr int kInsertCalls = 8;
constexpr std::size_t kKeysPerRank = kInsertCalls * kBatch;
/// Distinct key sets, one per round, cycled in whole passes: the hash
/// spread of one key set over the partitions moves the simulated metrics by
/// a few percent from seed to seed, and a pass over sixteen averages it.
constexpr int kPoolRounds = 16;
/// Four partitions per node keep each partition's journal (~512 records of
/// 1044 B) inside the 1 MiB segment PersistLog::open starts with. Reopening a
/// journal that grew past it loses the tail: MappedFile::open truncates the
/// file to the initial size before recovery replays it (see README.md).
constexpr int kPartitions = 4 * kNodes;

using Value = Record<kWords>;
using Map = hcl::map<std::uint64_t, Value>;
using Keys = std::vector<std::uint64_t>;

bool is_find_call(int c) { return c % 5 == 4; }

struct Inputs {
  /// The j-th key a rank writes in any round carries values[rank][j / 64][j % 64].
  std::vector<std::vector<std::vector<Value>>> values;
  std::vector<std::vector<std::uint64_t>> base;       // [round][rank] first key
  std::vector<std::vector<std::vector<Keys>>> inserts;  // [round][rank][call] 64 keys
  std::vector<std::vector<std::vector<Keys>>> finds;    // [round][rank][call] 64 keys

  /// The value rank `r` wrote for `key` in pool round `round`.
  [[nodiscard]] const Value& value_of(int round, std::size_t r, std::uint64_t key) const {
    const std::uint64_t j = key - base[static_cast<std::size_t>(round)][r];
    return values[r][j / kBatch][j % kBatch];
  }
  /// True when `key` is one of the keys written in pool round `round`.
  [[nodiscard]] bool written(int round, std::uint64_t key) const {
    const std::uint64_t r = (key >> 40) - 1;
    if (r >= static_cast<std::uint64_t>(kRanks)) return false;
    const std::uint64_t b = base[static_cast<std::size_t>(round)][r];
    return key >= b && key < b + kKeysPerRank;
  }
};

std::shared_ptr<const Inputs> generate(std::uint64_t seed) {
  auto in = std::make_shared<Inputs>();
  in->values.resize(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    for (int c = 0; c < kInsertCalls; ++c) {
      std::vector<Value> values(kBatch);
      for (std::size_t j = 0; j < kBatch; ++j) {
        values[j] = make_record<kWords>(seed, (static_cast<std::uint64_t>(r) << 32) | (c * kBatch + j));
      }
      in->values[static_cast<std::size_t>(r)].push_back(std::move(values));
    }
  }
  for (int round = 0; round < kPoolRounds; ++round) {
    in->base.emplace_back();
    in->inserts.emplace_back(kRanks);
    in->finds.emplace_back(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      const auto ur = static_cast<std::uint64_t>(r);
      // Disjoint per-rank ranges: rank r writes [(r + 1) << 40 + offset, +512).
      const std::uint64_t base =
          ((ur + 1) << 40) +
          (hcl::mix64(seed ^ (static_cast<std::uint64_t>(round) << 20) ^ ur) &
           ((std::uint64_t{1} << 39) - 1));
      in->base.back().push_back(base);
      hcl::Rng rng(hcl::mix64(seed + 0xb01c + (static_cast<std::uint64_t>(round) << 20) + ur));
      std::size_t written = 0;
      for (int c = 0; c < kCallsPerRound; ++c) {
        Keys keys(kBatch);
        if (is_find_call(c)) {
          for (auto& k : keys) k = base + rng.next_below(written);
          in->finds.back()[ur].push_back(std::move(keys));
          continue;
        }
        for (std::size_t j = 0; j < kBatch; ++j) keys[j] = base + written + j;
        written += kBatch;
        in->inserts.back()[ur].push_back(std::move(keys));
      }
    }
  }
  return in;
}

class KvBulk final : public Workload {
 public:
  KvBulk(std::shared_ptr<const Inputs> in, std::string dir, bool traced)
      : in_(std::move(in)),
        dir_(std::move(dir)),
        config_(pinned_config(kNodes, kProcs, traced, true)),
        ctx_(config_) {
    open_fresh(0);
  }

  ~KvBulk() override {
    map_.reset();
    remove_journal(path_);
  }

  RoundStats round(Recorder& rec) override {
    if (used_) open_fresh(static_cast<int>(rounds_ % kPoolRounds));
    used_ = true;
    ++rounds_;
    ctx_.reset_measurement();
    const auto t0 = Clock::now();
    ctx_.run([&](sim::Actor& self) { rank_body(rec, self); }, kv_workers());
    RoundStats st;
    st.host_s = seconds_since(t0);
    st.sim_ns = ctx_.cluster().max_time();
    st.items = std::int64_t{kRanks} * kCallsPerRound * static_cast<std::int64_t>(kBatch);
    st.counters = Counters::read(ctx_, st.sim_ns);
    return st;
  }

  void replay(Recorder& rec) override {
    open_fresh(static_cast<int>(rounds_ % kPoolRounds));
    used_ = true;
    ctx_.reset_measurement();
    for (int r = 0; r < kRanks; ++r) {
      ctx_.run_one(r, [&](sim::Actor& self) { rank_body(rec, self); });
    }
  }

  /// Read-back of every written key, replica sizes per partition, and a
  /// fresh map reopened on the same journal paths.
  std::int64_t check() override {
    std::int64_t failures = 0;
    const std::size_t total = static_cast<std::size_t>(kRanks) * kKeysPerRank;
    const auto contents_ok = [&](Map& m, const char* what) {
      std::size_t seen = 0, wrong = 0;
      m.for_each_ordered([&](const std::uint64_t& k, const Value& v) {
        ++seen;
        const auto r = static_cast<std::size_t>((k >> 40) - 1);
        if (!in_->written(round_, k) || !(v == in_->value_of(round_, r, k))) ++wrong;
      });
      const bool ok = seen == total && wrong == 0 && m.size() == total;
      if (!ok) {
        std::printf("# check %s: saw %zu of %zu keys, %zu wrong\n", what, seen, total, wrong);
      }
      return ok;
    };
    if (!contents_ok(*map_, "read-back")) ++failures;
    std::vector<std::size_t> primary(static_cast<std::size_t>(map_->num_partitions()), 0);
    for (const auto& calls : in_->inserts[static_cast<std::size_t>(round_)]) {
      for (const auto& keys : calls) {
        for (std::uint64_t k : keys) ++primary[static_cast<std::size_t>(map_->partition_of(k))];
      }
    }
    const int parts = map_->num_partitions();
    for (int p = 0; p < parts; ++p) {
      // Replication 1: partition p's updates land in partition p + 1.
      const std::size_t replicas = map_->replica_size((p + 1) % parts);
      if (replicas != primary[static_cast<std::size_t>(p)]) {
        std::printf("# check replica of partition %d: %zu, primary %zu\n", p, replicas,
                    primary[static_cast<std::size_t>(p)]);
        ++failures;
      }
    }
    map_.reset();
    {
      Map reopened(ctx_, options());
      if (!contents_ok(reopened, "journal recovery")) ++failures;
    }
    std::printf("# check: read-back, replica sizes and journal recovery: %lld failed\n",
                static_cast<long long>(failures));
    return failures;
  }

  void layer_metrics(const Recorder&, Metrics&) override {}

  std::int64_t probes(const ProbeContext& pc, Metrics& out) override {
    ProbeData<Value> d;
    for (int r = 0; r < kRanks; ++r) {
      for (std::size_t j = 0; j < kBatch; ++j) {
        d.keys.push_back(in_->inserts[0][static_cast<std::size_t>(r)][0][j]);
        d.values.push_back(in_->values[static_cast<std::size_t>(r)][0][j]);
      }
    }
    return run_layer_probes(pc, d, out);
  }

  [[nodiscard]] unsigned workers() const override { return kv_workers(); }
  [[nodiscard]] int pool_rounds() const override { return kPoolRounds; }

 private:
  [[nodiscard]] hcl::core::ContainerOptions options() const {
    auto o = pinned_options(config_);
    o.num_partitions = kPartitions;
    o.replication = 1;
    o.persist_path = path_;
    o.sync_mode = hcl::mem::SyncMode::kRelaxed;
    return o;
  }

  static void remove_journal(const std::string& path) {
    if (path.empty()) return;
    std::error_code ec;
    for (int p = 0; p < kPartitions; ++p) {
      std::filesystem::remove(path + ".p" + std::to_string(p), ec);
    }
  }

  /// Drop the previous round's map and journal, then open an empty one
  /// for pool round `round`.
  void open_fresh(int round) {
    round_ = round;
    map_.reset();
    remove_journal(path_);
    path_ = dir_ + "/bulk" + std::to_string(generation_++);
    map_ = std::make_unique<Map>(ctx_, options());
  }

  void rank_body(Recorder& rec, sim::Actor& self) {
    const auto r = static_cast<std::size_t>(self.rank());
    const auto round = static_cast<std::size_t>(round_);
    std::size_t ins = 0, fnd = 0;
    for (int c = 0; c < kCallsPerRound; ++c) {
      if (is_find_call(c)) {
        const auto& keys = in_->finds[round][r][fnd++];
        rec.call(self, kFindBatch, kBatch, [&] {
          const auto found = map_->find_batch(keys);
          for (std::size_t j = 0; j < keys.size(); ++j) {
            if (!found[j].has_value() || !(*found[j] == in_->value_of(round_, r, keys[j]))) {
              return false;
            }
          }
          return true;
        });
      } else {
        const auto& keys = in_->inserts[round][r][ins];
        const auto& values = in_->values[r][ins++];
        rec.call(self, kInsertBatch, kBatch, [&] {
          for (bool fresh : map_->insert_batch(keys, values)) {
            if (!fresh) return false;
          }
          return true;
        });
      }
    }
  }

  std::shared_ptr<const Inputs> in_;
  std::string dir_;
  Context::Config config_;
  Context ctx_;
  std::unique_ptr<Map> map_;
  std::string path_;
  std::uint64_t generation_ = 0;
  std::uint64_t rounds_ = 0;
  int round_ = 0;  // pool round the current map holds
  bool used_ = false;
};

}  // namespace

WorkloadFactory kv_bulk_ingest(std::uint64_t seed, const std::string& scratch_dir) {
  auto in = generate(seed);
  return [in, scratch_dir](bool traced) -> std::unique_ptr<Workload> {
    return std::make_unique<KvBulk>(in, scratch_dir + (traced ? "/traced" : "/plain"), traced);
  };
}

}  // namespace perfbench
