// Shared benchmark utilities: flag parsing, table output, the Blob payload.
//
// Every bench binary prints the rows/series of the paper figure it
// regenerates, using simulated time (see DESIGN.md §2). Default parameters
// are scaled down from the paper's testbed so the full suite runs in
// minutes; pass --full for paper-scale runs, or individual flags to
// override.
#pragma once

#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/hcl.h"
#include "fabric/fabric.h"
#include "sim/cluster.h"

namespace hcl::bench {

/// One accepted command-line flag: `--name value`/`--name=value` takes an
/// integer; a switch (`takes_value == false`) stands alone.
struct Flag {
  const char* name;
  const char* help;
  bool takes_value = true;
};

inline constexpr Flag kFullFlag{"--full", "paper-scale parameters", false};
inline constexpr Flag kNodesFlag{"--nodes",
                                 "pin one node count instead of the sweep"};
inline constexpr Flag kProcsFlag{"--procs-per-node", "ranks per node"};
inline constexpr Flag kBudgetFlag{
    "--budget-s", "wall-clock budget in seconds; exceeding it exits 3"};

/// Command-line flags checked against the binary's declared set: `--help`
/// lists them and exits 0; an unknown flag, a missing or non-integer value,
/// or a stray argument prints the usage and exits 2 before any work starts,
/// so a typo can never run the full bench and overwrite its BENCH_*.json.
class Args {
 public:
  Args(int argc, char** argv, std::initializer_list<Flag> flags)
      : flags_(flags) {
    const char* prog = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string& a = args_[i];
      if (a == "--help" || a == "-h") {
        usage(stdout, prog);
        std::exit(0);
      }
      const std::size_t eq = a.find('=');
      const Flag* flag = find(a.substr(0, eq));
      const char* error = nullptr;
      if (flag == nullptr) {
        error = "unknown argument";
      } else if (!flag->takes_value) {
        if (eq != std::string::npos) error = "takes no value";
      } else if (eq == std::string::npos && i + 1 == args_.size()) {
        error = "needs a value";
      } else if (!is_integer(eq == std::string::npos ? args_[++i]
                                                      : a.substr(eq + 1))) {
        error = "needs an integer value";
      }
      if (error != nullptr) {
        std::fprintf(stderr, "%s: %s: %s\n", prog, a.c_str(), error);
        usage(stderr, prog);
        std::exit(2);
      }
    }
  }

  [[nodiscard]] std::int64_t get(const std::string& name,
                                 std::int64_t fallback) const {
    declared(name);
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind(name + "=", 0) == 0) {
        return std::atoll(args_[i].c_str() + name.size() + 1);
      }
      if (args_[i] == name && i + 1 < args_.size()) {
        return std::atoll(args_[i + 1].c_str());
      }
    }
    return fallback;
  }

  [[nodiscard]] bool full() const {
    declared("--full");
    for (const auto& a : args_) {
      if (a == "--full") return true;
    }
    return false;
  }

 private:
  [[nodiscard]] const Flag* find(const std::string& name) const {
    for (const auto& f : flags_) {
      if (name == f.name) return &f;
    }
    return nullptr;
  }

  /// Reading a flag the binary never declared is a bug in the bench itself.
  void declared(const std::string& name) const {
    if (find(name) == nullptr) {
      std::fprintf(stderr, "bench reads undeclared flag %s\n", name.c_str());
      std::abort();
    }
  }

  static bool is_integer(const std::string& v) {
    std::size_t i = v.size() > 1 && (v[0] == '-' || v[0] == '+') ? 1 : 0;
    if (i == v.size()) return false;
    for (; i < v.size(); ++i) {
      if (v[i] < '0' || v[i] > '9') return false;
    }
    return true;
  }

  void usage(std::FILE* out, const char* prog) const {
    std::fprintf(out, "usage: %s [flags]\n", prog);
    for (const auto& f : flags_) {
      std::fprintf(out, "  %-22s %s\n",
                   (std::string(f.name) + (f.takes_value ? " N" : "")).c_str(),
                   f.help);
    }
    std::fprintf(out, "  %-22s %s\n", "--help", "print this list and exit");
  }

  std::vector<Flag> flags_;
  std::vector<std::string> args_;
};

/// A payload whose *wire size* is `nominal` bytes but whose in-memory
/// footprint is 16 bytes — lets bandwidth sweeps charge multi-megabyte
/// transfers without materializing gigabytes of real data. The serializer
/// genuinely moves `nominal` bytes through the archive, so serialization
/// cost is real; only long-term storage is elided.
struct Blob {
  std::uint64_t nominal = 0;

  template <typename Ar>
  void serialize(Ar& ar) {
    if constexpr (Ar::is_saving) {
      ar.u64(nominal);
      static const std::vector<std::byte> zeros(1 << 16);
      std::uint64_t left = nominal;
      while (left > 0) {
        const std::uint64_t chunk = left < zeros.size() ? left : zeros.size();
        ar.raw_bytes(zeros.data(), chunk);
        left -= chunk;
      }
    } else {
      nominal = ar.u64();
      std::byte sink[1 << 12];
      std::uint64_t left = nominal;
      while (left > 0) {
        const std::uint64_t chunk = left < sizeof(sink) ? left : sizeof(sink);
        ar.raw_bytes(sink, chunk);
        left -= chunk;
      }
    }
  }

  friend bool operator==(const Blob& a, const Blob& b) {
    return a.nominal == b.nominal;
  }
};

inline std::string human_bytes(std::int64_t bytes) {
  char buf[32];
  if (bytes >= (1 << 20)) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "MB", bytes >> 20);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "KB", bytes >> 10);
  }
  return buf;
}

/// Machine-checkable perf record: one flat JSON object per BENCH_*.json
/// file, deterministic under the rounding contract documented at the top of
/// bench/ablations.cpp (floats rounded coarser than the ns-level reservation
/// noise floor, fixed field order, Config-default seeds).
inline void write_json(const char* path, const std::string& body) {
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fputs(body.c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
    std::printf("   wrote %s\n", path);
  } else {
    std::fprintf(stderr, "   could not write %s\n", path);
  }
}

inline std::string jsonf(const char* fmt, ...) {
  char buf[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// Real wall-clock budget guard (--budget-s): the paper-scale harness must
/// provably not melt, so CI runs the figure benches under a hard budget and
/// the bench exits non-zero the moment a checkpoint exceeds it.
class WallBudget {
 public:
  explicit WallBudget(double budget_seconds)
      : budget_s_(budget_seconds),
        start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Call at phase boundaries; no-op when no budget was requested.
  void check(const char* tag) const {
    if (budget_s_ <= 0) return;
    const double e = elapsed_s();
    if (e > budget_s_) {
      std::fprintf(stderr,
                   "BUDGET EXCEEDED at %s: %.1f s wall > %.1f s budget\n", tag,
                   e, budget_s_);
      std::exit(3);
    }
  }

  [[nodiscard]] double budget_s() const noexcept { return budget_s_; }

 private:
  double budget_s_;
  std::chrono::steady_clock::time_point start_;
};

/// Multiplexing-equivalence probe (DESIGN.md §5j), run by the figure benches
/// before their headline topology: the same contention-free spaced put
/// workload at several real-thread caps must produce byte-identical
/// per-rank simulated clocks and fabric counter totals. Returns the
/// verdicts for BENCH_*.json emission (CI asserts both true).
struct EquivalenceReport {
  bool clocks_equal = false;
  bool counters_equal = false;
  int levels = 0;
};

inline EquivalenceReport run_equivalence_probe(int nodes, int procs) {
  using sim::Nanos;
  const sim::Topology topo(nodes, procs);
  const int ranks = topo.num_ranks();
  constexpr int kIters = 8;
  constexpr std::size_t kLen = 2048;
  const Nanos slot = 8 * sim::kMicrosecond;
  const Nanos stride = slot * procs;

  struct Outcome {
    std::vector<Nanos> clocks;
    std::int64_t packets = 0, bytes = 0, writes = 0;
  };
  auto run_level = [&](unsigned max_threads) {
    sim::Cluster cluster(topo, /*seed=*/42);
    fabric::Fabric fab(topo, sim::CostModel::ares());
    std::vector<std::vector<char>> dst(
        static_cast<std::size_t>(nodes),
        std::vector<char>(static_cast<std::size_t>(procs) * kLen, 0));
    std::vector<char> src(kLen, 'x');
    cluster.run(
        [&](sim::Actor& a) {
          const int local = topo.local_index(a.rank());
          const sim::NodeId target = (a.node() + 1) % nodes;
          for (int i = 0; i < kIters; ++i) {
            a.advance_to(i * stride + local * slot);
            fab.put(a, target,
                    dst[static_cast<std::size_t>(target)].data() +
                        static_cast<std::size_t>(local) * kLen,
                    src.data(), kLen);
          }
        },
        max_threads);
    Outcome out;
    out.clocks.reserve(static_cast<std::size_t>(ranks));
    for (sim::Rank r = 0; r < ranks; ++r) {
      out.clocks.push_back(cluster.actor(r).now());
    }
    for (sim::NodeId n = 0; n < nodes; ++n) {
      const auto& c = fab.nic(n).counters();
      out.packets += c.total_packets.load();
      out.bytes += c.total_bytes.load();
      out.writes += c.write_count.load();
    }
    return out;
  };

  std::vector<unsigned> levels;
  for (unsigned cap : {static_cast<unsigned>(ranks),
                       static_cast<unsigned>(ranks > 4 ? ranks / 4 : 1), 16u,
                       2u}) {
    cap = cap == 0 ? 1 : cap;
    bool dup = false;
    for (unsigned seen : levels) dup = dup || seen == cap;
    if (!dup) levels.push_back(cap);
  }

  EquivalenceReport rep;
  rep.levels = static_cast<int>(levels.size());
  rep.clocks_equal = true;
  rep.counters_equal = true;
  const Outcome ref = run_level(levels[0]);
  for (std::size_t i = 1; i < levels.size(); ++i) {
    const Outcome got = run_level(levels[i]);
    rep.clocks_equal = rep.clocks_equal && got.clocks == ref.clocks;
    rep.counters_equal = rep.counters_equal && got.packets == ref.packets &&
                         got.bytes == ref.bytes && got.writes == ref.writes;
  }
  return rep;
}

inline void print_header(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(simulated time; paper-calibrated cost model, DESIGN.md §2)\n");
  std::printf("==============================================================\n");
}

inline void print_footer() { std::printf("\n"); }

}  // namespace hcl::bench
