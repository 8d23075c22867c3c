// Deterministic pseudo-random number generation for workload generators.
//
// Benchmarks must be reproducible run-to-run, so every generator is seeded
// explicitly (typically by rank) and the engine is fixed (xoshiro256**)
// rather than implementation-defined std::default_random_engine.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "common/env.h"
#include "common/hash.h"

namespace hcl {

/// Seed override for randomized sweeps: HCL_SEED, when set to a number,
/// replaces `fallback` so a property-sweep failure reproduces exactly
/// (`HCL_SEED=<printed seed> ctest -R <sweep>`). Sweeps print the effective
/// seed on failure; unset or malformed values keep the caller's default, so
/// ordinary runs stay deterministic run-to-run.
inline std::uint64_t env_seed(std::uint64_t fallback) noexcept {
  return env_number<std::uint64_t>("HCL_SEED", fallback, 0);
}

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 256-bit state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    // splitmix64 seeding per the xoshiro reference implementation.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      word = mix64(x);
    }
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection-free
  /// approximation (bias negligible for bound << 2^64).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Random byte fill (for synthetic payloads).
  void fill(void* dst, std::size_t len) noexcept {
    auto* p = static_cast<unsigned char*>(dst);
    while (len >= 8) {
      const std::uint64_t v = next();
      __builtin_memcpy(p, &v, 8);
      p += 8;
      len -= 8;
    }
    if (len > 0) {
      const std::uint64_t v = next();
      __builtin_memcpy(p, &v, len);
    }
  }

  /// Random printable-ASCII string of length `len`.
  std::string next_string(std::size_t len) {
    static constexpr char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::string out;
    out.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      out.push_back(kAlphabet[next_below(sizeof(kAlphabet) - 1)]);
    }
    return out;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

/// Zipfian key generator (YCSB-style, Gray et al.'s rejection-free inverse
/// method). Draws keys in [0, n) where key rank r has probability
/// proportional to 1/(r+1)^theta; theta=0.99 is the YCSB default and models
/// the skewed access pattern of real key-value traces. The raw draw is
/// scrambled through a fixed hash so the popular keys are scattered across
/// the keyspace (and therefore across partitions) instead of clustered at 0.
class ZipfGen {
 public:
  ZipfGen(std::uint64_t n, double theta, Rng& rng)
      : n_(n), theta_(theta), rng_(rng) {
    zetan_ = zeta(n_, theta_);
    const double zeta2 = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - pow2(2.0 / static_cast<double>(n_))) / (1.0 - zeta2 / zetan_);
  }

  /// Next key in [0, n); rank-0 (most popular) first in probability.
  std::uint64_t next() {
    const double u = rng_.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + pow2(0.5)) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * pow3(eta_ * u - eta_ + 1.0));
    return r >= n_ ? n_ - 1 : r;
  }

  /// Like next(), but scrambled so hot keys spread over the keyspace. The
  /// salt keeps rank 0 off the mix64 fixed point at 0.
  std::uint64_t next_scrambled() {
    return mix64(next() + 0x9e3779b97f4a7c15ULL) % n_;
  }

 private:
  double pow2(double x) const { return std::pow(x, 1.0 - theta_); }
  double pow3(double x) const { return std::pow(x, alpha_); }
  static double zeta(std::uint64_t n, double theta) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  std::uint64_t n_;
  double theta_;
  Rng& rng_;
  double zetan_, alpha_, eta_;
};

}  // namespace hcl
