// HDR-style latency histogram for the observability layer (DESIGN.md §5e).
//
// Log-linear bucketing in the HdrHistogram tradition: values below 16 ns get
// exact unit buckets; above that, each power-of-two range is split into 16
// sub-buckets, bounding the relative quantization error at 1/16 (6.25%) while
// covering the full sim::Nanos range in under a thousand counters. record()
// is lock-free (relaxed atomics plus a CAS loop for the exact max) so spans
// from every rank thread can feed one histogram without a mutex on the hot
// path. Percentile queries walk the bucket array and return
// the matched bucket's upper bound — an upper estimate, never an undercount.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

#include "sim/time.h"

namespace hcl::obs {

class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;  // 16
  // Unit buckets [0, 16) + one 16-wide row per msb position 4..63.
  static constexpr std::size_t kNumBuckets = (64 - kSubBits) * kSubBuckets + kSubBuckets;

  void record(sim::Nanos value) noexcept {
    if (value < 0) value = 0;
    counts_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    sim::Nanos seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] sim::Nanos max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const auto n = count();
    return n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }

  /// Value at percentile `p` in [0, 100]: the upper bound of the bucket
  /// containing the rank-⌈p/100·count⌉ recording (≤ 6.25% above the true
  /// value). 0 when empty; p == 100 returns the exact max.
  [[nodiscard]] sim::Nanos percentile(double p) const noexcept {
    const std::int64_t total = count();
    if (total == 0) return 0;
    if (p >= 100.0) return max();
    auto rank = static_cast<std::int64_t>(p / 100.0 * static_cast<double>(total));
    if (rank < 1) rank = 1;
    if (rank > total) rank = total;
    std::int64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      seen += counts_[i].load(std::memory_order_relaxed);
      if (seen >= rank) return bucket_upper_bound(i);
    }
    return max();
  }

  void reset() noexcept {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] static std::size_t bucket_of(sim::Nanos value) noexcept {
    const auto u = static_cast<std::uint64_t>(value);
    if (u < kSubBuckets) return static_cast<std::size_t>(u);
    const int msb = 63 - std::countl_zero(u);
    const int shift = msb - kSubBits;
    const auto top = static_cast<std::size_t>(u >> shift);  // in [16, 32)
    return static_cast<std::size_t>(msb - kSubBits + 1) * kSubBuckets +
           (top - kSubBuckets);
  }

  [[nodiscard]] static sim::Nanos bucket_upper_bound(std::size_t index) noexcept {
    if (index < kSubBuckets) return static_cast<sim::Nanos>(index);
    const std::size_t major = index / kSubBuckets;  // >= 1
    const std::size_t rem = index % kSubBuckets;
    const int shift = static_cast<int>(major) - 1;
    return static_cast<sim::Nanos>(
        ((static_cast<std::uint64_t>(kSubBuckets + rem) + 1) << shift) - 1);
  }

 private:
  std::array<std::atomic<std::int64_t>, kNumBuckets> counts_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<sim::Nanos> max_{0};
};

}  // namespace hcl::obs
