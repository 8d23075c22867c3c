// Durability for container partitions (paper §III.C.6).
//
// The paper maps data-structure memory segments onto files and lets the
// kernel synchronize them ("HCL can map the memory segments to a memory
// mapped file and let the kernel synchronize the contents of the mapped
// memory region to the file"). Our local structures are pointer-rich
// (skiplists, cuckoo tables with out-of-line payloads), so instead of
// mapping the structure bytes directly we write a *log-structured journal*
// into a real memory-mapped file: every mutating operation appends a
// serialized record and msyncs per the SyncMode. Recovery replays the
// journal. This preserves the property the paper claims — per-operation
// kernel-backed durability through mmap/msync — while remaining correct for
// arbitrary payload types (DESIGN.md §5).
//
// Record wire format: [u32 len][u32 checksum][len bytes payload], appended
// sequentially, host byte order. The checksum covers the length and the
// payload. An append writes the payload, the checksum and a zero terminator
// after the record first, and the length word last, so an append cut short
// leaves the zero terminator where its length goes. Replay stops at the first
// record that is empty, overruns the mapping or fails its checksum (a torn
// append whose pages reached the file out of order); the next append
// overwrites from there.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/spin.h"
#include "common/status.h"
#include "memory/mapped_file.h"
#include "memory/node_memory.h"

namespace hcl::mem {

enum class SyncMode : std::uint8_t {
  kPerOp,    // msync each append's bytes (strict durability)
  kRelaxed,  // msync on demand (the paper's relaxed mode)
};

}  // namespace hcl::mem

namespace hcl::core {

/// A journal file mapped whole, its bytes charged to one node's budget.
class PersistLog {
 public:
  /// Open (or create) the journal at `path`, charging `owner`'s budget for
  /// the mapping: `initial_bytes`, or the whole file when it already holds
  /// more. Over budget, nothing is charged. Returned by pointer: the log
  /// owns a lock and is address-stable.
  static Result<std::unique_ptr<PersistLog>> open(
      mem::NodeMemory& owner, const std::string& path, mem::SyncMode mode,
      std::size_t initial_bytes = 1 << 20) {
    const auto initial = static_cast<std::int64_t>(initial_bytes);
    Status st = owner.reserve(initial, 0);
    if (!st.ok()) return st;
    auto file = mem::MappedFile::open(path, initial_bytes);
    if (file.ok() && file->size() > initial_bytes) {
      st = owner.reserve(static_cast<std::int64_t>(file->size()) - initial, 0);
    }
    if (!file.ok() || !st.ok()) {
      owner.release(initial, 0);
      return file.ok() ? st : file.status();
    }
    auto log = std::unique_ptr<PersistLog>(
        new PersistLog(owner, std::move(file.value()), mode));
    log->tail_ = log->replay([](std::span<const std::byte>) {});
    return log;
  }

  PersistLog(const PersistLog&) = delete;
  PersistLog& operator=(const PersistLog&) = delete;
  ~PersistLog() { owner_->release(static_cast<std::int64_t>(file_.size()), 0); }

  /// Append one non-empty serialized record; grows the file as needed
  /// (charging the growth first) and honors the SyncMode (kPerOp => msync
  /// of the record's own bytes before returning, under the lock, since a
  /// concurrent grow may remap the file). A failed append leaves the log
  /// appendable.
  Status append(std::span<const std::byte> payload) {
    if (payload.empty() ||
        payload.size() > std::numeric_limits<std::uint32_t>::max()) {
      return Status::InvalidArgument("journal: record size out of range");
    }
    const auto len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t sum = checksum(payload);
    const std::uint32_t terminator = 0;
    std::lock_guard<SpinLock> guard(lock_);
    const std::size_t end = tail_ + kHeader + payload.size();
    if (end + 4 > file_.size()) {
      Status st = grow(end + 4);
      if (!st.ok()) return st;
    }
    std::byte* at = file_.data() + tail_;
    std::memcpy(at + kHeader, payload.data(), payload.size());
    std::memcpy(at + 4, &sum, 4);
    std::memcpy(at + kHeader + payload.size(), &terminator, 4);
    std::atomic_thread_fence(std::memory_order_release);
    std::memcpy(at, &len, 4);
    const std::size_t start = std::exchange(tail_, end);
    return mode_ == mem::SyncMode::kPerOp ? file_.sync(start, end + 4 - start)
                                          : Status::Ok();
  }

  /// Replay every valid record in append order, and answer where the next
  /// append goes: the end of the last one.
  std::size_t replay(
      const std::function<void(std::span<const std::byte>)>& visit) const {
    std::size_t cursor = 0;
    while (cursor + kHeader <= file_.size()) {
      std::uint32_t len = 0;
      std::uint32_t sum = 0;
      std::memcpy(&len, file_.data() + cursor, 4);
      std::memcpy(&sum, file_.data() + cursor + 4, 4);
      if (len == 0 || len > file_.size() - cursor - kHeader) break;
      const std::span<const std::byte> payload(file_.data() + cursor + kHeader,
                                               len);
      if (checksum(payload) != sum) break;
      visit(payload);
      cursor += kHeader + len;
    }
    return cursor;
  }

  /// Force a flush: MS_SYNC under kPerOp, MS_ASYNC under kRelaxed.
  Status sync() {
    return file_.sync(0, file_.size(), mode_ == mem::SyncMode::kPerOp);
  }

  [[nodiscard]] std::size_t bytes_logged() const noexcept { return tail_; }

 private:
  /// The length word and the checksum ahead of each payload.
  static constexpr std::size_t kHeader = 8;

  PersistLog(mem::NodeMemory& owner, mem::MappedFile file, mem::SyncMode mode)
      : owner_(&owner), file_(std::move(file)), mode_(mode) {}

  /// Double the mapping until `need` bytes fit; the growth is charged before
  /// the file grows and handed back if it cannot.
  Status grow(std::size_t need) {
    std::size_t next = file_.size() * 2;
    while (next < need) next *= 2;
    const auto delta = static_cast<std::int64_t>(next - file_.size());
    Status st = owner_->reserve(delta, 0);
    if (!st.ok()) return st;
    st = file_.resize(next);
    if (!st.ok()) owner_->release(delta, 0);
    return st;
  }

  /// The record checksum: the payload's 8-byte words (the last zero-padded)
  /// folded round-robin into four multiply-rotate lanes seeded with the
  /// length, merged and mixed down to 32 bits. Each step is a bijection of
  /// the word it takes, so any one changed word changes the 64-bit state
  /// that is folded into the sum.
  static std::uint32_t checksum(std::span<const std::byte> payload) {
    constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
    constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
    const auto round = [](std::uint64_t acc, std::uint64_t word) {
      return std::rotl(acc + word * kP2, 31) * kP1;
    };
    const auto word_at = [&](std::size_t i) {
      std::uint64_t w = 0;
      std::memcpy(&w, payload.data() + i, 8);
      return w;
    };
    const std::size_t n = payload.size();
    std::uint64_t lane[4] = {n, n + kP1, n + kP2, n - kP1};
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      for (std::size_t l = 0; l < 4; ++l) {
        lane[l] = round(lane[l], word_at(i + 8 * l));
      }
    }
    for (std::size_t l = 0; i + 8 <= n; i += 8, ++l) {
      lane[l] = round(lane[l], word_at(i));
    }
    std::uint64_t last = 0;
    std::memcpy(&last, payload.data() + i, n - i);
    const std::uint64_t h =
        mix64(round(std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
                        std::rotl(lane[2], 12) + std::rotl(lane[3], 18),
                    last));
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  mem::NodeMemory* owner_;
  mem::MappedFile file_;
  mem::SyncMode mode_;
  std::size_t tail_ = 0;
  SpinLock lock_;
};

}  // namespace hcl::core
