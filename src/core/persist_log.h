// Durability for container partitions (paper §III.C.6).
//
// The paper maps data-structure memory segments onto files and lets the
// kernel synchronize them ("HCL can map the memory segments to a memory
// mapped file and let the kernel synchronize the contents of the mapped
// memory region to the file"). Our local structures are pointer-rich
// (skiplists, cuckoo tables with out-of-line payloads), so instead of
// mapping the structure bytes directly we write a *log-structured journal*
// through a real memory-mapped Segment: every mutating operation appends a
// serialized record and msyncs per the SyncMode. Recovery replays the
// journal. This preserves the property the paper claims — per-operation
// kernel-backed durability through mmap/msync — while remaining correct for
// arbitrary payload types (DESIGN.md §5).
//
// Record wire format: [u32 len][len bytes payload], appended sequentially.
// A record with len 0 (or a truncated tail) terminates replay.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/spin.h"
#include "common/status.h"
#include "memory/segment.h"

namespace hcl::core {

class PersistLog {
 public:
  /// Open (or create) the journal at `path`, charging `owner`'s budget.
  /// Returned by pointer: the log owns a lock and is address-stable.
  static Result<std::unique_ptr<PersistLog>> open(
      mem::NodeMemory& owner, const std::string& path, mem::SyncMode mode,
      std::size_t initial_bytes = 1 << 20) {
    auto segment =
        mem::Segment::create_persistent(owner, initial_bytes, path, mode);
    if (!segment.ok()) return segment.status();
    auto log = std::unique_ptr<PersistLog>(new PersistLog());
    log->segment_ = std::move(segment.value());
    log->tail_ = log->scan_tail();
    return log;
  }

  PersistLog(const PersistLog&) = delete;
  PersistLog& operator=(const PersistLog&) = delete;

  /// Append one serialized record; grows the backing file as needed and
  /// honors the segment's SyncMode (kPerOp => msync before returning).
  Status append(std::span<const std::byte> payload) {
    std::lock_guard<SpinLock> guard(lock_);
    const std::size_t need = tail_ + 4 + payload.size() + 4;  // +4 terminator
    if (need > segment_.size()) {
      std::size_t next = segment_.size() * 2;
      while (next < need) next *= 2;
      Status st = segment_.resize(next);
      if (!st.ok()) return st;
    }
    const auto len = static_cast<std::uint32_t>(payload.size());
    std::memcpy(segment_.at(tail_), &len, 4);
    if (!payload.empty()) {
      std::memcpy(segment_.at(tail_ + 4), payload.data(), payload.size());
    }
    // Zero terminator so replay stops cleanly.
    const std::uint32_t zero = 0;
    std::memcpy(segment_.at(tail_ + 4 + payload.size()), &zero, 4);
    tail_ += 4 + payload.size();
    return segment_.sync_after_write();
  }

  /// Replay every record in append order.
  void replay(const std::function<void(std::span<const std::byte>)>& visit) const {
    std::size_t cursor = 0;
    while (cursor + 4 <= segment_.size()) {
      std::uint32_t len = 0;
      std::memcpy(&len, segment_.at(cursor), 4);
      if (len == 0 || cursor + 4 + len > segment_.size()) break;
      visit(std::span<const std::byte>(segment_.at(cursor + 4), len));
      cursor += 4 + len;
    }
  }

  /// Force a flush regardless of SyncMode (relaxed mode's explicit sync).
  Status sync() { return segment_.sync(); }

  [[nodiscard]] std::size_t bytes_logged() const noexcept { return tail_; }
  [[nodiscard]] bool valid() const noexcept { return segment_.valid(); }

 private:
  /// Find the end of the existing journal on open (recovery).
  [[nodiscard]] std::size_t scan_tail() const {
    std::size_t end = 0;
    replay([&](std::span<const std::byte> record) {
      end = static_cast<std::size_t>(record.data() - segment_.at(0)) +
            record.size();
    });
    return end;
  }

  PersistLog() = default;

  mem::Segment segment_;
  std::size_t tail_ = 0;
  SpinLock lock_;
};

}  // namespace hcl::core
