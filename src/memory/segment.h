// Registered memory segments: the unit of "exposed" memory on a node.
//
// A Segment is what a process registers with the (simulated) NIC so that
// remote peers can address it — the analogue of an ibv_reg_mr'd region. It is
// either anonymous heap memory or backed by a memory-mapped file for the
// persistence mode (paper §III.C.6). All segment bytes count against the
// owning node's memory budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "memory/mapped_file.h"
#include "memory/node_memory.h"
#include "sim/time.h"

namespace hcl::mem {

enum class SyncMode : std::uint8_t {
  kNone,     // volatile segment
  kPerOp,    // msync after every mutating operation (strict durability)
  kRelaxed,  // msync on demand / background (paper's relaxed mode)
};

class Segment {
 public:
  Segment() = default;

  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  // Moves must null the source so its destructor does not double-release the
  // node budget.
  Segment(Segment&& other) noexcept { *this = std::move(other); }
  Segment& operator=(Segment&& other) noexcept {
    if (this != &other) {
      destroy();
      owner_ = std::exchange(other.owner_, nullptr);
      heap_ = std::move(other.heap_);
      file_ = std::move(other.file_);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      sync_mode_ = other.sync_mode_;
    }
    return *this;
  }

  ~Segment() { destroy(); }

  /// Create an anonymous (heap) segment of `bytes`, charging `owner`.
  static Result<Segment> create(NodeMemory& owner, std::size_t bytes,
                                sim::Nanos t = 0) {
    Status st = owner.reserve(static_cast<std::int64_t>(bytes), t);
    if (!st.ok()) return st;
    Segment s;
    s.owner_ = &owner;
    s.heap_ = std::make_unique<std::byte[]>(bytes);
    s.data_ = s.heap_.get();
    s.size_ = bytes;
    std::memset(s.data_, 0, bytes);
    return s;
  }

  /// Create a persistent segment backed by `path` (real mmap). An existing
  /// file larger than `bytes` is mapped, and charged, whole.
  static Result<Segment> create_persistent(NodeMemory& owner, std::size_t bytes,
                                           const std::string& path,
                                           SyncMode mode = SyncMode::kPerOp,
                                           sim::Nanos t = 0) {
    Status st = owner.reserve(static_cast<std::int64_t>(bytes), t);
    if (!st.ok()) return st;
    auto file = MappedFile::open(path, bytes);
    if (!file.ok()) {
      owner.release(static_cast<std::int64_t>(bytes), t);
      return file.status();
    }
    const std::size_t mapped = file->size();
    if (mapped > bytes) {
      st = owner.reserve(static_cast<std::int64_t>(mapped - bytes), t);
      if (!st.ok()) {
        owner.release(static_cast<std::int64_t>(bytes), t);
        return st;
      }
    }
    Segment s;
    s.owner_ = &owner;
    s.file_ = std::make_unique<MappedFile>(std::move(file.value()));
    s.data_ = s.file_->data();
    s.size_ = mapped;
    s.sync_mode_ = mode;
    return s;
  }

  /// Grow/shrink the segment (realloc semantics: contents preserved up to
  /// min(old,new), addresses may change). Fails without side effects when
  /// the node budget can't cover the delta.
  Status resize(std::size_t new_bytes, sim::Nanos t = 0) {
    if (data_ == nullptr) return Status::InvalidArgument("resize on empty segment");
    const auto delta =
        static_cast<std::int64_t>(new_bytes) - static_cast<std::int64_t>(size_);
    if (delta > 0) {
      Status st = owner_->reserve(delta, t);
      if (!st.ok()) return st;
    }
    if (file_ != nullptr) {
      Status st = file_->resize(new_bytes);
      if (!st.ok()) {
        if (delta > 0) owner_->release(delta, t);
        return st;
      }
      data_ = file_->data();
    } else {
      auto next = std::make_unique<std::byte[]>(new_bytes);
      const std::size_t keep = new_bytes < size_ ? new_bytes : size_;
      std::memcpy(next.get(), heap_.get(), keep);
      if (new_bytes > keep) std::memset(next.get() + keep, 0, new_bytes - keep);
      heap_ = std::move(next);
      data_ = heap_.get();
    }
    if (delta < 0) owner_->release(-delta, t);
    size_ = new_bytes;
    return Status::Ok();
  }

  /// Flush to backing medium (no-op for volatile segments).
  Status sync() {
    if (file_ == nullptr) return Status::Ok();
    return file_->sync(sync_mode_ != SyncMode::kRelaxed);
  }

  /// Called by containers after a mutating op; honors the SyncMode contract.
  Status sync_after_write() {
    if (file_ == nullptr || sync_mode_ != SyncMode::kPerOp) return Status::Ok();
    return file_->sync(true);
  }

  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool persistent() const noexcept { return file_ != nullptr; }
  [[nodiscard]] SyncMode sync_mode() const noexcept { return sync_mode_; }
  [[nodiscard]] bool valid() const noexcept { return data_ != nullptr; }

  /// Bounds-checked views.
  [[nodiscard]] Status check_range(std::size_t offset, std::size_t len) const {
    if (offset + len > size_ || offset + len < offset) {
      return Status::InvalidArgument("segment range out of bounds");
    }
    return Status::Ok();
  }
  [[nodiscard]] std::byte* at(std::size_t offset) noexcept { return data_ + offset; }
  [[nodiscard]] const std::byte* at(std::size_t offset) const noexcept {
    return data_ + offset;
  }

 private:
  void destroy() noexcept {
    if (owner_ != nullptr && data_ != nullptr) {
      owner_->release(static_cast<std::int64_t>(size_), 0);
    }
    heap_.reset();
    file_.reset();
    data_ = nullptr;
    size_ = 0;
    owner_ = nullptr;
  }

  NodeMemory* owner_ = nullptr;
  std::unique_ptr<std::byte[]> heap_;
  std::unique_ptr<MappedFile> file_;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  SyncMode sync_mode_ = SyncMode::kNone;
};

}  // namespace hcl::mem
