// Real memory-mapped backing files for DataBox persistency (paper §III.C.6).
//
// This is one of the pieces that is NOT simulated: a persist journal
// (core/persist_log.h) really maps a file with mmap(2), and sync() really calls msync(2), so the
// durability tests exercise the kernel path the paper describes ("map the
// memory segments to a memory mapped file and let the kernel synchronize the
// contents of the mapped memory region to the file").
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <string>
#include <utility>

#include "common/status.h"

namespace hcl::mem {

class MappedFile {
 public:
  MappedFile() = default;

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      path_ = std::move(other.path_);
    }
    return *this;
  }

  ~MappedFile() { close(); }

  /// Open (creating if needed) `path` and map it read/write: `size` bytes,
  /// or the whole file when it already holds more. Reopening never truncates,
  /// so a file that grew past its initial size keeps every byte.
  static Result<MappedFile> open(const std::string& path, std::size_t size) {
    MappedFile f;
    f.path_ = path;
    f.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (f.fd_ < 0) {
      return Status::Internal("open(" + path + "): " + std::strerror(errno));
    }
    struct stat st {};
    if (::fstat(f.fd_, &st) != 0) {
      return Status::Internal("fstat(" + path + "): " + std::strerror(errno));
    }
    const auto existing = static_cast<std::size_t>(st.st_size);
    if (existing >= size) {
      size = existing;
    } else if (::ftruncate(f.fd_, static_cast<off_t>(size)) != 0) {
      return Status::Internal("ftruncate(" + path + "): " + std::strerror(errno));
    }
    void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, f.fd_, 0);
    if (p == MAP_FAILED) {
      return Status::Internal("mmap(" + path + "): " + std::strerror(errno));
    }
    f.data_ = static_cast<std::byte*>(p);
    f.size_ = size;
    return f;
  }

  /// Grow (or shrink) the mapping; remaps, so pointers into it invalidate —
  /// matches the paper's realloc-on-resize semantics.
  Status resize(std::size_t new_size) {
    if (data_ == nullptr) return Status::InvalidArgument("resize on closed mapping");
    if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
      return Status::Internal("ftruncate: " + std::string(std::strerror(errno)));
    }
#if defined(__linux__)
    void* p = ::mremap(data_, size_, new_size, MREMAP_MAYMOVE);
    if (p == MAP_FAILED) {
      return Status::Internal("mremap: " + std::string(std::strerror(errno)));
    }
#else
    if (::munmap(data_, size_) != 0) {
      return Status::Internal("munmap: " + std::string(std::strerror(errno)));
    }
    void* p = ::mmap(nullptr, new_size, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    if (p == MAP_FAILED) {
      return Status::Internal("mmap: " + std::string(std::strerror(errno)));
    }
#endif
    data_ = static_cast<std::byte*>(p);
    size_ = new_size;
    return Status::Ok();
  }

  /// Flush the dirty pages of [offset, offset + length) to the device; the
  /// start rounds down to its page, as msync(2) requires. `synchronous`
  /// maps to MS_SYNC (the per-operation durability mode); otherwise
  /// MS_ASYNC (relaxed mode). A range outside the mapping is refused.
  Status sync(std::size_t offset, std::size_t length, bool synchronous = true) {
    if (data_ == nullptr) return Status::InvalidArgument("sync on closed mapping");
    if (offset > size_ || length > size_ - offset) {
      return Status::InvalidArgument("sync: range outside the mapping");
    }
    const std::size_t start =
        offset - offset % static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    if (::msync(data_ + start, offset + length - start,
                synchronous ? MS_SYNC : MS_ASYNC) != 0) {
      return Status::Internal("msync: " + std::string(std::strerror(errno)));
    }
    return Status::Ok();
  }

  void close() noexcept {
    if (data_ != nullptr) {
      ::munmap(data_, size_);
      data_ = nullptr;
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    size_ = 0;
  }

  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] bool is_open() const noexcept { return data_ != nullptr; }

 private:
  int fd_ = -1;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

}  // namespace hcl::mem
