// Lightweight status / status-or-value vocabulary types used across HCL.
//
// HCL is exception-light on hot paths: fabric and container operations
// return `Status` / `Result<T>` so callers can react to simulated-resource
// exhaustion (e.g. a node memory budget) without unwinding. Exceptions are
// reserved for programming errors (misuse of the API).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace hcl {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kNotFound,        // lookup missed (find on absent key, pop on empty queue)
  kAlreadyExists,   // insert on duplicate key where duplicates are rejected
  kOutOfMemory,     // node memory budget or allocator exhausted
  kCapacity,        // fixed-capacity structure full (BCL static partitions)
  kRetry,           // transient conflict, caller may retry (CAS loss)
  kInvalidArgument, // caller misuse detected at runtime
  kUnavailable,     // target endpoint/partition not reachable (transient)
  kInternal,        // invariant violation; indicates a bug
  kDeadlineExceeded,    // invocation deadline expired (timeout/lost request)
  kFailedPrecondition,  // object not in a state where the call is legal
  kAborted,             // txn validate/lock conflict; roll back, retry the TXN
};

/// Human-readable name for a status code (stable, for logs and tests).
constexpr std::string_view to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kOutOfMemory: return "OUT_OF_MEMORY";
    case StatusCode::kCapacity: return "CAPACITY";
    case StatusCode::kRetry: return "RETRY";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kAborted: return "ABORTED";
  }
  return "UNKNOWN";
}

/// True for outcomes a client may transparently retry: the operation did not
/// (observably) execute, or executing it again is harmless. Used by the RPC
/// engine's retry-with-backoff policy. kAborted is deliberately NOT here —
/// a transaction conflict must surface to the TxnCoordinator, which rolls
/// every intent back before re-running the whole transaction; re-sending the
/// one RPC would re-validate against an already-released lock slot.
constexpr bool is_retryable(StatusCode code) noexcept {
  return code == StatusCode::kUnavailable || code == StatusCode::kRetry;
}

/// A cheap, copyable operation outcome. `Status::ok()` is the common case and
/// carries no allocation; failure statuses may carry a short message.
class Status {
 public:
  Status() noexcept = default;
  explicit Status(StatusCode code) noexcept : code_(code) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status Ok() noexcept { return Status{}; }
  [[nodiscard]] static Status NotFound(std::string m = {}) {
    return {StatusCode::kNotFound, std::move(m)};
  }
  [[nodiscard]] static Status AlreadyExists(std::string m = {}) {
    return {StatusCode::kAlreadyExists, std::move(m)};
  }
  [[nodiscard]] static Status OutOfMemory(std::string m = {}) {
    return {StatusCode::kOutOfMemory, std::move(m)};
  }
  [[nodiscard]] static Status Capacity(std::string m = {}) {
    return {StatusCode::kCapacity, std::move(m)};
  }
  [[nodiscard]] static Status Retry(std::string m = {}) {
    return {StatusCode::kRetry, std::move(m)};
  }
  [[nodiscard]] static Status InvalidArgument(std::string m = {}) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  [[nodiscard]] static Status Unavailable(std::string m = {}) {
    return {StatusCode::kUnavailable, std::move(m)};
  }
  [[nodiscard]] static Status Internal(std::string m = {}) {
    return {StatusCode::kInternal, std::move(m)};
  }
  [[nodiscard]] static Status DeadlineExceeded(std::string m = {}) {
    return {StatusCode::kDeadlineExceeded, std::move(m)};
  }
  [[nodiscard]] static Status FailedPrecondition(std::string m = {}) {
    return {StatusCode::kFailedPrecondition, std::move(m)};
  }
  [[nodiscard]] static Status Aborted(std::string m = {}) {
    return {StatusCode::kAborted, std::move(m)};
  }

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  [[nodiscard]] std::string to_string() const {
    std::string out{hcl::to_string(code_)};
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Thrown on API misuse, broken internal invariants, and failures a caller
/// asked to receive as an exception (Future::get, Result::value). Routine
/// outcomes travel as a Status instead: a server stub refuses an op by
/// setting rpc::ServerCtx::status, which is how OCC prepare aborts reach
/// the txn coordinator without an unwind on either side (DESIGN.md §5c).
class HclError : public std::runtime_error {
 public:
  explicit HclError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}
  [[nodiscard]] StatusCode code() const noexcept { return status_.code(); }
  /// The status thrown. Pass this on rather than Status(code(), what()):
  /// what() already carries the code, so rewrapping it repeats the code.
  [[nodiscard]] const Status& status() const noexcept { return status_; }

 private:
  Status status_;
};

/// Result<T>: either a value or a failure Status. A minimal `expected`
/// substitute (toolchain-independent) with the subset of the interface the
/// codebase needs.
template <typename T>
class Result {
 public:
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : storage_(std::move(status)) {  // NOLINT
    if (std::get<Status>(storage_).ok()) {
      throw HclError(Status::Internal("Result constructed from OK status"));
    }
  }

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(storage_);
  }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(storage_);
  }

  [[nodiscard]] T& value() & {
    check();
    return std::get<T>(storage_);
  }
  [[nodiscard]] const T& value() const& {
    check();
    return std::get<T>(storage_);
  }
  [[nodiscard]] T&& value() && {
    check();
    return std::get<T>(std::move(storage_));
  }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<T>(storage_) : std::move(fallback);
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  void check() const {
    if (!ok()) throw HclError(std::get<Status>(storage_));
  }
  std::variant<T, Status> storage_;
};

/// Aborts via exception if a status is not OK; used at initialization
/// boundaries where failure is unrecoverable.
inline void throw_if_error(const Status& status) {
  if (!status.ok()) throw HclError(status);
}

}  // namespace hcl
