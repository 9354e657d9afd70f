// Status / Result error-handling primitives (Arrow/RocksDB idiom).
//
// Recoverable errors cross module boundaries as `Status` or `Result<T>`
// values instead of exceptions. Fatal programming errors (out-of-bounds
// shapes, contract violations) abort via SGNN_CHECK.

#ifndef SGNN_TENSOR_STATUS_H_
#define SGNN_TENSOR_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

namespace sgnn {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfMemory,     ///< Simulated accelerator OOM (see tensor/device.h).
  kNotFound,
  kFailedPrecondition,
  kIOError,
  kNotImplemented,
  kInternal,
  kNumericalError,     ///< NaN/Inf divergence detected by a run guard.
  kDeadlineExceeded,   ///< Per-run wall-clock deadline hit (cell TIMEOUT).
  kUnavailable,        ///< Overloaded: admission control shed the request.
                       ///< Retryable (runtime::RetryWithBackoff backs off on
                       ///< exactly this code); every other code is terminal.
};

/// A success-or-error value. Cheap to copy on the OK path.
///
/// The class-level [[nodiscard]] makes *every* function returning a Status
/// by value warn (and, with -Werror=unused-result, fail to compile) when the
/// caller drops it on the floor — a dropped OOM or fault-injection status
/// would otherwise silently corrupt a benchmark cell. `sgnn_lint`'s
/// discarded-status rule enforces the same contract on paths the compiler
/// does not see (see docs/LINT.md).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NumericalError(std::string msg) {
    return Status(StatusCode::kNumericalError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string.
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) + ": " + message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  static const char* CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kOutOfMemory: return "OutOfMemory";
      case StatusCode::kNotFound: return "NotFound";
      case StatusCode::kFailedPrecondition: return "FailedPrecondition";
      case StatusCode::kIOError: return "IOError";
      case StatusCode::kNotImplemented: return "NotImplemented";
      case StatusCode::kInternal: return "Internal";
      case StatusCode::kNumericalError: return "NumericalError";
      case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
      case StatusCode::kUnavailable: return "Unavailable";
    }
    return "Unknown";
  }

  StatusCode code_;
  std::string message_;
};

/// A value-or-error union, in the spirit of arrow::Result<T>. Like Status,
/// the class itself is [[nodiscard]]: dropping a Result drops its error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit by design: `return value;` and `return SomeStatus();` are the
  /// API — both conversions are the whole point of a value-or-error union.
  Result(T value) : repr_(std::move(value)) {}
  Result(Status status) : repr_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    if (ok()) return kOk;
    return std::get<Status>(repr_);
  }

  /// Returns the contained value; must only be called when ok().
  T& value() { return std::get<T>(repr_); }
  const T& value() const { return std::get<T>(repr_); }

  /// Moves the contained value out; must only be called when ok().
  T&& MoveValue() { return std::move(std::get<T>(repr_)); }

  /// Returns the contained value, or `fallback` when this holds an error.
  T value_or(T fallback) const {
    if (ok()) return std::get<T>(repr_);
    return fallback;
  }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace sgnn

/// Aborts with a message when `cond` is false. For contract violations only.
#define SGNN_CHECK(cond, msg)                                            \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "SGNN_CHECK failed at %s:%d: %s\n", __FILE__, \
                   __LINE__, msg);                                       \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

/// Propagates a non-OK Status to the caller.
#define SGNN_RETURN_IF_ERROR(expr)          \
  do {                                      \
    ::sgnn::Status _st = (expr);            \
    if (!_st.ok()) return _st;              \
  } while (0)

#define SGNN_STATUS_CONCAT_INNER_(a, b) a##b
#define SGNN_STATUS_CONCAT_(a, b) SGNN_STATUS_CONCAT_INNER_(a, b)

/// Evaluates `rexpr` (a Result<T> expression); on error returns its Status
/// to the caller, otherwise move-assigns the value into `lhs`. `lhs` may be
/// a declaration ("auto c, LoadCheckpoint(p)") or an existing lvalue.
#define SGNN_ASSIGN_OR_RETURN(lhs, rexpr)                             \
  SGNN_ASSIGN_OR_RETURN_IMPL_(                                        \
      SGNN_STATUS_CONCAT_(_sgnn_result_, __COUNTER__), lhs, rexpr)

#define SGNN_ASSIGN_OR_RETURN_IMPL_(result, lhs, rexpr) \
  auto result = (rexpr);                                \
  if (!result.ok()) return result.status();             \
  lhs = result.MoveValue()

/// Aborts with the status message when `expr` (a Status or Result<T>
/// expression) is not OK. For tests, benches, and tool main()s whose callers
/// cannot propagate a Status — library code uses SGNN_RETURN_IF_ERROR
/// instead. Evaluates `expr` exactly once.
#define SGNN_CHECK_OK(expr)                                               \
  do {                                                                    \
    const auto& _sgnn_ok_ref = (expr);                                    \
    if (!_sgnn_ok_ref.ok()) {                                             \
      std::fprintf(stderr, "SGNN_CHECK_OK failed at %s:%d: %s\n",         \
                   __FILE__, __LINE__,                                    \
                   ::sgnn::internal::StatusOf(_sgnn_ok_ref)               \
                       .ToString()                                        \
                       .c_str());                                         \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

namespace sgnn::internal {
/// Uniform Status access for SGNN_CHECK_OK: works for both Status (which is
/// its own status) and Result<T> (which carries one).
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
inline const Status& StatusOf(const Result<T>& r) {
  return r.status();
}
}  // namespace sgnn::internal

#endif  // SGNN_TENSOR_STATUS_H_
