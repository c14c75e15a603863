#ifndef CCPI_UTIL_STATUS_H_
#define CCPI_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "util/check.h"

namespace ccpi {

/// Machine-readable category of an error. Mirrors the coarse error taxonomy
/// used by Arrow/RocksDB-style database libraries: the category tells the
/// caller what *kind* of recovery is possible, the message tells a human what
/// happened.
enum class StatusCode {
  kOk = 0,
  /// Input violated a documented precondition (malformed syntax, unsafe
  /// rule, arity mismatch, ...).
  kInvalidArgument,
  /// The request is meaningful but outside the decidable / implemented
  /// fragment (e.g., subsumption between recursive programs, which the paper
  /// notes is undecidable per Shmueli [1987]).
  kUnsupported,
  /// An entity (predicate, relation, constraint) was not found.
  kNotFound,
  /// Internal invariant failure surfaced as a recoverable error.
  kInternal,
  /// A remote site (or other dependency) did not answer; the operation may
  /// succeed if retried later. The only code the retry layer retries.
  kUnavailable,
  /// The operation gave up waiting (simulated timeout). Retriable, like
  /// kUnavailable, but distinguished so fault statistics can separate slow
  /// links from dead ones.
  kDeadlineExceeded,
  /// The operation ran out of its execution budget (wall-clock deadline,
  /// fixpoint-round / derived-tuple cap, or cooperative
  /// cancellation — see util/budget.h). NOT retriable: retrying would spend
  /// the same exhausted envelope again. The manager sheds such checks to
  /// the deferred queue instead; see docs/budgets.md for how this differs
  /// from kUnavailable.
  kResourceExhausted,
};

/// True for the codes that signal a transient condition worth retrying
/// (kUnavailable, kDeadlineExceeded) rather than a caller mistake.
bool IsRetriable(StatusCode code);

/// Returns the canonical spelling of a code ("OK", "Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// Result of an operation that can fail without a payload.
///
/// Cheap to copy in the OK case (no allocation). Follows the Google style
/// guidance of signalling recoverable errors by value rather than by
/// exception; every fallible public API in ccpi returns Status or Result<T>.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code>: <message>" for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A value or an error. `Result<T>` is the payload-carrying counterpart of
/// Status; dereferencing a non-OK result aborts (programming error).
template <typename T>
class Result {
 public:
  /// Implicit from value and from Status so call sites can `return value;`
  /// or `return Status::InvalidArgument(...)`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                          // NOLINT(runtime/explicit)
      : value_(std::move(status)) {
    CCPI_CHECK(!std::get<Status>(value_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(value_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(value_);
  }

  const T& value() const& {
    CCPI_CHECK(ok());
    return std::get<T>(value_);
  }
  T& value() & {
    CCPI_CHECK(ok());
    return std::get<T>(value_);
  }
  T&& value() && {
    CCPI_CHECK(ok());
    return std::move(std::get<T>(value_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> value_;
};

/// Propagates a non-OK Status out of the enclosing function.
#define CCPI_RETURN_IF_ERROR(expr)          \
  do {                                      \
    ::ccpi::Status _st = (expr);            \
    if (!_st.ok()) return _st;              \
  } while (0)

/// Assigns the value of a Result expression or propagates its error.
#define CCPI_ASSIGN_OR_RETURN(lhs, expr)         \
  auto CCPI_CONCAT_(_res_, __LINE__) = (expr);   \
  if (!CCPI_CONCAT_(_res_, __LINE__).ok())       \
    return CCPI_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(CCPI_CONCAT_(_res_, __LINE__)).value()

#define CCPI_CONCAT_INNER_(a, b) a##b
#define CCPI_CONCAT_(a, b) CCPI_CONCAT_INNER_(a, b)

}  // namespace ccpi

#endif  // CCPI_UTIL_STATUS_H_
