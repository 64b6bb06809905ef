// Status / Result: recoverable-error plumbing for the cisqp library.
//
// The library distinguishes two failure classes, following the C++ Core
// Guidelines (E.2, E.3, I.10):
//   * programmer errors (violated preconditions, broken invariants) are
//     reported with CISQP_CHECK / exceptions and are not meant to be caught;
//   * recoverable, data-dependent failures (a query that cannot be parsed, a
//     plan with no safe assignment, an unauthorized release attempted at run
//     time) travel as `Status` / `Result<T>` values so callers can branch on
//     them without exception control flow.
//
// `Status` is a small value type: a code plus a human-readable message.
// `Result<T>` is either a value or a non-OK `Status` (std::expected is C++23;
// this is the C++20 equivalent the library standardizes on).
#pragma once

#include <cassert>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace cisqp {

/// Machine-readable failure category carried by `Status`.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< malformed input (bad SQL, unknown name, bad config)
  kNotFound,          ///< a looked-up entity does not exist
  kAlreadyExists,     ///< an entity with that name/id is already registered
  kFailedPrecondition,///< operation not valid in the current state
  kUnauthorized,      ///< a data release is not covered by any authorization
  kInfeasible,        ///< no safe executor assignment exists (Problem 4.1)
  kResourceExhausted, ///< a configured cap (chase derivations, rows) was hit
  kInternal,          ///< invariant violation escaped as a recoverable error
};

/// Stable lower-case name for a code ("ok", "invalid_argument", ...).
std::string_view StatusCodeName(StatusCode code) noexcept;

/// Value type describing the outcome of an operation.
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept : code_(StatusCode::kOk) {}

  /// Constructs a status with `code` and a diagnostic `message`.
  /// An OK code with a message is allowed but the message is ignored.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return Status(); }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "ok" or "<code-name>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

// Convenience factories mirroring the StatusCode enumerators.
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status FailedPreconditionError(std::string message);
Status UnauthorizedError(std::string message);
Status InfeasibleError(std::string message);
Status ResourceExhaustedError(std::string message);
Status InternalError(std::string message);

/// Exception thrown when a `Result` is dereferenced in error state or a
/// CISQP_CHECK fails: a programmer error, not part of normal control flow.
class BadStatus : public std::logic_error {
 public:
  explicit BadStatus(const Status& status)
      : std::logic_error(status.ToString()), status_(status) {}
  const Status& status() const noexcept { return status_; }

 private:
  Status status_;
};

/// Either a `T` or a non-OK `Status`. The moral equivalent of
/// `std::expected<T, Status>` for C++20.
template <typename T>
class Result {
 public:
  /// Implicit from a value: `return MakeThing();`.
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Implicit from a non-OK status: `return InvalidArgumentError(...)`.
  /// Constructing from an OK status is a programmer error.
  Result(Status status) : rep_(std::move(status)) {  // NOLINT
    if (error().ok()) throw BadStatus(InternalError("Result built from OK status"));
  }

  bool ok() const noexcept { return std::holds_alternative<T>(rep_); }
  explicit operator bool() const noexcept { return ok(); }

  /// The status: OK when a value is held.
  Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(rep_);
  }

  /// Value accessors. Dereferencing an error Result throws BadStatus.
  T& value() & { EnsureOk(); return std::get<T>(rep_); }
  const T& value() const& { EnsureOk(); return std::get<T>(rep_); }
  T&& value() && { EnsureOk(); return std::get<T>(std::move(rep_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Returns the value or `fallback` when in error state.
  T value_or(T fallback) const& { return ok() ? std::get<T>(rep_) : std::move(fallback); }

 private:
  const Status& error() const { return std::get<Status>(rep_); }
  void EnsureOk() const {
    if (!ok()) throw BadStatus(error());
  }

  std::variant<T, Status> rep_;
};

namespace internal {
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& message);
}  // namespace internal

/// Precondition/invariant check that is active in all build modes.
/// Failure indicates a bug in the caller or the library, never bad user data.
#define CISQP_CHECK(expr)                                                  \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::cisqp::internal::CheckFailed(__FILE__, __LINE__, #expr, "");       \
    }                                                                      \
  } while (false)

#define CISQP_CHECK_MSG(expr, msg)                                         \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::ostringstream cisqp_check_oss;                                  \
      cisqp_check_oss << msg; /* NOLINT */                                 \
      ::cisqp::internal::CheckFailed(__FILE__, __LINE__, #expr,            \
                                     cisqp_check_oss.str());               \
    }                                                                      \
  } while (false)

/// Propagates a non-OK Status from an expression producing Status.
#define CISQP_RETURN_IF_ERROR(expr)                   \
  do {                                                \
    ::cisqp::Status cisqp_status__ = (expr);          \
    if (!cisqp_status__.ok()) return cisqp_status__;  \
  } while (false)

/// Evaluates a Result-returning expression; on error returns its status,
/// otherwise assigns the value to `lhs`.
#define CISQP_ASSIGN_OR_RETURN(lhs, expr)            \
  auto CISQP_CONCAT_(cisqp_result__, __LINE__) = (expr);              \
  if (!CISQP_CONCAT_(cisqp_result__, __LINE__).ok())                  \
    return CISQP_CONCAT_(cisqp_result__, __LINE__).status();          \
  lhs = std::move(CISQP_CONCAT_(cisqp_result__, __LINE__)).value()

#define CISQP_CONCAT_INNER_(a, b) a##b
#define CISQP_CONCAT_(a, b) CISQP_CONCAT_INNER_(a, b)

}  // namespace cisqp
