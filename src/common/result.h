// Error-handling primitives for the SAND library.
//
// The library does not throw exceptions across module boundaries; fallible
// operations return Status (void result) or Result<T> (value-or-error),
// mirroring the expected<> idiom recommended by the C++ Core Guidelines for
// systems code.

#ifndef SAND_COMMON_RESULT_H_
#define SAND_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace sand {

// Canonical error space, loosely following POSIX/absl categories. Kept small
// on purpose: callers branch on a handful of conditions, everything else is
// diagnostic text.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kUnavailable,
  kDataLoss,
  kInternal,
};

// Human-readable name of an ErrorCode ("NOT_FOUND", ...).
const char* ErrorCodeName(ErrorCode code);

// A success-or-error value. Cheap to copy on success (empty message).
class Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  Status(ErrorCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "NOT_FOUND: no such view" — for logs and test failure output.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

// Convenience constructors, e.g. InvalidArgument("bad stride").
Status InvalidArgument(std::string message);
Status NotFound(std::string message);
Status AlreadyExists(std::string message);
Status OutOfRange(std::string message);
Status ResourceExhausted(std::string message);
Status FailedPrecondition(std::string message);
Status Unavailable(std::string message);
Status DataLoss(std::string message);
Status Internal(std::string message);

// Value-or-Status. The invariant is: exactly one of {value, error-status}
// is present; a default-constructed Result is an Internal error.
template <typename T>
class Result {
 public:
  Result() : data_(Internal("uninitialized Result")) {}
  Result(T value) : data_(std::move(value)) {}        // NOLINT(google-explicit-constructor)
  Result(Status status) : data_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(data_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOk = Status::Ok();
    if (ok()) {
      return kOk;
    }
    return std::get<Status>(data_);
  }

  T& value() {
    assert(ok());
    return std::get<T>(data_);
  }
  const T& value() const {
    assert(ok());
    return std::get<T>(data_);
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  // Moves the value out; Result must hold a value.
  T TakeValue() {
    assert(ok());
    return std::move(std::get<T>(data_));
  }

  // Returns the value or `fallback` when this holds an error.
  T ValueOr(T fallback) const { return ok() ? std::get<T>(data_) : std::move(fallback); }

 private:
  std::variant<T, Status> data_;
};

// The status of a Status or a Result, for code generic over both.
inline const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const Result<T>& result) {
  return result.status();
}

}  // namespace sand

// Propagates errors upward: `SAND_RETURN_IF_ERROR(DoThing());`
#define SAND_RETURN_IF_ERROR(expr)           \
  do {                                       \
    ::sand::Status sand_status_ = (expr);    \
    if (!sand_status_.ok()) {                \
      return sand_status_;                   \
    }                                        \
  } while (0)

// Declares `lhs` from a Result-returning expression, or propagates the error:
// `SAND_ASSIGN_OR_RETURN(auto frame, decoder.Decode(i));`
#define SAND_ASSIGN_OR_RETURN(lhs, expr)                   \
  SAND_ASSIGN_OR_RETURN_IMPL_(SAND_CONCAT_(sand_res_, __LINE__), lhs, expr)
#define SAND_CONCAT_INNER_(a, b) a##b
#define SAND_CONCAT_(a, b) SAND_CONCAT_INNER_(a, b)
#define SAND_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) {                                  \
    return tmp.status();                            \
  }                                                 \
  lhs = std::move(tmp).TakeValue()

#endif  // SAND_COMMON_RESULT_H_
