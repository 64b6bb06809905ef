#include "common/status.hpp"

namespace cisqp {

std::string_view StatusCodeName(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kUnauthorized: return "unauthorized";
    case StatusCode::kInfeasible: return "infeasible";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status AlreadyExistsError(std::string message) {
  return Status(StatusCode::kAlreadyExists, std::move(message));
}
Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status UnauthorizedError(std::string message) {
  return Status(StatusCode::kUnauthorized, std::move(message));
}
Status InfeasibleError(std::string message) {
  return Status(StatusCode::kInfeasible, std::move(message));
}
Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

namespace internal {

void CheckFailed(const char* file, int line, const char* expr,
                 const std::string& message) {
  std::ostringstream oss;
  oss << "CISQP_CHECK failed at " << file << ":" << line << ": " << expr;
  if (!message.empty()) oss << " — " << message;
  throw BadStatus(InternalError(oss.str()));
}

}  // namespace internal
}  // namespace cisqp
