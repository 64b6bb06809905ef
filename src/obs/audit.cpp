#include "obs/audit.hpp"

#include <sstream>

namespace cisqp::obs {

std::string_view AuditSiteName(AuditSite site) noexcept {
  switch (site) {
    case AuditSite::kPlanner: return "planner";
    case AuditSite::kVerifier: return "verifier";
    case AuditSite::kExecutor: return "executor";
    case AuditSite::kRequestor: return "requestor";
  }
  return "unknown";
}

std::string AuditEntry::ToString() const {
  std::ostringstream oss;
  oss << (allowed ? "ALLOW" : "DENY ") << " [" << AuditSiteName(site) << "]";
  if (node_id >= 0) oss << " n" << node_id;
  oss << " -> " << server << ": " << profile;
  if (allowed && !matched.empty()) oss << " via " << matched;
  if (!allowed && !reason.empty()) oss << " — " << reason;
  if (!detail.empty()) oss << " (" << detail << ")";
  return oss.str();
}

AuthzAuditLog& AuthzAuditLog::Get() {
  static AuthzAuditLog log;
  return log;
}

void AuthzAuditLog::Enable() {
  Clear();
  enabled_.store(true, std::memory_order_relaxed);
}

void AuthzAuditLog::Clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  allowed_ = 0;
  denied_ = 0;
}

void AuthzAuditLog::Record(AuditEntry entry) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (entry.allowed) {
    ++allowed_;
  } else {
    ++denied_;
  }
  entries_.push_back(std::move(entry));
}

std::string AuthzAuditLog::ToText() const {
  std::ostringstream oss;
  for (const AuditEntry& entry : entries_) {
    oss << entry.ToString() << "\n";
  }
  return oss.str();
}

std::string AuthzAuditLog::ToJson() const {
  std::ostringstream oss;
  oss << "{\"entries\":[";
  bool first = true;
  for (const AuditEntry& entry : entries_) {
    if (!first) oss << ",";
    first = false;
    oss << "{\"decision\":\"" << (entry.allowed ? "allow" : "deny")
        << "\",\"site\":\"" << AuditSiteName(entry.site)
        << "\",\"node\":" << entry.node_id << ",\"server\":\""
        << JsonEscape(entry.server) << "\",\"profile\":\""
        << JsonEscape(entry.profile) << "\"";
    if (!entry.matched.empty()) {
      oss << ",\"matched\":\"" << JsonEscape(entry.matched) << "\"";
    }
    if (!entry.reason.empty()) {
      oss << ",\"reason\":\"" << JsonEscape(entry.reason) << "\"";
    }
    if (!entry.detail.empty()) {
      oss << ",\"detail\":\"" << JsonEscape(entry.detail) << "\"";
    }
    oss << "}";
  }
  oss << "]}";
  return oss.str();
}

}  // namespace cisqp::obs
