// AuthzAuditLog: a structured, append-only record of authorization decisions.
//
// The paper's guarantees live or die on individual CanView verdicts — a
// candidate the planner rejected, a release the verifier flagged, a shipment
// the executor refused. When the audit log is enabled, every such decision
// appends one entry naming the check site, the plan node, the candidate
// server, the view profile that was checked, and either the covering
// authorization (allow) or the first failed condition — join-path mismatch
// vs. attribute coverage (deny). A denied plan or a tripped runtime
// enforcement is then explainable line by line.
//
// Entries carry pre-rendered catalog names (the recording sites all hold the
// catalog), keeping this module dependency-free below `common` and the
// rendering cost strictly inside the enabled path. Disabled by default;
// recording is one bool check when off and folds away under
// -DCISQP_OBS_DISABLED.
//
// Appends are thread-safe (DESIGN.md §9): check sites running on pool
// workers — e.g. the per-order SafePlanner probes of the parallel plan
// search — serialize on one mutex. Entry *order* is execution order, which
// under parallel planning is nondeterministic across runs; the entry set is
// not. The readers are for quiescent code.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace cisqp::obs {

/// Which layer performed the authorization check.
enum class AuditSite : std::uint8_t {
  kPlanner,    ///< SafePlanner candidate probe (Fig. 6 Find_candidates)
  kVerifier,   ///< independent assignment verification (Def. 3.3 per release)
  kExecutor,   ///< runtime release enforcement on a physical shipment
  kRequestor,  ///< final-result delivery check for the querying party
};

std::string_view AuditSiteName(AuditSite site) noexcept;

/// One authorization decision.
struct AuditEntry {
  bool allowed = false;
  AuditSite site = AuditSite::kPlanner;
  int node_id = -1;       ///< plan node the check belongs to, -1 if none
  std::string server;     ///< candidate recipient (catalog name)
  std::string profile;    ///< the view profile checked, rendered
  std::string matched;    ///< allow: the covering authorization, rendered
  std::string reason;     ///< deny: the first failed condition
  std::string detail;     ///< role / flow description from the check site

  /// "ALLOW [executor] n2 -> S_N: profile ... via rule ..." one-liner.
  std::string ToString() const;
};

/// Process-wide append-only decision log.
class AuthzAuditLog {
 public:
  static AuthzAuditLog& Get();

  /// Starts a fresh recording.
  void Enable();
  void Disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const noexcept {
    return ObsEnabled() && enabled_.load(std::memory_order_relaxed);
  }
  void Clear();

  void Record(AuditEntry entry);

  /// Read-only view; call only while no thread is recording.
  const std::vector<AuditEntry>& entries() const noexcept { return entries_; }
  std::size_t allowed_count() const noexcept { return allowed_; }
  std::size_t denied_count() const noexcept { return denied_; }

  /// One entry per line, execution order.
  std::string ToText() const;
  /// {"entries":[{...}]}.
  std::string ToJson() const;

 private:
  static constexpr bool ObsEnabled() noexcept { return kObsCompiledIn; }

  std::atomic<bool> enabled_{false};
  std::mutex mu_;  ///< guards entries_ and the counts
  std::size_t allowed_ = 0;
  std::size_t denied_ = 0;
  std::vector<AuditEntry> entries_;
};

}  // namespace cisqp::obs
