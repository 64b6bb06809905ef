// SafePlanner: the paper's two-traversal algorithm (Fig. 6) for Problem 4.1 —
// given a query tree plan and an authorization set, decide feasibility and
// produce a safe executor assignment λ_T.
//
// Traversal 1, Find_candidates (post-order): computes each node's profile
// (Fig. 4) and its candidate master servers. For a join it first searches the
// left child's candidates — in decreasing join-counter order — for one that
// may act as slave of a right-master semi-join; every right-child candidate
// is then admitted as master if it can view the semi-join master view (when
// a slave exists) or, failing that, the full regular-join view. The check is
// then repeated symmetrically. Candidate counters track in how many joins of
// the subtree the server participates; see DESIGN.md §2.2-2.3 for the two
// spots where the printed pseudocode is ambiguous and how this implementation
// resolves them.
//
// Traversal 2, Assign_ex (pre-order): at the root picks the candidate with
// the highest counter; at inner nodes the server pushed down by the parent.
// The chosen master is pushed to the child it was inherited from, the
// recorded slave (if the chosen candidate qualified as a semi-join master)
// to the other child.
#pragma once

#include <optional>
#include <vector>

#include "authz/authorization.hpp"
#include "authz/policy.hpp"
#include "obs/audit.hpp"
#include "planner/assignment.hpp"
#include "planner/mode_views.hpp"

namespace cisqp::planner {

struct SafePlannerOptions {
  /// Footnote-3 extension: when a join node has no candidate from either
  /// child, admit any federation server that may view BOTH operands in full
  /// as a regular-join proxy master. Off by default (the paper's algorithm).
  bool allow_third_party = false;

  /// When set, the plan is feasible only if this server may additionally
  /// view the root result profile (the party issuing the query).
  std::optional<catalog::ServerId> requestor;
};

/// Successful planning output.
struct SafePlan {
  Assignment assignment;
  std::vector<authz::Profile> profiles;  ///< per node id (Fig. 4)
  PlanningTrace trace;                   ///< Fig. 7 material
};

/// Outcome of an Analyze call, feasible or not.
struct PlanningReport {
  bool feasible = false;
  int blocking_node = -1;  ///< node at which Find_candidates exited, or -1
  std::optional<SafePlan> plan;  ///< set iff feasible
  std::size_t can_view_calls = 0;  ///< CanView probes performed
  /// When infeasible: every failed CanView probe at the blocking node,
  /// naming the server, the attempted role, and the denied view profile.
  std::vector<CandidateRejection> blocking_rejections;
};

/// Find_candidates state of one node: its profile (Fig. 4), its candidate
/// list, and for a join the slaves the two symmetric cases resolved.
struct NodeCandidates {
  authz::Profile profile;
  std::vector<Candidate> candidates;  ///< sorted by count desc, stable
  std::optional<Candidate> leftslave;
  std::optional<Candidate> rightslave;
};

/// The per-node step of Find_candidates: one node's state from its
/// children's. SafePlanner's post-order traversal takes it at every node;
/// FeasiblePlanSearch takes it once per join-order prefix (DESIGN.md §17).
/// Not thread-safe: one finder per traversal.
class CandidateFinder {
 public:
  CandidateFinder(const catalog::Catalog& cat, const authz::Policy& auths,
                  const SafePlannerOptions& options);

  /// `left` / `right` are the children's states, null where `node` has no
  /// such child. Every failed CanView probe is appended to `rejections`
  /// when it is non-null.
  NodeCandidates Find(const plan::PlanNode& node, const NodeCandidates* left,
                      const NodeCandidates* right,
                      std::vector<CandidateRejection>* rejections = nullptr);

  /// Audited CanView probe of `node_id`, recorded at `site`.
  bool CanView(const authz::Profile& profile, catalog::ServerId server,
               int node_id, const char* role,
               obs::AuditSite site = obs::AuditSite::kPlanner);

  std::size_t can_view_calls() const noexcept { return can_view_calls_; }

 private:
  void FindJoinCandidates(const plan::PlanNode& node, const NodeCandidates& l,
                          const NodeCandidates& r, NodeCandidates& state,
                          std::vector<CandidateRejection>* rejections);

  const catalog::Catalog& cat_;
  const authz::Policy& auths_;
  const SafePlannerOptions& options_;
  std::size_t can_view_calls_ = 0;
  /// Seeded fault for the differential harness; see FindJoinCandidates.
  const bool planted_skip_right_check_;
};

class SafePlanner {
 public:
  SafePlanner(const catalog::Catalog& cat, const authz::Policy& auths,
              SafePlannerOptions options = {})
      : cat_(cat), auths_(auths), options_(options) {}

  /// Runs both traversals. Never fails on infeasibility — that is reported
  /// in the PlanningReport; fails only on malformed plans.
  Result<PlanningReport> Analyze(const plan::QueryPlan& plan) const;

  /// Convenience wrapper: the safe plan, or kInfeasible naming the blocking
  /// node (Problem 4.1).
  Result<SafePlan> Plan(const plan::QueryPlan& plan) const;

 private:
  const catalog::Catalog& cat_;
  const authz::Policy& auths_;
  SafePlannerOptions options_;
};

}  // namespace cisqp::planner
