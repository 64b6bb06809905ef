// The differential check: production pipeline vs brute-force oracles over
// one scenario (DESIGN.md §11.1).
//
// One CheckScenario call runs the full production path — chase closure,
// feasibility-aware plan search, distributed execution with runtime
// enforcement and audit — sequentially and in parallel, and asserts against
// the independent oracles:
//
//   chase      the semi-naïve closure the front door builds equals the
//              naïve fixpoint (canonical minimized form);
//   plan       SafePlanner-driven search and the exhaustive enumerator agree
//              on feasibility, pre- and post-chase, and the exhaustive
//              minimum cost never exceeds the chosen plan's cost (the greedy
//              heuristic cannot beat the true optimum under one cost model);
//   search     the prefix-pruned search returns exactly what building and
//              analyzing every enumerated order returns (PerOrderPlanSearch):
//              the same plan, assignment, trace, cost and counters, or the
//              same kInfeasible status;
//   safety     the chosen assignment survives the independent release-based
//              verifier, and a successful execution leaves zero denied
//              executor/requestor audit entries;
//   results    the distributed result multiset equals the single-site
//              reference evaluation, and re-executing with a morsel-parallel
//              worker pool returns the byte-identical table;
//   profile    re-executing with a QueryProfile attached returns the
//              byte-identical table (profiling is observation only), and the
//              recorded per-operator cardinalities conserve: every child's
//              rows_out equals its parent's observed rows_in.
//   edits      a deterministic grant/revoke script replayed through
//              FrontDoor::AddRule/RevokeRule (incremental delta-chase,
//              selective cache retention) matches a full-recompute oracle
//              after every edit: a canonical closure identical to a fresh
//              build's and to the naïve fixpoint's, identical CanView deny
//              reasons, and byte-identical served answers —
//              success tables, kInfeasible negative-cache verdicts, and
//              runtime-enforcement audit entries alike.
//
// Disagreements are reported as typed Mismatches, never as errors: an error
// return means the harness itself could not run (malformed scenario), which
// callers treat separately from a red verdict.
#pragma once

#include <string>
#include <vector>

#include "testcheck/scenario.hpp"

namespace cisqp::testcheck {

/// What the differential check found wrong. The kind drives the minimizer's
/// failure predicate: a candidate scenario "still fails" when it reproduces
/// a mismatch of the same kind.
enum class MismatchKind : std::uint8_t {
  kChaseClosure,     ///< production closure != naïve fixpoint
  kFeasibility,      ///< search and exhaustive enumerator disagree
  kSearchDivergence, ///< prefix-pruned search != per-order reference search
  kCost,             ///< exhaustive minimum exceeds the chosen plan's cost
  kUnsafePlan,       ///< chosen assignment fails the release verifier
  kThreadDivergence, ///< threads=1 and threads=N results differ
  kResultMultiset,   ///< distributed result != reference evaluation
  kAuditViolation,   ///< denied executor/requestor entry on a success
  kProfileDivergence,///< profiling changed the result, or rows don't conserve
  kServingDivergence,///< cached serving answer differs from the cold answer
  kPolicyEditDivergence, ///< incremental policy edit differs from recompute
  kPipelineError,    ///< a production stage failed with an unexpected status
};

std::string_view MismatchKindName(MismatchKind kind) noexcept;

struct Mismatch {
  MismatchKind kind = MismatchKind::kPipelineError;
  std::string detail;

  std::string ToString() const;
};

struct CheckOptions {
  /// Path-length cap shared by the production chase and the naïve oracle
  /// (both must see the same derivation space). Nonzero keeps the naïve
  /// fixpoint polynomial on fuzz-sized schemas.
  std::size_t chase_max_path_atoms = 3;
  /// Join orders examined by both the production search and the oracle.
  std::size_t max_orders = 24;
  /// The parallel arms: every parallelizable stage (plan search,
  /// morsel-driven execution) additionally runs with this thread count and
  /// must reproduce the sequential result exactly — execution byte-for-byte.
  std::size_t threads = 2;
  /// Run the execution arms (distributed vs reference, audit).
  bool check_execution = true;
  /// Run the serving arm: the scenario query goes through a FrontDoor twice
  /// — cold, then plan-cache-hit — and the answers must match exactly:
  /// byte-identical tables on success, identical typed statuses on failure,
  /// and the serving feasibility verdict must agree with the pipeline's.
  /// Requires check_execution (the arm needs the loaded cluster).
  bool check_serving = true;
  /// Run the policy-edit arm: `policy_edit_count` grants/revokes drawn
  /// deterministically from the scenario seed are replayed through
  /// FrontDoor::AddRule/RevokeRule (incremental closure maintenance plus
  /// selective plan-cache/CanView retention) and, after every edit, the
  /// closure, the CanView deny reasons, and the served answers (twice — so
  /// retained cache hits are exercised) must be byte-identical to a
  /// from-scratch FrontDoor over the edited rule set, and the maintained
  /// closure must equal both a fresh build and the naïve fixpoint. Requires
  /// check_execution (the arm serves against the loaded cluster).
  bool check_policy_edits = true;
  std::size_t policy_edit_count = 4;
};

struct CheckReport {
  std::vector<Mismatch> mismatches;
  /// Production feasibility verdict under the chased policy.
  bool feasible = false;
  std::int64_t production_us = 0;  ///< wall time in production stages
  std::int64_t oracle_us = 0;      ///< wall time in oracle stages

  bool ok() const noexcept { return mismatches.empty(); }
  /// One mismatch per line; "ok" when green.
  std::string ToString() const;
};

/// Runs every differential arm over `s`. Fails only when the scenario itself
/// is unusable; oracle disagreements come back as mismatches.
Result<CheckReport> CheckScenario(const Scenario& s,
                                  const CheckOptions& options = {});

}  // namespace cisqp::testcheck
