// FeasiblePlanSearch: feasibility-aware join ordering.
//
// The paper separates optimization into two steps (§5 end): pick a good
// query tree, then assign executors safely. A tree that is optimal for cost
// can still be *infeasible* — no safe assignment exists for that shape —
// while a different join order of the same query is perfectly executable
// (authorizations are path- and shape-sensitive). This module closes the
// loop the paper leaves open: it enumerates connected left-deep join orders
// of a QuerySpec, runs the paper's algorithm on each, and returns the
// cheapest feasible plan (estimated communication bytes under the shared
// cost model), reporting how many orders were tried and how many were
// feasible.
//
// Experiment E9 (bench_plan_search) measures the rescue rate: the fraction
// of queries whose FROM-order plan is infeasible but that this search still
// executes safely.
//
// Orders share prefixes, and the tree over a left-deep prefix does not
// depend on the relations joined after it, so `Search` walks the trie of
// orders and runs the paper's Find_candidates once per distinct prefix
// (DESIGN.md §17): one LeftDeepBuilder step and the new nodes' states on
// top of the parent prefix's state, with no diagnostics recorded. A prefix
// with no candidate blocks every order below it; those orders count as
// tried (and toward `max_orders`) and as pruned, but are never built.
//
// Only the surviving complete orders take the full path — build the
// reordered plan, run SafePlanner (requestor check, assignment, trace),
// cost the assignment — fanned out across a ThreadPool (each task on its
// own builder and planner instances) and reduced to the min-cost feasible
// plan with a deterministic tie-break: among equal-cost plans the lowest
// order index wins, so parallel and sequential searches return
// byte-identical results (DESIGN.md §9), and the result equals building
// and analyzing every enumerated order.
#pragma once

#include <memory>

#include "planner/cost_planner.hpp"
#include "planner/safe_planner.hpp"
#include "plan/builder.hpp"
#include "plan/query_spec.hpp"

namespace cisqp::planner {

struct PlanSearchOptions {
  /// Cap on join orders examined (the order space is factorial).
  std::size_t max_orders = 2000;
  /// Parallelism for the surviving orders' build/analyze/cost runs: 0 means
  /// hardware concurrency, 1 runs strictly on the calling thread. The
  /// chosen plan, its cost, and the reported counts are byte-identical at
  /// every setting (per-order evaluations are independent and the reduction
  /// tie-breaks on the lowest order index).
  std::size_t threads = 0;
  /// Options forwarded to the per-order SafePlanner runs.
  SafePlannerOptions planner_options;
};

struct PlanSearchResult {
  plan::QueryPlan plan;       ///< the chosen feasible plan
  SafePlan safe_plan;         ///< its safe assignment (paper heuristic)
  double estimated_bytes = 0; ///< heuristic assignment cost, shared model
  std::size_t orders_tried = 0;
  std::size_t orders_feasible = 0;
  /// Orders below a prefix with no candidate: tried but never built.
  std::size_t orders_pruned = 0;
};

/// A cacheable, immutable handle to a finished search: the serving layer's
/// plan cache hands the same result to many concurrent requests, and the
/// executor only ever reads the plan/assignment, so shared const ownership
/// is safe (DESIGN.md §15.2).
using PlanHandle = std::shared_ptr<const PlanSearchResult>;

class FeasiblePlanSearch {
 public:
  FeasiblePlanSearch(const catalog::Catalog& cat, const authz::Policy& policy,
                     const plan::StatsCatalog* stats = nullptr,
                     const plan::StatsFeedback* feedback = nullptr)
      : cat_(cat), policy_(policy), stats_(stats), feedback_(feedback) {}

  /// Finds the cheapest feasible left-deep ordering of `spec`, or
  /// kInfeasible when no examined order admits a safe assignment.
  Result<PlanSearchResult> Search(const plan::QuerySpec& spec,
                                  const PlanSearchOptions& options = {}) const;

  /// Enumerates connected left-deep orders of `spec` (capped), as reordered
  /// QuerySpecs. Exposed for tests and experiments.
  Result<std::vector<plan::QuerySpec>> EnumerateOrders(
      const plan::QuerySpec& spec, std::size_t max_orders) const;

 private:
  const catalog::Catalog& cat_;
  const authz::Policy& policy_;
  const plan::StatsCatalog* stats_;
  const plan::StatsFeedback* feedback_;  // may be null: model estimates only
};

}  // namespace cisqp::planner
