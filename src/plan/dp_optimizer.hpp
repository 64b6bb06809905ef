// Exact join-order optimization (System-R style dynamic programming over
// connected relation subsets), producing bushy or left-deep trees.
//
// The paper's two-step architecture (§5 end) puts a classical optimizer in
// step one. PlanBuilder's greedy ordering is the cheap variant; this DP is
// the exact one: for every connected subset of the query's relations it
// keeps the cheapest tree (cost = total estimated intermediate rows), and
// reconstructs the optimal — possibly bushy — join tree. Bushy shapes also
// exercise the safe planner and the execution engine beyond left-deep
// chains.
//
// Exponential in the number of relations (3^n subset-split pairs); guarded
// by `max_relations`.
#pragma once

#include "plan/builder.hpp"
#include "plan/query_spec.hpp"
#include "plan/stats.hpp"

namespace cisqp::plan {

struct DpOptimizerOptions {
  /// Allow bushy trees; false restricts the right side of every join to a
  /// single relation (classic left-deep DP).
  bool bushy = true;
  /// Refuse queries with more relations than this (DP is exponential).
  std::size_t max_relations = 14;
  /// Measured cardinalities from profiled past executions. When a subset's
  /// signature hits the store, the measured row count replaces the modeled
  /// one for that subset — uniformly across its splits, so the split choice
  /// within the subset is undistorted while the corrected cardinality
  /// propagates to every cost above it.
  const StatsFeedback* feedback = nullptr;
};

struct DpOptimizerResult {
  QueryPlan plan;
  double estimated_cost = 0.0;  ///< total estimated intermediate rows
  std::size_t subsets_explored = 0;
};

/// Finds the cost-optimal join tree for `spec` under `stats` and finishes it
/// with PlanBuilder's passes. Fails on invalid specs, disconnected join
/// graphs, or too many relations.
Result<DpOptimizerResult> OptimizeJoinOrder(
    const catalog::Catalog& cat, const StatsCatalog* stats,
    const QuerySpec& spec, const DpOptimizerOptions& options = {});

}  // namespace cisqp::plan
