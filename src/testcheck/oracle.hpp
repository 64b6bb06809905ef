// Brute-force oracles for differential testing (DESIGN.md §11.2).
//
// Each oracle re-decides a question the production pipeline answers, with an
// implementation chosen for obviousness over speed:
//  * NaiveChaseOracle — the textbook naïve fixpoint over every ordered rule
//    pair and every schema edge, each round, until a round adds nothing
//    (quadratic per round; the production chase is semi-naïve and indexed);
//  * ExhaustivePlanOracle — builds every connected left-deep join order,
//    enumerates every Def. 4.1 assignment of every tree, judges each with the
//    independent release-based verifier, and reports feasibility plus the
//    cheapest safe assignment's cost under the shared cost model (the
//    production planner is the greedy two-traversal Fig. 6 heuristic inside
//    FeasiblePlanSearch);
//  * PerOrderPlanSearch — FeasiblePlanSearch without the prefix trie: every
//    enumerated order is built, analyzed and costed on its own, in order
//    (production evaluates each shared prefix once and builds only the
//    orders whose prefixes all have candidates);
//  * the single-site reference evaluator is `exec::ExecuteCentralized`,
//    re-exported here so harness code names all the oracles in one place.
#pragma once

#include <set>
#include <string>

#include "authz/authorization.hpp"
#include "exec/executor.hpp"
#include "plan/query_spec.hpp"
#include "plan/stats.hpp"
#include "planner/plan_search.hpp"

namespace cisqp::testcheck {

/// The textbook naïve chase closure. Deliberately dumb: every ordered pair
/// of the server's rules is retried against every schema join edge in every
/// round. `max_path_atoms` caps derived path length (0 = unlimited), with
/// the same semantics as authz::ChaseOptions::max_path_atoms.
authz::AuthorizationSet NaiveChaseOracle(const catalog::Catalog& cat,
                                         const authz::AuthorizationSet& auths,
                                         std::size_t max_path_atoms = 0);

/// Canonical form for policy equivalence: raw closures are insertion-order
/// sensitive (subsumption only looks backwards), so equivalence is judged on
/// the minimized rule multiset, which the policy determines uniquely.
std::multiset<std::string> CanonicalPolicy(const catalog::Catalog& cat,
                                           authz::AuthorizationSet set);

struct PlanOracleOptions {
  /// Cap on join orders examined — keep identical to the production
  /// PlanSearchOptions::max_orders of the same run so both sides decide
  /// feasibility over the same tree population.
  std::size_t max_orders = 64;
  /// Forwarded to the exhaustive assignment enumerator's runaway guard.
  std::size_t max_explored = 2'000'000;
};

struct PlanOracleResult {
  /// Some examined order admits at least one safe assignment.
  bool feasible = false;
  /// Cheapest safe assignment found anywhere (any order, any assignment),
  /// under MinCostSafePlanner::EstimateAssignmentBytes. Meaningful only
  /// when feasible.
  double min_cost_bytes = 0.0;
  std::size_t orders_examined = 0;
  std::size_t safe_assignments = 0;  ///< total safe assignments across orders
};

/// Decides feasibility and minimum cost by exhaustive enumeration: every
/// connected left-deep order of `spec`, every Def. 4.1 assignment, every
/// node checked by the release-based verifier. Fails only on malformed
/// specs or when the enumeration guard trips.
Result<PlanOracleResult> ExhaustivePlanOracle(const catalog::Catalog& cat,
                                              const authz::Policy& auths,
                                              const plan::QuerySpec& spec,
                                              const plan::StatsCatalog* stats,
                                              const PlanOracleOptions& options = {});

/// The join-order search done order by order: every order EnumerateOrders
/// lists (capped at `options.max_orders`) is built, analyzed by SafePlanner
/// and costed, sequentially; the cheapest feasible plan wins, the lowest
/// order index on ties. FeasiblePlanSearch::Search must return the same
/// plan, assignment, trace, cost, orders_tried and orders_feasible — or the
/// same kInfeasible status. `orders_pruned` stays 0: nothing is pruned.
Result<planner::PlanSearchResult> PerOrderPlanSearch(
    const catalog::Catalog& cat, const authz::Policy& policy,
    const plan::QuerySpec& spec, const plan::StatsCatalog* stats,
    const planner::PlanSearchOptions& options = {});

}  // namespace cisqp::testcheck
