#include "testcheck/oracle.hpp"

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "plan/builder.hpp"
#include "planner/cost_planner.hpp"
#include "planner/exhaustive.hpp"

namespace cisqp::testcheck {

authz::AuthorizationSet NaiveChaseOracle(const catalog::Catalog& cat,
                                         const authz::AuthorizationSet& auths,
                                         std::size_t max_path_atoms) {
  using authz::Authorization;
  using authz::JoinAtom;
  using authz::JoinPath;
  authz::AuthorizationSet closed;
  for (catalog::ServerId server = 0; server < cat.server_count(); ++server) {
    std::vector<std::pair<IdSet, JoinPath>> rules;
    std::map<JoinPath, std::vector<IdSet>> by_path;
    const auto add_if_novel = [&](IdSet attrs, const JoinPath& path) {
      std::vector<IdSet>& grants = by_path[path];
      for (const IdSet& existing : grants) {
        if (attrs.IsSubsetOf(existing)) return false;
      }
      grants.push_back(attrs);
      rules.emplace_back(std::move(attrs), path);
      return true;
    };
    for (const Authorization& auth : auths.ForServer(server)) {
      add_if_novel(auth.attributes, auth.path);
    }
    bool changed = !rules.empty();
    while (changed) {
      changed = false;
      const std::size_t frozen = rules.size();
      for (std::size_t i = 0; i < frozen; ++i) {
        for (std::size_t j = 0; j < frozen; ++j) {
          if (i == j) continue;
          const auto [attrs_i, path_i] = rules[i];
          const auto [attrs_j, path_j] = rules[j];
          for (const catalog::JoinEdge& edge : cat.join_edges()) {
            const bool oriented = attrs_i.Contains(edge.left) &&
                                  attrs_j.Contains(edge.right);
            const bool reversed = attrs_i.Contains(edge.right) &&
                                  attrs_j.Contains(edge.left);
            if (!oriented && !reversed) continue;
            JoinPath derived_path = JoinPath::Union(path_i, path_j);
            derived_path.Insert(JoinAtom::Make(edge.left, edge.right));
            if (max_path_atoms != 0 && derived_path.size() > max_path_atoms) {
              continue;
            }
            if (add_if_novel(IdSet::Union(attrs_i, attrs_j), derived_path)) {
              changed = true;
            }
          }
        }
      }
    }
    for (const auto& [attrs, path] : rules) {
      const Status status = closed.Add(cat, Authorization{attrs, path, server});
      CISQP_CHECK(status.ok() || status.code() == StatusCode::kAlreadyExists);
    }
  }
  return closed;
}

std::multiset<std::string> CanonicalPolicy(const catalog::Catalog& cat,
                                           authz::AuthorizationSet set) {
  set.Minimize();
  std::multiset<std::string> out;
  for (const authz::Authorization& rule : set.All()) {
    out.insert(rule.ToString(cat));
  }
  return out;
}

Result<PlanOracleResult> ExhaustivePlanOracle(const catalog::Catalog& cat,
                                              const authz::Policy& auths,
                                              const plan::QuerySpec& spec,
                                              const plan::StatsCatalog* stats,
                                              const PlanOracleOptions& options) {
  planner::FeasiblePlanSearch search(cat, auths, stats);
  CISQP_ASSIGN_OR_RETURN(const std::vector<plan::QuerySpec> orders,
                         search.EnumerateOrders(spec, options.max_orders));
  const plan::PlanBuilder builder(cat, stats);
  const planner::MinCostSafePlanner coster(cat, auths, stats);
  PlanOracleResult out;
  for (const plan::QuerySpec& order : orders) {
    ++out.orders_examined;
    CISQP_ASSIGN_OR_RETURN(const plan::QueryPlan tree, builder.Build(order));
    planner::ExhaustiveOptions ex;
    ex.max_explored = options.max_explored;
    CISQP_ASSIGN_OR_RETURN(
        const planner::ExhaustiveResult enumerated,
        planner::EnumerateSafeAssignments(cat, auths, tree, ex));
    out.safe_assignments += enumerated.safe_assignments.size();
    for (const planner::Assignment& assignment : enumerated.safe_assignments) {
      CISQP_ASSIGN_OR_RETURN(const double bytes,
                             coster.EstimateAssignmentBytes(tree, assignment));
      if (!out.feasible || bytes < out.min_cost_bytes) {
        out.min_cost_bytes = bytes;
      }
      out.feasible = true;
    }
  }
  return out;
}

Result<planner::PlanSearchResult> PerOrderPlanSearch(
    const catalog::Catalog& cat, const authz::Policy& policy,
    const plan::QuerySpec& spec, const plan::StatsCatalog* stats,
    const planner::PlanSearchOptions& options) {
  const planner::FeasiblePlanSearch search(cat, policy, stats);
  CISQP_ASSIGN_OR_RETURN(const std::vector<plan::QuerySpec> orders,
                         search.EnumerateOrders(spec, options.max_orders));
  const plan::PlanBuilder builder(cat, stats);
  const planner::SafePlanner planner(cat, policy, options.planner_options);
  const planner::MinCostSafePlanner coster(cat, policy, stats);
  std::optional<planner::PlanSearchResult> best;
  std::size_t feasible = 0;
  for (const plan::QuerySpec& order : orders) {
    Result<plan::QueryPlan> built = builder.Build(order);
    if (!built.ok()) continue;
    CISQP_ASSIGN_OR_RETURN(planner::PlanningReport report,
                           planner.Analyze(*built));
    if (!report.feasible) continue;
    CISQP_ASSIGN_OR_RETURN(
        const double bytes,
        coster.EstimateAssignmentBytes(*built, report.plan->assignment));
    ++feasible;
    if (!best || bytes < best->estimated_bytes) {
      best.emplace();
      best->plan = std::move(*built);
      best->safe_plan = std::move(*report.plan);
      best->estimated_bytes = bytes;
    }
  }
  if (!best) {
    return InfeasibleError("no examined join order admits a safe assignment (" +
                           std::to_string(orders.size()) + " orders tried)");
  }
  best->orders_tried = orders.size();
  best->orders_feasible = feasible;
  return std::move(*best);
}

}  // namespace cisqp::testcheck
