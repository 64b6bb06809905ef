#include "planner/plan_search.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisqp::planner {
namespace {

/// Undirected equi-join atom between two relations.
struct Edge {
  catalog::AttributeId a = catalog::kInvalidId;
  catalog::AttributeId b = catalog::kInvalidId;
  catalog::RelationId rel_a = catalog::kInvalidId;
  catalog::RelationId rel_b = catalog::kInvalidId;
};

std::vector<Edge> CollectEdges(const catalog::Catalog& cat,
                               const plan::QuerySpec& spec) {
  std::vector<Edge> edges;
  for (const plan::JoinStep& step : spec.joins) {
    for (const algebra::EquiJoinAtom& atom : step.atoms) {
      edges.push_back(Edge{atom.left, atom.right,
                           cat.attribute(atom.left).relation,
                           cat.attribute(atom.right).relation});
    }
  }
  return edges;
}

/// Atoms joining `next` to a prefix over `placed`, oriented prefix → next,
/// in edge order.
std::vector<algebra::EquiJoinAtom> AtomsJoining(
    catalog::RelationId next, const IdSet& placed,
    const std::vector<Edge>& edges) {
  std::vector<algebra::EquiJoinAtom> atoms;
  for (const Edge& e : edges) {
    if (e.rel_b == next && placed.Contains(e.rel_a)) {
      atoms.push_back(algebra::EquiJoinAtom{e.a, e.b});
    } else if (e.rel_a == next && placed.Contains(e.rel_b)) {
      atoms.push_back(algebra::EquiJoinAtom{e.b, e.a});
    }
  }
  return atoms;
}

/// The trie of connected left-deep join orders, walked depth first: a
/// prefix's children are the relations joinable to it, in `relations`
/// order, and its leaves are the complete orders in the order
/// EnumerateOrders lists them. `enter(prefix, joined)` is called on every
/// prefix before the walk descends into it, with `joined` the relations
/// `prefix.back()` joins onto; a false return prunes the
/// subtree, whose orders are still counted (as tried and as pruned) but
/// never entered. The walk stops after `max_orders` orders, so the cap cuts
/// the enumeration at the same order whether or not subtrees are pruned.
class OrderTrie {
 public:
  /// A complete order that was entered, with its enumeration index.
  struct Leaf {
    std::size_t index;
    std::vector<catalog::RelationId> order;
  };

  OrderTrie(const std::vector<catalog::RelationId>& relations,
            const std::vector<Edge>& edges, std::size_t max_orders)
      : relations_(relations), max_orders_(max_orders) {
    // Connectivity of a candidate is one probe of a precomputed relation →
    // neighbor-relations adjacency map instead of a scan over every edge.
    for (const Edge& edge : edges) {
      adjacency_[edge.rel_a].Insert(edge.rel_b);
      adjacency_[edge.rel_b].Insert(edge.rel_a);
    }
  }

  template <typename Enter>
  std::vector<Leaf> Walk(Enter&& enter) {
    for (catalog::RelationId start : relations_) {
      if (tried_ >= max_orders_) break;
      Descend(start, enter, /*entering=*/true);
    }
    return std::move(leaves_);
  }

  std::size_t tried() const noexcept { return tried_; }
  std::size_t pruned() const noexcept { return pruned_; }

 private:
  template <typename Enter>
  void Descend(catalog::RelationId next, Enter& enter, bool entering) {
    prefix_.push_back(next);
    if (entering) entering = enter(prefix_, placed_);
    placed_.Insert(next);
    if (prefix_.size() == relations_.size()) {
      if (entering) {
        leaves_.push_back(Leaf{tried_, prefix_});
      } else {
        ++pruned_;
      }
      ++tried_;
    } else {
      for (catalog::RelationId cand : relations_) {
        if (tried_ >= max_orders_) break;
        if (placed_.Contains(cand)) continue;
        const auto neighbors = adjacency_.find(cand);
        if (neighbors != adjacency_.end() &&
            neighbors->second.Intersects(placed_)) {
          Descend(cand, enter, entering);
        }
      }
    }
    placed_.Erase(next);
    prefix_.pop_back();
  }

  const std::vector<catalog::RelationId>& relations_;
  const std::size_t max_orders_;
  std::map<catalog::RelationId, IdSet> adjacency_;
  std::vector<catalog::RelationId> prefix_;
  IdSet placed_;
  std::vector<Leaf> leaves_;
  std::size_t tried_ = 0;
  std::size_t pruned_ = 0;
};

/// Rebuilds `spec` with the relations in `order`, re-orienting every atom so
/// the new relation's attribute sits on the right.
plan::QuerySpec ReorderSpec(const plan::QuerySpec& spec,
                            const std::vector<catalog::RelationId>& order,
                            const std::vector<Edge>& edges) {
  plan::QuerySpec out;
  out.distinct = spec.distinct;
  out.select_list = spec.select_list;
  out.where = spec.where;
  out.first_relation = order.front();
  IdSet placed{order.front()};
  for (std::size_t i = 1; i < order.size(); ++i) {
    const catalog::RelationId next = order[i];
    out.joins.push_back(
        plan::JoinStep{next, AtomsJoining(next, placed, edges)});
    placed.Insert(next);
  }
  return out;
}

/// Find_candidates over the nodes one LeftDeepBuilder step added: post-order,
/// with the join's empty left child standing for the prefix whose state is
/// `prefix`. Returns false as soon as a node has no candidate — where
/// SafePlanner's traversal would stop.
bool EvaluateAdded(CandidateFinder& finder, const plan::PlanNode& node,
                   const NodeCandidates* prefix, NodeCandidates& out) {
  NodeCandidates left;
  NodeCandidates right;
  const NodeCandidates* l = node.op == plan::PlanOp::kJoin ? prefix : nullptr;
  if (node.left) {
    if (!EvaluateAdded(finder, *node.left, prefix, left)) return false;
    l = &left;
  }
  if (node.right && !EvaluateAdded(finder, *node.right, prefix, right)) {
    return false;
  }
  out = finder.Find(node, l, node.right ? &right : nullptr);
  return !out.candidates.empty();
}

}  // namespace

Result<std::vector<plan::QuerySpec>> FeasiblePlanSearch::EnumerateOrders(
    const plan::QuerySpec& spec, std::size_t max_orders) const {
  CISQP_RETURN_IF_ERROR(spec.Validate(cat_));
  const std::vector<catalog::RelationId> relations = spec.Relations();
  const std::vector<Edge> edges = CollectEdges(cat_, spec);
  OrderTrie trie(relations, edges, max_orders);
  std::vector<plan::QuerySpec> out;
  const auto enter_all = [](const auto& /*prefix*/, const auto& /*joined*/) {
    return true;
  };
  for (const OrderTrie::Leaf& leaf : trie.Walk(enter_all)) {
    out.push_back(ReorderSpec(spec, leaf.order, edges));
  }
  if (out.empty()) {
    return InvalidArgumentError("query join graph admits no connected order");
  }
  return out;
}

Result<PlanSearchResult> FeasiblePlanSearch::Search(
    const plan::QuerySpec& spec, const PlanSearchOptions& options) const {
  CISQP_TRACE_SPAN(span, "planner.plan_search");
  CISQP_RETURN_IF_ERROR(spec.Validate(cat_));
  const std::vector<catalog::RelationId> relations = spec.Relations();
  const std::vector<Edge> edges = CollectEdges(cat_, spec);

  // Walk the order trie, running Find_candidates once per distinct prefix:
  // the tree over a prefix, and so its state, does not depend on the
  // relations joined after it (DESIGN.md §17). `states[k]` holds the state
  // of the current prefix of k + 1 relations. A prefix with no candidate
  // blocks every order below it, so only the complete orders that were
  // entered survive to be built and analyzed.
  const plan::LeftDeepBuilder left_deep(cat_, spec);
  CandidateFinder finder(cat_, policy_, options.planner_options);
  std::vector<NodeCandidates> states(relations.size());
  OrderTrie trie(relations, edges, options.max_orders);
  const std::vector<OrderTrie::Leaf> survivors =
      trie.Walk([&](const std::vector<catalog::RelationId>& prefix,
                    const IdSet& joined) {
        const std::size_t depth = prefix.size() - 1;
        const catalog::RelationId next = prefix.back();
        if (depth == 0) {
          return EvaluateAdded(finder, *left_deep.Start(next), nullptr,
                               states[0]);
        }
        const std::unique_ptr<plan::PlanNode> added = left_deep.Extend(
            nullptr, joined,
            plan::JoinStep{next, AtomsJoining(next, joined, edges)});
        return EvaluateAdded(finder, *added, &states[depth - 1], states[depth]);
      });
  const std::size_t tried = trie.tried();
  if (tried == 0) {
    return InvalidArgumentError("query join graph admits no connected order");
  }

  // Fan the survivors out: each task builds, analyzes, and costs one order
  // on its own builder/planner instances (all stateless over shared read-only
  // catalog/policy/stats), then folds into the running minimum under a
  // mutex. The fold is commutative and tie-breaks on the lowest order
  // index, so the outcome is identical to the sequential left-to-right scan
  // regardless of completion order. Errors (malformed plans, not
  // infeasibility) keep the lowest order index too.
  struct Best {
    std::size_t index;
    double bytes;
    plan::QueryPlan plan;
    SafePlan safe_plan;
  };
  std::mutex mu;
  std::optional<Best> best;
  std::optional<std::pair<std::size_t, Status>> error;
  std::size_t feasible = 0;

  const std::size_t threads =
      options.threads == 0 ? ThreadPool::HardwareConcurrency() : options.threads;
  span.AddAttribute("threads", threads);
  if (!survivors.empty()) {
    ThreadPool pool(std::min(threads, survivors.size()));
    pool.ParallelFor(survivors.size(), [&](std::size_t k) {
      const std::size_t i = survivors[k].index;
      // Explicitly parent the per-order span to the search root: pool
      // workers have empty thread-local span stacks, so without this every
      // worker would start a disjoint root lane in the Chrome export.
      obs::Span order_span("planner.plan_search.order", span);
      order_span.AddAttribute("order", i);
      plan::PlanBuilder builder(cat_, stats_, feedback_);
      SafePlanner planner(cat_, policy_, options.planner_options);
      MinCostSafePlanner cost_scorer(cat_, policy_, stats_, {}, feedback_);
      auto built = builder.Build(ReorderSpec(spec, survivors[k].order, edges));
      if (!built.ok()) return;  // tried, but this order is not buildable
      auto report = planner.Analyze(*built);
      if (!report.ok()) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error || i < error->first) error.emplace(i, report.status());
        return;
      }
      if (!report->feasible) return;
      auto bytes =
          cost_scorer.EstimateAssignmentBytes(*built, report->plan->assignment);
      if (!bytes.ok()) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error || i < error->first) error.emplace(i, bytes.status());
        return;
      }
      const std::lock_guard<std::mutex> lock(mu);
      ++feasible;
      if (!best || *bytes < best->bytes ||
          (*bytes == best->bytes && i < best->index)) {
        best.emplace(Best{i, *bytes, std::move(*built),
                          std::move(*report->plan)});
      }
    });
  }
  if (error) return error->second;

  CISQP_METRIC_ADD("plan_search.orders_tried", tried);
  CISQP_METRIC_ADD("plan_search.orders_feasible", feasible);
  CISQP_METRIC_ADD("plan_search.orders_pruned", trie.pruned());
  span.AddAttribute("orders_tried", tried);
  span.AddAttribute("orders_feasible", feasible);
  span.AddAttribute("orders_pruned", trie.pruned());
  if (!best) {
    return InfeasibleError("no examined join order admits a safe assignment (" +
                           std::to_string(tried) + " orders tried)");
  }
  PlanSearchResult result;
  result.plan = std::move(best->plan);
  result.safe_plan = std::move(best->safe_plan);
  result.estimated_bytes = best->bytes;
  result.orders_tried = tried;
  result.orders_feasible = feasible;
  result.orders_pruned = trie.pruned();
  return result;
}

}  // namespace cisqp::planner
