#include "plan/dp_optimizer.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisqp::plan {
namespace {

using Mask = std::uint32_t;

/// One equi-join atom with the indexes (into the query's relation list) of
/// the relations it connects.
struct Edge {
  catalog::AttributeId a = catalog::kInvalidId;
  catalog::AttributeId b = catalog::kInvalidId;
  std::size_t rel_a = 0;
  std::size_t rel_b = 0;
};

/// DP table entry for one connected subset.
struct Entry {
  double cost = std::numeric_limits<double>::infinity();
  double rows = 0.0;
  Mask left_split = 0;  ///< 0 for singletons
};

class Dp {
 public:
  Dp(const catalog::Catalog& cat, const StatsCatalog* stats,
     const QuerySpec& spec, const DpOptimizerOptions& options)
      : cat_(cat), stats_(stats), spec_(spec), options_(options),
        relations_(spec.Relations()) {
    for (std::size_t i = 0; i < relations_.size(); ++i) {
      index_of_[relations_[i]] = i;
    }
    for (const JoinStep& step : spec.joins) {
      for (const algebra::EquiJoinAtom& atom : step.atoms) {
        edges_.push_back(Edge{atom.left, atom.right,
                              index_of_.at(cat.attribute(atom.left).relation),
                              index_of_.at(cat.attribute(atom.right).relation)});
      }
    }
    table_.resize(std::size_t{1} << relations_.size());
  }

  Result<DpOptimizerResult> Run() {
    const std::size_t n = relations_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Mask mask = Mask{1} << i;
      double rows = RowsOf(relations_[i]);
      if (const std::optional<double> measured = MeasuredRows(mask)) {
        rows = *measured;
      }
      table_[mask] = Entry{0.0, rows, 0};
      ++explored_;
    }

    const Mask full = static_cast<Mask>((std::size_t{1} << n) - 1);
    for (Mask mask = 1; mask <= full; ++mask) {
      if ((mask & (mask - 1)) == 0) continue;  // singleton, already seeded
      // Measured output cardinality of this subset, if a profiled run fed it
      // back. Applied uniformly across splits: the split choice inside the
      // subset stays driven by the split costs, while every cost above the
      // subset sees the corrected row count.
      const std::optional<double> measured = MeasuredRows(mask);
      // Canonical split: the left side contains the subset's lowest bit, so
      // each unordered split is tried once with a fixed orientation.
      const Mask low = mask & static_cast<Mask>(-static_cast<std::int32_t>(mask));
      Entry best;
      for (Mask sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
        if ((sub & low) == 0) continue;
        const Mask rest = mask & ~sub;
        if (!options_.bushy && (rest & (rest - 1)) != 0) continue;
        const Entry& l = table_[sub];
        const Entry& r = table_[rest];
        if (!Connected(l) || !Connected(r)) continue;
        ++explored_;
        const double selectivity = CrossSelectivity(sub, rest);
        if (selectivity < 0.0) continue;  // no connecting edge: cross join
        const double rows =
            measured ? *measured : l.rows * r.rows * selectivity;
        const double cost = l.cost + r.cost + rows;
        if (cost < best.cost) best = Entry{cost, rows, sub};
      }
      if (Connected(best)) table_[mask] = best;
    }

    if (!Connected(table_[full])) {
      return InvalidArgumentError(
          "query join graph is disconnected; cross joins are out of model");
    }
    DpOptimizerResult result;
    result.estimated_cost = table_[full].cost;
    result.subsets_explored = explored_;
    tree_ = Rebuild(full);
    return result;  // caller attaches the finished plan
  }

  std::unique_ptr<PlanNode> TakeTree() { return std::move(tree_); }

 private:
  static bool Connected(const Entry& e) {
    return e.cost < std::numeric_limits<double>::infinity();
  }

  double RowsOf(catalog::RelationId rel) const {
    return stats_ != nullptr ? stats_->Of(rel).rows : RelationStats{}.rows;
  }

  /// Feedback-store row count of the subset `mask`, if recorded.
  std::optional<double> MeasuredRows(Mask mask) const {
    if (options_.feedback == nullptr) return std::nullopt;
    std::vector<catalog::RelationId> subset;
    for (std::size_t i = 0; i < relations_.size(); ++i) {
      if (mask & (Mask{1} << i)) subset.push_back(relations_[i]);
    }
    return options_.feedback->Lookup(SpecSubsetSignature(cat_, spec_, subset));
  }

  double DistinctOf(catalog::AttributeId attr) const {
    const catalog::RelationId rel = cat_.attribute(attr).relation;
    return stats_ != nullptr ? stats_->Of(rel).DistinctOf(attr)
                             : RelationStats{}.DistinctOf(attr);
  }

  /// Product of per-atom selectivities for edges crossing the split, or -1
  /// when no edge crosses (cross join, out of model).
  double CrossSelectivity(Mask left, Mask right) const {
    double selectivity = 1.0;
    bool any = false;
    for (const Edge& e : edges_) {
      const Mask ma = Mask{1} << e.rel_a;
      const Mask mb = Mask{1} << e.rel_b;
      const bool crosses = ((ma & left) && (mb & right)) ||
                           ((mb & left) && (ma & right));
      if (!crosses) continue;
      any = true;
      selectivity /= std::max({DistinctOf(e.a), DistinctOf(e.b), 1.0});
    }
    return any ? selectivity : -1.0;
  }

  std::unique_ptr<PlanNode> Rebuild(Mask mask) const {
    if ((mask & (mask - 1)) == 0) {
      std::size_t i = 0;
      while (!(mask & (Mask{1} << i))) ++i;
      return PlanNode::Relation(relations_[i]);
    }
    const Mask sub = table_[mask].left_split;
    const Mask rest = mask & ~sub;
    std::unique_ptr<PlanNode> left = Rebuild(sub);
    std::unique_ptr<PlanNode> right = Rebuild(rest);
    // Atoms crossing the split, oriented left-side attribute first.
    std::vector<algebra::EquiJoinAtom> atoms;
    for (const Edge& e : edges_) {
      const Mask ma = Mask{1} << e.rel_a;
      const Mask mb = Mask{1} << e.rel_b;
      if ((ma & sub) && (mb & rest)) {
        atoms.push_back(algebra::EquiJoinAtom{e.a, e.b});
      } else if ((mb & sub) && (ma & rest)) {
        atoms.push_back(algebra::EquiJoinAtom{e.b, e.a});
      }
    }
    return PlanNode::Join(std::move(left), std::move(right), std::move(atoms));
  }

  const catalog::Catalog& cat_;
  const StatsCatalog* stats_;
  const QuerySpec& spec_;
  const DpOptimizerOptions& options_;
  std::vector<catalog::RelationId> relations_;
  std::map<catalog::RelationId, std::size_t> index_of_;
  std::vector<Edge> edges_;
  std::vector<Entry> table_;
  std::unique_ptr<PlanNode> tree_;
  std::size_t explored_ = 0;
};

}  // namespace

Result<DpOptimizerResult> OptimizeJoinOrder(const catalog::Catalog& cat,
                                            const StatsCatalog* stats,
                                            const QuerySpec& spec,
                                            const DpOptimizerOptions& options) {
  CISQP_RETURN_IF_ERROR(spec.Validate(cat));
  if (spec.Relations().size() > options.max_relations) {
    return InvalidArgumentError(
        "query joins " + std::to_string(spec.Relations().size()) +
        " relations; the DP optimizer is capped at " +
        std::to_string(options.max_relations));
  }
  CISQP_TRACE_SPAN(span, "plan.dp_optimize");
  span.AddAttribute("relations", spec.Relations().size());
  Dp dp(cat, stats, spec, options);
  CISQP_ASSIGN_OR_RETURN(DpOptimizerResult result, dp.Run());
  CISQP_METRIC_ADD("dp.subsets_explored", result.subsets_explored);
  span.AddAttribute("subsets_explored", result.subsets_explored);
  span.AddAttribute("estimated_cost", result.estimated_cost);
  PlanBuilder builder(cat, stats, options.feedback);
  CISQP_ASSIGN_OR_RETURN(result.plan, builder.Finish(dp.TakeTree(), spec));
  return result;
}

}  // namespace cisqp::plan
