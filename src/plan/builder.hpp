// PlanBuilder: QuerySpec → query tree plan (step one of the two-step
// distributed optimization the paper integrates with, §5 end).
//
// Builds the left-deep join tree of the spec's join order, places WHERE
// conjuncts at the lowest node that produces their attributes, and pushes
// projections down so every subtree carries only the attributes needed above
// it (paper §2: "projections are pushed down ... also important for security
// purposes, as it discloses only the attributes needed"). The builder never
// chooses an order; FeasiblePlanSearch does.
#pragma once

#include <memory>
#include <vector>

#include "plan/plan_node.hpp"
#include "plan/query_spec.hpp"
#include "plan/stats.hpp"

namespace cisqp::plan {

/// Left-deep construction one relation at a time (DESIGN.md §17). For a
/// left-deep tree every choice `PlanBuilder::Finish` makes is local to a
/// prefix: a leaf's pushed-down π keeps the attributes the query reads
/// anywhere, and a WHERE conjunct lands at the lowest prefix covering its
/// relations unless an earlier conjunct already put a σ above that prefix
/// (Finish merges into the first σ it meets). The tree over a prefix
/// therefore never depends on the relations joined after it, so
/// `PlanBuilder::Build` is a fold of `Extend` and FeasiblePlanSearch can
/// share one prefix among every join order that starts with it.
class LeftDeepBuilder {
 public:
  /// `spec` supplies the select list, WHERE, DISTINCT and the join atoms;
  /// it must outlive the builder. Its relation order is not used.
  LeftDeepBuilder(const catalog::Catalog& cat, const QuerySpec& spec);

  /// The tree over the single relation `first`.
  std::unique_ptr<PlanNode> Start(catalog::RelationId first) const;

  /// Joins `step.relation` (atoms oriented prefix → new) on the right of
  /// `prefix`, the tree over `placed`. A null `prefix` leaves the join's
  /// left child empty, for callers that evaluate the added nodes against a
  /// prefix they already hold.
  std::unique_ptr<PlanNode> Extend(std::unique_ptr<PlanNode> prefix,
                                   const IdSet& placed, JoinStep step) const;

  /// Closes the tree over every relation with the final π; renumbers and
  /// validates.
  Result<QueryPlan> Complete(std::unique_ptr<PlanNode> tree) const;

 private:
  /// Scan of `rel` under its pushed-down π and the σ of the conjuncts over
  /// `rel` alone that reach it when it joins a prefix over `placed`.
  std::unique_ptr<PlanNode> Operand(catalog::RelationId rel,
                                    const IdSet& placed) const;
  /// Index of the first conjunct over several relations not all in
  /// `placed` (the conjunct count when none). It is the first to land
  /// above the prefix over `placed`; every later conjunct merges there.
  std::size_t FirstAbove(const IdSet& placed) const;

  const catalog::Catalog& cat_;
  const QuerySpec& spec_;
  IdSet required_;                       ///< attributes read above the leaves
  std::vector<IdSet> conjunct_relations_;  ///< per WHERE conjunct
};

class PlanBuilder {
 public:
  explicit PlanBuilder(const catalog::Catalog& cat,
                       const StatsCatalog* stats = nullptr,
                       const StatsFeedback* feedback = nullptr)
      : cat_(cat), stats_(stats), feedback_(feedback) {}

  /// Builds and validates the left-deep plan of `spec`'s join order by
  /// folding LeftDeepBuilder::Extend over it. Fails when the spec is invalid.
  Result<QueryPlan> Build(const QuerySpec& spec) const;

  /// Finishes an externally built join tree (scans + joins covering exactly
  /// the relations of `spec`, any shape, bushy included): places WHERE
  /// conjuncts, pushes projections, adds the final π, renumbers and
  /// validates. The reference the left-deep fold is tested against.
  Result<QueryPlan> Finish(std::unique_ptr<PlanNode> join_tree,
                           const QuerySpec& spec) const;

  /// Estimated output cardinality of a plan subtree under this builder's
  /// statistics (used by tests and the cost-based safe planner). A measured
  /// cardinality from the feedback store, when attached and hit, overrides
  /// the model estimate for the whole subtree.
  double EstimateCardinality(const PlanNode& node) const;

 private:
  const catalog::Catalog& cat_;
  const StatsCatalog* stats_;        // may be null: defaults apply
  const StatsFeedback* feedback_;    // may be null: model estimates only
};

}  // namespace cisqp::plan
