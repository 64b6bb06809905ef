#include "plan/builder.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisqp::plan {
namespace {

/// Wraps `node` in a selection with `c`, merging into an existing top select.
std::unique_ptr<PlanNode> WrapSelect(std::unique_ptr<PlanNode> node,
                                     const algebra::Comparison& c) {
  if (node->op == PlanOp::kSelect) {
    node->predicate.And(c);
    return node;
  }
  return PlanNode::Select(std::move(node), algebra::Predicate({c}));
}

IdSet OutputSet(const catalog::Catalog& cat, const PlanNode& node) {
  IdSet out;
  for (catalog::AttributeId a : node.OutputAttributes(cat)) out.Insert(a);
  return out;
}

/// Pushes one WHERE conjunct to the lowest subtree producing its attributes.
std::unique_ptr<PlanNode> PushConjunct(const catalog::Catalog& cat,
                                       std::unique_ptr<PlanNode> node,
                                       const algebra::Comparison& c,
                                       const IdSet& refs) {
  if (node->op == PlanOp::kJoin) {
    if (refs.IsSubsetOf(OutputSet(cat, *node->left))) {
      node->left = PushConjunct(cat, std::move(node->left), c, refs);
      return node;
    }
    if (refs.IsSubsetOf(OutputSet(cat, *node->right))) {
      node->right = PushConjunct(cat, std::move(node->right), c, refs);
      return node;
    }
    return WrapSelect(std::move(node), c);
  }
  if (node->op == PlanOp::kSelect) {
    // Placing below an existing selection is equivalent; merge instead.
    node->predicate.And(c);
    return node;
  }
  return WrapSelect(std::move(node), c);
}

/// Ordered filter of `candidates` keeping members of `keep`.
std::vector<catalog::AttributeId> OrderedIntersect(
    const std::vector<catalog::AttributeId>& candidates, const IdSet& keep) {
  std::vector<catalog::AttributeId> out;
  for (catalog::AttributeId a : candidates) {
    if (keep.Contains(a)) out.push_back(a);
  }
  return out;
}

/// Projection pushdown: returns a subtree producing (at least) `required`,
/// inserting π nodes so leaves expose only what is needed above them.
std::unique_ptr<PlanNode> Prune(const catalog::Catalog& cat,
                                std::unique_ptr<PlanNode> node,
                                const IdSet& required) {
  switch (node->op) {
    case PlanOp::kRelation: {
      const std::vector<catalog::AttributeId> out = node->OutputAttributes(cat);
      const std::vector<catalog::AttributeId> keep = OrderedIntersect(out, required);
      CISQP_CHECK_MSG(!keep.empty(), "pruned a leaf to zero attributes");
      if (keep.size() == out.size()) return node;
      return PlanNode::Project(std::move(node), keep);
    }
    case PlanOp::kSelect: {
      const IdSet child_required =
          IdSet::Union(required, node->predicate.ReferencedAttributes());
      node->left = Prune(cat, std::move(node->left), child_required);
      return node;
    }
    case PlanOp::kProject: {
      const std::vector<catalog::AttributeId> keep =
          OrderedIntersect(node->projection, required);
      CISQP_CHECK_MSG(!keep.empty(), "pruned a projection to zero attributes");
      node->projection = keep;
      IdSet child_required;
      for (catalog::AttributeId a : keep) child_required.Insert(a);
      node->left = Prune(cat, std::move(node->left), child_required);
      return node;
    }
    case PlanOp::kJoin: {
      IdSet left_required = IdSet::Intersection(required, OutputSet(cat, *node->left));
      IdSet right_required = IdSet::Intersection(required, OutputSet(cat, *node->right));
      for (const algebra::EquiJoinAtom& atom : node->join_atoms) {
        left_required.Insert(atom.left);
        right_required.Insert(atom.right);
      }
      node->left = Prune(cat, std::move(node->left), left_required);
      node->right = Prune(cat, std::move(node->right), right_required);
      return node;
    }
  }
  return node;
}

/// Wraps `node` in a σ over `predicate` unless it is empty.
std::unique_ptr<PlanNode> SelectIfAny(std::unique_ptr<PlanNode> node,
                                      algebra::Predicate predicate) {
  if (predicate.IsTrue()) return node;
  return PlanNode::Select(std::move(node), std::move(predicate));
}

/// The final π on the select list, unless the tree already produces exactly
/// it (shared by Finish and LeftDeepBuilder::Complete).
std::unique_ptr<PlanNode> ProjectSelectList(const catalog::Catalog& cat,
                                            std::unique_ptr<PlanNode> root,
                                            const QuerySpec& spec) {
  if (spec.distinct || root->OutputAttributes(cat) != spec.select_list) {
    root = PlanNode::Project(std::move(root), spec.select_list);
    root->distinct = spec.distinct;
  }
  return root;
}

}  // namespace

LeftDeepBuilder::LeftDeepBuilder(const catalog::Catalog& cat,
                                 const QuerySpec& spec)
    : cat_(cat), spec_(spec) {
  // Prune keeps at a leaf what the select list, the join atoms and the σs
  // on its path to the root read. Every atom and conjunct over a relation
  // lies on that relation's path, so the keep set depends on the query only.
  for (catalog::AttributeId a : spec.select_list) required_.Insert(a);
  for (const JoinStep& step : spec.joins) {
    for (const algebra::EquiJoinAtom& atom : step.atoms) {
      required_.Insert(atom.left);
      required_.Insert(atom.right);
    }
  }
  for (const algebra::Comparison& c : spec.where.conjuncts()) {
    IdSet relations{cat.attribute(c.lhs).relation};
    required_.Insert(c.lhs);
    if (c.rhs_is_attribute()) {
      const auto rhs = std::get<catalog::AttributeId>(c.rhs);
      required_.Insert(rhs);
      relations.Insert(cat.attribute(rhs).relation);
    }
    conjunct_relations_.push_back(std::move(relations));
  }
}

std::size_t LeftDeepBuilder::FirstAbove(const IdSet& placed) const {
  for (std::size_t i = 0; i < conjunct_relations_.size(); ++i) {
    if (conjunct_relations_[i].size() > 1 &&
        !conjunct_relations_[i].IsSubsetOf(placed)) {
      return i;
    }
  }
  return conjunct_relations_.size();
}

std::unique_ptr<PlanNode> LeftDeepBuilder::Operand(catalog::RelationId rel,
                                                   const IdSet& placed) const {
  std::unique_ptr<PlanNode> node = PlanNode::Relation(rel);
  const std::vector<catalog::AttributeId>& all = cat_.relation(rel).attributes;
  std::vector<catalog::AttributeId> keep = OrderedIntersect(all, required_);
  CISQP_CHECK_MSG(!keep.empty(), "pruned a leaf to zero attributes");
  if (keep.size() != all.size()) {
    node = PlanNode::Project(std::move(node), std::move(keep));
  }
  // Single-relation conjuncts descend to the scan until a σ above the
  // prefix intercepts them.
  algebra::Predicate own;
  const std::size_t above = FirstAbove(placed);
  for (std::size_t i = 0; i < above; ++i) {
    if (conjunct_relations_[i].size() == 1 &&
        conjunct_relations_[i].Contains(rel)) {
      own.And(spec_.where.conjuncts()[i]);
    }
  }
  return SelectIfAny(std::move(node), std::move(own));
}

std::unique_ptr<PlanNode> LeftDeepBuilder::Start(
    catalog::RelationId first) const {
  return Operand(first, IdSet{});
}

std::unique_ptr<PlanNode> LeftDeepBuilder::Extend(
    std::unique_ptr<PlanNode> prefix, const IdSet& placed,
    JoinStep step) const {
  const catalog::RelationId rel = step.relation;
  std::unique_ptr<PlanNode> join = PlanNode::Join(
      std::move(prefix), Operand(rel, placed), std::move(step.atoms));
  // The σ over this join opens with the first conjunct that needs `rel` and
  // another relation; from there on every conjunct this prefix covers
  // merges into it, until one needs a relation still to come.
  IdSet joined = placed;
  joined.Insert(rel);
  algebra::Predicate landing;
  const std::size_t end = FirstAbove(joined);
  for (std::size_t i = FirstAbove(placed); i < end; ++i) {
    if (conjunct_relations_[i].IsSubsetOf(joined)) {
      landing.And(spec_.where.conjuncts()[i]);
    }
  }
  return SelectIfAny(std::move(join), std::move(landing));
}

Result<QueryPlan> LeftDeepBuilder::Complete(
    std::unique_ptr<PlanNode> tree) const {
  QueryPlan plan(ProjectSelectList(cat_, std::move(tree), spec_));
  CISQP_RETURN_IF_ERROR(plan.Validate(cat_));
  return plan;
}

Result<QueryPlan> PlanBuilder::Build(const QuerySpec& spec) const {
  CISQP_TRACE_SPAN(span, "plan.build");
  span.AddAttribute("relations", spec.Relations().size());
  CISQP_METRIC_INC("plan.builds");
  CISQP_RETURN_IF_ERROR(spec.Validate(cat_));

  const LeftDeepBuilder left_deep(cat_, spec);
  std::unique_ptr<PlanNode> root = left_deep.Start(spec.first_relation);
  IdSet placed{spec.first_relation};
  for (const JoinStep& step : spec.joins) {
    root = left_deep.Extend(std::move(root), placed, step);
    placed.Insert(step.relation);
  }
  return left_deep.Complete(std::move(root));
}

Result<QueryPlan> PlanBuilder::Finish(std::unique_ptr<PlanNode> root,
                                      const QuerySpec& spec) const {
  CISQP_RETURN_IF_ERROR(spec.Validate(cat_));
  if (root == nullptr) return InvalidArgumentError("null join tree");

  // WHERE placement.
  for (const algebra::Comparison& c : spec.where.conjuncts()) {
    IdSet refs;
    refs.Insert(c.lhs);
    if (c.rhs_is_attribute()) {
      refs.Insert(std::get<catalog::AttributeId>(c.rhs));
    }
    root = PushConjunct(cat_, std::move(root), c, refs);
  }

  // Projection pushdown, then the final π on the select list.
  IdSet required;
  for (catalog::AttributeId a : spec.select_list) required.Insert(a);
  root = Prune(cat_, std::move(root), required);

  QueryPlan plan(ProjectSelectList(cat_, std::move(root), spec));
  CISQP_RETURN_IF_ERROR(plan.Validate(cat_));
  return plan;
}

double PlanBuilder::EstimateCardinality(const PlanNode& node) const {
  const auto distinct_of = [&](catalog::AttributeId attr) {
    const catalog::RelationId rel = cat_.attribute(attr).relation;
    return stats_ != nullptr ? stats_->Of(rel).DistinctOf(attr)
                             : RelationStats{}.DistinctOf(attr);
  };
  // Measured beats modeled — but never for π: a plain π shares its child's
  // signature (and count) while a DISTINCT π does not, so π always computes
  // from its child (whose recursion consults the feedback itself).
  if (feedback_ != nullptr && node.op != PlanOp::kProject) {
    if (const std::optional<double> measured =
            feedback_->Lookup(SubtreeSignature(node))) {
      return *measured;
    }
  }
  switch (node.op) {
    case PlanOp::kRelation:
      return stats_ != nullptr ? stats_->Of(node.relation).rows
                               : RelationStats{}.rows;
    case PlanOp::kProject: {
      double card = EstimateCardinality(*node.left);
      if (node.distinct) {
        double combos = 1.0;
        for (catalog::AttributeId a : node.projection) {
          combos *= std::max(distinct_of(a), 1.0);
        }
        card = std::min(card, combos);
      }
      return card;
    }
    case PlanOp::kSelect: {
      double card = EstimateCardinality(*node.left);
      for (const algebra::Comparison& c : node.predicate.conjuncts()) {
        if (c.op == algebra::CompareOp::kEq) {
          double d = distinct_of(c.lhs);
          if (c.rhs_is_attribute()) {
            d = std::max(d, distinct_of(std::get<catalog::AttributeId>(c.rhs)));
          }
          card /= std::max(d, 1.0);
        } else {
          card /= 3.0;  // textbook default for range predicates
        }
      }
      return card;
    }
    case PlanOp::kJoin: {
      double card =
          EstimateCardinality(*node.left) * EstimateCardinality(*node.right);
      for (const algebra::EquiJoinAtom& atom : node.join_atoms) {
        card /= std::max({distinct_of(atom.left), distinct_of(atom.right), 1.0});
      }
      return card;
    }
  }
  return 0.0;
}

}  // namespace cisqp::plan
