// Query tree plans (paper §2).
//
// A query tree plan is a binary tree whose leaves are base relations and
// whose inner nodes are relational operators; the root produces the query
// result. Nodes carry stable level-order (BFS) ids — the numbering the
// paper's figures use — so planners and executors can attach per-node
// information (profiles, executor assignments, costs) without mutating the
// tree, and traces compare one-to-one with the paper's Fig. 7.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algebra/expr.hpp"
#include "catalog/catalog.hpp"

namespace cisqp::plan {

enum class PlanOp : std::uint8_t {
  kRelation,  ///< leaf: scan of a base relation
  kProject,   ///< π over the single child
  kSelect,    ///< σ over the single child
  kJoin,      ///< equi-join of the two children
};

std::string_view PlanOpName(PlanOp op) noexcept;

/// One node of a query tree plan. Children are owned.
struct PlanNode {
  PlanOp op = PlanOp::kRelation;
  int id = -1;  ///< stable level-order id, assigned by QueryPlan::Renumber

  // kRelation
  catalog::RelationId relation = catalog::kInvalidId;
  // kProject: output attributes in order; `distinct` adds duplicate
  // elimination (set-semantics projection)
  std::vector<catalog::AttributeId> projection;
  bool distinct = false;
  // kSelect
  algebra::Predicate predicate;
  // kJoin: atoms oriented so .left is produced by the left child and .right
  // by the right child
  std::vector<algebra::EquiJoinAtom> join_atoms;

  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;

  bool is_leaf() const noexcept { return op == PlanOp::kRelation; }
  bool is_unary() const noexcept {
    return op == PlanOp::kProject || op == PlanOp::kSelect;
  }

  /// Ordered output header of this subtree (join = left ++ right).
  std::vector<catalog::AttributeId> OutputAttributes(
      const catalog::Catalog& cat) const;

  /// Deep copy (ids preserved).
  std::unique_ptr<PlanNode> Clone() const;

  // Factory helpers.
  static std::unique_ptr<PlanNode> Relation(catalog::RelationId rel);
  static std::unique_ptr<PlanNode> Project(std::unique_ptr<PlanNode> child,
                                           std::vector<catalog::AttributeId> attrs);
  static std::unique_ptr<PlanNode> Select(std::unique_ptr<PlanNode> child,
                                          algebra::Predicate predicate);
  static std::unique_ptr<PlanNode> Join(std::unique_ptr<PlanNode> l,
                                        std::unique_ptr<PlanNode> r,
                                        std::vector<algebra::EquiJoinAtom> atoms);
};

/// Owning wrapper for a plan tree with id management and validation.
class QueryPlan {
 public:
  QueryPlan() = default;
  explicit QueryPlan(std::unique_ptr<PlanNode> root) : root_(std::move(root)) {
    Renumber();
  }

  QueryPlan(QueryPlan&&) = default;
  QueryPlan& operator=(QueryPlan&&) = default;

  const PlanNode* root() const noexcept { return root_.get(); }
  PlanNode* mutable_root() noexcept { return root_.get(); }
  bool empty() const noexcept { return root_ == nullptr; }

  /// Re-assigns node ids in level order (root = 0); returns the node count.
  int Renumber();

  int node_count() const noexcept { return node_count_; }

  /// Node with id `id`; nullptr when out of range.
  const PlanNode* node(int id) const;

  /// Checks structural well-formedness: child presence per operator arity,
  /// projection/selection attributes available in the child output, join
  /// atoms oriented left/right, all catalog ids valid.
  Status Validate(const catalog::Catalog& cat) const;

  /// Number of join nodes.
  int JoinCount() const;

  QueryPlan Clone() const;

  /// Calls `fn` on every node in pre-order.
  void ForEachPreOrder(const std::function<void(const PlanNode&)>& fn) const;

  /// Indented multi-line rendering with node ids.
  std::string ToString(const catalog::Catalog& cat) const;

 private:
  std::unique_ptr<PlanNode> root_;
  int node_count_ = 0;
  std::vector<const PlanNode*> by_id_;  // rebuilt by Renumber
};

}  // namespace cisqp::plan
