// QuerySpec: a bound select-from-where query (paper §2 query class).
//
// `SELECT A FROM R1 JOIN R2 ON c1 ... JOIN Rn ON cn-1 WHERE C` after name
// resolution: attribute ids for the select list, the chain of joined
// relations with their oriented equi-join atoms, and the conjunctive WHERE
// predicate. Produced by the SQL binder, consumed by the plan builder, and
// constructible directly for programmatic use.
#pragma once

#include <string>
#include <vector>

#include "algebra/expr.hpp"
#include "catalog/catalog.hpp"

namespace cisqp::plan {

/// One `JOIN R ON ...` step. Atoms are oriented: `.left` is an attribute of
/// an earlier FROM entry, `.right` one of `relation`.
struct JoinStep {
  catalog::RelationId relation = catalog::kInvalidId;
  std::vector<algebra::EquiJoinAtom> atoms;
};

struct QuerySpec {
  /// SELECT DISTINCT: the final projection eliminates duplicates (the
  /// paper's algebra is set-based; plain SELECT keeps multiset semantics).
  bool distinct = false;
  std::vector<catalog::AttributeId> select_list;
  catalog::RelationId first_relation = catalog::kInvalidId;
  std::vector<JoinStep> joins;
  algebra::Predicate where;

  /// All relations in FROM order.
  std::vector<catalog::RelationId> Relations() const;

  /// Checks referential integrity: every select/where attribute belongs to a
  /// FROM relation, every join atom links a new relation to an earlier one,
  /// every step has at least one atom (cross joins are out of model).
  Status Validate(const catalog::Catalog& cat) const;

  /// Round-trippable SQL-ish rendering.
  std::string ToString(const catalog::Catalog& cat) const;
};

}  // namespace cisqp::plan
