// The retained row-at-a-time operator kernels (DESIGN.md §12.4).
//
// These are the original `algebra` operator implementations, kept verbatim
// in spirit as the differential oracle after the production engine moved to
// columnar batches: one Row per tuple, per-row key extraction, per-cell
// copies. The fuzz harness and the kernel-equivalence suite run every
// production operator against its row twin; `ReferenceEvaluate` is the
// single-site reference evaluator built from them (the harness's results
// arm), so every fuzz seed differentially validates the columnar engine.
//
// The only deliberate deviations from the historical code are the two
// fixed inefficiencies this sweep pinned with tests: Select reserves its
// output, and Distinct hashes row indices instead of re-copying every row
// it just hashed. Semantics — including output row order — are unchanged.
#pragma once

#include "algebra/expr.hpp"
#include "exec/cluster.hpp"
#include "plan/plan_node.hpp"

namespace cisqp::testcheck {

/// π over rows: keeps columns `attrs` in order; `distinct` removes
/// duplicates keeping first occurrences.
Result<storage::Table> RowProject(const storage::Table& input,
                                  const std::vector<catalog::AttributeId>& attrs,
                                  bool distinct = false);

/// σ over rows.
Result<storage::Table> RowSelect(const storage::Table& input,
                                 const algebra::Predicate& predicate);

/// Hash equi-join over rows (per-row key allocation, as the engine had it).
Result<storage::Table> RowHashJoin(const storage::Table& left,
                                   const storage::Table& right,
                                   const std::vector<algebra::EquiJoinAtom>& atoms);

/// Natural join on shared attributes over rows.
Result<storage::Table> RowNaturalJoinOnShared(const storage::Table& left,
                                              const storage::Table& right);

/// Duplicate elimination over rows, first occurrence kept.
storage::Table RowDistinct(const storage::Table& input);

/// Single-site reference evaluation of `plan` using only the row kernels —
/// the oracle the columnar execution engine is differentially checked
/// against (exec::ExecuteCentralized runs the production columnar kernels).
Result<storage::Table> ReferenceEvaluate(const exec::Cluster& cluster,
                                         const plan::QueryPlan& plan);

}  // namespace cisqp::testcheck
