// Cluster: the simulated federation's data plane.
//
// Holds one columnar table per base relation, conceptually resident at the
// relation's home server (paper §2: each relation is stored in full at one
// server). Inserts validate each row against the relation's schema.
//
// Loading precedes execution: InsertRow is not synchronized, and every
// insert happens before the first execution starts. A table ColumnarOf or
// TableOf has handed out is never mutated; an insert into a relation whose
// table is still held elsewhere copies it first, so a holder keeps the rows
// it saw.
#pragma once

#include <memory>
#include <vector>

#include "catalog/catalog.hpp"
#include "storage/column.hpp"
#include "storage/table.hpp"

namespace cisqp::exec {

class Cluster {
 public:
  /// Starts every relation as an empty, correctly headed table.
  explicit Cluster(const catalog::Catalog& cat);

  const catalog::Catalog& catalog() const noexcept { return cat_; }

  /// Appends one row to `rel`'s table after checking it with
  /// storage::CheckRow.
  Status InsertRow(catalog::RelationId rel, const storage::Row& row);

  /// The instance of `rel` as a row Table viewing the stored table
  /// (oracles, tests, display): O(columns), rows built on first read.
  storage::Table TableOf(catalog::RelationId rel) const;

  /// The stored table of `rel`, shared by every plan that scans it.
  std::shared_ptr<const storage::ColumnarTable> ColumnarOf(
      catalog::RelationId rel) const;

 private:
  const catalog::Catalog& cat_;
  std::vector<std::shared_ptr<storage::ColumnarTable>> tables_;
};

}  // namespace cisqp::exec
