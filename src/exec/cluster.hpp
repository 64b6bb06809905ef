// Cluster: the simulated federation's data plane.
//
// Holds one table per base relation, conceptually resident at the relation's
// home server (paper §2: each relation is stored in full at one server).
// Loading validates the table header against the catalog schema.
#pragma once

#include <memory>
#include <mutex>
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

  /// Installs `table` as the instance of `rel`. The header must be exactly
  /// the relation's attributes in declaration order.
  Status LoadTable(catalog::RelationId rel, storage::Table table);

  /// Appends one row to `rel`'s table.
  Status InsertRow(catalog::RelationId rel, storage::Row row);

  /// The instance of `rel`; an empty correctly-headed table when never loaded.
  const storage::Table& TableOf(catalog::RelationId rel) const;

  /// Columnar form of `rel`'s table, built lazily on first use and shared by
  /// every plan that scans the relation. Invalidated by LoadTable/InsertRow.
  std::shared_ptr<const storage::ColumnarTable> ColumnarOf(
      catalog::RelationId rel) const;

 private:
  const catalog::Catalog& cat_;
  std::vector<storage::Table> tables_;
  /// Lazily-built columnar views of tables_, guarded for concurrent
  /// executions that scan the same relation. The mutex lives behind a
  /// pointer so Cluster stays movable.
  mutable std::unique_ptr<std::mutex> columnar_mu_ =
      std::make_unique<std::mutex>();
  mutable std::vector<std::shared_ptr<const storage::ColumnarTable>> columnar_;
};

}  // namespace cisqp::exec
