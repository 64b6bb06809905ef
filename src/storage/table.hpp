// Table: an in-memory relation instance (base or intermediate result).
//
// A Table is a header — the ordered list of catalog attribute ids with their
// types — plus a row store. Base relations are tables whose columns are
// exactly one RelationDef's attributes; operator outputs and shipped
// fragments reuse the same representation, so the execution engine can
// account the wire size of anything it moves with one code path.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "storage/value.hpp"

namespace cisqp::storage {

/// Header entry: which catalog attribute a column carries.
struct Column {
  catalog::AttributeId attribute = catalog::kInvalidId;
  catalog::ValueType type = catalog::ValueType::kInt64;

  friend bool operator==(const Column&, const Column&) = default;
};

/// Checks that `row` fits `header`: same arity, and every non-NULL cell of
/// its column's type (NULL fits any type).
Status CheckRow(const std::vector<Column>& header, const Row& row);

/// An in-memory relation instance with value semantics.
class Table {
 public:
  Table() = default;
  explicit Table(std::vector<Column> columns) : columns_(std::move(columns)) {
    BuildColumnIndex();
  }

  /// Builds an empty table with the schema of base relation `rel`.
  static Table ForRelation(const catalog::Catalog& cat, catalog::RelationId rel);

  const std::vector<Column>& columns() const noexcept { return columns_; }
  std::size_t column_count() const noexcept { return columns_.size(); }
  std::size_t row_count() const noexcept { return rows_.size(); }
  bool empty() const noexcept { return rows_.empty(); }

  const std::vector<Row>& rows() const noexcept { return rows_; }
  const Row& row(std::size_t i) const { CISQP_CHECK(i < rows_.size()); return rows_[i]; }

  /// First column carrying `attribute`, if present — resolved against the
  /// index precomputed at construction, not by scanning the header.
  std::optional<std::size_t> ColumnIndex(catalog::AttributeId attribute) const noexcept;

  /// The set of attribute ids in the header.
  IdSet AttributeSet() const;

  /// Appends a row after checking it with CheckRow.
  Status AppendRow(Row row);

  /// Appends without validation; for operator internals that construct rows
  /// from already-validated inputs.
  void AppendRowUnchecked(Row row) { rows_.push_back(std::move(row)); }

  void Reserve(std::size_t n) { rows_.reserve(n); }

  /// Total approximate wire size of all rows (used by the network model).
  std::size_t WireSizeBytes() const noexcept;

  /// Rows sorted by total order — a canonical form for multiset comparison.
  Table Canonicalized() const;

  /// True iff both tables have identical headers and equal row multisets.
  /// Compares via sorted row-index permutations — no table or row copies.
  static bool SameRowMultiset(const Table& a, const Table& b);

  /// Renders an aligned ASCII table (examples / debugging).
  std::string ToDisplayString(const catalog::Catalog& cat,
                              std::size_t max_rows = 20) const;

 private:
  void BuildColumnIndex();

  std::vector<Column> columns_;
  std::vector<Row> rows_;
  /// (attribute, column) pairs sorted by attribute then column, so the first
  /// hit of a binary search is the first occurrence in the header.
  std::vector<std::pair<catalog::AttributeId, std::size_t>> column_index_;
};

}  // namespace cisqp::storage
