// Table: an in-memory relation instance (base or intermediate result).
//
// A Table is a header — the ordered list of catalog attribute ids with their
// types — plus its rows. Most tables own a row store built row by row (input
// rows, the row-kernel oracles). A table can instead be a view of a columnar
// table (storage/column): query results and Cluster::TableOf are built that
// way in O(columns), and their rows are built once, the first time a caller
// reads them. Header queries and row_count() never build rows.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "storage/value.hpp"

namespace cisqp::storage {

class ColumnarTable;  // storage/column.hpp, which includes this header

/// Row ids into a ColumnarTable, in output order. The unit the vectorized
/// kernels operate on: σ narrows one, ⋈ emits gather lists of them.
using SelectionVector = std::vector<std::uint32_t>;

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

  /// A view of `source`: column c is source column `col_map[c]`, and row r
  /// is source row `(*sel)[r]`, or row r when there is no selection. Costs
  /// O(columns). The view keeps `source` alive; copies share the view and
  /// the rows it builds on first read.
  Table(std::shared_ptr<const ColumnarTable> source,
        std::vector<std::size_t> col_map, std::optional<SelectionVector> sel);
  /// The identity view of `source`: all its columns and rows, in order.
  explicit Table(std::shared_ptr<const ColumnarTable> source);

  /// Builds an empty table with the schema of base relation `rel`.
  static Table ForRelation(const catalog::Catalog& cat, catalog::RelationId rel);

  const std::vector<Column>& columns() const noexcept { return columns_; }
  std::size_t column_count() const noexcept { return columns_.size(); }
  std::size_t row_count() const noexcept {
    return view_ == nullptr ? rows_.size() : view_->row_count;
  }
  bool empty() const noexcept { return row_count() == 0; }

  /// The rows; a view builds them here, once, safely under concurrent
  /// readers.
  const std::vector<Row>& rows() const {
    return view_ == nullptr ? rows_ : view_->Rows();
  }
  const Row& row(std::size_t i) const {
    CISQP_CHECK(i < row_count());
    return rows()[i];
  }

  /// First column carrying `attribute`, if present — resolved against the
  /// index precomputed at construction, not by scanning the header.
  std::optional<std::size_t> ColumnIndex(catalog::AttributeId attribute) const noexcept;

  /// The set of attribute ids in the header.
  IdSet AttributeSet() const;

  // Appends and Reserve first copy a view's rows into this table's own
  // store; the copies sharing the view never change.

  /// Appends a row after checking it with CheckRow.
  Status AppendRow(Row row);

  /// Appends without validation; for operator internals that construct rows
  /// from already-validated inputs.
  void AppendRowUnchecked(Row row) {
    OwnRows();
    rows_.push_back(std::move(row));
  }

  void Reserve(std::size_t n) {
    OwnRows();
    rows_.reserve(n);
  }

  /// Total approximate wire size of all rows, by Value::WireSizeBytes; a
  /// view builds its rows to sum it. Shipments are priced by
  /// ColumnarTable::WireSizeBytes instead.
  std::size_t WireSizeBytes() const;

  /// Rows sorted by total order — a canonical form for multiset comparison.
  Table Canonicalized() const;

  /// True iff both tables have identical headers and equal row multisets.
  /// Compares via sorted row-index permutations — no table or row copies.
  static bool SameRowMultiset(const Table& a, const Table& b);

  /// Renders an aligned ASCII table (examples / debugging).
  std::string ToDisplayString(const catalog::Catalog& cat,
                              std::size_t max_rows = 20) const;

 private:
  /// A columnar view and the rows built from it on first read.
  struct View {
    std::shared_ptr<const ColumnarTable> source;
    std::vector<std::size_t> col_map;
    std::optional<SelectionVector> sel;
    std::size_t row_count = 0;

    /// Builds the rows on the first call; every later call returns them.
    const std::vector<Row>& Rows();

   private:
    std::once_flag built_;
    std::vector<Row> rows_;
  };

  void BuildColumnIndex();
  /// Turns a view into a table that owns its rows.
  void OwnRows() {
    if (view_ == nullptr) return;
    rows_ = view_->Rows();
    view_.reset();
  }

  std::vector<Column> columns_;
  std::vector<Row> rows_;  ///< unused while view_ is set
  /// (attribute, column) pairs sorted by attribute then column, so the first
  /// hit of a binary search is the first occurrence in the header.
  std::vector<std::pair<catalog::AttributeId, std::size_t>> column_index_;
  std::shared_ptr<View> view_;  ///< set for a view; shared by its copies
};

}  // namespace cisqp::storage
