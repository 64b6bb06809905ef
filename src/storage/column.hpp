// Columnar table layout: typed column vectors with null bitmaps and
// per-column string dictionaries (DESIGN.md §12).
//
// A ColumnarTable carries the same header as a row Table — the ordered list
// of catalog attributes with their types — but stores cells column-wise:
// int64/double columns as contiguous value vectors, string columns as
// dictionary codes into a per-column intern table (with the hash of every
// dictionary entry cached, so join/distinct hashing never re-hashes string
// bytes). NULLs live in a separate bitmap per column; the data slot of a
// NULL cell holds a zero sentinel that must never be read.
//
// The layout exists for the vectorized kernels in algebra/vectorized:
// selection vectors index rows, gather lists materialize operator outputs in
// one pass, and the wire size of a table is maintained incrementally so the
// execution engine accounts a shipment in O(columns) instead of O(cells).
// Rows come back only through a row Table viewing a ColumnarTable
// (storage/table), which builds them on first read.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.hpp"
#include "common/thread_pool.hpp"
#include "storage/table.hpp"
#include "storage/value.hpp"

namespace cisqp::storage {

/// One typed column: value vector + null bitmap (+ dictionary for strings).
class ColumnVector {
 public:
  explicit ColumnVector(catalog::ValueType type) : type_(type) {}

  catalog::ValueType type() const noexcept { return type_; }
  std::size_t size() const noexcept { return size_; }

  void Reserve(std::size_t n);

  /// Appends one cell. Precondition: `v` is NULL or matches type().
  void Append(const Value& v);
  void AppendNull();

  bool IsNull(std::size_t i) const noexcept {
    return (null_words_[i >> 6] >> (i & 63)) & 1u;
  }

  // Typed accessors; precondition: !IsNull(i) and the matching type().
  std::int64_t Int64At(std::size_t i) const noexcept { return ints_[i]; }
  double DoubleAt(std::size_t i) const noexcept { return doubles_[i]; }
  const std::string& StringAt(std::size_t i) const { return dict_[codes_[i]]; }
  std::uint32_t CodeAt(std::size_t i) const noexcept { return codes_[i]; }

  /// The cell as a tagged Value (materialization path; allocates for strings).
  Value ValueAt(std::size_t i) const;

  /// Type-tagged cell hash, consistent across columns and tables: equal cells
  /// (per CellsEqual) hash equally. String hashes come from the dictionary
  /// cache — O(1) per cell.
  std::size_t HashAt(std::size_t i) const noexcept;

  /// Cell equality with Value::operator== semantics: NULL equals NULL (the
  /// Distinct contract), differing types never compare equal, otherwise
  /// typed value equality. Join kernels filter NULL keys before calling.
  bool CellsEqual(std::size_t i, const ColumnVector& other,
                  std::size_t j) const noexcept;

  /// Total wire size of the column, maintained incrementally on append.
  std::size_t wire_bytes() const noexcept { return wire_bytes_; }

  /// Bulk append of `src`'s cells at `ids`, in order. Strings remap through
  /// a per-call code translation table — one intern per *distinct* source
  /// value, not per gathered cell.
  void GatherFrom(const ColumnVector& src, const SelectionVector& ids);

  /// GatherFrom fanned across `pool` in morsels of `morsel_rows` (rounded up
  /// to a multiple of 64 so each morsel owns whole null-bitmap words).
  /// Preconditions: the column is empty, and `morsel_rows > 0`. Produces a
  /// column bit-identical to the sequential GatherFrom: the dictionary is
  /// interned serially (in source-code order) before the parallel fill, and
  /// the wire size is reduced from per-morsel partials in morsel order.
  void GatherFromParallel(const ColumnVector& src, const SelectionVector& ids,
                          ThreadPool& pool, std::size_t morsel_rows);

  const std::vector<std::string>& dictionary() const noexcept { return dict_; }

 private:
  std::uint32_t InternString(const std::string& s);

  catalog::ValueType type_;
  std::size_t size_ = 0;
  std::size_t wire_bytes_ = 0;
  std::vector<std::uint64_t> null_words_;  ///< bit set = NULL
  std::vector<std::int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::uint32_t> codes_;       ///< indexes into dict_
  std::vector<std::string> dict_;          ///< per-column intern table
  std::vector<std::size_t> dict_hash_;     ///< cached hash per dict entry
  std::unordered_map<std::string, std::uint32_t> dict_index_;
};

/// An in-memory relation instance in columnar layout: how the cluster stores
/// base relations and how batches flow between kernels. FromRows loads a row
/// Table; a row Table viewing this one reads it back.
class ColumnarTable {
 public:
  ColumnarTable() = default;
  explicit ColumnarTable(std::vector<Column> header);
  /// Assembles a table from independently gathered columns (join outputs).
  /// All columns must have the same size.
  ColumnarTable(std::vector<Column> header, std::vector<ColumnVector> cols);

  /// Converts a validated row table. Cell types were checked on the row side.
  static ColumnarTable FromRows(const Table& rows);

  const std::vector<Column>& columns() const noexcept { return header_; }
  std::size_t column_count() const noexcept { return header_.size(); }
  std::size_t row_count() const noexcept { return row_count_; }
  bool empty() const noexcept { return row_count_ == 0; }

  const ColumnVector& column(std::size_t i) const { return cols_[i]; }

  /// First column carrying `attribute`, if present — O(1) via the
  /// precomputed attribute→column map.
  std::optional<std::size_t> ColumnIndex(catalog::AttributeId attribute) const;

  /// Appends one row of validated cells.
  void AppendRow(const Row& row);

  /// Total wire size under the Table::WireSizeBytes formula; cached —
  /// O(columns), never walks cells.
  std::size_t WireSizeBytes() const noexcept;

 private:
  std::vector<Column> header_;
  std::vector<ColumnVector> cols_;
  std::unordered_map<catalog::AttributeId, std::size_t> index_;
  std::size_t row_count_ = 0;
};

}  // namespace cisqp::storage
