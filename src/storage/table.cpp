#include "storage/table.hpp"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "storage/column.hpp"

namespace cisqp::storage {

Status CheckRow(const std::vector<Column>& header, const Row& row) {
  if (row.size() != header.size()) {
    return InvalidArgumentError("row arity " + std::to_string(row.size()) +
                                " does not match table arity " +
                                std::to_string(header.size()));
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != header[i].type) {
      return InvalidArgumentError(
          "cell " + std::to_string(i) + " has type '" +
          std::string(catalog::ValueTypeName(row[i].type())) +
          "', column expects '" +
          std::string(catalog::ValueTypeName(header[i].type)) + "'");
    }
  }
  return Status::Ok();
}

namespace {

std::vector<std::size_t> AllColumns(const ColumnarTable& table) {
  std::vector<std::size_t> all(table.column_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

}  // namespace

Table::Table(std::shared_ptr<const ColumnarTable> source,
             std::vector<std::size_t> col_map,
             std::optional<SelectionVector> sel)
    : view_(std::make_shared<View>()) {
  CISQP_CHECK(source != nullptr);
  columns_.reserve(col_map.size());
  for (const std::size_t c : col_map) {
    CISQP_CHECK(c < source->column_count());
    columns_.push_back(source->columns()[c]);
  }
  BuildColumnIndex();
  view_->row_count = sel ? sel->size() : source->row_count();
  view_->source = std::move(source);
  view_->col_map = std::move(col_map);
  view_->sel = std::move(sel);
}

Table::Table(std::shared_ptr<const ColumnarTable> source)
    : Table(source, AllColumns(*source), std::nullopt) {}

const std::vector<Row>& Table::View::Rows() {
  // The one place columnar cells become Rows. They are built into a local
  // and moved in last: if the build throws, call_once leaves the flag unset
  // and rows_ untouched, so the next reader starts over from nothing.
  std::call_once(built_, [this] {
    std::vector<Row> rows;
    rows.reserve(row_count);
    for (std::size_t r = 0; r < row_count; ++r) {
      const std::size_t id = sel ? (*sel)[r] : r;
      Row row;
      row.reserve(col_map.size());
      for (const std::size_t c : col_map) {
        row.push_back(source->column(c).ValueAt(id));
      }
      rows.push_back(std::move(row));
    }
    rows_ = std::move(rows);
  });
  return rows_;
}

Table Table::ForRelation(const catalog::Catalog& cat, catalog::RelationId rel) {
  const catalog::RelationDef& def = cat.relation(rel);
  std::vector<Column> cols;
  cols.reserve(def.attributes.size());
  for (catalog::AttributeId attr : def.attributes) {
    cols.push_back(Column{attr, cat.attribute(attr).type});
  }
  return Table(std::move(cols));
}

void Table::BuildColumnIndex() {
  column_index_.clear();
  column_index_.reserve(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    column_index_.emplace_back(columns_[i].attribute, i);
  }
  std::sort(column_index_.begin(), column_index_.end());
}

std::optional<std::size_t> Table::ColumnIndex(catalog::AttributeId attribute) const noexcept {
  const auto it = std::lower_bound(
      column_index_.begin(), column_index_.end(),
      std::make_pair(attribute, std::size_t{0}));
  if (it == column_index_.end() || it->first != attribute) return std::nullopt;
  return it->second;
}

IdSet Table::AttributeSet() const {
  IdSet out;
  for (const Column& c : columns_) out.Insert(c.attribute);
  return out;
}

Status Table::AppendRow(Row row) {
  CISQP_RETURN_IF_ERROR(CheckRow(columns_, row));
  AppendRowUnchecked(std::move(row));
  return Status::Ok();
}

std::size_t Table::WireSizeBytes() const {
  std::size_t total = 0;
  for (const Row& r : rows()) {
    for (const Value& v : r) total += v.WireSizeBytes();
  }
  return total;
}

namespace {

bool RowTotalLess(const Row& a, const Row& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int c = a[i].CompareTotal(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

std::vector<std::size_t> SortedRowPermutation(const std::vector<Row>& rows) {
  std::vector<std::size_t> perm(rows.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&rows](std::size_t x, std::size_t y) {
    return RowTotalLess(rows[x], rows[y]);
  });
  return perm;
}

}  // namespace

Table Table::Canonicalized() const {
  Table out = *this;
  out.OwnRows();
  std::sort(out.rows_.begin(), out.rows_.end(), RowTotalLess);
  return out;
}

bool Table::SameRowMultiset(const Table& a, const Table& b) {
  if (a.columns_ != b.columns_) return false;
  if (a.row_count() != b.row_count()) return false;
  const std::vector<Row>& ra = a.rows();
  const std::vector<Row>& rb = b.rows();
  const std::vector<std::size_t> pa = SortedRowPermutation(ra);
  const std::vector<std::size_t> pb = SortedRowPermutation(rb);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!(ra[pa[i]] == rb[pb[i]])) return false;
  }
  return true;
}

std::string Table::ToDisplayString(const catalog::Catalog& cat,
                                   std::size_t max_rows) const {
  std::vector<std::size_t> widths(columns_.size());
  std::vector<std::string> headers(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    headers[i] = cat.attribute(columns_[i].attribute).name;
    widths[i] = headers[i].size();
  }
  const std::vector<Row>& rows = this->rows();
  const std::size_t shown = std::min(max_rows, rows.size());
  std::vector<std::vector<std::string>> cells(shown);
  for (std::size_t r = 0; r < shown; ++r) {
    cells[r].resize(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      cells[r][c] = rows[r][c].ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  std::ostringstream oss;
  const auto rule = [&] {
    oss << "+";
    for (std::size_t w : widths) oss << std::string(w + 2, '-') << "+";
    oss << "\n";
  };
  rule();
  oss << "|";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    oss << " " << std::setw(static_cast<int>(widths[c])) << std::left << headers[c] << " |";
  }
  oss << "\n";
  rule();
  for (std::size_t r = 0; r < shown; ++r) {
    oss << "|";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      oss << " " << std::setw(static_cast<int>(widths[c])) << std::left << cells[r][c] << " |";
    }
    oss << "\n";
  }
  rule();
  if (shown < rows.size()) {
    oss << "(" << rows.size() - shown << " more rows)\n";
  }
  oss << rows.size() << " row(s)\n";
  return oss.str();
}

}  // namespace cisqp::storage
