#include "storage/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

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
  rows_.push_back(std::move(row));
  return Status::Ok();
}

std::size_t Table::WireSizeBytes() const noexcept {
  std::size_t total = 0;
  for (const Row& r : rows_) {
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
  std::sort(out.rows_.begin(), out.rows_.end(), RowTotalLess);
  return out;
}

bool Table::SameRowMultiset(const Table& a, const Table& b) {
  if (a.columns_ != b.columns_) return false;
  if (a.row_count() != b.row_count()) return false;
  const std::vector<std::size_t> pa = SortedRowPermutation(a.rows_);
  const std::vector<std::size_t> pb = SortedRowPermutation(b.rows_);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!(a.rows_[pa[i]] == b.rows_[pb[i]])) return false;
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
  const std::size_t shown = std::min(max_rows, rows_.size());
  std::vector<std::vector<std::string>> cells(shown);
  for (std::size_t r = 0; r < shown; ++r) {
    cells[r].resize(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      cells[r][c] = rows_[r][c].ToString();
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
  if (shown < rows_.size()) {
    oss << "(" << rows_.size() - shown << " more rows)\n";
  }
  oss << rows_.size() << " row(s)\n";
  return oss.str();
}

}  // namespace cisqp::storage
