#include "storage/column.hpp"

namespace cisqp::storage {
namespace {

// Type tags folded into cell hashes so equal-looking cells of different
// types (int64 1 vs double 1.0) land in different hash classes, matching
// CellsEqual's "differing types never equal".
constexpr std::size_t kNullHash = 0x9e3779b97f4a7c15ull;
constexpr std::size_t kInt64Tag = 1;
constexpr std::size_t kDoubleTag = 2;
constexpr std::size_t kStringTag = 3;

std::size_t HashString(const std::string& s) {
  std::size_t seed = kStringTag;
  HashCombine(seed, s);
  return seed;
}

}  // namespace

void ColumnVector::Reserve(std::size_t n) {
  null_words_.reserve((n + 63) / 64);
  switch (type_) {
    case catalog::ValueType::kInt64: ints_.reserve(n); break;
    case catalog::ValueType::kDouble: doubles_.reserve(n); break;
    case catalog::ValueType::kString: codes_.reserve(n); break;
  }
}

void ColumnVector::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if ((size_ & 63) == 0) null_words_.push_back(0);
  switch (type_) {
    case catalog::ValueType::kInt64:
      ints_.push_back(v.AsInt64());
      wire_bytes_ += 8;
      break;
    case catalog::ValueType::kDouble:
      doubles_.push_back(v.AsDouble());
      wire_bytes_ += 8;
      break;
    case catalog::ValueType::kString:
      codes_.push_back(InternString(v.AsString()));
      wire_bytes_ += v.AsString().size() + 4;
      break;
  }
  ++size_;
}

void ColumnVector::AppendNull() {
  if ((size_ & 63) == 0) null_words_.push_back(0);
  null_words_[size_ >> 6] |= std::uint64_t{1} << (size_ & 63);
  // Zero sentinel keeps data vectors index-aligned; masked by the null bit.
  switch (type_) {
    case catalog::ValueType::kInt64: ints_.push_back(0); break;
    case catalog::ValueType::kDouble: doubles_.push_back(0.0); break;
    case catalog::ValueType::kString: codes_.push_back(0); break;
  }
  wire_bytes_ += 1;
  ++size_;
}

Value ColumnVector::ValueAt(std::size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case catalog::ValueType::kInt64: return Value(ints_[i]);
    case catalog::ValueType::kDouble: return Value(doubles_[i]);
    case catalog::ValueType::kString: return Value(dict_[codes_[i]]);
  }
  return Value::Null();
}

std::size_t ColumnVector::HashAt(std::size_t i) const noexcept {
  if (IsNull(i)) return kNullHash;
  switch (type_) {
    case catalog::ValueType::kInt64: {
      std::size_t seed = kInt64Tag;
      HashCombine(seed, ints_[i]);
      return seed;
    }
    case catalog::ValueType::kDouble: {
      std::size_t seed = kDoubleTag;
      HashCombine(seed, doubles_[i]);
      return seed;
    }
    case catalog::ValueType::kString:
      return dict_hash_[codes_[i]];
  }
  return kNullHash;
}

bool ColumnVector::CellsEqual(std::size_t i, const ColumnVector& other,
                              std::size_t j) const noexcept {
  const bool a_null = IsNull(i);
  const bool b_null = other.IsNull(j);
  if (a_null || b_null) return a_null && b_null;
  if (type_ != other.type_) return false;
  switch (type_) {
    case catalog::ValueType::kInt64: return ints_[i] == other.ints_[j];
    case catalog::ValueType::kDouble: return doubles_[i] == other.doubles_[j];
    case catalog::ValueType::kString:
      if (&dict_ == &other.dict_) return codes_[i] == other.codes_[j];
      return dict_[codes_[i]] == other.dict_[other.codes_[j]];
  }
  return false;
}

void ColumnVector::GatherFrom(const ColumnVector& src,
                              const SelectionVector& ids) {
  CISQP_CHECK(src.type_ == type_);
  Reserve(size_ + ids.size());
  switch (type_) {
    case catalog::ValueType::kInt64:
      for (const std::uint32_t id : ids) {
        if (src.IsNull(id)) {
          AppendNull();
        } else {
          if ((size_ & 63) == 0) null_words_.push_back(0);
          ints_.push_back(src.ints_[id]);
          wire_bytes_ += 8;
          ++size_;
        }
      }
      break;
    case catalog::ValueType::kDouble:
      for (const std::uint32_t id : ids) {
        if (src.IsNull(id)) {
          AppendNull();
        } else {
          if ((size_ & 63) == 0) null_words_.push_back(0);
          doubles_.push_back(src.doubles_[id]);
          wire_bytes_ += 8;
          ++size_;
        }
      }
      break;
    case catalog::ValueType::kString: {
      // One intern per distinct source value; cells then move as codes.
      std::vector<std::uint32_t> remap(src.dict_.size());
      for (std::size_t c = 0; c < src.dict_.size(); ++c) {
        remap[c] = InternString(src.dict_[c]);
      }
      for (const std::uint32_t id : ids) {
        if (src.IsNull(id)) {
          AppendNull();
        } else {
          if ((size_ & 63) == 0) null_words_.push_back(0);
          const std::uint32_t code = remap[src.codes_[id]];
          codes_.push_back(code);
          wire_bytes_ += dict_[code].size() + 4;
          ++size_;
        }
      }
      break;
    }
  }
}

void ColumnVector::GatherFromParallel(const ColumnVector& src,
                                      const SelectionVector& ids,
                                      ThreadPool& pool,
                                      std::size_t morsel_rows) {
  CISQP_CHECK(src.type_ == type_);
  CISQP_CHECK_MSG(size_ == 0, "parallel gather requires an empty column");
  CISQP_CHECK(morsel_rows > 0);
  // Morsels own whole 64-bit null-bitmap words, so two workers never write
  // the same word.
  morsel_rows = (morsel_rows + 63) / 64 * 64;
  const std::size_t n = ids.size();
  null_words_.assign((n + 63) / 64, 0);

  // Strings: intern the source dictionary serially first (same order as the
  // sequential GatherFrom's remap loop → identical output dictionary); the
  // parallel fill then only translates codes.
  std::vector<std::uint32_t> remap;
  switch (type_) {
    case catalog::ValueType::kInt64: ints_.resize(n); break;
    case catalog::ValueType::kDouble: doubles_.resize(n); break;
    case catalog::ValueType::kString:
      remap.resize(src.dict_.size());
      for (std::size_t c = 0; c < src.dict_.size(); ++c) {
        remap[c] = InternString(src.dict_[c]);
      }
      codes_.resize(n);
      break;
  }

  const std::size_t morsels = n == 0 ? 0 : (n + morsel_rows - 1) / morsel_rows;
  std::vector<PaddedSlot<std::size_t>> wire(morsels == 0 ? 1 : morsels);
  pool.ParallelForChunks(
      n, morsel_rows, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::size_t bytes = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t id = ids[i];
          if (src.IsNull(id)) {
            null_words_[i >> 6] |= std::uint64_t{1} << (i & 63);
            bytes += 1;
            // The matching data slot keeps its zero sentinel (resize()
            // value-initialized it), exactly like AppendNull.
            continue;
          }
          switch (type_) {
            case catalog::ValueType::kInt64:
              ints_[i] = src.ints_[id];
              bytes += 8;
              break;
            case catalog::ValueType::kDouble:
              doubles_[i] = src.doubles_[id];
              bytes += 8;
              break;
            case catalog::ValueType::kString: {
              const std::uint32_t code = remap[src.codes_[id]];
              codes_[i] = code;
              bytes += dict_[code].size() + 4;
              break;
            }
          }
        }
        wire[begin / morsel_rows].value += bytes;
      });
  size_ = n;
  for (std::size_t m = 0; m < morsels; ++m) wire_bytes_ += wire[m].value;
}

std::uint32_t ColumnVector::InternString(const std::string& s) {
  const auto it = dict_index_.find(s);
  if (it != dict_index_.end()) return it->second;
  const auto code = static_cast<std::uint32_t>(dict_.size());
  dict_.push_back(s);
  dict_hash_.push_back(HashString(s));
  dict_index_.emplace(s, code);
  return code;
}

ColumnarTable::ColumnarTable(std::vector<Column> header)
    : header_(std::move(header)) {
  cols_.reserve(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) {
    cols_.emplace_back(header_[i].type);
    index_.emplace(header_[i].attribute, i);  // first occurrence wins
  }
}

ColumnarTable::ColumnarTable(std::vector<Column> header,
                             std::vector<ColumnVector> cols)
    : header_(std::move(header)), cols_(std::move(cols)) {
  CISQP_CHECK(header_.size() == cols_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) {
    CISQP_CHECK(cols_[i].type() == header_[i].type);
    index_.emplace(header_[i].attribute, i);
  }
  row_count_ = cols_.empty() ? 0 : cols_[0].size();
  for (const ColumnVector& c : cols_) CISQP_CHECK(c.size() == row_count_);
}

ColumnarTable ColumnarTable::FromRows(const Table& rows) {
  ColumnarTable out(rows.columns());
  for (ColumnVector& c : out.cols_) c.Reserve(rows.row_count());
  for (const Row& row : rows.rows()) out.AppendRow(row);
  return out;
}

std::optional<std::size_t> ColumnarTable::ColumnIndex(
    catalog::AttributeId attribute) const {
  const auto it = index_.find(attribute);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void ColumnarTable::AppendRow(const Row& row) {
  CISQP_CHECK(row.size() == cols_.size());
  for (std::size_t i = 0; i < row.size(); ++i) cols_[i].Append(row[i]);
  ++row_count_;
}

std::size_t ColumnarTable::WireSizeBytes() const noexcept {
  std::size_t total = 0;
  for (const ColumnVector& c : cols_) total += c.wire_bytes();
  return total;
}

}  // namespace cisqp::storage
