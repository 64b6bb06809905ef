#include "algebra/vectorized.hpp"

#include <chrono>
#include <string>

namespace cisqp::algebra {
namespace {

/// The calling thread's kernel-counter sink (see KernelStatsScope).
thread_local KernelStats* active_kernel_stats = nullptr;

using storage::ColumnVector;
using storage::ColumnarTable;
using storage::SelectionVector;

SelectionVector Iota(std::size_t n) {
  SelectionVector ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  return ids;
}

/// Seed/combine for multi-column row hashes (order-sensitive).
std::size_t CombineCellHash(std::size_t seed, std::size_t cell_hash) noexcept {
  HashCombine(seed, cell_hash);
  return seed;
}
constexpr std::size_t kRowHashSeed = 0xcbf29ce484222325ull;

constexpr std::uint32_t kChainEnd = 0xffffffffu;

std::size_t NextPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Physical row ids of the view, in view order (the common all-rows case
/// avoids a per-access branch in the hot loops below).
SelectionVector ViewRows(const ColumnarBatch& b) {
  SelectionVector ids(b.row_count());
  for (std::size_t r = 0; r < ids.size(); ++r) ids[r] = b.physical_row(r);
  return ids;
}

/// Row-hash core over the row range [begin, end) of `ids`, writing into
/// preallocated output — the unit a parallel hash fans out in morsels.
/// Column-major like the full-range wrapper below. NULL cells hash as the
/// NULL class (Distinct semantics); when `valid` is given, rows with a NULL
/// in any hashed column are marked invalid instead (join-key semantics).
/// Each output element depends only on its own row, so any morsel tiling
/// produces the same vectors.
void HashRowsRange(const ColumnarBatch& batch,
                   const std::vector<std::size_t>& cols,
                   const SelectionVector& ids, std::vector<char>* valid,
                   std::vector<std::size_t>& hashes, std::size_t begin,
                   std::size_t end) {
  for (std::size_t r = begin; r < end; ++r) hashes[r] = kRowHashSeed;
  if (valid != nullptr) {
    for (std::size_t r = begin; r < end; ++r) (*valid)[r] = 1;
  }
  for (const std::size_t c : cols) {
    const storage::ColumnVector& col = batch.physical(c);
    for (std::size_t r = begin; r < end; ++r) {
      if (valid != nullptr && col.IsNull(ids[r])) {
        (*valid)[r] = 0;
        continue;
      }
      hashes[r] = CombineCellHash(hashes[r], col.HashAt(ids[r]));
    }
  }
}

/// Column-major row hashes over the view columns `cols` of `batch`, one per
/// entry of `ids`. Counts one `rows_hashed` per row — string cells pull
/// their hash from the dictionary cache, so a row hash is O(columns)
/// regardless of string lengths, and the partitioned join below reuses
/// these vectors instead of rehashing.
std::vector<std::size_t> HashRows(const ColumnarBatch& batch,
                                  const std::vector<std::size_t>& cols,
                                  const SelectionVector& ids,
                                  std::vector<char>* valid) {
  std::vector<std::size_t> hashes(ids.size());
  if (valid != nullptr) valid->resize(ids.size());
  HashRowsRange(batch, cols, ids, valid, hashes, 0, ids.size());
  if (KernelStats* ks = active_kernel_stats; ks != nullptr) {
    ks->rows_hashed += ids.size();
  }
  return hashes;
}

template <typename T>
bool ApplyOp(CompareOp op, const T& a, const T& b) noexcept {
  switch (op) {
    case CompareOp::kEq: return a == b;
    case CompareOp::kNe: return a != b;
    case CompareOp::kLt: return a < b;
    case CompareOp::kLe: return a < b || a == b;  // NaN-faithful, like SqlLess
    case CompareOp::kGt: return b < a;
    case CompareOp::kGe: return b < a || a == b;
  }
  return false;
}

/// In-place selection narrowing: keeps ids where `keep(id)` holds.
template <typename Keep>
void Narrow(SelectionVector& ids, Keep keep) {
  std::size_t w = 0;
  for (const std::uint32_t id : ids) {
    if (keep(id)) ids[w++] = id;
  }
  ids.resize(w);
}

/// attr-vs-literal filter. Row-kernel semantics: NULL never passes any
/// operator; non-NULL cells of a type different from the literal's pass
/// only `<>`.
void FilterLiteral(const ColumnVector& col, CompareOp op,
                   const storage::Value& lit, SelectionVector& ids) {
  if (lit.is_null()) {
    ids.clear();
    return;
  }
  if (lit.type() != col.type()) {
    if (op == CompareOp::kNe) {
      Narrow(ids, [&](std::uint32_t id) { return !col.IsNull(id); });
    } else {
      ids.clear();
    }
    return;
  }
  switch (col.type()) {
    case catalog::ValueType::kInt64: {
      const std::int64_t v = lit.AsInt64();
      Narrow(ids, [&](std::uint32_t id) {
        return !col.IsNull(id) && ApplyOp(op, col.Int64At(id), v);
      });
      break;
    }
    case catalog::ValueType::kDouble: {
      const double v = lit.AsDouble();
      Narrow(ids, [&](std::uint32_t id) {
        return !col.IsNull(id) && ApplyOp(op, col.DoubleAt(id), v);
      });
      break;
    }
    case catalog::ValueType::kString: {
      // Evaluate the operator once per *distinct* value, then filter cells
      // by dictionary code.
      const std::string& v = lit.AsString();
      const auto& dict = col.dictionary();
      std::vector<char> pass(dict.size());
      for (std::size_t c = 0; c < dict.size(); ++c) {
        pass[c] = ApplyOp(op, dict[c], v) ? 1 : 0;
      }
      const std::size_t before = ids.size();
      Narrow(ids, [&](std::uint32_t id) {
        return !col.IsNull(id) && pass[col.CodeAt(id)] != 0;
      });
      if (KernelStats* ks = active_kernel_stats; ks != nullptr) {
        ks->dict_filter_lookups += before;
        ks->dict_filter_hits += ids.size();
      }
      break;
    }
  }
}

/// attr-vs-attr filter with the same NULL / type-mismatch semantics.
void FilterColumns(const ColumnVector& lhs, CompareOp op,
                   const ColumnVector& rhs, SelectionVector& ids) {
  if (lhs.type() != rhs.type()) {
    if (op == CompareOp::kNe) {
      Narrow(ids, [&](std::uint32_t id) {
        return !lhs.IsNull(id) && !rhs.IsNull(id);
      });
    } else {
      ids.clear();
    }
    return;
  }
  switch (lhs.type()) {
    case catalog::ValueType::kInt64:
      Narrow(ids, [&](std::uint32_t id) {
        return !lhs.IsNull(id) && !rhs.IsNull(id) &&
               ApplyOp(op, lhs.Int64At(id), rhs.Int64At(id));
      });
      break;
    case catalog::ValueType::kDouble:
      Narrow(ids, [&](std::uint32_t id) {
        return !lhs.IsNull(id) && !rhs.IsNull(id) &&
               ApplyOp(op, lhs.DoubleAt(id), rhs.DoubleAt(id));
      });
      break;
    case catalog::ValueType::kString:
      Narrow(ids, [&](std::uint32_t id) {
        return !lhs.IsNull(id) && !rhs.IsNull(id) &&
               ApplyOp(op, lhs.StringAt(id), rhs.StringAt(id));
      });
      break;
  }
}

/// ctx.morsel_rows normalized: default applied, then rounded up to whole
/// 64-row null-bitmap words (the unit GatherFromParallel also requires, and
/// harmless everywhere else).
std::size_t MorselRows(const MorselContext& ctx) {
  const std::size_t m =
      ctx.morsel_rows == 0 ? kDefaultMorselRows : ctx.morsel_rows;
  return (m + 63) / 64 * 64;
}

std::size_t ChunkCount(std::size_t n, std::size_t grain) {
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

/// Runs the parallel sections of one kernel with per-worker stats sinks and
/// busy timers. Each chunk body executes under a KernelStatsScope bound to
/// its worker's cache-line-padded slot (active_kernel_stats is thread-local,
/// so a worker thread's filter counters land in its own slot); on
/// destruction the slots are merged into the sink that was active at
/// construction. Counters are integer sums, so the merged totals are
/// deterministic no matter which worker ran which morsel. With no active
/// sink the bodies run bare — profiling costs nothing when nobody profiles.
class ParallelRegion {
 public:
  explicit ParallelRegion(ThreadPool& pool)
      : sink_(active_kernel_stats), slots_(pool.thread_count()) {}

  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;

  template <typename Body>
  void Run(ThreadPool& pool, std::size_t n, std::size_t grain, Body body) {
    if (sink_ == nullptr) {
      pool.ParallelForChunks(n, grain, std::move(body));
      return;
    }
    morsels_ += ChunkCount(n, grain);
    pool.ParallelForChunks(
        n, grain, [&](std::size_t worker, std::size_t begin, std::size_t end) {
          const auto t0 = std::chrono::steady_clock::now();
          Slot& slot = slots_[worker].value;
          KernelStatsScope scope(&slot.stats);
          body(worker, begin, end);
          slot.busy_us += std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        });
  }

  ~ParallelRegion() {
    if (sink_ == nullptr) return;
    sink_->morsels += morsels_;
    if (sink_->worker_busy_us.size() < slots_.size()) {
      sink_->worker_busy_us.resize(slots_.size(), 0);
    }
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      sink_->MergeFrom(slots_[w].value.stats);
      sink_->worker_busy_us[w] += slots_[w].value.busy_us;
    }
  }

 private:
  struct Slot {
    KernelStats stats;
    std::int64_t busy_us = 0;
  };

  KernelStats* sink_;
  std::vector<PaddedSlot<Slot>> slots_;
  std::uint64_t morsels_ = 0;
};

/// HashRows fanned over `pool` in morsels of `grain` rows. Identical output
/// to HashRows — every element depends only on its own row.
std::vector<std::size_t> HashRowsParallel(
    const ColumnarBatch& batch, const std::vector<std::size_t>& cols,
    const SelectionVector& ids, std::vector<char>* valid, ThreadPool& pool,
    std::size_t grain, ParallelRegion& region) {
  std::vector<std::size_t> hashes(ids.size());
  if (valid != nullptr) valid->resize(ids.size());
  region.Run(pool, ids.size(), grain,
             [&](std::size_t, std::size_t begin, std::size_t end) {
               HashRowsRange(batch, cols, ids, valid, hashes, begin, end);
             });
  if (KernelStats* ks = active_kernel_stats; ks != nullptr) {
    ks->rows_hashed += ids.size();
  }
  return hashes;
}

/// Radix fan-out when the context doesn't pin one: enough partitions to keep
/// `threads` workers busy through moderate skew, but never so many that an
/// average partition drops below ~64 rows.
std::size_t RadixBitsFor(std::size_t rows, std::size_t threads) {
  std::size_t bits = 1;
  while ((std::size_t{1} << bits) < threads * 4 && bits < 8) ++bits;
  while (bits > 1 && (rows >> bits) < 64) --bits;
  return bits;
}

/// Rows regrouped by the low `bits` bits of their hash. `pos` is
/// partition-major: partition p's rows are pos[start[p] .. start[p+1]),
/// each an index into the hashed range, in ascending order (the scatter
/// walks chunks in order within each partition) — the property the join and
/// distinct kernels rely on to reproduce sequential emit order. Low bits
/// partition because libstdc++'s std::hash<int64> is the identity: small
/// keys share all their high bits, which would collapse the fan-out to one
/// partition. The per-partition tables then consume the hash *above* the
/// partition bits, so bucket placement stays independent of the partition
/// split.
struct RadixPartitions {
  std::size_t bits = 0;
  std::vector<std::size_t> start;  ///< fanout()+1 offsets into pos
  SelectionVector pos;

  std::size_t fanout() const noexcept { return std::size_t{1} << bits; }
};

RadixPartitions PartitionByHash(const std::vector<std::size_t>& hashes,
                                const std::vector<char>* valid,
                                std::size_t bits, ThreadPool& pool,
                                std::size_t grain, ParallelRegion& region) {
  const std::size_t n = hashes.size();
  RadixPartitions parts;
  parts.bits = bits;
  const std::size_t fanout = parts.fanout();
  const std::size_t mask = fanout - 1;
  const std::size_t chunks = ChunkCount(n, grain);

  // Pass 1 — per-chunk histograms. Each chunk's row of counters is padded
  // out to whole cache lines so two workers never count into the same line.
  constexpr std::size_t kCountersPerLine = kCacheLineBytes / sizeof(std::size_t);
  const std::size_t stride =
      (fanout + kCountersPerLine - 1) / kCountersPerLine * kCountersPerLine;
  std::vector<std::size_t> hist(chunks * stride, 0);
  region.Run(pool, n, grain,
             [&](std::size_t, std::size_t begin, std::size_t end) {
               std::size_t* h = hist.data() + begin / grain * stride;
               for (std::size_t r = begin; r < end; ++r) {
                 if (valid != nullptr && (*valid)[r] == 0) continue;
                 ++h[hashes[r] & mask];
               }
             });

  // Sequential prefix sums turn the histograms into per-chunk write
  // cursors: chunk c of partition p writes after every chunk c' < c, so
  // each partition's rows come out in ascending row order.
  parts.start.assign(fanout + 1, 0);
  std::size_t total = 0;
  for (std::size_t p = 0; p < fanout; ++p) {
    parts.start[p] = total;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t count = hist[c * stride + p];
      hist[c * stride + p] = total;
      total += count;
    }
  }
  parts.start[fanout] = total;

  // Pass 2 — parallel scatter through the per-chunk cursors.
  parts.pos.resize(total);
  region.Run(pool, n, grain,
             [&](std::size_t, std::size_t begin, std::size_t end) {
               std::size_t* cursor = hist.data() + begin / grain * stride;
               for (std::size_t r = begin; r < end; ++r) {
                 if (valid != nullptr && (*valid)[r] == 0) continue;
                 parts.pos[cursor[hashes[r] & mask]++] =
                     static_cast<std::uint32_t>(r);
               }
             });
  return parts;
}

}  // namespace

void KernelStats::MergeFrom(const KernelStats& other) {
  hash_build_rows += other.hash_build_rows;
  hash_probe_rows += other.hash_probe_rows;
  hash_matches += other.hash_matches;
  dict_filter_lookups += other.dict_filter_lookups;
  dict_filter_hits += other.dict_filter_hits;
  rows_hashed += other.rows_hashed;
  morsels += other.morsels;
  partitions += other.partitions;
  if (worker_busy_us.size() < other.worker_busy_us.size()) {
    worker_busy_us.resize(other.worker_busy_us.size(), 0);
  }
  for (std::size_t w = 0; w < other.worker_busy_us.size(); ++w) {
    worker_busy_us[w] += other.worker_busy_us[w];
  }
}

KernelStatsScope::KernelStatsScope(KernelStats* stats) noexcept
    : previous_(active_kernel_stats) {
  active_kernel_stats = stats;
}

KernelStatsScope::~KernelStatsScope() { active_kernel_stats = previous_; }

KernelStats* KernelStatsScope::Active() noexcept { return active_kernel_stats; }

ColumnarBatch ColumnarBatch::FromTable(
    std::shared_ptr<const ColumnarTable> table) {
  ColumnarBatch b;
  b.col_map_.resize(table->column_count());
  for (std::size_t i = 0; i < b.col_map_.size(); ++i) b.col_map_[i] = i;
  b.source_ = std::move(table);
  return b;
}

std::vector<storage::Column> ColumnarBatch::Header() const {
  std::vector<storage::Column> header;
  header.reserve(col_map_.size());
  for (const std::size_t c : col_map_) header.push_back(source_->columns()[c]);
  return header;
}

std::optional<std::size_t> ColumnarBatch::ViewColumnIndex(
    catalog::AttributeId attribute) const {
  for (std::size_t c = 0; c < col_map_.size(); ++c) {
    if (column_at(c).attribute == attribute) return c;
  }
  return std::nullopt;
}

bool ColumnarBatch::identity() const noexcept {
  if (sel_ || col_map_.size() != source_->column_count()) return false;
  for (std::size_t i = 0; i < col_map_.size(); ++i) {
    if (col_map_[i] != i) return false;
  }
  return true;
}

std::shared_ptr<const ColumnarTable> ColumnarBatch::Materialize() const {
  if (identity()) return source_;
  const SelectionVector ids = sel_ ? *sel_ : Iota(source_->row_count());
  std::vector<ColumnVector> cols;
  cols.reserve(col_map_.size());
  for (std::size_t c = 0; c < col_map_.size(); ++c) {
    ColumnVector out(column_at(c).type);
    out.GatherFrom(physical(c), ids);
    cols.push_back(std::move(out));
  }
  return std::make_shared<ColumnarTable>(Header(), std::move(cols));
}

storage::Table ColumnarBatch::ToTable() const& {
  return ColumnarBatch(*this).ToTable();
}

storage::Table ColumnarBatch::ToTable() && {
  return storage::Table(std::move(source_), std::move(col_map_),
                        std::move(sel_));
}

Result<ColumnarBatch> SelectBatch(const ColumnarBatch& input,
                                  const Predicate& predicate,
                                  const MorselContext& ctx) {
  // Resolve every conjunct against the view header before touching data, so
  // a malformed predicate fails regardless of row count.
  struct Resolved {
    std::size_t lhs = 0;
    const Comparison* cmp = nullptr;
    std::optional<std::size_t> rhs_col;
  };
  std::vector<Resolved> resolved;
  resolved.reserve(predicate.conjuncts().size());
  for (const Comparison& c : predicate.conjuncts()) {
    Resolved r;
    const auto lhs = input.ViewColumnIndex(c.lhs);
    if (!lhs) {
      return InvalidArgumentError("predicate references attribute id " +
                                  std::to_string(c.lhs) +
                                  " missing from input");
    }
    r.lhs = *lhs;
    r.cmp = &c;
    if (c.rhs_is_attribute()) {
      const auto a = std::get<catalog::AttributeId>(c.rhs);
      const auto rhs = input.ViewColumnIndex(a);
      if (!rhs) {
        return InvalidArgumentError("predicate references attribute id " +
                                    std::to_string(a) + " missing from input");
      }
      r.rhs_col = *rhs;
    }
    resolved.push_back(r);
  }

  SelectionVector ids = input.sel_ ? *input.sel_ : Iota(input.source_->row_count());
  if (ctx.ShouldParallelize(ids.size())) {
    // Morsel-parallel σ: each morsel filters its contiguous id range through
    // the full conjunction independently (filters are row-local), and the
    // morsel-ordered concatenation below reproduces the sequential
    // narrowing's output order exactly.
    const std::size_t grain = MorselRows(ctx);
    const std::size_t chunks = ChunkCount(ids.size(), grain);
    std::vector<PaddedSlot<SelectionVector>> parts(chunks);
    {
      ParallelRegion region(*ctx.pool);
      region.Run(*ctx.pool, ids.size(), grain,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   SelectionVector& out = parts[begin / grain].value;
                   out.assign(ids.begin() + static_cast<std::ptrdiff_t>(begin),
                              ids.begin() + static_cast<std::ptrdiff_t>(end));
                   for (const Resolved& r : resolved) {
                     if (out.empty()) break;
                     if (r.rhs_col) {
                       FilterColumns(input.physical(r.lhs), r.cmp->op,
                                     input.physical(*r.rhs_col), out);
                     } else {
                       FilterLiteral(input.physical(r.lhs), r.cmp->op,
                                     std::get<storage::Value>(r.cmp->rhs), out);
                     }
                   }
                 });
    }
    SelectionVector merged;
    std::size_t total = 0;
    for (const PaddedSlot<SelectionVector>& p : parts) total += p.value.size();
    merged.reserve(total);
    for (const PaddedSlot<SelectionVector>& p : parts) {
      merged.insert(merged.end(), p.value.begin(), p.value.end());
    }
    ids = std::move(merged);
  } else {
    for (const Resolved& r : resolved) {
      if (ids.empty()) break;
      if (r.rhs_col) {
        FilterColumns(input.physical(r.lhs), r.cmp->op,
                      input.physical(*r.rhs_col), ids);
      } else {
        FilterLiteral(input.physical(r.lhs), r.cmp->op,
                      std::get<storage::Value>(r.cmp->rhs), ids);
      }
    }
  }
  ColumnarBatch out;
  out.source_ = input.source_;
  out.col_map_ = input.col_map_;
  out.sel_ = std::move(ids);
  return out;
}

Result<ColumnarBatch> ProjectBatch(const ColumnarBatch& input,
                                   const std::vector<catalog::AttributeId>& attrs,
                                   bool distinct, const MorselContext& ctx) {
  if (attrs.empty()) {
    return InvalidArgumentError("projection needs at least one attribute");
  }
  std::vector<std::size_t> col_map;
  col_map.reserve(attrs.size());
  for (const catalog::AttributeId a : attrs) {
    const auto c = input.ViewColumnIndex(a);
    if (!c) {
      return InvalidArgumentError("projection attribute id " +
                                  std::to_string(a) +
                                  " is not a column of the input");
    }
    col_map.push_back(input.col_map_[*c]);
  }
  ColumnarBatch out;
  out.source_ = input.source_;
  out.col_map_ = std::move(col_map);
  out.sel_ = input.sel_;
  if (distinct) return DistinctBatch(out, ctx);
  return out;
}

namespace {

/// Two-phase partitioned distinct: partition rows by hash (equal rows hash
/// equally — NULL class included — so duplicates never cross partitions),
/// dedup each partition independently with the same open-addressing probe
/// as the sequential kernel, then compact the kept flags in row order.
/// Keeping the *first* occurrence needs only ascending row order within a
/// partition, which PartitionByHash guarantees. Returns the kept physical
/// ids in view order — exactly the sequential kernel's output.
SelectionVector DistinctKeptParallel(const ColumnarBatch& input,
                                     const SelectionVector& ids,
                                     const std::vector<std::size_t>& view_cols,
                                     const MorselContext& ctx) {
  const std::size_t n = ids.size();
  const std::size_t grain = MorselRows(ctx);
  ThreadPool& pool = *ctx.pool;
  std::vector<char> keep(n, 0);
  std::vector<std::size_t> hashes;
  std::size_t fanout = 0;
  {
    ParallelRegion region(pool);
    hashes = HashRowsParallel(input, view_cols, ids, /*valid=*/nullptr, pool,
                              grain, region);
    const std::size_t bits = ctx.radix_bits != 0
                                 ? ctx.radix_bits
                                 : RadixBitsFor(n, pool.thread_count());
    const RadixPartitions parts =
        PartitionByHash(hashes, /*valid=*/nullptr, bits, pool, grain, region);
    fanout = parts.fanout();
    region.Run(
        pool, fanout, /*grain=*/1,
        [&](std::size_t, std::size_t pb, std::size_t pe) {
          for (std::size_t p = pb; p < pe; ++p) {
            const std::size_t sp = parts.start[p];
            const std::size_t ep = parts.start[p + 1];
            if (sp == ep) continue;
            const std::size_t cap = NextPow2((ep - sp) * 2 + 1);
            const std::size_t mask = cap - 1;
            std::vector<std::uint32_t> slot_row(cap, kChainEnd);
            for (std::size_t j = sp; j < ep; ++j) {
              const std::uint32_t r = parts.pos[j];
              const std::size_t h = hashes[r];
              std::size_t slot = (h >> parts.bits) & mask;
              bool duplicate = false;
              while (slot_row[slot] != kChainEnd) {
                const std::uint32_t o = slot_row[slot];
                if (hashes[o] == h) {
                  bool equal = true;
                  for (std::size_t c = 0; c < view_cols.size() && equal; ++c) {
                    const ColumnVector& col = input.physical(view_cols[c]);
                    equal = col.CellsEqual(ids[r], col, ids[o]);
                  }
                  if (equal) {
                    duplicate = true;
                    break;
                  }
                }
                slot = (slot + 1) & mask;
              }
              if (!duplicate) {
                slot_row[slot] = r;
                // Rows of different partitions are distinct bytes of `keep`,
                // so concurrent writes never touch the same location.
                keep[r] = 1;
              }
            }
          }
        });
  }
  if (KernelStats* ks = active_kernel_stats; ks != nullptr) {
    ks->partitions += fanout;
  }
  SelectionVector kept;
  kept.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (keep[r] != 0) kept.push_back(ids[r]);
  }
  return kept;
}

}  // namespace

ColumnarBatch DistinctBatch(const ColumnarBatch& input,
                            const MorselContext& ctx) {
  const std::size_t n = input.row_count();
  const std::size_t width = input.width();
  const SelectionVector ids = ViewRows(input);
  std::vector<std::size_t> view_cols(width);
  for (std::size_t c = 0; c < width; ++c) view_cols[c] = c;

  if (ctx.ShouldParallelize(n)) {
    ColumnarBatch out;
    out.source_ = input.source_;
    out.col_map_ = input.col_map_;
    out.sel_ = DistinctKeptParallel(input, ids, view_cols, ctx);
    return out;
  }

  const std::vector<std::size_t> hashes =
      HashRows(input, view_cols, ids, /*valid=*/nullptr);

  // Open-addressing set of kept rows: flat arrays, no per-bucket allocation.
  const std::size_t cap = NextPow2(n * 2 + 1);
  const std::size_t mask = cap - 1;
  std::vector<std::uint32_t> slot_id(cap, kChainEnd);
  std::vector<std::size_t> slot_hash(cap);
  SelectionVector kept;
  kept.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t id = ids[r];
    const std::size_t h = hashes[r];
    std::size_t slot = h & mask;
    bool duplicate = false;
    while (slot_id[slot] != kChainEnd) {
      if (slot_hash[slot] == h) {
        bool equal = true;
        for (std::size_t c = 0; c < width && equal; ++c) {
          const ColumnVector& col = input.physical(c);
          equal = col.CellsEqual(id, col, slot_id[slot]);
        }
        if (equal) {
          duplicate = true;
          break;
        }
      }
      slot = (slot + 1) & mask;
    }
    if (!duplicate) {
      slot_id[slot] = id;
      slot_hash[slot] = h;
      kept.push_back(id);
    }
  }
  ColumnarBatch out;
  out.source_ = input.source_;
  out.col_map_ = input.col_map_;
  out.sel_ = std::move(kept);
  return out;
}

namespace {

/// Radix-partitioned parallel variant of HashProbe (DESIGN.md §14).
/// Emit-order equivalence with the sequential kernel: equal join keys have
/// equal full hashes, so all candidate build rows for a probe row live in
/// one partition; reverse-threaded per-partition chains yield candidates in
/// ascending build-row order (the sequential insertion order); and probe
/// morsels are concatenated in morsel order, so probe rows ascend globally.
/// Probe-major emit order is therefore reproduced pair for pair.
void HashProbePartitioned(const ColumnarBatch& build,
                          const std::vector<std::size_t>& bidx,
                          const ColumnarBatch& probe,
                          const std::vector<std::size_t>& pidx,
                          const MorselContext& ctx, SelectionVector& build_ids,
                          SelectionVector& probe_ids) {
  const std::size_t bn = build.row_count();
  const std::size_t keys = bidx.size();
  ThreadPool& pool = *ctx.pool;
  const std::size_t grain = MorselRows(ctx);

  std::vector<char> pvalid;
  std::size_t fanout = 0;
  std::size_t pairs_emitted = 0;
  {
    ParallelRegion region(pool);
    const SelectionVector bids = ViewRows(build);
    std::vector<char> bvalid;
    const std::vector<std::size_t> bhash =
        HashRowsParallel(build, bidx, bids, &bvalid, pool, grain, region);

    const std::size_t bits = ctx.radix_bits != 0
                                 ? ctx.radix_bits
                                 : RadixBitsFor(bn, pool.thread_count());
    const RadixPartitions parts =
        PartitionByHash(bhash, &bvalid, bits, pool, grain, region);
    fanout = parts.fanout();
    const std::size_t part_mask = fanout - 1;

    // Per-partition bucket-chained tables, built concurrently (each worker
    // owns whole partitions). Entries index the partition-major `pos`
    // array; chains are threaded in reverse so traversal yields ascending
    // positions, i.e. ascending build rows.
    std::vector<std::uint32_t> next(parts.pos.size(), kChainEnd);
    std::vector<std::vector<std::uint32_t>> heads(fanout);
    std::vector<std::size_t> bucket_mask(fanout, 0);
    region.Run(pool, fanout, /*grain=*/1,
               [&](std::size_t, std::size_t pb, std::size_t pe) {
                 for (std::size_t p = pb; p < pe; ++p) {
                   const std::size_t sp = parts.start[p];
                   const std::size_t ep = parts.start[p + 1];
                   const std::size_t cap = NextPow2((ep - sp) * 2 + 1);
                   const std::size_t mask = cap - 1;
                   heads[p].assign(cap, kChainEnd);
                   bucket_mask[p] = mask;
                   for (std::size_t j = ep; j-- > sp;) {
                     const std::size_t slot =
                         (bhash[parts.pos[j]] >> parts.bits) & mask;
                     next[j] = heads[p][slot];
                     heads[p][slot] = static_cast<std::uint32_t>(j);
                   }
                 }
               });

    const SelectionVector pids = ViewRows(probe);
    const std::vector<std::size_t> phash =
        HashRowsParallel(probe, pidx, pids, &pvalid, pool, grain, region);

    // Morsel-parallel probe into per-morsel pair lists.
    struct PairList {
      SelectionVector build;
      SelectionVector probe;
    };
    const std::size_t chunks = ChunkCount(pids.size(), grain);
    std::vector<PaddedSlot<PairList>> out(chunks == 0 ? 1 : chunks);
    region.Run(
        pool, pids.size(), grain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          PairList& pairs = out[begin / grain].value;
          for (std::size_t r = begin; r < end; ++r) {
            if (!pvalid[r]) continue;
            const std::size_t h = phash[r];
            const std::uint32_t id = pids[r];
            const std::size_t p = h & part_mask;
            for (std::uint32_t e = heads[p][(h >> parts.bits) & bucket_mask[p]];
                 e != kChainEnd; e = next[e]) {
              const std::uint32_t br = parts.pos[e];
              if (bhash[br] != h) continue;
              bool equal = true;
              for (std::size_t k = 0; k < keys && equal; ++k) {
                equal = build.physical(bidx[k]).CellsEqual(
                    bids[br], probe.physical(pidx[k]), id);
              }
              if (equal) {
                pairs.build.push_back(bids[br]);
                pairs.probe.push_back(id);
              }
            }
          }
        });

    // Morsel-ordered reduce: deterministic concatenation regardless of
    // which worker probed which morsel.
    for (std::size_t c = 0; c < chunks; ++c) {
      pairs_emitted += out[c].value.build.size();
    }
    build_ids.reserve(build_ids.size() + pairs_emitted);
    probe_ids.reserve(probe_ids.size() + pairs_emitted);
    for (std::size_t c = 0; c < chunks; ++c) {
      const PairList& pairs = out[c].value;
      build_ids.insert(build_ids.end(), pairs.build.begin(), pairs.build.end());
      probe_ids.insert(probe_ids.end(), pairs.probe.begin(), pairs.probe.end());
    }
  }

  if (KernelStats* ks = active_kernel_stats; ks != nullptr) {
    ks->hash_build_rows += bn;
    for (const char v : pvalid) ks->hash_probe_rows += v != 0 ? 1 : 0;
    ks->hash_matches += probe_ids.size();
    ks->partitions += fanout;
  }
}

/// Shared core of the two join kernels: hashes the build side's key columns
/// (skipping NULL keys), probes in order, and returns physical-row gather
/// lists for both inputs, in probe-major emit order. Parallel contexts take
/// the radix-partitioned path above; its output is byte-identical.
void HashProbe(const ColumnarBatch& build, const std::vector<std::size_t>& bidx,
               const ColumnarBatch& probe, const std::vector<std::size_t>& pidx,
               SelectionVector& build_ids, SelectionVector& probe_ids,
               const MorselContext& ctx) {
  if (ctx.ShouldParallelize(build.row_count() + probe.row_count())) {
    HashProbePartitioned(build, bidx, probe, pidx, ctx, build_ids, probe_ids);
    return;
  }
  const std::size_t bn = build.row_count();
  const std::size_t keys = bidx.size();
  const SelectionVector bids = ViewRows(build);
  std::vector<char> bvalid;
  const std::vector<std::size_t> bhash = HashRows(build, bidx, bids, &bvalid);

  // Bucket-chained hash table over flat arrays: `head` per bucket, `next`
  // per build row. Chains are threaded in reverse so traversal yields build
  // rows in insertion order — the row kernel's emit order.
  const std::size_t cap = NextPow2(bn * 2 + 1);
  const std::size_t mask = cap - 1;
  std::vector<std::uint32_t> head(cap, kChainEnd);
  std::vector<std::uint32_t> next(bn, kChainEnd);
  for (std::size_t r = bn; r-- > 0;) {
    if (!bvalid[r]) continue;
    const std::size_t slot = bhash[r] & mask;
    next[r] = head[slot];
    head[slot] = static_cast<std::uint32_t>(r);
  }

  const SelectionVector pids = ViewRows(probe);
  std::vector<char> pvalid;
  const std::vector<std::size_t> phash = HashRows(probe, pidx, pids, &pvalid);
  for (std::size_t r = 0; r < pids.size(); ++r) {
    if (!pvalid[r]) continue;
    const std::size_t h = phash[r];
    const std::uint32_t id = pids[r];
    for (std::uint32_t e = head[h & mask]; e != kChainEnd; e = next[e]) {
      if (bhash[e] != h) continue;
      bool equal = true;
      for (std::size_t k = 0; k < keys && equal; ++k) {
        equal = build.physical(bidx[k]).CellsEqual(
            bids[e], probe.physical(pidx[k]), id);
      }
      if (equal) {
        build_ids.push_back(bids[e]);
        probe_ids.push_back(id);
      }
    }
  }
  if (KernelStats* ks = active_kernel_stats; ks != nullptr) {
    ks->hash_build_rows += bn;
    for (const char v : pvalid) ks->hash_probe_rows += v != 0 ? 1 : 0;
    ks->hash_matches += probe_ids.size();
  }
}

/// Gathers one output column per (batch view column, gather list) pair.
/// Parallel contexts fan each column's gather out in morsels (the output
/// stays bit-identical — see GatherFromParallel).
void GatherColumns(const ColumnarBatch& batch, const SelectionVector& ids,
                   const std::vector<std::size_t>& view_cols,
                   const MorselContext& ctx, std::vector<ColumnVector>& out) {
  const bool parallel = ctx.ShouldParallelize(ids.size());
  const std::size_t grain = parallel ? MorselRows(ctx) : 0;
  for (const std::size_t c : view_cols) {
    ColumnVector col(batch.column_at(c).type);
    if (parallel) {
      col.GatherFromParallel(batch.physical(c), ids, *ctx.pool, grain);
    } else {
      col.GatherFrom(batch.physical(c), ids);
    }
    out.push_back(std::move(col));
  }
  if (parallel) {
    if (KernelStats* ks = active_kernel_stats; ks != nullptr) {
      ks->morsels += view_cols.size() * ChunkCount(ids.size(), grain);
    }
  }
}

std::vector<std::size_t> AllViewColumns(const ColumnarBatch& b) {
  std::vector<std::size_t> cols(b.width());
  for (std::size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  return cols;
}

}  // namespace

Result<ColumnarBatch> JoinBatches(const ColumnarBatch& left,
                                  const ColumnarBatch& right,
                                  const std::vector<EquiJoinAtom>& atoms,
                                  const MorselContext& ctx) {
  if (atoms.empty()) {
    return InvalidArgumentError("equi-join needs at least one atom");
  }
  std::vector<std::size_t> lidx;
  std::vector<std::size_t> ridx;
  for (const EquiJoinAtom& atom : atoms) {
    const auto li = left.ViewColumnIndex(atom.left);
    const auto ri = right.ViewColumnIndex(atom.right);
    if (!li || !ri) {
      return InvalidArgumentError(
          "join atom references attributes missing from operands");
    }
    lidx.push_back(*li);
    ridx.push_back(*ri);
  }

  // Build on the smaller side, probe with the larger (row-kernel heuristic;
  // keeping it identical pins the output row order).
  const bool build_left = left.row_count() <= right.row_count();
  SelectionVector lids;
  SelectionVector rids;
  if (build_left) {
    HashProbe(left, lidx, right, ridx, lids, rids, ctx);
  } else {
    HashProbe(right, ridx, left, lidx, rids, lids, ctx);
  }

  std::vector<storage::Column> header = left.Header();
  const std::vector<storage::Column> right_header = right.Header();
  header.insert(header.end(), right_header.begin(), right_header.end());
  std::vector<ColumnVector> cols;
  cols.reserve(header.size());
  GatherColumns(left, lids, AllViewColumns(left), ctx, cols);
  GatherColumns(right, rids, AllViewColumns(right), ctx, cols);
  return ColumnarBatch::FromTable(
      std::make_shared<ColumnarTable>(std::move(header), std::move(cols)));
}

Result<ColumnarBatch> NaturalJoinBatches(const ColumnarBatch& left,
                                         const ColumnarBatch& right,
                                         const MorselContext& ctx) {
  std::vector<std::size_t> lidx;
  std::vector<std::size_t> ridx;
  std::vector<std::size_t> right_extra;  ///< right view cols not shared
  for (std::size_t rc = 0; rc < right.width(); ++rc) {
    const auto li = left.ViewColumnIndex(right.column_at(rc).attribute);
    if (li) {
      lidx.push_back(*li);
      ridx.push_back(rc);
    } else {
      right_extra.push_back(rc);
    }
  }
  if (lidx.empty()) {
    return InvalidArgumentError(
        "natural join requires at least one shared attribute");
  }

  // Build on the right, probe the left in order (row-kernel output order).
  SelectionVector rids;
  SelectionVector lids;
  HashProbe(right, ridx, left, lidx, rids, lids, ctx);

  std::vector<storage::Column> header = left.Header();
  for (const std::size_t rc : right_extra) header.push_back(right.column_at(rc));
  std::vector<ColumnVector> cols;
  cols.reserve(header.size());
  GatherColumns(left, lids, AllViewColumns(left), ctx, cols);
  GatherColumns(right, rids, right_extra, ctx, cols);
  return ColumnarBatch::FromTable(
      std::make_shared<ColumnarTable>(std::move(header), std::move(cols)));
}

}  // namespace cisqp::algebra
