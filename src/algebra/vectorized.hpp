// Vectorized relational kernels over columnar batches (DESIGN.md §12).
//
// A ColumnarBatch is a (possibly lazy) view of a ColumnarTable: a column map
// (which source columns the view exposes, in order) plus an optional
// selection vector (which source rows, in order). The kernels compose views
// without touching cell data — σ narrows the selection, π remaps the column
// map — and only joins and explicit Materialize calls gather cells, once,
// into a fresh ColumnarTable. A batch leaves the engine as a row Table over
// the same view (ToTable), whose rows are built only when first read.
// Row-at-a-time semantics are preserved exactly (output order included);
// src/testcheck/row_kernels keeps the original row implementations as the
// differential oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "algebra/expr.hpp"
#include "common/thread_pool.hpp"
#include "storage/column.hpp"

namespace cisqp::algebra {

/// Rows per morsel when the caller doesn't say otherwise: large enough that
/// dispatch cost vanishes, small enough that a morsel's working set stays
/// cache-resident. Always rounded up to a multiple of 64 internally so each
/// morsel owns whole null-bitmap words.
inline constexpr std::size_t kDefaultMorselRows = 4096;

/// Intra-operator parallelism knobs for the vectorized kernels (DESIGN.md
/// §14). A default-constructed context — or any context whose pool has one
/// thread — makes every kernel take the exact sequential code path, so
/// `threads=1` is byte-for-byte (and instruction-for-instruction) the PR 5
/// engine.
struct MorselContext {
  /// Shared worker pool; nullptr means sequential.
  ThreadPool* pool = nullptr;
  /// Rows per morsel (rounded up to a multiple of 64; 0 = default).
  std::size_t morsel_rows = kDefaultMorselRows;
  /// log2 of the radix fan-out for partitioned join/distinct; 0 picks a
  /// fan-out from the build size and pool width.
  std::size_t radix_bits = 0;
  /// Inputs smaller than this stay on the sequential path even with a pool
  /// attached (morsel dispatch would cost more than it buys). Tests set 0 to
  /// force the parallel path onto tiny tables.
  std::size_t min_parallel_rows = 256;

  /// True when the kernels should fan out over `rows` work items.
  bool ShouldParallelize(std::size_t rows) const noexcept {
    return pool != nullptr && pool->thread_count() > 1 &&
           rows >= min_parallel_rows;
  }
};

/// Work counters the kernels fill while a KernelStatsScope is active on the
/// calling thread. Used by the query profiler to attribute hash-join and
/// dictionary-filter work to plan operators without changing any kernel
/// signature (the kernels are pinned by ColumnarBatch friendship).
struct KernelStats {
  std::uint64_t hash_build_rows = 0;     ///< rows inserted into join tables
  std::uint64_t hash_probe_rows = 0;     ///< non-NULL-key rows probed
  std::uint64_t hash_matches = 0;        ///< (build, probe) pairs emitted
  std::uint64_t dict_filter_lookups = 0; ///< rows filtered via dictionary
  std::uint64_t dict_filter_hits = 0;    ///< of those, rows that passed
  std::uint64_t rows_hashed = 0;         ///< row-hash computations performed
  std::uint64_t morsels = 0;             ///< morsels dispatched in parallel
  std::uint64_t partitions = 0;          ///< radix partitions fanned out
  /// Busy microseconds per pool worker inside parallel kernel sections
  /// (index = ThreadPool worker id; 0 is the participating caller). Only
  /// filled while a stats sink is active, like every other counter.
  std::vector<std::int64_t> worker_busy_us;

  /// Accumulates `other` into this (element-wise; worker_busy_us grows to
  /// the longer of the two).
  void MergeFrom(const KernelStats& other);
};

/// RAII: routes this thread's kernel counters into `stats` for the scope's
/// lifetime. Scopes nest (the inner sink wins); a null sink — and the
/// default state — makes the kernels skip counting entirely. Thread-local,
/// so concurrent queries on a shared pool never cross-contaminate.
class KernelStatsScope {
 public:
  explicit KernelStatsScope(KernelStats* stats) noexcept;
  ~KernelStatsScope();
  KernelStatsScope(const KernelStatsScope&) = delete;
  KernelStatsScope& operator=(const KernelStatsScope&) = delete;

  /// The calling thread's active sink, or nullptr.
  static KernelStats* Active() noexcept;

 private:
  KernelStats* previous_ = nullptr;
};

/// A lazy projection of selected rows of a shared columnar table.
class ColumnarBatch {
 public:
  ColumnarBatch() = default;

  /// The identity view of `table` (all columns, all rows).
  static ColumnarBatch FromTable(
      std::shared_ptr<const storage::ColumnarTable> table);

  bool valid() const noexcept { return source_ != nullptr; }
  std::size_t width() const noexcept { return col_map_.size(); }
  std::size_t row_count() const noexcept {
    return sel_ ? sel_->size() : source_->row_count();
  }

  /// Header entry of view column `c`.
  const storage::Column& column_at(std::size_t c) const {
    return source_->columns()[col_map_[c]];
  }
  /// The view's header, in view column order.
  std::vector<storage::Column> Header() const;

  /// First view column carrying `attribute`, if any.
  std::optional<std::size_t> ViewColumnIndex(
      catalog::AttributeId attribute) const;

  /// Physical column backing view column `c`.
  const storage::ColumnVector& physical(std::size_t c) const {
    return source_->column(col_map_[c]);
  }
  /// Physical row id of view row `r`.
  std::uint32_t physical_row(std::size_t r) const noexcept {
    return sel_ ? (*sel_)[r] : static_cast<std::uint32_t>(r);
  }

  /// True when the view is the whole source table unchanged.
  bool identity() const noexcept;

  /// The view as a self-contained ColumnarTable. Identity views return the
  /// shared source without copying; everything else gathers each column once.
  std::shared_ptr<const storage::ColumnarTable> Materialize() const;

  /// The view as a row Table over the same source, column map and
  /// selection: O(columns), no gather; rows are built on first read. The
  /// rvalue overload moves the selection instead of copying it.
  storage::Table ToTable() const&;
  storage::Table ToTable() &&;

 private:
  friend Result<ColumnarBatch> SelectBatch(const ColumnarBatch&,
                                           const Predicate&,
                                           const MorselContext&);
  friend Result<ColumnarBatch> ProjectBatch(
      const ColumnarBatch&, const std::vector<catalog::AttributeId>&, bool,
      const MorselContext&);
  friend ColumnarBatch DistinctBatch(const ColumnarBatch&,
                                     const MorselContext&);

  std::shared_ptr<const storage::ColumnarTable> source_;
  std::vector<std::size_t> col_map_;
  std::optional<storage::SelectionVector> sel_;
};

// Every kernel takes an optional MorselContext. The default (no pool) — and
// any context that fails MorselContext::ShouldParallelize — runs the exact
// sequential code the PR 5 engine ran; a context with a multi-thread pool
// fans the kernel's row loops out in morsels and reduces per-morsel results
// in morsel order, producing byte-identical batches at any thread count
// (DESIGN.md §14).

/// σ: narrows the selection vector to rows satisfying `predicate`; never
/// copies cells. Same SQL NULL semantics as the row kernel.
Result<ColumnarBatch> SelectBatch(const ColumnarBatch& input,
                                  const Predicate& predicate,
                                  const MorselContext& ctx = {});

/// π: remaps the column map (zero-copy); with `distinct`, additionally
/// narrows the selection to first occurrences (hashing raw column data).
Result<ColumnarBatch> ProjectBatch(const ColumnarBatch& input,
                                   const std::vector<catalog::AttributeId>& attrs,
                                   bool distinct = false,
                                   const MorselContext& ctx = {});

/// ⋈: hash equi-join on raw column data. Builds on the smaller input, emits
/// a gather list in probe order, and materializes the output once. Output
/// header and row order match the row kernel exactly. Parallel contexts use
/// a radix-partitioned build/probe (partition by low hash bits, per-partition
/// bucket-chained tables) with morsel-ordered output concatenation.
Result<ColumnarBatch> JoinBatches(const ColumnarBatch& left,
                                  const ColumnarBatch& right,
                                  const std::vector<EquiJoinAtom>& atoms,
                                  const MorselContext& ctx = {});

/// Natural join on every shared attribute; shared columns appear once (from
/// the left). Builds on the right, probes the left in order (row-kernel
/// output order).
Result<ColumnarBatch> NaturalJoinBatches(const ColumnarBatch& left,
                                         const ColumnarBatch& right,
                                         const MorselContext& ctx = {});

/// Removes duplicate view rows, keeping first occurrences (NULLs compare
/// equal, as in the row kernel).
ColumnarBatch DistinctBatch(const ColumnarBatch& input,
                            const MorselContext& ctx = {});

}  // namespace cisqp::algebra
