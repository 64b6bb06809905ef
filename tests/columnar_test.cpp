// Kernel-equivalence tests: the columnar engine vs the retained row kernels.
//
// The vectorized kernels (algebra/vectorized) must reproduce the row
// kernels' output *exactly* — same header, same rows, same row order — on
// every input, including the corners the sweep fixed bugs around: NULL join
// keys, duplicate projection attributes, empty inputs, and distinct chained
// after project. Randomized row tables drive both engines: the batch kernels
// see them through AsBatch/AsRows, and the parity suites below call the
// kernels on batches directly.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "algebra/vectorized.hpp"
#include "storage/column.hpp"
#include "test_util.hpp"
#include "testcheck/row_kernels.hpp"

namespace cisqp::algebra {
namespace {

using cisqp::testing::AsBatch;
using cisqp::testing::AsRows;
using storage::Column;
using storage::ColumnarTable;
using storage::Row;
using storage::Table;
using storage::Value;

constexpr catalog::AttributeId kA = 1;
constexpr catalog::AttributeId kB = 2;
constexpr catalog::AttributeId kC = 3;
constexpr catalog::AttributeId kD = 4;

Table MakeTable(std::vector<Column> header, std::vector<Row> rows) {
  Table t(std::move(header));
  for (Row& r : rows) CISQP_CHECK(t.AppendRow(std::move(r)).ok());
  return t;
}

/// Exact equality: header, row count, and cell-wise CompareTotal == 0 (so
/// NULL == NULL and NaN == NaN, unlike Value::operator==).
void ExpectExactlyEqual(const Table& got, const Table& want) {
  ASSERT_EQ(got.columns(), want.columns());
  ASSERT_EQ(got.row_count(), want.row_count());
  for (std::size_t r = 0; r < got.row_count(); ++r) {
    for (std::size_t c = 0; c < got.column_count(); ++c) {
      EXPECT_EQ(got.row(r)[c].CompareTotal(want.row(r)[c]), 0)
          << "row " << r << " col " << c << ": " << got.row(r)[c].ToString()
          << " vs " << want.row(r)[c].ToString();
    }
  }
}

Value RandomCell(std::mt19937& rng, catalog::ValueType type, double null_prob) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(rng) < null_prob) return Value();
  switch (type) {
    case catalog::ValueType::kInt64:
      return Value(std::int64_t{std::uniform_int_distribution<int>(0, 6)(rng)});
    case catalog::ValueType::kDouble:
      return Value(0.5 * std::uniform_int_distribution<int>(0, 6)(rng));
    case catalog::ValueType::kString: {
      static const char* kPool[] = {"", "a", "b", "gold", "silver", "flu"};
      return Value(kPool[std::uniform_int_distribution<int>(0, 5)(rng)]);
    }
  }
  return Value();
}

Table RandomTable(std::mt19937& rng, std::vector<Column> header,
                  std::size_t rows, double null_prob = 0.2) {
  Table t(std::move(header));
  t.Reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    Row row;
    row.reserve(t.column_count());
    for (const Column& c : t.columns()) {
      row.push_back(RandomCell(rng, c.type, null_prob));
    }
    CISQP_CHECK(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

std::vector<Column> MixedHeader() {
  return {Column{kA, catalog::ValueType::kInt64},
          Column{kB, catalog::ValueType::kString},
          Column{kC, catalog::ValueType::kDouble}};
}

// --- round trip & wire size ------------------------------------------------

TEST(ColumnarTableTest, RoundTripPreservesRowsAndOrder) {
  std::mt19937 rng(7);
  const Table t = RandomTable(rng, MixedHeader(), 64, /*null_prob=*/0.3);
  const auto ct =
      std::make_shared<const ColumnarTable>(ColumnarTable::FromRows(t));
  EXPECT_EQ(ct->row_count(), t.row_count());
  ExpectExactlyEqual(Table(ct), t);
}

TEST(ColumnarTableTest, CachedWireSizeMatchesRowFormula) {
  std::mt19937 rng(11);
  for (int i = 0; i < 10; ++i) {
    const Table t = RandomTable(rng, MixedHeader(), 32, /*null_prob=*/0.25);
    EXPECT_EQ(ColumnarTable::FromRows(t).WireSizeBytes(), t.WireSizeBytes());
  }
  const Table empty(MixedHeader());
  EXPECT_EQ(ColumnarTable::FromRows(empty).WireSizeBytes(), 0u);
}

TEST(ColumnarTableTest, IdentityBatchMaterializeSharesTheSource) {
  std::mt19937 rng(3);
  auto source = std::make_shared<const ColumnarTable>(
      ColumnarTable::FromRows(RandomTable(rng, MixedHeader(), 8)));
  const ColumnarBatch batch = ColumnarBatch::FromTable(source);
  EXPECT_TRUE(batch.identity());
  EXPECT_EQ(batch.Materialize().get(), source.get());
}

// --- view-backed row tables ------------------------------------------------
//
// storage::Table can view a ColumnarTable through a column map and an
// optional selection vector, building its rows on first read. Such a table
// must be indistinguishable from the one built row by row from the same
// view.

/// The view (`col_map`, `sel`) of row table `t`, built row by row.
Table RowBuiltView(const Table& t, const std::vector<std::size_t>& col_map,
                   const std::optional<storage::SelectionVector>& sel) {
  std::vector<Column> header;
  for (const std::size_t c : col_map) header.push_back(t.columns()[c]);
  Table out(std::move(header));
  const std::size_t n = sel ? sel->size() : t.row_count();
  for (std::size_t r = 0; r < n; ++r) {
    const Row& src = t.row(sel ? (*sel)[r] : r);
    Row row;
    for (const std::size_t c : col_map) row.push_back(src[c]);
    CISQP_CHECK(out.AppendRow(std::move(row)).ok());
  }
  return out;
}

void ExpectSameAsRowBuilt(const Table& view, const Table& want) {
  EXPECT_EQ(view.row_count(), want.row_count());
  EXPECT_EQ(view.WireSizeBytes(), want.WireSizeBytes());
  EXPECT_EQ(view.AttributeSet(), want.AttributeSet());
  for (const catalog::AttributeId a : {kA, kB, kC, kD}) {
    EXPECT_EQ(view.ColumnIndex(a), want.ColumnIndex(a));
  }
  ExpectExactlyEqual(view, want);
  ExpectExactlyEqual(view.Canonicalized(), want.Canonicalized());
  EXPECT_TRUE(Table::SameRowMultiset(view, want));
}

TEST(ViewTableTest, MatchesTheTableBuiltRowByRow) {
  std::mt19937 rng(97);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t rows = iter % 5 == 0 ? 0 : 1 + rng() % 40;
    const Table t = RandomTable(rng, MixedHeader(), rows, /*null_prob=*/0.3);
    const auto source =
        std::make_shared<const ColumnarTable>(ColumnarTable::FromRows(t));
    // Column maps may repeat a column; selections may repeat rows, reorder
    // them, or be empty.
    std::vector<std::size_t> col_map(1 + rng() % 5);
    for (std::size_t& c : col_map) c = rng() % t.column_count();
    storage::SelectionVector sel(rows == 0 ? 0 : rng() % 50);
    for (std::uint32_t& id : sel) id = static_cast<std::uint32_t>(rng() % rows);
    const std::vector<std::size_t> all = {0, 1, 2};

    ExpectSameAsRowBuilt(Table(source), t);
    ExpectSameAsRowBuilt(Table(source, col_map, std::nullopt),
                         RowBuiltView(t, col_map, std::nullopt));
    ExpectSameAsRowBuilt(Table(source, col_map, sel),
                         RowBuiltView(t, col_map, sel));
    ExpectSameAsRowBuilt(Table(source, all, sel), RowBuiltView(t, all, sel));
    ExpectSameAsRowBuilt(Table(source, col_map, storage::SelectionVector{}),
                         RowBuiltView(t, col_map, storage::SelectionVector{}));
  }
}

TEST(ViewTableTest, ConcurrentReadersShareOneBuild) {
  std::mt19937 rng(101);
  const Table t = RandomTable(rng, MixedHeader(), 3000, /*null_prob=*/0.2);
  storage::SelectionVector sel;
  for (std::size_t r = t.row_count(); r-- > 0;) {
    if (r % 3 != 0) sel.push_back(static_cast<std::uint32_t>(r));
  }
  const std::vector<std::size_t> col_map = {2, 0, 1, 0};
  const Table view(
      std::make_shared<const ColumnarTable>(ColumnarTable::FromRows(t)),
      col_map, sel);
  const Table want = RowBuiltView(t, col_map, sel);

  constexpr std::size_t kThreads = 8;
  std::vector<const std::vector<Row>*> seen(kThreads, nullptr);
  std::vector<char> same_cells(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::vector<Row>& rows = view.rows();
      seen[i] = &rows;
      bool same = rows.size() == want.row_count();
      for (std::size_t r = 0; same && r < rows.size(); ++r) {
        for (std::size_t c = 0; same && c < col_map.size(); ++c) {
          same = rows[r][c].CompareTotal(want.row(r)[c]) == 0;
        }
      }
      same_cells[i] = same ? 1 : 0;
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[i], &view.rows()) << "thread " << i;
    EXPECT_EQ(same_cells[i], 1) << "thread " << i;
  }
}

TEST(ViewTableTest, AppendingToACopyLeavesTheOthersUnchanged) {
  std::mt19937 rng(103);
  const Table t = RandomTable(rng, MixedHeader(), 12, /*null_prob=*/0.3);
  const Row extra = {Value(std::int64_t{9}), Value("new"), Value()};
  Table original(
      std::make_shared<const ColumnarTable>(ColumnarTable::FromRows(t)));

  Table copy = original;
  ASSERT_OK(copy.AppendRow(extra));
  ASSERT_EQ(copy.row_count(), 13u);
  EXPECT_EQ(copy.row(12)[1].CompareTotal(Value("new")), 0);
  EXPECT_EQ(original.row_count(), 12u);
  ExpectExactlyEqual(original, t);

  // The reverse: the original appends (Reserve first) after its rows were
  // built and shared; a copy taken before keeps them.
  const Table other = original;
  original.Reserve(20);
  original.AppendRowUnchecked(extra);
  EXPECT_EQ(original.row_count(), 13u);
  EXPECT_EQ(other.row_count(), 12u);
  EXPECT_EQ(other.WireSizeBytes(), t.WireSizeBytes());
  ExpectExactlyEqual(other, t);
  ExpectExactlyEqual(original, copy);
}

// --- storage satellite fixes -----------------------------------------------

TEST(TableIndexTest, ColumnIndexReturnsFirstOccurrence) {
  // Join outputs can carry the same attribute twice; the precomputed map
  // must resolve to the first column like the old linear scan did.
  const Table t({Column{kB, catalog::ValueType::kInt64},
                 Column{kA, catalog::ValueType::kString},
                 Column{kA, catalog::ValueType::kInt64}});
  EXPECT_EQ(t.ColumnIndex(kA), std::size_t{1});
  EXPECT_EQ(t.ColumnIndex(kB), std::size_t{0});
  EXPECT_EQ(t.ColumnIndex(kC), std::nullopt);
  EXPECT_EQ(Table().ColumnIndex(kA), std::nullopt);
}

TEST(TableMultisetTest, SameRowMultisetComparesPermutations) {
  const std::vector<Column> header = MixedHeader();
  const Table a = MakeTable(header, {{Value(std::int64_t{1}), Value("x"), Value(1.5)},
                                     {Value(), Value("y"), Value()},
                                     {Value(std::int64_t{1}), Value("x"), Value(1.5)}});
  const Table b = MakeTable(header, {{Value(), Value("y"), Value()},
                                     {Value(std::int64_t{1}), Value("x"), Value(1.5)},
                                     {Value(std::int64_t{1}), Value("x"), Value(1.5)}});
  EXPECT_TRUE(Table::SameRowMultiset(a, b));
  EXPECT_TRUE(Table::SameRowMultiset(a, a));

  // Same row *set*, different multiplicities: not the same multiset.
  const Table c = MakeTable(header, {{Value(std::int64_t{1}), Value("x"), Value(1.5)},
                                     {Value(), Value("y"), Value()},
                                     {Value(), Value("y"), Value()}});
  EXPECT_FALSE(Table::SameRowMultiset(a, c));

  // Row-count and header mismatches short-circuit.
  EXPECT_FALSE(Table::SameRowMultiset(a, Table(header)));
  EXPECT_FALSE(Table::SameRowMultiset(
      a, MakeTable({Column{kD, catalog::ValueType::kInt64}},
                   {{Value(std::int64_t{1})}, {Value(std::int64_t{2})},
                    {Value(std::int64_t{3})}})));
}

// --- kernel equivalence: project -------------------------------------------

TEST(KernelEquivalenceTest, ProjectMatchesRowKernel) {
  std::mt19937 rng(17);
  // Duplicate attributes in the projection list are legal and must
  // duplicate the column.
  const std::vector<std::vector<catalog::AttributeId>> lists = {
      {kA}, {kC, kA}, {kB, kB, kA}, {kA, kB, kC}, {kC, kC, kC}};
  for (int iter = 0; iter < 20; ++iter) {
    const Table t = RandomTable(rng, MixedHeader(), 40);
    for (const auto& attrs : lists) {
      for (const bool distinct : {false, true}) {
        ASSERT_OK_AND_ASSIGN(const Table want,
                             testcheck::RowProject(t, attrs, distinct));
        ASSERT_OK_AND_ASSIGN(const Table got,
                             AsRows(ProjectBatch(AsBatch(t), attrs, distinct)));
        ExpectExactlyEqual(got, want);
      }
    }
  }
}

TEST(KernelEquivalenceTest, DistinctAfterProjectMatchesRowKernel) {
  std::mt19937 rng(23);
  const Table t = RandomTable(rng, MixedHeader(), 60, /*null_prob=*/0.4);
  ASSERT_OK_AND_ASSIGN(const Table narrow,
                       AsRows(ProjectBatch(AsBatch(t), {kB, kC})));
  ASSERT_OK_AND_ASSIGN(const Table narrow_row, testcheck::RowProject(t, {kB, kC}));
  ExpectExactlyEqual(DistinctBatch(AsBatch(narrow)).ToTable(),
                     testcheck::RowDistinct(narrow_row));
}

TEST(KernelEquivalenceTest, ProjectErrorsMatchRowKernel) {
  const Table t(MixedHeader());
  EXPECT_EQ(ProjectBatch(AsBatch(t), {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ProjectBatch(AsBatch(t), {}).status().message(),
            testcheck::RowProject(t, {}).status().message());
  EXPECT_EQ(ProjectBatch(AsBatch(t), {kD}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ProjectBatch(AsBatch(t), {kD}).status().message(),
            testcheck::RowProject(t, {kD}).status().message());
}

// --- kernel equivalence: select --------------------------------------------

std::vector<Predicate> SelectPredicates() {
  std::vector<Predicate> preds;
  preds.push_back(Predicate::True());
  for (const CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    Predicate by_int;
    by_int.And(Comparison{kA, op, Value(std::int64_t{3})});
    preds.push_back(by_int);
    Predicate by_str;
    by_str.And(Comparison{kB, op, Value("gold")});
    preds.push_back(by_str);
    Predicate attr_attr;
    attr_attr.And(Comparison{kA, op, kC});  // int column vs double column
    preds.push_back(attr_attr);
  }
  Predicate null_literal;  // NULL literal: keeps nothing, any op
  null_literal.And(Comparison{kA, CompareOp::kEq, Value()});
  preds.push_back(null_literal);
  Predicate type_mismatch;  // int column vs string literal: <> is TRUE
  type_mismatch.And(Comparison{kA, CompareOp::kNe, Value("gold")});
  preds.push_back(type_mismatch);
  Predicate conjunction;
  conjunction.And(Comparison{kA, CompareOp::kGe, Value(std::int64_t{1})});
  conjunction.And(Comparison{kB, CompareOp::kEq, Value("a")});
  preds.push_back(conjunction);
  return preds;
}

TEST(KernelEquivalenceTest, SelectMatchesRowKernelAndPreservesOrder) {
  std::mt19937 rng(29);
  for (int iter = 0; iter < 10; ++iter) {
    const Table t = RandomTable(rng, MixedHeader(), 50);
    for (const Predicate& p : SelectPredicates()) {
      ASSERT_OK_AND_ASSIGN(const Table want, testcheck::RowSelect(t, p));
      ASSERT_OK_AND_ASSIGN(const Table got, AsRows(SelectBatch(AsBatch(t), p)));
      ExpectExactlyEqual(got, want);
    }
  }
}

TEST(KernelEquivalenceTest, SelectMissingAttributeErrorMatches) {
  std::mt19937 rng(31);
  const Table t = RandomTable(rng, MixedHeader(), 3);
  Predicate p;
  p.And(Comparison{kD, CompareOp::kEq, Value(std::int64_t{1})});
  EXPECT_EQ(SelectBatch(AsBatch(t), p).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SelectBatch(AsBatch(t), p).status().message(),
            testcheck::RowSelect(t, p).status().message());
}

// --- kernel equivalence: joins ---------------------------------------------

TEST(KernelEquivalenceTest, HashJoinMatchesRowKernelWithNullKeys) {
  std::mt19937 rng(37);
  const std::vector<Column> left_header = {
      Column{kA, catalog::ValueType::kInt64},
      Column{kB, catalog::ValueType::kString}};
  const std::vector<Column> right_header = {
      Column{kC, catalog::ValueType::kInt64},
      Column{kD, catalog::ValueType::kString}};
  const std::vector<EquiJoinAtom> atoms = {{kA, kC}};
  const std::vector<EquiJoinAtom> two_atoms = {{kA, kC}, {kB, kD}};
  for (int iter = 0; iter < 10; ++iter) {
    // Asymmetric sizes in both directions exercise both build sides; high
    // null probability exercises NULL-key filtering on build and probe.
    const Table l = RandomTable(rng, left_header, iter % 2 == 0 ? 12 : 40,
                                /*null_prob=*/0.3);
    const Table r = RandomTable(rng, right_header, iter % 2 == 0 ? 40 : 12,
                                /*null_prob=*/0.3);
    for (const auto& a : {atoms, two_atoms}) {
      ASSERT_OK_AND_ASSIGN(const Table want, testcheck::RowHashJoin(l, r, a));
      ASSERT_OK_AND_ASSIGN(const Table got,
                           AsRows(JoinBatches(AsBatch(l), AsBatch(r), a)));
      ExpectExactlyEqual(got, want);
    }
  }
}

TEST(KernelEquivalenceTest, NaturalJoinMatchesRowKernel) {
  std::mt19937 rng(41);
  const std::vector<Column> left_header = {
      Column{kA, catalog::ValueType::kInt64},
      Column{kB, catalog::ValueType::kString}};
  const std::vector<Column> right_header = {
      Column{kA, catalog::ValueType::kInt64},
      Column{kC, catalog::ValueType::kDouble}};
  for (int iter = 0; iter < 10; ++iter) {
    const Table l = RandomTable(rng, left_header, 25, /*null_prob=*/0.3);
    const Table r = RandomTable(rng, right_header, 18, /*null_prob=*/0.3);
    ASSERT_OK_AND_ASSIGN(const Table want,
                         testcheck::RowNaturalJoinOnShared(l, r));
    ASSERT_OK_AND_ASSIGN(const Table got,
                         AsRows(NaturalJoinBatches(AsBatch(l), AsBatch(r))));
    ExpectExactlyEqual(got, want);
  }
}

TEST(KernelEquivalenceTest, JoinErrorsMatchRowKernels) {
  const Table l({Column{kA, catalog::ValueType::kInt64}});
  const Table r({Column{kC, catalog::ValueType::kInt64}});
  EXPECT_EQ(JoinBatches(AsBatch(l), AsBatch(r), {}).status().message(),
            testcheck::RowHashJoin(l, r, {}).status().message());
  const std::vector<EquiJoinAtom> bad = {{kA, kD}};
  EXPECT_EQ(JoinBatches(AsBatch(l), AsBatch(r), bad).status().message(),
            testcheck::RowHashJoin(l, r, bad).status().message());
  EXPECT_EQ(NaturalJoinBatches(AsBatch(l), AsBatch(r)).status().message(),
            testcheck::RowNaturalJoinOnShared(l, r).status().message());
}

// --- kernel equivalence: distinct ------------------------------------------

TEST(KernelEquivalenceTest, DistinctMatchesRowKernelKeepsFirstOccurrence) {
  std::mt19937 rng(43);
  for (int iter = 0; iter < 10; ++iter) {
    // Few distinct cell values + high NULL rate → many exact-duplicate rows,
    // including rows equal only through NULL == NULL.
    const Table t = RandomTable(rng, MixedHeader(), 50, /*null_prob=*/0.5);
    ExpectExactlyEqual(DistinctBatch(AsBatch(t)).ToTable(),
                       testcheck::RowDistinct(t));
  }
}

// --- empty inputs -----------------------------------------------------------

TEST(KernelEquivalenceTest, EmptyInputsMatchRowKernels) {
  const Table t(MixedHeader());
  const Table r({Column{kD, catalog::ValueType::kInt64},
                 Column{kA, catalog::ValueType::kInt64}});
  ASSERT_OK_AND_ASSIGN(
      const Table p,
      AsRows(ProjectBatch(AsBatch(t), {kB, kA}, /*distinct=*/true)));
  ASSERT_OK_AND_ASSIGN(const Table p_row,
                       testcheck::RowProject(t, {kB, kA}, /*distinct=*/true));
  ExpectExactlyEqual(p, p_row);

  Predicate pred;
  pred.And(Comparison{kA, CompareOp::kLt, Value(std::int64_t{5})});
  ASSERT_OK_AND_ASSIGN(const Table s, AsRows(SelectBatch(AsBatch(t), pred)));
  ASSERT_OK_AND_ASSIGN(const Table s_row, testcheck::RowSelect(t, pred));
  ExpectExactlyEqual(s, s_row);

  const std::vector<EquiJoinAtom> atoms = {{kA, kD}};
  ASSERT_OK_AND_ASSIGN(const Table j,
                       AsRows(JoinBatches(AsBatch(t), AsBatch(r), atoms)));
  ASSERT_OK_AND_ASSIGN(const Table j_row, testcheck::RowHashJoin(t, r, atoms));
  ExpectExactlyEqual(j, j_row);
  ASSERT_OK_AND_ASSIGN(const Table n,
                       AsRows(NaturalJoinBatches(AsBatch(t), AsBatch(r))));
  ASSERT_OK_AND_ASSIGN(const Table n_row,
                       testcheck::RowNaturalJoinOnShared(t, r));
  ExpectExactlyEqual(n, n_row);

  ExpectExactlyEqual(DistinctBatch(AsBatch(t)).ToTable(),
                     testcheck::RowDistinct(t));
}

// --- fixed row-kernel inefficiency contracts -------------------------------

TEST(RowKernelContractTest, SelectReservesAndDistinctKeepsFirstOccurrence) {
  // Pin the two behavioral contracts behind the fixed inefficiencies: σ
  // preserves input order (reservation must not reorder), and Distinct's
  // index-hashing rewrite still keeps exactly the first occurrence.
  const std::vector<Column> header = {Column{kA, catalog::ValueType::kInt64},
                                      Column{kB, catalog::ValueType::kString}};
  const Table t = MakeTable(header, {{Value(std::int64_t{2}), Value("x")},
                                     {Value(std::int64_t{1}), Value("first")},
                                     {Value(std::int64_t{2}), Value("x")},
                                     {Value(std::int64_t{1}), Value("second")},
                                     {Value(), Value()},
                                     {Value(), Value()}});
  Predicate keep_ones;
  keep_ones.And(Comparison{kA, CompareOp::kEq, Value(std::int64_t{1})});
  ASSERT_OK_AND_ASSIGN(const Table sel, testcheck::RowSelect(t, keep_ones));
  ASSERT_EQ(sel.row_count(), 2u);
  EXPECT_EQ(sel.row(0)[1].CompareTotal(Value("first")), 0);
  EXPECT_EQ(sel.row(1)[1].CompareTotal(Value("second")), 0);

  const Table ded = testcheck::RowDistinct(t);
  ASSERT_EQ(ded.row_count(), 4u);  // NULL rows compare equal → kept once
  EXPECT_EQ(ded.row(0)[0].CompareTotal(Value(std::int64_t{2})), 0);
  EXPECT_EQ(ded.row(1)[1].CompareTotal(Value("first")), 0);
  EXPECT_EQ(ded.row(3)[0].CompareTotal(Value()), 0);
  ExpectExactlyEqual(DistinctBatch(AsBatch(t)).ToTable(), ded);
}

// --- morsel-parallel parity (DESIGN.md §14) --------------------------------
//
// Every vectorized operator run under a multi-thread MorselContext must
// produce byte-identical output to the sequential kernel — same rows, same
// order, same wire size — at every thread count. morsel_rows=64 (the
// minimum tile) and min_parallel_rows=0 force real morsel fan-out even on
// test-sized tables; threads=1 exercises the contract that a single-thread
// pool takes the exact sequential path.

MorselContext ForcedCtx(ThreadPool& pool, std::size_t radix_bits = 0) {
  MorselContext ctx;
  ctx.pool = &pool;
  ctx.morsel_rows = 64;
  ctx.min_parallel_rows = 0;
  ctx.radix_bits = radix_bits;
  return ctx;
}

/// Byte-identity: exact rows in exact order, and the same wire size (the
/// parallel gather's wire-byte reduction must match the sequential sum).
void ExpectBatchesIdentical(const ColumnarBatch& got,
                            const ColumnarBatch& want) {
  ExpectExactlyEqual(got.ToTable(), want.ToTable());
  EXPECT_EQ(got.Materialize()->WireSizeBytes(),
            want.Materialize()->WireSizeBytes());
}

constexpr std::size_t kParityThreads[] = {1, 2, 3, 8};

TEST(MorselParityTest, SelectMatchesSequentialAtEveryThreadCount) {
  std::mt19937 rng(53);
  const Table t = RandomTable(rng, MixedHeader(), 300);
  const ColumnarBatch batch = AsBatch(t);
  for (const Predicate& p : SelectPredicates()) {
    ASSERT_OK_AND_ASSIGN(const ColumnarBatch want, SelectBatch(batch, p));
    for (const std::size_t threads : kParityThreads) {
      ThreadPool pool(threads);
      ASSERT_OK_AND_ASSIGN(const ColumnarBatch got,
                           SelectBatch(batch, p, ForcedCtx(pool)));
      ExpectBatchesIdentical(got, want);
    }
  }
}

TEST(MorselParityTest, JoinMatchesSequentialWithNullKeys) {
  std::mt19937 rng(59);
  const std::vector<Column> left_header = {
      Column{kA, catalog::ValueType::kInt64},
      Column{kB, catalog::ValueType::kString}};
  const std::vector<Column> right_header = {
      Column{kC, catalog::ValueType::kInt64},
      Column{kD, catalog::ValueType::kString}};
  const std::vector<EquiJoinAtom> atoms = {{kA, kC}};
  const std::vector<EquiJoinAtom> two_atoms = {{kA, kC}, {kB, kD}};
  for (int iter = 0; iter < 4; ++iter) {
    const Table l = RandomTable(rng, left_header, iter % 2 == 0 ? 80 : 300,
                                /*null_prob=*/0.3);
    const Table r = RandomTable(rng, right_header, iter % 2 == 0 ? 300 : 80,
                                /*null_prob=*/0.3);
    const ColumnarBatch lb = AsBatch(l);
    const ColumnarBatch rb = AsBatch(r);
    for (const auto& a : {atoms, two_atoms}) {
      ASSERT_OK_AND_ASSIGN(const ColumnarBatch want, JoinBatches(lb, rb, a));
      for (const std::size_t threads : kParityThreads) {
        ThreadPool pool(threads);
        ASSERT_OK_AND_ASSIGN(const ColumnarBatch got,
                             JoinBatches(lb, rb, a, ForcedCtx(pool)));
        ExpectBatchesIdentical(got, want);
      }
    }
  }
}

TEST(MorselParityTest, NaturalJoinMatchesSequential) {
  std::mt19937 rng(61);
  const std::vector<Column> left_header = {
      Column{kA, catalog::ValueType::kInt64},
      Column{kB, catalog::ValueType::kString}};
  const std::vector<Column> right_header = {
      Column{kA, catalog::ValueType::kInt64},
      Column{kC, catalog::ValueType::kDouble}};
  const Table l = RandomTable(rng, left_header, 200, /*null_prob=*/0.3);
  const Table r = RandomTable(rng, right_header, 150, /*null_prob=*/0.3);
  const ColumnarBatch lb = AsBatch(l);
  const ColumnarBatch rb = AsBatch(r);
  ASSERT_OK_AND_ASSIGN(const ColumnarBatch want, NaturalJoinBatches(lb, rb));
  for (const std::size_t threads : kParityThreads) {
    ThreadPool pool(threads);
    ASSERT_OK_AND_ASSIGN(const ColumnarBatch got,
                         NaturalJoinBatches(lb, rb, ForcedCtx(pool)));
    ExpectBatchesIdentical(got, want);
  }
}

TEST(MorselParityTest, DistinctAndProjectDistinctMatchSequential) {
  std::mt19937 rng(67);
  // Few distinct values + NULLs → heavy duplication across morsels, the
  // case where a wrong first-occurrence rule would show.
  const Table t = RandomTable(rng, MixedHeader(), 400, /*null_prob=*/0.4);
  const ColumnarBatch batch = AsBatch(t);
  const ColumnarBatch want_distinct = DistinctBatch(batch);
  ASSERT_OK_AND_ASSIGN(const ColumnarBatch want_proj,
                       ProjectBatch(batch, {kB, kC}, /*distinct=*/true));
  for (const std::size_t threads : kParityThreads) {
    ThreadPool pool(threads);
    ExpectBatchesIdentical(DistinctBatch(batch, ForcedCtx(pool)),
                           want_distinct);
    ASSERT_OK_AND_ASSIGN(
        const ColumnarBatch got_proj,
        ProjectBatch(batch, {kB, kC}, /*distinct=*/true, ForcedCtx(pool)));
    ExpectBatchesIdentical(got_proj, want_proj);
  }
}

TEST(MorselParityTest, EmptyPartitionsAndEmptyInputs) {
  std::mt19937 rng(71);
  const std::vector<Column> left_header = {
      Column{kA, catalog::ValueType::kInt64},
      Column{kB, catalog::ValueType::kString}};
  const std::vector<Column> right_header = {
      Column{kC, catalog::ValueType::kInt64},
      Column{kD, catalog::ValueType::kString}};
  const std::vector<EquiJoinAtom> atoms = {{kA, kC}};
  // radix_bits=6 → 64 partitions over ≤8 build rows: most partitions empty.
  const Table small_l = RandomTable(rng, left_header, 8, /*null_prob=*/0.2);
  const Table small_r = RandomTable(rng, right_header, 40, /*null_prob=*/0.2);
  const Table empty_l(left_header);
  const ColumnarBatch slb = AsBatch(small_l);
  const ColumnarBatch srb = AsBatch(small_r);
  const ColumnarBatch elb = AsBatch(empty_l);
  ASSERT_OK_AND_ASSIGN(const ColumnarBatch want, JoinBatches(slb, srb, atoms));
  ASSERT_OK_AND_ASSIGN(const ColumnarBatch want_empty,
                       JoinBatches(elb, srb, atoms));
  for (const std::size_t threads : kParityThreads) {
    ThreadPool pool(threads);
    ASSERT_OK_AND_ASSIGN(
        const ColumnarBatch got,
        JoinBatches(slb, srb, atoms, ForcedCtx(pool, /*radix_bits=*/6)));
    ExpectBatchesIdentical(got, want);
    ASSERT_OK_AND_ASSIGN(
        const ColumnarBatch got_empty,
        JoinBatches(elb, srb, atoms, ForcedCtx(pool, /*radix_bits=*/6)));
    ExpectBatchesIdentical(got_empty, want_empty);
    ExpectBatchesIdentical(DistinctBatch(elb, ForcedCtx(pool)),
                           DistinctBatch(elb));
  }
}

TEST(MorselParityTest, AllRowsInOnePartitionSkew) {
  // Every row carries the same join key: the whole build side lands in one
  // radix partition and every probe row matches every build row. Output
  // order (probe-major, build rows ascending) must survive the skew.
  const std::vector<Column> left_header = {
      Column{kA, catalog::ValueType::kInt64},
      Column{kB, catalog::ValueType::kString}};
  const std::vector<Column> right_header = {
      Column{kC, catalog::ValueType::kInt64},
      Column{kD, catalog::ValueType::kString}};
  Table l(left_header);
  Table r(right_header);
  for (int i = 0; i < 40; ++i) {
    CISQP_CHECK(l.AppendRow({Value(std::int64_t{7}),
                             Value("l" + std::to_string(i))}).ok());
  }
  for (int i = 0; i < 90; ++i) {
    CISQP_CHECK(r.AppendRow({Value(std::int64_t{7}),
                             Value("r" + std::to_string(i))}).ok());
  }
  const ColumnarBatch lb = AsBatch(l);
  const ColumnarBatch rb = AsBatch(r);
  const std::vector<EquiJoinAtom> atoms = {{kA, kC}};
  ASSERT_OK_AND_ASSIGN(const ColumnarBatch want, JoinBatches(lb, rb, atoms));
  ASSERT_EQ(want.row_count(), 40u * 90u);
  for (const std::size_t threads : kParityThreads) {
    ThreadPool pool(threads);
    ASSERT_OK_AND_ASSIGN(
        const ColumnarBatch got,
        JoinBatches(lb, rb, atoms, ForcedCtx(pool, /*radix_bits=*/4)));
    ExpectBatchesIdentical(got, want);
  }
}

TEST(MorselParityTest, GoldenJoinOutputAtEveryThreadCount) {
  // Hand-written golden: row order pinned to the row-kernel contract
  // (probe-major; among equal keys, build rows in input order).
  const std::vector<Column> left_header = {
      Column{kA, catalog::ValueType::kInt64},
      Column{kB, catalog::ValueType::kString}};
  const std::vector<Column> right_header = {
      Column{kC, catalog::ValueType::kInt64},
      Column{kD, catalog::ValueType::kString}};
  // Build = left (2 rows < 3 rows). Probe rows: k=1 matches both left
  // 1-rows in input order; NULL key never matches.
  const Table l = MakeTable(left_header, {{Value(std::int64_t{1}), Value("x")},
                                          {Value(std::int64_t{1}), Value("y")}});
  const Table r = MakeTable(right_header,
                            {{Value(std::int64_t{1}), Value("p")},
                             {Value(), Value("q")},
                             {Value(std::int64_t{1}), Value("s")}});
  std::vector<Column> out_header = left_header;
  out_header.insert(out_header.end(), right_header.begin(), right_header.end());
  const Table golden = MakeTable(
      out_header,
      {{Value(std::int64_t{1}), Value("x"), Value(std::int64_t{1}), Value("p")},
       {Value(std::int64_t{1}), Value("y"), Value(std::int64_t{1}), Value("p")},
       {Value(std::int64_t{1}), Value("x"), Value(std::int64_t{1}), Value("s")},
       {Value(std::int64_t{1}), Value("y"), Value(std::int64_t{1}), Value("s")}});
  const ColumnarBatch lb = AsBatch(l);
  const ColumnarBatch rb = AsBatch(r);
  const std::vector<EquiJoinAtom> atoms = {{kA, kC}};
  for (const std::size_t threads : kParityThreads) {
    ThreadPool pool(threads);
    ASSERT_OK_AND_ASSIGN(const ColumnarBatch got,
                         JoinBatches(lb, rb, atoms, ForcedCtx(pool, 2)));
    ExpectExactlyEqual(got.ToTable(), golden);
  }
}

TEST(MorselParityTest, JoinStatsCountHashesMorselsAndPartitions) {
  std::mt19937 rng(73);
  const std::vector<Column> left_header = {
      Column{kA, catalog::ValueType::kInt64},
      Column{kB, catalog::ValueType::kString}};
  const std::vector<Column> right_header = {
      Column{kC, catalog::ValueType::kInt64},
      Column{kD, catalog::ValueType::kString}};
  const Table l = RandomTable(rng, left_header, 200, /*null_prob=*/0.1);
  const Table r = RandomTable(rng, right_header, 300, /*null_prob=*/0.1);
  const ColumnarBatch lb = AsBatch(l);
  const ColumnarBatch rb = AsBatch(r);
  const std::vector<EquiJoinAtom> atoms = {{kA, kC}};

  // The dictionary-hash reuse contract, sequential and partitioned alike:
  // each row is hashed exactly once — hash count is O(build + probe), never
  // O(matches) and never re-hashed during partitioning.
  KernelStats seq;
  {
    const KernelStatsScope scope(&seq);
    ASSERT_OK_AND_ASSIGN(const ColumnarBatch out, JoinBatches(lb, rb, atoms));
    (void)out;
  }
  EXPECT_EQ(seq.rows_hashed, 500u);
  EXPECT_EQ(seq.morsels, 0u);     // sequential path: no morsel dispatch
  EXPECT_EQ(seq.partitions, 0u);  // and no radix fan-out

  ThreadPool pool(3);
  KernelStats par;
  {
    const KernelStatsScope scope(&par);
    ASSERT_OK_AND_ASSIGN(const ColumnarBatch out,
                         JoinBatches(lb, rb, atoms, ForcedCtx(pool, 3)));
    (void)out;
  }
  EXPECT_EQ(par.rows_hashed, 500u);
  EXPECT_GT(par.morsels, 0u);
  EXPECT_EQ(par.partitions, 8u);  // radix_bits=3
  EXPECT_EQ(par.worker_busy_us.size(), pool.thread_count());
  EXPECT_EQ(par.hash_build_rows, seq.hash_build_rows);
  EXPECT_EQ(par.hash_probe_rows, seq.hash_probe_rows);
  EXPECT_EQ(par.hash_matches, seq.hash_matches);
}

}  // namespace
}  // namespace cisqp::algebra
