// E16 — columnar batch execution engine: the vectorized kernels
// (algebra/vectorized) against the retained row-at-a-time kernels
// (testcheck/row_kernels) on a join-heavy 100k-row workload.
//
// The claim is twofold: the columnar engine is at least 5x faster on the
// σ → ⋈ → π-distinct pipeline, and its output is byte-identical to the row
// engine's — same header, same rows, same row order — so replacing the row
// engine is observationally invisible. The artifact records per-stage
// and end-to-end timings plus the equality verdict; the CI bench smoke step
// (scripts/check_bench_regression.sh) fails when the end-to-end speedup
// drops below half the committed baseline.
#include "bench_util.hpp"

#include <chrono>
#include <memory>
#include <random>

#include "algebra/vectorized.hpp"
#include "common/thread_pool.hpp"
#include "storage/column.hpp"
#include "testcheck/row_kernels.hpp"

namespace cisqp::bench {
namespace {

using algebra::ColumnarBatch;
using storage::Column;
using storage::ColumnarTable;
using storage::Row;
using storage::Table;
using storage::Value;

constexpr catalog::AttributeId kK = 1;   // fact key
constexpr catalog::AttributeId kV = 2;   // fact measure (filtered)
constexpr catalog::AttributeId kS = 3;   // fact label (projected)
constexpr catalog::AttributeId kK2 = 4;  // dim key
constexpr catalog::AttributeId kW = 5;   // dim weight (projected)

struct Workload {
  Table fact;
  Table dim;
  algebra::Predicate filter;
  std::vector<algebra::EquiJoinAtom> atoms = {{kK, kK2}};
  std::vector<catalog::AttributeId> projection = {kS, kW};

  explicit Workload(std::size_t fact_rows) {
    std::mt19937 rng(1234);
    const std::size_t key_space = fact_rows / 2;
    std::uniform_int_distribution<std::int64_t> key(
        0, static_cast<std::int64_t>(key_space) - 1);
    std::uniform_int_distribution<std::int64_t> measure(0, 999);
    static const char* kLabels[] = {"alpha", "beta", "gamma", "delta",
                                    "epsilon", "zeta", "eta", "theta"};
    std::uniform_int_distribution<int> label(0, 7);
    std::uniform_real_distribution<double> weight(0.0, 1.0);

    fact = Table({Column{kK, catalog::ValueType::kInt64},
                  Column{kV, catalog::ValueType::kInt64},
                  Column{kS, catalog::ValueType::kString}});
    fact.Reserve(fact_rows);
    for (std::size_t i = 0; i < fact_rows; ++i) {
      // ~1% NULL keys exercise the join's NULL-filtering path.
      const bool null_key = i % 100 == 99;
      fact.AppendRowUnchecked({null_key ? Value() : Value(key(rng)),
                               Value(measure(rng)), Value(kLabels[label(rng)])});
    }
    dim = Table({Column{kK2, catalog::ValueType::kInt64},
                 Column{kW, catalog::ValueType::kDouble}});
    const std::size_t dim_rows = fact_rows / 4;
    dim.Reserve(dim_rows);
    for (std::size_t i = 0; i < dim_rows; ++i) {
      dim.AppendRowUnchecked({Value(key(rng)), Value(weight(rng))});
    }
    filter.And(algebra::Comparison{kV, algebra::CompareOp::kLt,
                                   Value(std::int64_t{500})});
  }
};

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PipelineTimings {
  std::int64_t select_us = 0;
  std::int64_t join_us = 0;
  std::int64_t project_us = 0;
  std::int64_t total_us = 0;
};

Table RunRowPipeline(const Workload& w, PipelineTimings* t) {
  const std::int64_t t0 = NowUs();
  Table filtered = Unwrap(testcheck::RowSelect(w.fact, w.filter), "row select");
  const std::int64_t t1 = NowUs();
  Table joined =
      Unwrap(testcheck::RowHashJoin(filtered, w.dim, w.atoms), "row join");
  const std::int64_t t2 = NowUs();
  Table out = Unwrap(
      testcheck::RowProject(joined, w.projection, /*distinct=*/true),
      "row project");
  const std::int64_t t3 = NowUs();
  if (t != nullptr) {
    t->select_us = t1 - t0;
    t->join_us = t2 - t1;
    t->project_us = t3 - t2;
    t->total_us = t3 - t0;
  }
  return out;
}

Table RunColumnarPipeline(const std::shared_ptr<const ColumnarTable>& fact,
                          const std::shared_ptr<const ColumnarTable>& dim,
                          const Workload& w, PipelineTimings* t) {
  const std::int64_t t0 = NowUs();
  ColumnarBatch filtered = Unwrap(
      algebra::SelectBatch(ColumnarBatch::FromTable(fact), w.filter), "select");
  const std::int64_t t1 = NowUs();
  ColumnarBatch joined = Unwrap(
      algebra::JoinBatches(filtered, ColumnarBatch::FromTable(dim), w.atoms),
      "join");
  const std::int64_t t2 = NowUs();
  ColumnarBatch projected = Unwrap(
      algebra::ProjectBatch(joined, w.projection, /*distinct=*/true), "project");
  Table out = std::move(projected).ToTable();
  out.rows();  // build the result rows inside the timed region
  const std::int64_t t3 = NowUs();
  if (t != nullptr) {
    t->select_us = t1 - t0;
    t->join_us = t2 - t1;
    t->project_us = t3 - t2;  // includes building the result rows
    t->total_us = t3 - t0;
  }
  return out;
}

bool ExactlyEqual(const Table& a, const Table& b) {
  if (a.columns() != b.columns() || a.row_count() != b.row_count()) return false;
  for (std::size_t r = 0; r < a.row_count(); ++r) {
    for (std::size_t c = 0; c < a.column_count(); ++c) {
      if (a.row(r)[c].CompareTotal(b.row(r)[c]) != 0) return false;
    }
  }
  return true;
}

PipelineTimings Median(std::vector<PipelineTimings> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const PipelineTimings& a, const PipelineTimings& b) {
              return a.total_us < b.total_us;
            });
  return runs[runs.size() / 2];
}

void PrintKernelTable() {
  PrintHeader("E16: columnar batch engine vs row-at-a-time kernels",
              ">=5x end-to-end speedup on a join-heavy 100k-row pipeline, "
              "byte-identical output");
  constexpr std::size_t kFactRows = 100000;
  constexpr int kRepeats = 5;
  const Workload w(kFactRows);
  // The cluster stores base relations columnar (Cluster::ColumnarOf), so
  // conversion is outside the per-query timings.
  const auto fact = std::make_shared<const ColumnarTable>(
      ColumnarTable::FromRows(w.fact));
  const auto dim = std::make_shared<const ColumnarTable>(
      ColumnarTable::FromRows(w.dim));

  Table row_out = RunRowPipeline(w, nullptr);  // warmup + reference output
  const Table col_out = RunColumnarPipeline(fact, dim, w, nullptr);
  const bool identical = ExactlyEqual(row_out, col_out);

  std::vector<PipelineTimings> row_runs(kRepeats);
  std::vector<PipelineTimings> col_runs(kRepeats);
  for (int i = 0; i < kRepeats; ++i) {
    row_out = RunRowPipeline(w, &row_runs[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(row_out);
  }
  for (int i = 0; i < kRepeats; ++i) {
    Table out = RunColumnarPipeline(fact, dim, w, &col_runs[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(out);
  }
  const PipelineTimings row_t = Median(std::move(row_runs));
  const PipelineTimings col_t = Median(std::move(col_runs));
  const double speedup = col_t.total_us > 0
                             ? static_cast<double>(row_t.total_us) /
                                   static_cast<double>(col_t.total_us)
                             : 0.0;

  std::printf("%-10s %14s %14s %9s\n", "stage", "row_us", "columnar_us",
              "speedup");
  const auto stage = [](const char* name, std::int64_t row_us,
                        std::int64_t col_us) {
    std::printf("%-10s %14lld %14lld %8.1fx\n", name,
                static_cast<long long>(row_us), static_cast<long long>(col_us),
                col_us > 0 ? static_cast<double>(row_us) /
                                 static_cast<double>(col_us)
                           : 0.0);
  };
  stage("select", row_t.select_us, col_t.select_us);
  stage("join", row_t.join_us, col_t.join_us);
  stage("project", row_t.project_us, col_t.project_us);
  stage("total", row_t.total_us, col_t.total_us);
  std::printf("fact_rows=%zu dim_rows=%zu result_rows=%zu identical=%s\n",
              w.fact.row_count(), w.dim.row_count(), col_out.row_count(),
              identical ? "yes" : "NO");

  // The radix-partitioned join must reuse the cached per-column hashes: each
  // input row is hashed exactly once, so the hash count is O(build + probe) —
  // never O(matches), never re-hashed per partition. Checked against the
  // sequential join too, which shares the same contract.
  std::uint64_t seq_hashed = 0;
  std::uint64_t par_hashed = 0;
  std::uint64_t hash_budget = 0;
  {
    const ColumnarBatch filtered = Unwrap(
        algebra::SelectBatch(ColumnarBatch::FromTable(fact), w.filter),
        "select");
    hash_budget = filtered.row_count() + w.dim.row_count();
    {
      algebra::KernelStats stats;
      const algebra::KernelStatsScope scope(&stats);
      ColumnarBatch joined = Unwrap(
          algebra::JoinBatches(filtered, ColumnarBatch::FromTable(dim),
                               w.atoms),
          "sequential join");
      benchmark::DoNotOptimize(joined);
      seq_hashed = stats.rows_hashed;
    }
    {
      ThreadPool pool(4);
      algebra::MorselContext ctx;
      ctx.pool = &pool;
      algebra::KernelStats stats;
      const algebra::KernelStatsScope scope(&stats);
      ColumnarBatch joined = Unwrap(
          algebra::JoinBatches(filtered, ColumnarBatch::FromTable(dim),
                               w.atoms, ctx),
          "partitioned join");
      benchmark::DoNotOptimize(joined);
      par_hashed = stats.rows_hashed;
    }
  }
  std::printf("rows_hashed sequential=%llu partitioned=%llu build+probe=%llu\n",
              static_cast<unsigned long long>(seq_hashed),
              static_cast<unsigned long long>(par_hashed),
              static_cast<unsigned long long>(hash_budget));

  Artifact artifact("exec_kernels",
                    "E16: columnar batch engine vs row kernels",
                    ">=5x speedup on the 100k-row join-heavy pipeline with "
                    "byte-identical results");
  artifact.Row()
      .Value("fact_rows", w.fact.row_count())
      .Value("dim_rows", w.dim.row_count())
      .Value("result_rows", col_out.row_count())
      .Value("row_select_us", row_t.select_us)
      .Value("row_join_us", row_t.join_us)
      .Value("row_project_us", row_t.project_us)
      .Value("row_total_us", row_t.total_us)
      .Value("columnar_select_us", col_t.select_us)
      .Value("columnar_join_us", col_t.join_us)
      .Value("columnar_project_us", col_t.project_us)
      .Value("columnar_total_us", col_t.total_us)
      .Value("speedup", speedup)
      .Value("identical", identical)
      .Value("rows_hashed_sequential", seq_hashed)
      .Value("rows_hashed_partitioned", par_hashed)
      .Value("rows_hashed_budget", hash_budget);
  artifact.Write();

  if (!identical) {
    std::fprintf(stderr, "FATAL: columnar output differs from row output\n");
    std::abort();
  }
  if (seq_hashed != hash_budget || par_hashed != hash_budget) {
    std::fprintf(stderr,
                 "FATAL: join hashed %llu/%llu rows (seq/partitioned), "
                 "expected exactly build+probe = %llu\n",
                 static_cast<unsigned long long>(seq_hashed),
                 static_cast<unsigned long long>(par_hashed),
                 static_cast<unsigned long long>(hash_budget));
    std::abort();
  }
}

void BM_RowPipeline(benchmark::State& state) {
  const Workload w(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Table out = RunRowPipeline(w, nullptr);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RowPipeline)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_ColumnarPipeline(benchmark::State& state) {
  const Workload w(static_cast<std::size_t>(state.range(0)));
  const auto fact = std::make_shared<const ColumnarTable>(
      ColumnarTable::FromRows(w.fact));
  const auto dim = std::make_shared<const ColumnarTable>(
      ColumnarTable::FromRows(w.dim));
  for (auto _ : state) {
    Table out = RunColumnarPipeline(fact, dim, w, nullptr);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ColumnarPipeline)->Arg(20000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_ColumnarConversion(benchmark::State& state) {
  const Workload w(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ColumnarTable ct = ColumnarTable::FromRows(w.fact);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_ColumnarConversion)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cisqp::bench

int main(int argc, char** argv) {
  cisqp::bench::PrintKernelTable();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
