// E18 — morsel-driven intra-operator parallelism: the vectorized
// σ → ⋈ → π-distinct pipeline from E16 swept across worker-pool sizes
// 1/2/4/8 against the sequential (no-pool) engine.
//
// Two claims, one hard and one hardware-dependent:
//
//   determinism  at EVERY thread count the parallel pipeline returns the
//                byte-identical table — same rows, same order. Any
//                difference aborts the binary (and thereby CI). threads=1
//                must take the exact sequential code path, so its timing is
//                also asserted against the no-pool run by the regression
//                gate (≤5% overhead, best-of-three).
//   speedup      with enough cores the 8-thread sweep point reaches ≥3x the
//                sequential wall time. Each artifact row records
//                hw_threads, and scripts/check_bench_regression.sh gates
//                the speedup only when hw_threads >= 4 — a single-core
//                runner can prove determinism but not scaling.
#include "bench_util.hpp"

#include <chrono>
#include <memory>
#include <random>

#include "algebra/vectorized.hpp"
#include "storage/column.hpp"

namespace cisqp::bench {
namespace {

using algebra::ColumnarBatch;
using algebra::MorselContext;
using storage::Column;
using storage::ColumnarTable;
using storage::Table;
using storage::Value;

constexpr catalog::AttributeId kK = 1;   // fact key
constexpr catalog::AttributeId kV = 2;   // fact measure (filtered)
constexpr catalog::AttributeId kS = 3;   // fact label (projected)
constexpr catalog::AttributeId kK2 = 4;  // dim key
constexpr catalog::AttributeId kW = 5;   // dim weight (projected)

/// Same workload family as E16 (bench_exec_kernels): 100k fact rows with ~1%
/// NULL join keys, 25k dim rows, selective filter, join, distinct project.
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

/// One end-to-end pipeline run under `ctx` ({} = sequential engine).
Table RunPipeline(const std::shared_ptr<const ColumnarTable>& fact,
                  const std::shared_ptr<const ColumnarTable>& dim,
                  const Workload& w, const MorselContext& ctx,
                  std::int64_t* total_us) {
  const std::int64_t t0 = NowUs();
  ColumnarBatch filtered = Unwrap(
      algebra::SelectBatch(ColumnarBatch::FromTable(fact), w.filter, ctx),
      "select");
  ColumnarBatch joined =
      Unwrap(algebra::JoinBatches(filtered, ColumnarBatch::FromTable(dim),
                                  w.atoms, ctx),
             "join");
  ColumnarBatch projected = Unwrap(
      algebra::ProjectBatch(joined, w.projection, /*distinct=*/true, ctx),
      "project");
  Table out = std::move(projected).ToTable();
  out.rows();  // build the result rows inside the timed region
  if (total_us != nullptr) *total_us = NowUs() - t0;
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

std::int64_t Median(std::vector<std::int64_t> runs) {
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

void PrintThreadSweep() {
  PrintHeader("E18: morsel-driven parallel execution thread sweep",
              "byte-identical output at every thread count; >=3x end-to-end "
              "at 8 threads on >=4-core hardware");
  constexpr std::size_t kFactRows = 100000;
  constexpr int kRepeats = 5;
  const std::size_t hw_threads = ThreadPool::HardwareConcurrency();
  const Workload w(kFactRows);
  const auto fact = std::make_shared<const ColumnarTable>(
      ColumnarTable::FromRows(w.fact));
  const auto dim = std::make_shared<const ColumnarTable>(
      ColumnarTable::FromRows(w.dim));

  // Sequential reference: the engine with no pool at all.
  const Table reference = RunPipeline(fact, dim, w, MorselContext{}, nullptr);
  std::vector<std::int64_t> seq_runs(kRepeats);
  for (int i = 0; i < kRepeats; ++i) {
    Table out = RunPipeline(fact, dim, w, MorselContext{},
                            &seq_runs[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(out);
  }
  const std::int64_t seq_us = Median(seq_runs);

  Artifact artifact("exec_threads",
                    "E18: morsel-driven parallel execution thread sweep",
                    "byte-identical output at every thread count; >=3x "
                    "end-to-end at 8 threads on >=4-core hardware");
  std::printf("%8s %14s %9s %10s  (sequential=%lldus, hw_threads=%zu)\n",
              "threads", "total_us", "speedup", "identical",
              static_cast<long long>(seq_us), hw_threads);

  bool all_identical = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    MorselContext ctx;
    ctx.pool = &pool;
    bool identical = true;
    std::vector<std::int64_t> runs(kRepeats);
    for (int i = 0; i < kRepeats; ++i) {
      const Table out =
          RunPipeline(fact, dim, w, ctx, &runs[static_cast<std::size_t>(i)]);
      identical = identical && ExactlyEqual(out, reference);
    }
    all_identical = all_identical && identical;
    const std::int64_t total_us = Median(std::move(runs));
    const double speedup =
        total_us > 0
            ? static_cast<double>(seq_us) / static_cast<double>(total_us)
            : 0.0;
    std::printf("%8zu %14lld %8.2fx %10s\n", threads,
                static_cast<long long>(total_us), speedup,
                identical ? "yes" : "NO");
    artifact.Row()
        .Value("threads", threads)
        .Value("hw_threads", hw_threads)
        .Value("fact_rows", w.fact.row_count())
        .Value("dim_rows", w.dim.row_count())
        .Value("result_rows", reference.row_count())
        .Value("sequential_total_us", seq_us)
        .Value("total_us", total_us)
        .Value("speedup", speedup)
        .Value("identical", identical);
  }
  artifact.Write();

  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: parallel pipeline output differs from sequential\n");
    std::abort();
  }
}

void BM_ParallelPipeline(benchmark::State& state) {
  const Workload w(100000);
  const auto fact = std::make_shared<const ColumnarTable>(
      ColumnarTable::FromRows(w.fact));
  const auto dim = std::make_shared<const ColumnarTable>(
      ColumnarTable::FromRows(w.dim));
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  MorselContext ctx;
  ctx.pool = &pool;
  for (auto _ : state) {
    Table out = RunPipeline(fact, dim, w, ctx, nullptr);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ParallelPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cisqp::bench

int main(int argc, char** argv) {
  cisqp::bench::PrintThreadSweep();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
