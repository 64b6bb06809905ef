// E17 (extension) — the estimate→execute→feed-back loop: a profiled run
// harvests actual per-operator cardinalities into a StatsFeedback store, and
// the next planning of the same query consults the measured values instead
// of the model. The experiment plans the paper's query with *default*
// (deliberately wrong) statistics, executes it profiled, feeds the measured
// cardinalities back, re-plans, and re-executes — reporting the
// estimate-vs-actual drift of both rounds (geometric mean of the per-operator
// multiplicative error) and whether the corrected costs changed the plan.
// The second round's drift must not exceed the first's: every harvested
// subtree signature now estimates at its measured cardinality.
#include "bench_util.hpp"

#include <cmath>

#include "exec/executor.hpp"
#include "exec/explain.hpp"
#include "planner/plan_search.hpp"

namespace cisqp::bench {
namespace {

/// Geometric mean of max(drift, 1/drift) over profiled operators with an
/// estimate, where drift = (actual+1)/(estimated+1). 1.0 = every estimate
/// exact; 10.0 = one order of magnitude off on average.
double MeanDrift(const obs::QueryProfile& profile) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const obs::OperatorStats& op : profile.operators) {
    if (op.node_id < 0 || op.invocations == 0 || op.est_rows < 0.0) continue;
    const double drift = op.DriftRatio();
    log_sum += std::fabs(std::log(drift));
    ++n;
  }
  return n == 0 ? 1.0 : std::exp(log_sum / static_cast<double>(n));
}

struct RoundResult {
  plan::QueryPlan plan;
  obs::QueryProfile profile;
  double drift = 1.0;
  double estimated_bytes = 0.0;
};

void PrintFeedbackTable() {
  PrintHeader("E17 / estimate feedback loop (extension)",
              "profiled actual cardinalities fed back into planning reduce "
              "estimate-vs-actual drift on the next run");
  Artifact artifact("profile_feedback",
                    "E17 / estimate feedback loop (extension)",
                    "drift (geomean multiplicative estimate error) before and "
                    "after feeding measured cardinalities back");

  catalog::Catalog cat = workload::MedicalScenario::BuildCatalog();
  authz::AuthorizationSet auths =
      workload::MedicalScenario::BuildAuthorizations(cat);
  exec::Cluster cluster(cat);
  Rng rng(2008);
  workload::MedicalScenario::DataConfig data;
  data.citizens = 500;
  UnwrapStatus(workload::MedicalScenario::PopulateCluster(cluster, data, rng),
               "populate");
  const plan::QuerySpec spec = Unwrap(
      sql::ParseAndBind(cat, workload::MedicalScenario::kPaperQuery),
      "parse paper query");

  plan::StatsFeedback feedback;
  const exec::DistributedExecutor executor(cluster, auths);

  // One plan→execute→profile round. No StatsCatalog anywhere: the model
  // works from default statistics, so round one is exactly the
  // wrong-estimates regime the feedback loop is built to correct.
  const auto run_round = [&](const plan::StatsFeedback* fb) {
    planner::FeasiblePlanSearch search(cat, auths, nullptr, fb);
    planner::PlanSearchOptions options;
    options.threads = BenchThreads();
    auto result = Unwrap(search.Search(spec, options), "plan search");
    RoundResult round;
    round.estimated_bytes = result.estimated_bytes;
    exec::ExecutionOptions exec_options;
    exec_options.profile = &round.profile;
    benchmark::DoNotOptimize(executor.Execute(
        result.plan, result.safe_plan.assignment, exec_options));
    exec::AnnotateEstimates(cat, nullptr, fb, result.plan, round.profile);
    round.drift = MeanDrift(round.profile);
    round.plan = std::move(result.plan);
    return round;
  };

  const RoundResult first = run_round(nullptr);
  const std::size_t harvested =
      plan::HarvestActualCardinalities(first.plan, first.profile, feedback);
  const RoundResult second = run_round(&feedback);

  const bool plan_changed =
      first.plan.ToString(cat) != second.plan.ToString(cat);
  const bool drift_reduced = second.drift <= first.drift;

  std::printf("%-8s %-12s %-16s %-14s\n", "round", "drift", "est_bytes",
              "feedback_size");
  std::printf("%-8d %-12.3f %-16.0f %-14d\n", 1, first.drift,
              first.estimated_bytes, 0);
  std::printf("%-8d %-12.3f %-16.0f %-14zu\n", 2, second.drift,
              second.estimated_bytes, feedback.size());
  std::printf("\nharvested %zu signature(s); plan %s; drift %s "
              "(%.3f -> %.3f)\n",
              harvested, plan_changed ? "CHANGED" : "unchanged",
              drift_reduced ? "REDUCED" : "NOT reduced", first.drift,
              second.drift);
  if (!drift_reduced && !plan_changed) {
    std::printf("WARNING: feedback neither reduced drift nor changed the "
                "plan\n");
  }

  artifact.Row()
      .Value("round", 1)
      .Value("drift_geomean", first.drift)
      .Value("estimated_bytes", first.estimated_bytes)
      .Value("feedback_entries", std::size_t{0});
  artifact.Row()
      .Value("round", 2)
      .Value("drift_geomean", second.drift)
      .Value("estimated_bytes", second.estimated_bytes)
      .Value("feedback_entries", feedback.size())
      .Value("harvested", harvested)
      .Value("plan_changed", plan_changed)
      .Value("drift_reduced", drift_reduced)
      .Json("sample_profile", second.profile.ToJson());
  artifact.Write();
  std::printf("\n");
}

void BM_ProfiledExecution(benchmark::State& state) {
  catalog::Catalog cat = workload::MedicalScenario::BuildCatalog();
  authz::AuthorizationSet auths =
      workload::MedicalScenario::BuildAuthorizations(cat);
  exec::Cluster cluster(cat);
  Rng rng(2008);
  workload::MedicalScenario::DataConfig data;
  data.citizens = 500;
  UnwrapStatus(workload::MedicalScenario::PopulateCluster(cluster, data, rng),
               "populate");
  plan::QueryPlan plan = PaperPlan(cat);
  planner::SafePlanner planner(cat, auths);
  const auto report = Unwrap(planner.Analyze(plan), "analyze");
  const exec::DistributedExecutor executor(cluster, auths);
  for (auto _ : state) {
    obs::QueryProfile profile;
    exec::ExecutionOptions options;
    options.profile = &profile;
    benchmark::DoNotOptimize(
        executor.Execute(plan, report.plan->assignment, options));
  }
}
BENCHMARK(BM_ProfiledExecution);

void BM_HarvestCardinalities(benchmark::State& state) {
  catalog::Catalog cat = workload::MedicalScenario::BuildCatalog();
  authz::AuthorizationSet auths =
      workload::MedicalScenario::BuildAuthorizations(cat);
  exec::Cluster cluster(cat);
  Rng rng(2008);
  workload::MedicalScenario::DataConfig data;
  data.citizens = 500;
  UnwrapStatus(workload::MedicalScenario::PopulateCluster(cluster, data, rng),
               "populate");
  plan::QueryPlan plan = PaperPlan(cat);
  planner::SafePlanner planner(cat, auths);
  const auto report = Unwrap(planner.Analyze(plan), "analyze");
  const exec::DistributedExecutor executor(cluster, auths);
  obs::QueryProfile profile;
  exec::ExecutionOptions options;
  options.profile = &profile;
  benchmark::DoNotOptimize(
      executor.Execute(plan, report.plan->assignment, options));
  for (auto _ : state) {
    plan::StatsFeedback feedback;
    benchmark::DoNotOptimize(
        plan::HarvestActualCardinalities(plan, profile, feedback));
  }
}
BENCHMARK(BM_HarvestCardinalities);

}  // namespace
}  // namespace cisqp::bench

int main(int argc, char** argv) {
  cisqp::bench::PrintFeedbackTable();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
