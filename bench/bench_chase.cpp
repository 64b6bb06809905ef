// E8 — chase closure (§3.2): derived-rule counts and fixpoint work as the
// explicit policy and the schema grow; plus E10, the planning impact of the
// closure — how many queries become feasible only once implied rules are
// materialized.
#include "bench_util.hpp"

#include "authz/chase.hpp"
#include "workload/generator.hpp"

namespace cisqp::bench {
namespace {

void PrintChaseTable() {
  PrintHeader("E8 / §3.2 chase closure",
              "closure growth: input rules -> derived rules, fixpoint rounds "
              "and combination work, as grants per server increase");
  Artifact artifact("chase", "E8 / §3.2 chase closure",
                    "closure growth vs grants per server");
  std::printf("%-14s %-12s %-12s %-12s %-14s\n", "grants/server", "input",
              "closed", "rounds", "pairs_tried");
  for (const std::size_t grants : {0u, 1u, 2u, 4u, 8u}) {
    Rng rng(8800 + grants);
    workload::FederationConfig fed_config;
    fed_config.servers = 4;
    fed_config.relations = 6;
    const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
    workload::AuthzConfig authz_config;
    authz_config.base_grant_prob = 0.2 * static_cast<double>(grants);
    authz_config.path_grants_per_server = grants;
    authz_config.max_path_atoms = 2;
    const authz::AuthorizationSet auths =
        workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
    authz::ChaseOptions options;
    options.max_path_atoms = 4;
    options.max_derived_rules = 200000;
    authz::ChaseStats stats;
    const auto closed =
        Unwrap(authz::ChaseClosure(fed.catalog, auths, options, &stats), "chase");
    std::printf("%-14zu %-12zu %-12zu %-12zu %-14zu\n", grants, auths.size(),
                closed.size(), stats.iterations, stats.pairs_considered);
    artifact.Row()
        .Value("grants_per_server", grants)
        .Value("input_rules", auths.size())
        .Value("closed_rules", closed.size())
        .Value("rounds", stats.iterations)
        .Value("pairs_tried", stats.pairs_considered);
  }
  artifact.Write();

  // The paper's own scenario.
  const catalog::Catalog cat = workload::MedicalScenario::BuildCatalog();
  const authz::AuthorizationSet med =
      workload::MedicalScenario::BuildAuthorizations(cat);
  authz::ChaseStats stats;
  const auto closed = Unwrap(authz::ChaseClosure(cat, med, {}, &stats), "chase");
  std::printf("\nmedical scenario (Fig. 3): %zu explicit -> %zu closed rules, "
              "%zu rounds\n\n",
              med.size(), closed.size(), stats.iterations);
}

void PrintChaseFeasibilityTable() {
  PrintHeader("E10 / §3.2 chase × planning",
              "queries feasible under the raw policy vs under its chase "
              "closure: the implied rules a planner must not ignore");
  std::printf("%-10s %-9s %-14s %-16s %-10s\n", "density", "queries",
              "raw_feasible", "closed_feasible", "unlocked");
  for (const double density : {0.2, 0.4, 0.6}) {
    int queries = 0;
    int raw_feasible = 0;
    int closed_feasible = 0;
    Rng rng(static_cast<std::uint64_t>(5100 + density * 100));
    for (int fed_idx = 0; fed_idx < 8; ++fed_idx) {
      workload::FederationConfig fed_config;
      fed_config.servers = 4;
      fed_config.relations = 5;
      const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
      workload::AuthzConfig authz_config;
      authz_config.base_grant_prob = density;
      authz_config.path_grants_per_server = 2;
      const authz::AuthorizationSet auths =
          workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
      authz::ChaseOptions chase_options;
      chase_options.max_path_atoms = 4;
      const auto closed = authz::ChaseClosure(fed.catalog, auths, chase_options);
      if (!closed.ok()) continue;
      planner::SafePlanner raw(fed.catalog, auths);
      planner::SafePlanner chased(fed.catalog, *closed);
      for (int q = 0; q < 8; ++q) {
        workload::QueryConfig query_config;
        query_config.relations = 3;
        auto spec = workload::GenerateQuery(fed.catalog, query_config, rng);
        if (!spec.ok()) continue;
        auto built = plan::PlanBuilder(fed.catalog).Build(*spec);
        if (!built.ok()) continue;
        ++queries;
        if (Unwrap(raw.Analyze(*built), "raw").feasible) ++raw_feasible;
        if (Unwrap(chased.Analyze(*built), "chased").feasible) ++closed_feasible;
      }
    }
    std::printf("%-10.2f %-9d %-14d %-16d %d\n", density, queries, raw_feasible,
                closed_feasible, closed_feasible - raw_feasible);
  }
  std::printf("\n");
}

void BM_ChaseMedical(benchmark::State& state) {
  const catalog::Catalog cat = workload::MedicalScenario::BuildCatalog();
  const authz::AuthorizationSet auths =
      workload::MedicalScenario::BuildAuthorizations(cat);
  for (auto _ : state) {
    benchmark::DoNotOptimize(authz::ChaseClosure(cat, auths));
  }
}
BENCHMARK(BM_ChaseMedical);

void BM_ChaseSynthetic(benchmark::State& state) {
  Rng rng(99);
  workload::FederationConfig fed_config;
  fed_config.servers = 4;
  fed_config.relations = static_cast<std::size_t>(state.range(0));
  const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
  workload::AuthzConfig authz_config;
  authz_config.base_grant_prob = 0.5;
  authz_config.path_grants_per_server = 3;
  authz_config.max_path_atoms = 2;
  const authz::AuthorizationSet auths =
      workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
  authz::ChaseOptions options;
  options.max_path_atoms = 3;
  options.max_derived_rules = 500000;
  std::size_t closed_size = 0;
  for (auto _ : state) {
    auto closed = authz::ChaseClosure(fed.catalog, auths, options);
    if (closed.ok()) closed_size = closed->size();
    benchmark::DoNotOptimize(closed);
  }
  state.counters["input_rules"] = static_cast<double>(auths.size());
  state.counters["closed_rules"] = static_cast<double>(closed_size);
}
BENCHMARK(BM_ChaseSynthetic)->Arg(4)->Arg(6)->Arg(8);

}  // namespace
}  // namespace cisqp::bench

int main(int argc, char** argv) {
  cisqp::bench::PrintChaseTable();
  cisqp::bench::PrintChaseFeasibilityTable();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
