// E9 (extension) — feasibility-aware join ordering: how often is the
// FROM-order / cost-optimal tree infeasible while *some* join order of the
// same query admits a safe assignment (authorizations are shape-sensitive),
// and what does the search cost?
//
// This quantifies the integration the paper sketches in §5 ("our algorithm
// nicely fits in such a two phase structure"): when phase 2 fails, phase 1
// must be revisited.
#include "bench_util.hpp"

#include <chrono>

#include "planner/plan_search.hpp"
#include "workload/generator.hpp"

namespace cisqp::bench {
namespace {

void PrintRescueTable() {
  PrintHeader("E9 / §5 two-step integration (extension)",
              "queries whose FROM-order plan is infeasible but a reordered "
              "plan is safe (rescue), by authorization density");
  Artifact artifact("plan_search", "E9 / §5 two-step integration (extension)",
                    "join-order rescue rate by authorization density");
  std::printf("%-10s %-9s %-14s %-14s %-10s %-12s\n", "density", "queries",
              "from_feasible", "from_blocked", "rescued", "rescue_rate");
  for (const double density : {0.2, 0.35, 0.5, 0.7}) {
    int queries = 0;
    int from_feasible = 0;
    int from_blocked = 0;
    int rescued = 0;
    Rng rng(static_cast<std::uint64_t>(6200 + density * 100));
    for (int fed_idx = 0; fed_idx < 10; ++fed_idx) {
      workload::FederationConfig fed_config;
      fed_config.servers = 4;
      fed_config.relations = 6;
      const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
      workload::AuthzConfig authz_config;
      authz_config.base_grant_prob = density;
      authz_config.path_grants_per_server = static_cast<std::size_t>(density * 8.0);
      const authz::AuthorizationSet auths =
          workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
      planner::SafePlanner direct(fed.catalog, auths);
      planner::FeasiblePlanSearch search(fed.catalog, auths);
      planner::PlanSearchOptions search_options;
      search_options.threads = BenchThreads();
      for (int q = 0; q < 8; ++q) {
        workload::QueryConfig query_config;
        query_config.relations = 3 + static_cast<std::size_t>(q % 2);
        auto spec = workload::GenerateQuery(fed.catalog, query_config, rng);
        if (!spec.ok()) continue;
        auto built = plan::PlanBuilder(fed.catalog).Build(*spec);
        if (!built.ok()) continue;
        ++queries;
        const auto report = Unwrap(direct.Analyze(*built), "analyze");
        if (report.feasible) {
          ++from_feasible;
          continue;
        }
        ++from_blocked;
        if (search.Search(*spec, search_options).ok()) ++rescued;
      }
    }
    std::printf("%-10.2f %-9d %-14d %-14d %-10d %-12.3f\n", density, queries,
                from_feasible, from_blocked, rescued,
                from_blocked ? static_cast<double>(rescued) / from_blocked : 0.0);
    artifact.Row()
        .Value("density", density)
        .Value("queries", queries)
        .Value("from_feasible", from_feasible)
        .Value("from_blocked", from_blocked)
        .Value("rescued", rescued)
        .Value("threads", ResolveThreads(BenchThreads()));
  }
  artifact.Write();
  std::printf("\n(rescued = FROM-order infeasible but another join order of the\n"
              "same query has a safe assignment found by FeasiblePlanSearch)\n\n");
}

void PrintThreadsSweep() {
  PrintHeader("E9b / parallel plan search (extension)",
              "wall-clock of FeasiblePlanSearch::Search by thread count on a "
              "fixed many-order workload; the chosen plan is identical at "
              "every setting");
  Artifact artifact("plan_search_threads",
                    "E9b / parallel plan search (extension)",
                    "Search wall-clock by thread count, identical results");
  Rng rng(6464);
  workload::FederationConfig fed_config;
  fed_config.servers = 4;
  fed_config.relations = 6;
  fed_config.extra_edge_prob = 0.5;
  const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
  workload::AuthzConfig authz_config;
  authz_config.base_grant_prob = 0.8;  // dense enough that orders are feasible
  authz_config.path_grants_per_server = 6;
  const authz::AuthorizationSet auths =
      workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
  workload::QueryConfig query_config;
  query_config.relations = 6;
  const auto spec =
      Unwrap(workload::GenerateQuery(fed.catalog, query_config, rng), "query");
  planner::FeasiblePlanSearch search(fed.catalog, auths);

  std::printf("%-9s %-12s %-13s %-16s %-10s\n", "threads", "wall_ms",
              "orders_tried", "orders_feasible", "speedup");
  double baseline_ms = 0.0;
  std::string baseline_plan;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    planner::PlanSearchOptions options;
    options.threads = threads;
    double best_ms = 0.0;
    planner::PlanSearchResult result;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto run = search.Search(spec, options);
      const auto elapsed = std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start);
      if (!run.ok()) {
        UnwrapStatus(run.status(), "threads sweep search");
        return;
      }
      if (rep == 0 || elapsed.count() < best_ms) best_ms = elapsed.count();
      result = std::move(*run);
    }
    const std::string rendered = result.plan.ToString(fed.catalog);
    if (threads == 1) {
      baseline_ms = best_ms;
      baseline_plan = rendered;
    } else if (rendered != baseline_plan) {
      std::fprintf(stderr, "FATAL: plan differs at threads=%zu\n", threads);
      std::abort();
    }
    std::printf("%-9zu %-12.3f %-13zu %-16zu %-10.2f\n", threads, best_ms,
                result.orders_tried, result.orders_feasible,
                baseline_ms / best_ms);
    artifact.Row()
        .Value("threads", threads)
        .Value("wall_ms", best_ms)
        .Value("orders_tried", result.orders_tried)
        .Value("orders_feasible", result.orders_feasible)
        .Value("estimated_bytes", result.estimated_bytes)
        .Value("speedup_vs_1", baseline_ms / best_ms);
  }
  artifact.Write();
  std::printf("\n(single-core machines report speedup ≈ 1; results are "
              "byte-identical regardless)\n\n");
}

void BM_PlanSearch(benchmark::State& state) {
  Rng rng(6464);
  workload::FederationConfig fed_config;
  fed_config.servers = 4;
  fed_config.relations = 7;
  const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
  workload::AuthzConfig authz_config;
  authz_config.base_grant_prob = 0.5;
  authz_config.path_grants_per_server = 4;
  const authz::AuthorizationSet auths =
      workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
  workload::QueryConfig query_config;
  query_config.relations = static_cast<std::size_t>(state.range(0));
  const auto spec =
      Unwrap(workload::GenerateQuery(fed.catalog, query_config, rng), "query");
  planner::FeasiblePlanSearch search(fed.catalog, auths);
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.Search(spec));
  }
}
BENCHMARK(BM_PlanSearch)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_EnumerateOrders(benchmark::State& state) {
  Rng rng(6465);
  workload::FederationConfig fed_config;
  fed_config.servers = 4;
  fed_config.relations = 8;
  fed_config.extra_edge_prob = 0.5;
  const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
  workload::QueryConfig query_config;
  query_config.relations = static_cast<std::size_t>(state.range(0));
  const auto spec =
      Unwrap(workload::GenerateQuery(fed.catalog, query_config, rng), "query");
  authz::AuthorizationSet empty;
  planner::FeasiblePlanSearch search(fed.catalog, empty);
  std::size_t orders = 0;
  for (auto _ : state) {
    auto enumerated = search.EnumerateOrders(spec, 5000);
    if (enumerated.ok()) orders = enumerated->size();
    benchmark::DoNotOptimize(enumerated);
  }
  state.counters["orders"] = static_cast<double>(orders);
}
BENCHMARK(BM_EnumerateOrders)->Arg(3)->Arg(5)->Arg(7);

}  // namespace
}  // namespace cisqp::bench

int main(int argc, char** argv) {
  cisqp::bench::PrintRescueTable();
  cisqp::bench::PrintThreadsSweep();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
