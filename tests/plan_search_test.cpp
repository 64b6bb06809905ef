// Tests for feasibility-aware join ordering (FeasiblePlanSearch).
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "authz/chase.hpp"
#include "authz/open_policy.hpp"
#include "obs/metrics.hpp"
#include "planner/plan_search.hpp"
#include "planner/verifier.hpp"
#include "sql/binder.hpp"
#include "test_util.hpp"
#include "testcheck/oracle.hpp"
#include "workload/generator.hpp"

namespace cisqp::planner {
namespace {

using cisqp::testing::MedicalFixture;

class PlanSearchTest : public ::testing::Test {
 protected:
  MedicalFixture fix_;
};

TEST_F(PlanSearchTest, EnumeratesAllConnectedOrders) {
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      sql::ParseAndBind(fix_.cat, workload::MedicalScenario::kPaperQuery));
  FeasiblePlanSearch search(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(std::vector<plan::QuerySpec> orders,
                       search.EnumerateOrders(spec, 100));
  // Insurance-Nat_registry-Hospital with edges I-N, N-H, I-H (Holder=Patient
  // via Citizen chain? only the atoms actually used: Holder=Citizen and
  // Citizen=Patient): the join graph is a path I—N—H, giving 4 connected
  // orders: INH, NIH, NHI, HNI.
  EXPECT_EQ(orders.size(), 4u);
  for (const plan::QuerySpec& order : orders) {
    EXPECT_OK(order.Validate(fix_.cat));
    EXPECT_EQ(order.select_list, spec.select_list);
  }
}

TEST_F(PlanSearchTest, CapLimitsEnumeration) {
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      sql::ParseAndBind(fix_.cat, workload::MedicalScenario::kPaperQuery));
  FeasiblePlanSearch search(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(std::vector<plan::QuerySpec> orders,
                       search.EnumerateOrders(spec, 2));
  EXPECT_EQ(orders.size(), 2u);
}

TEST_F(PlanSearchTest, FindsTheFeasibleOrderOfThePaperQuery) {
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      sql::ParseAndBind(fix_.cat, workload::MedicalScenario::kPaperQuery));
  FeasiblePlanSearch search(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(PlanSearchResult result, search.Search(spec));
  EXPECT_EQ(result.orders_tried, 4u);
  EXPECT_GE(result.orders_feasible, 1u);
  EXPECT_OK(VerifyAssignment(fix_.cat, fix_.auths, result.plan,
                             result.safe_plan.assignment));
}

TEST_F(PlanSearchTest, SearchedPlanKeepsDistinct) {
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      sql::ParseAndBind(fix_.cat,
                        "SELECT DISTINCT Plan FROM Insurance JOIN Nat_registry "
                        "ON Holder = Citizen"));
  FeasiblePlanSearch search(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(std::vector<plan::QuerySpec> orders,
                       search.EnumerateOrders(spec, 100));
  for (const plan::QuerySpec& order : orders) EXPECT_TRUE(order.distinct);
  ASSERT_OK_AND_ASSIGN(PlanSearchResult result, search.Search(spec));
  ASSERT_EQ(result.plan.root()->op, plan::PlanOp::kProject);
  EXPECT_TRUE(result.plan.root()->distinct);
}

TEST_F(PlanSearchTest, RescuesAnInfeasibleFromOrder) {
  // Build a 3-relation chain A—B—C where only the order starting at C leads
  // to a feasible plan: sC may view everything stepwise, while joining A⋈B
  // first is impossible for every server.
  catalog::Catalog cat;
  const auto sa = cat.AddServer("sa").value();
  const auto sb = cat.AddServer("sb").value();
  const auto sc = cat.AddServer("sc").value();
  CISQP_CHECK(cat.AddRelation("A", sa, {{"AK", catalog::ValueType::kInt64}}, {"AK"}).ok());
  CISQP_CHECK(cat.AddRelation("B", sb, {{"BK", catalog::ValueType::kInt64},
                                        {"BL", catalog::ValueType::kInt64}}, {"BK"}).ok());
  CISQP_CHECK(cat.AddRelation("C", sc, {{"CK", catalog::ValueType::kInt64}}, {"CK"}).ok());
  ASSERT_OK(cat.AddJoinEdge("AK", "BK"));
  ASSERT_OK(cat.AddJoinEdge("BL", "CK"));

  authz::AuthorizationSet auths;
  // sc can absorb B (via C⋈B) and then A (via the full path); nobody else
  // sees anything beyond their own relation.
  ASSERT_OK(auths.Add(cat, "sc", {"BK", "BL"}, {}));
  ASSERT_OK(auths.Add(cat, "sc", {"AK"}, {}));
  ASSERT_OK(auths.Add(cat, "sc", {"AK", "BK", "BL", "CK"},
                      {{"AK", "BK"}, {"BL", "CK"}}));

  auto spec = sql::ParseAndBind(
      cat, "SELECT AK, CK FROM A JOIN B ON AK = BK JOIN C ON BL = CK");
  ASSERT_OK(spec.status());

  // FROM order (A ⋈ B first) is infeasible: neither sa nor sb may see the
  // other side, and sc is not an operand server of that join.
  auto from_order_plan = plan::PlanBuilder(cat).Build(*spec);
  ASSERT_OK(from_order_plan.status());
  SafePlanner direct(cat, auths);
  ASSERT_OK_AND_ASSIGN(PlanningReport report, direct.Analyze(*from_order_plan));
  EXPECT_FALSE(report.feasible);

  // The search rescues it with a C-first order. The orders are ABC, BAC,
  // BCA and CBA; the blocked A ⋈ B prefix (in either orientation) prunes
  // ABC and BAC, so only BCA and CBA are ever built.
  FeasiblePlanSearch search(cat, auths);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Get();
  metrics.Enable();
  const std::uint64_t builds_before = metrics.Counter("plan.builds");
  ASSERT_OK_AND_ASSIGN(PlanSearchResult result, search.Search(*spec));
  const std::uint64_t builds = metrics.Counter("plan.builds") - builds_before;
  metrics.Disable();
  EXPECT_EQ(result.orders_tried, 4u);
  EXPECT_EQ(result.orders_pruned, 2u);
  EXPECT_EQ(builds, 2u);
  EXPECT_GE(result.orders_feasible, 1u);
  EXPECT_OK(VerifyAssignment(cat, auths, result.plan,
                             result.safe_plan.assignment));
  // The chosen order cannot start with the blocked A ⋈ B join, i.e. the
  // leftmost leaf is B or C (both feasible: sc can absorb either side).
  const plan::PlanNode* leftmost = result.plan.root();
  while (leftmost->left) leftmost = leftmost->left.get();
  EXPECT_NE(leftmost->relation, cat.FindRelation("A").value());
  (void)sb;
}

TEST_F(PlanSearchTest, InfeasibleWhenNoOrderWorks) {
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      sql::ParseAndBind(fix_.cat, workload::MedicalScenario::kPaperQuery));
  authz::AuthorizationSet empty;
  FeasiblePlanSearch search(fix_.cat, empty);
  EXPECT_EQ(search.Search(spec).status().code(), StatusCode::kInfeasible);
}

TEST_F(PlanSearchTest, PicksTheCheapestFeasibleOrder) {
  // Under a full-visibility open policy every order is feasible; the search
  // must return the one with minimal estimated bytes among all four.
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      sql::ParseAndBind(fix_.cat, workload::MedicalScenario::kPaperQuery));
  authz::OpenPolicySet open;  // empty = allow everything
  plan::StatsCatalog stats;
  plan::RelationStats tiny{10.0, {}};
  plan::RelationStats huge{100000.0, {}};
  stats.Set(cisqp::testing::Relation(fix_.cat, "Hospital"), tiny);
  stats.Set(cisqp::testing::Relation(fix_.cat, "Insurance"), huge);
  stats.Set(cisqp::testing::Relation(fix_.cat, "Nat_registry"), huge);

  FeasiblePlanSearch search(fix_.cat, open, &stats);
  ASSERT_OK_AND_ASSIGN(PlanSearchResult best, search.Search(spec));
  EXPECT_EQ(best.orders_feasible, 4u);

  // Compare against every order's own heuristic cost: none may be cheaper.
  ASSERT_OK_AND_ASSIGN(std::vector<plan::QuerySpec> orders,
                       search.EnumerateOrders(spec, 100));
  SafePlanner planner(fix_.cat, open);
  MinCostSafePlanner scorer(fix_.cat, open, &stats);
  for (const plan::QuerySpec& order : orders) {
    auto built = plan::PlanBuilder(fix_.cat, &stats).Build(order);
    ASSERT_OK(built.status());
    ASSERT_OK_AND_ASSIGN(SafePlan sp, planner.Plan(*built));
    ASSERT_OK_AND_ASSIGN(double bytes,
                         scorer.EstimateAssignmentBytes(*built, sp.assignment));
    EXPECT_GE(bytes * (1.0 + 1e-9), best.estimated_bytes);
  }
}

TEST_F(PlanSearchTest, ParallelSearchMatchesSequentialExactly) {
  // Same query, same stats skew as PicksTheCheapestFeasibleOrder: every
  // order feasible, costs differ, plus equal-cost ties from the two huge
  // relations — the tie-break must resolve identically at every thread
  // count.
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      sql::ParseAndBind(fix_.cat, workload::MedicalScenario::kPaperQuery));
  authz::OpenPolicySet open;
  plan::StatsCatalog stats;
  stats.Set(cisqp::testing::Relation(fix_.cat, "Hospital"),
            plan::RelationStats{10.0, {}});
  stats.Set(cisqp::testing::Relation(fix_.cat, "Insurance"),
            plan::RelationStats{100000.0, {}});
  stats.Set(cisqp::testing::Relation(fix_.cat, "Nat_registry"),
            plan::RelationStats{100000.0, {}});
  FeasiblePlanSearch search(fix_.cat, open, &stats);

  PlanSearchOptions sequential;
  sequential.threads = 1;
  ASSERT_OK_AND_ASSIGN(PlanSearchResult seq, search.Search(spec, sequential));
  for (const std::size_t threads : {2u, 4u, 8u}) {
    PlanSearchOptions parallel;
    parallel.threads = threads;
    ASSERT_OK_AND_ASSIGN(PlanSearchResult par, search.Search(spec, parallel));
    EXPECT_EQ(par.plan.ToString(fix_.cat), seq.plan.ToString(fix_.cat))
        << "threads=" << threads;
    EXPECT_EQ(par.safe_plan.assignment, seq.safe_plan.assignment);
    EXPECT_EQ(par.estimated_bytes, seq.estimated_bytes);
    EXPECT_EQ(par.orders_tried, seq.orders_tried);
    EXPECT_EQ(par.orders_feasible, seq.orders_feasible);
  }
}

TEST_F(PlanSearchTest, ParallelSearchMatchesSequentialUnderRealPolicy) {
  // The paper policy leaves some orders infeasible; parallel and sequential
  // searches must agree on plan, cost, and both counters.
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      sql::ParseAndBind(fix_.cat, workload::MedicalScenario::kPaperQuery));
  FeasiblePlanSearch search(fix_.cat, fix_.auths);
  PlanSearchOptions sequential;
  sequential.threads = 1;
  ASSERT_OK_AND_ASSIGN(PlanSearchResult seq, search.Search(spec, sequential));
  PlanSearchOptions parallel;
  parallel.threads = 4;
  ASSERT_OK_AND_ASSIGN(PlanSearchResult par, search.Search(spec, parallel));
  EXPECT_EQ(par.plan.ToString(fix_.cat), seq.plan.ToString(fix_.cat));
  EXPECT_EQ(par.safe_plan.assignment, seq.safe_plan.assignment);
  EXPECT_EQ(par.estimated_bytes, seq.estimated_bytes);
  EXPECT_EQ(par.orders_tried, seq.orders_tried);
  EXPECT_EQ(par.orders_feasible, seq.orders_feasible);
  EXPECT_EQ(par.orders_pruned, seq.orders_pruned);
}

TEST(PlanSearchPruning, PrunedSearchMatchesPerOrderReference) {
  // The prefix walk must return exactly what building and analyzing every
  // enumerated order returns, over generated 6-server federations under
  // every planner variant and at caps that cut the enumeration inside
  // pruned subtrees (2, 7) or not at all (64). orders_pruned must count
  // exactly the examined orders whose Find_candidates blocks.
  Rng rng(4242);
  std::size_t compared = 0;
  std::size_t feasible = 0;
  std::map<std::size_t, std::size_t> capped_with_pruning;
  for (int round = 0; round < 5; ++round) {
    workload::FederationConfig fed_config;
    fed_config.servers = 6;
    fed_config.relations = 8;
    const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
    const catalog::Catalog& cat = fed.catalog;
    workload::AuthzConfig authz_config;
    authz_config.base_grant_prob = 0.3;
    authz_config.max_path_atoms = 2;
    const authz::AuthorizationSet base =
        workload::GenerateAuthorizations(cat, authz_config, rng);
    authz::ChaseOptions chase_options;
    chase_options.max_path_atoms = 3;
    const Result<authz::AuthorizationSet> chased =
        authz::ChaseClosure(cat, base, chase_options);
    const authz::AuthorizationSet& auths = chased.ok() ? *chased : base;
    plan::StatsCatalog stats;
    for (catalog::RelationId r = 0; r < cat.relation_count(); ++r) {
      stats.Set(r, plan::RelationStats{
                       static_cast<double>(10 + rng.UniformIndex(1000)), {}});
    }
    const FeasiblePlanSearch search(cat, auths, &stats);

    for (int q = 0; q < 12; ++q) {
      workload::QueryConfig query_config;
      query_config.relations = 3 + rng.UniformIndex(3);
      const Result<plan::QuerySpec> spec =
          workload::GenerateQuery(cat, query_config, rng);
      if (!spec.ok()) continue;
      ASSERT_OK_AND_ASSIGN(const std::vector<plan::QuerySpec> all,
                           search.EnumerateOrders(*spec, 1000));
      for (const bool third_party : {false, true}) {
        for (const std::optional<catalog::ServerId> requestor :
             {std::optional<catalog::ServerId>(),
              std::optional<catalog::ServerId>(0),
              std::optional<catalog::ServerId>(1)}) {
          for (const std::size_t cap : {2u, 7u, 64u}) {
            PlanSearchOptions options;
            options.max_orders = cap;
            options.threads = 1;
            options.planner_options.allow_third_party = third_party;
            options.planner_options.requestor = requestor;
            const Result<PlanSearchResult> got = search.Search(*spec, options);
            const Result<PlanSearchResult> want =
                testcheck::PerOrderPlanSearch(cat, auths, *spec, &stats, options);
            ++compared;
            ASSERT_EQ(got.ok(), want.ok())
                << spec->ToString(cat) << "\n" << got.status() << " vs "
                << want.status();
            if (!got.ok()) {
              EXPECT_EQ(got.status().code(), want.status().code());
              EXPECT_EQ(got.status().message(), want.status().message());
              continue;
            }
            ++feasible;
            EXPECT_EQ(got->plan.ToString(cat), want->plan.ToString(cat));
            EXPECT_EQ(got->safe_plan.assignment, want->safe_plan.assignment);
            EXPECT_EQ(got->safe_plan.trace.ToString(cat),
                      want->safe_plan.trace.ToString(cat));
            EXPECT_EQ(got->estimated_bytes, want->estimated_bytes);
            EXPECT_EQ(got->orders_tried, want->orders_tried);
            EXPECT_EQ(got->orders_feasible, want->orders_feasible);

            // Pruned = examined orders whose Find_candidates blocks, i.e.
            // infeasible even without the requestor check.
            SafePlannerOptions no_requestor = options.planner_options;
            no_requestor.requestor.reset();
            const SafePlanner planner(cat, auths, no_requestor);
            std::size_t blocked = 0;
            for (std::size_t i = 0; i < got->orders_tried; ++i) {
              ASSERT_OK_AND_ASSIGN(const plan::QueryPlan tree,
                                   plan::PlanBuilder(cat, &stats).Build(all[i]));
              ASSERT_OK_AND_ASSIGN(const PlanningReport report, planner.Analyze(tree));
              if (!report.feasible) ++blocked;
            }
            EXPECT_EQ(got->orders_pruned, blocked);
            if (cap < all.size() && got->orders_pruned > 0) ++capped_with_pruning[cap];
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 500u);
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(capped_with_pruning[2], 0u);
  EXPECT_GT(capped_with_pruning[7], 0u);
}

TEST(PlanSearchSweep, RescueRateOnRandomFederations) {
  // Random sweep: wherever FROM order is infeasible but some order is
  // feasible, the search result must verify; and search feasibility must
  // imply at least one enumerated order is feasible.
  Rng rng(777);
  int from_infeasible = 0;
  int rescued = 0;
  for (int round = 0; round < 10; ++round) {
    workload::FederationConfig fed_config;
    fed_config.servers = 4;
    fed_config.relations = 6;
    const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
    workload::AuthzConfig authz_config;
    authz_config.base_grant_prob = 0.35;
    authz_config.path_grants_per_server = 3;
    const authz::AuthorizationSet auths =
        workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
    for (int q = 0; q < 6; ++q) {
      workload::QueryConfig query_config;
      query_config.relations = 3;
      auto spec = workload::GenerateQuery(fed.catalog, query_config, rng);
      if (!spec.ok()) continue;
      auto built = plan::PlanBuilder(fed.catalog).Build(*spec);
      if (!built.ok()) continue;
      SafePlanner direct(fed.catalog, auths);
      auto report = direct.Analyze(*built);
      ASSERT_OK(report.status());
      if (report->feasible) continue;
      ++from_infeasible;
      FeasiblePlanSearch search(fed.catalog, auths);
      const auto result = search.Search(*spec);
      if (result.ok()) {
        ++rescued;
        EXPECT_OK(VerifyAssignment(fed.catalog, auths, result->plan,
                                   result->safe_plan.assignment));
      }
    }
  }
  // The sweep must have exercised the interesting case at least once.
  EXPECT_GT(from_infeasible, 0);
}

}  // namespace
}  // namespace cisqp::planner
