// End-to-end integration: SQL text → bound spec → query tree (the FROM
// order, the order FeasiblePlanSearch chooses, or a bushy tree) → safe
// executor assignment → distributed execution with runtime enforcement →
// result equality with centralized evaluation. Swept over random federations
// (TEST_P) and exercised on the paper's scenario.
#include <gtest/gtest.h>

#include "exec/executor.hpp"
#include "planner/exhaustive.hpp"
#include "planner/plan_search.hpp"
#include "planner/safe_planner.hpp"
#include "planner/verifier.hpp"
#include "sql/binder.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace cisqp {
namespace {

using cisqp::testing::MedicalFixture;
using cisqp::testing::Server;

TEST(IntegrationTest, PaperScenarioEndToEnd) {
  MedicalFixture fix;
  exec::Cluster cluster(fix.cat);
  Rng rng(99);
  ASSERT_OK(workload::MedicalScenario::PopulateCluster(
      cluster, workload::MedicalScenario::DataConfig{800, 0.35, 0.55, 40}, rng));

  // Step 1 of two-step optimization: a cost-aware plan.
  const plan::StatsCatalog stats = workload::MedicalScenario::ComputeStats(cluster);
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      sql::ParseAndBind(fix.cat, workload::MedicalScenario::kPaperQuery));
  ASSERT_OK_AND_ASSIGN(plan::QueryPlan plan,
                       plan::PlanBuilder(fix.cat, &stats).Build(spec));

  // Step 2: the paper's safe assignment.
  planner::SafePlanner planner(fix.cat, fix.auths);
  ASSERT_OK_AND_ASSIGN(planner::SafePlan sp, planner.Plan(plan));
  ASSERT_OK(planner::VerifyAssignment(fix.cat, fix.auths, plan, sp.assignment));

  // Execute distributed, verify against centralized.
  exec::DistributedExecutor executor(cluster, fix.auths);
  ASSERT_OK_AND_ASSIGN(exec::ExecutionResult result,
                       executor.Execute(plan, sp.assignment));
  ASSERT_OK_AND_ASSIGN(storage::Table reference,
                       exec::ExecuteCentralized(cluster, plan));
  EXPECT_TRUE(storage::Table::SameRowMultiset(result.table, reference));
  EXPECT_GT(result.table.row_count(), 0u);
}

TEST(IntegrationTest, SelectionQueriesCarrySigmaThroughPlanning) {
  MedicalFixture fix;
  // Selecting on Disease pushes Disease into Rσ; the semi-join shipping the
  // Hospital side must then expose Disease in its profile. Plan and verify.
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      sql::ParseAndBind(fix.cat,
                        "SELECT Patient, Plan FROM Insurance JOIN Hospital "
                        "ON Holder = Patient WHERE Disease = 'disease_3'"));
  ASSERT_OK_AND_ASSIGN(plan::QueryPlan plan, plan::PlanBuilder(fix.cat).Build(spec));
  planner::SafePlanner planner(fix.cat, fix.auths);
  ASSERT_OK_AND_ASSIGN(planner::PlanningReport report, planner.Analyze(plan));
  if (report.feasible) {
    EXPECT_OK(planner::VerifyAssignment(fix.cat, fix.auths, plan,
                                        report.plan->assignment));
  }
}

/// The join atoms of `spec` linking a relation of `left` to one of `right`,
/// oriented left → right.
std::vector<algebra::EquiJoinAtom> AtomsBetween(const catalog::Catalog& cat,
                                                const plan::QuerySpec& spec,
                                                const IdSet& left,
                                                const IdSet& right) {
  std::vector<algebra::EquiJoinAtom> out;
  for (const plan::JoinStep& step : spec.joins) {
    for (const algebra::EquiJoinAtom& atom : step.atoms) {
      const catalog::RelationId a = cat.attribute(atom.left).relation;
      const catalog::RelationId b = cat.attribute(atom.right).relation;
      if (left.Contains(a) && right.Contains(b)) {
        out.push_back(atom);
      } else if (left.Contains(b) && right.Contains(a)) {
        out.push_back(algebra::EquiJoinAtom{atom.right, atom.left});
      }
    }
  }
  return out;
}

/// The bushy join tree (a ⋈ b) ⋈ (c ⋈ d) of a 4-relation `spec`, for the
/// first split of its relations into two joined pairs that an atom links;
/// null when the join graph has no such split (a star, for one).
std::unique_ptr<plan::PlanNode> BushyJoinTree(const catalog::Catalog& cat,
                                              const plan::QuerySpec& spec) {
  const std::vector<catalog::RelationId> r = spec.Relations();
  if (r.size() != 4) return nullptr;
  for (std::size_t partner = 1; partner < 4; ++partner) {
    std::vector<catalog::RelationId> rest;
    for (std::size_t i = 1; i < 4; ++i) {
      if (i != partner) rest.push_back(r[i]);
    }
    auto left_atoms = AtomsBetween(cat, spec, {r[0]}, {r[partner]});
    auto right_atoms = AtomsBetween(cat, spec, {rest[0]}, {rest[1]});
    auto root_atoms =
        AtomsBetween(cat, spec, {r[0], r[partner]}, {rest[0], rest[1]});
    if (left_atoms.empty() || right_atoms.empty() || root_atoms.empty()) {
      continue;
    }
    return plan::PlanNode::Join(
        plan::PlanNode::Join(plan::PlanNode::Relation(r[0]),
                             plan::PlanNode::Relation(r[partner]),
                             std::move(left_atoms)),
        plan::PlanNode::Join(plan::PlanNode::Relation(rest[0]),
                             plan::PlanNode::Relation(rest[1]),
                             std::move(right_atoms)),
        std::move(root_atoms));
  }
  return nullptr;
}

TEST(IntegrationTest, BushyPlansPlanAndExecuteSafely) {
  // Bushy shapes end to end: random federations, each 4-relation query's
  // bushy tree finished by PlanBuilder::Finish, the paper's planner checked
  // against exhaustive enumeration, then distributed execution against the
  // centralized reference.
  Rng rng(5050);
  int bushy = 0;
  int executed = 0;
  for (int round = 0; round < 40; ++round) {
    workload::FederationConfig fed_config;
    fed_config.relations = 6;
    fed_config.extra_edge_prob = 0.4;
    const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
    workload::AuthzConfig authz_config;
    authz_config.base_grant_prob = 0.9;
    authz_config.path_grants_per_server = 12;
    const authz::AuthorizationSet auths =
        workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
    exec::Cluster cluster(fed.catalog);
    workload::DataConfig data;
    data.min_rows = 20;
    data.max_rows = 80;
    ASSERT_OK(workload::PopulateCluster(cluster, fed, data, rng));
    const plan::StatsCatalog stats = workload::ComputeStats(cluster);

    workload::QueryConfig query_config;
    query_config.relations = 4;
    auto spec = workload::GenerateQuery(fed.catalog, query_config, rng);
    if (!spec.ok()) continue;
    std::unique_ptr<plan::PlanNode> tree = BushyJoinTree(fed.catalog, *spec);
    if (tree == nullptr) continue;
    ASSERT_OK_AND_ASSIGN(
        plan::QueryPlan plan,
        plan::PlanBuilder(fed.catalog, &stats).Finish(std::move(tree), *spec));
    ++bushy;

    planner::SafePlanner planner(fed.catalog, auths);
    ASSERT_OK_AND_ASSIGN(planner::PlanningReport report, planner.Analyze(plan));
    ASSERT_OK_AND_ASSIGN(
        planner::ExhaustiveResult exhaustive,
        planner::EnumerateSafeAssignments(fed.catalog, auths, plan));
    EXPECT_EQ(report.feasible, exhaustive.feasible())
        << spec->ToString(fed.catalog) << "\n"
        << plan.ToString(fed.catalog);
    if (!report.feasible) continue;
    EXPECT_OK(planner::VerifyAssignment(fed.catalog, auths, plan,
                                        report.plan->assignment));
    exec::DistributedExecutor executor(cluster, auths);
    ASSERT_OK_AND_ASSIGN(exec::ExecutionResult result,
                         executor.Execute(plan, report.plan->assignment));
    ASSERT_OK_AND_ASSIGN(storage::Table reference,
                         exec::ExecuteCentralized(cluster, plan));
    EXPECT_TRUE(storage::Table::SameRowMultiset(result.table, reference));
    ++executed;
  }
  // 13 of the 32 bushy plans these seeds build are feasible; the floor keeps
  // the test from passing by skipping every query.
  EXPECT_GE(executed, 10) << bushy << " bushy plans built";
}

struct EndToEndCase {
  std::uint64_t seed;
  std::size_t query_relations;
  double density;
};

class EndToEndSweep : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEndSweep, SafePlansExecuteCorrectlyEverywhere) {
  const EndToEndCase& param = GetParam();
  Rng rng(param.seed);

  workload::FederationConfig fed_config;
  fed_config.servers = 4;
  fed_config.relations = 6;
  const workload::Federation fed = workload::GenerateFederation(fed_config, rng);

  workload::AuthzConfig authz_config;
  authz_config.base_grant_prob = param.density;
  authz_config.path_grants_per_server = 4;
  const authz::AuthorizationSet auths =
      workload::GenerateAuthorizations(fed.catalog, authz_config, rng);

  exec::Cluster cluster(fed.catalog);
  workload::DataConfig data_config;
  data_config.min_rows = 30;
  data_config.max_rows = 120;
  ASSERT_OK(workload::PopulateCluster(cluster, fed, data_config, rng));
  const plan::StatsCatalog stats = workload::ComputeStats(cluster);

  int feasible_count = 0;
  for (int q = 0; q < 10; ++q) {
    workload::QueryConfig query_config;
    query_config.relations = param.query_relations;
    auto spec = workload::GenerateQuery(fed.catalog, query_config, rng);
    ASSERT_OK(spec.status());
    // Even queries run the FROM order through the paper's planner; odd ones
    // run the join order and assignment FeasiblePlanSearch chooses, which
    // reorders the joins when that is cheaper or the only feasible way.
    plan::QueryPlan plan;
    planner::Assignment assignment;
    if (q % 2 == 0) {
      auto built = plan::PlanBuilder(fed.catalog, &stats).Build(*spec);
      ASSERT_OK(built.status());
      planner::SafePlanner planner(fed.catalog, auths);
      ASSERT_OK_AND_ASSIGN(planner::PlanningReport report,
                           planner.Analyze(*built));
      if (!report.feasible) continue;
      plan = std::move(*built);
      assignment = report.plan->assignment;
    } else {
      auto found =
          planner::FeasiblePlanSearch(fed.catalog, auths, &stats).Search(*spec);
      if (!found.ok()) {
        ASSERT_EQ(found.status().code(), StatusCode::kInfeasible)
            << found.status().ToString();
        continue;
      }
      plan = std::move(found->plan);
      assignment = found->safe_plan.assignment;
    }
    ++feasible_count;

    // Safe plan → runtime enforcement must never fire, and the distributed
    // result must equal the centralized one.
    exec::DistributedExecutor executor(cluster, auths);
    ASSERT_OK_AND_ASSIGN(exec::ExecutionResult result,
                         executor.Execute(plan, assignment));
    ASSERT_OK_AND_ASSIGN(storage::Table reference,
                         exec::ExecuteCentralized(cluster, plan));
    EXPECT_TRUE(storage::Table::SameRowMultiset(result.table, reference))
        << spec->ToString(fed.catalog);
  }
  // With dense grants most queries should be feasible; the assertion guards
  // against the sweep silently testing nothing.
  if (param.density >= 0.9) {
    EXPECT_GT(feasible_count, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomFederations, EndToEndSweep,
    ::testing::Values(EndToEndCase{51, 2, 0.2}, EndToEndCase{52, 2, 0.9},
                      EndToEndCase{53, 3, 0.3}, EndToEndCase{54, 3, 0.9},
                      EndToEndCase{55, 4, 0.5}, EndToEndCase{56, 4, 0.9},
                      EndToEndCase{57, 5, 0.7}, EndToEndCase{58, 5, 0.95},
                      EndToEndCase{59, 3, 0.05}, EndToEndCase{60, 2, 1.0}),
    [](const ::testing::TestParamInfo<EndToEndCase>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace cisqp
