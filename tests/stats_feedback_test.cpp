// Tests for the estimate feedback store: subtree signatures, harvesting
// from a profiled execution, and consultation by PlanBuilder.
#include <gtest/gtest.h>

#include "exec/executor.hpp"
#include "plan/stats.hpp"
#include "planner/safe_planner.hpp"
#include "test_util.hpp"

namespace cisqp::plan {
namespace {

using cisqp::testing::MedicalFixture;

class StatsFeedbackTest : public ::testing::Test {
 protected:
  MedicalFixture fix_;
};

TEST_F(StatsFeedbackTest, RecordAndLookup) {
  StatsFeedback feedback;
  EXPECT_TRUE(feedback.empty());
  EXPECT_FALSE(feedback.Lookup("R[r1,]S[]J[]").has_value());
  feedback.Record("R[r1,]S[]J[]", 42.0);
  ASSERT_TRUE(feedback.Lookup("R[r1,]S[]J[]").has_value());
  EXPECT_DOUBLE_EQ(*feedback.Lookup("R[r1,]S[]J[]"), 42.0);
  feedback.Record("R[r1,]S[]J[]", 7.0);  // latest wins
  EXPECT_DOUBLE_EQ(*feedback.Lookup("R[r1,]S[]J[]"), 7.0);
  EXPECT_EQ(feedback.size(), 1u);
}

TEST_F(StatsFeedbackTest, ProjectIsTransparentInSignatures) {
  ASSERT_OK_AND_ASSIGN(
      const QuerySpec spec,
      sql::ParseAndBind(fix_.cat, workload::MedicalScenario::kPaperQuery));
  ASSERT_OK_AND_ASSIGN(const QueryPlan plan,
                       PlanBuilder(fix_.cat).Build(spec));
  plan.ForEachPreOrder([&](const PlanNode& node) {
    if (node.op != PlanOp::kProject) return;
    EXPECT_EQ(SubtreeSignature(node), SubtreeSignature(*node.left));
  });
}

TEST_F(StatsFeedbackTest, HarvestFromProfiledExecution) {
  exec::Cluster cluster(fix_.cat);
  Rng rng(7);
  ASSERT_OK(workload::MedicalScenario::PopulateCluster(
      cluster, workload::MedicalScenario::DataConfig{150, 0.5, 0.5, 20}, rng));
  QueryPlan plan = fix_.PaperPlan();
  planner::SafePlanner planner(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(const planner::SafePlan sp, planner.Plan(plan));

  exec::DistributedExecutor executor(cluster, fix_.auths);
  obs::QueryProfile profile;
  exec::ExecutionOptions options;
  options.profile = &profile;
  ASSERT_OK_AND_ASSIGN(const exec::ExecutionResult result,
                       executor.Execute(plan, sp.assignment, options));

  StatsFeedback feedback;
  const std::size_t harvested =
      HarvestActualCardinalities(plan, profile, feedback);
  EXPECT_GT(harvested, 0u);
  EXPECT_EQ(harvested, feedback.size());

  // The full-relation-set signature carries the query's (pre-projection) row
  // count — which for the paper's plain π equals the result's row count.
  const auto full = feedback.Lookup(SubtreeSignature(*plan.root()));
  ASSERT_TRUE(full.has_value());
  EXPECT_DOUBLE_EQ(*full, static_cast<double>(result.table.row_count()));

  // Every leaf's signature carries its table cardinality (no WHERE here).
  plan.ForEachPreOrder([&](const PlanNode& node) {
    if (node.op != PlanOp::kRelation) return;
    const auto rows = feedback.Lookup(SubtreeSignature(node));
    ASSERT_TRUE(rows.has_value()) << "leaf n" << node.id;
    EXPECT_DOUBLE_EQ(*rows,
                     static_cast<double>(cluster.TableOf(node.relation)
                                             .row_count()));
  });
}

TEST_F(StatsFeedbackTest, PlanBuilderPrefersMeasuredCardinality) {
  ASSERT_OK_AND_ASSIGN(
      const QuerySpec spec,
      sql::ParseAndBind(fix_.cat, workload::MedicalScenario::kPaperQuery));
  ASSERT_OK_AND_ASSIGN(const QueryPlan plan,
                       PlanBuilder(fix_.cat).Build(spec));
  const PlanNode* join = nullptr;
  plan.ForEachPreOrder([&](const PlanNode& node) {
    if (join == nullptr && node.op == PlanOp::kJoin) join = &node;
  });
  ASSERT_NE(join, nullptr);

  StatsFeedback feedback;
  feedback.Record(SubtreeSignature(*join), 123.0);
  const PlanBuilder with(fix_.cat, nullptr, &feedback);
  EXPECT_DOUBLE_EQ(with.EstimateCardinality(*join), 123.0);
  // Without the store the model estimate applies (and differs).
  const PlanBuilder without(fix_.cat);
  EXPECT_NE(without.EstimateCardinality(*join), 123.0);
}

}  // namespace
}  // namespace cisqp::plan
