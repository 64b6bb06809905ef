// Tests for the planner's statistics: exact per-relation stats scanned from
// stored tables, and the estimate feedback store (subtree signatures,
// harvesting from a profiled execution, consultation by PlanBuilder).
#include <gtest/gtest.h>

#include <set>

#include "exec/executor.hpp"
#include "plan/stats.hpp"
#include "planner/safe_planner.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace cisqp::plan {
namespace {

using cisqp::testing::MedicalFixture;

/// Row count and per-column distinct counts of `table`, counted exactly:
/// cells are told apart by their total order, never by a hash, and every
/// NULL falls into one class.
RelationStats ExactStats(const storage::Table& table) {
  const auto less = [](const storage::Value& a, const storage::Value& b) {
    return a.CompareTotal(b) < 0;
  };
  RelationStats exact;
  exact.rows = static_cast<double>(table.row_count());
  for (std::size_t c = 0; c < table.column_count(); ++c) {
    std::set<storage::Value, decltype(less)> cells(less);
    for (const storage::Row& row : table.rows()) cells.insert(row[c]);
    exact.distinct[table.columns()[c].attribute] =
        static_cast<double>(cells.size());
  }
  return exact;
}

void ExpectSameStats(const RelationStats& got, const RelationStats& want) {
  EXPECT_DOUBLE_EQ(got.rows, want.rows);
  EXPECT_EQ(got.distinct, want.distinct);
}

/// Every relation's stats in `stats` equal the exact counts of its rows.
void ExpectExactStats(const StatsCatalog& stats, const exec::Cluster& cluster) {
  for (catalog::RelationId r = 0; r < cluster.catalog().relation_count(); ++r) {
    SCOPED_TRACE(cluster.catalog().relation(r).name);
    ASSERT_TRUE(stats.Has(r));
    ExpectSameStats(stats.Of(r), ExactStats(cluster.TableOf(r)));
  }
}

TEST(StatsCatalogTest, FromTableCountsRowsAndDistinctCellsExactly) {
  using storage::Value;
  const std::vector<storage::Column> header = {
      {1, catalog::ValueType::kInt64},
      {2, catalog::ValueType::kDouble},
      {3, catalog::ValueType::kString}};
  storage::ColumnarTable table(header);
  const std::vector<storage::Row> rows = {
      {Value(std::int64_t{7}), Value(0.5), Value("gold")},
      {Value(std::int64_t{7}), Value(), Value("gold")},
      {Value(), Value(0.5), Value()},
      {Value(std::int64_t{-3}), Value(-0.0), Value("")},
      {Value(), Value(0.0), Value("silver")},
      {Value(std::int64_t{0}), Value(), Value()}};
  storage::Table expected(header);
  for (const storage::Row& row : rows) {
    ASSERT_OK(storage::CheckRow(header, row));
    table.AppendRow(row);
    ASSERT_OK(expected.AppendRow(row));
  }
  const RelationStats stats = StatsCatalog::FromTable(table);
  EXPECT_DOUBLE_EQ(stats.rows, 6.0);
  // {7, -3, 0, NULL}; {0.5, 0.0 == -0.0, NULL}; {gold, "", silver, NULL}.
  EXPECT_DOUBLE_EQ(stats.DistinctOf(1), 4.0);
  EXPECT_DOUBLE_EQ(stats.DistinctOf(2), 3.0);
  EXPECT_DOUBLE_EQ(stats.DistinctOf(3), 4.0);
  ExpectSameStats(stats, ExactStats(expected));

  const RelationStats empty =
      StatsCatalog::FromTable(storage::ColumnarTable(header));
  EXPECT_DOUBLE_EQ(empty.rows, 0.0);
  EXPECT_DOUBLE_EQ(empty.DistinctOf(3), 0.0);
}

TEST(StatsCatalogTest, ComputeStatsEqualExactCountsOfTheLoadedData) {
  const MedicalFixture fix;
  exec::Cluster medical(fix.cat);
  Rng rng(11);
  ASSERT_OK(workload::MedicalScenario::PopulateCluster(
      medical, workload::MedicalScenario::DataConfig{400, 0.5, 0.5, 25}, rng));
  ExpectExactStats(workload::MedicalScenario::ComputeStats(medical), medical);

  const workload::Federation fed = workload::GenerateFederation({}, rng);
  exec::Cluster generated(fed.catalog);
  ASSERT_OK(workload::PopulateCluster(generated, fed, {}, rng));
  ExpectExactStats(workload::ComputeStats(generated), generated);
}

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
