// Tests for the distributed execution engine: Fig. 5 flows produce correct
// results, communication is accounted, runtime enforcement guards transfers.
#include <gtest/gtest.h>

#include <thread>

#include "exec/executor.hpp"
#include "obs/metrics.hpp"
#include "planner/safe_planner.hpp"
#include "sql/binder.hpp"
#include "test_util.hpp"

namespace cisqp::exec {
namespace {

using cisqp::testing::MedicalFixture;
using cisqp::testing::Relation;
using cisqp::testing::Server;
using planner::ExecutionMode;
using planner::FromChild;

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(fix_.cat);
    Rng rng(2026);
    ASSERT_OK(workload::MedicalScenario::PopulateCluster(
        *cluster_, workload::MedicalScenario::DataConfig{500, 0.4, 0.6, 30}, rng));
    plan_ = fix_.PaperPlan();
    planner::SafePlanner planner(fix_.cat, fix_.auths);
    auto sp = planner.Plan(plan_);
    ASSERT_OK(sp.status());
    assignment_ = sp->assignment;
  }

  MedicalFixture fix_;
  std::unique_ptr<Cluster> cluster_;
  plan::QueryPlan plan_;
  planner::Assignment assignment_;
};

TEST_F(ExecTest, ClusterValidatesLoads) {
  Cluster cluster(fix_.cat);
  const catalog::RelationId insurance = Relation(fix_.cat, "Insurance");
  EXPECT_EQ(cluster.InsertRow(99, {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(cluster.InsertRow(insurance,
                              {storage::Value("bad"), storage::Value("p")})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster.InsertRow(insurance, {storage::Value(std::int64_t{1})})
                .code(),
            StatusCode::kInvalidArgument);
  // Rejected rows leave nothing behind: the relation still reads as an
  // empty table with the right header.
  EXPECT_TRUE(cluster.TableOf(insurance).empty());
  EXPECT_EQ(cluster.TableOf(insurance).columns(),
            storage::Table::ForRelation(fix_.cat, insurance).columns());
}

TEST_F(ExecTest, HandedOutTablesNeverChange) {
  Cluster cluster(fix_.cat);
  const catalog::RelationId insurance = Relation(fix_.cat, "Insurance");
  ASSERT_OK(cluster.InsertRow(
      insurance, {storage::Value(std::int64_t{1}), storage::Value("gold")}));
  // TableOf wraps the stored table instead of copying it; holding the handle
  // makes the next insert copy the table first, so its rows, first read
  // after that insert, are the ones it was handed.
  const storage::Table table_before = cluster.TableOf(insurance);
  ASSERT_OK(cluster.InsertRow(
      insurance, {storage::Value(std::int64_t{2}), storage::Value("silver")}));
  const std::shared_ptr<const storage::ColumnarTable> before =
      cluster.ColumnarOf(insurance);
  ASSERT_OK(cluster.InsertRow(
      insurance, {storage::Value(std::int64_t{3}), storage::Value("bronze")}));
  ASSERT_EQ(table_before.row_count(), 1u);
  EXPECT_EQ(table_before.row(0)[0], storage::Value(std::int64_t{1}));
  EXPECT_EQ(table_before.row(0)[1], storage::Value("gold"));
  EXPECT_EQ(before->row_count(), 2u);
  EXPECT_EQ(before->column(0).Int64At(1), 2);
  EXPECT_EQ(cluster.ColumnarOf(insurance)->row_count(), 3u);
  EXPECT_EQ(cluster.TableOf(insurance).row(2)[1], storage::Value("bronze"));
}

TEST_F(ExecTest, ResultTablesOutliveTheirCluster) {
  // A result table is a view that owns its source. The paper query's answer
  // views a join output; a whole-relation scan's answer and a TableOf handle
  // view the stored table itself. All three read back after the cluster
  // that produced them is destroyed (the ASan job checks this).
  const catalog::RelationId insurance = Relation(fix_.cat, "Insurance");
  auto spec = sql::ParseAndBind(fix_.cat, "SELECT Holder, Plan FROM Insurance");
  ASSERT_OK(spec.status());
  ASSERT_OK_AND_ASSIGN(plan::QueryPlan scan_plan,
                       plan::PlanBuilder(fix_.cat).Build(*spec));
  planner::SafePlanner planner(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(planner::SafePlan scan_sp, planner.Plan(scan_plan));
  DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK_AND_ASSIGN(ExecutionResult joined,
                       executor.Execute(plan_, assignment_));
  ASSERT_OK_AND_ASSIGN(ExecutionResult scanned,
                       executor.Execute(scan_plan, scan_sp.assignment));
  const storage::Table stored = cluster_->TableOf(insurance);
  // Canonicalized tables own their rows, so they are the references.
  ASSERT_OK_AND_ASSIGN(const storage::Table central,
                       ExecuteCentralized(*cluster_, plan_));
  const storage::Table want_joined = central.Canonicalized();
  const storage::Table want_stored =
      cluster_->TableOf(insurance).Canonicalized();
  cluster_.reset();

  EXPECT_GT(joined.table.row_count(), 0u);
  EXPECT_TRUE(storage::Table::SameRowMultiset(joined.table, want_joined));
  EXPECT_GT(scanned.table.row_count(), 0u);
  EXPECT_TRUE(storage::Table::SameRowMultiset(scanned.table, want_stored));
  EXPECT_EQ(scanned.table.WireSizeBytes(), want_stored.WireSizeBytes());
  EXPECT_TRUE(storage::Table::SameRowMultiset(stored, want_stored));
}

TEST(ClusterTest, ConcurrentColumnarReadsOfAnUnloadedRelation) {
  // Two executions scanning a never-loaded relation at once: both read its
  // empty table, which must already exist (run under ThreadSanitizer).
  catalog::Catalog cat;
  const catalog::ServerId server = cat.AddServer("S").value();
  const catalog::RelationId rel =
      cat.AddRelation("R", server, {{"K", catalog::ValueType::kInt64}}, {"K"})
          .value();
  const Cluster cluster(cat);
  std::shared_ptr<const storage::ColumnarTable> seen[2];
  std::thread other([&] { seen[1] = cluster.ColumnarOf(rel); });
  seen[0] = cluster.ColumnarOf(rel);
  other.join();
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0]->row_count(), 0u);
}

TEST_F(ExecTest, DistributedEqualsCentralizedOnPaperQuery) {
  DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK_AND_ASSIGN(ExecutionResult result,
                       executor.Execute(plan_, assignment_));
  ASSERT_OK_AND_ASSIGN(storage::Table reference,
                       ExecuteCentralized(*cluster_, plan_));
  EXPECT_TRUE(storage::Table::SameRowMultiset(result.table, reference));
  EXPECT_GT(result.table.row_count(), 0u);  // data generator guarantees overlap
  EXPECT_EQ(result.result_server, Server(fix_.cat, "S_H"));
}

TEST_F(ExecTest, NetworkAccountingMatchesFig5Flows) {
  DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK_AND_ASSIGN(ExecutionResult result,
                       executor.Execute(plan_, assignment_));
  // n2 regular join ships Insurance once; n1 semi-join ships twice.
  EXPECT_EQ(result.network.total_messages(), 3u);
  EXPECT_GT(result.network.total_bytes(), 0u);
  const auto& transfers = result.network.transfers();
  EXPECT_EQ(transfers[0].node_id, 2);
  EXPECT_EQ(transfers[0].from, Server(fix_.cat, "S_I"));
  EXPECT_EQ(transfers[0].to, Server(fix_.cat, "S_N"));
  EXPECT_EQ(transfers[1].node_id, 1);
  EXPECT_EQ(transfers[2].node_id, 1);
  // Per-link aggregation contains the S_I → S_N link with message, row, and
  // byte counts.
  const auto it = result.network.links().find(
      {Server(fix_.cat, "S_I"), Server(fix_.cat, "S_N")});
  ASSERT_NE(it, result.network.links().end());
  EXPECT_EQ(it->second.messages, 1u);
  EXPECT_EQ(it->second.rows, transfers[0].rows);
  EXPECT_EQ(it->second.bytes, transfers[0].bytes);
  const std::string summary = result.network.Summary(fix_.cat);
  EXPECT_NE(summary.find("S_I -> S_N"), std::string::npos);
  EXPECT_NE(summary.find("message(s)"), std::string::npos);
}

TEST_F(ExecTest, SemiJoinShipsFewerBytesThanRegular) {
  // Execute n1 both ways and compare shipped bytes (the §4 efficiency and
  // security claim: the slave sends only participating tuples).
  DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK_AND_ASSIGN(ExecutionResult semi, executor.Execute(plan_, assignment_));

  planner::Assignment regular = assignment_;
  // Replace n1's semi-join with a regular join at S_H: S_N ships the whole
  // n2 result. That release is NOT authorized under Fig. 3 (S_H has no rule
  // with path exactly {(Holder, Citizen)}) — which is precisely why the
  // planner picked the semi-join. Disable enforcement to measure the bytes
  // the regular join *would* move.
  regular.Set(1, planner::Executor{Server(fix_.cat, "S_H"), std::nullopt,
                                   ExecutionMode::kRegularJoin, FromChild::kRight});
  EXPECT_EQ(executor.Execute(plan_, regular).status().code(),
            StatusCode::kUnauthorized);
  ExecutionOptions lax;
  lax.enforce_releases = false;
  ASSERT_OK_AND_ASSIGN(ExecutionResult full, executor.Execute(plan_, regular, lax));
  EXPECT_TRUE(storage::Table::SameRowMultiset(semi.table, full.table));
  // The semi-join execution of n1 moves fewer bytes across that node.
  std::size_t semi_n1 = 0;
  std::size_t full_n1 = 0;
  for (const TransferRecord& t : semi.network.transfers()) {
    if (t.node_id == 1) semi_n1 += t.bytes;
  }
  for (const TransferRecord& t : full.network.transfers()) {
    if (t.node_id == 1) full_n1 += t.bytes;
  }
  EXPECT_LT(semi_n1, full_n1);
}

TEST_F(ExecTest, RuntimeEnforcementNeverFiresOnSafeAssignments) {
  DistributedExecutor executor(*cluster_, fix_.auths);
  ExecutionOptions options;
  options.enforce_releases = true;
  EXPECT_OK(executor.Execute(plan_, assignment_, options).status());
}

TEST_F(ExecTest, RuntimeEnforcementStopsUnsafeTransfer) {
  // Regular join at S_I for n2 would ship Nat_registry to S_I — not covered
  // by any Fig. 3 authorization.
  planner::Assignment unsafe = assignment_;
  unsafe.Set(2, planner::Executor{Server(fix_.cat, "S_I"), std::nullopt,
                                  ExecutionMode::kRegularJoin, FromChild::kLeft});
  unsafe.Set(1, planner::Executor{Server(fix_.cat, "S_H"), Server(fix_.cat, "S_I"),
                                  ExecutionMode::kSemiJoin, FromChild::kRight});
  DistributedExecutor executor(*cluster_, fix_.auths);
  const auto result = executor.Execute(plan_, unsafe);
  EXPECT_EQ(result.status().code(), StatusCode::kUnauthorized);

  // With enforcement off, the (unsafe) plan still computes correctly —
  // demonstrating exactly what the authorization layer prevents.
  ExecutionOptions lax;
  lax.enforce_releases = false;
  ASSERT_OK_AND_ASSIGN(ExecutionResult lax_result, executor.Execute(plan_, unsafe, lax));
  ASSERT_OK_AND_ASSIGN(storage::Table reference, ExecuteCentralized(*cluster_, plan_));
  EXPECT_TRUE(storage::Table::SameRowMultiset(lax_result.table, reference));
}

TEST_F(ExecTest, MidPlanDenialStopsAllLaterTransfers) {
  // A denial in the middle of an execution must (a) fail the query with a
  // typed kUnauthorized, (b) count one enforcement denial, and (c) leave no
  // transfer after the denied one in the network log. Delivery to S_N is
  // the denied release (rule 14 lacks Physician), so the three plan
  // transfers complete and the fourth — the delivery — never happens.
  obs::MetricsRegistry::Get().Reset();
  obs::MetricsRegistry::Get().Enable();
  NetworkStats observed;
  ExecutionOptions options;
  options.requestor = Server(fix_.cat, "S_N");
  options.network_out = &observed;
  DistributedExecutor executor(*cluster_, fix_.auths);
  const auto result = executor.Execute(plan_, assignment_, options);
  obs::MetricsRegistry::Get().Disable();

  EXPECT_EQ(result.status().code(), StatusCode::kUnauthorized);
  EXPECT_EQ(obs::MetricsRegistry::Get().Counter("exec.enforcement_denials"),
            1u);
  // Exactly the three in-plan transfers; the denied delivery was never
  // recorded, and nothing shipped after it.
  ASSERT_EQ(observed.total_messages(), 3u);
  for (const TransferRecord& t : observed.transfers()) {
    EXPECT_FALSE(t.node_id == 0 && t.to == Server(fix_.cat, "S_N"))
        << "denied delivery appears in the transfer log";
  }
  EXPECT_EQ(observed.transfers().back().node_id, 1);  // semi-join step 4
}

TEST_F(ExecTest, RequestorDeliveryShipsAndChecks) {
  DistributedExecutor executor(*cluster_, fix_.auths);
  // Under Fig. 3 no server except the computing master S_H may view the
  // result profile (S_N's rule 14 lacks Physician): delivery to S_N is an
  // unauthorized release.
  ExecutionOptions to_sn;
  to_sn.requestor = Server(fix_.cat, "S_N");
  EXPECT_EQ(executor.Execute(plan_, assignment_, to_sn).status().code(),
            StatusCode::kUnauthorized);

  // Delivery to the computing master itself moves nothing.
  ExecutionOptions to_sh;
  to_sh.requestor = Server(fix_.cat, "S_H");
  ASSERT_OK_AND_ASSIGN(ExecutionResult at_master,
                       executor.Execute(plan_, assignment_, to_sh));
  EXPECT_EQ(at_master.result_server, Server(fix_.cat, "S_H"));
  EXPECT_EQ(at_master.network.total_messages(), 3u);

  // Granting S_D the exact result view makes the delivery legal: one extra
  // transfer, result resident at the requestor.
  authz::AuthorizationSet extended = fix_.auths;
  ASSERT_OK(extended.Add(
      fix_.cat, "S_D", {"Patient", "Physician", "Plan", "HealthAid"},
      {{"Holder", "Citizen"}, {"Citizen", "Patient"}}));
  DistributedExecutor executor2(*cluster_, extended);
  ExecutionOptions to_sd;
  to_sd.requestor = Server(fix_.cat, "S_D");
  ASSERT_OK_AND_ASSIGN(ExecutionResult result,
                       executor2.Execute(plan_, assignment_, to_sd));
  EXPECT_EQ(result.result_server, Server(fix_.cat, "S_D"));
  EXPECT_EQ(result.network.total_messages(), 4u);
}

TEST_F(ExecTest, SemiJoinMasterFromLeftAlsoWorks) {
  // Mirror scenario: craft a plan where the master comes from the left
  // child, exercising the [S_l, S_r] flow end to end.
  catalog::Catalog cat;
  const auto s0 = cat.AddServer("s0").value();
  const auto s1 = cat.AddServer("s1").value();
  CISQP_CHECK(cat.AddRelation("L", s0, {{"LK", catalog::ValueType::kInt64},
                                        {"LV", catalog::ValueType::kInt64}}, {"LK"}).ok());
  CISQP_CHECK(cat.AddRelation("R", s1, {{"RK", catalog::ValueType::kInt64},
                                        {"RV", catalog::ValueType::kInt64}}, {"RK"}).ok());
  ASSERT_OK(cat.AddJoinEdge("LK", "RK"));
  authz::AuthorizationSet auths;
  ASSERT_OK(auths.Add(cat, "s0", {"LK", "LV", "RK", "RV"}, {{"LK", "RK"}}));
  ASSERT_OK(auths.Add(cat, "s1", {"LK"}, {}));

  Cluster cluster(cat);
  for (std::int64_t i = 0; i < 20; ++i) {
    ASSERT_OK(cluster.InsertRow(cat.FindRelation("L").value(), {storage::Value(i), storage::Value(i * 10)}));
    if (i % 2 == 0) {
      ASSERT_OK(cluster.InsertRow(cat.FindRelation("R").value(), {storage::Value(i), storage::Value(i * 100)}));
    }
  }

  auto spec = sql::ParseAndBind(cat, "SELECT LV, RV FROM L JOIN R ON LK = RK");
  ASSERT_OK(spec.status());
  ASSERT_OK_AND_ASSIGN(plan::QueryPlan plan, plan::PlanBuilder(cat).Build(*spec));
  planner::SafePlanner planner(cat, auths);
  ASSERT_OK_AND_ASSIGN(planner::SafePlan sp, planner.Plan(plan));
  int join_id = -1;
  plan.ForEachPreOrder([&](const plan::PlanNode& n) {
    if (n.op == plan::PlanOp::kJoin) join_id = n.id;
  });
  ASSERT_EQ(sp.assignment.Of(join_id).mode, ExecutionMode::kSemiJoin);
  ASSERT_EQ(sp.assignment.Of(join_id).origin, FromChild::kLeft);

  DistributedExecutor executor(cluster, auths);
  ASSERT_OK_AND_ASSIGN(ExecutionResult result, executor.Execute(plan, sp.assignment));
  ASSERT_OK_AND_ASSIGN(storage::Table reference, ExecuteCentralized(cluster, plan));
  EXPECT_TRUE(storage::Table::SameRowMultiset(result.table, reference));
  EXPECT_EQ(result.table.row_count(), 10u);
}

TEST_F(ExecTest, PerServerLoadIsAccounted) {
  DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK_AND_ASSIGN(ExecutionResult result,
                       executor.Execute(plan_, assignment_));
  // Fig. 7 execution: S_N computes the n2 regular join plus the semi-join
  // step 3; S_H computes the Hospital projection, the semi-join steps 1 and
  // 5, and the final projection; S_I only serves its base relation.
  const auto load_of = [&](const char* name) {
    const auto it = result.load.find(Server(fix_.cat, name));
    return it == result.load.end() ? ServerLoad{} : it->second;
  };
  EXPECT_GE(load_of("S_N").operations, 2u);
  EXPECT_GE(load_of("S_H").operations, 4u);
  EXPECT_EQ(load_of("S_I").operations, 0u);
  EXPECT_EQ(load_of("S_D").operations, 0u);
  EXPECT_GT(load_of("S_H").rows_produced, 0u);
}

TEST_F(ExecTest, SelectDistinctEliminatesDuplicates) {
  // Plans (the Insurance Plan column) repeat heavily; DISTINCT collapses
  // them to the handful of plan names in both execution paths.
  auto spec = sql::ParseAndBind(fix_.cat, "SELECT DISTINCT Plan FROM Insurance");
  ASSERT_OK(spec.status());
  EXPECT_TRUE(spec->distinct);
  ASSERT_OK_AND_ASSIGN(plan::QueryPlan plan,
                       plan::PlanBuilder(fix_.cat).Build(*spec));
  planner::SafePlanner planner(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(planner::SafePlan sp, planner.Plan(plan));
  DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK_AND_ASSIGN(ExecutionResult distinct_result,
                       executor.Execute(plan, sp.assignment));
  EXPECT_LE(distinct_result.table.row_count(), 4u);  // 4 plan names exist
  EXPECT_GT(distinct_result.table.row_count(), 0u);

  auto plain = sql::ParseAndBind(fix_.cat, "SELECT Plan FROM Insurance");
  ASSERT_OK(plain.status());
  ASSERT_OK_AND_ASSIGN(plan::QueryPlan plain_plan,
                       plan::PlanBuilder(fix_.cat).Build(*plain));
  ASSERT_OK_AND_ASSIGN(planner::SafePlan plain_sp, planner.Plan(plain_plan));
  ASSERT_OK_AND_ASSIGN(ExecutionResult plain_result,
                       executor.Execute(plain_plan, plain_sp.assignment));
  EXPECT_GT(plain_result.table.row_count(), distinct_result.table.row_count());

  // The centralized reference agrees.
  ASSERT_OK_AND_ASSIGN(storage::Table reference,
                       ExecuteCentralized(*cluster_, plan));
  EXPECT_TRUE(storage::Table::SameRowMultiset(distinct_result.table, reference));
}

TEST_F(ExecTest, EmptyRelationsFlowThroughAllModes) {
  // Zero-row inputs must travel through both join flows without incident:
  // empty transfers, empty results, no enforcement anomalies.
  Cluster empty_cluster(fix_.cat);
  DistributedExecutor executor(empty_cluster, fix_.auths);
  ASSERT_OK_AND_ASSIGN(ExecutionResult result,
                       executor.Execute(plan_, assignment_));
  EXPECT_EQ(result.table.row_count(), 0u);
  EXPECT_EQ(result.table.column_count(), 4u);
  // The flows still run: 3 transfers, all zero-byte payloads aside from
  // empty tables.
  EXPECT_EQ(result.network.total_messages(), 3u);
  EXPECT_EQ(result.network.total_rows(), 0u);
  ASSERT_OK_AND_ASSIGN(storage::Table reference,
                       ExecuteCentralized(empty_cluster, plan_));
  EXPECT_TRUE(storage::Table::SameRowMultiset(result.table, reference));
}

TEST_F(ExecTest, DisjointDataYieldsEmptyJoin) {
  // All relations populated but with non-overlapping keys.
  Cluster cluster(fix_.cat);
  ASSERT_OK(cluster.InsertRow(Relation(fix_.cat, "Insurance"),
                              {storage::Value(std::int64_t{1}), storage::Value("p")}));
  ASSERT_OK(cluster.InsertRow(Relation(fix_.cat, "Nat_registry"),
                              {storage::Value(std::int64_t{2}), storage::Value("a")}));
  ASSERT_OK(cluster.InsertRow(
      Relation(fix_.cat, "Hospital"),
      {storage::Value(std::int64_t{3}), storage::Value("d"), storage::Value("dr")}));
  DistributedExecutor executor(cluster, fix_.auths);
  ASSERT_OK_AND_ASSIGN(ExecutionResult result, executor.Execute(plan_, assignment_));
  EXPECT_EQ(result.table.row_count(), 0u);
}

TEST_F(ExecTest, ExecutorRejectsMalformedInput) {
  DistributedExecutor executor(*cluster_, fix_.auths);
  EXPECT_EQ(executor.Execute(plan::QueryPlan{}, assignment_).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(executor.Execute(plan_, planner::Assignment(2)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecTest, SemiJoinSlaveEqualToMasterIsRejectedNotFatal) {
  // A malformed assignment with slave == master used to reach Ship's
  // colocated-transfer CHECK and abort the process; it must instead come
  // back as a typed kInvalidArgument through Execute.
  planner::Assignment bad = assignment_;
  const planner::Executor n1 = assignment_.Of(1);
  ASSERT_EQ(n1.mode, ExecutionMode::kSemiJoin);
  bad.Set(1, planner::Executor{n1.master, n1.master, n1.mode, n1.origin});
  DistributedExecutor executor(*cluster_, fix_.auths);
  const auto result = executor.Execute(plan_, bad);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("slave must differ"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(ExecTest, OutOfRangeRequestorIsRejectedNotFatal) {
  // A requestor naming no server used to abort the process: the delivery
  // check formats the receiving server's name. With enforcement off the
  // delivery would have been recorded to a server that does not exist.
  // Both come back as a typed kInvalidArgument before anything runs.
  DistributedExecutor executor(*cluster_, fix_.auths);
  for (const bool enforce : {true, false}) {
    ExecutionOptions options;
    options.enforce_releases = enforce;
    options.requestor = catalog::ServerId{99};
    const auto result = executor.Execute(plan_, assignment_, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "enforce=" << enforce << ": " << result.status().ToString();
    EXPECT_NE(result.status().message().find("requestor server id 99"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(ExecTest, NetworkOutIsNotDuplicatedOnSuccess) {
  // On success the transfer log lives solely in ExecutionResult::network;
  // the failure-path sink must come back empty, not as a second copy.
  NetworkStats observed;
  observed.Record(TransferRecord{7, 0, 1, 1, 1, "stale from a prior run"});
  ExecutionOptions options;
  options.network_out = &observed;
  DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK_AND_ASSIGN(ExecutionResult result,
                       executor.Execute(plan_, assignment_, options));
  EXPECT_EQ(result.network.total_messages(), 3u);
  EXPECT_EQ(observed.total_messages(), 0u);
}

}  // namespace
}  // namespace cisqp::exec
