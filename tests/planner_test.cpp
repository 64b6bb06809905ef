// Tests for the safe planner beyond the Fig. 7 golden case: the Fig. 5 view
// obligations, infeasibility, the semi-join preference, extensions
// (third-party executor, requestor check), and trace bookkeeping.
#include <gtest/gtest.h>

#include "planner/plan_search.hpp"
#include "planner/safe_planner.hpp"
#include "planner/verifier.hpp"
#include "sql/binder.hpp"
#include "test_util.hpp"

namespace cisqp::planner {
namespace {

using cisqp::testing::Attr;
using cisqp::testing::Attrs;
using cisqp::testing::MedicalFixture;
using cisqp::testing::Path;
using cisqp::testing::Relation;
using cisqp::testing::Server;

class ModeViewsTest : public ::testing::Test {
 protected:
  MedicalFixture fix_;
};

TEST_F(ModeViewsTest, Fig5ViewProfiles) {
  // Join Insurance (left) with Nat_registry (right) on Holder = Citizen.
  const authz::Profile l =
      authz::Profile::OfBaseRelation(fix_.cat, Relation(fix_.cat, "Insurance"));
  const authz::Profile r =
      authz::Profile::OfBaseRelation(fix_.cat, Relation(fix_.cat, "Nat_registry"));
  const JoinModeViews v = ComputeJoinModeViews(
      l, r, {algebra::EquiJoinAtom{Attr(fix_.cat, "Holder"),
                                   Attr(fix_.cat, "Citizen")}});

  EXPECT_EQ(v.left_join_attrs, Attrs(fix_.cat, {"Holder"}));
  EXPECT_EQ(v.right_join_attrs, Attrs(fix_.cat, {"Citizen"}));
  // Fig. 5 [Sl, Sr] step 2: slave (right) sees [Jl, Rl⋈, Rlσ].
  EXPECT_EQ(v.right_slave_view,
            (authz::Profile{Attrs(fix_.cat, {"Holder"}), {}, {}}));
  // Fig. 5 [Sl, Sr] step 4: master (left) sees [Jl ∪ Rrπ, ⋈∪j, σ].
  EXPECT_EQ(v.left_master_view,
            (authz::Profile{Attrs(fix_.cat, {"Holder", "Citizen", "HealthAid"}),
                            Path(fix_.cat, {{"Holder", "Citizen"}}), {}}));
  // Regular joins ship the whole other operand.
  EXPECT_EQ(v.left_full_view, r);
  EXPECT_EQ(v.right_full_view, l);
  EXPECT_EQ(v.condition, Path(fix_.cat, {{"Holder", "Citizen"}}));
}

TEST_F(ModeViewsTest, SigmaAndPathsPropagateIntoViews) {
  authz::Profile l =
      authz::Profile::OfBaseRelation(fix_.cat, Relation(fix_.cat, "Insurance"));
  l.sigma = Attrs(fix_.cat, {"Plan"});
  authz::Profile r =
      authz::Profile::OfBaseRelation(fix_.cat, Relation(fix_.cat, "Hospital"));
  r.join = Path(fix_.cat, {{"Patient", "Citizen"}});
  const JoinModeViews v = ComputeJoinModeViews(
      l, r, {algebra::EquiJoinAtom{Attr(fix_.cat, "Holder"),
                                   Attr(fix_.cat, "Patient")}});
  // Slave view of the left column carries the left σ.
  EXPECT_EQ(v.right_slave_view.sigma, Attrs(fix_.cat, {"Plan"}));
  // Master views accumulate both paths plus the new condition.
  EXPECT_EQ(v.left_master_view.join,
            Path(fix_.cat, {{"Patient", "Citizen"}, {"Holder", "Patient"}}));
  EXPECT_EQ(v.right_master_view.sigma, Attrs(fix_.cat, {"Plan"}));
}

TEST_F(ModeViewsTest, ComputeNodeProfilesFillsEveryNode) {
  const plan::QueryPlan plan = fix_.PaperPlan();
  const std::vector<authz::Profile> profiles =
      ComputeNodeProfiles(fix_.cat, plan);
  ASSERT_EQ(profiles.size(), 7u);
  // Leaves are base profiles.
  EXPECT_EQ(profiles[4],
            authz::Profile::OfBaseRelation(fix_.cat, Relation(fix_.cat, "Insurance")));
  // n3 is the Hospital projection.
  EXPECT_EQ(profiles[3].pi, Attrs(fix_.cat, {"Patient", "Physician"}));
  EXPECT_TRUE(profiles[3].join.empty());
}

class SafePlannerTest : public ::testing::Test {
 protected:
  plan::QueryPlan PlanFor(std::string_view query) const {
    auto spec = sql::ParseAndBind(fix_.cat, query);
    CISQP_CHECK_MSG(spec.ok(), spec.status().ToString());
    auto built = plan::PlanBuilder(fix_.cat).Build(*spec);
    CISQP_CHECK_MSG(built.ok(), built.status().ToString());
    return std::move(*built);
  }

  MedicalFixture fix_;
};

TEST_F(SafePlannerTest, EmittedAssignmentPassesIndependentVerifier) {
  const plan::QueryPlan plan = fix_.PaperPlan();
  SafePlanner planner(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(SafePlan sp, planner.Plan(plan));
  EXPECT_OK(VerifyAssignment(fix_.cat, fix_.auths, plan, sp.assignment));
}

TEST_F(SafePlannerTest, InfeasibleWithoutAuthorizations) {
  const plan::QueryPlan plan = fix_.PaperPlan();
  authz::AuthorizationSet empty;
  SafePlanner planner(fix_.cat, empty);
  ASSERT_OK_AND_ASSIGN(PlanningReport report, planner.Analyze(plan));
  EXPECT_FALSE(report.feasible);
  // The first join visited (n2) blocks.
  EXPECT_EQ(report.blocking_node, 2);
  EXPECT_EQ(planner.Plan(plan).status().code(), StatusCode::kInfeasible);
}

TEST_F(SafePlannerTest, SingleRelationQueriesAlwaysFeasible) {
  // Unary-only plans execute at the home server; no release happens.
  const plan::QueryPlan plan = PlanFor("SELECT Plan FROM Insurance");
  authz::AuthorizationSet empty;
  SafePlanner planner(fix_.cat, empty);
  ASSERT_OK_AND_ASSIGN(SafePlan sp, planner.Plan(plan));
  EXPECT_EQ(sp.assignment.Of(0).master, Server(fix_.cat, "S_I"));
  EXPECT_EQ(sp.assignment.Of(0).mode, ExecutionMode::kLocal);
}

TEST_F(SafePlannerTest, DiseaseJoinIsInfeasibleForSd) {
  // §3.2: Disease_list ⋈ Hospital exposes either Hospital data to S_D (path
  // leak) or Disease_list to S_H only via its authorized profile. S_H has no
  // grant on Disease_list at all, and S_D's grant has the wrong path — the
  // join node must block.
  const plan::QueryPlan plan =
      PlanFor("SELECT Illness, Treatment FROM Disease_list JOIN Hospital "
              "ON Illness = Disease");
  SafePlanner planner(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(PlanningReport report, planner.Analyze(plan));
  EXPECT_FALSE(report.feasible);
}

TEST_F(SafePlannerTest, SemiJoinPreferredWhenBothModesPossible) {
  // Craft a federation where the master could do either mode; principle (i)
  // says semi-join wins.
  catalog::Catalog cat;
  const auto s0 = cat.AddServer("s0").value();
  const auto s1 = cat.AddServer("s1").value();
  ASSERT_OK(cat.AddRelation("L", s0, {{"LK", catalog::ValueType::kInt64},
                                      {"LV", catalog::ValueType::kInt64}}, {"LK"}).status());
  ASSERT_OK(cat.AddRelation("R", s1, {{"RK", catalog::ValueType::kInt64},
                                      {"RV", catalog::ValueType::kInt64}}, {"RK"}).status());
  ASSERT_OK(cat.AddJoinEdge("LK", "RK"));
  authz::AuthorizationSet auths;
  // s1 (right master) may see all of L (regular possible) and the reduced
  // view (semi possible); s0 (slave) may see the RK join column.
  ASSERT_OK(auths.Add(cat, "s1", {"LK", "LV"}, {}));
  ASSERT_OK(auths.Add(cat, "s1", {"LK", "LV", "RK", "RV"}, {{"LK", "RK"}}));
  ASSERT_OK(auths.Add(cat, "s0", {"RK"}, {}));

  auto spec = sql::ParseAndBind(cat, "SELECT LV, RV FROM L JOIN R ON LK = RK");
  ASSERT_OK(spec.status());
  ASSERT_OK_AND_ASSIGN(plan::QueryPlan plan, plan::PlanBuilder(cat).Build(*spec));
  SafePlanner planner(cat, auths);
  ASSERT_OK_AND_ASSIGN(SafePlan sp, planner.Plan(plan));
  // Find the join node.
  int join_id = -1;
  plan.ForEachPreOrder([&](const plan::PlanNode& n) {
    if (n.op == plan::PlanOp::kJoin) join_id = n.id;
  });
  ASSERT_GE(join_id, 0);
  EXPECT_EQ(sp.assignment.Of(join_id).mode, ExecutionMode::kSemiJoin);
  EXPECT_EQ(sp.assignment.Of(join_id).master, s1);
  EXPECT_EQ(sp.assignment.Of(join_id).slave, std::optional(s0));
}

TEST_F(SafePlannerTest, ThirdPartyRescuesOtherwiseInfeasibleJoin) {
  catalog::Catalog cat;
  const auto s0 = cat.AddServer("s0").value();
  const auto s1 = cat.AddServer("s1").value();
  ASSERT_OK(cat.AddServer("notary").status());
  ASSERT_OK(cat.AddRelation("L", s0, {{"LK", catalog::ValueType::kInt64}}, {"LK"}).status());
  ASSERT_OK(cat.AddRelation("R", s1, {{"RK", catalog::ValueType::kInt64}}, {"RK"}).status());
  ASSERT_OK(cat.AddJoinEdge("LK", "RK"));
  authz::AuthorizationSet auths;
  // Neither operand server may see the other side; the notary sees both.
  ASSERT_OK(auths.Add(cat, "notary", {"LK"}, {}));
  ASSERT_OK(auths.Add(cat, "notary", {"RK"}, {}));

  auto spec = sql::ParseAndBind(cat, "SELECT LK, RK FROM L JOIN R ON LK = RK");
  ASSERT_OK(spec.status());
  ASSERT_OK_AND_ASSIGN(plan::QueryPlan plan, plan::PlanBuilder(cat).Build(*spec));

  SafePlanner plain(cat, auths);
  ASSERT_OK_AND_ASSIGN(PlanningReport report, plain.Analyze(plan));
  EXPECT_FALSE(report.feasible);

  SafePlannerOptions options;
  options.allow_third_party = true;
  SafePlanner extended(cat, auths, options);
  ASSERT_OK_AND_ASSIGN(SafePlan sp, extended.Plan(plan));
  int join_id = -1;
  plan.ForEachPreOrder([&](const plan::PlanNode& n) {
    if (n.op == plan::PlanOp::kJoin) join_id = n.id;
  });
  EXPECT_EQ(sp.assignment.Of(join_id).master, cat.FindServer("notary").value());
  EXPECT_EQ(sp.assignment.Of(join_id).origin, FromChild::kThird);
  // The third-party assignment also passes the release-based verifier.
  EXPECT_OK(VerifyAssignment(cat, auths, plan, sp.assignment));
}

TEST_F(SafePlannerTest, ThirdPartyTieGoesToTheFirstProxy) {
  // Neither data owner may see the other side, and two proxies may view
  // everything. Both are equally good candidates (join count 1); the
  // stable candidate order keeps the first in server order.
  catalog::Catalog cat;
  const auto a = cat.AddServer("A").value();
  const auto b = cat.AddServer("B").value();
  const auto c = cat.AddServer("C").value();
  ASSERT_OK(cat.AddServer("D").status());
  ASSERT_OK(cat.AddRelation("R", a,
                            {{"RK", catalog::ValueType::kInt64},
                             {"RV", catalog::ValueType::kInt64}},
                            {"RK"})
                .status());
  ASSERT_OK(cat.AddRelation("S", b,
                            {{"SK", catalog::ValueType::kInt64},
                             {"SW", catalog::ValueType::kInt64}},
                            {"SK"})
                .status());
  ASSERT_OK(cat.AddJoinEdge("RK", "SK"));
  authz::AuthorizationSet auths;
  // A regular-join proxy receives each base operand (an empty-path
  // profile), so each proxy holds the per-relation rules besides the
  // joined view.
  for (const char* proxy : {"C", "D"}) {
    ASSERT_OK(auths.Add(cat, proxy, {"RK", "RV"}, {}));
    ASSERT_OK(auths.Add(cat, proxy, {"SK", "SW"}, {}));
    ASSERT_OK(auths.Add(cat, proxy, {"RK", "RV", "SK", "SW"}, {{"RK", "SK"}}));
  }
  auto spec = sql::ParseAndBind(cat, "SELECT RV, SW FROM R JOIN S ON RK = SK");
  ASSERT_OK(spec.status());
  ASSERT_OK_AND_ASSIGN(plan::QueryPlan plan,
                       plan::PlanBuilder(cat).Build(*spec));
  SafePlannerOptions options;
  options.allow_third_party = true;
  ASSERT_OK_AND_ASSIGN(SafePlan sp,
                       SafePlanner(cat, auths, options).Plan(plan));
  int join_id = -1;
  plan.ForEachPreOrder([&](const plan::PlanNode& n) {
    if (n.op == plan::PlanOp::kJoin) join_id = n.id;
  });
  ASSERT_GE(join_id, 0);
  EXPECT_EQ(sp.assignment.Of(join_id).master, c);
  EXPECT_EQ(sp.assignment.Of(join_id).origin, FromChild::kThird);
}

TEST_F(SafePlannerTest, RequestorCheckBlocksUnauthorizedRecipient) {
  const plan::QueryPlan plan = fix_.PaperPlan();
  // S_D has no authorization over the result profile.
  SafePlannerOptions options;
  options.requestor = Server(fix_.cat, "S_D");
  SafePlanner planner(fix_.cat, fix_.auths, options);
  ASSERT_OK_AND_ASSIGN(PlanningReport report, planner.Analyze(plan));
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(report.blocking_node, 0);

  // The computing master itself is always an acceptable requestor.
  SafePlannerOptions options2;
  options2.requestor = Server(fix_.cat, "S_H");
  SafePlanner planner2(fix_.cat, fix_.auths, options2);
  ASSERT_OK_AND_ASSIGN(PlanningReport report2, planner2.Analyze(plan));
  EXPECT_TRUE(report2.feasible);
}

TEST_F(SafePlannerTest, CountersPreferBusyServers) {
  // Two joins both executable by either server; the second join must prefer
  // the server already executing the first (higher counter).
  catalog::Catalog cat;
  const auto s0 = cat.AddServer("s0").value();
  ASSERT_OK(cat.AddServer("s1").status());
  const auto s1 = cat.FindServer("s1").value();
  ASSERT_OK(cat.AddRelation("A", s0, {{"AK", catalog::ValueType::kInt64}}, {"AK"}).status());
  ASSERT_OK(cat.AddRelation("B", s1, {{"BK", catalog::ValueType::kInt64},
                                      {"BL", catalog::ValueType::kInt64}}, {"BK"}).status());
  ASSERT_OK(cat.AddRelation("C", s1, {{"CK", catalog::ValueType::kInt64}}, {"CK"}).status());
  ASSERT_OK(cat.AddJoinEdge("AK", "BK"));
  ASSERT_OK(cat.AddJoinEdge("BL", "CK"));
  authz::AuthorizationSet auths;
  // Everyone sees everything (single big grants per relation pair paths).
  for (const char* server : {"s0", "s1"}) {
    ASSERT_OK(auths.Add(cat, server, {"AK"}, {}));
    ASSERT_OK(auths.Add(cat, server, {"BK", "BL"}, {}));
    ASSERT_OK(auths.Add(cat, server, {"CK"}, {}));
    ASSERT_OK(auths.Add(cat, server, {"AK", "BK", "BL"}, {{"AK", "BK"}}));
    ASSERT_OK(auths.Add(cat, server, {"AK", "BK", "BL", "CK"},
                        {{"AK", "BK"}, {"BL", "CK"}}));
  }
  auto spec = sql::ParseAndBind(
      cat, "SELECT AK, CK FROM A JOIN B ON AK = BK JOIN C ON BL = CK");
  ASSERT_OK(spec.status());
  ASSERT_OK_AND_ASSIGN(plan::QueryPlan plan, plan::PlanBuilder(cat).Build(*spec));
  SafePlanner planner(cat, auths);
  ASSERT_OK_AND_ASSIGN(SafePlan sp, planner.Plan(plan));
  // Both join nodes should land on the same master (counter preference).
  std::vector<catalog::ServerId> masters;
  plan.ForEachPreOrder([&](const plan::PlanNode& n) {
    if (n.op == plan::PlanOp::kJoin) masters.push_back(sp.assignment.Of(n.id).master);
  });
  ASSERT_EQ(masters.size(), 2u);
  EXPECT_EQ(masters[0], masters[1]);
}

TEST_F(SafePlannerTest, AnalyzeRejectsMalformedPlans) {
  SafePlanner planner(fix_.cat, fix_.auths);
  EXPECT_EQ(planner.Analyze(plan::QueryPlan{}).status().code(),
            StatusCode::kInvalidArgument);
  auto bad = plan::PlanNode::Project(
      plan::PlanNode::Relation(Relation(fix_.cat, "Insurance")),
      {Attr(fix_.cat, "Patient")});
  EXPECT_EQ(planner.Analyze(plan::QueryPlan(std::move(bad))).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SafePlannerTest, ResultAuthorizationDoesNotImplyExecutability) {
  // A finding this reproduction surfaces (EXPERIMENTS.md E11): Fig. 3 rule 3
  // authorizes S_I for the *result* of "treatments per plan" — attributes
  // {Holder, Plan, Treatment} over path {(Holder,Patient),(Disease,Illness)}
  // — yet NO safe execution exists: not for any join order, not even with
  // the footnote-3 third-party extension. Result-level and execution-level
  // authorization are different creatures in this model.
  const char* query =
      "SELECT Plan, Treatment FROM Insurance JOIN Hospital ON Holder = Patient "
      "JOIN Disease_list ON Disease = Illness";
  // The result view itself is authorized for S_I:
  authz::Profile result_view;
  result_view.pi = Attrs(fix_.cat, {"Plan", "Treatment"});
  result_view.join = cisqp::testing::Path(
      fix_.cat, {{"Holder", "Patient"}, {"Disease", "Illness"}});
  EXPECT_TRUE(fix_.auths.CanView(result_view, Server(fix_.cat, "S_I")));

  // ...but no execution strategy is safe, under any extension:
  const plan::QueryPlan plan = PlanFor(query);
  SafePlannerOptions with_third_party;
  with_third_party.allow_third_party = true;
  SafePlanner planner(fix_.cat, fix_.auths, with_third_party);
  ASSERT_OK_AND_ASSIGN(PlanningReport report, planner.Analyze(plan));
  EXPECT_FALSE(report.feasible);

  auto spec = sql::ParseAndBind(fix_.cat, query);
  ASSERT_OK(spec.status());
  FeasiblePlanSearch search(fix_.cat, fix_.auths);
  PlanSearchOptions search_options;
  search_options.planner_options = with_third_party;
  EXPECT_EQ(search.Search(*spec, search_options).status().code(),
            StatusCode::kInfeasible);
}

TEST_F(SafePlannerTest, InfeasibilityDiagnosticsNameDeniedViews) {
  // The §3.2 denied join: the report must list, per failed probe, the server,
  // the attempted role, and the exact view profile the policy refused.
  const plan::QueryPlan plan =
      PlanFor("SELECT Illness, Treatment FROM Disease_list JOIN Hospital "
              "ON Illness = Disease");
  SafePlanner planner(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(PlanningReport report, planner.Analyze(plan));
  ASSERT_FALSE(report.feasible);
  ASSERT_FALSE(report.blocking_rejections.empty());
  // Both operand servers must appear among the rejections, and at least one
  // rejection must name a regular-join master attempt.
  bool saw_sd = false;
  bool saw_sh = false;
  bool saw_master = false;
  for (const CandidateRejection& r : report.blocking_rejections) {
    if (r.server == Server(fix_.cat, "S_D")) saw_sd = true;
    if (r.server == Server(fix_.cat, "S_H")) saw_sh = true;
    if (r.role == "master" && r.mode == ExecutionMode::kRegularJoin) {
      saw_master = true;
    }
    EXPECT_FALSE(fix_.auths.CanView(r.required_view, r.server))
        << r.ToString(fix_.cat);
  }
  EXPECT_TRUE(saw_sd);
  EXPECT_TRUE(saw_sh);
  EXPECT_TRUE(saw_master);
  const std::string rendered =
      FormatRejections(fix_.cat, report.blocking_rejections);
  EXPECT_NE(rendered.find("cannot be"), std::string::npos);
  EXPECT_NE(rendered.find("needs ["), std::string::npos);
}

TEST_F(SafePlannerTest, RequestorRejectionIsDiagnosed) {
  const plan::QueryPlan plan = fix_.PaperPlan();
  SafePlannerOptions options;
  options.requestor = Server(fix_.cat, "S_D");
  SafePlanner planner(fix_.cat, fix_.auths, options);
  ASSERT_OK_AND_ASSIGN(PlanningReport report, planner.Analyze(plan));
  ASSERT_FALSE(report.feasible);
  ASSERT_EQ(report.blocking_rejections.size(), 1u);
  EXPECT_EQ(report.blocking_rejections[0].role, "requestor");
  EXPECT_EQ(report.blocking_rejections[0].server, Server(fix_.cat, "S_D"));
}

TEST_F(SafePlannerTest, FeasiblePlansCarryNoBlockingDiagnostics) {
  const plan::QueryPlan plan = fix_.PaperPlan();
  SafePlanner planner(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(PlanningReport report, planner.Analyze(plan));
  ASSERT_TRUE(report.feasible);
  EXPECT_TRUE(report.blocking_rejections.empty());
}

TEST_F(SafePlannerTest, CanViewCallsAreCounted) {
  const plan::QueryPlan plan = fix_.PaperPlan();
  SafePlanner planner(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(PlanningReport report, planner.Analyze(plan));
  EXPECT_GT(report.can_view_calls, 0u);
}

}  // namespace
}  // namespace cisqp::planner
