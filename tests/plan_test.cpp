// Unit tests for src/plan: query tree plans, the builder's pushdown passes,
// join ordering, and cardinality estimation. Includes the paper's Fig. 2
// plan-shape check.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/rng.hpp"
#include "plan/builder.hpp"
#include "planner/plan_search.hpp"
#include "sql/binder.hpp"
#include "test_util.hpp"
#include "testcheck/scenario.hpp"
#include "workload/generator.hpp"

#ifndef CISQP_CORPUS_DIR
#error "CISQP_CORPUS_DIR must be defined (see tests/CMakeLists.txt)"
#endif

namespace cisqp::plan {
namespace {

using cisqp::testing::Attr;
using cisqp::testing::MedicalFixture;
using cisqp::testing::Relation;

class PlanTest : public ::testing::Test {
 protected:
  MedicalFixture fix_;
};

TEST_F(PlanTest, PaperPlanHasFig2Shape) {
  // Fig. 2: n0 = π over n1 = (Insurance ⋈ Nat_registry) ⋈ π(Hospital), with
  // the Hospital projection pushed down and pre-order ids n0..n6.
  const QueryPlan plan = fix_.PaperPlan();
  ASSERT_OK(plan.Validate(fix_.cat));
  EXPECT_EQ(plan.node_count(), 7);
  EXPECT_EQ(plan.JoinCount(), 2);

  const PlanNode* n0 = plan.node(0);
  ASSERT_NE(n0, nullptr);
  EXPECT_EQ(n0->op, PlanOp::kProject);
  EXPECT_EQ(n0->projection,
            (std::vector<catalog::AttributeId>{
                Attr(fix_.cat, "Patient"), Attr(fix_.cat, "Physician"),
                Attr(fix_.cat, "Plan"), Attr(fix_.cat, "HealthAid")}));

  const PlanNode* n1 = plan.node(1);
  EXPECT_EQ(n1->op, PlanOp::kJoin);
  const PlanNode* n2 = plan.node(2);
  EXPECT_EQ(n2->op, PlanOp::kJoin);
  EXPECT_EQ(plan.node(4)->op, PlanOp::kRelation);
  EXPECT_EQ(plan.node(4)->relation, Relation(fix_.cat, "Insurance"));
  EXPECT_EQ(plan.node(5)->relation, Relation(fix_.cat, "Nat_registry"));

  // The Hospital side carries the pushed-down projection of Fig. 2.
  const PlanNode* n3 = plan.node(3);
  ASSERT_EQ(n3->op, PlanOp::kProject);
  EXPECT_EQ(n3->projection,
            (std::vector<catalog::AttributeId>{Attr(fix_.cat, "Patient"),
                                               Attr(fix_.cat, "Physician")}));
  EXPECT_EQ(plan.node(6)->op, PlanOp::kRelation);
  EXPECT_EQ(plan.node(6)->relation, Relation(fix_.cat, "Hospital"));
}

TEST_F(PlanTest, NoProjectInsertedWhenAllAttributesNeeded) {
  // Insurance and Nat_registry contribute all their attributes; only
  // Hospital gets a projection in the paper plan.
  const QueryPlan plan = fix_.PaperPlan();
  int projects = 0;
  plan.ForEachPreOrder([&](const PlanNode& n) {
    if (n.op == PlanOp::kProject) ++projects;
  });
  EXPECT_EQ(projects, 2);  // final π + Hospital π
}

TEST_F(PlanTest, SelectionPushdownReachesLeaf) {
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      sql::ParseAndBind(fix_.cat,
                        "SELECT Patient, Plan FROM Insurance JOIN Hospital "
                        "ON Holder = Patient WHERE Plan = 'gold'"));
  ASSERT_OK_AND_ASSIGN(QueryPlan plan, PlanBuilder(fix_.cat).Build(spec));
  ASSERT_OK(plan.Validate(fix_.cat));
  // The Plan='gold' conjunct must sit below the join, on the Insurance side.
  bool select_below_join = false;
  plan.ForEachPreOrder([&](const PlanNode& n) {
    if (n.op == PlanOp::kJoin) {
      const PlanNode* l = n.left.get();
      while (l != nullptr) {
        if (l->op == PlanOp::kSelect) select_below_join = true;
        l = l->left.get();
      }
    }
  });
  EXPECT_TRUE(select_below_join);
}

TEST_F(PlanTest, SelectionStaysAtJoinWhenCrossRelation) {
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      sql::ParseAndBind(fix_.cat,
                        "SELECT Plan FROM Insurance JOIN Hospital "
                        "ON Holder = Patient WHERE Plan = Physician"));
  ASSERT_OK_AND_ASSIGN(QueryPlan plan, PlanBuilder(fix_.cat).Build(spec));
  ASSERT_OK(plan.Validate(fix_.cat));
  // Plan (Insurance) vs Physician (Hospital): the conjunct cannot descend
  // below the join.
  const PlanNode* root = plan.root();
  ASSERT_EQ(root->op, PlanOp::kProject);
  EXPECT_EQ(root->left->op, PlanOp::kSelect);
  EXPECT_EQ(root->left->left->op, PlanOp::kJoin);
}

TEST_F(PlanTest, SingleRelationQuery) {
  ASSERT_OK_AND_ASSIGN(QuerySpec spec,
                       sql::ParseAndBind(fix_.cat, "SELECT Plan FROM Insurance"));
  ASSERT_OK_AND_ASSIGN(QueryPlan plan, PlanBuilder(fix_.cat).Build(spec));
  EXPECT_EQ(plan.JoinCount(), 0);
  EXPECT_EQ(plan.root()->op, PlanOp::kProject);
}

TEST_F(PlanTest, RenumberIsLevelOrder) {
  // Pre-order traversal of the Fig. 2 tree visits BFS ids 0,1,2,4,5,3,6 —
  // the paper's numbering (leaves n4/n5 sit under n2; n3 is the projection).
  QueryPlan plan = fix_.PaperPlan();
  std::vector<int> ids;
  plan.ForEachPreOrder([&](const PlanNode& n) { ids.push_back(n.id); });
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 4, 5, 3, 6}));
  EXPECT_EQ(plan.node(3)->id, 3);
  EXPECT_EQ(plan.node(99), nullptr);
  EXPECT_EQ(plan.node(-1), nullptr);
}

TEST_F(PlanTest, CloneIsDeepAndEqualShaped) {
  const QueryPlan plan = fix_.PaperPlan();
  const QueryPlan copy = plan.Clone();
  EXPECT_EQ(copy.node_count(), plan.node_count());
  EXPECT_EQ(copy.ToString(fix_.cat), plan.ToString(fix_.cat));
  EXPECT_NE(copy.root(), plan.root());
}

TEST_F(PlanTest, ValidateCatchesBrokenTrees) {
  // Projection of an attribute its child does not produce.
  auto bad = PlanNode::Project(
      PlanNode::Relation(Relation(fix_.cat, "Insurance")),
      {Attr(fix_.cat, "Patient")});
  const QueryPlan plan(std::move(bad));
  EXPECT_EQ(plan.Validate(fix_.cat).code(), StatusCode::kInvalidArgument);

  // Join without atoms.
  auto join = PlanNode::Join(
      PlanNode::Relation(Relation(fix_.cat, "Insurance")),
      PlanNode::Relation(Relation(fix_.cat, "Hospital")), {});
  const QueryPlan plan2(std::move(join));
  EXPECT_EQ(plan2.Validate(fix_.cat).code(), StatusCode::kInvalidArgument);

  // Join atom oriented the wrong way.
  auto join2 = PlanNode::Join(
      PlanNode::Relation(Relation(fix_.cat, "Insurance")),
      PlanNode::Relation(Relation(fix_.cat, "Hospital")),
      {algebra::EquiJoinAtom{Attr(fix_.cat, "Patient"), Attr(fix_.cat, "Holder")}});
  const QueryPlan plan3(std::move(join2));
  EXPECT_EQ(plan3.Validate(fix_.cat).code(), StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, SpecValidateCatchesCrossJoins) {
  QuerySpec spec;
  spec.first_relation = Relation(fix_.cat, "Insurance");
  spec.select_list = {Attr(fix_.cat, "Plan")};
  spec.joins.push_back(JoinStep{Relation(fix_.cat, "Hospital"), {}});
  EXPECT_EQ(spec.Validate(fix_.cat).code(), StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, CardinalityEstimates) {
  StatsCatalog stats;
  RelationStats ins{1000.0, {}};
  ins.distinct[Attr(fix_.cat, "Holder")] = 1000.0;
  stats.Set(Relation(fix_.cat, "Insurance"), ins);
  RelationStats reg{2000.0, {}};
  reg.distinct[Attr(fix_.cat, "Citizen")] = 2000.0;
  stats.Set(Relation(fix_.cat, "Nat_registry"), reg);

  PlanBuilder builder(fix_.cat, &stats);
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      sql::ParseAndBind(fix_.cat, "SELECT Plan FROM Insurance JOIN "
                                  "Nat_registry ON Holder = Citizen"));
  ASSERT_OK_AND_ASSIGN(QueryPlan plan, builder.Build(spec));
  // |I ⋈ N| = 1000 * 2000 / max(1000, 2000) = 1000.
  const PlanNode* join = plan.root();
  while (join->op != PlanOp::kJoin) join = join->left.get();
  EXPECT_DOUBLE_EQ(builder.EstimateCardinality(*join), 1000.0);
}

TEST_F(PlanTest, SelectionSelectivityEstimates) {
  StatsCatalog stats;
  RelationStats ins{1000.0, {}};
  ins.distinct[Attr(fix_.cat, "Plan")] = 4.0;
  stats.Set(Relation(fix_.cat, "Insurance"), ins);
  PlanBuilder builder(fix_.cat, &stats);
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      sql::ParseAndBind(fix_.cat,
                        "SELECT Holder FROM Insurance WHERE Plan = 'gold'"));
  ASSERT_OK_AND_ASSIGN(QueryPlan plan, builder.Build(spec));
  EXPECT_DOUBLE_EQ(builder.EstimateCardinality(*plan.root()), 250.0);
}

TEST_F(PlanTest, StatsFromTableAreExact) {
  exec::Cluster cluster(fix_.cat);
  Rng rng(1);
  ASSERT_OK(workload::MedicalScenario::PopulateCluster(
      cluster, workload::MedicalScenario::DataConfig{200, 0.5, 0.5, 10}, rng));
  const StatsCatalog stats = workload::MedicalScenario::ComputeStats(cluster);
  const RelationStats& reg = stats.Of(Relation(fix_.cat, "Nat_registry"));
  EXPECT_DOUBLE_EQ(reg.rows, 200.0);
  EXPECT_DOUBLE_EQ(reg.DistinctOf(Attr(fix_.cat, "Citizen")), 200.0);
  EXPECT_LE(reg.DistinctOf(Attr(fix_.cat, "HealthAid")), 3.0);
}

// --- step-wise left-deep construction ≡ whole-tree Finish -----------------

/// Finish over the bare left-deep join tree of `spec`: the whole-tree WHERE
/// placement and projection pushdown that Build's fold must reproduce.
Result<QueryPlan> FinishLeftDeep(const catalog::Catalog& cat,
                                 const QuerySpec& spec) {
  std::unique_ptr<PlanNode> root = PlanNode::Relation(spec.first_relation);
  for (const JoinStep& step : spec.joins) {
    root = PlanNode::Join(std::move(root), PlanNode::Relation(step.relation),
                          step.atoms);
  }
  return PlanBuilder(cat).Finish(std::move(root), spec);
}

void ExpectSameNodes(const catalog::Catalog& cat, const PlanNode* a,
                     const PlanNode* b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a == nullptr) return;
  EXPECT_EQ(a->op, b->op);
  EXPECT_EQ(a->id, b->id);
  EXPECT_EQ(a->relation, b->relation);
  EXPECT_EQ(a->projection, b->projection);
  EXPECT_EQ(a->distinct, b->distinct);
  EXPECT_EQ(a->predicate.ToString(cat), b->predicate.ToString(cat));
  EXPECT_EQ(a->join_atoms, b->join_atoms);
  ExpectSameNodes(cat, a->left.get(), b->left.get());
  ExpectSameNodes(cat, a->right.get(), b->right.get());
}

/// Int64 attributes of two different relations of `spec`, if any.
std::optional<std::pair<catalog::AttributeId, catalog::AttributeId>>
CrossRelationPair(const catalog::Catalog& cat, const QuerySpec& spec, Rng& rng) {
  const std::vector<catalog::RelationId> relations = spec.Relations();
  for (int attempt = 0; attempt < 8; ++attempt) {
    const catalog::RelationId r1 = relations[rng.UniformIndex(relations.size())];
    const catalog::RelationId r2 = relations[rng.UniformIndex(relations.size())];
    if (r1 == r2) continue;
    const auto& a1 = cat.relation(r1).attributes;
    const auto& a2 = cat.relation(r2).attributes;
    const catalog::AttributeId x = a1[rng.UniformIndex(a1.size())];
    const catalog::AttributeId y = a2[rng.UniformIndex(a2.size())];
    if (cat.attribute(x).type == catalog::ValueType::kInt64 &&
        cat.attribute(y).type == catalog::ValueType::kInt64) {
      return std::make_pair(x, y);
    }
  }
  return std::nullopt;
}

/// `spec` with up to two conjuncts over two relations spliced into its WHERE
/// list: one in front of the single-relation conjuncts (everything after it
/// that it covers merges into its σ) and one at a random position.
QuerySpec WithCrossConjuncts(const catalog::Catalog& cat, QuerySpec spec, Rng& rng) {
  std::vector<algebra::Comparison> conjuncts = spec.where.conjuncts();
  for (int k = 0; k < 2; ++k) {
    const auto pair = CrossRelationPair(cat, spec, rng);
    if (!pair) break;
    const std::size_t at = k == 0 ? 0 : rng.UniformIndex(conjuncts.size() + 1);
    conjuncts.insert(conjuncts.begin() + static_cast<std::ptrdiff_t>(at),
                     algebra::Comparison{pair->first, algebra::CompareOp::kLt,
                                         pair->second});
  }
  spec.where = algebra::Predicate(std::move(conjuncts));
  return spec;
}

/// Build(order) must equal Finish over the same join tree, node for node,
/// for every connected order of `spec`, with and without DISTINCT. Returns
/// the number of plans compared.
std::size_t ExpectStepwiseMatchesFinish(const catalog::Catalog& cat,
                                        const QuerySpec& spec) {
  const authz::AuthorizationSet none;
  const Result<std::vector<QuerySpec>> orders =
      planner::FeasiblePlanSearch(cat, none).EnumerateOrders(spec, 1000);
  EXPECT_OK(orders.status());
  if (!orders.ok()) return 0;
  std::size_t compared = 0;
  for (QuerySpec order : *orders) {
    for (const bool distinct : {false, true}) {
      order.distinct = distinct;
      const Result<QueryPlan> stepwise = PlanBuilder(cat).Build(order);
      const Result<QueryPlan> whole = FinishLeftDeep(cat, order);
      EXPECT_OK(stepwise.status());
      EXPECT_OK(whole.status());
      if (!stepwise.ok() || !whole.ok()) continue;
      EXPECT_EQ(stepwise->ToString(cat), whole->ToString(cat))
          << order.ToString(cat);
      ExpectSameNodes(cat, stepwise->root(), whole->root());
      ++compared;
    }
  }
  return compared;
}

TEST(LeftDeepBuilderTest, StepwiseBuildMatchesFinishOnFuzzScenarios) {
  // The fuzz harness's generated scenarios, then the checked-in corpus.
  Rng rng(31);
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Result<testcheck::Scenario> s =
        testcheck::GenerateScenario(testcheck::ScenarioConfig{}, seed);
    if (!s.ok()) continue;
    compared += ExpectStepwiseMatchesFinish(s->catalog, s->query);
    compared += ExpectStepwiseMatchesFinish(
        s->catalog, WithCrossConjuncts(s->catalog, s->query, rng));
  }
  for (const auto& entry : std::filesystem::directory_iterator(CISQP_CORPUS_DIR)) {
    if (entry.path().extension() != ".repro") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    ASSERT_OK_AND_ASSIGN(const testcheck::Scenario s,
                         testcheck::ParseReproText(text.str()));
    compared += ExpectStepwiseMatchesFinish(s.catalog, s.query);
  }
  EXPECT_GT(compared, 1000u);
}

TEST(LeftDeepBuilderTest, StepwiseBuildMatchesFinishOnColdPlanQueries) {
  // 512 connected 3-5 relation queries over a generated 6-server federation,
  // shaped like the serving benchmark's cold-plan templates, each also with
  // cross-relation conjuncts in front of single-relation ones.
  Rng rng(7);
  workload::FederationConfig fed_config;
  fed_config.servers = 6;
  fed_config.relations = 8;
  fed_config.min_domain = 1000;
  fed_config.max_domain = 2000;
  const workload::Federation fed = workload::GenerateFederation(fed_config, rng);
  workload::QueryConfig query_config;
  query_config.max_select = 4;
  query_config.where_prob = 0.5;
  query_config.max_where = 2;
  std::size_t queries = 0;
  std::size_t compared = 0;
  while (queries < 512) {
    query_config.relations = 3 + rng.UniformIndex(3);
    const Result<QuerySpec> spec = workload::GenerateQuery(fed.catalog, query_config, rng);
    if (!spec.ok()) continue;
    ++queries;
    compared += ExpectStepwiseMatchesFinish(fed.catalog, *spec);
    compared += ExpectStepwiseMatchesFinish(
        fed.catalog, WithCrossConjuncts(fed.catalog, *spec, rng));
  }
  EXPECT_GT(compared, 10000u);
}

TEST_F(PlanTest, CrossConjunctCapturesLaterSingleRelationConjuncts) {
  // Finish merges each conjunct into the first σ on its way down, so a
  // single-relation conjunct listed after a cross-relation one lands in the
  // cross-relation σ above the join, not on its scan — and the step-wise
  // build must place it there too.
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      sql::ParseAndBind(fix_.cat,
                        "SELECT Plan, HealthAid FROM Insurance JOIN Nat_registry "
                        "ON Holder = Citizen WHERE Holder < Citizen AND Holder > 5"));
  ASSERT_OK_AND_ASSIGN(QueryPlan plan, PlanBuilder(fix_.cat).Build(spec));
  ASSERT_OK_AND_ASSIGN(QueryPlan whole, FinishLeftDeep(fix_.cat, spec));
  EXPECT_EQ(plan.ToString(fix_.cat), whole.ToString(fix_.cat));
  const PlanNode* select = plan.root()->left.get();
  ASSERT_EQ(select->op, PlanOp::kSelect);
  EXPECT_EQ(select->predicate.conjuncts().size(), 2u);
  EXPECT_EQ(select->left->op, PlanOp::kJoin);
}

}  // namespace
}  // namespace cisqp::plan
