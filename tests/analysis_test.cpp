// Tests for the policy-analysis helpers (visibility matrix, policy diff).
#include <gtest/gtest.h>

#include "authz/analysis.hpp"
#include "authz/chase.hpp"
#include "test_util.hpp"

namespace cisqp::authz {
namespace {

using cisqp::testing::MedicalFixture;
using cisqp::testing::Relation;
using cisqp::testing::Server;

class AnalysisTest : public ::testing::Test {
 protected:
  MedicalFixture fix_;
};

TEST_F(AnalysisTest, MedicalVisibilityMatrix) {
  const auto matrix = BaseVisibilityMatrix(fix_.cat, fix_.auths);
  ASSERT_EQ(matrix.size(), 4u);
  const auto vis = [&](const char* server, const char* rel) {
    return matrix[Server(fix_.cat, server)][Relation(fix_.cat, rel)];
  };
  // Every server sees its own relation in full.
  EXPECT_EQ(vis("S_I", "Insurance"), BaseVisibility::kFull);
  EXPECT_EQ(vis("S_H", "Hospital"), BaseVisibility::kFull);
  EXPECT_EQ(vis("S_D", "Disease_list"), BaseVisibility::kFull);
  // Fig. 3 rules 9 and 10: S_N sees Insurance fully and Hospital partially
  // (Patient, Disease — no Physician).
  EXPECT_EQ(vis("S_N", "Insurance"), BaseVisibility::kFull);
  EXPECT_EQ(vis("S_N", "Hospital"), BaseVisibility::kPartial);
  // S_I sees nothing of Nat_registry unconditionally (rule 2 has a path).
  EXPECT_EQ(vis("S_I", "Nat_registry"), BaseVisibility::kNone);
  EXPECT_EQ(vis("S_I", "Hospital"), BaseVisibility::kNone);
}

TEST_F(AnalysisTest, MatrixRenders) {
  const auto matrix = BaseVisibilityMatrix(fix_.cat, fix_.auths);
  const std::string rendered = VisibilityMatrixToString(fix_.cat, matrix);
  EXPECT_NE(rendered.find("S_N"), std::string::npos);
  EXPECT_NE(rendered.find("Insurance"), std::string::npos);
  EXPECT_NE(rendered.find('F'), std::string::npos);
  EXPECT_NE(rendered.find('p'), std::string::npos);
}

TEST_F(AnalysisTest, DiffAgainstSelfIsEmpty) {
  const PolicyDiff diff = DiffPolicies(fix_.auths, fix_.auths);
  EXPECT_TRUE(diff.Identical());
}

TEST_F(AnalysisTest, DiffFindsChaseDerivedRules) {
  ASSERT_OK_AND_ASSIGN(AuthorizationSet closed,
                       ChaseClosure(fix_.cat, fix_.auths));
  const PolicyDiff diff = DiffPolicies(fix_.auths, closed);
  // The closure is canonical: it drops an input rule that a derived grant
  // on the same path subsumes — in Fig. 3, S_I's rule over
  // {(Holder, Patient), (Disease, Illness)} — but never a view it grants.
  ASSERT_EQ(diff.only_in_a.size(), 1u);
  for (const Authorization& rule : diff.only_in_a) {
    EXPECT_TRUE(closed.CanView(Profile{rule.attributes, rule.path, {}},
                               rule.server))
        << rule.ToString(fix_.cat);
  }
  EXPECT_EQ(fix_.auths.size() - diff.only_in_a.size() + diff.only_in_b.size(),
            closed.size());
  for (const Authorization& rule : diff.only_in_b) {
    EXPECT_FALSE(rule.path.empty()) << rule.ToString(fix_.cat);
  }
}

TEST_F(AnalysisTest, DiffIsDirectional) {
  AuthorizationSet extended = fix_.auths;
  ASSERT_OK(extended.Add(fix_.cat, "S_D", {"Patient"}, {}));
  const PolicyDiff forward = DiffPolicies(fix_.auths, extended);
  EXPECT_TRUE(forward.only_in_a.empty());
  ASSERT_EQ(forward.only_in_b.size(), 1u);
  EXPECT_EQ(forward.only_in_b[0].server, Server(fix_.cat, "S_D"));
  const PolicyDiff backward = DiffPolicies(extended, fix_.auths);
  EXPECT_EQ(backward.only_in_a.size(), 1u);
  EXPECT_TRUE(backward.only_in_b.empty());
}

TEST_F(AnalysisTest, EmptyPolicyMatrixIsAllNone) {
  const auto matrix = BaseVisibilityMatrix(fix_.cat, AuthorizationSet{});
  for (const auto& row : matrix) {
    for (const BaseVisibility v : row) {
      EXPECT_EQ(v, BaseVisibility::kNone);
    }
  }
}

}  // namespace
}  // namespace cisqp::authz
