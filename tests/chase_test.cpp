// Tests for the chase closure of implied authorizations (paper §3.2 end).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "authz/chase.hpp"
#include "authz/incremental.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"
#include "testcheck/oracle.hpp"
#include "workload/generator.hpp"

namespace cisqp::authz {
namespace {

using cisqp::testing::Attrs;
using cisqp::testing::MedicalFixture;
using cisqp::testing::Path;
using cisqp::testing::Server;

// The naïve-fixpoint reference and the canonical policy form moved into the
// differential-testing library so the fuzz harness and these tests share one
// oracle (src/testcheck/oracle.hpp).
using testcheck::CanonicalPolicy;
using testcheck::NaiveChaseOracle;

class ChaseTest : public ::testing::Test {
 protected:
  MedicalFixture fix_;
};

TEST_F(ChaseTest, PaperExampleSdWithHospitalGrant) {
  // §3.2: if S_D also held an authorization for Hospital, the denied view
  // "Disease_list ⋈ Hospital on Illness=Disease" would be implied.
  AuthorizationSet auths = fix_.auths;
  ASSERT_OK(auths.Add(fix_.cat, "S_D", {"Patient", "Disease", "Physician"}, {}));

  const Profile view{Attrs(fix_.cat, {"Illness", "Treatment"}),
                     Path(fix_.cat, {{"Illness", "Disease"}}), {}};
  EXPECT_FALSE(auths.CanView(view, Server(fix_.cat, "S_D")));

  ASSERT_OK_AND_ASSIGN(AuthorizationSet closed, ChaseClosure(fix_.cat, auths));
  EXPECT_TRUE(closed.CanView(view, Server(fix_.cat, "S_D")));
}

TEST_F(ChaseTest, ChaseClosureIsTheIncrementalBuildsClosure) {
  // One chase: ChaseClosure returns exactly what the serving front door
  // builds, canonical form and work counters alike.
  AuthorizationSet auths = fix_.auths;
  ASSERT_OK(
      auths.Add(fix_.cat, "S_D", {"Patient", "Disease", "Physician"}, {}));
  ChaseStats stats;
  ASSERT_OK_AND_ASSIGN(AuthorizationSet closed,
                       ChaseClosure(fix_.cat, auths, {}, &stats));
  ASSERT_OK_AND_ASSIGN(IncrementalClosure built,
                       IncrementalClosure::Build(fix_.cat, auths));
  EXPECT_EQ(closed.ToString(fix_.cat), built.closed().ToString(fix_.cat));
  EXPECT_EQ(stats.iterations, built.stats().iterations);
  EXPECT_EQ(stats.pairs_considered, built.stats().pairs_considered);
  EXPECT_EQ(stats.derived_rules, built.stats().derived_rules);
}

TEST_F(ChaseTest, ClosureIsIdempotent) {
  ASSERT_OK_AND_ASSIGN(AuthorizationSet once, ChaseClosure(fix_.cat, fix_.auths));
  ASSERT_OK_AND_ASSIGN(AuthorizationSet twice, ChaseClosure(fix_.cat, once));
  EXPECT_EQ(once.size(), twice.size());
}

TEST_F(ChaseTest, ClosureNeverShrinksVisibility) {
  ASSERT_OK_AND_ASSIGN(AuthorizationSet closed, ChaseClosure(fix_.cat, fix_.auths));
  // Every view authorized before stays authorized.
  for (catalog::ServerId s = 0; s < fix_.cat.server_count(); ++s) {
    for (const Authorization& rule : fix_.auths.ForServer(s)) {
      EXPECT_TRUE(closed.CanView(Profile{rule.attributes, rule.path, {}}, s));
    }
  }
}

TEST_F(ChaseTest, DerivationRequiresJoinAttributeVisibility) {
  // A server holding two relations but blind to the join attribute of one of
  // them cannot chase the joined view.
  catalog::Catalog cat;
  const auto s0 = cat.AddServer("s0").value();
  ASSERT_OK(cat.AddRelation("A", s0, {{"AK", catalog::ValueType::kInt64},
                                      {"AV", catalog::ValueType::kInt64}},
                            {"AK"}).status());
  ASSERT_OK(cat.AddRelation("B", s0, {{"BK", catalog::ValueType::kInt64},
                                      {"BV", catalog::ValueType::kInt64}},
                            {"BK"}).status());
  ASSERT_OK(cat.AddServer("watcher").status());
  ASSERT_OK(cat.AddJoinEdge("AK", "BK"));

  AuthorizationSet auths;
  ASSERT_OK(auths.Add(cat, "watcher", {"AK", "AV"}, {}));
  ASSERT_OK(auths.Add(cat, "watcher", {"BV"}, {}));  // BK not visible
  ASSERT_OK_AND_ASSIGN(AuthorizationSet closed, ChaseClosure(cat, auths));
  const Profile joined{Attrs(cat, {"AV", "BV"}), Path(cat, {{"AK", "BK"}}), {}};
  EXPECT_FALSE(closed.CanView(joined, cat.FindServer("watcher").value()));

  // Granting BK unlocks the derivation.
  ASSERT_OK(auths.Add(cat, "watcher", {"BK", "BV"}, {}));
  ASSERT_OK_AND_ASSIGN(AuthorizationSet closed2, ChaseClosure(cat, auths));
  EXPECT_TRUE(closed2.CanView(joined, cat.FindServer("watcher").value()));
}

TEST_F(ChaseTest, IndirectDerivationsAcrossThreeRelations) {
  // watcher sees A, B, C fully; A-B and B-C are joinable: the chase must
  // derive the three-relation view in two rounds.
  catalog::Catalog cat;
  const auto s0 = cat.AddServer("s0").value();
  ASSERT_OK(cat.AddRelation("A", s0, {{"AK", catalog::ValueType::kInt64}}, {"AK"}).status());
  ASSERT_OK(cat.AddRelation("B", s0, {{"BK", catalog::ValueType::kInt64},
                                      {"BL", catalog::ValueType::kInt64}}, {"BK"}).status());
  ASSERT_OK(cat.AddRelation("C", s0, {{"CK", catalog::ValueType::kInt64}}, {"CK"}).status());
  ASSERT_OK(cat.AddServer("watcher").status());
  ASSERT_OK(cat.AddJoinEdge("AK", "BK"));
  ASSERT_OK(cat.AddJoinEdge("BL", "CK"));

  AuthorizationSet auths;
  ASSERT_OK(auths.Add(cat, "watcher", {"AK"}, {}));
  ASSERT_OK(auths.Add(cat, "watcher", {"BK", "BL"}, {}));
  ASSERT_OK(auths.Add(cat, "watcher", {"CK"}, {}));
  ASSERT_OK_AND_ASSIGN(AuthorizationSet closed, ChaseClosure(cat, auths));

  const Profile full{Attrs(cat, {"AK", "BK", "BL", "CK"}),
                     Path(cat, {{"AK", "BK"}, {"BL", "CK"}}), {}};
  EXPECT_TRUE(closed.CanView(full, cat.FindServer("watcher").value()));
}

TEST_F(ChaseTest, CapOnDerivedRules) {
  ChaseOptions options;
  options.max_derived_rules = 1;
  AuthorizationSet auths = fix_.auths;
  ASSERT_OK(auths.Add(fix_.cat, "S_D", {"Patient", "Disease", "Physician"}, {}));
  const auto result = ChaseClosure(fix_.cat, auths, options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ChaseTest, PathLengthCapLimitsDepth) {
  // The cap bounds *derived* rules only; input rules keep their paths
  // (Fig. 3 has two-atom paths).
  ChaseOptions options;
  options.max_path_atoms = 1;
  ASSERT_OK_AND_ASSIGN(AuthorizationSet closed,
                       ChaseClosure(fix_.cat, fix_.auths, options));
  for (const Authorization& rule : closed.All()) {
    if (!fix_.auths.Contains(rule)) {
      EXPECT_LE(rule.path.size(), 1u) << rule.ToString(fix_.cat);
    }
  }
}

TEST_F(ChaseTest, StatsAreReported) {
  ChaseStats stats;
  ASSERT_OK(ChaseClosure(fix_.cat, fix_.auths, {}, &stats).status());
  EXPECT_GE(stats.iterations, 1u);
  EXPECT_GT(stats.pairs_considered, 0u);
}

TEST_F(ChaseTest, SemiNaiveMatchesNaiveReferenceOnMedicalPolicy) {
  // Fig. 2/3 policy plus the §3.2 extra grant that makes derivations fire.
  AuthorizationSet auths = fix_.auths;
  ASSERT_OK(auths.Add(fix_.cat, "S_D", {"Patient", "Disease", "Physician"}, {}));
  ASSERT_OK_AND_ASSIGN(AuthorizationSet closed, ChaseClosure(fix_.cat, auths));
  EXPECT_EQ(CanonicalPolicy(fix_.cat, closed),
            CanonicalPolicy(fix_.cat, NaiveChaseOracle(fix_.cat, auths)));
}

TEST_F(ChaseTest, SemiNaiveMatchesNaiveReferenceOnRandomizedSchemas) {
  for (const std::uint64_t seed : {11u, 23u, 37u, 58u}) {
    Rng rng(seed);
    workload::FederationConfig fed_config;
    fed_config.servers = 3;
    fed_config.relations = 5;
    const workload::Federation fed =
        workload::GenerateFederation(fed_config, rng);
    workload::AuthzConfig authz_config;
    authz_config.base_grant_prob = 0.5;
    authz_config.path_grants_per_server = 2;
    authz_config.max_path_atoms = 2;
    const AuthorizationSet auths =
        workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
    ChaseOptions options;
    options.max_path_atoms = 3;  // keep the naïve oracle tractable
    ASSERT_OK_AND_ASSIGN(AuthorizationSet closed,
                         ChaseClosure(fed.catalog, auths, options));
    EXPECT_EQ(CanonicalPolicy(fed.catalog, closed),
              CanonicalPolicy(fed.catalog,
                              NaiveChaseOracle(fed.catalog, auths,
                                               options.max_path_atoms)))
        << "seed " << seed;
  }
}

TEST_F(ChaseTest, EmptyInputYieldsEmptyClosure) {
  ASSERT_OK_AND_ASSIGN(AuthorizationSet closed,
                       ChaseClosure(fix_.cat, AuthorizationSet{}));
  EXPECT_EQ(closed.size(), 0u);
}

// --- Incremental maintenance (DESIGN.md §16) -------------------------------

// The from-scratch answer an incremental closure must match byte for byte:
// a fresh build of the same base rules.
std::string CanonicalChase(const catalog::Catalog& cat,
                           const AuthorizationSet& base) {
  auto built = IncrementalClosure::Build(cat, base);
  CISQP_CHECK_MSG(built.ok(), built.status().ToString());
  return built->closed().ToString(cat);
}

TEST_F(ChaseTest, IncrementalGrantMatchesFromScratchChase) {
  ASSERT_OK_AND_ASSIGN(IncrementalClosure inc,
                       IncrementalClosure::Build(fix_.cat, fix_.auths));
  EXPECT_EQ(inc.closed().ToString(fix_.cat), CanonicalChase(fix_.cat, fix_.auths));

  // The §3.2 grant that makes derivations fire: the delta round must derive
  // exactly what a batch chase over the edited base would.
  Authorization grant;
  grant.server = Server(fix_.cat, "S_D");
  grant.attributes = Attrs(fix_.cat, {"Patient", "Disease", "Physician"});
  ASSERT_OK_AND_ASSIGN(ClosureDelta delta, inc.AddRule(grant));

  AuthorizationSet edited = fix_.auths;
  ASSERT_OK(edited.Add(fix_.cat, "S_D", {"Patient", "Disease", "Physician"}, {}));
  EXPECT_EQ(inc.closed().ToString(fix_.cat), CanonicalChase(fix_.cat, edited));
  EXPECT_TRUE(delta.changed());
  EXPECT_FALSE(delta.full);  // S_D already had rules: no empty<->non-empty flip
  EXPECT_TRUE(delta.servers.Contains(Server(fix_.cat, "S_D")));
  EXPECT_EQ(delta.relations.ids(), RuleRelations(fix_.cat, grant).ids());
  EXPECT_GT(delta.added_rules, 0u);
}

TEST_F(ChaseTest, IncrementalRevokeMatchesFromScratchChase) {
  AuthorizationSet base = fix_.auths;
  ASSERT_OK(base.Add(fix_.cat, "S_D", {"Patient", "Disease", "Physician"}, {}));
  ASSERT_OK_AND_ASSIGN(IncrementalClosure inc,
                       IncrementalClosure::Build(fix_.cat, base));

  // Revoking the grant must rederive S_D back to the original closure: the
  // derived joined views lose their only derivation.
  Authorization grant;
  grant.server = Server(fix_.cat, "S_D");
  grant.attributes = Attrs(fix_.cat, {"Patient", "Disease", "Physician"});
  ASSERT_OK_AND_ASSIGN(ClosureDelta delta, inc.RevokeRule(grant));
  EXPECT_EQ(inc.closed().ToString(fix_.cat), CanonicalChase(fix_.cat, fix_.auths));
  EXPECT_TRUE(delta.changed());
  EXPECT_GT(delta.removed_rules, 0u);

  // Revoking a rule that is not in the base policy is typed kNotFound and
  // leaves the object usable.
  const auto missing = inc.RevokeRule(grant);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(inc.closed().ToString(fix_.cat), CanonicalChase(fix_.cat, fix_.auths));
}

TEST_F(ChaseTest, SubsumedGrantChangesBaseButNotClosure) {
  ASSERT_OK_AND_ASSIGN(IncrementalClosure inc,
                       IncrementalClosure::Build(fix_.cat, fix_.auths));
  const std::size_t base_before = inc.base().size();
  const std::string closed_before = inc.closed().ToString(fix_.cat);

  // S_H holds {Patient, Disease, Physician} on Hospital (Fig. 2); a narrower
  // grant on the same (server, path) is subsumed by it in the minimized form.
  Authorization narrow;
  narrow.server = Server(fix_.cat, "S_H");
  narrow.attributes = Attrs(fix_.cat, {"Patient"});
  ASSERT_OK_AND_ASSIGN(ClosureDelta delta, inc.AddRule(narrow));

  EXPECT_FALSE(delta.changed());
  EXPECT_EQ(delta.added_rules, 0u);
  EXPECT_EQ(delta.removed_rules, 0u);
  EXPECT_EQ(inc.base().size(), base_before + 1);  // base keeps the edit
  EXPECT_EQ(inc.closed().ToString(fix_.cat), closed_before);
  // And it still matches the from-scratch oracle over the grown base.
  EXPECT_EQ(inc.closed().ToString(fix_.cat),
            CanonicalChase(fix_.cat, inc.base()));
}

TEST_F(ChaseTest, IncrementalEditScriptTracksOracleOnRandomizedSchemas) {
  for (const std::uint64_t seed : {5u, 19u, 42u}) {
    Rng rng(seed);
    workload::FederationConfig fed_config;
    fed_config.servers = 3;
    fed_config.relations = 5;
    const workload::Federation fed =
        workload::GenerateFederation(fed_config, rng);
    workload::AuthzConfig authz_config;
    authz_config.base_grant_prob = 0.5;
    authz_config.path_grants_per_server = 2;
    authz_config.max_path_atoms = 2;
    AuthorizationSet base =
        workload::GenerateAuthorizations(fed.catalog, authz_config, rng);
    auto built = IncrementalClosure::Build(fed.catalog, base);
    ASSERT_OK(built.status());
    IncrementalClosure inc = std::move(*built);

    // Flip membership of each candidate rule in turn; after every edit the
    // incremental closure equals a fresh build, and the naïve fixpoint —
    // which shares no chase code — agrees with it.
    std::vector<Authorization> pool = base.All();
    rng.Shuffle(pool);
    std::size_t edits = 0;
    for (const Authorization& cand : pool) {
      if (edits >= 6) break;
      const bool grant = !inc.base().Contains(cand);
      const auto edited = grant ? inc.AddRule(cand) : inc.RevokeRule(cand);
      ASSERT_OK(edited.status());
      EXPECT_EQ(inc.closed().ToString(fed.catalog),
                CanonicalChase(fed.catalog, inc.base()))
          << "seed " << seed << " edit " << edits;
      EXPECT_EQ(CanonicalPolicy(fed.catalog, inc.closed()),
                CanonicalPolicy(fed.catalog,
                                NaiveChaseOracle(fed.catalog, inc.base())))
          << "seed " << seed << " edit " << edits;
      ++edits;
    }
  }
}

TEST_F(ChaseTest, RepeatedEditsDoNotAccumulateTowardTheDerivedRulesCap) {
  // The cap bounds the *closure*, not lifetime chase work: a long
  // grant/revoke history whose every intermediate closure fits under the
  // cap must never trip kResourceExhausted. (It used to — edits fed one
  // running counter, so revokes' rechases re-counted old derivations until
  // the long-lived closure spuriously degraded to full-sweep serving.)
  AuthorizationSet edited = fix_.auths;
  ASSERT_OK(edited.Add(fix_.cat, "S_D", {"Patient", "Disease", "Physician"}, {}));
  ChaseStats batch;
  ASSERT_OK(ChaseClosure(fix_.cat, edited, {}, &batch).status());
  ASSERT_GT(batch.derived_rules, 0u);

  ChaseOptions options;
  options.max_derived_rules = batch.derived_rules;  // tight but sufficient
  ASSERT_OK_AND_ASSIGN(
      IncrementalClosure inc,
      IncrementalClosure::Build(fix_.cat, fix_.auths, options));
  Authorization grant;
  grant.server = Server(fix_.cat, "S_D");
  grant.attributes = Attrs(fix_.cat, {"Patient", "Disease", "Physician"});
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    ASSERT_OK(inc.AddRule(grant).status());
    ASSERT_OK(inc.RevokeRule(grant).status());
  }
  EXPECT_EQ(inc.closed().ToString(fix_.cat),
            CanonicalChase(fix_.cat, fix_.auths));
}

TEST_F(ChaseTest, IncrementalBuildHonorsDerivedRulesCap) {
  AuthorizationSet base = fix_.auths;
  ASSERT_OK(base.Add(fix_.cat, "S_D", {"Patient", "Disease", "Physician"}, {}));
  ChaseOptions options;
  options.max_derived_rules = 1;
  const auto built = IncrementalClosure::Build(fix_.cat, base, options);
  EXPECT_EQ(built.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace cisqp::authz
