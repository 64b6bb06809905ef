// Tests for the serving front door (src/serve): cold/cached byte-identity,
// the admission scheduler, 32-client concurrency on the shared executor
// pool (runs under TSan in CI), policy-epoch invalidation exactness, the
// CanView memo, the chase cap, and the executor's shared-pool regression
// guard (one pool construction across many concurrent parallel executions).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "authz/canview_cache.hpp"
#include "exec/executor.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "planner/safe_planner.hpp"
#include "serve/admission.hpp"
#include "serve/front_door.hpp"
#include "serve/plan_cache.hpp"
#include "test_util.hpp"

namespace cisqp::serve {
namespace {

using cisqp::testing::MedicalFixture;

Request Req(std::string sql) {
  Request request;
  request.sql = std::move(sql);
  return request;
}

bool TablesIdentical(const storage::Table& a, const storage::Table& b) {
  if (a.columns() != b.columns() || a.row_count() != b.row_count()) return false;
  for (std::size_t i = 0; i < a.row_count(); ++i) {
    if (a.rows()[i] != b.rows()[i]) return false;
  }
  return true;
}

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<exec::Cluster>(fix_.cat);
    Rng rng(2026);
    ASSERT_OK(workload::MedicalScenario::PopulateCluster(
        *cluster_, workload::MedicalScenario::DataConfig{300, 0.4, 0.6, 30},
        rng));
    stats_ = workload::MedicalScenario::ComputeStats(*cluster_);
  }

  FrontDoor MakeDoor(ServeOptions options = {}) const {
    return FrontDoor(fix_.cat, fix_.auths, *cluster_, &stats_, options);
  }

  MedicalFixture fix_;
  std::unique_ptr<exec::Cluster> cluster_;
  plan::StatsCatalog stats_;
  const std::string paper_sql_{workload::MedicalScenario::kPaperQuery};
  const std::string insurance_sql_{"SELECT Holder, Plan FROM Insurance"};
};

TEST_F(ServingTest, CachedAnswerIsByteIdenticalToCold) {
  FrontDoor door = MakeDoor();
  ASSERT_OK_AND_ASSIGN(const Response cold, door.Serve(Req(paper_sql_)));
  ASSERT_OK_AND_ASSIGN(const Response warm, door.Serve(Req(paper_sql_)));
  EXPECT_FALSE(cold.plan_cache_hit);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_TRUE(TablesIdentical(cold.table, warm.table));
  EXPECT_EQ(cold.result_server, warm.result_server);
  EXPECT_EQ(cold.signature, warm.signature);
  EXPECT_GT(cold.table.row_count(), 0u);

  const FrontDoorStats stats = door.Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  // The cold request warmed the CanView memo; the cached request skipped
  // planning entirely, so runtime enforcement was the only prober left.
  EXPECT_GT(stats.canview_misses, 0u);
}

TEST_F(ServingTest, OutOfRangeLiteralIsATypedErrorAndTheDoorServesOn) {
  FrontDoor door = MakeDoor();
  const std::string overflow = "1" + std::string(400, '0') + ".5";
  const std::string underflow = "0." + std::string(400, '0') + "1";
  for (const std::string& literal : {overflow, underflow}) {
    const Result<Response> bad =
        door.Serve(Req(insurance_sql_ + " WHERE Holder = " + literal));
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bad.status().message().find("float literal out of range"),
              std::string::npos)
        << bad.status().message();
  }
  ASSERT_OK_AND_ASSIGN(const Response next, door.Serve(Req(insurance_sql_)));
  EXPECT_EQ(next.table.row_count(),
            cluster_->ColumnarOf(testing::Relation(fix_.cat, "Insurance"))
                ->row_count());
}

TEST_F(ServingTest, OutOfRangeRequestorIsATypedErrorInBothAuditStates) {
  // A requestor naming no server is malformed input. It used to plan to a
  // cached kInfeasible with the audit log off, and to abort with it on (the
  // audit entry formats the server's name). It is now kInvalidArgument
  // before admission and planning, and never cached.
  Request bad = Req(paper_sql_);
  bad.requestor = catalog::ServerId{99};
  obs::AuthzAuditLog& audit = obs::AuthzAuditLog::Get();
  for (const bool audited : {false, true}) {
    SCOPED_TRACE(audited ? "audit log on" : "audit log off");
    FrontDoor door = MakeDoor();
    if (audited) audit.Enable();
    const Result<Response> first = door.Serve(bad);
    const Result<Response> again = door.Serve(bad);
    audit.Disable();
    audit.Clear();
    for (const Result<Response>* served : {&first, &again}) {
      EXPECT_EQ(served->status().code(), StatusCode::kInvalidArgument)
          << served->status().ToString();
      EXPECT_NE(served->status().message().find("requestor server id 99"),
                std::string::npos)
          << served->status().ToString();
    }
    const FrontDoorStats stats = door.Stats();
    EXPECT_EQ(stats.admitted, 0u);
    EXPECT_EQ(stats.plan_cache_misses, 0u);
    EXPECT_EQ(stats.plan_cache_size, 0u);

    // The door answers its next request.
    ASSERT_OK_AND_ASSIGN(const Response next, door.Serve(Req(paper_sql_)));
    EXPECT_FALSE(next.plan_cache_hit);
    EXPECT_GT(next.table.row_count(), 0u);
  }
}

TEST_F(ServingTest, SpellingVariantsShareOnePlanCacheEntry) {
  FrontDoor door = MakeDoor();
  ASSERT_OK_AND_ASSIGN(const Response a, door.Serve(Req(paper_sql_)));
  // Same meaning, different spelling: case, whitespace, flipped ON operands.
  ASSERT_OK_AND_ASSIGN(
      const Response b,
      door.Serve(Req("select  Patient, Physician, Plan, HealthAid  from "
                         "Insurance join Nat_registry on Citizen = Holder "
                         "join Hospital on Patient = Citizen")));
  EXPECT_TRUE(b.plan_cache_hit);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_TRUE(TablesIdentical(a.table, b.table));
  EXPECT_EQ(door.Stats().plan_cache_size, 1u);
}

TEST_F(ServingTest, InfeasibleVerdictIsCachedWithIdenticalStatus) {
  FrontDoor door = MakeDoor();
  // The §3.2 denied association: Insurance must not see Holder⋈Disease.
  const std::string denied =
      "SELECT Holder, Disease FROM Insurance JOIN Hospital ON Holder = "
      "Patient";
  const Result<Response> cold = door.Serve(Req(denied));
  const Result<Response> warm = door.Serve(Req(denied));
  ASSERT_FALSE(cold.ok());
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(warm.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(cold.status().message(), warm.status().message());
  const FrontDoorStats stats = door.Stats();
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
}

TEST_F(ServingTest, ThirtyTwoConcurrentClientsShareThePoolSafely) {
  // 32 clients hammer one front door over the shared executor pool: 8
  // admission slots, morsel-parallel execution (threads=2 resolves through
  // the executor's process-shared pool). Every answer must be byte-identical
  // to the single-threaded reference. Runs under TSan in CI.
  ServeOptions options;
  options.max_concurrent = 8;
  options.exec_threads = 2;
  options.morsel.morsel_rows = 64;
  options.morsel.min_parallel_rows = 0;
  FrontDoor door = MakeDoor(options);
  ASSERT_OK_AND_ASSIGN(const Response reference,
                       door.Serve(Req(paper_sql_)));
  ASSERT_OK_AND_ASSIGN(const Response reference_ins,
                       door.Serve(Req(insurance_sql_)));

  constexpr std::size_t kClients = 32;
  std::vector<Result<Response>> responses(kClients, InternalError("unset"));
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        const std::string& sql = (i % 2 == 0) ? paper_sql_ : insurance_sql_;
        responses[i] = door.Serve(Req(sql));
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_OK(responses[i].status());
    EXPECT_TRUE(responses[i]->plan_cache_hit) << "client " << i;
    const Response& want = (i % 2 == 0) ? reference : reference_ins;
    EXPECT_TRUE(TablesIdentical(responses[i]->table, want.table))
        << "client " << i;
  }
  const FrontDoorStats stats = door.Stats();
  EXPECT_EQ(stats.requests, kClients + 2);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.plan_cache_hits, kClients);
}

TEST_F(ServingTest, SharedExecutorPoolIsConstructedOnce) {
  // Regression guard for the per-query pool respawn: N parallel executions
  // with ExecutionOptions::pool == nullptr must share one process-wide pool
  // per thread count, not construct one each.
  const exec::DistributedExecutor executor(*cluster_, fix_.auths);
  planner::SafePlanner planner(fix_.cat, fix_.auths);
  const plan::QueryPlan plan = fix_.PaperPlan();
  ASSERT_OK_AND_ASSIGN(const planner::SafePlan sp, planner.Plan(plan));

  exec::ExecutionOptions options;
  options.threads = 2;
  options.morsel.morsel_rows = 64;
  options.morsel.min_parallel_rows = 0;
  ASSERT_OK(executor.Execute(plan, sp.assignment, options).status());  // pool built
  const std::uint64_t before = ThreadPool::constructed_count();
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(executor.Execute(plan, sp.assignment, options).status());
  }
  EXPECT_EQ(ThreadPool::constructed_count(), before)
      << "executions with threads>1 must reuse the process-shared pool";
}

TEST_F(ServingTest, PolicyEpochBumpInvalidatesExactlyTheCachedEntries) {
  obs::MetricsRegistry::Get().Enable();
  const std::uint64_t stale_before =
      obs::MetricsRegistry::Get().Counter("serve.plan_cache.stale_evictions");

  // Narrow S_H to its one three-way view (Fig. 3 rule 7) before serving:
  // the paper join stays feasible through it, and revoking it later
  // empties S_H's rule set.
  FrontDoor door = MakeDoor();
  authz::Authorization three_way;
  for (const authz::Authorization& rule :
       fix_.auths.ForServer(testing::Server(fix_.cat, "S_H"))) {
    if (rule.path.size() == 2) {
      three_way = rule;
    } else {
      ASSERT_OK(door.RevokeRule(rule).status());
    }
  }
  ASSERT_EQ(door.policy_epoch(), 3u);

  ASSERT_OK_AND_ASSIGN(const Response paper_cold,
                       door.Serve(Req(paper_sql_)));
  ASSERT_OK_AND_ASSIGN(const Response ins_cold,
                       door.Serve(Req(insurance_sql_)));
  ASSERT_OK_AND_ASSIGN(const Response paper_warm,
                       door.Serve(Req(paper_sql_)));
  EXPECT_TRUE(paper_warm.plan_cache_hit);
  EXPECT_EQ(paper_cold.policy_epoch, 3u);
  EXPECT_EQ(
      obs::MetricsRegistry::Get().Counter("serve.plan_cache.stale_evictions"),
      stale_before);

  // Revoke S_H's last rule. Its rule set empties, which flips the deny
  // reason of every profile probed at S_H, so the delta is full: the epoch
  // bumps, and BOTH cached entries (the now-infeasible paper join AND the
  // untouched Insurance lookup) must be invalidated — entries are stamped
  // per epoch, so a stale hit is structurally impossible.
  ASSERT_OK_AND_ASSIGN(const authz::ClosureDelta revoked,
                       door.RevokeRule(three_way));
  EXPECT_TRUE(revoked.full);
  EXPECT_EQ(door.policy_epoch(), 4u);
  EXPECT_EQ(door.Stats().plan_cache_size, 0u);
  EXPECT_EQ(
      obs::MetricsRegistry::Get().Counter("serve.plan_cache.stale_evictions"),
      stale_before + 2)
      << "the epoch bump must sweep exactly the two cached entries";

  // The paper join is now infeasible — a stale cache hit would have
  // returned the old rows instead of this typed verdict.
  const Result<Response> paper_after = door.Serve(Req(paper_sql_));
  ASSERT_FALSE(paper_after.ok());
  EXPECT_EQ(paper_after.status().code(), StatusCode::kInfeasible);

  // The Insurance lookup replans under epoch 4 (a miss, not a hit) and
  // still returns the identical bytes.
  ASSERT_OK_AND_ASSIGN(const Response ins_after,
                       door.Serve(Req(insurance_sql_)));
  EXPECT_FALSE(ins_after.plan_cache_hit);
  EXPECT_EQ(ins_after.policy_epoch, 4u);
  EXPECT_TRUE(TablesIdentical(ins_cold.table, ins_after.table));

  // Entries inserted after the bump are unaffected by it: the re-served
  // lookup now hits.
  ASSERT_OK_AND_ASSIGN(const Response ins_rewarm,
                       door.Serve(Req(insurance_sql_)));
  EXPECT_TRUE(ins_rewarm.plan_cache_hit);
  EXPECT_TRUE(TablesIdentical(ins_cold.table, ins_rewarm.table));
}

TEST_F(ServingTest, CanViewMemoHitReturnsTheColdExplanation) {
  authz::CachingPolicy memo(fix_.auths);
  const plan::QueryPlan plan = fix_.PaperPlan();
  const std::vector<authz::Profile> profiles =
      planner::ComputeNodeProfiles(fix_.cat, plan);
  ASSERT_FALSE(profiles.empty());
  const catalog::ServerId insurance = testing::Server(fix_.cat, "S_I");

  const authz::CanViewExplanation cold =
      memo.ExplainCanView(profiles[0], insurance);
  const authz::CanViewExplanation warm =
      memo.ExplainCanView(profiles[0], insurance);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), 1u);
  // The memo stores full explanations: the audit evidence is identical on
  // a hit and a miss.
  EXPECT_EQ(cold.allowed, warm.allowed);
  EXPECT_EQ(cold.reason, warm.reason);
  EXPECT_EQ(cold.matched_attributes, warm.matched_attributes);
  EXPECT_EQ(cold.missing_attributes, warm.missing_attributes);
}

TEST_F(ServingTest, IncrementalEditMatchesFromScratchDoor) {
  // Grant, then revoke, through the incremental path; after each edit the
  // long-lived door must answer byte-identically to a door built from
  // scratch on the edited rule set.
  FrontDoor door = MakeDoor();
  ASSERT_OK(door.Serve(Req(paper_sql_)).status());  // warm the caches

  authz::Authorization extra;
  extra.server = testing::Server(fix_.cat, "S_D");
  extra.attributes.Insert(testing::Attr(fix_.cat, "Holder"));
  extra.attributes.Insert(testing::Attr(fix_.cat, "Plan"));
  ASSERT_OK_AND_ASSIGN(const authz::ClosureDelta granted,
                       door.AddRule(extra));
  EXPECT_TRUE(granted.changed());
  EXPECT_GE(granted.added_rules, 1u);
  EXPECT_EQ(door.policy_epoch(), 1u);

  authz::AuthorizationSet edited = fix_.auths;
  ASSERT_OK(edited.Add(fix_.cat, extra));
  FrontDoor fresh(fix_.cat, edited, *cluster_, &stats_, ServeOptions{});
  ASSERT_OK_AND_ASSIGN(const Response inc_ans, door.Serve(Req(paper_sql_)));
  ASSERT_OK_AND_ASSIGN(const Response fresh_ans,
                       fresh.Serve(Req(paper_sql_)));
  EXPECT_TRUE(TablesIdentical(inc_ans.table, fresh_ans.table));

  ASSERT_OK_AND_ASSIGN(const authz::ClosureDelta revoked,
                       door.RevokeRule(extra));
  EXPECT_GE(revoked.removed_rules, 1u);
  EXPECT_EQ(door.policy_epoch(), 2u);
  FrontDoor original = MakeDoor();
  ASSERT_OK_AND_ASSIGN(const Response back, door.Serve(Req(paper_sql_)));
  ASSERT_OK_AND_ASSIGN(const Response want, original.Serve(Req(paper_sql_)));
  EXPECT_TRUE(TablesIdentical(back.table, want.table));

  // Editing a rule that is not there fails typed and changes nothing.
  const Result<authz::ClosureDelta> missing = door.RevokeRule(extra);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(door.policy_epoch(), 2u);
}

TEST_F(ServingTest, ChaseCapServesRawRulesUntilAnEditFitsUnderIt) {
  // The Fig. 3 chase derives 6 rules, and 5 without rule 2 (S_I's view of
  // Insurance⋈Hospital). Under a cap of 5 the door serves the raw rules,
  // then the closure once a revoke fits it under the cap, then the raw
  // rules again once a grant trips the cap in the middle of the edit —
  // rules that keep the grant, so revoking it once more fits again.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Get();
  metrics.Enable();
  const std::uint64_t capped_before = metrics.Counter("serve.chase_capped");
  ServeOptions options;
  options.chase.max_derived_rules = 5;
  FrontDoor door = MakeDoor(options);
  // Feasible only through a derived S_H rule.
  Request probe = Req(
      "SELECT Holder, Plan, Patient, Disease, Citizen, HealthAid FROM "
      "Insurance JOIN Hospital ON Holder = Patient JOIN Nat_registry ON "
      "Patient = Citizen");
  probe.requestor = testing::Server(fix_.cat, "S_H");

  const Result<Response> capped = door.Serve(probe);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(metrics.Counter("serve.chase_capped"), capped_before + 1);

  const authz::Authorization rule2{
      testing::Attrs(fix_.cat, {"Holder", "Plan", "Patient", "Physician"}),
      testing::Path(fix_.cat, {{"Holder", "Patient"}}),
      testing::Server(fix_.cat, "S_I")};
  ASSERT_OK_AND_ASSIGN(const authz::ClosureDelta revoked,
                       door.RevokeRule(rule2));
  EXPECT_TRUE(revoked.full) << "every capped edit sweeps in full";
  EXPECT_EQ(door.policy_epoch(), 1u);
  authz::AuthorizationSet without_rule2 = fix_.auths;
  ASSERT_OK(without_rule2.Remove(fix_.cat, rule2));
  FrontDoor uncapped(fix_.cat, without_rule2, *cluster_, &stats_);
  ASSERT_OK_AND_ASSIGN(const Response fits, door.Serve(probe));
  ASSERT_OK_AND_ASSIGN(const Response want, uncapped.Serve(probe));
  EXPECT_EQ(fits.policy_epoch, 1u);
  EXPECT_TRUE(TablesIdentical(fits.table, want.table));

  ASSERT_OK_AND_ASSIGN(const authz::ClosureDelta granted, door.AddRule(rule2));
  EXPECT_TRUE(granted.full) << "the cap trips in the middle of the edit";
  EXPECT_EQ(door.policy_epoch(), 2u);
  const Result<Response> capped_again = door.Serve(probe);
  ASSERT_FALSE(capped_again.ok());
  EXPECT_EQ(capped_again.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(metrics.Counter("serve.chase_capped"), capped_before + 2);

  ASSERT_OK(door.RevokeRule(rule2).status());
  ASSERT_OK_AND_ASSIGN(const Response fits_again, door.Serve(probe));
  EXPECT_EQ(fits_again.policy_epoch, 3u);
  EXPECT_TRUE(TablesIdentical(fits_again.table, want.table));
}

TEST_F(ServingTest, DistinctQueryServesItsDuplicateFreeAnswer) {
  // The searched plan must keep SELECT DISTINCT's duplicate-eliminating π.
  const std::string distinct_sql =
      "SELECT DISTINCT Plan FROM Insurance JOIN Nat_registry ON Holder = "
      "Citizen";
  FrontDoor door = MakeDoor();
  ASSERT_OK_AND_ASSIGN(const Response served, door.Serve(Req(distinct_sql)));
  const storage::Table sorted = served.table.Canonicalized();
  EXPECT_TRUE(std::adjacent_find(sorted.rows().begin(), sorted.rows().end()) ==
              sorted.rows().end())
      << "duplicate rows in a DISTINCT answer";

  ASSERT_OK_AND_ASSIGN(const plan::QuerySpec spec,
                       sql::ParseAndBind(fix_.cat, distinct_sql));
  ASSERT_OK_AND_ASSIGN(const plan::QueryPlan plan,
                       plan::PlanBuilder(fix_.cat).Build(spec));
  ASSERT_OK_AND_ASSIGN(const storage::Table want,
                       exec::ExecuteCentralized(*cluster_, plan));
  EXPECT_TRUE(storage::Table::SameRowMultiset(served.table, want));
}

TEST_F(ServingTest, DisjointEditRetainsPlanCacheAcrossTheEpochBump) {
  // An edit touching only Disease_list cannot change any verdict the cached
  // Insurance/paper plans depend on: the entries are re-stamped into the
  // new epoch and the very next requests hit, byte-identically.
  FrontDoor door = MakeDoor();
  ASSERT_OK_AND_ASSIGN(const Response paper_cold,
                       door.Serve(Req(paper_sql_)));
  ASSERT_OK_AND_ASSIGN(const Response ins_cold,
                       door.Serve(Req(insurance_sql_)));

  authz::Authorization disjoint;
  disjoint.server = testing::Server(fix_.cat, "S_I");
  disjoint.attributes.Insert(testing::Attr(fix_.cat, "Illness"));
  ASSERT_OK_AND_ASSIGN(const authz::ClosureDelta delta,
                       door.AddRule(disjoint));
  EXPECT_FALSE(delta.full);
  EXPECT_EQ(door.policy_epoch(), 1u);

  ASSERT_OK_AND_ASSIGN(const Response paper_after,
                       door.Serve(Req(paper_sql_)));
  ASSERT_OK_AND_ASSIGN(const Response ins_after,
                       door.Serve(Req(insurance_sql_)));
  EXPECT_TRUE(paper_after.plan_cache_hit)
      << "a disjoint edit must not evict the paper join's plan";
  EXPECT_TRUE(ins_after.plan_cache_hit);
  EXPECT_EQ(paper_after.policy_epoch, 1u);
  EXPECT_TRUE(TablesIdentical(paper_cold.table, paper_after.table));
  EXPECT_TRUE(TablesIdentical(ins_cold.table, ins_after.table));
  EXPECT_EQ(door.Stats().plan_cache_retained, 2u);
  EXPECT_EQ(door.Stats().plan_cache_stale_evictions, 0u);

  // An overlapping edit (Insurance attributes) evicts both entries: the
  // paper join and the Insurance lookup replan cold under epoch 2.
  authz::Authorization overlapping;
  overlapping.server = testing::Server(fix_.cat, "S_D");
  overlapping.attributes.Insert(testing::Attr(fix_.cat, "Holder"));
  ASSERT_OK(door.AddRule(overlapping).status());
  ASSERT_OK_AND_ASSIGN(const Response paper_cold2,
                       door.Serve(Req(paper_sql_)));
  EXPECT_FALSE(paper_cold2.plan_cache_hit);
  EXPECT_EQ(paper_cold2.policy_epoch, 2u);
  EXPECT_TRUE(TablesIdentical(paper_cold.table, paper_cold2.table));
}

TEST_F(ServingTest, AdvanceEpochNeverRevivesEntriesAcrossAnInterveningEdit) {
  // A Serve that captured epoch 0 can Insert its entry after the edit to
  // epoch 1 already swept. If that edit's delta intersected the entry's
  // relations the entry is dead, and a later *disjoint* edit to epoch 2
  // must not re-stamp it back to life: only entries of the immediately
  // prior epoch are retention candidates.
  PlanCache cache(4);
  CachedPlanEntry late;
  late.epoch = 0;
  late.relations.Insert(1);
  IdSet intersecting;  // the epoch-1 edit touched relation 1 …
  intersecting.Insert(1);
  cache.AdvanceEpoch(1, intersecting);  // … and swept before the insert
  cache.Insert("late", late);           // stamped 0: already invalid

  CachedPlanEntry fresh;  // planned under epoch 1, legitimately retainable
  fresh.epoch = 1;
  fresh.relations.Insert(1);
  cache.Insert("fresh", fresh);

  IdSet disjoint;  // the epoch-2 edit touches neither entry's relations
  disjoint.Insert(2);
  EXPECT_EQ(cache.AdvanceEpoch(2, disjoint), 1u) << "only \"fresh\" survives";
  EXPECT_FALSE(cache.Lookup("late", 2).has_value())
      << "an entry that straddled the epoch-1 edit must not be revived";
  EXPECT_TRUE(cache.Lookup("fresh", 2).has_value());
}

TEST_F(ServingTest, PlanCacheInsertNeverReplacesANewerEntry) {
  // A request planned under epoch 1 can finish after another request
  // stored the same key under epoch 2. Overwriting the newer entry made
  // the next epoch-2 lookup evict the older one as stale and plan again.
  PlanCache cache(4);
  CachedPlanEntry newer;
  newer.epoch = 2;
  newer.verdict = InfeasibleError("planned under epoch 2");
  CachedPlanEntry older;
  older.epoch = 1;
  older.verdict = InfeasibleError("planned under epoch 1");
  cache.Insert("k", newer);
  cache.Insert("k", older);
  const std::optional<CachedPlanEntry> kept = cache.Lookup("k", 2);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->verdict.message(), "planned under epoch 2");
  EXPECT_EQ(cache.stale_evictions(), 0u);
  EXPECT_EQ(cache.hits(), 1u);

  // A same-epoch or newer entry still replaces.
  CachedPlanEntry newest;
  newest.epoch = 3;
  newest.verdict = InfeasibleError("planned under epoch 3");
  cache.Insert("k", newest);
  const std::optional<CachedPlanEntry> replaced = cache.Lookup("k", 3);
  ASSERT_TRUE(replaced.has_value());
  EXPECT_EQ(replaced->verdict.message(), "planned under epoch 3");
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ServingTest, PlanCacheCapacityZeroIsClampedToOne) {
  // Regression: capacity 0 used to dereference lru_.back() on an empty list
  // in Insert. The constructor clamps to one slot.
  PlanCache cache(/*capacity=*/0);
  CachedPlanEntry entry;
  entry.epoch = 0;
  cache.Insert("a", entry);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Lookup("a", 0).has_value());
  cache.Insert("b", entry);  // evicts "a" instead of crashing
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Lookup("a", 0).has_value());
  EXPECT_TRUE(cache.Lookup("b", 0).has_value());
}

TEST_F(ServingTest, StaleLookupCountsStaleOnlyNeverAlsoMiss) {
  // Lookup outcomes partition into {hit, miss, stale_eviction}; a stale hit
  // used to double-count as a miss, inflating miss rates after every epoch
  // bump. Pin the partition on both the cache counters and the obs metrics.
  obs::MetricsRegistry::Get().Enable();
  const std::uint64_t miss_metric_before =
      obs::MetricsRegistry::Get().Counter("serve.plan_cache.miss");
  const std::uint64_t stale_metric_before =
      obs::MetricsRegistry::Get().Counter("serve.plan_cache.stale_evictions");

  PlanCache cache(4);
  CachedPlanEntry entry;
  entry.epoch = 0;
  cache.Insert("k", entry);
  EXPECT_FALSE(cache.Lookup("k", 1).has_value());  // stale, evicted
  EXPECT_EQ(cache.stale_evictions(), 1u);
  EXPECT_EQ(cache.misses(), 0u) << "a stale hit is not a miss";
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_FALSE(cache.Lookup("k", 1).has_value());  // now truly absent
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stale_evictions(), 1u);
  EXPECT_EQ(obs::MetricsRegistry::Get().Counter("serve.plan_cache.miss"),
            miss_metric_before + 1);
  EXPECT_EQ(
      obs::MetricsRegistry::Get().Counter("serve.plan_cache.stale_evictions"),
      stale_metric_before + 1);
}

TEST_F(ServingTest, AdmissionDeadlineFailsTypedAndNeverWedgesTheQueue) {
  // A waiter whose deadline passes gets a typed kResourceExhausted; its
  // abandoned FIFO ticket must not block later arrivals.
  AdmissionController admission(/*max_concurrent=*/1, /*max_queue=*/8,
                                /*max_wait_us=*/5000);
  ASSERT_OK_AND_ASSIGN(AdmissionController::Ticket gate, admission.Admit());
  std::vector<Result<AdmissionController::Ticket>> timed_out;
  timed_out.emplace_back(InternalError("unset"));
  timed_out.emplace_back(InternalError("unset"));
  {
    std::vector<std::thread> waiters;
    for (std::size_t i = 0; i < timed_out.size(); ++i) {
      while (admission.queued() < i) std::this_thread::yield();
      waiters.emplace_back([&, i] { timed_out[i] = admission.Admit(); });
    }
    for (std::thread& t : waiters) t.join();  // both deadlines pass
  }
  for (const Result<AdmissionController::Ticket>& r : timed_out) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().message().find("max_wait_us"), std::string::npos);
  }
  EXPECT_EQ(admission.rejected(), 2u);
  EXPECT_EQ(admission.queued(), 0u);

  // Release the slot: a fresh request must be admitted promptly even though
  // two abandoned tickets sit between it and the old FIFO head. (If the
  // hand-off were wedged, this would time out and fail typed, not hang.)
  gate = AdmissionController::Ticket();
  ASSERT_OK_AND_ASSIGN(AdmissionController::Ticket next, admission.Admit());
  (void)next;
  EXPECT_EQ(admission.admitted(), 2u);
}

TEST_F(ServingTest, AdmissionRejectsBeyondTheQueueBound) {
  AdmissionController admission(/*max_concurrent=*/1, /*max_queue=*/0);
  ASSERT_OK_AND_ASSIGN(AdmissionController::Ticket first, admission.Admit());
  // The slot is held and the queue holds zero: the next request fails fast.
  const Result<AdmissionController::Ticket> second = admission.Admit();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.rejected(), 1u);
  first = AdmissionController::Ticket();  // release
  ASSERT_OK_AND_ASSIGN(AdmissionController::Ticket third,
                       admission.Admit());
  (void)third;
  EXPECT_EQ(admission.admitted(), 2u);
}

TEST_F(ServingTest, AdmissionServesWaitersInFifoOrder) {
  AdmissionController admission(/*max_concurrent=*/1, /*max_queue=*/64);
  constexpr std::size_t kWaiters = 8;
  std::vector<std::size_t> order;
  std::mutex order_mu;
  ASSERT_OK_AND_ASSIGN(AdmissionController::Ticket gate, admission.Admit());
  std::vector<std::thread> waiters;
  for (std::size_t i = 0; i < kWaiters; ++i) {
    // Admission order must equal arrival order; start waiters one at a time
    // so arrival order is well-defined.
    while (admission.queued() < i) std::this_thread::yield();
    waiters.emplace_back([&, i] {
      const Result<AdmissionController::Ticket> t = admission.Admit();
      ASSERT_TRUE(t.ok());
      const std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
    });
  }
  while (admission.queued() < kWaiters) std::this_thread::yield();
  gate = AdmissionController::Ticket();  // open the gate
  for (std::thread& t : waiters) t.join();
  ASSERT_EQ(order.size(), kWaiters);
  for (std::size_t i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(order[i], i) << "waiters must be admitted FIFO";
  }
}

}  // namespace
}  // namespace cisqp::serve
