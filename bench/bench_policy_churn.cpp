// E20 — policy churn: incremental delta-chase under grant/revoke with
// selective cache retention.
//
// Two phases over the medical federation:
//
//   edit cost   an alternating grant/revoke script runs through
//               FrontDoor::AddRule/RevokeRule (semi-naïve delta chase,
//               DESIGN.md §16) while a mirror of the same edits pays a
//               fresh IncrementalClosure::Build of the edited rules per
//               edit. The per-edit incremental cost must be strictly
//               cheaper in aggregate.
//   retention   a door with a warm plan cache takes one edit whose
//               ClosureDelta is disjoint from every cached query (a
//               Disease_list-only grant vs Insurance/Hospital/Nat_registry
//               shapes): the post-edit first-pass hit rate must stay within
//               5 points of the no-edit warm rate, with every answer
//               byte-identical to the cold reference. An overlapping edit is
//               measured alongside to show the eviction it correctly forces.
//
// Claims gated by scripts/check_bench_regression.sh: aggregate incremental
// edit cost below the full-recompute cost (speedup >= half the committed
// baseline), and disjoint-edit hit-rate within 5 points of no-edit.
// Byte-identity is unconditional: the binary aborts on any divergence.
#include "bench_util.hpp"

#include <chrono>
#include <string>
#include <vector>

#include "authz/chase.hpp"
#include "authz/incremental.hpp"
#include "exec/cluster.hpp"
#include "serve/front_door.hpp"

namespace cisqp::bench {
namespace {

using workload::MedicalScenario;

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct World {
  catalog::Catalog cat = MedicalScenario::BuildCatalog();
  authz::AuthorizationSet auths = MedicalScenario::BuildAuthorizations(cat);
  exec::Cluster cluster{cat};
  plan::StatsCatalog stats;

  World() {
    Rng rng(2026);
    UnwrapStatus(MedicalScenario::PopulateCluster(
                     cluster, MedicalScenario::DataConfig{64, 0.4, 0.6, 10},
                     rng),
                 "populate cluster");
    stats = MedicalScenario::ComputeStats(cluster);
  }

  serve::FrontDoor MakeDoor() const {
    serve::ServeOptions options;
    options.allow_third_party = true;
    return serve::FrontDoor(cat, auths, cluster, &stats, options);
  }
};

/// The warmed shapes (same family as E19): all touch only Insurance,
/// Hospital, and Nat_registry — never Disease_list.
std::vector<std::string> CachedShapes() {
  const std::string wide{MedicalScenario::kPaperQuery};
  return {wide + " WHERE Holder >= 56",
          wide + " WHERE Holder >= 48 AND Plan <> 'gold'",
          "SELECT Citizen, HealthAid, Patient, Disease FROM Nat_registry "
          "JOIN Hospital ON Citizen = Patient WHERE Citizen >= 56",
          "SELECT Holder, Plan FROM Insurance WHERE Holder >= 56"};
}

authz::Authorization Rule(const catalog::Catalog& cat, std::string_view server,
                          std::vector<std::string_view> attrs) {
  authz::Authorization rule;
  rule.server = Unwrap(cat.FindServer(server), "rule server");
  for (const std::string_view name : attrs) {
    rule.attributes.Insert(Unwrap(cat.FindAttribute(name), "rule attribute"));
  }
  return rule;
}

/// Grant candidates over Disease_list only: their ClosureDelta relations are
/// {Disease_list}, disjoint from every cached shape. Rules already in the
/// base policy are filtered out (AddRule would type them kAlreadyExists).
std::vector<authz::Authorization> DiseaseListRules(const World& world) {
  std::vector<authz::Authorization> rules;
  for (const std::string_view server : {"S_I", "S_H", "S_N"}) {
    for (const std::vector<std::string_view>& attrs :
         std::vector<std::vector<std::string_view>>{
             {"Illness"}, {"Treatment"}, {"Illness", "Treatment"}}) {
      authz::Authorization rule = Rule(world.cat, server, attrs);
      if (!world.auths.Contains(rule)) rules.push_back(rule);
    }
  }
  return rules;
}

bool TablesByteIdentical(const storage::Table& a, const storage::Table& b) {
  if (a.columns() != b.columns() || a.row_count() != b.row_count()) {
    return false;
  }
  for (std::size_t r = 0; r < a.row_count(); ++r) {
    const storage::Row& ra = a.rows()[r];
    const storage::Row& rb = b.rows()[r];
    for (std::size_t c = 0; c < ra.size(); ++c) {
      if (ra[c].CompareTotal(rb[c]) != 0) return false;
    }
  }
  return true;
}

storage::Table ServeOne(serve::FrontDoor& door, const std::string& sql) {
  serve::Request request;
  request.sql = sql;
  return Unwrap(door.Serve(request), "serve").table;
}

/// Warms `door` with every cached shape (one cold serve each).
void Warm(serve::FrontDoor& door, const std::vector<std::string>& shapes) {
  for (const std::string& sql : shapes) (void)ServeOne(door, sql);
}

struct RetentionResult {
  std::size_t requests = 0;
  std::uint64_t hits = 0;
  double hit_rate = 0.0;
  bool identical = true;
};

/// Serves `rounds` passes over the shapes and reports the plan-cache hit
/// rate plus byte-identity against `references`.
RetentionResult ServeRounds(serve::FrontDoor& door,
                            const std::vector<std::string>& shapes,
                            const std::vector<storage::Table>& references,
                            std::size_t rounds) {
  RetentionResult out;
  const std::uint64_t hits_before = door.Stats().plan_cache_hits;
  for (std::size_t i = 0; i < rounds * shapes.size(); ++i) {
    const storage::Table got = ServeOne(door, shapes[i % shapes.size()]);
    if (!TablesByteIdentical(got, references[i % shapes.size()])) {
      out.identical = false;
    }
  }
  out.requests = rounds * shapes.size();
  out.hits = door.Stats().plan_cache_hits - hits_before;
  out.hit_rate = out.requests > 0 ? static_cast<double>(out.hits) /
                                        static_cast<double>(out.requests)
                                  : 0.0;
  return out;
}

void PrintPolicyChurn() {
  PrintHeader("E20: policy churn - incremental delta-chase with selective "
              "cache retention",
              "per-edit incremental update cheaper than a full rechase; a "
              "disjoint edit keeps the warm hit rate within 5 points");
  const World world;
  const std::vector<std::string> shapes = CachedShapes();
  const std::vector<authz::Authorization> rules = DiseaseListRules(world);
  if (rules.empty()) {
    std::fprintf(stderr, "FATAL: no usable Disease_list grant candidates\n");
    std::abort();
  }

  Artifact artifact("policy_churn",
                    "E20: policy churn - incremental delta-chase with "
                    "selective cache retention",
                    "per-edit incremental update cheaper than a full "
                    "rechase; a disjoint edit keeps the warm hit rate "
                    "within 5 points");

  // --- Phase 1: per-edit cost, incremental vs full recompute --------------
  // Every grant is later revoked, so the script ends where it started and
  // both arms chase the same sequence of rule sets.
  serve::FrontDoor door = world.MakeDoor();
  Warm(door, shapes);  // realistic: edits land on a door with live caches
  authz::AuthorizationSet mirror = world.auths;
  const authz::ChaseOptions chase_options;  // the door's own defaults
  std::int64_t inc_total_us = 0;
  std::int64_t full_total_us = 0;
  std::size_t edits = 0;
  const std::size_t kPairs = 24;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const authz::Authorization& rule = rules[i % rules.size()];
    for (const bool grant : {true, false}) {
      std::int64_t t0 = NowUs();
      const auto delta = grant ? door.AddRule(rule) : door.RevokeRule(rule);
      inc_total_us += NowUs() - t0;
      UnwrapStatus(delta.status(), "incremental edit");

      UnwrapStatus(grant ? mirror.Add(world.cat, rule)
                         : mirror.Remove(world.cat, rule),
                   "mirror edit");
      t0 = NowUs();
      const authz::IncrementalClosure full = Unwrap(
          authz::IncrementalClosure::Build(world.cat, mirror, chase_options),
          "full rechase");
      full_total_us += NowUs() - t0;
      ++edits;
    }
  }
  const double inc_mean_us =
      static_cast<double>(inc_total_us) / static_cast<double>(edits);
  const double full_mean_us =
      static_cast<double>(full_total_us) / static_cast<double>(edits);
  const double edit_speedup =
      inc_total_us > 0 ? static_cast<double>(full_total_us) /
                             static_cast<double>(inc_total_us)
                       : 0.0;
  std::printf("%-18s %8s %14s %14s %10s\n", "phase", "edits", "inc_mean_us",
              "full_mean_us", "speedup");
  std::printf("%-18s %8zu %14.1f %14.1f %9.2fx\n", "edit_cost", edits,
              inc_mean_us, full_mean_us, edit_speedup);
  artifact.Row()
      .Value("phase", "edit_cost")
      .Value("edits", edits)
      .Value("inc_total_us", inc_total_us)
      .Value("full_total_us", full_total_us)
      .Value("inc_mean_us", inc_mean_us)
      .Value("full_mean_us", full_mean_us)
      .Value("speedup", edit_speedup);

  // --- Phase 2: warm-hit-rate retention across one edit -------------------
  std::vector<storage::Table> references;
  {
    serve::FrontDoor ref_door = world.MakeDoor();
    for (const std::string& sql : shapes) {
      references.push_back(ServeOne(ref_door, sql));
    }
  }
  const std::size_t kRounds = 15;
  bool all_identical = true;

  // Control: no edit at all.
  serve::FrontDoor no_edit_door = world.MakeDoor();
  Warm(no_edit_door, shapes);
  const RetentionResult no_edit =
      ServeRounds(no_edit_door, shapes, references, kRounds);
  all_identical = all_identical && no_edit.identical;

  // One Disease_list grant: disjoint from every cached shape, so the first
  // post-edit pass must already hit on re-stamped entries.
  serve::FrontDoor disjoint_door = world.MakeDoor();
  Warm(disjoint_door, shapes);
  const authz::ClosureDelta disjoint_delta =
      Unwrap(disjoint_door.AddRule(rules.front()), "disjoint grant");
  const RetentionResult disjoint =
      ServeRounds(disjoint_door, shapes, references, kRounds);
  all_identical = all_identical && disjoint.identical;
  const std::uint64_t retained = disjoint_door.Stats().plan_cache_retained;

  // Contrast: an Insurance grant overlaps the cached shapes, so the first
  // post-edit pass correctly pays one cold planning per shape.
  serve::FrontDoor overlap_door = world.MakeDoor();
  Warm(overlap_door, shapes);
  UnwrapStatus(
      overlap_door.AddRule(Rule(world.cat, "S_N", {"Holder"})).status(),
      "overlap grant");
  const RetentionResult overlap =
      ServeRounds(overlap_door, shapes, references, kRounds);
  all_identical = all_identical && overlap.identical;

  std::printf("%-18s %9s %6s %9s %10s\n", "mode", "requests", "hits",
              "hit_rate", "identical");
  for (const auto& [mode, r] :
       {std::pair<const char*, const RetentionResult&>{"no_edit", no_edit},
        {"disjoint_edit", disjoint},
        {"overlap_edit", overlap}}) {
    std::printf("%-18s %9zu %6llu %8.1f%% %10s\n", mode, r.requests,
                static_cast<unsigned long long>(r.hits), 100.0 * r.hit_rate,
                r.identical ? "yes" : "NO");
    artifact.Row()
        .Value("phase", "retention")
        .Value("mode", mode)
        .Value("requests", r.requests)
        .Value("hits", static_cast<std::size_t>(r.hits))
        .Value("hit_rate", r.hit_rate)
        .Value("identical", r.identical);
  }
  std::printf("disjoint grant retained %llu plan(s); delta touched %zu "
              "relation(s), full=%s\n",
              static_cast<unsigned long long>(retained),
              disjoint_delta.relations.size(),
              disjoint_delta.full ? "yes" : "no");

  const double rate_delta_pts =
      100.0 * (no_edit.hit_rate - disjoint.hit_rate);
  artifact.Row()
      .Value("mode", "summary")
      .Value("edit_speedup", edit_speedup)
      .Value("inc_mean_us", inc_mean_us)
      .Value("full_mean_us", full_mean_us)
      .Value("no_edit_hit_rate", no_edit.hit_rate)
      .Value("disjoint_hit_rate", disjoint.hit_rate)
      .Value("hit_rate_delta_pts", rate_delta_pts)
      .Value("retained", static_cast<std::size_t>(retained))
      .Value("identical", all_identical);
  artifact.Write();

  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: a post-edit answer differed from its reference\n");
    std::abort();
  }
}

void BM_IncrementalGrantRevokePair(benchmark::State& state) {
  const World world;
  serve::FrontDoor door = world.MakeDoor();
  Warm(door, CachedShapes());
  const authz::Authorization rule =
      Rule(world.cat, "S_N", {"Illness", "Treatment"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(door.AddRule(rule));
    benchmark::DoNotOptimize(door.RevokeRule(rule));
  }
}
BENCHMARK(BM_IncrementalGrantRevokePair)->Unit(benchmark::kMicrosecond);

void BM_FullRechase(benchmark::State& state) {
  const World world;
  authz::AuthorizationSet base = world.auths;
  UnwrapStatus(base.Add(world.cat,
                        Rule(world.cat, "S_N", {"Illness", "Treatment"})),
               "grant");
  for (auto _ : state) {
    auto closed = authz::ChaseClosure(world.cat, base);
    benchmark::DoNotOptimize(closed);
  }
}
BENCHMARK(BM_FullRechase)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cisqp::bench

int main(int argc, char** argv) {
  cisqp::bench::PrintPolicyChurn();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
