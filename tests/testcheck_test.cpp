// Tests for the differential-testing library (DESIGN.md §11): scenario
// generation and repro round-trips, the edit/clone machinery the minimizer
// builds on, clean-campaign greenness, and the acceptance check that a
// deliberately planted planner fault is caught and shrunk to a tiny repro.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "test_util.hpp"
#include "testcheck/harness.hpp"
#include "testcheck/minimizer.hpp"
#include "testcheck/scenario.hpp"

namespace cisqp::testcheck {
namespace {

/// Sets an environment variable for the enclosing scope, unsetting it on
/// exit even when an ASSERT bails out of the test body.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

std::size_t TotalRows(const Scenario& s) {
  std::size_t total = 0;
  for (const auto& table : s.rows) total += table.size();
  return total;
}

/// First seed in [1, limit] the generator accepts, as a scenario.
Result<Scenario> FirstUsableScenario(const ScenarioConfig& config,
                                     std::uint64_t limit = 50) {
  for (std::uint64_t seed = 1; seed <= limit; ++seed) {
    Result<Scenario> s = GenerateScenario(config, seed);
    if (s.ok()) return s;
  }
  return NotFoundError("no usable seed in range");
}

TEST(ScenarioGeneration, SameSeedIsDeterministic) {
  const ScenarioConfig config;
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Result<Scenario> a = GenerateScenario(config, seed);
    Result<Scenario> b = GenerateScenario(config, seed);
    ASSERT_EQ(a.ok(), b.ok()) << "seed " << seed;
    if (!a.ok()) continue;
    EXPECT_EQ(a->ToReproText(), b->ToReproText()) << "seed " << seed;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST(ScenarioGeneration, ReproTextRoundTrips) {
  const ScenarioConfig config;
  std::size_t round_tripped = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Result<Scenario> s = GenerateScenario(config, seed);
    if (!s.ok()) continue;
    const std::string text = s->ToReproText();
    ASSERT_OK_AND_ASSIGN(Scenario parsed, ParseReproText(text));
    // Parsing then re-rendering is a fixed point: same schema, same policy,
    // same rows, same query.
    EXPECT_EQ(parsed.ToReproText(), text) << "seed " << seed;
    ++round_tripped;
  }
  EXPECT_GT(round_tripped, 10u);
}

// A hand-written repro over one relation with a cell of every type.
std::string OneRowRepro(const std::string& cells,
                        const std::string& seed = "1") {
  return "seed " + seed +
         "\n"
         "server S0;\n"
         "relation R1 @ S0 (R1_A0 int key, R1_A1 double, R1_A2 string);\n"
         "row R1 (" +
         cells +
         ");\n"
         "query SELECT R1_A0 FROM R1\n";
}

TEST(ScenarioGeneration, ReproCellsRoundTripAtTheirExtremes) {
  // Everything the generator and the minimizer write must read back as the
  // same cell: int64 extremes, finite doubles (negative zero and the
  // largest magnitudes too), escaped strings and null.
  for (const std::string& cells :
       {std::string("-9223372036854775808, -0.0, \"a \\\"quoted\\\" cell\""),
        std::string("9223372036854775807, 1.7976931348623157e+308, null"),
        std::string("0, 4.9406564584124654e-324, \"\""),
        std::string("null, 0.10000000000000001, \"x\"")}) {
    const std::string text = OneRowRepro(cells);
    ASSERT_OK_AND_ASSIGN(Scenario parsed, ParseReproText(text));
    ASSERT_EQ(parsed.rows.size(), 1u);
    ASSERT_EQ(parsed.rows[0].size(), 1u);
    ASSERT_OK_AND_ASSIGN(Scenario again, ParseReproText(parsed.ToReproText()));
    EXPECT_EQ(again.ToReproText(), parsed.ToReproText()) << cells;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(again.rows[0][0][c].CompareTotal(parsed.rows[0][0][c]), 0)
          << cells << " column " << c;
    }
  }
  ASSERT_OK_AND_ASSIGN(Scenario zero,
                       ParseReproText(OneRowRepro("1, -0.0, null")));
  EXPECT_TRUE(std::signbit(zero.rows[0][0][1].AsDouble()));
}

TEST(ScenarioGeneration, MalformedNumericCellsAreTypedErrors) {
  // A corrupted corpus file must not replay as a different scenario: a
  // trailing suffix, a non-numeric token and an int64 overflow are all
  // kInvalidArgument, never 12, 0 and INT64_MAX.
  for (const char* bad : {"12abc", "abc", "99999999999999999999"}) {
    const Result<Scenario> parsed =
        ParseReproText(OneRowRepro(std::string(bad) + ", 1.5, null"));
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  const Result<Scenario> bad_double =
      ParseReproText(OneRowRepro("1, 1.5x, null"));
  EXPECT_EQ(bad_double.status().code(), StatusCode::kInvalidArgument);
  // The seed drives the edits arm's grant/revoke script, so it is held to
  // the same rule.
  for (const char* bad : {"12abc", "abc", "18446744073709551616"}) {
    const Result<Scenario> parsed =
        ParseReproText(OneRowRepro("1, 1.5, null", bad));
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  ASSERT_OK_AND_ASSIGN(
      Scenario max_seed,
      ParseReproText(OneRowRepro("1, 1.5, null", "18446744073709551615")));
  EXPECT_EQ(max_seed.seed, 18446744073709551615u);
}

TEST(ScenarioEditing, CloneReproducesTheScenarioExactly) {
  ASSERT_OK_AND_ASSIGN(Scenario s, FirstUsableScenario({}));
  ASSERT_OK_AND_ASSIGN(Scenario clone, CloneScenario(s));
  EXPECT_EQ(clone.ToReproText(), s.ToReproText());
}

TEST(ScenarioEditing, DroppingAGrantRemovesExactlyThatGrant) {
  ASSERT_OK_AND_ASSIGN(Scenario s, FirstUsableScenario({}));
  ASSERT_GT(s.auths.size(), 0u);
  ScenarioEdit edit;
  edit.drop_grants.push_back(0);
  ASSERT_OK_AND_ASSIGN(Scenario edited, ApplyEdit(s, edit));
  EXPECT_EQ(edited.auths.size(), s.auths.size() - 1);
  EXPECT_EQ(edited.catalog.relation_count(), s.catalog.relation_count());
}

TEST(ScenarioEditing, HalvingRowsShrinksEveryNonEmptyRelation) {
  ASSERT_OK_AND_ASSIGN(Scenario s, FirstUsableScenario({}));
  ScenarioEdit edit;
  edit.halve_rows = true;
  ASSERT_OK_AND_ASSIGN(Scenario edited, ApplyEdit(s, edit));
  ASSERT_EQ(edited.rows.size(), s.rows.size());
  for (std::size_t r = 0; r < s.rows.size(); ++r) {
    // Keeps every second row: ceil(n / 2) survive.
    EXPECT_EQ(edited.rows[r].size(), (s.rows[r].size() + 1) / 2);
  }
  EXPECT_LT(TotalRows(edited), TotalRows(s));
}

TEST(ScenarioEditing, DroppingAQueryRelationIsRejected) {
  ASSERT_OK_AND_ASSIGN(Scenario s, FirstUsableScenario({}));
  ScenarioEdit edit;
  edit.drop_relations.Insert(
      static_cast<IdSet::value_type>(s.query.first_relation));
  // The rebuilt query would reference a dropped relation — the minimizer
  // treats this as "candidate rejected", not as a crash.
  EXPECT_FALSE(ApplyEdit(s, edit).ok());
}

TEST(DifferentialCheck, CleanSeedsProduceNoMismatches) {
  const ScenarioConfig config;
  const CheckOptions options;
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 30 && checked < 20; ++seed) {
    Result<Scenario> s = GenerateScenario(config, seed);
    if (!s.ok()) continue;
    ASSERT_OK_AND_ASSIGN(CheckReport report, CheckScenario(*s, options));
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.ToString();
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

TEST(DifferentialCheck, PlantedUnsafePlanIsCaughtAndMinimized) {
  // The acceptance gate for the whole harness: a planner bug deliberately
  // planted behind a hidden env flag (skip the Def. 3.3 check on the right
  // side of regular joins — DESIGN.md §11.4) must be found by the campaign
  // and shrunk to a repro of at most 3 relations and 4 grants.
  const ScenarioConfig config;
  CheckOptions options;
  std::optional<Scenario> failing;
  MismatchKind kind = MismatchKind::kPipelineError;
  std::optional<Scenario> minimal;
  {
    EnvGuard plant("CISQP_FUZZ_PLANT_SKIP_RIGHT_CHECK", "1");
    for (std::uint64_t seed = 1; seed <= 200 && !failing; ++seed) {
      Result<Scenario> s = GenerateScenario(config, seed);
      if (!s.ok()) continue;
      ASSERT_OK_AND_ASSIGN(CheckReport report, CheckScenario(*s, options));
      if (!report.ok()) {
        kind = report.mismatches.front().kind;
        failing = std::move(*s);
      }
    }
    ASSERT_TRUE(failing.has_value())
        << "the planted fault never fired within 200 seeds";

    const auto fails = [&](const Scenario& candidate) {
      const Result<CheckReport> report = CheckScenario(candidate, options);
      if (!report.ok()) return false;
      for (const Mismatch& m : report->mismatches) {
        if (m.kind == kind) return true;
      }
      return false;
    };
    ASSERT_OK_AND_ASSIGN(Scenario clone, CloneScenario(*failing));
    MinimizeStats stats;
    minimal = MinimizeScenario(std::move(clone), fails, {}, &stats);
    EXPECT_GT(stats.candidates_tried, 0u);
    EXPECT_LE(minimal->catalog.relation_count(), 3u);
    EXPECT_LE(minimal->auths.size(), 4u);
    EXPECT_TRUE(fails(*minimal)) << minimal->ToReproText();

    // The minimized repro survives a text round-trip and still fails.
    ASSERT_OK_AND_ASSIGN(Scenario replayed,
                         ParseReproText(minimal->ToReproText()));
    EXPECT_TRUE(fails(replayed));
  }

  // With the fault unplanted the very same scenario is green again.
  ASSERT_OK_AND_ASSIGN(CheckReport clean, CheckScenario(*minimal, options));
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

}  // namespace
}  // namespace cisqp::testcheck
