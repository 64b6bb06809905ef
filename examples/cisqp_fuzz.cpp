// cisqp-fuzz — the differential fuzzing driver (DESIGN.md §11, EXPERIMENTS E15).
//
//   ./build/examples/cisqp-fuzz --seeds=500                # a campaign
//   ./build/examples/cisqp-fuzz --seeds=32 --time-budget=60
//   ./build/examples/cisqp-fuzz --replay tests/corpus/x.repro
//   ./build/examples/cisqp-fuzz --replay failing.repro --minimize
//
// Campaign mode draws one scenario per seed, runs the production pipeline
// (chase → feasibility-aware plan search → distributed execution, sequential
// and parallel, plus serving and policy edits) against the brute-force
// oracles, and on any mismatch shrinks the scenario with the
// delta-debugging minimizer and writes a self-contained repro file to
// --out-dir. Exit status: 0 = all green, 1 = mismatches found, 2 = usage or
// I/O error.
//
// Flags:
//   --seeds=N          seeds to try (default 100)
//   --seed-start=K     first seed (default 1); K + N must fit in uint64
//   --time-budget=SEC  stop the campaign after SEC seconds, a finite
//                      number >= 0 (0 = no budget; a trailing 's' is
//                      accepted: --time-budget=60s)
//   --threads=N        parallel-arm thread count, 1 to 256 (default 2)
//   --no-exec          skip the execution arms (planning-only campaign)
//   --out-dir=DIR      where minimized repro files go (default .)
//   --replay FILE      check one repro file instead of a campaign
//   --minimize         with --replay: shrink a failing repro, write FILE.min
//
// N, K and the thread count are unsigned decimal integers; a malformed or
// out-of-range value is a usage error (exit 2) naming its flag.
//
// When $CISQP_BENCH_OUT_DIR is set, a BENCH_fuzz_throughput.json artifact
// (scenarios/sec, oracle-vs-production wall-time ratio) is written there,
// matching the bench harness's artifact shape.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/trace.hpp"
#include "testcheck/harness.hpp"
#include "testcheck/minimizer.hpp"
#include "testcheck/scenario.hpp"

using namespace cisqp;

namespace {

struct Flags {
  std::uint64_t seeds = 100;
  std::uint64_t seed_start = 1;
  double time_budget_sec = 0.0;
  std::size_t threads = 2;
  bool check_execution = true;
  std::string out_dir = ".";
  std::string replay_file;
  bool minimize = false;
};

constexpr std::uint64_t kMaxThreads = 256;

/// Reads all of `text` as an unsigned decimal integer: digits only, no sign,
/// no overflow.
bool ParseUint(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Reads all of `text` as a finite number of seconds >= 0, with an optional
/// trailing 's'.
bool ParseSeconds(std::string_view text, double& out) {
  if (!text.empty() && (text.back() == 's' || text.back() == 'S')) {
    text.remove_suffix(1);
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && std::isfinite(out) && out >= 0;
}

bool BadValue(std::string_view flag, std::string_view value,
              const char* expected) {
  std::fprintf(stderr, "invalid %.*s value '%.*s': expected %s\n",
               static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(value.size()), value.data(), expected);
  return false;
}

bool ParseFlags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&](std::string_view prefix) -> std::string_view {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--seeds=", 0) == 0) {
      const std::string_view v = value_of("--seeds=");
      if (!ParseUint(v, flags.seeds)) {
        return BadValue("--seeds", v, "an unsigned integer");
      }
    } else if (arg.rfind("--seed-start=", 0) == 0) {
      const std::string_view v = value_of("--seed-start=");
      if (!ParseUint(v, flags.seed_start)) {
        return BadValue("--seed-start", v, "an unsigned integer");
      }
    } else if (arg.rfind("--time-budget=", 0) == 0) {
      const std::string_view v = value_of("--time-budget=");
      if (!ParseSeconds(v, flags.time_budget_sec)) {
        return BadValue("--time-budget", v, "a finite number of seconds >= 0");
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      const std::string_view v = value_of("--threads=");
      std::uint64_t n = 0;
      if (!ParseUint(v, n) || n < 1 || n > kMaxThreads) {
        return BadValue("--threads", v, "an integer from 1 to 256");
      }
      flags.threads = static_cast<std::size_t>(n);
    } else if (arg == "--no-exec") {
      flags.check_execution = false;
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      flags.out_dir = std::string(value_of("--out-dir="));
    } else if (arg.rfind("--replay=", 0) == 0) {
      flags.replay_file = std::string(value_of("--replay="));
    } else if (arg == "--replay" && i + 1 < argc) {
      flags.replay_file = argv[++i];
    } else if (arg == "--minimize") {
      flags.minimize = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", std::string(arg).c_str());
      return false;
    }
  }
  // The campaign runs seeds [K, K + N); its end must not wrap.
  constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  if (flags.seeds > kMaxU64 - flags.seed_start) {
    std::fprintf(stderr,
                 "invalid --seeds value %llu: with --seed-start=%llu the seed "
                 "range overflows uint64\n",
                 static_cast<unsigned long long>(flags.seeds),
                 static_cast<unsigned long long>(flags.seed_start));
    return false;
  }
  return true;
}

testcheck::CheckOptions MakeCheckOptions(const Flags& flags) {
  testcheck::CheckOptions options;
  options.threads = flags.threads;
  options.check_execution = flags.check_execution;
  return options;
}

/// The minimizer's predicate: the candidate reproduces a mismatch of the
/// same kind the original run found.
testcheck::FailurePredicate SameKindPredicate(
    const testcheck::CheckOptions& options, testcheck::MismatchKind kind) {
  return [options, kind](const testcheck::Scenario& candidate) {
    const Result<testcheck::CheckReport> report =
        testcheck::CheckScenario(candidate, options);
    if (!report.ok()) return false;
    for (const testcheck::Mismatch& m : report->mismatches) {
      if (m.kind == kind) return true;
    }
    return false;
  };
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return out.good();
}

/// Shrinks a failing scenario and writes its repro file; returns the path.
std::string MinimizeAndWrite(const testcheck::Scenario& failing,
                             const testcheck::CheckOptions& options,
                             testcheck::MismatchKind kind,
                             const std::string& path) {
  Result<testcheck::Scenario> clone = testcheck::CloneScenario(failing);
  if (!clone.ok()) {
    std::fprintf(stderr, "cannot clone scenario for minimization: %s\n",
                 clone.status().ToString().c_str());
    return {};
  }
  testcheck::MinimizeStats stats;
  const testcheck::Scenario minimal = testcheck::MinimizeScenario(
      std::move(*clone), SameKindPredicate(options, kind), {}, &stats);
  std::printf("  minimized: %zu relations, %zu grants, %zu candidates tried "
              "(%zu accepted, %zu passes)\n",
              minimal.catalog.relation_count(), minimal.auths.size(),
              stats.candidates_tried, stats.candidates_accepted, stats.passes);
  if (!WriteFile(path, minimal.ToReproText())) return {};
  std::printf("  repro written: %s\n", path.c_str());
  return path;
}

void WriteThroughputArtifact(std::size_t scenarios, std::size_t feasible,
                             double elapsed_sec, std::int64_t production_us,
                             std::int64_t oracle_us) {
  const char* dir = std::getenv("CISQP_BENCH_OUT_DIR");
  const std::string path = (dir != nullptr && *dir != '\0')
                               ? std::string(dir) + "/BENCH_fuzz_throughput.json"
                               : "BENCH_fuzz_throughput.json";
  const double per_sec =
      elapsed_sec > 0 ? static_cast<double>(scenarios) / elapsed_sec : 0.0;
  const double ratio =
      production_us > 0
          ? static_cast<double>(oracle_us) / static_cast<double>(production_us)
          : 0.0;
  std::ostringstream json;
  json << "{\"experiment\":\"E15: differential fuzz campaign throughput\","
       << "\"claim\":\"the brute-force oracles stay affordable relative to "
       << "the production pipeline at fuzz-sized scenarios\",\"rows\":[{"
       << "\"scenarios\":" << scenarios << ",\"feasible\":" << feasible
       << ",\"elapsed_sec\":" << elapsed_sec
       << ",\"scenarios_per_sec\":" << per_sec
       << ",\"production_us\":" << production_us
       << ",\"oracle_us\":" << oracle_us
       << ",\"oracle_vs_production_ratio\":" << ratio << "}]}";
  if (WriteFile(path, json.str() + "\n")) {
    std::printf("artifact: %s\n", path.c_str());
  }
}

int Replay(const Flags& flags) {
  std::ifstream in(flags.replay_file);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", flags.replay_file.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<testcheck::Scenario> scenario =
      testcheck::ParseReproText(buffer.str());
  if (!scenario.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 scenario.status().ToString().c_str());
    return 2;
  }
  const testcheck::CheckOptions options = MakeCheckOptions(flags);
  const Result<testcheck::CheckReport> report =
      testcheck::CheckScenario(*scenario, options);
  if (!report.ok()) {
    std::fprintf(stderr, "check failed to run: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  if (report->ok()) {
    std::printf("replay %s: ok (%s)\n", flags.replay_file.c_str(),
                report->feasible ? "feasible" : "infeasible");
    return 0;
  }
  std::printf("replay %s: MISMATCH\n%s", flags.replay_file.c_str(),
              report->ToString().c_str());
  if (flags.minimize) {
    MinimizeAndWrite(*scenario, options, report->mismatches.front().kind,
                     flags.replay_file + ".min");
  }
  return 1;
}

int Campaign(const Flags& flags) {
  const testcheck::CheckOptions options = MakeCheckOptions(flags);
  const testcheck::ScenarioConfig config;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_sec = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::size_t checked = 0;
  std::size_t skipped = 0;
  std::size_t feasible = 0;
  std::size_t mismatched = 0;
  std::int64_t production_us = 0;
  std::int64_t oracle_us = 0;

  for (std::uint64_t seed = flags.seed_start;
       seed < flags.seed_start + flags.seeds; ++seed) {
    if (flags.time_budget_sec > 0 && elapsed_sec() > flags.time_budget_sec) {
      std::printf("time budget exhausted after %zu scenarios\n", checked);
      break;
    }
    Result<testcheck::Scenario> scenario =
        testcheck::GenerateScenario(config, seed);
    if (!scenario.ok()) {
      ++skipped;  // the drawn schema cannot host the configured query
      continue;
    }
    const Result<testcheck::CheckReport> report =
        testcheck::CheckScenario(*scenario, options);
    if (!report.ok()) {
      std::fprintf(stderr, "seed %llu: check failed to run: %s\n",
                   static_cast<unsigned long long>(seed),
                   report.status().ToString().c_str());
      return 2;
    }
    ++checked;
    production_us += report->production_us;
    oracle_us += report->oracle_us;
    if (report->feasible) ++feasible;
    if (!report->ok()) {
      ++mismatched;
      std::printf("seed %llu: MISMATCH\n%s",
                  static_cast<unsigned long long>(seed),
                  report->ToString().c_str());
      MinimizeAndWrite(*scenario, options, report->mismatches.front().kind,
                       flags.out_dir + "/repro_seed" + std::to_string(seed) +
                           ".repro");
    }
  }

  const double elapsed = elapsed_sec();
  std::printf("fuzz: %zu scenario(s) checked (%zu feasible, %zu seed(s) "
              "skipped), %zu mismatch(es), %.1fs\n",
              checked, feasible, skipped, mismatched, elapsed);
  WriteThroughputArtifact(checked, feasible, elapsed, production_us,
                          oracle_us);
  return mismatched == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, flags)) return 2;
  if (!flags.replay_file.empty()) return Replay(flags);
  return Campaign(flags);
}
