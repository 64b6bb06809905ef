// Replays the checked-in corpus of minimized repros (tests/corpus/*.repro)
// through the full differential check. Every repro that once witnessed a bug
// (or pinned down a tricky-but-correct verdict) must stay green on main.
//
// CISQP_CORPUS_DIR is injected by tests/CMakeLists.txt and points at the
// source-tree corpus so newly added .repro files are picked up without
// reconfiguring.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "testcheck/harness.hpp"
#include "testcheck/scenario.hpp"

#ifndef CISQP_CORPUS_DIR
#error "CISQP_CORPUS_DIR must be defined (see tests/CMakeLists.txt)"
#endif

namespace cisqp::testcheck {
namespace {

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(CISQP_CORPUS_DIR)) {
    if (entry.path().extension() == ".repro") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

Result<Scenario> LoadRepro(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseReproText(buffer.str());
}

TEST(FuzzCorpus, CorpusIsNotEmpty) {
  EXPECT_FALSE(CorpusFiles().empty())
      << "tests/corpus must hold at least one minimized repro";
}

TEST(FuzzCorpus, EveryReproReplaysClean) {
  for (const auto& path : CorpusFiles()) {
    ASSERT_OK_AND_ASSIGN(Scenario scenario, LoadRepro(path));
    ASSERT_OK_AND_ASSIGN(CheckReport report, CheckScenario(scenario, {}));
    EXPECT_TRUE(report.ok())
        << path.filename() << "\n" << report.ToString();
  }
}

}  // namespace
}  // namespace cisqp::testcheck
