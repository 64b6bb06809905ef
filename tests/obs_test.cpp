// Tests for the observability layer (src/obs): span nesting and export,
// Chrome trace_event validation, metrics snapshots, the authorization
// audit log at every check site, and the disabled-by-default contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "authz/chase.hpp"
#include "exec/executor.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "planner/safe_planner.hpp"
#include "sql/binder.hpp"
#include "test_util.hpp"

namespace cisqp::obs {
namespace {

using cisqp::testing::MedicalFixture;
using cisqp::testing::Server;
using planner::ExecutionMode;
using planner::FromChild;

/// Every test starts and ends with all three obs singletons disabled and
/// empty — the process-wide default the rest of the suite relies on.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetObs(); }
  void TearDown() override { ResetObs(); }

  static void ResetObs() {
    Tracer::Get().Disable();
    Tracer::Get().Clear();
    MetricsRegistry::Get().Disable();
    MetricsRegistry::Get().Reset();
    AuthzAuditLog::Get().Disable();
    AuthzAuditLog::Get().Clear();
  }
};

TEST_F(ObsTest, SpansNestAndRecordAttributes) {
  Tracer::Get().Enable();
  {
    CISQP_TRACE_SPAN(outer, "outer");
    EXPECT_TRUE(outer.active());
    outer.AddAttribute("k", "v");
    outer.AddAttribute("n", std::int64_t{42});
    {
      CISQP_TRACE_SPAN(inner, "inner");
      inner.AddAttribute("flag", true);
    }
    CISQP_TRACE_SPAN(sibling, "sibling");
  }
  Tracer::Get().Disable();

  const auto& spans = Tracer::Get().spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].parent, 0);
  for (const SpanRecord& s : spans) EXPECT_GE(s.duration_us, 0);
  ASSERT_EQ(spans[0].attributes.size(), 2u);
  EXPECT_EQ(spans[0].attributes[0].first, "k");
  EXPECT_EQ(spans[0].attributes[0].second, "v");
  EXPECT_EQ(spans[0].attributes[1].second, "42");
  ASSERT_EQ(spans[1].attributes.size(), 1u);
  EXPECT_EQ(spans[1].attributes[0].second, "true");

  const std::string tree = Tracer::Get().TextTree();
  EXPECT_NE(tree.find("outer"), std::string::npos);
  EXPECT_NE(tree.find("  inner"), std::string::npos);
  EXPECT_NE(tree.find("k=v"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceJsonRoundTripValidates) {
  Tracer::Get().Enable();
  {
    CISQP_TRACE_SPAN(outer, "outer \"quoted\"\n");
    outer.AddAttribute("key", "va\\lue");
    CISQP_TRACE_SPAN(inner, "inner");
  }
  Tracer::Get().Disable();

  const std::string json = Tracer::Get().ChromeTraceJson();
  std::string error;
  EXPECT_TRUE(ValidateChromeTraceJson(json, &error)) << error;
  // The escaped span name survives the round trip.
  EXPECT_NE(json.find("outer \\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // The free-function exporter agrees with the member.
  EXPECT_EQ(json, ToChromeTraceJson(Tracer::Get().spans()));
}

TEST_F(ObsTest, ChromeTraceMetadataNamesLanesAndEmitsFlows) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  tracer.SetProcessName(2, "server:S_I");
  tracer.SetThreadName(2, 0, "operators");
  const int root = tracer.BeginSpan("query");
  const int child = tracer.BeginSpanWithParent("exec.node", root);
  tracer.SetSpanLane(child, 2);  // parent stays on lane 1 -> cross-lane edge
  tracer.EndSpan(child);
  tracer.EndSpan(root);
  tracer.Disable();

  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, root);
  EXPECT_EQ(tracer.spans()[1].depth, 1);
  EXPECT_EQ(tracer.spans()[1].pid, 2);
  EXPECT_EQ(tracer.metadata().process_names.at(2), "server:S_I");

  const std::string json = tracer.ChromeTraceJson();
  std::string error;
  ASSERT_TRUE(ValidateChromeTraceJson(json, &error)) << error;
  // Lane-naming metadata events for the server process and its thread row.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("server:S_I"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  // The cross-lane parent renders as a flow start/finish arrow pair.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Same-lane nesting (none crossed here besides child) emits no extra
  // arrows: exactly one flow id.
  EXPECT_EQ(json.find("\"cat\":\"flow\",\"ph\":\"s\""),
            json.rfind("\"cat\":\"flow\",\"ph\":\"s\""));

  // Clear() drops the metadata together with the spans.
  tracer.Clear();
  EXPECT_TRUE(tracer.metadata().empty());
}

TEST_F(ObsTest, BeginSpanWithParentNestsAcrossThreads) {
  Tracer::Get().Enable();
  {
    Span root("root");
    ASSERT_TRUE(root.active());
    std::thread worker([&root] {
      // A pool worker's stack is empty; the explicit parent attaches its
      // span causally under the dispatching query span.
      Span child("worker", root);
      Span grandchild("inner");  // stack-nests under `child` on this thread
      EXPECT_TRUE(child.active());
      EXPECT_TRUE(grandchild.active());
    });
    worker.join();
  }
  Tracer::Get().Disable();

  const auto& spans = Tracer::Get().spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[1].name, "worker");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_NE(spans[1].tid, spans[0].tid);
  EXPECT_EQ(spans[2].name, "inner");
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[2].depth, 2);

  // The cross-thread edge shows up as a flow pair in the export.
  const std::string json = Tracer::Get().ChromeTraceJson();
  std::string error;
  EXPECT_TRUE(ValidateChromeTraceJson(json, &error)) << error;
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(json.find("root/worker"), std::string::npos);
}

TEST_F(ObsTest, ConcurrentSpansAndMetricsFromManyThreads) {
  // Spans, counters and histograms emitted from several threads at once,
  // with both recorders enabled: the TSan target for the obs layer. The
  // totals must be exact, every span must nest under its own thread's
  // parent, and the export must still validate.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOps = 200;
  Tracer::Get().Enable();
  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.Enable();
  {
    Span root("root");
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&root, t] {
        Span worker("worker", root);
        worker.AddAttribute("thread", t);
        for (std::size_t i = 0; i < kOps; ++i) {
          CISQP_TRACE_SPAN(op, "worker.op");
          op.AddAttribute("i", i);
          CISQP_METRIC_INC("test.concurrent.ops");
          CISQP_METRIC_ADD("test.concurrent.units", 3);
          CISQP_METRIC_OBSERVE("test.concurrent.value", static_cast<double>(i));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  Tracer::Get().Disable();
  reg.Disable();

  EXPECT_EQ(reg.Counter("test.concurrent.ops"), kThreads * kOps);
  EXPECT_EQ(reg.Counter("test.concurrent.units"), 3 * kThreads * kOps);
  const HistogramData h = reg.Histogram("test.concurrent.value");
  EXPECT_EQ(h.count, kThreads * kOps);
  EXPECT_DOUBLE_EQ(h.sum, kThreads * (kOps * (kOps - 1) / 2.0));
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, static_cast<double>(kOps - 1));

  const auto& spans = Tracer::Get().spans();
  ASSERT_EQ(spans.size(), 1 + kThreads * (1 + kOps));
  std::size_t ops = 0;
  for (const SpanRecord& s : spans) {
    if (s.name != "worker.op") continue;
    ++ops;
    ASSERT_GE(s.parent, 0);
    const SpanRecord& parent = spans[static_cast<std::size_t>(s.parent)];
    EXPECT_EQ(parent.name, "worker");
    EXPECT_EQ(parent.tid, s.tid);
  }
  EXPECT_EQ(ops, kThreads * kOps);
  std::string error;
  EXPECT_TRUE(
      ValidateChromeTraceJson(Tracer::Get().ChromeTraceJson(), &error))
      << error;
}

TEST_F(ObsTest, ValidateChromeTraceJsonRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(ValidateChromeTraceJson("", &error));
  EXPECT_FALSE(ValidateChromeTraceJson("not json", &error));
  EXPECT_FALSE(ValidateChromeTraceJson("{}", &error));
  EXPECT_FALSE(ValidateChromeTraceJson(R"({"traceEvents":{}})", &error));
  // Event missing required members / with wrong types.
  EXPECT_FALSE(ValidateChromeTraceJson(
      R"({"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]})", &error));
  EXPECT_FALSE(ValidateChromeTraceJson(
      R"({"traceEvents":[{"name":1,"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]})",
      &error));
  EXPECT_FALSE(ValidateChromeTraceJson(
      R"({"traceEvents":[{"name":"a","ph":"X","ts":"zero","dur":1,"pid":1,"tid":1}]})",
      &error));
  // Trailing garbage after a valid document.
  EXPECT_FALSE(ValidateChromeTraceJson(R"({"traceEvents":[]} trailing)", &error));
  EXPECT_FALSE(error.empty());
  // The minimal valid document passes.
  EXPECT_TRUE(ValidateChromeTraceJson(R"({"traceEvents":[]})", &error)) << error;
  EXPECT_TRUE(ValidateChromeTraceJson(
      R"({"traceEvents":[{"name":"a","ph":"X","ts":0.5,"dur":-1,"pid":1,"tid":1,
          "args":{"k":"v"}}]})",
      &error))
      << error;
}

TEST_F(ObsTest, MetricsSnapshotIsCorrect) {
  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.Enable();
  CISQP_METRIC_INC("test.counter");
  CISQP_METRIC_ADD("test.counter", 4);
  CISQP_METRIC_SET("test.gauge", 2.5);
  CISQP_METRIC_OBSERVE("test.histo", 1.0);
  CISQP_METRIC_OBSERVE("test.histo", 7.0);
  CISQP_METRIC_OBSERVE("test.histo", 1024.0);
  reg.Disable();

  EXPECT_EQ(reg.Counter("test.counter"), 5u);
  EXPECT_EQ(reg.Counter("test.never_touched"), 0u);
  EXPECT_DOUBLE_EQ(reg.Gauge("test.gauge"), 2.5);
  const HistogramData h = reg.Histogram("test.histo");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 1032.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 1024.0);
  EXPECT_DOUBLE_EQ(h.mean(), 344.0);

  const std::string text = reg.ToText();
  EXPECT_NE(text.find("test.counter"), std::string::npos);
  EXPECT_NE(text.find("test.gauge"), std::string::npos);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"test.counter\":5"), std::string::npos);

  reg.Reset();
  EXPECT_EQ(reg.Counter("test.counter"), 0u);
  EXPECT_TRUE(reg.counters().empty());
}

TEST_F(ObsTest, HistogramPercentileTracksExactQuantiles) {
  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.Enable();
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<double>(i));
  for (double v : values) CISQP_METRIC_OBSERVE("test.pct", v);
  reg.Disable();
  std::sort(values.begin(), values.end());

  const HistogramData h = reg.Histogram("test.pct");
  ASSERT_EQ(h.count, 100u);
  // Exact at the extremes.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100.0);
  // Out-of-range quantiles clamp.
  EXPECT_DOUBLE_EQ(h.Percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(2.0), 100.0);

  // In between, the interpolated value stays within the power-of-two bucket
  // holding the exact (linearly interpolated) quantile.
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double exact = values[lo] + (rank - static_cast<double>(lo)) *
                                          (values[hi] - values[lo]);
    const double bucket_width =
        std::exp2(std::max(0.0, std::ceil(std::log2(exact)) - 1.0));
    EXPECT_NEAR(h.Percentile(q), exact, bucket_width) << "q=" << q;
    EXPECT_GE(h.Percentile(q), h.min) << "q=" << q;
    EXPECT_LE(h.Percentile(q), h.max) << "q=" << q;
  }

  // Monotone in q.
  double prev = h.Percentile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    EXPECT_GE(h.Percentile(q) + 1e-9, prev) << "q=" << q;
    prev = h.Percentile(q);
  }

  // Degenerate histograms: empty -> 0; a single value is every quantile.
  EXPECT_DOUBLE_EQ(HistogramData{}.Percentile(0.5), 0.0);
  reg.Enable();
  CISQP_METRIC_OBSERVE("test.single", 7.0);
  reg.Disable();
  EXPECT_DOUBLE_EQ(reg.Histogram("test.single").Percentile(0.5), 7.0);

  // The snapshots carry the percentile columns.
  EXPECT_NE(reg.ToText().find("p95="), std::string::npos);
  EXPECT_NE(reg.ToJson().find("\"p99\":"), std::string::npos);
}

TEST_F(ObsTest, DisabledObsRecordsNothing) {
  // Everything disabled (the fixture default): spans are inert, metrics and
  // audit calls are no-ops.
  {
    CISQP_TRACE_SPAN(span, "ghost");
    EXPECT_FALSE(span.active());
    span.AddAttribute("k", "v");
  }
  CISQP_METRIC_INC("ghost.counter");
  EXPECT_TRUE(Tracer::Get().spans().empty());
  EXPECT_EQ(MetricsRegistry::Get().Counter("ghost.counter"), 0u);

  // A full pipeline run in the disabled state leaves no trace either.
  MedicalFixture fix;
  plan::QueryPlan plan = fix.PaperPlan();
  planner::SafePlanner planner(fix.cat, fix.auths);
  ASSERT_OK(planner.Plan(plan).status());
  EXPECT_TRUE(Tracer::Get().spans().empty());
  EXPECT_TRUE(MetricsRegistry::Get().counters().empty());
  EXPECT_TRUE(AuthzAuditLog::Get().entries().empty());
}

/// Executor-level fixture: the paper's plan, safely assigned, over a
/// populated cluster — the setting for the audit-log and end-to-end tests.
class ObsExecTest : public ObsTest {
 protected:
  void SetUp() override {
    ObsTest::SetUp();
    cluster_ = std::make_unique<exec::Cluster>(fix_.cat);
    Rng rng(2026);
    ASSERT_OK(workload::MedicalScenario::PopulateCluster(
        *cluster_, workload::MedicalScenario::DataConfig{200, 0.4, 0.6, 30},
        rng));
    plan_ = fix_.PaperPlan();
    planner::SafePlanner planner(fix_.cat, fix_.auths);
    auto sp = planner.Plan(plan_);
    ASSERT_OK(sp.status());
    assignment_ = sp->assignment;
  }

  MedicalFixture fix_;
  std::unique_ptr<exec::Cluster> cluster_;
  plan::QueryPlan plan_;
  planner::Assignment assignment_;
};

TEST_F(ObsExecTest, SafeRunAuditsOneAllowPerPhysicalTransfer) {
  AuthzAuditLog& log = AuthzAuditLog::Get();
  log.Enable();
  exec::DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK_AND_ASSIGN(exec::ExecutionResult result,
                       executor.Execute(plan_, assignment_));
  log.Disable();

  // Fig. 7 execution: 3 physical transfers, each enforced → 3 allow entries.
  EXPECT_EQ(result.network.total_messages(), 3u);
  ASSERT_EQ(log.entries().size(), 3u);
  EXPECT_EQ(log.allowed_count(), 3u);
  EXPECT_EQ(log.denied_count(), 0u);
  for (const AuditEntry& e : log.entries()) {
    EXPECT_TRUE(e.allowed);
    EXPECT_EQ(e.site, AuditSite::kExecutor);
    EXPECT_FALSE(e.server.empty());
    EXPECT_FALSE(e.profile.empty());
    EXPECT_FALSE(e.matched.empty()) << "allow entry must name the rule";
    EXPECT_NE(e.ToString().find("ALLOW"), std::string::npos);
  }
  // The transfers and the audit entries describe the same shipments.
  const auto& transfers = result.network.transfers();
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    EXPECT_EQ(log.entries()[i].node_id, transfers[i].node_id);
    EXPECT_EQ(log.entries()[i].server,
              fix_.cat.server(transfers[i].to).name);
  }
}

TEST_F(ObsExecTest, UnsafeRunAuditsDenialNamingTheCondition) {
  // The exec_test unsafe assignment: a regular join at S_I for n2 ships
  // Nat_registry to S_I — not covered by any Fig. 3 authorization.
  planner::Assignment unsafe = assignment_;
  unsafe.Set(2, planner::Executor{Server(fix_.cat, "S_I"), std::nullopt,
                                  ExecutionMode::kRegularJoin, FromChild::kLeft});
  unsafe.Set(1,
             planner::Executor{Server(fix_.cat, "S_H"), Server(fix_.cat, "S_I"),
                               ExecutionMode::kSemiJoin, FromChild::kRight});
  AuthzAuditLog& log = AuthzAuditLog::Get();
  log.Enable();
  exec::DistributedExecutor executor(*cluster_, fix_.auths);
  EXPECT_EQ(executor.Execute(plan_, unsafe).status().code(),
            StatusCode::kUnauthorized);
  log.Disable();

  ASSERT_GE(log.denied_count(), 1u);
  const AuditEntry* denial = nullptr;
  for (const AuditEntry& e : log.entries()) {
    if (!e.allowed) denial = &e;
  }
  ASSERT_NE(denial, nullptr);
  EXPECT_EQ(denial->site, AuditSite::kExecutor);
  EXPECT_EQ(denial->server, "S_I");
  // The entry names the Def. 3.3 condition that failed.
  EXPECT_FALSE(denial->reason.empty());
  EXPECT_TRUE(denial->reason.find("join-path mismatch") != std::string::npos ||
              denial->reason.find("attribute coverage") != std::string::npos ||
              denial->reason.find("no rules") != std::string::npos)
      << denial->reason;
  EXPECT_NE(denial->ToString().find("DENY"), std::string::npos);
}

TEST_F(ObsExecTest, PlannerAuditsProbesAtPlannerSite) {
  AuthzAuditLog& log = AuthzAuditLog::Get();
  log.Enable();
  planner::SafePlanner planner(fix_.cat, fix_.auths);
  ASSERT_OK(planner.Plan(plan_).status());
  log.Disable();

  ASSERT_FALSE(log.entries().empty());
  std::size_t planner_entries = 0;
  for (const AuditEntry& e : log.entries()) {
    if (e.site == AuditSite::kPlanner) ++planner_entries;
  }
  EXPECT_GT(planner_entries, 0u);
  // The planner probes infeasible candidates too: some denials with reasons.
  EXPECT_GT(log.denied_count(), 0u);
  EXPECT_GT(log.allowed_count(), 0u);
}

TEST_F(ObsExecTest, Fig2QueryTracesEndToEnd) {
  Tracer::Get().Enable();
  MetricsRegistry::Get().Enable();

  auto spec =
      sql::ParseAndBind(fix_.cat, workload::MedicalScenario::kPaperQuery);
  ASSERT_OK(spec.status());
  ASSERT_OK(authz::ChaseClosure(fix_.cat, fix_.auths).status());
  planner::SafePlanner planner(fix_.cat, fix_.auths);
  ASSERT_OK_AND_ASSIGN(planner::SafePlan sp, planner.Plan(plan_));
  exec::DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK(executor.Execute(plan_, sp.assignment).status());

  Tracer::Get().Disable();
  MetricsRegistry::Get().Disable();

  // Every pipeline stage shows up as a span.
  const auto has_span = [&](std::string_view name) {
    for (const SpanRecord& s : Tracer::Get().spans()) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_span("sql.parse_bind"));
  EXPECT_TRUE(has_span("authz.chase"));
  EXPECT_TRUE(has_span("planner.safe_plan"));
  EXPECT_TRUE(has_span("exec.execute"));
  EXPECT_TRUE(has_span("exec.node"));
  EXPECT_TRUE(has_span("exec.ship"));

  // exec.node / exec.ship nest under exec.execute.
  for (std::size_t i = 0; i < Tracer::Get().spans().size(); ++i) {
    const SpanRecord& s = Tracer::Get().spans()[i];
    if (s.name == "exec.node" || s.name == "exec.ship") {
      EXPECT_GE(s.depth, 1) << s.name;
    }
  }

  // The whole recording exports as valid Chrome trace JSON.
  std::string error;
  EXPECT_TRUE(ValidateChromeTraceJson(Tracer::Get().ChromeTraceJson(), &error))
      << error;

  // And the metrics the run incremented are visible in the snapshot.
  const MetricsRegistry& reg = MetricsRegistry::Get();
  EXPECT_EQ(reg.Counter("sql.queries_parsed"), 1u);
  EXPECT_GE(reg.Counter("chase.iterations"), 1u);
  EXPECT_GE(reg.Counter("planner.canview_probes"), 1u);
  EXPECT_EQ(reg.Counter("exec.transfers"), 3u);
  EXPECT_GT(reg.Counter("exec.rows_shipped"), 0u);
  EXPECT_GT(reg.Histogram("exec.operator_rows").count, 0u);
}

TEST_F(ObsExecTest, ExecutionResultRecordsDurations) {
  exec::DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK_AND_ASSIGN(exec::ExecutionResult result,
                       executor.Execute(plan_, assignment_));
  // Wall clock is recorded even with obs disabled — it is part of the
  // result, not of the instrumentation.
  EXPECT_GE(result.duration_us, 0);
  std::int64_t busy_total = 0;
  std::size_t servers_with_ops = 0;
  for (const auto& [server, load] : result.load) {
    EXPECT_GE(load.busy_us, 0);
    busy_total += load.busy_us;
    if (load.operations > 0) ++servers_with_ops;
  }
  EXPECT_GE(servers_with_ops, 2u);  // S_N and S_H both compute
  // Operator time is a subset of the wall clock (small slack for the
  // per-measurement microsecond truncation).
  EXPECT_LE(busy_total, result.duration_us + 16);
}

TEST_F(ObsExecTest, AuditJsonExportIsWellFormedAndCountsMatch) {
  AuthzAuditLog& log = AuthzAuditLog::Get();
  log.Enable();
  exec::DistributedExecutor executor(*cluster_, fix_.auths);
  ASSERT_OK(executor.Execute(plan_, assignment_).status());
  log.Disable();

  const std::string json = log.ToJson();
  EXPECT_NE(json.find("\"entries\":["), std::string::npos);
  EXPECT_NE(json.find("\"site\":\"executor\""), std::string::npos);
  const std::string text = log.ToText();
  // One line per entry.
  std::size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, log.entries().size());

  log.Clear();
  EXPECT_TRUE(log.entries().empty());
  EXPECT_EQ(log.allowed_count(), 0u);
  EXPECT_EQ(log.denied_count(), 0u);
}

}  // namespace
}  // namespace cisqp::obs
