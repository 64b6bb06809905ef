// cisqpsh — an interactive shell over the library.
//
//   ./build/examples/cisqpsh                 # the paper's medical federation
//   ./build/examples/cisqpsh my.fed          # a federation DSL file
//   ./build/examples/cisqpsh --threads 4     # parallelism for \search
//                                            # (default: hardware concurrency;
//                                            # 1 = sequential, same results)
//   ./build/examples/cisqpsh --clients 8     # concurrent clients for \serve
//
// Type SQL to plan + execute it safely; backslash commands inspect the
// federation and the planner:
//
//   \schema           the catalog
//   \policy           the authorizations
//   \plan SQL         the query tree plan (Fig. 2 style)
//   \profile SQL      execute with profiling, print EXPLAIN ANALYZE output
//                     (plain SQL also accepts EXPLAIN [ANALYZE] SELECT ...)
//   \trace SQL        execute with span tracing, print the span tree
//   \tracejson SQL    execute with span tracing, print Chrome trace JSON
//   \plantrace SQL    the Find_candidates / Assign_ex trace (Fig. 7 style)
//   \metrics          process metrics snapshot (counters/gauges/histograms)
//   \audit            the authorization-decision audit log
//   \releases SQL     the data releases a safe execution entails
//   \search SQL       feasibility-aware join-order search
//   \serve SQL        fire the query from --clients concurrent clients
//                     through the serving front door (plan + CanView caches)
//   \grant S a,b [on l=r]   add the rule [{a, b}, {(l, r)}] -> S; a live
//                     front door maintains its chase closure incrementally
//                     and keeps cache entries the edit cannot affect
//   \revoke S a,b [on l=r]  remove that exact rule (same incremental path)
//   \requestor NAME   deliver results to this server ('none' to reset)
//   \enforce on|off   toggle runtime release enforcement
//   \help \quit
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "authz/analysis.hpp"
#include "common/strings.hpp"
#include "dsl/federation_dsl.hpp"
#include "exec/executor.hpp"
#include "exec/explain.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/builder.hpp"
#include "planner/plan_search.hpp"
#include "planner/report.hpp"
#include "planner/safe_planner.hpp"
#include "planner/verifier.hpp"
#include "serve/front_door.hpp"
#include "sql/binder.hpp"
#include "sql/parser.hpp"
#include "workload/medical.hpp"

using namespace cisqp;

namespace {

class Shell {
 public:
  Shell(catalog::Catalog cat, authz::AuthorizationSet auths,
        std::size_t threads, std::size_t clients)
      : cat_(std::move(cat)), auths_(std::move(auths)), cluster_(cat_),
        threads_(threads), clients_(clients == 0 ? 1 : clients) {
    PopulateData();
    // Exact statistics over the populated tables feed the EXPLAIN estimates
    // and the cost-based planners; the feedback store accumulates measured
    // cardinalities from every profiled execution in this session.
    for (catalog::RelationId r = 0; r < cat_.relation_count(); ++r) {
      stats_.Set(r, plan::StatsCatalog::FromTable(*cluster_.ColumnarOf(r)));
    }
    // Metrics and the audit log accumulate across the whole session;
    // \metrics and \audit read them back. Span tracing is per-\trace.
    obs::MetricsRegistry::Get().Enable();
    obs::AuthzAuditLog::Get().Enable();
  }

  int Run() {
    std::printf("cisqp shell — %zu server(s), %zu relation(s), %zu rule(s). "
                "\\help for commands.\n",
                cat_.server_count(), cat_.relation_count(), auths_.size());
    std::string line;
    while (true) {
      std::printf("cisqp> ");
      std::fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      const std::string_view trimmed = TrimWhitespace(line);
      if (trimmed.empty()) continue;
      if (trimmed == "\\quit" || trimmed == "\\q") break;
      Dispatch(trimmed);
    }
    std::printf("\n");
    return 0;
  }

 private:
  void PopulateData() {
    // Generic synthetic data: ints share a small domain so joins match.
    Rng rng(1);
    for (catalog::RelationId r = 0; r < cat_.relation_count(); ++r) {
      for (int i = 0; i < 64; ++i) {
        storage::Row row;
        for (catalog::AttributeId a : cat_.relation(r).attributes) {
          switch (cat_.attribute(a).type) {
            case catalog::ValueType::kInt64:
              row.emplace_back(rng.UniformInt(0, 40));
              break;
            case catalog::ValueType::kDouble:
              row.emplace_back(rng.UniformReal() * 100.0);
              break;
            case catalog::ValueType::kString:
              row.emplace_back("v" + std::to_string(rng.UniformInt(0, 40)));
              break;
          }
        }
        CISQP_CHECK(cluster_.InsertRow(r, row).ok());
      }
    }
  }

  void Dispatch(std::string_view input) {
    if (input[0] != '\\') {
      ExecuteSql(input);
      return;
    }
    const std::size_t space = input.find(' ');
    const std::string_view cmd = input.substr(0, space);
    const std::string_view arg =
        space == std::string_view::npos ? "" : TrimWhitespace(input.substr(space));
    if (cmd == "\\help") {
      std::printf("%s", kHelp);
    } else if (cmd == "\\schema") {
      std::printf("%s", cat_.DebugString().c_str());
    } else if (cmd == "\\policy") {
      std::printf("%s", auths_.ToString(cat_).c_str());
    } else if (cmd == "\\matrix") {
      std::printf("%s", authz::VisibilityMatrixToString(
                            cat_, authz::BaseVisibilityMatrix(cat_, auths_))
                            .c_str());
    } else if (cmd == "\\plan") {
      WithPlan(arg, [&](const plan::QueryPlan& plan) {
        std::printf("%s", plan.ToString(cat_).c_str());
      });
    } else if (cmd == "\\profile") {
      ProfileSql(arg);
    } else if (cmd == "\\trace") {
      obs::Tracer::Get().Enable();
      ExecuteSql(arg);
      obs::Tracer::Get().Disable();
      std::printf("%s", obs::Tracer::Get().TextTree().c_str());
    } else if (cmd == "\\tracejson") {
      obs::Tracer::Get().Enable();
      ExecuteSql(arg);
      obs::Tracer::Get().Disable();
      std::printf("%s\n", obs::Tracer::Get().ChromeTraceJson().c_str());
    } else if (cmd == "\\plantrace") {
      WithSafePlan(arg, [&](const plan::QueryPlan&, const planner::SafePlan& sp) {
        std::printf("%s", sp.trace.ToString(cat_).c_str());
      });
    } else if (cmd == "\\metrics") {
      std::printf("%s", obs::MetricsRegistry::Get().ToText().c_str());
    } else if (cmd == "\\audit") {
      const obs::AuthzAuditLog& log = obs::AuthzAuditLog::Get();
      std::printf("%s%zu allowed, %zu denied\n", log.ToText().c_str(),
                  log.allowed_count(), log.denied_count());
    } else if (cmd == "\\dot") {
      WithSafePlan(arg, [&](const plan::QueryPlan& plan, const planner::SafePlan& sp) {
        auto dot = planner::ToDot(cat_, plan, sp.assignment);
        if (dot.ok()) std::printf("%s", dot->c_str());
      });
    } else if (cmd == "\\releases") {
      WithSafePlan(arg, [&](const plan::QueryPlan& plan, const planner::SafePlan& sp) {
        auto releases = planner::EnumerateReleases(cat_, plan, sp.assignment);
        for (const planner::Release& r : releases.value()) {
          std::printf("%s\n", r.ToString(cat_).c_str());
        }
      });
    } else if (cmd == "\\search") {
      SearchOrders(arg);
    } else if (cmd == "\\serve") {
      ServeSql(arg);
    } else if (cmd == "\\grant") {
      EditRule(arg, /*grant=*/true);
    } else if (cmd == "\\revoke") {
      EditRule(arg, /*grant=*/false);
    } else if (cmd == "\\requestor") {
      SetRequestor(arg);
    } else if (cmd == "\\enforce") {
      enforce_ = arg != "off";
      std::printf("runtime enforcement %s\n", enforce_ ? "on" : "off");
    } else {
      std::printf("unknown command; \\help lists commands\n");
    }
  }

  template <typename Fn>
  void WithPlan(std::string_view sql_text, Fn&& fn) {
    auto spec = sql::ParseAndBind(cat_, sql_text);
    if (!spec.ok()) {
      std::printf("error: %s\n", spec.status().ToString().c_str());
      return;
    }
    auto plan = plan::PlanBuilder(cat_, &stats_, &feedback_).Build(*spec);
    if (!plan.ok()) {
      std::printf("error: %s\n", plan.status().ToString().c_str());
      return;
    }
    fn(*plan);
  }

  template <typename Fn>
  void WithSafePlan(std::string_view sql_text, Fn&& fn) {
    WithPlan(sql_text, [&](const plan::QueryPlan& plan) {
      planner::SafePlanner planner(cat_, auths_, PlannerOptions());
      auto report = planner.Analyze(plan);
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
        return;
      }
      if (!report->feasible) {
        std::printf("INFEASIBLE: no safe executor assignment (blocked at node n%d)\n%s",
                    report->blocking_node,
                    planner::FormatRejections(cat_, report->blocking_rejections)
                        .c_str());
        return;
      }
      fn(plan, *report->plan);
    });
  }

  void ExecuteSql(std::string_view sql_text) {
    auto ast = sql::Parse(sql_text);
    if (!ast.ok()) {
      std::printf("error: %s\n", ast.status().ToString().c_str());
      return;
    }
    if (ast->explain) {
      if (ast->analyze) {
        ProfileSql(sql_text);
      } else {
        WithPlan(sql_text, [&](const plan::QueryPlan& plan) {
          std::printf("%s", exec::RenderExplain(cat_, &stats_, &feedback_,
                                                plan, nullptr)
                                .c_str());
        });
      }
      return;
    }
    WithSafePlan(sql_text, [&](const plan::QueryPlan& plan,
                               const planner::SafePlan& sp) {
      std::printf("%s", sp.assignment.ToString(cat_, plan).c_str());
      exec::DistributedExecutor executor(cluster_, auths_);
      exec::ExecutionOptions options;
      options.enforce_releases = enforce_;
      options.requestor = requestor_;
      options.threads = ExecThreads();
      auto result = executor.Execute(plan, sp.assignment, options);
      if (!result.ok()) {
        std::printf("execution error: %s\n", result.status().ToString().c_str());
        return;
      }
      std::printf("%s", result->table.ToDisplayString(cat_, 12).c_str());
      std::printf("result at %s; %zu transfer(s), %zu byte(s)\n",
                  cat_.server(result->result_server).name.c_str(),
                  result->network.total_messages(),
                  result->network.total_bytes());
    });
  }

  /// EXPLAIN ANALYZE / \profile: execute with a QueryProfile attached, print
  /// the annotated tree, then harvest the measured cardinalities into the
  /// session feedback store (after rendering, so the drift column shows what
  /// the planner believed *before* this run).
  void ProfileSql(std::string_view sql_text) {
    WithSafePlan(sql_text, [&](const plan::QueryPlan& plan,
                               const planner::SafePlan& sp) {
      exec::DistributedExecutor executor(cluster_, auths_);
      exec::ExecutionOptions options;
      options.enforce_releases = enforce_;
      options.requestor = requestor_;
      options.threads = ExecThreads();
      obs::QueryProfile profile;
      options.profile = &profile;
      auto result = executor.Execute(plan, sp.assignment, options);
      if (!result.ok()) {
        std::printf("execution error: %s\n", result.status().ToString().c_str());
        return;
      }
      exec::AnnotateEstimates(cat_, &stats_, &feedback_, plan, profile);
      std::printf("%s", exec::RenderExplain(cat_, &stats_, &feedback_, plan,
                                            &profile)
                            .c_str());
      const std::size_t harvested =
          plan::HarvestActualCardinalities(plan, profile, feedback_);
      std::printf("%zu cardinality(ies) fed back (%zu in the session store)\n",
                  harvested, feedback_.size());
    });
  }

  void SearchOrders(std::string_view sql_text) {
    auto spec = sql::ParseAndBind(cat_, sql_text);
    if (!spec.ok()) {
      std::printf("error: %s\n", spec.status().ToString().c_str());
      return;
    }
    planner::FeasiblePlanSearch search(cat_, auths_);
    planner::PlanSearchOptions options;
    options.planner_options = PlannerOptions();
    options.threads = threads_;
    auto result = search.Search(*spec, options);
    if (!result.ok()) {
      std::printf("%s\n", result.status().ToString().c_str());
      return;
    }
    std::printf(
        "tried %zu order(s), %zu feasible, %zu pruned unbuilt; cheapest "
        "(est. %.0f bytes):\n%s",
        result->orders_tried, result->orders_feasible, result->orders_pruned,
        result->estimated_bytes, result->plan.ToString(cat_).c_str());
  }

  /// \serve: the same query from `clients_` concurrent client threads
  /// through the session's FrontDoor. The first request of a shape plans
  /// cold; the rest hit the plan cache, so the printed per-request stats
  /// show the cold/cached split directly.
  void ServeSql(std::string_view sql_text) {
    if (front_door_ == nullptr) {
      serve::ServeOptions options;
      options.max_concurrent = clients_;
      options.exec_threads = 1;
      front_door_ = std::make_unique<serve::FrontDoor>(cat_, auths_, cluster_,
                                                       &stats_, options);
    }
    const std::string sql(sql_text);
    const std::size_t n = clients_;
    std::vector<Result<serve::Response>> responses(n, InternalError("unset"));
    {
      std::vector<std::thread> clients;
      clients.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        clients.emplace_back([&, i] {
          serve::Request request;
          request.sql = sql;
          request.requestor = requestor_;
          request.enforce_releases = enforce_;
          responses[i] = front_door_->Serve(request);
        });
      }
      for (std::thread& t : clients) t.join();
    }
    std::size_t ok = 0, hits = 0;
    std::int64_t min_us = 0, max_us = 0;
    const serve::Response* shown = nullptr;
    for (const Result<serve::Response>& r : responses) {
      if (!r.ok()) continue;
      ++ok;
      if (r->plan_cache_hit) ++hits;
      if (shown == nullptr || r->total_us < min_us) min_us = r->total_us;
      if (shown == nullptr || r->total_us > max_us) max_us = r->total_us;
      if (shown == nullptr) shown = &*r;
    }
    if (shown == nullptr) {
      std::printf("serve error: %s\n",
                  responses[0].status().ToString().c_str());
      return;
    }
    std::printf("%s", shown->table.ToDisplayString(cat_, 12).c_str());
    std::printf(
        "%zu/%zu request(s) ok, %zu plan-cache hit(s); latency %ld..%ldus; "
        "epoch %llu\n",
        ok, n, hits, static_cast<long>(min_us), static_cast<long>(max_us),
        static_cast<unsigned long long>(shown->policy_epoch));
    const serve::FrontDoorStats stats = front_door_->Stats();
    std::printf(
        "front door: %llu request(s), plan cache %llu hit(s)/%llu miss(es), "
        "CanView memo %llu hit(s)/%llu miss(es)\n",
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.plan_cache_hits),
        static_cast<unsigned long long>(stats.plan_cache_misses),
        static_cast<unsigned long long>(stats.canview_hits),
        static_cast<unsigned long long>(stats.canview_misses));
  }

  /// "\grant S a[,b] [on l=r[,l=r]]" — builds the rule from names.
  Result<authz::Authorization> ParseRuleSpec(std::string_view arg) {
    static constexpr const char* kUsage =
        "usage: SERVER attr[,attr...] [on left=right[,left=right...]]";
    std::istringstream iss{std::string(arg)};
    std::string server, attrs, kw, pairs;
    iss >> server >> attrs;
    if (server.empty() || attrs.empty()) return InvalidArgumentError(kUsage);
    if (iss >> kw) {
      if (kw != "on" && kw != "ON") return InvalidArgumentError(kUsage);
      iss >> pairs;
      if (pairs.empty()) return InvalidArgumentError(kUsage);
    }
    authz::Authorization auth;
    CISQP_ASSIGN_OR_RETURN(auth.server, cat_.FindServer(server));
    for (const std::string& name : SplitString(attrs, ',')) {
      CISQP_ASSIGN_OR_RETURN(catalog::AttributeId id, cat_.FindAttribute(name));
      auth.attributes.Insert(id);
    }
    std::vector<authz::JoinAtom> atoms;
    for (const std::string& pair : SplitString(pairs, ',')) {
      if (pair.empty()) continue;
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) return InvalidArgumentError(kUsage);
      CISQP_ASSIGN_OR_RETURN(catalog::AttributeId l,
                             cat_.FindAttribute(pair.substr(0, eq)));
      CISQP_ASSIGN_OR_RETURN(catalog::AttributeId r,
                             cat_.FindAttribute(pair.substr(eq + 1)));
      if (l == r) {
        return InvalidArgumentError("join atom needs two distinct attributes: " +
                                    pair);
      }
      atoms.push_back(authz::JoinAtom::Make(l, r));
    }
    auth.path = authz::JoinPath::FromAtoms(std::move(atoms));
    return auth;
  }

  /// \grant / \revoke: edits the session policy, and — when a front door is
  /// live — applies the same edit incrementally (delta-chase + selective
  /// cache retention) and prints the closure-delta summary.
  void EditRule(std::string_view arg, bool grant) {
    Result<authz::Authorization> rule = ParseRuleSpec(arg);
    if (!rule.ok()) {
      std::printf("error: %s\n", rule.status().ToString().c_str());
      return;
    }
    const Status applied =
        grant ? auths_.Add(cat_, *rule) : auths_.Remove(cat_, *rule);
    if (!applied.ok()) {
      std::printf("error: %s\n", applied.ToString().c_str());
      return;
    }
    std::printf("%s %s (%zu rule(s) now)\n", grant ? "granted" : "revoked",
                rule->ToString(cat_).c_str(), auths_.size());
    if (front_door_ == nullptr) return;
    Result<authz::ClosureDelta> delta =
        grant ? front_door_->AddRule(*rule) : front_door_->RevokeRule(*rule);
    if (!delta.ok()) {
      std::printf("front door error: %s\n", delta.status().ToString().c_str());
      return;
    }
    const serve::FrontDoorStats stats = front_door_->Stats();
    if (delta->full) {
      std::printf(
          "front door: epoch %llu, full cache sweep (closure recomputed "
          "lazily)\n",
          static_cast<unsigned long long>(front_door_->policy_epoch()));
    } else {
      std::printf(
          "front door: epoch %llu, closure delta +%zu/-%zu rule(s) over %zu "
          "relation(s); %llu plan(s) retained across all edits\n",
          static_cast<unsigned long long>(front_door_->policy_epoch()),
          delta->added_rules, delta->removed_rules, delta->relations.size(),
          static_cast<unsigned long long>(stats.plan_cache_retained));
    }
  }

  void SetRequestor(std::string_view arg) {
    if (arg == "none" || arg.empty()) {
      requestor_.reset();
      std::printf("requestor cleared\n");
      return;
    }
    auto server = cat_.FindServer(arg);
    if (!server.ok()) {
      std::printf("error: %s\n", server.status().ToString().c_str());
      return;
    }
    requestor_ = *server;
    std::printf("results will be delivered to %s\n",
                cat_.server(*requestor_).name.c_str());
  }

  planner::SafePlannerOptions PlannerOptions() const {
    planner::SafePlannerOptions options;
    options.requestor = requestor_;
    return options;
  }

  static constexpr const char* kHelp =
      "  SQL                plan + execute safely\n"
      "  EXPLAIN SQL        show the plan with estimated cardinalities\n"
      "  EXPLAIN ANALYZE SQL  execute + show estimate-vs-actual drift\n"
      "  \\profile SQL       same as EXPLAIN ANALYZE\n"
      "  \\schema            show the catalog\n"
      "  \\policy            show the authorizations\n"
      "  \\matrix            base-visibility matrix (who sees what)\n"
      "  \\plan SQL          show the query tree plan\n"
      "  \\trace SQL         execute with tracing, show the span tree\n"
      "  \\tracejson SQL     execute with tracing, emit Chrome trace JSON\n"
      "  \\plantrace SQL     show the planning trace (Fig. 7 style)\n"
      "  \\metrics           show the session metrics snapshot\n"
      "  \\audit             show the authorization-decision audit log\n"
      "  \\releases SQL      show the releases of the safe assignment\n"
      "  \\dot SQL           Graphviz DOT of the assigned plan\n"
      "  \\search SQL        feasibility-aware join-order search\n"
      "  \\serve SQL         the query from --clients concurrent clients via\n"
      "                     the serving front door (plan + CanView caches)\n"
      "  \\grant S a[,b] [on l=r[,l=r]]  add rule [{a,b}, {(l,r)}] -> S;\n"
      "                     the front door updates its closure incrementally\n"
      "  \\revoke S a[,b] [on l=r[,l=r]] remove that exact rule\n"
      "  \\requestor NAME    deliver results to this server (or 'none')\n"
      "  \\enforce on|off    toggle runtime enforcement\n"
      "  \\quit              exit\n";

  catalog::Catalog cat_;
  authz::AuthorizationSet auths_;
  exec::Cluster cluster_;
  plan::StatsCatalog stats_;      ///< exact stats over the populated tables
  plan::StatsFeedback feedback_;  ///< measured cardinalities, session-wide
  /// --threads resolved for operator execution (0 = hardware concurrency).
  std::size_t ExecThreads() const {
    return threads_ == 0 ? ThreadPool::HardwareConcurrency() : threads_;
  }

  std::size_t threads_ = 0;  ///< 0 = hardware concurrency
  std::size_t clients_ = 8;  ///< concurrent clients (and slots) for \serve
  /// Built on first \serve; persists so the plan/CanView caches accumulate
  /// across the session.
  std::unique_ptr<serve::FrontDoor> front_door_;
  std::optional<catalog::ServerId> requestor_;
  bool enforce_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t threads = 0;  // 0 = hardware concurrency
  std::size_t clients = 8;
  const char* fed_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--clients") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--clients requires a count\n");
        return 1;
      }
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed < 1) {
        std::fprintf(stderr, "--clients must be a positive integer\n");
        return 1;
      }
      clients = static_cast<std::size_t>(parsed);
    } else if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--threads requires a count\n");
        return 1;
      }
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed < 1) {
        std::fprintf(stderr, "--threads must be a positive integer\n");
        return 1;
      }
      threads = static_cast<std::size_t>(parsed);
    } else if (fed_path == nullptr) {
      fed_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: cisqpsh [--threads N] [--clients N] "
                   "[federation.fed]\n");
      return 1;
    }
  }
  const auto run = [&](catalog::Catalog cat, authz::AuthorizationSet auths) {
    Shell shell(std::move(cat), std::move(auths), threads, clients);
    return shell.Run();
  };
  if (fed_path != nullptr) {
    std::ifstream file(fed_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", fed_path);
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();
    auto fed = dsl::ParseFederation(text.str());
    if (!fed.ok()) {
      std::fprintf(stderr, "parse error: %s\n", fed.status().ToString().c_str());
      return 1;
    }
    return run(std::move(fed->catalog), std::move(fed->authorizations));
  }
  catalog::Catalog cat = workload::MedicalScenario::BuildCatalog();
  authz::AuthorizationSet auths =
      workload::MedicalScenario::BuildAuthorizations(cat);
  return run(std::move(cat), std::move(auths));
}
