#include "testcheck/harness.hpp"

#include <chrono>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>

#include "authz/chase.hpp"
#include "authz/incremental.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "obs/audit.hpp"
#include "planner/plan_search.hpp"
#include "planner/verifier.hpp"
#include "serve/front_door.hpp"
#include "testcheck/oracle.hpp"
#include "testcheck/row_kernels.hpp"

namespace cisqp::testcheck {
namespace {

/// The exhaustive minimum may differ from the heuristic's cost only by
/// floating-point noise when they pick the same assignment.
bool CostWithinTolerance(double oracle_min, double production) {
  return oracle_min <= production * (1.0 + 1e-9) + 1e-6;
}

/// What first differs between the production search and the per-order
/// reference; empty when they agree on the status or on plan, assignment,
/// trace, cost and both counters.
std::string SearchDifference(const catalog::Catalog& cat,
                             const Result<planner::PlanSearchResult>& got,
                             const Result<planner::PlanSearchResult>& want) {
  const auto verdict = [](const Result<planner::PlanSearchResult>& r) {
    return r.ok() ? std::string("a plan") : r.status().ToString();
  };
  if (got.ok() != want.ok() ||
      (!got.ok() && got.status().ToString() != want.status().ToString())) {
    return "search returned " + verdict(got) + ", per-order reference " +
           verdict(want);
  }
  if (!got.ok()) return "";
  if (got->plan.ToString(cat) != want->plan.ToString(cat)) {
    return "chosen plans differ";
  }
  if (!(got->safe_plan.assignment == want->safe_plan.assignment)) {
    return "assignments differ";
  }
  if (got->safe_plan.trace.ToString(cat) !=
      want->safe_plan.trace.ToString(cat)) {
    return "planning traces differ";
  }
  if (got->estimated_bytes != want->estimated_bytes ||
      got->orders_tried != want->orders_tried ||
      got->orders_feasible != want->orders_feasible) {
    std::ostringstream oss;
    oss << "search (bytes, tried, feasible) = (" << got->estimated_bytes << ", "
        << got->orders_tried << ", " << got->orders_feasible
        << "), per-order reference (" << want->estimated_bytes << ", "
        << want->orders_tried << ", " << want->orders_feasible << ")";
    return oss.str();
  }
  return "";
}

std::int64_t Timed(std::int64_t& acc, const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  acc += us;
  return us;
}

/// Denied audit entries recorded at the runtime-enforcement sites. Denials
/// at the planner/verifier sites are normal (rejected candidates);
/// a denial at the executor or requestor site is a blocked shipment.
std::size_t DeniedEnforcementEntries() {
  std::size_t denied = 0;
  for (const obs::AuditEntry& e : obs::AuthzAuditLog::Get().entries()) {
    if (e.allowed) continue;
    if (e.site == obs::AuditSite::kExecutor ||
        e.site == obs::AuditSite::kRequestor) {
      ++denied;
    }
  }
  return denied;
}

/// Exact (ordered, total-order cell comparison) table equality — stricter
/// than SameRowMultiset: profiling must not even reorder the result.
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

/// Flow conservation over the profiled plan: every child's recorded rows_out
/// must equal the parent's observed rows_in on that side. Returns the first
/// violation as a message, or empty when conserved.
std::string CheckRowConservation(const plan::QueryPlan& plan,
                                 const obs::QueryProfile& profile) {
  std::string violation;
  plan.ForEachPreOrder([&](const plan::PlanNode& node) {
    if (!violation.empty()) return;
    const obs::OperatorStats* stats = profile.FindOp(node.id);
    if (stats == nullptr) return;
    const auto check = [&](const plan::PlanNode* child, std::uint64_t rows_in,
                           const char* side) {
      if (child == nullptr || !violation.empty()) return;
      const obs::OperatorStats* child_stats = profile.FindOp(child->id);
      if (child_stats == nullptr) {
        violation = "node n" + std::to_string(node.id) + " has a profiled " +
                    side + " input but child n" + std::to_string(child->id) +
                    " recorded no stats";
        return;
      }
      if (child_stats->rows_out != rows_in) {
        violation = "node n" + std::to_string(child->id) + " produced " +
                    std::to_string(child_stats->rows_out) + " rows but parent n" +
                    std::to_string(node.id) + " observed " +
                    std::to_string(rows_in) + " on its " + side + " input";
      }
    };
    check(node.left.get(), stats->rows_in_left, "left");
    check(node.right.get(), stats->rows_in_right, "right");
  });
  return violation;
}

}  // namespace

std::string_view MismatchKindName(MismatchKind kind) noexcept {
  switch (kind) {
    case MismatchKind::kChaseClosure: return "chase-closure";
    case MismatchKind::kFeasibility: return "feasibility";
    case MismatchKind::kSearchDivergence: return "search-divergence";
    case MismatchKind::kCost: return "cost";
    case MismatchKind::kUnsafePlan: return "unsafe-plan";
    case MismatchKind::kThreadDivergence: return "thread-divergence";
    case MismatchKind::kResultMultiset: return "result-multiset";
    case MismatchKind::kAuditViolation: return "audit-violation";
    case MismatchKind::kProfileDivergence: return "profile-divergence";
    case MismatchKind::kServingDivergence: return "serving-divergence";
    case MismatchKind::kPolicyEditDivergence: return "policy-edit-divergence";
    case MismatchKind::kPipelineError: return "pipeline-error";
  }
  return "unknown";
}

std::string Mismatch::ToString() const {
  std::string out{MismatchKindName(kind)};
  out += ": ";
  out += detail;
  return out;
}

std::string CheckReport::ToString() const {
  if (ok()) return "ok";
  std::ostringstream oss;
  for (const Mismatch& m : mismatches) oss << m.ToString() << "\n";
  return oss.str();
}

Result<CheckReport> CheckScenario(const Scenario& s,
                                  const CheckOptions& options) {
  CheckReport report;
  const auto fail = [&](MismatchKind kind, std::string detail) {
    report.mismatches.push_back(Mismatch{kind, std::move(detail)});
  };
  const catalog::Catalog& cat = s.catalog;

  // --- chase arm -----------------------------------------------------------
  authz::ChaseOptions chase_options;
  chase_options.max_path_atoms = options.chase_max_path_atoms;
  Result<authz::AuthorizationSet> chased = InternalError("unset");
  Timed(report.production_us,
        [&] { chased = authz::ChaseClosure(cat, s.auths, chase_options); });
  const bool chase_capped =
      !chased.ok() && chased.status().code() == StatusCode::kResourceExhausted;
  if (!chased.ok() && !chase_capped) {
    return chased.status();
  }
  if (chased.ok()) {
    authz::AuthorizationSet naive;
    Timed(report.oracle_us, [&] {
      naive = NaiveChaseOracle(cat, s.auths, options.chase_max_path_atoms);
    });
    const std::multiset<std::string> got = CanonicalPolicy(cat, *chased);
    const std::multiset<std::string> want = CanonicalPolicy(cat, naive);
    if (got != want) {
      std::ostringstream oss;
      oss << "production closure has " << got.size()
          << " canonical rules, naive fixpoint has " << want.size();
      fail(MismatchKind::kChaseClosure, oss.str());
    }
  }

  // --- planning arms: pre-chase and post-chase policies --------------------
  const plan::StatsCatalog stats = s.ComputeStats();
  struct PolicyArm {
    const char* label;
    const authz::AuthorizationSet* policy;
  };
  std::vector<PolicyArm> arms{{"pre-chase", &s.auths}};
  if (chased.ok()) arms.push_back({"post-chase", &*chased});

  // The plan chosen under the post-chase policy, kept for the execution arm.
  std::optional<planner::PlanSearchResult> chosen;
  const authz::AuthorizationSet* chosen_policy = nullptr;

  for (const PolicyArm& arm : arms) {
    planner::PlanSearchOptions search_options;
    search_options.max_orders = options.max_orders;
    search_options.threads = 1;
    const planner::FeasiblePlanSearch search(cat, *arm.policy, &stats);
    Result<planner::PlanSearchResult> produced = InternalError("unset");
    Timed(report.production_us,
          [&] { produced = search.Search(s.query, search_options); });
    bool production_feasible = false;
    if (produced.ok()) {
      production_feasible = true;
    } else if (produced.status().code() != StatusCode::kInfeasible) {
      fail(MismatchKind::kPipelineError,
           std::string(arm.label) + " search: " + produced.status().ToString());
      continue;
    }

    Result<planner::PlanSearchResult> per_order = InternalError("unset");
    Timed(report.oracle_us, [&] {
      per_order = PerOrderPlanSearch(cat, *arm.policy, s.query, &stats,
                                     search_options);
    });
    if (const std::string diff = SearchDifference(cat, produced, per_order);
        !diff.empty()) {
      fail(MismatchKind::kSearchDivergence,
           std::string(arm.label) + ": " + diff);
    }

    PlanOracleOptions oracle_options;
    oracle_options.max_orders = options.max_orders;
    Result<PlanOracleResult> oracle = InternalError("unset");
    Timed(report.oracle_us, [&] {
      oracle = ExhaustivePlanOracle(cat, *arm.policy, s.query, &stats,
                                    oracle_options);
    });
    if (!oracle.ok()) {
      // The enumeration guard tripped: the oracle abstains on this arm.
      if (oracle.status().code() == StatusCode::kResourceExhausted) continue;
      return oracle.status();
    }

    if (production_feasible != oracle->feasible) {
      std::ostringstream oss;
      oss << arm.label << ": production says "
          << (production_feasible ? "feasible" : "infeasible")
          << ", exhaustive enumeration says "
          << (oracle->feasible ? "feasible" : "infeasible") << " ("
          << oracle->safe_assignments << " safe assignments over "
          << oracle->orders_examined << " orders)";
      fail(MismatchKind::kFeasibility, oss.str());
      continue;
    }
    if (!production_feasible) continue;

    if (!CostWithinTolerance(oracle->min_cost_bytes, produced->estimated_bytes)) {
      std::ostringstream oss;
      oss << arm.label << ": exhaustive minimum " << oracle->min_cost_bytes
          << " bytes exceeds chosen plan's " << produced->estimated_bytes
          << " bytes — the cost models disagree";
      fail(MismatchKind::kCost, oss.str());
    }

    const Status verdict = planner::VerifyAssignment(
        cat, *arm.policy, produced->plan, produced->safe_plan.assignment);
    if (!verdict.ok()) {
      fail(MismatchKind::kUnsafePlan,
           std::string(arm.label) +
               ": independent verifier rejects the chosen assignment: " +
               verdict.ToString());
    }

    if (options.threads > 1) {
      search_options.threads = options.threads;
      Result<planner::PlanSearchResult> parallel = InternalError("unset");
      Timed(report.production_us,
            [&] { parallel = search.Search(s.query, search_options); });
      const bool same =
          parallel.ok() &&
          parallel->plan.ToString(cat) == produced->plan.ToString(cat) &&
          parallel->safe_plan.assignment == produced->safe_plan.assignment &&
          parallel->estimated_bytes == produced->estimated_bytes;
      if (!same) {
        fail(MismatchKind::kThreadDivergence,
             std::string(arm.label) +
                 ": plan search differs between threads=1 and threads=" +
                 std::to_string(options.threads));
      }
    }

    chosen = std::move(*produced);
    chosen_policy = arm.policy;
  }

  report.feasible = chosen.has_value();
  if (!options.check_execution) return report;

  CISQP_ASSIGN_OR_RETURN(const exec::Cluster cluster, s.MakeCluster());

  // The oracle runs the retained row-at-a-time kernels, so every seed also
  // differentially validates the columnar engine the executor now runs on.
  Result<storage::Table> reference = InternalError("unset");
  if (chosen.has_value()) {
    Timed(report.oracle_us,
          [&] { reference = ReferenceEvaluate(cluster, chosen->plan); });
    CISQP_RETURN_IF_ERROR(reference.status());
  }

  // --- serving arm: cold vs cached answers must match exactly --------------
  // The scenario query goes through a FrontDoor twice. The first request
  // plans cold, the second must hit the plan cache, and the two answers
  // must be indistinguishable: byte-identical tables on success, identical
  // typed statuses on failure. Infeasible scenarios exercise the negative
  // cache the same way, so this arm runs regardless of feasibility.
  if (options.check_serving) {
    serve::ServeOptions serve_options;
    serve_options.max_orders = options.max_orders;
    serve_options.planning_threads = 1;
    serve_options.chase.max_path_atoms = options.chase_max_path_atoms;
    serve::FrontDoor door(cat, s.auths, cluster, &stats, serve_options);
    serve::Request request;
    request.sql = s.query.ToString(cat);
    Result<serve::Response> cold = InternalError("unset");
    Timed(report.production_us, [&] { cold = door.Serve(request); });
    Result<serve::Response> warm = InternalError("unset");
    Timed(report.production_us, [&] { warm = door.Serve(request); });
    if (cold.ok() != warm.ok()) {
      fail(MismatchKind::kServingDivergence,
           "cold and cached serving runs disagree on success: cold=" +
               cold.status().ToString() +
               ", cached=" + warm.status().ToString());
    } else if (!cold.ok()) {
      if (cold.status().code() != warm.status().code() ||
          cold.status().message() != warm.status().message()) {
        fail(MismatchKind::kServingDivergence,
             "cold and cached typed errors differ: cold=" +
                 cold.status().ToString() +
                 ", cached=" + warm.status().ToString());
      }
      if (cold.status().code() != StatusCode::kInfeasible) {
        fail(MismatchKind::kServingDivergence,
             "serving failed with an unexpected status: " +
                 cold.status().ToString());
      } else if (chosen.has_value()) {
        fail(MismatchKind::kServingDivergence,
             "serving says infeasible where the pipeline found a feasible "
             "plan");
      }
    } else {
      if (cold->plan_cache_hit) {
        fail(MismatchKind::kServingDivergence,
             "first serving request hit a plan cache that should be empty");
      }
      if (!warm->plan_cache_hit) {
        fail(MismatchKind::kServingDivergence,
             "second identical serving request missed the plan cache");
      }
      if (!TablesByteIdentical(cold->table, warm->table)) {
        fail(MismatchKind::kServingDivergence,
             "cached serving result is not byte-identical to the cold "
             "result");
      }
      if (!chosen.has_value()) {
        fail(MismatchKind::kServingDivergence,
             "serving succeeded where the pipeline found no feasible plan");
      } else if (!storage::Table::SameRowMultiset(cold->table, *reference)) {
        fail(MismatchKind::kServingDivergence,
             "serving result has " + std::to_string(cold->table.row_count()) +
                 " rows, reference evaluation has " +
                 std::to_string(reference->row_count()));
      }
    }
  }

  // --- policy-edit arm: incremental maintenance vs full recompute ----------
  // Replays a deterministic grant/revoke script through one long-lived
  // FrontDoor (incremental delta-chase, selective cache retention) and,
  // after every edit, diffs it against throwaway from-scratch state built on
  // the edited rule set: the canonical closure (against a fresh Build and
  // against the naïve fixpoint, which shares no chase code), the per-profile
  // CanView verdicts (deny reasons byte-for-byte), and the served answer —
  // success tables, typed kInfeasible messages, and runtime-enforcement
  // audit entries alike. The long-lived door is served twice per edit so
  // retained cache entries answer, not just cold plans.
  if (options.check_policy_edits && options.policy_edit_count > 0 &&
      s.auths.size() > 0) {
    serve::ServeOptions serve_options;
    serve_options.max_orders = options.max_orders;
    serve_options.planning_threads = 1;
    serve_options.chase.max_path_atoms = options.chase_max_path_atoms;
    serve::FrontDoor inc_door(cat, s.auths, cluster, &stats, serve_options);
    authz::AuthorizationSet oracle_base = s.auths;

    // Closure-level differential: a separately maintained incremental
    // closure vs a from-scratch build and the naïve fixpoint. Capped
    // scenarios abstain (the door degrades to serving the raw rules in that
    // regime anyway).
    std::optional<authz::IncrementalClosure> inc;
    {
      Result<authz::IncrementalClosure> built =
          authz::IncrementalClosure::Build(cat, s.auths, serve_options.chase);
      if (built.ok()) {
        inc.emplace(std::move(*built));
      } else if (built.status().code() != StatusCode::kResourceExhausted) {
        return built.status();
      }
    }

    // Candidate rules: the scenario's own grants plus one-attribute-narrowed
    // variants (still well formed — shrinking attributes cannot violate the
    // path-mention rule). Each step flips the membership of one candidate,
    // so the script interleaves grants of absent rules with revokes.
    std::vector<authz::Authorization> pool = s.auths.All();
    const std::size_t original_rules = pool.size();
    for (std::size_t i = 0; i < original_rules; ++i) {
      if (pool[i].attributes.size() < 2) continue;
      authz::Authorization narrowed = pool[i];
      narrowed.attributes.Erase(narrowed.attributes.ids().front());
      pool.push_back(std::move(narrowed));
    }

    Rng rng(s.seed ^ 0x9e3779b97f4a7c15ULL);
    serve::Request request;
    request.sql = s.query.ToString(cat);
    obs::AuthzAuditLog& audit = obs::AuthzAuditLog::Get();
    const auto enforcement_entries = [&audit] {
      std::vector<std::string> out;
      for (const obs::AuditEntry& e : audit.entries()) {
        if (e.site == obs::AuditSite::kExecutor ||
            e.site == obs::AuditSite::kRequestor) {
          out.push_back(e.ToString());
        }
      }
      return out;
    };
    const auto same_answer = [](const Result<serve::Response>& a,
                                const Result<serve::Response>& b) {
      if (a.ok() != b.ok()) return false;
      if (!a.ok()) {
        return a.status().code() == b.status().code() &&
               a.status().message() == b.status().message();
      }
      return TablesByteIdentical(a->table, b->table);
    };

    for (std::size_t step = 0; step < options.policy_edit_count; ++step) {
      const authz::Authorization cand = pool[rng.UniformIndex(pool.size())];
      const bool grant = !oracle_base.Contains(cand);
      const std::string edit_label =
          (grant ? std::string("grant ") : std::string("revoke ")) +
          cand.ToString(cat) + " (edit " + std::to_string(step + 1) + ")";

      Result<authz::ClosureDelta> edited = InternalError("unset");
      Timed(report.production_us, [&] {
        edited = grant ? inc_door.AddRule(cand) : inc_door.RevokeRule(cand);
      });
      Status mirrored = Status::Ok();
      Timed(report.oracle_us, [&] {
        mirrored = grant ? oracle_base.Add(cat, cand)
                         : oracle_base.Remove(cat, cand);
      });
      if (edited.ok() != mirrored.ok() ||
          (!edited.ok() &&
           (edited.status().code() != mirrored.code() ||
            edited.status().message() != mirrored.message()))) {
        fail(MismatchKind::kPolicyEditDivergence,
             edit_label + ": serving edit says " +
                 edited.status().ToString() + ", direct base edit says " +
                 mirrored.ToString());
        break;
      }
      if (!edited.ok()) continue;  // both rejected the edit: nothing changed

      if (inc.has_value()) {
        Result<authz::ClosureDelta> inc_edit =
            grant ? inc->AddRule(cand) : inc->RevokeRule(cand);
        if (!inc_edit.ok()) {
          if (inc_edit.status().code() != StatusCode::kResourceExhausted) {
            fail(MismatchKind::kPolicyEditDivergence,
                 edit_label + ": incremental closure rejected an edit the "
                              "base accepted: " +
                     inc_edit.status().ToString());
            break;
          }
          inc.reset();  // cap tripped mid-edit: abstain from closure diffs
        }
      }
      if (inc.has_value()) {
        Result<authz::IncrementalClosure> rebuilt = InternalError("unset");
        Timed(report.oracle_us, [&] {
          rebuilt = authz::IncrementalClosure::Build(cat, oracle_base,
                                                     serve_options.chase);
        });
        if (rebuilt.ok()) {
          const std::multiset<std::string> maintained =
              CanonicalPolicy(cat, inc->closed());
          if (maintained != CanonicalPolicy(cat, rebuilt->closed())) {
            fail(MismatchKind::kPolicyEditDivergence,
                 edit_label +
                     ": incrementally maintained closure differs from a "
                     "fresh build");
          }
          authz::AuthorizationSet naive;
          Timed(report.oracle_us, [&] {
            naive = NaiveChaseOracle(cat, oracle_base,
                                     options.chase_max_path_atoms);
          });
          if (maintained != CanonicalPolicy(cat, naive)) {
            fail(MismatchKind::kPolicyEditDivergence,
                 edit_label +
                     ": incrementally maintained closure differs from the "
                     "naive fixpoint");
          }
          // Deny reasons byte-for-byte: probe every candidate rule's shape
          // against every server under both closures. Both are canonical,
          // so ExplainCanView's first-wins tie-break sees the same order.
          const authz::AuthorizationSet& canonical = rebuilt->closed();
          for (const authz::Authorization& probe : pool) {
            authz::Profile p;
            p.pi = probe.attributes;
            p.join = probe.path;
            for (std::size_t srv = 0; srv < cat.server_count(); ++srv) {
              const auto server = static_cast<catalog::ServerId>(srv);
              const authz::CanViewExplanation got =
                  inc->closed().ExplainCanView(p, server);
              const authz::CanViewExplanation want =
                  canonical.ExplainCanView(p, server);
              if (got.allowed != want.allowed || got.reason != want.reason ||
                  got.matched_attributes != want.matched_attributes ||
                  got.DescribeDenial(cat) != want.DescribeDenial(cat)) {
                fail(MismatchKind::kPolicyEditDivergence,
                     edit_label + ": CanView verdicts diverge for profile " +
                         p.ToString(cat) + " at server " +
                         std::to_string(srv));
              }
            }
          }
        } else if (rebuilt.status().code() ==
                   StatusCode::kResourceExhausted) {
          inc.reset();  // oracle capped where the incremental path was not
        } else {
          return rebuilt.status();
        }
      }

      // Served-answer differential: the long-lived door (first serve may be
      // a retained cache hit, second is definitely warm) vs a from-scratch
      // door over the edited base.
      serve::FrontDoor oracle_door(cat, oracle_base, cluster, &stats,
                                   serve_options);
      audit.Enable();
      Result<serve::Response> inc_first = InternalError("unset");
      Timed(report.production_us,
            [&] { inc_first = inc_door.Serve(request); });
      const std::vector<std::string> inc_audit = enforcement_entries();
      audit.Enable();
      Result<serve::Response> inc_second = InternalError("unset");
      Timed(report.production_us,
            [&] { inc_second = inc_door.Serve(request); });
      audit.Enable();
      Result<serve::Response> oracle_cold = InternalError("unset");
      Timed(report.oracle_us,
            [&] { oracle_cold = oracle_door.Serve(request); });
      const std::vector<std::string> oracle_audit = enforcement_entries();
      audit.Disable();
      if (!same_answer(inc_first, oracle_cold)) {
        fail(MismatchKind::kPolicyEditDivergence,
             edit_label + ": served answer diverges from the from-scratch "
                          "door (incremental=" +
                 inc_first.status().ToString() +
                 ", oracle=" + oracle_cold.status().ToString() + ")");
      }
      if (!same_answer(inc_second, oracle_cold)) {
        fail(MismatchKind::kPolicyEditDivergence,
             edit_label + ": warm re-serve diverges from the from-scratch "
                          "door");
      }
      if (inc_audit != oracle_audit) {
        fail(MismatchKind::kPolicyEditDivergence,
             edit_label + ": runtime-enforcement audit entries differ (" +
                 std::to_string(inc_audit.size()) + " vs " +
                 std::to_string(oracle_audit.size()) + ")");
      }
    }
  }

  if (!chosen.has_value()) return report;

  // --- execution arm -------------------------------------------------------
  const exec::DistributedExecutor executor(cluster, *chosen_policy);
  obs::AuthzAuditLog& audit = obs::AuthzAuditLog::Get();
  audit.Enable();
  Result<exec::ExecutionResult> executed = InternalError("unset");
  Timed(report.production_us, [&] {
    executed = executor.Execute(chosen->plan, chosen->safe_plan.assignment);
  });
  if (executed.ok()) {
    if (!storage::Table::SameRowMultiset(executed->table, *reference)) {
      std::ostringstream oss;
      oss << "distributed result has " << executed->table.row_count()
          << " rows, reference evaluation has " << reference->row_count();
      fail(MismatchKind::kResultMultiset, oss.str());
    }
    const std::size_t denied = DeniedEnforcementEntries();
    if (denied != 0) {
      fail(MismatchKind::kAuditViolation,
           std::to_string(denied) +
               " denied executor/requestor audit entries on a successful run");
    }

    // --- profile arm: observation only, and flow conservation --------------
    obs::QueryProfile profile;
    exec::ExecutionOptions profiled_options;
    profiled_options.profile = &profile;
    Result<exec::ExecutionResult> profiled = InternalError("unset");
    Timed(report.production_us, [&] {
      profiled = executor.Execute(chosen->plan, chosen->safe_plan.assignment,
                                  profiled_options);
    });
    if (!profiled.ok()) {
      fail(MismatchKind::kProfileDivergence,
           "profiled re-execution failed where the unprofiled run succeeded: " +
               profiled.status().ToString());
    } else {
      if (!TablesByteIdentical(executed->table, profiled->table)) {
        fail(MismatchKind::kProfileDivergence,
             "profiled re-execution returned a different table (profiling "
             "must be observation only)");
      }
      const std::string violation =
          CheckRowConservation(chosen->plan, profile);
      if (!violation.empty()) {
        fail(MismatchKind::kProfileDivergence,
             "row conservation violated: " + violation);
      }
    }

    // --- morsel arm: parallel execution is byte-identical ------------------
    // Re-run the distributed pipeline with a worker pool and tiny morsels
    // (so even fuzz-sized tables fan out) — the vectorized kernels promise
    // the exact sequential bytes at any thread count.
    if (options.threads > 1) {
      exec::ExecutionOptions parallel_options;
      parallel_options.threads = options.threads;
      parallel_options.morsel.morsel_rows = 64;
      parallel_options.morsel.min_parallel_rows = 0;
      Result<exec::ExecutionResult> parallel = InternalError("unset");
      Timed(report.production_us, [&] {
        parallel = executor.Execute(chosen->plan, chosen->safe_plan.assignment,
                                    parallel_options);
      });
      if (!parallel.ok()) {
        fail(MismatchKind::kThreadDivergence,
             "morsel-parallel execution failed where the sequential run "
             "succeeded: " +
                 parallel.status().ToString());
      } else if (!TablesByteIdentical(executed->table, parallel->table)) {
        fail(MismatchKind::kThreadDivergence,
             "morsel-parallel execution (threads=" +
                 std::to_string(options.threads) +
                 ") returned a different table than the sequential run");
      }
    }
  } else if (executed.status().code() == StatusCode::kUnauthorized) {
    fail(MismatchKind::kUnsafePlan,
         "runtime enforcement blocked a planner-approved assignment: " +
             executed.status().ToString());
  } else {
    fail(MismatchKind::kPipelineError,
         "execution failed: " + executed.status().ToString());
  }

  audit.Disable();
  return report;
}

}  // namespace cisqp::testcheck
