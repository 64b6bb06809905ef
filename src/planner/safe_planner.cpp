#include "planner/safe_planner.hpp"

#include <algorithm>
#include <cstdlib>

#include "authz/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisqp::planner {
namespace {

/// Keeps candidate lists in the order the paper's GetFirst expects:
/// decreasing join counter; stable for ties so right-child candidates (added
/// first at a join, per the Fig. 6 case order) precede left-child ones.
void SortCandidates(std::vector<Candidate>& candidates) {
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.count > b.count;
                   });
}

class PlannerRun {
 public:
  PlannerRun(const catalog::Catalog& cat, const authz::Policy& auths,
             const SafePlannerOptions& options, const plan::QueryPlan& plan)
      : options_(options), plan_(plan), finder_(cat, auths, options),
        states_(static_cast<std::size_t>(plan.node_count())) {}

  Result<PlanningReport> Run() {
    CISQP_TRACE_SPAN(span, "planner.safe_plan");
    span.AddAttribute("nodes", plan_.node_count());
    CISQP_METRIC_INC("planner.runs");
    PlanningReport report;
    if (!FindCandidates(*plan_.root())) {
      report.feasible = false;
      report.blocking_node = blocking_node_;
      report.can_view_calls = finder_.can_view_calls();
      report.blocking_rejections = std::move(blocking_rejections_);
      CISQP_METRIC_INC("planner.infeasible");
      span.AddAttribute("feasible", false);
      span.AddAttribute("blocking_node", blocking_node_);
      return report;
    }
    span.AddAttribute("feasible", true);

    Assignment assignment(plan_.node_count());
    AssignEx(*plan_.root(), std::nullopt, assignment);

    // Requestor extension: the party issuing the query must be allowed to
    // view the final result unless it computed the result itself.
    if (options_.requestor) {
      const catalog::ServerId root_master = assignment.Of(plan_.root()->id).master;
      if (*options_.requestor != root_master &&
          !finder_.CanView(State(*plan_.root()).profile, *options_.requestor,
                           plan_.root()->id, "requestor",
                           obs::AuditSite::kRequestor)) {
        report.feasible = false;
        report.blocking_node = plan_.root()->id;
        report.can_view_calls = finder_.can_view_calls();
        report.blocking_rejections.push_back(CandidateRejection{
            *options_.requestor, FromChild::kSelf, ExecutionMode::kLocal,
            "requestor", State(*plan_.root()).profile});
        return report;
      }
    }

    SafePlan safe;
    safe.assignment = std::move(assignment);
    safe.profiles.reserve(states_.size());
    for (const NodeCandidates& state : states_) {
      safe.profiles.push_back(state.profile);
    }
    safe.trace = std::move(trace_);
    report.feasible = true;
    report.plan = std::move(safe);
    report.can_view_calls = finder_.can_view_calls();
    span.AddAttribute("can_view_calls", finder_.can_view_calls());
    return report;
  }

 private:
  NodeCandidates& State(const plan::PlanNode& node) {
    return states_[static_cast<std::size_t>(node.id)];
  }

  /// Post-order traversal; returns false when some node has no candidate
  /// (the paper's exit(n)), recording it in blocking_node_.
  bool FindCandidates(const plan::PlanNode& node) {
    if (node.left && !FindCandidates(*node.left)) return false;
    if (node.right && !FindCandidates(*node.right)) return false;

    std::vector<CandidateRejection> rejections;
    NodeCandidates& state = State(node) = finder_.Find(
        node, node.left ? &State(*node.left) : nullptr,
        node.right ? &State(*node.right) : nullptr, &rejections);
    CISQP_METRIC_ADD("planner.candidates", state.candidates.size());
    CISQP_METRIC_ADD("planner.rejections", rejections.size());
    trace_.find_candidates.push_back(NodeTrace{
        node.id, state.profile, state.candidates,
        state.leftslave ? std::optional(state.leftslave->server) : std::nullopt,
        state.rightslave ? std::optional(state.rightslave->server) : std::nullopt});
    if (state.candidates.empty()) {
      blocking_node_ = node.id;
      blocking_rejections_ = std::move(rejections);
      return false;
    }
    return true;
  }

  void AssignEx(const plan::PlanNode& node,
                std::optional<catalog::ServerId> from_parent,
                Assignment& assignment) {
    const NodeCandidates& state = State(node);
    const Candidate* chosen = nullptr;
    if (from_parent) {
      for (const Candidate& c : state.candidates) {
        if (c.server == *from_parent) {
          chosen = &c;
          break;
        }
      }
      CISQP_CHECK_MSG(chosen != nullptr,
                      "parent pushed a server that is not a candidate of node n"
                          << node.id);
    } else {
      chosen = &state.candidates.front();
    }

    Executor ex;
    ex.master = chosen->server;
    ex.mode = node.op == plan::PlanOp::kJoin ? chosen->mode : ExecutionMode::kLocal;
    ex.origin = chosen->from;

    std::optional<catalog::ServerId> to_left;
    std::optional<catalog::ServerId> to_right;
    switch (chosen->from) {
      case FromChild::kSelf:
        break;
      case FromChild::kLeft:
        if (node.op == plan::PlanOp::kJoin &&
            chosen->mode == ExecutionMode::kSemiJoin) {
          CISQP_CHECK(chosen->slave.has_value());
          ex.slave = chosen->slave;
        }
        to_left = ex.master;
        to_right = ex.slave;
        break;
      case FromChild::kRight:
        if (node.op == plan::PlanOp::kJoin &&
            chosen->mode == ExecutionMode::kSemiJoin) {
          CISQP_CHECK(chosen->slave.has_value());
          ex.slave = chosen->slave;
        }
        to_left = ex.slave;
        to_right = ex.master;
        break;
      case FromChild::kThird:
        // Proxy master: children pick their own best candidates.
        break;
    }

    assignment.Set(node.id, ex);
    trace_.assign.push_back(AssignTrace{node.id, ex, from_parent});
    if (node.left) AssignEx(*node.left, to_left, assignment);
    if (node.right) AssignEx(*node.right, to_right, assignment);
  }

  const SafePlannerOptions& options_;
  const plan::QueryPlan& plan_;
  CandidateFinder finder_;
  std::vector<NodeCandidates> states_;
  PlanningTrace trace_;
  int blocking_node_ = -1;
  std::vector<CandidateRejection> blocking_rejections_;
};

}  // namespace

CandidateFinder::CandidateFinder(const catalog::Catalog& cat,
                                 const authz::Policy& auths,
                                 const SafePlannerOptions& options)
    : cat_(cat), auths_(auths), options_(options),
      planted_skip_right_check_(
          std::getenv("CISQP_FUZZ_PLANT_SKIP_RIGHT_CHECK") != nullptr) {}

bool CandidateFinder::CanView(const authz::Profile& profile,
                              catalog::ServerId server, int node_id,
                              const char* role, obs::AuditSite site) {
  ++can_view_calls_;
  CISQP_METRIC_INC("planner.canview_probes");
  return authz::AuditedCanView(cat_, auths_, profile, server, site, node_id,
                               role);
}

NodeCandidates CandidateFinder::Find(
    const plan::PlanNode& node, const NodeCandidates* left,
    const NodeCandidates* right, std::vector<CandidateRejection>* rejections) {
  NodeCandidates state;
  switch (node.op) {
    case plan::PlanOp::kRelation: {
      state.profile = authz::Profile::OfBaseRelation(cat_, node.relation);
      state.candidates.push_back(
          Candidate{cat_.relation(node.relation).server, FromChild::kSelf, 0,
                    ExecutionMode::kLocal, std::nullopt});
      break;
    }
    case plan::PlanOp::kProject: {
      IdSet x;
      for (catalog::AttributeId a : node.projection) x.Insert(a);
      state.profile = authz::Profile::Project(left->profile, std::move(x));
      for (const Candidate& c : left->candidates) {
        state.candidates.push_back(
            Candidate{c.server, FromChild::kLeft, c.count,
                      ExecutionMode::kLocal, std::nullopt});
      }
      break;
    }
    case plan::PlanOp::kSelect: {
      state.profile = authz::Profile::Select(
          left->profile, node.predicate.ReferencedAttributes());
      for (const Candidate& c : left->candidates) {
        state.candidates.push_back(
            Candidate{c.server, FromChild::kLeft, c.count,
                      ExecutionMode::kLocal, std::nullopt});
      }
      break;
    }
    case plan::PlanOp::kJoin:
      FindJoinCandidates(node, *left, *right, state, rejections);
      break;
  }
  SortCandidates(state.candidates);
  return state;
}

void CandidateFinder::FindJoinCandidates(
    const plan::PlanNode& node, const NodeCandidates& l,
    const NodeCandidates& r, NodeCandidates& state,
    std::vector<CandidateRejection>* rejections) {
  const JoinModeViews views =
      ComputeJoinModeViews(l.profile, r.profile, node.join_atoms);
  state.profile = authz::Profile::Join(l.profile, r.profile, views.condition);

  // CanView probe that records failed attempts when diagnostics are on.
  const auto probe = [&](const authz::Profile& view, catalog::ServerId server,
                         FromChild from, ExecutionMode mode,
                         const char* role) {
    if (CanView(view, server, node.id, role)) return true;
    if (rejections != nullptr) {
      rejections->push_back(CandidateRejection{server, from, mode, role, view});
    }
    return false;
  };

  // Case [S_r, NULL] and [S_r, S_l]: a master from the right child, with
  // the left operand either shipped whole or reduced through a left slave.
  // The slave search scans left-child candidates in decreasing counter
  // order and keeps the first two distinct hits: one slave suffices since
  // slaves are never propagated upward (paper §5), except that Def. 4.1
  // requires master ≠ slave — when a master candidate coincides with the
  // primary slave, the runner-up slave restores completeness
  // (DESIGN.md §2.2).
  std::optional<Candidate> leftslave2;
  for (const Candidate& c : l.candidates) {
    if (!probe(views.left_slave_view, c.server, FromChild::kLeft,
               ExecutionMode::kSemiJoin, "slave")) {
      continue;
    }
    if (!state.leftslave) {
      state.leftslave = c;
    } else if (c.server != state.leftslave->server) {
      leftslave2 = c;
      break;
    }
  }
  const auto slave_for = [](const std::optional<Candidate>& primary,
                            const std::optional<Candidate>& secondary,
                            catalog::ServerId master)
      -> std::optional<catalog::ServerId> {
    if (primary && primary->server != master) return primary->server;
    if (secondary && secondary->server != master) return secondary->server;
    return std::nullopt;
  };
  for (const Candidate& c : r.candidates) {
    const std::optional<catalog::ServerId> slave =
        slave_for(state.leftslave, leftslave2, c.server);
    if (slave && probe(views.right_master_view, c.server, FromChild::kRight,
                       ExecutionMode::kSemiJoin, "master")) {
      state.candidates.push_back(Candidate{c.server, FromChild::kRight,
                                           c.count + 1, ExecutionMode::kSemiJoin,
                                           slave});
    } else if (planted_skip_right_check_ ||
               probe(views.right_full_view, c.server, FromChild::kRight,
                     ExecutionMode::kRegularJoin, "master")) {
      // planted_skip_right_check_ is the differential harness's seeded
      // fault (DESIGN.md §11.4): with CISQP_FUZZ_PLANT_SKIP_RIGHT_CHECK
      // set, a right-child master is admitted without the Def. 3.3 probe
      // on its regular-join view. The fuzz tests assert this gets caught
      // and minimized; it must never be set outside those tests.
      state.candidates.push_back(Candidate{c.server, FromChild::kRight,
                                           c.count + 1,
                                           ExecutionMode::kRegularJoin,
                                           std::nullopt});
    }
  }

  // Symmetric case [S_l, NULL] and [S_l, S_r].
  std::optional<Candidate> rightslave2;
  for (const Candidate& c : r.candidates) {
    if (!probe(views.right_slave_view, c.server, FromChild::kRight,
               ExecutionMode::kSemiJoin, "slave")) {
      continue;
    }
    if (!state.rightslave) {
      state.rightslave = c;
    } else if (c.server != state.rightslave->server) {
      rightslave2 = c;
      break;
    }
  }
  for (const Candidate& c : l.candidates) {
    const std::optional<catalog::ServerId> slave =
        slave_for(state.rightslave, rightslave2, c.server);
    if (slave && probe(views.left_master_view, c.server, FromChild::kLeft,
                       ExecutionMode::kSemiJoin, "master")) {
      state.candidates.push_back(Candidate{c.server, FromChild::kLeft,
                                           c.count + 1, ExecutionMode::kSemiJoin,
                                           slave});
    } else if (probe(views.left_full_view, c.server, FromChild::kLeft,
                     ExecutionMode::kRegularJoin, "master")) {
      state.candidates.push_back(Candidate{c.server, FromChild::kLeft,
                                           c.count + 1,
                                           ExecutionMode::kRegularJoin,
                                           std::nullopt});
    }
  }

  // Footnote-3 extension: a third party that may view both operands in
  // full can execute the join as a proxy master.
  if (state.candidates.empty() && options_.allow_third_party) {
    for (catalog::ServerId t = 0; t < cat_.server_count(); ++t) {
      if (probe(views.right_full_view, t, FromChild::kThird,
                ExecutionMode::kRegularJoin, "proxy") &&
          probe(views.left_full_view, t, FromChild::kThird,
                ExecutionMode::kRegularJoin, "proxy")) {
        state.candidates.push_back(Candidate{
            t, FromChild::kThird, 1, ExecutionMode::kRegularJoin, std::nullopt});
      }
    }
  }
}

Result<PlanningReport> SafePlanner::Analyze(const plan::QueryPlan& plan) const {
  if (plan.empty()) return InvalidArgumentError("cannot plan an empty query tree");
  CISQP_RETURN_IF_ERROR(plan.Validate(cat_));
  PlannerRun run(cat_, auths_, options_, plan);
  return run.Run();
}

Result<SafePlan> SafePlanner::Plan(const plan::QueryPlan& plan) const {
  CISQP_ASSIGN_OR_RETURN(PlanningReport report, Analyze(plan));
  if (!report.feasible) {
    return InfeasibleError("no safe executor assignment exists; blocked at node n" +
                           std::to_string(report.blocking_node));
  }
  return std::move(*report.plan);
}

}  // namespace cisqp::planner
