#include "authz/incremental.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisqp::authz {

using chase_internal::EdgeIndex;
using chase_internal::RulePool;

IdSet RuleRelations(const catalog::Catalog& cat, const Authorization& auth) {
  IdSet relations = auth.path.Relations(cat);
  for (const IdSet::value_type a : auth.attributes) {
    relations.Insert(cat.attribute(a).relation);
  }
  return relations;
}

IncrementalClosure::IncrementalClosure(const catalog::Catalog& cat,
                                       ChaseOptions options)
    : cat_(&cat),
      options_(options),
      index_(std::make_unique<EdgeIndex>(cat)) {}

Result<IncrementalClosure> IncrementalClosure::Build(
    const catalog::Catalog& cat, const AuthorizationSet& base,
    const ChaseOptions& options) {
  CISQP_TRACE_SPAN(span, "authz.incremental.build");
  IncrementalClosure inc(cat, options);
  inc.base_ = base;
  const std::size_t servers = cat.server_count();
  inc.canon_.resize(servers);
  inc.derived_.resize(servers, 0);
  for (catalog::ServerId server = 0; server < servers; ++server) {
    CISQP_ASSIGN_OR_RETURN(RulePool pool, inc.RechaseServer(server));
    // Each server chases under a fresh per-server counter, and the
    // whole-closure budget is enforced over the running total in server
    // order.
    CISQP_RETURN_IF_ERROR(inc.CheckClosureCap());
    inc.canon_[server] = Canonicalize(pool);
    inc.pools_.push_back(std::move(pool));
  }
  AuthorizationSet closed;
  for (catalog::ServerId server = 0; server < servers; ++server) {
    for (const auto& [path, grants] : inc.canon_[server]) {
      for (const IdSet& attrs : grants) {
        CISQP_RETURN_IF_ERROR(
            closed.Add(cat, Authorization{attrs, path, server}));
      }
    }
  }
  inc.closed_ = std::move(closed);
  span.AddAttribute("closed_rules", inc.closed_.size());
  return inc;
}

Result<RulePool> IncrementalClosure::RechaseServer(catalog::ServerId server) {
  RulePool pool(*index_);
  for (const Authorization& auth : base_.ForServer(server)) {
    pool.AddIfNovel(auth.attributes, auth.path);
  }
  // Fresh counter: the cap bounds this from-scratch chase of one server,
  // never chase work accumulated over the object's lifetime — a long edit
  // history must not trip it spuriously. stats_ still accumulates the work
  // for reporting.
  ChaseStats local;
  const Status run = chase_internal::RunSemiNaive(*cat_, *index_, pool, 0,
                                                  server, options_, local);
  stats_.iterations += local.iterations;
  stats_.pairs_considered += local.pairs_considered;
  stats_.derived_rules += local.derived_rules;
  CISQP_RETURN_IF_ERROR(run);
  derived_[server] = local.derived_rules;
  return pool;
}

Status IncrementalClosure::CheckClosureCap() const {
  std::size_t total = 0;
  for (const std::size_t d : derived_) total += d;
  if (total > options_.max_derived_rules) {
    return chase_internal::ExceededCap(options_);
  }
  return Status::Ok();
}

IncrementalClosure::CanonicalRules IncrementalClosure::Canonicalize(
    const RulePool& pool) {
  CanonicalRules canon;
  for (const RulePool::Rule& rule : pool.rules()) {
    canon[rule.path].push_back(rule.attrs);
  }
  for (auto& [path, grants] : canon) {
    std::vector<IdSet> kept;
    for (const IdSet& candidate : grants) {
      const bool subsumed =
          std::any_of(grants.begin(), grants.end(), [&](const IdSet& other) {
            return !(other == candidate) && candidate.IsSubsetOf(other);
          });
      if (!subsumed &&
          std::find(kept.begin(), kept.end(), candidate) == kept.end()) {
        kept.push_back(candidate);
      }
    }
    std::sort(kept.begin(), kept.end());
    grants = std::move(kept);
  }
  return canon;
}

Status IncrementalClosure::Publish(catalog::ServerId server,
                                   CanonicalRules next, ClosureDelta& delta) {
  const CanonicalRules& prev = canon_[server];
  // Count the symmetric difference of the two canonical rule sets. Both
  // sides are path-sorted maps of sorted grant vectors, so per-path set
  // differences see everything.
  for (const auto& [path, grants] : next) {
    const auto it = prev.find(path);
    for (const IdSet& attrs : grants) {
      const bool existed =
          it != prev.end() &&
          std::binary_search(it->second.begin(), it->second.end(), attrs);
      if (!existed) ++delta.added_rules;
    }
  }
  for (const auto& [path, grants] : prev) {
    const auto it = next.find(path);
    for (const IdSet& attrs : grants) {
      const bool survives =
          it != next.end() &&
          std::binary_search(it->second.begin(), it->second.end(), attrs);
      if (!survives) ++delta.removed_rules;
    }
  }
  if (delta.added_rules != 0 || delta.removed_rules != 0) {
    delta.servers.Insert(server);
  }
  // A server gaining its first rule (or losing its last) flips the
  // kNoRulesForServer deny reason for every profile probed at it, including
  // profiles over unrelated relations — selective retention is off the
  // table for this edit.
  if (prev.empty() != next.empty()) delta.full = true;

  canon_[server] = std::move(next);
  AuthorizationSet closed;
  for (catalog::ServerId s = 0; s < canon_.size(); ++s) {
    for (const auto& [path, grants] : canon_[s]) {
      for (const IdSet& attrs : grants) {
        CISQP_RETURN_IF_ERROR(closed.Add(*cat_, Authorization{attrs, path, s}));
      }
    }
  }
  closed_ = std::move(closed);
  return Status::Ok();
}

Result<ClosureDelta> IncrementalClosure::AddRule(const Authorization& auth) {
  CISQP_RETURN_IF_ERROR(base_.Add(*cat_, auth));
  CISQP_TRACE_SPAN(span, "authz.incremental.grant");
  CISQP_METRIC_INC("authz.incremental.grants");
  ClosureDelta delta;
  delta.relations = RuleRelations(*cat_, auth);

  RulePool& pool = pools_[auth.server];
  const std::size_t delta_begin = pool.size();
  if (!pool.AddIfNovel(auth.attributes, auth.path)) {
    // Subsumed by an existing closure rule: every derivation through the
    // new rule is subsumed by the corresponding derivation through the
    // subsuming rule, so the canonical closure is unchanged.
    return delta;
  }
  // Seed the counter with this server's prior derived count so the cap
  // sees exactly what a from-scratch chase over the edited base would: the
  // server's existing derivations plus this delta round's — never other
  // servers' work or earlier edits' rechases.
  ChaseStats local;
  local.derived_rules = derived_[auth.server];
  const Status run = chase_internal::RunSemiNaive(
      *cat_, *index_, pool, delta_begin, auth.server, options_, local);
  stats_.iterations += local.iterations;
  stats_.pairs_considered += local.pairs_considered;
  stats_.derived_rules += local.derived_rules - derived_[auth.server];
  CISQP_RETURN_IF_ERROR(run);
  derived_[auth.server] = local.derived_rules;
  CISQP_RETURN_IF_ERROR(CheckClosureCap());
  CISQP_RETURN_IF_ERROR(Publish(auth.server, Canonicalize(pool), delta));
  span.AddAttribute("added_rules", delta.added_rules);
  return delta;
}

Result<ClosureDelta> IncrementalClosure::RevokeRule(const Authorization& auth) {
  CISQP_RETURN_IF_ERROR(base_.Remove(*cat_, auth));
  CISQP_TRACE_SPAN(span, "authz.incremental.revoke");
  CISQP_METRIC_INC("authz.incremental.revokes");
  ClosureDelta delta;
  delta.relations = RuleRelations(*cat_, auth);

  CISQP_ASSIGN_OR_RETURN(RulePool pool, RechaseServer(auth.server));
  CISQP_RETURN_IF_ERROR(CheckClosureCap());
  CanonicalRules next = Canonicalize(pool);
  pools_[auth.server] = std::move(pool);
  CISQP_RETURN_IF_ERROR(Publish(auth.server, std::move(next), delta));
  span.AddAttribute("removed_rules", delta.removed_rules);
  return delta;
}

}  // namespace cisqp::authz
