#include "authz/chase.hpp"

#include "authz/incremental.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisqp::authz {

Result<AuthorizationSet> ChaseClosure(const catalog::Catalog& cat,
                                      const AuthorizationSet& auths,
                                      const ChaseOptions& options,
                                      ChaseStats* stats) {
  CISQP_TRACE_SPAN(chase_span, "authz.chase");
  chase_span.AddAttribute("input_rules", auths.size());
  CISQP_ASSIGN_OR_RETURN(IncrementalClosure built,
                         IncrementalClosure::Build(cat, auths, options));
  const ChaseStats& local_stats = built.stats();
  CISQP_METRIC_ADD("chase.derived_rules", local_stats.derived_rules);
  CISQP_METRIC_ADD("chase.pairs_considered", local_stats.pairs_considered);
  chase_span.AddAttribute("derived_rules", local_stats.derived_rules);
  chase_span.AddAttribute("iterations", local_stats.iterations);
  if (stats != nullptr) *stats = local_stats;
  return built.closed();
}

}  // namespace cisqp::authz
