// The traced run's probe pass: after the load phases, one thread times the
// layers' public entry points directly on requests drawn from the
// workload's own stream, so every layer gets a number at nanosecond
// resolution even where the served requests skip it (a plan-cache hit never
// searches, a memoized spelling never parses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace cisqp::e2e {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Exact q-quantile (rank ceil(q*n)) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Times sql::ParseAndBind and CanonicalQuerySignature, authz::ChaseClosure
/// and IncrementalClosure edits, FeasiblePlanSearch::EnumerateOrders and
/// Search (over a CanView-counting decorator of the epoch's CachingPolicy),
/// and DistributedExecutor::Execute, on `requests` requests of `workload`'s
/// stream that no client served. Appends the sql.*, authz.*, planner.* and
/// exec.execute_us.* metrics. Single-threaded apart from the workload's own
/// exec pool.
void RunProbe(const Workload& workload, std::size_t requests,
              std::vector<Metric>* out);

}  // namespace cisqp::e2e
