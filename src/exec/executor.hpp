// DistributedExecutor: runs a query tree plan under an executor assignment,
// materializing the exact Fig. 5 flows — whole-relation shipments for
// regular joins, the 5-step semi-join protocol — over the simulated cluster,
// with per-transfer network accounting and runtime release enforcement.
//
// Runtime enforcement is the second line of defense behind the planner: every
// *physical* shipment is checked against the authorization set with the
// profile of the shipped relation before the receiving server sees a byte.
// A safe assignment never trips it (tests assert this); a hand-crafted unsafe
// assignment is stopped at the first unauthorized transfer. Like the paper,
// the executor assumes a fault-free federation: every shipment arrives.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "algebra/vectorized.hpp"
#include "authz/authorization.hpp"
#include "exec/cluster.hpp"
#include "exec/network.hpp"
#include "obs/profile.hpp"
#include "planner/assignment.hpp"
#include "planner/mode_views.hpp"

namespace cisqp::exec {

struct ExecutionOptions {
  /// Check every physical transfer against the authorization set.
  bool enforce_releases = true;
  /// Deliver the final result to this server (checked as a release when it
  /// differs from the root master).
  std::optional<catalog::ServerId> requestor;
  /// When set, receives the transfer log of a FAILED execution —
  /// ExecutionResult only exists on success, but enforcement tests must be
  /// able to assert what was (not) shipped before the error. On success the
  /// log lives solely in ExecutionResult::network and this sink is cleared,
  /// never left holding a duplicate copy of the log.
  NetworkStats* network_out = nullptr;
  /// When set, the execution fills one OperatorStats per plan node and one
  /// TransferStats per shipment into this profile (EXPLAIN ANALYZE, benches,
  /// stats feedback). Independent of the Tracer/MetricsRegistry enablement;
  /// nullptr — the default — costs one pointer test per operator.
  obs::QueryProfile* profile = nullptr;
  /// Intra-operator parallelism for the vectorized kernels (DESIGN.md §14):
  /// target thread count including the caller. 1 — the default — runs the
  /// exact sequential kernel paths; >1 borrows the process-shared pool for
  /// that thread count (unless `pool` below is set) and fans operators out
  /// in morsels — concurrent queries share the workers rather than each
  /// spawning their own. Results are byte-identical at any thread count.
  std::size_t threads = 1;
  /// Shared worker pool to use instead of spawning one per execution (e.g.
  /// the benches' long-lived pool). Overrides `threads`.
  ThreadPool* pool = nullptr;
  /// Kernel tiling knobs (morsel_rows, radix_bits, min_parallel_rows). The
  /// pool field inside is ignored — the executor installs the pool resolved
  /// from `pool`/`threads` above.
  algebra::MorselContext morsel;
};

/// Compute performed at one server during a query (operator invocations, the
/// rows they produced, and the wall-clock time spent producing them) — the
/// load-distribution side of the accounting, complementing NetworkStats'
/// communication side.
struct ServerLoad {
  std::size_t operations = 0;
  std::size_t rows_produced = 0;
  std::int64_t busy_us = 0;  ///< wall-clock microseconds in operator code
};

struct ExecutionResult {
  /// The answer as a view of the final batch: built in O(columns), it keeps
  /// the batch's columnar source alive and builds its rows once, on first
  /// read.
  storage::Table table;
  catalog::ServerId result_server = catalog::kInvalidId;
  NetworkStats network;
  std::map<catalog::ServerId, ServerLoad> load;  ///< per executing server
  std::int64_t duration_us = 0;  ///< total wall-clock execution time
};

class DistributedExecutor {
 public:
  DistributedExecutor(const Cluster& cluster,
                      const authz::Policy& auths)
      : cluster_(cluster), auths_(auths) {}

  /// Executes `plan` under `assignment`. Fails with kUnauthorized when
  /// enforcement trips, kInvalidArgument on malformed plans or assignments
  /// and on a requestor outside the catalog.
  Result<ExecutionResult> Execute(const plan::QueryPlan& plan,
                                  const planner::Assignment& assignment,
                                  const ExecutionOptions& options = {}) const;

 private:
  const Cluster& cluster_;
  const authz::Policy& auths_;
};

/// Reference evaluator: runs `plan` as if all relations were local, with no
/// authorization or distribution concerns. The distributed execution of a
/// valid assignment must return the same row multiset (tests rely on this).
/// Like Execute, it returns a view of its final batch.
Result<storage::Table> ExecuteCentralized(const Cluster& cluster,
                                          const plan::QueryPlan& plan);

}  // namespace cisqp::exec
