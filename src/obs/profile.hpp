// Per-query profiler data model (DESIGN.md §13).
//
// A `QueryProfile` is an opt-in, per-execution recording: the executor (and
// anything else that wants attribution) fills one `OperatorStats` per plan
// node — rows in/out, batches, operator wall time, hash-table build/probe
// work, dictionary filter hits, bytes shipped — plus one `TransferStats`
// per inter-server hop, each carrying the query's trace context (query id,
// parent span id) so federation hops correlate with the span recording.
//
// Unlike the Tracer/MetricsRegistry singletons, a QueryProfile is a plain
// value owned by whoever requested profiling (EXPLAIN ANALYZE, a bench, a
// test): no global state, no enablement flag, naturally thread-safe as long
// as one profile is attached to one execution (two concurrent queries use
// two profiles). Execution paths pay one pointer test per operator when no
// profile is attached, preserving the zero-cost-when-disabled contract.
//
// This header deliberately depends on nothing above `std` so the profiler
// data model can live in the obs layer; rendering against a catalog/plan
// (the annotated EXPLAIN ANALYZE tree) lives in exec/explain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cisqp::obs {

/// Runtime statistics of one plan-tree operator, indexed by plan node id.
struct OperatorStats {
  int node_id = -1;
  std::string op;           ///< "relation" / "select" / "project" / "join"
  std::string server;       ///< name of the executing (master) server
  std::uint64_t invocations = 0;  ///< times the operator ran into this profile
  std::uint64_t batches = 0;      ///< batches processed (1 per invocation today)
  std::uint64_t rows_in_left = 0; ///< rows from the left/only child
  std::uint64_t rows_in_right = 0;///< rows from the right child (joins)
  std::uint64_t rows_out = 0;     ///< rows produced
  std::int64_t time_us = 0;       ///< operator wall-clock microseconds
  double est_rows = -1.0;         ///< planner estimate; <0 while unannotated
  // Vectorized-kernel counters (algebra::KernelStats, copied per node).
  std::uint64_t hash_build_rows = 0;
  std::uint64_t hash_probe_rows = 0;
  std::uint64_t hash_matches = 0;
  std::uint64_t dict_filter_lookups = 0;
  std::uint64_t dict_filter_hits = 0;
  std::uint64_t rows_hashed = 0;  ///< row-hash computations (O(build+probe))
  // Morsel-parallel execution counters (zero on the sequential path).
  std::uint64_t morsels = 0;      ///< morsels dispatched across all regions
  std::uint64_t partitions = 0;   ///< radix partitions fanned out (joins/distinct)
  /// Busy microseconds per pool worker inside this operator's parallel
  /// sections (index = worker id; 0 = the participating caller thread).
  std::vector<std::int64_t> worker_busy_us;
  /// Bytes shipped by this node's transfers (semi-join steps, operand moves).
  std::uint64_t bytes_shipped = 0;

  /// rows_out / rows_in (joins: over the input pair product); 1 when no
  /// input rows were seen.
  double Selectivity() const;
  /// actual/estimated cardinality ratio; <0 when no estimate is attached.
  double DriftRatio() const;
};

/// One inter-server hop, with the trace context it carried on the wire.
struct TransferStats {
  int node_id = -1;
  std::string from;
  std::string to;
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::int64_t query_id = -1;  ///< trace context: owning query
  int parent_span = -1;        ///< trace context: span id of the sending hop
  std::string what;            ///< transfer description
};

/// The complete profile of one query execution.
class QueryProfile {
 public:
  /// Process-unique id for the next profiled query (monotonic, thread-safe).
  static std::int64_t NextQueryId();

  std::int64_t query_id = 0;
  std::int64_t duration_us = 0;   ///< whole-execution wall time
  std::string query_text;         ///< optional: the SQL that was profiled
  std::vector<OperatorStats> operators;  ///< indexed by plan node id
  std::vector<TransferStats> transfers;  ///< in shipment order

  /// Stats slot of `node_id`, growing the table as needed.
  OperatorStats& OpAt(int node_id);
  /// Read-only slot; nullptr when the node was never profiled.
  const OperatorStats* FindOp(int node_id) const;

  /// Sum of bytes over all recorded transfers.
  std::uint64_t TotalBytesShipped() const;

  /// Machine-readable JSON:
  /// {"query_id":..,"duration_us":..,"operators":[{...}],"transfers":[{...}]}
  std::string ToJson() const;
};

}  // namespace cisqp::obs
