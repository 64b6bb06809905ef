#include "exec/executor.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "algebra/vectorized.hpp"
#include "authz/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cisqp::exec {
namespace {

/// An intermediate result and the server currently holding it. Batches are
/// views over shared columnar tables: a leaf borrows the cluster-resident
/// columnar form without copying, σ/π stay zero-copy views, and only joins
/// and shipments materialize.
struct Located {
  algebra::ColumnarBatch batch;
  catalog::ServerId server = catalog::kInvalidId;
};

/// Process-shared worker pools, one per requested thread count, built on
/// first use and reused for the life of the process. Executions that ask
/// for `threads` parallelism without supplying ExecutionOptions::pool all
/// share one pool here instead of spawning (and joining) a private pool per
/// query — under a concurrent serving workload the per-query spawn cost and
/// the thread-count blow-up (N requests × M workers) were both bugs.
/// ThreadPool is thread-safe for concurrent ParallelFor callers: each call
/// enqueues its own tasks and blocks on its own completion latch.
ThreadPool& SharedQueryPool(std::size_t threads) {
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<ThreadPool>>* pools =
      new std::map<std::size_t, std::unique_ptr<ThreadPool>>();
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& slot = (*pools)[threads];
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(threads);
  return *slot;
}

/// Chrome-export lane of a federation server. Lane 1 stays the default
/// (coordinator/planner) process; servers get stable lanes above it.
int LaneOf(catalog::ServerId server) noexcept {
  return static_cast<int>(server) + 2;
}

class Run {
 public:
  Run(const Cluster& cluster, const authz::Policy& auths,
      const plan::QueryPlan& plan, const planner::Assignment& assignment,
      const ExecutionOptions& options)
      : cluster_(cluster), auths_(auths), assignment_(assignment),
        options_(options),
        profile_(options.profile),
        profiles_(planner::ComputeNodeProfiles(cluster.catalog(), plan)) {
    // Resolve the kernel parallelism once per execution: an explicit shared
    // pool wins, otherwise threads>1 borrows the process-shared pool for
    // that thread count — never a private pool per query (concurrent
    // requests would each respawn workers; see SharedQueryPool above).
    // threads=1 leaves ctx_.pool null — the kernels' exact sequential path.
    ctx_ = options.morsel;
    ctx_.pool = options.pool;
    if (ctx_.pool == nullptr && options.threads > 1) {
      ctx_.pool = &SharedQueryPool(options.threads);
    }
  }

  Result<ExecutionResult> Execute(const plan::PlanNode& root) {
    Result<ExecutionResult> result = ExecuteTree(root);
    if (options_.network_out != nullptr) {
      if (result.ok()) {
        // On success the transfer log already moved into result->network;
        // leave the failure-path sink empty instead of duplicating the log
        // (per-transfer descriptions and all) into a second copy.
        *options_.network_out = NetworkStats{};
      } else {
        // Publish the transfer log when execution failed: enforcement tests
        // assert what was — and was not — shipped.
        *options_.network_out = std::move(network_);
      }
    }
    return result;
  }

 private:
  Result<ExecutionResult> ExecuteTree(const plan::PlanNode& root) {
    CISQP_TRACE_SPAN(span, "exec.execute");
    CISQP_METRIC_INC("exec.executions");
    if (profile_ != nullptr || span.active()) {
      // One query id shared by the profile, the root span, and every
      // transfer's wire context — allocated lazily so unobserved executions
      // never touch the counter.
      query_id_ = profile_ != nullptr && profile_->query_id != 0
                      ? profile_->query_id
                      : obs::QueryProfile::NextQueryId();
      if (profile_ != nullptr) profile_->query_id = query_id_;
    }
    if (span.active()) {
      span.AddAttribute("query_id", query_id_);
      // Name the per-server lanes so federation servers render as named
      // processes in the Chrome export.
      obs::Tracer& tracer = obs::Tracer::Get();
      for (std::size_t s = 0; s < cat().server_count(); ++s) {
        const auto id = static_cast<catalog::ServerId>(s);
        tracer.SetProcessName(LaneOf(id), "server:" + cat().server(id).name);
      }
    }
    const std::int64_t start_us = obs::NowMicros();
    CISQP_ASSIGN_OR_RETURN(Located located, Exec(root));
    if (options_.requestor && *options_.requestor != located.server) {
      CISQP_RETURN_IF_ERROR(ShipBatch(root.id, located.server,
                                      *options_.requestor, located.batch,
                                      ProfileOf(root.id),
                                      "final result delivered to requestor",
                                      obs::AuditSite::kRequestor));
      located.server = *options_.requestor;
    }

    ExecutionResult result;
    result.table = std::move(located.batch).ToTable();
    result.result_server = located.server;
    result.network = std::move(network_);
    result.load = std::move(load_);
    result.duration_us = obs::NowMicros() - start_us;
    if (profile_ != nullptr) profile_->duration_us = result.duration_us;
    if (span.active()) {
      span.AddAttribute("result_rows", result.table.row_count());
      span.AddAttribute("transfers", result.network.total_messages());
      span.AddAttribute("bytes_shipped", result.network.total_bytes());
    }
    return result;
  }

  const catalog::Catalog& cat() const { return cluster_.catalog(); }

  const authz::Profile& ProfileOf(int node_id) const {
    return profiles_[static_cast<std::size_t>(node_id)];
  }

  /// Accounts one operator invocation producing `rows` at `server` after
  /// `busy_us` microseconds of operator wall-clock time.
  void Account(catalog::ServerId server, std::size_t rows,
               std::int64_t busy_us = 0) {
    ServerLoad& load = load_[server];
    ++load.operations;
    load.rows_produced += rows;
    load.busy_us += busy_us;
    CISQP_METRIC_OBSERVE("exec.operator_rows", static_cast<double>(rows));
  }

  /// Fills the profile slot of `node` for one operator invocation, plus the
  /// per-operator metrics histograms.
  void ProfileOp(const plan::PlanNode& node, std::string_view op,
                 catalog::ServerId server, std::uint64_t rows_in_left,
                 std::uint64_t rows_in_right, std::uint64_t rows_out,
                 std::int64_t time_us,
                 const algebra::KernelStats* kernels = nullptr) {
    if (profile_ != nullptr) {
      obs::OperatorStats& stats = profile_->OpAt(node.id);
      stats.op = std::string(op);
      stats.server = cat().server(server).name;
      ++stats.invocations;
      ++stats.batches;
      stats.rows_in_left += rows_in_left;
      stats.rows_in_right += rows_in_right;
      stats.rows_out += rows_out;
      stats.time_us += time_us;
      if (kernels != nullptr) {
        stats.hash_build_rows += kernels->hash_build_rows;
        stats.hash_probe_rows += kernels->hash_probe_rows;
        stats.hash_matches += kernels->hash_matches;
        stats.dict_filter_lookups += kernels->dict_filter_lookups;
        stats.dict_filter_hits += kernels->dict_filter_hits;
        stats.rows_hashed += kernels->rows_hashed;
        stats.morsels += kernels->morsels;
        stats.partitions += kernels->partitions;
        if (stats.worker_busy_us.size() < kernels->worker_busy_us.size()) {
          stats.worker_busy_us.resize(kernels->worker_busy_us.size(), 0);
        }
        for (std::size_t w = 0; w < kernels->worker_busy_us.size(); ++w) {
          stats.worker_busy_us[w] += kernels->worker_busy_us[w];
        }
      }
    }
    // Per-operator metric names are built dynamically, so guard explicitly:
    // the CISQP_METRIC_OBSERVE macro would evaluate the concatenation even
    // while metrics are disabled.
    if constexpr (obs::kObsCompiledIn) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
      if (reg.enabled()) {
        const std::string prefix = "exec.op." + std::string(op);
        reg.Observe(prefix + ".rows_out", static_cast<double>(rows_out));
        reg.Observe(prefix + ".time_us", static_cast<double>(time_us));
      }
    }
  }

  /// Ships `batch` after materializing it, and rebinds the batch to the
  /// materialized table so downstream operators reuse the shipped form
  /// instead of re-gathering the view.
  Status ShipBatch(int node_id, catalog::ServerId from, catalog::ServerId to,
                   algebra::ColumnarBatch& batch, const authz::Profile& profile,
                   std::string description,
                   obs::AuditSite site = obs::AuditSite::kExecutor) {
    std::shared_ptr<const storage::ColumnarTable> wire = batch.Materialize();
    batch = algebra::ColumnarBatch::FromTable(wire);
    return Ship(node_id, from, to, *wire, profile, std::move(description), site);
  }

  /// Moves `table` from one server to another: accounts the transfer and,
  /// under enforcement, checks (and audits) that the receiver may view
  /// `profile`. The Def. 3.3 check runs before the transfer is recorded — a
  /// denied transfer never reaches the network log.
  Status Ship(int node_id, catalog::ServerId from, catalog::ServerId to,
              const storage::ColumnarTable& table,
              const authz::Profile& profile, std::string description,
              obs::AuditSite site = obs::AuditSite::kExecutor) {
    CISQP_CHECK_MSG(from != to, "Ship called for a colocated transfer");
    CISQP_TRACE_SPAN(span, "exec.ship");
    const std::size_t rows = table.row_count();
    const std::size_t bytes = table.WireSizeBytes();
    if (span.active()) {
      span.SetLane(LaneOf(from));
      span.AddAttribute("node", node_id);
      span.AddAttribute("from", cat().server(from).name);
      span.AddAttribute("to", cat().server(to).name);
      span.AddAttribute("rows", rows);
      span.AddAttribute("bytes", bytes);
      span.AddAttribute("what", description);
      span.AddAttribute("query_id", query_id_);
    }
    if (options_.enforce_releases &&
        !authz::AuditedCanView(cat(), auths_, profile, to, site, node_id,
                               description)) {
      CISQP_METRIC_INC("exec.enforcement_denials");
      // Attempted-but-denied: the span keeps the rows/bytes that would have
      // moved, tagged so traces distinguish it from a completed shipment.
      if (span.active()) span.AddAttribute("denied", true);
      return UnauthorizedError(
          "runtime enforcement: server '" + cat().server(to).name +
          "' is not authorized to view " + profile.ToString(cat()) +
          " (node n" + std::to_string(node_id) + ": " + description + ")");
    }
    if (profile_ != nullptr) {
      obs::TransferStats transfer;
      transfer.node_id = node_id;
      transfer.from = cat().server(from).name;
      transfer.to = cat().server(to).name;
      transfer.rows = rows;
      transfer.bytes = bytes;
      transfer.query_id = query_id_;
      transfer.parent_span = span.index();
      transfer.what = description;
      profile_->transfers.push_back(std::move(transfer));
      profile_->OpAt(node_id).bytes_shipped += bytes;
    }
    network_.Record(TransferRecord{node_id, from, to, rows, bytes,
                                   std::move(description), query_id_,
                                   span.index()});
    return Status::Ok();
  }

  Result<Located> Exec(const plan::PlanNode& node) {
    CISQP_TRACE_SPAN(span, "exec.node");
    const planner::Executor& ex = assignment_.Of(node.id);
    if (span.active()) {
      span.SetLane(LaneOf(ex.master));
      span.AddAttribute("node", node.id);
      span.AddAttribute("op", plan::PlanOpName(node.op));
      span.AddAttribute("master", cat().server(ex.master).name);
    }
    switch (node.op) {
      case plan::PlanOp::kRelation: {
        const catalog::ServerId home = cat().relation(node.relation).server;
        if (ex.master != home) {
          return InvalidArgumentError("leaf n" + std::to_string(node.id) +
                                      " not assigned to its home server");
        }
        Located leaf;
        leaf.batch = algebra::ColumnarBatch::FromTable(
            cluster_.ColumnarOf(node.relation));
        leaf.server = home;
        ProfileOp(node, "relation", home, 0, 0, leaf.batch.row_count(), 0);
        return leaf;
      }
      case plan::PlanOp::kProject: {
        CISQP_ASSIGN_OR_RETURN(Located child, Exec(*node.left));
        if (ex.master != child.server) {
          return InvalidArgumentError("unary node n" + std::to_string(node.id) +
                                      " must run at its operand's server");
        }
        const std::uint64_t in_rows = child.batch.row_count();
        algebra::KernelStats kernels;
        const std::int64_t t0 = obs::NowMicros();
        {
          const algebra::KernelStatsScope kernel_scope(
              profile_ != nullptr ? &kernels : nullptr);
          CISQP_ASSIGN_OR_RETURN(
              algebra::ColumnarBatch out,
              algebra::ProjectBatch(child.batch, node.projection,
                                    node.distinct, ctx_));
          const std::int64_t dt = obs::NowMicros() - t0;
          Account(child.server, out.row_count(), dt);
          ProfileOp(node, "project", child.server, in_rows, 0, out.row_count(),
                    dt, &kernels);
          return Located{std::move(out), child.server};
        }
      }
      case plan::PlanOp::kSelect: {
        CISQP_ASSIGN_OR_RETURN(Located child, Exec(*node.left));
        if (ex.master != child.server) {
          return InvalidArgumentError("unary node n" + std::to_string(node.id) +
                                      " must run at its operand's server");
        }
        const std::uint64_t in_rows = child.batch.row_count();
        algebra::KernelStats kernels;
        const std::int64_t t0 = obs::NowMicros();
        {
          const algebra::KernelStatsScope kernel_scope(
              profile_ != nullptr ? &kernels : nullptr);
          CISQP_ASSIGN_OR_RETURN(
              algebra::ColumnarBatch out,
              algebra::SelectBatch(child.batch, node.predicate, ctx_));
          const std::int64_t dt = obs::NowMicros() - t0;
          Account(child.server, out.row_count(), dt);
          ProfileOp(node, "select", child.server, in_rows, 0, out.row_count(),
                    dt, &kernels);
          return Located{std::move(out), child.server};
        }
      }
      case plan::PlanOp::kJoin:
        return ExecJoin(node, ex);
    }
    return InternalError("unknown plan operator");
  }

  Result<Located> ExecJoin(const plan::PlanNode& node,
                           const planner::Executor& ex) {
    CISQP_ASSIGN_OR_RETURN(Located left, Exec(*node.left));
    CISQP_ASSIGN_OR_RETURN(Located right, Exec(*node.right));
    const authz::Profile& lp = ProfileOf(node.left->id);
    const authz::Profile& rp = ProfileOf(node.right->id);
    const planner::JoinModeViews views =
        planner::ComputeJoinModeViews(lp, rp, node.join_atoms);
    const std::uint64_t in_left = left.batch.row_count();
    const std::uint64_t in_right = right.batch.row_count();
    algebra::KernelStats kernels;
    const algebra::KernelStatsScope kernel_scope(
        profile_ != nullptr ? &kernels : nullptr);

    switch (ex.mode) {
      case planner::ExecutionMode::kLocal:
        return InvalidArgumentError("join node n" + std::to_string(node.id) +
                                    " cannot have mode 'local'");
      case planner::ExecutionMode::kRegularJoin: {
        // The operand not computed by the master ships in full (Fig. 5 rows
        // [Sl,NULL] / [Sr,NULL]); a third-party master receives both.
        if (left.server != ex.master) {
          CISQP_RETURN_IF_ERROR(ShipBatch(node.id, left.server, ex.master,
                                          left.batch, lp,
                                          "regular join: left operand"));
        }
        if (right.server != ex.master) {
          CISQP_RETURN_IF_ERROR(ShipBatch(node.id, right.server, ex.master,
                                          right.batch, rp,
                                          "regular join: right operand"));
        }
        const std::int64_t t0 = obs::NowMicros();
        CISQP_ASSIGN_OR_RETURN(
            algebra::ColumnarBatch out,
            algebra::JoinBatches(left.batch, right.batch, node.join_atoms,
                                 ctx_));
        const std::int64_t dt = obs::NowMicros() - t0;
        Account(ex.master, out.row_count(), dt);
        ProfileOp(node, "join", ex.master, in_left, in_right, out.row_count(),
                  dt, &kernels);
        return Located{std::move(out), ex.master};
      }
      case planner::ExecutionMode::kSemiJoin: {
        if (!ex.slave) {
          return InvalidArgumentError("semi-join n" + std::to_string(node.id) +
                                      " without a slave");
        }
        if (*ex.slave == ex.master) {
          // A malformed assignment, not a crash: the 5-step protocol ships
          // between master and slave, and Ship CHECK-fails on a colocated
          // transfer. Reject before any step runs.
          return InvalidArgumentError(
              "semi-join n" + std::to_string(node.id) +
              " slave must differ from its master ('" +
              cat().server(ex.master).name + "')");
        }
        const bool master_is_left = ex.origin == planner::FromChild::kLeft;
        Located& master_op = master_is_left ? left : right;
        Located& slave_op = master_is_left ? right : left;
        if (master_op.server != ex.master || slave_op.server != *ex.slave) {
          return InvalidArgumentError(
              "semi-join n" + std::to_string(node.id) +
              " executor does not match the servers holding its operands");
        }

        // Step 1: the master projects its join attributes (distinct).
        std::vector<catalog::AttributeId> master_join_cols(
            master_is_left ? views.left_join_attrs.begin() : views.right_join_attrs.begin(),
            master_is_left ? views.left_join_attrs.end() : views.right_join_attrs.end());
        const std::int64_t t1 = obs::NowMicros();
        CISQP_ASSIGN_OR_RETURN(
            algebra::ColumnarBatch projected,
            algebra::ProjectBatch(master_op.batch, master_join_cols,
                                  /*distinct=*/true, ctx_));
        std::int64_t op_time_us = obs::NowMicros() - t1;
        Account(ex.master, projected.row_count(), op_time_us);

        // Step 2: ship it to the slave.
        CISQP_RETURN_IF_ERROR(ShipBatch(
            node.id, ex.master, *ex.slave, projected,
            master_is_left ? views.right_slave_view : views.left_slave_view,
            "semi-join step 2: master join-attribute projection"));

        // Step 3: the slave joins with its operand.
        std::vector<algebra::EquiJoinAtom> atoms = node.join_atoms;
        if (!master_is_left) {
          // HashJoin wants atoms oriented (left-input attr, right-input attr);
          // here the shipped projection carries the *right* child's attrs.
          for (algebra::EquiJoinAtom& atom : atoms) std::swap(atom.left, atom.right);
        }
        const std::int64_t t3 = obs::NowMicros();
        CISQP_ASSIGN_OR_RETURN(
            algebra::ColumnarBatch reduced,
            algebra::JoinBatches(projected, slave_op.batch, atoms, ctx_));
        const std::int64_t dt3 = obs::NowMicros() - t3;
        op_time_us += dt3;
        Account(*ex.slave, reduced.row_count(), dt3);

        // Step 4: ship the reduced operand back to the master.
        CISQP_RETURN_IF_ERROR(ShipBatch(
            node.id, *ex.slave, ex.master, reduced,
            master_is_left ? views.left_master_view : views.right_master_view,
            "semi-join step 4: reduced slave operand"));

        // Step 5: the master completes the join on the shared join columns.
        const std::int64_t t5 = obs::NowMicros();
        CISQP_ASSIGN_OR_RETURN(
            algebra::ColumnarBatch joined,
            algebra::NaturalJoinBatches(master_op.batch, reduced, ctx_));

        // Restore the canonical left++right column order expected upstream.
        std::vector<catalog::AttributeId> out_cols =
            node.left->OutputAttributes(cat());
        const std::vector<catalog::AttributeId> right_cols =
            node.right->OutputAttributes(cat());
        out_cols.insert(out_cols.end(), right_cols.begin(), right_cols.end());
        CISQP_ASSIGN_OR_RETURN(algebra::ColumnarBatch out,
                               algebra::ProjectBatch(joined, out_cols));
        const std::int64_t dt5 = obs::NowMicros() - t5;
        op_time_us += dt5;
        Account(ex.master, out.row_count(), dt5);
        ProfileOp(node, "semi_join", ex.master, in_left, in_right,
                  out.row_count(), op_time_us, &kernels);
        return Located{std::move(out), ex.master};
      }
    }
    return InternalError("unknown execution mode");
  }

  const Cluster& cluster_;
  const authz::Policy& auths_;
  const planner::Assignment& assignment_;
  const ExecutionOptions& options_;
  algebra::MorselContext ctx_;             ///< kernel parallelism, resolved
  obs::QueryProfile* profile_ = nullptr;   ///< opt-in per-query profile sink
  std::int64_t query_id_ = -1;             ///< trace context on every transfer
  std::vector<authz::Profile> profiles_;
  NetworkStats network_;
  std::map<catalog::ServerId, ServerLoad> load_;
};

Result<algebra::ColumnarBatch> CentralizedRec(const Cluster& cluster,
                                              const plan::PlanNode& node) {
  switch (node.op) {
    case plan::PlanOp::kRelation:
      return algebra::ColumnarBatch::FromTable(
          cluster.ColumnarOf(node.relation));
    case plan::PlanOp::kProject: {
      CISQP_ASSIGN_OR_RETURN(algebra::ColumnarBatch child,
                             CentralizedRec(cluster, *node.left));
      return algebra::ProjectBatch(child, node.projection, node.distinct);
    }
    case plan::PlanOp::kSelect: {
      CISQP_ASSIGN_OR_RETURN(algebra::ColumnarBatch child,
                             CentralizedRec(cluster, *node.left));
      return algebra::SelectBatch(child, node.predicate);
    }
    case plan::PlanOp::kJoin: {
      CISQP_ASSIGN_OR_RETURN(algebra::ColumnarBatch left,
                             CentralizedRec(cluster, *node.left));
      CISQP_ASSIGN_OR_RETURN(algebra::ColumnarBatch right,
                             CentralizedRec(cluster, *node.right));
      return algebra::JoinBatches(left, right, node.join_atoms);
    }
  }
  return InternalError("unknown plan operator");
}

}  // namespace

Result<ExecutionResult> DistributedExecutor::Execute(
    const plan::QueryPlan& plan, const planner::Assignment& assignment,
    const ExecutionOptions& options) const {
  if (plan.empty()) return InvalidArgumentError("empty plan");
  CISQP_RETURN_IF_ERROR(plan.Validate(cluster_.catalog()));
  if (assignment.size() != static_cast<std::size_t>(plan.node_count())) {
    return InvalidArgumentError("assignment size does not match plan");
  }
  if (options.requestor &&
      *options.requestor >= cluster_.catalog().server_count()) {
    return InvalidArgumentError("requestor server id " +
                                std::to_string(*options.requestor) +
                                " is not in the catalog");
  }
  Run run(cluster_, auths_, plan, assignment, options);
  return run.Execute(*plan.root());
}

Result<storage::Table> ExecuteCentralized(const Cluster& cluster,
                                          const plan::QueryPlan& plan) {
  if (plan.empty()) return InvalidArgumentError("empty plan");
  CISQP_RETURN_IF_ERROR(plan.Validate(cluster.catalog()));
  CISQP_ASSIGN_OR_RETURN(algebra::ColumnarBatch out,
                         CentralizedRec(cluster, *plan.root()));
  return std::move(out).ToTable();
}

}  // namespace cisqp::exec
