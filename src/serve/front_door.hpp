// FrontDoor: the federation's multi-query serving layer (DESIGN.md §15).
//
// Everything below this class answers one query for one caller; the front
// door is where the system meets "heavy traffic": many client threads call
// Serve concurrently, a bounded admission scheduler (AdmissionController)
// decides who runs, who queues, and who is told to back off, and two caches
// amortize the paper's expensive per-query work across requests:
//
//   * the policy's chase closure is built once per rule set by one
//     IncrementalClosure, which grants and revokes then maintain across
//     epochs; every request of an epoch reads that epoch's copy of it (it
//     depends only on the policy and the schema, never on the query);
//   * the plan cache (PlanCache) maps (canonical query signature, policy
//     epoch) to the finished feasibility search — a repeated query shape
//     skips join-order enumeration and every Fig. 6 traversal;
//   * the CanView memo (authz::CachingPolicy) sits under both the cold
//     planner and runtime enforcement, so even cold queries of a busy epoch
//     stop re-deciding Def. 3.3 verdicts they share with earlier queries.
//
// The serving contract, enforced by the fuzz harness's serving arm: for any
// fixed request, a cache-hit answer is byte-identical to the cold answer —
// same table bytes on success, same typed status on failure. Policy changes
// go through AddRule or RevokeRule, each of which bumps the epoch;
// entries of older epochs can never be served again (PlanCache checks the
// stamp, the memo is per-epoch state), so staleness is structurally
// impossible rather than probabilistically unlikely.
//
// Execution runs on a shared worker pool (ServeOptions::exec_pool /
// exec_threads) with per-request ExecutionOptions; requests never share
// mutable state except the thread-safe caches, the cluster's read path, and
// the pool.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "authz/authorization.hpp"
#include "authz/canview_cache.hpp"
#include "authz/chase.hpp"
#include "authz/incremental.hpp"
#include "exec/executor.hpp"
#include "plan/stats.hpp"
#include "serve/admission.hpp"
#include "serve/plan_cache.hpp"

namespace cisqp::serve {

struct ServeOptions {
  // Admission: at most `max_concurrent` requests execute at once; at most
  // `max_queue` more wait FIFO; beyond that Serve fails kResourceExhausted.
  // A queued request waiting longer than `admission_max_wait_us` fails with
  // kResourceExhausted too (0 = wait indefinitely).
  std::size_t max_concurrent = 8;
  std::size_t max_queue = 1024;
  std::int64_t admission_max_wait_us = 0;

  std::size_t plan_cache_capacity = 256;

  // Cold-path planning (FeasiblePlanSearch) knobs.
  std::size_t max_orders = 64;
  std::size_t planning_threads = 1;
  bool allow_third_party = false;

  // Chase limits for the maintained closure. When the closure would exceed
  // `chase.max_derived_rules`, the door serves the raw rules instead (sound
  // but refuses derivable-view queries), sweeps both caches on every edit,
  // and retries the chase once the rules change. The closure is built one
  // server at a time on the calling thread.
  authz::ChaseOptions chase;

  // Per-request execution defaults.
  bool enforce_releases = true;
  /// Kernel parallelism for execution: a shared pool (preferred under
  /// concurrency — one pool for the whole front door) or a thread count
  /// resolved through the executor's process-shared pool. 1 = sequential.
  ThreadPool* exec_pool = nullptr;
  std::size_t exec_threads = 1;
  algebra::MorselContext morsel;
};

struct Request {
  std::string sql;
  /// Deliver results to this server (checked as a release; part of the
  /// plan-cache key — feasibility depends on it).
  std::optional<catalog::ServerId> requestor;
  /// Overrides ServeOptions::enforce_releases for this request.
  std::optional<bool> enforce_releases;
  /// When set, the execution fills this profile (EXPLAIN ANALYZE surface).
  obs::QueryProfile* profile = nullptr;
};

struct Response {
  /// The answer, a view of the executor's final batch. Its rows are built
  /// on first read, once, and are safe to read from many threads.
  storage::Table table;
  catalog::ServerId result_server = catalog::kInvalidId;
  exec::NetworkStats network;
  /// True when planning was served from the plan cache.
  bool plan_cache_hit = false;
  std::uint64_t policy_epoch = 0;
  std::string signature;        ///< canonical query signature (cache key base)
  double estimated_bytes = 0;   ///< planner's cost of the executed plan
  // Per-stage wall time, microseconds.
  std::int64_t queue_us = 0;
  std::int64_t parse_us = 0;    ///< 0 when the signature memo skipped parsing
  std::int64_t plan_us = 0;     ///< lookup only on a hit, full search cold
  std::int64_t exec_us = 0;
  std::int64_t total_us = 0;
};

/// Point-in-time serving counters (monotone since construction).
struct FrontDoorStats {
  std::uint64_t requests = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::uint64_t plan_cache_stale_evictions = 0;
  std::uint64_t plan_cache_retained = 0;  ///< re-stamped across policy edits
  std::uint64_t canview_hits = 0;
  std::uint64_t canview_misses = 0;
  std::size_t plan_cache_size = 0;
  std::size_t canview_memo_size = 0;  ///< current epoch's memo only
};

class FrontDoor {
 public:
  /// The catalog, cluster, and stats must outlive the front door; the
  /// policy is owned (AddRule and RevokeRule edit it). `stats` may be null
  /// (model defaults drive the cost ranking).
  FrontDoor(const catalog::Catalog& cat, authz::AuthorizationSet auths,
            const exec::Cluster& cluster, const plan::StatsCatalog* stats,
            ServeOptions options = {});

  /// Serves one query end to end: admission, parse/bind, plan (cached or
  /// cold), execute. Thread-safe; call from any number of client threads.
  /// Typed failures: kInvalidArgument (a requestor outside the catalog,
  /// checked before admission; parse/bind), kResourceExhausted (admission),
  /// kInfeasible (no safe assignment — cached like success), kUnauthorized
  /// (execution). Only kInfeasible is cached.
  Result<Response> Serve(const Request& request);

  /// Grants one rule incrementally (DESIGN.md §16): the chase closure is
  /// maintained as a semi-naïve delta instead of rechased, the epoch bumps,
  /// and plan-cache/CanView-memo entries whose relations are disjoint from
  /// the edit's ClosureDelta are re-stamped into the new epoch instead of
  /// swept. Validation failures (kInvalidArgument, kNotFound,
  /// kAlreadyExists) change nothing — no epoch bump, caches intact. A full
  /// delta (a server's rule set emptied or filled, or the chase capped)
  /// sweeps both caches instead.
  Result<authz::ClosureDelta> AddRule(const authz::Authorization& auth);

  /// Revokes one rule incrementally; kNotFound when the exact rule is not
  /// in the base policy. Same retention contract as AddRule.
  Result<authz::ClosureDelta> RevokeRule(const authz::Authorization& auth);

  std::uint64_t policy_epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  FrontDoorStats Stats() const;

 private:
  /// Everything derived from one policy epoch, immutable once published;
  /// requests snapshot one shared_ptr and stay internally consistent even
  /// across a concurrent edit.
  struct EpochState {
    std::uint64_t epoch = 0;
    authz::AuthorizationSet policy;  ///< closure_->closed(), or raw_ if capped
    bool chase_capped = false;
    std::unique_ptr<authz::CachingPolicy> memo;  ///< wraps `policy`
  };

  /// The current epoch's state, published on first use after a change.
  Result<std::shared_ptr<const EpochState>> State();

  /// With mu_ held: builds closure_ from raw_ unless it exists or the chase
  /// already tripped its cap on the current rules. A cap trip leaves
  /// closure_ null, and the rules stay in raw_.
  Status BuildClosureLocked();

  /// Shared grant/revoke implementation; `grant` selects the direction.
  Result<authz::ClosureDelta> EditPolicy(const authz::Authorization& auth,
                                         bool grant);

  /// With mu_ held: folds the live memo's counters into the retired totals
  /// before the state it belongs to is replaced.
  void RetireMemoCountersLocked();

  /// Raw-SQL-text → canonical signature memo: a repeated spelling skips
  /// parse+bind entirely (signatures depend only on the immutable catalog,
  /// never on the policy, so entries survive epoch bumps). Bounded; full
  /// means new spellings just parse.
  std::optional<std::string> CachedSignature(const std::string& sql) const;
  void MemoizeSignature(const std::string& sql, const std::string& signature);

  const catalog::Catalog& cat_;
  const exec::Cluster& cluster_;
  const plan::StatsCatalog* stats_;
  const ServeOptions options_;

  AdmissionController admission_;
  PlanCache plan_cache_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> requests_{0};

  mutable std::mutex sig_mu_;  ///< guards sig_memo_
  std::unordered_map<std::string, std::string> sig_memo_;

  mutable std::mutex mu_;  ///< guards closure_, raw_, state_, counters
  /// The maintained chase closure; it owns the base rules. Null until an
  /// epoch or an edit first needs it, and while capped.
  std::unique_ptr<authz::IncrementalClosure> closure_;
  /// The base rules while closure_ is null; empty otherwise.
  authz::AuthorizationSet raw_;
  std::shared_ptr<const EpochState> state_;  ///< null until first State()
  std::uint64_t retired_canview_hits_ = 0;
  std::uint64_t retired_canview_misses_ = 0;
};

}  // namespace cisqp::serve
