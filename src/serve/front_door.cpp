#include "serve/front_door.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "planner/plan_search.hpp"
#include "sql/binder.hpp"
#include "sql/signature.hpp"

namespace cisqp::serve {
namespace {

/// An edit while the chase is capped changes only the edited rule of the
/// served raw rules, but the next request retries the chase, which may
/// change any verdict: every cache entry must go.
authz::ClosureDelta CappedDelta(const catalog::Catalog& cat,
                                const authz::Authorization& auth, bool grant) {
  authz::ClosureDelta delta;
  delta.full = true;
  delta.relations = authz::RuleRelations(cat, auth);
  delta.servers.Insert(auth.server);
  (grant ? delta.added_rules : delta.removed_rules) = 1;
  return delta;
}

}  // namespace

FrontDoor::FrontDoor(const catalog::Catalog& cat,
                     authz::AuthorizationSet auths,
                     const exec::Cluster& cluster,
                     const plan::StatsCatalog* stats, ServeOptions options)
    : cat_(cat),
      cluster_(cluster),
      stats_(stats),
      options_(options),
      admission_(options.max_concurrent, options.max_queue,
                 options.admission_max_wait_us),
      plan_cache_(options.plan_cache_capacity),
      raw_(std::move(auths)) {}

Status FrontDoor::BuildClosureLocked() {
  // Every rule change unpublishes the state, so a published capped state
  // means the chase already tripped on exactly the current rules.
  if (closure_ != nullptr || (state_ != nullptr && state_->chase_capped)) {
    return Status::Ok();
  }
  const obs::Span span("serve.chase");
  Result<authz::IncrementalClosure> built =
      authz::IncrementalClosure::Build(cat_, raw_, options_.chase);
  if (built.ok()) {
    closure_ = std::make_unique<authz::IncrementalClosure>(std::move(*built));
    raw_ = authz::AuthorizationSet();
    return Status::Ok();
  }
  if (built.status().code() == StatusCode::kResourceExhausted) {
    return Status::Ok();  // capped: the rules stay in raw_, served as they are
  }
  return built.status();
}

Result<std::shared_ptr<const FrontDoor::EpochState>> FrontDoor::State() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (state_ != nullptr) return state_;
  CISQP_RETURN_IF_ERROR(BuildClosureLocked());
  auto st = std::make_shared<EpochState>();
  st->epoch = epoch_.load(std::memory_order_relaxed);
  if (closure_ != nullptr) {
    st->policy = closure_->closed();
  } else {
    // The cap tripped: serve against the raw rules. Sound — the chase only
    // adds derivable grants — just stricter than the full closure.
    st->policy = raw_;
    st->chase_capped = true;
    CISQP_METRIC_INC("serve.chase_capped");
  }
  st->memo = std::make_unique<authz::CachingPolicy>(st->policy, &cat_);
  state_ = std::move(st);
  return state_;
}

std::optional<std::string> FrontDoor::CachedSignature(
    const std::string& sql) const {
  const std::lock_guard<std::mutex> lock(sig_mu_);
  const auto it = sig_memo_.find(sql);
  if (it == sig_memo_.end()) {
    CISQP_METRIC_INC("serve.sig_memo.miss");
    return std::nullopt;
  }
  CISQP_METRIC_INC("serve.sig_memo.hit");
  return it->second;
}

void FrontDoor::MemoizeSignature(const std::string& sql,
                                 const std::string& signature) {
  const std::lock_guard<std::mutex> lock(sig_mu_);
  // Several spellings share one signature, so the memo gets more headroom
  // than the plan cache; when full, new spellings simply keep parsing.
  if (sig_memo_.size() >= options_.plan_cache_capacity * 8) return;
  sig_memo_.emplace(sql, signature);
}

Result<Response> FrontDoor::Serve(const Request& request) {
  const std::int64_t start_us = obs::NowMicros();
  requests_.fetch_add(1, std::memory_order_relaxed);
  CISQP_METRIC_INC("serve.requests");
  // A requestor outside the catalog is malformed input, not a verdict:
  // reject it before it costs a ticket, a plan, or a cache entry.
  if (request.requestor && *request.requestor >= cat_.server_count()) {
    return InvalidArgumentError("requestor server id " +
                                std::to_string(*request.requestor) +
                                " is not in the catalog");
  }

  Response out;
  Result<AdmissionController::Ticket> admit = admission_.Admit(&out.queue_us);
  if (!admit.ok()) return admit.status();
  const AdmissionController::Ticket ticket = std::move(*admit);
  const obs::Span span("serve.request");

  // The signature memo lets a repeated spelling skip parse+bind: the bound
  // spec is only needed on the cold path (signatures are computed from
  // specs, so the first sighting of a spelling parses and memoizes).
  std::optional<std::string> memo_sig = CachedSignature(request.sql);
  std::optional<plan::QuerySpec> spec;
  if (memo_sig.has_value()) {
    out.signature = std::move(*memo_sig);
  } else {
    const std::int64_t parse_start = obs::NowMicros();
    Result<plan::QuerySpec> parsed = [&] {
      const obs::Span parse_span("serve.parse", span);
      return sql::ParseAndBind(cat_, request.sql);
    }();
    if (!parsed.ok()) return parsed.status();
    out.parse_us = obs::NowMicros() - parse_start;
    out.signature = sql::CanonicalQuerySignature(*parsed);
    MemoizeSignature(request.sql, out.signature);
    spec = std::move(*parsed);
  }

  // Feasibility depends on who receives the result, so the requestor is
  // part of the cache key alongside the signature.
  std::string key = out.signature;
  key += "|rq";
  key += request.requestor.has_value() ? std::to_string(*request.requestor)
                                       : std::string("-");

  Result<std::shared_ptr<const EpochState>> state_r = State();
  if (!state_r.ok()) return state_r.status();
  const std::shared_ptr<const EpochState> state = std::move(*state_r);
  out.policy_epoch = state->epoch;

  const std::int64_t plan_start = obs::NowMicros();
  std::optional<CachedPlanEntry> entry = plan_cache_.Lookup(key, state->epoch);
  out.plan_cache_hit = entry.has_value();
  if (!entry.has_value()) {
    if (!spec.has_value()) {
      // Memoized spelling but no live plan for this epoch — parse after all.
      const std::int64_t parse_start = obs::NowMicros();
      Result<plan::QuerySpec> parsed = [&] {
        const obs::Span parse_span("serve.parse", span);
        return sql::ParseAndBind(cat_, request.sql);
      }();
      if (!parsed.ok()) return parsed.status();
      out.parse_us = obs::NowMicros() - parse_start;
      spec = std::move(*parsed);
    }
    obs::Span plan_span("serve.plan", span);
    plan_span.AddAttribute("cached", "false");
    planner::FeasiblePlanSearch search(cat_, *state->memo, stats_, nullptr);
    planner::PlanSearchOptions popt;
    popt.max_orders = options_.max_orders;
    popt.threads = options_.planning_threads;
    popt.planner_options.allow_third_party = options_.allow_third_party;
    popt.planner_options.requestor = request.requestor;
    Result<planner::PlanSearchResult> found = search.Search(*spec, popt);
    CachedPlanEntry fresh;
    fresh.epoch = state->epoch;
    for (const catalog::RelationId rel : spec->Relations()) {
      fresh.relations.Insert(rel);
    }
    if (found.ok()) {
      fresh.handle =
          std::make_shared<const planner::PlanSearchResult>(std::move(*found));
    } else if (found.status().code() == StatusCode::kInfeasible) {
      // Negative caching: the typed verdict is the answer, and repeating it
      // from the cache reproduces the cold message byte-for-byte.
      fresh.verdict = found.status();
    } else {
      return found.status();  // internal/transient — never cached
    }
    plan_cache_.Insert(key, fresh);
    entry = std::move(fresh);
  } else {
    obs::Span plan_span("serve.plan", span);
    plan_span.AddAttribute("cached", "true");
  }
  out.plan_us = obs::NowMicros() - plan_start;
  CISQP_METRIC_OBSERVE(
      out.plan_cache_hit ? "serve.plan_us.cached" : "serve.plan_us.cold",
      static_cast<double>(out.plan_us));
  if (!entry->verdict.ok()) return entry->verdict;

  const std::int64_t exec_start = obs::NowMicros();
  exec::ExecutionOptions eopt;
  eopt.enforce_releases =
      request.enforce_releases.value_or(options_.enforce_releases);
  eopt.requestor = request.requestor;
  eopt.profile = request.profile;
  eopt.pool = options_.exec_pool;
  eopt.threads = options_.exec_threads;
  eopt.morsel = options_.morsel;
  const exec::DistributedExecutor executor(cluster_, *state->memo);
  Result<exec::ExecutionResult> run = [&] {
    const obs::Span exec_span("serve.exec", span);
    return executor.Execute(entry->handle->plan,
                            entry->handle->safe_plan.assignment, eopt);
  }();
  if (!run.ok()) return run.status();
  out.exec_us = obs::NowMicros() - exec_start;

  out.table = std::move(run->table);
  out.result_server = run->result_server;
  out.network = std::move(run->network);
  out.estimated_bytes = entry->handle->estimated_bytes;
  out.total_us = obs::NowMicros() - start_us;
  CISQP_METRIC_OBSERVE(
      out.plan_cache_hit ? "serve.latency_us.cached" : "serve.latency_us.cold",
      static_cast<double>(out.total_us));
  return out;
}

void FrontDoor::RetireMemoCountersLocked() {
  if (state_ != nullptr && state_->memo != nullptr) {
    retired_canview_hits_ += state_->memo->hits();
    retired_canview_misses_ += state_->memo->misses();
  }
}

Result<authz::ClosureDelta> FrontDoor::AddRule(const authz::Authorization& auth) {
  return EditPolicy(auth, /*grant=*/true);
}

Result<authz::ClosureDelta> FrontDoor::RevokeRule(
    const authz::Authorization& auth) {
  return EditPolicy(auth, /*grant=*/false);
}

Result<authz::ClosureDelta> FrontDoor::EditPolicy(
    const authz::Authorization& auth, bool grant) {
  const std::lock_guard<std::mutex> lock(mu_);
  const obs::Span span(grant ? "serve.policy_grant" : "serve.policy_revoke");
  CISQP_RETURN_IF_ERROR(BuildClosureLocked());
  authz::ClosureDelta delta;
  if (closure_ != nullptr) {
    Result<authz::ClosureDelta> edited =
        grant ? closure_->AddRule(auth) : closure_->RevokeRule(auth);
    if (edited.ok()) {
      delta = std::move(*edited);
    } else if (edited.status().code() == StatusCode::kResourceExhausted) {
      // The cap tripped mid-edit: the closure is inconsistent, but its base
      // rules already hold the validated edit. Serve those raw from now on.
      raw_ = closure_->base();
      closure_.reset();
      delta = CappedDelta(cat_, auth, grant);
    } else {
      return edited.status();  // validation failure: nothing changed
    }
  } else {
    const Status applied =
        grant ? raw_.Add(cat_, auth) : raw_.Remove(cat_, auth);
    if (!applied.ok()) return applied;
    delta = CappedDelta(cat_, auth, grant);
  }

  RetireMemoCountersLocked();
  const std::uint64_t next =
      epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  CISQP_METRIC_INC("serve.policy_epoch_bumps");
  CISQP_METRIC_INC(grant ? "serve.policy_grants" : "serve.policy_revokes");
  if (delta.full || state_ == nullptr) {
    // Full sweep: no retained entries; State() publishes the next epoch
    // from the maintained closure (or retries the chase when capped).
    state_.reset();
    plan_cache_.InvalidateBefore(next);
    return delta;
  }
  // Publish the new epoch eagerly from the maintained closure and re-stamp
  // every cache entry whose relations are disjoint from the delta: no
  // verdict it depends on changed.
  auto st = std::make_shared<EpochState>();
  st->epoch = next;
  st->policy = closure_->closed();
  st->memo = std::make_unique<authz::CachingPolicy>(st->policy, &cat_);
  st->memo->RetainFrom(*state_->memo, delta.relations);
  state_ = std::move(st);
  plan_cache_.AdvanceEpoch(next, delta.relations);
  return delta;
}

FrontDoorStats FrontDoor::Stats() const {
  FrontDoorStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.admitted = admission_.admitted();
  stats.rejected = admission_.rejected();
  stats.plan_cache_hits = plan_cache_.hits();
  stats.plan_cache_misses = plan_cache_.misses();
  stats.plan_cache_stale_evictions = plan_cache_.stale_evictions();
  stats.plan_cache_retained = plan_cache_.retained();
  stats.plan_cache_size = plan_cache_.size();
  const std::lock_guard<std::mutex> lock(mu_);
  stats.canview_hits = retired_canview_hits_;
  stats.canview_misses = retired_canview_misses_;
  if (state_ != nullptr && state_->memo != nullptr) {
    stats.canview_hits += state_->memo->hits();
    stats.canview_misses += state_->memo->misses();
    stats.canview_memo_size = state_->memo->size();
  }
  return stats;
}

}  // namespace cisqp::serve
