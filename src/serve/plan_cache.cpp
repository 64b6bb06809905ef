#include "serve/plan_cache.hpp"

#include "obs/metrics.hpp"

namespace cisqp::serve {

void PlanCache::Touch(Slot& slot, const std::string& key) {
  lru_.erase(slot.lru_it);
  lru_.push_front(key);
  slot.lru_it = lru_.begin();
}

std::optional<CachedPlanEntry> PlanCache::Lookup(const std::string& key,
                                                 std::uint64_t epoch) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    CISQP_METRIC_INC("serve.plan_cache.miss");
    return std::nullopt;
  }
  if (it->second.entry.epoch != epoch) {
    // A policy epoch bump made this entry unservable; evict eagerly so the
    // cache never holds plans no current request could use. Lookup outcomes
    // partition into {hit, miss, stale_eviction}: a stale hit counts as
    // stale only, never additionally as a miss (InvalidateBefore counts the
    // same event the same way when the sweep gets there first).
    stale_.fetch_add(1, std::memory_order_relaxed);
    CISQP_METRIC_INC("serve.plan_cache.stale_evictions");
    lru_.erase(it->second.lru_it);
    map_.erase(it);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  CISQP_METRIC_INC("serve.plan_cache.hit");
  Touch(it->second, key);
  return it->second.entry;
}

void PlanCache::Insert(const std::string& key, CachedPlanEntry entry) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // A request planned under an older epoch can finish after another one
    // stored the same key under a newer epoch; the newer entry wins, or the
    // next lookup would evict it as stale and plan again.
    if (it->second.entry.epoch > entry.epoch) return;
    it->second.entry = std::move(entry);
    Touch(it->second, key);
    return;
  }
  if (map_.size() >= capacity_) {
    const std::string& victim = lru_.back();
    map_.erase(victim);
    lru_.pop_back();
    CISQP_METRIC_INC("serve.plan_cache.lru_evictions");
  }
  lru_.push_front(key);
  map_.emplace(key, Slot{std::move(entry), lru_.begin()});
}

std::size_t PlanCache::InvalidateBefore(std::uint64_t epoch) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t invalidated = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second.entry.epoch < epoch) {
      lru_.erase(it->second.lru_it);
      it = map_.erase(it);
      ++invalidated;
    } else {
      ++it;
    }
  }
  if (invalidated > 0) {
    stale_.fetch_add(invalidated, std::memory_order_relaxed);
    CISQP_METRIC_ADD("serve.plan_cache.stale_evictions", invalidated);
  }
  return invalidated;
}

std::size_t PlanCache::AdvanceEpoch(std::uint64_t epoch,
                                    const IdSet& changed_relations) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t kept = 0;
  std::size_t evicted = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    CachedPlanEntry& entry = it->second.entry;
    // Only entries stamped with the immediately prior epoch are retention
    // candidates. An older stamp means a racing Serve inserted the entry
    // after at least one intervening edit had already swept the cache; that
    // edit's delta is unknown here, and re-stamping across it could revive
    // a plan (or a cached kInfeasible verdict) the intervening edit
    // invalidated even though *this* edit is disjoint.
    const bool retain = entry.epoch + 1 == epoch && !entry.relations.empty() &&
                        !entry.relations.Intersects(changed_relations);
    if (retain) {
      // The edit touched no relation of this query, so no CanView verdict
      // the plan (or the kInfeasible refusal) depends on changed; the entry
      // is as good as one planned under the new epoch.
      entry.epoch = epoch;
      ++kept;
      ++it;
    } else if (entry.epoch < epoch) {
      lru_.erase(it->second.lru_it);
      it = map_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  if (kept > 0) {
    retained_.fetch_add(kept, std::memory_order_relaxed);
    CISQP_METRIC_ADD("serve.plan_cache.retained", kept);
  }
  if (evicted > 0) {
    stale_.fetch_add(evicted, std::memory_order_relaxed);
    CISQP_METRIC_ADD("serve.plan_cache.stale_evictions", evicted);
  }
  return kept;
}

std::size_t PlanCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace cisqp::serve
