#include "authz/canview_cache.hpp"

#include <functional>

#include "obs/metrics.hpp"

namespace cisqp::authz {

std::string ProfileCacheKey(const Profile& profile, catalog::ServerId server) {
  // Ids rendered with unambiguous separators: IdSet and JoinPath are both
  // canonically sorted, so equal profiles encode identically and distinct
  // profiles cannot collide (every component is delimited).
  std::string key = "v" + std::to_string(server) + "|p";
  for (const IdSet::value_type id : profile.pi) {
    key += std::to_string(id);
    key += ",";
  }
  key += "|j";
  for (const JoinAtom& atom : profile.join.atoms()) {
    key += std::to_string(atom.first);
    key += "-";
    key += std::to_string(atom.second);
    key += ",";
  }
  key += "|s";
  for (const IdSet::value_type id : profile.sigma) {
    key += std::to_string(id);
    key += ",";
  }
  return key;
}

namespace {

std::size_t StripeOf(const std::string& key, std::size_t stripes) {
  return std::hash<std::string>{}(key) % stripes;
}

}  // namespace

CanViewExplanation CachingPolicy::Explain(const Profile& profile,
                                          catalog::ServerId server) const {
  std::string key = ProfileCacheKey(profile, server);
  Shard& shard = shards_[StripeOf(key, kShards)];
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.memo.find(key);
    if (it != shard.memo.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      CISQP_METRIC_INC("authz.canview_cache.hit");
      return it->second.explanation;
    }
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  CISQP_METRIC_INC("authz.canview_cache.miss");
  Entry entry;
  entry.explanation = base_.ExplainCanView(profile, server);
  if (cat_ != nullptr) {
    entry.relations = profile.join.Relations(*cat_);
    for (const IdSet::value_type a : profile.VisibleAttributes()) {
      entry.relations.Insert(cat_->attribute(a).relation);
    }
  }
  CanViewExplanation explanation = entry.explanation;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    shard.memo.emplace(std::move(key), std::move(entry));
  }
  return explanation;
}

std::size_t CachingPolicy::RetainFrom(const CachingPolicy& prior,
                                      const IdSet& changed_relations) {
  if (cat_ == nullptr || prior.cat_ == nullptr) return 0;
  std::size_t retained = 0;
  // Both memos stripe by the same hash, so a key keeps its stripe index.
  for (std::size_t i = 0; i < kShards; ++i) {
    Shard& from = prior.shards_[i];
    Shard& to = shards_[i];
    const std::lock_guard<std::mutex> prior_lock(from.mu);
    const std::lock_guard<std::mutex> lock(to.mu);
    for (const auto& [key, entry] : from.memo) {
      if (entry.relations.empty()) continue;
      if (entry.relations.Intersects(changed_relations)) continue;
      to.memo.emplace(key, entry);
      ++retained;
    }
  }
  CISQP_METRIC_ADD("authz.canview_cache.retained", retained);
  return retained;
}

std::uint64_t CachingPolicy::hits() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.hits.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t CachingPolicy::misses() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.misses.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t CachingPolicy::size() const {
  std::size_t total = 0;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.memo.size();
  }
  return total;
}

}  // namespace cisqp::authz
