// CachingPolicy: a memoizing decorator over any Policy (DESIGN.md §15.3).
//
// The planner's hot loop is CanView (Def. 3.3) — one probe per (candidate
// server, node profile) pair, repeated across every join order the plan
// search examines and again by runtime enforcement on every shipment. Under
// a serving workload the same probes recur across requests, so this
// decorator memoizes the full CanViewExplanation keyed by the canonical
// profile encoding plus the probed server. Explanations — not just the
// boolean — are cached so the audit log records byte-identical evidence on
// a hit and a miss.
//
// Invalidation is a fresh memo per policy epoch: the decorated policy never
// changes under a memo, so a policy change builds a new CachingPolicy over
// the new rules and drops the old one.
//
// An *incremental* policy edit does better: when constructed with a
// catalog, every entry records the relations its profile touches, and
// RetainFrom copies into a fresh memo exactly the prior entries whose
// relation sets are disjoint from the edit's ClosureDelta — verdicts the
// edit provably could not change (DESIGN.md §16). Entries with no recorded
// relations are never retained (an empty set is vacuously disjoint from
// everything, which is the wrong default for safety).
//
// Thread-safe: the memo is striped over kShards mutex-guarded maps, picked
// by key hash, so concurrent planners probing different profiles rarely
// contend (a single mutex capped four serving clients well below four
// times one client's probe rate). Hit/miss counters are per-stripe atomics
// readable without the locks, and are mirrored into the metrics registry
// as authz.canview_cache.{hit,miss}.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "authz/policy.hpp"

namespace cisqp::authz {

/// Canonical, collision-free encoding of (profile, server) — the memo key.
std::string ProfileCacheKey(const Profile& profile, catalog::ServerId server);

class CachingPolicy : public Policy {
 public:
  /// Decorates `base`, which must outlive this object and must not change
  /// while it lives. When `cat` is non-null (it must then outlive this
  /// object too), entries record their profile's relations, enabling
  /// RetainFrom after an incremental policy edit.
  explicit CachingPolicy(const Policy& base,
                         const catalog::Catalog* cat = nullptr)
      : base_(base), cat_(cat) {}

  bool CanView(const Profile& profile,
               catalog::ServerId server) const override {
    return Explain(profile, server).allowed;
  }

  CanViewExplanation ExplainCanView(const Profile& profile,
                                    catalog::ServerId server) const override {
    return Explain(profile, server);
  }

  /// Copies from `prior` every entry whose recorded relation set is
  /// non-empty and disjoint from `changed_relations` — the verdicts an
  /// incremental policy edit provably left intact. Call on a freshly
  /// constructed memo wrapping the post-edit policy. Returns the number of
  /// entries retained; requires both memos to carry a catalog.
  std::size_t RetainFrom(const CachingPolicy& prior,
                         const IdSet& changed_relations);

  std::uint64_t hits() const noexcept;
  std::uint64_t misses() const noexcept;
  std::size_t size() const;

 private:
  struct Entry {
    CanViewExplanation explanation;
    IdSet relations;  ///< empty when no catalog was supplied
  };

  /// One stripe of the memo, on its own cache line.
  struct alignas(64) Shard {
    std::mutex mu;  ///< guards memo
    std::unordered_map<std::string, Entry> memo;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };
  static constexpr std::size_t kShards = 16;

  CanViewExplanation Explain(const Profile& profile,
                             catalog::ServerId server) const;

  const Policy& base_;
  const catalog::Catalog* cat_ = nullptr;
  /// Stripe i holds the keys whose std::hash is i modulo kShards.
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace cisqp::authz
