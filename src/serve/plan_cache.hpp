// PlanCache: (canonical query signature, policy epoch) → finished planning
// (DESIGN.md §15.2).
//
// A hit skips the entire front half of the pipeline: join-order enumeration,
// the per-order SafePlanner traversals and cost ranking, and parse/bind too
// when the front door's signature memo already knows the spelling. Both
// outcomes are cached: a feasible search caches its PlanHandle, an
// infeasible one caches the typed kInfeasible status, so repeated denied
// shapes are as cheap as repeated granted ones and a cached request
// reproduces the cold request's answer bit-for-bit, success or failure.
//
// Epoch invalidation contract: every entry is stamped with the policy epoch
// it was planned under. Lookup(key, epoch) only returns entries of exactly
// that epoch; a stale entry found under the key is evicted on the spot (and
// counted as serve.plan_cache.stale_evictions — the lookup outcomes
// {hit, miss, stale_eviction} partition, a stale hit is not also a miss),
// so a policy change can never serve a pre-change plan. Entries inserted
// after a bump are unaffected by it.
//
// Incremental policy edits retain instead of sweep: every entry records the
// relations its query touches, and AdvanceEpoch(epoch, changed_relations)
// re-stamps to the new epoch exactly the entries stamped with the
// immediately prior epoch whose relation sets are non-empty and disjoint
// from the edit's delta — plans the edit provably could not have changed
// (DESIGN.md §16) — while evicting the rest as stale. Entries with older
// stamps were inserted by requests racing an earlier edit and may be
// invalid under a delta this bump never saw, so they always die.
// InvalidateBefore remains the full sweep for edits whose delta is full.
//
// Bounded LRU: at `capacity` entries the least-recently-used entry is
// evicted. Thread-safe behind one mutex; the payloads are shared-const so
// concurrent requests execute the same cached plan without copying.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/idset.hpp"
#include "common/status.hpp"
#include "planner/plan_search.hpp"

namespace cisqp::serve {

/// One cached planning outcome: a feasible plan handle, or the typed
/// infeasibility verdict.
struct CachedPlanEntry {
  Status verdict;             ///< Ok (handle set) or kInfeasible
  planner::PlanHandle handle; ///< set iff verdict.ok()
  std::uint64_t epoch = 0;    ///< policy epoch the planning ran under
  /// Relations the planned query touches; AdvanceEpoch retains the entry
  /// across an incremental policy edit when this is non-empty and disjoint
  /// from the edit's changed relations. Empty means "unknown": never
  /// retained.
  IdSet relations;
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 256)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// The entry planned for `key` under exactly `epoch`, or nullopt. A
  /// same-key entry of a different epoch is evicted (stale).
  std::optional<CachedPlanEntry> Lookup(const std::string& key,
                                        std::uint64_t epoch);

  /// Inserts the entry for `key`, replacing a same-key entry unless that
  /// one was planned under a newer epoch (then it is kept and `entry`
  /// dropped). Evicts LRU at capacity.
  void Insert(const std::string& key, CachedPlanEntry entry);

  /// Drops every entry stamped with an epoch below `epoch`. Returns the
  /// number invalidated (the epoch-bump sweep; lazy eviction in Lookup
  /// would reclaim them too, this makes the invalidation prompt and
  /// countable).
  std::size_t InvalidateBefore(std::uint64_t epoch);

  /// Delta-aware epoch bump: entries stamped with the immediately prior
  /// epoch (`epoch - 1`) whose relation sets are non-empty and disjoint
  /// from `changed_relations` are re-stamped to `epoch` and kept (the edit
  /// could not have changed their plans); every other pre-`epoch` entry is
  /// evicted as stale — an older stamp may have missed an intervening
  /// edit's delta. Returns the number retained.
  std::size_t AdvanceEpoch(std::uint64_t epoch, const IdSet& changed_relations);

  std::size_t size() const;
  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t stale_evictions() const noexcept {
    return stale_.load(std::memory_order_relaxed);
  }
  std::uint64_t retained() const noexcept {
    return retained_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    CachedPlanEntry entry;
    std::list<std::string>::iterator lru_it;
  };

  void Touch(Slot& slot, const std::string& key);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> map_;
  std::list<std::string> lru_;  ///< most-recent first
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> stale_{0};
  mutable std::atomic<std::uint64_t> retained_{0};
};

}  // namespace cisqp::serve
