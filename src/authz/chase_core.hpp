// Internal machinery of the chase closure (incremental.cpp): the
// edge-visibility bitsets, the per-endpoint join-edge index, the
// subsumption-aware rule pool, and the semi-naïve fixpoint loop itself.
//
// The loop is parameterized by `delta_begin`: a from-scratch server chase
// (IncrementalClosure::Build, a revoke's rechase) starts it at 0 (every
// initial rule is delta), while an incremental grant appends the new rule
// to a persistent pool and starts the loop at the old pool size — the
// textbook semi-naïve delta round, so a grant only pays for the pairs its
// own derivations introduce. Nothing here is part of the public authz API.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "authz/authorization.hpp"
#include "authz/chase.hpp"
#include "catalog/catalog.hpp"

namespace cisqp::authz::chase_internal {

/// Fixed-width bitset over the catalog's join edges. Federations declare
/// tens of edges, so one or two words cover the whole schema.
class EdgeBits {
 public:
  explicit EdgeBits(std::size_t words) : words_(words, 0) {}

  void Set(std::size_t bit) {
    words_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }

  /// Invokes `fn(edge_index)` for every edge set in
  /// (a.left & b.right) | (a.right & b.left) — the edges whose endpoints are
  /// visible one through each rule, in ascending edge order.
  template <typename Fn>
  static void ForEachJoinable(const EdgeBits& left_a, const EdgeBits& right_a,
                              const EdgeBits& left_b, const EdgeBits& right_b,
                              Fn&& fn) {
    for (std::size_t w = 0; w < left_a.words_.size(); ++w) {
      std::uint64_t word = (left_a.words_[w] & right_b.words_[w]) |
                           (right_a.words_[w] & left_b.words_[w]);
      while (word != 0) {
        const int bit = std::countr_zero(word);
        word &= word - 1;
        fn((w << 6) + static_cast<std::size_t>(bit));
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// cat.join_edges() indexed by endpoint attribute: for each attribute, the
/// edges it is the left (resp. right) endpoint of. Built once per closure
/// and shared read-only by every server's pool.
class EdgeIndex {
 public:
  explicit EdgeIndex(const catalog::Catalog& cat) : cat_(cat) {
    const std::vector<catalog::JoinEdge>& edges = cat.join_edges();
    words_ = (edges.size() + 63) / 64;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      left_of_[edges[e].left].push_back(e);
      right_of_[edges[e].right].push_back(e);
    }
  }

  const catalog::JoinEdge& edge(std::size_t e) const {
    return cat_.join_edges()[e];
  }
  std::size_t words() const noexcept { return words_; }

  /// The edges whose left (resp. right) endpoint is visible in `attrs`.
  EdgeBits LeftVisible(const IdSet& attrs) const {
    return Collect(left_of_, attrs);
  }
  EdgeBits RightVisible(const IdSet& attrs) const {
    return Collect(right_of_, attrs);
  }

 private:
  EdgeBits Collect(
      const std::map<catalog::AttributeId, std::vector<std::size_t>>& index,
      const IdSet& attrs) const {
    EdgeBits bits(words_);
    for (const catalog::AttributeId attr : attrs) {
      const auto it = index.find(attr);
      if (it == index.end()) continue;
      for (const std::size_t e : it->second) bits.Set(e);
    }
    return bits;
  }

  const catalog::Catalog& cat_;
  std::size_t words_ = 0;
  std::map<catalog::AttributeId, std::vector<std::size_t>> left_of_;
  std::map<catalog::AttributeId, std::vector<std::size_t>> right_of_;
};

/// Working form of a server's rule set: the rules in derivation order, each
/// with its edge-visibility masks, plus a per-path subsumption index.
class RulePool {
 public:
  explicit RulePool(const EdgeIndex& index) : index_(&index) {}

  struct Rule {
    IdSet attrs;
    JoinPath path;
    EdgeBits left;   ///< edges whose left endpoint is in attrs
    EdgeBits right;  ///< edges whose right endpoint is in attrs
  };

  /// Adds unless an existing same-path rule already grants a superset of
  /// attributes. Returns true when the pool changed.
  bool AddIfNovel(IdSet attrs, JoinPath path) {
    std::vector<IdSet>& grants = by_path_[path];
    for (const IdSet& existing : grants) {
      if (attrs.IsSubsetOf(existing)) return false;
    }
    grants.push_back(attrs);
    EdgeBits left = index_->LeftVisible(attrs);
    EdgeBits right = index_->RightVisible(attrs);
    rules_.push_back(Rule{std::move(attrs), std::move(path), std::move(left),
                          std::move(right)});
    return true;
  }

  std::size_t size() const noexcept { return rules_.size(); }
  const Rule& rule(std::size_t i) const { return rules_[i]; }
  const std::vector<Rule>& rules() const noexcept { return rules_; }

 private:
  const EdgeIndex* index_;
  std::vector<Rule> rules_;
  std::map<JoinPath, std::vector<IdSet>> by_path_;
};

/// The kResourceExhausted error every cap site reports identically.
Status ExceededCap(const ChaseOptions& options);

/// Semi-naïve fixpoint over `pool` for one server, starting from the delta
/// `[delta_begin, pool.size())`. Round k pairs only the delta (rules first
/// seen in round k-1) against everything older, so each unordered rule pair
/// is visited exactly once over the whole run; the edge masks restrict a
/// pair to the edges it can fire. New derivations are buffered per round and
/// inserted after the scan — rules are never moved while references into the
/// pool are live, so nothing is copied per pair.
///
/// `stats` accumulates across the call; the cap compares the accumulated
/// stats.derived_rules against options.max_derived_rules, so a caller
/// spreading one budget over several calls seeds the field with the running
/// total. Returns kResourceExhausted when the cap trips (the pool is then
/// partially extended and should be discarded).
Status RunSemiNaive(const catalog::Catalog& cat, const EdgeIndex& index,
                    RulePool& pool, std::size_t delta_begin,
                    catalog::ServerId server, const ChaseOptions& options,
                    ChaseStats& stats);

}  // namespace cisqp::authz::chase_internal
