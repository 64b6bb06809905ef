// Cardinality statistics for planning (two-step optimization, paper §5 end:
// "First, the query optimizer identifies a good plan; second, it assigns
// operations to the servers"). Plan costs need estimates; this is the
// textbook System-R style model: per-relation row counts and per-column
// distinct counts, uniformity and independence assumed.
//
// The StatsFeedback store below closes the estimate→execute loop (DESIGN.md
// §13): a profiled execution harvests each operator's *actual* cardinality
// keyed by its subtree signature, and every later estimate of a subtree with
// the same signature — PlanBuilder::EstimateCardinality, which the plan
// search's cost model calls — prefers the measured value over the model. A
// hit needs the same relations and the same conjuncts in that subtree; a
// plan that places a conjunct differently misses, and never hits wrongly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.hpp"
#include "storage/column.hpp"

namespace cisqp::obs {
class QueryProfile;
}  // namespace cisqp::obs

namespace cisqp::plan {

struct PlanNode;
class QueryPlan;

/// Statistics of one relation instance.
struct RelationStats {
  double rows = 1000.0;
  std::map<catalog::AttributeId, double> distinct;

  /// Distinct count of `attr`, defaulting to `rows` (key-like) when unknown.
  double DistinctOf(catalog::AttributeId attr) const {
    const auto it = distinct.find(attr);
    return it == distinct.end() ? rows : it->second;
  }
};

/// Per-relation statistics for one federation.
class StatsCatalog {
 public:
  StatsCatalog() = default;

  void Set(catalog::RelationId rel, RelationStats stats) {
    stats_[rel] = std::move(stats);
  }

  /// Stats of `rel`; a default RelationStats when never set.
  const RelationStats& Of(catalog::RelationId rel) const {
    static const RelationStats kDefault;
    const auto it = stats_.find(rel);
    return it == stats_.end() ? kDefault : it->second;
  }

  bool Has(catalog::RelationId rel) const { return stats_.contains(rel); }

  /// Exact statistics scanned from a stored table: its row count, and per
  /// column the number of distinct cell hashes (NULL is one class).
  static RelationStats FromTable(const storage::ColumnarTable& table);

 private:
  std::map<catalog::RelationId, RelationStats> stats_;
};

/// Measured cardinalities from past executions, keyed by the canonical
/// (relation set, predicate signature) of the producing subtree. Owned by
/// the caller (a shell session, a bench); not a process-wide singleton.
class StatsFeedback {
 public:
  /// Records that the shape `signature` produced `rows` rows (latest wins).
  void Record(std::string signature, double rows);

  /// Measured cardinality of `signature`, if any execution recorded it.
  std::optional<double> Lookup(std::string_view signature) const;

  std::size_t size() const noexcept { return actual_rows_.size(); }
  bool empty() const noexcept { return actual_rows_.empty(); }

  const std::map<std::string, double, std::less<>>& entries() const noexcept {
    return actual_rows_;
  }

 private:
  std::map<std::string, double, std::less<>> actual_rows_;
};

/// Canonical signature of the plan subtree rooted at `node`: sorted relation
/// ids, sorted selection-conjunct tokens, sorted (normalized) join-atom
/// tokens. π nodes are transparent — they share their child's signature.
std::string SubtreeSignature(const PlanNode& node);

/// Harvests every profiled operator's actual cardinality from `profile` into
/// `feedback`. π nodes are skipped (plain π preserves counts and shares its
/// child's signature; DISTINCT π would distort it); when two nodes share a
/// signature the topmost (pre-order first) wins. Returns the number of
/// signatures recorded.
std::size_t HarvestActualCardinalities(const QueryPlan& plan,
                                       const obs::QueryProfile& profile,
                                       StatsFeedback& feedback);

}  // namespace cisqp::plan
