#include "plan/stats.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "obs/profile.hpp"
#include "plan/plan_node.hpp"

namespace cisqp::plan {

RelationStats StatsCatalog::FromTable(const storage::ColumnarTable& table) {
  RelationStats stats;
  stats.rows = static_cast<double>(table.row_count());
  for (std::size_t c = 0; c < table.column_count(); ++c) {
    const storage::ColumnVector& column = table.column(c);
    std::unordered_set<std::size_t> hashes;
    hashes.reserve(table.row_count());
    for (std::size_t r = 0; r < column.size(); ++r) {
      hashes.insert(column.HashAt(r));
    }
    stats.distinct[table.columns()[c].attribute] =
        static_cast<double>(hashes.size());
  }
  return stats;
}

void StatsFeedback::Record(std::string signature, double rows) {
  actual_rows_[std::move(signature)] = rows;
}

std::optional<double> StatsFeedback::Lookup(std::string_view signature) const {
  const auto it = actual_rows_.find(signature);
  if (it == actual_rows_.end()) return std::nullopt;
  return it->second;
}

namespace {

/// Tokens use attribute/relation ids, not names: ids are stable within one
/// catalog, and a feedback store is only ever filled and read against one.
std::string ConjunctToken(const algebra::Comparison& c) {
  std::string token = "s";
  token += std::to_string(c.lhs);
  token += algebra::CompareOpSymbol(c.op);
  if (c.rhs_is_attribute()) {
    token += "a" + std::to_string(std::get<catalog::AttributeId>(c.rhs));
  } else {
    token += "v" + std::get<storage::Value>(c.rhs).ToString();
  }
  return token;
}

/// Equality is symmetric, and a reordered join order flips an atom's
/// orientation relative to the spec — normalize to (low id, high id).
std::string AtomToken(const algebra::EquiJoinAtom& atom) {
  const catalog::AttributeId lo = std::min(atom.left, atom.right);
  const catalog::AttributeId hi = std::max(atom.left, atom.right);
  return "j" + std::to_string(lo) + "=" + std::to_string(hi);
}

std::string Assemble(std::vector<std::string> relations,
                     std::vector<std::string> conjuncts,
                     std::vector<std::string> atoms) {
  std::sort(relations.begin(), relations.end());
  std::sort(conjuncts.begin(), conjuncts.end());
  std::sort(atoms.begin(), atoms.end());
  std::string out = "R[";
  for (const std::string& t : relations) {
    out += t;
    out += ',';
  }
  out += "]S[";
  for (const std::string& t : conjuncts) {
    out += t;
    out += ',';
  }
  out += "]J[";
  for (const std::string& t : atoms) {
    out += t;
    out += ',';
  }
  out += ']';
  return out;
}

void CollectSubtree(const PlanNode& node, std::vector<std::string>& relations,
                    std::vector<std::string>& conjuncts,
                    std::vector<std::string>& atoms) {
  switch (node.op) {
    case PlanOp::kRelation:
      relations.push_back("r" + std::to_string(node.relation));
      return;
    case PlanOp::kProject:
      CollectSubtree(*node.left, relations, conjuncts, atoms);
      return;
    case PlanOp::kSelect:
      for (const algebra::Comparison& c : node.predicate.conjuncts()) {
        conjuncts.push_back(ConjunctToken(c));
      }
      CollectSubtree(*node.left, relations, conjuncts, atoms);
      return;
    case PlanOp::kJoin:
      for (const algebra::EquiJoinAtom& atom : node.join_atoms) {
        atoms.push_back(AtomToken(atom));
      }
      CollectSubtree(*node.left, relations, conjuncts, atoms);
      CollectSubtree(*node.right, relations, conjuncts, atoms);
      return;
  }
}

}  // namespace

std::string SubtreeSignature(const PlanNode& node) {
  std::vector<std::string> relations;
  std::vector<std::string> conjuncts;
  std::vector<std::string> atoms;
  CollectSubtree(node, relations, conjuncts, atoms);
  return Assemble(std::move(relations), std::move(conjuncts), std::move(atoms));
}

std::size_t HarvestActualCardinalities(const QueryPlan& plan,
                                       const obs::QueryProfile& profile,
                                       StatsFeedback& feedback) {
  std::size_t recorded = 0;
  std::unordered_set<std::string> seen;
  plan.ForEachPreOrder([&](const PlanNode& node) {
    if (node.op == PlanOp::kProject) return;
    const obs::OperatorStats* stats = profile.FindOp(node.id);
    if (stats == nullptr || stats->invocations == 0) return;
    std::string signature = SubtreeSignature(node);
    if (!seen.insert(signature).second) return;
    // A profile reused across executions counts every run; feed back the
    // per-run average so re-executions do not inflate the cardinality.
    const double rows = static_cast<double>(stats->rows_out) /
                        static_cast<double>(stats->invocations);
    feedback.Record(std::move(signature), rows);
    ++recorded;
  });
  return recorded;
}

}  // namespace cisqp::plan
