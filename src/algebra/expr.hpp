// Selection predicates (conjunctions of simple comparisons) and equi-join
// atoms.
//
// The paper's query class is select-from-where with conjunctive conditions
// (§2). A Predicate is a conjunction of comparisons, each between an
// attribute and a literal or between two attributes; the attributes it
// references form the `X` of `σ_X` in the profile algebra (paper Fig. 4).
// A join condition is a conjunction of EquiJoinAtoms.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "catalog/catalog.hpp"
#include "common/idset.hpp"
#include "storage/table.hpp"

namespace cisqp::algebra {

enum class CompareOp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CompareOpSymbol(CompareOp op) noexcept;

/// One comparison: `lhs op rhs` where rhs is a literal or another attribute.
struct Comparison {
  catalog::AttributeId lhs = catalog::kInvalidId;
  CompareOp op = CompareOp::kEq;
  std::variant<storage::Value, catalog::AttributeId> rhs;

  bool rhs_is_attribute() const noexcept {
    return std::holds_alternative<catalog::AttributeId>(rhs);
  }
};

/// A conjunction of comparisons; an empty conjunction is TRUE.
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Comparison> conjuncts)
      : conjuncts_(std::move(conjuncts)) {}

  static Predicate True() { return Predicate(); }

  void And(Comparison c) { conjuncts_.push_back(std::move(c)); }
  void And(const Predicate& other) {
    conjuncts_.insert(conjuncts_.end(), other.conjuncts_.begin(),
                      other.conjuncts_.end());
  }

  bool IsTrue() const noexcept { return conjuncts_.empty(); }
  const std::vector<Comparison>& conjuncts() const noexcept { return conjuncts_; }

  /// All attributes mentioned anywhere in the conjunction — the `X` that
  /// enters the `Rσ` profile component.
  IdSet ReferencedAttributes() const;

  /// Evaluates against `row` laid out per `table`'s header. SQL semantics:
  /// comparisons involving NULL are false. Fails when a referenced attribute
  /// is not a column of `table`.
  Result<bool> Evaluate(const storage::Table& table,
                        const storage::Row& row) const;

  std::string ToString(const catalog::Catalog& cat) const;

 private:
  std::vector<Comparison> conjuncts_;
};

/// Evaluates one comparison given resolved cell values.
bool EvaluateComparison(const storage::Value& lhs, CompareOp op,
                        const storage::Value& rhs) noexcept;

/// One equi-join atom `left_attr = right_attr` where `left_attr` is a column
/// of the left operand and `right_attr` of the right operand.
struct EquiJoinAtom {
  catalog::AttributeId left = catalog::kInvalidId;
  catalog::AttributeId right = catalog::kInvalidId;

  friend bool operator==(const EquiJoinAtom&, const EquiJoinAtom&) = default;
};

}  // namespace cisqp::algebra
