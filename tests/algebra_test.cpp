// Unit tests for src/algebra: predicates, and the batch kernels on small
// row fixtures.
#include <gtest/gtest.h>

#include "algebra/vectorized.hpp"
#include "test_util.hpp"

namespace cisqp::algebra {
namespace {

using cisqp::testing::AsBatch;
using cisqp::testing::AsRows;
using cisqp::testing::Attr;
using cisqp::testing::Relation;
using storage::Table;
using storage::Value;

class AlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    insurance_ = Table::ForRelation(cat_, Relation(cat_, "Insurance"));
    hospital_ = Table::ForRelation(cat_, Relation(cat_, "Hospital"));
    ASSERT_OK(insurance_.AppendRow({Value(std::int64_t{1}), Value("gold")}));
    ASSERT_OK(insurance_.AppendRow({Value(std::int64_t{2}), Value("silver")}));
    ASSERT_OK(insurance_.AppendRow({Value(std::int64_t{3}), Value("gold")}));
    ASSERT_OK(hospital_.AppendRow(
        {Value(std::int64_t{1}), Value("flu"), Value("dr_a")}));
    ASSERT_OK(hospital_.AppendRow(
        {Value(std::int64_t{1}), Value("cold"), Value("dr_b")}));
    ASSERT_OK(hospital_.AppendRow(
        {Value(std::int64_t{4}), Value("flu"), Value("dr_a")}));
  }

  catalog::Catalog cat_ = workload::MedicalScenario::BuildCatalog();
  Table insurance_;
  Table hospital_;
};

TEST_F(AlgebraTest, CompareOpSymbols) {
  EXPECT_EQ(CompareOpSymbol(CompareOp::kEq), "=");
  EXPECT_EQ(CompareOpSymbol(CompareOp::kNe), "<>");
  EXPECT_EQ(CompareOpSymbol(CompareOp::kLe), "<=");
}

TEST_F(AlgebraTest, EvaluateComparisonAllOps) {
  const Value two{std::int64_t{2}};
  const Value three{std::int64_t{3}};
  EXPECT_TRUE(EvaluateComparison(two, CompareOp::kLt, three));
  EXPECT_TRUE(EvaluateComparison(two, CompareOp::kLe, two));
  EXPECT_TRUE(EvaluateComparison(three, CompareOp::kGt, two));
  EXPECT_TRUE(EvaluateComparison(three, CompareOp::kGe, three));
  EXPECT_TRUE(EvaluateComparison(two, CompareOp::kNe, three));
  EXPECT_FALSE(EvaluateComparison(two, CompareOp::kEq, three));
  // NULL poisons every operator.
  EXPECT_FALSE(EvaluateComparison(Value(), CompareOp::kEq, Value()));
  EXPECT_FALSE(EvaluateComparison(Value(), CompareOp::kNe, two));
  EXPECT_FALSE(EvaluateComparison(two, CompareOp::kLt, Value()));
}

TEST_F(AlgebraTest, PredicateReferencedAttributes) {
  Predicate p;
  p.And(Comparison{Attr(cat_, "Holder"), CompareOp::kGe, Value(std::int64_t{2})});
  p.And(Comparison{Attr(cat_, "Plan"), CompareOp::kEq, Attr(cat_, "Physician")});
  EXPECT_EQ(p.ReferencedAttributes(),
            cisqp::testing::Attrs(cat_, {"Holder", "Plan", "Physician"}));
  EXPECT_TRUE(Predicate::True().ReferencedAttributes().empty());
}

TEST_F(AlgebraTest, PredicateEvaluateAttrLiteral) {
  Predicate p;
  p.And(Comparison{Attr(cat_, "Holder"), CompareOp::kGe, Value(std::int64_t{2})});
  ASSERT_OK_AND_ASSIGN(Table out, AsRows(SelectBatch(AsBatch(insurance_), p)));
  EXPECT_EQ(out.row_count(), 2u);
}

TEST_F(AlgebraTest, PredicateEvaluateMissingAttributeFails) {
  Predicate p;
  p.And(Comparison{Attr(cat_, "Citizen"), CompareOp::kEq, Value(std::int64_t{1})});
  EXPECT_EQ(SelectBatch(AsBatch(insurance_), p).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AlgebraTest, PredicateToString) {
  Predicate p;
  p.And(Comparison{Attr(cat_, "Holder"), CompareOp::kLt, Value(std::int64_t{9})});
  EXPECT_EQ(p.ToString(cat_), "Holder < 9");
  EXPECT_EQ(Predicate::True().ToString(cat_), "TRUE");
}

TEST_F(AlgebraTest, ProjectKeepsOrderAndValues) {
  ASSERT_OK_AND_ASSIGN(
      Table out,
      AsRows(ProjectBatch(AsBatch(hospital_),
                          {Attr(cat_, "Physician"), Attr(cat_, "Patient")})));
  ASSERT_EQ(out.column_count(), 2u);
  EXPECT_EQ(out.columns()[0].attribute, Attr(cat_, "Physician"));
  EXPECT_EQ(out.row(0)[0], Value("dr_a"));
  EXPECT_EQ(out.row(0)[1], Value(std::int64_t{1}));
  EXPECT_EQ(out.row_count(), 3u);
}

TEST_F(AlgebraTest, ProjectDistinctDropsDuplicates) {
  ASSERT_OK_AND_ASSIGN(
      Table out,
      AsRows(ProjectBatch(AsBatch(hospital_), {Attr(cat_, "Patient")}, true)));
  EXPECT_EQ(out.row_count(), 2u);  // patients 1 and 4
}

TEST_F(AlgebraTest, ProjectValidatesAttributes) {
  EXPECT_EQ(
      ProjectBatch(AsBatch(hospital_), {Attr(cat_, "Plan")}).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(ProjectBatch(AsBatch(hospital_), {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AlgebraTest, HashJoinMatchesOnKeys) {
  ASSERT_OK_AND_ASSIGN(
      Table out,
      AsRows(JoinBatches(
          AsBatch(insurance_), AsBatch(hospital_),
          {EquiJoinAtom{Attr(cat_, "Holder"), Attr(cat_, "Patient")}})));
  // Holder 1 matches two hospital rows; 2 and 3 match none.
  EXPECT_EQ(out.row_count(), 2u);
  EXPECT_EQ(out.column_count(), 5u);
  EXPECT_EQ(out.columns()[0].attribute, Attr(cat_, "Holder"));
  EXPECT_EQ(out.columns()[2].attribute, Attr(cat_, "Patient"));
}

TEST_F(AlgebraTest, HashJoinIgnoresNullKeys) {
  Table left = Table::ForRelation(cat_, Relation(cat_, "Insurance"));
  ASSERT_OK(left.AppendRow({Value(), Value("none")}));
  ASSERT_OK(left.AppendRow({Value(std::int64_t{4}), Value("gold")}));
  Table right = Table::ForRelation(cat_, Relation(cat_, "Hospital"));
  ASSERT_OK(right.AppendRow({Value(), Value("flu"), Value("dr")}));
  ASSERT_OK(right.AppendRow({Value(std::int64_t{4}), Value("flu"), Value("dr")}));
  ASSERT_OK_AND_ASSIGN(
      Table out,
      AsRows(JoinBatches(
          AsBatch(left), AsBatch(right),
          {EquiJoinAtom{Attr(cat_, "Holder"), Attr(cat_, "Patient")}})));
  EXPECT_EQ(out.row_count(), 1u);  // only the 4-4 pair; NULLs never match
}

TEST_F(AlgebraTest, HashJoinMultiAtom) {
  // Join Hospital with itself shaped data via two key columns: emulate with
  // Insurance ⋈ Nat_registry-like tables using two atoms over one pair each.
  Table reg = Table::ForRelation(cat_, Relation(cat_, "Nat_registry"));
  ASSERT_OK(reg.AppendRow({Value(std::int64_t{1}), Value("full")}));
  ASSERT_OK(reg.AppendRow({Value(std::int64_t{2}), Value("none")}));
  ASSERT_OK_AND_ASSIGN(
      Table out,
      AsRows(JoinBatches(
          AsBatch(insurance_), AsBatch(reg),
          {EquiJoinAtom{Attr(cat_, "Holder"), Attr(cat_, "Citizen")}})));
  EXPECT_EQ(out.row_count(), 2u);
}

TEST_F(AlgebraTest, HashJoinRequiresAtoms) {
  EXPECT_EQ(
      JoinBatches(AsBatch(insurance_), AsBatch(hospital_), {}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(AlgebraTest, HashJoinPreservesMultiplicity) {
  Table dup = Table::ForRelation(cat_, Relation(cat_, "Insurance"));
  ASSERT_OK(dup.AppendRow({Value(std::int64_t{1}), Value("gold")}));
  ASSERT_OK(dup.AppendRow({Value(std::int64_t{1}), Value("gold")}));
  ASSERT_OK_AND_ASSIGN(
      Table out,
      AsRows(JoinBatches(
          AsBatch(dup), AsBatch(hospital_),
          {EquiJoinAtom{Attr(cat_, "Holder"), Attr(cat_, "Patient")}})));
  EXPECT_EQ(out.row_count(), 4u);  // 2 left dups × 2 matching right rows
}

TEST_F(AlgebraTest, NaturalJoinOnSharedColumns) {
  // Shared column: Patient (appears in both inputs).
  ASSERT_OK_AND_ASSIGN(
      Table patients,
      AsRows(ProjectBatch(AsBatch(hospital_), {Attr(cat_, "Patient")}, true)));
  ASSERT_OK_AND_ASSIGN(
      Table out,
      AsRows(NaturalJoinBatches(AsBatch(hospital_), AsBatch(patients))));
  EXPECT_EQ(out.row_count(), 3u);      // every hospital row keeps its match
  EXPECT_EQ(out.column_count(), 3u);   // shared column not duplicated
}

TEST_F(AlgebraTest, NaturalJoinRequiresSharedColumns) {
  EXPECT_EQ(NaturalJoinBatches(AsBatch(insurance_), AsBatch(hospital_))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AlgebraTest, DistinctKeepsFirstOccurrence) {
  Table t = Table::ForRelation(cat_, Relation(cat_, "Insurance"));
  ASSERT_OK(t.AppendRow({Value(std::int64_t{1}), Value("a")}));
  ASSERT_OK(t.AppendRow({Value(std::int64_t{1}), Value("a")}));
  ASSERT_OK(t.AppendRow({Value(std::int64_t{1}), Value("b")}));
  const Table out = DistinctBatch(AsBatch(t)).ToTable();
  EXPECT_EQ(out.row_count(), 2u);
}

TEST_F(AlgebraTest, SelectWithAttrAttrComparison) {
  Table reg = Table::ForRelation(cat_, Relation(cat_, "Nat_registry"));
  ASSERT_OK(reg.AppendRow({Value(std::int64_t{1}), Value("full")}));
  ASSERT_OK_AND_ASSIGN(
      Table joined,
      AsRows(JoinBatches(
          AsBatch(insurance_), AsBatch(reg),
          {EquiJoinAtom{Attr(cat_, "Holder"), Attr(cat_, "Citizen")}})));
  Predicate p;
  p.And(Comparison{Attr(cat_, "Holder"), CompareOp::kEq, Attr(cat_, "Citizen")});
  ASSERT_OK_AND_ASSIGN(Table out, AsRows(SelectBatch(AsBatch(joined), p)));
  EXPECT_EQ(out.row_count(), joined.row_count());
}

}  // namespace
}  // namespace cisqp::algebra
