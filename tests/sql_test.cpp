// Unit tests for src/sql: lexer, parser, binder.
#include <gtest/gtest.h>

#include "sql/binder.hpp"
#include "sql/lexer.hpp"
#include "sql/parser.hpp"
#include "test_util.hpp"

namespace cisqp::sql {
namespace {

using cisqp::testing::Attr;

TEST(LexerTest, TokenizesAllKinds) {
  ASSERT_OK_AND_ASSIGN(auto tokens,
                       Tokenize("SELECT a, b.c FROM t WHERE x >= 1.5 AND y <> 'it''s'"));
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
  // Find the escaped string literal.
  bool found_string = false;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kString) {
      EXPECT_EQ(t.text, "it's");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("select From jOiN"));
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].text, "FROM");
  EXPECT_EQ(tokens[2].text, "JOIN");
}

TEST(LexerTest, OperatorsAndPunctuation) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("= <> != < <= > >= ( ) , . *"));
  const std::vector<TokenKind> kinds = {
      TokenKind::kEq, TokenKind::kNe, TokenKind::kNe, TokenKind::kLt,
      TokenKind::kLe, TokenKind::kGt, TokenKind::kGe, TokenKind::kLParen,
      TokenKind::kRParen, TokenKind::kComma, TokenKind::kDot, TokenKind::kStar};
  ASSERT_EQ(tokens.size(), kinds.size() + 1);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(tokens[i].kind, kinds[i]) << "token " << i;
  }
}

TEST(LexerTest, IntegerVsFloat) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("12 3.5 7."));
  EXPECT_EQ(tokens[0].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[1].kind, TokenKind::kFloat);
  // "7." lexes as integer then dot (no trailing digit).
  EXPECT_EQ(tokens[2].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[3].kind, TokenKind::kDot);
}

TEST(LexerTest, Failures) {
  EXPECT_EQ(Tokenize("a # b").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Tokenize("'unterminated").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Tokenize("a ! b").status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, FullQueryShape) {
  ASSERT_OK_AND_ASSIGN(
      AstQuery q,
      Parse("SELECT Patient, Plan FROM Insurance "
            "JOIN Hospital ON Holder = Patient AND Plan = Physician "
            "WHERE Holder >= 10 AND Plan = 'gold'"));
  EXPECT_FALSE(q.select_star);
  EXPECT_EQ(q.select_list, (std::vector<std::string>{"Patient", "Plan"}));
  EXPECT_EQ(q.first_relation, "Insurance");
  ASSERT_EQ(q.joins.size(), 1u);
  EXPECT_EQ(q.joins[0].relation, "Hospital");
  ASSERT_EQ(q.joins[0].conditions.size(), 2u);
  EXPECT_EQ(q.joins[0].conditions[1].left, "Plan");
  ASSERT_EQ(q.where.size(), 2u);
  EXPECT_EQ(q.where[0].op, algebra::CompareOp::kGe);
  EXPECT_TRUE(std::get<storage::Value>(q.where[1].rhs).is_string());
}

TEST(ParserTest, SelectDistinct) {
  ASSERT_OK_AND_ASSIGN(AstQuery q, Parse("SELECT DISTINCT Plan FROM Insurance"));
  EXPECT_TRUE(q.distinct);
  ASSERT_OK_AND_ASSIGN(AstQuery q2, Parse("SELECT Plan FROM Insurance"));
  EXPECT_FALSE(q2.distinct);
  // DISTINCT composes with '*' and is case-insensitive.
  ASSERT_OK_AND_ASSIGN(AstQuery q3, Parse("select distinct * from Insurance"));
  EXPECT_TRUE(q3.distinct);
  EXPECT_TRUE(q3.select_star);
}

TEST(ParserTest, SelectStar) {
  ASSERT_OK_AND_ASSIGN(AstQuery q, Parse("SELECT * FROM Hospital"));
  EXPECT_TRUE(q.select_star);
  EXPECT_TRUE(q.joins.empty());
  EXPECT_TRUE(q.where.empty());
}

TEST(ParserTest, DottedNames) {
  ASSERT_OK_AND_ASSIGN(AstQuery q,
                       Parse("SELECT Insurance.Plan FROM Insurance WHERE "
                             "Insurance.Holder = 3"));
  EXPECT_EQ(q.select_list[0], "Insurance.Plan");
  EXPECT_EQ(q.where[0].lhs, "Insurance.Holder");
}

TEST(ParserTest, WhereAttrAttr) {
  ASSERT_OK_AND_ASSIGN(AstQuery q,
                       Parse("SELECT Plan FROM Insurance WHERE Holder = Plan"));
  ASSERT_TRUE(q.where[0].rhs_is_name());
  EXPECT_EQ(std::get<std::string>(q.where[0].rhs), "Plan");
}

TEST(ParserTest, ExplainAndExplainAnalyze) {
  // Plain query: both flags off.
  ASSERT_OK_AND_ASSIGN(AstQuery plain, Parse("SELECT Plan FROM Insurance"));
  EXPECT_FALSE(plain.explain);
  EXPECT_FALSE(plain.analyze);

  // EXPLAIN wraps an otherwise-unchanged query.
  ASSERT_OK_AND_ASSIGN(
      AstQuery q, Parse("EXPLAIN SELECT Plan FROM Insurance JOIN Hospital "
                        "ON Holder = Patient WHERE Plan = 'gold'"));
  EXPECT_TRUE(q.explain);
  EXPECT_FALSE(q.analyze);
  EXPECT_EQ(q.first_relation, "Insurance");
  ASSERT_EQ(q.joins.size(), 1u);
  ASSERT_EQ(q.where.size(), 1u);

  // EXPLAIN ANALYZE sets both; keywords are case-insensitive.
  ASSERT_OK_AND_ASSIGN(AstQuery qa,
                       Parse("explain analyze select Plan from Insurance"));
  EXPECT_TRUE(qa.explain);
  EXPECT_TRUE(qa.analyze);
  EXPECT_EQ(qa.select_list, (std::vector<std::string>{"Plan"}));

  // EXPLAIN composes with DISTINCT.
  ASSERT_OK_AND_ASSIGN(
      AstQuery qd, Parse("EXPLAIN SELECT DISTINCT Plan FROM Insurance"));
  EXPECT_TRUE(qd.explain);
  EXPECT_TRUE(qd.distinct);

  // EXPLAIN needs a query behind it; ANALYZE alone is not a prefix, and the
  // keywords cannot be used as plain identifiers.
  EXPECT_EQ(Parse("EXPLAIN").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("EXPLAIN ANALYZE").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("ANALYZE SELECT Plan FROM Insurance").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("EXPLAIN EXPLAIN SELECT Plan FROM Insurance").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_EQ(Parse("FROM x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("SELECT FROM x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("SELECT a").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("SELECT a FROM").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("SELECT a FROM t JOIN").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("SELECT a FROM t JOIN u").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("SELECT a FROM t JOIN u ON a < b").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("SELECT a FROM t WHERE").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("SELECT a FROM t extra").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("").status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, OutOfRangeNumericLiteralsAreErrors) {
  // Literals outside the range of double (overflow, and underflow to zero)
  // and of int64 are typed errors at the literal's offset, never a throw.
  const std::string prefix = "SELECT Plan FROM Insurance WHERE Holder = ";
  const std::string at = " at offset " + std::to_string(prefix.size());
  const std::string overflow = "1" + std::string(400, '0') + ".5";
  const std::string underflow = "0." + std::string(400, '0') + "1";
  for (const std::string& literal : {overflow, underflow}) {
    const Result<AstQuery> parsed = Parse(prefix + literal);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(), "float literal out of range" + at);
  }
  EXPECT_EQ(Parse(prefix + "1" + std::string(400, '0')).status().message(),
            "integer literal out of range" + at);

  // The largest and smallest in-range floats still parse exactly.
  ASSERT_OK_AND_ASSIGN(AstQuery big,
                       Parse(prefix + "1" + std::string(308, '0') + ".5"));
  EXPECT_EQ(std::get<storage::Value>(big.where.at(0).rhs),
            storage::Value(1e308));
  ASSERT_OK_AND_ASSIGN(AstQuery small,
                       Parse(prefix + "0." + std::string(323, '0') + "5"));
  EXPECT_EQ(std::get<storage::Value>(small.where.at(0).rhs),
            storage::Value(5e-324));
}

class BinderTest : public ::testing::Test {
 protected:
  catalog::Catalog cat_ = workload::MedicalScenario::BuildCatalog();
};

TEST_F(BinderTest, BindsPaperQuery) {
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      ParseAndBind(cat_, workload::MedicalScenario::kPaperQuery));
  EXPECT_EQ(spec.select_list.size(), 4u);
  EXPECT_EQ(spec.first_relation, cisqp::testing::Relation(cat_, "Insurance"));
  ASSERT_EQ(spec.joins.size(), 2u);
  // First join links Nat_registry via Holder = Citizen, oriented new-on-right.
  EXPECT_EQ(spec.joins[0].relation, cisqp::testing::Relation(cat_, "Nat_registry"));
  EXPECT_EQ(spec.joins[0].atoms[0].left, Attr(cat_, "Holder"));
  EXPECT_EQ(spec.joins[0].atoms[0].right, Attr(cat_, "Citizen"));
  // Second join links Hospital via Citizen = Patient.
  EXPECT_EQ(spec.joins[1].atoms[0].left, Attr(cat_, "Citizen"));
  EXPECT_EQ(spec.joins[1].atoms[0].right, Attr(cat_, "Patient"));
}

TEST_F(BinderTest, OrientsReversedOnCondition) {
  // Written "Patient = Citizen" while Hospital is the new relation.
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      ParseAndBind(cat_, "SELECT Patient FROM Nat_registry JOIN Hospital "
                         "ON Patient = Citizen"));
  EXPECT_EQ(spec.joins[0].atoms[0].left, Attr(cat_, "Citizen"));
  EXPECT_EQ(spec.joins[0].atoms[0].right, Attr(cat_, "Patient"));
}

TEST_F(BinderTest, SelectStarExpandsInFromOrder) {
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      ParseAndBind(cat_, "SELECT * FROM Insurance JOIN Nat_registry "
                         "ON Holder = Citizen"));
  ASSERT_EQ(spec.select_list.size(), 4u);
  EXPECT_EQ(spec.select_list[0], Attr(cat_, "Holder"));
  EXPECT_EQ(spec.select_list[2], Attr(cat_, "Citizen"));
}

TEST_F(BinderTest, CoercesIntLiteralToDoubleColumn) {
  catalog::Catalog cat;
  const auto s = cat.AddServer("s").value();
  ASSERT_OK(cat.AddRelation("T", s,
                            {{"K", catalog::ValueType::kInt64},
                             {"V", catalog::ValueType::kDouble}},
                            {"K"})
                .status());
  ASSERT_OK_AND_ASSIGN(plan::QuerySpec spec,
                       ParseAndBind(cat, "SELECT K FROM T WHERE V > 5"));
  const auto& rhs = std::get<storage::Value>(spec.where.conjuncts()[0].rhs);
  EXPECT_TRUE(rhs.is_double());
}

TEST_F(BinderTest, BindErrors) {
  EXPECT_EQ(ParseAndBind(cat_, "SELECT x FROM Nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseAndBind(cat_, "SELECT Nope FROM Insurance").status().code(),
            StatusCode::kNotFound);
  // Attribute exists but not in FROM scope.
  EXPECT_EQ(ParseAndBind(cat_, "SELECT Citizen FROM Insurance").status().code(),
            StatusCode::kInvalidArgument);
  // ON condition not linking the new relation.
  EXPECT_EQ(ParseAndBind(cat_, "SELECT Plan FROM Insurance JOIN Hospital "
                               "ON Holder = Plan")
                .status().code(),
            StatusCode::kInvalidArgument);
  // WHERE type mismatch.
  EXPECT_EQ(ParseAndBind(cat_, "SELECT Plan FROM Insurance WHERE Holder = 'x'")
                .status().code(),
            StatusCode::kInvalidArgument);
  // WHERE attr out of scope.
  EXPECT_EQ(ParseAndBind(cat_, "SELECT Plan FROM Insurance WHERE Citizen = 1")
                .status().code(),
            StatusCode::kInvalidArgument);
  // Cross-type attr-attr comparison.
  EXPECT_EQ(ParseAndBind(cat_, "SELECT Plan FROM Insurance WHERE Holder = Plan")
                .status().code(),
            StatusCode::kInvalidArgument);
  // Duplicate relation in FROM.
  EXPECT_EQ(ParseAndBind(cat_, "SELECT Plan FROM Insurance JOIN Insurance "
                               "ON Holder = Holder")
                .status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(BinderTest, SpecRoundTripsThroughToString) {
  ASSERT_OK_AND_ASSIGN(
      plan::QuerySpec spec,
      ParseAndBind(cat_, workload::MedicalScenario::kPaperQuery));
  const std::string rendered = spec.ToString(cat_);
  ASSERT_OK_AND_ASSIGN(plan::QuerySpec again, ParseAndBind(cat_, rendered));
  EXPECT_EQ(again.ToString(cat_), rendered);
}

}  // namespace
}  // namespace cisqp::sql
