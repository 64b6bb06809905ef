#include "sql/parser.hpp"

#include <charconv>

#include "sql/lexer.hpp"

namespace cisqp::sql {
namespace {

/// Token cursor with one-symbol lookahead.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }

  Token Advance() {
    Token t = tokens_[pos_];
    if (tokens_[pos_].kind != TokenKind::kEnd) ++pos_;
    return t;
  }

  bool At(TokenKind kind) const { return Peek().kind == kind; }

  bool AtKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kKeyword && Peek().text == kw;
  }

  bool ConsumeKeyword(std::string_view kw) {
    if (!AtKeyword(kw)) return false;
    Advance();
    return true;
  }

  Status Expect(TokenKind kind, std::string_view what) {
    if (!At(kind)) {
      return InvalidArgumentError("expected " + std::string(what) + " but found " +
                                  std::string(TokenKindName(Peek().kind)) +
                                  " at offset " + std::to_string(Peek().offset));
    }
    Advance();
    return Status::Ok();
  }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

/// name := identifier ('.' identifier)?
Result<std::string> ParseName(Cursor& cur) {
  if (!cur.At(TokenKind::kIdentifier)) {
    return InvalidArgumentError("expected a name but found " +
                                std::string(TokenKindName(cur.Peek().kind)) +
                                " at offset " + std::to_string(cur.Peek().offset));
  }
  std::string name = cur.Advance().text;
  if (cur.At(TokenKind::kDot)) {
    cur.Advance();
    if (!cur.At(TokenKind::kIdentifier)) {
      return InvalidArgumentError("expected an identifier after '.' at offset " +
                                  std::to_string(cur.Peek().offset));
    }
    name += ".";
    name += cur.Advance().text;
  }
  return name;
}

Result<algebra::CompareOp> ParseCompareOp(Cursor& cur) {
  switch (cur.Peek().kind) {
    case TokenKind::kEq: cur.Advance(); return algebra::CompareOp::kEq;
    case TokenKind::kNe: cur.Advance(); return algebra::CompareOp::kNe;
    case TokenKind::kLt: cur.Advance(); return algebra::CompareOp::kLt;
    case TokenKind::kLe: cur.Advance(); return algebra::CompareOp::kLe;
    case TokenKind::kGt: cur.Advance(); return algebra::CompareOp::kGt;
    case TokenKind::kGe: cur.Advance(); return algebra::CompareOp::kGe;
    default:
      return InvalidArgumentError("expected a comparison operator at offset " +
                                  std::to_string(cur.Peek().offset));
  }
}

/// The numeric token `t` as a T-typed value. The lexer only emits digits
/// (and one inner dot) here, so the one failure is a value outside T's
/// range: a typed error, never an exception.
template <typename T>
Result<storage::Value> NumericLiteral(const Token& t, std::string_view kind) {
  T v{};
  const char* end = t.text.data() + t.text.size();
  const auto [ptr, ec] = std::from_chars(t.text.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    return InvalidArgumentError(std::string(kind) +
                                " literal out of range at offset " +
                                std::to_string(t.offset));
  }
  return storage::Value(v);
}

Result<AstCondition> ParseWhereCondition(Cursor& cur) {
  AstCondition cond;
  CISQP_ASSIGN_OR_RETURN(cond.lhs, ParseName(cur));
  CISQP_ASSIGN_OR_RETURN(cond.op, ParseCompareOp(cur));
  const Token& t = cur.Peek();
  switch (t.kind) {
    case TokenKind::kInteger:
    case TokenKind::kFloat: {
      CISQP_ASSIGN_OR_RETURN(cond.rhs,
                             t.kind == TokenKind::kInteger
                                 ? NumericLiteral<std::int64_t>(t, "integer")
                                 : NumericLiteral<double>(t, "float"));
      cur.Advance();
      return cond;
    }
    case TokenKind::kString: {
      cur.Advance();
      cond.rhs = storage::Value(t.text);
      return cond;
    }
    case TokenKind::kIdentifier: {
      CISQP_ASSIGN_OR_RETURN(std::string name, ParseName(cur));
      cond.rhs = std::move(name);
      return cond;
    }
    default:
      return InvalidArgumentError("expected a literal or attribute after operator at offset " +
                                  std::to_string(t.offset));
  }
}

Result<AstJoinCondition> ParseOnCondition(Cursor& cur) {
  AstJoinCondition cond;
  CISQP_ASSIGN_OR_RETURN(cond.left, ParseName(cur));
  CISQP_RETURN_IF_ERROR(cur.Expect(TokenKind::kEq, "'=' in ON condition"));
  CISQP_ASSIGN_OR_RETURN(cond.right, ParseName(cur));
  return cond;
}

}  // namespace

Result<AstQuery> Parse(std::string_view text) {
  CISQP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Cursor cur(std::move(tokens));
  AstQuery query;

  if (cur.ConsumeKeyword("EXPLAIN")) {
    query.explain = true;
    query.analyze = cur.ConsumeKeyword("ANALYZE");
  }
  if (!cur.ConsumeKeyword("SELECT")) {
    return InvalidArgumentError(
        "query must start with SELECT or EXPLAIN [ANALYZE] (offset " +
        std::to_string(cur.Peek().offset) + ")");
  }
  query.distinct = cur.ConsumeKeyword("DISTINCT");
  if (cur.At(TokenKind::kStar)) {
    cur.Advance();
    query.select_star = true;
  } else {
    CISQP_ASSIGN_OR_RETURN(std::string first, ParseName(cur));
    query.select_list.push_back(std::move(first));
    while (cur.At(TokenKind::kComma)) {
      cur.Advance();
      CISQP_ASSIGN_OR_RETURN(std::string name, ParseName(cur));
      query.select_list.push_back(std::move(name));
    }
  }

  if (!cur.ConsumeKeyword("FROM")) {
    return InvalidArgumentError("expected FROM at offset " +
                                std::to_string(cur.Peek().offset));
  }
  if (!cur.At(TokenKind::kIdentifier)) {
    return InvalidArgumentError("expected a relation name after FROM at offset " +
                                std::to_string(cur.Peek().offset));
  }
  query.first_relation = cur.Advance().text;

  while (cur.ConsumeKeyword("JOIN")) {
    AstJoin join;
    if (!cur.At(TokenKind::kIdentifier)) {
      return InvalidArgumentError("expected a relation name after JOIN at offset " +
                                  std::to_string(cur.Peek().offset));
    }
    join.relation = cur.Advance().text;
    if (!cur.ConsumeKeyword("ON")) {
      return InvalidArgumentError("expected ON after JOIN " + join.relation +
                                  " at offset " + std::to_string(cur.Peek().offset));
    }
    CISQP_ASSIGN_OR_RETURN(AstJoinCondition first, ParseOnCondition(cur));
    join.conditions.push_back(std::move(first));
    while (cur.ConsumeKeyword("AND")) {
      CISQP_ASSIGN_OR_RETURN(AstJoinCondition cond, ParseOnCondition(cur));
      join.conditions.push_back(std::move(cond));
    }
    query.joins.push_back(std::move(join));
  }

  if (cur.ConsumeKeyword("WHERE")) {
    CISQP_ASSIGN_OR_RETURN(AstCondition first, ParseWhereCondition(cur));
    query.where.push_back(std::move(first));
    while (cur.ConsumeKeyword("AND")) {
      CISQP_ASSIGN_OR_RETURN(AstCondition cond, ParseWhereCondition(cur));
      query.where.push_back(std::move(cond));
    }
  }

  if (!cur.At(TokenKind::kEnd)) {
    return InvalidArgumentError("unexpected trailing input at offset " +
                                std::to_string(cur.Peek().offset));
  }
  return query;
}

}  // namespace cisqp::sql
