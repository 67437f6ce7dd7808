#include "sql/parser.h"

#include <algorithm>
#include <unordered_map>

#include "columnar/datetime.h"
#include "common/strings.h"
#include "sql/lexer.h"

namespace bauplan::sql {

using columnar::Value;

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseStatement() {
    BAUPLAN_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelectBody());
    Accept(TokenType::kSemicolon);
    if (Peek().type != TokenType::kEnd) {
      return SyntaxError(StrCat("unexpected trailing input '",
                                Peek().text, "'"));
    }
    return stmt;
  }

 private:
  /// Parses SELECT ... [LIMIT n] without consuming statement terminators
  /// (also used for derived tables, which stop at the closing paren).
  Result<SelectStatement> ParseSelectBody() {
    Nested nested(this);
    BAUPLAN_RETURN_NOT_OK(nested.status());
    BAUPLAN_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    SelectStatement stmt;
    stmt.distinct = AcceptKeyword("DISTINCT");
    BAUPLAN_ASSIGN_OR_RETURN(stmt.items, ParseSelectList());
    BAUPLAN_RETURN_NOT_OK(ExpectKeyword("FROM"));
    BAUPLAN_ASSIGN_OR_RETURN(stmt.from, ParseTableRef());
    while (PeekJoin()) {
      BAUPLAN_ASSIGN_OR_RETURN(JoinClause join, ParseJoin());
      stmt.joins.push_back(std::move(join));
    }
    if (AcceptKeyword("WHERE")) {
      BAUPLAN_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (AcceptKeyword("GROUP")) {
      BAUPLAN_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        BAUPLAN_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
      } while (Accept(TokenType::kComma));
    }
    if (AcceptKeyword("HAVING")) {
      BAUPLAN_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (AcceptKeyword("ORDER")) {
      BAUPLAN_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        OrderKey key;
        BAUPLAN_ASSIGN_OR_RETURN(key.expr, ParseExpr());
        if (AcceptKeyword("DESC")) {
          key.ascending = false;
        } else {
          AcceptKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(key));
      } while (Accept(TokenType::kComma));
    }
    if (AcceptKeyword("LIMIT")) {
      const Token& tok = Peek();
      if (tok.type != TokenType::kIntegerLiteral || tok.int_value < 0) {
        return SyntaxError("LIMIT expects a non-negative integer");
      }
      stmt.limit = tok.int_value;
      Advance();
    }
    if (AcceptKeyword("UNION")) {
      BAUPLAN_RETURN_NOT_OK(ExpectKeyword("ALL"));
      if (!stmt.order_by.empty() || stmt.limit >= 0) {
        return SyntaxError(
            "ORDER BY/LIMIT are not allowed on a unioned SELECT; wrap "
            "the union in a derived table");
      }
      BAUPLAN_ASSIGN_OR_RETURN(SelectStatement next, ParseSelectBody());
      if (!next.order_by.empty() || next.limit >= 0) {
        return SyntaxError(
            "ORDER BY/LIMIT are not allowed on a unioned SELECT; wrap "
            "the union in a derived table");
      }
      stmt.union_next =
          std::make_shared<SelectStatement>(std::move(next));
    }
    return stmt;
  }

  Result<SelectStatement> ParseSubSelect() { return ParseSelectBody(); }

  const Token& Peek(size_t ahead = 0) const {
    size_t idx = pos_ + ahead;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  void Advance() { ++pos_; }

  bool Accept(TokenType type) {
    if (Peek().type == type) {
      Advance();
      return true;
    }
    return false;
  }

  bool AcceptKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) {
      return SyntaxError(StrCat("expected ", kw));
    }
    return Status::OK();
  }

  Status Expect(TokenType type, std::string_view what) {
    if (!Accept(type)) {
      return SyntaxError(StrCat("expected ", what));
    }
    return Status::OK();
  }

  static bool IsFunctionKeyword(const Token& tok) {
    return tok.type == TokenType::kKeyword &&
           (tok.text == "COUNT" || tok.text == "SUM" || tok.text == "AVG" ||
            tok.text == "MIN" || tok.text == "MAX");
  }

  Status SyntaxError(std::string message) const {
    return Status::InvalidArgument(StrCat("syntax error at position ",
                                          Peek().position, ": ", message));
  }

  Result<std::vector<SelectItem>> ParseSelectList() {
    std::vector<SelectItem> items;
    do {
      SelectItem item;
      if (Peek().type == TokenType::kStar) {
        Advance();
        item.expr = MakeStar();
      } else {
        BAUPLAN_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("AS")) {
          // Function-name keywords are fine as aliases: the paper's own
          // Step 1 writes `passenger_count as count`.
          if (Peek().type != TokenType::kIdentifier &&
              !IsFunctionKeyword(Peek())) {
            return SyntaxError("expected alias after AS");
          }
          item.alias = Peek().type == TokenType::kIdentifier
                           ? Peek().text
                           : ToLower(Peek().text);
          Advance();
        } else if (Peek().type == TokenType::kIdentifier) {
          // Bare alias (SELECT a b).
          item.alias = Peek().text;
          Advance();
        }
      }
      items.push_back(std::move(item));
    } while (Accept(TokenType::kComma));
    return items;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (Peek().type == TokenType::kLParen) {
      // Derived table: FROM (SELECT ...) alias.
      Advance();
      BAUPLAN_ASSIGN_OR_RETURN(SelectStatement inner, ParseSubSelect());
      BAUPLAN_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      ref.subquery = std::make_shared<SelectStatement>(std::move(inner));
      AcceptKeyword("AS");
      if (Peek().type != TokenType::kIdentifier) {
        return SyntaxError("derived table needs an alias");
      }
      ref.alias = Peek().text;
      ref.table_name = ref.alias;
      Advance();
      return ref;
    }
    if (Peek().type != TokenType::kIdentifier) {
      return SyntaxError("expected table name");
    }
    ref.table_name = Peek().text;
    Advance();
    if (AcceptKeyword("AS")) {
      if (Peek().type != TokenType::kIdentifier) {
        return SyntaxError("expected table alias after AS");
      }
      ref.alias = Peek().text;
      Advance();
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Peek().text;
      Advance();
    }
    if (ref.alias.empty()) ref.alias = ref.table_name;
    return ref;
  }

  bool PeekJoin() const {
    return Peek().IsKeyword("JOIN") || Peek().IsKeyword("INNER") ||
           Peek().IsKeyword("LEFT");
  }

  Result<JoinClause> ParseJoin() {
    JoinClause join;
    if (AcceptKeyword("LEFT")) {
      AcceptKeyword("OUTER");
      join.type = JoinType::kLeft;
    } else {
      AcceptKeyword("INNER");
      join.type = JoinType::kInner;
    }
    BAUPLAN_RETURN_NOT_OK(ExpectKeyword("JOIN"));
    BAUPLAN_ASSIGN_OR_RETURN(join.table, ParseTableRef());
    BAUPLAN_RETURN_NOT_OK(ExpectKeyword("ON"));
    BAUPLAN_ASSIGN_OR_RETURN(join.on, ParseExpr());
    return join;
  }

  // -- depth limit -----------------------------------------------------

  /// Counts one level of parser recursion (a parenthesized or nested
  /// expression, a subquery, a UNION arm) for its lifetime.
  class Nested {
   public:
    explicit Nested(Parser* parser) : parser_(parser) {
      if (++parser_->nesting_ > kMaxExpressionNesting) {
        status_ = parser_->SyntaxError(
            StrCat("expression nested deeper than ", kMaxExpressionNesting,
                   " levels"));
      }
    }
    ~Nested() { --parser_->nesting_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;
    const Status& status() const { return status_; }

   private:
    Parser* parser_;
    Status status_;
  };

  int DepthOf(const ExprPtr& e) const {
    if (e == nullptr) return 0;
    auto it = depth_of_.find(e.get());
    return it == depth_of_.end() ? 1 : it->second;
  }

  /// Records the tree depth of `e` (one more than its deepest child; the
  /// children were all tracked when they were built) and rejects a tree
  /// deeper than the limit, however flat the text that built it: a
  /// 50,000-term sum is one loop here but a 50,000-deep left spine for
  /// every later recursive walk.
  Result<ExprPtr> Track(ExprPtr e) {
    int child = std::max({DepthOf(e->left), DepthOf(e->right),
                          DepthOf(e->between_low), DepthOf(e->between_high)});
    for (const auto& arg : e->args) child = std::max(child, DepthOf(arg));
    for (const auto& item : e->list) child = std::max(child, DepthOf(item));
    if (child + 1 > kMaxExpressionDepth) {
      return SyntaxError(StrCat("expression tree deeper than ",
                                kMaxExpressionDepth, " levels"));
    }
    depth_of_[e.get()] = child + 1;
    return e;
  }

  // Expression grammar, lowest precedence first. Every node a rule
  // returns goes through Track.
  Result<ExprPtr> ParseExpr() {
    Nested nested(this);
    BAUPLAN_RETURN_NOT_OK(nested.status());
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    BAUPLAN_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (AcceptKeyword("OR")) {
      BAUPLAN_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      BAUPLAN_ASSIGN_OR_RETURN(
          left, Track(MakeBinary(BinaryOp::kOr, std::move(left),
                                 std::move(right))));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    BAUPLAN_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (Peek().IsKeyword("AND")) {
      Advance();
      BAUPLAN_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      BAUPLAN_ASSIGN_OR_RETURN(
          left, Track(MakeBinary(BinaryOp::kAnd, std::move(left),
                                 std::move(right))));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      Nested nested(this);
      BAUPLAN_RETURN_NOT_OK(nested.status());
      BAUPLAN_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Track(MakeUnary(UnaryOp::kNot, std::move(operand)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    BAUPLAN_ASSIGN_OR_RETURN(ExprPtr e, ParseComparisonNode());
    return Track(std::move(e));
  }

  Result<ExprPtr> ParseComparisonNode() {
    BAUPLAN_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    // IS [NOT] NULL
    if (AcceptKeyword("IS")) {
      bool negated = AcceptKeyword("NOT");
      BAUPLAN_RETURN_NOT_OK(ExpectKeyword("NULL"));
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kIsNull;
      e->left = std::move(left);
      e->negated = negated;
      return ExprPtr(e);
    }
    bool negated = false;
    if (Peek().IsKeyword("NOT") &&
        (Peek(1).IsKeyword("BETWEEN") || Peek(1).IsKeyword("IN") ||
         Peek(1).IsKeyword("LIKE"))) {
      Advance();
      negated = true;
    }
    if (AcceptKeyword("BETWEEN")) {
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kBetween;
      e->left = std::move(left);
      e->negated = negated;
      BAUPLAN_ASSIGN_OR_RETURN(e->between_low, ParseAdditive());
      BAUPLAN_RETURN_NOT_OK(ExpectKeyword("AND"));
      BAUPLAN_ASSIGN_OR_RETURN(e->between_high, ParseAdditive());
      return ExprPtr(e);
    }
    if (AcceptKeyword("IN")) {
      BAUPLAN_RETURN_NOT_OK(Expect(TokenType::kLParen, "'(' after IN"));
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kInList;
      e->left = std::move(left);
      e->negated = negated;
      do {
        BAUPLAN_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
        e->list.push_back(std::move(item));
      } while (Accept(TokenType::kComma));
      BAUPLAN_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return ExprPtr(e);
    }
    if (AcceptKeyword("LIKE")) {
      if (Peek().type != TokenType::kStringLiteral) {
        return SyntaxError("LIKE expects a string pattern literal");
      }
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kLike;
      e->left = std::move(left);
      e->negated = negated;
      e->pattern = Peek().text;
      Advance();
      return ExprPtr(e);
    }
    BinaryOp op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenType::kNe:
        op = BinaryOp::kNe;
        break;
      case TokenType::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenType::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenType::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenType::kGe:
        op = BinaryOp::kGe;
        break;
      default:
        return left;
    }
    Advance();
    BAUPLAN_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    return MakeBinary(op, std::move(left), std::move(right));
  }

  Result<ExprPtr> ParseAdditive() {
    BAUPLAN_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (Peek().type == TokenType::kPlus) {
        op = BinaryOp::kAdd;
      } else if (Peek().type == TokenType::kMinus) {
        op = BinaryOp::kSub;
      } else {
        return left;
      }
      Advance();
      BAUPLAN_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      BAUPLAN_ASSIGN_OR_RETURN(
          left, Track(MakeBinary(op, std::move(left), std::move(right))));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    BAUPLAN_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Peek().type == TokenType::kStar) {
        op = BinaryOp::kMul;
      } else if (Peek().type == TokenType::kSlash) {
        op = BinaryOp::kDiv;
      } else if (Peek().type == TokenType::kPercent) {
        op = BinaryOp::kMod;
      } else {
        return left;
      }
      Advance();
      BAUPLAN_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      BAUPLAN_ASSIGN_OR_RETURN(
          left, Track(MakeBinary(op, std::move(left), std::move(right))));
    }
  }

  Result<ExprPtr> ParseUnary() {
    BAUPLAN_ASSIGN_OR_RETURN(ExprPtr e, ParseUnaryNode());
    return Track(std::move(e));
  }

  Result<ExprPtr> ParseUnaryNode() {
    if (Accept(TokenType::kMinus)) {
      Nested nested(this);
      BAUPLAN_RETURN_NOT_OK(nested.status());
      BAUPLAN_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      // Fold negation of numeric literals.
      if (operand->kind == ExprKind::kLiteral && !operand->literal.is_null()) {
        if (operand->literal.type() == columnar::TypeId::kInt64) {
          return MakeLiteral(Value::Int64(-operand->literal.int64_value()));
        }
        if (operand->literal.type() == columnar::TypeId::kDouble) {
          return MakeLiteral(Value::Double(-operand->literal.double_value()));
        }
      }
      return MakeUnary(UnaryOp::kNegate, std::move(operand));
    }
    Accept(TokenType::kPlus);
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kIntegerLiteral: {
        int64_t v = tok.int_value;
        Advance();
        return MakeLiteral(Value::Int64(v));
      }
      case TokenType::kFloatLiteral: {
        double v = tok.float_value;
        Advance();
        return MakeLiteral(Value::Double(v));
      }
      case TokenType::kStringLiteral: {
        std::string v = tok.text;
        Advance();
        return MakeLiteral(Value::String(std::move(v)));
      }
      case TokenType::kLParen: {
        Advance();
        BAUPLAN_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        BAUPLAN_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        return inner;
      }
      case TokenType::kKeyword: {
        if (tok.text == "NULL") {
          Advance();
          return MakeLiteral(Value::Null());
        }
        if (tok.text == "TRUE") {
          Advance();
          return MakeLiteral(Value::Bool(true));
        }
        if (tok.text == "FALSE") {
          Advance();
          return MakeLiteral(Value::Bool(false));
        }
        if (tok.text == "CAST") {
          Advance();
          BAUPLAN_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
          auto e = std::make_shared<Expr>();
          e->kind = ExprKind::kCast;
          BAUPLAN_ASSIGN_OR_RETURN(e->left, ParseExpr());
          BAUPLAN_RETURN_NOT_OK(ExpectKeyword("AS"));
          if (Peek().type != TokenType::kIdentifier) {
            return SyntaxError("expected type name in CAST");
          }
          BAUPLAN_ASSIGN_OR_RETURN(
              e->cast_type, columnar::TypeIdFromString(ToLower(Peek().text)));
          Advance();
          BAUPLAN_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
          return ExprPtr(e);
        }
        if (tok.text == "CASE") {
          Advance();
          auto e = std::make_shared<Expr>();
          e->kind = ExprKind::kCase;
          while (AcceptKeyword("WHEN")) {
            BAUPLAN_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
            BAUPLAN_RETURN_NOT_OK(ExpectKeyword("THEN"));
            BAUPLAN_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
            e->list.push_back(std::move(cond));
            e->list.push_back(std::move(value));
          }
          if (e->list.empty()) {
            return SyntaxError("CASE needs at least one WHEN");
          }
          if (AcceptKeyword("ELSE")) {
            BAUPLAN_ASSIGN_OR_RETURN(e->right, ParseExpr());
          }
          BAUPLAN_RETURN_NOT_OK(ExpectKeyword("END"));
          return ExprPtr(e);
        }
        // Aggregates spelled as keywords. Without a following '(', these
        // are plain column references (a column named "count" is legal —
        // the paper's Step 1 creates one).
        if (IsFunctionKeyword(tok) &&
            Peek(1).type != TokenType::kLParen) {
          std::string name = ToLower(tok.text);
          Advance();
          return MakeColumnRef("", std::move(name));
        }
        if (IsFunctionKeyword(tok)) {
          std::string name = tok.text;
          Advance();
          BAUPLAN_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
          bool distinct = AcceptKeyword("DISTINCT");
          if (name == "COUNT" && Accept(TokenType::kStar)) {
            BAUPLAN_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
            return MakeFunction("COUNT", {}, false, /*star_arg=*/true);
          }
          BAUPLAN_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          BAUPLAN_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
          return MakeFunction(std::move(name), {std::move(arg)}, distinct);
        }
        return SyntaxError(StrCat("unexpected keyword ", tok.text));
      }
      case TokenType::kIdentifier: {
        std::string first = tok.text;
        Advance();
        if (Accept(TokenType::kLParen)) {
          // Scalar function call.
          std::string name = ToUpper(first);
          std::vector<ExprPtr> args;
          if (!Accept(TokenType::kRParen)) {
            do {
              BAUPLAN_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
            } while (Accept(TokenType::kComma));
            BAUPLAN_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
          }
          return MakeFunction(std::move(name), std::move(args));
        }
        if (Accept(TokenType::kDot)) {
          if (Peek().type != TokenType::kIdentifier) {
            return SyntaxError("expected column name after '.'");
          }
          std::string column = Peek().text;
          Advance();
          return MakeColumnRef(std::move(first), std::move(column));
        }
        return MakeColumnRef("", std::move(first));
      }
      default:
        return SyntaxError(StrCat("unexpected token '", tok.text, "'"));
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int nesting_ = 0;
  std::unordered_map<const Expr*, int> depth_of_;
};

}  // namespace

Result<SelectStatement> ParseSelect(std::string_view sql) {
  BAUPLAN_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<std::vector<std::string>> ExtractTableReferences(
    std::string_view sql) {
  BAUPLAN_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return stmt.ReferencedTables();
}

}  // namespace bauplan::sql
