#ifndef BAUPLAN_SQL_PARSER_H_
#define BAUPLAN_SQL_PARSER_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"

namespace bauplan::sql {

/// The parser's depth limit, checked as it builds each expression: the
/// tree it returns is at most kMaxExpressionDepth deep (a flat
/// `1+1+...+1` is a left-deep spine, so this counts tree depth, not
/// recursion), and the text nests at most kMaxExpressionNesting levels
/// of parentheses, NOT/unary-minus chains, subqueries and UNION arms.
/// Each nesting level costs the parser about ten stack frames (~18 KB
/// under AddressSanitizer), hence the lower bound there. Deeper input is
/// an InvalidArgument with a position, never a stack overflow in the
/// parser or in any later walk of the tree.
inline constexpr int kMaxExpressionDepth = 2048;
inline constexpr int kMaxExpressionNesting = 256;

/// Parses one SELECT statement (optionally ;-terminated).
/// InvalidArgument with position info on syntax errors, including input
/// deeper than the depth limit above.
///
/// Grammar (informal):
///   SELECT item (, item)*
///   FROM table [alias] ([INNER|LEFT [OUTER]] JOIN table [alias] ON expr)*
///   [WHERE expr] [GROUP BY expr (, expr)*] [HAVING expr]
///   [ORDER BY expr [ASC|DESC] (, ...)*] [LIMIT n]
/// Expressions: OR > AND > NOT > comparison/IS/IN/BETWEEN/LIKE >
/// additive > multiplicative > unary - > primary (literal, column, f(x),
/// CAST, CASE, parenthesized).
Result<SelectStatement> ParseSelect(std::string_view sql);

/// Convenience for dependency extraction: table names referenced by the
/// FROM/JOIN clauses of `sql`, in appearance order.
Result<std::vector<std::string>> ExtractTableReferences(std::string_view sql);

}  // namespace bauplan::sql

#endif  // BAUPLAN_SQL_PARSER_H_
