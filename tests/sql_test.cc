#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "common/rng.h"
#include "common/strings.h"
#include "columnar/datetime.h"
#include "columnar/table.h"
#include "sql/engine.h"
#include "sql/expr_eval.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace bauplan::sql {
namespace {

using columnar::DoubleBuilder;
using columnar::Int64Builder;
using columnar::ParseTimestampString;
using columnar::Schema;
using columnar::StringBuilder;
using columnar::Table;
using columnar::TypeId;
using columnar::Value;

/// The paper's taxi_table: trips with pickup location/time, passengers.
Table TaxiTable() {
  Int64Builder pickup_loc, dropoff_loc, passengers;
  Int64Builder pickup_at(TypeId::kTimestamp);
  DoubleBuilder fare;
  StringBuilder zone;
  struct Row {
    int64_t pickup, dropoff, pax;
    const char* when;
    double fare;
    const char* zone;
  };
  std::vector<Row> rows = {
      {1, 2, 2, "2019-03-15 08:00:00", 10.0, "JFK"},
      {1, 3, 1, "2019-04-01 09:00:00", 15.5, "JFK"},
      {2, 3, 4, "2019-04-02 10:30:00", 8.25, "LGA"},
      {1, 2, 3, "2019-04-05 11:00:00", 30.0, "JFK"},
      {3, 1, 1, "2019-04-07 12:15:00", 22.0, "SoHo"},
      {2, 1, 6, "2019-04-09 13:45:00", 5.0, "LGA"},
      {3, 2, 2, "2019-05-01 14:00:00", 18.0, "SoHo"},
  };
  for (const auto& r : rows) {
    pickup_loc.Append(r.pickup);
    dropoff_loc.Append(r.dropoff);
    passengers.Append(r.pax);
    pickup_at.Append(*ParseTimestampString(r.when));
    fare.Append(r.fare);
    zone.Append(r.zone);
  }
  return *Table::Make(
      Schema({{"pickup_location_id", TypeId::kInt64, false},
              {"dropoff_location_id", TypeId::kInt64, false},
              {"passenger_count", TypeId::kInt64, false},
              {"pickup_at", TypeId::kTimestamp, false},
              {"fare", TypeId::kDouble, false},
              {"zone", TypeId::kString, false}}),
      {pickup_loc.Finish(), dropoff_loc.Finish(), passengers.Finish(),
       pickup_at.Finish(), fare.Finish(), zone.Finish()});
}

Table ZoneTable() {
  Int64Builder id;
  StringBuilder name, borough;
  id.Append(1);
  name.Append("JFK");
  borough.Append("Queens");
  id.Append(2);
  name.Append("LGA");
  borough.Append("Queens");
  id.Append(4);
  name.Append("EWR");
  borough.Append("NJ");
  return *Table::Make(Schema({{"id", TypeId::kInt64, false},
                              {"name", TypeId::kString, false},
                              {"borough", TypeId::kString, false}}),
                      {id.Finish(), name.Finish(), borough.Finish()});
}

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() {
    provider_.AddTable("taxi_table", TaxiTable());
    provider_.AddTable("zones", ZoneTable());
  }

  Result<QueryResult> Run(std::string_view sql, QueryOptions opts = {}) {
    return RunQuery(sql, provider_, &provider_, opts);
  }

  Table RunOk(std::string_view sql) {
    auto result = Run(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    return result.ok() ? result->table : Table();
  }

  MemoryTableProvider provider_;
};

// ---------------------------------------------------------------- lexer

TEST(LexerTest, TokenizesKeywordsAndIdentifiers) {
  auto tokens = Tokenize("SELECT foo FROM Bar");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);  // incl. kEnd
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "foo");
  EXPECT_TRUE((*tokens)[2].IsKeyword("FROM"));
  EXPECT_EQ((*tokens)[3].text, "Bar");
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select from where");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("FROM"));
  EXPECT_TRUE((*tokens)[2].IsKeyword("WHERE"));
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("42 3.25 1e3 'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].float_value, 3.25);
  EXPECT_EQ((*tokens)[2].float_value, 1000.0);
  EXPECT_EQ((*tokens)[3].text, "it's");
}

TEST(LexerTest, OperatorsIncludingTwoChar) {
  auto tokens = Tokenize("<= >= != <> = < >");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kLe);
  EXPECT_EQ((*tokens)[1].type, TokenType::kGe);
  EXPECT_EQ((*tokens)[2].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[3].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[4].type, TokenType::kEq);
  EXPECT_EQ((*tokens)[5].type, TokenType::kLt);
  EXPECT_EQ((*tokens)[6].type, TokenType::kGt);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("SELECT -- everything\n x");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "x");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("SELECT @").ok());
  EXPECT_FALSE(Tokenize("99999999999999999999").ok());
}

// ---------------------------------------------------------------- parser

TEST(ParserTest, PaperStep1Parses) {
  auto stmt = ParseSelect(
      "SELECT pickup_location_id, passenger_count as count, "
      "dropoff_location_id FROM taxi_table "
      "WHERE pickup_at >= '2019-04-01'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items.size(), 3u);
  EXPECT_EQ(stmt->items[1].alias, "count");
  EXPECT_EQ(stmt->from.table_name, "taxi_table");
  ASSERT_NE(stmt->where, nullptr);
}

TEST(ParserTest, PaperStep3Parses) {
  auto stmt = ParseSelect(
      "SELECT pickup_location_id, dropoff_location_id, COUNT(*) AS counts "
      "FROM trips GROUP BY pickup_location_id, dropoff_location_id "
      "ORDER BY counts DESC");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->group_by.size(), 2u);
  ASSERT_EQ(stmt->order_by.size(), 1u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
}

TEST(ParserTest, ExtractTableReferences) {
  auto refs = ExtractTableReferences(
      "SELECT * FROM trips t JOIN zones z ON t.zone_id = z.id");
  ASSERT_TRUE(refs.ok());
  ASSERT_EQ(refs->size(), 2u);
  EXPECT_EQ((*refs)[0], "trips");
  EXPECT_EQ((*refs)[1], "zones");
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseSelect("SELECT a + b * c FROM t");
  ASSERT_TRUE(stmt.ok());
  // a + (b * c)
  EXPECT_EQ(stmt->items[0].expr->ToString(), "(a + (b * c))");
  auto stmt2 = ParseSelect("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(stmt2->where->binary_op, BinaryOp::kOr);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FORM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t LIMIT -3").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t GROUP a").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t trailing garbage junk").ok());
  EXPECT_FALSE(ParseSelect("").ok());
}

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

TEST(ParserTest, DeeplyNestedParenthesesAreAnErrorNotACrash) {
  const std::string sql = StrCat("SELECT ", Repeat("(", 5000), "1",
                                 Repeat(")", 5000), " AS x FROM t");
  auto stmt = ParseSelect(sql);
  ASSERT_FALSE(stmt.ok());
  EXPECT_TRUE(stmt.status().IsInvalidArgument()) << stmt.status().ToString();
  EXPECT_NE(stmt.status().message().find("at position"), std::string::npos);
  EXPECT_NE(stmt.status().message().find("nested deeper"), std::string::npos);
}

TEST(ParserTest, FlatHugeSumIsLimitedByTreeDepth) {
  // One loop in the parser, but a 50,000-deep left spine for every later
  // tree walk: the limit counts tree depth, not recursion.
  const std::string sql =
      StrCat("SELECT 1", Repeat("+1", 49999), " AS x FROM t");
  auto stmt = ParseSelect(sql);
  ASSERT_FALSE(stmt.ok());
  EXPECT_TRUE(stmt.status().IsInvalidArgument()) << stmt.status().ToString();
  EXPECT_NE(stmt.status().message().find("at position"), std::string::npos);

  auto unary = ParseSelect(StrCat("SELECT ", Repeat("- ", 50000), "1 FROM t"));
  EXPECT_TRUE(unary.status().IsInvalidArgument());
  auto negations =
      ParseSelect(StrCat("SELECT a FROM t WHERE ", Repeat("NOT ", 50000), "a"));
  EXPECT_TRUE(negations.status().IsInvalidArgument());
}

TEST(ParserTest, TwoThousandTermSumStillParses) {
  auto stmt =
      ParseSelect(StrCat("SELECT 1", Repeat("+1", 1999), " AS x FROM t"));
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->items.size(), 1u);
}

TEST(ParserTest, BetweenInLikeCase) {
  auto stmt = ParseSelect(
      "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t "
      "WHERE a BETWEEN 1 AND 10 AND b IN (1, 2, 3) AND c LIKE 'J%' "
      "AND d NOT IN (4) AND e IS NOT NULL");
  ASSERT_TRUE(stmt.ok());
}

// ---------------------------------------------------------------- eval

TEST(ExprEvalTest, LikeMatch) {
  EXPECT_TRUE(LikeMatch("JFK", "J%"));
  EXPECT_TRUE(LikeMatch("JFK", "%FK"));
  EXPECT_TRUE(LikeMatch("JFK", "_F_"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("abc", "%%"));
  EXPECT_FALSE(LikeMatch("JFK", "j%"));  // case sensitive
  EXPECT_FALSE(LikeMatch("JFK", "_F"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));
  EXPECT_TRUE(LikeMatch("xaYYYb", "%a%b"));
}

// ---------------------------------------------------------------- queries

TEST_F(SqlTest, SelectStar) {
  Table t = RunOk("SELECT * FROM taxi_table");
  EXPECT_EQ(t.num_rows(), 7);
  EXPECT_EQ(t.num_columns(), 6);
}

TEST_F(SqlTest, PaperStep1TrailingSemicolonAndDateFilter) {
  Table t = RunOk(
      "SELECT pickup_location_id, passenger_count as count, "
      "dropoff_location_id FROM taxi_table "
      "WHERE pickup_at >= '2019-04-01';");
  EXPECT_EQ(t.num_rows(), 6);  // March trip excluded
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_EQ(t.schema().field(1).name, "count");
}

TEST_F(SqlTest, PaperStep3GroupByOrderBy) {
  // Build trips as in Step 1, register it, then run Step 3 on it.
  Table trips = RunOk(
      "SELECT pickup_location_id, passenger_count as count, "
      "dropoff_location_id FROM taxi_table "
      "WHERE pickup_at >= '2019-04-01'");
  provider_.AddTable("trips", trips);
  Table pickups = RunOk(
      "SELECT pickup_location_id, dropoff_location_id, COUNT(*) AS counts "
      "FROM trips GROUP BY pickup_location_id, dropoff_location_id "
      "ORDER BY counts DESC");
  EXPECT_EQ(pickups.num_columns(), 3);
  EXPECT_GE(pickups.num_rows(), 4);
  // Counts are non-increasing.
  for (int64_t i = 1; i < pickups.num_rows(); ++i) {
    EXPECT_LE(pickups.GetValue(i, 2).int64_value(),
              pickups.GetValue(i - 1, 2).int64_value());
  }
}

TEST_F(SqlTest, WhereComparisons) {
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table WHERE fare > 20").num_rows(), 2);
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table WHERE fare <= 10").num_rows(),
            3);
  EXPECT_EQ(
      RunOk("SELECT * FROM taxi_table WHERE zone = 'JFK'").num_rows(), 3);
  EXPECT_EQ(
      RunOk("SELECT * FROM taxi_table WHERE zone != 'JFK'").num_rows(), 4);
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table WHERE 15 < fare").num_rows(), 4);
}

TEST_F(SqlTest, WhereLogicalOperators) {
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table WHERE zone = 'JFK' AND "
                  "passenger_count >= 2")
                .num_rows(),
            2);
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table WHERE zone = 'JFK' OR "
                  "zone = 'LGA'")
                .num_rows(),
            5);
  EXPECT_EQ(
      RunOk("SELECT * FROM taxi_table WHERE NOT zone = 'JFK'").num_rows(),
      4);
}

TEST_F(SqlTest, WhereBetweenInLike) {
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table WHERE fare BETWEEN 10 AND 20")
                .num_rows(),
            3);
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table WHERE pickup_location_id IN "
                  "(1, 3)")
                .num_rows(),
            5);
  EXPECT_EQ(
      RunOk("SELECT * FROM taxi_table WHERE zone LIKE '%o%'").num_rows(),
      2);
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table WHERE zone NOT LIKE 'J%'")
                .num_rows(),
            4);
}

TEST_F(SqlTest, Projections) {
  Table t = RunOk(
      "SELECT fare * 2 AS double_fare, passenger_count + 1 AS pax "
      "FROM taxi_table LIMIT 1");
  EXPECT_EQ(t.GetValue(0, 0), Value::Double(20.0));
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(3));
}

TEST_F(SqlTest, IntegerAndDoubleDivision) {
  Table t = RunOk("SELECT 7 / 2 AS d, 7 % 2 AS m FROM taxi_table LIMIT 1");
  EXPECT_EQ(t.GetValue(0, 0), Value::Double(3.5));  // div is double
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(1));
}

TEST_F(SqlTest, GlobalAggregates) {
  Table t = RunOk(
      "SELECT COUNT(*) AS n, SUM(fare) AS total, AVG(passenger_count) "
      "AS avg_pax, MIN(fare) AS lo, MAX(fare) AS hi FROM taxi_table");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.GetValue(0, 0), Value::Int64(7));
  EXPECT_NEAR(t.GetValue(0, 1).double_value(), 108.75, 1e-9);
  EXPECT_NEAR(t.GetValue(0, 2).double_value(), 19.0 / 7, 1e-9);
  EXPECT_EQ(t.GetValue(0, 3), Value::Double(5.0));
  EXPECT_EQ(t.GetValue(0, 4), Value::Double(30.0));
}

TEST_F(SqlTest, GroupByWithHaving) {
  Table t = RunOk(
      "SELECT zone, COUNT(*) AS n FROM taxi_table GROUP BY zone "
      "HAVING COUNT(*) >= 2 ORDER BY n DESC, zone");
  ASSERT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("JFK"));
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(3));
}

TEST_F(SqlTest, AggregateOfExpression) {
  Table t = RunOk("SELECT SUM(fare * 2) AS s FROM taxi_table");
  EXPECT_NEAR(t.GetValue(0, 0).double_value(), 217.5, 1e-9);
}

TEST_F(SqlTest, ExpressionOverAggregates) {
  Table t = RunOk(
      "SELECT SUM(fare) / COUNT(*) AS mean_fare FROM taxi_table");
  EXPECT_NEAR(t.GetValue(0, 0).double_value(), 108.75 / 7, 1e-9);
}

TEST_F(SqlTest, CountDistinct) {
  Table t = RunOk("SELECT COUNT(DISTINCT zone) AS z FROM taxi_table");
  EXPECT_EQ(t.GetValue(0, 0), Value::Int64(3));
}

TEST_F(SqlTest, EmptyAggregateSemantics) {
  Table t = RunOk(
      "SELECT COUNT(*) AS n, SUM(fare) AS s FROM taxi_table WHERE fare > "
      "1000");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.GetValue(0, 0), Value::Int64(0));
  EXPECT_TRUE(t.GetValue(0, 1).is_null());
}

TEST_F(SqlTest, GroupColumnRule) {
  auto bad = Run("SELECT zone, fare FROM taxi_table GROUP BY zone");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  auto bad2 = Run("SELECT * FROM taxi_table WHERE COUNT(*) > 1");
  ASSERT_FALSE(bad2.ok());
}

TEST_F(SqlTest, OrderByMultipleKeysAndHiddenColumn) {
  Table t = RunOk(
      "SELECT zone FROM taxi_table ORDER BY passenger_count DESC, fare");
  EXPECT_EQ(t.num_columns(), 1);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("LGA"));  // pax 6
}

TEST_F(SqlTest, OrderByAggregateNotSelected) {
  Table t = RunOk(
      "SELECT zone FROM taxi_table GROUP BY zone ORDER BY SUM(fare) DESC");
  ASSERT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("JFK"));  // 55.5
}

TEST_F(SqlTest, Limit) {
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table LIMIT 3").num_rows(), 3);
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table LIMIT 0").num_rows(), 0);
  EXPECT_EQ(RunOk("SELECT * FROM taxi_table LIMIT 100").num_rows(), 7);
}

TEST_F(SqlTest, InnerJoin) {
  Table t = RunOk(
      "SELECT t.zone, z.borough FROM taxi_table t "
      "JOIN zones z ON t.pickup_location_id = z.id ORDER BY t.zone");
  // pickup ids 1,2 match zones 1,2; id 3 (SoHo pickups) has no match.
  EXPECT_EQ(t.num_rows(), 5);
  EXPECT_EQ(t.GetValue(0, 1), Value::String("Queens"));
}

TEST_F(SqlTest, LeftJoinKeepsUnmatched) {
  Table t = RunOk(
      "SELECT t.pickup_location_id, z.name FROM taxi_table t "
      "LEFT JOIN zones z ON t.pickup_location_id = z.id "
      "ORDER BY t.pickup_location_id");
  EXPECT_EQ(t.num_rows(), 7);
  // pickup_location_id 3 rows have null zone name.
  int64_t nulls = 0;
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    if (t.GetValue(i, 1).is_null()) ++nulls;
  }
  EXPECT_EQ(nulls, 2);
}

TEST_F(SqlTest, JoinWithAggregation) {
  Table t = RunOk(
      "SELECT z.borough, COUNT(*) AS n FROM taxi_table t "
      "JOIN zones z ON t.pickup_location_id = z.id "
      "GROUP BY z.borough");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("Queens"));
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(5));
}

TEST_F(SqlTest, JoinRequiresEquiCondition) {
  auto bad = Run(
      "SELECT * FROM taxi_table t JOIN zones z ON t.fare > 1");
  EXPECT_FALSE(bad.ok());
}

TEST_F(SqlTest, AmbiguousColumnRejected) {
  provider_.AddTable("other_zones", ZoneTable());
  auto bad = Run(
      "SELECT name FROM zones a JOIN other_zones b ON a.id = b.id");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(SqlTest, ScalarFunctions) {
  Table t = RunOk(
      "SELECT LOWER(zone) AS lo, UPPER(zone) AS up, LENGTH(zone) AS n, "
      "ABS(0 - fare) AS a FROM taxi_table WHERE zone = 'SoHo' LIMIT 1");
  EXPECT_EQ(t.GetValue(0, 0), Value::String("soho"));
  EXPECT_EQ(t.GetValue(0, 1), Value::String("SOHO"));
  EXPECT_EQ(t.GetValue(0, 2), Value::Int64(4));
  EXPECT_EQ(t.GetValue(0, 3), Value::Double(22.0));
}

TEST_F(SqlTest, RoundFloorCeil) {
  Table t = RunOk(
      "SELECT ROUND(fare) AS r, FLOOR(fare) AS f, CEIL(fare) AS c "
      "FROM taxi_table WHERE zone = 'LGA' ORDER BY fare LIMIT 1");
  EXPECT_EQ(t.GetValue(0, 0), Value::Double(5.0));
  EXPECT_EQ(t.GetValue(0, 1), Value::Double(5.0));
  EXPECT_EQ(t.GetValue(0, 2), Value::Double(5.0));
  Table t2 = RunOk("SELECT ROUND(8.25) AS r, FLOOR(8.25) AS f, "
                   "CEIL(8.25) AS c FROM taxi_table LIMIT 1");
  EXPECT_EQ(t2.GetValue(0, 0), Value::Double(8.0));
  EXPECT_EQ(t2.GetValue(0, 1), Value::Double(8.0));
  EXPECT_EQ(t2.GetValue(0, 2), Value::Double(9.0));
  EXPECT_FALSE(Run("SELECT ROUND(zone) AS r FROM taxi_table").ok());
}

TEST_F(SqlTest, CaseExpression) {
  Table t = RunOk(
      "SELECT zone, CASE WHEN fare >= 20 THEN 'pricey' WHEN fare >= 10 "
      "THEN 'normal' ELSE 'cheap' END AS bucket FROM taxi_table "
      "ORDER BY fare DESC LIMIT 2");
  EXPECT_EQ(t.GetValue(0, 1), Value::String("pricey"));
}

TEST_F(SqlTest, CastExpression) {
  Table t = RunOk(
      "SELECT CAST(fare AS int64) AS f, CAST(passenger_count AS string) "
      "AS s, CAST('2019-04-01' AS timestamp) AS ts FROM taxi_table "
      "LIMIT 1");
  EXPECT_EQ(t.GetValue(0, 0), Value::Int64(10));
  EXPECT_EQ(t.GetValue(0, 1), Value::String("2"));
  EXPECT_EQ(t.GetValue(0, 2).type(), TypeId::kTimestamp);
}

TEST_F(SqlTest, NullHandlingThreeValuedLogic) {
  Int64Builder a;
  a.Append(1);
  a.AppendNull();
  a.Append(3);
  provider_.AddTable("with_nulls",
                     *Table::Make(Schema({{"a", TypeId::kInt64, true}}),
                                  {a.Finish()}));
  // Null comparisons are unknown -> filtered out.
  EXPECT_EQ(RunOk("SELECT * FROM with_nulls WHERE a > 0").num_rows(), 2);
  EXPECT_EQ(RunOk("SELECT * FROM with_nulls WHERE a IS NULL").num_rows(),
            1);
  EXPECT_EQ(
      RunOk("SELECT * FROM with_nulls WHERE a IS NOT NULL").num_rows(), 2);
  // Aggregates skip nulls; COUNT(col) counts non-null.
  Table agg = RunOk(
      "SELECT COUNT(*) AS all_rows, COUNT(a) AS non_null, SUM(a) AS s "
      "FROM with_nulls");
  EXPECT_EQ(agg.GetValue(0, 0), Value::Int64(3));
  EXPECT_EQ(agg.GetValue(0, 1), Value::Int64(2));
  EXPECT_EQ(agg.GetValue(0, 2), Value::Int64(4));
  // COALESCE picks the first non-null.
  Table c = RunOk("SELECT COALESCE(a, 0 - 1) AS c FROM with_nulls");
  EXPECT_EQ(c.GetValue(1, 0), Value::Int64(-1));
}

TEST_F(SqlTest, DivisionByZeroIsNull) {
  Table t = RunOk("SELECT fare / 0 AS x FROM taxi_table LIMIT 1");
  EXPECT_TRUE(t.GetValue(0, 0).is_null());
}

TEST_F(SqlTest, MissingTableAndColumnErrors) {
  EXPECT_TRUE(Run("SELECT * FROM nope").status().IsNotFound());
  EXPECT_TRUE(
      Run("SELECT missing FROM taxi_table").status().IsNotFound());
  EXPECT_TRUE(
      Run("SELECT * FROM taxi_table WHERE nope = 1").status().IsNotFound());
}

TEST_F(SqlTest, ConstantFolding) {
  QueryOptions opts;
  opts.capture_plans = true;
  auto result = Run("SELECT * FROM taxi_table WHERE fare > 10 + 5", opts);
  ASSERT_TRUE(result.ok());
  // The folded literal appears in the physical plan.
  EXPECT_NE(result->physical_plan.find("fare > 15"), std::string::npos);
  EXPECT_EQ(result->table.num_rows(), 4);
}

TEST_F(SqlTest, PredicatePushdownVisibleInPlan) {
  QueryOptions opts;
  opts.capture_plans = true;
  auto result = Run(
      "SELECT zone FROM taxi_table WHERE pickup_at >= '2019-04-01' AND "
      "fare > 10",
      opts);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->physical_plan.find("pushdown="), std::string::npos);
  EXPECT_NE(result->physical_plan.find("columns="), std::string::npos);
  EXPECT_EQ(result->table.num_rows(), 4);
}

TEST_F(SqlTest, OptimizerOffStillCorrect) {
  QueryOptions off;
  off.optimizer.pushdown_predicates = false;
  off.optimizer.pushdown_projections = false;
  off.optimizer.fold_constants = false;
  auto a = Run("SELECT zone, COUNT(*) AS n FROM taxi_table WHERE fare > 9 "
               "GROUP BY zone ORDER BY n DESC, zone",
               off);
  auto b = Run("SELECT zone, COUNT(*) AS n FROM taxi_table WHERE fare > 9 "
               "GROUP BY zone ORDER BY n DESC, zone");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->table.num_rows(), b->table.num_rows());
  for (int64_t i = 0; i < a->table.num_rows(); ++i) {
    EXPECT_EQ(a->table.GetValue(i, 0), b->table.GetValue(i, 0));
    EXPECT_EQ(a->table.GetValue(i, 1), b->table.GetValue(i, 1));
  }
}

TEST_F(SqlTest, StatsReportScannedRows) {
  auto result = Run("SELECT COUNT(*) AS n FROM taxi_table");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.rows_scanned, 7);
  EXPECT_EQ(result->stats.rows_output, 1);
  EXPECT_GT(result->stats.operators_executed, 0);
}

TEST_F(SqlTest, DerivedTableBasic) {
  Table t = RunOk(
      "SELECT zone, n FROM (SELECT zone, COUNT(*) AS n FROM taxi_table "
      "GROUP BY zone) z WHERE n >= 2 ORDER BY n DESC");
  ASSERT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("JFK"));
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(3));
}

TEST_F(SqlTest, DerivedTableWithOuterAggregate) {
  // Average per-zone fare: aggregate over an aggregate.
  Table t = RunOk(
      "SELECT AVG(zone_total) AS mean_total FROM "
      "(SELECT zone, SUM(fare) AS zone_total FROM taxi_table "
      "GROUP BY zone) per_zone");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_NEAR(t.GetValue(0, 0).double_value(), 108.75 / 3, 1e-9);
}

TEST_F(SqlTest, DerivedTableJoinedToBaseTable) {
  Table t = RunOk(
      "SELECT z.borough, busy.n FROM "
      "(SELECT pickup_location_id AS loc, COUNT(*) AS n FROM taxi_table "
      "GROUP BY pickup_location_id) busy "
      "JOIN zones z ON busy.loc = z.id ORDER BY busy.n DESC");
  ASSERT_EQ(t.num_rows(), 2);  // locations 1 and 2 are in zones
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(3));
}

TEST_F(SqlTest, NestedDerivedTables) {
  Table t = RunOk(
      "SELECT * FROM (SELECT * FROM (SELECT zone FROM taxi_table "
      "WHERE fare > 20) inner_q) outer_q ORDER BY zone");
  EXPECT_EQ(t.num_rows(), 2);
}

TEST_F(SqlTest, DerivedTableRequiresAlias) {
  EXPECT_FALSE(Run("SELECT * FROM (SELECT 1 AS x FROM taxi_table)").ok());
}

TEST_F(SqlTest, DerivedTableReferencesExtracted) {
  auto refs = ExtractTableReferences(
      "SELECT * FROM (SELECT * FROM trips t JOIN zones z ON t.a = z.b) q");
  ASSERT_TRUE(refs.ok());
  EXPECT_EQ(refs->size(), 2u);
  EXPECT_EQ((*refs)[0], "trips");
  EXPECT_EQ((*refs)[1], "zones");
}

TEST_F(SqlTest, UnionAllBasic) {
  Table t = RunOk(
      "SELECT zone FROM taxi_table WHERE fare > 20 "
      "UNION ALL SELECT zone FROM taxi_table WHERE fare < 6");
  EXPECT_EQ(t.num_rows(), 3);  // {30, 22} + {5}
  EXPECT_EQ(t.num_columns(), 1);
  EXPECT_EQ(t.schema().field(0).name, "zone");
}

TEST_F(SqlTest, UnionAllKeepsDuplicates) {
  Table t = RunOk(
      "SELECT zone FROM taxi_table UNION ALL SELECT zone FROM taxi_table");
  EXPECT_EQ(t.num_rows(), 14);
}

TEST_F(SqlTest, UnionAllThreeWayWithAggregates) {
  Table t = RunOk(
      "SELECT 'min' AS stat, MIN(fare) AS v FROM taxi_table "
      "UNION ALL SELECT 'avg' AS stat, AVG(fare) AS v FROM taxi_table "
      "UNION ALL SELECT 'max' AS stat, MAX(fare) AS v FROM taxi_table");
  ASSERT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("min"));
  EXPECT_EQ(t.GetValue(0, 1), Value::Double(5.0));
  EXPECT_EQ(t.GetValue(2, 1), Value::Double(30.0));
}

TEST_F(SqlTest, UnionInsideDerivedTableCanSort) {
  Table t = RunOk(
      "SELECT * FROM (SELECT fare FROM taxi_table WHERE zone = 'JFK' "
      "UNION ALL SELECT fare FROM taxi_table WHERE zone = 'LGA') u "
      "ORDER BY fare DESC LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.GetValue(0, 0), Value::Double(30.0));
  EXPECT_EQ(t.GetValue(1, 0), Value::Double(15.5));
}

TEST_F(SqlTest, UnionErrors) {
  // Arity mismatch.
  EXPECT_FALSE(Run("SELECT zone FROM taxi_table UNION ALL "
                   "SELECT zone, fare FROM taxi_table").ok());
  // Type mismatch by position.
  EXPECT_FALSE(Run("SELECT zone FROM taxi_table UNION ALL "
                   "SELECT fare FROM taxi_table").ok());
  // ORDER BY on a union branch.
  EXPECT_FALSE(Run("SELECT zone FROM taxi_table ORDER BY zone UNION ALL "
                   "SELECT zone FROM taxi_table").ok());
  // Plain UNION (dedup) is not implemented; only UNION ALL.
  EXPECT_FALSE(Run("SELECT zone FROM taxi_table UNION "
                   "SELECT zone FROM taxi_table").ok());
}

TEST_F(SqlTest, SelectDistinct) {
  Table t = RunOk("SELECT DISTINCT zone FROM taxi_table ORDER BY zone");
  ASSERT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("JFK"));
  EXPECT_EQ(t.GetValue(1, 0), Value::String("LGA"));
  EXPECT_EQ(t.GetValue(2, 0), Value::String("SoHo"));
}

TEST_F(SqlTest, SelectDistinctMultiColumn) {
  Table t = RunOk(
      "SELECT DISTINCT pickup_location_id, zone FROM taxi_table");
  // (1,JFK) (2,LGA) (3,SoHo) are the only combinations.
  EXPECT_EQ(t.num_rows(), 3);
}

TEST_F(SqlTest, SelectDistinctWithExpressionAndLimit) {
  Table t = RunOk(
      "SELECT DISTINCT passenger_count % 2 AS parity FROM taxi_table "
      "ORDER BY parity LIMIT 10");
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.GetValue(0, 0), Value::Int64(0));
  EXPECT_EQ(t.GetValue(1, 0), Value::Int64(1));
}

TEST_F(SqlTest, DistinctTreatsNullsAsEqual) {
  Int64Builder a;
  a.AppendNull();
  a.AppendNull();
  a.Append(1);
  provider_.AddTable("nulls2",
                     *Table::Make(Schema({{"a", TypeId::kInt64, true}}),
                                  {a.Finish()}));
  Table t = RunOk("SELECT DISTINCT a FROM nulls2");
  EXPECT_EQ(t.num_rows(), 2);  // one NULL row + one 1 row
}

TEST_F(SqlTest, DistinctOrderByHiddenColumnRejected) {
  auto bad = Run("SELECT DISTINCT zone FROM taxi_table ORDER BY fare");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

// Oracle property test: random simple predicates evaluated by the engine
// must agree with a direct row-by-row evaluation of the same predicate.
TEST_F(SqlTest, RandomPredicateOracle) {
  Table taxi = TaxiTable();
  Rng rng(20230906);
  const char* numeric_cols[] = {"pickup_location_id", "passenger_count",
                                "fare"};
  const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
  for (int trial = 0; trial < 200; ++trial) {
    const char* col = numeric_cols[rng.UniformInt(0, 2)];
    const char* op = ops[rng.UniformInt(0, 5)];
    double lit = rng.Uniform(0, 35);
    std::string sql = StrCat("SELECT * FROM taxi_table WHERE ", col, " ",
                             op, " ", lit);

    // Oracle: direct evaluation over the source rows.
    auto column = *taxi.GetColumnByName(col);
    int64_t expected = 0;
    for (int64_t i = 0; i < taxi.num_rows(); ++i) {
      Value v = column->GetValue(i);
      if (v.is_null()) continue;
      double x = *v.AsDouble();
      bool keep = false;
      std::string_view o(op);
      if (o == "=") keep = x == lit;
      if (o == "!=") keep = x != lit;
      if (o == "<") keep = x < lit;
      if (o == "<=") keep = x <= lit;
      if (o == ">") keep = x > lit;
      if (o == ">=") keep = x >= lit;
      if (keep) ++expected;
    }

    auto result = Run(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    ASSERT_EQ(result->table.num_rows(), expected) << sql;
  }
}

// Oracle property test: GROUP BY sums must equal a direct row loop.
TEST_F(SqlTest, RandomGroupByOracle) {
  Table taxi = TaxiTable();
  Rng rng(99);
  const char* group_cols[] = {"zone", "pickup_location_id",
                              "passenger_count"};
  for (int trial = 0; trial < 60; ++trial) {
    const char* group = group_cols[rng.UniformInt(0, 2)];
    double cutoff = rng.Uniform(0, 35);
    std::string sql =
        StrCat("SELECT ", group, ", COUNT(*) AS n, SUM(fare) AS s FROM "
               "taxi_table WHERE fare > ", cutoff, " GROUP BY ", group);

    // Oracle.
    auto keys = *taxi.GetColumnByName(group);
    auto fares = *taxi.GetColumnByName("fare");
    std::map<std::string, std::pair<int64_t, double>> expected;
    for (int64_t i = 0; i < taxi.num_rows(); ++i) {
      double fare = fares->GetValue(i).double_value();
      if (!(fare > cutoff)) continue;
      auto& slot = expected[keys->GetValue(i).ToString()];
      slot.first += 1;
      slot.second += fare;
    }

    auto result = Run(sql);
    ASSERT_TRUE(result.ok()) << sql;
    ASSERT_EQ(result->table.num_rows(),
              static_cast<int64_t>(expected.size())) << sql;
    for (int64_t r = 0; r < result->table.num_rows(); ++r) {
      std::string key = result->table.GetValue(r, 0).ToString();
      ASSERT_TRUE(expected.count(key) > 0) << sql << " key " << key;
      ASSERT_EQ(result->table.GetValue(r, 1).int64_value(),
                expected[key].first) << sql;
      ASSERT_NEAR(result->table.GetValue(r, 2).double_value(),
                  expected[key].second, 1e-9) << sql;
    }
  }
}

// Oracle property test: random two-conjunct predicates with AND/OR.
TEST_F(SqlTest, RandomBooleanCombinationOracle) {
  Table taxi = TaxiTable();
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    double a = rng.Uniform(0, 35);
    int64_t b = rng.UniformInt(0, 6);
    bool use_and = rng.Bernoulli(0.5);
    std::string sql = StrCat("SELECT COUNT(*) AS n FROM taxi_table WHERE ",
                             "fare > ", a, use_and ? " AND " : " OR ",
                             "passenger_count <= ", b);
    auto fares = *taxi.GetColumnByName("fare");
    auto pax = *taxi.GetColumnByName("passenger_count");
    int64_t expected = 0;
    for (int64_t i = 0; i < taxi.num_rows(); ++i) {
      bool left = fares->GetValue(i).double_value() > static_cast<double>(a);
      bool right = pax->GetValue(i).int64_value() <= b;
      if (use_and ? (left && right) : (left || right)) ++expected;
    }
    auto result = Run(sql);
    ASSERT_TRUE(result.ok()) << sql;
    ASSERT_EQ(result->table.GetValue(0, 0), Value::Int64(expected)) << sql;
  }
}

// Property sweep: WHERE pushdown + projection must agree with a full scan
// across many predicates.
class PushdownEquivalence : public SqlTest,
                            public ::testing::WithParamInterface<
                                const char*> {};

TEST_P(PushdownEquivalence, SameResultWithAndWithoutOptimizer) {
  std::string sql = GetParam();
  QueryOptions off;
  off.optimizer.pushdown_predicates = false;
  off.optimizer.pushdown_filters = false;
  off.optimizer.pushdown_projections = false;
  auto with = RunQuery(sql, provider_, &provider_, {});
  auto without = RunQuery(sql, provider_, &provider_, off);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  ASSERT_EQ(with->table.num_rows(), without->table.num_rows()) << sql;
  for (int64_t r = 0; r < with->table.num_rows(); ++r) {
    for (int c = 0; c < with->table.num_columns(); ++c) {
      Value a = with->table.GetValue(r, c);
      Value b = without->table.GetValue(r, c);
      ASSERT_EQ(a.is_null(), b.is_null()) << sql;
      if (!a.is_null()) {
        ASSERT_EQ(a, b) << sql;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Predicates, PushdownEquivalence,
    ::testing::Values(
        "SELECT * FROM taxi_table WHERE fare > 15 ORDER BY fare",
        "SELECT zone FROM taxi_table WHERE pickup_at >= '2019-04-01' "
        "ORDER BY zone",
        "SELECT zone, SUM(fare) AS s FROM taxi_table WHERE "
        "passenger_count < 5 GROUP BY zone ORDER BY zone",
        "SELECT t.zone FROM taxi_table t JOIN zones z ON "
        "t.pickup_location_id = z.id WHERE z.borough = 'Queens' "
        "ORDER BY t.zone",
        "SELECT * FROM taxi_table WHERE zone = 'JFK' AND fare "
        "BETWEEN 10 AND 40 ORDER BY fare",
        "SELECT pickup_location_id, COUNT(*) AS n FROM taxi_table "
        "GROUP BY pickup_location_id HAVING COUNT(*) > 1 ORDER BY n"));

}  // namespace
}  // namespace bauplan::sql
