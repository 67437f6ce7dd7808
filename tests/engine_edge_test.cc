// Edge-case coverage for the SQL engine and the lakehouse-backed source:
// empty inputs through every operator, sort stability, expression corner
// cases, and the overlay semantics the fused pipeline executor relies on.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "columnar/builder.h"
#include "common/clock.h"
#include "core/lakehouse_source.h"
#include "sql/engine.h"
#include "storage/object_store.h"
#include "table/table_ops.h"
#include "workload/taxi_gen.h"

namespace bauplan {
namespace {

using columnar::DoubleBuilder;
using columnar::Int64Builder;
using columnar::Schema;
using columnar::StringBuilder;
using columnar::Table;
using columnar::TypeId;
using columnar::Value;

class EngineEdgeTest : public ::testing::Test {
 protected:
  EngineEdgeTest() {
    // An empty table and a tiny one.
    provider_.AddTable(
        "empty", *Table::Make(Schema({{"a", TypeId::kInt64, true},
                                      {"b", TypeId::kString, true}}),
                              {Int64Builder().Finish(),
                               StringBuilder().Finish()}));
    Int64Builder a;
    StringBuilder b;
    for (int i = 0; i < 4; ++i) {
      a.Append(i % 2);  // duplicate sort keys: 0 1 0 1
      b.Append(std::string(1, static_cast<char>('w' + i)));  // w x y z
    }
    provider_.AddTable("tiny",
                       *Table::Make(Schema({{"a", TypeId::kInt64, true},
                                            {"b", TypeId::kString, true}}),
                                    {a.Finish(), b.Finish()}));
  }

  Result<sql::QueryResult> Run(std::string_view sql) {
    return sql::RunQuery(sql, provider_, &provider_);
  }

  sql::MemoryTableProvider provider_;
};

TEST_F(EngineEdgeTest, EveryOperatorHandlesEmptyInput) {
  EXPECT_EQ(Run("SELECT * FROM empty")->table.num_rows(), 0);
  EXPECT_EQ(Run("SELECT * FROM empty WHERE a > 1")->table.num_rows(), 0);
  EXPECT_EQ(Run("SELECT a + 1 AS x FROM empty")->table.num_rows(), 0);
  EXPECT_EQ(Run("SELECT a FROM empty ORDER BY a DESC")->table.num_rows(),
            0);
  EXPECT_EQ(Run("SELECT DISTINCT a FROM empty")->table.num_rows(), 0);
  EXPECT_EQ(Run("SELECT a FROM empty LIMIT 5")->table.num_rows(), 0);
  EXPECT_EQ(Run("SELECT a, COUNT(*) AS n FROM empty GROUP BY a")
                ->table.num_rows(),
            0);
  EXPECT_EQ(Run("SELECT e.a FROM empty e JOIN tiny t ON e.a = t.a")
                ->table.num_rows(),
            0);
  // LEFT JOIN with empty right keeps left rows, nulls on the right.
  auto left = Run("SELECT t.b, e.b FROM tiny t LEFT JOIN empty e "
                  "ON t.a = e.a");
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->table.num_rows(), 4);
  EXPECT_TRUE(left->table.GetValue(0, 1).is_null());
  // UNION ALL with one empty side.
  EXPECT_EQ(Run("SELECT a FROM tiny UNION ALL SELECT a FROM empty")
                ->table.num_rows(),
            4);
}

TEST_F(EngineEdgeTest, SortIsStable) {
  // Equal keys keep their input order: w,y (a=0) then x,z (a=1).
  auto result = Run("SELECT b FROM tiny ORDER BY a");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.GetValue(0, 0), Value::String("w"));
  EXPECT_EQ(result->table.GetValue(1, 0), Value::String("y"));
  EXPECT_EQ(result->table.GetValue(2, 0), Value::String("x"));
  EXPECT_EQ(result->table.GetValue(3, 0), Value::String("z"));
}

TEST_F(EngineEdgeTest, NullsSortFirstAscLastDesc) {
  Int64Builder a;
  a.Append(2);
  a.AppendNull();
  a.Append(1);
  provider_.AddTable("with_null",
                     *Table::Make(Schema({{"a", TypeId::kInt64, true}}),
                                  {a.Finish()}));
  auto asc = Run("SELECT a FROM with_null ORDER BY a");
  EXPECT_TRUE(asc->table.GetValue(0, 0).is_null());
  auto desc = Run("SELECT a FROM with_null ORDER BY a DESC");
  EXPECT_TRUE(desc->table.GetValue(2, 0).is_null());
}

TEST_F(EngineEdgeTest, ExpressionCornerCases) {
  // Deep nesting, unary minus stacking, CASE without ELSE -> null.
  auto r = Run("SELECT -(-(a + 1)) AS x, "
               "CASE WHEN a > 100 THEN 1 END AS c FROM tiny LIMIT 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.GetValue(0, 0), Value::Int64(1));
  EXPECT_TRUE(r->table.GetValue(0, 1).is_null());
  // Integer overflow-ish arithmetic still evaluates (wraps, no crash).
  EXPECT_TRUE(Run("SELECT a * 1000000000 * 1000000000 AS big FROM tiny")
                  .ok());
  // LIKE on non-strings is an error, not a crash.
  EXPECT_FALSE(Run("SELECT * FROM tiny WHERE a LIKE 'x%'").ok());
  // NOT of non-boolean is an error.
  EXPECT_FALSE(Run("SELECT * FROM tiny WHERE NOT a").ok());
}

TEST_F(EngineEdgeTest, LimitZeroAndHugeLimit) {
  EXPECT_EQ(Run("SELECT * FROM tiny LIMIT 0")->table.num_rows(), 0);
  EXPECT_EQ(Run("SELECT * FROM tiny LIMIT 9999999")->table.num_rows(), 4);
}

// ----------------------------------------------------- LakehouseSource

class LakehouseSourceTest : public ::testing::Test {
 protected:
  LakehouseSourceTest() : ops_(&store_, &clock_) {
    auto catalog = catalog::Catalog::Open(&store_, &clock_);
    catalog_ = std::make_unique<catalog::Catalog>(*catalog);
    workload::TaxiGenOptions gen;
    gen.rows = 500;
    auto taxi = workload::GenerateTaxiTable(gen);
    std::string key = *ops_.CreateTable("taxi_table", taxi->schema());
    key = *ops_.Append(key, *taxi);
    catalog::TableChanges changes;
    changes.puts["taxi_table"] = key;
    (void)catalog_->CommitChanges("main", "seed", "t", changes);
  }

  storage::MemoryObjectStore store_;
  SimClock clock_{1000};
  table::TableOps ops_;
  std::unique_ptr<catalog::Catalog> catalog_;
};

TEST_F(LakehouseSourceTest, ResolvesSchemaAndScans) {
  core::LakehouseSource source(catalog_.get(), &ops_, "main");
  auto schema = source.GetTableSchema("taxi_table");
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->HasField("fare"));
  auto table = source.ScanTable("taxi_table", {"fare", "zone"}, {});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_columns(), 2);
  EXPECT_EQ(table->num_rows(), 500);
  EXPECT_TRUE(
      source.GetTableSchema("nope").status().IsNotFound());
}

TEST_F(LakehouseSourceTest, OverlayShadowsCatalog) {
  core::LakehouseSource source(catalog_.get(), &ops_, "main");
  Int64Builder n;
  n.Append(7);
  source.AddOverlayTable(
      "taxi_table", *Table::Make(Schema({{"n", TypeId::kInt64, false}}),
                                 {n.Finish()}));
  // The overlay wins for both schema and scan (the fused executor's
  // in-memory intermediates shadow materialized tables).
  auto schema = source.GetTableSchema("taxi_table");
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->HasField("n"));
  auto table = source.ScanTable("taxi_table", {}, {});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1);
}

TEST_F(LakehouseSourceTest, UnknownRefErrors) {
  core::LakehouseSource source(catalog_.get(), &ops_, "no_such_branch");
  EXPECT_FALSE(source.GetTableSchema("taxi_table").ok());
  EXPECT_FALSE(source.ScanTable("taxi_table", {}, {}).ok());
}

/// Counts GETs of catalog objects (refs and commits); passes all
/// requests through to the wrapped store.
class CatalogGetCounter : public storage::ObjectStore {
 public:
  explicit CatalogGetCounter(storage::ObjectStore* base) : base_(base) {}

  Status Put(const std::string& key, Bytes data) override {
    return base_->Put(key, std::move(data));
  }
  Result<Bytes> Get(const std::string& key) const override {
    if (key.rfind("catalog/", 0) == 0) ++catalog_gets_;
    return base_->Get(key);
  }
  Result<uint64_t> Head(const std::string& key) const override {
    return base_->Head(key);
  }
  Status Delete(const std::string& key) override {
    return base_->Delete(key);
  }
  Result<std::vector<storage::ObjectMeta>> List(
      const std::string& prefix) const override {
    return base_->List(prefix);
  }

  int64_t catalog_gets() const { return catalog_gets_; }

 private:
  storage::ObjectStore* base_;
  mutable int64_t catalog_gets_ = 0;
};

TEST_F(LakehouseSourceTest, ManyLookupsCostOneResolution) {
  CatalogGetCounter counted(&store_);
  auto catalog = catalog::Catalog::Open(&counted, &clock_);
  ASSERT_TRUE(catalog.ok());
  // One resolution of a branch: its ref plus its commit.
  int64_t before = counted.catalog_gets();
  ASSERT_TRUE(catalog->GetTables("main").ok());
  const int64_t one_resolution = counted.catalog_gets() - before;
  EXPECT_EQ(one_resolution, 2);

  before = counted.catalog_gets();
  core::LakehouseSource source(&*catalog, &ops_, "main");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(source.GetTableSchema("taxi_table").ok());
    ASSERT_TRUE(source.ScanTable("taxi_table", {"fare"}, {}).ok());
  }
  EXPECT_EQ(counted.catalog_gets() - before, one_resolution);
}

TEST_F(LakehouseSourceTest, SourceKeepsReadingItsFirstSnapshot) {
  core::LakehouseSource source(catalog_.get(), &ops_, "main");
  ASSERT_TRUE(source.GetTableSchema("taxi_table").ok());

  // Advance main: taxi_table now points at a one-column, one-row table.
  Int64Builder n;
  n.Append(7);
  auto replacement =
      *Table::Make(Schema({{"n", TypeId::kInt64, false}}), {n.Finish()});
  std::string key =
      *ops_.CreateTable("taxi_table_replacement", replacement.schema());
  key = *ops_.Append(key, replacement);
  catalog::TableChanges changes;
  changes.puts["taxi_table"] = key;
  ASSERT_TRUE(catalog_->CommitChanges("main", "replace", "t", changes).ok());

  // The source still reads the commit it pinned on its first lookup.
  auto schema = source.GetTableSchema("taxi_table");
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->HasField("fare"));
  auto table = source.ScanTable("taxi_table", {}, {});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 500);

  // A new source sees the advanced branch.
  core::LakehouseSource fresh(catalog_.get(), &ops_, "main");
  auto fresh_table = fresh.ScanTable("taxi_table", {}, {});
  ASSERT_TRUE(fresh_table.ok());
  EXPECT_EQ(fresh_table->num_rows(), 1);
}

TEST_F(LakehouseSourceTest, PrePinnedSourceNeverReadsTheCatalog) {
  CatalogGetCounter counted(&store_);
  auto catalog = catalog::Catalog::Open(&counted, &clock_);
  ASSERT_TRUE(catalog.ok());
  core::LakehouseSource source(&ops_, catalog->Pin("main"));
  int64_t before = counted.catalog_gets();
  ASSERT_TRUE(source.GetTableSchema("taxi_table").ok());
  ASSERT_TRUE(source.ScanTable("taxi_table", {}, {}).ok());
  EXPECT_TRUE(source.GetTableSchema("nope").status().IsNotFound());
  EXPECT_EQ(counted.catalog_gets(), before);

  // A pin of an unknown ref carries its error to every lookup.
  core::LakehouseSource unknown(&ops_, catalog->Pin("no_such_branch"));
  EXPECT_TRUE(unknown.GetTableSchema("taxi_table").status().IsNotFound());
  EXPECT_TRUE(unknown.ScanTable("taxi_table", {}, {}).status().IsNotFound());
}

}  // namespace
}  // namespace bauplan
