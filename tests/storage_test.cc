#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace idebench::storage {
namespace {

TEST(DictionaryTest, InsertionOrderedCodes) {
  Dictionary d;
  EXPECT_EQ(d.GetOrInsert("x"), 0);
  EXPECT_EQ(d.GetOrInsert("y"), 1);
  EXPECT_EQ(d.GetOrInsert("x"), 0);  // idempotent
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.At(0), "x");
  EXPECT_EQ(d.At(1), "y");
  EXPECT_EQ(d.Lookup("y"), 1);
  EXPECT_EQ(d.Lookup("absent"), -1);
}

TEST(ColumnTest, Int64Basics) {
  Column c({"n", DataType::kInt64, AttributeKind::kQuantitative});
  c.AppendInt(5);
  c.AppendInt(-3);
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.ValueAsInt(0), 5);
  EXPECT_DOUBLE_EQ(c.ValueAsDouble(1), -3.0);
  EXPECT_EQ(c.ValueAsString(1), "-3");
  EXPECT_DOUBLE_EQ(c.Min(), -3.0);
  EXPECT_DOUBLE_EQ(c.Max(), 5.0);
}

TEST(ColumnTest, DoubleBasics) {
  Column c({"v", DataType::kDouble, AttributeKind::kQuantitative});
  c.AppendDouble(1.5);
  c.AppendDouble(-0.25);
  EXPECT_DOUBLE_EQ(c.ValueAsDouble(0), 1.5);
  EXPECT_EQ(c.ValueAsInt(1), 0);  // truncation
  EXPECT_DOUBLE_EQ(c.Min(), -0.25);
  EXPECT_DOUBLE_EQ(c.Max(), 1.5);
}

TEST(ColumnTest, StringIsDictionaryEncoded) {
  Column c({"s", DataType::kString, AttributeKind::kQuantitative});
  // String columns are forcibly nominal.
  EXPECT_EQ(c.field().kind, AttributeKind::kNominal);
  c.AppendString("aa");
  c.AppendString("bb");
  c.AppendString("aa");
  EXPECT_EQ(c.size(), 3);
  EXPECT_DOUBLE_EQ(c.ValueAsDouble(0), 0.0);  // code view
  EXPECT_DOUBLE_EQ(c.ValueAsDouble(1), 1.0);
  EXPECT_DOUBLE_EQ(c.ValueAsDouble(2), 0.0);
  EXPECT_EQ(c.ValueAsString(2), "aa");
  EXPECT_EQ(c.dictionary().size(), 2);
}

TEST(ColumnTest, AppendCodeRequiresExistingCode) {
  Column c({"s", DataType::kString, AttributeKind::kNominal});
  c.mutable_dictionary().GetOrInsert("only");
  c.AppendCode(0);
  EXPECT_EQ(c.ValueAsString(0), "only");
}

TEST(ColumnTest, AppendParsed) {
  Column i({"i", DataType::kInt64, AttributeKind::kQuantitative});
  EXPECT_TRUE(i.AppendParsed("42").ok());
  EXPECT_FALSE(i.AppendParsed("xyz").ok());
  Column d({"d", DataType::kDouble, AttributeKind::kQuantitative});
  EXPECT_TRUE(d.AppendParsed("-1.5e2").ok());
  EXPECT_DOUBLE_EQ(d.ValueAsDouble(0), -150.0);
  EXPECT_FALSE(d.AppendParsed("").ok());
  Column s({"s", DataType::kString, AttributeKind::kNominal});
  EXPECT_TRUE(s.AppendParsed("anything").ok());
}

TEST(ColumnTest, AppendFromRemapsDictionary) {
  Column src({"s", DataType::kString, AttributeKind::kNominal});
  src.AppendString("a");
  src.AppendString("b");
  Column dst({"s", DataType::kString, AttributeKind::kNominal});
  dst.AppendString("z");  // code 0 is taken by a different value
  dst.AppendFrom(src, 1);
  EXPECT_EQ(dst.ValueAsString(1), "b");
}

TEST(SchemaTest, FieldLookup) {
  Schema s({{"a", DataType::kInt64, AttributeKind::kQuantitative},
            {"b", DataType::kDouble, AttributeKind::kQuantitative}});
  EXPECT_EQ(s.num_fields(), 2);
  EXPECT_EQ(s.FieldIndex("b"), 1);
  EXPECT_EQ(s.FieldIndex("missing"), -1);
  ASSERT_TRUE(s.FieldByName("a").ok());
  EXPECT_FALSE(s.FieldByName("missing").ok());
}

TEST(SchemaTest, AddFieldRejectsDuplicates) {
  Schema s;
  EXPECT_TRUE(
      s.AddField({"a", DataType::kInt64, AttributeKind::kQuantitative}).ok());
  EXPECT_EQ(
      s.AddField({"a", DataType::kDouble, AttributeKind::kQuantitative})
          .code(),
      StatusCode::kAlreadyExists);
}

TEST(SchemaTest, ToStringListsFields) {
  Schema s({{"x", DataType::kDouble, AttributeKind::kQuantitative}});
  EXPECT_EQ(s.ToString(), "(x: double)");
}

TEST(TableTest, TinyTableShape) {
  Table t = testutil::MakeTinyTable();
  EXPECT_EQ(t.num_rows(), 8);
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_NE(t.ColumnByName("value"), nullptr);
  EXPECT_EQ(t.ColumnByName("nope"), nullptr);
  EXPECT_EQ(t.RowToString(0), "10.000000,a,0");
}

TEST(TableTest, Prefix) {
  const Table a = testutil::MakeTinyTable();
  const auto b = a.Prefix(4);
  EXPECT_EQ(b->name(), a.name());
  EXPECT_EQ(b->num_rows(), 4);
  EXPECT_TRUE(b->Validate().ok());
  for (int64_t r = 0; r < 4; ++r) EXPECT_EQ(b->RowToString(r), a.RowToString(r));
  EXPECT_DOUBLE_EQ(b->column(0).ValueAsDouble(3), 40.0);
  EXPECT_EQ(b->column(1).ValueAsString(3), "b");
  EXPECT_EQ(a.Prefix(0)->num_rows(), 0);
  EXPECT_EQ(a.Prefix(a.num_rows())->RowToString(7), a.RowToString(7));
}

TEST(CatalogTest, FirstTableIsFact) {
  auto catalog = testutil::MakeTinyCatalog();
  EXPECT_NE(catalog->fact_table(), nullptr);
  EXPECT_EQ(catalog->fact_table()->name(), "tiny");
  EXPECT_FALSE(catalog->is_normalized());
  EXPECT_EQ(catalog->nominal_rows(), 8);
}

TEST(CatalogTest, NominalRowsOverride) {
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000);
  EXPECT_EQ(catalog->nominal_rows(), 1'000'000);
}

TEST(CatalogTest, RejectsDuplicateTables) {
  Catalog c;
  auto t = std::make_shared<Table>(testutil::MakeTinyTable());
  EXPECT_TRUE(c.AddTable(t).ok());
  EXPECT_EQ(c.AddTable(t).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(c.AddTable(nullptr).ok());
}

TEST(CatalogTest, ForeignKeyValidation) {
  Catalog c;
  auto fact = std::make_shared<Table>(testutil::MakeTinyTable());
  ASSERT_TRUE(c.AddTable(fact).ok());
  Schema dim_schema({{"flag", DataType::kInt64, AttributeKind::kNominal},
                     {"label", DataType::kString, AttributeKind::kNominal}});
  auto dim = std::make_shared<Table>("flags", dim_schema);
  dim->mutable_column(0).AppendInt(0);
  dim->mutable_column(1).AppendString("off");
  dim->mutable_column(0).AppendInt(1);
  dim->mutable_column(1).AppendString("on");
  ASSERT_TRUE(c.AddTable(dim).ok());

  EXPECT_TRUE(c.AddForeignKey({"flag", "flags", "flag"}).ok());
  EXPECT_TRUE(c.is_normalized());
  EXPECT_NE(c.FindForeignKey("flags"), nullptr);
  EXPECT_EQ(c.FindForeignKey("absent"), nullptr);

  EXPECT_FALSE(c.AddForeignKey({"missing", "flags", "flag"}).ok());
  EXPECT_FALSE(c.AddForeignKey({"flag", "missing", "flag"}).ok());
  EXPECT_FALSE(c.AddForeignKey({"flag", "flags", "missing"}).ok());
}

TEST(ZoneMapTest, MaintainedPerBlockAcrossAppendPaths) {
  Column c({"v", DataType::kInt64, AttributeKind::kQuantitative});
  // Two full blocks plus a partial third, values descending so per-block
  // bounds differ from the whole-column cache.
  const int64_t rows = 2 * kZoneMapBlockRows + 100;
  for (int64_t i = 0; i < rows; ++i) c.AppendInt(rows - i);
  const auto& zones = c.zone_map();
  ASSERT_EQ(zones.size(), 3u);
  EXPECT_DOUBLE_EQ(zones[0].max, static_cast<double>(rows));
  EXPECT_DOUBLE_EQ(zones[0].min,
                   static_cast<double>(rows - kZoneMapBlockRows + 1));
  EXPECT_DOUBLE_EQ(zones[1].max,
                   static_cast<double>(rows - kZoneMapBlockRows));
  EXPECT_DOUBLE_EQ(zones[2].min, 1.0);
  EXPECT_DOUBLE_EQ(zones[2].max, 100.0);
  EXPECT_DOUBLE_EQ(c.Min(), 1.0);
  EXPECT_DOUBLE_EQ(c.Max(), static_cast<double>(rows));
}

TEST(ZoneMapTest, NaNValuesCountedAndNeverWidenBounds) {
  Column c({"v", DataType::kDouble, AttributeKind::kQuantitative});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN first: the zone bounds must still pick up the later finite
  // values (a NaN-first block must not become unprunable-forever, nor
  // hide real values).
  c.AppendDouble(nan);
  c.AppendDouble(3.0);
  c.AppendDouble(nan);
  c.AppendDouble(7.0);
  const auto& zones = c.zone_map();
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_DOUBLE_EQ(zones[0].min, 3.0);
  EXPECT_DOUBLE_EQ(zones[0].max, 7.0);
  EXPECT_EQ(zones[0].nan_count, 2);
}

TEST(ZoneMapTest, AllNaNBlockKeepsEmptySentinels) {
  Column c({"v", DataType::kDouble, AttributeKind::kQuantitative});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  c.AppendDouble(nan);
  c.AppendDouble(nan);
  const auto& zones = c.zone_map();
  ASSERT_EQ(zones.size(), 1u);
  // min > max marks "no finite values": every range test on the block
  // fails, which pruning reads as provably-no-match (NaN rows match
  // nothing).
  EXPECT_GT(zones[0].min, zones[0].max);
  EXPECT_EQ(zones[0].nan_count, 2);
}

TEST(ZoneMapTest, AppendCodePathMaintainsZoneMapAndMinMax) {
  // Regression: the pre-encoded-dictionary AppendCode path must update
  // the zone map and min/max cache exactly like AppendString — a stale
  // map here would let pruning drop matching rows.
  Column c({"s", DataType::kString, AttributeKind::kNominal});
  c.mutable_dictionary().GetOrInsert("a");  // code 0
  c.mutable_dictionary().GetOrInsert("b");  // code 1
  c.mutable_dictionary().GetOrInsert("c");  // code 2
  const int64_t rows = kZoneMapBlockRows + 50;
  for (int64_t i = 0; i < rows; ++i) c.AppendCode(i < kZoneMapBlockRows ? 1 : 2);
  const auto& zones = c.zone_map();
  ASSERT_EQ(zones.size(), 2u);
  EXPECT_DOUBLE_EQ(zones[0].min, 1.0);
  EXPECT_DOUBLE_EQ(zones[0].max, 1.0);
  EXPECT_DOUBLE_EQ(zones[1].min, 2.0);
  EXPECT_DOUBLE_EQ(zones[1].max, 2.0);
  EXPECT_DOUBLE_EQ(c.Min(), 1.0);
  EXPECT_DOUBLE_EQ(c.Max(), 2.0);
  // Mixed-path parity: AppendString continues the same map.
  c.AppendString("a");
  EXPECT_DOUBLE_EQ(c.zone_map()[1].min, 0.0);
  EXPECT_DOUBLE_EQ(c.Min(), 0.0);
}

TEST(CatalogTest, TableForColumnSearchesFactFirst) {
  Catalog c;
  auto fact = std::make_shared<Table>(testutil::MakeTinyTable());
  ASSERT_TRUE(c.AddTable(fact).ok());
  Schema dim_schema({{"other", DataType::kInt64, AttributeKind::kNominal}});
  ASSERT_TRUE(c.AddTable(std::make_shared<Table>("dim", dim_schema)).ok());

  auto fact_col = c.TableForColumn("value");
  ASSERT_TRUE(fact_col.ok());
  EXPECT_EQ((*fact_col)->name(), "tiny");
  auto dim_col = c.TableForColumn("other");
  ASSERT_TRUE(dim_col.ok());
  EXPECT_EQ((*dim_col)->name(), "dim");
  EXPECT_FALSE(c.TableForColumn("nowhere").ok());
}

}  // namespace
}  // namespace idebench::storage
