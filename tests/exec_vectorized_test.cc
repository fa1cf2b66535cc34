/// \file exec_vectorized_test.cc
/// Differential tests: the vectorized batch pipeline (exec/vectorized.h +
/// dense bin table) must produce results identical to the scalar
/// reference path — bins, estimates, margins, rows_seen/rows_matched —
/// across aggregate types, filter shapes, joined dimension columns,
/// weighted samples, and the dense↔hash bin-table boundary, plus
/// end-to-end through all four engines.

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aqp/confidence.h"
#include "aqp/sampler.h"
#include "common/random.h"
#include "engines/blocking_engine.h"
#include "engines/online_engine.h"
#include "engines/progressive_engine.h"
#include "engines/stratified_engine.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "exec/join_index.h"
#include "exec/vectorized.h"
#include "tests/test_util.h"

namespace idebench::exec {
namespace {

using query::AggregateSpec;
using query::AggregateType;
using query::BinDimension;
using query::BinningMode;
using query::QuerySpec;

constexpr int64_t kRows = 4000;

/// Star catalog with enough rows and value shapes to exercise every
/// kernel: NaN aggregate inputs, dangling foreign keys, string/int64/
/// double columns, negative values.
std::shared_ptr<storage::Catalog> MakeWideCatalog() {
  storage::Schema fact_schema({
      {"value", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
      {"amount", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
      {"group", storage::DataType::kString, storage::AttributeKind::kNominal},
      {"code", storage::DataType::kInt64, storage::AttributeKind::kNominal},
      {"dim_id", storage::DataType::kInt64, storage::AttributeKind::kNominal},
  });
  auto fact = std::make_shared<storage::Table>("fact", fact_schema);
  const char* groups[] = {"a", "b", "c", "d", "e", "f"};
  Rng rng(7);
  for (int64_t i = 0; i < kRows; ++i) {
    fact->mutable_column(0).AppendDouble(rng.Uniform(-50.0, 150.0));
    // ~5% NaN aggregate inputs.
    fact->mutable_column(1).AppendDouble(
        rng.Bernoulli(0.05) ? std::numeric_limits<double>::quiet_NaN()
                            : rng.Uniform(0.0, 1000.0));
    fact->mutable_column(2).AppendString(groups[rng.UniformInt(0, 5)]);
    fact->mutable_column(3).AppendInt(rng.UniformInt(0, 12));
    // ~10% dangling keys (no dimension row 99).
    fact->mutable_column(4).AppendInt(
        rng.Bernoulli(0.1) ? 99 : rng.UniformInt(0, 9));
  }

  storage::Schema dim_schema({
      {"dim_id", storage::DataType::kInt64, storage::AttributeKind::kNominal},
      {"dlabel", storage::DataType::kString, storage::AttributeKind::kNominal},
      {"dval", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
  });
  auto dim = std::make_shared<storage::Table>("dims", dim_schema);
  const char* dlabels[] = {"north", "south", "east", "west"};
  for (int64_t i = 0; i < 10; ++i) {
    dim->mutable_column(0).AppendInt(i);
    dim->mutable_column(1).AppendString(dlabels[i % 4]);
    dim->mutable_column(2).AppendDouble(static_cast<double>(i) * 2.5 - 3.0);
  }

  auto catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(catalog->AddTable(fact).ok());
  IDB_CHECK(catalog->AddTable(dim).ok());
  IDB_CHECK(catalog->AddForeignKey({"dim_id", "dims", "dim_id"}).ok());
  return catalog;
}

AggregateSpec Agg(AggregateType type, const std::string& column = "") {
  AggregateSpec a;
  a.type = type;
  a.column = column;
  return a;
}

/// All five aggregate types over `column` plus COUNT.
std::vector<AggregateSpec> AllAggs(const std::string& column) {
  return {Agg(AggregateType::kCount), Agg(AggregateType::kSum, column),
          Agg(AggregateType::kAvg, column), Agg(AggregateType::kMin, column),
          Agg(AggregateType::kMax, column)};
}

void ExpectNearRel(double a, double b, double tol, const char* what,
                   int64_t key, size_t agg) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_LE(std::fabs(a - b), tol * scale)
      << what << " differs in bin " << key << " agg " << agg << ": " << a
      << " vs " << b;
}

/// Asserts two results agree: identical bin keys, estimates and margins
/// within `tol` (relative), identical metadata.
void ExpectResultsMatch(const query::QueryResult& a,
                        const query::QueryResult& b, double tol = 0.0) {
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_DOUBLE_EQ(a.progress, b.progress);
  EXPECT_EQ(a.rows_processed, b.rows_processed);
  ASSERT_EQ(a.bins.size(), b.bins.size());
  for (const auto& [key, bin] : a.bins) {
    auto it = b.bins.find(key);
    ASSERT_NE(it, b.bins.end()) << "bin " << key << " missing";
    ASSERT_EQ(bin.values.size(), it->second.values.size());
    for (size_t i = 0; i < bin.values.size(); ++i) {
      if (tol == 0.0) {
        EXPECT_EQ(bin.values[i].estimate, it->second.values[i].estimate)
            << "estimate, bin " << key << " agg " << i;
        EXPECT_EQ(bin.values[i].margin, it->second.values[i].margin)
            << "margin, bin " << key << " agg " << i;
      } else {
        ExpectNearRel(bin.values[i].estimate, it->second.values[i].estimate,
                      tol, "estimate", key, i);
        ExpectNearRel(bin.values[i].margin, it->second.values[i].margin, tol,
                      "margin", key, i);
      }
    }
  }
}

/// Binds `spec`, feeds the same row/weight sequence through a forced-
/// scalar aggregator and through ProcessBatch on a vectorized one, and
/// checks every snapshot type agrees.  `rows` may repeat / be shuffled.
void RunDifferential(const QuerySpec& spec,
                     const std::shared_ptr<storage::Catalog>& catalog,
                     const std::vector<int64_t>& rows, double weight,
                     BinnedAggregatorOptions vec_options = {},
                     bool expect_dense = true) {
  ASSERT_FALSE(rows.empty()) << "an empty feed agrees with any other";
  std::vector<const JoinIndex*> joins;
  std::unique_ptr<JoinIndex> join;
  auto required = BoundQuery::RequiredJoins(spec, *catalog);
  ASSERT_TRUE(required.ok());
  if (!required->empty()) {
    auto built = JoinIndex::Build(*catalog, catalog->foreign_keys()[0]);
    ASSERT_TRUE(built.ok());
    join = std::make_unique<JoinIndex>(std::move(built).MoveValueUnsafe());
    joins.push_back(join.get());
  }
  auto bound = BoundQuery::Bind(spec, *catalog, joins);
  ASSERT_TRUE(bound.ok());

  BinnedAggregatorOptions scalar_options;
  scalar_options.enable_vectorized = false;
  BinnedAggregator scalar(&*bound, scalar_options);
  BinnedAggregator vectorized(&*bound, vec_options);
  EXPECT_TRUE(vectorized.uses_vectorized());
  EXPECT_EQ(vectorized.uses_dense_bins(),
            expect_dense && vec_options.enable_dense_bins);

  for (int64_t row : rows) scalar.ProcessRowWeighted(row, weight);
  vectorized.ProcessBatch(rows.data(), static_cast<int64_t>(rows.size()),
                          weight);

  EXPECT_EQ(scalar.rows_seen(), vectorized.rows_seen());
  EXPECT_EQ(scalar.rows_matched(), vectorized.rows_matched());
  // Bit-identical: both paths apply the same accumulator updates in the
  // same per-bin order.
  ExpectResultsMatch(scalar.ExactResult(), vectorized.ExactResult());
  ExpectResultsMatch(scalar.EstimateFromUniformSample(2 * kRows, 1.96),
                     vectorized.EstimateFromUniformSample(2 * kRows, 1.96));
  ExpectResultsMatch(scalar.EstimateFromWeightedSample(1.96),
                     vectorized.EstimateFromWeightedSample(1.96));
}

std::vector<int64_t> SequentialRows() {
  std::vector<int64_t> rows(kRows);
  for (int64_t i = 0; i < kRows; ++i) rows[static_cast<size_t>(i)] = i;
  return rows;
}

std::vector<int64_t> ShuffledRows(uint64_t seed) {
  std::vector<int64_t> rows = SequentialRows();
  Rng rng(seed);
  rng.Shuffle(&rows);
  return rows;
}

// --- Aggregator-level differentials ----------------------------------------

TEST(VectorizedDifferentialTest, NominalGroupAllAggregateTypes) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = AllAggs("value");
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  RunDifferential(spec, catalog, SequentialRows(), 1.0);
  RunDifferential(spec, catalog, ShuffledRows(11), 1.0);
}

TEST(VectorizedDifferentialTest, RangeInEqFiltersWithNaNInputs) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "value";
  d.mode = BinningMode::kFixedCount;
  d.requested_bins = 16;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kSum, "amount"),
                     Agg(AggregateType::kAvg, "amount")};

  expr::Predicate range;
  range.column = "value";
  range.op = expr::CompareOp::kRange;
  range.lo = -20.0;
  range.hi = 120.0;
  spec.filter.And(range);

  expr::Predicate in_set;
  in_set.column = "code";
  in_set.op = expr::CompareOp::kIn;
  in_set.set_values = {1.0, 3.0, 5.0, 7.0, 11.0};
  spec.filter.And(in_set);

  expr::Predicate eq;
  eq.column = "group";
  eq.op = expr::CompareOp::kNeq;
  eq.value = 2.0;  // dictionary code of "c"
  spec.filter.And(eq);

  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  RunDifferential(spec, catalog, SequentialRows(), 1.0);
  RunDifferential(spec, catalog, ShuffledRows(13), 1.0);
}

TEST(VectorizedDifferentialTest, OrderingOpsAndFixedWidthBins) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "value";
  d.mode = BinningMode::kFixedWidth;
  d.width = 13.0;
  d.origin = 0.0;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kMax, "amount")};
  for (auto op : {expr::CompareOp::kGe, expr::CompareOp::kLt}) {
    expr::Predicate p;
    p.column = "amount";  // has NaNs: they must never match
    p.op = op;
    p.value = op == expr::CompareOp::kGe ? 50.0 : 900.0;
    spec.filter.And(p);
  }
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  RunDifferential(spec, catalog, SequentialRows(), 1.0);
}

/// Dedicated IN-set kernel coverage (the range kernels have their own
/// SIMD-specialized cases above): set shapes, types, joined columns, and
/// NaN inputs, each differentially against the scalar reference.
TEST(VectorizedDifferentialTest, InSetKernelShapes) {
  auto catalog = MakeWideCatalog();
  QuerySpec base;
  base.viz_name = "v";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  base.bins = {d};
  base.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kSum, "value")};

  const auto run_with = [&](expr::Predicate in_set) {
    QuerySpec spec = base;
    spec.filter.And(std::move(in_set));
    ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
    RunDifferential(spec, catalog, SequentialRows(), 1.0);
    RunDifferential(spec, catalog, ShuffledRows(31), 1.0);
  };

  expr::Predicate in_i64;  // int64 fact column
  in_i64.column = "code";
  in_i64.op = expr::CompareOp::kIn;
  in_i64.set_values = {0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0};
  run_with(in_i64);

  expr::Predicate in_single;  // single-element set == equality
  in_single.column = "code";
  in_single.op = expr::CompareOp::kIn;
  in_single.set_values = {5.0};
  run_with(in_single);

  expr::Predicate in_none;  // values absent from the data: empty result
  in_none.column = "code";
  in_none.op = expr::CompareOp::kIn;
  in_none.set_values = {-1.0, 99.0};
  run_with(in_none);

  expr::Predicate in_dict;  // dictionary codes of a string column
  in_dict.column = "group";
  in_dict.op = expr::CompareOp::kIn;
  in_dict.set_values = {0.0, 3.0, 5.0};
  run_with(in_dict);

  expr::Predicate in_f64;  // double column with ~5% NaN inputs
  in_f64.column = "amount";
  in_f64.op = expr::CompareOp::kIn;
  in_f64.set_values = {100.0, 250.5, 999.0};
  run_with(in_f64);

  expr::Predicate in_join;  // dimension column reached through the join
  in_join.column = "dval";
  in_join.op = expr::CompareOp::kIn;
  in_join.set_values = {-3.0, 2.0, 9.5};
  run_with(in_join);
}

/// Dedicated equality/inequality kernel coverage across column types,
/// joined columns, and values that cannot match.
TEST(VectorizedDifferentialTest, EqualityKernelShapes) {
  auto catalog = MakeWideCatalog();
  QuerySpec base;
  base.viz_name = "v";
  BinDimension d;
  d.column = "code";
  d.mode = BinningMode::kNominal;
  base.bins = {d};
  base.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kAvg, "amount")};

  const auto run_with = [&](const std::string& column, expr::CompareOp op,
                            double value) {
    QuerySpec spec = base;
    expr::Predicate p;
    p.column = column;
    p.op = op;
    p.value = value;
    spec.filter.And(p);
    ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
    RunDifferential(spec, catalog, SequentialRows(), 1.0);
    RunDifferential(spec, catalog, ShuffledRows(37), 1.0);
  };

  run_with("code", expr::CompareOp::kEq, 7.0);     // int64 fact column
  run_with("code", expr::CompareOp::kNeq, 7.0);
  run_with("group", expr::CompareOp::kEq, 1.0);    // string dictionary code
  run_with("group", expr::CompareOp::kNeq, 4.0);
  run_with("value", expr::CompareOp::kEq, 12.5);   // double: exact compare
  run_with("amount", expr::CompareOp::kNeq, 0.0);  // NaN never matches
  run_with("code", expr::CompareOp::kEq, -5.0);    // no row matches
  run_with("code", expr::CompareOp::kEq, 6.5);     // fractional vs int64
  run_with("dlabel", expr::CompareOp::kEq, 2.0);   // joined dictionary code
  run_with("dval", expr::CompareOp::kNeq, 2.0);    // joined double
}

TEST(VectorizedDifferentialTest, TwoDimensionalBinning) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d1;
  d1.column = "value";
  d1.mode = BinningMode::kFixedCount;
  d1.requested_bins = 12;
  BinDimension d2;
  d2.column = "code";
  d2.mode = BinningMode::kNominal;
  spec.bins = {d1, d2};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kSum, "amount")};
  expr::Predicate p;
  p.column = "amount";
  p.op = expr::CompareOp::kRange;
  p.lo = 100.0;
  p.hi = 800.0;
  spec.filter.And(p);
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  RunDifferential(spec, catalog, SequentialRows(), 1.0);
  RunDifferential(spec, catalog, ShuffledRows(17), 1.0);
}

TEST(VectorizedDifferentialTest, JoinedDimensionColumns) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "dlabel";  // reached through the join, with dangling keys
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kAvg, "dval"),
                     Agg(AggregateType::kSum, "value")};
  expr::Predicate fact_pred;
  fact_pred.column = "value";
  fact_pred.op = expr::CompareOp::kGe;
  fact_pred.value = 0.0;
  spec.filter.And(fact_pred);
  expr::Predicate dim_pred;
  dim_pred.column = "dval";  // joined filter column
  dim_pred.op = expr::CompareOp::kRange;
  dim_pred.lo = -10.0;
  dim_pred.hi = 18.0;
  spec.filter.And(dim_pred);
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  RunDifferential(spec, catalog, SequentialRows(), 1.0);
  RunDifferential(spec, catalog, ShuffledRows(19), 1.0);
}

TEST(VectorizedDifferentialTest, WeightedSamples) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = AllAggs("amount");
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  for (double weight : {1.0, 4.0, 117.5}) {
    RunDifferential(spec, catalog, ShuffledRows(23), weight);
  }
}

TEST(VectorizedDifferentialTest, DenseAndHashBinTablesAgree) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "value";
  d.mode = BinningMode::kFixedCount;
  d.requested_bins = 64;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kSum, "value")};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());

  // Default options: key space 64 -> dense table.
  RunDifferential(spec, catalog, SequentialRows(), 1.0);
  // Dense disabled: vectorized kernels + hash table.
  BinnedAggregatorOptions no_dense;
  no_dense.enable_dense_bins = false;
  RunDifferential(spec, catalog, SequentialRows(), 1.0, no_dense);
  // Key space just over the configured limit: transparent hash fallback.
  BinnedAggregatorOptions tiny_limit;
  tiny_limit.dense_key_limit = 63;
  RunDifferential(spec, catalog, SequentialRows(), 1.0, tiny_limit,
                  /*expect_dense=*/false);
  // Accumulator budget exceeded (64 keys * 2 aggs > 100): hash fallback.
  BinnedAggregatorOptions tiny_accums;
  tiny_accums.dense_accum_limit = 100;
  RunDifferential(spec, catalog, SequentialRows(), 1.0, tiny_accums,
                  /*expect_dense=*/false);
}

TEST(VectorizedDifferentialTest, MixedScalarAndBatchFeedsAgree) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kSum, "value")};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregatorOptions scalar_options;
  scalar_options.enable_vectorized = false;
  BinnedAggregator scalar(&*bound, scalar_options);
  BinnedAggregator mixed(&*bound);

  const std::vector<int64_t> rows = ShuffledRows(29);
  // First half row-at-a-time, second half batched: both stores must
  // accumulate into the same bins.
  for (int64_t i = 0; i < kRows / 2; ++i) {
    scalar.ProcessRow(rows[static_cast<size_t>(i)]);
    mixed.ProcessRow(rows[static_cast<size_t>(i)]);
  }
  for (int64_t row : std::vector<int64_t>(rows.begin() + kRows / 2,
                                          rows.end())) {
    scalar.ProcessRow(row);
  }
  mixed.ProcessBatch(rows.data() + kRows / 2, kRows - kRows / 2);
  EXPECT_EQ(scalar.rows_matched(), mixed.rows_matched());
  ExpectResultsMatch(scalar.ExactResult(), mixed.ExactResult());
}

TEST(VectorizedDifferentialTest, ResetClearsDenseTable) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount)};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound);
  ASSERT_TRUE(agg.uses_dense_bins());
  agg.Process(FeedOrder::Scan(), 0, kRows);
  EXPECT_GT(agg.rows_matched(), 0);
  agg.Reset();
  EXPECT_EQ(agg.rows_seen(), 0);
  EXPECT_TRUE(agg.ExactResult().bins.empty());
  agg.Process(FeedOrder::Scan(), 0, 10);
  EXPECT_EQ(agg.rows_seen(), 10);
}

// --- Engine-level differentials --------------------------------------------

/// Engine harness: runs `spec` to completion on `engine`.
query::QueryResult RunEngineToCompletion(engines::Engine* engine,
                                         const QuerySpec& spec) {
  auto handle = engine->Submit(spec);
  IDB_CHECK(handle.ok());
  for (int i = 0; i < 10'000 && !engine->IsDone(*handle); ++i) {
    engine->RunFor(*handle, 60'000'000'000LL);
  }
  IDB_CHECK(engine->IsDone(*handle));
  auto result = engine->PollResult(*handle);
  IDB_CHECK(result.ok());
  return *result;
}

QuerySpec CountSumByGroupSpec(const storage::Catalog& catalog) {
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount)};
  IDB_CHECK(spec.ResolveBins(catalog).ok());
  return spec;
}

TEST(VectorizedEngineDifferentialTest, BlockingEngineMatchesScalarScan) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec = CountSumByGroupSpec(*catalog);
  spec.aggregates.push_back(Agg(AggregateType::kSum, "value"));
  spec.aggregates.push_back(Agg(AggregateType::kAvg, "amount"));

  engines::BlockingEngine engine;
  ASSERT_TRUE(engine.Prepare(catalog).ok());
  query::QueryResult result = RunEngineToCompletion(&engine, spec);

  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregatorOptions scalar_options;
  scalar_options.enable_vectorized = false;
  BinnedAggregator scalar(&*bound, scalar_options);
  scalar.Process(FeedOrder::Scan(), 0, kRows);
  query::QueryResult expected = scalar.ExactResult();
  expected.available = true;
  // Identical feed order -> bit-identical accumulators.
  ExpectResultsMatch(expected, result);
}

TEST(VectorizedEngineDifferentialTest, ProgressiveEngineCompleteWalkIsExact) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec = CountSumByGroupSpec(*catalog);
  spec.aggregates.push_back(Agg(AggregateType::kSum, "value"));

  engines::ProgressiveEngine engine;
  ASSERT_TRUE(engine.Prepare(catalog).ok());
  query::QueryResult result = RunEngineToCompletion(&engine, spec);
  EXPECT_TRUE(result.exact);

  // A complete walk touches every row exactly once, so the estimate
  // collapses to the exact answer; the walk order differs from the scan
  // order, so sums may differ in the last ulps (within 1e-9 relative).
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregatorOptions scalar_options;
  scalar_options.enable_vectorized = false;
  BinnedAggregator scalar(&*bound, scalar_options);
  scalar.Process(FeedOrder::Scan(), 0, kRows);
  query::QueryResult expected =
      scalar.EstimateFromUniformSample(kRows, aqp::ZScoreForConfidence(0.95));
  ASSERT_EQ(expected.bins.size(), result.bins.size());
  for (const auto& [key, bin] : expected.bins) {
    auto it = result.bins.find(key);
    ASSERT_NE(it, result.bins.end());
    for (size_t i = 0; i < bin.values.size(); ++i) {
      ExpectNearRel(bin.values[i].estimate, it->second.values[i].estimate,
                    1e-9, "estimate", key, i);
      EXPECT_EQ(it->second.values[i].margin, 0.0);
    }
  }
}

TEST(VectorizedEngineDifferentialTest, OnlineEngineCompleteWalkIsExact) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec = CountSumByGroupSpec(*catalog);  // COUNT: supported online

  engines::OnlineEngine engine;
  ASSERT_TRUE(engine.Prepare(catalog).ok());
  query::QueryResult result = RunEngineToCompletion(&engine, spec);
  EXPECT_TRUE(result.exact);

  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregatorOptions scalar_options;
  scalar_options.enable_vectorized = false;
  BinnedAggregator scalar(&*bound, scalar_options);
  scalar.Process(FeedOrder::Scan(), 0, kRows);
  query::QueryResult expected = scalar.ExactResult();
  expected.available = true;
  // COUNT accumulators are integers: exact equality even across orders.
  ExpectResultsMatch(expected, result);
}

TEST(VectorizedEngineDifferentialTest, StratifiedEngineMatchesScalarSample) {
  // The stratified engine needs a de-normalized catalog.
  auto catalog = std::make_shared<storage::Catalog>();
  auto fact = std::make_shared<storage::Table>(testutil::MakeTinyTable());
  ASSERT_TRUE(catalog->AddTable(fact).ok());

  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kSum, "value"),
                     Agg(AggregateType::kAvg, "value")};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());

  engines::StratifiedEngineConfig config;
  config.stratify_by = "group";
  config.sampling_rate = 0.5;
  config.min_rows_per_stratum = 2;
  engines::StratifiedEngine engine(config);
  ASSERT_TRUE(engine.Prepare(catalog).ok());
  query::QueryResult result = RunEngineToCompletion(&engine, spec);

  // Feed the engine's own sample through the scalar reference.
  const aqp::StratifiedSample& sample = engine.sample();
  ASSERT_GT(sample.size(), 0);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregatorOptions scalar_options;
  scalar_options.enable_vectorized = false;
  BinnedAggregator scalar(&*bound, scalar_options);
  for (int64_t i = 0; i < sample.size(); ++i) {
    scalar.ProcessRowWeighted(sample.rows[static_cast<size_t>(i)],
                              sample.weights[static_cast<size_t>(i)]);
  }
  query::QueryResult expected = scalar.EstimateFromWeightedSample(
      aqp::ZScoreForConfidence(aqp::kConfidenceLevel));
  ASSERT_EQ(expected.bins.size(), result.bins.size());
  for (const auto& [key, bin] : expected.bins) {
    auto it = result.bins.find(key);
    ASSERT_NE(it, result.bins.end());
    ASSERT_EQ(bin.values.size(), it->second.values.size());
    for (size_t i = 0; i < bin.values.size(); ++i) {
      EXPECT_EQ(bin.values[i].estimate, it->second.values[i].estimate)
          << "bin " << key << " agg " << i;
      EXPECT_EQ(bin.values[i].margin, it->second.values[i].margin)
          << "bin " << key << " agg " << i;
    }
  }
}

// --- Satellite regression: join index + min/max cache ----------------------

TEST(JoinIndexVectorizedTest, FlatMappingMatchesDimRow) {
  auto catalog = MakeWideCatalog();
  auto index = JoinIndex::Build(*catalog, catalog->foreign_keys()[0]);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->mapping_size(), kRows);
  EXPECT_GT(index->miss_count(), 0);  // dangling keys exist
  for (int64_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(index->mapping_data()[r], index->DimRow(r));
  }
}

TEST(JoinIndexVectorizedTest, FractionalDoubleKeysRejected) {
  storage::Schema fact_schema(
      {{"fk", storage::DataType::kDouble,
        storage::AttributeKind::kQuantitative}});
  auto fact = std::make_shared<storage::Table>("fact", fact_schema);
  fact->mutable_column(0).AppendDouble(1.25);  // fractional key

  storage::Schema dim_schema(
      {{"pk", storage::DataType::kDouble,
        storage::AttributeKind::kQuantitative}});
  auto dim = std::make_shared<storage::Table>("dims", dim_schema);
  dim->mutable_column(0).AppendDouble(1.0);  // integral double: fine

  auto catalog = std::make_shared<storage::Catalog>();
  ASSERT_TRUE(catalog->AddTable(fact).ok());
  ASSERT_TRUE(catalog->AddTable(dim).ok());
  ASSERT_TRUE(catalog->AddForeignKey({"fk", "dims", "pk"}).ok());

  auto built = JoinIndex::Build(*catalog, catalog->foreign_keys()[0]);
  EXPECT_FALSE(built.ok()) << "fractional double key must be rejected";

  // Integral double keys build fine and join exactly.
  fact->mutable_column(0).AppendDouble(1.0);
  auto catalog2 = std::make_shared<storage::Catalog>();
  auto fact2 = std::make_shared<storage::Table>("fact", fact_schema);
  fact2->mutable_column(0).AppendDouble(1.0);
  fact2->mutable_column(0).AppendDouble(7.0);  // dangling
  ASSERT_TRUE(catalog2->AddTable(fact2).ok());
  ASSERT_TRUE(catalog2->AddTable(dim).ok());
  ASSERT_TRUE(catalog2->AddForeignKey({"fk", "dims", "pk"}).ok());
  auto ok = JoinIndex::Build(*catalog2, catalog2->foreign_keys()[0]);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->DimRow(0), 0);
  EXPECT_EQ(ok->DimRow(1), -1);
}

TEST(ColumnMinMaxCacheTest, MaintainedAcrossAppends) {
  storage::Column col({"x", storage::DataType::kInt64,
                       storage::AttributeKind::kQuantitative});
  EXPECT_DOUBLE_EQ(col.Min(), 0.0);  // empty
  col.AppendInt(5);
  EXPECT_DOUBLE_EQ(col.Min(), 5.0);
  EXPECT_DOUBLE_EQ(col.Max(), 5.0);
  col.AppendInt(-3);
  EXPECT_DOUBLE_EQ(col.Min(), -3.0);  // cache tracks the append
  EXPECT_DOUBLE_EQ(col.Max(), 5.0);
  col.AppendInt(11);
  EXPECT_DOUBLE_EQ(col.Max(), 11.0);
  // Repeated reads hit the cache (same values).
  EXPECT_DOUBLE_EQ(col.Min(), -3.0);
  EXPECT_DOUBLE_EQ(col.Max(), 11.0);
}

}  // namespace
}  // namespace idebench::exec
