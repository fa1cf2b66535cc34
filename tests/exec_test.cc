#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/flights_seed.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "exec/join_index.h"
#include "tests/test_util.h"

namespace idebench::exec {
namespace {

using query::AggregateSpec;
using query::AggregateType;
using query::BinDimension;
using query::BinningMode;
using query::QuerySpec;

/// A two-table star catalog:
/// fact(value double, dim_id int64), dims(dim_id, label string).
std::shared_ptr<storage::Catalog> MakeStarCatalog() {
  storage::Schema fact_schema(
      {{"value", storage::DataType::kDouble,
        storage::AttributeKind::kQuantitative},
       {"dim_id", storage::DataType::kInt64, storage::AttributeKind::kNominal}});
  auto fact = std::make_shared<storage::Table>("fact", fact_schema);
  // dim_id cycles 0,1,2; one fact row (id 9) dangles.
  for (int i = 0; i < 9; ++i) {
    fact->mutable_column(0).AppendDouble(i * 10.0);
    fact->mutable_column(1).AppendInt(i % 3);
  }
  fact->mutable_column(0).AppendDouble(90.0);
  fact->mutable_column(1).AppendInt(99);  // no matching dimension row

  storage::Schema dim_schema(
      {{"dim_id", storage::DataType::kInt64, storage::AttributeKind::kNominal},
       {"label", storage::DataType::kString, storage::AttributeKind::kNominal}});
  auto dim = std::make_shared<storage::Table>("dims", dim_schema);
  const char* labels[] = {"red", "green", "blue"};
  for (int i = 0; i < 3; ++i) {
    dim->mutable_column(0).AppendInt(i);
    dim->mutable_column(1).AppendString(labels[i]);
  }

  auto catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(catalog->AddTable(fact).ok());
  IDB_CHECK(catalog->AddTable(dim).ok());
  IDB_CHECK(catalog->AddForeignKey({"dim_id", "dims", "dim_id"}).ok());
  return catalog;
}

TEST(JoinIndexTest, MaterializedMapsAllRows) {
  auto catalog = MakeStarCatalog();
  auto index = JoinIndex::Build(*catalog, catalog->foreign_keys()[0]);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->DimRow(0), 0);
  EXPECT_EQ(index->DimRow(1), 1);
  EXPECT_EQ(index->DimRow(2), 2);
  EXPECT_EQ(index->DimRow(3), 0);
  EXPECT_EQ(index->DimRow(9), -1);  // dangling key
  EXPECT_EQ(index->miss_count(), 1);
}

TEST(JoinIndexTest, UnknownDimensionFails) {
  auto catalog = MakeStarCatalog();
  storage::ForeignKey bad{"dim_id", "missing", "dim_id"};
  EXPECT_FALSE(JoinIndex::Build(*catalog, bad).ok());
}

TEST(BoundQueryTest, RequiredJoinsDetectsDimensionColumns) {
  auto catalog = MakeStarCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "label";  // lives in the dimension
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  AggregateSpec agg;
  agg.type = AggregateType::kCount;
  spec.aggregates = {agg};

  auto dims = BoundQuery::RequiredJoins(spec, *catalog);
  ASSERT_TRUE(dims.ok());
  EXPECT_EQ(*dims, (std::vector<std::string>{"dims"}));

  // Fact-only query needs no joins.
  QuerySpec fact_spec;
  fact_spec.viz_name = "v2";
  BinDimension vd;
  vd.column = "value";
  vd.mode = BinningMode::kFixedCount;
  fact_spec.bins = {vd};
  fact_spec.aggregates = {agg};
  auto no_dims = BoundQuery::RequiredJoins(fact_spec, *catalog);
  ASSERT_TRUE(no_dims.ok());
  EXPECT_TRUE(no_dims->empty());

  // Unknown column is an error.
  QuerySpec bad;
  bad.viz_name = "v3";
  BinDimension bd;
  bd.column = "ghost";
  bad.bins = {bd};
  bad.aggregates = {agg};
  EXPECT_FALSE(BoundQuery::RequiredJoins(bad, *catalog).ok());
}

TEST(BoundQueryTest, BindFailsWithoutNeededJoin) {
  auto catalog = MakeStarCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "label";
  d.mode = BinningMode::kNominal;
  ASSERT_TRUE(d.Resolve(*catalog->GetTable("dims")).ok());
  d.resolved = true;
  spec.bins = {d};
  AggregateSpec agg;
  agg.type = AggregateType::kCount;
  spec.aggregates = {agg};
  EXPECT_FALSE(BoundQuery::Bind(spec, *catalog, {}).ok());
}

TEST(BoundQueryTest, JoinedGroupByCountsInnerJoinRows) {
  auto catalog = MakeStarCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "label";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  AggregateSpec agg;
  agg.type = AggregateType::kCount;
  spec.aggregates = {agg};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());

  auto join = JoinIndex::Build(*catalog, catalog->foreign_keys()[0]);
  ASSERT_TRUE(join.ok());
  auto bound = BoundQuery::Bind(spec, *catalog, {&*join});
  ASSERT_TRUE(bound.ok());

  BinnedAggregator aggregator(&*bound);
  aggregator.Process(FeedOrder::Scan(), 0, 10);
  query::QueryResult result = aggregator.ExactResult();
  // 9 matched rows over 3 labels; the dangling row is dropped.
  ASSERT_EQ(result.bins.size(), 3u);
  for (const auto& [key, bin] : result.bins) {
    EXPECT_DOUBLE_EQ(bin.values[0].estimate, 3.0);
  }
}

TEST(AggregatorTest, ExactCountByGroup) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound);
  agg.Process(FeedOrder::Scan(), 0, 8);
  EXPECT_EQ(agg.rows_seen(), 8);
  EXPECT_EQ(agg.rows_matched(), 8);

  query::QueryResult r = agg.ExactResult();
  EXPECT_TRUE(r.exact);
  ASSERT_EQ(r.bins.size(), 2u);
  EXPECT_DOUBLE_EQ(r.bins.at(0).values[0].estimate, 4.0);  // "a"
  EXPECT_DOUBLE_EQ(r.bins.at(1).values[0].estimate, 4.0);  // "b"
}

TEST(AggregatorTest, ExactAllAggregateTypes) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  for (AggregateType t : {AggregateType::kCount, AggregateType::kSum,
                          AggregateType::kAvg, AggregateType::kMin,
                          AggregateType::kMax}) {
    AggregateSpec a;
    a.type = t;
    if (t != AggregateType::kCount) a.column = "value";
    spec.aggregates.push_back(a);
  }
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound);
  agg.Process(FeedOrder::Scan(), 0, 8);
  query::QueryResult r = agg.ExactResult();
  // Group "a" rows: 10, 30, 50, 70.
  const auto& a_bin = r.bins.at(0);
  EXPECT_DOUBLE_EQ(a_bin.values[0].estimate, 4.0);    // count
  EXPECT_DOUBLE_EQ(a_bin.values[1].estimate, 160.0);  // sum
  EXPECT_DOUBLE_EQ(a_bin.values[2].estimate, 40.0);   // avg
  EXPECT_DOUBLE_EQ(a_bin.values[3].estimate, 10.0);   // min
  EXPECT_DOUBLE_EQ(a_bin.values[4].estimate, 70.0);   // max
}

TEST(AggregatorTest, FilterIsApplied) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  expr::Predicate p;
  p.column = "flag";
  p.op = expr::CompareOp::kEq;
  p.value = 1.0;
  spec.filter.And(p);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound);
  agg.Process(FeedOrder::Scan(), 0, 8);
  EXPECT_EQ(agg.rows_matched(), 4);
  query::QueryResult r = agg.ExactResult();
  EXPECT_DOUBLE_EQ(r.bins.at(0).values[0].estimate, 2.0);
  EXPECT_DOUBLE_EQ(r.bins.at(1).values[0].estimate, 2.0);
}

TEST(AggregatorTest, UniformSampleScalesCounts) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound);
  // Feed the first 4 rows as a "sample" of the 8-row population.
  agg.Process(FeedOrder::Scan(), 0, 4);
  query::QueryResult r = agg.EstimateFromUniformSample(8, 1.96);
  EXPECT_FALSE(r.exact);
  EXPECT_DOUBLE_EQ(r.progress, 0.5);
  // 2 "a" rows in the sample -> estimate 2 * (8/4) = 4.
  EXPECT_DOUBLE_EQ(r.bins.at(0).values[0].estimate, 4.0);
  EXPECT_GT(r.bins.at(0).values[0].margin, 0.0);
}

TEST(AggregatorTest, UniformSampleCompleteIsExact) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound);
  agg.Process(FeedOrder::Scan(), 0, 8);
  query::QueryResult r = agg.EstimateFromUniformSample(8, 1.96);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.progress, 1.0);
  EXPECT_DOUBLE_EQ(r.bins.at(0).values[0].estimate, 4.0);
  EXPECT_DOUBLE_EQ(r.bins.at(0).values[0].margin, 0.0);
}

TEST(AggregatorTest, MarginShrinksWithSampleSize) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator small(&*bound);
  small.Process(FeedOrder::Scan(), 0, 2);
  BinnedAggregator large(&*bound);
  large.Process(FeedOrder::Scan(), 0, 6);
  const double margin_small =
      small.EstimateFromUniformSample(8, 1.96).bins.at(0).values[0].margin;
  const double margin_large =
      large.EstimateFromUniformSample(8, 1.96).bins.at(0).values[0].margin;
  EXPECT_GT(margin_small, margin_large);
}

TEST(AggregatorTest, WeightedSampleHorvitzThompson) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound);
  // One row per group with weight 4 each: HT count estimate = 4 per bin.
  agg.ProcessRowWeighted(0, 4.0);  // group a
  agg.ProcessRowWeighted(1, 4.0);  // group b
  query::QueryResult r = agg.EstimateFromWeightedSample(1.96);
  EXPECT_DOUBLE_EQ(r.bins.at(0).values[0].estimate, 4.0);
  EXPECT_DOUBLE_EQ(r.bins.at(1).values[0].estimate, 4.0);
  EXPECT_GT(r.bins.at(0).values[0].margin, 0.0);
}

TEST(AggregatorTest, WeightedAvgIsRatioEstimate) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec spec = testutil::MakeAvgValueSpec(*catalog, 1);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound);
  agg.ProcessRowWeighted(0, 2.0);  // value 10
  agg.ProcessRowWeighted(7, 6.0);  // value 80
  query::QueryResult r = agg.EstimateFromWeightedSample(1.96);
  // Weighted mean: (2*10 + 6*80) / 8 = 62.5.
  ASSERT_EQ(r.bins.size(), 1u);
  EXPECT_DOUBLE_EQ(r.bins.begin()->second.values[0].estimate, 62.5);
}

TEST(AggregatorTest, ResetClearsState) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound);
  agg.Process(FeedOrder::Scan(), 0, 8);
  agg.Reset();
  EXPECT_EQ(agg.rows_seen(), 0);
  EXPECT_TRUE(agg.ExactResult().bins.empty());
}

/// Property sweep: the scaled count estimate is unbiased over many random
/// sample prefixes (statistical sanity of the estimator).
class UniformEstimatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(UniformEstimatorProperty, CountEstimateNearTruthOnAverage) {
  const int sample_rows = GetParam();
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  idebench::Rng rng(static_cast<uint64_t>(sample_rows));
  double total_estimate = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    BinnedAggregator agg(&*bound);
    for (int i = 0; i < sample_rows; ++i) {
      agg.ProcessRow(rng.UniformInt(0, 7));
    }
    auto r = agg.EstimateFromUniformSample(8, 1.96);
    auto it = r.bins.find(0);
    if (it != r.bins.end()) total_estimate += it->second.values[0].estimate;
  }
  // True count of group "a" is 4; the with-replacement trials average
  // should land close.
  EXPECT_NEAR(total_estimate / trials, 4.0, 0.5);
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, UniformEstimatorProperty,
                         ::testing::Values(2, 4, 6));

/// The key-enumeration oracle for the walk.  Over all L keys of a walk
/// through L rows, every row lies in exactly k of the L windows of k
/// positions, so the mean over keys of the uniform-sample COUNT and SUM
/// estimates equals the exact answer — exactly, with no tolerance, when
/// the scale L/k is an integer.  The parameter is the number of
/// published epochs of 200 rows the walk spans after its base segment.
/// With epochs the oracle fails below k = L: the walk takes every base
/// position before any epoch's, so no window of k positions samples an
/// ingested row while the estimate scales as if it did.  It holds once
/// positions are apportioned across segments (ROADMAP item "Sample every
/// epoch"); until then only 0 is instantiated.
class WalkKeyOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(WalkKeyOracleTest, MeanOverEveryKeyIsExact) {
  constexpr int64_t kRows = 1000;
  constexpr int64_t kEpochRows = 200;
  datagen::FlightsSeedConfig config;
  config.rows = kRows;
  config.seed = 17;
  auto flights = datagen::GenerateFlightsSeed(config);
  ASSERT_TRUE(flights.ok());
  storage::Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(std::make_shared<storage::Table>(
                      std::move(flights).MoveValueUnsafe()))
                  .ok());
  const int epochs = GetParam();
  Rng rng(17);
  aqp::ShuffledIndex index(kRows - epochs * kEpochRows);
  while (index.size() < kRows) index.ExtendTo(index.size() + kEpochRows, &rng);

  for (const size_t dims : {1, 2}) {
    QuerySpec spec;
    spec.viz_name = "oracle";
    for (const char* column : {"carrier", "day_of_week"}) {
      if (spec.bins.size() == dims) break;
      BinDimension d;
      d.column = column;
      d.mode = BinningMode::kNominal;
      spec.bins.push_back(d);
    }
    AggregateSpec count;
    count.type = AggregateType::kCount;
    AggregateSpec sum;
    sum.type = AggregateType::kSum;
    sum.column = "day_of_week";
    spec.aggregates = {count, sum};
    ASSERT_TRUE(spec.ResolveBins(catalog).ok());
    auto bound = BoundQuery::Bind(spec, catalog);
    ASSERT_TRUE(bound.ok());
    BinnedAggregator agg(&*bound);
    agg.Process(FeedOrder::Scan(), 0, kRows);
    const query::QueryResult truth = agg.ExactResult();

    for (const int64_t k : {100, 250, 1000}) {
      std::map<int64_t, std::vector<double>> sums;  // bin -> per aggregate
      for (int64_t key = 0; key < kRows; ++key) {
        agg.Reset();
        agg.Process(FeedOrder::Walk(&index, key), 0, k);
        for (const auto& [bin, value] :
             agg.EstimateFromUniformSample(kRows, 1.96).bins) {
          std::vector<double>& into = sums[bin];
          into.resize(value.values.size());
          for (size_t a = 0; a < into.size(); ++a) {
            into[a] += value.values[a].estimate;
          }
        }
      }
      EXPECT_EQ(sums.size(), truth.bins.size()) << dims << "-D, k " << k;
      int mismatched = 0;
      for (const auto& [bin, value] : truth.bins) {
        const std::vector<double>& total = sums[bin];
        for (size_t a = 0; a < value.values.size(); ++a) {
          if (total.size() != value.values.size() ||
              total[a] / static_cast<double>(kRows) !=
                  value.values[a].estimate) {
            ++mismatched;
            break;
          }
        }
      }
      EXPECT_EQ(mismatched, 0) << dims << "-D, k " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Epochs, WalkKeyOracleTest, ::testing::Values(0));

}  // namespace
}  // namespace idebench::exec
