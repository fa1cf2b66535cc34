#include <gtest/gtest.h>

#include "engines/blocking_engine.h"
#include "engines/cost.h"
#include "engines/engine_base.h"
#include "engines/frontend_engine.h"
#include "engines/online_engine.h"
#include "engines/progressive_engine.h"
#include "engines/registry.h"
#include "engines/stratified_engine.h"
#include "tests/test_util.h"

namespace idebench::engines {
namespace {

using query::AggregateSpec;
using query::AggregateType;
using query::QuerySpec;

/// A tiny catalog that *represents* 1 M nominal rows (8 actual), so the
/// virtual cost model is exercised with tractable numbers.
std::shared_ptr<const storage::Catalog> MakeNominalCatalog(
    int64_t nominal = 1'000'000) {
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(nominal);
  return catalog;
}

TEST(CostTest, ComplexityMultiplierGrowsWithShape) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec simple = testutil::MakeCountByGroupSpec(*catalog);
  CostFactors f;
  const double base = ComplexityMultiplier(simple, 0, f);
  EXPECT_DOUBLE_EQ(base, 1.0);

  QuerySpec with_avg = testutil::MakeAvgValueSpec(*catalog);
  EXPECT_GT(ComplexityMultiplier(with_avg, 0, f), 1.0);

  QuerySpec filtered = simple;
  expr::Predicate p;
  p.column = "value";
  p.op = expr::CompareOp::kGe;
  p.value = 0;
  filtered.filter.And(p);
  EXPECT_GT(ComplexityMultiplier(filtered, 0, f),
            ComplexityMultiplier(simple, 0, f));

  EXPECT_GT(ComplexityMultiplier(simple, 1, f),
            ComplexityMultiplier(simple, 0, f));
}

TEST(QuerySignatureTest, CanonicalAcrossPredicateOrder) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec a = testutil::MakeCountByGroupSpec(*catalog);
  QuerySpec b = a;
  expr::Predicate p1;
  p1.column = "value";
  p1.op = expr::CompareOp::kGe;
  p1.value = 10;
  expr::Predicate p2;
  p2.column = "flag";
  p2.op = expr::CompareOp::kEq;
  p2.value = 1;
  a.filter.And(p1);
  a.filter.And(p2);
  b.filter.And(p2);
  b.filter.And(p1);
  EXPECT_EQ(a.Signature(), b.Signature());

  // Duplicate predicates collapse.
  QuerySpec c = a;
  c.filter.And(p1);
  EXPECT_EQ(c.Signature(), a.Signature());

  // Different filters differ.
  QuerySpec d = testutil::MakeCountByGroupSpec(*catalog);
  EXPECT_NE(d.Signature(), a.Signature());
}

// --------------------------------------------------------------------
// Blocking engine
// --------------------------------------------------------------------

TEST(BlockingEngineTest, NoResultBeforeCompletion) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 1000.0;  // 1 M nominal rows -> 1 s
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto prep = engine.Prepare(MakeNominalCatalog());
  ASSERT_TRUE(prep.ok());
  EXPECT_GT(*prep, 0);

  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());

  // Grant half the needed time: still blocked.
  engine.RunFor(*handle, 500'000);
  EXPECT_FALSE(engine.IsDone(*handle));
  auto partial = engine.PollResult(*handle);
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->available);
  EXPECT_GT(partial->progress, 0.3);

  // Grant the rest: exact result.
  engine.RunFor(*handle, 600'000);
  EXPECT_TRUE(engine.IsDone(*handle));
  auto result = engine.PollResult(*handle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->available);
  EXPECT_TRUE(result->exact);
  EXPECT_DOUBLE_EQ(result->bins.at(0).values[0].estimate, 4.0);
  EXPECT_DOUBLE_EQ(result->bins.at(1).values[0].estimate, 4.0);
}

TEST(BlockingEngineTest, RunForConsumesAtMostBudget) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 1000.0;
  BlockingEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());
  const Micros consumed = engine.RunFor(*handle, 100'000);
  EXPECT_LE(consumed, 100'000);
  EXPECT_GT(consumed, 0);
}

TEST(BlockingEngineTest, OverheadPaidBeforeRows) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 1000.0;
  config.query_overhead_us = 50'000;
  BlockingEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());
  // A budget below the overhead cannot advance the scan.
  EXPECT_EQ(engine.RunFor(*handle, 30'000), 30'000);
  auto result = engine.PollResult(*handle);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->progress, 0.0);
}

TEST(BlockingEngineTest, CancelReleasesHandle) {
  BlockingEngine engine;
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());
  engine.Cancel(*handle);
  EXPECT_FALSE(engine.PollResult(*handle).ok());
  EXPECT_FALSE(engine.IsDone(*handle));
}

TEST(BlockingEngineTest, SubmitBeforePrepareFails) {
  BlockingEngine engine;
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  EXPECT_FALSE(engine.Submit(spec).ok());
}

TEST(BlockingEngineTest, PrepareTimeScalesWithNominalRows) {
  BlockingEngine small;
  auto prep_small = small.Prepare(MakeNominalCatalog(1'000'000));
  BlockingEngine large;
  auto prep_large = large.Prepare(MakeNominalCatalog(10'000'000));
  ASSERT_TRUE(prep_small.ok());
  ASSERT_TRUE(prep_large.ok());
  EXPECT_NEAR(static_cast<double>(*prep_large) /
                  static_cast<double>(*prep_small),
              10.0, 0.5);
}

// --------------------------------------------------------------------
// Online engine (XDB-like)
// --------------------------------------------------------------------

TEST(OnlineEngineTest, SupportsOnlinePolicy) {
  auto catalog = testutil::MakeTinyCatalog();
  QuerySpec count = testutil::MakeCountByGroupSpec(*catalog);
  EXPECT_TRUE(OnlineEngine::SupportsOnline(count));

  QuerySpec sum = count;
  sum.aggregates[0].type = AggregateType::kSum;
  sum.aggregates[0].column = "value";
  EXPECT_TRUE(OnlineEngine::SupportsOnline(sum));

  QuerySpec avg = testutil::MakeAvgValueSpec(*catalog);
  EXPECT_FALSE(OnlineEngine::SupportsOnline(avg));  // AVG not online

  QuerySpec multi = count;
  AggregateSpec second;
  second.type = AggregateType::kSum;
  second.column = "value";
  multi.aggregates.push_back(second);
  EXPECT_FALSE(OnlineEngine::SupportsOnline(multi));  // multi-agg not online
}

TEST(OnlineEngineTest, OnlineQueryYieldsIntermediateAtReportInterval) {
  OnlineEngineConfig config;
  config.sample_us_per_row = 10'000.0;  // 100 rows/s: 8 rows = 80 ms... slow
  config.query_overhead_us = 0;
  config.report_interval_us = 20'000;
  OnlineEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());

  // 25 ms buys 2 sampled rows; past the 20 ms report interval.
  engine.RunFor(*handle, 25'000);
  EXPECT_FALSE(engine.IsDone(*handle));
  auto result = engine.PollResult(*handle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->available);
  EXPECT_FALSE(result->exact);
  EXPECT_GT(result->rows_processed, 0);
}

TEST(OnlineEngineTest, NoIntermediateBeforeFirstInterval) {
  OnlineEngineConfig config;
  config.sample_us_per_row = 1'000.0;
  config.query_overhead_us = 0;
  config.report_interval_us = 500'000;  // 0.5 s
  OnlineEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());
  engine.RunFor(*handle, 3'000);  // 3 rows of work, < interval
  auto result = engine.PollResult(*handle);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->available);
}

TEST(OnlineEngineTest, FallbackBlocksUntilFullScan) {
  OnlineEngineConfig config;
  config.fallback_scan_ns_per_row = 1000.0;  // 1 M nominal -> 1 s
  config.query_overhead_us = 0;
  OnlineEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec avg = testutil::MakeAvgValueSpec(*catalog);  // not online
  auto handle = engine.Submit(avg);
  ASSERT_TRUE(handle.ok());

  engine.RunFor(*handle, 200'000);
  auto pending = engine.PollResult(*handle);
  ASSERT_TRUE(pending.ok());
  EXPECT_FALSE(pending->available);  // blocking fallback, not finished

  engine.RunFor(*handle, 2'000'000);
  EXPECT_TRUE(engine.IsDone(*handle));
  auto result = engine.PollResult(*handle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->available);
  EXPECT_TRUE(result->exact);
}

TEST(OnlineEngineTest, FallbackDisabledRejectsQuery) {
  OnlineEngineConfig config;
  config.enable_fallback = false;
  OnlineEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec avg = testutil::MakeAvgValueSpec(*catalog);
  auto handle = engine.Submit(avg);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kNotImplemented);
}

TEST(OnlineEngineTest, CompletedOnlineQueryIsExact) {
  OnlineEngineConfig config;
  config.sample_us_per_row = 1.0;
  config.query_overhead_us = 0;
  OnlineEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());
  engine.RunFor(*handle, 1'000'000);
  EXPECT_TRUE(engine.IsDone(*handle));
  auto result = engine.PollResult(*handle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);
  EXPECT_DOUBLE_EQ(result->bins.at(0).values[0].estimate, 4.0);
}

// --------------------------------------------------------------------
// Join charging: every engine gathers through one index per dimension;
// only the cost model decides who pays for building it.
// --------------------------------------------------------------------

/// The tiny fact table with `flag` normalized out into a two-row `flags`
/// dimension (flag_key -> flag_label), representing 1 M nominal rows.
std::shared_ptr<storage::Catalog> MakeNormalizedCatalog() {
  storage::Schema dim_schema(
      {{"flag_key", storage::DataType::kInt64,
        storage::AttributeKind::kNominal},
       {"flag_label", storage::DataType::kString,
        storage::AttributeKind::kNominal}});
  auto dim = std::make_shared<storage::Table>("flags", dim_schema);
  dim->mutable_column(0).AppendInt(0);
  dim->mutable_column(1).AppendString("off");
  dim->mutable_column(0).AppendInt(1);
  dim->mutable_column(1).AppendString("on");
  auto catalog = testutil::MakeTinyCatalog();
  IDB_CHECK(catalog->AddTable(dim).ok());
  IDB_CHECK(catalog->AddForeignKey({"flag", "flags", "flag_key"}).ok());
  catalog->set_nominal_rows(1'000'000);
  return catalog;
}

/// `type` (over `value` unless COUNT) grouped by the dimension column
/// `flag_label`.
QuerySpec ByFlagLabel(const storage::Catalog& catalog, AggregateType type) {
  QuerySpec spec;
  spec.viz_name = "viz_flags";
  query::BinDimension dim;
  dim.column = "flag_label";
  dim.mode = query::BinningMode::kNominal;
  spec.bins.push_back(dim);
  AggregateSpec agg;
  agg.type = type;
  if (type != AggregateType::kCount) agg.column = "value";
  spec.aggregates.push_back(agg);
  IDB_CHECK(spec.ResolveBins(catalog).ok());
  return spec;
}

constexpr Micros kUnlimited = 1'000'000'000'000;

/// Submits `spec`, runs it to completion in one slice and releases it;
/// returns the virtual time it consumed.
Micros RunToCompletion(Engine* engine, const QuerySpec& spec) {
  auto handle = engine->Submit(spec);
  IDB_CHECK(handle.ok());
  const Micros consumed = engine->RunFor(*handle, kUnlimited);
  IDB_CHECK(engine->IsDone(*handle));
  engine->Cancel(*handle);
  return consumed;
}

TEST(JoinChargeTest, BlockingEngineChargesEachDimensionOncePerEngine) {
  BlockingEngineConfig config;
  BlockingEngine engine(config);
  auto catalog = MakeNormalizedCatalog();
  ASSERT_TRUE(engine.Prepare(catalog).ok());
  const QuerySpec spec = ByFlagLabel(*catalog, AggregateType::kCount);
  const Micros build =
      static_cast<Micros>(static_cast<double>(catalog->nominal_rows()) *
                          config.join_build_ns_per_row / 1000.0);
  ASSERT_GT(build, 0);

  // The first query on `flags` pays the hash-join build before its first
  // row: a slice covering exactly overhead + build buys no row yet.
  auto first = engine.Submit(spec);
  ASSERT_TRUE(first.ok());
  const Micros overhead =
      static_cast<Micros>(config.query_overhead_us) + build;
  EXPECT_EQ(engine.RunFor(*first, overhead), overhead);
  auto pending = engine.PollResult(*first);
  ASSERT_TRUE(pending.ok());
  EXPECT_DOUBLE_EQ(pending->progress, 0.0);
  const Micros first_total = overhead + engine.RunFor(*first, kUnlimited);
  ASSERT_TRUE(engine.IsDone(*first));
  engine.Cancel(*first);

  // A second query on the same dimension does not pay it again.
  EXPECT_EQ(first_total - RunToCompletion(&engine, spec), build);
}

TEST(JoinChargeTest, OnlineFallbackChargedAfterWanderJoinBuiltTheIndex) {
  OnlineEngineConfig config;
  config.sample_us_per_row = 1.0;
  OnlineEngine engine(config);
  auto catalog = MakeNormalizedCatalog();
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  // Wander-join sampling binds through `flags` first and is never
  // charged for it.
  const QuerySpec online = ByFlagLabel(*catalog, AggregateType::kCount);
  ASSERT_TRUE(OnlineEngine::SupportsOnline(online));
  EXPECT_EQ(RunToCompletion(&engine, online), RunToCompletion(&engine, online));

  // The blocking fallback still pays its hash-join build, once.
  const QuerySpec fallback = ByFlagLabel(*catalog, AggregateType::kAvg);
  ASSERT_FALSE(OnlineEngine::SupportsOnline(fallback));
  const Micros build = static_cast<Micros>(
      static_cast<double>(catalog->nominal_rows()) *
      (2.0 * config.fallback_scan_ns_per_row) / 1000.0);
  ASSERT_GT(build, 0);
  const Micros first = RunToCompletion(&engine, fallback);
  EXPECT_EQ(first - RunToCompletion(&engine, fallback), build);
}

TEST(JoinChargeTest, JoinIndexCacheHandsOutOneIndexPerDimension) {
  auto catalog = MakeNormalizedCatalog();
  exec::JoinIndexCache cache(catalog.get());
  auto count = cache.For(ByFlagLabel(*catalog, AggregateType::kCount));
  auto avg = cache.For(ByFlagLabel(*catalog, AggregateType::kAvg));
  ASSERT_TRUE(count.ok());
  ASSERT_TRUE(avg.ok());
  ASSERT_EQ(count->size(), 1u);
  ASSERT_EQ(avg->size(), 1u);
  EXPECT_EQ((*count)[0], (*avg)[0]);
  EXPECT_EQ((*count)[0]->dimension_table(), "flags");
  auto fact_only = cache.For(testutil::MakeCountByGroupSpec(*catalog));
  ASSERT_TRUE(fact_only.ok());
  EXPECT_TRUE(fact_only->empty());
}

// --------------------------------------------------------------------
// Progressive engine (IDEA-like)
// --------------------------------------------------------------------

ProgressiveEngineConfig FastProgressiveConfig() {
  ProgressiveEngineConfig config;
  config.sample_us_per_row = 1'000.0;  // 1 ms per row: 8 rows = 8 ms
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.prepare_time_us = 1'000;
  return config;
}

TEST(ProgressiveEngineTest, ResultAvailableImmediately) {
  ProgressiveEngine engine(FastProgressiveConfig());
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());
  engine.RunFor(*handle, 2'000);  // 2 of 8 rows
  auto result = engine.PollResult(*handle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->available);
  EXPECT_FALSE(result->exact);
  EXPECT_EQ(result->rows_processed, 2);
  // Scale-up estimate: total count across bins ~ 8.
  EXPECT_NEAR(result->TotalEstimate(), 8.0, 1e-9);
}

TEST(ProgressiveEngineTest, ProgressIsMonotone) {
  ProgressiveEngine engine(FastProgressiveConfig());
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());
  double last_progress = -1.0;
  for (int step = 0; step < 4; ++step) {
    engine.RunFor(*handle, 2'000);
    auto result = engine.PollResult(*handle);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->progress, last_progress);
    last_progress = result->progress;
  }
  EXPECT_TRUE(engine.IsDone(*handle));
  auto final = engine.PollResult(*handle);
  ASSERT_TRUE(final.ok());
  EXPECT_TRUE(final->exact);
}

TEST(ProgressiveEngineTest, AllAggregatesSupported) {
  ProgressiveEngine engine(FastProgressiveConfig());
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec avg = testutil::MakeAvgValueSpec(*catalog);
  EXPECT_TRUE(engine.Submit(avg).ok());
}

TEST(ProgressiveEngineTest, ReuseAdoptsCachedProgress) {
  ProgressiveEngine engine(FastProgressiveConfig());
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);

  auto h1 = engine.Submit(spec);
  ASSERT_TRUE(h1.ok());
  engine.RunFor(*h1, 4'000);  // half the walk
  engine.Cancel(*h1);

  auto h2 = engine.Submit(spec);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(engine.reuse_hits(), 1);
  auto result = engine.PollResult(*h2);
  ASSERT_TRUE(result.ok());
  // The new handle starts from the cached 4-row sample.
  EXPECT_EQ(result->rows_processed, 4);
}

TEST(ProgressiveEngineTest, ReuseDisabledStartsCold) {
  ProgressiveEngineConfig config = FastProgressiveConfig();
  config.enable_reuse = false;
  ProgressiveEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto h1 = engine.Submit(spec);
  ASSERT_TRUE(h1.ok());
  engine.RunFor(*h1, 4'000);
  engine.Cancel(*h1);
  auto h2 = engine.Submit(spec);
  ASSERT_TRUE(h2.ok());
  auto result = engine.PollResult(*h2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_processed, 0);
  EXPECT_EQ(engine.reuse_hits(), 0);
}

TEST(ProgressiveEngineTest, RestartOverheadDelaysFirstQueryOnly) {
  ProgressiveEngineConfig config = FastProgressiveConfig();
  config.restart_overhead_us = 100'000;
  ProgressiveEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);

  auto h1 = engine.Submit(spec);
  ASSERT_TRUE(h1.ok());
  engine.RunFor(*h1, 50'000);  // all spent on restart overhead
  auto r1 = engine.PollResult(*h1);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->available);

  QuerySpec other = testutil::MakeAvgValueSpec(*catalog);
  auto h2 = engine.Submit(other);
  ASSERT_TRUE(h2.ok());
  engine.RunFor(*h2, 3'000);
  auto r2 = engine.PollResult(*h2);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->available);  // no restart overhead on later queries
}

TEST(ProgressiveEngineTest, SpeculationGivesHeadStart) {
  ProgressiveEngineConfig config = FastProgressiveConfig();
  config.enable_speculation = true;
  ProgressiveEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();

  // Source viz: count by group; target viz: avg of value.
  QuerySpec source = testutil::MakeCountByGroupSpec(*catalog);
  source.viz_name = "src";
  QuerySpec target = testutil::MakeAvgValueSpec(*catalog);
  target.viz_name = "dst";

  auto hs = engine.Submit(source);
  ASSERT_TRUE(hs.ok());
  engine.RunFor(*hs, 8'000);
  auto ht = engine.Submit(target);
  ASSERT_TRUE(ht.ok());
  engine.RunFor(*ht, 8'000);
  engine.LinkVizs("src", "dst");

  // Think time is spent pre-executing per-bin selections of "src".
  engine.OnThink(8'000'000);

  // The user selects group "a" (code 0): the real query matches a
  // speculative one and adopts its progress.
  QuerySpec selected = target;
  expr::Predicate sel;
  sel.column = "group";
  sel.op = expr::CompareOp::kIn;
  sel.set_values = {0.0};
  sel.string_values = {"a"};
  selected.filter.And(sel);
  auto h = engine.Submit(selected);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(engine.speculation_hits(), 1);
  auto result = engine.PollResult(*h);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->rows_processed, 0);  // head start without RunFor
}

TEST(ProgressiveEngineTest, WorkflowStartClearsDashboardState) {
  ProgressiveEngineConfig config = FastProgressiveConfig();
  config.enable_speculation = true;
  ProgressiveEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec source = testutil::MakeCountByGroupSpec(*catalog);
  source.viz_name = "src";
  ASSERT_TRUE(engine.Submit(source).ok());
  engine.LinkVizs("src", "dst");
  engine.WorkflowStart();
  engine.OnThink(1'000'000);  // no speculation state -> no crash, no work
  EXPECT_EQ(engine.speculation_hits(), 0);
}

// --------------------------------------------------------------------
// Stratified engine (System X-like)
// --------------------------------------------------------------------

StratifiedEngineConfig FastStratifiedConfig() {
  StratifiedEngineConfig config;
  config.sampling_rate = 0.5;
  config.stratify_by = "group";
  config.min_rows_per_stratum = 1;
  config.sample_scan_ns_per_row = 100.0;
  config.query_overhead_us = 0;
  return config;
}

TEST(StratifiedEngineTest, BlockingOverSampleThenWeightedEstimate) {
  StratifiedEngine engine(FastStratifiedConfig());
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  EXPECT_EQ(engine.sample().size(), 4);  // 50 % of 8 rows
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());

  // Full sample scan costs 0.5 * 1M * 100ns = 50 ms.
  engine.RunFor(*handle, 10'000);
  auto pending = engine.PollResult(*handle);
  ASSERT_TRUE(pending.ok());
  EXPECT_FALSE(pending->available);

  engine.RunFor(*handle, 60'000);
  EXPECT_TRUE(engine.IsDone(*handle));
  auto result = engine.PollResult(*handle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->available);
  EXPECT_FALSE(result->exact);
  // HT estimate reconstructs ~4 rows per group (2 sampled * weight 2).
  EXPECT_NEAR(result->bins.at(0).values[0].estimate, 4.0, 1e-9);
  EXPECT_NEAR(result->bins.at(1).values[0].estimate, 4.0, 1e-9);
}

TEST(StratifiedEngineTest, RejectsNormalizedCatalogs) {
  storage::Schema dim_schema(
      {{"flag", storage::DataType::kInt64, storage::AttributeKind::kNominal}});
  auto catalog = std::make_shared<storage::Catalog>();
  ASSERT_TRUE(
      catalog->AddTable(std::make_shared<storage::Table>(
          testutil::MakeTinyTable()))
          .ok());
  auto dim = std::make_shared<storage::Table>("flags", dim_schema);
  dim->mutable_column(0).AppendInt(0);
  dim->mutable_column(0).AppendInt(1);
  ASSERT_TRUE(catalog->AddTable(dim).ok());
  ASSERT_TRUE(catalog->AddForeignKey({"flag", "flags", "flag"}).ok());

  StratifiedEngine engine(FastStratifiedConfig());
  EXPECT_EQ(engine.Prepare(catalog).status().code(),
            StatusCode::kNotImplemented);
}

TEST(StratifiedEngineTest, QualityIndependentOfBudget) {
  // Two identical engines; one gets far more time per query.  The final
  // estimates must match exactly: quality is fixed by the offline sample.
  auto run = [](Micros budget) {
    StratifiedEngine engine(FastStratifiedConfig());
    IDB_CHECK(engine.Prepare(MakeNominalCatalog()).ok());
    auto catalog = MakeNominalCatalog();
    QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
    auto handle = engine.Submit(spec);
    IDB_CHECK(handle.ok());
    while (!engine.IsDone(*handle)) {
      if (engine.RunFor(*handle, budget) <= 0) break;
    }
    auto result = engine.PollResult(*handle);
    IDB_CHECK(result.ok());
    return result->TotalEstimate();
  };
  EXPECT_DOUBLE_EQ(run(10'000), run(10'000'000));
}

TEST(StratifiedEngineTest, MissingStratColumnFallsBackToUniform) {
  StratifiedEngineConfig config = FastStratifiedConfig();
  config.stratify_by = "no_such_column";
  StratifiedEngine engine(config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  EXPECT_EQ(engine.sample().num_strata, 1);
}

// --------------------------------------------------------------------
// Frontend engine (System Y-like)
// --------------------------------------------------------------------

TEST(FrontendEngineTest, AddsRenderDelayAfterBackend) {
  BlockingEngineConfig backend_config;
  backend_config.scan_ns_per_row = 10.0;  // 1 M rows -> 10 ms
  backend_config.query_overhead_us = 0;
  FrontendEngineConfig config;
  config.min_render_us = 500'000;
  config.max_render_us = 500'000;
  FrontendEngine engine(std::make_unique<BlockingEngine>(backend_config),
                        config);
  EXPECT_EQ(engine.name(), "frontend+blocking");
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());

  // Backend finishes in ~10 ms, but rendering takes 500 ms more.
  engine.RunFor(*handle, 100'000);
  EXPECT_FALSE(engine.IsDone(*handle));
  auto pending = engine.PollResult(*handle);
  ASSERT_TRUE(pending.ok());
  EXPECT_FALSE(pending->available);

  engine.RunFor(*handle, 500'000);
  EXPECT_TRUE(engine.IsDone(*handle));
  auto result = engine.PollResult(*handle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->available);
  EXPECT_TRUE(result->exact);
}

TEST(FrontendEngineTest, RenderDelayWithinConfiguredBounds) {
  FrontendEngineConfig config;
  // Defaults 1-2 s; with a 10 ms backend, total completion time must be
  // in [1.01, 2.01] s.
  BlockingEngineConfig backend_config;
  backend_config.scan_ns_per_row = 10.0;
  backend_config.query_overhead_us = 0;
  FrontendEngine engine(std::make_unique<BlockingEngine>(backend_config),
                        config);
  ASSERT_TRUE(engine.Prepare(MakeNominalCatalog()).ok());
  auto catalog = MakeNominalCatalog();
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  for (int i = 0; i < 5; ++i) {
    auto handle = engine.Submit(spec);
    ASSERT_TRUE(handle.ok());
    Micros total = 0;
    while (!engine.IsDone(*handle)) {
      const Micros step = engine.RunFor(*handle, 100'000);
      if (step <= 0) break;
      total += step;
    }
    EXPECT_GE(total, 1'000'000);
    EXPECT_LE(total, 2'100'000);
    engine.Cancel(*handle);
  }
}

// --------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------

TEST(RegistryTest, CreatesAllBuiltins) {
  for (const std::string& name : BuiltinEngineNames()) {
    auto engine = CreateEngine(name);
    ASSERT_TRUE(engine.ok()) << name;
    EXPECT_FALSE((*engine)->name().empty());
  }
  EXPECT_FALSE(CreateEngine("nonexistent").ok());
}

TEST(RegistryTest, AllEnginesAnswerASimpleQuery) {
  auto catalog = MakeNominalCatalog(100'000);  // small so everything finishes
  for (const std::string& name : BuiltinEngineNames()) {
    auto engine = CreateEngine(name);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Prepare(catalog).ok()) << name;
    QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
    auto handle = (*engine)->Submit(spec);
    ASSERT_TRUE(handle.ok()) << name;
    // Grant an enormous budget: every engine must eventually finish.
    for (int i = 0; i < 100 && !(*engine)->IsDone(*handle); ++i) {
      (*engine)->RunFor(*handle, 10'000'000);
    }
    EXPECT_TRUE((*engine)->IsDone(*handle)) << name;
    auto result = (*engine)->PollResult(*handle);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_TRUE(result->available) << name;
    // Count totals must reconstruct the 8-row table (exactly for exact
    // engines, in HT expectation for the stratified one).
    EXPECT_NEAR(result->TotalEstimate(), 8.0, 1e-6) << name;
  }
}

/// Stores `n` distinct queries, one per viz: each is submitted, run to
/// completion in one slice and cancelled, which snapshots it into the
/// reuse cache when the cache is on.
void StoreDistinctQueries(Engine* engine, const storage::Catalog& catalog,
                          int n) {
  for (int i = 0; i < n; ++i) {
    QuerySpec spec = testutil::MakeCountByGroupSpec(catalog);
    spec.viz_name = "viz_" + std::to_string(i);
    expr::Predicate p;
    p.column = "value";
    p.op = expr::CompareOp::kLe;
    p.value = 1000 + i;  // matches every row; distinct signature per i
    spec.filter.And(p);
    auto handle = engine->Submit(spec);
    ASSERT_TRUE(handle.ok()) << i;
    engine->RunFor(*handle, 10'000'000);
    ASSERT_TRUE(engine->IsDone(*handle)) << i;
    engine->Cancel(*handle);
  }
}

/// CreateEngine's reuse-cache arguments take effect when the engine is
/// prepared: the cache is on only when asked for, and its global entry
/// cap (64 by default) scales with the expected session count.
TEST(RegistryTest, ReuseCacheFollowsCreateEngineArguments) {
  auto catalog = MakeNominalCatalog(100'000);
  constexpr int kQueries = 65;  // one past the default global entry cap
  for (const std::string name :
       {"blocking", "online", "progressive", "stratified"}) {
    for (const int sessions : {1, 2}) {
      SCOPED_TRACE(name + " sessions=" + std::to_string(sessions));
      auto engine = CreateEngine(name, 0, 1, /*reuse_cache=*/true, sessions);
      ASSERT_TRUE(engine.ok());
      ASSERT_TRUE((*engine)->Prepare(catalog).ok());
      StoreDistinctQueries(engine->get(), *catalog, kQueries);
      const metrics::ReuseCacheStats stats = (*engine)->reuse_cache_stats();
      EXPECT_EQ(stats.stores, kQueries);
      EXPECT_EQ(stats.evictions, sessions == 1 ? 1 : 0);
      EXPECT_EQ(stats.entries, sessions == 1 ? kQueries - 1 : kQueries);
    }

    SCOPED_TRACE(name + " cache off");
    auto engine = CreateEngine(name, 0, 1, /*reuse_cache=*/false, 2);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Prepare(catalog).ok());
    StoreDistinctQueries(engine->get(), *catalog, kQueries);
    const metrics::ReuseCacheStats stats = (*engine)->reuse_cache_stats();
    EXPECT_EQ(stats.equal_hits, 0);
    EXPECT_EQ(stats.refinement_hits, 0);
    EXPECT_EQ(stats.misses, 0);
    EXPECT_EQ(stats.stores, 0);
    EXPECT_EQ(stats.evictions, 0);
    EXPECT_EQ(stats.poisoned, 0);
    EXPECT_EQ(stats.rows_served, 0);
    EXPECT_EQ(stats.entries, 0);
  }
}

}  // namespace
}  // namespace idebench::engines
