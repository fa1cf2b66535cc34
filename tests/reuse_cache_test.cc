/// \file reuse_cache_test.cc
/// Unit tests of the cross-interaction reuse cache: signature and
/// subsumption matching, snapshot serve/replay bit-exactness through each
/// feed order (including against the morsel-parallel path), candidate
/// bitmaps through partial merges and their cost, and per-viz LRU
/// eviction.

#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "exec/parallel.h"
#include "exec/reuse_cache.h"
#include "tests/workflow_harness.h"

namespace idebench::exec {
namespace {

using query::AggregateSpec;
using query::AggregateType;
using query::BinDimension;
using query::BinningMode;
using query::QuerySpec;

constexpr int64_t kRows = 3000;

/// A small deterministic table with enough spread for selective filters.
std::shared_ptr<storage::Catalog> MakeCatalog(int64_t rows = kRows) {
  storage::Schema schema({
      {"value", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
      {"amount", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
      {"group", storage::DataType::kString, storage::AttributeKind::kNominal},
      {"code", storage::DataType::kInt64, storage::AttributeKind::kNominal},
  });
  auto table = std::make_shared<storage::Table>("fact", schema);
  const char* groups[] = {"a", "b", "c", "d"};
  Rng rng(21);
  for (int64_t i = 0; i < rows; ++i) {
    table->mutable_column(0).AppendDouble(rng.Uniform(0.0, 100.0));
    table->mutable_column(1).AppendDouble(rng.Uniform(-10.0, 10.0));
    table->mutable_column(2).AppendString(groups[rng.UniformInt(0, 3)]);
    table->mutable_column(3).AppendInt(rng.UniformInt(0, 9));
  }
  auto catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(catalog->AddTable(table).ok());
  return catalog;
}

QuerySpec BaseSpec(const storage::Catalog& catalog,
                   const std::string& viz = "viz_a") {
  QuerySpec spec;
  spec.viz_name = viz;
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  AggregateSpec count;
  count.type = AggregateType::kCount;
  AggregateSpec avg;
  avg.type = AggregateType::kAvg;
  avg.column = "amount";
  spec.aggregates = {count, avg};
  IDB_CHECK(spec.ResolveBins(catalog).ok());
  return spec;
}

expr::Predicate Range(const std::string& column, double lo, double hi) {
  expr::Predicate p;
  p.column = column;
  p.op = expr::CompareOp::kRange;
  p.lo = lo;
  p.hi = hi;
  return p;
}

ReuseCache::Binder BinderFor(const std::shared_ptr<storage::Catalog>& catalog) {
  return [catalog](const QuerySpec& spec) {
    return BoundQuery::Bind(spec, *catalog);
  };
}

BinnedAggregatorOptions Recording() {
  BinnedAggregatorOptions options;
  options.record_matches = true;
  return options;
}

TEST(ReuseCacheTest, EqualAndRefinementMatching) {
  auto catalog = MakeCatalog();
  ReuseCache cache;

  QuerySpec base = BaseSpec(*catalog);
  base.filter.And(Range("value", 10.0, 90.0));
  auto bound = BoundQuery::Bind(base, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound, Recording());
  agg.Process(FeedOrder::Scan(), 0, 1000);
  cache.Store(base, agg, BinderFor(catalog));
  ASSERT_EQ(cache.size(), 1u);

  // Identical predicates (in any order) match as equal.
  auto equal = cache.Lookup(base);
  EXPECT_EQ(equal.kind, ReuseCache::MatchKind::kEqual);
  EXPECT_EQ(equal.watermark(), 1000);

  // Adding a predicate refines the cached set.
  QuerySpec refined = base;
  refined.filter.And(Range("amount", -5.0, 5.0));
  auto refinement = cache.Lookup(refined);
  EXPECT_EQ(refinement.kind, ReuseCache::MatchKind::kRefinement);

  // Narrowing the existing range also refines.
  QuerySpec narrowed = BaseSpec(*catalog);
  narrowed.filter.And(Range("value", 20.0, 60.0));
  EXPECT_EQ(cache.Lookup(narrowed).kind, ReuseCache::MatchKind::kRefinement);

  // Widening does not (rows outside the cached range are unknown).
  QuerySpec widened = BaseSpec(*catalog);
  widened.filter.And(Range("value", 0.0, 95.0));
  EXPECT_EQ(cache.Lookup(widened).kind, ReuseCache::MatchKind::kNone);

  // A different bin spec is a different core signature: no match.
  QuerySpec rebinned = base;
  rebinned.bins[0].column = "code";
  ASSERT_TRUE(rebinned.ResolveBins(*catalog).ok());
  EXPECT_EQ(cache.Lookup(rebinned).kind, ReuseCache::MatchKind::kNone);
}

TEST(ReuseCacheTest, EpochGrowthDeltaVsInvalidateModes) {
  auto catalog = MakeCatalog();
  QuerySpec spec = BaseSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound, Recording());
  agg.Process(FeedOrder::Scan(), 0, 1000);

  // The cache keeps no epoch state: after an epoch publish the same
  // lookup is still an equal hit, and serving the grown feed caps at the
  // snapshot depth, so the engine scans only the delta rows beyond it.
  ReuseCache delta;
  delta.Store(spec, agg, BinderFor(catalog));
  const ReuseCache::Match match = delta.Lookup(spec);
  EXPECT_EQ(match.kind, ReuseCache::MatchKind::kEqual);
  BinnedAggregator grown(&*bound, Recording());
  EXPECT_EQ(ReuseCache::Serve(match, FeedOrder::Scan(), &grown, 0,
                              kRows + 500),
            1000);
  EXPECT_EQ(grown.rows_seen(), 1000);
}

TEST(ReuseCacheTest, ReshapedBinTablesDowngradeToReplay) {
  auto catalog = MakeCatalog();
  ReuseCache cache;

  QuerySpec stored = BaseSpec(*catalog);
  auto bound = BoundQuery::Bind(stored, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound, Recording());
  agg.Process(FeedOrder::Scan(), 0, 1500);
  cache.Store(stored, agg, BinderFor(catalog));

  // An epoch publish re-resolves the spec's bins (here: the nominal
  // dictionary grew a value).  Signatures ignore resolved bin tables, so
  // this is still an equal-signature lookup — but index-wise snapshot
  // adoption would mis-bin, so the hit downgrades to candidate replay.
  QuerySpec grown = stored;
  grown.bins[0].bin_count += 1;
  const auto match = cache.Lookup(grown);
  EXPECT_EQ(match.kind, ReuseCache::MatchKind::kRefinement);
  EXPECT_EQ(match.watermark(), 1500);
  EXPECT_EQ(cache.stats().refinement_hits, 1);

  // A fresh store under the new shape replaces the re-shaped entry even
  // though the old snapshot is deeper: depth can't justify keeping bin
  // tables the current resolution no longer produces.
  auto grown_bound = BoundQuery::Bind(grown, *catalog);
  ASSERT_TRUE(grown_bound.ok());
  BinnedAggregator shallow(&*grown_bound, Recording());
  shallow.Process(FeedOrder::Scan(), 0, 1000);
  cache.Store(grown, shallow, BinderFor(catalog));
  EXPECT_EQ(cache.size(), 1u);
  const auto after = cache.Lookup(grown);
  EXPECT_EQ(after.kind, ReuseCache::MatchKind::kEqual);
  EXPECT_EQ(after.watermark(), 1000);
}

TEST(ReuseCacheTest, StoreKeepsDeepestWatermark) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec spec = BaseSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator deep(&*bound, Recording());
  deep.Process(FeedOrder::Scan(), 0, 2000);
  cache.Store(spec, deep, BinderFor(catalog));
  EXPECT_EQ(cache.Lookup(spec).watermark(), 2000);

  // A shallower snapshot of the same signature must not replace it.
  BinnedAggregator shallow(&*bound, Recording());
  shallow.Process(FeedOrder::Scan(), 0, 500);
  cache.Store(spec, shallow, BinderFor(catalog));
  EXPECT_EQ(cache.Lookup(spec).watermark(), 2000);

  // A deeper one does.
  BinnedAggregator deeper(&*bound, Recording());
  deeper.Process(FeedOrder::Scan(), 0, 2500);
  cache.Store(spec, deeper, BinderFor(catalog));
  EXPECT_EQ(cache.Lookup(spec).watermark(), 2500);

  // Aggregators without a recorder are not cacheable.
  ReuseCache fresh;
  BinnedAggregator unrecorded(&*bound);
  unrecorded.Process(FeedOrder::Scan(), 0, 100);
  fresh.Store(spec, unrecorded, BinderFor(catalog));
  EXPECT_EQ(fresh.size(), 0u);
}

/// Serve must reproduce direct processing bit for bit: full snapshot
/// adoption, partial replay below the watermark, and refined replay.
TEST(ReuseCacheTest, ServeIsBitIdenticalToDirectProcessing) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec base = BaseSpec(*catalog);
  base.filter.And(Range("value", 5.0, 95.0));
  auto bound = BoundQuery::Bind(base, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator source(&*bound, Recording());
  source.Process(FeedOrder::Scan(), 0, 2000);
  cache.Store(base, source, BinderFor(catalog));
  auto match = cache.Lookup(base);
  ASSERT_EQ(match.kind, ReuseCache::MatchKind::kEqual);

  // Full adoption + physical continuation == direct feed of [0, 2600).
  {
    BinnedAggregator served(&*bound, Recording());
    EXPECT_EQ(ReuseCache::Serve(match, FeedOrder::Scan(), &served, 0, 2600),
              2000);
    served.Process(FeedOrder::Scan(), 2000, 2600);
    BinnedAggregator direct(&*bound, Recording());
    direct.Process(FeedOrder::Scan(), 0, 2600);
    EXPECT_EQ(served.rows_seen(), direct.rows_seen());
    EXPECT_EQ(served.rows_matched(), direct.rows_matched());
    testharness::ExpectResultsBitIdentical(
        served.ExactResult(), direct.ExactResult(), "full adoption");
    testharness::ExpectResultsBitIdentical(
        served.EstimateFromUniformSample(kRows, 1.96),
        direct.EstimateFromUniformSample(kRows, 1.96), "full adoption est");
    // The bitmap survives adoption, so the served aggregator can itself
    // be stored at the deeper watermark.
    EXPECT_EQ(served.match_bits(), direct.match_bits());
  }

  // Partial replay below the watermark == direct feed of [0, 700).
  {
    BinnedAggregator served(&*bound, Recording());
    EXPECT_EQ(ReuseCache::Serve(match, FeedOrder::Scan(), &served, 0, 700),
              700);
    BinnedAggregator direct(&*bound, Recording());
    direct.Process(FeedOrder::Scan(), 0, 700);
    EXPECT_EQ(served.rows_seen(), direct.rows_seen());
    EXPECT_EQ(served.rows_matched(), direct.rows_matched());
    testharness::ExpectResultsBitIdentical(
        served.ExactResult(), direct.ExactResult(), "partial replay");
    EXPECT_EQ(served.match_bits(), direct.match_bits());
  }

  // Refined replay: candidates re-filtered through the stricter query.
  {
    QuerySpec refined = base;
    refined.filter.And(Range("amount", -3.0, 3.0));
    auto refined_bound = BoundQuery::Bind(refined, *catalog);
    ASSERT_TRUE(refined_bound.ok());
    auto refined_match = cache.Lookup(refined);
    ASSERT_EQ(refined_match.kind, ReuseCache::MatchKind::kRefinement);

    BinnedAggregator served(&*refined_bound, Recording());
    EXPECT_EQ(ReuseCache::Serve(refined_match, FeedOrder::Scan(), &served, 0,
                                2000),
              2000);
    BinnedAggregator direct(&*refined_bound, Recording());
    direct.Process(FeedOrder::Scan(), 0, 2000);
    EXPECT_EQ(served.rows_seen(), direct.rows_seen());
    EXPECT_EQ(served.rows_matched(), direct.rows_matched());
    testharness::ExpectResultsBitIdentical(
        served.ExactResult(), direct.ExactResult(), "refined replay");
    // Bits recorded during replay sit at the original feed positions.
    EXPECT_EQ(served.match_bits(), direct.match_bits());
  }

  // Ranges past the watermark serve nothing.
  {
    BinnedAggregator served(&*bound, Recording());
    EXPECT_EQ(
        ReuseCache::Serve(match, FeedOrder::Scan(), &served, 2000, 2600),
        2000);
    EXPECT_EQ(served.rows_seen(), 0);
  }
}

/// Snapshots compose with morsel-parallel continuation: adopting a
/// snapshot then feeding the rest through MorselProcess equals the
/// same call sequence without the cache, at any parallelism.
TEST(ReuseCacheTest, ServeComposesWithMorselPathMergeFrom) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec spec = BaseSpec(*catalog);
  spec.filter.And(Range("value", 10.0, 80.0));
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator source(&*bound, Recording());
  MorselProcess(&source, FeedOrder::Scan(), 0, 1500, /*parallelism=*/4,
                /*morsel_rows=*/kVectorBatchSize);
  EXPECT_GT(source.partial_pool_size(), 0u);  // the morsel merge ran
  cache.Store(spec, source, BinderFor(catalog));
  auto match = cache.Lookup(spec);
  ASSERT_EQ(match.kind, ReuseCache::MatchKind::kEqual);

  for (int parallelism : {1, 2, 4}) {
    BinnedAggregator served(&*bound, Recording());
    ASSERT_EQ(ReuseCache::Serve(match, FeedOrder::Scan(), &served, 0, kRows),
              1500);
    MorselProcess(&served, FeedOrder::Scan(), 1500, kRows, parallelism,
                  /*morsel_rows=*/kVectorBatchSize);
    EXPECT_GT(served.partial_pool_size(), 0u);

    BinnedAggregator direct(&*bound, Recording());
    MorselProcess(&direct, FeedOrder::Scan(), 0, 1500, /*parallelism=*/2,
                  /*morsel_rows=*/kVectorBatchSize);
    MorselProcess(&direct, FeedOrder::Scan(), 1500, kRows, parallelism,
                  /*morsel_rows=*/kVectorBatchSize);

    EXPECT_EQ(served.rows_seen(), direct.rows_seen());
    EXPECT_EQ(served.rows_matched(), direct.rows_matched());
    testharness::ExpectResultsBitIdentical(
        served.ExactResult(), direct.ExactResult(),
        "morsel continuation, parallelism " + std::to_string(parallelism));
    // Bit positions survive the partial merges in morsel order, the
    // second morsel's at an offset that is not a whole word.
    EXPECT_EQ(served.match_bits(), direct.match_bits());
    BinnedAggregator sequential(&*bound, Recording());
    sequential.Process(FeedOrder::Scan(), 0, kRows);
    EXPECT_EQ(served.match_bits(), sequential.match_bits());
  }
}

/// Two stratum weight runs, as the stratified engine lays its sample out:
/// each of `rows` table rows once, in a seeded shuffle, the first
/// `boundary` at weight 3.5 and the rest at 7.25.
aqp::StratifiedSample TwoRunSample(int64_t rows, int64_t boundary) {
  aqp::StratifiedSample sample;
  sample.rows.resize(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) sample.rows[static_cast<size_t>(i)] = i;
  Rng rng(5);
  rng.Shuffle(&sample.rows);
  for (int64_t i = 0; i < rows; ++i) {
    sample.weights.push_back(i < boundary ? 3.5 : 7.25);
  }
  sample.base_rows = rows;
  sample.num_strata = 2;
  return sample;
}

/// Sample feeds replay at each position's own weight, split where the
/// weight changes.
TEST(ReuseCacheTest, WeightedReplayPreservesWeights) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec spec = BaseSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  const aqp::StratifiedSample sample = TwoRunSample(kRows, 1200);
  const FeedOrder order = FeedOrder::Sample(&sample);
  BinnedAggregator source(&*bound, Recording());
  source.Process(order, 0, 2000);
  cache.Store(spec, source, BinderFor(catalog));

  auto match = cache.Lookup(spec);
  ASSERT_EQ(match.kind, ReuseCache::MatchKind::kEqual);
  BinnedAggregator served(&*bound, Recording());
  // Replay a window straddling the weight boundary.
  EXPECT_EQ(ReuseCache::Serve(match, order, &served, 0, 1700), 1700);

  BinnedAggregator direct(&*bound, Recording());
  direct.Process(order, 0, 1700);
  EXPECT_EQ(served.rows_seen(), direct.rows_seen());
  EXPECT_EQ(served.match_bits(), direct.match_bits());
  testharness::ExpectResultsBitIdentical(
      served.EstimateFromWeightedSample(1.96),
      direct.EstimateFromWeightedSample(1.96), "weighted replay");
}

/// Rows of the replay differential's table: enough that the feed past
/// the watermark spans several 1,024-position morsels.
constexpr int64_t kReplayRows = 6000;

/// Positions [0, end) of `order` as a sample of their rows and weights,
/// which feeds them only as row-id lists, never as row runs.
aqp::StratifiedSample AsIdList(const FeedOrder& order, int64_t end) {
  if (order.kind == FeedOrder::Kind::kSample) return *order.sample;
  aqp::StratifiedSample ids;
  ids.rows.resize(static_cast<size_t>(end));
  if (order.kind == FeedOrder::Kind::kWalk) {
    order.index->GatherWalk(order.key, 0, end, ids.rows.data());
  } else {
    std::iota(ids.rows.begin(), ids.rows.end(), 0);
  }
  ids.weights.assign(ids.rows.size(), 1.0);
  return ids;
}

/// Replay differential through one feed order over the first `end`
/// positions of a `kReplayRows`-row table.  For a dense base filter
/// (~90 % of rows: windows fed whole) and a sparse one (~30 %:
/// candidates picked out), each stored at `watermark`, and for the base
/// itself (equal hit) and a refinement of it: serving [cursor,
/// watermark) into an aggregator already fed [0, cursor), then
/// continuing to `end` through MorselProcess at 4 threads, must be
/// bit-identical to feeding the same positions directly — bins,
/// estimates, counters and recorded bits.  The same holds against the
/// direct call sequence fed only as row-id lists (`AsIdList`) and through
/// the scalar path, so whole windows replayed as row runs match both.
/// `cursor` and `watermark` are not multiples of 64, so the served range
/// starts mid-word and the morsel partials merge at bit offsets inside a
/// word.
void ExpectReplayMatchesDirectFeed(const FeedOrder& order, int64_t cursor,
                                   int64_t watermark, int64_t end,
                                   const std::string& label) {
  ASSERT_NE(cursor % 64, 0);
  ASSERT_NE(watermark % 64, 0);
  ASSERT_GT(end - watermark, kVectorBatchSize);  // several morsels
  auto catalog = MakeCatalog(kReplayRows);
  const aqp::StratifiedSample ids = AsIdList(order, end);
  for (const auto& [lo, hi] : {std::pair{5.0, 95.0}, std::pair{10.0, 40.0}}) {
    QuerySpec base = BaseSpec(*catalog);
    base.filter.And(Range("value", lo, hi));
    auto base_bound = BoundQuery::Bind(base, *catalog);
    ASSERT_TRUE(base_bound.ok());
    ReuseCache cache;
    BinnedAggregator source(&*base_bound, Recording());
    source.Process(order, 0, watermark);
    cache.Store(base, source, BinderFor(catalog));

    QuerySpec refined = base;
    refined.filter.And(Range("amount", -3.0, 3.0));
    for (const QuerySpec* spec : {&base, &refined}) {
      const std::string where = label + " base [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + ")" +
                                (spec == &refined ? " refined" : " equal");
      auto bound = BoundQuery::Bind(*spec, *catalog);
      ASSERT_TRUE(bound.ok());
      const ReuseCache::Match match = cache.Lookup(*spec);
      ASSERT_TRUE(match) << where;

      BinnedAggregator served(&*bound, Recording());
      served.Process(order, 0, cursor);
      ASSERT_EQ(ReuseCache::Serve(match, order, &served, cursor, end),
                watermark)
          << where;
      MorselProcess(&served, order, watermark, end, /*parallelism=*/4,
                    /*morsel_rows=*/kVectorBatchSize);
      EXPECT_GT(served.partial_pool_size(), 0u);  // the morsel merge ran

      // Bits are exact under any merge tree, so one sequential feed of
      // [0, end) also pins where the morsel merges put them.
      BinnedAggregator sequential(&*bound, Recording());
      sequential.Process(order, 0, end);
      EXPECT_EQ(served.rows_seen(), end) << where;
      EXPECT_EQ(served.match_bits(), sequential.match_bits()) << where;

      BinnedAggregatorOptions scalar = Recording();
      scalar.enable_vectorized = false;
      const FeedOrder id_order = FeedOrder::Sample(&ids);
      for (const auto& [how, options, direct_order] :
           {std::tuple{"direct", Recording(), order},
            std::tuple{"direct id lists", Recording(), id_order},
            std::tuple{"direct scalar", scalar, order}}) {
        const std::string vs = where + " vs " + how;
        BinnedAggregator direct(&*bound, options);
        direct.Process(direct_order, 0, cursor);
        direct.Process(direct_order, cursor, watermark);
        MorselProcess(&direct, direct_order, watermark, end,
                      /*parallelism=*/4, /*morsel_rows=*/kVectorBatchSize);
        EXPECT_EQ(served.rows_matched(), direct.rows_matched()) << vs;
        EXPECT_EQ(served.match_bits(), direct.match_bits()) << vs;
        testharness::ExpectResultsBitIdentical(served.ExactResult(),
                                               direct.ExactResult(), vs);
        testharness::ExpectResultsBitIdentical(
            served.EstimateFromUniformSample(end, 1.96),
            direct.EstimateFromUniformSample(end, 1.96), vs + " est");
        testharness::ExpectResultsBitIdentical(
            served.EstimateFromWeightedSample(1.96),
            direct.EstimateFromWeightedSample(1.96), vs + " weighted");
      }
    }
  }
}

TEST(ReuseReplayTest, ScanIsBitIdenticalToDirectFeed) {
  ExpectReplayMatchesDirectFeed(FeedOrder::Scan(), /*cursor=*/1037,
                                /*watermark=*/3700, /*end=*/kReplayRows,
                                "scan");
}

/// A walk over a base plus 1 and 3 published epochs; the served range
/// crosses from the base window into the epoch rings.
TEST(ReuseReplayTest, WalkIsBitIdenticalToDirectFeed) {
  for (const std::vector<int64_t>& epochs :
       {std::vector<int64_t>{3000, kReplayRows},
        std::vector<int64_t>{2000, 3000, 4500, kReplayRows}}) {
    aqp::ShuffledIndex index(epochs.front());
    for (size_t e = 1; e < epochs.size(); ++e) {
      Rng rng = Rng(9).Fork(e);
      index.ExtendTo(epochs[e], &rng);
    }
    ExpectReplayMatchesDirectFeed(
        FeedOrder::Walk(&index, /*key=*/1234), /*cursor=*/1037,
        /*watermark=*/3700, /*end=*/kReplayRows,
        "walk over " + std::to_string(epochs.size() - 1) + " epochs");
  }
}

/// A sample with two weight runs; the served range crosses the boundary.
TEST(ReuseReplayTest, SampleIsBitIdenticalToDirectFeed) {
  const aqp::StratifiedSample sample = TwoRunSample(kReplayRows, 2400);
  ExpectReplayMatchesDirectFeed(FeedOrder::Sample(&sample), /*cursor=*/1037,
                                /*watermark=*/3700, /*end=*/kReplayRows,
                                "sample");
}

/// The candidate bitmap costs one bit per position whatever the filter
/// keeps: an unfiltered N-position snapshot costs at most N/8 bytes,
/// rounded up to a whole 64-bit word, beyond its bin tables.
TEST(ReuseCacheTest, UnfilteredSnapshotCostsOneBitPerPosition) {
  auto catalog = MakeCatalog();
  QuerySpec spec = BaseSpec(*catalog);  // no filter: every row matches
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator recording(&*bound, Recording());
  BinnedAggregator plain(&*bound);  // the same bin tables, no bitmap
  recording.Process(FeedOrder::Scan(), 0, kRows);
  plain.Process(FeedOrder::Scan(), 0, kRows);
  EXPECT_EQ(recording.rows_matched(), kRows);
  const int64_t bitmap_bytes = (kRows + 63) / 64 * 8;

  ReuseCache cache;
  cache.Store(spec, recording, BinderFor(catalog));
  const ReuseCache::Match match = cache.Lookup(spec);
  ASSERT_TRUE(match);
  const BinnedAggregator& snapshot = *match.entry->snapshot;
  EXPECT_EQ(snapshot.match_bits(), recording.match_bits());
  EXPECT_LE(snapshot.ApproxMemoryBytes(),
            plain.ApproxMemoryBytes() + bitmap_bytes);
}

/// The byte budget LRU-evicts heavy snapshots while keeping the most
/// recent entry.
TEST(ReuseCacheTest, ByteBudgetEviction) {
  auto catalog = MakeCatalog();
  const auto store = [&](ReuseCache* cache, double lo) {
    QuerySpec spec = BaseSpec(*catalog);
    spec.filter.And(Range("amount", -100.0 - lo, 100.0 + lo));  // matches all
    auto bound = BoundQuery::Bind(spec, *catalog);
    ASSERT_TRUE(bound.ok());
    BinnedAggregator agg(&*bound, Recording());
    agg.Process(FeedOrder::Scan(), 0, 2000);
    cache->Store(spec, agg, BinderFor(catalog));
  };
  // Each snapshot costs the same: its bin tables, a 2000-bit bitmap and
  // the per-entry floor.  Measure one, then budget two and a half.
  ReuseCache probe;
  store(&probe, 1.0);
  ReuseCacheOptions options;
  options.max_total_bytes = probe.total_bytes() * 5 / 2;
  ReuseCache cache(options);

  for (double lo : {1.0, 2.0, 3.0, 4.0}) {
    store(&cache, lo);
    EXPECT_LE(cache.total_bytes(), options.max_total_bytes);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GT(cache.stats().evictions, 0);
  // The most recently stored entry survives.
  QuerySpec last = BaseSpec(*catalog);
  last.filter.And(Range("amount", -104.0, 104.0));
  EXPECT_EQ(cache.Lookup(last).kind, ReuseCache::MatchKind::kEqual);
}

TEST(ReuseCacheTest, PerVizLruEviction) {
  auto catalog = MakeCatalog();
  ReuseCacheOptions options;
  options.max_entries_per_viz = 2;
  options.max_entries_total = 3;
  ReuseCache cache(options);

  const auto store_with_filter = [&](const std::string& viz, double lo) {
    QuerySpec spec = BaseSpec(*catalog, viz);
    spec.filter.And(Range("value", lo, 99.0));
    auto bound = BoundQuery::Bind(spec, *catalog);
    ASSERT_TRUE(bound.ok());
    BinnedAggregator agg(&*bound, Recording());
    agg.Process(FeedOrder::Scan(), 0, 200);
    cache.Store(spec, agg, BinderFor(catalog));
  };

  store_with_filter("viz_a", 1.0);
  store_with_filter("viz_a", 2.0);
  ASSERT_EQ(cache.size(), 2u);
  // Third distinct signature for viz_a evicts that viz's LRU entry.
  store_with_filter("viz_a", 3.0);
  EXPECT_EQ(cache.size(), 2u);
  {
    QuerySpec oldest = BaseSpec(*catalog, "viz_a");
    oldest.filter.And(Range("value", 1.0, 99.0));
    EXPECT_EQ(cache.Lookup(oldest).kind, ReuseCache::MatchKind::kNone);
  }
  // Another viz gets its own budget, but the global cap still holds.
  store_with_filter("viz_b", 1.0);
  EXPECT_EQ(cache.size(), 3u);
  store_with_filter("viz_b", 2.0);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_GT(cache.stats().evictions, 0);
}

/// Workflow boundaries clear the cache; discarding a viz drops only its
/// entries.
TEST(ReuseCacheTest, ClearAndDropViz) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  const auto store_for = [&](const std::string& viz) {
    QuerySpec spec = BaseSpec(*catalog, viz);
    auto bound = BoundQuery::Bind(spec, *catalog);
    ASSERT_TRUE(bound.ok());
    BinnedAggregator agg(&*bound, Recording());
    agg.Process(FeedOrder::Scan(), 0, 100);
    cache.Store(spec, agg, BinderFor(catalog));
  };
  store_for("viz_a");
  {
    QuerySpec other = BaseSpec(*catalog, "viz_b");
    other.filter.And(Range("value", 1.0, 99.0));
    auto bound = BoundQuery::Bind(other, *catalog);
    ASSERT_TRUE(bound.ok());
    BinnedAggregator agg(&*bound, Recording());
    agg.Process(FeedOrder::Scan(), 0, 100);
    cache.Store(other, agg, BinderFor(catalog));
  }
  ASSERT_EQ(cache.size(), 2u);

  cache.DropViz("viz_a");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(BaseSpec(*catalog, "viz_a")).kind,
            ReuseCache::MatchKind::kNone);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.total_bytes(), 0);
}

TEST(ReuseCacheTest, StatsCountHitsAndMisses) {
  auto catalog = MakeCatalog();
  ReuseCache cache;
  QuerySpec spec = BaseSpec(*catalog);
  EXPECT_EQ(cache.Lookup(spec).kind, ReuseCache::MatchKind::kNone);

  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound, Recording());
  agg.Process(FeedOrder::Scan(), 0, 100);
  cache.Store(spec, agg, BinderFor(catalog));
  cache.Lookup(spec);

  QuerySpec refined = spec;
  refined.filter.And(Range("value", 0.0, 50.0));
  cache.Lookup(refined);

  const metrics::ReuseCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.equal_hits, 1);
  EXPECT_EQ(stats.refinement_hits, 1);
  EXPECT_EQ(stats.stores, 1);
  EXPECT_EQ(stats.entries, 1);
}

}  // namespace
}  // namespace idebench::exec
