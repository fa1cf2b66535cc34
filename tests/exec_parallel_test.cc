/// \file exec_parallel_test.cc
/// Morsel-driven parallel execution tests (exec/parallel.h):
///
///  * thread-count invariance — the morsel path produces bit-identical
///    bins, estimates, margins, and row counters for every parallelism
///    in {1, 2, 4, 7}, across aggregate types, filters, joins, weights,
///    2-D binning, and the dense↔hash bin-table boundary;
///  * against the flat sequential scalar reference, integer-valued
///    accumulators (row counters, COUNT, MIN/MAX) are exactly equal and
///    real-valued sums agree to ~1e-12 relative (floating-point addition
///    is not associative, so the fixed morsel reduction tree can differ
///    from the flat fold in the last ulps);
///  * `BinnedAggregator::MergeFrom` unit tests with disjoint and
///    overlapping key sets and all dense/hash table combinations;
///  * worker-pool scheduling sanity and engine-level invariance for all
///    four engines plus the ground-truth oracle.

#include <atomic>
#include <chrono>
#include <thread>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "aqp/sampler.h"
#include "common/logging.h"
#include "common/random.h"
#include "driver/ground_truth.h"
#include "driver/settings.h"
#include "engines/blocking_engine.h"
#include "engines/online_engine.h"
#include "engines/progressive_engine.h"
#include "engines/registry.h"
#include "engines/stratified_engine.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "exec/join_index.h"
#include "exec/parallel.h"

namespace idebench::exec {
namespace {

using query::AggregateSpec;
using query::AggregateType;
using query::BinDimension;
using query::BinningMode;
using query::QuerySpec;

constexpr int64_t kRows = 4000;
/// Small morsel override so a 4000-row fixture still spans several
/// morsels (tree depth > 1) in the invariance tests.
constexpr int64_t kSmallMorsel = 2 * kVectorBatchSize;

const int kThreadCounts[] = {1, 2, 4, 7};

/// Star catalog exercising every kernel: NaN aggregate inputs, dangling
/// foreign keys, string/int64/double columns, negative values.
std::shared_ptr<storage::Catalog> MakeWideCatalog(int64_t rows = kRows) {
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
  for (int64_t i = 0; i < rows; ++i) {
    fact->mutable_column(0).AppendDouble(rng.Uniform(-50.0, 150.0));
    fact->mutable_column(1).AppendDouble(
        rng.Bernoulli(0.05) ? std::numeric_limits<double>::quiet_NaN()
                            : rng.Uniform(0.0, 1000.0));
    fact->mutable_column(2).AppendString(groups[rng.UniformInt(0, 5)]);
    fact->mutable_column(3).AppendInt(rng.UniformInt(0, 12));
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

/// Flat (de-normalized) catalog with *integer-valued* doubles, so every
/// accumulator stream is exact and merge trees cannot differ from flat
/// folds — used where tests assert bitwise equality against references.
std::shared_ptr<storage::Catalog> MakeIntegralCatalog(int64_t rows) {
  storage::Schema schema({
      {"g", storage::DataType::kInt64, storage::AttributeKind::kNominal},
      {"v", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
      {"group", storage::DataType::kString, storage::AttributeKind::kNominal},
  });
  auto fact = std::make_shared<storage::Table>("fact", schema);
  const char* groups[] = {"x", "y", "z"};
  for (int64_t i = 0; i < rows; ++i) {
    fact->mutable_column(0).AppendInt(i / 100);  // deterministic bins
    fact->mutable_column(1).AppendDouble(static_cast<double>(i % 37));
    fact->mutable_column(2).AppendString(groups[i % 3]);
  }
  auto catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(catalog->AddTable(fact).ok());
  return catalog;
}

AggregateSpec Agg(AggregateType type, const std::string& column = "") {
  AggregateSpec a;
  a.type = type;
  a.column = column;
  return a;
}

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

/// Asserts two results agree: identical bin keys and metadata; estimates
/// and margins bit-identical when `tol == 0`, else within `tol` relative.
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

/// Compares every snapshot type of two aggregators.
void ExpectAggregatorsMatch(const BinnedAggregator& a,
                            const BinnedAggregator& b, double tol = 0.0) {
  EXPECT_EQ(a.rows_seen(), b.rows_seen());
  EXPECT_EQ(a.rows_matched(), b.rows_matched());
  ExpectResultsMatch(a.ExactResult(), b.ExactResult(), tol);
  ExpectResultsMatch(a.EstimateFromUniformSample(2 * kRows, 1.96),
                     b.EstimateFromUniformSample(2 * kRows, 1.96), tol);
  ExpectResultsMatch(a.EstimateFromWeightedSample(1.96),
                     b.EstimateFromWeightedSample(1.96), tol);
}

Result<BoundQuery> BindWithJoins(
    const QuerySpec& spec, const storage::Catalog& catalog,
    std::unique_ptr<JoinIndex>* join_out) {
  std::vector<const JoinIndex*> joins;
  auto required = BoundQuery::RequiredJoins(spec, catalog);
  IDB_RETURN_NOT_OK(required.status());
  if (!required->empty()) {
    IDB_ASSIGN_OR_RETURN(JoinIndex built,
                         JoinIndex::Build(catalog, catalog.foreign_keys()[0]));
    *join_out = std::make_unique<JoinIndex>(std::move(built));
    joins.push_back(join_out->get());
  }
  return BoundQuery::Bind(spec, catalog, joins);
}

/// The invariance harness: feeds `rows` with `weight` through
///  (1) the flat scalar reference,
///  (2) the morsel path at parallelism 1 (the reference reduction tree),
///  (3) the morsel path at parallelism {2, 4, 7}.
/// (2) and (3) must agree *bitwise*; against (1), counters are exact and
/// estimates/margins agree within `scalar_tol` (0 = bitwise there too).
/// Then the table's rows in order, at weight 1, as row runs (the scan
/// feed) must agree bitwise — candidate bits included — with the same
/// rows as an id list (a one-run sample) and with the scalar path, each
/// fed through the same morsels at every parallelism.
void RunThreadInvariance(const QuerySpec& spec,
                         const std::shared_ptr<storage::Catalog>& catalog,
                         const std::vector<int64_t>& rows, double weight,
                         double scalar_tol,
                         BinnedAggregatorOptions options = {}) {
  ASSERT_FALSE(rows.empty()) << "an empty feed agrees with any other";
  std::unique_ptr<JoinIndex> join;
  auto bound = BindWithJoins(spec, *catalog, &join);
  ASSERT_TRUE(bound.ok());

  BinnedAggregatorOptions scalar_options = options;
  scalar_options.enable_vectorized = false;
  BinnedAggregator scalar(&*bound, scalar_options);
  for (int64_t row : rows) scalar.ProcessRowWeighted(row, weight);

  // The rows as a one-run sample: every position at `weight`.
  aqp::StratifiedSample sample;
  sample.rows = rows;
  sample.weights.assign(rows.size(), weight);
  const FeedOrder order = FeedOrder::Sample(&sample);
  BinnedAggregator reference(&*bound, options);
  ASSERT_TRUE(reference.uses_vectorized());
  MorselProcess(&reference, order, 0, sample.size(), /*parallelism=*/1,
                kSmallMorsel);

  // Counters are integral: exact against the scalar reference always.
  EXPECT_EQ(scalar.rows_seen(), reference.rows_seen());
  EXPECT_EQ(scalar.rows_matched(), reference.rows_matched());
  ExpectAggregatorsMatch(scalar, reference, scalar_tol);

  for (int threads : kThreadCounts) {
    BinnedAggregator parallel(&*bound, options);
    MorselProcess(&parallel, order, 0, sample.size(), threads, kSmallMorsel);
    EXPECT_GT(parallel.partial_pool_size(), 0u);  // the morsel merge ran
    // Bit-identical across every thread count: the reduction tree is
    // fixed by the morsel decomposition, not by the schedule.
    ExpectAggregatorsMatch(reference, parallel, /*tol=*/0.0);
  }

  const int64_t table_rows = catalog->fact_table()->num_rows();
  aqp::StratifiedSample in_order;
  in_order.rows.resize(static_cast<size_t>(table_rows));
  std::iota(in_order.rows.begin(), in_order.rows.end(), 0);
  in_order.weights.assign(in_order.rows.size(), 1.0);
  BinnedAggregatorOptions recording = options;
  recording.record_matches = true;
  BinnedAggregatorOptions scalar_recording = recording;
  scalar_recording.enable_vectorized = false;
  BinnedAggregator scalar_runs(&*bound, scalar_recording);
  MorselProcess(&scalar_runs, FeedOrder::Scan(), 0, table_rows,
                /*parallelism=*/1, kSmallMorsel);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "runs at " << threads << " threads");
    BinnedAggregator runs(&*bound, recording);
    BinnedAggregator id_list(&*bound, recording);
    MorselProcess(&runs, FeedOrder::Scan(), 0, table_rows, threads,
                  kSmallMorsel);
    MorselProcess(&id_list, FeedOrder::Sample(&in_order), 0, table_rows,
                  threads, kSmallMorsel);
    EXPECT_GT(runs.partial_pool_size(), 0u);
    ExpectAggregatorsMatch(scalar_runs, runs, /*tol=*/0.0);
    ExpectAggregatorsMatch(id_list, runs, /*tol=*/0.0);
    EXPECT_EQ(scalar_runs.match_bits(), runs.match_bits());
    EXPECT_EQ(id_list.match_bits(), runs.match_bits());
  }
}

std::vector<int64_t> SequentialRows(int64_t n = kRows) {
  std::vector<int64_t> rows(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
  return rows;
}

std::vector<int64_t> ShuffledRowIds(uint64_t seed, int64_t n = kRows) {
  std::vector<int64_t> rows = SequentialRows(n);
  Rng rng(seed);
  rng.Shuffle(&rows);
  return rows;
}

// --- Thread-count invariance ------------------------------------------------

TEST(ThreadInvarianceTest, CountOnlyIsBitIdenticalToScalarReference) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "p";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount)};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  // COUNT accumulators are integers: merging is associative, so even the
  // scalar reference matches bit for bit.
  RunThreadInvariance(spec, catalog, ShuffledRowIds(11), 1.0,
                      /*scalar_tol=*/0.0);
}

TEST(ThreadInvarianceTest, AllAggregateTypes) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "p";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = AllAggs("value");
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  RunThreadInvariance(spec, catalog, SequentialRows(), 1.0, 1e-12);
  RunThreadInvariance(spec, catalog, ShuffledRowIds(13), 1.0, 1e-12);
}

TEST(ThreadInvarianceTest, FiltersWithNaNInputs) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "p";
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
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  RunThreadInvariance(spec, catalog, ShuffledRowIds(17), 1.0, 1e-12);
}

TEST(ThreadInvarianceTest, TwoDimensionalBinning) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "p";
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
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  RunThreadInvariance(spec, catalog, ShuffledRowIds(19), 1.0, 1e-12);
}

TEST(ThreadInvarianceTest, JoinedDimensionColumns) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "p";
  BinDimension d;
  d.column = "dlabel";  // reached through the join, with dangling keys
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kAvg, "dval"),
                     Agg(AggregateType::kSum, "value")};
  expr::Predicate dim_pred;
  dim_pred.column = "dval";
  dim_pred.op = expr::CompareOp::kRange;
  dim_pred.lo = -10.0;
  dim_pred.hi = 18.0;
  spec.filter.And(dim_pred);
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  RunThreadInvariance(spec, catalog, ShuffledRowIds(23), 1.0, 1e-12);
}

TEST(ThreadInvarianceTest, WeightedSamples) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "p";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = AllAggs("amount");
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  for (double weight : {4.0, 117.5}) {
    RunThreadInvariance(spec, catalog, ShuffledRowIds(29), weight, 1e-12);
  }
}

TEST(ThreadInvarianceTest, HashBinTableFallback) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "p";
  BinDimension d;
  d.column = "value";
  d.mode = BinningMode::kFixedCount;
  d.requested_bins = 64;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kSum, "value")};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  BinnedAggregatorOptions no_dense;
  no_dense.enable_dense_bins = false;
  RunThreadInvariance(spec, catalog, SequentialRows(), 1.0, 1e-12, no_dense);
  // Key space one over the limit: transparent hash fallback inside the
  // partials as well as the target.
  BinnedAggregatorOptions tiny_limit;
  tiny_limit.dense_key_limit = 63;
  RunThreadInvariance(spec, catalog, SequentialRows(), 1.0, 1e-12, tiny_limit);
}

TEST(ThreadInvarianceTest, RangeAndShuffledDriversAtDefaultMorselSize) {
  // Large integral-valued input spanning several *default-size* morsels:
  // every accumulator stream is exact, so scan and walk morsel feeds
  // must be bit-identical to the flat sequential path at any parallelism.
  constexpr int64_t kBig = 3 * kMorselRows + 12345;
  auto catalog = MakeIntegralCatalog(kBig);
  QuerySpec spec;
  spec.viz_name = "p";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount), Agg(AggregateType::kSum, "v"),
                     Agg(AggregateType::kMin, "v"),
                     Agg(AggregateType::kMax, "v")};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator sequential(&*bound);
  sequential.Process(FeedOrder::Scan(), 0, kBig);

  for (int threads : kThreadCounts) {
    BinnedAggregator ranged(&*bound);
    MorselProcess(&ranged, FeedOrder::Scan(), 0, kBig, threads);
    EXPECT_GT(ranged.partial_pool_size(), 0u);  // the morsel merge ran
    ExpectAggregatorsMatch(sequential, ranged, /*tol=*/0.0);
  }

  aqp::ShuffledIndex order(kBig);
  BinnedAggregator walk_seq(&*bound);
  walk_seq.Process(FeedOrder::Walk(&order, /*key=*/500), 0, kBig);
  for (int threads : {2, 7}) {
    BinnedAggregator walk_par(&*bound);
    MorselProcess(&walk_par, FeedOrder::Walk(&order, /*key=*/500), 0, kBig,
                  threads);
    EXPECT_GT(walk_par.partial_pool_size(), 0u);
    ExpectAggregatorsMatch(walk_seq, walk_par, /*tol=*/0.0);
  }
}

/// Walk windows inside the base, wrapping its ring or crossing into epoch
/// segments feed bit-identically — counters, results and candidate bits —
/// through `Process` (row runs for batches inside the base, id lists for
/// the rest), as one gathered id list, through the scalar path, and
/// through `MorselProcess` at 4 threads.  A morsel is at least one vector
/// batch of 1,024 positions, so the fixture is four times the walk
/// tests' (aqp_test.cc): 3,200 base rows and epochs of 800, with windows
/// of several morsels.
TEST(ThreadInvarianceTest, WalkWindowsThatWrapOrCrossEpochsFeedIdentically) {
  constexpr int64_t kBase = 3200;
  constexpr int64_t kEpoch = 800;
  auto catalog = MakeIntegralCatalog(kBase + 3 * kEpoch);
  QuerySpec spec;
  spec.viz_name = "p";
  BinDimension d;
  d.column = "g";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = AllAggs("v");
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregatorOptions recording;
  recording.record_matches = true;
  BinnedAggregatorOptions scalar_recording = recording;
  scalar_recording.enable_vectorized = false;

  struct Window {
    int64_t key, begin, end;
  };
  for (const int epochs : {0, 1, 3}) {
    aqp::ShuffledIndex index(kBase);
    for (int e = 0; e < epochs; ++e) {
      Rng rng = Rng(41).Fork(static_cast<uint64_t>(e));
      index.ExtendTo(index.size() + kEpoch, &rng);
    }
    const int64_t n = index.size();
    // A base window that never wraps, base windows that wrap the ring in
    // their first, second and third morsel, then windows from deep in the
    // base across every epoch.
    std::vector<Window> windows = {{0, 100, 3100},
                                   {kBase - 500, 0, 2500},
                                   {kBase - 1500, 0, 2500},
                                   {1000, 300, 2800}};
    if (epochs > 0) {
      windows.push_back({1000, kBase - 1800, n});
      windows.push_back({kBase - 100, kBase - 1200, n});
    }
    for (const Window& w : windows) {
      SCOPED_TRACE(::testing::Message() << epochs << " epochs, key " << w.key
                                        << ", [" << w.begin << ", " << w.end
                                        << ")");
      const FeedOrder order = FeedOrder::Walk(&index, w.key);
      BinnedAggregator flat(&*bound, recording);
      flat.Process(order, w.begin, w.end);
      std::vector<int64_t> rows(static_cast<size_t>(w.end - w.begin));
      index.GatherWalk(w.key, w.begin, w.end - w.begin, rows.data());
      BinnedAggregator id_list(&*bound, recording);
      id_list.ProcessBatch(rows.data(), w.end - w.begin);
      BinnedAggregator scalar(&*bound, scalar_recording);
      for (int64_t row : rows) scalar.ProcessRow(row);
      BinnedAggregator morsels(&*bound, recording);
      MorselProcess(&morsels, order, w.begin, w.end, /*parallelism=*/4,
                    /*morsel_rows=*/kVectorBatchSize);
      EXPECT_GT(morsels.partial_pool_size(), 0u);  // the morsel merge ran
      EXPECT_EQ(flat.rows_seen(), w.end - w.begin);
      for (const BinnedAggregator* other : {&id_list, &scalar, &morsels}) {
        ExpectAggregatorsMatch(flat, *other, /*tol=*/0.0);
        EXPECT_EQ(flat.match_bits(), other->match_bits());
      }
    }
  }
}

TEST(ThreadInvarianceTest, IncrementalFeedsAccumulateAcrossCalls) {
  auto catalog = MakeWideCatalog();
  QuerySpec spec;
  spec.viz_name = "p";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount)};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  // Two increments through the morsel path == one sequential feed
  // (COUNT: exact), mirroring how engines advance queries in slices.
  BinnedAggregator whole(&*bound);
  whole.Process(FeedOrder::Scan(), 0, kRows);
  BinnedAggregator sliced(&*bound);
  MorselProcess(&sliced, FeedOrder::Scan(), 0, kRows / 3, 4, kSmallMorsel);
  MorselProcess(&sliced, FeedOrder::Scan(), kRows / 3, kRows, 4, kSmallMorsel);
  EXPECT_GT(sliced.partial_pool_size(), 0u);  // the second slice merged
  ExpectAggregatorsMatch(whole, sliced, /*tol=*/0.0);
}

// --- MergeFrom unit tests ---------------------------------------------------

QuerySpec IntegralSpec(const storage::Catalog& catalog) {
  QuerySpec spec;
  spec.viz_name = "m";
  BinDimension d;
  d.column = "g";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = AllAggs("v");
  IDB_CHECK(spec.ResolveBins(catalog).ok());
  return spec;
}

TEST(MergeFromTest, DisjointKeySets) {
  auto catalog = MakeIntegralCatalog(2000);
  QuerySpec spec = IntegralSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  // Rows [0, 1000) bin to g 0..9, rows [1000, 2000) to g 10..19.
  BinnedAggregator left(&*bound);
  left.Process(FeedOrder::Scan(), 0, 1000);
  BinnedAggregator right(&*bound);
  right.Process(FeedOrder::Scan(), 1000, 2000);
  BinnedAggregator reference(&*bound);
  reference.Process(FeedOrder::Scan(), 0, 2000);

  left.MergeFrom(right);
  ExpectAggregatorsMatch(reference, left, /*tol=*/0.0);
}

TEST(MergeFromTest, OverlappingKeySets) {
  auto catalog = MakeIntegralCatalog(2000);
  QuerySpec spec = IntegralSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator left(&*bound);
  left.Process(FeedOrder::Scan(), 0, 1500);
  BinnedAggregator right(&*bound);
  right.Process(FeedOrder::Scan(), 500, 2000);  // bins 5..14 overlap left
  BinnedAggregator reference(&*bound);
  reference.Process(FeedOrder::Scan(), 0, 1500);
  reference.Process(FeedOrder::Scan(), 500, 2000);

  left.MergeFrom(right);
  ExpectAggregatorsMatch(reference, left, /*tol=*/0.0);
}

TEST(MergeFromTest, WeightedAccumulatorsMerge) {
  auto catalog = MakeIntegralCatalog(1200);
  QuerySpec spec = IntegralSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  const std::vector<int64_t> rows = SequentialRows(1200);
  BinnedAggregator left(&*bound);
  left.ProcessBatch(rows.data(), 600, /*weight=*/3.0);
  BinnedAggregator right(&*bound);
  right.ProcessBatch(rows.data() + 600, 600, /*weight=*/3.0);
  BinnedAggregator reference(&*bound);
  reference.ProcessBatch(rows.data(), 1200, /*weight=*/3.0);

  left.MergeFrom(right);
  ExpectAggregatorsMatch(reference, left, /*tol=*/0.0);
}

TEST(MergeFromTest, DenseHashBoundaryReconciliation) {
  auto catalog = MakeIntegralCatalog(2000);
  QuerySpec spec = IntegralSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregatorOptions hash_options;
  hash_options.enable_dense_bins = false;

  BinnedAggregator reference(&*bound);
  reference.Process(FeedOrder::Scan(), 0, 2000);

  // dense target <- hash source.
  {
    BinnedAggregator dense_target(&*bound);
    ASSERT_TRUE(dense_target.uses_dense_bins());
    BinnedAggregator hash_source(&*bound, hash_options);
    ASSERT_FALSE(hash_source.uses_dense_bins());
    dense_target.Process(FeedOrder::Scan(), 0, 800);
    hash_source.Process(FeedOrder::Scan(), 800, 2000);
    dense_target.MergeFrom(hash_source);
    ExpectAggregatorsMatch(reference, dense_target, /*tol=*/0.0);
  }
  // hash target <- dense source.
  {
    BinnedAggregator hash_target(&*bound, hash_options);
    BinnedAggregator dense_source(&*bound);
    hash_target.Process(FeedOrder::Scan(), 0, 800);
    dense_source.Process(FeedOrder::Scan(), 800, 2000);
    hash_target.MergeFrom(dense_source);
    ExpectAggregatorsMatch(reference, hash_target, /*tol=*/0.0);
  }
}

TEST(MergeFromTest, EmptySidesAreNoOps) {
  auto catalog = MakeIntegralCatalog(500);
  QuerySpec spec = IntegralSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator reference(&*bound);
  reference.Process(FeedOrder::Scan(), 0, 500);

  BinnedAggregator fed(&*bound);
  fed.Process(FeedOrder::Scan(), 0, 500);
  BinnedAggregator empty(&*bound);
  fed.MergeFrom(empty);  // merging empty changes nothing
  ExpectAggregatorsMatch(reference, fed, /*tol=*/0.0);

  BinnedAggregator target(&*bound);
  target.MergeFrom(fed);  // merging into empty adopts everything
  ExpectAggregatorsMatch(reference, target, /*tol=*/0.0);
}

TEST(MergeFromTest, PartialsShareCompiledKernels) {
  auto catalog = MakeIntegralCatalog(500);
  QuerySpec spec = IntegralSpec(*catalog);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  BinnedAggregator agg(&*bound);
  auto partial = agg.NewPartial();
  EXPECT_TRUE(partial->uses_vectorized());
  EXPECT_EQ(partial->uses_dense_bins(), agg.uses_dense_bins());
  EXPECT_EQ(partial->rows_seen(), 0);
  partial->Process(FeedOrder::Scan(), 0, 500);
  agg.MergeFrom(*partial);
  BinnedAggregator reference(&*bound);
  reference.Process(FeedOrder::Scan(), 0, 500);
  ExpectAggregatorsMatch(reference, agg, /*tol=*/0.0);
}

// --- Worker pool ------------------------------------------------------------

TEST(WorkerPoolTest, EveryTaskRunsExactlyOnce) {
  constexpr int64_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  WorkerPool::Shared().ParallelFor(kTasks, 7, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(WorkerPoolTest, NestedParallelForRunsInline) {
  std::atomic<int> total{0};
  WorkerPool::Shared().ParallelFor(4, 4, [&](int64_t) {
    WorkerPool::Shared().ParallelFor(8, 4,
                                     [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(WorkerPoolTest, ParallelismCapsParticipation) {
  // Grow the pool well beyond the next job's parallelism...
  WorkerPool::Shared().ParallelFor(16, 8, [](int64_t) {});
  // ...then verify a tasks > parallelism job never exceeds its cap, even
  // though idle workers are available.
  std::atomic<int> active{0};
  std::atomic<int> high_water{0};
  WorkerPool::Shared().ParallelFor(64, 2, [&](int64_t) {
    const int now = active.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    active.fetch_sub(1);
  });
  EXPECT_LE(high_water.load(), 2);
  EXPECT_GE(high_water.load(), 1);
}

TEST(WorkerPoolTest, SequentialFallbackForTinyWork) {
  std::atomic<int> total{0};
  WorkerPool::Shared().ParallelFor(1, 8, [&](int64_t) { total.fetch_add(1); });
  WorkerPool::Shared().ParallelFor(3, 1, [&](int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 4);
}

// --- Engine-level invariance ------------------------------------------------

/// Rows large enough that engine scans span several default morsels.
constexpr int64_t kEngineRows = 2 * kMorselRows + 7777;

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

QuerySpec ExactAggSpec(const storage::Catalog& catalog) {
  // COUNT/MIN/MAX accumulators are associative, so results must be
  // bit-identical across *all* thread settings including the threads=1
  // sequential code path.
  QuerySpec spec;
  spec.viz_name = "e";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount), Agg(AggregateType::kMin, "v"),
                     Agg(AggregateType::kMax, "v")};
  IDB_CHECK(spec.ResolveBins(catalog).ok());
  return spec;
}

TEST(EngineThreadInvarianceTest, BlockingEngine) {
  auto catalog = MakeIntegralCatalog(kEngineRows);
  QuerySpec spec = ExactAggSpec(*catalog);
  std::vector<query::QueryResult> results;
  for (int threads : kThreadCounts) {
    engines::BlockingEngineConfig config;
    config.execution_threads = threads;
    engines::BlockingEngine engine(config);
    ASSERT_TRUE(engine.Prepare(catalog).ok());
    results.push_back(RunEngineToCompletion(&engine, spec));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectResultsMatch(results[0], results[i], /*tol=*/0.0);
  }
}

TEST(EngineThreadInvarianceTest, BlockingEngineSumWithinUlps) {
  auto catalog = MakeWideCatalog(20'000);
  QuerySpec spec;
  spec.viz_name = "e";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kSum, "value"),
                     Agg(AggregateType::kAvg, "amount")};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());

  auto run = [&](int threads) {
    engines::BlockingEngineConfig config;
    config.execution_threads = threads;
    engines::BlockingEngine engine(config);
    IDB_CHECK(engine.Prepare(catalog).ok());
    return RunEngineToCompletion(&engine, spec);
  };
  const query::QueryResult t1 = run(1);
  const query::QueryResult t2 = run(2);
  const query::QueryResult t4 = run(4);
  const query::QueryResult t7 = run(7);
  // Identical across every morsel-path thread count...
  ExpectResultsMatch(t2, t4, /*tol=*/0.0);
  ExpectResultsMatch(t2, t7, /*tol=*/0.0);
  // ...and within regrouping ulps of the sequential path.
  ExpectResultsMatch(t1, t2, /*tol=*/1e-12);
}

TEST(EngineThreadInvarianceTest, ProgressiveEngine) {
  auto catalog = MakeIntegralCatalog(kEngineRows);
  QuerySpec spec = ExactAggSpec(*catalog);
  std::vector<query::QueryResult> results;
  for (int threads : kThreadCounts) {
    engines::ProgressiveEngineConfig config;
    config.execution_threads = threads;
    engines::ProgressiveEngine engine(config);
    ASSERT_TRUE(engine.Prepare(catalog).ok());
    results.push_back(RunEngineToCompletion(&engine, spec));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectResultsMatch(results[0], results[i], /*tol=*/0.0);
  }
}

TEST(EngineThreadInvarianceTest, OnlineEngine) {
  auto catalog = MakeIntegralCatalog(kEngineRows);
  QuerySpec spec;
  spec.viz_name = "e";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount)};  // supported online
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  std::vector<query::QueryResult> results;
  for (int threads : kThreadCounts) {
    engines::OnlineEngineConfig config;
    config.execution_threads = threads;
    engines::OnlineEngine engine(config);
    ASSERT_TRUE(engine.Prepare(catalog).ok());
    results.push_back(RunEngineToCompletion(&engine, spec));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectResultsMatch(results[0], results[i], /*tol=*/0.0);
  }
}

TEST(EngineThreadInvarianceTest, StratifiedEngine) {
  auto catalog = MakeIntegralCatalog(60'000);
  QuerySpec spec;
  spec.viz_name = "e";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount), Agg(AggregateType::kSum, "v")};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());

  auto run = [&](int threads) {
    engines::StratifiedEngineConfig config;
    config.stratify_by = "group";
    config.sampling_rate = 0.5;
    config.execution_threads = threads;
    engines::StratifiedEngine engine(config);
    IDB_CHECK(engine.Prepare(catalog).ok());
    return RunEngineToCompletion(&engine, spec);
  };
  const query::QueryResult t1 = run(1);
  const query::QueryResult t2 = run(2);
  const query::QueryResult t4 = run(4);
  const query::QueryResult t7 = run(7);
  // Stratum weights are non-integral, so the morsel-path results agree
  // bitwise with each other and to ulps with the sequential path.
  ExpectResultsMatch(t2, t4, /*tol=*/0.0);
  ExpectResultsMatch(t2, t7, /*tol=*/0.0);
  ExpectResultsMatch(t1, t2, /*tol=*/1e-12);
}

TEST(GroundTruthOracleTest, ParallelScanIsThreadCountIndependent) {
  auto catalog = MakeWideCatalog(20'000);
  QuerySpec spec;
  spec.viz_name = "gt";
  BinDimension d;
  d.column = "group";
  d.mode = BinningMode::kNominal;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kSum, "value")};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());

  // The oracle always runs the morsel path, so even real-valued sums are
  // bit-identical across thread settings.
  driver::GroundTruthOracle one(catalog, /*threads=*/1);
  driver::GroundTruthOracle many(catalog, /*threads=*/5);
  auto a = one.Get(spec);
  auto b = many.Get(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectResultsMatch(**a, **b, /*tol=*/0.0);
}

TEST(RegistryTest, CreateEngineThreadsParameter) {
  for (const std::string& name : engines::BuiltinEngineNames()) {
    auto engine = engines::CreateEngine(name, 0, 4);
    EXPECT_TRUE(engine.ok()) << name;
  }
  EXPECT_FALSE(engines::CreateEngine("blocking", 0, -2).ok());
}

TEST(SettingsTest, ThreadsValidation) {
  driver::Settings s;
  s.threads = 6;
  EXPECT_TRUE(s.Validate().ok());
  s.threads = -1;
  EXPECT_FALSE(s.Validate().ok());
  s.threads = 0;  // hardware concurrency
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_EQ(ResolveThreadCount(3), 3);
}

}  // namespace
}  // namespace idebench::exec
