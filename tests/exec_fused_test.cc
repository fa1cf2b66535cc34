/// \file exec_fused_test.cc
/// Differential tests for the fused single-pass kernels and zone-map
/// block pruning: the fused pipeline (vertical branchless bin keys,
/// gather dedup) must produce results bit-identical to the scalar
/// reference across every (op, type, join, bin, agg) combination —
/// including NaN doubles, empty IN-sets, string dictionary codes absent
/// from the bin config or added after compile — and zone-map pruning
/// must never change any result, only skip provably-empty blocks.

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "exec/join_index.h"
#include "exec/parallel.h"
#include "exec/vectorized.h"
#include "storage/catalog.h"
#include "tests/test_util.h"

namespace idebench::exec {
namespace {

using query::AggregateSpec;
using query::AggregateType;
using query::BinDimension;
using query::BinningMode;
using query::QuerySpec;

constexpr int64_t kRows = 3000;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Star catalog exercising every kernel shape: int64/double/string fact
/// columns (with NaN doubles), a joined dimension with dangling keys.
std::shared_ptr<storage::Catalog> MakeCatalog() {
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
  const char* groups[] = {"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"};
  Rng rng(29);
  for (int64_t i = 0; i < kRows; ++i) {
    fact->mutable_column(0).AppendDouble(rng.Uniform(-40.0, 160.0));
    fact->mutable_column(1).AppendDouble(
        rng.Bernoulli(0.07) ? kNaN : rng.Uniform(-10.0, 900.0));
    fact->mutable_column(2).AppendString(groups[rng.UniformInt(0, 9)]);
    fact->mutable_column(3).AppendInt(rng.UniformInt(-3, 14));
    fact->mutable_column(4).AppendInt(
        rng.Bernoulli(0.12) ? 77 : rng.UniformInt(0, 7));
  }

  storage::Schema dim_schema({
      {"dim_id", storage::DataType::kInt64, storage::AttributeKind::kNominal},
      {"dlabel", storage::DataType::kString, storage::AttributeKind::kNominal},
      {"dval", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
  });
  auto dim = std::make_shared<storage::Table>("dims", dim_schema);
  const char* dlabels[] = {"n", "s", "e", "w"};
  for (int64_t i = 0; i < 8; ++i) {
    dim->mutable_column(0).AppendInt(i);
    dim->mutable_column(1).AppendString(dlabels[i % 4]);
    dim->mutable_column(2).AppendDouble(static_cast<double>(i) * 1.5 - 2.0);
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

void ExpectBitIdentical(const query::QueryResult& a,
                        const query::QueryResult& b, const char* what) {
  EXPECT_EQ(a.rows_processed, b.rows_processed) << what;
  ASSERT_EQ(a.bins.size(), b.bins.size()) << what;
  for (const auto& [key, bin] : a.bins) {
    auto it = b.bins.find(key);
    ASSERT_NE(it, b.bins.end()) << what << ": bin " << key << " missing";
    ASSERT_EQ(bin.values.size(), it->second.values.size()) << what;
    for (size_t i = 0; i < bin.values.size(); ++i) {
      EXPECT_EQ(bin.values[i].estimate, it->second.values[i].estimate)
          << what << ": estimate, bin " << key << " agg " << i;
      EXPECT_EQ(bin.values[i].margin, it->second.values[i].margin)
          << what << ": margin, bin " << key << " agg " << i;
    }
  }
}

/// Feeds the same rows through scalar and fused aggregators and requires
/// bit-identical state and snapshots from both.
void RunDifferential(const QuerySpec& spec,
                     const std::shared_ptr<storage::Catalog>& catalog,
                     const std::vector<int64_t>& rows, double weight = 1.0) {
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
  BinnedAggregator fused(&*bound);
  ASSERT_TRUE(fused.uses_vectorized());

  for (int64_t row : rows) scalar.ProcessRowWeighted(row, weight);
  fused.ProcessBatch(rows.data(), static_cast<int64_t>(rows.size()), weight);

  EXPECT_EQ(scalar.rows_seen(), fused.rows_seen());
  EXPECT_EQ(scalar.rows_matched(), fused.rows_matched());
  ExpectBitIdentical(scalar.ExactResult(), fused.ExactResult(),
                     "scalar vs fused exact");
  ExpectBitIdentical(
      scalar.EstimateFromUniformSample(2 * kRows, 1.96),
      fused.EstimateFromUniformSample(2 * kRows, 1.96),
      "scalar vs fused uniform");
  ExpectBitIdentical(scalar.EstimateFromWeightedSample(1.96),
                     fused.EstimateFromWeightedSample(1.96),
                     "scalar vs fused weighted");
}

std::vector<int64_t> ShuffledRows(uint64_t seed, int64_t n = kRows) {
  Rng rng(seed);
  std::vector<int64_t> rows(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(rows[static_cast<size_t>(i)],
              rows[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  return rows;
}

QuerySpec BaseSpec(const std::shared_ptr<storage::Catalog>& catalog,
                   const std::string& bin_column, BinningMode mode,
                   int64_t bins = 12) {
  QuerySpec spec;
  spec.viz_name = "fused";
  BinDimension d;
  d.column = bin_column;
  d.mode = mode;
  d.requested_bins = bins;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kSum, "amount"),
                     Agg(AggregateType::kAvg, "value"),
                     Agg(AggregateType::kMin, "amount"),
                     Agg(AggregateType::kMax, "value")};
  IDB_CHECK(spec.ResolveBins(*catalog).ok());
  return spec;
}

// --- (op, type, join) sweep ------------------------------------------------

TEST(FusedDifferentialTest, AllOpsOnFactAndJoinedColumns) {
  auto catalog = MakeCatalog();
  struct Case {
    std::string column;
    double lo, hi, value;
  };
  // Fact int64, fact double (with NaN), fact string (dictionary codes),
  // joined int64, joined double, joined string.
  const std::vector<Case> cases = {
      {"code", 2.0, 9.0, 5.0},    {"amount", 100.0, 600.0, 250.0},
      {"group", 1.0, 7.0, 3.0},   {"dim_id", 1.0, 6.0, 4.0},
      {"dval", -1.0, 6.5, 2.5},   {"dlabel", 0.0, 3.0, 1.0},
  };
  const expr::CompareOp ops[] = {
      expr::CompareOp::kEq, expr::CompareOp::kNeq,  expr::CompareOp::kLt,
      expr::CompareOp::kLe, expr::CompareOp::kGt,   expr::CompareOp::kGe,
      expr::CompareOp::kRange, expr::CompareOp::kIn,
  };
  const std::vector<int64_t> rows = ShuffledRows(5);
  for (const Case& c : cases) {
    for (expr::CompareOp op : ops) {
      QuerySpec spec =
          BaseSpec(catalog, "value", BinningMode::kFixedCount, 16);
      expr::Predicate p;
      p.column = c.column;
      p.op = op;
      p.value = c.value;
      p.lo = c.lo;
      p.hi = c.hi;
      if (op == expr::CompareOp::kIn) {
        p.set_values = {c.lo, c.value, c.hi};
      }
      spec.filter.And(p);
      SCOPED_TRACE(c.column + "/" + expr::CompareOpName(op));
      RunDifferential(spec, catalog, rows);
    }
  }
}

TEST(FusedDifferentialTest, EmptyInSetSelectsNothing) {
  auto catalog = MakeCatalog();
  QuerySpec spec = BaseSpec(catalog, "value", BinningMode::kFixedCount);
  expr::Predicate p;
  p.column = "code";
  p.op = expr::CompareOp::kIn;
  p.set_values = {};  // empty IN: matches no row on every path
  spec.filter.And(p);
  RunDifferential(spec, catalog, ShuffledRows(6));
}

TEST(FusedDifferentialTest, NaNFilterColumnNeverMatches) {
  auto catalog = MakeCatalog();
  // kNeq over a NaN-bearing double column is the trap case: IEEE says
  // NaN != x is true, but the scalar path drops NaN rows.
  for (expr::CompareOp op :
       {expr::CompareOp::kNeq, expr::CompareOp::kLt, expr::CompareOp::kEq}) {
    QuerySpec spec = BaseSpec(catalog, "code", BinningMode::kNominal);
    expr::Predicate p;
    p.column = "amount";
    p.op = op;
    p.value = 300.0;
    spec.filter.And(p);
    SCOPED_TRACE(expr::CompareOpName(op));
    RunDifferential(spec, catalog, ShuffledRows(7));
  }
}

// --- Bin shapes ------------------------------------------------------------

TEST(FusedDifferentialTest, StringNominalBins) {
  auto catalog = MakeCatalog();
  // Fact string dimension: dictionary codes binned by truncation.
  RunDifferential(BaseSpec(catalog, "group", BinningMode::kNominal), catalog,
                  ShuffledRows(8));
  // Joined string dimension: codes loaded behind the join mapping.
  RunDifferential(BaseSpec(catalog, "dlabel", BinningMode::kNominal),
                  catalog, ShuffledRows(9));
}

TEST(FusedDifferentialTest, StringNominalSharedWithAggregate) {
  auto catalog = MakeCatalog();
  QuerySpec spec = BaseSpec(catalog, "group", BinningMode::kNominal);
  // SUM over the binned string column itself (sums dictionary codes):
  // the aggregate reads the stashed code lane (gather dedup).
  spec.aggregates.push_back(Agg(AggregateType::kSum, "group"));
  RunDifferential(spec, catalog, ShuffledRows(10));
}

TEST(FusedDifferentialTest, DictionaryCodesAbsentFromBinConfig) {
  auto catalog = MakeCatalog();
  QuerySpec spec = BaseSpec(catalog, "group", BinningMode::kNominal);
  // Narrow the resolved bin range below the dictionary: codes 0..1 and
  // 6..9 must map to no bin on every path.
  spec.bins[0].lo = 2.0;
  spec.bins[0].bin_count = 4;
  RunDifferential(spec, catalog, ShuffledRows(11));
}

TEST(FusedDifferentialTest, StringCodesAddedAfterCompileLandInNoBin) {
  auto catalog = MakeCatalog();
  std::shared_ptr<storage::Table> fact = catalog->GetTableShared("fact");
  // Reserve first, as Ingestor::Create does: the compiled kernels keep
  // raw column pointers, which an append past capacity would move.
  fact->Reserve(2 * kRows);
  QuerySpec direct = BaseSpec(catalog, "group", BinningMode::kNominal);
  QuerySpec shared = direct;
  shared.aggregates.push_back(Agg(AggregateType::kSum, "group"));
  auto bound_direct = BoundQuery::Bind(direct, *catalog);
  auto bound_shared = BoundQuery::Bind(shared, *catalog);
  ASSERT_TRUE(bound_direct.ok() && bound_shared.ok());

  // Compile before the dictionary grows.
  BinnedAggregatorOptions scalar_options;
  scalar_options.enable_vectorized = false;
  std::vector<std::unique_ptr<BinnedAggregator>> scalar, fused;
  for (const BoundQuery* bound : {&*bound_direct, &*bound_shared}) {
    scalar.push_back(std::make_unique<BinnedAggregator>(bound, scalar_options));
    fused.push_back(std::make_unique<BinnedAggregator>(bound));
    ASSERT_TRUE(fused.back()->uses_vectorized());
  }

  // Every third appended row carries a string the dictionary lacks, so
  // its code lies past the compiled bin range.
  Rng rng(37);
  int64_t known = 0;
  for (int64_t i = 0; i < kRows; ++i) {
    fact->mutable_column(0).AppendDouble(rng.Uniform(-40.0, 160.0));
    fact->mutable_column(1).AppendDouble(rng.Uniform(-10.0, 900.0));
    const bool late = i % 3 == 0;
    fact->mutable_column(2).AppendString(late ? "late" + std::to_string(i)
                                              : "c");
    fact->mutable_column(3).AppendInt(rng.UniformInt(-3, 14));
    fact->mutable_column(4).AppendInt(rng.UniformInt(0, 7));
    known += late ? 0 : 1;
  }
  std::vector<int64_t> rows(static_cast<size_t>(kRows));
  std::iota(rows.begin(), rows.end(), kRows);

  for (size_t q = 0; q < fused.size(); ++q) {
    SCOPED_TRACE(q == 0 ? "direct" : "shared");
    scalar[q]->ProcessBatch(rows.data(), kRows);
    fused[q]->ProcessBatch(rows.data(), kRows);
    EXPECT_EQ(scalar[q]->rows_matched(), known);
    EXPECT_EQ(fused[q]->rows_matched(), known);
    ExpectBitIdentical(scalar[q]->ExactResult(), fused[q]->ExactResult(),
                       "scalar vs fused after dictionary growth");
  }
}

TEST(FusedDifferentialTest, PowerOfTwoWidthUsesExactReciprocal) {
  auto catalog = MakeCatalog();
  QuerySpec spec = BaseSpec(catalog, "value", BinningMode::kFixedCount);
  // Manually resolved fixed-width config with a power-of-two width: the
  // fused kernel takes the inv-multiply variant, which must round
  // identically to the division.
  spec.bins[0].mode = BinningMode::kFixedWidth;
  spec.bins[0].lo = -64.0;
  spec.bins[0].width = 8.0;
  spec.bins[0].bin_count = 32;
  RunDifferential(spec, catalog, ShuffledRows(12));

  spec.bins[0].width = 7.5;  // non-power-of-two: division variant
  RunDifferential(spec, catalog, ShuffledRows(13));
}

TEST(FusedDifferentialTest, TwoDimensionalCombinations) {
  auto catalog = MakeCatalog();
  const std::vector<int64_t> rows = ShuffledRows(14);
  // string x quantitative, int-nominal x joined-quantitative,
  // joined-string x string.
  const std::vector<std::pair<std::string, std::string>> dims = {
      {"group", "value"}, {"code", "dval"}, {"dlabel", "group"}};
  for (const auto& [c0, c1] : dims) {
    QuerySpec spec;
    spec.viz_name = "fused2d";
    BinDimension d0;
    d0.column = c0;
    d0.mode = BinningMode::kNominal;
    BinDimension d1;
    d1.column = c1;
    d1.mode = c1 == "group" ? BinningMode::kNominal
                            : BinningMode::kFixedCount;
    d1.requested_bins = 10;
    spec.bins = {d0, d1};
    spec.aggregates = {Agg(AggregateType::kCount),
                       Agg(AggregateType::kAvg, "amount")};
    ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
    expr::Predicate p;
    p.column = "value";
    p.op = expr::CompareOp::kRange;
    p.lo = -20.0;
    p.hi = 140.0;
    spec.filter.And(p);
    SCOPED_TRACE(c0 + " x " + c1);
    RunDifferential(spec, catalog, rows);
  }
}

TEST(FusedDifferentialTest, AggregateSharesBinnedDimension) {
  auto catalog = MakeCatalog();
  // AVG/SUM over the binned quantitative column: the stashed value lane
  // must feed the aggregates (no re-gather) with bit-exact values, NaNs
  // included.
  QuerySpec spec = BaseSpec(catalog, "amount", BinningMode::kFixedCount);
  spec.aggregates.push_back(Agg(AggregateType::kAvg, "amount"));
  expr::Predicate p;
  p.column = "code";
  p.op = expr::CompareOp::kGe;
  p.value = 1.0;
  spec.filter.And(p);
  RunDifferential(spec, catalog, ShuffledRows(15));
}

TEST(FusedDifferentialTest, WeightedFeedsAndCanonicalPair) {
  auto catalog = MakeCatalog();
  // COUNT + AVG (the specialized dense agg-set kernel) under unit and
  // non-unit weights.
  QuerySpec spec;
  spec.viz_name = "pair";
  BinDimension d;
  d.column = "value";
  d.mode = BinningMode::kFixedCount;
  d.requested_bins = 25;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kAvg, "amount")};
  ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
  expr::Predicate p;
  p.column = "value";
  p.op = expr::CompareOp::kRange;
  p.lo = 0.0;
  p.hi = 120.0;
  spec.filter.And(p);
  RunDifferential(spec, catalog, ShuffledRows(16));
  RunDifferential(spec, catalog, ShuffledRows(17), /*weight=*/3.25);
}

TEST(FusedDifferentialTest, RandomizedTwentySeedSweep) {
  auto catalog = MakeCatalog();
  const char* bin_cols[] = {"value", "amount", "group", "code", "dval",
                            "dlabel"};
  const char* filter_cols[] = {"value", "amount", "group", "code", "dval"};
  const char* agg_cols[] = {"value", "amount", "group", "dval"};
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(1000 + seed);
    QuerySpec spec;
    spec.viz_name = "rand";
    BinDimension d;
    d.column = bin_cols[rng.UniformInt(0, 5)];
    const bool nominal = d.column == std::string("group") ||
                         d.column == std::string("dlabel") ||
                         d.column == std::string("code");
    d.mode = nominal ? BinningMode::kNominal : BinningMode::kFixedCount;
    d.requested_bins = rng.UniformInt(4, 24);
    spec.bins = {d};
    if (rng.Bernoulli(0.4)) {
      BinDimension d2;
      d2.column = "group";
      d2.mode = BinningMode::kNominal;
      if (d.column != d2.column) spec.bins.push_back(d2);
    }
    spec.aggregates = {Agg(AggregateType::kCount)};
    const int naggs = static_cast<int>(rng.UniformInt(1, 3));
    for (int a = 0; a < naggs; ++a) {
      const AggregateType types[] = {AggregateType::kSum, AggregateType::kAvg,
                                     AggregateType::kMin,
                                     AggregateType::kMax};
      spec.aggregates.push_back(
          Agg(types[rng.UniformInt(0, 3)], agg_cols[rng.UniformInt(0, 3)]));
    }
    const int nfilters = static_cast<int>(rng.UniformInt(0, 2));
    for (int f = 0; f < nfilters; ++f) {
      expr::Predicate p;
      p.column = filter_cols[rng.UniformInt(0, 4)];
      const expr::CompareOp ops[] = {expr::CompareOp::kRange,
                                     expr::CompareOp::kIn,
                                     expr::CompareOp::kGe,
                                     expr::CompareOp::kNeq};
      p.op = ops[rng.UniformInt(0, 3)];
      p.lo = rng.Uniform(-20.0, 60.0);
      p.hi = p.lo + rng.Uniform(1.0, 120.0);
      p.value = rng.Uniform(-5.0, 12.0);
      if (p.op == expr::CompareOp::kIn) {
        const int k = static_cast<int>(rng.UniformInt(0, 4));
        for (int s = 0; s < k; ++s) {
          p.set_values.push_back(std::floor(rng.Uniform(-3.0, 12.0)));
        }
      }
      spec.filter.And(p);
    }
    ASSERT_TRUE(spec.ResolveBins(*catalog).ok());
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunDifferential(spec, catalog, ShuffledRows(seed),
                    rng.Bernoulli(0.3) ? rng.Uniform(0.5, 4.0) : 1.0);
  }
}

// --- Zone-map pruning ------------------------------------------------------

/// Time-ordered catalog spanning several zone blocks: `day` increases
/// monotonically (the append-ordered case zone maps exist for), `metric`
/// is random, `tag` cycles a small dictionary.
std::shared_ptr<storage::Catalog> MakeClusteredCatalog(int64_t rows) {
  storage::Schema schema({
      {"day", storage::DataType::kInt64,
       storage::AttributeKind::kQuantitative},
      {"metric", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
      {"tag", storage::DataType::kString, storage::AttributeKind::kNominal},
  });
  auto table = std::make_shared<storage::Table>("events", schema);
  const char* tags[] = {"x", "y", "z"};
  Rng rng(31);
  const int64_t rows_per_day = rows / 64;
  for (int64_t i = 0; i < rows; ++i) {
    table->mutable_column(0).AppendInt(i / rows_per_day);
    table->mutable_column(1).AppendDouble(rng.Uniform(0.0, 100.0));
    table->mutable_column(2).AppendString(tags[i % 3]);
  }
  auto catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(catalog->AddTable(table).ok());
  return catalog;
}

QuerySpec DayWindowSpec(const std::shared_ptr<storage::Catalog>& catalog,
                        double lo, double hi) {
  QuerySpec spec;
  spec.viz_name = "days";
  BinDimension d;
  d.column = "metric";
  d.mode = BinningMode::kFixedCount;
  d.requested_bins = 10;
  spec.bins = {d};
  spec.aggregates = {Agg(AggregateType::kCount),
                     Agg(AggregateType::kSum, "metric")};
  IDB_CHECK(spec.ResolveBins(*catalog).ok());
  expr::Predicate p;
  p.column = "day";
  p.op = expr::CompareOp::kRange;
  p.lo = lo;
  p.hi = hi;
  spec.filter.And(p);
  return spec;
}

TEST(ZonePruneTest, PrunedScanIsBitIdenticalAndSkipsBlocks) {
  const int64_t rows = 4 * storage::kZoneMapBlockRows;  // 4 zone blocks
  auto catalog = MakeClusteredCatalog(rows);
  QuerySpec spec = DayWindowSpec(catalog, 5.0, 12.0);  // ~1 block of days
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregatorOptions no_prune;
  no_prune.enable_zone_pruning = false;
  BinnedAggregator pruned(&*bound);
  BinnedAggregator unpruned(&*bound, no_prune);
  pruned.ProcessRange(0, rows);
  unpruned.ProcessRange(0, rows);

  EXPECT_GT(pruned.zone_rows_skipped(), 0);
  EXPECT_GT(pruned.zone_blocks_skipped(), 0);
  EXPECT_EQ(unpruned.zone_rows_skipped(), 0);
  EXPECT_EQ(pruned.rows_seen(), unpruned.rows_seen());
  EXPECT_EQ(pruned.rows_matched(), unpruned.rows_matched());
  ExpectBitIdentical(pruned.ExactResult(), unpruned.ExactResult(),
                     "pruned vs unpruned");
}

TEST(ZonePruneTest, MorselDispatchSkipsAndStaysThreadInvariant) {
  const int64_t rows = 4 * storage::kZoneMapBlockRows;
  auto catalog = MakeClusteredCatalog(rows);
  QuerySpec spec = DayWindowSpec(catalog, 40.0, 44.0);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregatorOptions no_prune;
  no_prune.enable_zone_pruning = false;
  BinnedAggregator reference(&*bound, no_prune);
  reference.ProcessRange(0, rows);

  for (int threads : {1, 4}) {
    BinnedAggregator agg(&*bound);
    MorselProcessRange(&agg, 0, rows, threads);
    SCOPED_TRACE(threads);
    EXPECT_GT(agg.zone_rows_skipped(), 0);
    EXPECT_EQ(agg.rows_seen(), reference.rows_seen());
    EXPECT_EQ(agg.rows_matched(), reference.rows_matched());
    ExpectBitIdentical(agg.ExactResult(), reference.ExactResult(),
                       "morsel pruned vs reference");
  }
}

TEST(ZonePruneTest, BoundaryValuesNeverPruneMatchingBlocks) {
  const int64_t rows = 3 * storage::kZoneMapBlockRows;
  auto catalog = MakeClusteredCatalog(rows);
  const storage::Column* day =
      catalog->fact_table()->ColumnByName("day");
  const auto& zones = day->zone_map();
  ASSERT_EQ(zones.size(), 3u);
  // Probe exactly at every block's min and max (range lo == block max,
  // hi == block min + 1, equality at both edges): pruning is sound only
  // if none of these drops a matching row.
  for (const storage::ZoneEntry& z : zones) {
    for (double probe : {z.min, z.max}) {
      for (auto make : {+[](double v) {
             expr::Predicate p;
             p.column = "day";
             p.op = expr::CompareOp::kEq;
             p.value = v;
             return p;
           },
           +[](double v) {
             expr::Predicate p;
             p.column = "day";
             p.op = expr::CompareOp::kRange;
             p.lo = v;
             p.hi = v + 1.0;
             return p;
           }}) {
        QuerySpec spec = DayWindowSpec(catalog, 0.0, 1.0);
        spec.filter = expr::FilterExpr({make(probe)});
        auto bound = BoundQuery::Bind(spec, *catalog);
        ASSERT_TRUE(bound.ok());
        BinnedAggregatorOptions no_prune;
        no_prune.enable_zone_pruning = false;
        BinnedAggregator pruned(&*bound);
        BinnedAggregator unpruned(&*bound, no_prune);
        pruned.ProcessRange(0, rows);
        unpruned.ProcessRange(0, rows);
        EXPECT_EQ(pruned.rows_matched(), unpruned.rows_matched())
            << "probe " << probe;
        ExpectBitIdentical(pruned.ExactResult(), unpruned.ExactResult(),
                           "boundary probe");
      }
    }
  }
}

TEST(ZonePruneTest, RecordingAggregatorKeepsWalkPositions) {
  const int64_t rows = 3 * storage::kZoneMapBlockRows;
  auto catalog = MakeClusteredCatalog(rows);
  QuerySpec spec = DayWindowSpec(catalog, 30.0, 35.0);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregatorOptions record;
  record.record_matches = true;
  BinnedAggregatorOptions record_no_prune = record;
  record_no_prune.enable_zone_pruning = false;

  for (int threads : {1, 4}) {
    BinnedAggregator pruned(&*bound, record);
    BinnedAggregator unpruned(&*bound, record_no_prune);
    MorselProcessRange(&pruned, 0, rows, threads);
    MorselProcessRange(&unpruned, 0, rows, threads);
    ASSERT_EQ(pruned.matched_rows().size(), unpruned.matched_rows().size());
    for (size_t i = 0; i < pruned.matched_rows().size(); ++i) {
      EXPECT_EQ(pruned.matched_rows()[i].pos, unpruned.matched_rows()[i].pos);
      EXPECT_EQ(pruned.matched_rows()[i].row, unpruned.matched_rows()[i].row);
    }
  }
}

TEST(ZonePruneTest, ShuffledFeedsNeverPrune) {
  const int64_t rows = 2 * storage::kZoneMapBlockRows;
  auto catalog = MakeClusteredCatalog(rows);
  QuerySpec spec = DayWindowSpec(catalog, 5.0, 6.0);
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());
  Rng rng(3);
  aqp::ShuffledIndex order(rows, &rng);
  BinnedAggregator agg(&*bound);
  agg.ProcessWalk(order, /*key=*/0, 0, rows);
  EXPECT_EQ(agg.zone_rows_skipped(), 0);
  EXPECT_EQ(agg.rows_seen(), rows);
}

// --- Partial pooling -------------------------------------------------------

TEST(PartialPoolTest, MorselRunsReusePartials) {
  const int64_t rows = 4 * storage::kZoneMapBlockRows;
  auto catalog = MakeClusteredCatalog(rows);
  QuerySpec spec = DayWindowSpec(catalog, 0.0, 64.0);  // matches everywhere
  auto bound = BoundQuery::Bind(spec, *catalog);
  ASSERT_TRUE(bound.ok());

  BinnedAggregator agg(&*bound);
  EXPECT_EQ(agg.partial_pool_size(), 0u);
  MorselProcessRange(&agg, 0, rows, /*parallelism=*/2);
  const size_t pooled = agg.partial_pool_size();
  EXPECT_GT(pooled, 0u);
  // A second dispatch reuses the pooled partials instead of growing.
  MorselProcessRange(&agg, 0, rows, /*parallelism=*/2);
  EXPECT_EQ(agg.partial_pool_size(), pooled);

  BinnedAggregator fresh(&*bound);
  MorselProcessRange(&fresh, 0, rows, /*parallelism=*/2);
  BinnedAggregator twice(&*bound);
  MorselProcessRange(&twice, 0, rows / 2, /*parallelism=*/2);
  MorselProcessRange(&twice, rows / 2, rows, /*parallelism=*/2);
  ExpectBitIdentical(fresh.ExactResult(), twice.ExactResult(),
                     "pooled continuation");

  agg.Reset();
  EXPECT_EQ(agg.partial_pool_size(), 0u);
}

}  // namespace
}  // namespace idebench::exec
