/// \file segment_scan_test.cc
/// Scans over a catalog loaded from packed segment files
/// (`LoadCatalogSegments`) against the in-memory catalog it was packed
/// from, for a double column whose middle segment is entirely NaN — as an
/// aggregate input and as the bin column.  Both go through the engines'
/// two scan paths: `BinnedAggregator::Process` at 1 thread (sequential
/// contract) and `MorselProcess` at 4 threads (morsel contract); results
/// must be bit-identical.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "exec/parallel.h"
#include "storage/segment.h"

namespace idebench::exec {
namespace {

using query::AggregateSpec;
using query::AggregateType;
using query::BinDimension;
using query::BinningMode;
using query::QuerySpec;

constexpr int64_t kRows = 2 * storage::kSegmentRows + 4321;

/// Fact table with a string `tag` column and a double `nanonly` column
/// whose middle segment is all NaN (finite elsewhere).
std::shared_ptr<storage::Catalog> FlatCatalog() {
  static const std::shared_ptr<storage::Catalog> catalog = [] {
    storage::Schema schema({
        {"tag", storage::DataType::kString,
         storage::AttributeKind::kNominal},
        {"nanonly", storage::DataType::kDouble,
         storage::AttributeKind::kQuantitative},
    });
    auto t = std::make_shared<storage::Table>("fact", schema);
    Rng rng(101);
    const char* tags[] = {"alpha", "beta", "gamma", "delta",
                          "epsilon", "zeta"};
    for (int64_t i = 0; i < kRows; ++i) {
      t->mutable_column(0).AppendString(tags[rng.UniformInt(0, 5)]);
      const bool mid = i >= storage::kSegmentRows &&
                       i < 2 * storage::kSegmentRows;
      t->mutable_column(1).AppendDouble(
          mid ? std::numeric_limits<double>::quiet_NaN()
              : rng.Uniform(0.0, 10.0));
    }
    auto c = std::make_shared<storage::Catalog>();
    IDB_CHECK(c->AddTable(t).ok());
    return c;
  }();
  return catalog;
}

/// FlatCatalog packed to segment files and decoded back, written once.
std::shared_ptr<storage::Catalog> LoadedCatalog() {
  static const std::shared_ptr<storage::Catalog> catalog = [] {
    const std::string dir =
        std::string(::testing::TempDir()) + "/nan_segment_cache";
    IDB_CHECK(storage::WriteCatalogSegments(*FlatCatalog(), dir).ok());
    auto loaded = storage::LoadCatalogSegments(dir);
    IDB_CHECK(loaded.ok());
    return std::make_shared<storage::Catalog>(
        std::move(loaded).MoveValueUnsafe());
  }();
  return catalog;
}

AggregateSpec Agg(AggregateType type, const std::string& column = "") {
  AggregateSpec a;
  a.type = type;
  a.column = column;
  return a;
}

QuerySpec MakeSpec(const std::string& bin_column, BinningMode mode,
                   std::vector<AggregateSpec> aggs, int bins = 16) {
  QuerySpec spec;
  spec.viz_name = "v";
  BinDimension d;
  d.column = bin_column;
  d.mode = mode;
  d.requested_bins = bins;
  spec.bins = {d};
  spec.aggregates = std::move(aggs);
  IDB_CHECK(spec.ResolveBins(*FlatCatalog()).ok());
  return spec;
}

/// Exact-equality result comparison (bit-identity is the contract).
void ExpectResultsIdentical(const query::QueryResult& a,
                            const query::QueryResult& b,
                            const std::string& label) {
  ASSERT_EQ(a.bins.size(), b.bins.size()) << label;
  for (const auto& [key, bin] : a.bins) {
    auto it = b.bins.find(key);
    ASSERT_NE(it, b.bins.end()) << label << ": bin " << key << " missing";
    ASSERT_EQ(bin.values.size(), it->second.values.size()) << label;
    for (size_t i = 0; i < bin.values.size(); ++i) {
      EXPECT_EQ(bin.values[i].estimate, it->second.values[i].estimate)
          << label << ": estimate, bin " << key << " agg " << i;
      EXPECT_EQ(bin.values[i].margin, it->second.values[i].margin)
          << label << ": margin, bin " << key << " agg " << i;
    }
  }
}

/// A full scan of `catalog` for `spec` through the engine-facing range
/// path at `threads`.
struct ScanRun {
  std::unique_ptr<BoundQuery> bound;
  std::unique_ptr<BinnedAggregator> agg;
};

ScanRun Scan(const storage::Catalog& catalog, const QuerySpec& spec,
             int threads) {
  ScanRun run;
  auto bound = BoundQuery::Bind(spec, catalog);
  IDB_CHECK(bound.ok());
  run.bound =
      std::make_unique<BoundQuery>(std::move(bound).MoveValueUnsafe());
  run.agg = std::make_unique<BinnedAggregator>(run.bound.get(),
                                               BinnedAggregatorOptions{});
  if (threads == 1) {
    run.agg->Process(FeedOrder::Scan(), 0, kRows);
  } else {
    MorselProcess(run.agg.get(), FeedOrder::Scan(), 0, kRows, threads);
  }
  return run;
}

/// The loaded catalog really holds an all-NaN middle segment, and a scan
/// of it matches the in-memory scan at 1 and 4 threads.
void RunDifferential(const QuerySpec& spec, const std::string& label) {
  const storage::Table& loaded = *LoadedCatalog()->fact_table();
  const auto& zones = loaded.column(1).zone_map();
  ASSERT_EQ(zones.size(), 3u) << label;
  EXPECT_EQ(zones[1].nan_count, storage::kSegmentRows) << label;
  for (const int threads : {1, 4}) {
    const ScanRun flat = Scan(*FlatCatalog(), spec, threads);
    const ScanRun seg = Scan(*LoadedCatalog(), spec, threads);
    const std::string sub = label + ", threads " + std::to_string(threads);
    EXPECT_EQ(flat.agg->rows_seen(), kRows) << sub;
    EXPECT_EQ(flat.agg->rows_seen(), seg.agg->rows_seen()) << sub;
    EXPECT_EQ(flat.agg->rows_matched(), seg.agg->rows_matched()) << sub;
    ExpectResultsIdentical(flat.agg->ExactResult(), seg.agg->ExactResult(),
                           sub);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SegmentScanTest, AllNaNSegmentAggregateInput) {
  QuerySpec spec = MakeSpec("tag", BinningMode::kNominal,
                            {Agg(AggregateType::kCount),
                             Agg(AggregateType::kSum, "nanonly"),
                             Agg(AggregateType::kAvg, "nanonly")});
  RunDifferential(spec, "tag x aggs(all-NaN middle segment)");
}

TEST(SegmentScanTest, AllNaNSegmentAsBinColumn) {
  QuerySpec spec = MakeSpec("nanonly", BinningMode::kFixedCount,
                            {Agg(AggregateType::kCount)});
  RunDifferential(spec, "nanonly-bins");
}

}  // namespace
}  // namespace idebench::exec
