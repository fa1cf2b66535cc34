/// \file ingest_test.cc
/// Streaming-ingest subsystem tests: epoch visibility on tables and
/// column stats, the segmented shuffled-walk prefix property, the
/// Ingestor's all-or-nothing append contract, ingest applied between
/// scheduler calls (in-flight queries stay pinned, deadlines never
/// overshoot), ingest admission control, and the headline acceptance
/// property — a query pinned to watermark W is bit-identical, at every
/// thread count, to the same query against a table frozen at W.

#include "ingest/ingest.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_injector.h"
#include "common/random.h"
#include "datagen/flights_seed.h"
#include "engines/progressive_engine.h"
#include "engines/registry.h"
#include "net/protocol.h"
#include "net/ratekeeper.h"
#include "session/session.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "workflow/interaction.h"

namespace idebench::ingest {
namespace {

using chaos::FaultInjector;
using chaos::FaultSite;
using chaos::ScopedFaultInjector;

// ---------------------------------------------------------------------
// Fixtures

/// Flights-shaped ingest fixture: the full dataset (base + tail) is
/// generated up front so tests can replay the tail through the ingestor
/// and know exactly which rows each epoch publishes.
struct IngestFixture {
  std::shared_ptr<storage::Catalog> catalog;
  std::shared_ptr<storage::Table> source;  // all rows, incl. unstaged tail
  std::unique_ptr<Ingestor> ingestor;
};

IngestFixture MakeIngestFlights(int64_t base, int64_t total,
                                uint64_t seed = 17,
                                int64_t nominal = 1'000'000) {
  datagen::FlightsSeedConfig config;
  config.rows = total;
  config.seed = seed;
  auto full = datagen::GenerateFlightsSeed(config);
  IDB_CHECK(full.ok());
  IngestFixture f;
  f.source =
      std::make_shared<storage::Table>(std::move(full).MoveValueUnsafe());
  auto fact = std::make_shared<storage::Table>(f.source->name(),
                                               f.source->schema());
  for (int64_t r = 0; r < base; ++r) {
    IDB_CHECK(fact->AppendRowFrom(*f.source, r).ok());
  }
  f.catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(f.catalog->AddTable(fact).ok());
  f.catalog->set_nominal_rows(nominal);
  auto created = Ingestor::Create(f.catalog, total);
  IDB_CHECK(created.ok());
  f.ingestor = std::move(created).MoveValueUnsafe();
  return f;
}

query::QuerySpec CountByCarrier(const storage::Catalog& catalog) {
  query::QuerySpec spec;
  spec.viz_name = "carrier_hist";
  query::BinDimension d;
  d.column = "carrier";
  d.mode = query::BinningMode::kNominal;
  spec.bins.push_back(d);
  query::AggregateSpec a;
  a.type = query::AggregateType::kCount;
  spec.aggregates.push_back(a);
  IDB_CHECK(spec.ResolveBins(catalog).ok());
  return spec;
}

std::string Canon(const query::QueryResult& r) {
  return net::QueryResultToJson(r).Dump();
}

/// Measures one engine's total virtual run cost for the fixture query on
/// a throwaway twin, so the pinning tests can pick a slice budget that
/// guarantees many slices (and therefore genuinely mid-flight publishes)
/// whatever the engine's cost model says.
Micros TotalRunCost(const std::string& name, uint64_t seed, int threads) {
  IngestFixture f = MakeIngestFlights(1000, 1600);
  auto e = engines::CreateEngine(name, seed, threads, /*reuse_cache=*/true);
  IDB_CHECK(e.ok());
  IDB_CHECK((*e)->Prepare(f.catalog).ok());
  auto h = (*e)->Submit(CountByCarrier(*f.catalog));
  IDB_CHECK(h.ok());
  Micros total = 0;
  for (int i = 0; i < 1024 && !(*e)->IsDone(*h); ++i) {
    total += (*e)->RunFor(*h, 1'000'000'000LL);
  }
  IDB_CHECK((*e)->IsDone(*h));
  return total;
}

// ---------------------------------------------------------------------
// Storage: epoch visibility

TEST(EpochVisibilityTest, StagedRowsInvisibleUntilPublish) {
  auto table = std::make_shared<storage::Table>(testutil::MakeTinyTable());
  EXPECT_FALSE(table->ingest_enabled());
  EXPECT_EQ(table->visible_rows(), 8);
  EXPECT_EQ(table->staged_rows(), 0);

  table->BeginIngest();
  EXPECT_TRUE(table->ingest_enabled());
  ASSERT_EQ(table->epoch_boundaries().size(), 1u);
  EXPECT_EQ(table->epoch_boundaries()[0], 8);
  table->BeginIngest();  // idempotent: epoch 0 is not re-sealed
  ASSERT_EQ(table->epoch_boundaries().size(), 1u);

  table->mutable_column(0).AppendDouble(90.0);
  table->mutable_column(1).AppendString("c");
  table->mutable_column(2).AppendInt(2);
  EXPECT_EQ(table->num_rows(), 9);
  EXPECT_EQ(table->visible_rows(), 8);  // staged, not visible
  EXPECT_EQ(table->staged_rows(), 1);

  EXPECT_EQ(table->PublishEpoch(), 9);
  EXPECT_EQ(table->visible_rows(), 9);
  EXPECT_EQ(table->staged_rows(), 0);
  ASSERT_EQ(table->epoch_boundaries().size(), 2u);

  // A publish with nothing staged does not mint an empty epoch.
  EXPECT_EQ(table->PublishEpoch(), 9);
  EXPECT_EQ(table->epoch_boundaries().size(), 2u);
}

TEST(EpochVisibilityTest, ColumnStatsFrozenAtTheWatermark) {
  auto table = std::make_shared<storage::Table>(testutil::MakeTinyTable());
  table->BeginIngest();
  const storage::Column& value = table->column(0);
  const storage::Column& group = table->column(1);
  EXPECT_DOUBLE_EQ(value.VisibleMax(), 80.0);
  EXPECT_EQ(group.VisibleDictSize(), 2);

  // Staged rows move the live stats but not the visible ones.
  table->mutable_column(0).AppendDouble(500.0);
  table->mutable_column(1).AppendString("zulu");
  table->mutable_column(2).AppendInt(3);
  EXPECT_DOUBLE_EQ(value.Max(), 500.0);
  EXPECT_DOUBLE_EQ(value.VisibleMax(), 80.0);
  EXPECT_EQ(group.VisibleDictSize(), 2);

  table->PublishEpoch();
  EXPECT_DOUBLE_EQ(value.VisibleMax(), 500.0);
  EXPECT_EQ(group.VisibleDictSize(), 3);
}

TEST(EpochVisibilityTest, BinResolutionUsesVisibleStatsOnly) {
  auto fixture = MakeIngestFlights(500, 700);
  const query::QuerySpec before = CountByCarrier(*fixture.catalog);

  // Stage (but do not publish) the tail: resolution must not move.
  ASSERT_TRUE(
      fixture.ingestor->Append(BatchFromTable(*fixture.source, 500, 700))
          .ok());
  query::QuerySpec staged = CountByCarrier(*fixture.catalog);
  EXPECT_EQ(before.bins[0].bin_count, staged.bins[0].bin_count);

  ASSERT_TRUE(fixture.ingestor->Publish().ok());
  query::QuerySpec published = CountByCarrier(*fixture.catalog);
  // The dictionary can only have grown (equal when no new carriers).
  EXPECT_GE(published.bins[0].bin_count, before.bins[0].bin_count);
}

// ---------------------------------------------------------------------
// Sampler: segmented walks

TEST(SegmentedWalkTest, ExtendToPreservesThePrefix) {
  Rng rng_a(9);
  aqp::ShuffledIndex grown(200, &rng_a);
  const std::vector<int64_t> before = grown.permutation();
  Rng epoch_rng(123);
  grown.ExtendTo(300, &epoch_rng);
  ASSERT_EQ(grown.size(), 300);
  ASSERT_EQ(grown.segment_bounds(), (std::vector<int64_t>{200, 300}));

  // Positions below the old watermark are untouched...
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(grown.permutation()[static_cast<size_t>(i)],
              before[static_cast<size_t>(i)]);
  }
  // ...so an in-flight walk over [0, 200) reads the same rows as it
  // would have against the unextended index.
  Rng rng_b(9);
  aqp::ShuffledIndex frozen(200, &rng_b);
  std::vector<int64_t> from_grown(200), from_frozen(200);
  grown.GatherWalk(55, 0, 200, from_grown.data());
  frozen.GatherWalk(55, 0, 200, from_frozen.data());
  EXPECT_EQ(from_grown, from_frozen);

  // The new segment is a permutation of exactly the new rows.
  std::vector<int64_t> tail(grown.permutation().begin() + 200,
                            grown.permutation().end());
  std::sort(tail.begin(), tail.end());
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(tail[static_cast<size_t>(i)], 200 + i);
  }
}

// ---------------------------------------------------------------------
// Ingestor

TEST(IngestorTest, CreateRejectsNormalizedCatalogsAndTightCapacity) {
  EXPECT_FALSE(Ingestor::Create(nullptr, 100).ok());

  auto empty = std::make_shared<storage::Catalog>();
  EXPECT_FALSE(Ingestor::Create(empty, 100).ok());

  // Two tables = normalized; delta maintenance only covers denormalized.
  auto normalized = std::make_shared<storage::Catalog>();
  ASSERT_TRUE(normalized
                  ->AddTable(std::make_shared<storage::Table>(
                      testutil::MakeTinyTable()))
                  .ok());
  auto dim = std::make_shared<storage::Table>(testutil::MakeTinyTable());
  // (AddTable keyed by name: rename the second copy.)
  auto second = std::make_shared<storage::Table>("dim", dim->schema());
  ASSERT_TRUE(normalized->AddTable(second).ok());
  EXPECT_FALSE(Ingestor::Create(normalized, 100).ok());

  // Capacity below the existing row count is a configuration error.
  EXPECT_FALSE(Ingestor::Create(testutil::MakeTinyCatalog(), 4).ok());
}

TEST(IngestorTest, AppendIsAllOrNothingAndPublishMovesTheWatermark) {
  auto catalog = testutil::MakeTinyCatalog();
  auto created = Ingestor::Create(catalog, 16);
  ASSERT_TRUE(created.ok());
  auto& ingestor = *created;

  RowBatch good;
  good.rows = {{"90", "a", "0"}, {"100", "b", "1"}};
  ASSERT_TRUE(ingestor->Append(good).ok());
  EXPECT_EQ(ingestor->staged_rows(), 2);
  EXPECT_EQ(ingestor->visible_rows(), 8);

  // A bad row anywhere in the batch rejects the whole batch: nothing
  // from it may stage (a half-applied batch would tear a future epoch).
  RowBatch bad;
  bad.rows = {{"110", "c", "0"}, {"not-a-number", "c", "1"}};
  EXPECT_FALSE(ingestor->Append(bad).ok());
  EXPECT_EQ(ingestor->staged_rows(), 2);

  RowBatch short_row;
  short_row.rows = {{"110", "c"}};
  EXPECT_FALSE(ingestor->Append(short_row).ok());
  EXPECT_EQ(ingestor->staged_rows(), 2);

  auto watermark = ingestor->Publish();
  ASSERT_TRUE(watermark.ok());
  EXPECT_EQ(*watermark, 10);
  EXPECT_EQ(ingestor->visible_rows(), 10);
  EXPECT_EQ(ingestor->staged_rows(), 0);

  const IngestStats& stats = ingestor->stats();
  EXPECT_EQ(stats.rows_staged, 2);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.epochs_published, 1);
  // A rejected batch counts all of its rows, staged or not: 2 from the
  // parse-invalid batch + 1 from the short row.
  EXPECT_EQ(stats.rejected_rows, 3);
}

TEST(IngestorTest, CapacityIsAHardCeiling) {
  auto catalog = testutil::MakeTinyCatalog();
  auto created = Ingestor::Create(catalog, 9);
  ASSERT_TRUE(created.ok());
  auto& ingestor = *created;

  RowBatch two;
  two.rows = {{"90", "a", "0"}, {"100", "b", "1"}};
  const Status st = ingestor->Append(two);  // 8 + 2 > 9
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ingestor->staged_rows(), 0);
  EXPECT_EQ(ingestor->stats().rejected_rows, 2);

  RowBatch one;
  one.rows = {{"90", "a", "0"}};
  EXPECT_TRUE(ingestor->Append(one).ok());
  EXPECT_EQ(ingestor->staged_rows(), 1);
}

TEST(IngestorTest, BatchFromCsvLinesParsesAndRejects) {
  auto parsed = BatchFromCsvLines({"90, a, 0", "100,b,1"}, 3);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2);
  EXPECT_EQ(parsed->rows[0][0], "90");
  EXPECT_EQ(parsed->rows[0][1], "a");

  EXPECT_FALSE(BatchFromCsvLines({"90,a"}, 3).ok());  // field count
}

TEST(IngestorTest, ChaosFaultsSurfaceAsIoErrorsBeforeStaging) {
  auto catalog = testutil::MakeTinyCatalog();
  auto created = Ingestor::Create(catalog, 32);
  ASSERT_TRUE(created.ok());
  auto& ingestor = *created;

  FaultInjector injector(77);
  injector.Arm(FaultSite::kIngestAppend, {1.0, 1});
  injector.Arm(FaultSite::kIngestPublish, {1.0, 1});
  ScopedFaultInjector scope(&injector);

  RowBatch batch;
  batch.rows = {{"90", "a", "0"}};
  const Status append = ingestor->Append(batch);
  EXPECT_EQ(append.code(), StatusCode::kIoError);
  EXPECT_EQ(ingestor->staged_rows(), 0);  // fired before staging
  EXPECT_EQ(ingestor->stats().append_faults, 1);

  // Budget spent: the retry succeeds, then the publish fault fires once.
  ASSERT_TRUE(ingestor->Append(batch).ok());
  auto publish = ingestor->Publish();
  EXPECT_FALSE(publish.ok());
  EXPECT_EQ(ingestor->visible_rows(), 8);  // watermark never moved
  EXPECT_EQ(ingestor->stats().publish_faults, 1);

  auto retried = ingestor->Publish();
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(*retried, 9);  // staged rows survived the failed publish
}

// ---------------------------------------------------------------------
// Session serving with ingest applied between scheduler calls

workflow::Interaction TinyCountInteraction(const std::string& name) {
  query::VizSpec v;
  v.name = name;
  v.source = "tiny";
  query::BinDimension d;
  d.column = "group";
  d.mode = query::BinningMode::kNominal;
  v.bins.push_back(d);
  query::AggregateSpec a;
  a.type = query::AggregateType::kCount;
  v.aggregates.push_back(a);
  return workflow::Interaction::CreateViz(v);
}

class RecordingSink : public session::ResultSink {
 public:
  void OnUpdate(const session::ProgressiveUpdate& update) override {
    updates.push_back(update);
  }
  std::vector<session::ProgressiveUpdate> updates;
};

TEST(SessionIngestTest, EventsApplyAtTheirInstantAndQueriesStayPinned) {
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000);
  auto created = Ingestor::Create(catalog, 32);
  ASSERT_TRUE(created.ok());
  auto& ingestor = *created;

  engines::ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 100'000.0;  // 0.1 s per row
  engines::ProgressiveEngine engine(config);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  session::SessionManagerOptions options;
  options.time_requirement = 2'000'000;
  options.quantum = 200'000;
  session::SessionManager manager(options, &engine, catalog);

  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  // Query submitted at watermark 8; the caller appends and publishes at
  // t=300'000, well inside its flight, between two scheduler calls.
  auto submitted =
      (*sess)->SubmitInteraction(TinyCountInteraction("v0"));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(manager.AdvanceTo(300'000).ok());
  EXPECT_TRUE(manager.HasLive());
  RowBatch batch;
  batch.rows = {{"90", "a", "0"}, {"100", "b", "1"}};
  ASSERT_TRUE(ingestor->Append(batch).ok());
  ASSERT_TRUE(ingestor->Publish().ok());
  EXPECT_EQ(ingestor->visible_rows(), 10);
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  // The publish happened mid-flight, but the in-flight query stayed
  // pinned at its submit watermark.
  ASSERT_FALSE(sink.updates.empty());
  const session::ProgressiveUpdate& final_update = sink.updates.back();
  ASSERT_TRUE(final_update.final_update);
  EXPECT_TRUE(final_update.completed);
  EXPECT_EQ(final_update.result.rows_processed, 8);

  // A query submitted after the publish sees the new watermark.
  sink.updates.clear();
  auto second = (*sess)->SubmitInteraction(TinyCountInteraction("v1"));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  ASSERT_FALSE(sink.updates.empty());
  EXPECT_EQ(sink.updates.back().result.rows_processed, 10);

  // Ingest cost the deadline scheduler nothing.
  EXPECT_EQ(manager.stats().max_deadline_overshoot, 0);
}

// ---------------------------------------------------------------------
// Ratekeeper: ingest admission

TEST(IngestAdmissionTest, IngestShedsBeforeQueryTrafficDegrades) {
  net::RatekeeperOptions o;
  o.soft_live_limit = 4;
  o.hard_live_limit = 8;
  o.degrade_levels = 4;
  o.tenant_rate = 0.0;
  net::Ratekeeper keeper(o);

  // Healthy: ingest flows.
  EXPECT_TRUE(keeper.AdmitIngest().admitted());
  EXPECT_EQ(keeper.stats().ingest_admitted, 1);

  // The first degrade level (queries still admitted, only budget-shaved)
  // already sheds ingest: it is the lowest-priority traffic class.
  keeper.OnAdmitted(5);  // just past the soft limit
  const net::AdmitDecision query = keeper.Admit("t", 0);
  EXPECT_TRUE(query.admitted());
  EXPECT_GT(query.degrade_level, 0);
  const net::AdmitDecision ingest = keeper.AdmitIngest();
  EXPECT_EQ(ingest.action, net::AdmitAction::kReject);
  EXPECT_STREQ(ingest.reason, "ingest_shed");
  EXPECT_GT(ingest.retry_after, 0);
  EXPECT_EQ(keeper.stats().ingest_shed, 1);

  // Draining the queries reopens ingest.
  keeper.OnFinalized(5);
  EXPECT_TRUE(keeper.AdmitIngest().admitted());
}

// ---------------------------------------------------------------------
// Acceptance: pinned queries vs a frozen table, live vs pre-staged

TEST(IngestPinningTest, InFlightQueryIsBitIdenticalToFrozenTableRun) {
  // One engine races mid-flight publishes, the twin runs against a table
  // frozen at the submit watermark.  Every poll along the way — and the
  // final — must be bit-identical, at one thread and at four.
  for (const std::string& name : engines::BuiltinEngineNames()) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      IngestFixture live = MakeIngestFlights(1000, 1600);
      IngestFixture frozen = MakeIngestFlights(1000, 1600);

      auto ea = engines::CreateEngine(name, 5, threads, /*reuse_cache=*/true);
      auto eb = engines::CreateEngine(name, 5, threads, /*reuse_cache=*/true);
      ASSERT_TRUE(ea.ok() && eb.ok());
      ASSERT_TRUE((*ea)->Prepare(live.catalog).ok());
      ASSERT_TRUE((*eb)->Prepare(frozen.catalog).ok());

      const query::QuerySpec spec_live = CountByCarrier(*live.catalog);
      const query::QuerySpec spec_frozen = CountByCarrier(*frozen.catalog);
      auto ha = (*ea)->Submit(spec_live);
      auto hb = (*eb)->Submit(spec_frozen);
      ASSERT_TRUE(ha.ok() && hb.ok());

      const Micros budget =
          std::max<Micros>(TotalRunCost(name, 5, threads) / 24, 50);
      int64_t cursor = 1000;
      int publishes_mid_flight = 0;
      for (int slice = 0; slice < 64; ++slice) {
        (*ea)->RunFor(*ha, budget);
        (*eb)->RunFor(*hb, budget);
        auto ra = (*ea)->PollResult(*ha);
        auto rb = (*eb)->PollResult(*hb);
        ASSERT_EQ(ra.ok(), rb.ok());
        if (ra.ok()) {
          ASSERT_EQ(Canon(*ra), Canon(*rb)) << "slice=" << slice;
        }
        const bool done = (*ea)->IsDone(*ha);
        ASSERT_EQ(done, (*eb)->IsDone(*hb));
        // Publish an epoch into the live side between slices.
        if (cursor < 1600) {
          ASSERT_TRUE(live.ingestor
                          ->Append(BatchFromTable(*live.source, cursor,
                                                  cursor + 200))
                          .ok());
          ASSERT_TRUE(live.ingestor->Publish().ok());
          cursor += 200;
          if (!done) ++publishes_mid_flight;
        }
        if (done) break;
      }
      // The race must actually have happened for the test to mean
      // anything: at least one epoch published while the query flew.
      ASSERT_GT(publishes_mid_flight, 0);

      for (int i = 0; i < 64 && !(*ea)->IsDone(*ha); ++i) {
        (*ea)->RunFor(*ha, 10'000'000'000LL);
        (*eb)->RunFor(*hb, 10'000'000'000LL);
      }
      ASSERT_TRUE((*ea)->IsDone(*ha));
      ASSERT_TRUE((*eb)->IsDone(*hb));
      auto fa = (*ea)->PollResult(*ha);
      auto fb = (*eb)->PollResult(*hb);
      ASSERT_TRUE(fa.ok() && fb.ok());
      EXPECT_EQ(Canon(*fa), Canon(*fb));
    }
  }
}

TEST(IngestPinningTest, AppendTimingIsInvisibleOnlyPublishesMatter) {
  // Two runs stage the same tail on different schedules (dribs between
  // query slices vs one bulk append) but publish at the same instant:
  // every query before and after must be bit-identical.
  for (const std::string& name : engines::BuiltinEngineNames()) {
    SCOPED_TRACE(name);
    IngestFixture dribs = MakeIngestFlights(1000, 1400);
    IngestFixture bulk = MakeIngestFlights(1000, 1400);

    auto ea = engines::CreateEngine(name, 11, 2, /*reuse_cache=*/true);
    auto eb = engines::CreateEngine(name, 11, 2, /*reuse_cache=*/true);
    ASSERT_TRUE(ea.ok() && eb.ok());
    ASSERT_TRUE((*ea)->Prepare(dribs.catalog).ok());
    ASSERT_TRUE((*eb)->Prepare(bulk.catalog).ok());

    // First query: flies while one side dribbles appends (unpublished).
    auto ha = (*ea)->Submit(CountByCarrier(*dribs.catalog));
    auto hb = (*eb)->Submit(CountByCarrier(*bulk.catalog));
    ASSERT_TRUE(ha.ok() && hb.ok());
    const Micros budget =
        std::max<Micros>(TotalRunCost(name, 11, 2) / 12, 50);
    int64_t cursor = 1000;
    for (int slice = 0; slice < 24; ++slice) {
      (*ea)->RunFor(*ha, budget);
      (*eb)->RunFor(*hb, budget);
      auto ra = (*ea)->PollResult(*ha);
      auto rb = (*eb)->PollResult(*hb);
      ASSERT_EQ(ra.ok(), rb.ok());
      if (ra.ok()) {
        ASSERT_EQ(Canon(*ra), Canon(*rb)) << "slice=" << slice;
      }
      if (cursor < 1400) {
        ASSERT_TRUE(
            dribs.ingestor
                ->Append(BatchFromTable(*dribs.source, cursor, cursor + 50))
                .ok());
        cursor += 50;
      }
    }

    // Same publish instant: dribs publishes what it staged; bulk appends
    // everything at once and publishes.  Watermarks now agree.
    ASSERT_TRUE(
        bulk.ingestor->Append(BatchFromTable(*bulk.source, 1000, cursor))
            .ok());
    auto wa = dribs.ingestor->Publish();
    auto wb = bulk.ingestor->Publish();
    ASSERT_TRUE(wa.ok() && wb.ok());
    ASSERT_EQ(*wa, *wb);

    // A fresh query on each side must agree bit-for-bit.
    auto ha2 = (*ea)->Submit(CountByCarrier(*dribs.catalog));
    auto hb2 = (*eb)->Submit(CountByCarrier(*bulk.catalog));
    ASSERT_TRUE(ha2.ok() && hb2.ok());
    for (int i = 0; i < 64 && !(*ea)->IsDone(*ha2); ++i) {
      (*ea)->RunFor(*ha2, 10'000'000'000LL);
      (*eb)->RunFor(*hb2, 10'000'000'000LL);
    }
    ASSERT_TRUE((*ea)->IsDone(*ha2));
    ASSERT_TRUE((*eb)->IsDone(*hb2));
    auto fa = (*ea)->PollResult(*ha2);
    auto fb = (*eb)->PollResult(*hb2);
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_EQ(Canon(*fa), Canon(*fb));
    EXPECT_EQ(fa->rows_processed, fb->rows_processed);
  }
}

TEST(IngestPinningTest, SemanticCacheHitAfterDictionaryGrowthStaysInRange) {
  // The progressive engine's semantic cache (on by default) re-pins a
  // cached sample state to the new watermark without recompiling its
  // kernels, so the walk goes on to read rows whose carrier joined the
  // dictionary after the compile.  Those rows must land in no bin.
  IngestFixture f = MakeIngestFlights(1000, 1200);
  engines::ProgressiveEngine engine;
  ASSERT_TRUE(engine.config().enable_reuse);
  ASSERT_TRUE(engine.Prepare(f.catalog).ok());
  const query::QuerySpec spec = CountByCarrier(*f.catalog);
  const int64_t bins = spec.bins[0].bin_count;

  const auto run_to_completion = [&](const query::QuerySpec& submitted,
                                     query::QueryResult* out) {
    auto h = engine.Submit(submitted);
    ASSERT_TRUE(h.ok());
    for (int i = 0; i < 64 && !engine.IsDone(*h); ++i) {
      engine.RunFor(*h, 10'000'000'000LL);
    }
    ASSERT_TRUE(engine.IsDone(*h));
    auto r = engine.PollResult(*h);
    ASSERT_TRUE(r.ok());
    *out = *r;
    engine.Cancel(*h);
  };
  query::QueryResult before;
  ASSERT_NO_FATAL_FAILURE(run_to_completion(spec, &before));
  EXPECT_EQ(before.rows_processed, 1000);

  // One epoch whose every row carries a carrier the dictionary lacks.
  RowBatch batch = BatchFromTable(*f.source, 1000, 1200);
  const size_t carrier =
      static_cast<size_t>(f.source->ColumnIndex("carrier"));
  for (std::vector<std::string>& row : batch.rows) row[carrier] = "NEWCARRIER";
  ASSERT_TRUE(f.ingestor->Append(batch).ok());
  ASSERT_TRUE(f.ingestor->Publish().ok());
  ASSERT_EQ(f.catalog->fact_table()
                ->ColumnByName("carrier")
                ->dictionary()
                .size(),
            bins + 1);

  query::QueryResult after;
  ASSERT_NO_FATAL_FAILURE(run_to_completion(spec, &after));
  EXPECT_EQ(engine.reuse_hits(), 1);
  EXPECT_EQ(after.rows_processed, 1200);
  ASSERT_EQ(after.bins.size(), before.bins.size());
  for (const auto& [key, bin] : after.bins) {
    EXPECT_GE(key, 0);
    EXPECT_LT(key, bins);
    auto it = before.bins.find(key);
    ASSERT_NE(it, before.bins.end()) << "bin " << key;
    EXPECT_EQ(bin.values[0].estimate, it->second.values[0].estimate)
        << "bin " << key;
  }

  // The spec re-resolved against the grown dictionary has one more bin.
  // The cached state's bins no longer match it, so it starts cold and
  // answers exactly as a fresh engine does.
  const query::QuerySpec regrown = CountByCarrier(*f.catalog);
  ASSERT_EQ(regrown.bins[0].bin_count, bins + 1);
  query::QueryResult cold;
  ASSERT_NO_FATAL_FAILURE(run_to_completion(regrown, &cold));
  EXPECT_EQ(engine.reuse_hits(), 1);
  engines::ProgressiveEngine fresh;
  ASSERT_TRUE(fresh.Prepare(f.catalog).ok());
  auto h = fresh.Submit(regrown);
  ASSERT_TRUE(h.ok());
  for (int i = 0; i < 64 && !fresh.IsDone(*h); ++i) {
    fresh.RunFor(*h, 10'000'000'000LL);
  }
  ASSERT_TRUE(fresh.IsDone(*h));
  auto expected = fresh.PollResult(*h);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(cold.bins.size(), static_cast<size_t>(bins + 1));
  EXPECT_EQ(Canon(cold), Canon(*expected));
}

TEST(IngestPinningTest, SemanticCacheKeepsLiveQueryPinned) {
  // An equal query submitted after a publish must not re-pin the sample
  // state a live handle is still walking: that handle stays pinned at
  // its own submission watermark.
  IngestFixture f = MakeIngestFlights(1000, 1200);
  engines::ProgressiveEngine engine;
  ASSERT_TRUE(engine.config().enable_reuse);
  ASSERT_TRUE(engine.Prepare(f.catalog).ok());
  const query::QuerySpec spec = CountByCarrier(*f.catalog);

  auto first = engine.Submit(spec);
  ASSERT_TRUE(first.ok());
  // 610,000 us of restart + query overhead, then about 250 rows at 8 us.
  engine.RunFor(*first, 612'000);
  ASSERT_FALSE(engine.IsDone(*first));

  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, 1000, 1200)).ok());
  ASSERT_TRUE(f.ingestor->Publish().ok());
  auto second = engine.Submit(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.reuse_hits(), 0);

  for (const engines::QueryHandle h : {*first, *second}) {
    for (int i = 0; i < 64 && !engine.IsDone(h); ++i) {
      engine.RunFor(h, 10'000'000'000LL);
    }
    ASSERT_TRUE(engine.IsDone(h));
  }
  auto r1 = engine.PollResult(*first);
  auto r2 = engine.PollResult(*second);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->rows_processed, 1000);
  EXPECT_EQ(r2->rows_processed, 1200);
}

}  // namespace
}  // namespace idebench::ingest
