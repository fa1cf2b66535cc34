/// \file engine_properties_test.cc
/// Property-style sweeps over all engines and time requirements:
/// invariants every conforming system adapter must satisfy, plus
/// failure-injection cases for the adapter contract.

#include <gtest/gtest.h>

#include "chaos/fault_injector.h"
#include "core/dataset.h"
#include "engines/registry.h"
#include "engines/stratified_engine.h"
#include "tests/test_util.h"

namespace idebench::engines {
namespace {

using query::QuerySpec;

std::shared_ptr<const storage::Catalog> PropCatalog(int64_t nominal) {
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(nominal);
  return catalog;
}

/// (engine name, TR microseconds) sweep.
class EngineTrSweep
    : public ::testing::TestWithParam<std::tuple<std::string, Micros>> {};

TEST_P(EngineTrSweep, RunForNeverOverconsumesAndPollIsSafe) {
  const auto& [name, tr] = GetParam();
  auto engine = CreateEngine(name);
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(1'000'000'000);  // 1 B nominal: nothing finishes
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = (*engine)->Submit(spec);
  ASSERT_TRUE(handle.ok());

  Micros total = 0;
  for (int i = 0; i < 16; ++i) {
    const Micros slice = tr / 8 + 1;
    const Micros consumed = (*engine)->RunFor(*handle, slice);
    EXPECT_GE(consumed, 0);
    EXPECT_LE(consumed, slice);
    total += consumed;
    // Polling mid-flight must always succeed (possibly unavailable).
    auto result = (*engine)->PollResult(*handle);
    ASSERT_TRUE(result.ok());
    if (result->available) {
      EXPECT_GE(result->progress, 0.0);
      EXPECT_LE(result->progress, 1.0);
    }
  }
  EXPECT_LE(total, 2 * tr + 16);
  (*engine)->Cancel(*handle);
}

TEST_P(EngineTrSweep, CancelledHandleStopsResponding) {
  const auto& [name, tr] = GetParam();
  auto engine = CreateEngine(name);
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(1'000'000);
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = (*engine)->Submit(spec);
  ASSERT_TRUE(handle.ok());
  (*engine)->RunFor(*handle, tr);
  (*engine)->Cancel(*handle);
  EXPECT_EQ((*engine)->RunFor(*handle, tr), 0);
  EXPECT_FALSE((*engine)->IsDone(*handle));
  EXPECT_FALSE((*engine)->PollResult(*handle).ok());
}

TEST_P(EngineTrSweep, UnknownHandleIsHarmless) {
  const auto& [name, tr] = GetParam();
  auto engine = CreateEngine(name);
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(1'000'000);
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  EXPECT_EQ((*engine)->RunFor(12345, tr), 0);
  EXPECT_FALSE((*engine)->IsDone(12345));
  EXPECT_FALSE((*engine)->PollResult(12345).ok());
  (*engine)->Cancel(12345);  // no crash
}

/// Handle-safety contract surfaced by session multiplexing: Cancel is
/// idempotent in every lifecycle phase, and a cancelled handle keeps
/// answering with clean errors, never UB.
TEST_P(EngineTrSweep, CancelIsIdempotentInEveryPhase) {
  const auto& [name, tr] = GetParam();
  auto engine = CreateEngine(name);
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(1'000'000);
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);

  // Cancel before any RunFor.
  auto fresh = (*engine)->Submit(spec);
  ASSERT_TRUE(fresh.ok());
  (*engine)->Cancel(*fresh);
  (*engine)->Cancel(*fresh);  // double cancel: no-op
  EXPECT_EQ((*engine)->RunFor(*fresh, tr), 0);
  EXPECT_FALSE((*engine)->PollResult(*fresh).ok());

  // Cancel mid-flight, twice.
  auto running = (*engine)->Submit(spec);
  ASSERT_TRUE(running.ok());
  (*engine)->RunFor(*running, tr / 2);
  (*engine)->Cancel(*running);
  (*engine)->Cancel(*running);
  EXPECT_FALSE((*engine)->IsDone(*running));
  EXPECT_FALSE((*engine)->PollResult(*running).ok());

  // Cancel after completion, twice; the engine must stay usable.
  auto done = (*engine)->Submit(spec);
  ASSERT_TRUE(done.ok());
  for (int i = 0; i < 64 && !(*engine)->IsDone(*done); ++i) {
    (*engine)->RunFor(*done, 10'000'000'000LL);
  }
  (*engine)->Cancel(*done);
  (*engine)->Cancel(*done);
  EXPECT_EQ((*engine)->RunFor(*done, tr), 0);
  auto next = (*engine)->Submit(spec);
  EXPECT_TRUE(next.ok());  // fresh submissions unaffected
}

/// Multiplexing safety: cancelling one live handle must not disturb
/// another in flight on the same engine.
TEST_P(EngineTrSweep, CancelOneOfTwoLeavesOtherUsable) {
  const auto& [name, tr] = GetParam();
  auto engine = CreateEngine(name);
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(100'000);  // small: queries can finish
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);

  auto victim = (*engine)->Submit(spec);
  auto survivor = (*engine)->Submit(spec);
  ASSERT_TRUE(victim.ok() && survivor.ok());
  (*engine)->RunFor(*victim, tr / 4);
  (*engine)->RunFor(*survivor, tr / 4);
  (*engine)->Cancel(*victim);

  for (int i = 0; i < 64 && !(*engine)->IsDone(*survivor); ++i) {
    (*engine)->RunFor(*survivor, 10'000'000'000LL);
  }
  ASSERT_TRUE((*engine)->IsDone(*survivor));
  auto result = (*engine)->PollResult(*survivor);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->available);
  EXPECT_NEAR(result->TotalEstimate(), 8.0, 1e-6);  // all 8 tiny rows
  (*engine)->Cancel(*survivor);
}

/// Zero and negative budgets are no-ops on any handle state.
TEST_P(EngineTrSweep, NonPositiveBudgetIsNoOp) {
  const auto& [name, tr] = GetParam();
  auto engine = CreateEngine(name);
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(1'000'000);
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = (*engine)->Submit(spec);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*engine)->RunFor(*handle, 0), 0);
  EXPECT_EQ((*engine)->RunFor(*handle, -tr), 0);
  auto result = (*engine)->PollResult(*handle);
  EXPECT_TRUE(result.ok());  // still pollable, nothing consumed
  (*engine)->Cancel(*handle);
}

/// The kEngineRun chaos site wedges a handle: it makes no progress, the
/// fault surfaces on poll, Cancel releases it, and the engine serves a
/// resubmission normally once the site is disarmed.
TEST_P(EngineTrSweep, InjectedRunFaultWedgesUntilCancel) {
  const auto& [name, tr] = GetParam();
  auto engine = CreateEngine(name);
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(100'000);  // small: queries can finish
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);

  auto wedged = (*engine)->Submit(spec);
  ASSERT_TRUE(wedged.ok());
  {
    chaos::FaultInjector injector(23);
    injector.Arm(chaos::FaultSite::kEngineRun, {1.0, -1});
    chaos::ScopedFaultInjector scope(&injector);
    EXPECT_EQ((*engine)->RunFor(*wedged, tr), 0);
  }
  // Wedged for good, armed site or not.
  EXPECT_EQ((*engine)->RunFor(*wedged, tr), 0);
  EXPECT_FALSE((*engine)->IsDone(*wedged));
  auto polled = (*engine)->PollResult(*wedged);
  if (name == "frontend") {
    // The frontend shows nothing until its backend completes and the
    // render finishes; a wedged backend never completes.
    ASSERT_TRUE(polled.ok());
    EXPECT_FALSE(polled->available);
  } else {
    EXPECT_EQ(polled.status().code(), StatusCode::kIoError);
  }
  (*engine)->Cancel(*wedged);
  EXPECT_EQ((*engine)->PollResult(*wedged).status().code(),
            StatusCode::kKeyError);

  auto retry = (*engine)->Submit(spec);
  ASSERT_TRUE(retry.ok());
  for (int i = 0; i < 64 && !(*engine)->IsDone(*retry); ++i) {
    (*engine)->RunFor(*retry, 10'000'000'000LL);
  }
  ASSERT_TRUE((*engine)->IsDone(*retry));
  auto result = (*engine)->PollResult(*retry);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->available);
  EXPECT_NEAR(result->TotalEstimate(), 8.0, 1e-6);  // all 8 tiny rows
  (*engine)->Cancel(*retry);
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAllTrs, EngineTrSweep,
    ::testing::Combine(
        ::testing::Values("blocking", "online", "progressive", "stratified",
                          "frontend"),
        ::testing::Values(Micros{500'000}, Micros{3'000'000},
                          Micros{10'000'000})),
    [](const auto& info) {
      return std::get<0>(info.param) + "_tr" +
             std::to_string(std::get<1>(info.param) / 1000) + "ms";
    });

/// Engines must refuse double preparation and queries before Prepare.
class EngineLifecycle : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineLifecycle, SubmitBeforePrepareFails) {
  auto engine = CreateEngine(GetParam());
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(1'000'000);
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  EXPECT_FALSE((*engine)->Submit(spec).ok());
}

TEST_P(EngineLifecycle, DoublePrepareFails) {
  auto engine = CreateEngine(GetParam());
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(1'000'000);
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  EXPECT_FALSE((*engine)->Prepare(catalog).ok());
}

TEST_P(EngineLifecycle, InjectedPrepareFailureRecoversOnRetry) {
  // An injected Prepare fault must leave the engine cleanly unprepared:
  // Submit keeps failing, and a later Prepare of the *same* engine
  // instance succeeds and serves queries normally (the recovery loop the
  // chaos harness' PrepareWithRetry relies on).
  auto engine = CreateEngine(GetParam());
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(1'000'000);
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);

  chaos::FaultInjector injector(17);
  injector.Arm(chaos::FaultSite::kEnginePrepare, {1.0, 2});
  chaos::ScopedFaultInjector scope(&injector);

  int attempts = 0;
  while (true) {
    ++attempts;
    ASSERT_LE(attempts, 8) << "prepare never recovered";
    auto prepared = (*engine)->Prepare(catalog);
    if (prepared.ok()) break;
    // While unprepared, submissions must keep failing cleanly.
    EXPECT_FALSE((*engine)->Submit(spec).ok());
  }
  EXPECT_GT(attempts, 1);  // the armed site actually failed a Prepare

  auto handle = (*engine)->Submit(spec);
  ASSERT_TRUE(handle.ok());
  (*engine)->RunFor(*handle, 10'000'000);
  auto result = (*engine)->PollResult(*handle);
  ASSERT_TRUE(result.ok());
  (*engine)->Cancel(*handle);
}

TEST_P(EngineLifecycle, UnresolvedBinsRejected) {
  auto engine = CreateEngine(GetParam());
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(1'000'000);
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  QuerySpec spec;
  spec.viz_name = "v";
  query::BinDimension d;
  d.column = "group";
  d.mode = query::BinningMode::kNominal;  // not resolved
  spec.bins = {d};
  query::AggregateSpec agg;
  agg.type = query::AggregateType::kCount;
  spec.aggregates = {agg};
  EXPECT_FALSE((*engine)->Submit(spec).ok());
}

TEST_P(EngineLifecycle, UnknownColumnRejected) {
  auto engine = CreateEngine(GetParam());
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(1'000'000);
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  expr::Predicate p;
  p.column = "no_such_column";
  p.op = expr::CompareOp::kGe;
  p.value = 0.0;
  spec.filter.And(p);
  EXPECT_FALSE((*engine)->Submit(spec).ok());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineLifecycle,
                         ::testing::Values("blocking", "online", "progressive",
                                           "stratified", "frontend"),
                         [](const auto& info) { return info.param; });

/// A failed Prepare must leave the engine cleanly unprepared: the
/// stratified engine rejects star schemas *before* attaching, so a
/// later Submit fails with a clean error instead of executing against a
/// half-initialized (empty) sample.
TEST(StratifiedLifecycle, NormalizedCatalogRejectedBeforeAttach) {
  core::DatasetConfig dataset;
  dataset.nominal_rows = 100'000;
  dataset.actual_rows = 2'000;
  dataset.normalized = true;
  auto catalog = core::BuildFlightsCatalog(dataset);
  ASSERT_TRUE(catalog.ok());

  StratifiedEngine engine;
  auto prepared = engine.Prepare(*catalog);
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kNotImplemented);

  // The engine is NOT attached: submissions keep failing cleanly...
  query::QuerySpec spec;
  spec.viz_name = "v";
  query::BinDimension d;
  d.column = "carrier";
  d.mode = query::BinningMode::kNominal;
  spec.bins = {d};
  query::AggregateSpec agg;
  agg.type = query::AggregateType::kCount;
  spec.aggregates = {agg};
  EXPECT_FALSE(engine.Submit(spec).ok());

  // ...and a de-normalized catalog can still be prepared afterwards.
  dataset.normalized = false;
  auto denorm = core::BuildFlightsCatalog(dataset);
  ASSERT_TRUE(denorm.ok());
  EXPECT_TRUE(engine.Prepare(*denorm).ok());
}

/// Completed answers must agree with the exact ground truth for exact
/// engines and reconstruct totals in expectation for sampling ones.
class EngineAnswerQuality : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineAnswerQuality, FilteredCountMatchesTruth) {
  auto engine = CreateEngine(GetParam());
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(100'000);  // small nominal: everything finishes
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());

  QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  expr::Predicate p;
  p.column = "flag";
  p.op = expr::CompareOp::kEq;
  p.value = 1.0;
  spec.filter.And(p);

  auto handle = (*engine)->Submit(spec);
  ASSERT_TRUE(handle.ok());
  for (int i = 0; i < 64 && !(*engine)->IsDone(*handle); ++i) {
    (*engine)->RunFor(*handle, 10'000'000);
  }
  ASSERT_TRUE((*engine)->IsDone(*handle));
  auto result = (*engine)->PollResult(*handle);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->available);
  // True counts: flag==1 rows are {50,a},{60,b},{70,a},{80,b}: 2 per group.
  EXPECT_NEAR(result->TotalEstimate(), 4.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineAnswerQuality,
                         ::testing::Values("blocking", "online", "progressive",
                                           "stratified", "frontend"),
                         [](const auto& info) { return info.param; });

/// The progressive engine's margin shrinks monotonically as it runs —
/// the defining property of progressive computation.
TEST(ProgressiveMonotonicity, MarginsShrinkWithWork) {
  auto engine = CreateEngine("progressive");
  ASSERT_TRUE(engine.ok());
  auto catalog = PropCatalog(100'000'000'000);  // effectively endless
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());
  auto spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = (*engine)->Submit(spec);
  ASSERT_TRUE(handle.ok());
  // Burn the restart overhead + sample 2 rows.
  (*engine)->RunFor(*handle, 700'000);

  double last_margin = 1e18;
  for (int step = 0; step < 3; ++step) {
    (*engine)->RunFor(*handle, 16'000);  // 2 rows at 8 us each
    auto result = (*engine)->PollResult(*handle);
    ASSERT_TRUE(result.ok());
    if (!result->available || result->bins.empty()) continue;
    double margin = 0.0;
    for (const auto& [key, bin] : result->bins) {
      margin += bin.values[0].margin;
    }
    EXPECT_LE(margin, last_margin * 1.25);  // allow small estimator noise
    last_margin = margin;
  }
}

}  // namespace
}  // namespace idebench::engines
