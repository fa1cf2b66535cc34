/// \file chaos_test.cc
/// Deterministic chaos harness tests (src/chaos/):
///
///  * `FaultInjector` unit tests — seeded determinism, per-site budget,
///    stream independence (arming one site never perturbs another's
///    schedule), and scoped process-global installation;
///  * exec-layer result-transparency proofs — an injected worker-pool
///    stall is bit-identical to the dispatched run (same morsel
///    boundaries, inline drain), and an injected morsel slowdown equals
///    an explicit one-batch-morsel run bit for bit;
///  * CSV fault sites with a retry-until-budget-dry loader loop;
///  * session-scheduler fault handling — injected run faults retry with
///    virtual-time backoff and either recover (completed) or exhaust
///    retries into exactly one terminal `failed` update, with the
///    deadline guarantee intact throughout;
///  * scenario harness — seed-replay identity (same seed => byte-equal
///    event logs and scheduler stats), and the invariant sweep across
///    the scenario catalog, engines and seeds, including the uninjected
///    reference-run result-identity check.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_injector.h"
#include "chaos/invariants.h"
#include "chaos/scenario.h"
#include "common/logging.h"
#include "common/random.h"
#include "engines/registry.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "exec/parallel.h"
#include "session/session.h"
#include "storage/csv.h"
#include "tests/test_util.h"
#include "workflow/interaction.h"

namespace idebench::chaos {
namespace {

using session::ProgressiveUpdate;
using session::SessionManager;
using session::SessionManagerOptions;
using workflow::Interaction;

// --- FaultInjector ----------------------------------------------------------

std::vector<bool> DrawSequence(FaultInjector* injector, FaultSite site,
                               int n) {
  std::vector<bool> fires;
  for (int i = 0; i < n; ++i) fires.push_back(injector->ShouldFire(site));
  return fires;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultInjector a(42);
  FaultInjector b(42);
  a.Arm(FaultSite::kEngineRun, {0.3, -1});
  b.Arm(FaultSite::kEngineRun, {0.3, -1});
  EXPECT_EQ(DrawSequence(&a, FaultSite::kEngineRun, 200),
            DrawSequence(&b, FaultSite::kEngineRun, 200));

  FaultInjector c(43);
  c.Arm(FaultSite::kEngineRun, {0.3, -1});
  EXPECT_NE(DrawSequence(&a, FaultSite::kEngineRun, 200),
            DrawSequence(&c, FaultSite::kEngineRun, 200));
}

TEST(FaultInjectorTest, BudgetCapsFires) {
  FaultInjector injector(7);
  injector.Arm(FaultSite::kCsvOpen, {1.0, 3});
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (injector.ShouldFire(FaultSite::kCsvOpen)) ++fires;
  }
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(injector.site_stats(FaultSite::kCsvOpen).fires, 3);
  EXPECT_EQ(injector.total_fires(), 3);
}

TEST(FaultInjectorTest, DisarmedSitesNeverDrawOrFire) {
  FaultInjector injector(7);
  injector.Arm(FaultSite::kEngineRun, {1.0, -1});
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kReusePoison));
  EXPECT_EQ(injector.site_stats(FaultSite::kReusePoison).draws, 0);
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kEngineRun));
}

TEST(FaultInjectorTest, SiteStreamsAreIndependent) {
  // Arming (and drawing from) an extra site must not perturb another
  // site's schedule: each site forks its own rng stream.
  FaultInjector lone(11);
  lone.Arm(FaultSite::kEngineRun, {0.25, -1});
  FaultInjector paired(11);
  paired.Arm(FaultSite::kEngineRun, {0.25, -1});
  paired.Arm(FaultSite::kReuseEvictStorm, {0.5, -1});

  std::vector<bool> lone_fires, paired_fires;
  for (int i = 0; i < 300; ++i) {
    lone_fires.push_back(lone.ShouldFire(FaultSite::kEngineRun));
    // Interleave draws on the extra site.
    paired.ShouldFire(FaultSite::kReuseEvictStorm);
    paired_fires.push_back(paired.ShouldFire(FaultSite::kEngineRun));
    paired.ShouldFire(FaultSite::kReuseEvictStorm);
  }
  EXPECT_EQ(lone_fires, paired_fires);
}

TEST(FaultInjectorTest, ScopedInstallRestoresPrevious) {
  ASSERT_EQ(FaultInjector::Current(), nullptr);
  EXPECT_FALSE(FaultInjector::Fire(FaultSite::kEngineRun));
  FaultInjector outer(1);
  {
    ScopedFaultInjector outer_scope(&outer);
    EXPECT_EQ(FaultInjector::Current(), &outer);
    FaultInjector inner(2);
    inner.Arm(FaultSite::kEngineRun, {1.0, -1});
    {
      ScopedFaultInjector inner_scope(&inner);
      EXPECT_EQ(FaultInjector::Current(), &inner);
      EXPECT_TRUE(FaultInjector::Fire(FaultSite::kEngineRun));
    }
    EXPECT_EQ(FaultInjector::Current(), &outer);
    // Outer injector is unarmed: no fire, no draw.
    EXPECT_FALSE(FaultInjector::Fire(FaultSite::kEngineRun));
  }
  EXPECT_EQ(FaultInjector::Current(), nullptr);
}

// --- Exec-layer result transparency ----------------------------------------

/// Real-valued catalog: transparency must hold bitwise even where sums
/// are not exactly representable.
std::shared_ptr<storage::Catalog> ExecCatalog(int64_t rows = 4000) {
  storage::Schema schema({
      {"group", storage::DataType::kString, storage::AttributeKind::kNominal},
      {"value", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
  });
  auto fact = std::make_shared<storage::Table>("fact", schema);
  const char* groups[] = {"a", "b", "c", "d"};
  Rng rng(23);
  for (int64_t i = 0; i < rows; ++i) {
    fact->mutable_column(0).AppendString(groups[rng.UniformInt(0, 3)]);
    fact->mutable_column(1).AppendDouble(rng.Gaussian() * 100.0);
  }
  auto catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(catalog->AddTable(fact).ok());
  return catalog;
}

query::QuerySpec ExecSpec(const storage::Catalog& catalog) {
  query::QuerySpec spec;
  spec.viz_name = "v";
  query::BinDimension d;
  d.column = "group";
  d.mode = query::BinningMode::kNominal;
  spec.bins = {d};
  query::AggregateSpec count;
  count.type = query::AggregateType::kCount;
  query::AggregateSpec sum;
  sum.type = query::AggregateType::kSum;
  sum.column = "value";
  spec.aggregates = {count, sum};
  IDB_CHECK(spec.ResolveBins(catalog).ok());
  return spec;
}

TEST(ChaosExecTest, WorkerPoolStallIsBitTransparent) {
  auto catalog = ExecCatalog();
  const query::QuerySpec spec = ExecSpec(*catalog);
  auto bound = exec::BoundQuery::Bind(spec, *catalog, {});
  ASSERT_TRUE(bound.ok());
  const int64_t morsel = 2 * exec::kVectorBatchSize;

  exec::BinnedAggregator reference(&*bound);
  exec::MorselProcess(&reference, exec::FeedOrder::Scan(), 0, 4000,
                      /*parallelism=*/4, morsel);

  FaultInjector injector(5);
  injector.Arm(FaultSite::kWorkerPoolStall, {1.0, -1});
  ScopedFaultInjector scope(&injector);
  exec::BinnedAggregator stalled(&*bound);
  exec::MorselProcess(&stalled, exec::FeedOrder::Scan(), 0, 4000,
                      /*parallelism=*/4, morsel);
  EXPECT_GT(injector.site_stats(FaultSite::kWorkerPoolStall).fires, 0);
  EXPECT_GT(stalled.partial_pool_size(), 0u);  // the morsel merge ran

  // Same morsel boundaries, inline drain: bit-identical, even for
  // real-valued sums.
  EXPECT_EQ(reference.rows_seen(), stalled.rows_seen());
  std::string why;
  EXPECT_TRUE(ResultsMatch(reference.ExactResult(), stalled.ExactResult(),
                           /*rel_eps=*/0.0, &why))
      << why;
}

TEST(ChaosExecTest, MorselSlowdownEqualsExplicitOneBatchMorsels) {
  auto catalog = ExecCatalog();
  const query::QuerySpec spec = ExecSpec(*catalog);
  auto bound = exec::BoundQuery::Bind(spec, *catalog, {});
  ASSERT_TRUE(bound.ok());

  // Reference: explicit one-vector-batch morsels, no injection.
  exec::BinnedAggregator reference(&*bound);
  exec::MorselProcess(&reference, exec::FeedOrder::Scan(), 0, 4000,
                      /*parallelism=*/4, exec::kVectorBatchSize);

  // Injected: default morsel size, but the slowdown site degrades every
  // call to one-batch morsels.
  FaultInjector injector(5);
  injector.Arm(FaultSite::kMorselSlowdown, {1.0, -1});
  ScopedFaultInjector scope(&injector);
  exec::BinnedAggregator slowed(&*bound);
  exec::MorselProcess(&slowed, exec::FeedOrder::Scan(), 0, 4000,
                      /*parallelism=*/4);
  EXPECT_GT(injector.site_stats(FaultSite::kMorselSlowdown).fires, 0);

  EXPECT_EQ(reference.rows_seen(), slowed.rows_seen());
  std::string why;
  EXPECT_TRUE(ResultsMatch(reference.ExactResult(), slowed.ExactResult(),
                           /*rel_eps=*/0.0, &why))
      << why;
}

// --- CSV fault sites --------------------------------------------------------

TEST(ChaosCsvTest, LoaderRetriesUntilOpenBudgetRunsDry) {
  auto catalog = testutil::MakeTinyCatalog();
  const storage::Table* fact = catalog->fact_table();
  const std::string path = "chaos_csv_retry_test.csv";

  FaultInjector injector(3);
  injector.Arm(FaultSite::kCsvOpen, {1.0, 2});
  ScopedFaultInjector scope(&injector);

  int attempts = 0;
  Status last = Status::OK();
  for (; attempts < 8; ) {
    ++attempts;
    last = storage::WriteCsv(*fact, path);
    if (last.ok()) break;
    ASSERT_EQ(last.code(), StatusCode::kIoError) << last.ToString();
  }
  EXPECT_TRUE(last.ok()) << last.ToString();
  EXPECT_EQ(attempts, 3);  // two injected failures, then success

  auto read = storage::ReadCsv(path, fact->name(), fact->schema());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_rows(), fact->num_rows());
  std::remove(path.c_str());
}

TEST(ChaosCsvTest, AllocFaultSurfacesAsResourceExhausted) {
  auto catalog = testutil::MakeTinyCatalog();
  const storage::Table* fact = catalog->fact_table();
  const std::string path = "chaos_csv_alloc_test.csv";
  ASSERT_TRUE(storage::WriteCsv(*fact, path).ok());

  FaultInjector injector(3);
  injector.Arm(FaultSite::kCsvAlloc, {1.0, 1});
  ScopedFaultInjector scope(&injector);
  auto read = storage::ReadCsv(path, fact->name(), fact->schema());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kResourceExhausted);

  // Budget spent: the retry succeeds.
  auto retry = storage::ReadCsv(path, fact->name(), fact->schema());
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->num_rows(), fact->num_rows());
  std::remove(path.c_str());
}

// --- Session-scheduler fault handling ---------------------------------------

query::VizSpec TinyViz(const std::string& name) {
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
  return v;
}

class RecordingSink : public session::ResultSink {
 public:
  void OnUpdate(const ProgressiveUpdate& u) override { updates.push_back(u); }
  std::vector<ProgressiveUpdate> finals() const {
    std::vector<ProgressiveUpdate> out;
    for (const ProgressiveUpdate& u : updates) {
      if (u.final_update) out.push_back(u);
    }
    return out;
  }
  std::vector<ProgressiveUpdate> updates;
};

TEST(ChaosSessionTest, RunFaultRetriesWithBackoffThenCompletes) {
  auto engine = engines::CreateEngine("blocking");
  ASSERT_TRUE(engine.ok());
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000);
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());

  FaultInjector injector(9);
  injector.Arm(FaultSite::kEngineRun, {1.0, 2});  // first two grants wedge
  ScopedFaultInjector scope(&injector);

  SessionManagerOptions options;  // TR 3s, retries 3, backoff 50ms
  // Sliced scheduling: grants land early in the TR window, leaving the
  // backoff ladder room before the deadline (quantum 0 would run the
  // whole entitlement at the deadline horizon — nothing left to retry).
  options.quantum = 50'000;
  SessionManager manager(options, engine->get(), catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());
  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(TinyViz("v"))).ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  const session::SchedulerStats stats = manager.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.transient_faults, 2);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.max_deadline_overshoot, 0);

  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_TRUE(finals[0].completed);
  EXPECT_TRUE(finals[0].result.available);
  // Both retries waited out their virtual-time backoff first.
  EXPECT_GE(finals[0].virtual_time, options.retry_backoff * 3);
}

TEST(ChaosSessionTest, RunFaultExhaustsRetriesIntoFailedTerminal) {
  auto engine = engines::CreateEngine("blocking");
  ASSERT_TRUE(engine.ok());
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000);
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());

  FaultInjector injector(9);
  injector.Arm(FaultSite::kEngineRun, {1.0, -1});  // every grant wedges
  ScopedFaultInjector scope(&injector);

  SessionManagerOptions options;
  options.max_engine_retries = 3;
  options.quantum = 50'000;
  SessionManager manager(options, engine->get(), catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());
  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(TinyViz("v"))).ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  const session::SchedulerStats stats = manager.stats();
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.transient_faults, 4);  // initial fault + 3 retries
  EXPECT_EQ(stats.retries, 3);
  EXPECT_EQ(stats.max_deadline_overshoot, 0);
  EXPECT_FALSE(manager.HasLive());

  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_TRUE(finals[0].failed);
  EXPECT_FALSE(finals[0].completed);
  EXPECT_FALSE(finals[0].cancelled);
  EXPECT_FALSE(finals[0].unsupported);
}

TEST(ChaosSessionTest, FaultsNeverBreakTheDeadlineGuarantee) {
  // Retries must spend the query's own TR window: with a TR shorter than
  // the retry backoff ladder, the query deadline-cancels exactly on time
  // instead of overshooting into its backoff.
  auto engine = engines::CreateEngine("blocking");
  ASSERT_TRUE(engine.ok());
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000);
  ASSERT_TRUE((*engine)->Prepare(catalog).ok());

  FaultInjector injector(9);
  injector.Arm(FaultSite::kEngineRun, {1.0, -1});
  ScopedFaultInjector scope(&injector);

  SessionManagerOptions options;
  options.time_requirement = 120'000;  // < 50ms + 100ms + 200ms backoffs
  options.quantum = 50'000;
  SessionManager manager(options, engine->get(), catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());
  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(TinyViz("v"))).ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  const session::SchedulerStats stats = manager.stats();
  EXPECT_EQ(stats.deadline_cancelled + stats.failed, 1);
  EXPECT_EQ(stats.max_deadline_overshoot, 0);
  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_LE(finals[0].virtual_time, options.time_requirement);
}

// --- Invariant checker ------------------------------------------------------

TEST(InvariantCheckerTest, ResultsMatchRespectsRelEps) {
  query::QueryResult a;
  a.available = true;
  a.rows_processed = 10;
  query::BinResult bin;
  query::AggValue v;
  v.estimate = 100.0;
  v.margin = 1.0;
  bin.values.push_back(v);
  a.bins[3] = bin;
  query::QueryResult b = a;

  std::string why;
  EXPECT_TRUE(ResultsMatch(a, b, 0.0, &why)) << why;

  b.bins[3].values[0].estimate = 100.0 * (1.0 + 1e-12);
  EXPECT_FALSE(ResultsMatch(a, b, 0.0, &why));
  EXPECT_TRUE(ResultsMatch(a, b, 1e-9, &why)) << why;
  b.bins[3].values[0].estimate = 105.0;
  EXPECT_FALSE(ResultsMatch(a, b, 1e-9, &why));
}

// --- Scenario harness -------------------------------------------------------

void ExpectReportClean(const ChaosReport& report) {
  EXPECT_TRUE(report.run_error.ok())
      << report.scenario << "/" << report.engine << "/seed " << report.seed
      << ": " << report.run_error.ToString();
  for (const InvariantViolation& v : report.violations) {
    ADD_FAILURE() << report.scenario << "/" << report.engine << "/seed "
                  << report.seed << " [" << v.invariant << "] " << v.detail;
  }
}

TEST(ChaosScenarioTest, SeedReplayIsBitIdentical) {
  const ScenarioSpec* spec = FindScenario("thrash");
  ASSERT_NE(spec, nullptr);
  const ChaosReport a = RunScenario(*spec, "progressive", 42);
  const ChaosReport b = RunScenario(*spec, "progressive", 42);
  ExpectReportClean(a);
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.total_fires, b.total_fires);
  EXPECT_EQ(a.fault_summary, b.fault_summary);
  EXPECT_EQ(a.stats.queries_submitted, b.stats.queries_submitted);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.deadline_cancelled, b.stats.deadline_cancelled);
  EXPECT_EQ(a.stats.client_cancelled, b.stats.client_cancelled);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.transient_faults, b.stats.transient_faults);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.virtual_now, b.stats.virtual_now);

  const ChaosReport c = RunScenario(*spec, "progressive", 43);
  EXPECT_NE(a.event_log, c.event_log);
}

TEST(ChaosScenarioTest, IngestStormSeedReplayIsBitIdentical) {
  const ScenarioSpec* spec = FindScenario("ingest_storm");
  ASSERT_NE(spec, nullptr);
  const ChaosReport a = RunScenario(*spec, "progressive", 42);
  const ChaosReport b = RunScenario(*spec, "progressive", 42);
  ExpectReportClean(a);  // includes max_deadline_overshoot == 0
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.total_fires, b.total_fires);
  EXPECT_EQ(a.fault_summary, b.fault_summary);
  EXPECT_EQ(a.stats.virtual_now, b.stats.virtual_now);

  // The storm must actually have ingested — otherwise the scenario proves
  // nothing about queries racing publishes.
  bool ingested = false;
  for (const std::string& line : a.event_log) {
    ingested = ingested || line.find("ingest applied=") != std::string::npos;
  }
  EXPECT_TRUE(ingested);

  const ChaosReport c = RunScenario(*spec, "progressive", 43);
  EXPECT_NE(a.event_log, c.event_log);
}

TEST(ChaosScenarioTest, CatalogHasTheDocumentedScenarios) {
  for (const char* name :
       {"baseline", "cancel_storm", "session_kill", "submit_flood",
        "deadline_epsilon", "link_churn", "engine_faults", "reuse_churn",
        "io_faults", "thrash", "ingest_storm"}) {
    EXPECT_NE(FindScenario(name), nullptr) << name;
  }
  EXPECT_EQ(FindScenario("no_such_scenario"), nullptr);
}

TEST(ChaosScenarioTest, InjectedSweepHoldsEveryInvariant) {
  // The in-tree sweep covers two engines at a few seeds; the CI chaos
  // job widens to every engine and >= 20 seeds via chaos_runner.
  int64_t fires = 0;
  for (const ScenarioSpec& spec : ScenarioCatalog()) {
    for (const char* engine : {"blocking", "progressive"}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        const ChaosReport report =
            RunScenarioWithReference(spec, engine, seed);
        ExpectReportClean(report);
        fires += report.total_fires;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  // The sweep must actually have injected something, or it proves
  // nothing about fault handling.
  EXPECT_GT(fires, 0);
}

TEST(ChaosScenarioTest, AllEnginesSurviveTheThrashScenario) {
  const ScenarioSpec* spec = FindScenario("thrash");
  ASSERT_NE(spec, nullptr);
  for (const std::string& engine : engines::BuiltinEngineNames()) {
    ExpectReportClean(RunScenarioWithReference(*spec, engine, 7));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ChaosScenarioTest, IoFaultsScenarioRetriesSetup) {
  const ScenarioSpec* spec = FindScenario("io_faults");
  ASSERT_NE(spec, nullptr);
  bool retried = false;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const ChaosReport report = RunScenario(*spec, "blocking", seed);
    ExpectReportClean(report);
    retried = retried || report.prepare_attempts > 1 || report.total_fires > 0;
  }
  // Across five seeds the armed setup sites must have fired somewhere.
  EXPECT_TRUE(retried);
}

}  // namespace
}  // namespace idebench::chaos
