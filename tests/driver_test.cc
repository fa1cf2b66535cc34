#include "driver/benchmark_driver.h"

#include <gtest/gtest.h>

#include "driver/ground_truth.h"
#include "driver/settings.h"
#include "engines/blocking_engine.h"
#include "engines/online_engine.h"
#include "engines/progressive_engine.h"
#include "tests/test_util.h"
#include "workflow/resolve.h"
#include "workflow/workflow.h"

namespace idebench::driver {
namespace {

using engines::BlockingEngine;
using engines::BlockingEngineConfig;
using workflow::Interaction;
using workflow::Workflow;
using workflow::WorkflowType;

query::VizSpec MakeGroupViz(const std::string& name) {
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

expr::FilterExpr LabelFilter(const std::string& column,
                             const std::string& label) {
  expr::FilterExpr f;
  expr::Predicate p;
  p.column = column;
  p.op = expr::CompareOp::kIn;
  p.string_values = {label};
  f.And(p);
  return f;
}

TEST(SettingsTest, ValidationAndJsonRoundTrip) {
  Settings s;
  EXPECT_TRUE(s.Validate().ok());
  auto parsed = Settings::FromJson(s.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->time_requirement, s.time_requirement);
  EXPECT_EQ(parsed->think_time, s.think_time);

  Settings bad = s;
  bad.time_requirement = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = s;
  bad.confidence_level = 1.5;
  EXPECT_FALSE(bad.Validate().ok());
  bad = s;
  bad.concurrency_penalty = -1;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(GroundTruthTest, ExactAndCached) {
  auto catalog = testutil::MakeTinyCatalog();
  GroundTruthOracle oracle(catalog);
  query::QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto truth = oracle.Get(spec);
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE((*truth)->exact);
  EXPECT_DOUBLE_EQ((*truth)->bins.at(0).values[0].estimate, 4.0);
  EXPECT_EQ(oracle.cache_hits(), 0);
  auto again = oracle.Get(spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *truth);  // same pointer
  EXPECT_EQ(oracle.cache_hits(), 1);
}

/// Warm must fill the cache with answers bit-identical to sequential Get
/// calls, independent of the oracle's thread count, and leave later Gets
/// as pure cache hits.
TEST(GroundTruthTest, WarmThreadInvariant) {
  auto catalog = testutil::MakeTinyCatalog();

  // A few distinct specs (plus a duplicate, which Warm must dedupe).
  std::vector<query::QuerySpec> specs;
  specs.push_back(testutil::MakeCountByGroupSpec(*catalog));
  specs.push_back(testutil::MakeAvgValueSpec(*catalog));
  specs.push_back(testutil::MakeAvgValueSpec(*catalog, 2));
  specs.push_back(testutil::MakeCountByGroupSpec(*catalog));

  GroundTruthOracle sequential(catalog, /*threads=*/1);
  for (const query::QuerySpec& spec : specs) {
    ASSERT_TRUE(sequential.Get(spec).ok());
  }

  for (int threads : {1, 4}) {
    GroundTruthOracle warmed(catalog, threads);
    ASSERT_TRUE(warmed.Warm(specs).ok());
    EXPECT_EQ(warmed.cache_size(), 3);
    for (const query::QuerySpec& spec : specs) {
      auto expected = sequential.Get(spec);
      auto actual = warmed.Get(spec);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok());
      ASSERT_EQ((*expected)->bins.size(), (*actual)->bins.size());
      for (const auto& [key, bin] : (*expected)->bins) {
        const auto it = (*actual)->bins.find(key);
        ASSERT_NE(it, (*actual)->bins.end());
        ASSERT_EQ(bin.values.size(), it->second.values.size());
        for (size_t v = 0; v < bin.values.size(); ++v) {
          EXPECT_EQ(bin.values[v].estimate, it->second.values[v].estimate);
          EXPECT_EQ(bin.values[v].margin, it->second.values[v].margin);
        }
      }
    }
    // Every post-warm Get was a cache hit.
    EXPECT_EQ(warmed.cache_hits(), static_cast<int64_t>(specs.size()));
    // Warming again is a no-op.
    ASSERT_TRUE(warmed.Warm(specs).ok());
    EXPECT_EQ(warmed.cache_size(), 3);
  }
}

class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testutil::MakeTinyCatalog();
    catalog_->set_nominal_rows(1'000'000);
  }

  Settings FastSettings() {
    Settings s;
    s.time_requirement = SecondsToMicros(1.0);
    s.think_time = SecondsToMicros(0.5);
    s.data_size_label = "1m";
    return s;
  }

  Workflow TwoVizWorkflow() {
    Workflow wf;
    wf.name = "wf_test";
    wf.type = WorkflowType::kSequential;
    wf.interactions.push_back(Interaction::CreateViz(MakeGroupViz("v0")));
    wf.interactions.push_back(Interaction::CreateViz(MakeGroupViz("v1")));
    wf.interactions.push_back(Interaction::Link("v0", "v1"));
    wf.interactions.push_back(
        Interaction::SetSelection("v0", LabelFilter("group", "a")));
    return wf;
  }

  std::shared_ptr<storage::Catalog> catalog_;
};

TEST_F(DriverTest, RunsWorkflowAndRecordsQueries) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;  // 1 M rows -> 10 ms: everything finishes
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  BenchmarkDriver driver(FastSettings(), &engine, catalog_);
  ASSERT_TRUE(driver.PrepareEngine().ok());
  EXPECT_GT(driver.data_preparation_time(), 0);

  std::vector<QueryRecord> records;
  ASSERT_TRUE(driver.RunWorkflow(TwoVizWorkflow(), &records).ok());
  // create v0 -> 1 query; create v1 -> 1; link -> v1 updates -> 1;
  // selection on v0 -> v1 updates -> 1.  Total 4.
  ASSERT_EQ(records.size(), 4u);
  for (const QueryRecord& r : records) {
    EXPECT_FALSE(r.metrics.tr_violated);
    EXPECT_EQ(r.driver_name, "blocking");
    EXPECT_EQ(r.workflow, "wf_test");
    EXPECT_LE(r.end_time - r.start_time, SecondsToMicros(1.0));
    EXPECT_FALSE(r.sql.empty());
  }
  // The last query (v1 filtered to group "a") has ground truth of 1 bin.
  EXPECT_EQ(records[3].metrics.bins_in_gt, 1);
  EXPECT_DOUBLE_EQ(records[3].metrics.missing_bins, 0.0);
  // Interaction ids recorded against the triggering interaction.
  EXPECT_EQ(records[3].interaction_id, 3);
}

TEST_F(DriverTest, WarmGroundTruthPrecomputesWorkflowQueries) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto oracle = std::make_shared<GroundTruthOracle>(catalog_, /*threads=*/4);
  BenchmarkDriver driver(FastSettings(), &engine, catalog_, oracle);
  ASSERT_TRUE(driver.PrepareEngine().ok());

  // The dry pass enumerates and resolves the same queries the run will
  // trigger, so the run itself is all cache hits.
  ASSERT_TRUE(driver.WarmGroundTruth({TwoVizWorkflow()}).ok());
  const int64_t warmed = oracle->cache_size();
  EXPECT_GT(warmed, 0);
  std::vector<QueryRecord> records;
  ASSERT_TRUE(driver.RunWorkflow(TwoVizWorkflow(), &records).ok());
  EXPECT_EQ(oracle->cache_size(), warmed);
  EXPECT_EQ(oracle->cache_hits(), static_cast<int64_t>(records.size()));
}

TEST_F(DriverTest, TrViolationsForSlowEngine) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;  // 1 M rows -> 10 s: never finishes
  BlockingEngine engine(config);
  BenchmarkDriver driver(FastSettings(), &engine, catalog_);
  ASSERT_TRUE(driver.PrepareEngine().ok());
  std::vector<QueryRecord> records;
  ASSERT_TRUE(driver.RunWorkflow(TwoVizWorkflow(), &records).ok());
  for (const QueryRecord& r : records) {
    EXPECT_TRUE(r.metrics.tr_violated);
    EXPECT_DOUBLE_EQ(r.metrics.missing_bins, 1.0);
    // Cancelled exactly at the time requirement.
    EXPECT_EQ(r.end_time - r.start_time, SecondsToMicros(1.0));
  }
}

TEST_F(DriverTest, StartTimesAdvanceByThinkTime) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  BenchmarkDriver driver(FastSettings(), &engine, catalog_);
  ASSERT_TRUE(driver.PrepareEngine().ok());
  std::vector<QueryRecord> records;
  ASSERT_TRUE(driver.RunWorkflow(TwoVizWorkflow(), &records).ok());
  EXPECT_EQ(records[0].start_time, 0);
  EXPECT_EQ(records[1].start_time, SecondsToMicros(0.5));
  EXPECT_EQ(records[2].start_time, SecondsToMicros(1.0));
  EXPECT_EQ(records[3].start_time, SecondsToMicros(1.5));
}

TEST_F(DriverTest, ResolveQueryRewritesNominalLabels) {
  query::QuerySpec spec;
  spec.viz_name = "v";
  query::BinDimension d;
  d.column = "group";
  d.mode = query::BinningMode::kNominal;
  spec.bins.push_back(d);
  query::AggregateSpec a;
  a.type = query::AggregateType::kCount;
  spec.aggregates.push_back(a);
  expr::Predicate p;
  p.column = "group";
  p.op = expr::CompareOp::kIn;
  p.string_values = {"b", "no_such_label"};
  spec.filter.And(p);

  ASSERT_TRUE(workflow::ResolveQueryAgainst(*catalog_, &spec).ok());
  ASSERT_EQ(spec.filter.predicates()[0].set_values.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.filter.predicates()[0].set_values[0], 1.0);   // "b"
  EXPECT_DOUBLE_EQ(spec.filter.predicates()[0].set_values[1], -1.0);  // absent
  EXPECT_TRUE(spec.bins[0].resolved);
}

TEST_F(DriverTest, ConcurrencyPenaltyShrinksBudget) {
  // With a harsh penalty, the 1:2 fan-out interaction gets half the
  // budget per query and the (exactly-1s) queries start violating.
  BlockingEngineConfig config;
  config.scan_ns_per_row = 900.0;  // 1 M rows -> 0.9 s < TR alone
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  Settings settings = FastSettings();
  settings.concurrency_penalty = 1.0;  // two queries -> budget / 2
  BenchmarkDriver driver(settings, &engine, catalog_);
  ASSERT_TRUE(driver.PrepareEngine().ok());

  Workflow wf;
  wf.name = "fanout";
  wf.type = WorkflowType::kOneToN;
  wf.interactions.push_back(Interaction::CreateViz(MakeGroupViz("hub")));
  wf.interactions.push_back(Interaction::CreateViz(MakeGroupViz("t1")));
  wf.interactions.push_back(Interaction::CreateViz(MakeGroupViz("t2")));
  wf.interactions.push_back(Interaction::Link("hub", "t1"));
  wf.interactions.push_back(Interaction::Link("hub", "t2"));
  // Selection on the hub triggers t1 and t2 concurrently.
  wf.interactions.push_back(
      Interaction::SetSelection("hub", LabelFilter("group", "a")));

  std::vector<QueryRecord> records;
  ASSERT_TRUE(driver.RunWorkflow(wf, &records).ok());
  // Single-viz creations finish (0.9 s < 1 s)...
  EXPECT_FALSE(records[0].metrics.tr_violated);
  // ...but the two concurrent updates triggered by the selection violate.
  const QueryRecord& concurrent = records.back();
  EXPECT_EQ(concurrent.num_concurrent, 2);
  EXPECT_TRUE(concurrent.metrics.tr_violated);
}

TEST_F(DriverTest, RunWorkflowsAccumulatesRecords) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  BlockingEngine engine(config);
  BenchmarkDriver driver(FastSettings(), &engine, catalog_);
  ASSERT_TRUE(driver.PrepareEngine().ok());
  auto records = driver.RunWorkflows({TwoVizWorkflow(), TwoVizWorkflow()});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 8u);
  // Query ids are unique across workflows.
  EXPECT_EQ((*records)[7].id, 7);
}

/// Multi-session serving mode: more workflows than sessions, so every
/// session replays several workflows back-to-back (the dashboard must
/// reset between them), concurrently with the others on one shared
/// engine, under the fair deadline scheduler.
TEST_F(DriverTest, MultiSessionRunDistributesWorkflowsFairly) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  Settings settings = FastSettings();
  settings.sessions = 2;
  BenchmarkDriver driver(settings, &engine, catalog_);
  ASSERT_TRUE(driver.PrepareEngine().ok());

  // 2 sessions x 2 workflows each: workflow boundaries inside a session.
  const std::vector<workflow::Workflow> workflows = {
      TwoVizWorkflow(), TwoVizWorkflow(), TwoVizWorkflow(), TwoVizWorkflow()};
  auto records = driver.RunWorkflows(workflows);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 16u);  // 4 queries per workflow

  // Both sessions produced half the records; everything completed.
  int per_session[2] = {0, 0};
  for (const QueryRecord& r : *records) {
    ASSERT_GE(r.session, 0);
    ASSERT_LT(r.session, 2);
    ++per_session[r.session];
    EXPECT_FALSE(r.metrics.tr_violated);
  }
  EXPECT_EQ(per_session[0], 8);
  EXPECT_EQ(per_session[1], 8);

  const session::SchedulerStats& stats = driver.scheduler_stats();
  EXPECT_EQ(stats.sessions_opened, 2);
  EXPECT_EQ(stats.queries_submitted, 16);
  EXPECT_EQ(stats.completed, 16);
  EXPECT_EQ(stats.max_deadline_overshoot, 0);
}

TEST_F(DriverTest, UnsupportedQueriesReportedAsViolations) {
  // The stratified engine rejects nothing on denormalized data, so use a
  // progressive engine with a doctored spec?  Simpler: the online engine
  // with fallback disabled rejects AVG queries.
  engines::OnlineEngineConfig config;
  config.enable_fallback = false;
  engines::OnlineEngine engine(config);
  BenchmarkDriver driver(FastSettings(), &engine, catalog_);
  ASSERT_TRUE(driver.PrepareEngine().ok());

  query::VizSpec avg_viz;
  avg_viz.name = "v";
  avg_viz.source = "tiny";
  query::BinDimension d;
  d.column = "group";
  d.mode = query::BinningMode::kNominal;
  avg_viz.bins.push_back(d);
  query::AggregateSpec a;
  a.type = query::AggregateType::kAvg;
  a.column = "value";
  avg_viz.aggregates.push_back(a);

  Workflow wf;
  wf.name = "unsupported";
  wf.type = WorkflowType::kIndependent;
  wf.interactions.push_back(Interaction::CreateViz(avg_viz));
  std::vector<QueryRecord> records;
  ASSERT_TRUE(driver.RunWorkflow(wf, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].metrics.tr_violated);
}

}  // namespace
}  // namespace idebench::driver
