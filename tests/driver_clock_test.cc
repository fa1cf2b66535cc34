/// \file driver_clock_test.cc
/// Clock plumbing: the driver starts interaction i after i think times
/// of virtual time, and online engines publish snapshots only at report
/// intervals regardless of polling frequency.

#include <gtest/gtest.h>

#include "driver/benchmark_driver.h"
#include "engines/blocking_engine.h"
#include "engines/online_engine.h"
#include "tests/test_util.h"
#include "workflow/workflow.h"

namespace idebench::driver {
namespace {

using workflow::Interaction;
using workflow::Workflow;

query::VizSpec MakeViz(const std::string& name) {
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

Workflow ThreeCreates() {
  Workflow wf;
  wf.name = "clocked";
  wf.type = workflow::WorkflowType::kIndependent;
  wf.interactions.push_back(Interaction::CreateViz(MakeViz("a")));
  wf.interactions.push_back(Interaction::CreateViz(MakeViz("b")));
  wf.interactions.push_back(Interaction::CreateViz(MakeViz("c")));
  return wf;
}

TEST(DriverClockTest, ExternalVirtualClockAdvancesByThinkTime) {
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000);
  engines::BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  engines::BlockingEngine engine(config);

  Settings settings;
  settings.time_requirement = SecondsToMicros(1.0);
  settings.think_time = SecondsToMicros(2.0);
  BenchmarkDriver driver(settings, &engine, catalog);
  ASSERT_TRUE(driver.PrepareEngine().ok());

  std::vector<QueryRecord> records;
  ASSERT_TRUE(driver.RunWorkflow(ThreeCreates(), &records).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].start_time, 0);
  EXPECT_EQ(records[1].start_time, SecondsToMicros(2.0));
  EXPECT_EQ(records[2].start_time, SecondsToMicros(4.0));
}

TEST(OnlineSnapshotTest, StaleBetweenReportIntervals) {
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000'000);
  engines::OnlineEngineConfig config;
  config.sample_us_per_row = 100'000.0;  // 0.1 s per row: 8 rows = 0.8 s
  config.query_overhead_us = 0;
  config.report_interval_us = 300'000;  // one report per 3 rows
  engines::OnlineEngine engine(config);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  query::QuerySpec spec = testutil::MakeCountByGroupSpec(*catalog);
  auto handle = engine.Submit(spec);
  ASSERT_TRUE(handle.ok());

  // After 3 rows of work: first snapshot (3 rows).
  engine.RunFor(*handle, 300'000);
  auto first = engine.PollResult(*handle);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->available);
  EXPECT_EQ(first->rows_processed, 3);

  // One more row (work 0.4 s, next interval at 0.6 s): snapshot is stale.
  engine.RunFor(*handle, 100'000);
  auto stale = engine.PollResult(*handle);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->rows_processed, 3);  // unchanged

  // Two more rows cross the second interval: snapshot refreshes.
  engine.RunFor(*handle, 200'000);
  auto fresh = engine.PollResult(*handle);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows_processed, 6);
}

}  // namespace
}  // namespace idebench::driver
