/// \file integration_test.cc
/// End-to-end tests across modules: dataset building, full benchmark
/// runs, determinism, golden-file replay, and cross-engine invariants on
/// realistic (small) configurations.

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/dataset.h"
#include "core/idebench.h"
#include "query/sql.h"
#include "workflow/generator.h"

namespace idebench::core {
namespace {

DatasetConfig TinyDataset(bool normalized = false) {
  DatasetConfig config;
  config.nominal_rows = 50'000'000;  // 50 M nominal
  config.actual_rows = 20'000;
  config.seed_rows = 10'000;
  config.normalized = normalized;
  config.seed = 99;
  return config;
}

BenchmarkConfig TinyBenchmark(const std::string& engine) {
  BenchmarkConfig config;
  config.engine = engine;
  config.dataset = TinyDataset();
  config.time_requirements_s = {0.5, 3.0};
  config.workflows_per_type = 2;
  config.seed = 5;
  return config;
}

TEST(DatasetTest, BuildDenormalized) {
  auto catalog = BuildFlightsCatalog(TinyDataset(false));
  ASSERT_TRUE(catalog.ok());
  EXPECT_FALSE((*catalog)->is_normalized());
  EXPECT_EQ((*catalog)->fact_table()->num_rows(), 20'000);
  EXPECT_EQ((*catalog)->nominal_rows(), 50'000'000);
}

TEST(DatasetTest, BuildNormalizedStarSchema) {
  auto catalog = BuildFlightsCatalog(TinyDataset(true));
  ASSERT_TRUE(catalog.ok());
  EXPECT_TRUE((*catalog)->is_normalized());
  EXPECT_EQ((*catalog)->tables().size(), 3u);
  EXPECT_EQ((*catalog)->foreign_keys().size(), 2u);
  // The fact table sheds the dimension columns.
  EXPECT_EQ((*catalog)->fact_table()->ColumnByName("carrier"), nullptr);
  EXPECT_NE((*catalog)->GetTable("carriers"), nullptr);
}

TEST(DatasetTest, DefaultActualRowsDerivation) {
  DatasetConfig config = MediumDataset();
  EXPECT_EQ(config.EffectiveActualRows(), 500'000);
  config = LargeDataset();
  EXPECT_EQ(config.EffectiveActualRows(), 600'000);  // capped
  config.actual_rows = 1'000;
  EXPECT_EQ(config.EffectiveActualRows(), 1'000);
}

TEST(DatasetTest, SizeLabels) {
  EXPECT_EQ(DataSizeLabel(100'000'000), "100m");
  EXPECT_EQ(DataSizeLabel(500'000'000), "500m");
  EXPECT_EQ(DataSizeLabel(1'000'000'000), "1b");
}

TEST(IntegrationTest, FullRunProgressiveEngine) {
  auto outcome = RunBenchmark(TinyBenchmark("progressive"));
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->records.size(), 20u);
  EXPECT_EQ(outcome->summary.size(), 2u);  // one per TR
  EXPECT_GT(outcome->data_preparation_time, 0);
  // The progressive engine almost never violates (restart overhead can
  // cost the very first query at TR=0.5).
  for (const auto& row : outcome->summary) {
    EXPECT_LT(row.tr_violation_rate, 0.1) << row.group;
  }
}

TEST(IntegrationTest, FullRunBlockingEngineViolatesTightTr) {
  auto outcome = RunBenchmark(TinyBenchmark("blocking"));
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->summary.size(), 2u);
  // 50 M nominal at ~5 ns/row = 0.25 s base; complexity pushes many
  // queries past 0.5 s but almost none past 3 s.
  EXPECT_GT(outcome->summary[0].tr_violation_rate,
            outcome->summary[1].tr_violation_rate);
  // Whatever the blocking engine returns is exact.
  for (const auto& r : outcome->records) {
    if (!r.metrics.tr_violated) {
      EXPECT_NEAR(r.metrics.mean_rel_error, 0.0, 1e-9);
      EXPECT_NEAR(r.metrics.missing_bins, 0.0, 1e-9);
    }
  }
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  auto a = RunBenchmark(TinyBenchmark("stratified"));
  auto b = RunBenchmark(TinyBenchmark("stratified"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->records.size(), b->records.size());
  for (size_t i = 0; i < a->records.size(); ++i) {
    EXPECT_EQ(a->records[i].sql, b->records[i].sql);
    EXPECT_DOUBLE_EQ(a->records[i].metrics.mean_rel_error,
                     b->records[i].metrics.mean_rel_error);
    EXPECT_EQ(a->records[i].metrics.tr_violated,
              b->records[i].metrics.tr_violated);
  }
}

TEST(IntegrationTest, NormalizedRunWithJoins) {
  BenchmarkConfig config = TinyBenchmark("blocking");
  config.dataset.normalized = true;
  config.time_requirements_s = {3.0};
  auto outcome = RunBenchmark(config);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->records.size(), 10u);
  // At least one query must reference a dimension column and render a
  // JOIN in its SQL.
  bool saw_join = false;
  for (const auto& r : outcome->records) {
    if (r.sql.find(" JOIN ") != std::string::npos) saw_join = true;
  }
  EXPECT_TRUE(saw_join);
}

TEST(IntegrationTest, OnlineEngineFallbackShareIsSubstantial) {
  BenchmarkConfig config = TinyBenchmark("online");
  config.dataset.nominal_rows = 500'000'000;  // make fallback scans slow
  config.time_requirements_s = {1.0};
  auto outcome = RunBenchmark(config);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->summary.size(), 1u);
  // AVG/multi-aggregate queries fall back to blocking scans that cannot
  // meet 1 s at 500 M: a large share of violations, as in the paper.
  EXPECT_GT(outcome->summary[0].tr_violation_rate, 0.3);
  EXPECT_LT(outcome->summary[0].tr_violation_rate, 0.9);
}

TEST(IntegrationTest, StratifiedQualityConstantAcrossTr) {
  BenchmarkConfig config = TinyBenchmark("stratified");
  auto outcome = RunBenchmark(config);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->summary.size(), 2u);
  // Identical sample -> identical quality at both TRs (violation rates
  // may differ).
  EXPECT_NEAR(outcome->summary[0].mean_missing_bins,
              outcome->summary[1].mean_missing_bins, 1e-9);
  EXPECT_NEAR(outcome->summary[0].median_mre, outcome->summary[1].median_mre,
              1e-9);
}

TEST(IntegrationTest, UnknownEngineFails) {
  BenchmarkConfig config = TinyBenchmark("warp_drive");
  EXPECT_FALSE(RunBenchmark(config).ok());
}

// --- Golden-file end-to-end replay -----------------------------------------

constexpr const char* kGoldenWorkflowPath =
    IDEBENCH_SOURCE_DIR "/tests/golden/workflow_small.json";
constexpr const char* kGoldenExpectedPath =
    IDEBENCH_SOURCE_DIR "/tests/golden/workflow_small_expected.json";

/// Serializes the metrics fields of the detailed report as pretty JSON;
/// doubles print at %.17g (common/json.cc), so the text is a faithful
/// bit-level witness of every metric.
std::string MetricsReportJson(const std::vector<driver::QueryRecord>& records) {
  JsonValue arr = JsonValue::Array();
  for (const driver::QueryRecord& r : records) {
    JsonValue j = JsonValue::Object();
    j.Set("id", static_cast<double>(r.id));
    j.Set("interaction_id", static_cast<double>(r.interaction_id));
    j.Set("viz", r.viz_name);
    j.Set("sql", r.sql);
    j.Set("progress", r.progress);
    j.Set("tr_violated", r.metrics.tr_violated);
    j.Set("bins_delivered", static_cast<double>(r.metrics.bins_delivered));
    j.Set("bins_in_gt", static_cast<double>(r.metrics.bins_in_gt));
    j.Set("missing_bins", r.metrics.missing_bins);
    j.Set("mean_rel_error", r.metrics.mean_rel_error);
    j.Set("rel_error_stdev", r.metrics.rel_error_stdev);
    j.Set("smape", r.metrics.smape);
    j.Set("cosine_distance", r.metrics.cosine_distance);
    j.Set("mean_margin_rel", r.metrics.mean_margin_rel);
    j.Set("margin_stdev", r.metrics.margin_stdev);
    j.Set("bins_out_of_margin",
          static_cast<double>(r.metrics.bins_out_of_margin));
    j.Set("bias", r.metrics.bias);
    arr.Append(std::move(j));
  }
  return arr.DumpPretty() + "\n";
}

/// Replays the committed workflow on a fixed configuration and compares
/// the produced metrics report, field for field and bit for bit, against
/// the committed expectation.  Regenerate both files after an intended
/// behavior change with:
///   IDEBENCH_REGEN_GOLDEN=1 ./idebench_tests --gtest_filter='*GoldenWorkflow*'
TEST(IntegrationTest, GoldenWorkflowReplayMatchesCommittedReport) {
  const bool regen = std::getenv("IDEBENCH_REGEN_GOLDEN") != nullptr;

  DatasetConfig dataset = TinyDataset();
  dataset.actual_rows = 8'000;
  auto catalog = BuildFlightsCatalog(dataset);
  ASSERT_TRUE(catalog.ok());

  workflow::Workflow wf;
  if (regen) {
    workflow::GeneratorConfig generator_config;
    workflow::WorkflowGenerator generator((*catalog)->fact_table(),
                                          generator_config, /*seed=*/42);
    auto generated = generator.Generate(workflow::WorkflowType::kMixed,
                                        "golden_small");
    ASSERT_TRUE(generated.ok());
    wf = std::move(generated).MoveValueUnsafe();
    ASSERT_TRUE(wf.SaveToFile(kGoldenWorkflowPath).ok());
  } else {
    auto loaded = workflow::Workflow::LoadFromFile(kGoldenWorkflowPath);
    ASSERT_TRUE(loaded.ok()) << "missing golden workflow file";
    wf = std::move(loaded).MoveValueUnsafe();
  }

  auto engine = engines::CreateEngine("progressive", /*seed=*/0,
                                      /*threads=*/1, /*reuse_cache=*/false);
  ASSERT_TRUE(engine.ok());
  driver::Settings settings;
  settings.time_requirement = SecondsToMicros(1.0);
  settings.think_time = SecondsToMicros(1.0);
  driver::BenchmarkDriver bench_driver(settings, engine->get(), *catalog);
  ASSERT_TRUE(bench_driver.PrepareEngine().ok());
  std::vector<driver::QueryRecord> records;
  ASSERT_TRUE(bench_driver.RunWorkflow(wf, &records).ok());
  ASSERT_GT(records.size(), 5u);

  const std::string report = MetricsReportJson(records);
  if (regen) {
    std::ofstream out(kGoldenExpectedPath);
    ASSERT_TRUE(out.good());
    out << report;
    return;
  }
  std::ifstream in(kGoldenExpectedPath);
  ASSERT_TRUE(in.good()) << "missing golden expectation file";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(report, expected.str())
      << "metrics drifted from the committed golden report; if the change "
         "is intended, regenerate with IDEBENCH_REGEN_GOLDEN=1";
}

}  // namespace
}  // namespace idebench::core
