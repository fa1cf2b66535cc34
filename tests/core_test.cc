/// \file core_test.cc
/// Additional end-to-end coverage of the core façade, the CLI-facing
/// configuration surface, report round-trips on live data, and failure
/// injection at the driver boundary.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/idebench.h"
#include "engines/stratified_engine.h"
#include "tests/test_util.h"

namespace idebench::core {
namespace {

DatasetConfig TinyConfig() {
  DatasetConfig config;
  config.nominal_rows = 50'000'000;
  config.actual_rows = 15'000;
  config.seed_rows = 8'000;
  config.seed = 3;
  return config;
}

TEST(CoreTest, MultipleWorkflowTypesProduceTypedRecords) {
  BenchmarkConfig config;
  config.engine = "progressive";
  config.dataset = TinyConfig();
  config.time_requirements_s = {1.0};
  config.workflows_per_type = 1;
  config.workflow_types = {workflow::WorkflowType::kIndependent,
                           workflow::WorkflowType::kOneToN};
  auto outcome = RunBenchmark(config);
  ASSERT_TRUE(outcome.ok());
  bool saw_independent = false;
  bool saw_one_to_n = false;
  for (const auto& r : outcome->records) {
    if (r.workflow_type == "independent") saw_independent = true;
    if (r.workflow_type == "one_to_n") saw_one_to_n = true;
  }
  EXPECT_TRUE(saw_independent);
  EXPECT_TRUE(saw_one_to_n);
}

TEST(CoreTest, SummaryGroupsOnePerTimeRequirement) {
  BenchmarkConfig config;
  config.engine = "blocking";
  config.dataset = TinyConfig();
  config.time_requirements_s = {0.5, 1.0, 3.0};
  config.workflows_per_type = 1;
  auto outcome = RunBenchmark(config);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->summary.size(), 3u);
  EXPECT_NE(outcome->summary[0].group.find("0.5"), std::string::npos);
  EXPECT_NE(outcome->summary[2].group.find("10.0"),
            outcome->summary[2].group.find("3.0"));
}

TEST(CoreTest, DetailedReportCsvRoundTripsThroughDisk) {
  BenchmarkConfig config;
  config.engine = "stratified";
  config.dataset = TinyConfig();
  config.time_requirements_s = {1.0};
  config.workflows_per_type = 1;
  auto outcome = RunBenchmark(config);
  ASSERT_TRUE(outcome.ok());

  const std::string path =
      std::string(::testing::TempDir()) + "/core_detailed.csv";
  ASSERT_TRUE(report::WriteDetailedReport(outcome->records, path).ok());
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_EQ(header, report::DetailedReportHeader());
  size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, outcome->records.size());
  std::remove(path.c_str());
}

TEST(CoreTest, FrontendEngineRunsEndToEnd) {
  BenchmarkConfig config;
  config.engine = "frontend";
  config.dataset = TinyConfig();
  config.time_requirements_s = {0.5, 5.0};
  config.workflows_per_type = 1;
  auto outcome = RunBenchmark(config);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->summary.size(), 2u);
  // Rendering takes >= 1 s, so TR = 0.5 s always violates.
  EXPECT_DOUBLE_EQ(outcome->summary[0].tr_violation_rate, 1.0);
  EXPECT_LT(outcome->summary[1].tr_violation_rate, 1.0);
}

TEST(CoreTest, NormalizedRunOnStratifiedEngineFailsPrepare) {
  // The stratified engine rejects star schemas at Prepare (as System X
  // does); RunBenchmark surfaces that as an error rather than data loss.
  BenchmarkConfig config;
  config.engine = "stratified";
  config.dataset = TinyConfig();
  config.dataset.normalized = true;
  config.time_requirements_s = {1.0};
  config.workflows_per_type = 1;
  auto outcome = RunBenchmark(config);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotImplemented);
}

TEST(CoreTest, SeedChangesWorkload) {
  BenchmarkConfig a = {};
  a.engine = "blocking";
  a.dataset = TinyConfig();
  a.time_requirements_s = {3.0};
  a.workflows_per_type = 1;
  BenchmarkConfig b = a;
  b.seed = a.seed + 1;
  auto ra = RunBenchmark(a);
  auto rb = RunBenchmark(b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Different seeds generate different workflows.
  bool differs = ra->records.size() != rb->records.size();
  for (size_t i = 0; !differs && i < ra->records.size(); ++i) {
    differs = ra->records[i].sql != rb->records[i].sql;
  }
  EXPECT_TRUE(differs);
}

TEST(CoreTest, ProgressiveBeatsBlockingAtTightTr) {
  // The paper's headline: at interactive TRs, a progressive engine
  // delivers results where a blocking engine delivers nothing.
  BenchmarkConfig config;
  config.dataset = TinyConfig();
  config.dataset.nominal_rows = 500'000'000;
  config.time_requirements_s = {0.5};
  config.workflows_per_type = 2;

  config.engine = "blocking";
  auto blocking = RunBenchmark(config);
  config.engine = "progressive";
  auto progressive = RunBenchmark(config);
  ASSERT_TRUE(blocking.ok());
  ASSERT_TRUE(progressive.ok());
  EXPECT_GT(blocking->summary[0].tr_violation_rate, 0.95);
  EXPECT_LT(progressive->summary[0].tr_violation_rate, 0.1);
}

TEST(CoreTest, StratifiedSampleRateImprovesQuality) {
  // Design-choice ablation as a regression test: a 10x bigger offline
  // sample must not deliver worse missing-bin rates.
  auto catalog_result = BuildFlightsCatalog(TinyConfig());
  ASSERT_TRUE(catalog_result.ok());
  auto catalog = *catalog_result;
  auto oracle = std::make_shared<driver::GroundTruthOracle>(catalog);
  workflow::GeneratorConfig generator_config;
  workflow::WorkflowGenerator generator(catalog->fact_table(),
                                        generator_config, 17);
  auto wf = generator.Generate(workflow::WorkflowType::kMixed, "w");
  ASSERT_TRUE(wf.ok());

  auto run_with_rate = [&](double rate) {
    engines::StratifiedEngineConfig config;
    config.sampling_rate = rate;
    config.min_rows_per_stratum = 1;
    engines::StratifiedEngine engine(config);
    driver::Settings settings;
    settings.time_requirement = SecondsToMicros(60.0);  // quality only
    settings.think_time = SecondsToMicros(1.0);
    driver::BenchmarkDriver benchmark_driver(settings, &engine, catalog,
                                             oracle);
    IDB_CHECK(benchmark_driver.PrepareEngine().ok());
    std::vector<driver::QueryRecord> records;
    IDB_CHECK(benchmark_driver.RunWorkflow(*wf, &records).ok());
    double missing = 0.0;
    for (const auto& r : records) missing += r.metrics.missing_bins;
    return missing / static_cast<double>(records.size());
  };

  const double coarse = run_with_rate(0.01);
  const double fine = run_with_rate(0.10);
  EXPECT_LE(fine, coarse + 1e-9);
}

// --- The sampling walk's precondition ---------------------------------------

/// A fact table's non-constant columns in their numeric view, each read in
/// row order `order`.
std::vector<std::pair<std::string, std::vector<double>>> FactColumns(
    const storage::Table& fact, const std::vector<int64_t>& order) {
  std::vector<std::pair<std::string, std::vector<double>>> columns;
  for (int c = 0; c < fact.num_columns(); ++c) {
    const storage::Column& column = fact.column(c);
    std::vector<double> values;
    values.reserve(order.size());
    for (const int64_t row : order) values.push_back(column.ValueAsDouble(row));
    columns.emplace_back(fact.schema().field(c).name, std::move(values));
  }
  return columns;
}

/// Names each non-constant column whose lag-1 autocorrelation (over the
/// neighbouring pairs where neither value is NaN) lies farther than
/// 5/sqrt(n) from 0, with the value found.  Over n independently drawn
/// rows the autocorrelation is about N(0, 1/n), so an unordered table
/// passes with room to spare and an ordered one fails.
std::vector<std::string> OrderedColumns(
    const std::vector<std::pair<std::string, std::vector<double>>>& columns) {
  std::vector<std::string> ordered;
  for (const auto& [name, x] : columns) {
    double sum = 0.0;
    int64_t n = 0;
    for (const double v : x) {
      if (std::isnan(v)) continue;
      sum += v;
      ++n;
    }
    if (n < 2) continue;
    const double mean = sum / static_cast<double>(n);
    double var = 0.0;
    for (const double v : x) {
      if (!std::isnan(v)) var += (v - mean) * (v - mean);
    }
    if (var == 0.0) continue;  // constant: nothing to order
    double cov = 0.0;
    for (size_t i = 0; i + 1 < x.size(); ++i) {
      if (std::isnan(x[i]) || std::isnan(x[i + 1])) continue;
      cov += (x[i] - mean) * (x[i + 1] - mean);
    }
    const double r = cov / var;
    if (std::fabs(r) > 5.0 / std::sqrt(static_cast<double>(n))) {
      ordered.push_back(name + " (" + std::to_string(r) + ")");
    }
  }
  return ordered;
}

DatasetConfig PreconditionConfig(bool normalized) {
  DatasetConfig config;
  config.actual_rows = 100'000;
  config.normalized = normalized;
  return config;
}

std::vector<int64_t> RowOrder(const storage::Table& fact) {
  std::vector<int64_t> order(static_cast<size_t>(fact.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

/// `exec::FeedOrder::Walk` reads the base table in its own order, so a
/// window of it is a simple random sample only if the generator drew its
/// rows independently.  This fails if the generator ever sorts or
/// clusters its output, which would bias every walk that stops short.
TEST(WalkPreconditionTest, GeneratedFactColumnsAreUnordered) {
  for (const bool normalized : {false, true}) {
    auto catalog = BuildFlightsCatalog(PreconditionConfig(normalized));
    ASSERT_TRUE(catalog.ok());
    const storage::Table& fact = *(*catalog)->fact_table();
    ASSERT_EQ(fact.num_rows(), 100'000);
    const auto columns = FactColumns(fact, RowOrder(fact));
    EXPECT_GE(columns.size(), 10u);
    const std::vector<std::string> ordered = OrderedColumns(columns);
    EXPECT_TRUE(ordered.empty())
        << (normalized ? "normalized" : "denormalized") << ": "
        << testing::PrintToString(ordered);
  }
}

/// The negative control: the same check on a copy sorted by flight_date
/// fails for that column.
TEST(WalkPreconditionTest, CopySortedByDateFailsTheCheck) {
  auto catalog = BuildFlightsCatalog(PreconditionConfig(false));
  ASSERT_TRUE(catalog.ok());
  const storage::Table& fact = *(*catalog)->fact_table();
  const storage::Column* date = fact.ColumnByName("flight_date");
  ASSERT_NE(date, nullptr);
  std::vector<int64_t> order = RowOrder(fact);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return date->ValueAsDouble(a) < date->ValueAsDouble(b);
  });
  const std::vector<std::string> ordered =
      OrderedColumns(FactColumns(fact, order));
  EXPECT_TRUE(std::any_of(ordered.begin(), ordered.end(),
                          [](const std::string& name) {
                            return name.rfind("flight_date ", 0) == 0;
                          }))
      << testing::PrintToString(ordered);
}

}  // namespace
}  // namespace idebench::core
