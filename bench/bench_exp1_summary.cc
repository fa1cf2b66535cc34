/// \file bench_exp1_summary.cc
/// Reproduces **Figure 5** (Experiment 1, §5.2): the aggregated summary
/// report for four systems across five time requirements on the 500 M
/// mixed workload — mean percentage of TR violations and missing bins,
/// and the CDF of mean relative errors (truncated at 100 %) with its
/// area-above-the-curve statistic.

#include "bench/bench_util.h"

using namespace idebench;

int main() {
  const std::vector<double> kTimeRequirements = {0.5, 1.0, 3.0, 5.0, 10.0};
  const std::vector<std::string> kEngines = {"blocking", "online",
                                             "progressive", "stratified"};

  bench::Banner(
      "Experiment 1 / Figure 5: summary report, mixed workflows, 500M");

  auto catalog = bench::Unwrap(core::BuildFlightsCatalog(bench::BenchDataset()),
                               "build catalog");
  auto oracle = std::make_shared<driver::GroundTruthOracle>(catalog);
  const auto workflows =
      bench::MakeWorkflows(catalog->fact_table(),
                           {workflow::WorkflowType::kMixed},
                           bench::WorkflowsOverride(10));
  std::printf("dataset: %s nominal (%lld rows materialized), %zu workflows\n",
              DataSizeLabel(catalog->nominal_rows()).c_str(),
              static_cast<long long>(catalog->fact_table()->num_rows()),
              workflows.size());

  std::vector<driver::QueryRecord> records;
  for (const std::string& engine : kEngines) {
    bench::RunEngineSweep(engine, catalog, oracle, workflows,
                          kTimeRequirements, /*think_time_s=*/1.0, &records);
    std::printf("engine '%s' done (%zu records total)\n", engine.c_str(),
                records.size());
  }

  // Per-system summary blocks, as laid out in Figure 5.
  for (const std::string& engine : kEngines) {
    std::printf("\n--- %s ---\n", engine.c_str());
    std::printf("%6s %10s %13s %9s %9s  %s\n", "TR", "tr_viol", "missing_bins",
                "mre_med", "area>cdf", "MRE CDF [0..100%]");
    for (double tr : kTimeRequirements) {
      std::vector<const driver::QueryRecord*> group;
      for (const auto& r : records) {
        if (r.driver_name == engine &&
            r.time_requirement == SecondsToMicros(tr)) {
          group.push_back(&r);
        }
      }
      const report::SummaryRow row = report::Summarize("", group);
      const std::vector<double> cdf = report::MreCdf(group, 21);
      std::printf("%5.1fs %10s %13s %9.3f %9s  %s\n", tr,
                  FormatPercent(row.tr_violation_rate).c_str(),
                  FormatPercent(row.mean_missing_bins).c_str(), row.median_mre,
                  FormatPercent(row.area_above_cdf).c_str(),
                  report::RenderCdf(cdf).c_str());
    }
  }

  std::printf(
      "\npaper shape check: blocking violations fall with TR; online stays "
      "flat\n(fallback-bound); progressive ~0 violations; stratified "
      "quality constant.\n");
  return 0;
}
