/// \file quickstart.cpp
/// Minimal end-to-end IDEBench run: build a small flights dataset, run
/// the mixed-workflow suite against the progressive engine at two time
/// requirements, and print the summary report.
///
/// Usage: example_quickstart [engine]
///   engine: blocking | online | progressive | stratified | frontend

#include <cstdio>
#include <iostream>

#include "common/string_util.h"
#include "core/idebench.h"

int main(int argc, char** argv) {
  using namespace idebench;

  core::BenchmarkConfig config;
  config.engine = argc > 1 ? argv[1] : "progressive";
  // Keep the quickstart fast: a 100 M-nominal dataset materialized at
  // 50 k rows, two TRs, three mixed workflows.
  config.dataset = core::SmallDataset();
  config.dataset.actual_rows = 50'000;
  config.dataset.seed_rows = 20'000;
  config.time_requirements_s = {0.5, 3.0};
  config.workflows_per_type = 3;

  auto outcome = core::RunBenchmark(config);
  if (!outcome.ok()) {
    std::cerr << "benchmark failed: " << outcome.status() << "\n";
    return 1;
  }

  std::printf("IDEBench quickstart — engine '%s', dataset %s\n",
              config.engine.c_str(),
              DataSizeLabel(config.dataset.nominal_rows).c_str());
  std::printf("data preparation time: %.1f s (virtual)\n\n",
              MicrosToSeconds(outcome->data_preparation_time));
  std::cout << report::RenderSummaryTable(outcome->summary) << "\n";
  std::cout << "First queries of the detailed report:\n"
            << report::RenderDetailedTable(outcome->records, 12);
  return 0;
}
