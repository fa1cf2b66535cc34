/// \file bench_table1_detailed.cc
/// Reproduces **Table 1** (Appendix A.1): the detailed per-query report
/// for a single mixed workflow run against the progressive engine at
/// TR = 0.5 s, think time 3 s, 500 M — the same configuration as the
/// paper's example.  Also writes the full CSV next to the binary.

#include "bench/bench_util.h"

using namespace idebench;

int main() {
  bench::Banner("Table 1: detailed report, one mixed workflow, TR=0.5s");

  auto catalog = bench::Unwrap(core::BuildFlightsCatalog(bench::BenchDataset()),
                               "build catalog");
  auto oracle = std::make_shared<driver::GroundTruthOracle>(catalog);
  const auto workflows = bench::MakeWorkflows(
      catalog->fact_table(), {workflow::WorkflowType::kMixed}, 1,
      /*seed=*/2);

  auto engine = bench::Unwrap(engines::CreateEngine("progressive"),
                              "create engine");
  driver::Settings settings;
  settings.time_requirement = SecondsToMicros(0.5);
  settings.think_time = SecondsToMicros(3.0);
  driver::BenchmarkDriver driver(settings, engine.get(), catalog, oracle);
  bench::CheckOk(driver.PrepareEngine().status(), "prepare");

  auto records = bench::Unwrap(driver.RunWorkflows(workflows),
                               "run workflow");
  std::printf("%s\n", report::RenderDetailedTable(records, 40).c_str());

  const std::string csv_path = "table1_detailed_report.csv";
  bench::CheckOk(report::WriteDetailedReport(records, csv_path),
                 "write csv");
  std::printf("full report written to %s (%zu rows)\n", csv_path.c_str(),
              records.size());
  std::printf("\nexample SQL of the first query:\n  %s\n",
              records.front().sql.c_str());
  return 0;
}
