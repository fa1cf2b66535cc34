#ifndef IDEBENCH_BENCH_BENCH_UTIL_H_
#define IDEBENCH_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// Shared plumbing for the experiment-reproduction binaries: dataset
/// construction (size tunable via IDEBENCH_ACTUAL_ROWS), workflow-suite
/// generation, engine x time-requirement sweeps, and table printing.
///
/// Every binary regenerates one table or figure of the paper and prints
/// the same rows/series the paper reports.  Experiment ids follow the
/// paper's numbering (Exp. 1-5, Table 1).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/dataset.h"
#include "driver/benchmark_driver.h"
#include "engines/registry.h"
#include "report/report.h"
#include "workflow/generator.h"

namespace idebench::bench {

/// Aborts with a message when a Status/Result is not OK (benches have no
/// meaningful recovery path).
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).MoveValueUnsafe();
}

inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

/// Materialized rows per dataset, overridable for quick runs:
///   IDEBENCH_ACTUAL_ROWS=30000 ./bench_exp1_summary
inline int64_t ActualRowsOverride(int64_t fallback) {
  const char* env = std::getenv("IDEBENCH_ACTUAL_ROWS");
  if (env == nullptr) return fallback;
  const long long v = std::atoll(env);
  return v > 0 ? static_cast<int64_t>(v) : fallback;
}

/// Workflows per type, overridable via IDEBENCH_WORKFLOWS.
inline int WorkflowsOverride(int fallback) {
  const char* env = std::getenv("IDEBENCH_WORKFLOWS");
  if (env == nullptr) return fallback;
  const int v = std::atoi(env);
  return v > 0 ? v : fallback;
}

/// Default bench dataset: 500 M nominal (the paper's M size) materialized
/// at 120 k rows.
inline core::DatasetConfig BenchDataset(bool normalized = false,
                                        int64_t nominal = 500'000'000) {
  core::DatasetConfig config;
  config.nominal_rows = nominal;
  config.actual_rows = ActualRowsOverride(120'000);
  config.seed_rows = 30'000;
  config.normalized = normalized;
  config.seed = 42;
  return config;
}

/// Generates the workflow suite used by an experiment.
inline std::vector<workflow::Workflow> MakeWorkflows(
    const storage::Table* denorm_fact,
    const std::vector<workflow::WorkflowType>& types, int per_type,
    uint64_t seed = 7) {
  workflow::GeneratorConfig config;
  workflow::WorkflowGenerator generator(denorm_fact, config, seed);
  std::vector<workflow::Workflow> out;
  for (workflow::WorkflowType type : types) {
    for (int i = 0; i < per_type; ++i) {
      out.push_back(Unwrap(
          generator.Generate(type, std::string(workflow::WorkflowTypeName(
                                       type)) +
                                       "_" + std::to_string(i)),
          "workflow generation"));
    }
  }
  return out;
}

/// Runs `engine_name` over `workflows` for each time requirement; records
/// are appended to `records`.  One engine instance per TR (fresh restart,
/// as between configurations in the paper).  Returns the data-preparation
/// time of the last prepared engine.
inline Micros RunEngineSweep(
    const std::string& engine_name,
    std::shared_ptr<const storage::Catalog> catalog,
    std::shared_ptr<driver::GroundTruthOracle> oracle,
    const std::vector<workflow::Workflow>& workflows,
    const std::vector<double>& time_requirements_s, double think_time_s,
    std::vector<driver::QueryRecord>* records) {
  Micros prep = 0;
  for (double tr : time_requirements_s) {
    auto engine = Unwrap(engines::CreateEngine(engine_name), "create engine");
    driver::Settings settings;
    settings.time_requirement = SecondsToMicros(tr);
    settings.think_time = SecondsToMicros(think_time_s);
    settings.data_size_label = core::DataSizeLabel(catalog->nominal_rows());
    settings.use_joins = catalog->is_normalized();
    driver::BenchmarkDriver driver(settings, engine.get(), catalog, oracle);
    prep = Unwrap(driver.PrepareEngine(), "prepare engine");
    auto batch = Unwrap(driver.RunWorkflows(workflows), "run workflows");
    for (auto& r : batch) records->push_back(std::move(r));
  }
  return prep;
}

/// Prints a section banner.
inline void Banner(const std::string& title) {
  std::printf("\n==== %s ====\n\n", title.c_str());
}

/// Formats seconds with sub-second precision.
inline std::string Secs(Micros us) {
  return StringPrintf("%.1fs", MicrosToSeconds(us));
}

}  // namespace idebench::bench

#endif  // IDEBENCH_BENCH_BENCH_UTIL_H_
