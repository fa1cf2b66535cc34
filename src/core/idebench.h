#ifndef IDEBENCH_CORE_IDEBENCH_H_
#define IDEBENCH_CORE_IDEBENCH_H_

/// \file idebench.h
/// Umbrella header and one-call benchmark runner.
///
/// Typical use:
///
/// ```cpp
/// idebench::core::BenchmarkConfig config;
/// config.engine = "progressive";
/// config.time_requirement_s = {0.5, 1, 3, 5, 10};
/// auto outcome = idebench::core::RunBenchmark(config);
/// std::cout << idebench::report::RenderSummaryTable(outcome->summary);
/// ```

#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "driver/benchmark_driver.h"
#include "engines/registry.h"
#include "report/report.h"
#include "workflow/generator.h"

namespace idebench::core {

/// End-to-end benchmark run configuration.  `RunBenchmark` hands each
/// setting to the part that reads it: the dataset fields to the catalog,
/// the time requirement, think time, threads and session count to the
/// driver's `Settings`, and the seed, threads, reuse cache and session
/// count to `engines::CreateEngine`.  Engines report margins at
/// `aqp::kConfidenceLevel`.
struct BenchmarkConfig {
  /// Engine under test (see engines::BuiltinEngineNames()).
  std::string engine = "progressive";

  /// Dataset to build (nominal size, layout, seed).
  DatasetConfig dataset;

  /// Time requirements to sweep (seconds).
  std::vector<double> time_requirements_s = {0.5, 1.0, 3.0, 5.0, 10.0};

  /// Think time between interactions (seconds).
  double think_time_s = 1.0;

  /// Workflows per type in the generated suite; the paper's default
  /// configuration runs 10 per type.
  int workflows_per_type = 10;

  /// Restrict the run to these workflow types (empty = mixed only,
  /// matching the paper's main experiment).
  std::vector<workflow::WorkflowType> workflow_types = {
      workflow::WorkflowType::kMixed};

  /// Physical execution threads for the engine under test and the
  /// ground-truth oracle (1 = single-threaded path, 0 = hardware
  /// concurrency); results are identical for every value.
  int threads = 1;

  /// Cross-interaction result-reuse cache for the engine under test
  /// (displaces physical work only; results are unchanged; default off).
  bool reuse_cache = false;

  /// Concurrent exploration sessions served by one shared engine
  /// (Settings::sessions semantics): 1 = the seed single-client behavior,
  /// n > 1 = the workflow suite distributed round-robin over n sessions
  /// under the fair time-slice scheduler (session/session.h).
  int sessions = 1;

  uint64_t seed = 7;
};

/// Results of an end-to-end run.
struct BenchmarkOutcome {
  /// Virtual data-preparation time.
  Micros data_preparation_time = 0;

  /// One record per executed query, across all TRs and workflows.
  std::vector<driver::QueryRecord> records;

  /// Summary rows grouped by (engine, time requirement).
  std::vector<report::SummaryRow> summary;

  /// Reuse-cache telemetry summed over the engines of the sweep (zeros
  /// when `BenchmarkConfig::reuse_cache` is off).
  metrics::ReuseCacheStats reuse;

  /// Scheduler telemetry of the last time requirement's run (fairness /
  /// cancellation counters; zeros for single-session configurations).
  session::SchedulerStats scheduler;
};

/// Builds the dataset, generates workflows, prepares the engine and runs
/// the full sweep.
Result<BenchmarkOutcome> RunBenchmark(const BenchmarkConfig& config);

}  // namespace idebench::core

#endif  // IDEBENCH_CORE_IDEBENCH_H_
