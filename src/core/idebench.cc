#include "core/idebench.h"

#include "common/string_util.h"

namespace idebench::core {

Result<BenchmarkOutcome> RunBenchmark(const BenchmarkConfig& config) {
  IDB_ASSIGN_OR_RETURN(std::shared_ptr<storage::Catalog> catalog,
                       BuildFlightsCatalog(config.dataset));

  // Workflows are generated against the de-normalized view of the data so
  // the same workflow files work on both layouts; when the catalog is
  // normalized, the driver re-resolves nominal predicate labels.
  std::shared_ptr<storage::Catalog> workflow_catalog = catalog;
  if (config.dataset.normalized) {
    DatasetConfig denorm = config.dataset;
    denorm.normalized = false;
    IDB_ASSIGN_OR_RETURN(workflow_catalog, BuildFlightsCatalog(denorm));
  }

  workflow::GeneratorConfig generator_config;
  workflow::WorkflowGenerator generator(workflow_catalog->fact_table(),
                                        generator_config, config.seed);
  IDB_ASSIGN_OR_RETURN(
      std::vector<workflow::Workflow> workflows,
      generator.GenerateSuite(config.workflow_types,
                              config.workflows_per_type));

  BenchmarkOutcome outcome;
  // Exact answers depend only on the catalog; share the oracle's cache
  // across the whole time-requirement sweep.  The oracle runs at the
  // configured parallelism (its answers are thread-count independent).
  auto oracle =
      std::make_shared<driver::GroundTruthOracle>(catalog, config.threads);
  for (double tr_s : config.time_requirements_s) {
    // A fresh engine per time requirement keeps runs independent, as
    // restarting the system between configurations would.
    IDB_ASSIGN_OR_RETURN(
        std::unique_ptr<engines::Engine> engine,
        engines::CreateEngine(config.engine, config.seed, config.threads,
                              config.reuse_cache, config.sessions));

    driver::Settings settings;
    settings.time_requirement = SecondsToMicros(tr_s);
    settings.think_time = SecondsToMicros(config.think_time_s);
    settings.threads = config.threads;
    settings.sessions = config.sessions;
    IDB_RETURN_NOT_OK(settings.Validate());

    driver::BenchmarkDriver bench_driver(settings, engine.get(), catalog,
                                         oracle);
    IDB_ASSIGN_OR_RETURN(outcome.data_preparation_time,
                         bench_driver.PrepareEngine());
    IDB_ASSIGN_OR_RETURN(std::vector<driver::QueryRecord> records,
                         bench_driver.RunWorkflows(workflows));
    for (driver::QueryRecord& r : records) {
      outcome.records.push_back(std::move(r));
    }
    outcome.reuse += engine->reuse_cache_stats();
    outcome.scheduler = bench_driver.scheduler_stats();
  }

  outcome.summary = report::SummarizeBy(
      outcome.records, [](const driver::QueryRecord& r) {
        return r.driver_name + " tr=" +
               FormatDouble(MicrosToSeconds(r.time_requirement), 1) + "s";
      });
  return outcome;
}

}  // namespace idebench::core
