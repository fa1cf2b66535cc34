/// \file idebench_cli.cpp
/// The IDEBench command-line driver (paper §4.4: "a simple command line
/// application configured to load and simulate workflows").
///
/// Usage:
///   example_idebench_cli [options]
///     --engine NAME        blocking|online|progressive|stratified|frontend
///     --size N             nominal rows: 100m | 500m | 1b (default 500m)
///     --rows N             materialized rows (default 120000)
///     --tr SECONDS         time requirement, repeatable (default 0.5,1,3,5,10)
///     --think SECONDS      think time (default 1)
///     --workflows N        workflows per type (default 10)
///     --types LIST         comma list: independent,sequential,one_to_n,
///                          n_to_one,mixed (default mixed)
///     --normalized         use the star-schema layout
///     --threads N          execution threads: 1 = single-threaded path
///                          (default), 0 = all cores, n = n-way morsel
///                          parallelism (results identical for any n)
///     --sessions N         concurrent exploration sessions served by one
///                          shared engine (default 1 = the legacy single
///                          client; try 1/4/16/64 for the concurrency
///                          sweep)
///     --reuse-cache        enable the cross-interaction result-reuse
///                          cache (physical work only; results identical)
///     --seed N             master seed (default 7)
///     --report FILE        write the detailed report CSV here
///     --save-workflows DIR write generated workflow JSON files here

#include <cstdio>
#include <cstring>
#include <iostream>

#include "common/string_util.h"
#include "core/idebench.h"

using namespace idebench;

namespace {

int64_t ParseSize(const std::string& text) {
  if (text == "100m") return 100'000'000;
  if (text == "500m") return 500'000'000;
  if (text == "1b") return 1'000'000'000;
  return std::atoll(text.c_str());
}

void PrintUsageAndExit() {
  std::fprintf(stderr, "see the header of examples/idebench_cli.cpp\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  core::BenchmarkConfig config;
  config.engine = "progressive";
  config.dataset = core::MediumDataset();
  config.dataset.actual_rows = 120'000;
  std::vector<double> trs;
  std::string report_path;
  std::string workflow_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) PrintUsageAndExit();
      return argv[++i];
    };
    if (arg == "--engine") {
      config.engine = next();
    } else if (arg == "--size") {
      config.dataset.nominal_rows = ParseSize(next());
    } else if (arg == "--rows") {
      config.dataset.actual_rows = std::atoll(next().c_str());
    } else if (arg == "--tr") {
      trs.push_back(std::atof(next().c_str()));
    } else if (arg == "--think") {
      config.think_time_s = std::atof(next().c_str());
    } else if (arg == "--threads") {
      config.threads = std::atoi(next().c_str());
    } else if (arg == "--sessions") {
      config.sessions = std::atoi(next().c_str());
    } else if (arg == "--workflows") {
      config.workflows_per_type = std::atoi(next().c_str());
    } else if (arg == "--types") {
      config.workflow_types.clear();
      for (const std::string& name : Split(next(), ',')) {
        auto type = workflow::WorkflowTypeFromName(Trim(name));
        if (!type.ok()) {
          std::cerr << type.status() << "\n";
          return 2;
        }
        config.workflow_types.push_back(*type);
      }
    } else if (arg == "--reuse-cache") {
      config.reuse_cache = true;
    } else if (arg == "--normalized") {
      config.dataset.normalized = true;
    } else if (arg == "--seed") {
      config.seed = static_cast<uint64_t>(std::atoll(next().c_str()));
    } else if (arg == "--report") {
      report_path = next();
    } else if (arg == "--save-workflows") {
      workflow_dir = next();
    } else if (arg == "--help" || arg == "-h") {
      PrintUsageAndExit();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      PrintUsageAndExit();
    }
  }
  if (!trs.empty()) config.time_requirements_s = trs;

  if (!workflow_dir.empty()) {
    // Generate and persist the workflow suite without running it.
    auto catalog = core::BuildFlightsCatalog(config.dataset);
    if (!catalog.ok()) {
      std::cerr << catalog.status() << "\n";
      return 1;
    }
    workflow::GeneratorConfig generator_config;
    workflow::WorkflowGenerator generator((*catalog)->fact_table(),
                                          generator_config, config.seed);
    auto suite = generator.GenerateSuite(config.workflow_types,
                                         config.workflows_per_type);
    if (!suite.ok()) {
      std::cerr << suite.status() << "\n";
      return 1;
    }
    for (const workflow::Workflow& wf : *suite) {
      const std::string path = workflow_dir + "/" + wf.name + ".json";
      if (auto st = wf.SaveToFile(path); !st.ok()) {
        std::cerr << st << "\n";
        return 1;
      }
    }
    std::printf("wrote %zu workflow files to %s\n", suite->size(),
                workflow_dir.c_str());
    return 0;
  }

  std::printf(
      "engine=%s size=%s rows=%lld think=%.1fs types=%zu x %d threads=%d "
      "sessions=%d\n",
      config.engine.c_str(),
      DataSizeLabel(config.dataset.nominal_rows).c_str(),
      static_cast<long long>(config.dataset.EffectiveActualRows()),
      config.think_time_s, config.workflow_types.size(),
      config.workflows_per_type, config.threads, config.sessions);

  auto outcome = core::RunBenchmark(config);
  if (!outcome.ok()) {
    std::cerr << "benchmark failed: " << outcome.status() << "\n";
    return 1;
  }

  std::printf("data preparation time: %.1f min (virtual)\n\n",
              MicrosToSeconds(outcome->data_preparation_time) / 60.0);
  std::cout << report::RenderSummaryTable(outcome->summary);
  if (config.reuse_cache) {
    std::cout << "\n" << report::RenderReuseStats(outcome->reuse) << "\n";
  }
  if (config.sessions > 1) {
    std::cout << "\n" << report::RenderSessionStats(outcome->scheduler) << "\n";
  }

  if (!report_path.empty()) {
    if (auto st = report::WriteDetailedReport(outcome->records, report_path);
        !st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::printf("\ndetailed report: %s (%zu rows)\n", report_path.c_str(),
                outcome->records.size());
  }
  return 0;
}
