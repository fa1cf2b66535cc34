/// \file bench_exp2_normalization.cc
/// Reproduces **Figure 6e** (Experiment 2, §5.3): proportion of TR
/// violations for the blocking and online engines on normalized vs.
/// de-normalized schemas at 100 M and 500 M tuples.  The progressive
/// engine is excluded (no join support in IDEA) and the stratified
/// engine only works on de-normalized data — both as in the paper.

#include "bench/bench_util.h"

using namespace idebench;

namespace {

double ViolationRate(const std::vector<driver::QueryRecord>& records) {
  if (records.empty()) return 0.0;
  int violations = 0;
  for (const auto& r : records) {
    if (r.metrics.tr_violated) ++violations;
  }
  return static_cast<double>(violations) /
         static_cast<double>(records.size());
}

}  // namespace

int main() {
  const std::vector<double> kTimeRequirements = {3.0};
  const std::vector<int64_t> kSizes = {100'000'000, 500'000'000};
  const std::vector<std::string> kEngines = {"blocking", "online"};

  bench::Banner(
      "Experiment 2 / Figure 6e: normalized vs de-normalized, TR=3s");

  std::printf("%-10s %-8s %14s %14s\n", "engine", "size", "denormalized",
              "normalized");

  for (const std::string& engine : kEngines) {
    for (int64_t size : kSizes) {
      double rates[2] = {0.0, 0.0};
      for (int normalized = 0; normalized <= 1; ++normalized) {
        auto catalog = bench::Unwrap(
            core::BuildFlightsCatalog(
                bench::BenchDataset(normalized != 0, size)),
            "build catalog");
        auto oracle = std::make_shared<driver::GroundTruthOracle>(catalog);
        // Workflows are always generated against the de-normalized view so
        // both layouts run the *same* logical queries.
        auto denorm = bench::Unwrap(
            core::BuildFlightsCatalog(bench::BenchDataset(false, size)),
            "build denorm view");
        const auto workflows = bench::MakeWorkflows(
            denorm->fact_table(), {workflow::WorkflowType::kMixed},
            bench::WorkflowsOverride(6));
        std::vector<driver::QueryRecord> records;
        bench::RunEngineSweep(engine, catalog, oracle, workflows,
                              kTimeRequirements, 1.0, &records);
        rates[normalized] = ViolationRate(records);
      }
      std::printf("%-10s %-8s %14s %14s\n", engine.c_str(),
                  DataSizeLabel(size).c_str(),
                  FormatPercent(rates[0]).c_str(),
                  FormatPercent(rates[1]).c_str());
    }
  }

  std::printf(
      "\npaper shape check: both engines do slightly *better* normalized\n"
      "(smaller total data); the blocking engine's violations grow with\n"
      "the normalized data size while the online engine holds steady\n"
      "thanks to online (wander) joins.\n");
  return 0;
}
