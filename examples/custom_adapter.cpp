/// \file custom_adapter.cpp
/// Implementing a system adapter (paper §4.5, Listing 1).
///
/// To benchmark your own engine, implement the `engines::Engine`
/// interface — the C++ rendering of the paper's `SampleAdapter` stub.
/// This example writes a deliberately naive adapter ("InstantEngine": an
/// oracle-like engine with a fixed per-query latency and a uniform-noise
/// error injection) and runs the full benchmark driver against it,
/// demonstrating that the harness accepts third-party systems.

#include <cstdio>
#include <iostream>
#include <unordered_map>

#include "core/dataset.h"
#include "driver/benchmark_driver.h"
#include "engines/engine.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "report/report.h"
#include "workflow/generator.h"

using namespace idebench;

namespace {

/// A toy system under test: computes exact answers instantly (well — for
/// a fixed 200 ms virtual latency) and then perturbs them by +/-5 % to
/// emulate a lossy transport.  Useful as a template: every method shows
/// the minimal contract a real adapter must fulfill.
class InstantEngine : public engines::Engine {
 public:
  const std::string& name() const override { return name_; }

  Result<Micros> Prepare(
      std::shared_ptr<const storage::Catalog> catalog) override {
    catalog_ = std::move(catalog);
    // 1. translate/copy data into the system: free for this toy.
    return Micros{0};
  }

  Result<engines::QueryHandle> Submit(const query::QuerySpec& spec) override {
    // 2. translate to a query format understood by the system + execute.
    RunningQuery rq;
    rq.spec = spec;
    IDB_ASSIGN_OR_RETURN(exec::BoundQuery bound,
                         exec::BoundQuery::Bind(rq.spec, *catalog_));
    exec::BinnedAggregator aggregator(&bound);
    aggregator.Process(exec::FeedOrder::Scan(), 0,
                       catalog_->fact_table()->num_rows());
    rq.result = aggregator.ExactResult();
    rq.result.available = true;
    // Perturb estimates to emulate an approximate transport.
    for (auto& [key, bin] : rq.result.bins) {
      for (auto& value : bin.values) {
        const double noise = 0.95 + 0.1 * rng_.NextDouble();
        value.estimate *= noise;
        value.margin = 0.03 * std::abs(value.estimate);
      }
    }
    rq.result.exact = false;
    const engines::QueryHandle handle = next_handle_++;
    queries_.emplace(handle, std::move(rq));
    return handle;
  }

  Micros RunFor(engines::QueryHandle handle, Micros budget) override {
    auto it = queries_.find(handle);
    if (it == queries_.end() || it->second.latency_remaining <= 0) return 0;
    const Micros spent = std::min(budget, it->second.latency_remaining);
    it->second.latency_remaining -= spent;
    return spent;
  }

  bool IsDone(engines::QueryHandle handle) const override {
    auto it = queries_.find(handle);
    return it != queries_.end() && it->second.latency_remaining == 0;
  }

  Result<query::QueryResult> PollResult(engines::QueryHandle handle) override {
    auto it = queries_.find(handle);
    if (it == queries_.end()) return Status::KeyError("unknown handle");
    if (it->second.latency_remaining > 0) {
      query::QueryResult pending;  // 3. fetch result: not ready yet
      return pending;
    }
    return it->second.result;  // 4. write results back to the driver
  }

  void Cancel(engines::QueryHandle handle) override {
    queries_.erase(handle);  // free memory, if applicable
  }

 private:
  struct RunningQuery {
    query::QuerySpec spec;
    query::QueryResult result;
    Micros latency_remaining = 200'000;  // fixed 200 ms per query
  };

  std::string name_ = "instant";
  std::shared_ptr<const storage::Catalog> catalog_;
  std::unordered_map<engines::QueryHandle, RunningQuery> queries_;
  engines::QueryHandle next_handle_ = 1;
  Rng rng_{99};
};

}  // namespace

int main() {
  core::DatasetConfig dataset = core::SmallDataset();
  dataset.actual_rows = 40'000;
  dataset.seed_rows = 20'000;
  auto catalog = core::BuildFlightsCatalog(dataset);
  if (!catalog.ok()) {
    std::cerr << catalog.status() << "\n";
    return 1;
  }

  workflow::GeneratorConfig generator_config;
  workflow::WorkflowGenerator generator((*catalog)->fact_table(),
                                        generator_config, 4);
  auto wf = generator.Generate(workflow::WorkflowType::kMixed, "adapter_demo");
  if (!wf.ok()) {
    std::cerr << wf.status() << "\n";
    return 1;
  }

  InstantEngine engine;
  driver::Settings settings;
  settings.time_requirement = SecondsToMicros(0.5);
  settings.think_time = SecondsToMicros(1.0);
  driver::BenchmarkDriver driver(settings, &engine, *catalog);
  if (auto prep = driver.PrepareEngine(); !prep.ok()) {
    std::cerr << prep.status() << "\n";
    return 1;
  }

  std::vector<driver::QueryRecord> records;
  if (auto st = driver.RunWorkflow(*wf, &records); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }

  std::printf("custom adapter '%s' ran %zu queries\n\n",
              engine.name().c_str(), records.size());
  std::vector<const driver::QueryRecord*> ptrs;
  for (const auto& r : records) ptrs.push_back(&r);
  const report::SummaryRow summary = report::Summarize("instant", ptrs);
  std::printf("tr violations: %.1f%%  mean MRE: %.3f  out-of-margin: %.1f%%\n",
              summary.tr_violation_rate * 100.0, summary.mean_mre,
              summary.out_of_margin_rate * 100.0);
  std::printf(
      "\nthe injected +/-5%% noise shows up as a ~2.5%% mean relative error\n"
      "and a nonzero out-of-margin rate, while the fixed 200 ms latency\n"
      "never violates TR=0.5s — the metrics separate speed from quality.\n");
  return 0;
}
