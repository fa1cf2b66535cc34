/// \file custom_dataset.cpp
/// Bringing your own dataset (paper §4.2: "users can use any other
/// dataset to customize the benchmark", §3.2: "scale any seed dataset to
/// an arbitrary size while preserving the original distributions").
///
/// The example writes a small retail-orders CSV, loads it through the
/// CSV reader, scales it 20x with the paper's Cholesky/copula generator,
/// generates workflows against the scaled data, and benchmarks two
/// engines on it — demonstrating that nothing in the pipeline is
/// flights-specific.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/random.h"
#include "common/string_util.h"
#include "core/dataset.h"
#include "datagen/cholesky_scaler.h"
#include "driver/benchmark_driver.h"
#include "engines/registry.h"
#include "report/report.h"
#include "storage/csv.h"
#include "workflow/generator.h"

using namespace idebench;

namespace {

/// Synthesizes orders.csv: region and channel drive price/quantity.
std::string WriteOrdersCsv() {
  const std::string path = "orders_seed.csv";
  std::ofstream out(path);
  out << "order_value,quantity,discount,region,channel\n";
  Rng rng(2025);
  const char* regions[] = {"north", "south", "east", "west"};
  const char* channels[] = {"web", "store", "partner"};
  for (int i = 0; i < 4000; ++i) {
    const int region = static_cast<int>(rng.Zipf(4, 0.9));
    const int channel = static_cast<int>(rng.Zipf(3, 0.7));
    const double base = 40.0 + 25.0 * region + 15.0 * channel;
    const double quantity = std::max(1.0, rng.Gaussian(3.0 + channel, 2.0));
    const double value =
        std::max(5.0, base * quantity * rng.Uniform(0.8, 1.3));
    const double discount =
        channel == 0 ? rng.Uniform(0.0, 0.3) : rng.Uniform(0.0, 0.1);
    out << FormatDouble(value, 2) << ',' << static_cast<int>(quantity) << ','
        << FormatDouble(discount, 3) << ',' << regions[region] << ','
        << channels[channel] << "\n";
  }
  return path;
}

}  // namespace

int main() {
  // 1. Load the seed CSV with an explicit schema.
  const std::string csv_path = WriteOrdersCsv();
  storage::Schema schema({
      {"order_value", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
      {"quantity", storage::DataType::kInt64,
       storage::AttributeKind::kQuantitative},
      {"discount", storage::DataType::kDouble,
       storage::AttributeKind::kQuantitative},
      {"region", storage::DataType::kString, storage::AttributeKind::kNominal},
      {"channel", storage::DataType::kString,
       storage::AttributeKind::kNominal},
  });
  auto seed = storage::ReadCsv(csv_path, "orders", schema);
  if (!seed.ok()) {
    std::cerr << seed.status() << "\n";
    return 1;
  }
  std::printf("loaded %lld seed rows from %s\n",
              static_cast<long long>(seed->num_rows()), csv_path.c_str());

  // 2. Scale 20x with the paper's generator (no derived columns here).
  datagen::ScalerConfig scaler;
  scaler.target_rows = seed->num_rows() * 20;
  scaler.seed = 11;
  auto scaled = datagen::ScaleDataset(*seed, scaler);
  if (!scaled.ok()) {
    std::cerr << scaled.status() << "\n";
    return 1;
  }
  auto catalog = std::make_shared<storage::Catalog>();
  if (auto st = catalog->AddTable(std::make_shared<storage::Table>(
          std::move(scaled).MoveValueUnsafe()));
      !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  catalog->set_nominal_rows(200'000'000);  // pretend it is 200 M orders
  std::printf("scaled to %lld rows (representing 200M)\n",
              static_cast<long long>(catalog->fact_table()->num_rows()));

  // 3. Generate workflows against the custom schema.  The generator
  //    needs column weights only for the flights schema; for custom data
  //    it falls back to whatever columns exist — check it found some.
  workflow::GeneratorConfig generator_config;
  workflow::WorkflowGenerator generator(catalog->fact_table(),
                                        generator_config, 8);
  auto wf = generator.Generate(workflow::WorkflowType::kMixed, "orders_mix");
  if (!wf.ok()) {
    std::cerr << wf.status() << "\n";
    return 1;
  }

  // 4. Benchmark two engines on the same workflow.
  auto oracle = std::make_shared<driver::GroundTruthOracle>(catalog);
  for (const std::string& name :
       {std::string("blocking"), std::string("progressive")}) {
    auto engine = engines::CreateEngine(name);
    if (!engine.ok()) {
      std::cerr << engine.status() << "\n";
      return 1;
    }
    driver::Settings settings;
    settings.time_requirement = SecondsToMicros(1.0);
    settings.think_time = SecondsToMicros(1.0);
    driver::BenchmarkDriver driver(settings, engine->get(), catalog, oracle);
    if (auto prep = driver.PrepareEngine(); !prep.ok()) {
      std::cerr << prep.status() << "\n";
      return 1;
    }
    std::vector<driver::QueryRecord> records;
    if (auto st = driver.RunWorkflow(*wf, &records); !st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::vector<const driver::QueryRecord*> ptrs;
    for (const auto& r : records) ptrs.push_back(&r);
    const report::SummaryRow row = report::Summarize(name, ptrs);
    std::printf("%-12s: %zu queries, %s TR violations, %.1f%% missing bins, "
                "MRE median %.3f\n",
                name.c_str(), records.size(),
                FormatPercent(row.tr_violation_rate).c_str(),
                row.mean_missing_bins * 100.0, row.median_mre);
  }
  std::remove(csv_path.c_str());
  return 0;
}
