#ifndef IDEBENCH_CORE_DATASET_H_
#define IDEBENCH_CORE_DATASET_H_

/// \file dataset.h
/// One-call construction of benchmark datasets: synthesize the flights
/// seed, scale it with the paper's generator, optionally normalize it
/// into a star schema, and tag it with the nominal row count the cost
/// model should simulate.

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "storage/catalog.h"

namespace idebench::core {

/// Dataset build configuration.
struct DatasetConfig {
  /// Rows the dataset *represents* (drives virtual time): the paper's
  /// default sizes are S = 100 M, M = 500 M, L = 1 B.
  int64_t nominal_rows = 500'000'000;

  /// Rows physically materialized (drives answers and memory).  The
  /// default divides nominal by 1000 and caps at 600 k.
  int64_t actual_rows = 0;  // 0 = derive from nominal

  /// Rows in the synthesized seed before scaling.
  int64_t seed_rows = 60'000;

  /// Star schema (true) or one de-normalized table (false).
  bool normalized = false;

  uint64_t seed = 42;

  /// Fills `actual_rows` when 0.
  int64_t EffectiveActualRows() const;
};

/// Canonical paper sizes.
DatasetConfig SmallDataset();   // 100 M nominal
DatasetConfig MediumDataset();  // 500 M nominal
DatasetConfig LargeDataset();   // 1 B nominal

/// Builds a flights catalog per `config`.
Result<std::shared_ptr<storage::Catalog>> BuildFlightsCatalog(
    const DatasetConfig& config);

}  // namespace idebench::core

#endif  // IDEBENCH_CORE_DATASET_H_
