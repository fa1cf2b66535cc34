#include "core/dataset.h"

#include <algorithm>

#include "datagen/cholesky_scaler.h"
#include "datagen/flights_seed.h"
#include "datagen/normalizer.h"

namespace idebench::core {

int64_t DatasetConfig::EffectiveActualRows() const {
  if (actual_rows > 0) return actual_rows;
  return std::min<int64_t>(nominal_rows / 1000, 600'000);
}

DatasetConfig SmallDataset() {
  DatasetConfig c;
  c.nominal_rows = 100'000'000;
  return c;
}

DatasetConfig MediumDataset() {
  DatasetConfig c;
  c.nominal_rows = 500'000'000;
  return c;
}

DatasetConfig LargeDataset() {
  DatasetConfig c;
  c.nominal_rows = 1'000'000'000;
  return c;
}

Result<std::shared_ptr<storage::Catalog>> BuildFlightsCatalog(
    const DatasetConfig& config) {
  datagen::FlightsSeedConfig seed_config;
  seed_config.rows = config.seed_rows;
  seed_config.seed = config.seed;
  IDB_ASSIGN_OR_RETURN(storage::Table seed,
                       datagen::GenerateFlightsSeed(seed_config));

  datagen::ScalerConfig scaler_config;
  scaler_config.target_rows = config.EffectiveActualRows();
  scaler_config.seed = config.seed + 1;
  scaler_config.derived = datagen::FlightsDerivedColumns();
  IDB_ASSIGN_OR_RETURN(storage::Table scaled,
                       datagen::ScaleDataset(seed, scaler_config));

  storage::Catalog catalog;
  if (config.normalized) {
    IDB_ASSIGN_OR_RETURN(
        catalog,
        datagen::Normalize(scaled, datagen::FlightsDimensionSpecs()));
  } else {
    IDB_ASSIGN_OR_RETURN(
        catalog, datagen::MakeDenormalizedCatalog(
                     std::make_shared<storage::Table>(std::move(scaled))));
  }
  catalog.set_nominal_rows(config.nominal_rows);
  return std::make_shared<storage::Catalog>(std::move(catalog));
}

}  // namespace idebench::core
