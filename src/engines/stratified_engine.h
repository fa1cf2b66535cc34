#ifndef IDEBENCH_ENGINES_STRATIFIED_ENGINE_H_
#define IDEBENCH_ENGINES_STRATIFIED_ENGINE_H_

/// \file stratified_engine.h
/// A commercial-style in-memory AQP system operating on *offline*
/// stratified sample tables (the paper's System X stand-in):
///
///  * data preparation builds stratified sample tables at a configured
///    sampling rate (default 1 %, as in the paper) and runs a warm-up
///    query;
///  * every query scans its sample table to completion — "the run time of
///    queries cannot be set explicitly, but must be specified by means of
///    setting the size of sample tables";
///  * estimate quality is therefore *constant* across time requirements
///    (paper §6), and the only way to improve it is a bigger sample,
///    which increases preparation time;
///  * joins are not supported — "System X only works on de-normalized
///    data" (§5.3).

#include <memory>
#include <string>

#include "aqp/sampler.h"
#include "engines/engine_base.h"

namespace idebench::engines {

/// Cost/behavior knobs of the stratified-sampling engine, on top of the
/// engine-wide options.
struct StratifiedEngineConfig : EngineOptions {
  StratifiedEngineConfig() { seed = 4; }

  double sampling_rate = 0.01;          // 1 % offline sample (paper §5.2)
  std::string stratify_by = "carrier";  // stratification column
  int64_t min_rows_per_stratum = 50;
  double sample_scan_ns_per_row = 80.0;  // per nominal sample row
  double load_ns_per_row = 2280.0;       // CSV ingest
  /// Offline sample construction: one base-table pass plus a write per
  /// sampled row — so preparation time grows with the sampling rate,
  /// the trade-off §6 discusses (27 min at 500 M and 1 %).
  double sample_build_scan_ns_per_row = 600.0;
  double sample_build_write_ns_per_sample = 36'000.0;
  double query_overhead_us = 20'000;
  CostFactors factors;
};

/// Offline stratified-sampling AQP engine.
class StratifiedEngine : public EngineBase {
 public:
  explicit StratifiedEngine(StratifiedEngineConfig config = {});

  Result<Micros> Prepare(
      std::shared_ptr<const storage::Catalog> catalog) override;
  Result<QueryHandle> Submit(const query::QuerySpec& spec) override;

  const StratifiedEngineConfig& config() const { return config_; }

  /// The offline sample (valid after Prepare).
  const aqp::StratifiedSample& sample() const { return sample_; }

 private:
  query::QueryResult Answer(const RunningQuery& rq) const override;

  /// Appends one range-local stratified delta block per epoch published
  /// since the last call (no-op without ingest).  Each delta's shuffle is
  /// keyed purely by (engine seed, epoch index), so live and pre-staged
  /// runs that publish the same epochs build identical samples.
  void ExtendSampleForPublishedEpochs();

  StratifiedEngineConfig config_;
  aqp::StratifiedSample sample_;
  std::string strat_column_;         // resolved stratification column
  int64_t sampled_watermark_ = 0;    // base rows covered by sample_
};

}  // namespace idebench::engines

#endif  // IDEBENCH_ENGINES_STRATIFIED_ENGINE_H_
