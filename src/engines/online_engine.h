#ifndef IDEBENCH_ENGINES_ONLINE_ENGINE_H_
#define IDEBENCH_ENGINES_ONLINE_ENGINE_H_

/// \file online_engine.h
/// An online-aggregation engine in the mold of approXimateDB/XDB
/// (PostgreSQL + wander join, paper §5).
///
/// Behavioral contract reproduced from the paper:
///  * online aggregation is supported only for a *single* COUNT or SUM
///    aggregate per query — "it does not provide online support for AVG
///    nor for multiple aggregates in a single query";
///  * unsupported queries fall back to a blocking scan at row-store speed
///    (the configured Postgres-like rate), which is what drives XDB's
///    flat ~66 % time-requirement violations;
///  * joins on the online path are wander joins: per-sampled-tuple
///    probes into the dimensions, never charged a fact scan (the fallback
///    is charged a hash-join build once per dimension);
///  * intermediate results are published at a fixed report interval.

#include <memory>
#include <string>

#include "engines/engine_base.h"

namespace idebench::engines {

/// Cost/behavior knobs of the online engine.
struct OnlineEngineConfig {
  /// Per sampled tuple (random heap access + per-tuple estimator upkeep);
  /// deliberately several times the progressive engine's rate — the paper
  /// finds XDB's intermediate estimates far noisier than IDEA's at equal
  /// time requirements.
  double sample_us_per_row = 50.0;
  double fallback_scan_ns_per_row = 24.0;  // row-store full scan
  double load_ns_per_row = 15'600.0;    // COPY + PK build (130 min / 500 M)
  double query_overhead_us = 40'000;    // parse/plan/dispatch
  Micros report_interval_us = 250'000;  // intermediate-result cadence
  bool enable_fallback = true;          // ablation: fail instead of block
  /// Row-store fallback scans get faster on the narrower normalized fact
  /// table (see BlockingEngineConfig::normalized_scan_discount).
  double normalized_scan_discount = 0.15;
  CostFactors factors;
  double confidence_level = 0.95;
  uint64_t seed = 2;
  /// Physical worker threads for the sampling/scan pipeline (1 = exact
  /// single-threaded path, 0 = hardware concurrency; see exec/parallel.h).
  int execution_threads = 1;
  /// Cross-interaction reuse cache (exec/reuse_cache.h); physical work
  /// only, results unchanged.
  bool reuse_cache = false;
  /// Concurrent exploration sessions this engine is expected to serve
  /// (session/session.h); sizes the reuse cache's entry cap.
  int expected_sessions = 1;
};

/// Online-aggregation engine with blocking fallback.
class OnlineEngine : public EngineBase {
 public:
  explicit OnlineEngine(OnlineEngineConfig config = {});

  Result<Micros> Prepare(
      std::shared_ptr<const storage::Catalog> catalog) override;
  Result<QueryHandle> Submit(const query::QuerySpec& spec) override;

  const OnlineEngineConfig& config() const { return config_; }

  /// True when `spec` can run on the online-aggregation path.
  static bool SupportsOnline(const query::QuerySpec& spec);

 private:
  struct OnlineQuery : QueryState {
    bool online = false;           // shuffled walk; else blocking fallback
    Micros work_done_us = 0;       // virtual work spent on rows so far
    Micros last_report_us = 0;     // work mark of the published snapshot
    query::QueryResult snapshot;   // last published intermediate result
  };

  /// Feed positions are shuffled-walk steps on the online path and fact
  /// rows in table order on the fallback.
  void Feed(QueryState* state, int64_t begin, int64_t end) override;
  /// Publishes a snapshot at every report-interval boundary.
  void AfterSlice(QueryState* state, Micros rows_us) override;
  query::QueryResult Answer(const RunningQuery& rq) const override;

  OnlineEngineConfig config_;
};

}  // namespace idebench::engines

#endif  // IDEBENCH_ENGINES_ONLINE_ENGINE_H_
