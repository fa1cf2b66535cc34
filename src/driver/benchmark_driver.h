#ifndef IDEBENCH_DRIVER_BENCHMARK_DRIVER_H_
#define IDEBENCH_DRIVER_BENCHMARK_DRIVER_H_

/// \file benchmark_driver.h
/// The IDEBench benchmark driver (paper §4.4): simulates workflows on a
/// virtual clock, enforces the time requirement, grants think time,
/// computes ground truth, and evaluates every query into a
/// detailed-report row.
///
/// The driver is one client of the `session::SessionManager` API
/// (session/session.h).  Every run goes through
/// `session::ReplaySessionsToCompletion`, and the driver only turns each
/// finalized batch's pushed `ProgressiveUpdate`s into report rows.  By
/// default each workflow runs in its own session on a fresh quantum-0
/// manager, which keeps records bit-identical to the pre-session driver
/// (see the seed-parity note in session.h for the one, result-invisible,
/// call-order difference).  With `Settings::sessions > 1`, RunWorkflows
/// multiplexes the workflows over that many concurrent sessions on the
/// shared engine — the paper's Exp. 4 concurrent-user scenario — and the
/// scheduler's fairness telemetry is exposed via `scheduler_stats()`.

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "driver/ground_truth.h"
#include "driver/settings.h"
#include "engines/engine.h"
#include "metrics/metrics.h"
#include "session/session.h"
#include "storage/catalog.h"
#include "workflow/workflow.h"

namespace idebench::driver {

/// One row of the detailed report (paper Table 1).
struct QueryRecord {
  int64_t id = 0;               // query identifier
  int64_t interaction_id = 0;   // index of the triggering interaction
  std::string viz_name;
  std::string driver_name;      // engine under test
  std::string data_size;
  Micros think_time = 0;
  Micros time_requirement = 0;
  std::string workflow;
  std::string workflow_type;
  Micros start_time = 0;        // virtual micros since workflow start
  Micros end_time = 0;          // completion or cancellation time
  int bin_dims = 1;
  std::string binning_type;     // "nominal", "quantitative", ...
  std::string agg_type;         // "count", "avg", ...
  int num_concurrent = 1;       // queries triggered by the same interaction
  int session = 0;              // serving session (0 in single-session runs)
  std::string sql;              // the query as SQL text
  double progress = 0.0;        // engine-reported progress at fetch time
  metrics::QueryMetrics metrics;
};

/// Runs workflows against one prepared engine.
class BenchmarkDriver {
 public:
  /// `engine` and `catalog` must outlive the driver.
  BenchmarkDriver(Settings settings, engines::Engine* engine,
                  std::shared_ptr<const storage::Catalog> catalog);

  /// As above, but evaluates against a caller-owned oracle so its exact-
  /// answer cache can be shared across drivers (e.g. one oracle for a
  /// whole time-requirement sweep over the same catalog).
  BenchmarkDriver(Settings settings, engines::Engine* engine,
                  std::shared_ptr<const storage::Catalog> catalog,
                  std::shared_ptr<GroundTruthOracle> oracle);

  /// Calls Engine::Prepare and records the data-preparation time.
  Result<Micros> PrepareEngine();

  /// Data-preparation time reported by Prepare (0 before).
  Micros data_preparation_time() const { return prep_time_; }

  /// Simulates one workflow through a dedicated exploration session;
  /// appends one record per executed query.  Interaction i starts after
  /// i think times; a completed query ends after its consumed compute,
  /// any other after its full budget.
  Status RunWorkflow(const workflow::Workflow& workflow,
                     std::vector<QueryRecord>* records);

  /// Runs a list of workflows.  With `Settings::sessions <= 1` the
  /// workflows run sequentially (seed behavior); otherwise they are
  /// distributed round-robin over that many concurrent sessions of one
  /// `session::SessionManager` and executed under the fair time-slice
  /// scheduler.
  Result<std::vector<QueryRecord>> RunWorkflows(
      const std::vector<workflow::Workflow>& workflows);

  const Settings& settings() const { return settings_; }

  /// Scheduler telemetry of the most recent multi-session RunWorkflows
  /// call (zeros for single-session runs).
  const session::SchedulerStats& scheduler_stats() const {
    return scheduler_stats_;
  }

  /// Pre-computes ground truth for every query `workflows` will trigger
  /// by dry-running the visualization graphs (no engine involvement),
  /// then warming the oracle in parallel across queries
  /// (GroundTruthOracle::Warm).  Called automatically by RunWorkflows
  /// when `Settings::threads != 1`; answers are identical either way.
  Status WarmGroundTruth(const std::vector<workflow::Workflow>& workflows);

 private:
  /// Replays `queues[s]` on session s of a fresh manager and returns the
  /// records grouped by session.  `concurrent` selects the 100 ms
  /// round-robin quantum and scheduler-timeline timing (start at
  /// admission, end at finalization); otherwise quantum 0 and the
  /// RunWorkflow timing.
  Result<std::vector<QueryRecord>> RunSessions(
      std::vector<std::vector<const workflow::Workflow*>> queues,
      bool concurrent);

  /// Builds one detailed-report row from a query's final pushed update.
  Result<QueryRecord> MakeRecord(const session::ReplayedBatch& batch,
                                 const session::SubmittedQuery& sq,
                                 const session::ProgressiveUpdate& fin,
                                 Micros start_time, Micros end_time,
                                 int session_id);

  Settings settings_;
  engines::Engine* engine_;
  std::shared_ptr<const storage::Catalog> catalog_;
  std::shared_ptr<GroundTruthOracle> oracle_;
  Micros prep_time_ = 0;
  int64_t next_query_id_ = 0;
  session::SchedulerStats scheduler_stats_;
};

}  // namespace idebench::driver

#endif  // IDEBENCH_DRIVER_BENCHMARK_DRIVER_H_
