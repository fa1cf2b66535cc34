#ifndef IDEBENCH_DRIVER_BENCHMARK_DRIVER_H_
#define IDEBENCH_DRIVER_BENCHMARK_DRIVER_H_

/// \file benchmark_driver.h
/// The IDEBench benchmark driver (paper §4.4): simulates workflows on a
/// virtual clock, enforces the time requirement, grants think time,
/// computes ground truth, and evaluates every query into a
/// detailed-report row.
///
/// Since the session-based serving redesign the driver is ONE CLIENT of
/// the `session::SessionManager` API (session/session.h): it opens an
/// `ExplorationSession` per workflow, submits interactions, and consumes
/// pushed `ProgressiveUpdate`s instead of pulling the engine directly.
/// Single-session scheduling (`quantum == 0`) keeps records bit-identical
/// to the pre-session driver (see the seed-parity note in session.h for
/// the one — result-invisible — call-order difference).  With
/// `Settings::sessions > 1`, RunWorkflows
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
#include "workflow/resolve.h"
#include "workflow/viz_graph.h"
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

  /// Installs an alternative time source.  The default is an internal
  /// `VirtualClock` (deterministic, instant).  Installing a `WallClock`
  /// makes the driver pace interactions in real time — think time
  /// actually elapses — which is useful for demos and sanity runs; the
  /// engines' *compute* accounting stays virtual either way.
  void SetClock(Clock* clock) { external_clock_ = clock; }

  /// Calls Engine::Prepare and records the data-preparation time.
  Result<Micros> PrepareEngine();

  /// Data-preparation time reported by Prepare (0 before).
  Micros data_preparation_time() const { return prep_time_; }

  /// Simulates one workflow through a dedicated exploration session;
  /// appends one record per executed query.
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

  /// Resolves an executable query against the catalog: resolves bin
  /// boundaries and rewrites nominal predicates expressed as string
  /// labels into the owning column's dictionary codes.  Exposed for
  /// tests and custom drivers.
  Status ResolveQuery(query::QuerySpec* spec) const;

  /// Pre-computes ground truth for every query `workflows` will trigger
  /// by dry-running the visualization graphs (no engine involvement),
  /// then warming the oracle in parallel across queries
  /// (GroundTruthOracle::Warm).  Called automatically by RunWorkflows
  /// when `Settings::threads != 1`; answers are identical either way.
  Status WarmGroundTruth(const std::vector<workflow::Workflow>& workflows);

 private:
  /// The multi-session concurrent run (Settings::sessions > 1).
  Result<std::vector<QueryRecord>> RunWorkflowsConcurrent(
      const std::vector<workflow::Workflow>& workflows);

  /// Builds one detailed-report row from a query's final pushed update.
  Result<QueryRecord> MakeRecord(const session::SubmittedQuery& sq,
                                 const session::ProgressiveUpdate& fin,
                                 const workflow::Workflow& wf,
                                 int64_t interaction_id, int concurrency,
                                 Micros start_time, Micros end_time,
                                 int session_id);

  Settings settings_;
  engines::Engine* engine_;
  std::shared_ptr<const storage::Catalog> catalog_;
  std::shared_ptr<GroundTruthOracle> oracle_;
  Clock* external_clock_ = nullptr;
  Micros prep_time_ = 0;
  int64_t next_query_id_ = 0;
  session::SchedulerStats scheduler_stats_;
};

}  // namespace idebench::driver

#endif  // IDEBENCH_DRIVER_BENCHMARK_DRIVER_H_
