#ifndef IDEBENCH_DRIVER_SETTINGS_H_
#define IDEBENCH_DRIVER_SETTINGS_H_

/// \file settings.h
/// What the benchmark driver reads of a run's settings (paper §4.6): the
/// time requirement, think time, contention penalty, the oracle's thread
/// count and the number of concurrent sessions.  The paper's other
/// settings take effect elsewhere: dataset size and schema layout are the
/// catalog's (`QueryRecord::data_size` is its nominal size), and the
/// confidence level, engine threads and reuse cache are each engine's
/// `engines::EngineOptions`.

#include "common/clock.h"
#include "common/result.h"

namespace idebench::driver {

/// One benchmark configuration.
struct Settings {
  /// Maximum execution duration of a query; queries exceeding it are
  /// cancelled (default 3 s; the paper sweeps 0.5/1/3/5/10 s).
  Micros time_requirement = 3 * kMicrosPerSecond;

  /// Delay between two consecutive interactions (paper recommends
  /// 3–10 s; the stress experiments use 1 s).
  Micros think_time = 1 * kMicrosPerSecond;

  /// Per-extra-concurrent-query slowdown factor (0 = perfectly parallel,
  /// the default; the paper's Exp. 4 found no significant concurrency
  /// effect on a 20-core box).  An ablation bench sweeps this.
  double concurrency_penalty = 0.0;

  /// Worker threads of the ground-truth oracle the driver builds (0 =
  /// hardware concurrency).  Any value but 1 (the default) also warms
  /// every exact answer up front, in parallel across queries
  /// (`BenchmarkDriver::WarmGroundTruth`).  Answers are identical for
  /// every value.  The engines' parallelism is their own
  /// `engines::EngineOptions::execution_threads`.
  int threads = 1;

  /// Concurrent exploration sessions (simulated users/dashboards) served
  /// by one shared engine (session/session.h).  1 (default) = the exact
  /// seed single-client behavior; n > 1 distributes the workflow suite
  /// round-robin over n sessions of one `session::SessionManager`, whose
  /// deadline-aware time-slice scheduler divides compute fairly across
  /// all live queries (shrunk by `concurrency_penalty`) — the paper's
  /// Exp. 4 concurrent-user scenario.
  int sessions = 1;

  /// Validates ranges.
  Status Validate() const;
};

}  // namespace idebench::driver

#endif  // IDEBENCH_DRIVER_SETTINGS_H_
