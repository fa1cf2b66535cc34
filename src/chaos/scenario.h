#ifndef IDEBENCH_CHAOS_SCENARIO_H_
#define IDEBENCH_CHAOS_SCENARIO_H_

/// \file scenario.h
/// Adversarial workload scenarios over the virtual-clock scheduler.
///
/// A `ScenarioSpec` describes one chaos experiment: a fleet of session
/// actors (submit/cancel/kill/flood decisions drawn from per-actor rng
/// streams), a scheduler configuration, and a fault plan for the seeded
/// `FaultInjector`.  `RunScenario` executes it deterministically — every
/// actor decision is a pure function of (scenario seed, actor, tick),
/// never of query outcomes — so the same seed replays the same run
/// bit-for-bit, and an uninjected run of the same seed submits the exact
/// same query sequence (the basis of the reference-identity invariant).
///
/// Determinism contract for actors: decisions may read only their own
/// rng stream and counters derived from the submission schedule (which
/// is itself seed-pure).  They must never branch on results, completion
/// order, or fault outcomes — that would fork the chaos and reference
/// runs apart and void the cross-run comparison.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_injector.h"
#include "chaos/invariants.h"
#include "common/clock.h"
#include "common/result.h"
#include "session/session.h"

namespace idebench::chaos {

/// One chaos experiment configuration.
struct ScenarioSpec {
  std::string name;
  std::string description;

  // Workload shape.
  int sessions = 2;
  int ticks = 30;
  Micros tick = 100'000;  // virtual time between actor decision points

  // Per-tick, per-actor action probabilities (drawn in a fixed order so
  // actor rng streams stay aligned whatever the outcomes are).
  double submit_prob = 0.85;  // submit the next workflow interaction
  int flood_batch = 1;        // interactions submitted per submit action
  double cancel_prob = 0.0;   // cancel a random query id seen so far
  double kill_prob = 0.0;     // close the session mid-run (stays closed)

  // Workflow generator shape (small workflows cycle faster: more
  // create/link/discard churn on the VizGraph).
  int min_interactions = 14;
  int max_interactions = 24;

  // Engine/execution shape.
  int threads = 2;
  bool reuse_cache = true;

  // Scheduler configuration.
  session::SessionManagerOptions scheduler;

  // Fault plan applied through the process-global injector.
  std::vector<std::pair<FaultSite, FaultSiteConfig>> faults;

  // Round-trip the catalog through CSV at setup (exercises the csv fault
  // sites with retry-on-transient handling).
  bool csv_round_trip = false;

  // Engine-fault sites steal compute from wedged queries, so the
  // fairness lower bound (deadline-cancelled => full entitlement
  // consumed) only holds without them; specs arming such sites clear
  // this.
  bool expect_full_entitlement = true;

  // Morsel-slowdown faults change the morsel merge tree, which may
  // regroup floating-point partial sums in the last ulp; specs arming
  // that site compare against the reference within this relative
  // epsilon instead of bit-for-bit (0 = demand bit identity).
  double reference_rel_eps = 0.0;

  // Faults normally only *delay* queries, so completing under injection
  // implies completing in the reference run.  That breaks once kEngineRun
  // is armed: a wedged query's cancel + retry re-enters Submit, where
  // engines may share state across submissions — the exec reuse cache
  // snapshots the cancelled partial answer, and the progressive engine's
  // semantic cache hands the retry a sibling's more-advanced sample
  // state — letting the retry finish *faster* than the fault-free run
  // ever did.  Specs arming kEngineRun clear this; the cross-run check
  // then only demands matching results for queries completed in both
  // runs (completed answers are full-data and path-independent).
  bool completion_monotone = true;

  // Serving-layer behaviors driven by the net fault sites.  These make
  // the run itself depend on fault draws (a dropped partial, a torn
  // connection), so the uninjected reference run's schedule diverges by
  // construction — specs using them clear `compare_reference`.
  //
  // kNetWrite: each non-terminal push to a client sink may be dropped
  // (the real server coalesces it into the next write); terminal updates
  // always pass — the exactly-one-terminal contract must survive any
  // write-side weather.
  bool net_slow_client = false;
  // kNetRead: a connection tears mid-query; the actor's session closes
  // immediately (like a kill, but drawn at the injector).  Every live
  // query must still drain with exactly one terminal update.
  bool net_disconnect = false;

  // Streaming ingest: > 0 builds a *fresh* per-run catalog (ingest
  // mutates the fact table, so the process-shared base catalog must
  // never be used) fed by an `ingest::Ingestor`, and appends and
  // publishes this many rows in the middle of every tick, between
  // scheduler calls — epoch publishes racing the actor fleet's submits
  // and cancels.  Faulted appends/publishes are
  // weather (the batch is lost / the publish waits), but with ingest
  // fault sites armed the *visible data itself* depends on the draws,
  // so such specs clear `compare_reference`.
  int ingest_rows_per_tick = 0;

  // Cross-run reference identity only holds when the actor schedule is
  // independent of fault draws; net scenarios above opt out.
  bool compare_reference = true;

  bool has_faults() const { return !faults.empty(); }
};

/// Everything one scenario run produced.
struct ChaosReport {
  std::string scenario;
  std::string engine;
  uint64_t seed = 0;
  bool injected = false;

  /// Abort-class error (a programming-error Status escaping the run).
  /// Scenario runs must never produce one; it is reported, not thrown.
  Status run_error = Status::OK();

  session::SchedulerStats stats;
  std::vector<InvariantViolation> violations;
  /// Deterministic event log: submissions, actor actions, terminal
  /// updates, fault summary.  Same seed => byte-identical log.
  std::vector<std::string> event_log;
  std::string fault_summary;
  int64_t total_fires = 0;
  int prepare_attempts = 1;
  /// query_id -> terminal update (for cross-run comparisons).
  std::map<int64_t, session::ProgressiveUpdate> finals;

  bool ok() const { return run_error.ok() && violations.empty(); }
};

/// The built-in scenario catalog (see README "Chaos harness").
const std::vector<ScenarioSpec>& ScenarioCatalog();

/// Finds a catalog scenario by name; null when unknown.
const ScenarioSpec* FindScenario(const std::string& name);

/// Prepares `engine` against `catalog`, retrying transient failures up
/// to `max_attempts` times (injected prepare faults leave the engine
/// clean, so a later attempt can succeed).  Returns the attempt count.
Result<int> PrepareWithRetry(engines::Engine* engine,
                             std::shared_ptr<const storage::Catalog> catalog,
                             int max_attempts = 16);

/// Runs one scenario on one engine with one seed.  `inject == false`
/// runs the identical actor schedule without installing the injector
/// (the reference run).  Never throws; abort-class errors land in
/// `ChaosReport::run_error`.
ChaosReport RunScenario(const ScenarioSpec& spec,
                        const std::string& engine_name, uint64_t seed,
                        bool inject = true);

/// Runs the scenario injected, then uninjected, and cross-checks the
/// reference-identity invariant; returns the injected run's report with
/// any cross-run violations appended.  For fault-free specs this is just
/// RunScenario (there is nothing to compare against).
ChaosReport RunScenarioWithReference(const ScenarioSpec& spec,
                                     const std::string& engine_name,
                                     uint64_t seed);

}  // namespace idebench::chaos

#endif  // IDEBENCH_CHAOS_SCENARIO_H_
