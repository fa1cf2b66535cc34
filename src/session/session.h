#ifndef IDEBENCH_SESSION_SESSION_H_
#define IDEBENCH_SESSION_SESSION_H_

/// \file session.h
/// Session-based asynchronous serving API.
///
/// The seed codebase hard-wired one synchronous client: a driver pulling
/// one engine through `Submit`/`RunFor`/`PollResult`.  This subsystem
/// inverts that into the shape a serving system needs (and the shape
/// push-based maintenance of incrementally computed answers suggests —
/// cf. Berkholz et al., "Answering FO+MOD queries under updates"):
///
///  * a `SessionManager` owns one shared engine (whose physical execution
///    runs on the process-wide `exec::WorkerPool`) and multiplexes any
///    number of `ExplorationSession`s over it;
///  * each `ExplorationSession` models one user/dashboard: it keeps its
///    own visualization graph, turns interactions into resolved queries
///    (`workflow::ApplyInteraction` — the same enumeration the benchmark
///    driver uses), and submits them;
///  * results are *pushed*: a client installs a `ResultSink` and receives
///    `ProgressiveUpdate` events as partial bins materialize, instead of
///    polling;
///  * a deadline-aware round-robin time-slice scheduler divides engine
///    compute fairly across all live queries of all sessions on a global
///    virtual clock, shrinking per-query compute entitlements by the
///    configured contention penalty (`driver::Settings::
///    concurrency_penalty` semantics) and cancelling every query that
///    reaches its time requirement — a query can never starve past its
///    deadline (`SchedulerStats::max_deadline_overshoot` stays 0).
///
/// Determinism: scheduling depends only on virtual time, admission order
/// and the options — never on wall time or physical thread count — so a
/// multi-session run is exactly reproducible, and the morsel-parallel
/// execution underneath keeps results bit-identical at any `threads`.
///
/// Viz namespacing: engine-side per-viz state (speculation specs, link
/// edges, per-viz reuse snapshots) is keyed by viz *name*, and every
/// dashboard names its vizs "viz_0", "viz_1", ... — so two sessions on
/// one shared engine would collide.  The manager therefore qualifies
/// every engine-facing viz name as "s<session_id>/<name>" (query specs
/// at submission, Link/Discard hints) and keeps the raw name on
/// everything client-facing (`SubmittedQuery::spec`,
/// `ProgressiveUpdate::viz_name`).  Names are excluded from query
/// signatures (see query::QuerySpec::CoreSignature), so qualification
/// never perturbs walk offsets or reuse-cache matching — single-session
/// results stay bit-identical to the legacy pull path.
///
/// Seed-parity contract: with a single session and `quantum == 0` (run-
/// to-entitlement turns), the manager issues the seed `BenchmarkDriver`
/// loop's engine call sequence with one deliberate difference — a query
/// that completes before its deadline is polled + cancelled at the end
/// of its own turn, not after every turn of its batch.  That reorder is
/// invisible in results (a completed query's answer is frozen, and the
/// reuse cache any earlier Cancel may populate is result-transparent by
/// contract), so single-session results are bit-identical to the legacy
/// pull path — enforced differentially by tests/workflow_fuzz_test.cc.
/// Physical side channels (reuse-cache hit/miss telemetry, wall-clock)
/// may differ from the seed loop when the cache is enabled.
///
/// Workflow replay: `ReplaySessionsToCompletion` is the one loop that
/// replays workflows on the virtual clock with think time between
/// interactions (paper §4.4).  The benchmark driver, the differential
/// tests and the micro-benchmarks all run through it.
///
/// Ingest: the manager knows nothing of it.  A caller that feeds an
/// `ingest::Ingestor` appends and publishes between scheduler calls, as
/// `net::Server` does on each loop pass; a query pins the watermark at
/// admission, so ingest never costs a query virtual time.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "engines/engine.h"
#include "query/result.h"
#include "query/spec.h"
#include "storage/catalog.h"
#include "workflow/interaction.h"
#include "workflow/viz_graph.h"
#include "workflow/workflow.h"

namespace idebench::session {

/// One pushed result event.  Non-final updates stream while a query runs
/// (when the manager's `push_partials` is on and the engine has a
/// fetchable intermediate answer); exactly one final update is pushed per
/// submitted query — on completion, deadline cancellation, client
/// cancellation, engine failure after exhausted retries, or immediately
/// for queries the engine cannot run.
struct ProgressiveUpdate {
  int64_t session_id = 0;
  int64_t query_id = 0;        // manager-global query identifier
  int64_t interaction_id = 0;  // session-local interaction index
  std::string viz_name;

  query::QueryResult result;   // current (possibly partial) answer
  double confidence = 0.95;    // confidence level of the result's margins
  double progress = 0.0;       // == result.progress (convenience)
  Micros virtual_time = 0;     // scheduler virtual time of this event

  Micros consumed = 0;         // engine compute consumed so far
  Micros budget = 0;           // compute entitlement over the TR window

  bool final_update = false;   // last event for this query
  bool completed = false;      // engine finished before the deadline
  bool cancelled = false;      // cancelled (deadline or client)
  bool unsupported = false;    // engine refused the query at submission
  bool failed = false;         // engine fault persisted past every retry
};

/// Push-delivery interface a client installs per session.  Callbacks run
/// synchronously on the scheduling thread; implementations should be
/// cheap and must not call back into the manager.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void OnUpdate(const ProgressiveUpdate& update) = 0;
};

/// Scheduler configuration.
struct SessionManagerOptions {
  /// Wall (virtual) deadline of every query; overdue queries are
  /// cancelled exactly at it (driver::Settings::time_requirement).
  Micros time_requirement = 3 * kMicrosPerSecond;

  /// Per-extra-live-query slowdown applied to the compute entitlement at
  /// admission: a query admitted alongside n-1 others receives
  /// time_requirement / (1 + penalty * (n - 1)) compute over its TR
  /// window (driver::Settings::concurrency_penalty semantics; 0 models
  /// perfectly parallel cores as the paper's Exp. 4 found).
  double contention_penalty = 0.0;

  /// Round-robin time slice.  0 = run-to-entitlement turns: each live
  /// query receives its whole pending entitlement once per scheduling
  /// horizon, which reproduces the seed driver's call sequence exactly
  /// (the single-session parity mode).  > 0 = slice the horizon so live
  /// queries interleave at `quantum` granularity and partial results
  /// stream while others run.
  Micros quantum = 0;

  /// Push non-final updates whenever a query's fetchable answer advanced
  /// since the last push.  Off, only final updates are delivered.
  bool push_partials = true;

  /// Confidence level stamped on updates (matches the engine's).
  double confidence_level = 0.95;

  /// Transient engine faults (I/O errors, resource exhaustion, spurious
  /// cancellations — the classes chaos injection exercises) are retried
  /// up to this many times per query before the query is finalized with a
  /// terminal `failed` update.  Programming errors (invalid argument,
  /// unknown handle) are never retried and abort like the seed driver.
  int max_engine_retries = 3;

  /// Virtual-time backoff before the first retry; doubles per attempt.
  /// A query under backoff keeps accruing its compute entitlement and its
  /// deadline keeps running — retries spend the query's own TR window.
  Micros retry_backoff = 50'000;  // 50ms
};

/// Scheduler telemetry: fairness and liveness counters for one manager.
struct SchedulerStats {
  int64_t sessions_opened = 0;
  int64_t queries_submitted = 0;   // includes unsupported
  int64_t completed = 0;
  int64_t deadline_cancelled = 0;  // cancelled exactly at their TR
  int64_t client_cancelled = 0;    // ExplorationSession::Cancel / close
  int64_t unsupported = 0;
  int64_t failed = 0;              // engine fault persisted past retries
  int64_t transient_faults = 0;    // transient engine faults observed
  int64_t retries = 0;             // successful resubmissions after a fault
  int64_t updates_pushed = 0;      // final + partial
  int64_t partial_updates = 0;
  /// Max (finalize time - deadline) over all queries; the scheduler
  /// guarantees 0 — no query ever starves past its time requirement.
  Micros max_deadline_overshoot = 0;
  /// Virtual time of the manager when the stats were read.
  Micros virtual_now = 0;
};

class SessionManager;

/// One submitted query of one interaction, in submission order.
struct SubmittedQuery {
  int64_t query_id = 0;
  query::QuerySpec spec;      // resolved executable query
  bool unsupported = false;   // engine returned NotImplemented
};

/// One simulated user/dashboard multiplexed onto the shared engine.
/// Created by (and owned by) a `SessionManager`; not thread-safe — all
/// sessions of a manager are driven from one scheduling thread.
class ExplorationSession {
 public:
  int64_t id() const { return id_; }

  /// Applies `interaction` to this session's dashboard graph, forwards
  /// link/discard hints to the engine, and submits one query per affected
  /// viz at the current virtual time.  Queries the engine cannot run
  /// (NotImplemented) are reported through the sink as final unsupported
  /// updates; any other engine error aborts.  Returns the submitted
  /// queries in driver order.
  ///
  /// `budget_scale` in (0, 1] shrinks the batch's compute entitlement —
  /// the graceful-degradation hook the net ratekeeper pulls under
  /// overload: a degraded query keeps its deadline but receives
  /// `budget_scale` of the budget it would otherwise accrue, so it
  /// answers from a smaller sample instead of being refused.  1.0 (the
  /// default) is bit-identical to the undegraded path.
  Result<std::vector<SubmittedQuery>> SubmitInteraction(
      const workflow::Interaction& interaction, double budget_scale = 1.0);

  /// Client-initiated cancellation.  Idempotent: cancelling an unknown,
  /// already-finished or already-cancelled query is a no-op.
  Status Cancel(int64_t query_id);

  /// Dashboard conveniences: submit a link / discard interaction.
  Result<std::vector<SubmittedQuery>> LinkVizs(const std::string& from,
                                               const std::string& to);
  Result<std::vector<SubmittedQuery>> DiscardViz(const std::string& viz);

  /// Grants idle (think) time to the engine on this session's behalf.
  void Think(Micros duration);

  /// Clears this session's dashboard graph (the user closes every viz
  /// and starts a fresh exploration).  Live queries keep running; the
  /// shared engine is not notified — with other sessions multiplexed on
  /// it, engine-wide resets are a session-creation-time event only.
  void ResetDashboard();

  /// Queries of this session still live in the scheduler.
  int64_t live_queries() const { return live_; }

  /// True once the session has been closed.  The handle itself stays
  /// valid until the manager dies; operations on a closed session fail
  /// with a clean Status instead of touching freed memory.
  bool closed() const { return closed_; }

 private:
  friend class SessionManager;
  ExplorationSession(SessionManager* manager, int64_t id, ResultSink* sink)
      : manager_(manager), id_(id), sink_(sink) {}

  SessionManager* manager_;
  int64_t id_;
  ResultSink* sink_;
  workflow::VizGraph graph_;
  int64_t next_interaction_id_ = 0;
  int64_t live_ = 0;
  bool closed_ = false;
};

/// Owns the shared engine multiplexing and the scheduler.  The engine
/// and catalog must outlive the manager; the engine must be prepared
/// before queries are submitted.
class SessionManager {
 public:
  SessionManager(SessionManagerOptions options, engines::Engine* engine,
                 std::shared_ptr<const storage::Catalog> catalog);

  /// Closes all remaining sessions, cancelling their live queries.  No
  /// updates are pushed from the destructor: client sinks may already be
  /// gone when a manager dies on an error path.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session.  `sink` may be null (results are discarded); it
  /// must outlive the session.  When this is the first open session the
  /// engine is notified that serving starts (Engine::WorkflowStart) —
  /// never while other sessions are live, since that reset is
  /// engine-wide.  The returned handle is owned by the manager and valid
  /// until CloseSession (or manager destruction).
  Result<ExplorationSession*> CreateSession(ResultSink* sink);

  /// Cancels the session's live queries (pushing final cancelled
  /// updates) and marks the session closed; closing the last open
  /// session notifies the engine (Engine::WorkflowEnd).  Idempotent:
  /// closing an already-closed session is a no-op returning OK.  The
  /// handle stays valid (owned by the manager until destruction), so a
  /// double close — or a submit after close — fails cleanly instead of
  /// dereferencing freed memory.
  Status CloseSession(ExplorationSession* session);

  /// Scheduler virtual time (microseconds since manager creation).
  Micros VirtualNow() const { return virtual_now_; }

  /// True while any query of any session is live.
  bool HasLive() const { return !run_queue_.empty(); }

  /// Runs the scheduler until virtual time `t`: every live query
  /// receives its compute entitlement over the elapsed span in
  /// round-robin time slices, completions and deadline cancellations push
  /// final updates, and the clock lands exactly on `t` (idle gaps skip
  /// instantly — virtual time is free).
  Status AdvanceTo(Micros t);

  /// Runs until the next finalization event (completion or deadline
  /// cancellation) or virtual time `cap`, whichever comes first; returns
  /// the number of queries finalized.  The building block for event loops
  /// that interleave new submissions with scheduling: control returns at
  /// every point a session's readiness may have changed.
  Result<int> StepUntilEvent(Micros cap);

  /// Runs until no live query remains (each completes or reaches its
  /// deadline); virtual time ends at the last finalization.
  Status RunUntilIdle();

  /// Classifies an engine error as retryable.  I/O errors, resource
  /// exhaustion, spurious cancellations and unclassified failures are the
  /// transient classes (the ones chaos injection produces); anything else
  /// is a programming error and aborts.  The chaos harness applies the
  /// same rule to its setup path (Prepare, CSV ingest).
  static bool IsTransientEngineError(StatusCode code);

  SchedulerStats stats() const;

  engines::Engine* engine() const { return engine_; }
  const storage::Catalog& catalog() const { return *catalog_; }
  const SessionManagerOptions& options() const { return options_; }

 private:
  friend class ExplorationSession;

  /// One live query in the scheduler.  `handle < 0` means the query is
  /// *pending*: its engine submission faulted transiently and it waits
  /// (in virtual time) for `retry_at` to resubmit — still live, still
  /// accruing entitlement, still bounded by its deadline.
  struct LiveQuery {
    int64_t query_id = 0;
    int64_t session_id = 0;
    int64_t interaction_id = 0;
    std::string viz_name;
    query::QuerySpec spec;          // kept for retry resubmission
    engines::QueryHandle handle = -1;
    ResultSink* sink = nullptr;     // owning session's sink (may be null)
    ExplorationSession* session = nullptr;
    Micros submit_time = 0;         // virtual admission time
    Micros deadline = 0;            // submit_time + time_requirement
    Micros budget = 0;              // total compute entitlement
    Micros offered = 0;             // entitlement granted to the engine
    Micros consumed = 0;            // compute the engine reported consumed
    int64_t last_pushed_rows = -1;  // rows_processed at the last push
    int faults = 0;                 // transient engine faults so far
    Micros retry_at = 0;            // earliest resubmission time if pending
  };

  /// Admission: registers a batch of queries submitted together (the
  /// contention factor is computed from live + batch size, the seed
  /// driver's per-interaction concurrency semantics).  `budget_scale`
  /// further shrinks the batch's entitlement (degradation; 1.0 = none).
  Result<std::vector<SubmittedQuery>> SubmitBatch(
      ExplorationSession* session, int64_t interaction_id,
      std::vector<query::QuerySpec> specs, double budget_scale);

  /// Engine-facing viz name of `viz` in `session` ("s<id>/<viz>"); empty
  /// names stay empty (no per-viz engine state to namespace).
  static std::string QualifiedViz(int64_t session_id, const std::string& viz);

  /// Compute entitlement accrued by `q` at virtual time `t`.
  Micros EntitledAt(const LiveQuery& q, Micros t) const;

  /// Grants every live query its pending entitlement up to `slice_end`
  /// (one round-robin pass), finalizing queries that complete.
  Status RunSliceTo(Micros slice_end);

  /// Finalizes queries whose deadline has arrived.
  Status FinalizeOverdue();

  /// Earliest deadline over live queries.
  Micros MinDeadline() const;

  /// Earliest scheduling event: the min over live-query deadlines and
  /// pending-query retry times (clamped to now) — the horizon a slice may
  /// run to without skipping a deadline or a scheduled retry.
  Micros NextWakeup() const;

  enum class FinalizeReason { kCompleted, kDeadline, kClientCancel, kFailed };

  /// Reacts to a transient-or-worse engine fault on `q`: cancels the
  /// handle if any, schedules a backed-off retry, or — retries exhausted —
  /// finalizes the query with a terminal `failed` update.  Returns a
  /// non-OK status only for non-transient (programming) errors, which
  /// abort like the seed driver.  `q` may be retired on return.
  Status HandleEngineFault(LiveQuery* q, const Status& error);

  /// Polls the final answer, pushes the final update, cancels the engine
  /// query and retires it.  A *transient* PollResult error degrades to an
  /// unavailable result (the query still gets its one terminal update); a
  /// programming-error status aborts like the seed driver did — unless
  /// `swallow_poll_error` (destructor teardown), which retires the query
  /// with a default unavailable result regardless.  Pending queries
  /// (handle < 0) skip the engine entirely.
  Status Finalize(LiveQuery* q, FinalizeReason reason,
                  bool swallow_poll_error = false);

  void PushPartial(LiveQuery* q);
  ProgressiveUpdate MakeUpdate(const LiveQuery& q) const;

  SessionManagerOptions options_;
  engines::Engine* engine_;
  std::shared_ptr<const storage::Catalog> catalog_;
  Micros virtual_now_ = 0;
  int64_t next_session_id_ = 0;
  int64_t next_query_id_ = 0;
  /// All sessions ever created, open and closed alike: closed handles are
  /// retained (cheap — a few pointers each) so stale client pointers stay
  /// dereferenceable and double-close is idempotent.
  std::vector<std::unique_ptr<ExplorationSession>> sessions_;
  int64_t open_sessions_ = 0;
  std::unordered_map<int64_t, LiveQuery> queries_;
  /// Admission-ordered ids of live queries — the round-robin order.
  std::vector<int64_t> run_queue_;
  int64_t finalized_events_ = 0;
  bool in_destructor_ = false;
  SchedulerStats stats_;
};

/// One session's part of a replay: the workflows it runs, in order.
struct SessionReplay {
  ExplorationSession* session = nullptr;
  std::vector<const workflow::Workflow*> workflows;
};

/// One interaction's batch of a replay.
struct ReplayedBatch {
  size_t run = 0;                                // index into the runs
  const workflow::Workflow* workflow = nullptr;
  int64_t interaction = 0;                       // index in `workflow`
  Micros admitted = 0;                           // virtual submission time
  std::vector<SubmittedQuery> queries;           // in submission order
};

/// Replays every run's workflows until each interaction has been
/// submitted and every query finalized.  After each interaction a
/// session waits `think_time` of virtual time, counted from the instant
/// its batch fully finalized (or from submission when it submitted no
/// query), and grants that time to the engine through `Think`.  Idle
/// gaps are skipped, and each workflow after the first starts on a
/// fresh dashboard (`ResetDashboard`).  `on_batch`, when set, receives every
/// batch that submitted queries once all of them have their final
/// update, in session order at each instant; an error it returns stops
/// the replay.  One session at quantum 0 issues the seed driver's
/// engine call sequence (the seed-parity note in the file comment).
Status ReplaySessionsToCompletion(
    SessionManager* manager, const std::vector<SessionReplay>& runs,
    Micros think_time,
    const std::function<Status(const ReplayedBatch&)>& on_batch = nullptr);

}  // namespace idebench::session

#endif  // IDEBENCH_SESSION_SESSION_H_
