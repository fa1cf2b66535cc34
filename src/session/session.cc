#include "session/session.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "workflow/resolve.h"

namespace idebench::session {

using workflow::Interaction;
using workflow::InteractionType;

// --- ExplorationSession ----------------------------------------------------

Result<std::vector<SubmittedQuery>> ExplorationSession::SubmitInteraction(
    const Interaction& interaction, double budget_scale) {
  if (closed_) return Status::Invalid("session is closed");
  if (!(budget_scale > 0.0) || budget_scale > 1.0) {
    return Status::Invalid("budget_scale must be in (0, 1]");
  }
  // Forward dashboard hints before any submission (seed driver order).
  // Engine-facing names are session-qualified: per-viz engine state
  // (speculation specs, link edges, per-viz reuse snapshots) must never
  // collide across sessions sharing the engine.
  if (interaction.type == InteractionType::kLink) {
    manager_->engine()->LinkVizs(
        SessionManager::QualifiedViz(id_, interaction.link_from),
        SessionManager::QualifiedViz(id_, interaction.link_to));
  } else if (interaction.type == InteractionType::kDiscard) {
    manager_->engine()->DiscardViz(
        SessionManager::QualifiedViz(id_, interaction.viz_name));
  }
  std::vector<query::QuerySpec> specs;
  IDB_RETURN_NOT_OK(workflow::ApplyInteraction(manager_->catalog(),
                                               interaction, &graph_, &specs));
  return manager_->SubmitBatch(this, next_interaction_id_++, std::move(specs),
                               budget_scale);
}

Status ExplorationSession::Cancel(int64_t query_id) {
  auto it = manager_->queries_.find(query_id);
  // Idempotent: unknown ids and queries that already finished (or belong
  // to another session) are simply not ours to cancel anymore.
  if (it == manager_->queries_.end() || it->second.session != this) {
    return Status::OK();
  }
  return manager_->Finalize(&it->second,
                            SessionManager::FinalizeReason::kClientCancel);
}

Result<std::vector<SubmittedQuery>> ExplorationSession::LinkVizs(
    const std::string& from, const std::string& to) {
  return SubmitInteraction(Interaction::Link(from, to));
}

Result<std::vector<SubmittedQuery>> ExplorationSession::DiscardViz(
    const std::string& viz) {
  return SubmitInteraction(Interaction::Discard(viz));
}

void ExplorationSession::Think(Micros duration) {
  manager_->engine()->OnThink(duration);
}

void ExplorationSession::ResetDashboard() { graph_.Clear(); }

// --- SessionManager --------------------------------------------------------

std::string SessionManager::QualifiedViz(int64_t session_id,
                                         const std::string& viz) {
  if (viz.empty()) return viz;
  return "s" + std::to_string(session_id) + "/" + viz;
}

SessionManager::SessionManager(SessionManagerOptions options,
                               engines::Engine* engine,
                               std::shared_ptr<const storage::Catalog> catalog)
    : options_(options), engine_(engine), catalog_(std::move(catalog)) {}

SessionManager::~SessionManager() {
  in_destructor_ = true;
  // Detach every sink first: on an error-path unwind the client's sinks
  // may be destroyed before the manager, so the implicit close must not
  // push updates into them.
  for (auto& [id, q] : queries_) q.sink = nullptr;
  for (const auto& s : sessions_) s->sink_ = nullptr;
  std::vector<ExplorationSession*> open;
  open.reserve(sessions_.size());
  for (const auto& s : sessions_) open.push_back(s.get());
  for (ExplorationSession* s : open) {
    const Status st = CloseSession(s);
    (void)st;
  }
}

Result<ExplorationSession*> SessionManager::CreateSession(ResultSink* sink) {
  auto session = std::unique_ptr<ExplorationSession>(
      new ExplorationSession(this, next_session_id_++, sink));
  ExplorationSession* handle = session.get();
  const bool first_session = open_sessions_ == 0;
  sessions_.push_back(std::move(session));
  ++open_sessions_;
  ++stats_.sessions_opened;
  // Notify the engine only when serving starts (no session was open):
  // WorkflowStart resets engine-wide state (reuse snapshots, link hints),
  // which must not be wiped from under other live sessions just because a
  // new user arrived.  With sequential single-session clients (the
  // benchmark driver) this fires for every session — seed behavior.
  if (first_session) engine_->WorkflowStart();
  return handle;
}

Status SessionManager::CloseSession(ExplorationSession* session) {
  auto it = std::find_if(
      sessions_.begin(), sessions_.end(),
      [session](const auto& owned) { return owned.get() == session; });
  if (it == sessions_.end()) {
    return Status::Invalid("session does not belong to this manager");
  }
  if (session->closed_) return Status::OK();  // idempotent double close
  // Cancel whatever the session still has in flight.  During manager
  // destruction poll faults are moot — everything is being torn down.
  const std::vector<int64_t> order = run_queue_;
  for (int64_t id : order) {
    auto qit = queries_.find(id);
    if (qit == queries_.end() || qit->second.session != session) continue;
    IDB_RETURN_NOT_OK(Finalize(&qit->second, FinalizeReason::kClientCancel,
                               /*swallow_poll_error=*/in_destructor_));
  }
  session->closed_ = true;
  // The closed handle is retained in sessions_ so later calls through a
  // stale pointer fail cleanly, but its dashboard is freed: a long-lived
  // server would otherwise keep the graph of every session it ever
  // opened.  (Clear() would keep the vectors' capacity.)
  session->graph_ = workflow::VizGraph();
  --open_sessions_;
  // Mirror of CreateSession: the engine learns serving ended only when
  // the last open session closes.
  if (open_sessions_ == 0) engine_->WorkflowEnd();
  return Status::OK();
}

Result<std::vector<SubmittedQuery>> SessionManager::SubmitBatch(
    ExplorationSession* session, int64_t interaction_id,
    std::vector<query::QuerySpec> specs, double budget_scale) {
  // Contention factor at admission: the batch runs alongside everything
  // already live.  With a single session this degenerates to the seed
  // driver's per-interaction concurrency (nothing else is live when an
  // interaction is submitted), including unsupported queries in the count.
  const int n = static_cast<int>(run_queue_.size() + specs.size());
  Micros budget = options_.time_requirement;
  if (n > 1 && options_.contention_penalty > 0.0) {
    budget = static_cast<Micros>(
        static_cast<double>(budget) /
        (1.0 + options_.contention_penalty * static_cast<double>(n - 1)));
  }
  if (budget_scale < 1.0) {
    // Graceful degradation: the ratekeeper shrinks the compute
    // entitlement, not the deadline — degraded queries answer on time
    // from a smaller sample instead of answering late.
    budget = std::max<Micros>(
        1, static_cast<Micros>(static_cast<double>(budget) * budget_scale));
  }

  std::vector<SubmittedQuery> out;
  out.reserve(specs.size());
  for (query::QuerySpec& spec : specs) {
    SubmittedQuery sq;
    sq.query_id = next_query_id_++;
    sq.spec = std::move(spec);
    ++stats_.queries_submitted;
    // The engine sees the session-qualified name; the client-facing
    // SubmittedQuery/updates keep the raw one.  Names are excluded from
    // query signatures, so qualification never perturbs walk offsets or
    // reuse keys — single-session results stay bit-identical.
    query::QuerySpec engine_spec = sq.spec;
    engine_spec.viz_name = QualifiedViz(session->id_, engine_spec.viz_name);
    auto submit = engine_->Submit(engine_spec);
    bool pending = false;
    if (!submit.ok()) {
      const StatusCode code = submit.status().code();
      if (code == StatusCode::kNotImplemented) {
        // The engine cannot run this query at all: report it as a final
        // unsupported update with nothing delivered.
        sq.unsupported = true;
        ++stats_.unsupported;
        if (session->sink_ != nullptr) {
          ProgressiveUpdate u;
          u.session_id = session->id_;
          u.query_id = sq.query_id;
          u.interaction_id = interaction_id;
          u.viz_name = sq.spec.viz_name;
          u.confidence = options_.confidence_level;
          u.virtual_time = virtual_now_;
          u.budget = budget;
          u.final_update = true;
          u.unsupported = true;
          session->sink_->OnUpdate(u);
          ++stats_.updates_pushed;
        }
        out.push_back(std::move(sq));
        continue;
      }
      if (!IsTransientEngineError(code)) return submit.status();
      // Transient submission failure: admit the query as *pending* — it
      // enters the scheduler with no engine handle and a backed-off
      // retry time; its deadline and entitlement run from now like any
      // other admission.
      pending = true;
    }

    LiveQuery q;
    q.query_id = sq.query_id;
    q.session_id = session->id_;
    q.interaction_id = interaction_id;
    q.viz_name = sq.spec.viz_name;
    q.spec = std::move(engine_spec);  // qualified: retries resubmit as-is
    q.handle = pending ? -1 : *submit;
    q.sink = session->sink_;
    q.session = session;
    q.submit_time = virtual_now_;
    q.deadline = virtual_now_ + options_.time_requirement;
    q.budget = budget;
    queries_.emplace(q.query_id, q);
    run_queue_.push_back(q.query_id);
    ++session->live_;
    if (pending) {
      auto qit = queries_.find(q.query_id);
      IDB_RETURN_NOT_OK(HandleEngineFault(&qit->second, submit.status()));
    }
    out.push_back(std::move(sq));
  }
  return out;
}

Micros SessionManager::EntitledAt(const LiveQuery& q, Micros t) const {
  const Micros t_eff = std::min(t, q.deadline);
  const Micros elapsed = t_eff - q.submit_time;
  if (elapsed <= 0) return 0;
  const Micros tr = options_.time_requirement;
  if (elapsed >= tr) return q.budget;
  return static_cast<Micros>(static_cast<__int128>(elapsed) * q.budget / tr);
}

Micros SessionManager::MinDeadline() const {
  Micros min_deadline = std::numeric_limits<Micros>::max();
  for (const auto& [id, q] : queries_) {
    min_deadline = std::min(min_deadline, q.deadline);
  }
  return min_deadline;
}

Micros SessionManager::NextWakeup() const {
  Micros t = MinDeadline();
  for (const auto& [id, q] : queries_) {
    if (q.handle < 0) t = std::min(t, std::max(q.retry_at, virtual_now_));
  }
  return t;
}

bool SessionManager::IsTransientEngineError(StatusCode code) {
  switch (code) {
    case StatusCode::kIoError:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCancelled:
    case StatusCode::kUnknown:
      return true;
    default:
      return false;
  }
}

Status SessionManager::HandleEngineFault(LiveQuery* q, const Status& error) {
  if (!IsTransientEngineError(error.code())) return error;
  ++stats_.transient_faults;
  if (q->handle >= 0) {
    // Drop the wedged handle.  Engine Cancel may snapshot the partial
    // aggregate into the reuse cache — fine, the cache only displaces
    // physical work — and the retry resubmits from a clean handle.
    engine_->Cancel(q->handle);
    q->handle = -1;
    q->last_pushed_rows = -1;
  }
  ++q->faults;
  if (q->faults > options_.max_engine_retries) {
    return Finalize(q, FinalizeReason::kFailed);
  }
  // Exponential backoff in virtual time: 1x, 2x, 4x, ... of the base.
  // The deadline keeps running, so backoff spends the query's own TR
  // window; FinalizeOverdue still fires exactly at the deadline.
  q->retry_at =
      virtual_now_ + (options_.retry_backoff << std::min(q->faults - 1, 20));
  return Status::OK();
}

ProgressiveUpdate SessionManager::MakeUpdate(const LiveQuery& q) const {
  ProgressiveUpdate u;
  u.session_id = q.session_id;
  u.query_id = q.query_id;
  u.interaction_id = q.interaction_id;
  u.viz_name = q.viz_name;
  u.confidence = options_.confidence_level;
  u.virtual_time = virtual_now_;
  u.consumed = q.consumed;
  u.budget = q.budget;
  return u;
}

void SessionManager::PushPartial(LiveQuery* q) {
  auto result = engine_->PollResult(q->handle);
  if (!result.ok() || !result->available) return;
  // Stream only when new bins materialized since the last push.
  if (result->rows_processed == q->last_pushed_rows) return;
  q->last_pushed_rows = result->rows_processed;
  ProgressiveUpdate u = MakeUpdate(*q);
  u.result = std::move(result).MoveValueUnsafe();
  u.progress = u.result.progress;
  q->sink->OnUpdate(u);
  ++stats_.updates_pushed;
  ++stats_.partial_updates;
}

Status SessionManager::Finalize(LiveQuery* q, FinalizeReason reason,
                                bool swallow_poll_error) {
  ProgressiveUpdate u = MakeUpdate(*q);
  u.final_update = true;
  bool poll_failed = false;
  Status poll_status = Status::OK();
  if (q->handle >= 0) {
    u.completed =
        reason == FinalizeReason::kCompleted && engine_->IsDone(q->handle);
    auto result = engine_->PollResult(q->handle);
    poll_failed = !result.ok();
    if (poll_failed) {
      poll_status = result.status();
    } else {
      u.result = std::move(result).MoveValueUnsafe();
    }
    engine_->Cancel(q->handle);
  }
  u.cancelled = reason == FinalizeReason::kDeadline ||
                reason == FinalizeReason::kClientCancel;
  u.failed = reason == FinalizeReason::kFailed;
  u.progress = u.result.progress;

  switch (reason) {
    case FinalizeReason::kCompleted:
      ++stats_.completed;
      break;
    case FinalizeReason::kDeadline:
      ++stats_.deadline_cancelled;
      stats_.max_deadline_overshoot = std::max(stats_.max_deadline_overshoot,
                                               virtual_now_ - q->deadline);
      break;
    case FinalizeReason::kClientCancel:
      ++stats_.client_cancelled;
      break;
    case FinalizeReason::kFailed:
      ++stats_.failed;
      break;
  }

  ResultSink* sink = q->sink;
  ExplorationSession* session = q->session;
  const int64_t id = q->query_id;
  --session->live_;
  run_queue_.erase(std::remove(run_queue_.begin(), run_queue_.end(), id),
                   run_queue_.end());
  queries_.erase(id);  // `q` is dangling from here on
  ++finalized_events_;
  if (poll_failed && !swallow_poll_error &&
      !IsTransientEngineError(poll_status.code())) {
    // A programming-error poll status (unknown handle etc.) is a bug,
    // not weather: the query is retired, but the run aborts the way the
    // seed driver's pull loop did (no update is pushed).
    return poll_status;
  }
  // A transient poll failure degrades to an unavailable result — the
  // query still receives exactly one terminal update.
  if (sink != nullptr) {
    sink->OnUpdate(u);
    ++stats_.updates_pushed;
  }
  return Status::OK();
}

Status SessionManager::RunSliceTo(Micros slice_end) {
  // One round-robin pass in admission order; every live query receives
  // the compute entitlement it accrued up to `slice_end`.  The RunFor
  // loop of each turn replicates the seed driver's; completed queries
  // finalize at the end of their own turn (see the seed-parity note in
  // session.h).
  const std::vector<int64_t> order = run_queue_;
  for (int64_t id : order) {
    auto it = queries_.find(id);
    if (it == queries_.end()) continue;  // finalized earlier in this pass
    LiveQuery& q = it->second;
    if (q.handle < 0) {
      // Pending after a transient fault: resubmit once its backoff
      // elapsed.  A successful resubmission rejoins the round-robin in
      // this very pass with the full entitlement accrued while waiting.
      if (virtual_now_ < q.retry_at) continue;
      auto submit = engine_->Submit(q.spec);
      if (!submit.ok()) {
        IDB_RETURN_NOT_OK(HandleEngineFault(&q, submit.status()));
        continue;  // retired or rescheduled; `q` may be dangling
      }
      q.handle = *submit;
      ++stats_.retries;
    }
    const Micros entitled = EntitledAt(q, slice_end);
    Micros remaining = entitled - q.offered;
    q.offered = entitled;
    while (remaining > 0 && !engine_->IsDone(q.handle)) {
      const Micros step = engine_->RunFor(q.handle, remaining);
      if (step <= 0) break;
      q.consumed += step;
      remaining -= step;
    }
    if (engine_->IsDone(q.handle)) {
      IDB_RETURN_NOT_OK(Finalize(&q, FinalizeReason::kCompleted));
    } else if (remaining > 0) {
      // The engine refused budget it was entitled to: every engine here
      // consumes its whole slice while running, so a zero step with
      // entitlement left means the handle wedged.  Probe to distinguish
      // an injected run fault (retry) from a genuine programming error
      // (abort, seed semantics).
      auto probe = engine_->PollResult(q.handle);
      if (!probe.ok()) {
        IDB_RETURN_NOT_OK(HandleEngineFault(&q, probe.status()));
        continue;  // retired or rescheduled; `q` may be dangling
      }
      if (options_.push_partials && q.sink != nullptr) PushPartial(&q);
    } else if (options_.push_partials && q.sink != nullptr) {
      PushPartial(&q);
    }
  }
  return Status::OK();
}

Status SessionManager::FinalizeOverdue() {
  const std::vector<int64_t> order = run_queue_;
  for (int64_t id : order) {
    auto it = queries_.find(id);
    if (it == queries_.end()) continue;
    if (it->second.deadline <= virtual_now_) {
      IDB_RETURN_NOT_OK(Finalize(&it->second, FinalizeReason::kDeadline));
    }
  }
  return Status::OK();
}

Status SessionManager::AdvanceTo(Micros t) {
  // Each step stops at a finalization or at `t`; one that finalizes
  // nothing has landed on `t`.
  while (true) {
    IDB_ASSIGN_OR_RETURN(int finalized, StepUntilEvent(t));
    if (finalized == 0) return Status::OK();
  }
}

Result<int> SessionManager::StepUntilEvent(Micros cap) {
  const int64_t before = finalized_events_;
  while (true) {
    IDB_RETURN_NOT_OK(FinalizeOverdue());
    if (finalized_events_ > before) {
      return static_cast<int>(finalized_events_ - before);
    }
    if (virtual_now_ >= cap) return 0;
    if (run_queue_.empty()) {
      virtual_now_ = cap;  // idle: virtual time is free
      return 0;
    }
    const Micros horizon = std::min(cap, NextWakeup());
    Micros slice_end = horizon;
    if (options_.quantum > 0) {
      slice_end = std::min(horizon, virtual_now_ + options_.quantum);
    }
    virtual_now_ = slice_end;
    IDB_RETURN_NOT_OK(RunSliceTo(slice_end));
  }
}

Status SessionManager::RunUntilIdle() {
  while (HasLive()) {
    IDB_ASSIGN_OR_RETURN(int finalized, StepUntilEvent(MinDeadline()));
    (void)finalized;
  }
  return Status::OK();
}

SchedulerStats SessionManager::stats() const {
  SchedulerStats s = stats_;
  s.virtual_now = virtual_now_;
  return s;
}

Status ReplaySessionsToCompletion(
    SessionManager* manager, const std::vector<SessionReplay>& runs,
    Micros think_time,
    const std::function<Status(const ReplayedBatch&)>& on_batch) {
  constexpr Micros kNever = std::numeric_limits<Micros>::max();
  /// Where one run stands.  It is busy while `batch` holds queries.
  struct Cursor {
    size_t workflow = 0;  // current workflow of the run
    size_t next = 0;      // next interaction in it
    Micros ready_at = 0;  // earliest next submission
    ReplayedBatch batch;
  };
  std::vector<Cursor> cursors(runs.size());
  const auto think = [&](size_t i) {
    runs[i].session->Think(think_time);
    cursors[i].ready_at = manager->VirtualNow() + think_time;
  };

  while (true) {
    // Hand on every fully finalized batch and think after it, then submit
    // for every idle session whose think time has passed.  Repeat until
    // nothing moves: a batch of unsupported queries finalizes at
    // submission, and a think time of 0 readies its session at once.
    Micros next_ready = kNever;  // earliest submission still to come
    bool progressed = true;
    while (progressed) {
      progressed = false;
      next_ready = kNever;
      for (size_t i = 0; i < runs.size(); ++i) {
        ReplayedBatch& batch = cursors[i].batch;
        if (batch.queries.empty() || runs[i].session->live_queries() > 0) {
          continue;
        }
        if (on_batch) IDB_RETURN_NOT_OK(on_batch(batch));
        batch.queries.clear();
        think(i);
      }
      for (size_t i = 0; i < runs.size(); ++i) {
        Cursor& c = cursors[i];
        if (!c.batch.queries.empty() ||
            c.workflow == runs[i].workflows.size()) {
          continue;
        }
        if (c.ready_at > manager->VirtualNow()) {
          next_ready = std::min(next_ready, c.ready_at);
          continue;
        }
        progressed = true;
        const workflow::Workflow& wf = *runs[i].workflows[c.workflow];
        if (c.next == wf.interactions.size()) {
          // The user starts the next workflow on an empty dashboard.
          runs[i].session->ResetDashboard();
          c.next = 0;
          ++c.workflow;
          continue;
        }
        c.batch.run = i;
        c.batch.workflow = &wf;
        c.batch.interaction = static_cast<int64_t>(c.next);
        c.batch.admitted = manager->VirtualNow();
        IDB_ASSIGN_OR_RETURN(
            c.batch.queries,
            runs[i].session->SubmitInteraction(wf.interactions[c.next++]));
        if (c.batch.queries.empty()) think(i);  // nothing to wait for
      }
    }

    if (next_ready == kNever && !manager->HasLive()) return Status::OK();
    // Run to the next finalization or submission time, whichever comes
    // first; with nothing live this skips the idle gap.
    IDB_ASSIGN_OR_RETURN(int finalized, manager->StepUntilEvent(next_ready));
    (void)finalized;
  }
}

}  // namespace idebench::session
