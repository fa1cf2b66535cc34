/// \file inproc.cc
/// exact_scan and drilldown_reuse: one process drives the session manager
/// and the engine directly, one session at a time, closed loop.  Every
/// workflow opens a fresh session, so Engine::WorkflowStart resets the
/// reuse cache as the benchmark driver does.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "driver/ground_truth.h"
#include "engines/registry.h"
#include "session/session.h"
#include "storage/segment.h"
#include "workloads.h"

namespace perfbench {

namespace {

using idebench::Micros;
using idebench::Result;
using idebench::Status;
using idebench::engines::Engine;
using idebench::query::QueryResult;
using idebench::query::QuerySpec;
using idebench::session::ExplorationSession;
using idebench::session::ProgressiveUpdate;
using idebench::session::SessionManager;
using idebench::session::SessionManagerOptions;
using idebench::workflow::Interaction;

/// Relative error allowed against the oracle: the engines' scan paths may
/// regroup real-valued sums differently in the last ulp.
constexpr double kAnswerTolerance = 1e-9;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Everything one set-up builds.  The decorator is the engine every
/// session manager sees.
struct Stack {
  std::shared_ptr<const idebench::storage::Catalog> catalog;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<TracingEngine> traced;
};

/// One submitted query and what its terminal update said.
struct QueryRecord {
  QuerySpec spec;
  int64_t finals = 0;
  bool failed = false;
  bool completed = false;
  bool available = false;
  double progress = 0;
  QueryResult result;  // kept for completed queries only
};

class RecordingSink : public idebench::session::ResultSink {
 public:
  explicit RecordingSink(std::unordered_map<int64_t, QueryRecord>* records)
      : records_(records) {}
  void OnUpdate(const ProgressiveUpdate& u) override {
    if (!u.final_update) return;
    QueryRecord& r = (*records_)[u.query_id];
    ++r.finals;
    r.failed = r.failed || u.failed;
    r.completed = u.completed;
    r.available = u.result.available;
    r.progress = u.progress;
    if (u.completed) r.result = u.result;
  }

 private:
  std::unordered_map<int64_t, QueryRecord>* records_;
};

Result<Stack> SetUp(const RunOptions& options, const Interaction& warm,
                    SetupTimes* times) {
  const WorkloadSpec& w = *options.workload;
  Stack stack;
  const int64_t t0 = NowNs();
  IDB_ASSIGN_OR_RETURN(
      idebench::storage::Catalog loaded,
      idebench::storage::LoadCatalogSegments(BaseDir(options.data_dir)));
  stack.catalog =
      std::make_shared<const idebench::storage::Catalog>(std::move(loaded));
  const int64_t t1 = NowNs();
  IDB_ASSIGN_OR_RETURN(stack.engine,
                       idebench::engines::CreateEngine(
                           w.engine, options.seed, w.threads, w.reuse_cache));
  IDB_ASSIGN_OR_RETURN(Micros prepared, stack.engine->Prepare(stack.catalog));
  (void)prepared;  // virtual preparation time; the wall time is measured
  stack.traced = std::make_unique<TracingEngine>(stack.engine.get());
  const int64_t t2 = NowNs();
  {
    // First use starts pool threads and builds lazy engine state.  Its
    // manager dies here, and the workload's first session restarts the
    // engine's workflow state (reuse cache) before any workload query.
    SessionManagerOptions manager_options;
    manager_options.time_requirement = w.time_requirement;
    SessionManager manager(manager_options, stack.traced.get(), stack.catalog);
    IDB_ASSIGN_OR_RETURN(ExplorationSession * session,
                         manager.CreateSession(nullptr));
    IDB_ASSIGN_OR_RETURN(auto batch, session->SubmitInteraction(warm));
    (void)batch;
    IDB_RETURN_NOT_OK(manager.RunUntilIdle());
    IDB_RETURN_NOT_OK(manager.CloseSession(session));
  }
  const int64_t t3 = NowNs();
  times->segment_load_s = Seconds(t1 - t0);
  times->prepare_s = Seconds(t2 - t1);
  times->warmup_s = Seconds(t3 - t2);
  times->total_s = Seconds(t3 - t0);
  return stack;
}

/// Replays the workflows from the first one on, closed loop, until
/// `seconds` have passed and the phase holds enough interactions.
Status RunPhase(const RunOptions& options, const WorkflowSet& set,
                SessionManager* manager, TracingEngine* traced,
                std::unordered_map<int64_t, QueryRecord>* records,
                int64_t* next_interaction, Phase* phase) {
  const Micros tr = options.workload->time_requirement;
  RecordingSink sink(records);
  const int64_t start = NowNs();
  const auto stop_at = start + static_cast<int64_t>(options.seconds * 1e9);
  const int64_t min_interactions = MinInteractions();
  phase->proc_begin = ReadProc();
  bool done = false;
  for (size_t wf = 0; !done; ++wf) {
    const auto& workflow = set.workflows[wf % set.workflows.size()];
    IDB_ASSIGN_OR_RETURN(ExplorationSession * session,
                         manager->CreateSession(&sink));
    for (const Interaction& interaction : workflow.interactions) {
      if (NowNs() >= stop_at &&
          static_cast<int64_t>(phase->samples.size()) >=
              min_interactions) {
        done = true;
        break;
      }
      const int64_t id = (*next_interaction)++;
      traced->set_default_id(id);
      const int64_t submitted_at = NowNs();
      std::vector<int64_t> pending;
      {
        ScopedSpan root(SpanKind::kInteraction, id);
        Result<std::vector<idebench::session::SubmittedQuery>> batch = [&] {
          ScopedSpan span(SpanKind::kSessionSubmit, id);
          return session->SubmitInteraction(interaction);
        }();
        IDB_RETURN_NOT_OK(batch.status());
        for (auto& q : *batch) {
          (*records)[q.query_id].spec = std::move(q.spec);
          pending.push_back(q.query_id);
        }
        const auto finalized = [&] {
          return std::all_of(pending.begin(), pending.end(), [&](int64_t q) {
            return (*records)[q].finals > 0;
          });
        };
        // Every query reaches its deadline within one time requirement;
        // a manager with nothing live left and a query still unanswered
        // has dropped a terminal update (counted by the caller).
        while (!finalized() && manager->HasLive()) {
          ScopedSpan span(SpanKind::kSessionStep, id);
          IDB_RETURN_NOT_OK(
              manager->StepUntilEvent(manager->VirtualNow() + tr).status());
        }
      }
      ++phase->interactions;
      if (!pending.empty()) {
        const int64_t now = NowNs();
        phase->samples.push_back(
            {static_cast<double>(now - submitted_at) * 1e-6,
             Seconds(now - start), static_cast<int64_t>(pending.size())});
      }
      phase->queries += static_cast<int64_t>(pending.size());
      for (const int64_t q : pending) phase->tr_met += (*records)[q].available;
    }
    IDB_RETURN_NOT_OK(manager->CloseSession(session));
  }
  phase->wall_s = Seconds(NowNs() - start);
  phase->proc_end = ReadProc();
  return Status::OK();
}

/// True when `got` equals the oracle's answer bin for bin within the
/// tolerance; `why` names the first difference.
bool SameAnswer(const QueryResult& got, const QueryResult& truth,
                std::string* why) {
  if (got.bins.size() != truth.bins.size()) {
    *why = "bin count " + std::to_string(got.bins.size()) + " vs " +
           std::to_string(truth.bins.size());
    return false;
  }
  for (const auto& [key, bin] : truth.bins) {
    const auto it = got.bins.find(key);
    if (it == got.bins.end() || it->second.values.size() != bin.values.size()) {
      *why = "bin " + std::to_string(key) + " missing or misshapen";
      return false;
    }
    for (size_t a = 0; a < bin.values.size(); ++a) {
      const double x = it->second.values[a].estimate;
      const double y = bin.values[a].estimate;
      // Relative above magnitude 1, absolute below it (sums that cancel).
      if (std::fabs(x - y) >
          kAnswerTolerance * std::max({1.0, std::fabs(x), std::fabs(y)})) {
        *why = "bin " + std::to_string(key) + " aggregate " +
               std::to_string(a) + ": " + std::to_string(x) + " vs " +
               std::to_string(y);
        return false;
      }
    }
  }
  return true;
}

/// Per-layer metrics of the traced phase; a self-time sum off by more than
/// 5 % is a problem in `out`.
void AddLayerMetrics(const RunOptions& options, const Phase& untraced,
                     const Phase& traced_phase,
                     const std::vector<Span>& spans,
                     const std::unordered_map<int64_t, QueryRecord>& records,
                     const std::unordered_set<int64_t>& traced_queries,
                     const idebench::metrics::ReuseCacheStats& reuse,
                     int64_t updates_pushed, LayerValues* values,
                     RunResult* out) {
  const int64_t queries = traced_phase.queries;
  int64_t run_calls = 0;
  const double submit_ns = SpanNs(spans, SpanKind::kEngineSubmit);
  const double run_ns = SpanNs(spans, SpanKind::kEngineRun, &run_calls);
  const double poll_ns = SpanNs(spans, SpanKind::kEnginePoll);
  const double cancel_ns = SpanNs(spans, SpanKind::kEngineCancel);
  const double engine_ns = submit_ns + run_ns + poll_ns + cancel_ns;

  // Rows each query's scan or walk advanced over, from its final progress.
  double rows_advanced = 0;
  for (const int64_t q : traced_queries) {
    rows_advanced += records.at(q).progress *
                     static_cast<double>(options.workload->rows);
  }

  // Session self time: manager calls minus the engine calls inside them.
  std::vector<Interval> intervals;
  std::vector<SpanKind> kinds;
  for (const Span& s : spans) {
    intervals.push_back({s.start_ns, s.end_ns});
    kinds.push_back(s.kind);
  }
  const std::vector<int64_t> self = SelfTimes(intervals);
  double session_self_ns = 0, interaction_ns = 0, attributed_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    switch (kinds[i]) {
      case SpanKind::kInteraction:
        interaction_ns += static_cast<double>(intervals[i].end_ns -
                                              intervals[i].start_ns);
        break;
      case SpanKind::kSessionSubmit:
      case SpanKind::kSessionStep:
        session_self_ns += static_cast<double>(self[i]);
        attributed_ns += static_cast<double>(self[i]);
        break;
      default:
        attributed_ns += static_cast<double>(self[i]);
        break;
    }
  }
  const double self_sum_share =
      interaction_ns > 0 ? attributed_ns / interaction_ns : 0.0;
  if (std::fabs(1.0 - self_sum_share) > 0.05) {
    out->problems.push_back("per-layer self times cover " +
                            std::to_string(self_sum_share) +
                            " of interaction time (allowed 0.95..1.05)");
  }

  const int64_t lookups = reuse.equal_hits + reuse.refinement_hits + reuse.misses;
  auto& v = *values;
  v["engine.submit_ms"] = PerQuery(submit_ns * 1e-6, queries);
  v["engine.run_ms"] = PerQuery(run_ns * 1e-6, queries);
  v["engine.run_rows_per_s"] = run_ns > 0 ? rows_advanced / (run_ns * 1e-9) : 0.0;
  v["engine.run_calls"] = PerQuery(static_cast<double>(run_calls), queries);
  v["engine.poll_ms"] = PerQuery(poll_ns * 1e-6, queries);
  v["engine.cancel_ms"] = PerQuery(cancel_ns * 1e-6, queries);
  v["engine.busy_share"] = engine_ns * 1e-9 / std::max(traced_phase.wall_s, 1e-9);
  v["reuse.hit_ratio"] = PerQuery(
      static_cast<double>(reuse.equal_hits + reuse.refinement_hits), lookups);
  v["reuse.rows_served_share"] =
      rows_advanced > 0 ? static_cast<double>(reuse.rows_served) / rows_advanced
                        : 0.0;
  v["reuse.evictions_per_store"] =
      PerQuery(static_cast<double>(reuse.evictions), reuse.stores);
  v["session.self_ms"] =
      PerQuery(session_self_ns * 1e-6, traced_phase.interactions);
  v["session.updates_per_query"] =
      PerQuery(static_cast<double>(updates_pushed), queries);
  // The network front-end and ingest are not on this path: their metrics
  // read 0.
  v["trace.overhead_share"] = OverheadShare(untraced, traced_phase);
  v["trace.self_sum_share"] = self_sum_share;
}

}  // namespace

Result<RunResult> RunInProcess(const RunOptions& options) {
  const WorkloadSpec& w = *options.workload;
  IDB_ASSIGN_OR_RETURN(WorkflowSet set, LoadWorkflows(options.data_dir));
  IDB_ASSIGN_OR_RETURN(Interaction warm, WarmupInteraction(set));

  std::vector<SetupTimes> setups;
  Stack stack;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    stack = Stack();
    malloc_trim(0);  // return the previous set-up's memory before the next
    SetupTimes times;
    IDB_ASSIGN_OR_RETURN(stack, SetUp(options, warm, &times));
    setups.push_back(times);
  }
  const SetupTimes setup = MedianSetup(setups);

  SessionManagerOptions manager_options;
  manager_options.time_requirement = w.time_requirement;
  manager_options.quantum = 0;
  SessionManager manager(manager_options, stack.traced.get(), stack.catalog);

  std::unordered_map<int64_t, QueryRecord> records;
  int64_t next_interaction = 0;
  RunResult out;
  out.meta = RunMetadata(options, "none", "none");

  Phase untraced;
  IDB_RETURN_NOT_OK(RunPhase(options, set, &manager, stack.traced.get(),
                             &records, &next_interaction, &untraced));
  const double peak_rss = PeakRssMib();

  if (options.trace) {
    const auto reuse_before = stack.traced->reuse_cache_stats();
    const int64_t updates_before = manager.stats().updates_pushed;
    std::unordered_set<int64_t> before_ids;
    for (const auto& [id, r] : records) before_ids.insert(id);

    Tracer::Clear();
    Tracer::SetEnabled(true);
    Phase traced_phase;
    IDB_RETURN_NOT_OK(RunPhase(options, set, &manager, stack.traced.get(),
                               &records, &next_interaction, &traced_phase));
    Tracer::SetEnabled(false);
    out.spans = Tracer::Collect();

    std::unordered_set<int64_t> traced_ids;
    for (const auto& [id, r] : records) {
      if (before_ids.count(id) == 0) traced_ids.insert(id);
    }
    auto reuse = stack.traced->reuse_cache_stats();
    reuse.equal_hits -= reuse_before.equal_hits;
    reuse.refinement_hits -= reuse_before.refinement_hits;
    reuse.misses -= reuse_before.misses;
    reuse.stores -= reuse_before.stores;
    reuse.evictions -= reuse_before.evictions;
    reuse.rows_served -= reuse_before.rows_served;
    LayerValues values;
    SetupLayers(setup,
                static_cast<double>(SegmentBytes(BaseDir(options.data_dir))) /
                    static_cast<double>(w.rows),
                &values);
    AddLayerMetrics(options, untraced, traced_phase, out.spans, records,
                    traced_ids, reuse,
                    manager.stats().updates_pushed - updates_before, &values,
                    &out);
    ProcLayers(untraced, &values);
    EmitPerLayer(values, &out);
  }
  AddEndToEnd(untraced, setup.total_s, peak_rss, &out);

  // Output checks, after the timed phases: one terminal update per query,
  // none failed, and every completed answer equal to the exact oracle's.
  idebench::driver::GroundTruthOracle oracle(stack.catalog, /*threads=*/0);
  std::vector<QuerySpec> completed_specs;
  std::map<int64_t, const QueryRecord*> ordered;
  for (const auto& [id, r] : records) ordered[id] = &r;
  const auto report = [&](std::string problem) {
    if (out.problems.size() < 20) out.problems.push_back(std::move(problem));
  };
  for (const auto& [id, r] : ordered) {
    out.ledger.Query(r->finals, r->failed);
    if (r->finals != 1 || r->failed) {
      report("query " + std::to_string(id) + ": " +
             std::to_string(r->finals) + " terminal updates, failed=" +
             std::to_string(r->failed));
    }
    if (r->completed) completed_specs.push_back(r->spec);
  }
  IDB_RETURN_NOT_OK(oracle.Warm(completed_specs));
  for (const auto& [id, r] : ordered) {
    if (!r->completed) continue;
    IDB_ASSIGN_OR_RETURN(const QueryResult* truth, oracle.Get(r->spec));
    std::string why;
    if (!SameAnswer(r->result, *truth, &why)) {
      out.ledger.WrongAnswer();
      report("query " + std::to_string(id) + " differs from the oracle: " +
             why);
    }
  }
  out.meta.Set("completed_checked", static_cast<int64_t>(completed_specs.size()));
  out.correct = out.problems.empty();
  return out;
}

}  // namespace perfbench
