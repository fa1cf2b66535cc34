#include "driver/benchmark_driver.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "query/sql.h"
#include "workflow/resolve.h"

namespace idebench::driver {

using query::QuerySpec;
using workflow::Interaction;
using workflow::Workflow;

namespace {

/// Round-robin time slice of the multi-session scheduler (virtual
/// micros).  Coarse enough that slicing overhead stays negligible, fine
/// enough that 64 sessions interleave visibly within one time
/// requirement.  Single-session runs use quantum 0 (seed-exact turns).
constexpr Micros kMultiSessionQuantum = 100'000;

/// Collects the final pushed update of every query of one session.
class FinalsSink : public session::ResultSink {
 public:
  void OnUpdate(const session::ProgressiveUpdate& update) override {
    if (update.final_update) finals_[update.query_id] = update;
  }

  const session::ProgressiveUpdate& Final(int64_t query_id) const {
    return finals_.at(query_id);
  }

 private:
  std::unordered_map<int64_t, session::ProgressiveUpdate> finals_;
};

/// Space-separated binning kinds, e.g. "quantitative quantitative".
std::string BinningTypeLabel(const QuerySpec& spec) {
  std::string out;
  for (size_t i = 0; i < spec.bins.size(); ++i) {
    if (i > 0) out += " ";
    out += spec.bins[i].mode == query::BinningMode::kNominal ? "nominal"
                                                             : "quantitative";
  }
  return out;
}

std::string AggTypeLabel(const QuerySpec& spec) {
  std::string out;
  for (size_t i = 0; i < spec.aggregates.size(); ++i) {
    if (i > 0) out += " ";
    out += query::AggregateTypeName(spec.aggregates[i].type);
  }
  return out;
}

}  // namespace

BenchmarkDriver::BenchmarkDriver(
    Settings settings, engines::Engine* engine,
    std::shared_ptr<const storage::Catalog> catalog)
    : settings_(std::move(settings)),
      engine_(engine),
      catalog_(std::move(catalog)),
      // The oracle inherits the configured execution parallelism; its
      // answers are thread-count independent (morsel path), so this only
      // affects cold-start wall-clock time.
      oracle_(std::make_shared<GroundTruthOracle>(catalog_,
                                                  settings_.threads)) {}

BenchmarkDriver::BenchmarkDriver(
    Settings settings, engines::Engine* engine,
    std::shared_ptr<const storage::Catalog> catalog,
    std::shared_ptr<GroundTruthOracle> oracle)
    : settings_(std::move(settings)),
      engine_(engine),
      catalog_(std::move(catalog)),
      oracle_(std::move(oracle)) {}

Result<Micros> BenchmarkDriver::PrepareEngine() {
  IDB_ASSIGN_OR_RETURN(prep_time_, engine_->Prepare(catalog_));
  return prep_time_;
}

Status BenchmarkDriver::WarmGroundTruth(
    const std::vector<Workflow>& workflows) {
  // Dry-run the dashboard graphs to enumerate every query the workflows
  // will trigger; graph application is engine-independent and cheap next
  // to the full scans the oracle runs.
  std::vector<query::QuerySpec> specs;
  for (const Workflow& wf : workflows) {
    IDB_RETURN_NOT_OK(workflow::ForEachInteraction(
        *catalog_, wf,
        [&](const Interaction&, int64_t, std::vector<query::QuerySpec>& s) {
          for (query::QuerySpec& spec : s) specs.push_back(std::move(spec));
          return Status::OK();
        }));
  }
  return oracle_->Warm(specs);
}

Result<QueryRecord> BenchmarkDriver::MakeRecord(
    const session::ReplayedBatch& batch, const session::SubmittedQuery& sq,
    const session::ProgressiveUpdate& fin, Micros start_time,
    Micros end_time, int session_id) {
  const query::QueryResult& result = fin.result;
  const bool tr_violated = !result.available;
  IDB_ASSIGN_OR_RETURN(const query::QueryResult* truth, oracle_->Get(sq.spec));

  QueryRecord record;
  record.id = next_query_id_++;
  record.interaction_id = batch.interaction;
  record.viz_name = sq.spec.viz_name;
  record.driver_name = engine_->name();
  record.data_size = settings_.data_size_label;
  record.think_time = settings_.think_time;
  record.time_requirement = settings_.time_requirement;
  record.workflow = batch.workflow->name;
  record.workflow_type = workflow::WorkflowTypeName(batch.workflow->type);
  record.start_time = start_time;
  record.end_time = end_time;
  record.bin_dims = static_cast<int>(sq.spec.bins.size());
  record.binning_type = BinningTypeLabel(sq.spec);
  record.agg_type = AggTypeLabel(sq.spec);
  record.num_concurrent = static_cast<int>(batch.queries.size());
  record.session = session_id;
  record.sql = query::GenerateSql(sq.spec, *catalog_);
  record.progress = result.progress;
  record.metrics = metrics::Evaluate(result, *truth, tr_violated);
  return record;
}

Result<std::vector<QueryRecord>> BenchmarkDriver::RunSessions(
    std::vector<std::vector<const Workflow*>> queues, bool concurrent) {
  session::SessionManagerOptions mopts;
  mopts.time_requirement = settings_.time_requirement;
  mopts.contention_penalty = settings_.concurrency_penalty;
  // Quantum 0 (run-to-entitlement turns) is the seed-parity mode.
  mopts.quantum = concurrent ? kMultiSessionQuantum : 0;
  mopts.push_partials = false;  // the driver consumes final updates only
  mopts.confidence_level = settings_.confidence_level;
  // The sinks must outlive the manager: an error-path unwind destroys the
  // manager, whose implicit close touches the registered sinks.
  std::vector<FinalsSink> sinks(queues.size());
  session::SessionManager manager(mopts, engine_, catalog_);
  std::vector<session::SessionReplay> runs;
  for (size_t s = 0; s < queues.size(); ++s) {
    IDB_ASSIGN_OR_RETURN(session::ExplorationSession * sess,
                         manager.CreateSession(&sinks[s]));
    runs.push_back({sess, std::move(queues[s])});
  }

  std::vector<std::vector<QueryRecord>> per_session(runs.size());
  IDB_RETURN_NOT_OK(session::ReplaySessionsToCompletion(
      &manager, runs, settings_.think_time,
      [&](const session::ReplayedBatch& batch) -> Status {
        for (const session::SubmittedQuery& sq : batch.queries) {
          const session::ProgressiveUpdate& fin =
              sinks[batch.run].Final(sq.query_id);
          // Concurrent sessions occupy real virtual time, so a query
          // starts at admission and ends at finalization (exactly submit
          // + TR for deadline cancellations).  A lone session keeps the
          // legacy clock: interaction i starts after i think times, and
          // a completed query ends after its consumed compute, an
          // overdue (or unsupported) one after its full budget.
          Micros start = batch.admitted;
          Micros end = fin.virtual_time;
          if (!concurrent) {
            start = batch.interaction * settings_.think_time;
            end = start + (fin.completed ? std::min(fin.consumed, fin.budget)
                                         : fin.budget);
          }
          IDB_ASSIGN_OR_RETURN(
              QueryRecord record,
              MakeRecord(batch, sq, fin, start, end,
                         static_cast<int>(runs[batch.run].session->id())));
          per_session[batch.run].push_back(std::move(record));
        }
        return Status::OK();
      }));

  std::vector<QueryRecord> records;
  for (size_t s = 0; s < runs.size(); ++s) {
    records.insert(records.end(),
                   std::make_move_iterator(per_session[s].begin()),
                   std::make_move_iterator(per_session[s].end()));
    IDB_RETURN_NOT_OK(manager.CloseSession(runs[s].session));
  }
  if (concurrent) scheduler_stats_ = manager.stats();
  return records;
}

Status BenchmarkDriver::RunWorkflow(const Workflow& wf,
                                    std::vector<QueryRecord>* records) {
  IDB_ASSIGN_OR_RETURN(std::vector<QueryRecord> run,
                       RunSessions({{&wf}}, /*concurrent=*/false));
  records->insert(records->end(), std::make_move_iterator(run.begin()),
                  std::make_move_iterator(run.end()));
  return Status::OK();
}

Result<std::vector<QueryRecord>> BenchmarkDriver::RunWorkflows(
    const std::vector<Workflow>& workflows) {
  // Cold-start bottleneck: the oracle's per-query full scans.  With
  // physical parallelism configured, compute them across queries up
  // front (ROADMAP: "parallelize ground-truth warm-up across queries");
  // the per-query answers are identical either way.
  if (settings_.threads != 1) {
    IDB_RETURN_NOT_OK(WarmGroundTruth(workflows));
  }
  if (settings_.sessions > 1) {
    // Round-robin over at most one session per workflow.
    std::vector<std::vector<const Workflow*>> queues(std::max(
        1, std::min<int>(settings_.sessions,
                         static_cast<int>(workflows.size()))));
    for (size_t i = 0; i < workflows.size(); ++i) {
      queues[i % queues.size()].push_back(&workflows[i]);
    }
    return RunSessions(std::move(queues), /*concurrent=*/true);
  }
  std::vector<QueryRecord> records;
  for (const Workflow& wf : workflows) {
    IDB_RETURN_NOT_OK(RunWorkflow(wf, &records));
  }
  return records;
}

}  // namespace idebench::driver
