#include "chaos/scenario.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "datagen/flights_seed.h"
#include "engines/registry.h"
#include "ingest/ingest.h"
#include "storage/csv.h"
#include "workflow/generator.h"

namespace idebench::chaos {

namespace {

/// The shared chaos dataset: the fuzz fixture's small denormalized
/// flights catalog (below exec::kMorselRows, so fault-free runs stay on
/// the single-morsel direct path and bit-identity is meaningful).
std::shared_ptr<const storage::Catalog> BaseCatalog() {
  static const std::shared_ptr<const storage::Catalog> catalog = [] {
    datagen::FlightsSeedConfig config;
    config.rows = 4000;
    config.seed = 11;
    auto table = datagen::GenerateFlightsSeed(config);
    IDB_CHECK(table.ok());
    auto c = std::make_shared<storage::Catalog>();
    IDB_CHECK(c->AddTable(std::make_shared<storage::Table>(
                              std::move(table).MoveValueUnsafe()))
                  .ok());
    return std::static_pointer_cast<const storage::Catalog>(c);
  }();
  return catalog;
}

/// Round-trips the base fact table through CSV with retry-on-transient,
/// exercising the kCsvOpen/kCsvAlloc sites the way a resilient loader
/// would.  The file lands in the working directory and is removed; its
/// name carries the process id, so concurrent runs of the same scenario
/// never share one file.
Result<std::shared_ptr<const storage::Catalog>> CsvRoundTripCatalog(
    const ScenarioSpec& spec, const std::string& engine_name, uint64_t seed,
    std::vector<std::string>* log) {
  const storage::Table* fact = BaseCatalog()->fact_table();
  const std::string path = "chaos_roundtrip_" + spec.name + "_" + engine_name +
                           "_" + std::to_string(seed) + "_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".csv";
  constexpr int kMaxAttempts = 16;
  Status last = Status::OK();
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    last = storage::WriteCsv(*fact, path);
    if (last.ok()) {
      auto read = storage::ReadCsv(path, fact->name(), fact->schema());
      if (read.ok()) {
        std::remove(path.c_str());
        log->push_back("csv round-trip ok after " + std::to_string(attempt) +
                       " attempt(s)");
        auto c = std::make_shared<storage::Catalog>();
        IDB_RETURN_NOT_OK(c->AddTable(std::make_shared<storage::Table>(
            std::move(read).MoveValueUnsafe())));
        return std::static_pointer_cast<const storage::Catalog>(c);
      }
      last = read.status();
    }
    if (!session::SessionManager::IsTransientEngineError(last.code())) break;
  }
  std::remove(path.c_str());
  return last;
}

/// One adversarial session actor.  Every decision it takes is drawn from
/// its own rng stream in a fixed order, so the schedule is a pure
/// function of (scenario seed, actor index, tick) — identical in the
/// injected and reference runs.
struct Actor {
  session::ExplorationSession* session = nullptr;
  workflow::Workflow workflow;
  Rng rng{0};
  size_t next_interaction = 0;
  bool closed = false;
};

/// Serving-layer stand-in for a slow client: when the kNetWrite site
/// fires, a partial update is dropped (the real server coalesces it into
/// the connection's next write instead of buffering without bound).
/// Terminal updates always pass through — whatever the write-side
/// weather, every admitted query delivers exactly one terminal update.
class SlowClientSink : public session::ResultSink {
 public:
  explicit SlowClientSink(session::ResultSink* inner) : inner_(inner) {}

  void OnUpdate(const session::ProgressiveUpdate& update) override {
    if (!update.final_update &&
        FaultInjector::Fire(FaultSite::kNetWrite)) {
      ++dropped_;
      return;
    }
    inner_->OnUpdate(update);
  }

  int64_t dropped() const { return dropped_; }

 private:
  session::ResultSink* inner_;
  int64_t dropped_ = 0;
};

}  // namespace

const std::vector<ScenarioSpec>& ScenarioCatalog() {
  static const std::vector<ScenarioSpec>* catalog = [] {
    auto* out = new std::vector<ScenarioSpec>();
    const auto scheduler = [](Micros tr, Micros quantum, double penalty) {
      session::SessionManagerOptions o;
      o.time_requirement = tr;
      o.quantum = quantum;
      o.contention_penalty = penalty;
      return o;
    };

    {
      ScenarioSpec s;
      s.name = "baseline";
      s.description = "fault-free multi-session mix (sanity floor)";
      s.sessions = 2;
      s.ticks = 25;
      s.scheduler = scheduler(400'000, 50'000, 0.25);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "cancel_storm";
      s.description = "clients hammer Cancel on random global query ids";
      s.sessions = 3;
      s.ticks = 30;
      s.submit_prob = 0.9;
      s.cancel_prob = 0.6;
      s.scheduler = scheduler(400'000, 50'000, 0.25);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "session_kill";
      s.description = "sessions die mid-exploration with live queries";
      s.sessions = 4;
      s.ticks = 25;
      s.kill_prob = 0.12;
      s.scheduler = scheduler(400'000, 50'000, 0.25);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "submit_flood";
      s.description = "every actor floods multiple interactions per tick";
      s.sessions = 3;
      s.ticks = 20;
      s.submit_prob = 1.0;
      s.flood_batch = 3;
      s.scheduler = scheduler(300'000, 50'000, 0.5);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "deadline_epsilon";
      s.description = "time requirement so small nearly everything "
                      "deadline-cancels at exactly its entitlement";
      s.sessions = 3;
      s.ticks = 30;
      s.tick = 10'000;
      s.scheduler = scheduler(2'000, 0, 0.25);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "link_churn";
      s.description = "short workflows cycle fast: constant viz "
                      "create/link/discard churn on the dashboards";
      s.sessions = 3;
      s.ticks = 30;
      s.submit_prob = 1.0;
      s.min_interactions = 6;
      s.max_interactions = 10;
      s.scheduler = scheduler(300'000, 50'000, 0.25);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "engine_faults";
      s.description = "injected prepare + run faults; scheduler retries "
                      "with virtual-time backoff";
      s.sessions = 2;
      s.ticks = 25;
      s.scheduler = scheduler(400'000, 50'000, 0.25);
      s.faults = {{FaultSite::kEnginePrepare, {0.3, -1}},
                  {FaultSite::kEngineRun, {0.02, -1}}};
      // A wedged query legitimately consumes less than it was offered.
      s.expect_full_entitlement = false;
      // Retries re-enter Submit, where the reuse cache and the
      // progressive engine's semantic cache can hand them a sibling's
      // more-advanced state (see ScenarioSpec::completion_monotone).
      s.completion_monotone = false;
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "reuse_churn";
      s.description = "reuse-cache poisoning + eviction storms + morsel "
                      "slowdowns + pool stalls (result-transparency under "
                      "physical-path chaos)";
      s.sessions = 3;
      s.ticks = 25;
      s.faults = {{FaultSite::kReusePoison, {0.3, -1}},
                  {FaultSite::kReuseEvictStorm, {0.2, -1}},
                  {FaultSite::kMorselSlowdown, {0.1, -1}},
                  {FaultSite::kWorkerPoolStall, {0.2, -1}}};
      s.threads = 4;
      // Morsel slowdowns regroup floating-point merges (last-ulp).
      s.reference_rel_eps = 1e-9;
      s.scheduler = scheduler(400'000, 50'000, 0.25);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "io_faults";
      s.description = "CSV ingest + engine prepare fail transiently; "
                      "setup retries until the budgets run dry";
      s.sessions = 2;
      s.ticks = 20;
      s.csv_round_trip = true;
      s.faults = {{FaultSite::kCsvOpen, {0.4, 6}},
                  {FaultSite::kCsvAlloc, {0.001, 3}},
                  {FaultSite::kEnginePrepare, {0.5, 4}}};
      s.scheduler = scheduler(400'000, 50'000, 0.25);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "thrash";
      s.description = "everything at once, lightly: kills, cancels, "
                      "floods, engine faults and physical-path chaos";
      s.sessions = 4;
      s.ticks = 30;
      s.submit_prob = 0.9;
      s.flood_batch = 2;
      s.cancel_prob = 0.2;
      s.kill_prob = 0.05;
      s.threads = 4;
      s.faults = {{FaultSite::kEngineRun, {0.01, -1}},
                  {FaultSite::kReusePoison, {0.1, -1}},
                  {FaultSite::kReuseEvictStorm, {0.05, -1}},
                  {FaultSite::kWorkerPoolStall, {0.1, -1}},
                  {FaultSite::kMorselSlowdown, {0.05, -1}}};
      s.expect_full_entitlement = false;
      s.reference_rel_eps = 1e-9;
      // kEngineRun + reuse cache: retries may beat the reference.
      s.completion_monotone = false;
      s.scheduler = scheduler(400'000, 50'000, 0.25);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "ingest_storm";
      s.description = "append batches and epoch publishes race a cancel "
                      "storm; injected append/publish faults drop batches "
                      "and delay visibility";
      s.sessions = 3;
      s.ticks = 30;
      s.submit_prob = 0.9;
      s.cancel_prob = 0.5;
      s.ingest_rows_per_tick = 40;
      s.faults = {{FaultSite::kIngestAppend, {0.2, -1}},
                  {FaultSite::kIngestPublish, {0.2, -1}}};
      // Faulted appends/publishes change which rows become visible, so
      // the uninjected run answers from different data by construction.
      s.compare_reference = false;
      s.scheduler = scheduler(400'000, 50'000, 0.25);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "slow_client";
      s.description = "clients stop reading: partial pushes coalesce/drop "
                      "at the write queue, terminals always arrive";
      s.sessions = 3;
      s.ticks = 25;
      s.faults = {{FaultSite::kNetWrite, {0.5, -1}}};
      s.net_slow_client = true;
      // Drops are drawn at the injector, so the uninjected run pushes a
      // different partial stream; finals are what the invariants pin.
      s.compare_reference = false;
      s.scheduler = scheduler(400'000, 50'000, 0.25);
      out->push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "disconnect_mid_query";
      s.description = "connections tear mid-query: sessions close with "
                      "live queries, which must drain with exactly one "
                      "terminal update each";
      s.sessions = 4;
      s.ticks = 25;
      s.submit_prob = 0.9;
      s.faults = {{FaultSite::kNetRead, {0.06, -1}},
                  {FaultSite::kNetWrite, {0.2, -1}}};
      s.net_disconnect = true;
      s.net_slow_client = true;
      // Disconnects reshape the actor schedule itself.
      s.compare_reference = false;
      s.scheduler = scheduler(400'000, 50'000, 0.25);
      out->push_back(std::move(s));
    }
    return out;
  }();
  return *catalog;
}

const ScenarioSpec* FindScenario(const std::string& name) {
  for (const ScenarioSpec& spec : ScenarioCatalog()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Result<int> PrepareWithRetry(engines::Engine* engine,
                             std::shared_ptr<const storage::Catalog> catalog,
                             int max_attempts) {
  Status last = Status::OK();
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    auto prepared = engine->Prepare(catalog);
    if (prepared.ok()) return attempt;
    last = prepared.status();
    if (!session::SessionManager::IsTransientEngineError(last.code())) {
      return last;
    }
  }
  return last;
}

ChaosReport RunScenario(const ScenarioSpec& spec,
                        const std::string& engine_name, uint64_t seed,
                        bool inject) {
  ChaosReport report;
  report.scenario = spec.name;
  report.engine = engine_name;
  report.seed = seed;
  report.injected = inject && spec.has_faults();

  // The injector lives for the whole run (declared before the manager so
  // it outlives teardown) but is only installed when injecting.
  FaultInjector injector(seed);
  for (const auto& [site, config] : spec.faults) injector.Arm(site, config);
  ScopedFaultInjector scope(report.injected ? &injector : nullptr);

  auto engine = engines::CreateEngine(engine_name, /*seed=*/0, spec.threads,
                                      spec.reuse_cache);
  if (!engine.ok()) {
    report.run_error = engine.status();
    return report;
  }

  std::shared_ptr<const storage::Catalog> catalog;
  std::unique_ptr<ingest::Ingestor> ingestor;   // outlives the manager
  std::shared_ptr<storage::Table> ingest_tail;  // pre-generated tail rows
  int64_t ingest_cursor = 0;
  if (spec.ingest_rows_per_tick > 0) {
    // Fresh per-run catalog — never the process-shared BaseCatalog,
    // which ingest would mutate under every other scenario.  Base and
    // tail are generated together up front, so a control run can load
    // the identical rows pre-staged instead of ingesting them.
    const int64_t base_rows = 4000;
    const int64_t tail_rows =
        static_cast<int64_t>(spec.ticks) * spec.ingest_rows_per_tick;
    datagen::FlightsSeedConfig config;
    config.rows = base_rows + tail_rows;
    config.seed = 11;
    auto full = datagen::GenerateFlightsSeed(config);
    if (!full.ok()) {
      report.run_error = full.status();
      return report;
    }
    ingest_tail =
        std::make_shared<storage::Table>(std::move(full).MoveValueUnsafe());
    auto fact = std::make_shared<storage::Table>(ingest_tail->name(),
                                                 ingest_tail->schema());
    for (int64_t r = 0; r < base_rows; ++r) {
      const Status st = fact->AppendRowFrom(*ingest_tail, r);
      if (!st.ok()) {
        report.run_error = st;
        return report;
      }
    }
    auto mutable_catalog = std::make_shared<storage::Catalog>();
    const Status added = mutable_catalog->AddTable(fact);
    if (!added.ok()) {
      report.run_error = added;
      return report;
    }
    auto created =
        ingest::Ingestor::Create(mutable_catalog, base_rows + tail_rows);
    if (!created.ok()) {
      report.run_error = created.status();
      return report;
    }
    ingestor = std::move(created).MoveValueUnsafe();
    ingest_cursor = base_rows;
    catalog = std::static_pointer_cast<const storage::Catalog>(mutable_catalog);
  } else if (spec.csv_round_trip) {
    auto round_trip =
        CsvRoundTripCatalog(spec, engine_name, seed, &report.event_log);
    if (!round_trip.ok()) {
      report.run_error = round_trip.status();
      return report;
    }
    catalog = std::move(round_trip).MoveValueUnsafe();
  } else {
    catalog = BaseCatalog();
  }

  auto attempts = PrepareWithRetry(engine->get(), catalog);
  if (!attempts.ok()) {
    report.run_error = attempts.status();
    return report;
  }
  report.prepare_attempts = *attempts;
  report.event_log.push_back("prepare attempts=" + std::to_string(*attempts));

  InvariantChecker::Options check_options;
  check_options.time_requirement = spec.scheduler.time_requirement;
  // Fault-free runs always honor the fairness lower bound; injected runs
  // honor it unless a compute-stealing site is armed.
  check_options.expect_full_entitlement =
      report.injected ? spec.expect_full_entitlement : true;
  InvariantChecker checker(check_options);
  checker.set_event_log(&report.event_log);

  // Slow-client mode interposes a dropping sink per session (declared
  // before the manager so it outlives teardown pushes).
  SlowClientSink slow_sink(&checker);
  session::ResultSink* sink =
      spec.net_slow_client ? static_cast<session::ResultSink*>(&slow_sink)
                           : &checker;

  session::SessionManager manager(spec.scheduler, engine->get(), catalog);

  // Spin up the actor fleet: per-actor decision streams forked from the
  // scenario seed, per-actor workflows from independently seeded
  // generators (all pure in the seed — the reference run regenerates the
  // exact same fleet).
  std::vector<Actor> actors(static_cast<size_t>(spec.sessions));
  Rng master(seed);
  for (int i = 0; i < spec.sessions; ++i) {
    Actor& actor = actors[static_cast<size_t>(i)];
    auto created = manager.CreateSession(sink);
    if (!created.ok()) {
      report.run_error = created.status();
      return report;
    }
    actor.session = *created;
    actor.rng = master.Fork(static_cast<uint64_t>(i) + 100);

    workflow::GeneratorConfig config;
    config.min_interactions = spec.min_interactions;
    config.max_interactions = spec.max_interactions;
    workflow::WorkflowGenerator generator(
        catalog->fact_table(), config,
        seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(i) + 1)));
    auto wf = generator.Generate(workflow::WorkflowType::kMixed,
                                 spec.name + "_a" + std::to_string(i));
    if (!wf.ok()) {
      report.run_error = wf.status();
      return report;
    }
    actor.workflow = std::move(wf).MoveValueUnsafe();
  }

  const auto log_line = [&](const std::string& line) {
    report.event_log.push_back(line);
  };

  // Highest query id handed out so far (ids are manager-global and
  // sequential, so this doubles as the cancel-target range).  Derived
  // from the seed-pure submission schedule only — never from outcomes.
  int64_t queries_issued = 0;

  for (int tick = 0; tick < spec.ticks; ++tick) {
    const Micros now = manager.VirtualNow();
    for (size_t a = 0; a < actors.size(); ++a) {
      Actor& actor = actors[a];
      if (actor.closed) continue;
      const std::string tag =
          "t=" + std::to_string(now) + " a" + std::to_string(a);

      // A torn connection closes the session right here, live queries
      // and all — the drain invariants still demand one terminal each.
      if (spec.net_disconnect &&
          FaultInjector::Fire(FaultSite::kNetRead)) {
        const Status closed = manager.CloseSession(actor.session);
        if (!closed.ok()) {
          report.run_error = closed;
          return report;
        }
        actor.closed = true;
        log_line(tag + " disconnect s" + std::to_string(actor.session->id()));
        continue;
      }

      if (spec.kill_prob > 0.0 && actor.rng.Bernoulli(spec.kill_prob)) {
        const Status closed = manager.CloseSession(actor.session);
        if (!closed.ok()) {
          report.run_error = closed;
          return report;
        }
        actor.closed = true;
        log_line(tag + " kill s" + std::to_string(actor.session->id()));
        continue;
      }

      if (spec.cancel_prob > 0.0 && queries_issued > 0 &&
          actor.rng.Bernoulli(spec.cancel_prob)) {
        const int64_t target = actor.rng.UniformInt(0, queries_issued - 1);
        const Status cancelled = actor.session->Cancel(target);
        if (!cancelled.ok()) {
          report.run_error = cancelled;
          return report;
        }
        log_line(tag + " cancel q" + std::to_string(target));
      }

      if (actor.rng.Bernoulli(spec.submit_prob)) {
        for (int f = 0; f < spec.flood_batch; ++f) {
          if (actor.next_interaction >= actor.workflow.interactions.size()) {
            actor.session->ResetDashboard();
            actor.next_interaction = 0;
          }
          const workflow::Interaction& interaction =
              actor.workflow.interactions[actor.next_interaction];
          ++actor.next_interaction;
          auto batch = actor.session->SubmitInteraction(interaction);
          if (!batch.ok()) {
            report.run_error = batch.status();
            return report;
          }
          checker.NoteSubmitted(*batch, manager.VirtualNow());
          for (const session::SubmittedQuery& sq : *batch) {
            queries_issued = std::max(queries_issued, sq.query_id + 1);
          }
          log_line(tag + " submit n=" + std::to_string(batch->size()));
        }
      }
    }

    // Ingest schedule: one append-and-publish mid-tick, racing whatever
    // the actors just submitted, applied between scheduler calls as the
    // server applies `append` frames.  The cursor advances by the
    // *scheduled* batch regardless of fault outcomes (a faulted append
    // loses those rows for good, a faulted publish leaves them staged for
    // the next), keeping the schedule seed-pure.
    if (ingestor != nullptr && ingest_cursor < ingest_tail->num_rows()) {
      const int64_t end = std::min<int64_t>(
          ingest_cursor + spec.ingest_rows_per_tick, ingest_tail->num_rows());
      log_line("t=" + std::to_string(now) +
               " ingest rows=" + std::to_string(end - ingest_cursor));
      const Status mid_tick = manager.AdvanceTo(now + spec.tick / 2);
      if (!mid_tick.ok()) {
        report.run_error = mid_tick;
        return report;
      }
      (void)ingestor->Append(
          ingest::BatchFromTable(*ingest_tail, ingest_cursor, end));
      (void)ingestor->Publish();
      ingest_cursor = end;
    }

    const Status advanced =
        manager.AdvanceTo(static_cast<Micros>(tick + 1) * spec.tick);
    if (!advanced.ok()) {
      report.run_error = advanced;
      return report;
    }
  }

  const Status drained = manager.RunUntilIdle();
  if (!drained.ok()) {
    report.run_error = drained;
    return report;
  }
  for (Actor& actor : actors) {
    // Idempotent for actors the kill draw already closed.
    const Status closed = manager.CloseSession(actor.session);
    if (!closed.ok()) {
      report.run_error = closed;
      return report;
    }
    actor.closed = true;
  }

  checker.CheckDrained(manager);

  report.stats = manager.stats();
  report.violations = checker.violations();
  report.finals = checker.finals();
  if (report.injected) {
    report.fault_summary = injector.Summary();
    report.total_fires = injector.total_fires();
    if (spec.net_slow_client) {
      report.event_log.push_back(
          "slow-client dropped partials=" + std::to_string(slow_sink.dropped()));
    }
  }
  {
    const session::SchedulerStats& s = report.stats;
    std::ostringstream line;
    line << "drained t=" << s.virtual_now << " submitted="
         << s.queries_submitted << " completed=" << s.completed
         << " deadline=" << s.deadline_cancelled
         << " client=" << s.client_cancelled
         << " unsupported=" << s.unsupported << " failed=" << s.failed
         << " transient_faults=" << s.transient_faults
         << " retries=" << s.retries << " fires=" << report.total_fires;
    report.event_log.push_back(line.str());
  }
  if (ingestor != nullptr) {
    // Every append failure here is an injected fault: the tail rows parse
    // and fit the reserved capacity by construction.
    const ingest::IngestStats& is = ingestor->stats();
    std::ostringstream line;
    line << "ingest applied=" << is.batches << " rows=" << is.rows_staged
         << " publishes=" << is.epochs_published
         << " append_failures=" << is.append_faults
         << " publish_failures=" << is.publish_faults
         << " visible=" << ingestor->visible_rows()
         << " staged=" << ingestor->staged_rows();
    report.event_log.push_back(line.str());
  }
  return report;
}

ChaosReport RunScenarioWithReference(const ScenarioSpec& spec,
                                     const std::string& engine_name,
                                     uint64_t seed) {
  ChaosReport report = RunScenario(spec, engine_name, seed, /*inject=*/true);
  if (!spec.has_faults() || !spec.compare_reference || !report.run_error.ok()) {
    return report;
  }

  const ChaosReport reference =
      RunScenario(spec, engine_name, seed, /*inject=*/false);
  if (!reference.run_error.ok()) {
    report.violations.push_back(
        {"reference-identity",
         "reference run failed: " + reference.run_error.ToString()});
    return report;
  }
  for (const InvariantViolation& v : reference.violations) {
    report.violations.push_back({v.invariant, "[reference] " + v.detail});
  }

  // Faults only ever delay queries, so everything that completed under
  // injection must be completed — with a matching answer — without it.
  for (const auto& [id, final] : report.finals) {
    if (!final.completed) continue;
    const std::string qid = std::to_string(id);
    auto rit = reference.finals.find(id);
    if (rit == reference.finals.end()) {
      report.violations.push_back(
          {"reference-identity",
           "query " + qid +
               " completed under faults but is unknown to the reference run"});
      continue;
    }
    if (!rit->second.completed) {
      if (spec.completion_monotone) {
        report.violations.push_back(
            {"reference-identity",
             "query " + qid + " completed under faults but the reference run "
                              "did not complete it"});
      }
      continue;
    }
    std::string why;
    if (!ResultsMatch(final.result, rit->second.result,
                      spec.reference_rel_eps, &why)) {
      report.violations.push_back(
          {"reference-identity",
           "query " + qid + " result diverged from reference: " + why});
    }
  }
  return report;
}

}  // namespace idebench::chaos
