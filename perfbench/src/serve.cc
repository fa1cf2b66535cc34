/// \file serve.cc
/// serve_ingest: the progressive engine behind net::Server on loopback.
/// Two query connections each carry eight sessions of mixed workflows and
/// one append connection feeds fixed-size, published batches through a
/// durable Ingestor; every connection has one client thread.  The server
/// runs on the virtual clock with a step of one time requirement, so a
/// latency is the program's work, never pacing.  Sessions do not think: a
/// session sends its next interaction when the last one ends, so the server
/// thread is saturated, a latency is the server pass that serves the
/// interaction (often after the rest of the pass in progress), and
/// queries_per_s is the stack's capacity.

#include <malloc.h>
#include <pthread.h>
#include <time.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "engines/progressive_engine.h"
#include "ingest/ingest.h"
#include "net/client.h"
#include "net/server.h"
#include "session/session.h"
#include "storage/segment.h"
#include "workloads.h"

namespace perfbench {

namespace {

using idebench::JsonValue;
using idebench::Micros;
using idebench::Result;
using idebench::Status;
using idebench::net::Client;

constexpr int kQueryConnections = 2;
constexpr int kSessionsPerConnection = 8;
constexpr int kSessions = kQueryConnections * kSessionsPerConnection;
/// One append of kAppendRows rows per kInteractionsPerAppend completed
/// interactions, so every run does ingest work in the same proportion.
constexpr int64_t kInteractionsPerAppend = 16;
constexpr int64_t kAppendRows = 64;
/// Rows reserved for appends beyond the base table: over 100 times what a
/// run appends.  Reserved pages that are never written stay out of the
/// resident set.
constexpr int64_t kAppendCapacity = 1'000'000;
/// A client that hears nothing for this long counts the run as broken.
constexpr Micros kSilenceLimit = 30'000'000;
/// How long a client thread waits for a frame before it looks at the
/// phase's stop flag again.
constexpr Micros kPollMicros = 100'000;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ThreadCpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// What the client threads of one phase observed.  Guarded by `mu`.
struct Observations {
  std::mutex mu;
  int64_t start_ns = 0;  // when the phase began
  std::vector<Sample> samples;
  std::vector<double> append_ms;
  int64_t interactions = 0;
  int64_t queries = 0;  // terminal updates
  int64_t tr_met = 0;
  double progress_sum = 0;  // sum of final progress (rows walked / rows)
  int64_t acked_rows = 0;
  FailureLedger ledger;
  std::vector<std::string> problems;

  void Problem(std::string what) {
    std::lock_guard<std::mutex> lock(mu);
    ledger.Refused();
    if (problems.size() < 20) problems.push_back(std::move(what));
  }
};

/// Phase control shared by the main thread and the client threads.
struct PhaseControl {
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::condition_variable cv;
  int64_t completed_interactions = 0;  // guarded by mu
};

/// One session on a query connection, cycling through its workflows.
struct SessionState {
  enum class Mode { kIdle, kWaiting, kClosing, kOpening };
  int64_t id = -1;
  int global_index = 0;
  int64_t workflow_round = 0;  // which of its workflows it is on
  size_t next = 0;             // next interaction of the current workflow
  Mode mode = Mode::kIdle;
  int64_t sent_ns = 0;
  int64_t request = -1;
  int64_t outstanding = 0;  // admitted queries without a terminal update
  int64_t admitted = 0;
  bool submitted = false;   // the `submitted` reply arrived
};

/// Terminal-update bookkeeping of one query.
struct QueryState {
  int session = -1;  // local session index; -1 until `submitted` names it
  int64_t finals = 0;
  bool failed = false;
  bool available = false;
  double progress = 0;
};

/// One query connection and its eight sessions.  Driven by one thread per
/// phase; the sessions and queries persist across phases.
class QueryConnection {
 public:
  QueryConnection(std::unique_ptr<Client> client, int connection,
                  const WorkflowSet* set)
      : client_(std::move(client)), connection_(connection), set_(set) {}

  Status OpenSessions() {
    for (int i = 0; i < kSessionsPerConnection; ++i) {
      IDB_ASSIGN_OR_RETURN(int64_t id, client_->OpenSession());
      SessionState s;
      s.id = id;
      s.global_index = connection_ * kSessionsPerConnection + i;
      sessions_.push_back(std::move(s));
    }
    return Status::OK();
  }

  /// Closed loop until `control->stop`, then drains what is in flight.
  /// A session sends its next interaction as soon as the last one ended.
  void Run(PhaseControl* control, Observations* obs) {
    int64_t last_heard = NowNs();
    while (true) {
      const bool stopping = control->stop.load();
      bool all_idle = true;
      for (size_t i = 0; i < sessions_.size(); ++i) {
        SessionState& s = sessions_[i];
        if (s.mode == SessionState::Mode::kIdle && !stopping &&
            !Advance(static_cast<int>(i), obs)) {
          return;
        }
        all_idle = all_idle && s.mode == SessionState::Mode::kIdle;
      }
      if (stopping && all_idle) return;
      JsonValue msg;
      Result<bool> got = client_->Next(&msg, kPollMicros);
      if (!got.ok()) {
        obs->Problem("query connection: " + got.status().ToString());
        return;
      }
      if (!*got) {
        if (NowNs() - last_heard > kSilenceLimit * 1000) {
          obs->Problem("query connection silent for 30 s");
          return;
        }
        continue;
      }
      last_heard = NowNs();
      Dispatch(msg, control, obs);
    }
  }

  /// Terminal-update counts of every query this connection saw admitted.
  void Audit(Observations* obs) const {
    for (const auto& [id, q] : queries_) {
      obs->ledger.Query(q.finals, q.failed);
      if ((q.finals != 1 || q.failed) && obs->problems.size() < 20) {
        obs->problems.push_back("query " + std::to_string(id) + ": " +
                                std::to_string(q.finals) +
                                " terminal updates, failed=" +
                                std::to_string(q.failed));
      }
    }
  }


 private:
  const idebench::workflow::Workflow& WorkflowOf(const SessionState& s) const {
    const size_t n = set_->workflows.size();
    const size_t index =
        (static_cast<size_t>(s.global_index) +
         static_cast<size_t>(s.workflow_round) * kSessions) % n;
    return set_->workflows[index];
  }

  /// Sends the idle session's next interaction, or recycles the session
  /// when its workflow is done.  False when the connection broke.
  bool Advance(int local, Observations* obs) {
    SessionState& s = sessions_[static_cast<size_t>(local)];
    JsonValue msg = JsonValue::Object();
    if (s.next >= WorkflowOf(s).interactions.size()) {
      // A fresh dashboard for the next workflow: close, then reopen.
      msg.Set("type", "close_session");
      msg.Set("session", s.id);
      s.mode = SessionState::Mode::kClosing;
    } else {
      s.request = next_request_++;
      msg.Set("type", "interaction");
      msg.Set("session", s.id);
      msg.Set("request", s.request);
      msg.Set("interaction", WorkflowOf(s).interactions[s.next].ToJson());
      ++s.next;
      s.mode = SessionState::Mode::kWaiting;
      s.outstanding = 0;
      s.admitted = 0;
      s.submitted = false;
      s.sent_ns = NowNs();
      by_request_[s.request] = local;
    }
    const Status sent = client_->Send(msg);
    if (!sent.ok()) {
      obs->Problem("send: " + sent.ToString());
      return false;
    }
    return true;
  }

  void Finish(int local, PhaseControl* control, Observations* obs) {
    SessionState& s = sessions_[static_cast<size_t>(local)];
    const int64_t now = NowNs();
    {
      std::lock_guard<std::mutex> lock(obs->mu);
      ++obs->interactions;
      if (s.admitted > 0) {
        obs->samples.push_back({static_cast<double>(now - s.sent_ns) * 1e-6,
                                Seconds(now - obs->start_ns), s.admitted});
      }
    }
    if (Tracer::enabled() && s.admitted > 0) {
      Tracer::Record({s.sent_ns, now, s.request, SpanKind::kClientInteraction, 0});
    }
    s.mode = SessionState::Mode::kIdle;
    {
      std::lock_guard<std::mutex> lock(control->mu);
      ++control->completed_interactions;
    }
    control->cv.notify_all();
  }

  void Dispatch(const JsonValue& msg, PhaseControl* control, Observations* obs) {
    const std::string type = msg.GetString("type", "");
    if (type == "update") {
      if (!msg.GetBool("final", false)) return;
      const int64_t id = msg.GetInt("query", -1);
      QueryState& q = queries_[id];
      ++q.finals;
      q.failed = q.failed || msg.GetBool("failed", false);
      q.available = msg.Get("result").GetBool("available", false);
      q.progress = msg.GetDouble("progress", 0.0);
      if (q.finals == 1) {
        std::lock_guard<std::mutex> lock(obs->mu);
        ++obs->queries;
        obs->tr_met += q.available;
        obs->progress_sum += q.progress;
      }
      if (q.session >= 0 && q.finals == 1) {
        SessionState& s = sessions_[static_cast<size_t>(q.session)];
        if (--s.outstanding == 0 && s.submitted) Finish(q.session, control, obs);
      }
    } else if (type == "submitted") {
      const auto it = by_request_.find(msg.GetInt("request", -1));
      if (it == by_request_.end()) {
        obs->Problem("submitted reply for an unknown request");
        return;
      }
      const int local = it->second;
      by_request_.erase(it);
      SessionState& s = sessions_[static_cast<size_t>(local)];
      const JsonValue& list = msg.Get("queries");
      for (size_t i = 0; i < list.size(); ++i) {
        const int64_t id = list.at(i).GetInt("query", -1);
        QueryState& q = queries_[id];  // may already hold an early final
        q.session = local;
        ++s.admitted;
        if (q.finals == 0) ++s.outstanding;
      }
      s.submitted = true;
      if (s.outstanding == 0) Finish(local, control, obs);
    } else if (type == "rejected") {
      obs->Problem("rejected: " + msg.GetString("reason", "?"));
      const auto it = by_request_.find(msg.GetInt("request", -1));
      if (it != by_request_.end()) {
        sessions_[static_cast<size_t>(it->second)].mode =
            SessionState::Mode::kIdle;
        by_request_.erase(it);
      }
    } else if (type == "session_closed") {
      const int64_t id = msg.GetInt("session", -1);
      for (size_t i = 0; i < sessions_.size(); ++i) {
        SessionState& s = sessions_[i];
        if (s.id != id || s.mode != SessionState::Mode::kClosing) continue;
        JsonValue open = JsonValue::Object();
        open.Set("type", "open_session");
        s.mode = SessionState::Mode::kOpening;
        opening_.push_back(static_cast<int>(i));
        const Status sent = client_->Send(open);
        if (!sent.ok()) obs->Problem("send: " + sent.ToString());
      }
    } else if (type == "session_opened") {
      // Opens are answered in order on one connection.
      if (opening_.empty()) {
        obs->Problem("session_opened without a pending open");
        return;
      }
      SessionState& s = sessions_[static_cast<size_t>(opening_.front())];
      opening_.pop_front();
      s.id = msg.GetInt("session", -1);
      ++s.workflow_round;
      s.next = 0;
      s.mode = SessionState::Mode::kIdle;
    } else {
      obs->Problem("unexpected " + type + ": " + msg.Dump());
    }
  }

  std::unique_ptr<Client> client_;
  int connection_;
  const WorkflowSet* set_;
  std::vector<SessionState> sessions_;
  std::unordered_map<int64_t, QueryState> queries_;
  std::unordered_map<int64_t, int> by_request_;
  std::deque<int> opening_;
  int64_t next_request_ = 1;
};

/// The append connection: one published batch per kInteractionsPerAppend
/// completed interactions, one append in flight.
class AppendConnection {
 public:
  AppendConnection(std::unique_ptr<Client> client,
                   const std::vector<JsonValue>* batches, int64_t base_rows)
      : client_(std::move(client)), batches_(batches), watermark_(base_rows) {}

  void Run(PhaseControl* control, Observations* obs) {
    int64_t phase_appends = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(control->mu);
        control->cv.wait(lock, [&] {
          return control->completed_interactions / kInteractionsPerAppend >
                     phase_appends ||
                 control->stop.load();
        });
        if (control->completed_interactions / kInteractionsPerAppend <=
            phase_appends) {
          return;  // stopped, and every append owed has gone out
        }
      }
      if (!AppendOnce(obs)) return;
      ++phase_appends;
    }
  }

  int64_t watermark() const { return watermark_; }

 private:
  bool AppendOnce(Observations* obs) {
    JsonValue msg = JsonValue::Object();
    msg.Set("type", "append");
    msg.Set("request", next_request_);
    msg.Set("rows", (*batches_)[static_cast<size_t>(next_request_) %
                                batches_->size()]);
    msg.Set("publish", true);
    ++next_request_;
    const int64_t start = NowNs();
    if (const Status sent = client_->Send(msg); !sent.ok()) {
      obs->Problem("append send: " + sent.ToString());
      return false;
    }
    JsonValue reply;
    while (true) {
      Result<bool> got = client_->Next(&reply, kSilenceLimit);
      if (!got.ok() || !*got) {
        obs->Problem("append: no reply");
        return false;
      }
      const std::string type = reply.GetString("type", "");
      if (type == "appended") break;
      obs->Problem("append answered with " + reply.Dump());
      if (type == "rejected") return true;
    }
    const int64_t end = NowNs();
    const bool durable = reply.GetBool("durable", false) &&
                         reply.GetBool("published", false);
    watermark_ += kAppendRows;
    const bool in_order = reply.GetInt("watermark", -1) == watermark_;
    if (Tracer::enabled()) {
      Tracer::Record({start, end, next_request_ - 1, SpanKind::kClientAppend, 0});
    }
    std::lock_guard<std::mutex> lock(obs->mu);
    obs->ledger.Append(durable && in_order);
    if (!durable || !in_order) {
      obs->problems.push_back("append not durable or watermark out of order: " +
                              reply.Dump());
    }
    obs->append_ms.push_back(static_cast<double>(end - start) * 1e-6);
    obs->acked_rows += kAppendRows;
    return true;
  }

  std::unique_ptr<Client> client_;
  const std::vector<JsonValue>* batches_;
  int64_t watermark_;
  int64_t next_request_ = 1;
};

/// One set-up of the whole serving stack.  Members are declared in the
/// order they must be built; `Stop` tears down in reverse.
class ServeStack {
 public:
  ServeStack() = default;
  ~ServeStack() { static_cast<void>(Stop()); }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  Status Start(const RunOptions& options, const WorkflowSet& set,
               const idebench::workflow::Interaction& warm,
               const std::vector<JsonValue>* batches, const std::string& wal_dir,
               SetupTimes* times) {
    const WorkloadSpec& w = *options.workload;
    wal_dir_ = wal_dir;
    const int64_t t0 = NowNs();
    IDB_ASSIGN_OR_RETURN(
        idebench::storage::Catalog loaded,
        idebench::storage::LoadCatalogSegments(BaseDir(options.data_dir)));
    catalog_ = std::make_shared<idebench::storage::Catalog>(std::move(loaded));
    base_rows_ = catalog_->fact_table()->num_rows();
    const int64_t t1 = NowNs();
    // The ingestor reserves its capacity before any kernel binds a column.
    RemoveTree(wal_dir);
    IDB_ASSIGN_OR_RETURN(ingestor_, idebench::ingest::Ingestor::CreateDurable(
                                        catalog_, base_rows_ + kAppendCapacity,
                                        wal_dir, idebench::ingest::WalOptions()));
    const int64_t t2 = NowNs();
    // Reuse off, both kinds: the reuse cache, and the engine's semantic
    // cache, which would continue an earlier identical query's sample
    // (README.md: with it on, this workload hits a defect of the engine).
    idebench::engines::ProgressiveEngineConfig config;
    config.seed += options.seed;
    config.execution_threads = w.threads;
    config.reuse_cache = w.reuse_cache;
    config.expected_sessions = kSessions;
    config.enable_reuse = options.semantic_cache;
    engine_ = std::make_unique<idebench::engines::ProgressiveEngine>(config);
    IDB_ASSIGN_OR_RETURN(Micros prepared, engine_->Prepare(catalog_));
    (void)prepared;
    traced_ = std::make_unique<TracingEngine>(engine_.get());
    const int64_t t3 = NowNs();
    {
      // First use builds the shuffled walk; see WarmupInteraction.
      idebench::session::SessionManagerOptions manager_options;
      manager_options.time_requirement = w.time_requirement;
      idebench::session::SessionManager manager(manager_options, traced_.get(),
                                                catalog_);
      IDB_ASSIGN_OR_RETURN(auto* session, manager.CreateSession(nullptr));
      IDB_ASSIGN_OR_RETURN(auto batch, session->SubmitInteraction(warm));
      (void)batch;
      IDB_RETURN_NOT_OK(manager.RunUntilIdle());
      IDB_RETURN_NOT_OK(manager.CloseSession(session));
    }
    const int64_t t4 = NowNs();

    idebench::net::ServerOptions server_options;
    server_options.wall_pacing = false;
    server_options.virtual_step = w.time_requirement;
    server_options.engine_label = w.engine;
    server_options.scheduler.time_requirement = w.time_requirement;
    server_options.scheduler.quantum = 50'000;
    server_options.scheduler.push_partials = true;
    // Admission never binds: limits above the peak live count (16
    // sessions x at most 8 vizs) and no tenant throttle.
    server_options.ratekeeper.soft_live_limit = 1024;
    server_options.ratekeeper.hard_live_limit = 2048;
    server_options.ratekeeper.tenant_rate = 0;
    IDB_ASSIGN_OR_RETURN(server_, idebench::net::Server::Create(
                                      server_options, traced_.get(), catalog_));
    server_->AttachIngestor(ingestor_.get());
    serve_thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
    pthread_getcpuclockid(serve_thread_.native_handle(), &server_clock_);
    for (int c = 0; c < kQueryConnections; ++c) {
      IDB_ASSIGN_OR_RETURN(auto client,
                           Client::Connect("127.0.0.1", server_->port(),
                                           "query" + std::to_string(c)));
      auto conn = std::make_unique<QueryConnection>(std::move(client), c, &set);
      IDB_RETURN_NOT_OK(conn->OpenSessions());
      queries_.push_back(std::move(conn));
    }
    IDB_ASSIGN_OR_RETURN(auto appender,
                         Client::Connect("127.0.0.1", server_->port(), "ingest"));
    appends_ = std::make_unique<AppendConnection>(std::move(appender), batches,
                                                  base_rows_);
    IDB_ASSIGN_OR_RETURN(probe_,
                         Client::Connect("127.0.0.1", server_->port(), "probe"));
    const int64_t t5 = NowNs();
    times->segment_load_s = Seconds(t1 - t0);
    times->serve_ready_s = Seconds(t2 - t1) + Seconds(t5 - t4);
    times->prepare_s = Seconds(t3 - t2);
    times->warmup_s = Seconds(t4 - t3);
    times->total_s = Seconds(t5 - t0);
    return Status::OK();
  }

  /// Closes the clients, stops the loop and releases everything; returns
  /// the server loop's status.
  Status Stop() {
    probe_.reset();
    appends_.reset();
    queries_.clear();
    if (serve_thread_.joinable()) {
      server_->RequestStop();
      serve_thread_.join();
    }
    server_.reset();
    ingestor_.reset();
    traced_.reset();
    engine_.reset();
    catalog_.reset();
    if (!wal_dir_.empty()) RemoveTree(wal_dir_);
    wal_dir_.clear();
    return serve_status_;
  }

  /// The server's `stats_report`, over the probe connection.
  Result<JsonValue> Stats() {
    JsonValue msg = JsonValue::Object();
    msg.Set("type", "stats");
    IDB_RETURN_NOT_OK(probe_->Send(msg));
    return probe_->WaitFor("stats_report", kSilenceLimit);
  }

  double ServerCpuSeconds() const { return ThreadCpuSeconds(server_clock_); }

  std::vector<std::unique_ptr<QueryConnection>>& query_connections() {
    return queries_;
  }
  AppendConnection* appends() { return appends_.get(); }
  const idebench::ingest::Ingestor& ingestor() const { return *ingestor_; }
  int64_t base_rows() const { return base_rows_; }

  /// Stops the server loop (clients stay connected) so the ingestor can
  /// be read from this thread.
  Status Quiesce() {
    if (serve_thread_.joinable()) {
      server_->RequestStop();
      serve_thread_.join();
    }
    return serve_status_;
  }

 private:
  std::string wal_dir_;
  std::shared_ptr<idebench::storage::Catalog> catalog_;
  int64_t base_rows_ = 0;
  std::unique_ptr<idebench::ingest::Ingestor> ingestor_;
  std::unique_ptr<idebench::engines::Engine> engine_;
  std::unique_ptr<TracingEngine> traced_;
  std::unique_ptr<idebench::net::Server> server_;
  Status serve_status_ = Status::OK();
  std::thread serve_thread_;
  clockid_t server_clock_{};
  std::vector<std::unique_ptr<QueryConnection>> queries_;
  std::unique_ptr<AppendConnection> appends_;
  std::unique_ptr<Client> probe_;
};

/// Counters of the stats frame that the per-layer metrics difference.
struct ServerCounters {
  double frames_sent = 0;
  double partials_coalesced = 0;
  double updates_pushed = 0;
  double wal_syncs = 0;
  double wal_bytes = 0;
  double append_rows = 0;
  double server_cpu_s = 0;

  static Result<ServerCounters> Read(ServeStack* stack) {
    IDB_ASSIGN_OR_RETURN(JsonValue stats, stack->Stats());
    const JsonValue& server = stats.Get("server");
    ServerCounters c;
    c.frames_sent = server.GetDouble("frames_sent", 0);
    c.partials_coalesced = server.GetDouble("partials_coalesced", 0);
    c.updates_pushed = stats.Get("scheduler").GetDouble("updates_pushed", 0);
    c.wal_syncs = server.GetDouble("wal_syncs", 0);
    c.wal_bytes = server.GetDouble("wal_bytes", 0);
    c.append_rows = server.GetDouble("append_rows", 0);
    c.server_cpu_s = stack->ServerCpuSeconds();
    return c;
  }
};

/// Runs one timed phase: the client threads loop until `seconds` have
/// passed and enough interactions completed, then drain.
Status RunPhase(const RunOptions& options, ServeStack* stack, Phase* phase,
                Observations* obs, ServerCounters* begin, ServerCounters* end) {
  IDB_ASSIGN_OR_RETURN(*begin, ServerCounters::Read(stack));
  PhaseControl control;
  const int64_t start = NowNs();
  obs->start_ns = start;
  phase->proc_begin = ReadProc();
  std::vector<std::thread> threads;
  for (auto& conn : stack->query_connections()) {
    threads.emplace_back([&, c = conn.get()] { c->Run(&control, obs); });
  }
  threads.emplace_back([&] { stack->appends()->Run(&control, obs); });
  const auto stop_at = start + static_cast<int64_t>(options.seconds * 1e9);
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    bool enough = false, failed = false;
    {
      std::lock_guard<std::mutex> lock(obs->mu);
      enough = static_cast<int64_t>(obs->samples.size()) >=
               MinInteractions();
      failed = !obs->problems.empty();
    }
    if (failed || (NowNs() >= stop_at && enough)) break;
    if (NowNs() - start > 150'000'000'000LL) break;  // well past any budget
  }
  control.stop.store(true);
  control.cv.notify_all();
  for (std::thread& t : threads) t.join();
  phase->wall_s = Seconds(NowNs() - start);
  phase->proc_end = ReadProc();
  IDB_ASSIGN_OR_RETURN(*end, ServerCounters::Read(stack));
  phase->samples = obs->samples;
  phase->interactions = obs->interactions;
  phase->queries = obs->queries;
  phase->tr_met = obs->tr_met;
  return Status::OK();
}

}  // namespace

Result<RunResult> RunServeIngest(const RunOptions& options) {
  const WorkloadSpec& w = *options.workload;
  IDB_ASSIGN_OR_RETURN(WorkflowSet set, LoadWorkflows(options.data_dir));
  IDB_ASSIGN_OR_RETURN(idebench::workflow::Interaction warm,
                       WarmupInteraction(set));

  // The ingest tail, rendered into wire rows before anything is timed.
  IDB_ASSIGN_OR_RETURN(idebench::storage::Catalog tail,
                       idebench::storage::LoadCatalogSegments(
                           TailDir(options.data_dir)));
  std::vector<JsonValue> batches;
  const idebench::storage::Table& tail_table = *tail.fact_table();
  for (int64_t begin = 0; begin + kAppendRows <= tail_table.num_rows();
       begin += kAppendRows) {
    const idebench::ingest::RowBatch batch =
        idebench::ingest::BatchFromTable(tail_table, begin, begin + kAppendRows);
    JsonValue rows = JsonValue::Array();
    for (const auto& row : batch.rows) {
      JsonValue fields = JsonValue::Array();
      for (const std::string& field : row) fields.Append(field);
      rows.Append(std::move(fields));
    }
    batches.push_back(std::move(rows));
  }
  if (batches.empty()) return Status::Invalid("ingest tail is empty");

  const std::string wal_dir = options.work_dir + "/wal";
  std::vector<SetupTimes> setups;
  auto stack = std::make_unique<ServeStack>();
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (rep > 0) {
      IDB_RETURN_NOT_OK(stack->Stop());
      stack = std::make_unique<ServeStack>();
      malloc_trim(0);
    }
    SetupTimes times;
    IDB_RETURN_NOT_OK(stack->Start(options, set, warm, &batches, wal_dir, &times));
    setups.push_back(times);
  }
  const SetupTimes setup = MedianSetup(setups);

  RunResult out;
  out.meta = RunMetadata(options, idebench::ingest::WalSyncName(
                                      idebench::ingest::WalOptions().sync),
                         FilesystemOf(wal_dir));
  out.meta.Set("semantic_cache", options.semantic_cache);
  Phase untraced;
  Observations untraced_obs;
  ServerCounters u0, u1;
  IDB_RETURN_NOT_OK(RunPhase(options, stack.get(), &untraced, &untraced_obs, &u0, &u1));
  const double peak_rss = PeakRssMib();
  AddEndToEnd(untraced, setup.total_s, peak_rss, &out);

  Observations traced_obs;
  if (options.trace) {
    Phase traced_phase;
    ServerCounters t0, t1;
    Tracer::Clear();
    Tracer::SetEnabled(true);
    IDB_RETURN_NOT_OK(
        RunPhase(options, stack.get(), &traced_phase, &traced_obs, &t0, &t1));
    Tracer::SetEnabled(false);
    out.spans = Tracer::Collect();

    const int64_t queries = traced_phase.queries;
    int64_t run_calls = 0;
    const double submit_ns = SpanNs(out.spans, SpanKind::kEngineSubmit);
    const double run_ns = SpanNs(out.spans, SpanKind::kEngineRun, &run_calls);
    const double poll_ns = SpanNs(out.spans, SpanKind::kEnginePoll);
    const double cancel_ns = SpanNs(out.spans, SpanKind::kEngineCancel);
    const double engine_s = (submit_ns + run_ns + poll_ns + cancel_ns) * 1e-9;
    const double server_cpu = t1.server_cpu_s - t0.server_cpu_s;
    const double appends = static_cast<double>(traced_obs.append_ms.size());
    const double rows_walked =
        traced_obs.progress_sum * static_cast<double>(w.rows);

    LayerValues values;
    SetupLayers(setup,
                static_cast<double>(SegmentBytes(BaseDir(options.data_dir))) /
                    static_cast<double>(w.rows),
                &values);
    auto& v = values;
    v["engine.submit_ms"] = PerQuery(submit_ns * 1e-6, queries);
    v["engine.run_ms"] = PerQuery(run_ns * 1e-6, queries);
    v["engine.run_rows_per_s"] = run_ns > 0 ? rows_walked / (run_ns * 1e-9) : 0.0;
    v["engine.run_calls"] = PerQuery(static_cast<double>(run_calls), queries);
    v["engine.poll_ms"] = PerQuery(poll_ns * 1e-6, queries);
    v["engine.cancel_ms"] = PerQuery(cancel_ns * 1e-6, queries);
    v["engine.busy_share"] = engine_s / traced_phase.wall_s;
    // The reuse cache is off on this workload.  Session and net share the
    // server thread; splitting them needs spans inside the server, so the
    // session's own time is part of net.server_self_ms.
    v["session.updates_per_query"] =
        PerQuery(t1.updates_pushed - t0.updates_pushed, queries);
    v["net.server_self_ms"] = PerQuery((server_cpu - engine_s) * 1e3, queries);
    v["net.server_busy_share"] = server_cpu / traced_phase.wall_s;
    v["net.frames_per_query"] = PerQuery(t1.frames_sent - t0.frames_sent, queries);
    v["net.partials_coalesced_per_query"] =
        PerQuery(t1.partials_coalesced - t0.partials_coalesced, queries);
    v["wal.syncs_per_append"] =
        appends > 0 ? (t1.wal_syncs - t0.wal_syncs) / appends : 0.0;
    v["wal.bytes_per_row"] =
        t1.append_rows > t0.append_rows
            ? (t1.wal_bytes - t0.wal_bytes) / (t1.append_rows - t0.append_rows)
            : 0.0;
    v["ingest.append_p50_ms"] = Median(untraced_obs.append_ms);
    ProcLayers(untraced, &values);
    v["trace.overhead_share"] = OverheadShare(untraced, traced_phase);
    // Engine calls run on the server thread and client spans on others, so
    // self times do not nest into one interaction here: it reads 0.
    EmitPerLayer(values, &out);
  }

  // Output checks: every admitted query one terminal update, nothing
  // rejected, every append durable, and the final watermark equal to the
  // base rows plus every acknowledged row.
  const Status served = stack->Quiesce();
  Observations audit;
  for (auto& conn : stack->query_connections()) conn->Audit(&audit);
  out.ledger = audit.ledger;
  out.problems = audit.problems;
  int64_t acked_rows = 0;
  for (const Observations* obs : {&untraced_obs, &traced_obs}) {
    out.ledger += obs->ledger;
    acked_rows += obs->acked_rows;
    out.problems.insert(out.problems.end(), obs->problems.begin(),
                        obs->problems.end());
  }
  if (!served.ok()) {
    out.ledger.Refused();
    out.problems.push_back("server loop: " + served.ToString());
  }
  const int64_t expected = stack->base_rows() + acked_rows;
  if (stack->ingestor().visible_rows() != expected ||
      stack->ingestor().staged_rows() != 0) {
    out.ledger.WrongAnswer();
    out.problems.push_back(
        "final watermark " + std::to_string(stack->ingestor().visible_rows()) +
        " != base + acknowledged rows " + std::to_string(expected));
  }
  out.meta.Set("append_p50_ms", Median(untraced_obs.append_ms));
  out.meta.Set("appends", static_cast<int64_t>(untraced_obs.append_ms.size()));
  out.correct = out.problems.empty();
  IDB_RETURN_NOT_OK(stack->Stop());
  return out;
}

}  // namespace perfbench
