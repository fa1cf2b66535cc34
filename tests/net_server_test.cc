/// \file net_server_test.cc
/// Loopback tests of the serving front-end (net/server.h): frame
/// protocol end-to-end, explicit overload rejection with degradation
/// before refusal, wall pacing and its backlog ladder on a scripted
/// clock, backpressure under injected write stalls, clean drain on
/// abrupt client disconnect, and survival of the chaos net fault sites
/// over a sweep of injector seeds.  Every test pins the serving
/// contract: the server never crashes, every admitted query yields
/// exactly one terminal update, and every refusal is an explicit frame.

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_injector.h"
#include "engines/blocking_engine.h"
#include "engines/progressive_engine.h"
#include "ingest/ingest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "tests/test_util.h"
#include "workflow/interaction.h"

namespace idebench::net {
namespace {

constexpr Micros kWait = 10 * kMicrosPerSecond;

query::VizSpec GroupViz(const std::string& name) {
  query::VizSpec v;
  v.name = name;
  v.source = "tiny";
  query::BinDimension d;
  d.column = "group";
  d.mode = query::BinningMode::kNominal;
  v.bins.push_back(d);
  query::AggregateSpec a;
  a.type = query::AggregateType::kCount;
  v.aggregates.push_back(a);
  return v;
}

JsonValue InteractionRequest(int64_t session, int64_t request,
                             const std::string& viz_name) {
  JsonValue msg = JsonValue::Object();
  msg.Set("type", "interaction");
  msg.Set("session", session);
  msg.Set("request", request);
  msg.Set("interaction",
          workflow::Interaction::CreateViz(GroupViz(viz_name)).ToJson());
  return msg;
}

JsonValue AppendRequest(int64_t request,
                        const std::vector<std::vector<std::string>>& rows,
                        bool publish) {
  JsonValue msg = JsonValue::Object();
  msg.Set("type", "append");
  msg.Set("request", request);
  JsonValue wire_rows = JsonValue::Array();
  for (const std::vector<std::string>& row : rows) {
    JsonValue wire_row = JsonValue::Array();
    for (const std::string& field : row) wire_row.Append(field);
    wire_rows.Append(std::move(wire_row));
  }
  msg.Set("rows", std::move(wire_rows));
  msg.Set("publish", publish);
  return msg;
}

/// Runs a server's loop one pass at a time on a scripted wall clock.
/// `Enter` is the loop's `until`: it parks the loop between passes.
/// `Now` is the loop's wall clock: it reads `script(pass)`, where `pass`
/// counts the passes `Step` has run, so every reading is a function of
/// the pass count.  Until `Park`, and again after `Release`, the loop
/// runs freely at `script(pass)` (connection setup and teardown take
/// however many passes they take without moving the clock).  While the
/// loop is parked the test thread may read the server's loop-thread
/// state: the gate's mutex orders those reads after the pass.
class PassGate {
 public:
  explicit PassGate(std::function<Micros(int64_t)> script)
      : script_(std::move(script)) {}

  bool Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return free_ || granted_; });
    parked_ = false;
    if (granted_) {
      granted_ = false;
      ++pass_;
    }
    ++passes_run_;
    return true;
  }

  Micros Now() {
    std::lock_guard<std::mutex> lock(mu_);
    ++readings_;
    return script_(pass_);
  }

  /// Stops free running; false unless the loop waits at the gate
  /// within kWait.
  bool Park() {
    std::unique_lock<std::mutex> lock(mu_);
    free_ = false;
    return cv_.wait_for(lock, std::chrono::microseconds(kWait),
                        [this] { return parked_; });
  }

  /// Runs scripted pass `pass() + 1`; false unless the loop is parked
  /// again within kWait.  Frames sent before the call are read in that
  /// pass: loopback delivers them before it polls (the wall-paced test
  /// checks this through `frames_received`).
  bool Step() {
    if (!Park()) return false;
    std::unique_lock<std::mutex> lock(mu_);
    granted_ = true;
    const int64_t next = pass_ + 1;
    cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::microseconds(kWait),
                        [&] { return pass_ == next && parked_; });
  }

  /// Lets the loop run freely again, e.g. to see a stop request.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    free_ = true;
    cv_.notify_all();
  }

  int64_t pass() {
    std::lock_guard<std::mutex> lock(mu_);
    return pass_;
  }
  int64_t passes_run() {
    std::lock_guard<std::mutex> lock(mu_);
    return passes_run_;
  }
  int64_t readings() {
    std::lock_guard<std::mutex> lock(mu_);
    return readings_;
  }

 private:
  const std::function<Micros(int64_t)> script_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool free_ = true;
  bool granted_ = false;
  bool parked_ = false;
  int64_t pass_ = 0;
  int64_t passes_run_ = 0;
  int64_t readings_ = 0;
};

/// One running server on an ephemeral loopback port (virtual-clock mode
/// unless the options say otherwise), stopped + joined on destruction.
/// With a `gate`, the loop runs on the gate's clock and passes; the gate
/// must outlive the fixture.
class ServerFixture {
 public:
  ServerFixture(ServerOptions options, engines::Engine* engine,
                std::shared_ptr<const storage::Catalog> catalog,
                ingest::Ingestor* ingestor = nullptr,
                PassGate* gate = nullptr)
      : gate_(gate) {
    std::function<Micros()> clock;
    std::function<bool()> until;
    if (gate != nullptr) {
      clock = [gate] { return gate->Now(); };
      until = [gate] { return gate->Enter(); };
    }
    auto created =
        Server::Create(std::move(options), engine, catalog, std::move(clock));
    IDB_CHECK(created.ok());
    server_ = std::move(created).MoveValueUnsafe();
    // Attach before the loop thread exists: the loop reads the ingestor
    // pointer without synchronization.
    if (ingestor != nullptr) server_->AttachIngestor(ingestor);
    thread_ = std::thread(
        [this, until] { serve_status_ = server_->Serve(until); });
  }

  ~ServerFixture() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      if (gate_ != nullptr) gate_->Release();
      server_->RequestStop();
      thread_.join();
    }
  }

  Server& server() { return *server_; }
  const Status& serve_status() const { return serve_status_; }

 private:
  PassGate* gate_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  Status serve_status_ = Status::OK();
};

ServerOptions VirtualModeOptions() {
  ServerOptions o;
  o.wall_pacing = false;
  o.virtual_step = 50'000;
  o.poll_interval = 1'000;
  o.scheduler.time_requirement = 2'000'000;
  o.scheduler.quantum = 50'000;
  return o;
}

/// Drains client messages until every query in `expect_final` has seen
/// its terminal update; returns query_id -> final update message.
std::map<int64_t, JsonValue> CollectFinals(Client* client,
                                           std::vector<int64_t> expect_final) {
  std::map<int64_t, JsonValue> finals;
  while (finals.size() < expect_final.size()) {
    JsonValue msg;
    auto next = client->Next(&msg, kWait);
    if (!next.ok() || !*next) break;  // timeout/error: return what we have
    if (MessageType(msg) != "update" || !msg.GetBool("final", false)) continue;
    const int64_t query = msg.GetInt("query", -1);
    EXPECT_EQ(finals.count(query), 0u) << "duplicate terminal for " << query;
    finals[query] = std::move(msg);
  }
  return finals;
}

/// Reads the updates of the client's one live query, `query_id`, up to
/// and including its terminal update; every update frame must decode.
std::vector<session::ProgressiveUpdate> CollectUpdates(Client* client,
                                                       int64_t query_id) {
  std::vector<session::ProgressiveUpdate> updates;
  while (updates.empty() || !updates.back().final_update) {
    JsonValue msg;
    auto next = client->Next(&msg, kWait);
    if (!next.ok() || !*next) {
      ADD_FAILURE() << "no terminal update: "
                    << (next.ok() ? "timed out" : next.status().ToString());
      break;
    }
    if (MessageType(msg) != "update") continue;
    auto update = UpdateFromJson(msg);
    if (!update.ok()) {
      ADD_FAILURE() << update.status().ToString();
      break;
    }
    EXPECT_EQ(update->query_id, query_id);
    updates.push_back(std::move(update).MoveValueUnsafe());
  }
  return updates;
}

TEST(NetServerTest, LoopbackSubmitStreamsUpdatesToFinal) {
  engines::ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 50'000.0;  // 8 rows = 400ms of virtual work
  engines::ProgressiveEngine engine(config);
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerFixture fixture(VirtualModeOptions(), &engine, catalog);
  auto client = Client::Connect("127.0.0.1", fixture.server().port(), "test");
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto session = (*client)->OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_GE(*session, 0);

  ASSERT_TRUE((*client)->Send(InteractionRequest(*session, 1, "viz_0")).ok());
  auto submitted = (*client)->WaitFor("submitted", kWait);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(submitted->GetInt("request", -1), 1);
  EXPECT_EQ(submitted->GetInt("degrade_level", -1), 0);
  const JsonValue& queries = submitted->Get("queries");
  ASSERT_TRUE(queries.is_array());
  ASSERT_EQ(queries.size(), 1u);
  const int64_t query_id = queries.at(0).GetInt("query", -1);
  // The wire carries the client's raw viz name, not the namespaced one.
  EXPECT_EQ(queries.at(0).GetString("viz", ""), "viz_0");

  // Partials stream, then exactly one completed terminal.
  int partials = 0;
  bool saw_final = false;
  while (!saw_final) {
    JsonValue msg;
    auto next = (*client)->Next(&msg, kWait);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(*next) << "timed out before the terminal update";
    if (MessageType(msg) != "update") continue;
    EXPECT_EQ(msg.GetInt("query", -1), query_id);
    EXPECT_EQ(msg.GetString("viz", ""), "viz_0");
    if (msg.GetBool("final", false)) {
      saw_final = true;
      EXPECT_TRUE(msg.GetBool("completed", false));
      const JsonValue& result = msg.Get("result");
      ASSERT_TRUE(result.is_object());
      EXPECT_EQ(result.GetInt("rows", 0), 8);
    } else {
      ++partials;
    }
  }
  EXPECT_GE(partials, 1);

  ASSERT_TRUE((*client)->CloseSession(*session).ok());
  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
  EXPECT_EQ(fixture.server().ratekeeper().live(), 0);
}

TEST(NetServerTest, OverloadDegradesThenRejectsExplicitly) {
  // Blocking engine on a huge nominal table: every query runs to its
  // deadline, so live count builds up fast.
  engines::BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;
  config.query_overhead_us = 0;
  engines::BlockingEngine engine(config);
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerOptions options = VirtualModeOptions();
  options.ratekeeper.soft_live_limit = 2;
  options.ratekeeper.hard_live_limit = 6;
  options.ratekeeper.degrade_levels = 3;
  options.ratekeeper.min_budget_scale = 0.25;
  options.ratekeeper.tenant_rate = 0.0;  // isolate the global ladder
  ServerFixture fixture(options, &engine, catalog);

  auto client = Client::Connect("127.0.0.1", fixture.server().port(), "flood");
  ASSERT_TRUE(client.ok());
  auto session = (*client)->OpenSession();
  ASSERT_TRUE(session.ok());

  // Flood 10 interactions back-to-back (faster than any can finalize).
  const int kRequests = 10;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(
        (*client)
            ->Send(InteractionRequest(*session, i, "viz_" + std::to_string(i)))
            .ok());
  }

  // Every request answers: submitted or rejected, nothing silent.
  int submitted = 0, rejected = 0, degraded = 0;
  double last_scale = 1.0;
  std::vector<int64_t> admitted_queries;
  for (int seen = 0; seen < kRequests; ++seen) {
    JsonValue msg;
    while (true) {
      auto next = (*client)->Next(&msg, kWait);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ASSERT_TRUE(*next) << "request " << seen << " never answered";
      const std::string type = MessageType(msg);
      if (type == "submitted" || type == "rejected") break;
    }
    if (MessageType(msg) == "submitted") {
      ++submitted;
      const double scale = msg.GetDouble("budget_scale", 1.0);
      EXPECT_LE(scale, last_scale);  // the ladder only tightens
      last_scale = scale;
      if (msg.GetInt("degrade_level", 0) > 0) {
        ++degraded;
        EXPECT_LT(scale, 1.0);
      }
      const JsonValue& queries = msg.Get("queries");
      for (size_t q = 0; q < queries.size(); ++q) {
        if (!queries.at(q).GetBool("unsupported", false)) {
          admitted_queries.push_back(queries.at(q).GetInt("query", -1));
        }
      }
    } else {
      ++rejected;
      EXPECT_EQ(msg.GetString("reason", ""), "over_capacity");
      EXPECT_GE(msg.GetInt("retry_after_ms", -1), 0);
    }
  }
  EXPECT_EQ(submitted + rejected, kRequests);
  EXPECT_GT(rejected, 0) << "flood at 2x capacity must see rejections";
  EXPECT_GT(degraded, 0) << "budgets must shrink before refusal";

  // Every admitted query still delivers exactly one terminal update.
  const auto finals = CollectFinals(client->get(), admitted_queries);
  EXPECT_EQ(finals.size(), admitted_queries.size());

  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
  EXPECT_EQ(fixture.server().ratekeeper().live(), 0);
  EXPECT_GT(fixture.server().ratekeeper().stats().rejected, 0);
}

/// Wall time of a stalled loop: 10 ms per pass, except passes 6-10,
/// which take 300 ms each.
Micros StalledLoopClock(int64_t pass) {
  const int64_t stalled = std::clamp<int64_t>(pass - 5, 0, 5);
  return pass * 10'000 + stalled * 290'000;
}

TEST(NetServerTest, WallPacedOverloadDegradesRejectsAndRecovers) {
  // Blocking engine on a huge nominal table: every query runs to its
  // 40 ms deadline, which a catching-up pass (50 ms) always reaches.
  engines::BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;
  config.query_overhead_us = 0;
  engines::BlockingEngine engine(config);
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000'000);
  auto ingestor = ingest::Ingestor::Create(catalog, 64);
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerOptions options;
  options.wall_pacing = true;
  options.max_catchup = 50'000;
  options.poll_interval = 1'000;
  options.scheduler.time_requirement = 40'000;
  options.scheduler.quantum = 10'000;
  options.ratekeeper.soft_live_limit = 2;
  options.ratekeeper.hard_live_limit = 6;
  options.ratekeeper.degrade_levels = 3;
  options.ratekeeper.backlog_degrade = 250'000;
  options.ratekeeper.backlog_reject = 1'000'000;
  PassGate gate(StalledLoopClock);
  ServerFixture fixture(options, &engine, catalog, ingestor->get(), &gate);
  Server& server = fixture.server();

  // Four query connections over two tenants, then one feed connection;
  // a pass reads them in this (accept) order.
  constexpr int kFeed = 4;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<int64_t> sessions;
  for (int c = 0; c <= kFeed; ++c) {
    const std::string tenant =
        c == kFeed ? "feed" : "t" + std::to_string(c % 2);
    auto client = Client::Connect("127.0.0.1", server.port(), tenant);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    clients.push_back(std::move(client).MoveValueUnsafe());
    if (c == kFeed) break;
    auto session = clients.back()->OpenSession();
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }

  // Request r is sent before scripted pass `pass` on connection `conn`
  // (an interaction, or an append on the feed) and must get `verdict`:
  // "L<k>" is `submitted` at degrade level k, "appended" an accepted
  // append, anything else the reason of a `rejected`.
  struct Request {
    int64_t pass;
    int conn;
    const char* verdict;
  };
  const std::vector<Request> requests = {
      // 2x hard_live_limit in one pass: live counts 0-5 admit at levels
      // 0, 0, 1, 1, 2, 3, then capacity refuses; ingest sheds.
      {1, 0, "L0"}, {1, 0, "L0"}, {1, 0, "L1"},
      {1, 1, "L1"}, {1, 1, "L2"}, {1, 1, "L3"},
      {1, 2, "over_capacity"}, {1, 2, "over_capacity"},
      {1, 2, "over_capacity"}, {1, 3, "over_capacity"},
      {1, 3, "over_capacity"}, {1, 3, "over_capacity"},
      {1, kFeed, "ingest_shed"},
      // The stall: the lag admissions see grows 300, 550, 800, 1050,
      // 1300 ms (one level per 250 ms, refusal from 1 s).
      {6, 0, "L1"}, {6, kFeed, "ingest_shed"},
      {7, 1, "L2"}, {7, kFeed, "ingest_shed"},
      {8, 2, "L3"}, {8, kFeed, "ingest_shed"},
      {9, 3, "backlogged"}, {9, kFeed, "ingest_shed"},
      {10, 0, "backlogged"}, {10, kFeed, "ingest_shed"},
      // Catching up, the lag falls 40 ms per pass: 1140 ms at pass 14,
      // then 980, 820, 660, 500, 340, 180 and 20 ms.
      {14, 1, "backlogged"}, {14, kFeed, "ingest_shed"},
      {18, 2, "L3"}, {18, kFeed, "ingest_shed"},
      {22, 3, "L3"}, {22, kFeed, "ingest_shed"},
      {26, 0, "L2"}, {26, kFeed, "ingest_shed"},
      {30, 1, "L2"}, {30, kFeed, "ingest_shed"},
      {34, 2, "L1"}, {34, kFeed, "ingest_shed"},
      {38, 3, "L0"}, {38, kFeed, "appended"},
      {42, 0, "L0"}, {42, kFeed, "appended"},
  };

  ASSERT_TRUE(gate.Park());
  int64_t frames = server.stats().frames_received;
  std::vector<Micros> virtual_now = {server.manager().VirtualNow()};
  Micros largest_lag_admitted = 0;
  size_t next = 0;
  while (next < requests.size() || server.ratekeeper().live() > 0) {
    const int64_t pass = gate.pass() + 1;
    bool admissions = false;
    for (; next < requests.size() && requests[next].pass == pass; ++next) {
      const Request& r = requests[next];
      const int64_t id = static_cast<int64_t>(next);
      const JsonValue msg =
          r.conn == kFeed
              ? AppendRequest(id, {{"90", "a", "0"}}, /*publish=*/false)
              : InteractionRequest(sessions[r.conn], id,
                                   "viz_" + std::to_string(id));
      ASSERT_TRUE(clients[r.conn]->Send(msg).ok());
      ++frames;
      admissions = true;
    }
    ASSERT_TRUE(gate.Step()) << "pass " << pass << " never ended";
    ASSERT_EQ(server.stats().frames_received, frames)
        << "pass " << pass << " did not read every request sent before it";
    if (admissions) {
      largest_lag_admitted = std::max(
          largest_lag_admitted, StalledLoopClock(pass) - virtual_now.back());
    }
    // Wall pacing: virtual time chases the clock, at most max_catchup a
    // pass.
    const Micros before = virtual_now.back();
    virtual_now.push_back(server.manager().VirtualNow());
    EXPECT_EQ(virtual_now.back(),
              std::min(StalledLoopClock(pass), before + options.max_catchup))
        << "pass " << pass;
  }
  // max_backlog is the largest lag an admission saw (the pass-10
  // refusal's), taken before that pass caught up.
  EXPECT_EQ(largest_lag_admitted, 1'300'000);
  EXPECT_EQ(server.stats().max_backlog, largest_lag_admitted);
  EXPECT_EQ(server.manager().stats().max_deadline_overshoot, 0);
  EXPECT_EQ(server.stats().protocol_errors, 0);

  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
  EXPECT_EQ(gate.readings(), gate.passes_run()) << "one clock read per pass";

  // Every request got exactly one verdict, the scripted one, and every
  // admitted query exactly one terminal update.
  std::map<int64_t, std::vector<std::string>> verdicts;
  std::map<int64_t, int> terminals;  // admitted query -> terminal updates
  for (const auto& client : clients) {
    while (true) {
      JsonValue msg;
      auto got = client->Next(&msg, kWait);
      if (!got.ok() || !*got) break;  // the stopped server closed it
      const std::string type = MessageType(msg);
      const int64_t request = msg.GetInt("request", -1);
      if (type == "submitted") {
        verdicts[request].push_back(
            "L" + std::to_string(msg.GetInt("degrade_level", -1)));
        const JsonValue& queries = msg.Get("queries");
        for (size_t q = 0; q < queries.size(); ++q) {
          terminals.emplace(queries.at(q).GetInt("query", -1), 0);
        }
      } else if (type == "rejected") {
        verdicts[request].push_back(msg.GetString("reason", ""));
      } else if (type == "appended") {
        verdicts[request].push_back("appended");
      } else if (type == "update" && msg.GetBool("final", false)) {
        ++terminals[msg.GetInt("query", -1)];
      }
    }
  }
  ASSERT_EQ(verdicts.size(), requests.size());
  int admitted = 0;
  for (size_t r = 0; r < requests.size(); ++r) {
    const std::vector<std::string>& got = verdicts[static_cast<int64_t>(r)];
    ASSERT_EQ(got.size(), 1u) << "request " << r;
    EXPECT_EQ(got[0], requests[r].verdict)
        << "request " << r << " at pass " << requests[r].pass;
    if (got[0][0] == 'L') ++admitted;
  }
  EXPECT_EQ(static_cast<int>(terminals.size()), admitted);
  for (const auto& [query, count] : terminals) {
    EXPECT_EQ(count, 1) << "query " << query;
  }
  EXPECT_EQ(server.ratekeeper().live(), 0);
}

/// The real server's fault handling, swept over injector seeds.
class NetServerFaultTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, NetServerFaultTest,
                         ::testing::Range<uint64_t>(1, 12),
                         ::testing::PrintToStringParamName());

TEST_P(NetServerFaultTest, WriteStallsCoalescePartialsNeverFinals) {
  // kNetWrite stalls flushes; kNetPartialFrame tears frames at byte
  // boundaries.  Partials coalesce under the stall, the terminal always
  // lands, and the peer's decoder reassembles torn frames.
  chaos::FaultInjector injector(GetParam());
  injector.Arm(chaos::FaultSite::kNetWrite, {0.6, -1});
  injector.Arm(chaos::FaultSite::kNetPartialFrame, {0.5, -1});
  chaos::ScopedFaultInjector scope(&injector);

  engines::ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 100'000.0;  // many partial pushes
  engines::ProgressiveEngine engine(config);
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerOptions options = VirtualModeOptions();
  options.write_queue_soft_limit = 2;  // tiny: force coalescing fast
  ServerFixture fixture(options, &engine, catalog);

  auto client = Client::Connect("127.0.0.1", fixture.server().port(), "slow");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto session = (*client)->OpenSession();
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE((*client)->Send(InteractionRequest(*session, 1, "viz_0")).ok());
  auto submitted = (*client)->WaitFor("submitted", kWait);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const int64_t query_id =
      submitted->Get("queries").at(0).GetInt("query", -1);

  // Every update frame decodes, torn or not, and the query's partials
  // arrive in order: strictly increasing virtual time, non-decreasing
  // rows.  The terminal update follows them.
  const std::vector<session::ProgressiveUpdate> updates =
      CollectUpdates(client->get(), query_id);
  ASSERT_FALSE(updates.empty());
  ASSERT_TRUE(updates.back().final_update);
  EXPECT_TRUE(updates.back().completed);
  for (size_t i = 1; i < updates.size(); ++i) {
    const session::ProgressiveUpdate& prev = updates[i - 1];
    const session::ProgressiveUpdate& cur = updates[i];
    if (cur.final_update) {
      EXPECT_GE(cur.virtual_time, prev.virtual_time);
    } else {
      EXPECT_GT(cur.virtual_time, prev.virtual_time);
    }
    EXPECT_GE(cur.result.rows_processed, prev.result.rows_processed);
  }

  // The terminal update came last: nothing for the query is queued
  // behind it, so the next frame a ping flushes out is no update of it.
  JsonValue ping = JsonValue::Object();
  ping.Set("type", "ping");
  ASSERT_TRUE((*client)->Send(ping).ok());
  while (true) {
    JsonValue msg;
    auto next = (*client)->Next(&msg, kWait);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(*next) << "timed out before the pong";
    const std::string type = MessageType(msg);
    if (type == "pong") break;
    EXPECT_NE(type, "update") << "update after the terminal update";
  }

  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
  const ServerStats& stats = fixture.server().stats();
  EXPECT_GT(stats.partials_coalesced + stats.partials_dropped, 0)
      << "write stalls must trigger backpressure, not unbounded buffering";
  EXPECT_EQ(stats.slow_client_disconnects, 0);
}

TEST(NetServerTest, CoalescedPartialCarriesNewestSnapshot) {
  // virtual_step == TR and an engine too slow to finish: the query's
  // whole life, from submission to its deadline, falls inside one
  // server pass.  Every partial after the first coalesces into the one
  // queued frame, so the client receives exactly one partial — the
  // newest, as of the deadline — and only that one is ever encoded.
  engines::ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 400'000.0;  // 8 rows > the 2 s TR
  engines::ProgressiveEngine engine(config);
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerOptions options = VirtualModeOptions();
  options.virtual_step = options.scheduler.time_requirement;
  ServerFixture fixture(options, &engine, catalog);

  auto client = Client::Connect("127.0.0.1", fixture.server().port(), "test");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto session = (*client)->OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*client)->Send(InteractionRequest(*session, 1, "viz_0")).ok());
  auto submitted = (*client)->WaitFor("submitted", kWait);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const int64_t query_id =
      submitted->Get("queries").at(0).GetInt("query", -1);

  // Exactly one partial, then the terminal update, at the same instant
  // and over the same rows.
  const std::vector<session::ProgressiveUpdate> updates =
      CollectUpdates(client->get(), query_id);
  ASSERT_EQ(updates.size(), 2u);
  const session::ProgressiveUpdate& partial = updates[0];
  const session::ProgressiveUpdate& terminal = updates[1];
  ASSERT_TRUE(terminal.final_update);
  EXPECT_TRUE(terminal.cancelled) << "the query must run to its deadline";
  EXPECT_EQ(partial.virtual_time, terminal.virtual_time);
  EXPECT_EQ(partial.result.rows_processed, terminal.result.rows_processed);

  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
  const int64_t pushed = fixture.server().manager().stats().partial_updates;
  EXPECT_GE(pushed, 2) << "nothing to coalesce";
  EXPECT_EQ(fixture.server().stats().partials_coalesced, pushed - 1);
}

TEST(NetServerTest, AbruptDisconnectDrainsSessionsCleanly) {
  engines::BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;
  config.query_overhead_us = 0;
  engines::BlockingEngine engine(config);
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000'000);  // runs to the deadline
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerFixture fixture(VirtualModeOptions(), &engine, catalog);

  {
    auto doomed =
        Client::Connect("127.0.0.1", fixture.server().port(), "doomed");
    ASSERT_TRUE(doomed.ok());
    auto session = (*doomed)->OpenSession();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(
        (*doomed)->Send(InteractionRequest(*session, 1, "viz_0")).ok());
    auto submitted = (*doomed)->WaitFor("submitted", kWait);
    ASSERT_TRUE(submitted.ok());
    // Destructor closes the socket with the query still live.
  }

  // A second client still gets full service while the first drains.
  auto survivor =
      Client::Connect("127.0.0.1", fixture.server().port(), "survivor");
  ASSERT_TRUE(survivor.ok());
  auto session = (*survivor)->OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      (*survivor)->Send(InteractionRequest(*session, 1, "viz_0")).ok());
  auto submitted = (*survivor)->WaitFor("submitted", kWait);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const int64_t query_id =
      submitted->Get("queries").at(0).GetInt("query", -1);
  const auto finals = CollectFinals(survivor->get(), {query_id});
  EXPECT_EQ(finals.size(), 1u);

  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
  // The torn client's admitted query finalized (explicitly counted),
  // and the ratekeeper's live count returned to zero — no leak.
  EXPECT_EQ(fixture.server().ratekeeper().live(), 0);
  EXPECT_GT(fixture.server().stats().finals_after_disconnect, 0);
  EXPECT_GE(fixture.server().stats().connections_closed, 1);
}

TEST_P(NetServerFaultTest, SurvivesAcceptAndReadFaults) {
  // Budgeted faults: 4 refused accepts, 2 torn reads, then clean air.
  // Draw streams are seeded, so the schedule is fixed; server stats are
  // only read after Stop() (the serve thread owns them while live).
  chaos::FaultInjector injector(GetParam());
  injector.Arm(chaos::FaultSite::kNetAccept, {0.5, 4});
  injector.Arm(chaos::FaultSite::kNetRead, {0.5, 2});
  chaos::ScopedFaultInjector scope(&injector);

  engines::ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 10'000.0;
  engines::ProgressiveEngine engine(config);
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerFixture fixture(VirtualModeOptions(), &engine, catalog);
  const int port = fixture.server().port();

  // Burn the accept budget: each attempt is exactly one accept draw.
  // Refusals surface as clean connect/handshake errors, never hangs, and
  // the listener survives every one of them.
  int refused = 0;
  {
    std::vector<std::unique_ptr<Client>> live;
    for (int attempt = 0; attempt < 24; ++attempt) {
      auto connected =
          Client::Connect("127.0.0.1", port, "burn", kMicrosPerSecond);
      if (connected.ok()) {
        live.push_back(std::move(connected).MoveValueUnsafe());
      } else {
        ++refused;
      }
    }
    // 24 draws at p=0.5 against a budget of 4: the accept budget is
    // spent (a read fault during a handshake can also refuse a connect,
    // so `refused` may exceed it).
    EXPECT_GE(refused, 4);
  }

  // Burn any remaining read budget with ping traffic; a fired read
  // fault tears that connection, so reconnect and keep going.
  for (int round = 0; round < 8; ++round) {
    auto pinger = Client::Connect("127.0.0.1", port, "pinger",
                                  kMicrosPerSecond);
    if (!pinger.ok()) continue;
    for (int i = 0; i < 4; ++i) {
      JsonValue ping = JsonValue::Object();
      ping.Set("type", "ping");
      if (!(*pinger)->Send(ping).ok()) break;
      if (!(*pinger)->WaitFor("pong", kMicrosPerSecond).ok()) break;
    }
  }

  // Both budgets exhausted: a fresh client now gets clean service.
  auto client = Client::Connect("127.0.0.1", port, "retry", kWait);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto session = (*client)->OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*client)->Send(InteractionRequest(*session, 1, "viz_0")).ok());
  auto submitted = (*client)->WaitFor("submitted", kWait);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const int64_t query_id =
      submitted->Get("queries").at(0).GetInt("query", -1);
  const auto finals = CollectFinals(client->get(), {query_id});
  EXPECT_EQ(finals.size(), 1u);

  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
  EXPECT_GE(fixture.server().stats().accept_faults, 4);
  EXPECT_GE(fixture.server().stats().read_faults, 2);
}

TEST(NetServerTest, ReadFaultTearsConnectionHoldingAdmittedQuery) {
  // kNetRead fires on the server's fourth read: hello, open_session and
  // the interaction are read cleanly, and the ping that follows the
  // `submitted` reply tears the connection while its query is live.
  chaos::FaultInjector injector(1);
  chaos::FaultSiteConfig tear;
  tear.fire_on_draw = 3;
  injector.Arm(chaos::FaultSite::kNetRead, tear);
  chaos::ScopedFaultInjector scope(&injector);

  engines::BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;
  config.query_overhead_us = 0;
  engines::BlockingEngine engine(config);
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(1'000'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerOptions options = VirtualModeOptions();
  // A deadline no run of the loop reaches before the tear.
  options.scheduler.time_requirement = 3600 * kMicrosPerSecond;
  ServerFixture fixture(options, &engine, catalog);

  auto client = Client::Connect("127.0.0.1", fixture.server().port(), "torn");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto session = (*client)->OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*client)->Send(InteractionRequest(*session, 1, "viz_0")).ok());
  auto submitted = (*client)->WaitFor("submitted", kWait);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JsonValue ping = JsonValue::Object();
  ping.Set("type", "ping");
  ASSERT_TRUE((*client)->Send(ping).ok());

  // The server closes the connection; no terminal update reaches it.
  while (true) {
    JsonValue msg;
    auto next = (*client)->Next(&msg, kWait);
    if (!next.ok()) break;  // closed by the server
    ASSERT_TRUE(*next) << "the torn connection stayed open";
    EXPECT_FALSE(msg.GetBool("final", false));
  }

  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
  EXPECT_EQ(injector.site_stats(chaos::FaultSite::kNetRead).fires, 1);
  const ServerStats& stats = fixture.server().stats();
  EXPECT_EQ(stats.read_faults, 1);
  // The torn connection's admitted query finalized, counted explicitly,
  // and left the ratekeeper's live set.
  EXPECT_EQ(stats.finals_after_disconnect, 1);
  const session::SchedulerStats scheduler =
      fixture.server().manager().stats();
  EXPECT_EQ(scheduler.queries_submitted, 1);
  EXPECT_EQ(scheduler.client_cancelled, 1);
  EXPECT_EQ(fixture.server().ratekeeper().live(), 0);
}

TEST(NetServerTest, MalformedInputGetsExplicitErrorNeverCrash) {
  engines::ProgressiveEngineConfig config;
  engines::ProgressiveEngine engine(config);
  auto catalog = testutil::MakeTinyCatalog();
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerFixture fixture(VirtualModeOptions(), &engine, catalog);

  // An unknown message type: explicit "error" reply, connection stays.
  auto client = Client::Connect("127.0.0.1", fixture.server().port(), "evil");
  ASSERT_TRUE(client.ok());
  JsonValue untyped = JsonValue::Object();
  untyped.Set("hello", "there");
  ASSERT_TRUE((*client)->Send(untyped).ok());
  auto err = (*client)->WaitFor("error", kWait);
  ASSERT_TRUE(err.ok()) << err.status().ToString();

  // A framing violation over a raw socket: the server replies with an
  // error frame (best effort) and drops the connection — no crash, no
  // hang.  The client library rejects such bytes, so go below it.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(fixture.server().port()));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string garbage;
  garbage.push_back(0);
  garbage.push_back(0);
  garbage.push_back(0);
  garbage.push_back(4);
  garbage += "\xde\xad\xbe\xef";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  // The server must close on us (possibly after an error frame).
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
  }
  ::close(fd);

  // The server is still fully alive for well-behaved clients.
  auto session = (*client)->OpenSession();
  ASSERT_TRUE(session.ok());

  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
  EXPECT_GT(fixture.server().stats().protocol_errors, 0);
}

TEST(NetServerTest, AppendFrameStagesPublishesAndRejects) {
  engines::ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  engines::ProgressiveEngine engine(config);
  auto catalog = testutil::MakeTinyCatalog();
  auto ingestor = ingest::Ingestor::Create(catalog, 12);
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerFixture fixture(VirtualModeOptions(), &engine, catalog,
                        ingestor->get());
  auto client = Client::Connect("127.0.0.1", fixture.server().port(), "feed");
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Staging only: rows land invisible, watermark reports visible rows.
  ASSERT_TRUE(
      (*client)
          ->Send(AppendRequest(1, {{"90", "a", "0"}, {"100", "b", "1"}},
                               /*publish=*/false))
          .ok());
  auto staged = (*client)->WaitFor("appended", kWait);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(staged->GetInt("request", -1), 1);
  EXPECT_EQ(staged->GetInt("staged", -1), 2);
  EXPECT_EQ(staged->GetInt("watermark", -1), 8);
  EXPECT_FALSE(staged->GetBool("published", true));

  // A bare publish folds the staged epoch in atomically.
  ASSERT_TRUE((*client)->Send(AppendRequest(2, {}, /*publish=*/true)).ok());
  auto published = (*client)->WaitFor("appended", kWait);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(published->GetInt("staged", -1), 0);
  EXPECT_EQ(published->GetInt("watermark", -1), 10);
  EXPECT_TRUE(published->GetBool("published", false));

  // A malformed row rejects the whole batch, staging nothing.
  ASSERT_TRUE(
      (*client)->Send(AppendRequest(3, {{"not-a-number", "c", "0"}}, false)).ok());
  auto invalid = (*client)->WaitFor("rejected", kWait);
  ASSERT_TRUE(invalid.ok()) << invalid.status().ToString();
  EXPECT_EQ(invalid->GetInt("request", -1), 3);
  EXPECT_EQ(invalid->GetString("reason", ""), "invalid_rows");

  // Overflowing the reserved capacity is an explicit refusal with a
  // retry hint, not a partial append (10 visible + 3 > 12).
  ASSERT_TRUE((*client)
                  ->Send(AppendRequest(
                      4, {{"1", "a", "0"}, {"2", "b", "1"}, {"3", "c", "0"}},
                      false))
                  .ok());
  auto full = (*client)->WaitFor("rejected", kWait);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->GetString("reason", ""), "ingest_capacity");

  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
  EXPECT_EQ(fixture.server().stats().append_rows, 2);
  EXPECT_EQ(fixture.server().stats().epochs_published, 1);
  EXPECT_EQ(fixture.server().stats().appends_rejected, 2);
}

TEST(NetServerTest, AppendWithoutIngestorIsRejectedExplicitly) {
  engines::ProgressiveEngine engine;
  auto catalog = testutil::MakeTinyCatalog();
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  ServerFixture fixture(VirtualModeOptions(), &engine, catalog);
  auto client = Client::Connect("127.0.0.1", fixture.server().port(), "feed");
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ASSERT_TRUE((*client)->Send(AppendRequest(7, {{"90", "a", "0"}}, true)).ok());
  auto rejected = (*client)->WaitFor("rejected", kWait);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->GetInt("request", -1), 7);
  EXPECT_EQ(rejected->GetString("reason", ""), "no_ingestor");

  fixture.Stop();
  EXPECT_TRUE(fixture.serve_status().ok());
}

}  // namespace
}  // namespace idebench::net
