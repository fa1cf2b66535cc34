/// \file serve_bench.cc
/// Overload benchmark for the serving front-end: spawns N real client
/// processes (fork + execv of this binary with --worker) against an
/// in-process wall-paced server, drives generated exploration workflows
/// through each, and aggregates wall-clock update latencies plus the
/// admission ladder's rejection/degradation counts into a JSON report.
///
/// Usage (parent):
///   serve_bench [--clients N] [--interactions K] [--rows N] [--seed S]
///               [--engine NAME] [--tr US] [--soft N] [--hard N]
///               [--think-ms MS] [--out PATH] [--check]
///
///   --clients N       client processes (default 2 x --hard: a 2x
///                     overload of the admission capacity)
///   --interactions K  interactions per client (default 6)
///   --tr US           per-interaction time requirement (default 500ms)
///   --soft/--hard     ratekeeper live limits (default 2/4)
///   --out PATH        report path (default serve_bench.json)
///   --check           CI smoke mode: exit nonzero unless zero worker
///                     crashes, zero silent drops, every refusal
///                     explicit, and the report well-formed
///
/// Every admitted query must deliver exactly one terminal update to its
/// worker; workers exit nonzero when one goes silent, so "no silent
/// drops" is checked end to end across real process boundaries.

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "datagen/flights_seed.h"
#include "engines/registry.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/catalog.h"
#include "workflow/generator.h"

namespace {

using idebench::JsonValue;
using idebench::Micros;
using idebench::WallClock;
using idebench::net::Client;
using idebench::net::Server;
using idebench::net::ServerOptions;

struct Args {
  // Parent knobs.
  int clients = 0;  // 0 = 2 x hard
  int interactions = 6;
  int64_t rows = 20'000;
  int64_t nominal = 2'000'000;
  uint64_t seed = 42;
  std::string engine = "progressive";
  Micros tr = 500'000;
  int soft = 2;
  int hard = 4;
  int think_ms = 0;
  std::string out = "serve_bench.json";
  bool check = false;

  // Worker-only knobs (hidden).
  bool worker = false;
  int id = 0;
  int port = 0;
  std::string host = "127.0.0.1";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--clients" && (v = next())) {
      args->clients = std::atoi(v);
    } else if (arg == "--interactions" && (v = next())) {
      args->interactions = std::atoi(v);
    } else if (arg == "--rows" && (v = next())) {
      args->rows = std::strtoll(v, nullptr, 10);
    } else if (arg == "--nominal" && (v = next())) {
      args->nominal = std::strtoll(v, nullptr, 10);
    } else if (arg == "--seed" && (v = next())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--engine" && (v = next())) {
      args->engine = v;
    } else if (arg == "--tr" && (v = next())) {
      args->tr = std::strtoll(v, nullptr, 10);
    } else if (arg == "--soft" && (v = next())) {
      args->soft = std::atoi(v);
    } else if (arg == "--hard" && (v = next())) {
      args->hard = std::atoi(v);
    } else if (arg == "--think-ms" && (v = next())) {
      args->think_ms = std::atoi(v);
    } else if (arg == "--out" && (v = next())) {
      args->out = v;
    } else if (arg == "--check") {
      args->check = true;
    } else if (arg == "--worker") {
      args->worker = true;
    } else if (arg == "--id" && (v = next())) {
      args->id = std::atoi(v);
    } else if (arg == "--port" && (v = next())) {
      args->port = std::atoi(v);
    } else if (arg == "--host" && (v = next())) {
      args->host = v;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      return false;
    }
  }
  if (args->clients <= 0) args->clients = 2 * args->hard;
  return true;
}

// --- Worker -----------------------------------------------------------------

/// Caps per-worker latency samples so a worker's report line stays well
/// under the pipe buffer (the parent reads pipes concurrently anyway).
constexpr size_t kMaxSamples = 4000;

void PushSample(std::vector<Micros>* samples, Micros value) {
  if (samples->size() < kMaxSamples) samples->push_back(value);
}

JsonValue SamplesToJson(const std::vector<Micros>& samples) {
  JsonValue array = JsonValue::Array();
  for (const Micros s : samples) array.Append(s);
  return array;
}

/// One client process: replays a generated exploration workflow against
/// the server, records wall-clock latencies per update, and verifies the
/// exactly-one-terminal contract for every admitted query.  The report
/// is one JSON line on stdout; exit 0 unless a query went silent or the
/// protocol broke.
int RunWorker(const Args& args) {
  // Regenerate a small seed table locally just to drive the workflow
  // generator (specs only need the schema + rough quantiles).
  idebench::datagen::FlightsSeedConfig datagen;
  datagen.rows = 4000;
  datagen.seed = args.seed;
  auto table = idebench::datagen::GenerateFlightsSeed(datagen);
  if (!table.ok()) {
    std::cerr << "w" << args.id << " datagen: " << table.status().ToString()
              << "\n";
    return 1;
  }
  idebench::workflow::GeneratorConfig generator_config;
  generator_config.min_interactions = args.interactions;
  generator_config.max_interactions = args.interactions + 4;
  idebench::workflow::WorkflowGenerator generator(
      &*table, generator_config,
      args.seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(args.id) + 1)));
  auto workflow = generator.Generate(idebench::workflow::WorkflowType::kMixed,
                                     "bench_w" + std::to_string(args.id));
  if (!workflow.ok()) {
    std::cerr << "w" << args.id << " generator: "
              << workflow.status().ToString() << "\n";
    return 1;
  }

  WallClock wall;
  const std::string tenant = "tenant" + std::to_string(args.id % 4);
  std::unique_ptr<Client> client;
  for (int attempt = 0; attempt < 20 && client == nullptr; ++attempt) {
    auto connected = Client::Connect(args.host, args.port, tenant);
    if (connected.ok()) {
      client = std::move(connected).MoveValueUnsafe();
    } else {
      ::usleep(50'000);
    }
  }
  JsonValue report = JsonValue::Object();
  report.Set("id", static_cast<int64_t>(args.id));
  if (client == nullptr) {
    // The server refusing the connect IS an explicit signal; report it
    // rather than crash.
    report.Set("connect_failed", true);
    std::cout << report.Dump() << "\n" << std::flush;
    return 0;
  }
  auto session = client->OpenSession();
  if (!session.ok()) {
    std::cerr << "w" << args.id << " open: " << session.status().ToString()
              << "\n";
    return 1;
  }

  int64_t attempts = 0, submitted = 0, rejected = 0, degraded = 0;
  int64_t queries_admitted = 0, queries_finalized = 0, protocol_errors = 0;
  double min_budget_scale = 1.0;
  std::map<std::string, int64_t> reject_reasons;
  std::vector<Micros> first_latencies, final_latencies;
  // Admitted, not-yet-terminal queries: id -> (submit wall time, seen
  // first update).  Whatever the overload weather, this must drain to
  // empty — one terminal per admitted query, no silent drops.
  std::map<int64_t, std::pair<Micros, bool>> pending;

  const auto handle_update = [&](const JsonValue& msg) {
    const int64_t query = msg.GetInt("query", -1);
    auto it = pending.find(query);
    if (it == pending.end()) return;  // unsupported or unknown: not ours
    const Micros latency = wall.Now() - it->second.first;
    if (!it->second.second) {
      it->second.second = true;
      PushSample(&first_latencies, latency);
    }
    if (msg.GetBool("final", false)) {
      PushSample(&final_latencies, latency);
      ++queries_finalized;
      pending.erase(it);
    }
  };

  // Drains messages until `done` or the wall deadline; updates are
  // always processed, everything else goes to `unclaimed`.
  const auto drain = [&](Micros deadline,
                         const std::function<bool()>& done) -> bool {
    while (!done() && wall.Now() < deadline) {
      JsonValue msg;
      auto next = client->Next(&msg, std::max<Micros>(1, deadline - wall.Now()));
      if (!next.ok()) {
        ++protocol_errors;
        return false;
      }
      if (!*next) return true;  // timeout slice; done() re-checked
      const std::string type = msg.GetString("type", "");
      if (type == "update") {
        handle_update(msg);
      } else if (type == "error") {
        ++protocol_errors;
      }
    }
    return true;
  };

  int64_t request_id = 0;
  size_t ran = 0;
  for (const auto& interaction : workflow->interactions) {
    if (ran++ >= static_cast<size_t>(args.interactions)) break;
    JsonValue msg = JsonValue::Object();
    msg.Set("type", "interaction");
    msg.Set("session", *session);
    msg.Set("request", ++request_id);
    msg.Set("interaction", interaction.ToJson());
    const Micros send_time = wall.Now();
    ++attempts;
    if (!client->Send(msg).ok()) {
      ++protocol_errors;
      break;
    }

    // Await this request's verdict; updates for earlier interactions
    // keep streaming in the meantime and are folded in by WaitFor's
    // buffering plus the drain below.
    JsonValue verdict;
    bool decided = false;
    const Micros verdict_deadline = wall.Now() + args.tr + 5'000'000;
    while (!decided && wall.Now() < verdict_deadline) {
      JsonValue in;
      auto next = client->Next(&in, verdict_deadline - wall.Now());
      if (!next.ok() || !*next) break;
      const std::string type = in.GetString("type", "");
      if (type == "update") {
        handle_update(in);
      } else if ((type == "submitted" || type == "rejected") &&
                 in.GetInt("request", -1) == request_id) {
        verdict = std::move(in);
        decided = true;
      } else if (type == "error") {
        ++protocol_errors;
      }
    }
    if (!decided) {
      ++protocol_errors;  // a request may never go unanswered
      break;
    }

    if (verdict.GetString("type", "") == "rejected") {
      ++rejected;
      ++reject_reasons[verdict.GetString("reason", "unknown")];
      continue;
    }
    ++submitted;
    if (verdict.GetInt("degrade_level", 0) > 0) ++degraded;
    min_budget_scale =
        std::min(min_budget_scale, verdict.GetDouble("budget_scale", 1.0));
    const JsonValue& queries = verdict.Get("queries");
    for (size_t i = 0; i < queries.size(); ++i) {
      const JsonValue& q = queries.at(i);
      if (q.GetBool("unsupported", false)) continue;
      ++queries_admitted;
      pending[q.GetInt("query", -1)] = {send_time, false};
    }

    // Let this interaction mostly finish before the next (each worker
    // keeps ~1 interaction in flight; overload comes from the fleet).
    drain(wall.Now() + args.tr + 1'000'000, [&] { return pending.empty(); });
    if (args.think_ms > 0) ::usleep(static_cast<useconds_t>(args.think_ms) * 1000);
  }

  // Stragglers past their deadline must still terminate (the scheduler
  // cancels at TR); give them a generous grace window.
  drain(wall.Now() + args.tr + 10'000'000, [&] { return pending.empty(); });

  // close_session pushes terminal cancels for anything still live
  // before confirming — count those too.
  JsonValue close = JsonValue::Object();
  close.Set("type", "close_session");
  close.Set("session", *session);
  if (client->Send(close).ok()) {
    const Micros deadline = wall.Now() + 5'000'000;
    bool closed = false;
    while (!closed && wall.Now() < deadline) {
      JsonValue in;
      auto next = client->Next(&in, deadline - wall.Now());
      if (!next.ok() || !*next) break;
      const std::string type = in.GetString("type", "");
      if (type == "update") {
        handle_update(in);
      } else if (type == "session_closed") {
        closed = true;
      }
    }
  }

  const int64_t silent = static_cast<int64_t>(pending.size());
  report.Set("attempts", attempts);
  report.Set("submitted", submitted);
  report.Set("rejected", rejected);
  report.Set("degraded", degraded);
  report.Set("min_budget_scale", min_budget_scale);
  report.Set("queries_admitted", queries_admitted);
  report.Set("queries_finalized", queries_finalized);
  report.Set("silent_drops", silent);
  report.Set("protocol_errors", protocol_errors);
  JsonValue reasons = JsonValue::Object();
  for (const auto& [reason, count] : reject_reasons) reasons.Set(reason, count);
  report.Set("reject_reasons", std::move(reasons));
  report.Set("first_update_us", SamplesToJson(first_latencies));
  report.Set("final_us", SamplesToJson(final_latencies));
  std::cout << report.Dump() << "\n" << std::flush;
  return (silent > 0 || protocol_errors > 0) ? 1 : 0;
}

// --- Parent -----------------------------------------------------------------

struct WorkerHandle {
  pid_t pid = -1;
  int pipe_fd = -1;
  std::string output;
  int exit_code = -1;
  bool signaled = false;
};

/// Spawns one worker process: fork, stdout onto a pipe, execv of this
/// same binary in --worker mode.
WorkerHandle Spawn(const Args& args, int id, int port) {
  WorkerHandle handle;
  int fds[2];
  if (::pipe(fds) != 0) return handle;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return handle;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<std::string> argv_strings = {
        "serve_bench",       "--worker",
        "--id",              std::to_string(id),
        "--port",            std::to_string(port),
        "--host",            args.host,
        "--interactions",    std::to_string(args.interactions),
        "--seed",            std::to_string(args.seed),
        "--tr",              std::to_string(args.tr),
        "--think-ms",        std::to_string(args.think_ms),
    };
    std::vector<char*> argv;
    argv.reserve(argv_strings.size() + 1);
    for (std::string& s : argv_strings) argv.push_back(s.data());
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  handle.pid = pid;
  handle.pipe_fd = fds[0];
  return handle;
}

/// Reads every worker pipe to EOF (concurrently, so no worker blocks on
/// a full pipe), then reaps exit statuses.
void CollectWorkers(std::vector<WorkerHandle>* workers) {
  size_t open_pipes = 0;
  for (const WorkerHandle& w : *workers) {
    if (w.pipe_fd >= 0) ++open_pipes;
  }
  while (open_pipes > 0) {
    std::vector<pollfd> fds;
    std::vector<size_t> index;
    for (size_t i = 0; i < workers->size(); ++i) {
      if ((*workers)[i].pipe_fd >= 0) {
        fds.push_back({(*workers)[i].pipe_fd, POLLIN, 0});
        index.push_back(i);
      }
    }
    if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) break;
    for (size_t k = 0; k < fds.size(); ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP))) continue;
      WorkerHandle& w = (*workers)[index[k]];
      char buf[16 * 1024];
      const ssize_t n = ::read(w.pipe_fd, buf, sizeof(buf));
      if (n > 0) {
        w.output.append(buf, static_cast<size_t>(n));
      } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
        ::close(w.pipe_fd);
        w.pipe_fd = -1;
        --open_pipes;
      }
    }
  }
  for (WorkerHandle& w : *workers) {
    if (w.pid < 0) continue;
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    if (WIFEXITED(status)) {
      w.exit_code = WEXITSTATUS(status);
    } else {
      w.signaled = true;  // crash: killed by a signal
    }
  }
}

Micros Percentile(std::vector<Micros> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = std::min(
      samples.size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples.size() - 1) + 0.5));
  return samples[rank];
}

int RunParent(const Args& args) {
  idebench::datagen::FlightsSeedConfig datagen;
  datagen.rows = args.rows;
  datagen.seed = args.seed;
  auto table = idebench::datagen::GenerateFlightsSeed(datagen);
  if (!table.ok()) {
    std::cerr << "datagen failed: " << table.status().ToString() << "\n";
    return 1;
  }
  auto catalog = std::make_shared<idebench::storage::Catalog>();
  if (const auto st = catalog->AddTable(std::make_shared<idebench::storage::Table>(
          std::move(table).MoveValueUnsafe()));
      !st.ok()) {
    std::cerr << "catalog failed: " << st.ToString() << "\n";
    return 1;
  }
  catalog->set_nominal_rows(args.nominal);

  auto engine = idebench::engines::CreateEngine(
      args.engine, args.seed, /*threads=*/1, /*reuse_cache=*/false,
      /*sessions=*/args.hard);
  if (!engine.ok()) {
    std::cerr << "engine failed: " << engine.status().ToString() << "\n";
    return 1;
  }
  if (const auto prepared = (*engine)->Prepare(catalog); !prepared.ok()) {
    std::cerr << "prepare failed: " << prepared.status().ToString() << "\n";
    return 1;
  }

  ServerOptions options;
  options.port = 0;  // ephemeral
  options.wall_pacing = true;
  options.engine_label = args.engine;
  options.max_connections = args.clients + 8;
  options.scheduler.time_requirement = args.tr;
  options.scheduler.quantum = 50'000;
  options.ratekeeper.soft_live_limit = args.soft;
  options.ratekeeper.hard_live_limit = args.hard;

  auto server = Server::Create(options, engine->get(), catalog);
  if (!server.ok()) {
    std::cerr << "bind failed: " << server.status().ToString() << "\n";
    return 1;
  }
  const int port = (*server)->port();
  idebench::Status serve_status = idebench::Status::OK();
  std::thread serve_thread(
      [&] { serve_status = (*server)->Serve(); });

  std::cerr << "serve_bench: " << args.clients << " clients ("
            << args.interactions << " interactions each) against soft="
            << args.soft << " hard=" << args.hard << " on port " << port
            << "\n";
  std::vector<WorkerHandle> workers;
  workers.reserve(static_cast<size_t>(args.clients));
  for (int i = 0; i < args.clients; ++i) {
    workers.push_back(Spawn(args, i, port));
  }
  CollectWorkers(&workers);

  // The fleet is done: pull the server's own ledger over the wire.
  JsonValue server_stats;
  {
    auto probe = Client::Connect(args.host, port, "parent");
    if (probe.ok()) {
      JsonValue msg = JsonValue::Object();
      msg.Set("type", "stats");
      if ((*probe)->Send(msg).ok()) {
        auto reply = (*probe)->WaitFor("stats_report", 5'000'000);
        if (reply.ok()) server_stats = std::move(*reply);
      }
    }
  }
  (*server)->RequestStop();
  serve_thread.join();

  // Aggregate the worker reports.
  int crashes = 0, connect_failures = 0;
  int64_t attempts = 0, submitted = 0, rejected = 0, degraded = 0;
  int64_t queries_admitted = 0, queries_finalized = 0, silent_drops = 0;
  int64_t protocol_errors = 0;
  double min_budget_scale = 1.0;
  std::map<std::string, int64_t> reject_reasons;
  std::vector<Micros> first_latencies, final_latencies;
  for (const WorkerHandle& w : workers) {
    if (w.signaled || w.exit_code != 0) ++crashes;
    const size_t newline = w.output.find('\n');
    auto parsed = JsonValue::Parse(
        newline == std::string::npos ? w.output : w.output.substr(0, newline));
    if (!parsed.ok()) {
      ++crashes;  // no parseable report is as bad as a crash
      continue;
    }
    const JsonValue& r = *parsed;
    if (r.GetBool("connect_failed", false)) {
      ++connect_failures;
      continue;
    }
    attempts += r.GetInt("attempts", 0);
    submitted += r.GetInt("submitted", 0);
    rejected += r.GetInt("rejected", 0);
    degraded += r.GetInt("degraded", 0);
    queries_admitted += r.GetInt("queries_admitted", 0);
    queries_finalized += r.GetInt("queries_finalized", 0);
    silent_drops += r.GetInt("silent_drops", 0);
    protocol_errors += r.GetInt("protocol_errors", 0);
    min_budget_scale = std::min(min_budget_scale,
                                r.GetDouble("min_budget_scale", 1.0));
    const JsonValue& reasons = r.Get("reject_reasons");
    if (reasons.is_object()) {
      for (const auto& [key, value] : reasons.members()) {
        reject_reasons[key] += value.AsInt();
      }
    }
    const JsonValue& first = r.Get("first_update_us");
    for (size_t i = 0; i < first.size(); ++i) {
      first_latencies.push_back(first.at(i).AsInt());
    }
    const JsonValue& final_arr = r.Get("final_us");
    for (size_t i = 0; i < final_arr.size(); ++i) {
      final_latencies.push_back(final_arr.at(i).AsInt());
    }
  }

  JsonValue report = JsonValue::Object();
  report.Set("benchmark", "net_serving");
  report.Set("engine", args.engine);
  report.Set("clients", static_cast<int64_t>(args.clients));
  report.Set("interactions_per_client", static_cast<int64_t>(args.interactions));
  report.Set("time_requirement_us", args.tr);
  report.Set("soft_live_limit", static_cast<int64_t>(args.soft));
  report.Set("hard_live_limit", static_cast<int64_t>(args.hard));
  report.Set("attempts", attempts);
  report.Set("submitted", submitted);
  report.Set("rejected", rejected);
  report.Set("degraded", degraded);
  report.Set("min_budget_scale", min_budget_scale);
  report.Set("queries_admitted", queries_admitted);
  report.Set("queries_finalized", queries_finalized);
  report.Set("silent_drops", silent_drops);
  report.Set("protocol_errors", protocol_errors);
  report.Set("worker_crashes", static_cast<int64_t>(crashes));
  report.Set("connect_failures", static_cast<int64_t>(connect_failures));
  JsonValue reasons = JsonValue::Object();
  for (const auto& [reason, count] : reject_reasons) reasons.Set(reason, count);
  report.Set("reject_reasons", std::move(reasons));
  report.Set("p50_first_update_us", Percentile(first_latencies, 0.50));
  report.Set("p99_first_update_us", Percentile(first_latencies, 0.99));
  report.Set("p50_final_us", Percentile(final_latencies, 0.50));
  report.Set("p99_final_us", Percentile(final_latencies, 0.99));
  if (server_stats.is_object()) {
    report.Set("server", std::move(server_stats));
  }

  std::ofstream out(args.out);
  out << report.DumpPretty() << "\n";
  out.close();
  std::cout << "serve_bench: attempts=" << attempts << " submitted="
            << submitted << " rejected=" << rejected << " degraded="
            << degraded << " min_budget_scale=" << min_budget_scale
            << " finalized=" << queries_finalized << "/" << queries_admitted
            << " silent_drops=" << silent_drops << " crashes=" << crashes
            << "\n  p50_first=" << Percentile(first_latencies, 0.50) / 1000
            << "ms p99_first=" << Percentile(first_latencies, 0.99) / 1000
            << "ms p50_final=" << Percentile(final_latencies, 0.50) / 1000
            << "ms p99_final=" << Percentile(final_latencies, 0.99) / 1000
            << "ms -> " << args.out << "\n";

  if (!args.check) return 0;

  // CI smoke contract.
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
  };
  expect(serve_status.ok(), "server loop exited cleanly");
  expect(crashes == 0, "zero worker crashes");
  expect(silent_drops == 0, "zero silent drops");
  expect(protocol_errors == 0, "zero protocol errors");
  expect(queries_finalized == queries_admitted,
         "every admitted query delivered exactly one terminal update");
  expect(attempts == submitted + rejected,
         "every request answered: submitted or explicitly rejected");
  expect(submitted > 0, "some requests were admitted");
  if (args.clients > args.hard) {
    expect(degraded + rejected > 0,
           "overload visibly degraded or rejected at 2x capacity");
    expect(rejected == 0 || degraded > 0 || min_budget_scale < 1.0,
           "degradation engaged before refusal");
  }
  expect(!first_latencies.empty(), "latency samples recorded");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: serve_bench [--clients N] [--interactions K] "
                 "[--rows N] [--seed S] [--engine NAME] [--tr US] "
                 "[--soft N] [--hard N] [--think-ms MS] [--out PATH] "
                 "[--check]\n";
    return 2;
  }
  return args.worker ? RunWorker(args) : RunParent(args);
}
