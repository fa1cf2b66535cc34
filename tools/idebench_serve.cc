/// \file idebench_serve.cc
/// Standalone serving front-end: binds the overload-hardened socket
/// server (net/server.h) over one simulated engine and the synthetic
/// flights dataset, and serves framed-JSON clients until SIGINT/SIGTERM.
///
/// Usage:
///   idebench_serve [--port P] [--host H] [--engine NAME] [--rows N]
///                  [--nominal N] [--seed S] [--threads N]
///                  [--time-requirement US] [--quantum US]
///                  [--soft N] [--hard N] [--virtual] [--reuse-cache]
///                  [--ingest-rate R] [--ingest-tail N]
///
///   --port P              listening port (default 8765; 0 = ephemeral)
///   --host H              bind address (default 127.0.0.1)
///   --engine NAME         engine to serve (default progressive)
///   --rows N              synthetic seed rows (default 50000)
///   --nominal N           nominal dataset size for estimates (default 10M)
///   --seed S              datagen + engine seed (default 42)
///   --threads N           engine execution threads (default 1)
///   --time-requirement US per-interaction deadline (default 3s)
///   --quantum US          scheduler slice (default 50ms)
///   --soft N / --hard N   ratekeeper live-query limits (default 32/64)
///   --virtual             virtual-clock pacing instead of wall pacing
///   --reuse-cache         enable the cross-interaction reuse cache
///   --ingest-rate R       replay the generated tail through `append` frames
///                         at R rows/sec (default 0 = no ingest); each batch
///                         publishes its epoch, so clients see the
///                         watermark advance while they query
///   --ingest-tail N       rows generated beyond --rows as the ingest
///                         tail (default 5000; exhausted tail ends the
///                         feed, serving continues)
///   --wal-dir DIR         durable ingest: log appends/publishes to a
///                         write-ahead log in DIR.  When DIR already
///                         holds a log, the committed epochs are
///                         recovered over the (re-generated, identical)
///                         baseline before serving and the feed resumes
///                         past them; otherwise a fresh log starts.
///                         `append` replies gain "durable", SIGTERM
///                         drains the log before exit.
///   --wal-sync MODE       every_commit (default) | grouped | none
///   --wal-group N         commits per fsync under grouped (default 8)
///
/// The bound port is printed as the first stdout line ("listening HOST
/// PORT"), so callers binding port 0 can discover it.  On shutdown the
/// server drains every connection and prints a stats summary.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/flights_seed.h"
#include "engines/registry.h"
#include "ingest/ingest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "storage/catalog.h"

namespace {

using idebench::JsonValue;
using idebench::Micros;
using idebench::net::Client;
using idebench::net::Server;
using idebench::net::ServerOptions;

struct Args {
  int port = 8765;
  std::string host = "127.0.0.1";
  std::string engine = "progressive";
  int64_t rows = 50'000;
  int64_t nominal = 10'000'000;
  uint64_t seed = 42;
  int threads = 1;
  Micros time_requirement = 3'000'000;
  Micros quantum = 50'000;
  int soft = 32;
  int hard = 64;
  bool wall = true;
  bool reuse_cache = false;
  double ingest_rate = 0.0;
  int64_t ingest_tail = 5'000;
  std::string wal_dir;
  std::string wal_sync = "every_commit";
  int64_t wal_group = 8;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--port" && (v = next())) {
      args->port = std::atoi(v);
    } else if (arg == "--host" && (v = next())) {
      args->host = v;
    } else if (arg == "--engine" && (v = next())) {
      args->engine = v;
    } else if (arg == "--rows" && (v = next())) {
      args->rows = std::strtoll(v, nullptr, 10);
    } else if (arg == "--nominal" && (v = next())) {
      args->nominal = std::strtoll(v, nullptr, 10);
    } else if (arg == "--seed" && (v = next())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads" && (v = next())) {
      args->threads = std::atoi(v);
    } else if (arg == "--time-requirement" && (v = next())) {
      args->time_requirement = std::strtoll(v, nullptr, 10);
    } else if (arg == "--quantum" && (v = next())) {
      args->quantum = std::strtoll(v, nullptr, 10);
    } else if (arg == "--soft" && (v = next())) {
      args->soft = std::atoi(v);
    } else if (arg == "--hard" && (v = next())) {
      args->hard = std::atoi(v);
    } else if (arg == "--virtual") {
      args->wall = false;
    } else if (arg == "--reuse-cache") {
      args->reuse_cache = true;
    } else if (arg == "--ingest-rate" && (v = next())) {
      args->ingest_rate = std::strtod(v, nullptr);
    } else if (arg == "--ingest-tail" && (v = next())) {
      args->ingest_tail = std::strtoll(v, nullptr, 10);
    } else if (arg == "--wal-dir" && (v = next())) {
      args->wal_dir = v;
    } else if (arg == "--wal-sync" && (v = next())) {
      args->wal_sync = v;
    } else if (arg == "--wal-group" && (v = next())) {
      args->wal_group = std::strtoll(v, nullptr, 10);
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      return false;
    }
  }
  return true;
}

std::atomic<Server*> g_server{nullptr};
std::atomic<bool> g_stop_feed{false};

void HandleSignal(int) {
  g_stop_feed.store(true, std::memory_order_release);
  Server* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestStop();
}

/// Replays the generated tail rows `[begin, source->num_rows())` through
/// the wire `append` frame as a loopback client: each tick renders a
/// batch's fields as text (`BatchFromTable`, the append frame's field
/// contract), sends it with publish=true, and honors explicit rejections
/// by retrying the same rows next tick — so ingest backs off exactly when
/// the ratekeeper sheds it.
void IngestFeed(const std::string& host, int port,
                std::shared_ptr<const idebench::storage::Table> source,
                int64_t begin, double rate) {
  constexpr Micros kTick = 250'000;
  const int64_t per_tick = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(rate * kTick / 1e6)));

  auto client = Client::Connect(host, port, "ingest-feeder");
  if (!client.ok()) {
    std::cerr << "ingest feeder connect failed: "
              << client.status().ToString() << "\n";
    return;
  }

  int64_t cursor = begin;
  int64_t request = 0;
  int64_t rows_appended = 0;
  int64_t epochs = 0;
  int64_t rejected = 0;
  while (!g_stop_feed.load(std::memory_order_acquire) &&
         cursor < source->num_rows()) {
    const auto tick_start = std::chrono::steady_clock::now();
    const int64_t end = std::min(cursor + per_tick, source->num_rows());

    const idebench::ingest::RowBatch batch =
        idebench::ingest::BatchFromTable(*source, cursor, end);
    JsonValue msg = JsonValue::Object();
    msg.Set("type", "append");
    msg.Set("request", ++request);
    JsonValue rows = JsonValue::Array();
    for (const std::vector<std::string>& row : batch.rows) {
      JsonValue wire_row = JsonValue::Array();
      for (const std::string& field : row) wire_row.Append(field);
      rows.Append(std::move(wire_row));
    }
    msg.Set("rows", std::move(rows));
    msg.Set("publish", true);
    if (!(*client)->Send(msg).ok()) break;

    bool advanced = false;
    JsonValue reply;
    while (true) {
      auto got = (*client)->Next(&reply, 5 * idebench::kMicrosPerSecond);
      if (!got.ok() || !*got) break;  // torn feed: the server serves on
      const std::string type = idebench::net::MessageType(reply);
      if (type == "appended") {
        advanced = true;
        break;
      }
      if (type == "rejected") {
        ++rejected;
        break;  // shed under load: retry the same rows next tick
      }
    }
    if (advanced) {
      rows_appended += end - cursor;
      ++epochs;
      cursor = end;
    }

    std::this_thread::sleep_until(tick_start +
                                  std::chrono::microseconds(kTick));
  }
  std::cout << "ingest feed done: rows=" << rows_appended
            << " epochs=" << epochs << " shed=" << rejected << "\n"
            << std::flush;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: idebench_serve [--port P] [--host H] "
                 "[--engine NAME] [--rows N] [--nominal N] [--seed S] "
                 "[--threads N] [--time-requirement US] [--quantum US] "
                 "[--soft N] [--hard N] [--virtual] [--reuse-cache] "
                 "[--ingest-rate R] [--ingest-tail N] [--wal-dir DIR] "
                 "[--wal-sync MODE] [--wal-group N]\n";
    return 2;
  }

  const bool ingest_on = args.ingest_rate > 0.0 && args.ingest_tail > 0;

  idebench::datagen::FlightsSeedConfig datagen;
  datagen.rows = args.rows + (ingest_on ? args.ingest_tail : 0);
  datagen.seed = args.seed;
  auto table = idebench::datagen::GenerateFlightsSeed(datagen);
  if (!table.ok()) {
    std::cerr << "datagen failed: " << table.status().ToString() << "\n";
    return 1;
  }
  auto source = std::make_shared<idebench::storage::Table>(
      std::move(table).MoveValueUnsafe());

  // Under ingest the generated table splits in two: the first --rows rows
  // seed the served fact table, the tail replays through `append` frames.
  const auto fact = ingest_on ? source->Prefix(args.rows) : source;

  auto catalog = std::make_shared<idebench::storage::Catalog>();
  if (const auto st = catalog->AddTable(fact); !st.ok()) {
    std::cerr << "catalog failed: " << st.ToString() << "\n";
    return 1;
  }
  catalog->set_nominal_rows(args.nominal);

  std::unique_ptr<idebench::ingest::Ingestor> ingestor;
  int64_t feed_begin = args.rows;
  if (ingest_on) {
    if (!args.wal_dir.empty()) {
      idebench::ingest::WalOptions wal_options;
      if (!idebench::ingest::ParseWalSync(args.wal_sync, &wal_options.sync)) {
        std::cerr << "unknown --wal-sync mode: " << args.wal_sync << "\n";
        return 2;
      }
      wal_options.group_commit_interval = args.wal_group;

      std::error_code ec;
      const bool have_log = std::filesystem::exists(
          idebench::ingest::Ingestor::WalPath(args.wal_dir), ec);
      if (have_log) {
        idebench::ingest::RecoverInfo info;
        auto recovered = idebench::ingest::Ingestor::Recover(
            catalog, source->num_rows(), args.wal_dir, wal_options, &info);
        if (!recovered.ok()) {
          std::cerr << "wal recovery failed: "
                    << recovered.status().ToString() << "\n";
          return 1;
        }
        ingestor = std::move(*recovered);
        // Committed epochs are back; the feed resumes past them.
        feed_begin = ingestor->visible_rows();
        std::cout << "recovered wal: epochs=" << info.epochs_replayed
                  << " rows=" << info.rows_replayed
                  << " watermark=" << info.watermark
                  << " dropped_uncommitted=" << info.uncommitted_rows_dropped
                  << " torn_bytes=" << info.torn_bytes_dropped << "\n"
                  << std::flush;
      } else {
        auto created = idebench::ingest::Ingestor::CreateDurable(
            catalog, source->num_rows(), args.wal_dir, wal_options);
        if (!created.ok()) {
          std::cerr << "durable ingestor failed: "
                    << created.status().ToString() << "\n";
          return 1;
        }
        ingestor = std::move(*created);
      }
    } else {
      auto created =
          idebench::ingest::Ingestor::Create(catalog, source->num_rows());
      if (!created.ok()) {
        std::cerr << "ingestor failed: " << created.status().ToString()
                  << "\n";
        return 1;
      }
      ingestor = std::move(*created);
    }
  }

  auto engine = idebench::engines::CreateEngine(
      args.engine, args.seed, args.threads, args.reuse_cache,
      /*sessions=*/args.hard);
  if (!engine.ok()) {
    std::cerr << "engine '" << args.engine
              << "' failed: " << engine.status().ToString() << "\n";
    return 1;
  }
  if (const auto prepared = (*engine)->Prepare(catalog); !prepared.ok()) {
    std::cerr << "prepare failed: " << prepared.status().ToString() << "\n";
    return 1;
  }

  ServerOptions options;
  options.host = args.host;
  options.port = args.port;
  options.wall_pacing = args.wall;
  options.engine_label = args.engine;
  options.scheduler.time_requirement = args.time_requirement;
  options.scheduler.quantum = args.quantum;
  options.ratekeeper.soft_live_limit = args.soft;
  options.ratekeeper.hard_live_limit = args.hard;

  auto server = Server::Create(options, engine->get(), catalog);
  if (!server.ok()) {
    std::cerr << "bind failed: " << server.status().ToString() << "\n";
    return 1;
  }
  if (ingestor != nullptr) (*server)->AttachIngestor(ingestor.get());
  g_server.store(server->get(), std::memory_order_release);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::cout << "listening " << args.host << " " << (*server)->port() << "\n"
            << std::flush;
  std::thread feeder;
  if (ingestor != nullptr) {
    feeder = std::thread(IngestFeed, args.host, (*server)->port(), source,
                         feed_begin, args.ingest_rate);
  }
  const auto status = (*server)->Serve();
  g_server.store(nullptr, std::memory_order_release);
  g_stop_feed.store(true, std::memory_order_release);
  if (feeder.joinable()) feeder.join();
  // SIGTERM drain: whatever the sync policy left unsynced reaches disk
  // before we exit, so a clean shutdown loses nothing.
  if (ingestor != nullptr) {
    if (const auto st = ingestor->SyncWal(); !st.ok()) {
      std::cerr << "wal drain failed: " << st.ToString() << "\n";
    }
  }
  if (!status.ok()) {
    std::cerr << "serve failed: " << status.ToString() << "\n";
    return 1;
  }

  const auto& stats = (*server)->stats();
  const auto rk = (*server)->ratekeeper().stats();
  std::cout << "drained: connections=" << stats.connections_accepted
            << " frames_in=" << stats.frames_received
            << " updates_out=" << stats.updates_sent
            << " coalesced=" << stats.partials_coalesced
            << " dropped=" << stats.partials_dropped
            << " slow_disconnects=" << stats.slow_client_disconnects
            << " admitted=" << rk.admitted << " degraded=" << rk.degraded
            << " throttled=" << rk.throttled << " rejected=" << rk.rejected
            << " max_backlog=" << stats.max_backlog << "\n";
  if (ingestor != nullptr) {
    const auto& in = ingestor->stats();
    std::cout << "ingested: rows=" << in.rows_staged
              << " epochs=" << in.epochs_published
              << " rejected=" << in.rejected_rows
              << " visible=" << ingestor->visible_rows()
              << " staged=" << ingestor->staged_rows() << "\n";
    if (ingestor->wal() != nullptr) {
      const auto& ws = ingestor->wal()->stats();
      std::cout << "wal: batches=" << ws.batches_logged
                << " commits=" << ws.commits_logged
                << " syncs=" << ws.syncs << " bytes=" << ws.bytes_logged
                << " durable=" << (ingestor->durable() ? "true" : "false")
                << "\n";
    }
  }
  return 0;
}
