/// \file crash_runner.cc
/// Deterministic kill–recover simulation harness for durable ingest.
///
/// Each cell = (crash site, seed).  The runner forks a child that runs a
/// full ingest-while-serving workload — write the segment-cache baseline,
/// open a durable ingestor (WAL), then append/publish/query in a loop,
/// acking every *durable* publish over a pipe.  The cell's chaos site is
/// armed with an exact seed-derived draw index and `kill_on_fire`, so the
/// child SIGKILLs itself mid-operation at a deterministic point (a
/// half-written WAL record, a commit that never synced, a torn segment
/// temp).  The parent then recovers — reload the baseline from segments,
/// replay the WAL — and checks the recovery contract:
///
///   * no partially visible epoch (watermark lands on a batch boundary,
///     nothing staged);
///   * committed epochs are never lost (recovered watermark >= the last
///     acked publish);
///   * post-recovery query transcripts (every progressive partial + the
///     final) are bit-identical to an uncrashed reference process that
///     published the same epochs, at threads 1 and 4;
///   * the child really died at the armed crash point: a child that runs
///     its workload to the end is a failed cell, not a pass.
///
/// Usage:
///   crash_runner [--seeds N] [--seed-base B] [--site NAME]
///                [--wal-sync MODE] [--list] [--replay SEED] [--verbose]
///                [--keep]
///
///   --seeds N       seeds per site (default 20)
///   --seed-base B   first seed (default 1)
///   --site NAME     restrict to one crash site (default: all four)
///   --wal-sync MODE every_commit (default) | grouped | none; acks are
///                   only sent for durable publishes, so weaker policies
///                   legitimately recover fewer (but never acked) epochs.
///                   The mode sets how many wal.fsync crash points exist
///   --list          print the crash-site catalog (draws per site under
///                   --wal-sync) and exit
///   --replay SEED   run one (site, seed) cell verbosely (requires --site)
///   --verbose       per-cell lines even when everything passes
///   --keep          keep each cell's scratch directory for inspection
///
/// Every failing cell prints the exact replay command.  Exit status is
/// the number of failing cells (capped at 99).

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_injector.h"
#include "datagen/flights_seed.h"
#include "engines/registry.h"
#include "ingest/ingest.h"
#include "net/protocol.h"
#include "storage/catalog.h"
#include "storage/segment.h"
#include "storage/table.h"

namespace {

using idebench::Micros;
using idebench::Status;
using idebench::chaos::FaultInjector;
using idebench::chaos::FaultSite;
using idebench::chaos::FaultSiteConfig;
using idebench::chaos::FaultSiteName;
using idebench::chaos::ScopedFaultInjector;
using idebench::ingest::Ingestor;
using idebench::ingest::RecoverInfo;
using idebench::ingest::RowBatch;
using idebench::ingest::WalOptions;
using idebench::ingest::WalSync;

// Workload shape: 12 epochs of 200 rows over a 4000-row baseline, every
// epoch queried after its publish.  Small enough to fork hundreds of
// times, large enough that every crash site draws several times.
constexpr int64_t kBaseRows = 4000;
constexpr int64_t kTailRows = 2400;
constexpr int64_t kBatchRows = 200;
constexpr int64_t kEpochs = kTailRows / kBatchRows;
constexpr int64_t kCapacity = kBaseRows + kTailRows;
constexpr uint64_t kEngineSeed = 7;
constexpr const char* kEngine = "progressive";

struct CrashSite {
  FaultSite site;
  const char* name;
  const char* description;
};

/// The swept sites.  The cell seed picks `fire_on_draw = seed % draws`
/// (see `Draws`), so a sweep of N >= draws seeds covers every crash point
/// at least once.
const std::vector<CrashSite>& SiteCatalog() {
  static const std::vector<CrashSite> kSites = {
      {FaultSite::kWalAppend, "wal.append",
       "die mid-write of a WAL batch record (torn tail)"},
      {FaultSite::kWalCommit, "wal.commit",
       "die mid-write of a WAL commit record (epoch must vanish)"},
      {FaultSite::kWalFsync, "wal.fsync",
       "die at a WAL fsync (commit logged but never acked)"},
      {FaultSite::kSegmentWrite, "segment.write",
       "die mid-write of a baseline segment/manifest file"},
  };
  return kSites;
}

/// How many times the workload draws `site` under `wal`.  Every epoch
/// logs one batch and one commit, and the baseline is one segment file
/// plus its manifest.  wal.fsync draws once per sync: at every commit
/// (every_commit) or every `group_commit_interval`-th (grouped), plus the
/// final `SyncWal` when commits are left unsynced (grouped, none).
int64_t Draws(const CrashSite& site, const WalOptions& wal) {
  switch (site.site) {
    case FaultSite::kWalFsync: {
      if (wal.sync == WalSync::kNone) return 1;
      const int64_t group =
          wal.sync == WalSync::kGrouped ? wal.group_commit_interval : 1;
      return kEpochs / group + (kEpochs % group != 0 ? 1 : 0);
    }
    case FaultSite::kSegmentWrite:
      return 2;
    default:
      return kEpochs;
  }
}

const CrashSite* FindSite(const std::string& name) {
  for (const CrashSite& s : SiteCatalog()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

struct Args {
  int seeds = 20;
  uint64_t seed_base = 1;
  std::string site;
  std::string wal_sync = "every_commit";
  bool list = false;
  bool verbose = false;
  bool replay = false;
  uint64_t replay_seed = 0;
  bool keep = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--seeds" && (v = next())) {
      args->seeds = std::atoi(v);
    } else if (arg == "--seed-base" && (v = next())) {
      args->seed_base = std::strtoull(v, nullptr, 10);
    } else if (arg == "--site" && (v = next())) {
      args->site = v;
    } else if (arg == "--wal-sync" && (v = next())) {
      args->wal_sync = v;
    } else if (arg == "--replay" && (v = next())) {
      args->replay = true;
      args->replay_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--list") {
      args->list = true;
    } else if (arg == "--verbose") {
      args->verbose = true;
    } else if (arg == "--keep") {
      args->keep = true;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Shared workload pieces

/// The full dataset for one cell; rows [0, kBaseRows) are the baseline,
/// the rest replay through the ingestor.  Seeded per cell so every cell
/// exercises different data.
std::shared_ptr<idebench::storage::Table> MakeSource(uint64_t seed) {
  idebench::datagen::FlightsSeedConfig config;
  config.rows = kBaseRows + kTailRows;
  config.seed = seed;
  auto table = idebench::datagen::GenerateFlightsSeed(config);
  if (!table.ok()) return nullptr;
  return std::make_shared<idebench::storage::Table>(
      std::move(table).MoveValueUnsafe());
}

std::shared_ptr<idebench::storage::Catalog> MakeBaselineCatalog(
    const std::shared_ptr<idebench::storage::Table>& source) {
  auto catalog = std::make_shared<idebench::storage::Catalog>();
  if (!catalog->AddTable(source->Prefix(kBaseRows)).ok()) return nullptr;
  catalog->set_nominal_rows(1'000'000);
  return catalog;
}

idebench::query::QuerySpec CountByCarrier(
    const idebench::storage::Catalog& catalog) {
  idebench::query::QuerySpec spec;
  spec.viz_name = "carrier_hist";
  idebench::query::BinDimension d;
  d.column = "carrier";
  d.mode = idebench::query::BinningMode::kNominal;
  spec.bins.push_back(d);
  idebench::query::AggregateSpec a;
  a.type = idebench::query::AggregateType::kCount;
  spec.aggregates.push_back(a);
  if (!spec.ResolveBins(catalog).ok()) std::abort();
  return spec;
}

/// Runs the fixture query to completion in fixed virtual-time slices and
/// returns the canonical JSON of every distinct poll plus the final — the
/// full progressive transcript, which recovery must reproduce bit for
/// bit (the sampling walk is a pure function of seed + epoch history).
std::vector<std::string> QueryTranscript(
    const std::shared_ptr<idebench::storage::Catalog>& catalog,
    int threads) {
  auto engine = idebench::engines::CreateEngine(kEngine, kEngineSeed,
                                                threads,
                                                /*reuse_cache=*/true);
  if (!engine.ok() || !(*engine)->Prepare(catalog).ok()) return {};
  auto handle = (*engine)->Submit(CountByCarrier(*catalog));
  if (!handle.ok()) return {};
  std::vector<std::string> transcript;
  for (int slice = 0; slice < 4096 && !(*engine)->IsDone(*handle); ++slice) {
    (*engine)->RunFor(*handle, 1'000'000);
    auto result = (*engine)->PollResult(*handle);
    if (result.ok() && result->available) {
      transcript.push_back(
          idebench::net::QueryResultToJson(*result).Dump());
    }
  }
  if (!(*engine)->IsDone(*handle)) transcript.push_back("<never finished>");
  return transcript;
}

// ---------------------------------------------------------------------
// Child: the ingest-while-serving workload that gets killed

/// Exit codes for non-crash child failures (a crashed child exits via
/// SIGKILL and reports no code at all).
enum ChildExit : int {
  kChildOk = 0,
  kChildSetupFailed = 3,
  kChildWorkloadFailed = 4,
};

void AckDurablePublish(int ack_fd, int64_t watermark) {
  const std::string line = "C " + std::to_string(watermark) + "\n";
  // A single short line: atomic on a pipe, and SIGKILL can't tear it.
  (void)!::write(ack_fd, line.data(), line.size());
}

int RunChild(const CrashSite& site, uint64_t seed, int64_t fire_on_draw,
             const WalOptions& wal, const std::string& dir, int ack_fd) {
  FaultInjector injector(seed);
  FaultSiteConfig config;
  config.fire_on_draw = fire_on_draw;
  injector.Arm(site.site, config);
  injector.set_kill_on_fire(true);
  ScopedFaultInjector scoped(&injector);

  auto source = MakeSource(seed);
  if (source == nullptr) return kChildSetupFailed;
  auto catalog = MakeBaselineCatalog(source);
  if (catalog == nullptr) return kChildSetupFailed;

  // The segment-cache baseline recovery will replay over.  segment.write
  // cells die inside this call.
  if (!idebench::storage::WriteCatalogSegments(*catalog, dir + "/baseline")
           .ok()) {
    return kChildSetupFailed;
  }

  auto ingestor = Ingestor::CreateDurable(catalog, kCapacity, dir + "/wal",
                                          wal);
  if (!ingestor.ok()) return kChildSetupFailed;

  auto engine = idebench::engines::CreateEngine(kEngine, kEngineSeed,
                                                /*threads=*/1,
                                                /*reuse_cache=*/true);
  if (!engine.ok() || !(*engine)->Prepare(catalog).ok()) {
    return kChildSetupFailed;
  }

  int64_t cursor = kBaseRows;
  for (int64_t epoch = 0; epoch < kEpochs; ++epoch) {
    const RowBatch batch = idebench::ingest::BatchFromTable(
        *source, cursor, cursor + kBatchRows);
    if (!(*ingestor)->Append(batch).ok()) return kChildWorkloadFailed;
    cursor += kBatchRows;
    auto watermark = (*ingestor)->Publish();
    if (!watermark.ok()) return kChildWorkloadFailed;
    // Only durable publishes are acked: under grouped/none sync a
    // publish the log hasn't fsynced yet may legitimately be lost.
    if ((*ingestor)->durable()) AckDurablePublish(ack_fd, *watermark);

    // Serve between publishes: a query pinned to the fresh watermark
    // runs to completion, so the kill lands while the engine holds
    // state over the very rows whose durability is in question.
    auto handle = (*engine)->Submit(CountByCarrier(*catalog));
    if (!handle.ok()) return kChildWorkloadFailed;
    for (int s = 0; s < 4096 && !(*engine)->IsDone(*handle); ++s) {
      (*engine)->RunFor(*handle, 1'000'000);
    }
    if (!(*engine)->IsDone(*handle)) return kChildWorkloadFailed;
  }
  if (!(*ingestor)->SyncWal().ok()) return kChildWorkloadFailed;
  if ((*ingestor)->durable()) {
    AckDurablePublish(ack_fd, (*ingestor)->visible_rows());
  }
  return kChildOk;
}

// ---------------------------------------------------------------------
// Parent: recover and check invariants

struct CellReport {
  std::string site;
  uint64_t seed = 0;
  bool crashed = false;      // child died by SIGKILL (vs clean exit)
  int child_exit = -1;       // exit code when not crashed
  int64_t last_ack = -1;     // highest acked watermark (-1: none)
  int64_t acks = 0;
  RecoverInfo recover;
  bool recovered = false;    // a WAL existed and replayed successfully
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

void Violate(CellReport* report, const std::string& detail) {
  report->violations.push_back(detail);
}

CellReport RunCell(const CrashSite& site, uint64_t seed,
                   const WalOptions& wal, bool keep) {
  CellReport report;
  report.site = site.name;
  report.seed = seed;
  const int64_t draws = Draws(site, wal);
  const int64_t fire_on_draw = static_cast<int64_t>(seed) % draws;

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("crash_runner_" + std::string(site.name) + "_" +
        std::to_string(seed)))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    Violate(&report, "cannot create scratch dir '" + dir + "'");
    return report;
  }

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    Violate(&report, "pipe() failed");
    return report;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    Violate(&report, "fork() failed");
    return report;
  }
  if (pid == 0) {
    ::close(pipe_fds[0]);
    const int rc = RunChild(site, seed, fire_on_draw, wal, dir, pipe_fds[1]);
    ::close(pipe_fds[1]);
    ::_exit(rc);
  }
  ::close(pipe_fds[1]);

  // Drain acks until the child dies (EOF closes the pipe either way).
  std::string acks;
  char buf[256];
  for (;;) {
    const ssize_t n = ::read(pipe_fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    acks.append(buf, static_cast<size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  report.crashed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  report.child_exit = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  if (!report.crashed && report.child_exit != kChildOk) {
    Violate(&report, "child failed without crashing (exit " +
                         std::to_string(report.child_exit) + ")");
  }
  // The armed draw is always below the site's draw count, so a child
  // that finishes its workload skipped the crash point the cell sweeps.
  if (!report.crashed && report.child_exit == kChildOk) {
    Violate(&report, "crash point never reached (draw " +
                         std::to_string(fire_on_draw) + " of " +
                         std::to_string(draws) + ")");
  }

  size_t pos = 0;
  while (pos < acks.size()) {
    const size_t eol = acks.find('\n', pos);
    if (eol == std::string::npos) break;  // torn final line: ignore
    const std::string line = acks.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() > 2 && line[0] == 'C') {
      const int64_t w = std::strtoll(line.c_str() + 2, nullptr, 10);
      if (w > report.last_ack) report.last_ack = w;
      ++report.acks;
    }
  }

  // --- Recovery ------------------------------------------------------
  const std::string wal_file = Ingestor::WalPath(dir + "/wal");
  auto baseline =
      idebench::storage::LoadCatalogSegments(dir + "/baseline");
  if (!baseline.ok()) {
    // Baseline never finished (a segment.write crash): nothing may have
    // been acked, because the ingestor is created only after the
    // baseline write succeeds.
    if (report.acks > 0) {
      Violate(&report, "baseline unreadable but " +
                           std::to_string(report.acks) + " acks were sent: " +
                           baseline.status().ToString());
    }
    if (std::filesystem::exists(wal_file)) {
      Violate(&report, "baseline unreadable but a WAL exists — creation "
                       "order violated");
    }
    if (!keep) std::filesystem::remove_all(dir, ec);
    return report;
  }
  auto catalog = std::make_shared<idebench::storage::Catalog>(
      std::move(*baseline));

  if (!std::filesystem::exists(wal_file)) {
    // Died between the baseline write and WAL creation.
    if (report.acks > 0) {
      Violate(&report, "no WAL but " + std::to_string(report.acks) +
                           " acks were sent");
    }
    if (!keep) std::filesystem::remove_all(dir, ec);
    return report;
  }

  auto recovered =
      Ingestor::Recover(catalog, kCapacity, dir + "/wal", wal,
                        &report.recover);
  if (!recovered.ok()) {
    Violate(&report,
            "recovery failed: " + recovered.status().ToString());
    if (!keep) std::filesystem::remove_all(dir, ec);
    return report;
  }
  report.recovered = true;
  const int64_t watermark = (*recovered)->visible_rows();

  // Invariant: committed (acked-durable) epochs are never lost.
  if (report.last_ack >= 0 && watermark < report.last_ack) {
    Violate(&report, "committed epoch lost: recovered watermark " +
                         std::to_string(watermark) + " < last ack " +
                         std::to_string(report.last_ack));
  }
  // Invariant: no partially visible epoch.
  if ((watermark - kBaseRows) % kBatchRows != 0) {
    Violate(&report, "partial epoch visible: watermark " +
                         std::to_string(watermark) +
                         " not on a batch boundary");
  }
  if ((*recovered)->staged_rows() != 0) {
    Violate(&report, "recovery left " +
                         std::to_string((*recovered)->staged_rows()) +
                         " rows staged");
  }
  if (watermark < kBaseRows || watermark > kCapacity) {
    Violate(&report,
            "watermark out of range: " + std::to_string(watermark));
  }
  // A clean (uncrashed) run must have lost nothing at all.
  if (!report.crashed && report.child_exit == kChildOk &&
      watermark != kCapacity) {
    Violate(&report, "clean run recovered watermark " +
                         std::to_string(watermark) + ", want " +
                         std::to_string(kCapacity));
  }

  // Invariant: post-recovery transcripts are bit-identical to a process
  // that never crashed but published the same epochs, at threads 1 & 4.
  const int64_t epochs = (watermark - kBaseRows) / kBatchRows;
  auto ref_source = MakeSource(seed);
  auto ref_catalog =
      ref_source != nullptr ? MakeBaselineCatalog(ref_source) : nullptr;
  if (ref_catalog == nullptr) {
    Violate(&report, "reference rebuild failed");
  } else {
    auto ref_ingestor = Ingestor::Create(ref_catalog, kCapacity);
    bool ref_ok = ref_ingestor.ok();
    int64_t cursor = kBaseRows;
    for (int64_t e = 0; ref_ok && e < epochs; ++e) {
      ref_ok = (*ref_ingestor)
                   ->Append(idebench::ingest::BatchFromTable(
                       *ref_source, cursor, cursor + kBatchRows))
                   .ok() &&
               (*ref_ingestor)->Publish().ok();
      cursor += kBatchRows;
    }
    if (!ref_ok) {
      Violate(&report, "reference replay failed");
    } else {
      for (const int threads : {1, 4}) {
        const auto got = QueryTranscript(catalog, threads);
        const auto want = QueryTranscript(ref_catalog, threads);
        if (got.empty() || got != want) {
          Violate(&report,
                  "transcript mismatch vs uncrashed reference at threads=" +
                      std::to_string(threads) + " (" +
                      std::to_string(got.size()) + " vs " +
                      std::to_string(want.size()) + " polls)");
        }
      }
    }
  }

  if (!keep) std::filesystem::remove_all(dir, ec);
  return report;
}

std::string CellName(const CellReport& r) {
  return r.site + " / seed " + std::to_string(r.seed);
}

void PrintReport(const CellReport& r, const std::string& wal_sync,
                 bool verbose) {
  if (r.ok() && !verbose) return;
  std::cout << CellName(r) << (r.ok() ? ": ok" : ": FAILED") << "\n";
  std::cout << "  " << (r.crashed ? "killed by SIGKILL" : "clean exit")
            << " acks=" << r.acks << " last_ack=" << r.last_ack
            << " recovered=" << (r.recovered ? "yes" : "no")
            << " watermark=" << r.recover.watermark
            << " epochs=" << r.recover.epochs_replayed
            << " dropped_uncommitted=" << r.recover.uncommitted_rows_dropped
            << " torn_bytes=" << r.recover.torn_bytes_dropped << "\n";
  for (const std::string& v : r.violations) {
    std::cout << "  violation: " << v << "\n";
  }
  if (!r.ok()) {
    std::cout << "  replay: crash_runner --site " << r.site
              << " --wal-sync " << wal_sync << " --replay " << r.seed << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: crash_runner [--seeds N] [--seed-base B] "
                 "[--site NAME] [--wal-sync MODE] [--list] "
                 "[--replay SEED] [--verbose] [--keep]\n";
    return 100;
  }
  WalOptions wal;
  if (!idebench::ingest::ParseWalSync(args.wal_sync, &wal.sync)) {
    std::cerr << "unknown --wal-sync mode: " << args.wal_sync << "\n";
    return 100;
  }
  if (args.list) {
    std::cout << "crash sites (fire_on_draw = seed % draws, wal-sync="
              << args.wal_sync << "):\n";
    for (const CrashSite& s : SiteCatalog()) {
      std::cout << "  " << s.name << "  draws=" << Draws(s, wal)
                << "\n      " << s.description << "\n";
    }
    return 0;
  }

  std::vector<const CrashSite*> sites;
  if (!args.site.empty()) {
    const CrashSite* s = FindSite(args.site);
    if (s == nullptr) {
      std::cerr << "unknown site: " << args.site << " (try --list)\n";
      return 100;
    }
    sites.push_back(s);
  } else {
    for (const CrashSite& s : SiteCatalog()) sites.push_back(&s);
  }

  if (args.replay) {
    if (sites.size() != 1) {
      std::cerr << "--replay requires --site\n";
      return 100;
    }
    const CellReport r =
        RunCell(*sites[0], args.replay_seed, wal, args.keep);
    PrintReport(r, args.wal_sync, /*verbose=*/true);
    return r.ok() ? 0 : 1;
  }

  int failures = 0;
  int cells = 0;
  int crashes = 0;
  for (const CrashSite* site : sites) {
    for (int i = 0; i < args.seeds; ++i) {
      const CellReport r =
          RunCell(*site, args.seed_base + static_cast<uint64_t>(i), wal,
                  args.keep);
      ++cells;
      if (r.crashed) ++crashes;
      if (!r.ok()) ++failures;
      PrintReport(r, args.wal_sync, args.verbose);
    }
  }
  std::cout << "crash sweep: " << cells << " cells, " << crashes
            << " killed, " << failures << " failed (wal-sync="
            << args.wal_sync << ")\n";
  return std::min(failures, 99);
}
