#ifndef IDEBENCH_CHAOS_FAULT_INJECTOR_H_
#define IDEBENCH_CHAOS_FAULT_INJECTOR_H_

/// \file fault_injector.h
/// Seeded, deterministic fault injection for the chaos harness.
///
/// A `FaultInjector` owns one independent xoshiro stream per *injection
/// site* (forked from a single master seed), so whether a given draw at a
/// given site fires is a pure function of `(seed, site, draw index)` —
/// never of wall time, thread scheduling, or what other sites drew in
/// between.  Two runs with the same seed therefore inject the exact same
/// faults at the exact same points, which is what makes every chaotic
/// schedule replayable (FDB-simulation style).
///
/// Sites are threaded through the layers that matter:
///
///  * `kEnginePrepare` — `EngineBase::Attach` fails with an I/O-style
///    error before binding the catalog (engines recover on re-Prepare);
///  * `kEngineRun` — `EngineBase::RunFor` wedges the query: the handle
///    stops making progress and `PollResult` reports the fault, which the
///    session scheduler turns into a cancel + resubmit with virtual-time
///    backoff;
///  * `kMorselSlowdown` — `exec::MorselProcess*` degrades to one-batch
///    morsels (maximum merge overhead; results bit-identical by the
///    morsel determinism contract);
///  * `kWorkerPoolStall` — `WorkerPool::ParallelFor` refuses to dispatch
///    and drains the job inline on the calling thread (a stalled pool
///    must degrade, never hang);
///  * `kReusePoison` — a reuse-cache lookup that found a snapshot treats
///    it as corrupt: the entry is dropped and the query pays the physical
///    work (results unchanged by the cache transparency contract);
///  * `kReuseEvictStorm` — a store first evicts every resident snapshot;
///  * `kCsvOpen` / `kCsvAlloc` — `storage::ReadCsv`/`WriteCsv` fail with
///    I/O-style and allocation-style `Status` errors;
///  * `kNetAccept` — the serving loop refuses an incoming connection
///    (accept fails transiently; the listener must keep serving);
///  * `kNetRead` — a connection read fails mid-stream: the server drops
///    the connection and must drain its sessions cleanly;
///  * `kNetWrite` — a connection write fails / the client stops reading:
///    backpressure coalesces partials, finals still reach the queue or
///    the disconnect is counted explicitly;
///  * `kNetPartialFrame` — an outbound frame is split at an arbitrary
///    byte boundary (the decoder must reassemble, never misparse);
///  * `kSegmentOpen` — `storage::SegmentFile::Open` fails before the
///    file descriptor is obtained (transient filesystem error; callers
///    fall back to rebuilding from source data);
///  * `kSegmentMmap` — the mmap of an opened segment file fails (address
///    space exhaustion style; the fd must still be closed);
///  * `kSegmentChecksum` — the footer checksum verification reports a
///    mismatch even though the bytes are intact (torn write / bit rot:
///    the file must be rejected wholesale, never half-loaded);
///  * `kIngestAppend` — `ingest::Ingestor::Append` fails I/O-style
///    before staging any row of the batch (all-or-nothing: a failed
///    append must leave the open epoch exactly as it was);
///  * `kIngestPublish` — `ingest::Ingestor::Publish` fails before moving
///    the watermark: staged rows stay invisible and a later publish
///    picks them up (visibility is atomic or not at all);
///  * `kWalAppend` — a WAL batch record fails *mid-write* (short write /
///    ENOSPC): the writer must truncate back to the record boundary so
///    the log never holds a half-record, and the append must surface an
///    error without staging anything;
///  * `kWalCommit` — a WAL epoch-commit record fails mid-write, same
///    truncate-back contract: a failed publish leaves the log equal to
///    the committed history plus fully-framed batch records;
///  * `kWalFsync` — the fsync that makes a commit durable fails: the
///    commit record is rolled back off the log and the publish reports
///    an I/O error with the watermark unmoved;
///  * `kSegmentWrite` — a segment/manifest file write fails mid-stream
///    (ENOSPC-style): the writer must surface a `Status` error and leave
///    no torn destination file behind (temp files are unlinked).
///
/// Installation is process-global (`Install`/`ScopedFaultInjector`) so
/// deep layers need no plumbing; when nothing is installed every site
/// check is a single relaxed atomic load.  `ShouldFire` serializes draws
/// with a mutex: replayability additionally requires that the *order* of
/// draws per site be deterministic, which holds in chaos runs because all
/// sites are driven from the single scheduling thread.
///
/// Crash simulation: `set_kill_on_fire(true)` turns every fire into an
/// immediate `SIGKILL` of the calling process — the site placements above
/// are deliberately *mid-operation*, so a kill there leaves exactly the
/// torn on-disk state a real crash would (a half-written WAL record, a
/// commit that never synced, a segment temp file).  Combined with
/// `FaultSiteConfig::fire_on_draw` (fire exactly on the Nth draw of a
/// site, no randomness consumed), a (site, draw) pair fully determines
/// the crash point, which is what `crash_runner` sweeps and replays.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/random.h"

namespace idebench::chaos {

/// Named injection sites (stable ordinals: per-site rng streams fork on
/// them, so reordering would change every seeded schedule).
enum class FaultSite : int {
  kEnginePrepare = 0,
  kEngineRun = 1,
  kMorselSlowdown = 2,
  kWorkerPoolStall = 3,
  kReusePoison = 4,
  kReuseEvictStorm = 5,
  kCsvOpen = 6,
  kCsvAlloc = 7,
  kNetAccept = 8,
  kNetRead = 9,
  kNetWrite = 10,
  kNetPartialFrame = 11,
  kSegmentOpen = 12,
  kSegmentMmap = 13,
  kSegmentChecksum = 14,
  kIngestAppend = 15,
  kIngestPublish = 16,
  kWalAppend = 17,
  kWalFsync = 18,
  kWalCommit = 19,
  kSegmentWrite = 20,
};

inline constexpr int kFaultSiteCount = 21;

/// Stable human-readable site name ("engine.prepare", ...).
const char* FaultSiteName(FaultSite site);

/// Per-site arming: fire with `probability` per draw, at most `budget`
/// times (-1 = unlimited).  A zero probability site never draws from its
/// stream, so arming extra sites never perturbs another site's schedule.
///
/// `fire_on_draw >= 0` replaces the probabilistic trigger with an exact
/// one: the site fires on precisely that 0-based draw index and no other,
/// consuming no randomness (the site's rng stream stays untouched, so a
/// deterministic crash point never perturbs a probabilistic schedule).
struct FaultSiteConfig {
  double probability = 0.0;
  int64_t budget = -1;
  int64_t fire_on_draw = -1;
};

/// Per-site telemetry.
struct FaultSiteStats {
  int64_t draws = 0;  // times the site was evaluated while armed
  int64_t fires = 0;  // times it injected
};

class FaultInjector {
 public:
  /// All sites disarmed; arm with `Arm`.
  explicit FaultInjector(uint64_t seed);

  /// Arms one site.
  void Arm(FaultSite site, FaultSiteConfig config);

  /// Deterministic draw: true when the site fires this time.  Disarmed
  /// sites return false without consuming randomness.
  bool ShouldFire(FaultSite site);

  /// Crash mode: when set, any fire raises SIGKILL on the calling process
  /// instead of returning — the process dies exactly at the injection
  /// point, torn state and all.  Used by `crash_runner`'s forked children.
  void set_kill_on_fire(bool kill) { kill_on_fire_ = kill; }

  FaultSiteStats site_stats(FaultSite site) const;

  /// Total fires across all sites.
  int64_t total_fires() const;

  /// One line per armed site: "engine.run: 3/17" (fires/draws).
  std::string Summary() const;

  /// Process-global installation; pass nullptr to uninstall.  Returns the
  /// previously installed injector.
  static FaultInjector* Install(FaultInjector* injector);

  /// The installed injector, or nullptr (the common, fault-free case).
  static FaultInjector* Current();

  /// Convenience for call sites: draws on the installed injector, false
  /// when none is installed.
  static bool Fire(FaultSite site);

 private:
  struct Site {
    FaultSiteConfig config;
    Rng rng{0};
    FaultSiteStats stats;
  };

  mutable std::mutex mu_;
  std::array<Site, kFaultSiteCount> sites_;
  bool kill_on_fire_ = false;
};

/// RAII installer: installs `injector` for the enclosing scope and
/// restores the previous one on destruction.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector)
      : previous_(FaultInjector::Install(injector)) {}
  ~ScopedFaultInjector() { FaultInjector::Install(previous_); }

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace idebench::chaos

#endif  // IDEBENCH_CHAOS_FAULT_INJECTOR_H_
