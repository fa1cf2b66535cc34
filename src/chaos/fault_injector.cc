#include "chaos/fault_injector.h"

#include <signal.h>
#include <unistd.h>

#include <sstream>

namespace idebench::chaos {

namespace {

std::atomic<FaultInjector*> g_injector{nullptr};

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kEnginePrepare:
      return "engine.prepare";
    case FaultSite::kEngineRun:
      return "engine.run";
    case FaultSite::kMorselSlowdown:
      return "exec.morsel_slowdown";
    case FaultSite::kWorkerPoolStall:
      return "exec.worker_pool_stall";
    case FaultSite::kReusePoison:
      return "reuse.poison";
    case FaultSite::kReuseEvictStorm:
      return "reuse.evict_storm";
    case FaultSite::kCsvOpen:
      return "csv.open";
    case FaultSite::kCsvAlloc:
      return "csv.alloc";
    case FaultSite::kNetAccept:
      return "net.accept";
    case FaultSite::kNetRead:
      return "net.read";
    case FaultSite::kNetWrite:
      return "net.write";
    case FaultSite::kNetPartialFrame:
      return "net.partial_frame";
    case FaultSite::kSegmentOpen:
      return "segment.open";
    case FaultSite::kSegmentMmap:
      return "segment.mmap";
    case FaultSite::kSegmentChecksum:
      return "segment.checksum";
    case FaultSite::kIngestAppend:
      return "ingest.append";
    case FaultSite::kIngestPublish:
      return "ingest.publish";
    case FaultSite::kWalAppend:
      return "wal.append";
    case FaultSite::kWalFsync:
      return "wal.fsync";
    case FaultSite::kWalCommit:
      return "wal.commit";
    case FaultSite::kSegmentWrite:
      return "segment.write";
  }
  return "unknown";
}

FaultInjector::FaultInjector(uint64_t seed) {
  // Each site forks its own stream off the master seed: a site's draw
  // sequence depends only on its own draw index, never on how draws at
  // other sites interleave with it.
  Rng master(seed);
  for (int i = 0; i < kFaultSiteCount; ++i) {
    sites_[static_cast<size_t>(i)].rng =
        master.Fork(static_cast<uint64_t>(i) + 1);
  }
}

void FaultInjector::Arm(FaultSite site, FaultSiteConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[static_cast<size_t>(site)].config = config;
}

bool FaultInjector::ShouldFire(FaultSite site) {
  std::lock_guard<std::mutex> lock(mu_);
  Site& s = sites_[static_cast<size_t>(site)];
  if (s.config.probability <= 0.0 && s.config.fire_on_draw < 0) return false;
  if (s.config.budget >= 0 && s.stats.fires >= s.config.budget) return false;
  ++s.stats.draws;
  if (s.config.fire_on_draw >= 0) {
    // Exact trigger: fire on the configured 0-based draw index only.  No
    // rng draw — the site's stream stays byte-identical to a disarmed run.
    if (s.stats.draws - 1 != s.config.fire_on_draw) return false;
  } else if (!s.rng.Bernoulli(s.config.probability)) {
    return false;
  }
  ++s.stats.fires;
  if (kill_on_fire_) {
    // Crash simulation: die exactly here, mid-operation.  SIGKILL cannot
    // be caught, so no destructor, flush, or fsync runs — the on-disk
    // state is whatever the interrupted operation had already written.
    ::kill(::getpid(), SIGKILL);
  }
  return true;
}

FaultSiteStats FaultInjector::site_stats(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[static_cast<size_t>(site)].stats;
}

int64_t FaultInjector::total_fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const Site& site : sites_) total += site.stats.fires;
  return total;
}

std::string FaultInjector::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (int i = 0; i < kFaultSiteCount; ++i) {
    const Site& site = sites_[static_cast<size_t>(i)];
    if (site.config.probability <= 0.0 && site.stats.draws == 0) continue;
    if (out.tellp() > 0) out << ", ";
    out << FaultSiteName(static_cast<FaultSite>(i)) << ": "
        << site.stats.fires << "/" << site.stats.draws;
  }
  return out.str();
}

FaultInjector* FaultInjector::Install(FaultInjector* injector) {
  return g_injector.exchange(injector, std::memory_order_acq_rel);
}

FaultInjector* FaultInjector::Current() {
  return g_injector.load(std::memory_order_acquire);
}

bool FaultInjector::Fire(FaultSite site) {
  FaultInjector* injector = Current();
  return injector != nullptr && injector->ShouldFire(site);
}

}  // namespace idebench::chaos
