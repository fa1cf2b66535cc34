#include "inputs.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/dataset.h"
#include "storage/segment.h"
#include "workflow/generator.h"

namespace perfbench {

namespace fs = std::filesystem;
using idebench::JsonValue;
using idebench::Result;
using idebench::Status;
using idebench::kMicrosPerSecond;
using idebench::workflow::Interaction;
using idebench::workflow::InteractionType;
using idebench::workflow::Workflow;
using idebench::workflow::WorkflowType;

namespace {

/// Bumped whenever `Prepare` would write different bytes for a seed, so a
/// stale data directory is rebuilt instead of reused.
constexpr const char* kInputFormat = "inputs-v6";

/// Workflows generated per seed, replayed in a cycle.  A workflow holds
/// about 19 interactions, so a 45 s serve_ingest phase (about 4,300
/// sampled interactions) plays over 220 of them, and at 384 no phase
/// repeats one: with 64 an exact_scan phase cycled three times, and its p99
/// then swung with how many three- and four-query interactions the 64
/// happened to hold.
constexpr int kWorkflowsPerSeed = 384;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      // Paper size S (100M nominal): every query completes a full scan.
      // One engine thread: over ten interleaved seeds, 2 threads spread p99
      // 0.28 (quartiles over median) against 0.13 at 1 thread; two of the
      // 2-thread runs slowed by 15 % where the 1-thread runs beside them
      // did not.
      {"exact_scan", "blocking", /*threads=*/1, /*reuse_cache=*/false,
       /*rows=*/2'000'000, /*nominal_rows=*/100'000'000,
       3 * kMicrosPerSecond, WorkflowType::kMixed, /*tail_rows=*/0,
       /*two_dim_prob=*/0.2},
      // Paper size M (500M nominal): drill-down chains share most work.
      {"drilldown_reuse", "blocking", 1, true, 1'000'000, 500'000'000,
       3 * kMicrosPerSecond, WorkflowType::kSequential, 0, 0.2},
      // Paper size M behind the network front-end, with appends.  1-D vizs
      // only: a heat map's partial updates (up to ~1,700 bins, encoded on
      // every slice) cost up to 100x a 1-D query's, and every interaction
      // of a pass waits for every co-scheduled query, so with heat maps
      // the latency of a run measured which ones its seed drew.
      {"serve_ingest", "progressive", 1, false, 1'000'000, 500'000'000,
       1 * kMicrosPerSecond, WorkflowType::kMixed, 16'384, 0.0},
  };
  return workloads;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteWholeFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  out.close();
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string BaseDir(const std::string& data_dir) { return data_dir + "/base"; }
std::string TailDir(const std::string& data_dir) { return data_dir + "/tail"; }

Status Prepare(const WorkloadSpec& workload, uint64_t seed,
               const std::string& dir) {
  const std::string stamp =
      workload.name + " " + std::to_string(seed) + " " + kInputFormat;
  if (ReadWholeFile(dir + "/READY") == stamp) return Status::OK();
  RemoveTree(dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());

  idebench::core::DatasetConfig config;
  config.nominal_rows = workload.nominal_rows;
  config.actual_rows = workload.rows;
  config.seed = seed;
  IDB_ASSIGN_OR_RETURN(auto catalog, idebench::core::BuildFlightsCatalog(config));
  IDB_RETURN_NOT_OK(
      idebench::storage::WriteCatalogSegments(*catalog, BaseDir(dir)));

  // Workflows and the warm-up come from separate streams of the same seed.
  const idebench::storage::Table* fact = catalog->fact_table();
  idebench::workflow::GeneratorConfig generator_config;
  generator_config.two_dim_prob = workload.two_dim_prob;
  idebench::workflow::WorkflowGenerator generator(
      fact, generator_config, seed * 0x9E3779B97F4A7C15ULL + 1);
  JsonValue list = JsonValue::Array();
  for (int i = 0; i < kWorkflowsPerSeed; ++i) {
    IDB_ASSIGN_OR_RETURN(Workflow wf,
                         generator.Generate(workload.workflow_type,
                                            "wf" + std::to_string(i)));
    list.Append(wf.ToJson());
  }
  idebench::workflow::WorkflowGenerator warm_generator(
      fact, {}, seed * 0x9E3779B97F4A7C15ULL + 2);
  IDB_ASSIGN_OR_RETURN(Workflow warmup,
                       warm_generator.Generate(WorkflowType::kIndependent,
                                               "warmup"));
  JsonValue doc = JsonValue::Object();
  doc.Set("workflows", std::move(list));
  doc.Set("warmup", warmup.ToJson());
  IDB_RETURN_NOT_OK(WriteWholeFile(dir + "/workflows.json", doc.Dump()));

  if (workload.tail_rows > 0) {
    idebench::core::DatasetConfig tail;
    tail.nominal_rows = workload.tail_rows;
    tail.actual_rows = workload.tail_rows;
    tail.seed_rows = workload.tail_rows / 2;
    tail.seed = seed + 0x7A11;
    IDB_ASSIGN_OR_RETURN(auto tail_catalog,
                         idebench::core::BuildFlightsCatalog(tail));
    IDB_RETURN_NOT_OK(
        idebench::storage::WriteCatalogSegments(*tail_catalog, TailDir(dir)));
  }
  return WriteWholeFile(dir + "/READY", stamp);
}

Result<WorkflowSet> LoadWorkflows(const std::string& data_dir) {
  IDB_ASSIGN_OR_RETURN(JsonValue doc,
                       JsonValue::Parse(ReadWholeFile(data_dir + "/workflows.json")));
  WorkflowSet set;
  const JsonValue& list = doc.Get("workflows");
  for (size_t i = 0; i < list.size(); ++i) {
    IDB_ASSIGN_OR_RETURN(Workflow wf, Workflow::FromJson(list.at(i)));
    set.workflows.push_back(std::move(wf));
  }
  IDB_ASSIGN_OR_RETURN(set.warmup, Workflow::FromJson(doc.Get("warmup")));
  if (set.workflows.empty()) return Status::Invalid("no workflows generated");
  return set;
}

Result<Interaction> WarmupInteraction(const WorkflowSet& set) {
  for (const Interaction& i : set.warmup.interactions) {
    if (i.type != InteractionType::kCreateViz) continue;
    Interaction warm = i;
    warm.viz.aggregates.resize(3, warm.viz.aggregates.front());
    return warm;
  }
  return Status::Invalid("warm-up workflow creates no viz");
}

int64_t SegmentBytes(const std::string& dir) {
  int64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".seg") {
      bytes += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return bytes;
}

ProcSample ReadProc() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcSample s;
  s.user_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6;
  s.sys_s = usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
  s.minor_faults = usage.ru_minflt;
  s.ctx_switches = usage.ru_nvcsw + usage.ru_nivcsw;
  return s;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string FilesystemOf(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: break;
  }
  std::ostringstream hex;
  hex << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
  return hex.str();
}

JsonValue RunMetadata(const RunOptions& options, const std::string& wal_sync,
                      const std::string& wal_fs) {
  const WorkloadSpec& w = *options.workload;
  JsonValue meta = JsonValue::Object();
  meta.Set("workload", w.name);
  meta.Set("commit", options.commit);
  meta.Set("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  meta.Set("compiler", std::string("clang ") + __clang_version__);
#else
  meta.Set("compiler", std::string("gcc ") + __VERSION__);
#endif
  meta.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  meta.Set("rows", w.rows);
  meta.Set("nominal_rows", w.nominal_rows);
  meta.Set("seed", static_cast<int64_t>(options.seed));
  meta.Set("engine", w.engine);
  meta.Set("engine_threads", static_cast<int64_t>(w.threads));
  meta.Set("reuse_cache", w.reuse_cache);
  meta.Set("time_requirement_ms", w.time_requirement / 1000);
  meta.Set("seconds", options.seconds);
  meta.Set("trace", options.trace);
  meta.Set("wal_sync", wal_sync);
  meta.Set("wal_fs", wal_fs);
  return meta;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

}  // namespace perfbench
