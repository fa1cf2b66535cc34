#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

/// \file inputs.h
/// The three workloads' fixed parameters, the untimed prepare step that
/// turns a seed into packed segments and workflow files, and the process
/// counters and run metadata every record carries.

#include <cstdint>
#include <string>
#include <vector>

#include "arith.h"
#include "trace.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/result.h"
#include "storage/table.h"
#include "workflow/workflow.h"

namespace perfbench {

/// One workload's fixed configuration; README.md says why each exists.
struct WorkloadSpec {
  std::string name;
  std::string engine;
  int threads = 1;                 // engine (morsel) threads
  bool reuse_cache = false;
  int64_t rows = 0;                // materialized base rows
  int64_t nominal_rows = 0;        // rows the cost model simulates
  idebench::Micros time_requirement = 0;
  idebench::workflow::WorkflowType workflow_type =
      idebench::workflow::WorkflowType::kMixed;
  int64_t tail_rows = 0;           // ingest tail (serve_ingest only)
  double two_dim_prob = 0.2;       // generator: share of vizs binned in 2-D
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Command-line settings of one `run`.
struct RunOptions {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string data_dir;  // written by `prepare`
  std::string work_dir;  // scratch: WAL directories, trace files
  std::string commit = "unknown";
  /// serve_ingest only: turn on the progressive engine's semantic cache,
  /// which the benchmark keeps off (see README.md).  Reproduces a defect.
  bool semantic_cache = false;
};

/// Generates the seed's dataset (and ingest tail), packs it into segment
/// files under `dir`, and writes the seed's workflows.  Skips the work
/// when `dir` already holds this workload and seed.
idebench::Status Prepare(const WorkloadSpec& workload, uint64_t seed,
                         const std::string& dir);

/// Packed base table, ingest tail and workflow file inside a data dir.
std::string BaseDir(const std::string& data_dir);
std::string TailDir(const std::string& data_dir);

/// The workflows to replay, plus one warm-up workflow from a different
/// stream whose queries never reach the workload.
struct WorkflowSet {
  std::vector<idebench::workflow::Workflow> workflows;
  idebench::workflow::Workflow warmup;
};
idebench::Result<WorkflowSet> LoadWorkflows(const std::string& data_dir);

/// The warm-up interaction: the warm-up workflow's first viz with three
/// aggregates, a shape the generator never emits (it emits one or two), so
/// neither its signature nor its cached state can match a workload query.
idebench::Result<idebench::workflow::Interaction> WarmupInteraction(
    const WorkflowSet& set);

/// Total bytes of the packed segment files in `dir`.
int64_t SegmentBytes(const std::string& dir);

/// getrusage(RUSAGE_SELF) at one instant.
struct ProcSample {
  double user_s = 0;
  double sys_s = 0;
  int64_t minor_faults = 0;
  int64_t ctx_switches = 0;  // voluntary + involuntary
};
ProcSample ReadProc();
double PeakRssMib();

/// Filesystem type of `path` ("ext4", "overlayfs", "tmpfs", ...).
std::string FilesystemOf(const std::string& path);

/// Run metadata carried by every output record.
idebench::JsonValue RunMetadata(const RunOptions& options,
                                const std::string& wal_sync,
                                const std::string& wal_fs);

/// Removes `path` recursively (best effort).
void RemoveTree(const std::string& path);

/// One named metric of the run's result.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main().
struct RunResult {
  bool correct = true;
  FailureLedger ledger;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;  // failed checks, printed and fatal
  idebench::JsonValue meta;
  std::vector<Span> spans;  // traced runs only
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
