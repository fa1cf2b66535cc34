#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file workloads.h
/// Entry points of the workload runners and the metric assembly they share.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "inputs.h"

namespace perfbench {

/// Set-ups per run; `setup_s` is their median.
inline constexpr int kSetupRepetitions = 5;

/// A tail percentile needs ten samples beyond its rank.
inline constexpr int64_t kSamplesBeyond = 10;

/// Sampled interactions a timed phase needs before it may stop (p99 with
/// ten samples beyond it); the phase runs on past `--seconds` until it has
/// them.
int64_t MinInteractions();

/// Durations of the set-up phases of one set-up, in seconds.
struct SetupTimes {
  double segment_load_s = 0;
  double prepare_s = 0;
  double warmup_s = 0;
  double serve_ready_s = 0;
  double total_s = 0;
};

/// Medians over set-ups, phase by phase.
SetupTimes MedianSetup(const std::vector<SetupTimes>& setups);

/// One sampled interaction (one that submitted queries).
struct Sample {
  double latency_ms = 0;
  double end_s = 0;     // when it ended, in seconds since the phase began
  int64_t queries = 0;  // terminal updates it waited for
};

/// What one timed phase measured.
struct Phase {
  std::vector<Sample> samples;  // in completion order
  int64_t interactions = 0;
  int64_t queries = 0;  // terminal updates
  int64_t tr_met = 0;   // terminal updates carrying an available result
  double wall_s = 0;
  ProcSample proc_begin;
  ProcSample proc_end;
};

/// Appends the end-to-end metrics; a phase too short for its p99 is a
/// problem, not a silently wrong number.  `peak_rss_mib` is read when the
/// timed phase ends.
void AddEndToEnd(const Phase& phase, double setup_s, double peak_rss_mib,
                 RunResult* out);

/// Per-layer values by metric name, before they are put in order.
using LayerValues = std::map<std::string, double>;

/// The proc.* per-layer metrics of `phase`.
void ProcLayers(const Phase& phase, LayerValues* values);

/// The setup.* and storage per-layer metrics.
void SetupLayers(const SetupTimes& setup, double segment_bytes_per_row,
                 LayerValues* values);

/// Appends every per-layer metric in BENCHMARK.json order with its unit.
/// A layer the workload does not exercise reads 0.
void EmitPerLayer(const LayerValues& values, RunResult* out);

/// (traced p50 - untraced p50) / untraced p50.
double OverheadShare(const Phase& untraced, const Phase& traced);

/// Sum of span durations of `kind` in `spans` (nanoseconds) and their count.
int64_t SpanNs(const std::vector<Span>& spans, SpanKind kind,
               int64_t* count = nullptr);

idebench::Result<RunResult> RunInProcess(const RunOptions& options);
idebench::Result<RunResult> RunServeIngest(const RunOptions& options);

/// Checks the arithmetic in arith.h; returns the number of failures.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
