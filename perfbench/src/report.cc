/// \file report.cc
/// Metric assembly shared by the workload runners.

#include <algorithm>

#include "workloads.h"

namespace perfbench {

int64_t MinInteractions() { return SamplesNeeded(0.99, kSamplesBeyond); }

namespace {

std::vector<double> Latencies(const Phase& phase) {
  std::vector<double> values;
  for (const Sample& s : phase.samples) values.push_back(s.latency_ms);
  return values;
}

}  // namespace

SetupTimes MedianSetup(const std::vector<SetupTimes>& setups) {
  const auto median = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& s : setups) values.push_back(s.*field);
    return Median(values);
  };
  SetupTimes m;
  m.segment_load_s = median(&SetupTimes::segment_load_s);
  m.prepare_s = median(&SetupTimes::prepare_s);
  m.warmup_s = median(&SetupTimes::warmup_s);
  m.serve_ready_s = median(&SetupTimes::serve_ready_s);
  m.total_s = median(&SetupTimes::total_s);
  return m;
}

void AddEndToEnd(const Phase& phase, double setup_s, double peak_rss_mib,
                 RunResult* out) {
  const std::vector<double> latencies = Latencies(phase);
  int64_t queries = 0;
  for (const Sample& s : phase.samples) queries += s.queries;
  double p99 = 0;
  if (!TailPercentile(latencies, 0.99, kSamplesBeyond, &p99)) {
    out->problems.push_back("the phase needs " +
                            std::to_string(MinInteractions()) +
                            " sampled interactions, it had " +
                            std::to_string(latencies.size()));
  }
  // Terminal updates per second up to the last sampled interaction's end
  // (an interaction that submits no query is not sampled).
  const double end_s = phase.samples.empty() ? 0.0 : phase.samples.back().end_s;
  auto& m = out->end_to_end;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"interaction_p50_ms", Median(latencies), "ms"});
  m.push_back({"interaction_p99_ms", p99, "ms"});
  m.push_back({"queries_per_s",
               static_cast<double>(queries) / std::max(end_s, 1e-9), "1/s"});
  m.push_back({"peak_rss_mib", peak_rss_mib, "MiB"});
  m.push_back({"tr_met_share",
               PerQuery(static_cast<double>(phase.tr_met), phase.queries),
               "ratio"});
}

void ProcLayers(const Phase& phase, LayerValues* values) {
  const ProcSample& a = phase.proc_begin;
  const ProcSample& b = phase.proc_end;
  const double user = b.user_s - a.user_s;
  const double sys = b.sys_s - a.sys_s;
  auto& v = *values;
  v["proc.cpu_ms_per_query"] = PerQuery((user + sys) * 1e3, phase.queries);
  v["proc.sys_share"] = user + sys > 0 ? sys / (user + sys) : 0.0;
  v["proc.minor_faults_per_query"] = PerQuery(
      static_cast<double>(b.minor_faults - a.minor_faults), phase.queries);
  v["proc.ctx_switches_per_query"] = PerQuery(
      static_cast<double>(b.ctx_switches - a.ctx_switches), phase.queries);
}

void SetupLayers(const SetupTimes& setup, double segment_bytes_per_row,
                 LayerValues* values) {
  auto& v = *values;
  v["setup.segment_load_s"] = setup.segment_load_s;
  v["setup.prepare_s"] = setup.prepare_s;
  v["setup.warmup_s"] = setup.warmup_s;
  v["setup.serve_ready_s"] = setup.serve_ready_s;
  v["storage.segment_bytes_per_row"] = segment_bytes_per_row;
}

void EmitPerLayer(const LayerValues& values, RunResult* out) {
  // Same names, order and units as "per_layer" in BENCHMARK.json.
  static const std::pair<const char*, const char*> kLayers[] = {
      {"setup.segment_load_s", "s"},
      {"setup.prepare_s", "s"},
      {"setup.warmup_s", "s"},
      {"setup.serve_ready_s", "s"},
      {"storage.segment_bytes_per_row", "B"},
      {"engine.submit_ms", "ms"},
      {"engine.run_ms", "ms"},
      {"engine.run_rows_per_s", "1/s"},
      {"engine.run_calls", "count"},
      {"engine.poll_ms", "ms"},
      {"engine.cancel_ms", "ms"},
      {"engine.busy_share", "ratio"},
      {"reuse.hit_ratio", "ratio"},
      {"reuse.rows_served_share", "ratio"},
      {"reuse.evictions_per_store", "ratio"},
      {"session.self_ms", "ms"},
      {"session.updates_per_query", "count"},
      {"net.server_self_ms", "ms"},
      {"net.server_busy_share", "ratio"},
      {"net.frames_per_query", "count"},
      {"net.partials_coalesced_per_query", "count"},
      {"wal.syncs_per_append", "count"},
      {"wal.bytes_per_row", "B"},
      {"ingest.append_p50_ms", "ms"},
      {"proc.cpu_ms_per_query", "ms"},
      {"proc.sys_share", "ratio"},
      {"proc.minor_faults_per_query", "count"},
      {"proc.ctx_switches_per_query", "count"},
      {"trace.overhead_share", "ratio"},
      {"trace.self_sum_share", "ratio"},
  };
  size_t known = 0;
  for (const auto& [name, unit] : kLayers) {
    const auto it = values.find(name);
    known += it != values.end();
    out->per_layer.push_back({name, it != values.end() ? it->second : 0.0, unit});
  }
  if (known != values.size()) {
    out->problems.push_back("a per-layer value has no entry in the metric list");
  }
}

double OverheadShare(const Phase& untraced, const Phase& traced) {
  const double base = Median(Latencies(untraced));
  const double with_spans = Median(Latencies(traced));
  return base > 0 ? (with_spans - base) / base : 0.0;
}

int64_t SpanNs(const std::vector<Span>& spans, SpanKind kind, int64_t* count) {
  int64_t total = 0, n = 0;
  for (const Span& s : spans) {
    if (s.kind != kind) continue;
    total += s.end_ns - s.start_ns;
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

}  // namespace perfbench
