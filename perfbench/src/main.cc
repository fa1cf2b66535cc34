/// \file main.cc
/// perfbench: the repository's end-to-end benchmark driver.
///
///   perfbench prepare --workload W --seed N --data DIR
///       untimed: generate the seed's dataset, ingest tail and workflows
///       and pack them into DIR (skipped when DIR already holds them)
///   perfbench run --workload W --seed N --seconds S --trace 0|1
///                 --data DIR --work DIR [--commit ID] [--semantic-cache 1]
///       set up, run the timed phase(s), check the answers; print a
///       metadata record and, as the last line, the result record;
///       --semantic-cache 1 reproduces a defect on serve_ingest (README.md)
///   perfbench selftest
///       check the benchmark's own arithmetic
///
/// perfbench/run.py builds this binary and calls it; see README.md.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The result record: exactly correct, attempted, failed and metrics.
std::string ResultLine(const RunResult& r, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.ledger.attempted());
  line += ", \"failed\": " + std::to_string(r.ledger.failed());
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  return line + "}}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare --workload W --seed N --data DIR\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --data DIR --work DIR [--commit ID] "
               "[--semantic-cache 1]\n"
               "       perfbench selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "selftest") {
    const int failures = perfbench::RunSelfTest();
    std::fprintf(stderr, "perfbench selftest: %s\n",
                 failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }

  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage();
  RunOptions options;
  options.workload = perfbench::FindWorkload(flags["workload"]);
  if (options.workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 flags["workload"].c_str());
    return 2;
  }
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.data_dir = flags["data"];
  if (options.data_dir.empty()) return Usage();

  if (command == "prepare") {
    const idebench::Status st =
        perfbench::Prepare(*options.workload, options.seed, options.data_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench prepare: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command != "run") return Usage();

  options.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  options.trace = flags["trace"] == "1";
  options.work_dir = flags["work"];
  if (flags.count("commit") > 0) options.commit = flags["commit"];
  options.semantic_cache = flags["semantic-cache"] == "1";
  if (options.seconds <= 0 || options.work_dir.empty()) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  idebench::Result<RunResult> ran =
      options.workload->name == "serve_ingest"
          ? perfbench::RunServeIngest(options)
          : perfbench::RunInProcess(options);
  if (!ran.ok()) {
    std::fprintf(stderr, "perfbench run: %s\n", ran.status().ToString().c_str());
    return 1;
  }
  RunResult& r = *ran;

  // Human-readable summary, then the metadata record, then the result.
  std::printf("perfbench %s seed=%" PRIu64 " trace=%d\n",
              options.workload->name.c_str(), options.seed, options.trace);
  for (const Metric& m : r.end_to_end) {
    std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-36s %14.6f ratio (%" PRId64 " of %" PRId64 ")\n",
              "failed_share", r.ledger.share(), r.ledger.failed(),
              r.ledger.attempted());
  for (const Metric& m : r.end_to_end) {
    if (m.name == "tr_met_share") {
      std::printf("  %-36s %14.6f ratio\n", "tr_violated_share", 1.0 - m.value);
    }
  }
  if (r.meta.Get("append_p50_ms").is_number()) {
    std::printf("  %-36s %14.6f ms\n", "append_p50_ms",
                r.meta.GetDouble("append_p50_ms", 0));
  }
  for (const Metric& m : r.per_layer) {
    std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& problem : r.problems) {
    std::printf("  CHECK FAILED: %s\n", problem.c_str());
  }
  if (options.trace) {
    const std::string path = options.work_dir + "/trace-" +
                             options.workload->name + "-" +
                             std::to_string(options.seed) + ".txt";
    if (!perfbench::WriteTrace(path, r.meta.Dump(), r.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("  trace: %zu spans -> %s\n", r.spans.size(), path.c_str());
  }
  idebench::JsonValue meta = idebench::JsonValue::Object();
  meta.Set("meta", r.meta);
  std::printf("%s\n", meta.Dump().c_str());
  std::printf("%s\n",
              ResultLine(r, options.trace ? r.per_layer : r.end_to_end).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
