#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the repository's library and the perfbench driver from source into
.bench_build/, checks the driver's own arithmetic, generates the seed's
inputs (untimed), runs one workload in its own process and prints, as the
last line of standard output, one JSON object with exactly the keys
correct, attempted, failed and metrics.  Exits nonzero when the build, an
input or any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("exact_scan", "drilldown_reuse", "serve_ingest")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 160


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def source_id():
    """The commit when the checkout is a git work tree, else a digest of
    the program's sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the perfbench target; returns the binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("program sources (CMakeLists.txt, src/) not found")
    build_dir = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Names and units BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def exit_text(code):
    """'exit N', or the signal that killed the process."""
    if code < 0:
        try:
            return "killed by " + signal.Signals(-code).name
        except ValueError:
            return "killed by signal %d" % -code
    return "exit %d" % code


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
        subprocess.run([binary, "selftest"], check=True, timeout=60)
        # The last seed's inputs are kept per workload, so running a seed
        # again skips the prepare; another seed replaces them.
        data = os.path.join(BUILD, "data", args.workload)
        subprocess.run([binary, "prepare", "--workload", args.workload,
                        "--seed", str(args.seed), "--data", data],
                       check=True, timeout=300)
        run = subprocess.run(
            [binary, "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace), "--data", data,
             "--work", os.path.join(BUILD, "work", args.workload),
             "--commit", source_id()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        log("failed: %s" % error)
        return 1

    record = last_json_line(run.stdout)
    if record is None or set(record) != RESULT_KEYS:
        sys.stdout.write(run.stdout)
        log("perfbench printed no result record (%s)" %
            exit_text(run.returncode))
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    printed = {name: m.get("unit") for name, m in record["metrics"].items()}
    if printed != expected_metrics(args.trace):
        log("the printed metrics differ from BENCHMARK.json")
        return 1
    if run.returncode != 0 or record["correct"] is not True:
        log("output checks failed (%s)" % exit_text(run.returncode))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
