#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, next to the bound
BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Run from the repository root.  A failed run is reported and left out of
the spreads; the script then exits nonzero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    failed = []
    for seed in args.seeds:
        start = time.monotonic()
        run = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        wall = time.monotonic() - start
        if run.returncode != 0:
            failed.append(seed)
            reason = (run.stdout + run.stderr).strip().splitlines()[-1:]
            print("seed %d: FAILED (exit %d, %.0f s): %s" %
                  (seed, run.returncode, wall, " ".join(reason)), flush=True)
            continue
        record = json.loads(run.stdout.strip().splitlines()[-1])
        line = []
        for m in metrics:
            value = record["metrics"][m["name"]]["value"]
            values[m["name"]].append(value)
            line.append("%s=%.4g" % (m["name"], value))
        print("seed %d (%.0f s): %s" % (seed, wall, " ".join(line)),
              flush=True)

    if len(values[metrics[0]["name"]]) >= 2:
        worst = 0.0
        for m in metrics:
            series = values[m["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            print("%-24s median %12.6g  spread %6.3f  bound %s" %
                  (m["name"], median, spread, m["bound"]))
            worst = max(worst, spread / m["bound"])
        print("largest spread / bound: %.3f" % worst)
    if failed:
        print("%d of %d runs failed: seeds %s" %
              (len(failed), len(args.seeds), failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
