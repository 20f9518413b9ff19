"""Run every workload and print its metrics, one row per workload and metric.

    python3 bench/report.py [--seed 1] [--trace 0|1]

Each workload runs in its own process (bench/run.py), so peak_rss_mb is
that workload's own, for the run_seconds of BENCHMARK.json.  Exit code 1
when any workload's answers fail their checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print("%s: benchmark did not run (exit %d)\n%s"
                  % (workload, proc.returncode, proc.stderr), file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for line in lines[:-1]:
            tokens = line.split()
            if tokens and not (len(tokens) == 3 and tokens[0] in result["metrics"]):
                print("%-17s %s" % (workload, line.rstrip()))
        for name, metric in result["metrics"].items():
            print("%-17s %-32s %.6g %s" % (workload, name, metric["value"], metric["unit"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
