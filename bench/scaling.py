"""Scaling report for the exponential families (not gated, not a workload).

    python3 bench/scaling.py [--out FILE]

For each family the size grows until the slowest of the SEEDS calls at a
size takes longer than LIMIT_S seconds, or a call fails (time-out at
3 x LIMIT_S, or MemoryError under the MAX_MEMORY_MB address-space limit).
scaling-baseline.json was made with these settings.  Each row gives the
size, the median and largest time and the answers of the calls at that
size, and the traced counts of the layer that blows up:

  best-value   output states with a choice (at most 2^size selectors);
               counts verifier calls
  strict-dsum  Eve vertices with a choice in a strict Dsum prefix game
               (positional strategies <= 3^size); counts positional
               candidates checked and path checks
  approx-cap   the knowledge-construction cap on the paper fixture and on
               a small generated spec; counts the winning strategy's
               memory states and reports the process's peak RSS
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys

import gen
import layers
import run
import workloads

LIMIT_S = 5.0
SEEDS = 3
MAX_MEMORY_MB = 1024


def best_value_point(seed, size):
    rng = random.Random("scaling/best-value/%d/%d" % (size, seed))
    spec = gen.memory_spec(rng, 4, 3, "ab", "xy", "sum", trap=0.0, choice_cap=size)
    return ["synth", "best-value", "spec.wfa"], {"spec.wfa": gen.emit_wfa(spec)}


def strict_dsum_point(seed, size):
    rng = random.Random("scaling/strict-dsum/%d/%d" % (size, seed))
    arena = gen.random_arena(rng, size + 6, eve_choice_cap=size, eve_p=0.7)
    argv = ["solve-prefix", "game.arena", "--measure", "dsum", "--cmp", "gt", "--nu=0",
            "--lambda", "2/3"]
    return argv, {"game.arena": gen.emit_arena(arena)}


def approx_paper_point(seed, size):
    argv = ["synth", "approx", "spec.wfa", "--cmp", "le", "--r", "4", "--cap", str(size)]
    return argv, {"spec.wfa": gen.emit_wfa(workloads.PAPER_SPEC)}


def approx_small_point(seed, size):
    # the same specs at every cap
    rng = random.Random("scaling/approx-small/%d" % seed)
    spec = gen.memory_spec(rng, 2, 3, "ab", "xy", "sum", out_w=(-3, 3))
    argv = ["synth", "approx", "spec.wfa", "--cmp", "le", "--r", "2", "--cap", str(size)]
    return argv, {"spec.wfa": gen.emit_wfa(spec)}


FAMILIES = [
    ("best-value", best_value_point, range(1, 40),
     ("synthesis.verify_calls",)),
    ("strict-dsum", strict_dsum_point, range(1, 40),
     ("prefix.positional_checked", "dsumpath.path_checks")),
    ("approx-cap-paper", approx_paper_point, [2 ** k for k in range(3, 20)],
     ("games.knowledge_memory_states",)),
    ("approx-cap-small", approx_small_point, [2 ** k for k in range(3, 20)],
     ("games.knowledge_memory_states",)),
]


def measure_point(cli, tracer, workdir, make, size, seeds, counts_wanted):
    times, answers, counts = [], [], {key: [] for key in counts_wanted}
    for seed in range(seeds):
        argv, files = make(seed, size)
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        full = [str(workdir / a) if a in files else a for a in argv] + ["--json"]
        if argv[0] == "synth":
            full += ["-o", str(workdir / "out.mealy")]
        tally = layers.new_counts()
        tracer.reset(tally)
        seconds, _code, stdout, problem = run.call(cli, full)
        tracer.counts = None
        times.append(seconds)
        answers.append(problem or json.loads(stdout)["answer"])
        for key in counts_wanted:
            counts[key].append(tally[key])
        if problem is not None:
            break
    return {
        "size": size,
        "median_s": statistics.median(times),
        "max_s": max(times),
        "answers": answers,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="also write the rows as JSON here")
    args = parser.parse_args()
    limit = MAX_MEMORY_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    run.TIME_LIMIT_S = 3 * LIMIT_S
    signal.signal(signal.SIGALRM, run._alarm)
    cli = run.import_program()
    tracer = layers.Tracer()
    tracer.install()
    workdir = run.WORK / "scaling"
    report = {}
    try:
        for name, make, sizes, counts_wanted in FAMILIES:
            rows = report[name] = []
            for size in sizes:
                row = measure_point(cli, tracer, workdir, make, size, SEEDS, counts_wanted)
                rows.append(row)
                print("%-17s size %7d  median %8.4f s  max %8.4f s  %s  %s  rss %.0f MB" % (
                    name, size, row["median_s"], row["max_s"], row["answers"],
                    {k: v for k, v in row["counts"].items()}, row["peak_rss_mb"]),
                    flush=True)
                if row["max_s"] > LIMIT_S or any(
                        a not in run.EXIT_FOR for a in row["answers"]):
                    break
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        report["host"] = {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "limit_s": LIMIT_S,
            "seeds": SEEDS,
            "max_memory_mb": MAX_MEMORY_MB,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
