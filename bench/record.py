"""Record expected.json: the answer, exit code, machine size, time and
traced layer counts of every instance in every workload's pool, from the
code in ./src.

    python3 bench/record.py [--workload NAME ...]

Run it only at a commit whose answers are trusted; the benchmark then
compares every later run with what this wrote.  Each answer is re-checked
as in a benchmark run before it is recorded, and the script stops on the
first answer that fails its check.  Instance times (the median of three
to seven calls, scaled to the reference host speed as in a benchmark
run) rank each pool for the per-seed selection in workloads.select.  The
counts come from one more call under the tracer (layers.py); traced
benchmark runs must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time

import layers
import run
import workloads


def traced_counts(cli, tracer, item):
    """(exit code, stdout, non-zero layer counts) of one traced call."""
    tracer.install()
    tracer.reset(layers.new_counts())
    try:
        _seconds, code, stdout, _problem = run.call(cli, item.argv)
    finally:
        tracer.uninstall()
    counts, tracer.counts = tracer.counts, None
    return code, stdout, layers.nonzero(counts)


def record_family(cli, tracer, workload, family, workdir):
    entries = {}
    speed = run.Speedometer()
    for index in range(family.pool):
        inst = workloads.pool_instance(workload, family, index)
        item = run.Prepared(inst, workdir)
        item.write()
        calls, timings = [], []
        while len(calls) < 3 or (len(calls) < 7 and sum(c[0] for c in calls) < 1.0):
            speed.maybe_sample()
            started = time.perf_counter()
            calls.append(run.call(cli, item.argv))
            timings.append((started, time.perf_counter(), calls[-1][0]))
        speed.sample()
        outcome = run.Outcome(item, *calls[0])
        why = outcome.problem or run.verify_answer(cli, inst, outcome)
        if why is None and any(c[1:] != calls[0][1:] for c in calls):
            why = "repeated calls gave different answers"
        if why is None and run.EXIT_FOR.get(outcome.answer) != outcome.code:
            why = "exit code %s for answer %s" % (outcome.code, outcome.answer)
        code, stdout, counts = traced_counts(cli, tracer, item)
        if why is None and (code, stdout) != calls[0][1:3]:
            why = "the traced call gave a different answer"
        if why is not None:
            raise SystemExit("%s %s: %s" % (workload, inst.iid, why))
        entries[inst.iid] = {
            "answer": outcome.answer,
            "code": outcome.code,
            "states": outcome.states,
            "ms": round(1000 * statistics.median(
                seconds * speed.scale(started, ended) for started, ended, seconds in timings), 3),
            "sha": run.fingerprint(inst),
            "counts": counts,
        }
    return entries


def write(expected):
    """One line per instance, so that re-recording gives a readable diff."""
    lines = ['{"workloads": {']
    for w, (workload, entries) in enumerate(sorted(expected.items())):
        lines.append('  "%s": {' % workload)
        items = sorted(entries.items())
        for i, (iid, entry) in enumerate(items):
            comma = "," if i + 1 < len(items) else ""
            lines.append('    "%s": %s%s' % (iid, json.dumps(entry, sort_keys=True), comma))
        lines.append("  }" + ("," if w + 1 < len(expected) else ""))
    lines.append("}}")
    run.EXPECTED.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, run._alarm)
    cli = run.import_program()
    tracer = layers.Tracer()
    expected = {}
    if run.EXPECTED.exists():
        expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))["workloads"]
    workdir = run.WORK / "record"
    try:
        for workload in args.workload or sorted(workloads.WORKLOADS):
            entries = {}
            for family in workloads.WORKLOADS[workload]:
                start = time.perf_counter()
                entries.update(record_family(cli, tracer, workload, family, workdir))
                times = sorted(e["ms"] for iid, e in entries.items()
                               if iid.startswith(family.name + "/"))
                answers = {}
                for iid, e in entries.items():
                    if iid.startswith(family.name + "/"):
                        answers[e["answer"]] = answers.get(e["answer"], 0) + 1
                print("%s %s: %d instances in %.1f s, median %.1f ms, max %.1f ms, %s"
                      % (workload, family.name, family.pool, time.perf_counter() - start,
                         times[len(times) // 2], times[-1], answers), flush=True)
            expected[workload] = entries
            write(expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
