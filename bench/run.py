"""wsynth benchmark: verdict time per CLI call, plus traced per-layer numbers.

    python3 bench/run.py --workload threshold-mp --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the program from
./src.  One client, one thread, closed loop: each instance is one
in-process wsynth.cli.main([..., "--json"]) call on files generated from
the seed during set-up, and the next call starts when the previous one
returns.  The instance set is run in passes until --seconds is used up
(at least one pass), and call times are scaled to a reference host speed
(see Speedometer).  Every answer is compared with expected.json,
recorded by record.py at the commit that added the benchmark, and every
machine the program synthesizes is re-checked by verify_realizer and by
bounded brute force.  Traced runs also check their spans and compare each
instance's layer counts with expected.json.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (see layers.py).  The
last line of stdout is one JSON object; human-readable rows come before
it.  Exit code 0 when every answer checks out, 1 when one does not, 2
when the benchmark cannot run at all (for instance without ./src).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

EXPECTED = HERE / "expected.json"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_spans"
SETUP_REPEATS = 9
# Per-call limit: far above the slowest recorded instance (see README).
TIME_LIMIT_S = 20.0
# Calls per instance and pass, for instances cheaper than REPEAT_S.
REPEATS = 3
REPEAT_S = 0.05
# The host-speed loop runs between calls at most this often; call times
# are scaled to the host speed at which it takes SPEED_REF_S (its fastest
# time on a quiet 2-vCPU x86-64 host with Python 3.11).
SPEED_EVERY_S = 0.05
SPEED_REF_S = 0.0034
# A traced call's cli.main span may be this much shorter than the call.
# The time call() spends around cli.main, with the wrapper's own entry and
# exit, is under 0.1 ms; the rest allows for the host pausing the process.
ROOT_SLACK_S = 0.005
# A run stops starting calls after this long, so it ends well within 180 s.
RUN_GUARD_S = 150.0
DECIDED = {"realizable", "unrealizable", "no_boolean_realizer", "pass", "fail",
           "eve", "adam", "yes", "no"}
EXIT_FOR = {"realizable": 0, "unrealizable": 1, "no_boolean_realizer": 1,
            "unknown_at_cap": 2, "pass": 0, "fail": 1, "eve": 0, "adam": 1,
            "yes": 0, "no": 1}


class Timeout(BaseException):
    """Raised by SIGALRM inside a call that exceeds TIME_LIMIT_S."""


def _alarm(_signum, _frame):
    raise Timeout()


class BenchError(Exception):
    """The benchmark cannot run (exit 2, no result line)."""


def import_program():
    """Import wsynth afresh from ./src; returns the cli module."""
    if not (ROOT / "src" / "wsynth" / "cli.py").is_file():
        raise BenchError("no program source at %s" % (ROOT / "src" / "wsynth"))
    if sys.path[0] != str(ROOT / "src"):
        sys.path.insert(0, str(ROOT / "src"))
    for name in [n for n in sys.modules if n == "wsynth" or n.startswith("wsynth.")]:
        del sys.modules[name]
    cli = importlib.import_module("wsynth.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError("wsynth imported from outside %s" % ROOT)
    return cli


def load_expected():
    try:
        with open(EXPECTED, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise BenchError("cannot read %s: %s" % (EXPECTED, exc))


def fingerprint(inst):
    """Hash of an instance's arguments and file bytes, as recorded."""
    digest = hashlib.sha1(json.dumps(inst.argv).encode())
    for name in sorted(inst.files):
        digest.update(name.encode() + b"\0" + inst.files[name].encode() + b"\0")
    return digest.hexdigest()[:12]


class Prepared:
    """An instance with its files on disk and its final argv.

    All instances share one flat directory; an instance's files are named
    after it, which needs half the file-system operations of a directory
    per instance."""

    def __init__(self, inst, directory):
        self.inst = inst
        self.dir = directory
        prefix = inst.iid.replace("/", "-") + "-"
        self.paths = {name: directory / (prefix + name) for name in inst.files}
        self.argv = [str(self.paths[a]) if a in self.paths else a for a in inst.argv]
        self.out = directory / (prefix + "out.mealy") if inst.machine_out else None
        if self.out is not None:
            self.argv += ["-o", str(self.out)]
        self.argv.append("--json")

    def write(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, text in self.inst.files.items():
            self.paths[name].write_text(text, encoding="utf-8")


def prepare(workload, iids, workdir):
    """Generate and write the instance files; returns the Prepared list."""
    families = {f.name: f for f in workloads.WORKLOADS[workload]}
    prepared = []
    for iid in iids:
        family, index = iid.split("/")
        inst = workloads.pool_instance(workload, families[family], int(index))
        item = Prepared(inst, workdir)
        item.write()
        prepared.append(item)
    return prepared


def call(cli, argv):
    """One CLI call: (seconds, exit code or None, stdout, problem or None)."""
    out = io.StringIO()
    code, problem = None, None
    # Each call starts with no garbage and with every older object frozen
    # out of the collector's view, as in a fresh process, so its garbage
    # collection work does not depend on the calls before it.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Timeout:
        problem = "timeout after %.0f s" % TIME_LIMIT_S
    except Exception as exc:  # a crash fails the instance, not the run
        problem = "exception %s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), problem


def _speed_loop():
    """Fixed pure-Python work (dicts, tuples, exact rationals), unrelated
    to the program, whose duration tracks the host's current speed."""
    table = {}
    acc = Fraction(0)
    for i in range(3000):
        key = ("v%d" % (i % 53), i % 7)
        table[key] = table.get(key, 0) + i
        if i % 3 == 0:
            acc += Fraction(i % 11 - 5, i % 13 + 1)
    return len({(key, value & 15) for key, value in sorted(table.items())}), acc


class Speedometer:
    """Samples of _speed_loop's duration over a run.

    On a shared host the same call can take 1.8 times longer for seconds
    at a time while other tenants load the core.  The loop slows down with
    the host, so a call's time times SPEED_REF_S / (the loop's time around
    the call) is the time the call would take at the reference speed, with
    the shared slowdown removed.
    """

    def __init__(self):
        self.samples = []

    def sample(self):
        start = time.perf_counter()
        _speed_loop()
        self.samples.append((start, time.perf_counter() - start))

    def maybe_sample(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] > SPEED_EVERY_S:
            self.sample()

    def scale(self, before, after):
        """Factor for a call that ran between `before` and `after`:
        SPEED_REF_S over the median of the two samples before the call and
        the two after it."""
        times = [t for t, _d in self.samples]
        i = bisect.bisect_right(times, before)
        j = bisect.bisect_left(times, after)
        around = [d for _t, d in self.samples[max(0, i - 2):j + 2]]
        return SPEED_REF_S / statistics.median(around)


class Outcome:
    """What one call answered, and whether it checks out."""

    def __init__(self, item, seconds, code, stdout, problem):
        self.seconds = seconds
        self.timings = []  # (started, ended, seconds) of each call
        self.code = code
        self.stdout = stdout
        self.problem = problem
        self.payload = None
        self.machine = None
        self.counts = None  # traced calls: the layer counts of the first call
        if problem is None:
            try:
                self.payload = json.loads(stdout)
            except ValueError:
                self.problem = "stdout is not one JSON object: %r" % stdout[:200]
        if self.payload is not None and self.payload.get("answer") == "realizable" \
                and item.out is not None:
            self.machine = item.out.read_text(encoding="utf-8")

    @property
    def answer(self):
        return self.payload.get("answer") if self.payload else None

    @property
    def states(self):
        return self.payload.get("transducer_states") if self.payload else None


def judge(cli, item, outcome, recorded):
    """Why an answer is wrong, or None.  Compares with the recorded answer,
    then checks the answer itself without trusting the program."""
    if outcome.problem is not None:
        return outcome.problem
    inst = item.inst
    want = recorded.get(inst.iid)
    if want is None:
        return "no recorded answer"
    if want["sha"] != fingerprint(inst):
        return "generated files differ from the recorded instance"
    if outcome.answer != want["answer"] or outcome.code != want["code"]:
        return "answer %s (exit %s), recorded %s (exit %s)" % (
            outcome.answer, outcome.code, want["answer"], want["code"])
    if EXIT_FOR.get(outcome.answer) != outcome.code:
        return "exit code %s does not match answer %s" % (outcome.code, outcome.answer)
    return verify_answer(cli, inst, outcome)


def verify_answer(cli, inst, outcome):
    """Re-check what can be re-checked: machines and witnesses."""
    if inst.graph is not None and outcome.answer == "yes":
        return check.path_witness(inst.graph, outcome.payload["witness"],
                                  outcome.payload["value"])
    if inst.spec is None:
        return None
    spec = check.Spec(inst.spec)
    if inst.argv[0] == "verify":
        machine = check.parse_mealy(inst.files["machine.mealy"])
        if outcome.answer == "fail":
            why = check.violation(spec, machine, inst.objective,
                                  tuple(outcome.payload["witness"]))
            return None if why else "verifier witness shows no failure"
        why = check.brute_force(spec, machine, inst.objective)
        return why and "verifier passed a failing machine: " + why
    if outcome.answer != "realizable":
        return None
    if check.machine_states(outcome.machine) != outcome.states:
        return "machine file has %d states, reported %s" % (
            check.machine_states(outcome.machine), outcome.states)
    why = check.brute_force(spec, check.parse_mealy(outcome.machine), inst.objective)
    if why:
        return "synthesized machine fails: " + why
    synthesis, core = cli.synthesis, cli.core
    kind, cmp, bound = (inst.objective + (None, None))[:3]
    objective = synthesis.Objective(kind=kind, cmp=cmp,
                                    bound=core.parse_rational(bound) if bound else None)
    verdict, witness = synthesis.verify_realizer(
        core.parse_wfa(inst.files["spec.wfa"]), core.parse_mealy(outcome.machine), objective)
    if verdict != synthesis.PASS:
        return "verify_realizer rejects the machine on %r" % (witness,)
    return None


def run_pass(cli, prepared, guard, speed, repeat=False, tracer=None):
    """Call every instance; returns (outcomes, wall seconds).

    The host speed is sampled between calls.  With `repeat` (end-to-end
    runs), a cheap instance is called again, up to REPEATS calls or
    REPEAT_S seconds; every repeat must give the same answer.  Otherwise
    each instance is called once, so that a traced pass's counts do not
    depend on timing and traced and untraced passes compare.
    """
    outcomes = []
    start = time.perf_counter()
    for item in prepared:
        if time.perf_counter() > guard:
            outcomes.append(Outcome(item, 0.0, None, "", "run guard reached"))
            continue
        if tracer is not None:
            tracer.instance = item.inst.iid
            tracer.counts = layers.new_counts()
        outcome = None
        spent = 0.0
        while outcome is None or (repeat and outcome.problem is None
                                  and len(outcome.timings) < REPEATS and spent < REPEAT_S):
            speed.maybe_sample()
            started = time.perf_counter()
            seconds, code, stdout, problem = call(cli, item.argv)
            ended = time.perf_counter()
            if outcome is None:
                outcome = Outcome(item, seconds, code, stdout, problem)
            elif (code, stdout, problem) != (outcome.code, outcome.stdout, None):
                outcome.problem = problem or "answer changed between repeated calls"
            outcome.seconds = min(outcome.seconds, seconds)
            outcome.timings.append((started, ended, seconds))
            spent += seconds
        if tracer is not None:
            outcome.counts = tracer.counts
        outcomes.append(outcome)
    speed.sample()
    return outcomes, time.perf_counter() - start


def judge_pass(cli, prepared, outcomes, first, recorded, failed):
    """Full checks on the first pass; later passes must repeat it exactly.
    Records the first reason per failed instance; returns the number of
    instances that failed in this pass."""
    bad = 0
    for i, (item, outcome) in enumerate(zip(prepared, outcomes)):
        if first is None:
            why = judge(cli, item, outcome, recorded)
        elif outcome.problem is not None:
            why = outcome.problem
        elif (outcome.code, outcome.stdout, outcome.machine) != \
                (first[i].code, first[i].stdout, first[i].machine):
            why = "answer differs from the first pass"
        else:
            continue
        if why is not None:
            bad += 1
            failed.setdefault(item.inst.iid, why)
    return bad


def tail_rank(n):
    """Index (ascending) and percentile of the highest percentile with at
    least ten samples above it."""
    return n - 11, int(100 * (n - 10) / n)


def setup(workload, seed, workdir, speed):
    """Import, select, generate and write, SETUP_REPEATS times; returns
    (cli, prepared, recorded, median seconds scaled to the reference host
    speed)."""
    times, first = [], None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        speed.sample()
        start = time.perf_counter()
        cli = import_program()
        recorded = load_expected()["workloads"][workload]
        iids = workloads.select(workload, seed, recorded)
        if workdir.exists():
            shutil.rmtree(workdir)
        prepared = prepare(workload, iids, workdir)
        end = time.perf_counter()
        speed.sample()
        times.append((end - start) * speed.scale(start, end))
        files = [(p.inst.iid, p.inst.files) for p in prepared]
        if first is None:
            first = files
        elif files != first:
            raise BenchError("generating twice from seed %d gave different files" % seed)
    return cli, prepared, recorded, statistics.median(times)


def end_to_end(prepared, passes, setup_s, failed, speed):
    n = len(prepared)
    # An instance's time is the median of its calls, each scaled to the
    # reference host speed.
    per_instance = sorted(
        statistics.median(seconds * speed.scale(started, ended)
                          for outcomes, _wall in passes
                          for started, ended, seconds in outcomes[i].timings)
        if passes[0][0][i].timings else 0.0
        for i in range(n))
    raw = sorted(min(p[0][i].seconds for p in passes) for i in range(n))
    tail_index, tail_pct = tail_rank(n)
    first = passes[0][0]
    decided = sum(1 for item, o in zip(prepared, first)
                  if o.answer in DECIDED and item.inst.iid not in failed)
    states = sum(o.states or 0 for o in first if o.answer == "realizable")
    metrics = {
        "setup_s": (setup_s, "s"),
        "instance_s.p50": (statistics.median(per_instance), "s"),
        "instance_s.tail": (per_instance[tail_index], "s"),
        "instances_per_s": (n / sum(per_instance), "1/s"),
        "decided_share": (decided / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "machine_states": (states, "count"),
    }
    loops = sorted(d for _t, d in speed.samples)
    notes = ["instance_s.tail is p%d of %d instances: the 11th slowest, 10 above it"
             % (tail_pct, n),
             "host speed loop: fastest %.2f ms, median %.2f ms over %d samples;"
             " times are scaled to %.2f ms"
             % (1000 * loops[0], 1000 * statistics.median(loops), len(loops),
                1000 * SPEED_REF_S),
             "unscaled fastest calls: p50 %.6g s, tail %.6g s, %.6g instances/s"
             % (statistics.median(raw), raw[tail_index], n / sum(raw))]
    return metrics, notes


def scaled_calls(prepared, outcomes, speed):
    """Each instance's first call, scaled to the reference host speed."""
    return {item.inst.iid: (seconds, speed.scale(started, ended))
            for item, o in zip(prepared, outcomes) if o.timings
            for started, ended, seconds in o.timings[:1]}


def traced_pass(cli, tracer, prepared, recorded, guard, problems, speed):
    """One pass under the tracer; returns its per-layer totals, in
    seconds at the reference host speed.  Each instance's counts must
    equal those recorded in expected.json."""
    tracer.reset(None)
    outcomes, wall = run_pass(cli, prepared, guard, speed, tracer=tracer)
    tracer.instance = tracer.counts = None
    self_ns, roots, covered, _calls = tracer.analyse()
    calls = scaled_calls(prepared, outcomes, speed)
    check_roots(roots, calls, problems)
    counts = layers.new_counts()
    for item, outcome in zip(prepared, outcomes):
        if outcome.counts is None:
            continue
        for key, value in outcome.counts.items():
            counts[key] += value
        got = layers.nonzero(outcome.counts)
        want = recorded.get(item.inst.iid, {}).get("counts")
        if got != want:
            problems.append("%s: counts %s, recorded %s" % (item.inst.iid, got, want))
    layer_ns = dict.fromkeys(layers.LAYERS + ("verify",), 0)
    times = dict.fromkeys(["%s.self_s" % layer for layer in layers.LAYERS]
                          + list(layers.COVER), 0.0)
    for inst, per in self_ns.items():
        if inst not in calls:  # reported by check_roots
            continue
        scale = calls[inst][1] / 1e9
        for layer, ns in per.items():
            layer_ns[layer] += ns
            if layer in layers.LAYERS:
                times["%s.self_s" % layer] += ns * scale
        for metric, ns in covered.get(inst, {}).items():
            times[metric] += ns * scale
    return {"outcomes": outcomes, "wall": wall, "times": times, "counts": counts,
            "layer_ns": layer_ns,
            "calls_s": sum(seconds * scale for seconds, scale in calls.values())}


def check_roots(roots, calls, problems):
    """Each traced call must record exactly one root span, cli.main, that
    covers the call's time from call() to within ROOT_SLACK_S.  The layer
    self times of an instance add up to its root span by construction, so
    this makes them add up to the call's wall time."""
    for inst in sorted(set(roots) | set(calls)):
        names = [name for name, _ns in roots.get(inst, [])]
        if names != ["cli.main"]:
            problems.append("%s: root spans %s, want one cli.main" % (inst, names))
        elif inst not in calls:
            problems.append("%s: spans recorded outside a call" % inst)
        else:
            gap = calls[inst][0] - roots[inst][0][1] / 1e9
            if not -1e-6 <= gap <= ROOT_SLACK_S:
                problems.append("%s: cli.main span is %.6f s shorter than the call"
                                % (inst, gap))


def per_layer(traced, untraced_calls_s):
    """Times: the fastest traced pass, at the reference host speed;
    counts: the first traced pass."""
    metrics = {key: (min(t["times"][key] for t in traced), "s") for key in traced[0]["times"]}
    counts = traced[0]["counts"]
    for key in layers.COUNTS:
        metrics[key] = (counts[key], "count")
    for key, (part, whole) in layers.SHARES.items():
        metrics[key] = (counts[part] / counts[whole] if counts[whole] else 0.0, "share")
    overhead = statistics.median(t["calls_s"] for t in traced) / statistics.median(
        untraced_calls_s)
    metrics["trace.overhead_share"] = (overhead - 1.0, "share")
    return metrics


def run_probes(cli, tracer, workdir, problems):
    """Run the fixed probe calls traced; every name a probe is known to
    reach must record a span."""
    probe_dir = workdir / "probes"
    probe_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "paper.wfa": workloads.gen.emit_wfa(workloads.PAPER_SPEC),
        "paper-avg.wfa": workloads.gen.emit_wfa(dict(workloads.PAPER_SPEC, measure="avg")),
        "remark.arena": layers.REMARK_ARENA,
        "always-c.mealy": layers.ALWAYS_C_MEALY,
        "out.mealy": "",
    }
    for name, text in files.items():
        (probe_dir / name).write_text(text, encoding="utf-8")
    wrapped = set(tracer.names)
    for argv, names in layers.PROBES:
        tracer.reset(None)
        full = [str(probe_dir / a) if a in files else a for a in argv]
        _s, _code, _out, problem = call(cli, full + ["--json"])
        if problem is not None:
            problems.append("probe %s: %s" % (" ".join(argv), problem))
            continue
        calls = tracer.analyse()[3]
        for name in names:
            if name not in wrapped:
                print("note: probe name %s is no longer a public function" % name)
            elif calls.get(name, 0) == 0:
                problems.append("probe %s recorded no span for %s" % (" ".join(argv), name))


def measure(args, workdir, run_start):
    speed = Speedometer()
    cli, prepared, recorded, setup_s = setup(args.workload, args.seed, workdir, speed)
    guard = run_start + RUN_GUARD_S
    measured = 0.0
    failed, problems, passes = {}, [], []
    traced, untraced_calls_s = [], []
    bad_calls = 0
    tracer = layers.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        run_probes(cli, tracer, workdir, problems)
        tracer.uninstall()
    while True:
        outcomes, wall = run_pass(cli, prepared, guard, speed, repeat=tracer is None)
        first = passes[0][0] if passes else None
        bad_calls += judge_pass(cli, prepared, outcomes, first, recorded, failed)
        passes.append((outcomes, wall))
        if tracer is not None:
            untraced_calls_s.append(sum(seconds * scale for seconds, scale
                                        in scaled_calls(prepared, outcomes, speed).values()))
            tracer.install()
            stats = traced_pass(cli, tracer, prepared, recorded, guard, problems, speed)
            tracer.uninstall()
            traced.append(stats)
            bad_calls += judge_pass(cli, prepared, stats["outcomes"], passes[0][0],
                                    recorded, failed)
            wall += stats["wall"]
        measured += wall
        if measured + wall > args.seconds or time.perf_counter() + wall > guard:
            break
    if tracer is not None:
        SPANS.mkdir(exist_ok=True)
        spans_file = SPANS / ("%s-%d.tsv" % (args.workload, args.seed))
        tracer.dump(spans_file)
        print("spans of the last traced pass: %s" % spans_file.relative_to(ROOT))
    n = len(prepared)
    for iid, why in sorted(failed.items()):
        print("FAILED %s: %s" % (iid, why))
    for why in problems:
        print("TRACE CHECK FAILED: %s" % why)
    runs = len(passes) * (2 if tracer is not None else 1)
    print("workload %s, seed %d: %d instances, %d passes, closed loop, one client"
          % (args.workload, args.seed, n, runs))
    if tracer is None:
        metrics, notes = end_to_end(prepared, passes, setup_s, failed, speed)
        notes.append("pass wall times: %s s" % ", ".join("%.3f" % w for _o, w in passes))
    else:
        metrics = per_layer(traced, untraced_calls_s)
        layer_ns = traced[0]["layer_ns"]
        total = sum(layer_ns.values()) or 1
        notes = ["unscaled layer self time, first traced pass"
                 " (adds up to its cli.main spans):"]
        notes += ["  %-10s %10.4f s %6.1f%%" % (layer, ns / 1e9, 100.0 * ns / total)
                  for layer, ns in layer_ns.items()]
    notes.append("failed_share %.4f (%d of %d instance runs; %d of %d instances)"
                 % (bad_calls / (n * runs), bad_calls, n * runs, len(failed), n))
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": n * runs,
        "failed": bad_calls,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    run_start = time.perf_counter()
    workdir = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    signal.signal(signal.SIGALRM, _alarm)
    try:
        return measure(args, workdir, run_start)
    except BenchError as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
