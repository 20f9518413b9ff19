"""The benchmark's workloads: instance families, pools and per-seed selection.

Each workload is a list of families.  A family turns a random.Random into
one instance: the CLI arguments, the files they name, and what the checks
need to judge the answer.  Every family has a fixed pool of instances,
instance j drawn from Random("<workload>/<family>/<j>"); the expected
answers of the whole pool are recorded in expected.json.

A run's seed picks the workload's slowest instances and, from the rest
of each family's pool of `count * band`, one instance per band of
similar ones (see select), so that the metrics of different seeds differ
by the code's behaviour on different inputs rather than by a lucky draw
of heavy instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen

PAPER_SPEC = {
    "measure": "sum",
    "discount": None,
    "inputs": ["a", "b"],
    "outputs": ["c", "d"],
    "initial": "q0",
    "finals": ["q2", "q7"],
    "trans": [
        ("q0", "a", 0, "q3"), ("q3", "c", -2, "q0"), ("q3", "d", 2, "q4"),
        ("q0", "b", 0, "q1"), ("q4", "a", 0, "q5"), ("q1", "d", 12, "q2"),
        ("q5", "d", 2, "q4"), ("q4", "b", 0, "q6"), ("q6", "d", 4, "q7"),
    ],
}


@dataclass
class Instance:
    """One CLI call.  argv names files by their key in `files`; the runner
    replaces them with paths.  `objective` says what a machine must meet:
    ("threshold", cmp, nu), ("best_value",) or ("approx", cmp, r), with
    cmp in the program's symbolic form (">", ">=", "<", "<=")."""

    iid: str
    argv: list
    files: dict
    spec: dict = None
    objective: tuple = None
    graph: dict = None
    machine_out: bool = False


@dataclass
class Family:
    name: str
    make: object
    count: int
    band: int

    @property
    def pool(self):
        return self.count * self.band


_GE = {"ge": ">=", "gt": ">"}
_LE = {"le": "<=", "lt": "<"}


def _synth_threshold(spec, cmp, nu):
    return Instance(
        iid="", files={"spec.wfa": gen.emit_wfa(spec)}, spec=spec,
        argv=["synth", "threshold", "spec.wfa", "--cmp", cmp, "--nu=" + nu],
        objective=("threshold", _GE[cmp], nu), machine_out=True)


def _solve_prefix(arena, measure, cmp, nu, lam=None):
    argv = ["solve-prefix", "game.arena", "--measure", measure, "--cmp", cmp, "--nu=" + nu]
    if lam is not None:
        argv += ["--lambda", lam]
    return Instance(iid="", argv=argv, files={"game.arena": gen.emit_arena(arena)})


# --- threshold-mp -----------------------------------------------------------


def mp_synth(rng):
    k, m = rng.choice([(10, 3), (13, 4), (16, 5), (18, 6), (20, 7)])
    measure = rng.choice(["sum", "avg"])
    spec = gen.memory_spec(rng, k, m, "abc", "xyz", measure)
    if measure == "sum":
        nu = str(rng.randint(-4, 4))
    else:
        nu = rng.choice(["-1", "-1/2", "0", "1/3", "1/2", "1"])
    return _synth_threshold(spec, rng.choice(["ge", "gt"]), nu)


def mp_prefix(rng):
    arena = gen.random_arena(rng, rng.randint(20, 80))
    measure = rng.choice(["sum", "avg"])
    nu = str(rng.randint(-3, 3)) if measure == "sum" else rng.choice(["-1", "-1/2", "0", "1/2"])
    return _solve_prefix(arena, measure, rng.choice(["ge", "gt"]), nu)


# --- bestvalue-verify ---------------------------------------------------------


def bv_synth(rng):
    k, m = rng.randint(3, 5), rng.randint(2, 3)
    spec = gen.memory_spec(rng, k, m, "ab", "xy", rng.choice(["sum", "avg"]), choice_cap=4)
    return Instance(
        iid="", files={"spec.wfa": gen.emit_wfa(spec)}, spec=spec,
        argv=["synth", "best-value", "spec.wfa"], objective=("best_value",),
        machine_out=True)


def bv_verify(rng):
    k, m = rng.randint(3, 5), rng.randint(2, 3)
    spec = gen.memory_spec(rng, k, m, "ab", "xy", rng.choice(["sum", "avg"]))
    machine = gen.selector_machine(rng, spec)
    kind = rng.choice(["best-value", "approx", "threshold"])
    argv = ["verify", "spec.wfa", "machine.mealy", "--objective", kind]
    if kind == "best-value":
        objective = ("best_value",)
    elif kind == "approx":
        cmp, r = rng.choice(["le", "lt"]), str(rng.randint(1, 3))
        argv += ["--cmp", cmp, "--r", r]
        objective = ("approx", _LE[cmp], r)
    else:
        cmp, nu = rng.choice(["ge", "gt"]), str(rng.randint(-4, 2))
        argv += ["--cmp", cmp, "--nu=" + nu]
        objective = ("threshold", _GE[cmp], nu)
    files = {"spec.wfa": gen.emit_wfa(spec), "machine.mealy": gen.emit_mealy(machine)}
    return Instance(iid="", argv=argv, files=files, spec=spec, objective=objective)


# --- dsum-positional ----------------------------------------------------------

_LAMBDAS = ["1/2", "2/3", "3/4"]


def dsum_synth(rng):
    k, m = rng.randint(3, 4), rng.randint(2, 3)
    spec = gen.memory_spec(rng, k, m, "ab", "xy", "dsum", discount=rng.choice(_LAMBDAS),
                           choice_cap=6)
    return _synth_threshold(spec, rng.choice(["ge", "gt"]),
                            rng.choice(["-1", "0", "1/2", "1"]))


def dsum_prefix(rng):
    arena = gen.random_arena(rng, rng.randint(8, 14), eve_choice_cap=6)
    return _solve_prefix(arena, "dsum", rng.choice(["ge", "gt"]),
                         rng.choice(["-1", "0", "1"]), rng.choice(_LAMBDAS))


def dsum_path(rng):
    graph = gen.random_graph(rng, rng.randint(25, 200))
    strict = rng.random() < 0.5
    nu, lam = rng.choice(["-3", "-2", "-1", "0"]), rng.choice(_LAMBDAS)
    argv = ["dsum-path", "graph.arena", "--nu=" + nu, "--lambda", lam]
    if strict:
        argv.append("--strict")
    return Instance(iid="", argv=argv, files={"graph.arena": gen.emit_arena(graph)},
                    graph=dict(graph, nu=nu, lam=lam, strict=strict))


# --- approx-knowledge ---------------------------------------------------------


def approx_small(rng):
    k, m = rng.randint(2, 3), rng.randint(2, 4)
    spec = gen.memory_spec(rng, k, m, "ab", "xy", rng.choice(["sum", "avg"]), out_w=(-3, 3))
    cmp, r = rng.choice(["le", "lt"]), str(rng.randint(1, 4))
    return Instance(
        iid="", files={"spec.wfa": gen.emit_wfa(spec)}, spec=spec,
        argv=["synth", "approx", "spec.wfa", "--cmp", cmp, "--r", r, "--cap", "8"],
        objective=("approx", _LE[cmp], r), machine_out=True)


_PAPER_RUNS = [(cap, cmp) for cap in ("64", "256") for cmp in ("le", "lt")]


def approx_paper(rng, index):
    cap, cmp = _PAPER_RUNS[index]
    return Instance(
        iid="", files={"spec.wfa": gen.emit_wfa(PAPER_SPEC)}, spec=PAPER_SPEC,
        argv=["synth", "approx", "spec.wfa", "--cmp", cmp, "--r", "4", "--cap", cap],
        objective=("approx", _LE[cmp], "4"), machine_out=True)


WORKLOADS = {
    "threshold-mp": [
        Family("mp-synth", mp_synth, count=36, band=2),
        Family("mp-prefix", mp_prefix, count=18, band=2),
    ],
    "bestvalue-verify": [
        Family("bv-synth", bv_synth, count=40, band=2),
        Family("bv-verify", bv_verify, count=60, band=2),
    ],
    "dsum-positional": [
        Family("dsum-synth", dsum_synth, count=40, band=2),
        Family("dsum-prefix", dsum_prefix, count=30, band=2),
        Family("dsum-path", dsum_path, count=12, band=2),
    ],
    "approx-knowledge": [
        Family("approx-small", approx_small, count=150, band=2),
        Family("approx-paper", approx_paper, count=len(_PAPER_RUNS), band=1),
    ],
}


def pool_instance(workload, family, index):
    """Instance `index` of a family's pool; the same arguments always give
    byte-identical files."""
    rng = random.Random("%s/%s/%d" % (workload, family.name, index))
    if family.make is approx_paper:
        inst = approx_paper(rng, index)
    else:
        inst = family.make(rng)
    inst.iid = "%s/%d" % (family.name, index)
    return inst


# The slowest instances of a workload's pools always run.
FIXED_SLOWEST = 20


def select(workload, seed, recorded):
    """The instance ids a seed runs (`recorded` maps an instance id to its
    entry in expected.json).

    The FIXED_SLOWEST slowest instances of the workload's pools always
    run: they decide the tail and most of the throughput, so they are not
    left to the draw.  The rest of each family's pool is split by
    recorded answer, ranked by the size of the synthesized machine, then
    by recorded time, and cut into bands of `band` consecutive instances;
    the seed picks one instance per band.  So every seed runs the same
    number of instances of each answer and nearly the same mix of cheap,
    heavy, small and large ones.
    """
    pools = {family.name: ["%s/%d" % (family.name, j) for j in range(family.pool)]
             for family in WORKLOADS[workload]}
    everything = [iid for ids in pools.values() for iid in ids]
    fixed = sorted(everything, key=lambda iid: (-recorded[iid]["ms"], iid))[:FIXED_SLOWEST]
    chosen = list(fixed)
    for family in WORKLOADS[workload]:
        by_answer = {}
        for iid in pools[family.name]:
            if iid not in fixed:
                by_answer.setdefault(recorded[iid]["answer"], []).append(iid)
        rng = random.Random("%d/%s/%s" % (seed, workload, family.name))
        for answer in sorted(by_answer):
            ids = sorted(by_answer[answer], key=lambda iid: (
                recorded[iid]["states"] or 0, recorded[iid]["ms"], iid))
            for start in range(0, len(ids), family.band):
                chosen.append(rng.choice(ids[start:start + family.band]))
    return chosen
