import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wsynth import core
from wsynth.games import ADAM, EVE

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def paper_spec():
    return core.parse_wfa((FIXTURES / "paper-example.wfa").read_text())


@pytest.fixture(scope="session")
def remark_arena_text():
    return (FIXTURES / "remark.arena").read_text()


def brute_best_value(spec, u):
    """Independent oracle: enumerate every output word of matching length."""
    u = core.word(u)
    best = core.NEG_INF
    for v in itertools.product(spec.outputs, repeat=len(u)):
        val = core.evaluate(spec, u, v)
        if best is core.NEG_INF or (val is not core.NEG_INF and val > best):
            best = val
    return best


def brute_domain(spec, max_len):
    """All domain words up to max_len, by output enumeration."""
    dom = []
    for n in range(max_len + 1):
        for u in itertools.product(spec.inputs, repeat=n):
            if brute_best_value(spec, u) is not core.NEG_INF:
                dom.append(u)
    return dom


def random_spec(rng, max_states=6, max_w=3, measure=core.SUM, discount=None,
                final_bias=0.6):
    """Random partial alternating spec over inputs {a,b}, outputs {c,d}."""
    ni = rng.randint(1, max(1, max_states // 2))
    no = rng.randint(1, max_states - ni) if max_states > ni else 1
    in_states = ["i%d" % k for k in range(ni)]
    out_states = ["o%d" % k for k in range(no)]
    transitions = {}
    for src in in_states:
        for sym in ("a", "b"):
            if rng.random() < 0.75:
                transitions[(src, sym)] = (rng.choice(out_states), rng.randint(-max_w, max_w))
    for src in out_states:
        for sym in ("c", "d"):
            if rng.random() < 0.75:
                transitions[(src, sym)] = (rng.choice(in_states), rng.randint(-max_w, max_w))
    finals = tuple(q for q in in_states if rng.random() < final_bias)
    return core.WeightedSpec(
        inputs=("a", "b"),
        outputs=("c", "d"),
        states=tuple(in_states + out_states),
        initial="i0",
        finals=finals,
        transitions=transitions,
        measure=measure,
        discount=discount,
    )


def always_transducer(output, inputs=("a", "b")):
    """Single-state machine emitting one fixed output symbol."""
    return core.MealyTransducer(
        inputs=tuple(inputs),
        outputs=(output,),
        states=("s",),
        initial="s",
        finals=("s",),
        transitions={("s", a): (output, "s") for a in inputs},
    )


def first_c_transducer():
    """Outputs c for the first a, d for everything afterwards."""
    return core.MealyTransducer(
        inputs=("a", "b"),
        outputs=("c", "d"),
        states=("fresh", "rest"),
        initial="fresh",
        finals=("fresh", "rest"),
        transitions={
            ("fresh", "a"): ("c", "rest"),
            ("fresh", "b"): ("d", "rest"),
            ("rest", "a"): ("d", "rest"),
            ("rest", "b"): ("d", "rest"),
        },
    )


def always_d_realizer():
    """Always outputs d, with domain a*b matching the running example."""
    return core.MealyTransducer(
        inputs=("a", "b"),
        outputs=("c", "d"),
        states=("wait", "done"),
        initial="wait",
        finals=("done",),
        transitions={
            ("wait", "a"): ("d", "wait"),
            ("wait", "b"): ("d", "done"),
        },
    )


def first_c_realizer():
    """c for the first a, d afterwards, with domain a*b."""
    return core.MealyTransducer(
        inputs=("a", "b"),
        outputs=("c", "d"),
        states=("fresh", "wait", "done"),
        initial="fresh",
        finals=("done",),
        transitions={
            ("fresh", "a"): ("c", "wait"),
            ("fresh", "b"): ("d", "done"),
            ("wait", "a"): ("d", "wait"),
            ("wait", "b"): ("d", "done"),
        },
    )


def old_attractor(arena, targets, player):
    """The attractor as first written: fresh incoming lists and counters."""
    known = set(arena.vertices)
    region = set(t for t in targets if t in known)
    pending = {v: len(arena.out(v)) for v in arena.vertices}
    strategy = {}
    incoming = {v: [] for v in arena.vertices}
    for i, (src, _a, _w, dst) in enumerate(arena.edges):
        incoming[dst].append((src, i))
    queue = list(region)
    while queue:
        v = queue.pop()
        for src, edge_idx in incoming[v]:
            if src in region:
                continue
            if arena.owner[src] == player:
                region.add(src)
                strategy[src] = edge_idx
                queue.append(src)
            else:
                pending[src] -= 1
                if pending[src] == 0:
                    region.add(src)
                    queue.append(src)
    return region, strategy


def old_solve_safety(arena, safe):
    """Safety as first written, on old_attractor; (region, choice)."""
    safe = set(safe)
    unsafe = [v for v in arena.vertices if v not in safe]
    attr, _ = old_attractor(arena, unsafe, ADAM)
    region = set(v for v in arena.vertices if v not in attr)
    choice = {}
    for v in region:
        if arena.owner[v] != EVE:
            continue
        for i in arena.out(v):
            if arena.edges[i][3] in region:
                choice[v] = i
                break
    return region, choice
