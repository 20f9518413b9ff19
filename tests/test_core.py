import ast
import collections
import itertools
import os
import random
import subprocess
import sys
import types
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wsynth import core
from wsynth.core import NEG_INF

from conftest import (
    FIXTURES,
    always_transducer,
    bfs_infer_polarity,
    brute_best_value,
    first_c_transducer,
    load_bench_gen,
)


def test_parse_paper_fixture(paper_spec):
    assert paper_spec.measure == core.SUM
    assert len(paper_spec.states) == 8
    assert len(paper_spec.transitions) == 9
    assert paper_spec.finals == ("q2", "q7")
    states = sorted(paper_spec.states)
    assert [q for q in states if paper_spec.polarity[q] == core.INPUT] == ["q0", "q2", "q4", "q7"]
    assert [q for q in states if paper_spec.polarity[q] == core.OUTPUT] == ["q1", "q3", "q5", "q6"]


def test_parse_epsilon_only_spec():
    spec = core.parse_wfa("wfa\nmeasure: sum\ninputs: a\noutputs: c\ninitial: q0\nfinals: q0\n")
    assert core.evaluate(spec, "", "") == Fraction(0)
    assert core.best_value(spec, "") == Fraction(0)


def test_parse_rejects_nondeterminism():
    text = (
        "wfa\nmeasure: sum\ninputs: a\noutputs: c\ninitial: q0\nfinals:\n"
        "trans: q0 a 0 q1\ntrans: q0 a 1 q2\n"
    )
    with pytest.raises(core.FormatError, match="nondeterministic at q0/a"):
        core.parse_wfa(text)


def test_parse_rejects_final_output_state():
    text = (
        "wfa\nmeasure: sum\ninputs: a\noutputs: c\ninitial: q0\nfinals: q1\n"
        "trans: q0 a 0 q1\ntrans: q1 c 0 q0\n"
    )
    with pytest.raises(core.FormatError, match="output state"):
        core.parse_wfa(text)


def test_parse_rejects_polarity_conflict():
    # q1 is reachable both as an output state (after a) and as an input
    # state (after a c).
    text = (
        "wfa\nmeasure: sum\ninputs: a\noutputs: c\ninitial: q0\nfinals:\n"
        "trans: q0 a 0 q1\ntrans: q1 c 0 q1\n"
    )
    with pytest.raises(core.FormatError, match="polarity conflict"):
        core.parse_wfa(text)


def test_parse_syntax_error_carries_line_number():
    with pytest.raises(core.FormatError, match="line 3"):
        core.parse_wfa("wfa\nmeasure: sum\ntrans: q0 a q1\n")


_SPEC_PARTS = dict(inputs=("a",), outputs=("c",), states=("q0", "q1"), initial="q0",
                  finals=("q0",), transitions={("q0", "a"): ("q1", 0), ("q1", "c"): ("q0", 0)})


@pytest.mark.parametrize("change, message", [
    ({"initial": "zz"}, "unknown initial state 'zz'"),
    ({"finals": ("zz",)}, "unknown final state 'zz'"),
    ({"transitions": {("q0", "a"): ("q1", 0), ("q1", "c"): ("zz", 0)}}, "dangling state"),
    ({"polarity": {"q0": core.OUTPUT, "q1": core.INPUT}}, "initial state must be an input"),
    ({"polarity": {"q0": core.INPUT, "q1": core.INPUT}}, "alternation violated"),
    ({"measure": "max"}, "unknown measure 'max'"),
    ({"inputs": ("a", "a")}, "repeated input symbol 'a'"),
    ({"outputs": ("c", "c")}, "repeated output symbol 'c'"),
    ({"states": ("q0", "q1", "q0")}, "repeated state 'q0'"),
    ({"finals": ("q0", "q0")}, "repeated final state 'q0'"),
])
def test_spec_built_directly_is_validated(change, message):
    assert core.WeightedSpec(**_SPEC_PARTS).polarity == {"q0": core.INPUT, "q1": core.OUTPUT}
    with pytest.raises(core.SpecError, match=message):
        core.WeightedSpec(**dict(_SPEC_PARTS, **change))


@pytest.mark.parametrize("change, message", [
    ({"initial": "zz"}, "unknown initial state 'zz'"),
    ({"finals": ("zz",)}, "unknown final state 'zz'"),
    ({"transitions": {("s", "a"): ("c", "zz")}}, "dangling state"),
    ({"finals": ("s", "s")}, "repeated final state 's'"),
    # minimize_transducer reads only the listed inputs: it would drop such a move
    ({"transitions": {("s", "b"): ("z", "s")}}, "unknown input 'b'"),
    ({"transitions": {("s", "a"): ("z", "s")}}, "unknown output 'z'"),
])
def test_mealy_built_directly_is_validated(change, message):
    parts = dict(inputs=("a",), outputs=("c",), states=("s",), initial="s", finals=("s",),
                 transitions={("s", "a"): ("c", "s")})
    core.MealyTransducer(**parts)
    with pytest.raises(core.SpecError, match=message):
        core.MealyTransducer(**dict(parts, **change))


def test_discount_validation():
    with pytest.raises(core.FormatError):
        core.parse_wfa("wfa\nmeasure: dsum\ninputs: a\noutputs: c\ninitial: q0\nfinals: q0\n")
    spec = core.parse_wfa(
        "wfa\nmeasure: dsum\ndiscount: 1/2\ninputs: a\noutputs: c\ninitial: q0\nfinals: q0\n"
    )
    assert spec.discount == Fraction(1, 2)


def test_evaluate_paper_values(paper_spec):
    assert core.evaluate(paper_spec, "ab", "cd") == 10
    assert core.evaluate(paper_spec, "b", "d") == 12
    assert core.evaluate(paper_spec, "", "") is NEG_INF
    assert core.evaluate(paper_spec, "ab", "dd") == 6


def test_evaluate_avg_is_sum_over_length(paper_spec):
    avg = paper_spec.with_measure(core.AVG)
    assert core.evaluate(avg, "ab", "cd") == Fraction(10, 4)
    for u, v in [("b", "d"), ("ab", "dd"), ("aab", "ddd")]:
        s = core.evaluate(paper_spec, u, v)
        a = core.evaluate(avg, u, v)
        if s is NEG_INF:
            assert a is NEG_INF
        else:
            assert a == Fraction(s, 2 * len(u))


def test_evaluate_dsum_single_pair_exact():
    lam = Fraction(1, 3)
    spec = core.WeightedSpec(
        inputs=("a",),
        outputs=("b",),
        states=("p", "m", "f"),
        initial="p",
        finals=("f",),
        transitions={("p", "a"): ("m", 5), ("m", "b"): ("f", -7)},
        measure=core.DSUM,
        discount=lam,
    )
    assert core.evaluate(spec, "a", "b") == lam * 5 + lam**2 * (-7)


def test_evaluate_errors(paper_spec):
    with pytest.raises(ValueError, match="equal length"):
        core.evaluate(paper_spec, "ab", "c")
    with pytest.raises(ValueError, match="alphabet"):
        core.evaluate(paper_spec, "ax", "cd")


def test_best_value_paper_values(paper_spec):
    assert core.best_value(paper_spec, "b") == 12
    assert core.best_value(paper_spec, "ab") == 10
    assert core.best_value(paper_spec, "aab") == 8
    assert core.best_value(paper_spec, "aa") is NEG_INF
    for i in range(2, 7):
        assert core.best_value(paper_spec, "a" * i + "b") == 2 * i + 4


def test_best_value_matches_enumeration(paper_spec):
    for n in range(0, 6):
        for u in itertools.product(paper_spec.inputs, repeat=n):
            assert core.best_value(paper_spec, u) == brute_best_value(paper_spec, u)


def test_best_value_matches_enumeration_dsum(paper_spec):
    dsum = paper_spec.with_measure(core.DSUM, Fraction(1, 2))
    for n in range(0, 5):
        for u in itertools.product(dsum.inputs, repeat=n):
            assert core.best_value(dsum, u) == brute_best_value(dsum, u)


def test_best_value_matches_enumeration_random_specs():
    from conftest import random_spec

    rng = random.Random(7)
    for trial in range(30):
        spec = random_spec(rng, max_states=5)
        for n in range(0, 4):
            for u in itertools.product(spec.inputs, repeat=n):
                assert core.best_value(spec, u) == brute_best_value(spec, u)


def test_neg_inf_is_absorbing():
    assert NEG_INF < Fraction(-10**9)
    assert not (NEG_INF > Fraction(-10**9))
    assert NEG_INF <= NEG_INF
    assert NEG_INF == NEG_INF
    assert NEG_INF != Fraction(0)
    assert Fraction(-5) > NEG_INF


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_dsum_two_weights_closed_form(j1, j2):
    lam = Fraction(2, 5)
    assert core.measure_value([j1, j2], core.DSUM, lam) == lam * j1 + lam**2 * j2


def test_run_transducer_always_d(paper_spec):
    t = always_transducer("d")
    assert core.run_transducer(t, "ab") == ("d", "d")
    assert core.run_transducer(t, ["a", "x"]) is None


def test_run_transducer_first_c():
    t = first_c_transducer()
    assert core.run_transducer(t, "ab") == ("c", "d")
    assert core.run_transducer(t, "b") == ("d",)


def test_wfa_round_trip(paper_spec):
    again = core.parse_wfa(core.emit_wfa(paper_spec))
    assert again == paper_spec


BIG = 10**5000 - 1  # more digits than int() and str() take on Python 3.11+
BIG_TEXT = "9" * 5000


def test_integers_of_any_length_read_and_write():
    text = ("wfa\nmeasure: sum\ninputs: a\noutputs: c\ninitial: p\nfinals: p\n"
            "trans: p a %s q\ntrans: q c -%s p\n" % (BIG_TEXT, BIG_TEXT))
    spec = core.parse_wfa(text)
    assert spec.transitions == {("p", "a"): ("q", BIG), ("q", "c"): ("p", -BIG)}
    assert core.emit_wfa(spec) == text
    assert core.parse_rational(BIG_TEXT + "/7") == Fraction(BIG, 7)
    assert core.parse_rational(" +" + BIG_TEXT) == BIG
    assert core.format_rational(Fraction(-BIG, 7)) == "-%s/7" % BIG_TEXT
    assert core.format_rational(BIG) == BIG_TEXT
    # what int() rejects for its form is still rejected at any length
    for token in (BIG_TEXT + "x", BIG_TEXT + "e2", "1__" + BIG_TEXT, BIG_TEXT + ".0"):
        with pytest.raises(core.FormatError, match="weight must be an integer"):
            core.parse_wfa(text.replace(BIG_TEXT, token, 1))
        with pytest.raises(ValueError, match="not a rational"):
            core.parse_rational(token)


def test_mealy_round_trip_and_size():
    t = always_transducer("d")
    text = core.emit_mealy(t)
    assert len(text.strip().splitlines()) == 5  # header, initial, finals, 2 trans
    again = core.parse_mealy(text)
    assert core.run_transducer(again, "ab") == ("d", "d")


def test_dot_export_one_node_per_state():
    t = first_c_transducer()
    mdot = core.mealy_to_dot(t)
    for q in t.states:
        assert mdot.count('[label="%s", shape=' % q) == 1


def test_alternation_partition(paper_spec):
    for (src, sym), (tgt, _w) in paper_spec.transitions.items():
        src_pol = paper_spec.polarity[src]
        assert paper_spec.polarity[tgt] != src_pol
        if src_pol == core.INPUT:
            assert sym in paper_spec.inputs
        else:
            assert sym in paper_spec.outputs


def sweep_polarity(spec):
    """Polarity as first inferred: sweep every transition until nothing changes."""
    inputs, outputs = set(spec.inputs), set(spec.outputs)
    polarity = {}

    def assign(state, pol):
        if polarity.get(state, pol) != pol:
            raise core.SpecError("polarity conflict at state %r" % state)
        polarity[state] = pol

    assign(spec.initial, core.INPUT)
    changed = True
    while changed:
        changed = False
        for (src, sym), (tgt, _w) in spec.transitions.items():
            before = (polarity.get(src), polarity.get(tgt))
            if sym in inputs and sym not in outputs:
                assign(src, core.INPUT)
            elif sym in outputs and sym not in inputs:
                assign(src, core.OUTPUT)
            if src in polarity:
                assign(tgt, core.OUTPUT if polarity[src] == core.INPUT else core.INPUT)
            if tgt in polarity and src not in polarity:
                assign(src, core.OUTPUT if polarity[tgt] == core.INPUT else core.INPUT)
            if before != (polarity.get(src), polarity.get(tgt)):
                changed = True
    for q in spec.states:
        polarity.setdefault(q, core.INPUT)
    return polarity


def _polarity_or_error(infer, spec):
    try:
        return infer(spec)
    except core.SpecError:
        return "SpecError"


def test_infer_polarity_matches_the_sweep_on_random_transitions():
    # _infer_polarity reads only these fields, so no validation runs here
    rng = random.Random(1717)
    kinds = {"conflict": 0, "unanchored": 0, "foreign": 0, "agree": 0}
    for _trial in range(20000):
        states = ["s%d" % k for k in range(rng.randint(1, 7))]
        symbols = "abcxyz"
        inputs = tuple(s for s in symbols if rng.random() < 0.4)
        outputs = tuple(s for s in symbols if rng.random() < 0.4)
        transitions = {}
        for _ in range(rng.randint(0, 10)):
            transitions[(rng.choice(states), rng.choice(symbols))] = (
                rng.choice(states), 0)
        spec = types.SimpleNamespace(
            inputs=inputs, outputs=outputs, states=tuple(states),
            initial=rng.choice(states), transitions=transitions,
        )
        new = _polarity_or_error(core._infer_polarity, spec)
        assert new == _polarity_or_error(sweep_polarity, spec), spec
        if new == "SpecError":
            kinds["conflict"] += 1
            continue
        kinds["agree"] += 1
        # an anchored transition always joins opposite polarities
        kinds["unanchored"] += any(
            new[src] == new[tgt] for (src, _s), (tgt, _w) in transitions.items())
        kinds["foreign"] += any(
            sym not in inputs and sym not in outputs for _q, sym in transitions)
    assert min(kinds.values()) >= 1000, kinds


def _malformed(rng, text):
    """text with one line dropped, duplicated or truncated, a stray '#' or
    ':' in one line, or one transition's symbol swapped to the other side."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.randrange(6)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == 2:
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    elif kind in (3, 4):
        cut = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:cut] + "#:"[kind - 3] + lines[i][cut:]
    else:
        sides = [line.split()[1:] for line in lines if line.startswith(("inputs:", "outputs:"))]
        trans = [k for k, line in enumerate(lines)
                 if line.startswith("trans:") and len(line.split()) > 2]
        if trans and len(sides) == 2:
            k = rng.choice(trans)
            tokens = lines[k].split()
            tokens[2] = rng.choice(sides[tokens[2] in sides[0]] or ["z"])
            lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _parse_outcome(text):
    try:
        spec = core.parse_wfa(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return core.emit_wfa(spec), list(spec.polarity.items())


def test_wfa_reader_matches_its_oracles_on_malformed_texts(monkeypatch):
    # the reader against the polarity of core.bfs, with the comments cut
    # from every line first, as it did before
    gen = load_bench_gen()
    rng = random.Random(2323)
    texts = [(FIXTURES / "paper-example.wfa").read_text()]
    for _ in range(40):
        texts.append(gen.emit_wfa(gen.memory_spec(
            rng, rng.randint(2, 3), rng.randint(2, 3), "ab", "xy", rng.choice(["sum", "avg"]))))
    corpus = []
    for trial in range(3000):
        text = texts[trial % len(texts)]
        for _ in range(rng.randint(1, 3)):
            text = _malformed(rng, text)
        corpus.append(text)
    new = [_parse_outcome(text) for text in corpus]
    monkeypatch.setattr(core, "_infer_polarity", bfs_infer_polarity)
    old = [_parse_outcome("\n".join(line.split("#", 1)[0] for line in text.splitlines()))
           for text in corpus]
    kinds = collections.Counter()
    for text, got, want in zip(corpus, new, old):
        assert got == want, text
        kinds["read" if len(got) == 2 else "conflict" if "polarity conflict" in got[1]
              else "line" if got[2] is not None else "other"] += 1
    assert all(kinds[kind] >= 100 for kind in ("read", "conflict", "line", "other")), kinds


def test_mealy_single_transition_four_lines():
    t = core.MealyTransducer(
        inputs=("a",),
        outputs=("d",),
        states=("s",),
        initial="s",
        finals=("s",),
        transitions={("s", "a"): ("d", "s")},
    )
    assert len(core.emit_mealy(t).strip().splitlines()) == 4


# --- minimal machines -------------------------------------------------------


def first_difference(left, right, start=None):
    """The shortest input word on which the partial functions of two
    machines differ, or None.  A breadth-first product search over (left
    state, right state, whether the outputs differed yet) from start, the
    pair of initial states by default; None stands for a run that died.
    A node differs when one side accepts and the other does not, or when
    both accept after different outputs."""
    inputs = tuple(dict.fromkeys(left.inputs + right.inputs))

    def accepts(t, q):
        return q is not None and q in t.finals

    def successors(node):
        p, q, differed = node
        for a in inputs:
            e = None if p is None else left.transitions.get((p, a))
            f = None if q is None else right.transitions.get((q, a))
            if e is not None or f is not None:
                yield (e and e[1], f and f[1], differed or e is None or f is None
                       or e[0] != f[0]), a

    def differs(node):
        p, q, differed = node
        return accepts(left, p) != accepts(right, q) or (differed and accepts(left, p))

    start = start or (left.initial, right.initial)
    links, found = core.bfs(successors, [start + (False,)], differs)
    return None if found is None else tuple(core.walk_back(links, found))


def moore_equivalent(t, p, q):
    """Whether states p and q of t agree on finality and, along every
    input word, on which inputs are defined and what they output."""
    def signature(state):
        return state in t.finals, tuple(t.transitions.get((state, a), (None,))[0]
                                        for a in t.inputs)

    def successors(pair):
        for a in t.inputs:
            e, f = t.transitions.get((pair[0], a)), t.transitions.get((pair[1], a))
            if e is not None and f is not None:
                yield (e[1], f[1]), a

    return core.bfs(successors, [(p, q)], lambda pair: signature(pair[0]) != signature(pair[1]))[1] is None


def random_partial_machine(rng, inputs="ab", outputs="xy"):
    """A seeded partial machine: a few distinct behaviours, each copied up to
    three times, every transition to a random copy of its target, with
    shuffled state names and transition order, and unreachable states."""
    n = rng.randint(1, 5)
    base = {(q, a): (rng.choice(outputs), rng.randrange(n))
            for q in range(n) for a in inputs if rng.random() < 0.75}
    base_finals = [q for q in range(n) if rng.random() < 0.5]
    copies = [rng.randint(1, 3) for _ in range(n)]
    states = [(q, k) for q in range(n) for k in range(copies[q])]
    states += [("extra", k) for k in range(rng.randint(0, 2))]
    names = dict(zip(states, ("s%d" % k for k in rng.sample(range(100), len(states)))))
    transitions = [((names[q, k], a), (b, names[tgt, rng.randrange(copies[tgt])]))
                   for (q, a), (b, tgt) in base.items() for k in range(copies[q])]
    transitions += [((names["extra", k], a), (rng.choice(outputs), names[0, 0]))
                    for k in range(len(states) - sum(copies)) for a in inputs]
    rng.shuffle(transitions)
    return core.MealyTransducer(
        inputs=tuple(inputs), outputs=tuple(outputs), states=tuple(names.values()),
        initial=names[0, 0], finals=tuple(names[q, k] for q, k in states if q in base_finals),
        transitions=dict(transitions))


def test_minimized_machine_has_no_first_difference_on_random_partial_machines():
    rng = random.Random(3401)
    seen = collections.Counter()
    for _ in range(400):
        t = random_partial_machine(rng, rng.choice(["ab", "abc"]))
        m = core.minimize_transducer(t)
        assert first_difference(t, m) is None, core.emit_mealy(t)
        # the words up to length 5 agree too, by running both machines
        for n in range(6):
            for u in itertools.product(t.inputs, repeat=n):
                assert core.run_transducer(t, u) == core.run_transducer(m, u)
        # minimal: no two of its states are equivalent
        assert not any(moore_equivalent(m, p, q) for p, q in itertools.combinations(m.states, 2))
        assert core.minimize_transducer(m) == m  # idempotent
        assert m.states == tuple("m%d" % k for k in range(len(m.states))) and m.initial == "m0"
        seen["merged" if len(m.states) < len(t.states) else "kept"] += 1
        seen["partial"] += len(m.transitions) < len(m.states) * len(m.inputs)
    assert seen["merged"] >= 200 and seen["kept"] >= 10 and seen["partial"] >= 100, seen


def test_first_difference_finds_a_mutated_output_or_finality():
    rng = random.Random(3402)
    found = 0
    for _ in range(200):
        m = core.minimize_transducer(random_partial_machine(rng))
        if not m.transitions:
            continue
        key = rng.choice(list(m.transitions))
        b, tgt = m.transitions[key]
        other = dict(m.transitions)
        other[key] = ("y" if b == "x" else "x", tgt)
        for mutant in (replace(m, transitions=other),
                       replace(m, finals=tuple(q for q in m.states if (q in m.finals) != (q == tgt)))):
            word = first_difference(m, mutant)
            if word is not None:
                found += 1
                assert core.run_transducer(m, word) != core.run_transducer(mutant, word)
    assert found >= 150


def test_minimize_names_classes_breadth_first_whatever_the_state_names():
    # s and t behave alike and merge; an undefined input stays apart from a
    # defined one into a dead state, so u and v do not merge
    t = core.MealyTransducer(
        inputs=("a", "b"), outputs=("x",), states=("z", "s", "t", "u", "v", "dead", "lost"),
        initial="z", finals=("s", "t"),
        transitions={("z", "b"): ("x", "u"), ("z", "a"): ("x", "s"), ("s", "a"): ("x", "t"),
                     ("t", "a"): ("x", "s"), ("u", "a"): ("x", "s"), ("v", "a"): ("x", "s"),
                     ("v", "b"): ("x", "dead"), ("lost", "a"): ("x", "z")})
    expected = ("mealy\ninitial: m0\nfinals: m1\ntrans: m0 a x m1\ntrans: m0 b x m2\n"
                "trans: m1 a x m1\ntrans: m2 a x m1\n")
    assert core.emit_mealy(core.minimize_transducer(t)) == expected
    v = replace(t, transitions={**t.transitions, ("u", "b"): ("x", "dead")})
    assert len(core.minimize_transducer(v).states) == 4
    # renamed states and reversed transition order give the same bytes
    names = {q: "q%d" % (9 - k) for k, q in enumerate(t.states)}
    renamed = core.MealyTransducer(
        inputs=t.inputs, outputs=t.outputs, states=tuple(names.values()),
        initial=names["z"], finals=tuple(names[q] for q in t.finals),
        transitions={(names[q], a): (b, names[r])
                     for (q, a), (b, r) in reversed(list(t.transitions.items()))})
    assert core.emit_mealy(core.minimize_transducer(renamed)) == expected


# --- the breadth-first kernel -----------------------------------------------

_GRAPH = {0: [(1, "a"), (2, "b")], 1: [(3, "c"), (2, "d")], 2: [(4, "e")], 3: [(0, "f")]}


def _succ(node):
    return _GRAPH.get(node, ())


def test_bfs_links_in_discovery_order():
    links, found = core.bfs(_succ, [0])
    assert found is None
    # keys in discovery order; each value is the first edge that reached it
    assert list(links.items()) == [
        (0, None), (1, (0, "a")), (2, (0, "b")), (3, (1, "c")), (4, (2, "e")),
    ]
    # several starts, one repeated: each is a root, in the order given
    links, _ = core.bfs(_succ, [2, 1, 2])
    assert list(links.items()) == [
        (2, None), (1, None), (4, (2, "e")), (3, (1, "c")), (0, (3, "f")),
    ]


def test_bfs_tests_the_goal_when_a_node_is_dequeued():
    # 3 is discovered (from 1) before 2 is dequeued, so the goal at 2 is
    # met after 3 joined the links; 4, found only from 2, never does
    links, found = core.bfs(_succ, [0], lambda node: node == 2)
    assert found == 2
    assert list(links) == [0, 1, 2, 3]
    # the first dequeued node that meets the goal wins, a start included
    assert core.bfs(_succ, [0], lambda node: node in (4, 3))[1] == 3
    assert core.bfs(_succ, [0], lambda node: True) == ({0: None}, 0)
    assert core.bfs(_succ, [0], lambda node: node == 9)[1] is None


def test_walk_back_spells_the_first_walk_found():
    links, found = core.bfs(_succ, [0], lambda node: node == 4)
    assert core.walk_back(links, found) == ["b", "e"]
    assert core.walk_back(links, 0) == []
    with pytest.raises(core.InternalError, match="cycle"):
        core.walk_back({0: (1, "x"), 1: (0, "y")}, 0)


_CYCLE_GUARD = """
from wsynth import core
try:
    core.walk_back({0: (1, "x"), 1: (0, "y")}, 0)
except core.InternalError as exc:
    print("InternalError:", exc)
"""


def test_walk_back_cycle_guard_holds_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CYCLE_GUARD],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "InternalError: parent links form a cycle\n"


def test_no_assert_statement_in_the_program():
    # every correctness gate must hold under python -O, where assert is gone
    src = Path(__file__).resolve().parent.parent / "src" / "wsynth"
    files = sorted(src.glob("*.py"))
    assert len(files) >= 8
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def unread_imports(tree):
    """(line, name) for each name the module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unread_import():
    # the project depends on no linter; a package's __init__ imports what it exports
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").glob("*.py"))
    files = [path for path in files if path.name != "__init__.py"]
    assert len(files) >= 16
    found = [
        "%s:%d %s" % (path.name, line, name)
        for path in files
        for line, name in unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
    assert unread_imports(ast.parse("import os.path\nfrom a import b as c, d\nprint(d)\n")) == [
        (1, "os"), (2, "c")]


def test_package_exports_are_an_explicit_list():
    import wsynth
    from wsynth import synthesis

    exported = wsynth.__all__
    assert isinstance(exported, list) and len(set(exported)) == len(exported)
    # every name resolves, and no module is exported
    assert not [name for name in exported
                if isinstance(getattr(wsynth, name), types.ModuleType)]
    # every public name the package imports is in the list
    public = {name for name, value in vars(wsynth).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == public
    # with the result constants of the public functions
    for name in ("REALIZABLE", "UNREALIZABLE", "NO_BOOLEAN_REALIZER", "UNKNOWN_AT_CAP",
                 "PASS", "FAIL"):
        assert getattr(wsynth, name) == getattr(synthesis, name)
    namespace = {}
    exec("from wsynth import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exported)


def unread_private_names(trees):
    """Sorted (module, name) for each module-level _private name that no tree reads."""
    defined = []
    read = set()
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [leaf.id for target in node.targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((module, name) for module, name in defined if name not in read)


def test_every_private_name_is_read_in_the_program():
    # a helper that a refactor leaves behind is dead code that no test runs
    src = Path(__file__).resolve().parent.parent / "src" / "wsynth"
    files = sorted(src.glob("*.py"))
    assert len(files) >= 8
    trees = [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in files]
    assert unread_private_names(trees) == []
    sample = "def _a(): pass\ndef _b(): _c()\n_c = 1\n_d, e = 2, 3\nclass _E: pass\n"
    assert unread_private_names([("m.py", ast.parse(sample))]) == [
        ("m.py", "_E"), ("m.py", "_a"), ("m.py", "_b"), ("m.py", "_d")]
