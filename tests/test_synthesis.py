import collections
import dataclasses
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wsynth import cli, core, domain, games, prefix, synthesis
from wsynth.core import AVG, DSUM, NEG_INF, SUM
from wsynth.games import ADAM, EVE
from wsynth.synthesis import (
    FAIL,
    PASS,
    REALIZABLE,
    UNKNOWN_AT_CAP,
    UNREALIZABLE,
    Objective,
    gen_spec_from_mp_game,
    synth_approx,
    synth_best_value,
    synth_threshold,
    totalize_for_church,
    verify_realizer,
)

from conftest import (FIXTURES, always_transducer, always_d_realizer, check_difference,
                      edge_iarena, first_c_realizer, load_bench_check, load_bench_gen,
                      load_bench_workloads, old_closure, old_dom_step, old_min_walk_below,
                      old_value_witness, old_verify_verdict_only, random_spec,
                      table_from_edges)
from test_games import full_floor_solve, mk_arena, random_arena
from test_prefix_games import OldImperfectArena, old_reduce_prefix_energy_to_energy


# --- arena conversion ---------------------------------------------------------


def test_spec_to_prefix_arena_shape(paper_spec):
    safe = domain.make_domain_safe(paper_spec)
    arena = synthesis.spec_to_prefix_arena(safe)
    assert arena.critical == frozenset(safe.finals)
    for q in safe.states:
        expected = ADAM if safe.polarity[q] == core.INPUT else EVE
        assert arena.owner[q] == expected
    assert not arena.deadlocks()
    # finals have no continuations in the fixture, so the sink exists
    assert ("dead_end",) in arena.owner


def test_spec_to_prefix_arena_epsilon_spec():
    spec = core.parse_wfa(
        "wfa\nmeasure: sum\ninputs: a\noutputs: c\ninitial: q0\nfinals: q0\n"
    )
    arena = synthesis.spec_to_prefix_arena(spec)
    assert "q0" in arena.critical
    assert not arena.deadlocks()


# --- verify_realizer ----------------------------------------------------------


def test_verify_always_d_threshold(paper_spec):
    t = always_d_realizer()
    verdict, _ = verify_realizer(
        paper_spec, t, Objective(kind="threshold", cmp=">=", bound=Fraction(6))
    )
    assert verdict == PASS
    verdict, witness = verify_realizer(
        paper_spec, t, Objective(kind="threshold", cmp=">=", bound=Fraction(7))
    )
    assert verdict == FAIL
    value = core.evaluate(paper_spec, witness, core.run_transducer(t, witness))
    assert value < 7


def test_verify_always_d_best_value_fails_on_ab(paper_spec):
    t = always_d_realizer()
    verdict, witness = verify_realizer(paper_spec, t, Objective(kind="best_value"))
    assert verdict == FAIL
    diff = check_difference(paper_spec, t, witness)
    assert diff > 0
    # ab is the canonical separating word: 6 produced versus bestVal 10
    assert check_difference(paper_spec, t, ("a", "b")) == 4


def test_verify_first_c_approx(paper_spec):
    t = first_c_realizer()
    verdict, _ = verify_realizer(
        paper_spec, t, Objective(kind="approx", cmp="<=", bound=Fraction(4))
    )
    assert verdict == PASS
    avg = paper_spec.with_measure(AVG)
    verdict, _ = verify_realizer(
        avg, t, Objective(kind="approx", cmp="<=", bound=Fraction(2, 3))
    )
    assert verdict == PASS
    for i in range(2, 7):
        u = "a" * i + "b"
        assert check_difference(avg, t, u) == Fraction(2, i + 1)


def test_verify_boolean_domain_mismatch(paper_spec):
    # always-c never completes any domain word beyond ab's prefix pattern
    t = always_transducer("c")
    verdict, witness = verify_realizer(paper_spec, t, Objective(kind="boolean"))
    assert verdict == FAIL
    in_spec_domain = domain.domain_membership(paper_spec, witness)
    in_machine_domain = core.run_transducer(t, witness) is not None
    assert in_spec_domain != in_machine_domain


def test_verify_threshold_dsum(paper_spec):
    dspec = paper_spec.with_measure(DSUM, Fraction(1, 2))
    t = always_d_realizer()
    assert core.evaluate(dspec, "b", "d") == 3  # lam*0 + lam^2*12
    # always-d values: b -> 3, a^i b -> 2/3 + (1/3) 4^-i, approaching 2/3
    for i in range(1, 6):
        u = "a" * i + "b"
        v = core.run_transducer(t, u)
        assert core.evaluate(dspec, u, v) == Fraction(2, 3) + Fraction(1, 3) * Fraction(1, 4) ** i
    verdict, _ = verify_realizer(
        dspec, t, Objective(kind="threshold", cmp=">=", bound=Fraction(2, 3))
    )
    assert verdict == PASS
    verdict, _ = verify_realizer(
        dspec, t, Objective(kind="threshold", cmp=">", bound=Fraction(2, 3))
    )
    assert verdict == PASS  # the infimum is never attained
    verdict, witness = verify_realizer(
        dspec, t, Objective(kind="threshold", cmp=">=", bound=Fraction(3, 4))
    )
    assert verdict == FAIL
    value = core.evaluate(dspec, witness, core.run_transducer(t, witness))
    assert value < Fraction(3, 4)


def test_verify_alphabet_mismatch(paper_spec):
    t = always_transducer("z")
    with pytest.raises(ValueError, match="alphabet"):
        verify_realizer(paper_spec, t, Objective(kind="boolean"))


# --- threshold synthesis --------------------------------------------------------


def test_threshold_paper_six_realizable(paper_spec):
    result = synth_threshold(paper_spec, ">=", Fraction(6))
    assert result.status == REALIZABLE
    verdict, _ = verify_realizer(
        paper_spec,
        result.transducer,
        Objective(kind="threshold", cmp=">=", bound=Fraction(6)),
    )
    assert verdict == PASS


def test_threshold_paper_seven_unrealizable(paper_spec):
    assert synth_threshold(paper_spec, ">=", Fraction(7)).status == UNREALIZABLE


def test_threshold_monotone_in_nu(paper_spec):
    outcomes = [
        synth_threshold(paper_spec, ">=", Fraction(nu)).status for nu in (0, 3, 6)
    ]
    assert outcomes == [REALIZABLE] * 3


def test_threshold_dsum_frontier(paper_spec):
    # guaranteed optimum is 2/3 (always-d, never attained); 3/4 fails on aab
    dspec = paper_spec.with_measure(DSUM, Fraction(1, 2))
    assert synth_threshold(dspec, ">=", Fraction(2, 3)).status == REALIZABLE
    assert synth_threshold(dspec, ">", Fraction(2, 3)).status == REALIZABLE
    assert synth_threshold(dspec, ">=", Fraction(3, 4)).status == UNREALIZABLE
    assert synth_threshold(dspec, ">=", Fraction(3)).status == UNREALIZABLE


def test_threshold_no_boolean_realizer():
    spec = core.WeightedSpec(
        inputs=("a", "x", "y"),
        outputs=("c", "d"),
        states=("i0", "o0", "ix", "iy", "ox", "oy", "f"),
        initial="i0",
        finals=("f",),
        transitions={
            ("i0", "a"): ("o0", 0),
            ("o0", "c"): ("ix", 0),
            ("o0", "d"): ("iy", 0),
            ("ix", "x"): ("ox", 0),
            ("iy", "y"): ("oy", 0),
            ("ox", "c"): ("f", 0),
            ("oy", "c"): ("f", 0),
        },
    )
    result = synth_threshold(spec, ">=", Fraction(0))
    assert result.status == synthesis.NO_BOOLEAN_REALIZER


def test_extract_transducer_domain(paper_spec):
    result = synth_threshold(paper_spec, ">=", Fraction(6))
    t = result.transducer
    for n in range(0, 8):
        for u in itertools.product(paper_spec.inputs, repeat=n):
            in_dom = domain.domain_membership(paper_spec, u)
            assert (core.run_transducer(t, u) is not None) == in_dom


def test_extract_transducer_rejects_a_strategy_that_leaves_the_spec():
    spec = core.parse_wfa("wfa\nmeasure: sum\ninputs: a\noutputs: c\ninitial: q0\n"
                          "finals: q0\ntrans: q0 a 0 q1\n")
    arena = synthesis.spec_to_prefix_arena(spec)
    with pytest.raises(ValueError, match="strategy undefined at reachable output state 'q1'"):
        synthesis.extract_transducer(spec, arena, games.PositionalStrategy({}))
    # q1 has no output, so its one edge goes into the game's sink
    escape = games.PositionalStrategy({"q1": arena.out("q1")[0]})
    with pytest.raises(ValueError, match="strategy escapes the specification at 'q1'"):
        synthesis.extract_transducer(spec, arena, escape)


# --- best-value synthesis -------------------------------------------------------


def test_best_value_paper_unrealizable(paper_spec):
    assert synth_best_value(paper_spec).status == UNREALIZABLE
    assert synth_best_value(paper_spec.with_measure(AVG)).status == UNREALIZABLE


def test_best_value_single_choice_realizable():
    spec = core.WeightedSpec(
        inputs=("a",),
        outputs=("c",),
        states=("i0", "o0", "i1"),
        initial="i0",
        finals=("i1",),
        transitions={
            ("i0", "a"): ("o0", 1),
            ("o0", "c"): ("i1", 2),
            ("i1", "a"): ("o0", 1),
        },
    )
    result = synth_best_value(spec)
    assert result.status == REALIZABLE


def test_best_value_dsum_small():
    # two choices at the single output state; only d is ever optimal
    spec = core.WeightedSpec(
        inputs=("a",),
        outputs=("c", "d"),
        states=("i0", "o0", "i1"),
        initial="i0",
        finals=("i1",),
        transitions={
            ("i0", "a"): ("o0", 0),
            ("o0", "c"): ("i1", 1),
            ("o0", "d"): ("i1", 2),
            ("i1", "a"): ("o0", 0),
        },
        measure=DSUM,
        discount=Fraction(1, 2),
    )
    result = synth_best_value(spec)
    assert result.status == REALIZABLE
    assert core.run_transducer(result.transducer, "a") == ("d",)


def test_best_value_matches_bounded_oracle():
    rng = random.Random(77)
    for trial in range(25):
        spec = random_spec(rng, max_states=4, max_w=2)
        result = synth_best_value(spec)
        if result.status not in (REALIZABLE, UNREALIZABLE):
            continue
        # oracle: try every memoryless selector over the raw spec states and
        # check optimality on words up to length 4 by brute force
        out_states = [q for q in spec.states if spec.polarity[q] == core.OUTPUT]
        pools = [
            [sym for sym in spec.outputs if (q, sym) in spec.transitions]
            or [None]
            for q in out_states
        ]
        found = False
        for combo in itertools.product(*pools):
            selector = dict(zip(out_states, combo))
            ok = True
            for n in range(0, 5):
                for u in itertools.product(spec.inputs, repeat=n):
                    top = core.best_value(spec, u)
                    state, run_val, alive = spec.initial, 0, True
                    for a in u:
                        mid = spec.transitions.get((state, a))
                        if mid is None or selector.get(mid[0]) is None:
                            alive = False
                            break
                        b = selector[mid[0]]
                        out = spec.transitions.get((mid[0], b))
                        state, run_val = out[0], run_val + mid[1] + out[1]
                    if top is NEG_INF:
                        continue
                    if not alive or state not in spec.finals:
                        ok = False
                        break
                    if Fraction(run_val) != top:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found = True
                break
        if result.status == REALIZABLE:
            assert found, core.emit_wfa(spec)
        else:
            assert not found, core.emit_wfa(spec)


# --- approximate synthesis -------------------------------------------------------


def test_approx_sum_r4_realizable(paper_spec):
    result = synth_approx(paper_spec, "<=", Fraction(4), cap=64)
    assert result.status == REALIZABLE
    verdict, _ = verify_realizer(
        paper_spec,
        result.transducer,
        Objective(kind="approx", cmp="<=", bound=Fraction(4)),
    )
    assert verdict == PASS


def test_approx_avg_two_thirds_realizable(paper_spec):
    avg = paper_spec.with_measure(AVG)
    result = synth_approx(avg, "<=", Fraction(2, 3), cap=64)
    assert result.status == REALIZABLE


def test_approx_sum_strict_r4_unknown(paper_spec):
    result = synth_approx(paper_spec, "<", Fraction(4), cap=64)
    assert result.status == UNKNOWN_AT_CAP


def exhaustive_small_transducers(spec, max_states):
    """Every Mealy machine over the spec alphabets with up to max_states
    states (all final), as candidate realizers."""
    names = ["t%d" % i for i in range(max_states)]
    options = [
        (b, tgt) for b in spec.outputs for tgt in names
    ] + [None]
    keys = [(s, a) for s in names for a in spec.inputs]
    for combo in itertools.product(options, repeat=len(keys)):
        transitions = {
            key: val for key, val in zip(keys, combo) if val is not None
        }
        yield core.MealyTransducer(
            inputs=spec.inputs,
            outputs=spec.outputs,
            states=tuple(names),
            initial=names[0],
            finals=tuple(names),
            transitions=transitions,
        )


def test_approx_sum_strict_r4_no_small_witness(paper_spec):
    # back the UNKNOWN verdict: no 2-state machine is a strict 4-approximation
    objective = Objective(kind="approx", cmp="<", bound=Fraction(4))
    for t in exhaustive_small_transducers(paper_spec, 2):
        verdict, _ = verify_realizer(paper_spec, t, objective)
        assert verdict == FAIL


def test_approx_first_c_passes_both(paper_spec):
    t = first_c_realizer()
    assert verify_realizer(
        paper_spec, t, Objective(kind="approx", cmp="<=", bound=Fraction(4))
    )[0] == PASS
    avg = paper_spec.with_measure(AVG)
    assert verify_realizer(
        avg, t, Objective(kind="approx", cmp="<=", bound=Fraction(2, 3))
    )[0] == PASS


def test_approx_r0_matches_best_value(paper_spec):
    # best-value equals approximate with slack 0, non-strict
    t = first_c_realizer()
    bv = verify_realizer(paper_spec, t, Objective(kind="best_value"))
    ap = verify_realizer(
        paper_spec, t, Objective(kind="approx", cmp="<=", bound=Fraction(0))
    )
    assert bv[0] == ap[0] == FAIL


def test_approx_strict_zero_unrealizable(paper_spec):
    assert synth_approx(paper_spec, "<", Fraction(0), cap=16).status == (
        UNREALIZABLE
    )


# --- church totalization ----------------------------------------------------------


def test_totalize_total_machine_unchanged_behavior():
    t = always_transducer("d")
    total = totalize_for_church(t, "d")
    assert len(total.states) == len(t.states) + 1
    for u in (("a",), ("a", "b"), ("b", "a", "b")):
        assert core.run_transducer(total, u) == core.run_transducer(t, u)


def test_totalize_empty_domain_machine():
    t = core.MealyTransducer(
        inputs=("a",),
        outputs=("c",),
        states=("s",),
        initial="s",
        finals=(),
        transitions={},
    )
    total = totalize_for_church(t, "c")
    # total machine produces c forever; domain stays empty
    assert all((q, "a") in total.transitions for q in total.states)
    assert core.run_transducer(total, "aaa") is None


def test_totalize_rejects_an_unknown_default_and_renames_its_sink():
    t = core.MealyTransducer(inputs=("a",), outputs=("c",), states=("s", "__church_sink__"),
                             initial="s", finals=("s",),
                             transitions={("s", "a"): ("c", "__church_sink__")})
    with pytest.raises(ValueError, match="default output 'd' not in the output alphabet"):
        totalize_for_church(t, "d")
    total = totalize_for_church(t, "c")
    assert total.states == ("s", "__church_sink__", "__church_sink___")
    assert total.transitions[("__church_sink__", "a")] == ("c", "__church_sink___")
    assert core.run_transducer(total, "a") == core.run_transducer(t, "a")


def test_totalize_prefix_outputs_match(paper_spec):
    result = synth_threshold(paper_spec, ">=", Fraction(6))
    t = result.transducer
    total = totalize_for_church(t, "d")
    state_t, state_total = t.initial, total.initial
    for u in itertools.product(paper_spec.inputs, repeat=4):
        s1, s2 = t.initial, total.initial
        for a in u:
            step1 = t.transitions.get((s1, a))
            step2 = total.transitions[(s2, a)]
            if step1 is None:
                break
            assert step1[0] == step2[0]
            s1, s2 = step1[1], step2[1]


# --- mean-payoff generator ----------------------------------------------------------


def test_gen_spec_single_eve_loop():
    arena = mk_arena([("v", EVE)], [("v", 0, "v")])
    spec, (measure, cmp, nu) = gen_spec_from_mp_game(arena)
    assert (measure, cmp, nu) == (SUM, ">=", 0)
    assert synth_threshold(spec, cmp, nu).status == REALIZABLE


def test_gen_spec_single_adam_negative_loop():
    arena = mk_arena([("v", ADAM)], [("v", -1, "v")])
    spec, (_m, cmp, nu) = gen_spec_from_mp_game(arena)
    assert synth_threshold(spec, cmp, nu).status == UNREALIZABLE


def test_gen_spec_cross_validation():
    rng = random.Random(2024)
    for trial in range(25):
        arena = random_arena(rng, max_v=4, max_w=2)
        spec, (_m, cmp, nu) = gen_spec_from_mp_game(arena)
        expected, _ = games.solve_mean_payoff(arena)
        result = synth_threshold(spec, cmp, nu)
        want = REALIZABLE if expected == EVE else UNREALIZABLE
        assert result.status == want, games.emit_arena(arena)


def test_build_approx_game_structure(paper_spec):
    # all eight fixture states are both reachable and co-reachable
    assert domain._live_states(paper_spec) == set(paper_spec.states)
    game, credit = synthesis.build_approx_game(paper_spec, "<=", Fraction(0))
    assert credit == 0  # slack 0 non-strict is the best-value game
    # vertices are numbered in discovery order: the initial pair, then bot
    assert list(game.vertices) == list(range(len(game.table))) and game.initial == 0
    assert game.table[1] == {"choose": [(-1, 1)]} and game.obs[1] == ("bot",)
    # critical vertices are exactly the pairs whose rival run accepts, plus bot
    names = tuple_build_approx_game(paper_spec, "<=", Fraction(0))[0].vertices
    assert names[:2] == [("q0", "q0"), ("bot",)]
    for v in game.critical:
        if v != 1:
            assert names[v][1] in paper_spec.finals


def test_synth_approx_checks_its_arguments_first(paper_spec):
    # a dsum spec is refused whatever shortcut its other arguments would take:
    # an empty domain, a strict comparison at slack 0, or neither
    dspec = paper_spec.with_measure(DSUM, Fraction(1, 2))
    for spec, cmp, r in [(dataclasses.replace(dspec, finals=()), "<=", 1),
                         (dspec, "<", 0), (dspec, "<=", 1)]:
        with pytest.raises(ValueError, match="determinization"):
            synth_approx(spec, cmp, Fraction(r), cap=8)
    # a comparison the game does not play is refused before any solve
    for cap in (1, 64):
        with pytest.raises(ValueError, match="cmp must be"):
            synth_approx(paper_spec, ">", Fraction(4), cap=cap)
    with pytest.raises(ValueError, match="slack must be nonnegative"):
        synth_approx(paper_spec, "<=", Fraction(-1), cap=8)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        synth_approx(paper_spec, "<=", Fraction(4), cap=-1)


_PAPER_APPROX_MACHINE = """\
mealy
initial: m0
finals: m2
trans: m0 a c m1
trans: m0 b d m2
trans: m1 a d m1
trans: m1 b d m2
"""


def test_approx_paper_machine_is_one_minimal_machine_at_every_cap(paper_spec, monkeypatch):
    # the read-off has one state per belief, so its size grows with the cap;
    # minimized, every cap gives the same 3-state machine
    def machines(caps):
        return [synth_approx(paper_spec, "<=", Fraction(4), cap).transducer for cap in caps]

    assert [core.emit_mealy(t) for t in machines((16, 64, 256))] == [_PAPER_APPROX_MACHINE] * 3
    monkeypatch.setattr(synthesis, "minimize_transducer", lambda t: t)
    assert [len(t.states) for t in machines((16, 64, 256))] == [8, 32, 128]


def test_approx_empty_domain_machine_is_named_m0(paper_spec):
    for spec in (dataclasses.replace(paper_spec, finals=()),
                 dataclasses.replace(paper_spec.with_measure(AVG), finals=())):
        t = synth_approx(spec, "<", Fraction(1), cap=8).transducer
        assert core.emit_mealy(t) == "mealy\ninitial: m0\nfinals: \n"


def test_every_approx_pool_machine_passes_the_verifier_and_the_brute_force(monkeypatch):
    # at the pool's caps, and with caps doubled up to them: a win at a cap
    # is a win at every larger cap, so both give the same status
    check = load_bench_check()
    workloads = load_bench_workloads(monkeypatch)
    seen = collections.Counter()
    for family in workloads.WORKLOADS["approx-knowledge"]:
        for index in range(family.pool):
            inst = workloads.pool_instance("approx-knowledge", family, index)
            spec = core.parse_wfa(inst.files["spec.wfa"])
            option = dict(zip(inst.argv[3::2], inst.argv[4::2]))
            cmp, r = {"le": "<=", "lt": "<"}[option["--cmp"]], Fraction(option["--r"])
            results = [synth_approx(spec, cmp, r, int(option["--cap"]), doubling=doubling)
                       for doubling in (False, True)]
            assert results[0].status == results[1].status, inst.iid
            for result in results:
                if result.transducer is None:
                    continue
                t = result.transducer
                assert verify_realizer(spec, t, Objective("approx", cmp, r))[0] == PASS
                machine = check.parse_mealy(core.emit_mealy(t))
                assert check.brute_force(check.Spec(inst.spec), machine, inst.objective) is None
                seen["verified"] += 1
                seen["smaller when doubled"] += result is results[1] and len(t.states) < len(
                    results[0].transducer.states)
            seen[results[0].status] += 1
    assert seen[REALIZABLE] >= 180 and seen[UNKNOWN_AT_CAP] >= 80, seen
    assert seen["smaller when doubled"] >= 1, seen


# --- the approx game and its machine read-off against their old loops -------


def complete_spec(spec):
    """Total transition function via fresh non-final absorbing states: the
    completed copy the approx game and its read-off once stepped."""
    transitions = dict(spec.transitions)
    needs = False
    for q in spec.states:
        symbols = spec.inputs if spec.polarity[q] == core.INPUT else spec.outputs
        for sym in symbols:
            if (q, sym) not in transitions:
                needs = True
    if not needs:
        return spec
    states = tuple(spec.states) + (synthesis._COMPLETE_IN, synthesis._COMPLETE_OUT)
    polarity = dict(spec.polarity)
    polarity[synthesis._COMPLETE_IN] = core.INPUT
    polarity[synthesis._COMPLETE_OUT] = core.OUTPUT
    for q in states:
        symbols = spec.inputs if polarity[q] == core.INPUT else spec.outputs
        sink = synthesis._COMPLETE_OUT if polarity[q] == core.INPUT else synthesis._COMPLETE_IN
        for sym in symbols:
            transitions.setdefault((q, sym), (sink, 0))
    return dataclasses.replace(spec, states=states, transitions=transitions,
                               polarity=polarity)


START_COPY = ("start",)


def old_build_approx_game(spec, measure, cmp, r):
    """build_approx_game as it was: its own queue and seen set, stepping
    the completed spec."""
    r = Fraction(r)
    strict = cmp == "<"
    scale, slack = r.denominator, r.numerator
    full = complete_spec(spec)
    trimmed = domain._live_states(spec)

    def weight(q, sym):
        return full.transitions[(q, sym)][1]

    def step(q, sym):
        return full.transitions[(q, sym)][0]

    bot = synthesis._BOT
    per_step = slack if measure == AVG else 0
    initial = (spec.initial, spec.initial)
    vertices = []
    edges = []
    obs = {}
    critical = set()
    seen = set()
    queue = collections.deque()

    def note(v):
        if v not in seen:
            seen.add(v)
            vertices.append(v)
            queue.append(v)

    note(initial)
    note(bot)
    obs[bot] = bot
    critical.add(bot)
    edges.append((bot, "choose", -1, bot))
    while queue:
        v = queue.popleft()
        if v == bot:
            continue
        if len(v) == 2:
            p, q = v
            obs[v] = ("i", p)
            if q in spec.finals:
                critical.add(v)
            for a in spec.inputs:
                q2 = step(q, a)
                if q2 not in trimmed:
                    continue
                p2 = step(p, a)
                nxt = (p2, q2, a)
                w = scale * (weight(p, a) - weight(q, a)) + per_step
                note(nxt)
                edges.append((v, "choose", w, nxt))
            if p not in spec.finals and q in spec.finals:
                edges.append((v, "choose", 0, bot))
            edges.append((v, "choose", 0, v))
        else:
            p, q, a = v
            obs[v] = ("o", p, a)
            for b in spec.outputs:
                p2 = step(p, b)
                for b_adv in spec.outputs:
                    q2 = step(q, b_adv)
                    if q2 not in trimmed:
                        continue
                    w = scale * (weight(p, b) - weight(q, b_adv)) + per_step
                    nxt = (p2, q2)
                    note(nxt)
                    edges.append((v, b, w, nxt))
    if strict and measure == AVG:
        copy = START_COPY
        vertices.append(copy)
        obs[copy] = obs[initial]
        if initial in critical:
            critical.add(copy)
        for src, action, w, dst in list(edges):
            if src == initial:
                edges.append((copy, action, w - 1, dst))
    return vertices, edges, obs, critical


def old_transducer_from_belief_strategy(spec, full, strategy):
    """_transducer_from_belief_strategy as it was: names given on discovery."""

    def input_state_of(belief):
        for vertex, _credit in sorted(belief, key=repr):
            if vertex == START_COPY:
                return spec.initial
            if isinstance(vertex, tuple) and len(vertex) == 2:
                return vertex[0]
        raise core.InternalError("belief %r is not at an input observation" % (belief,))

    b0 = strategy.initial
    states = {}
    order = []

    def name(belief):
        if belief not in states:
            states[belief] = "m%d" % len(states)
            order.append(belief)
        return states[belief]

    transitions = {}
    finals = []
    queue = collections.deque([b0])
    seen = {b0}
    while queue:
        belief = queue.popleft()
        src = name(belief)
        p = input_state_of(belief)
        if p in spec.finals:
            finals.append(src)
        for a in spec.inputs:
            p2 = full.transitions[(p, a)][0]
            mid = strategy.step.get((belief, ("o", p2, a)))
            if mid is None:
                continue
            b = strategy.act[mid]
            p3 = full.transitions[(p2, b)][0]
            nxt = strategy.step.get((mid, ("i", p3)))
            if nxt is None:
                continue
            transitions[(src, a)] = (b, name(nxt))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return core.MealyTransducer(
        inputs=spec.inputs, outputs=spec.outputs,
        states=tuple(states[b] for b in order), initial=name(b0),
        finals=tuple(finals), transitions=transitions,
    )


def _memory_specs(seed, count):
    """Seeded Boolean-realizable Sum/Avg specs: an input DFA times output memory."""
    gen = load_bench_gen()
    rng = random.Random(seed)
    for _ in range(count):
        measure = rng.choice((SUM, AVG))
        data = gen.memory_spec(rng, rng.randint(2, 3), rng.randint(2, 4), "ab", "xy",
                               measure, out_w=(-3, 3))
        yield core.parse_wfa(gen.emit_wfa(data))


EdgeListGame = collections.namedtuple("EdgeListGame",
                                      "vertices initial actions edges obs critical")


def tuple_build_approx_game(spec, cmp, r):
    """build_approx_game as it was before integer vertices: vertices named
    (p, q), (p, q, a), _BOT and a start copy, in discovery order, and one
    edge list, bot's loop first; (EdgeListGame, credit)."""
    strict = cmp == "<"
    scale, slack = r.denominator, r.numerator
    step = synthesis._step
    trimmed = domain._live_states(spec)
    per_step = slack if spec.measure == AVG else 0
    initial = (spec.initial, spec.initial)
    bot = synthesis._BOT
    edges = [(bot, "choose", -1, bot)]
    obs = {bot: bot}
    critical = {bot}

    def successors(v):
        if v == bot:
            return
        if len(v) == 2:
            p, q = v
            obs[v] = ("i", p)
            if q in spec.finals:
                critical.add(v)
            for a in spec.inputs:
                q2, wq = step(spec, q, a, synthesis._COMPLETE_OUT)
                if q2 not in trimmed:
                    continue
                p2, wp = step(spec, p, a, synthesis._COMPLETE_OUT)
                nxt = (p2, q2, a)
                edges.append((v, "choose", scale * (wp - wq) + per_step, nxt))
                yield nxt, None
            if p not in spec.finals and q in spec.finals:
                edges.append((v, "choose", 0, bot))
            edges.append((v, "choose", 0, v))
        else:
            p, q, a = v
            obs[v] = ("o", p, a)
            for b in spec.outputs:
                p2, wp = step(spec, p, b, synthesis._COMPLETE_IN)
                for b_adv in spec.outputs:
                    q2, wq = step(spec, q, b_adv, synthesis._COMPLETE_IN)
                    if q2 not in trimmed:
                        continue
                    nxt = (p2, q2)
                    edges.append((v, b, scale * (wp - wq) + per_step, nxt))
                    yield nxt, None

    vertices = list(core.bfs(successors, [initial, bot])[0])
    credit = 0 if spec.measure == AVG else (slack if not strict else slack - 1)
    start = initial
    if strict and spec.measure == AVG:
        start = START_COPY
        vertices.append(start)
        obs[start] = obs[initial]
        if initial in critical:
            critical.add(start)
        edges += [(start, a, w - 1, dst) for src, a, w, dst in list(edges) if src == initial]
    game = EdgeListGame(vertices=vertices, initial=start, actions=("choose",) + spec.outputs,
                        edges=edges, obs=obs, critical=frozenset(critical))
    return game, credit


def named_table(table, names):
    """A move table with each vertex number k replaced by names[k]."""
    return {names[v]: {a: [(w, names[dst]) for w, dst in moves] for a, moves in options.items()}
            for v, options in table.items()}


def named_strategy(strategy, names):
    """A belief strategy with each vertex number k replaced by names[k]; the
    energy reduction's sink keeps its name."""
    names = {**dict(enumerate(names)), prefix._ENERGY_SINK: prefix._ENERGY_SINK}

    def rename(belief):
        return frozenset((names[v], c) for v, c in belief)

    return games.MemoryStrategy(
        initial=rename(strategy.initial),
        act={rename(b): a for b, a in strategy.act.items()},
        step={(rename(b), o): rename(nxt) for (b, o), nxt in strategy.step.items()})


def paths_agree(spec, cmp, r, cap):
    """Approximate synthesis on the numbered game against the tuple-named
    one: the edge-list build, the edge-list (two-arena) reduction and the
    floor solver that explores every floor.  The credit, the status, the
    strategy up to the numbering and the machine must agree.  Returns the
    status, None where both reductions fail the forcing hypothesis, and
    the text of a win's machine, minimized as synth_approx returns it."""
    game, credit = synthesis.build_approx_game(spec, cmp, r)
    old_game, old_credit = tuple_build_approx_game(spec, cmp, r)
    assert credit == old_credit
    try:
        old, old_buffered = old_reduce_prefix_energy_to_energy(
            OldImperfectArena(**old_game._asdict()), old_credit)
    except ValueError:
        with pytest.raises(ValueError, match="cannot force"):
            prefix.reduce_prefix_energy_to_energy(game, credit)
        return None, None
    reduced, buffered = prefix.reduce_prefix_energy_to_energy(game, credit)
    assert buffered == old_buffered
    cap = max(cap, buffered)
    status, strategy = games.solve_imperfect_energy_capped(reduced, buffered, cap)
    old_arena = edge_iarena(old.vertices, old.initial, old.actions, old.edges, old.obs)
    old_status, old_strategy = full_floor_solve(old_arena, buffered, cap)
    assert status == old_status
    if status != games.WIN:
        return status, None
    assert named_strategy(strategy, old_game.vertices) == old_strategy
    machine = synthesis._transducer_from_belief_strategy(spec, strategy)
    assert core.emit_mealy(machine) == core.emit_mealy(
        synthesis._transducer_from_belief_strategy(spec, old_strategy))
    return status, core.emit_mealy(core.minimize_transducer(machine))


def test_numbered_approx_path_matches_the_tuple_named_one_on_the_approx_pool(monkeypatch):
    workloads = load_bench_workloads(monkeypatch)
    seen = collections.Counter()
    for family in workloads.WORKLOADS["approx-knowledge"]:
        for index in range(family.pool):
            inst = workloads.pool_instance("approx-knowledge", family, index)
            spec = core.parse_wfa(inst.files["spec.wfa"])
            option = dict(zip(inst.argv[3::2], inst.argv[4::2]))
            cmp, r = {"le": "<=", "lt": "<"}[option["--cmp"]], Fraction(option["--r"])
            status, machine = paths_agree(spec, cmp, r, int(option["--cap"]))
            if machine is not None:
                result = synth_approx(spec, cmp, r, int(option["--cap"]))
                assert core.emit_mealy(result.transducer) == machine
            seen[status] += 1
    assert sum(seen.values()) == 304
    assert min(seen[games.WIN], seen[games.NOT_WIN_AT_CAP], seen[None]) >= 30, seen


def test_numbered_approx_path_matches_the_tuple_named_one_on_seeded_games():
    rng = random.Random(3030)
    seen = collections.Counter()
    for spec in _memory_specs(3031, 260):
        for cmp in ("<", "<="):
            for r in rng.sample([1, 2, 3, 4, Fraction(5, 2), Fraction(1, 3)], 2):
                status, _machine = paths_agree(spec, cmp, Fraction(r), rng.choice([0, 4, 8]))
                seen[spec.measure, cmp, status] += 1
    assert sum(seen.values()) >= 1000
    for measure, cmp, status in itertools.product(
            (SUM, AVG), ("<", "<="), (games.WIN, games.NOT_WIN_AT_CAP, None)):
        assert seen[measure, cmp, status] >= 10, seen


def test_approx_game_and_machine_match_the_old_loops(monkeypatch):
    cases = [(spec, cmp, Fraction(r)) for spec in _memory_specs(1707, 40)
             for cmp in ("<", "<=") for r in (1, 3, "5/2")]
    for spec, cmp, r in cases:
        game, _credit = synthesis.build_approx_game(spec, cmp, r)
        vertices, edges, obs, critical = old_build_approx_game(spec, spec.measure, cmp, r)
        assert list(game.vertices) == list(range(len(vertices)))
        assert named_table(game.table, vertices) == table_from_edges(vertices, edges)
        assert {vertices[v]: o for v, o in game.obs.items()} == obs
        assert {vertices[v] for v in game.critical} == critical
    new = [synth_approx(spec, cmp, r, cap=8) for spec, cmp, r in cases]
    # the old read-off finds input states in tuple-named beliefs; a strict
    # Avg game's start copy is its last vertex, the others do not reach it
    monkeypatch.setattr(
        synthesis, "_transducer_from_belief_strategy",
        lambda spec, strategy: old_transducer_from_belief_strategy(
            spec, complete_spec(spec), named_strategy(
                strategy, old_build_approx_game(spec, AVG, "<", Fraction(1))[0])))
    old = [synth_approx(spec, cmp, r, cap=8) for spec, cmp, r in cases]
    assert [n.status for n in new] == [o.status for o in old]
    for n, o in zip(new, old):
        if n.transducer is not None:
            assert core.emit_mealy(n.transducer) == core.emit_mealy(o.transducer)
    assert sum(n.transducer is not None and len(n.transducer.states) > 1
               for n in new) >= 60


def test_synth_approx_builds_one_imperfect_arena_per_game(paper_spec, monkeypatch):
    # the prefix game is a plain record; only the reduced game is indexed
    built, arenas = [], []
    build = synthesis.build_approx_game
    monkeypatch.setattr(synthesis, "build_approx_game",
                        lambda *args: built.append(args) or build(*args))
    post_init = games.ImperfectArena.__post_init__

    def counted(arena):
        arenas.append(arena)
        post_init(arena)

    monkeypatch.setattr(games.ImperfectArena, "__post_init__", counted)
    cases = [(paper_spec, "<=", Fraction(4), 64), (paper_spec, "<", Fraction(9, 2), 64),
             (paper_spec, "<", Fraction(0), 64)]
    cases += [(spec, cmp, Fraction(r), 8) for spec in _memory_specs(2829, 60)
              for cmp, r in (("<", 1), ("<=", 3))]
    per_call = collections.Counter()
    for spec, cmp, r, cap in cases:
        before = len(built), len(arenas)
        synth_approx(spec, cmp, r, cap)
        per_call[len(built) - before[0], len(arenas) - before[1]] += 1
    # a call either answers before the game (an empty domain, a strict
    # bound of 0) or builds one prefix game and one arena
    assert set(per_call) == {(0, 0), (1, 1)} and per_call[1, 1] >= 80, per_call


def test_approx_read_off_raises_on_a_missing_strategy_step(monkeypatch, capsys):
    # every move of a winning strategy's mid belief lands at one input
    # observation; a strategy without that step is a fault, exit 70
    solve = games.solve_imperfect_energy_capped

    def without_an_input_step(*args):
        status, strategy = solve(*args)
        del strategy.step[next(key for key in strategy.step
                               if key[1][0] == "i" and strategy.act[key[0]] != "choose")]
        return status, strategy

    monkeypatch.setattr(games, "solve_imperfect_energy_capped", without_an_input_step)
    paper = str(FIXTURES / "paper-example.wfa")
    code = cli.main(["synth", "approx", paper, "--cmp", "le", "--r", "4", "--cap", "64"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (70, "")
    assert captured.err.startswith("internal error: KeyError(")


def test_approx_strict_realizable_cases(paper_spec):
    # first-c keeps every difference at most 4 (sum) resp. 2/3 (avg), so
    # strict slacks just above those lines are attainable
    result = synth_approx(paper_spec, "<", Fraction(5), cap=64)
    assert result.status == REALIZABLE
    verdict, _ = verify_realizer(
        paper_spec, result.transducer,
        Objective(kind="approx", cmp="<", bound=Fraction(5)),
    )
    assert verdict == PASS

    avg = paper_spec.with_measure(AVG)
    result = synth_approx(avg, "<", Fraction(1), cap=64)
    assert result.status == REALIZABLE
    verdict, _ = verify_realizer(
        avg, result.transducer, Objective(kind="approx", cmp="<", bound=Fraction(1))
    )
    assert verdict == PASS


def test_approx_avg_strict_at_two_thirds_unknown(paper_spec):
    # aab pins the difference at exactly 2/3, so strictly below is hopeless;
    # the capped solver can only report unknown
    avg = paper_spec.with_measure(AVG)
    result = synth_approx(avg, "<", Fraction(2, 3), cap=64)
    assert result.status == UNKNOWN_AT_CAP


def test_approx_zero_slack_agrees_with_best_value_enumeration():
    # approximate with slack 0 (non-strict) decides best-value realizability;
    # cross-validate the energy route against the positional search
    rng = random.Random(404)
    checked = 0
    for trial in range(18):
        spec = random_spec(rng, max_states=4, max_w=2)
        enumerated = synth_best_value(spec)
        if enumerated.status == synthesis.NO_BOOLEAN_REALIZER:
            continue
        energy = synth_approx(spec, "<=", Fraction(0), cap=128)
        if energy.status == REALIZABLE:
            assert enumerated.status == REALIZABLE, core.emit_wfa(spec)
        if enumerated.status == REALIZABLE:
            assert energy.status == REALIZABLE, core.emit_wfa(spec)
        checked += 1
    assert checked >= 10


def negative_drift_spec():
    return core.WeightedSpec(
        inputs=("a",),
        outputs=("c",),
        states=("i0", "o0"),
        initial="i0",
        finals=("i0",),
        transitions={("i0", "a"): ("o0", -1), ("o0", "c"): ("i0", 0)},
    )


def test_verify_threshold_negative_cycle_witness():
    # values drift down by one per letter, so any fixed threshold is
    # eventually violated; the witness has to pump the losing loop
    spec = negative_drift_spec()
    t = core.MealyTransducer(
        inputs=("a",),
        outputs=("c",),
        states=("s",),
        initial="s",
        finals=("s",),
        transitions={("s", "a"): ("c", "s")},
    )
    verdict, witness = verify_realizer(
        spec, t, Objective(kind="threshold", cmp=">=", bound=Fraction(-2))
    )
    assert verdict == FAIL
    assert len(witness) >= 3
    value = core.evaluate(spec, witness, core.run_transducer(t, witness))
    assert value < -2


def test_verify_threshold_avg_tail(paper_spec):
    # always-d average values (2i+4)/(2i+2) sink toward 1; the 9/8 line
    # is first crossed at i = 8
    avg = paper_spec.with_measure(AVG)
    t = always_d_realizer()
    verdict, _ = verify_realizer(
        avg, t, Objective(kind="threshold", cmp=">=", bound=Fraction(1))
    )
    assert verdict == PASS
    verdict, witness = verify_realizer(
        avg, t, Objective(kind="threshold", cmp=">=", bound=Fraction(9, 8))
    )
    assert verdict == FAIL
    value = core.evaluate(avg, witness, core.run_transducer(t, witness))
    assert value < Fraction(9, 8)
    assert len(witness) >= 9


# --- verifier fast path against the old simple-path search ----------------------
#
# The old Sum/Avg witness search: Bellman-Ford over every node, a co-reach
# fixpoint, and a DFS over simple paths for a negative cycle (exponential).
# It is kept here as the oracle for the single Bellman-Ford pass.


def _old_negative_cycle_at(adjacency, start, max_len):
    """A negative-sum cycle through start, or None; DFS over simple paths."""
    stack = [(start, [], 0, {start})]
    while stack:
        node, labels, value, seen = stack.pop()
        for w, dst, label in adjacency.get(node, ()):
            if dst == start:
                if value + w < 0:
                    return labels + [label], value + w
                continue
            if dst in seen or len(labels) + 1 >= max_len:
                continue
            stack.append((dst, labels + [label], value + w, seen | {dst}))
    return None


def _old_co_reach(edges, accepting):
    reaches_accepting = set(accepting)
    changed = True
    while changed:
        changed = False
        for src, _w, dst, _label in edges:
            if dst in reaches_accepting and src not in reaches_accepting:
                reaches_accepting.add(src)
                changed = True
    return reaches_accepting


def _old_pumped_min_walk(adjacency, edges, source, accepting, threshold, dist):
    def bfs_path(start, goal_test):
        queue = [(start, [], 0)]
        seen = {start}
        while queue:
            node, labels, value = queue.pop(0)
            if goal_test(node):
                return labels, value
            for w, dst, label in adjacency.get(node, ()):
                if dst not in seen:
                    seen.add(dst)
                    queue.append((dst, labels + [label], value + w))
        return None

    reaches_accepting = _old_co_reach(edges, accepting)
    for entry in sorted(dist, key=repr):
        if entry in reaches_accepting:
            found = _old_negative_cycle_at(adjacency, entry, len(dist))
            if found is not None:
                break
    cycle_labels, cycle_sum = found
    stem_labels, stem_value = bfs_path(source, lambda n: n == entry)
    tail_labels, tail_value = bfs_path(entry, lambda n: n in accepting)
    base = stem_value + tail_value
    laps = 0
    if base >= threshold:
        laps = (base - threshold) // (-cycle_sum) + 1
    return stem_labels + cycle_labels * laps + tail_labels


def _old_min_walk_below(nodes, edges, source, accepting, threshold):
    adjacency = {}
    for src, w, dst, label in edges:
        adjacency.setdefault(src, []).append((w, dst, label))
    dist = {source: 0}
    parent = {}
    for _ in range(max(1, len(nodes) - 1)):
        changed = False
        for src, w, dst, label in edges:
            if src not in dist:
                continue
            cand = dist[src] + w
            if dst not in dist or cand < dist[dst]:
                dist[dst] = cand
                parent[dst] = (src, label)
                changed = True
        if not changed:
            break
    improvable = {
        dst for src, w, dst, _label in edges
        if src in dist and dist[src] + w < dist[dst]
    }
    if improvable & _old_co_reach(edges, accepting):
        return _old_pumped_min_walk(adjacency, edges, source, accepting, threshold, dist)
    reached = [node for node in accepting if node in dist]
    if not reached:
        return None
    best = min(reached, key=lambda node: dist[node])
    if dist[best] >= threshold:
        return None
    labels = []
    node = best
    while node != source:
        node, label = parent[node]
        labels.append(label)
    labels.reverse()
    return labels


def _old_min_walk_adapter(n, edges, accepting, threshold, verdict_only=False):
    # the full answer also settles a verdict-only call
    return _old_min_walk_below(set(range(n)), edges, 0, accepting, threshold)


def _numbered(edges, source, accepting):
    """The part of a labelled graph reachable from source, renumbered
    0..n-1 in breadth-first discovery order over edges, as
    synthesis._min_walk_below takes it: (names, edges, accepting), with
    names[i] the old name of node i and accepting in number order."""
    names = [source]
    number = {source: 0}
    for node in names:
        for _src, _w, dst, _label in (e for e in edges if e[0] == node):
            if dst not in number:
                number[dst] = len(names)
                names.append(dst)
    kept = [(number[src], w, number[dst], label)
            for src, w, dst, label in edges if src in number]
    return names, kept, sorted(number[v] for v in accepting if v in number)


def _random_labelled_graph(rng):
    """At most 8 nodes, weights in [-3, 3]; each edge's label is its index,
    so a label word names exactly one walk."""
    nodes = ["v%d" % i for i in range(rng.randint(1, 8))]
    density = rng.choice((0.15, 0.3, 0.5))
    edges = []
    for src in nodes:
        for dst in nodes:
            if rng.random() < density:
                edges.append((src, rng.randint(-3, 3), dst, len(edges)))
    accepting = [v for v in nodes if rng.random() < 0.3]
    return nodes, edges, "v0", accepting


def _replay(edges, source, accepting, labels):
    """Value of the walk spelled by labels; it must end at an accepting node."""
    node, value = source, 0
    for label in labels:
        src, w, dst, _label = edges[label]
        assert src == node
        node, value = dst, value + w
    assert node in accepting
    return value


def test_min_walk_below_matches_old_search_on_random_graphs():
    rng = random.Random(2103)
    kinds = {"none": 0, "acyclic": 0, "pumped": 0}
    for _trial in range(1500):
        nodes, edges, source, accepting = _random_labelled_graph(rng)
        threshold = rng.randint(-4, 4)
        names, numbered, goals = _numbered(edges, source, accepting)
        new = synthesis._min_walk_below(len(names), numbered, goals, threshold)
        old = _old_min_walk_below(set(nodes), edges, source, accepting, threshold)
        assert (new is None) == (old is None), (edges, accepting, threshold)
        # the search on named nodes that this one replaced gives the same word
        named = old_min_walk_below(edges, source, [names[i] for i in goals], threshold)
        assert new == named, (edges, accepting, threshold)
        if new is None:
            kinds["none"] += 1
            continue
        assert _replay(edges, source, accepting, new) < threshold
        kinds["pumped" if len(new) >= len(nodes) else "acyclic"] += 1
    # every branch of the search is exercised
    assert min(kinds.values()) >= 100, kinds


def test_min_walk_below_verdict_only_matches_the_full_search():
    # the graphs of test_min_walk_below_matches_old_search_on_random_graphs
    rng = random.Random(2103)
    early = 0
    for _trial in range(1500):
        _nodes, edges, source, accepting = _random_labelled_graph(rng)
        threshold = rng.randint(-4, 4)
        names, numbered, goals = _numbered(edges, source, accepting)
        full = synthesis._min_walk_below(len(names), numbered, goals, threshold)
        verdict = synthesis._min_walk_below(len(names), numbered, goals, threshold,
                                            verdict_only=True)
        assert (verdict is None) == (full is None), (edges, accepting, threshold)
        early += verdict == [] and full != []
    # hundreds of violations stop before their witness is built
    assert early >= 300, early


def test_min_walk_below_negative_cycle_off_the_live_part():
    # the -5 loop at 1 reaches no accepting node, so it must not count
    edges = [(0, 1, 1, 0), (1, -5, 1, 1), (0, 2, 2, 2)]
    assert synthesis._min_walk_below(3, edges, [2], 2) is None
    assert synthesis._min_walk_below(3, edges, [2], 2, verdict_only=True) is None
    assert synthesis._min_walk_below(3, edges, [2], 3) == [2]
    # once 1 can reach 2, the loop is pumped until the value drops below
    edges.append((1, 0, 2, 3))
    labels = synthesis._min_walk_below(3, edges, [2], -7)
    assert _replay(edges, 0, [2], labels) < -7
    assert synthesis._min_walk_below(3, edges, [2], -7, verdict_only=True) == []


def _random_selector_machine(rng, spec):
    """Follows one random output per output state, on the spec itself or on
    its domain-safe pruning (whose machines pass the Boolean checks)."""
    safe = domain.make_domain_safe(spec)
    base = spec if safe is None or rng.random() < 0.3 else safe
    pick = {}
    for q in base.states:
        options = [b for b in base.outputs if (q, b) in base.transitions]
        if base.polarity[q] == core.OUTPUT and options:
            pick[q] = rng.choice(options)
    transitions = {}
    order = [base.initial]
    for p in order:
        for a in base.inputs:
            mid = base.transitions.get((p, a))
            if mid is None or mid[0] not in pick:
                continue
            b = pick[mid[0]]
            tgt = base.transitions[(mid[0], b)][0]
            transitions[(p, a)] = (b, tgt)
            if tgt not in order:
                order.append(tgt)
    return core.MealyTransducer(
        inputs=spec.inputs,
        outputs=spec.outputs,
        states=tuple(order),
        initial=base.initial,
        finals=tuple(q for q in order if q in base.finals),
        transitions=transitions,
    )


# --- the Boolean checks as written before core.bfs ---------------------------


def _old_domain_equal_witness(spec, t):
    """None when dom(t) = dom(spec), else a separating input word (a BFS
    that copies the path into every queue entry, with no step cache)."""
    start = (t.initial, old_closure(spec, [spec.initial]))
    seen = {start}
    queue = collections.deque([(start, ())])
    while queue:
        (s, subset), path = queue.popleft()
        if (s is not None and s in t.finals) != domain._accepts(spec, subset):
            return path
        for a in spec.inputs:
            entry = t.transitions.get((s, a)) if s is not None else None
            node = (entry[1] if entry else None, old_dom_step(spec, subset, a))
            if node not in seen:
                seen.add(node)
                queue.append((node, path + (a,)))
    return None


def _old_boolean_witness(spec, t):
    """None when every accepted input's run accepts, else a witness word."""
    start = (t.initial, spec.initial)
    seen = {start}
    queue = collections.deque([(start, ())])
    while queue:
        (s, p), path = queue.popleft()
        if s in t.finals and (p is None or p not in spec.finals):
            return path
        for a in spec.inputs:
            entry = t.transitions.get((s, a))
            if entry is None:
                continue
            b, s2 = entry
            p2 = None
            if p is not None:
                mid = spec.transitions.get((p, a))
                if mid is not None:
                    out = spec.transitions.get((mid[0], b))
                    p2 = out[0] if out is not None else None
            node = (s2, p2)
            if node not in seen:
                seen.add(node)
                queue.append((node, path + (a,)))
    return None


def test_boolean_checks_match_the_old_searches():
    rng = random.Random(4401)
    outcomes = collections.Counter()
    for _trial in range(1200):
        spec = random_spec(rng, max_states=rng.randint(2, 10))
        t = _random_selector_machine(rng, spec)
        finals, transitions = t.finals, t.transitions
        if rng.random() < 0.3:
            # another choice of final states moves the machine's domain
            finals = tuple(q for q in t.states if rng.random() < 0.5)
        if rng.random() < 0.4:
            # other outputs lead the spec run off its accepting paths
            transitions = {key: (rng.choice(spec.outputs), tgt)
                           for key, (_b, tgt) in transitions.items()}
        t = core.MealyTransducer(spec.inputs, spec.outputs, t.states, t.initial,
                                 finals, transitions)
        for name, new, old in (
            ("domain", synthesis._domain_equal_witness, _old_domain_equal_witness),
            ("boolean", synthesis._boolean_witness, _old_boolean_witness),
        ):
            got, want = new(spec, t), old(spec, t)
            assert (None if got is None else tuple(got)) == want, (
                core.emit_wfa(spec), core.emit_mealy(t), name)
            outcomes[name, want is None] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_second_verify_call_computes_no_new_subset_step(paper_spec):
    spec = core.parse_wfa(core.emit_wfa(paper_spec))  # an empty step table
    assert verify_realizer(spec, first_c_realizer(), Objective(kind="boolean"))[0] == PASS
    first = dict(spec._dom_steps)
    verify_realizer(spec, always_d_realizer(), Objective(kind="best_value"))
    # every step comes from the spec's step table
    assert len(first) > 1 and spec._dom_steps == first, (len(first), len(spec._dom_steps))


_ORACLE_OBJECTIVES = (
    Objective(kind="best_value"),
    Objective(kind="approx", cmp="<=", bound=Fraction(1)),
    Objective(kind="approx", cmp="<", bound=Fraction(3, 2)),
    Objective(kind="threshold", cmp=">=", bound=Fraction(-2)),
    Objective(kind="threshold", cmp=">", bound=Fraction(1, 2)),
)


def _oracle_cases(seed, count, measures=(SUM, AVG)):
    rng = random.Random(seed)
    for trial in range(count):
        measure = measures[trial % len(measures)]
        discount = Fraction(1, 2) if measure == DSUM else None
        spec = random_spec(rng, max_states=8, max_w=3, measure=measure,
                           discount=discount)
        if measure == AVG and spec.initial in spec.finals:
            # eval gives the empty word the value 0 while verify puts it at
            # the threshold (see test_avg_empty_word_eval_matches_verify), so
            # Avg witnesses are only checked on specs without it
            spec = core.WeightedSpec(
                inputs=spec.inputs, outputs=spec.outputs, states=spec.states,
                initial=spec.initial,
                finals=tuple(q for q in spec.finals if q != spec.initial),
                transitions=spec.transitions, measure=measure,
            )
        yield spec, _random_selector_machine(rng, spec)


def _violates(spec, t, obj, u):
    """Whether the word u really breaks obj, by core.evaluate and friends."""
    out = core.run_transducer(t, u)
    if domain.domain_membership(spec, u) != (out is not None):
        return True
    if out is None:
        return False
    value = core.evaluate(spec, u, out)
    if value is NEG_INF:
        return True
    if obj.kind == "threshold":
        return value <= obj.bound if obj.cmp == ">" else value < obj.bound
    diff = check_difference(spec, t, u)
    if obj.kind == "best_value":
        return diff > 0
    return diff >= obj.bound if obj.cmp == "<" else diff > obj.bound


def test_verify_realizer_matches_old_search_on_random_selectors(monkeypatch):
    checks = [(spec, t, obj) for spec, t in _oracle_cases(5505, 120)
              for obj in _ORACLE_OBJECTIVES]
    new = [verify_realizer(*check) for check in checks]
    monkeypatch.setattr(synthesis, "_min_walk_below", _old_min_walk_adapter)
    old = [verify_realizer(*check) for check in checks]
    assert [v for v, _w in new] == [v for v, _w in old]
    for (spec, t, obj), (verdict, witness) in zip(checks, new):
        if verdict == FAIL:
            assert _violates(spec, t, obj, witness), (core.emit_wfa(spec), obj, witness)
    verdicts = [v for v, _w in new]
    assert verdicts.count(PASS) >= 100 and verdicts.count(FAIL) >= 100


def test_verify_realizer_verdict_only_gives_the_same_verdicts():
    boolean = Objective(kind="boolean")
    rng = random.Random(2105)
    tally = collections.Counter()
    for spec, selector in _oracle_cases(2104, 500):
        # the same machine with other outputs, whose spec run may die where
        # the machine accepts: the Boolean check fails, the value check may not
        redrawn = core.MealyTransducer(
            spec.inputs, spec.outputs, selector.states, selector.initial, selector.finals,
            {key: (rng.choice(spec.outputs), tgt)
             for key, (_b, tgt) in selector.transitions.items()})
        for t in (selector, redrawn):
            value_check = verify_realizer(spec, t, boolean)[0] == PASS
            failing = [name for name, check in (("domain", synthesis._domain_equal_witness),
                                                ("boolean", synthesis._boolean_witness))
                       if check(spec, t) is not None]
            for obj in _ORACLE_OBJECTIVES:
                verdict, _witness = verify_realizer(spec, t, obj)
                fast = verify_realizer(spec, t, obj, verdict_only=True)
                assert fast == (verdict, None), (core.emit_wfa(spec), core.emit_mealy(t), obj)
                tally[spec.measure, verdict, value_check and verdict == FAIL] += 1
                if synthesis._value_check(obj, True)(spec, t) is None:
                    # the value check runs first and passes: the others decide
                    for name in failing:
                        tally["value passes", name + " fails", fast] += 1
    for measure in (SUM, AVG):
        assert tally[measure, PASS, False] >= 100, tally
        assert tally[measure, FAIL, True] >= 100, tally
    for name in ("domain", "boolean"):
        assert tally["value passes", name + " fails", (FAIL, None)] >= 50, tally


def test_verdict_only_pass_still_needs_the_domain_check(paper_spec):
    # d on b is the best answer (12), so the value check passes, but the
    # machine leaves out the spec's domain words a^n b for n >= 1
    only_b = core.parse_mealy("mealy\ninitial: wait\nfinals: done\ntrans: wait b d done\n")
    best = Objective(kind="best_value")
    assert synthesis._value_check(best, True)(paper_spec, only_b) is None
    assert verify_realizer(paper_spec, only_b, best) == (FAIL, ("a", "b"))
    assert verify_realizer(paper_spec, only_b, best, verdict_only=True) == (FAIL, None)


# --- one synchronized product against the four builders it replaced ---------

_VALUE_OBJECTIVES = _ORACLE_OBJECTIVES + (
    Objective(kind="approx", cmp="<", bound=Fraction(0)),
    Objective(kind="threshold", cmp=">=", bound=Fraction(-5, 3)),
)
_DISCOUNTS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(1, 7),
              Fraction(9, 10))


def _old_verify(spec, t, obj):
    """verify_realizer with the value check of the old per-objective builders."""
    verdict, witness = verify_realizer(spec, t, Objective(kind="boolean"))
    if verdict == PASS:
        witness = old_value_witness(spec, t, obj)
        verdict = PASS if witness is None else FAIL
    return verdict, witness


def test_value_product_matches_old_builders_on_all_measures():
    failures = collections.Counter()
    cases = _oracle_cases(9009, 900, measures=(SUM, AVG, DSUM))
    for i, (spec, t) in enumerate(cases):
        if spec.measure == DSUM:
            spec = spec.with_measure(DSUM, _DISCOUNTS[i // 3 % len(_DISCOUNTS)])
        boolean_ok = verify_realizer(spec, t, Objective(kind="boolean"))[0] == PASS
        for obj in _VALUE_OBJECTIVES:
            verdict, witness = verify_realizer(spec, t, obj)
            old_verdict, old_witness = _old_verify(spec, t, obj)
            case = (core.emit_wfa(spec), core.emit_mealy(t), obj)
            assert verdict == old_verdict, case
            if verdict == PASS:
                continue
            assert _violates(spec, t, obj, witness), case + (witness,)
            if spec.measure == DSUM:
                # ties between equally short words may break another way
                # in the new edge order; the first deciding round may not
                assert len(witness) == len(old_witness), case
            else:
                assert witness == old_witness, case
            failures[spec.measure, boolean_ok] += 1
    # every measure fails on value objectives, not only on Boolean grounds
    assert min(failures[m, True] for m in (SUM, AVG, DSUM)) >= 200, failures


def test_objective_rejects_missing_or_negative_bounds():
    with pytest.raises(ValueError, match="threshold needs a bound"):
        Objective(kind="threshold", cmp=">")
    with pytest.raises(ValueError, match="approx needs a bound"):
        Objective(kind="approx", cmp="<=")
    with pytest.raises(ValueError, match="nonnegative"):
        Objective(kind="approx", cmp="<=", bound=Fraction(-1))
    assert Objective(kind="approx", cmp="<", bound=0).bound == 0
    assert Objective(kind="threshold", cmp=">=", bound=-1).bound == -1


def _old_domain_words_probe(spec):
    """Does the spec accept anything at all?  Yields at most one witness."""
    subset = old_closure(spec, [spec.initial])
    seen = {subset}
    queue = collections.deque([subset])
    while queue:
        current = queue.popleft()
        if domain._accepts(spec, current):
            yield current
            return
        for a in spec.inputs:
            nxt = old_dom_step(spec, current, a)
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def test_empty_domain_is_no_reachable_final_state():
    # synth_approx's emptiness test against the subset-construction probe
    rng = random.Random(6597)
    empty = 0
    for _trial in range(1500):
        spec = random_spec(rng, max_states=rng.randint(2, 8),
                           final_bias=rng.choice((0.1, 0.3, 0.6)))
        old = next(_old_domain_words_probe(spec), None) is None
        assert domain.reachable_states(spec).isdisjoint(spec.finals) == old, (
            core.emit_wfa(spec))
        empty += old
    assert 200 <= empty <= 1300, empty


@pytest.mark.xfail(strict=True, reason="known defect: Avg verify treats the "
                   "empty word as lying on the threshold, eval gives it 0")
def test_avg_empty_word_eval_matches_verify():
    spec = core.WeightedSpec(
        inputs=("a",), outputs=("c",), states=("i0", "o0"), initial="i0",
        finals=("i0",), transitions={("i0", "a"): ("o0", 5), ("o0", "c"): ("i0", 5)},
        measure=AVG,
    )
    t = always_transducer("c", inputs=("a",))
    assert core.evaluate(spec, (), ()) == 0
    verdict, _ = verify_realizer(
        spec, t, Objective(kind="threshold", cmp=">=", bound=Fraction(1))
    )
    assert verdict == FAIL


@pytest.mark.xfail(strict=True, reason="known defect: on an Avg spec whose domain is "
                   "the empty word alone, approx verify and synth take a difference of 0 "
                   "as not below r")
def test_avg_empty_word_alone_is_within_a_strict_slack():
    # one final state and no transitions: the only run is the empty word,
    # which the machine and every rival run share, so they differ by 0 < 1
    spec = core.WeightedSpec(inputs=("a",), outputs=("x",), states=("q",), initial="q",
                             finals=("q",), transitions={}, measure=AVG)
    t = core.MealyTransducer(inputs=("a",), outputs=("x",), states=("m",), initial="m",
                             finals=("m",), transitions={})
    strict = Objective(kind="approx", cmp="<", bound=Fraction(1))
    assert verify_realizer(spec, t, strict)[0] == PASS
    assert [synth_approx(spec, "<", Fraction(1), cap).status for cap in (0, 8, 64)] == [
        REALIZABLE] * 3


_VERIFY_DRIVER = """
import json, sys
from wsynth import cli
for argv in json.loads(sys.argv[1]):
    print("exit %d" % cli.main(argv))
"""

_CLI_OBJECTIVES = (
    ["--objective", "best-value"],
    ["--objective", "approx", "--cmp", "lt", "--r", "3/2"],
    ["--objective", "threshold", "--cmp", "ge", "--nu", "-2"],
)


def test_verify_stdout_independent_of_hash_seed(tmp_path):
    cases = list(_oracle_cases(7707, 24, measures=(SUM, AVG, DSUM)))
    calls = []
    for i, (spec, t) in enumerate(cases):
        spec_path = tmp_path / ("spec%d.wfa" % i)
        machine_path = tmp_path / ("machine%d.mealy" % i)
        spec_path.write_text(core.emit_wfa(spec))
        machine_path.write_text(core.emit_mealy(t))
        for flags in _CLI_OBJECTIVES:
            calls.append(["verify", str(spec_path), str(machine_path)] + flags)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        done = subprocess.run(
            [sys.executable, "-c", _VERIFY_DRIVER, json.dumps(calls)],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0].count("witness:") >= 10
    assert outputs[1:] == outputs[:1] * 3


# --- best value as a positional search on the spec arena ---------------------


def old_synth_best_value(spec, verify):
    """synth_best_value as it was: every output selector over the domain-safe
    spec, output states in spec order, outputs in alphabet order."""
    work = spec.with_measure(SUM) if spec.measure == AVG else spec
    safe = domain.make_domain_safe(work)
    if safe is None:
        return synthesis.NO_BOOLEAN_REALIZER, None
    out_states = [q for q in safe.states if safe.polarity[q] == core.OUTPUT]
    pools = [[b for b in safe.outputs if (q, b) in safe.transitions] for q in out_states]
    for combo in itertools.product(*pools):
        selector = dict(zip(out_states, combo))
        transitions = {}

        def successors(p):
            for a in safe.inputs:
                entry = safe.transitions.get((p, a))
                if entry is None:
                    continue
                b = selector[entry[0]]
                tgt = safe.transitions[(entry[0], b)][0]
                transitions[(p, a)] = (b, tgt)
                yield tgt, a

        seen = core.bfs(successors, [safe.initial])[0]
        candidate = core.MealyTransducer(
            inputs=safe.inputs, outputs=safe.outputs,
            states=tuple(q for q in safe.states if q in seen), initial=safe.initial,
            finals=tuple(f for f in safe.finals if f in seen), transitions=transitions,
        )
        if verify(spec, candidate, Objective(kind="best_value"))[0] == PASS:
            return REALIZABLE, candidate
    return UNREALIZABLE, None


def _generated_specs(seed, count, choice_cap):
    """Seeded bench/gen.py memory specs as data, Sum, Avg and Dsum in turn."""
    gen = load_bench_gen()
    rng = random.Random(seed)
    for i in range(count):
        measure = (SUM, AVG, DSUM)[i % 3]
        discount = rng.choice(("1/2", "2/3", "3/4")) if measure == DSUM else None
        yield gen, gen.memory_spec(rng, rng.randint(3, 4), rng.randint(2, 3), "ab", "xy",
                                   measure, discount=discount, choice_cap=choice_cap)


def test_best_value_search_matches_the_old_selector_loop(monkeypatch):
    calls = {"new": 0, "old": 0}
    original = synthesis.verify_realizer

    def counting(key):
        def verify(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return verify

    monkeypatch.setattr(synthesis, "verify_realizer", counting("new"))
    statuses = collections.Counter()
    for cap in range(5):
        for gen, data in _generated_specs(1808 + cap, 24, cap):
            spec = core.parse_wfa(gen.emit_wfa(data))
            before = dict(calls)
            new = synth_best_value(spec)
            status, machine = old_synth_best_value(spec, counting("old"))
            assert new.status == status
            if machine is not None:
                assert core.emit_mealy(new.transducer) == core.emit_mealy(machine)
            assert calls["new"] - before["new"] == calls["old"] - before["old"]
            statuses[status, calls["new"] - before["new"] > 1] += 1
    # both answers occur, and both after more than one candidate
    assert statuses[REALIZABLE, True] >= 5 and statuses[UNREALIZABLE, True] >= 5


def test_verdict_only_order_matches_the_old_order_on_every_candidate(monkeypatch):
    best = Objective(kind="best_value")
    original = synthesis.verify_realizer
    calls = collections.Counter()

    def counting(key, verify):
        def counted(*args, **kwargs):
            calls[key] += 1
            return verify(*args, **kwargs)
        return counted

    oracle = counting("old", lambda spec, t, obj, **_flags: old_verify_verdict_only(spec, t, obj))
    verdicts = collections.Counter()
    for cap in range(5):  # 120 specs
        for gen, data in _generated_specs(2200 + cap, 24, cap):
            spec = core.parse_wfa(gen.emit_wfa(data))
            safe = domain.make_domain_safe(spec)
            if safe is not None:
                arena = synthesis.spec_to_prefix_arena(safe)
                for strategy in prefix.enumerate_positional(arena):
                    candidate = synthesis.extract_transducer(safe, arena, strategy)
                    verdict = original(spec, candidate, best, verdict_only=True)
                    assert verdict == old_verify_verdict_only(spec, candidate, best), (
                        gen.emit_wfa(data), core.emit_mealy(candidate))
                    verdicts[verdict] += 1
            before = calls.copy()
            monkeypatch.setattr(synthesis, "verify_realizer", counting("new", original))
            new = synth_best_value(spec)
            monkeypatch.setattr(synthesis, "verify_realizer", oracle)
            old = synth_best_value(spec)
            assert new.status == old.status
            if new.transducer is not None:
                assert core.emit_mealy(new.transducer) == core.emit_mealy(old.transducer)
            assert calls["new"] - before["new"] == calls["old"] - before["old"]
    assert verdicts[PASS, None] >= 100 and verdicts[FAIL, None] >= 300, verdicts


def _reverse_each_state(data):
    """The same spec with each state's trans: lines in reverse order."""
    blocks = {}
    for line in data["trans"]:
        blocks.setdefault(line[0], []).append(line)
    return dict(data, trans=[line for block in blocks.values() for line in block[::-1]])


def test_synth_stdout_independent_of_trans_line_order(tmp_path, capsys):
    rng = random.Random(1809)
    differ = 0
    for i, (gen, data) in enumerate(_generated_specs(1809, 90, 4)):
        flipped = _reverse_each_state(data)
        differ += flipped["trans"] != data["trans"]
        paths = []
        for tag, variant in (("file", data), ("flipped", flipped)):
            path = tmp_path / ("%s%d.wfa" % (tag, i))
            path.write_text(gen.emit_wfa(variant))
            paths.append(str(path))
        cmp, nu = rng.choice(("gt", "ge")), rng.choice(("-1", "0", "1/2", "1"))
        for argv in (["synth", "threshold", "{}", "--cmp", cmp, "--nu", nu],
                     ["synth", "best-value", "{}"]):
            outputs = []
            for path in paths:
                code = cli.main([path if arg == "{}" else arg for arg in argv])
                outputs.append((code, capsys.readouterr().out))
            assert outputs[0] == outputs[1], (argv, gen.emit_wfa(data))
    assert differ >= 80


def test_synthesized_machines_are_pinned():
    """A hash over the machines synthesized for a fixed seeded set, so that a
    change of tie-break cannot slip through unnoticed."""
    digest = hashlib.sha256()
    rng = random.Random(1810)
    for gen, data in _generated_specs(1810, 30, 4):
        spec = core.parse_wfa(gen.emit_wfa(data))
        nu = rng.choice((-1, 0, Fraction(1, 2), 1))
        results = [synth_threshold(spec, rng.choice((">", ">=")), nu),
                   synth_best_value(spec)]
        if spec.measure != DSUM:
            cmp, r = rng.choice(("<", "<=")), rng.randint(1, 3)
            results.append(synth_approx(spec, cmp, r, cap=8))
        for result in results:
            digest.update(result.status.encode())
            if result.transducer is not None:
                digest.update(core.emit_mealy(result.transducer).encode())
    assert digest.hexdigest() == "3e9079b9f64f2948a6edee59d6f1484c11209f80a5602d0f025a565151f1de7a"
