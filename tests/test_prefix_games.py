import collections
import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

from wsynth import core, games, prefix, synthesis
from wsynth.core import AVG, DSUM, SUM
from wsynth.games import ADAM, EVE, Arena, ImperfectArena
from wsynth.prefix import PrefixObjective

from conftest import (load_bench_gen, load_bench_workloads, named_check_positional_dsum,
                      named_restrict_to_strategy, table_edges, table_from_edges)
from test_games import mixed_name_arena, mk_arena, remark_arena, random_arena


def random_critical_arena(rng, max_v=5, max_w=2):
    arena = random_arena(rng, max_v=max_v, max_w=max_w)
    critical = frozenset(v for v in arena.vertices if rng.random() < 0.5)
    return Arena(
        vertices=arena.vertices,
        owner=dict(arena.owner),
        initial=arena.initial,
        edges=list(arena.edges),
        critical=critical,
    )


def adam_refutes_sum(arena, sigma, nu_scaled, cmp, scale):
    """Can Adam (with arbitrary memory) trace a failing critical check
    against Eve's positional strategy?

    Eve's choices fix a subgraph; Adam controls everything else, so he
    wins iff some walk from the initial vertex reaches a critical vertex
    with a value at or below the line.  Decided by a hand-rolled
    shortest-walk iteration with downward-cycle detection, independent of
    the library's search code.
    """
    edges = []
    for v in arena.vertices:
        if arena.owner[v] == EVE:
            indices = [sigma[v]] if v in sigma else []
        else:
            indices = arena.out(v)
        for i in indices:
            _s, _a, w, dst = arena.edges[i]
            edges.append((v, scale * w, dst))

    def fails(value):
        return not (value > nu_scaled if cmp == ">" else value >= nu_scaled)

    dist = {arena.initial: 0}
    for _ in range(len(arena.vertices)):
        for src, w, dst in edges:
            if src in dist and (dst not in dist or dist[src] + w < dist[dst]):
                dist[dst] = dist[src] + w
    sagging = set()
    for src, w, dst in edges:
        if src in dist and dist[src] + w < dist[dst]:
            sagging.add(dst)
    # propagate: anything a sagging vertex reaches can sink arbitrarily low
    changed = True
    while changed:
        changed = False
        for src, _w, dst in edges:
            if src in sagging and dst not in sagging:
                sagging.add(dst)
                changed = True
    for v in arena.critical:
        if v in sagging:
            return True
        if v in dist and fails(dist[v]):
            return True
    # a reachable Eve vertex with no decision strands her; a full strategy
    # never does this, a partial one must keep such vertices unreachable
    for v in dist:
        if arena.owner[v] == EVE and v not in sigma:
            return True
    return False


def sum_prefix_oracle(arena, cmp, nu):
    """Oracle for the Sum critical prefix game.

    Positional strategies suffice for Eve (enumerated); Adam gets full
    freedom via the walk analysis, since cashing a check after a long
    drain can genuinely require memory.
    """
    nu = Fraction(nu)
    scale = nu.denominator
    nu_scaled = nu.numerator
    eve_vertices = [v for v in arena.vertices if arena.owner[v] == EVE]
    for combo in itertools.product(*[arena.out(v) for v in eve_vertices]):
        sigma = dict(zip(eve_vertices, combo))
        if not adam_refutes_sum(arena, sigma, nu_scaled, cmp, scale):
            return EVE
    return ADAM


# --- avg -> sum --------------------------------------------------------------


def test_avg_reduction_zero_keeps_weights():
    arena = remark_arena()
    reduced, nu = prefix.reduce_avg_to_sum(arena, Fraction(0))
    assert nu == 0
    assert [e[2] for e in reduced.edges] == [e[2] for e in arena.edges]


def test_identity_reweight_returns_the_arena_itself():
    # Sum with an integer threshold and Avg with threshold 0 change no weight
    arena = remark_arena()
    assert prefix._reweight(arena, 1, 0) is arena
    assert prefix.reduce_avg_to_sum(arena, Fraction(0))[0] is arena
    assert prefix._reweight(arena, 2, 0) is not arena
    assert prefix._reweight(arena, 1, 1) is not arena


def test_avg_reduction_arithmetic():
    arena = mk_arena([("v", ADAM)], [("v", 1, "v")])
    reduced, _ = prefix.reduce_avg_to_sum(arena, Fraction(1, 2))
    assert reduced.edges[0][2] == 1  # 2*1 - 1


def test_avg_winner_matches_sum_oracle():
    rng = random.Random(31)
    for trial in range(40):
        arena = random_critical_arena(rng, max_v=4)
        nu = Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        cmp = rng.choice([">", ">="])
        reduced, nu0 = prefix.reduce_avg_to_sum(arena, nu)
        assert sum_prefix_oracle(reduced, cmp, nu0) == (
            prefix.solve_prefix_threshold(
                arena, PrefixObjective(measure=AVG, cmp=cmp, nu=nu)
            )[0]
        )


# --- sum -> mean payoff -------------------------------------------------------


def test_sum_no_critical_is_trivial_eve_win():
    arena = mk_arena([("v", ADAM)], [("v", -5, "v")])
    winner, strategy = prefix.solve_prefix_threshold(
        arena, PrefixObjective(measure=SUM, cmp=">=", nu=Fraction(0))
    )
    assert winner == EVE
    assert strategy.choice == {}


def test_sum_single_adam_critical_loop():
    arena = mk_arena([("v", ADAM)], [("v", 0, "v")], critical=("v",))
    winner, _ = prefix.solve_prefix_threshold(
        arena, PrefixObjective(measure=SUM, cmp=">=", nu=Fraction(0))
    )
    assert winner == EVE
    winner, _ = prefix.solve_prefix_threshold(
        arena, PrefixObjective(measure=SUM, cmp=">", nu=Fraction(0))
    )
    assert winner == ADAM


def test_sum_matches_oracle_random():
    rng = random.Random(41)
    for trial in range(80):
        arena = random_critical_arena(rng)
        nu = Fraction(rng.randint(-1, 1))
        cmp = rng.choice([">", ">="])
        obj = PrefixObjective(measure=SUM, cmp=cmp, nu=nu)
        winner, strategy = prefix.solve_prefix_threshold(arena, obj)
        assert winner == sum_prefix_oracle(arena, cmp, nu), games.emit_arena(arena)
        if winner == EVE:
            # soundness: no Adam walk against Eve's strategy fails a check
            assert not adam_refutes_sum(
                arena, strategy.choice, nu.numerator, cmp, nu.denominator
            )


def test_strict_nonstrict_integer_identity():
    rng = random.Random(43)
    for trial in range(30):
        arena = random_critical_arena(rng, max_v=4)
        nu = rng.randint(-1, 1)
        strict = prefix.solve_prefix_threshold(
            arena, PrefixObjective(measure=SUM, cmp=">", nu=Fraction(nu))
        )[0]
        shifted = prefix.solve_prefix_threshold(
            arena, PrefixObjective(measure=SUM, cmp=">=", nu=Fraction(nu + 1))
        )[0]
        assert strict == shifted


# --- dsum ---------------------------------------------------------------------


def test_remark_strict_eve_wins():
    arena = remark_arena()
    obj = PrefixObjective(measure=DSUM, cmp=">", nu=Fraction(1), discount=Fraction(1, 2))
    winner, strategy = prefix.solve_prefix_threshold(arena, obj)
    assert winner == EVE
    assert strategy.choice == {}  # Adam owns everything


def test_remark_nonstrict_reduction_value_is_one(remark_arena_text):
    arena = games.parse_arena(remark_arena_text)
    reduction = prefix.reduce_dsum_prefix_to_ds(arena, games.attractor(arena, arena.critical, ADAM)[0])
    assert not reduction.arena.deadlocks()
    winner, _s, value = games.solve_discounted_sum(
        reduction.arena, Fraction(1, 2), Fraction(1), ">="
    )
    assert value == 1
    assert winner == EVE


def test_remark_nonstrict_thresholds():
    arena = remark_arena()
    for nu, expected in [
        (Fraction(1), EVE),
        (Fraction(3, 2), ADAM),
        (Fraction(2), ADAM),
    ]:
        obj = PrefixObjective(measure=DSUM, cmp=">=", nu=nu, discount=Fraction(1, 2))
        assert prefix.solve_prefix_threshold(arena, obj)[0] == expected


def test_remark_strict_larger_thresholds():
    arena = remark_arena()
    # strictly above 1 is winnable only because the value never settles at 1;
    # any higher strict threshold fails at the direct 3/2 entry
    for nu, expected in [(Fraction(1), EVE), (Fraction(3, 2), ADAM)]:
        obj = PrefixObjective(measure=DSUM, cmp=">", nu=nu, discount=Fraction(1, 2))
        assert prefix.solve_prefix_threshold(arena, obj)[0] == expected


def test_check_positional_dsum_examples():
    arena = remark_arena()
    empty = games.PositionalStrategy({})
    ok, _ = prefix.check_positional_dsum(
        arena, empty, PrefixObjective(measure=DSUM, cmp=">", nu=Fraction(1), discount=Fraction(1, 2))
    )
    assert ok
    ok, witness = prefix.check_positional_dsum(
        arena, empty, PrefixObjective(measure=DSUM, cmp=">=", nu=Fraction(2), discount=Fraction(1, 2))
    )
    assert not ok
    assert witness.value < 2

    no_critical = mk_arena([("v", ADAM)], [("v", -9, "v")])
    ok, _ = prefix.check_positional_dsum(
        no_critical, empty, PrefixObjective(measure=DSUM, cmp=">", nu=Fraction(0), discount=Fraction(1, 2))
    )
    assert ok

    # Eve owns no vertex: one empty strategy; an Eve vertex with no edge: none
    assert [s.choice for s in prefix.enumerate_positional(no_critical)] == [{}]
    stuck = mk_arena([("v", EVE), ("w", EVE)], [("v", 0, "w"), ("v", 1, "v")])
    assert list(prefix.enumerate_positional(stuck)) == []


def test_restrict_to_strategy_matches_the_named_walk(monkeypatch):
    # check_positional_dsum restricts the arena to the strategy on its
    # numbers: the graph it hands the path check is the name-keyed walk's,
    # edge for edge and in the walk's order, also on names mixing strings
    # and tuples, and an undefined reachable choice raises the same error
    rng = random.Random(6161)
    graphs = []
    check = prefix.exists_path_lt
    monkeypatch.setattr(prefix, "exists_path_lt", lambda graph, nu, **kw: (
        graphs.append(graph), check(graph, nu, **kw))[1])
    obj = PrefixObjective(measure=DSUM, cmp=">=", nu=Fraction(0), discount=Fraction(1, 2))
    undefined = 0
    for trial in range(400):
        arena = mixed_name_arena(rng, 12, (-3, 3))
        arena = dataclasses.replace(arena, critical=frozenset(arena.vertices))
        choice = {v: rng.choice(arena.out(v)) for v in arena.vertices
                  if arena.owner[v] == EVE and rng.random() < 0.9}
        strategy = games.PositionalStrategy(choice)
        try:
            reachable, edges = named_restrict_to_strategy(arena, strategy)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                prefix.check_positional_dsum(arena, strategy, obj)
            undefined += 1
            continue
        del graphs[:]
        prefix.check_positional_dsum(arena, strategy, obj)
        (graph,) = graphs
        assert list(graph.vertices) == list(graph.out)
        assert {graph.names[k] for k in graph.vertices} == reachable
        assert [(graph.names[u], w, graph.names[dst]) for u, outs in graph.out.items()
                for _i, w, dst in outs] == edges
        assert all(arena.src[i] == u and (arena.weight[i], arena.dst[i]) == (w, dst)
                   for u, outs in graph.out.items() for i, w, dst in outs)
    assert undefined >= 40, undefined
    # enumerate_positional: Eve's vertices and their edges in arena order
    for arena in (mixed_name_arena(rng, 5, (-1, 1)) for _ in range(40)):
        eve = [v for v in arena.vertices if arena.owner[v] == EVE]
        assert [list(s.choice.items()) for s in prefix.enumerate_positional(arena)] == \
            [list(zip(eve, combo)) for combo in itertools.product(*map(arena.out, eve))]


def dsum_prefix_oracle(arena, obj):
    """Positional enumeration + path checking as an independent route."""
    for strategy in prefix.enumerate_positional(arena):
        if prefix.check_positional_dsum(arena, strategy, obj)[0]:
            return EVE
    return ADAM


def test_verdict_only_positional_check_matches_the_full_check():
    # every candidate of the strict-Dsum enumeration gets the full check's
    # verdict, and a loser comes without its witness
    gen = load_bench_gen()
    seen = collections.Counter()
    rng = random.Random(3535)
    for trial in range(300):
        if trial % 2:
            arena = random_critical_arena(rng, max_v=5)
        else:
            arena = games.parse_arena(gen.emit_arena(gen.random_arena(
                rng, rng.randint(4, 12), eve_choice_cap=4)))
        obj = PrefixObjective(
            measure=DSUM, cmp=">", nu=Fraction(rng.randint(-3, 2), rng.randint(1, 3)),
            discount=rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)]))
        for strategy in prefix.enumerate_positional(arena):
            winning, witness = prefix.check_positional_dsum(arena, strategy, obj)
            assert prefix.check_positional_dsum(arena, strategy, obj, verdict_only=True) == (
                winning, None), games.emit_arena(arena)
            seen[winning] += 1
            seen["longer_walk"] += not winning and len(witness.edges) > 1
    assert min(seen.values()) >= 500, seen


def assert_violating_walk(arena, strategy, obj, witness):
    """The witness walks the arena by its edge indices from the initial
    vertex, takes Eve's pick wherever she moves, ends at a critical vertex
    and fails the check there, by exact evaluation."""
    v, value, power = arena.initial, Fraction(0), Fraction(1)
    vertices = [v]
    for i in witness.edges:
        src, _a, w, v = arena.edges[i]
        assert src == vertices[-1] and strategy.choice.get(src, i) == i
        power *= obj.discount
        value += power * w
        vertices.append(v)
    assert (witness.vertices, witness.value) == (vertices, value)
    assert v in arena.critical
    assert value <= obj.nu if obj.cmp == ">" else value < obj.nu


def test_positional_check_matches_the_named_oracle():
    # every candidate of the positional enumeration on 320 seeded arenas,
    # under both comparisons: the verdicts, with and without verdict_only,
    # are those of the check on a named graph; a witness has the oracle's
    # vertices and value, and where ties in the table let it take another
    # walk, that walk still follows the strategy into a failed check
    gen = load_bench_gen()
    seen = collections.Counter()
    rng = random.Random(3636)
    for trial in range(320):
        if trial % 2:
            arena = random_critical_arena(rng, max_v=5)
        else:
            arena = games.parse_arena(gen.emit_arena(gen.random_arena(
                rng, rng.randint(4, 10), eve_choice_cap=3)))
        for cmp in (">", ">="):
            obj = PrefixObjective(
                measure=DSUM, cmp=cmp, nu=Fraction(rng.randint(-3, 2), rng.randint(1, 3)),
                discount=rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                                     Fraction(3, 4)]))
            for strategy in prefix.enumerate_positional(arena):
                winning, oracle = named_check_positional_dsum(arena, strategy, obj)
                assert prefix.check_positional_dsum(arena, strategy, obj, verdict_only=True) == (
                    winning, None), games.emit_arena(arena)
                ok, witness = prefix.check_positional_dsum(arena, strategy, obj)
                assert ok == winning, games.emit_arena(arena)
                seen[cmp, winning] += 1
                if winning:
                    assert witness is None
                    continue
                assert_violating_walk(arena, strategy, obj, witness)
                if (witness.vertices, witness.value) != (oracle.vertices, oracle.value):
                    seen["tie"] += 1
    assert min(seen.values()) >= 300 and seen["tie"] <= seen[">", False] // 20, seen
    # a tie: v0 v5 v4 v1 and v0 v5 v3 v1 fail the check by the same value in
    # the same round; the lower edge index into v1 wins, which is v3's in
    # the arena and v4's in the named graph, listed in the walk's order
    arena = mk_arena([("v0", ADAM), ("v1", ADAM), ("v3", EVE), ("v4", ADAM), ("v5", ADAM)],
                     [("v0", 0, "v0"), ("v0", 2, "v5"), ("v1", 0, "v1"), ("v3", -3, "v1"),
                      ("v4", -3, "v0"), ("v4", -3, "v1"), ("v5", -4, "v4"), ("v5", -4, "v3")],
                     critical=("v1",))
    strategy = games.PositionalStrategy({"v3": 3})
    obj = PrefixObjective(DSUM, ">", Fraction(-1), Fraction(3, 4))
    witness = prefix.check_positional_dsum(arena, strategy, obj)[1]
    oracle = named_check_positional_dsum(arena, strategy, obj)[1]
    assert (oracle.vertices, oracle.value) == (["v0", "v5", "v4", "v1"], Fraction(-129, 64))
    assert (witness.vertices, witness.edges) == (["v0", "v5", "v3", "v1"], [1, 7, 3])
    assert_violating_walk(arena, strategy, obj, witness)


def test_dsum_nonstrict_reduction_agrees_with_enumeration():
    rng = random.Random(53)
    lam = Fraction(1, 2)
    for trial in range(60):
        arena = random_critical_arena(rng, max_v=4)
        nu = Fraction(rng.randint(-2, 2))
        obj = PrefixObjective(measure=DSUM, cmp=">=", nu=nu, discount=lam)
        via_reduction = prefix.solve_prefix_threshold(arena, obj)[0]
        via_enumeration = dsum_prefix_oracle(arena, obj)
        assert via_reduction == via_enumeration, games.emit_arena(arena)


def test_dsum_initial_critical_empty_prefix():
    arena = mk_arena([("v", ADAM)], [("v", 1, "v")], critical=("v",))
    # the empty prefix has value 0: checks 0 >= nu / 0 > nu at once
    obj = PrefixObjective(measure=DSUM, cmp=">=", nu=Fraction(1), discount=Fraction(1, 2))
    assert prefix.solve_prefix_threshold(arena, obj)[0] == ADAM
    obj = PrefixObjective(measure=DSUM, cmp=">=", nu=Fraction(0), discount=Fraction(1, 2))
    assert prefix.solve_prefix_threshold(arena, obj)[0] == EVE


# --- critical prefix energy reduction ----------------------------------------


def test_energy_reduction_all_critical_zero_weights():
    game = prefix.PrefixEnergyGame(
        vertices=("a", "b"),
        initial="a",
        actions=("x",),
        table=table_from_edges(("a", "b"), [("a", "x", 0, "b"), ("b", "x", 0, "a")]),
        obs={"a": "a", "b": "b"},
        critical=frozenset(["a", "b"]),
    )
    reduced, credit = prefix.reduce_prefix_energy_to_energy(game, 0)
    assert credit == 0  # zero weights force a zero buffer
    status, _ = games.solve_imperfect_energy_capped(reduced, credit, credit + 4)
    assert status == games.WIN


def test_energy_reduction_hypothesis_failure():
    game = prefix.PrefixEnergyGame(
        vertices=("a", "b"),
        initial="a",
        actions=("x",),
        table=table_from_edges(("a", "b"), [("a", "x", 0, "a"), ("b", "x", 0, "b")]),
        obs={"a": "a", "b": "b"},
        critical=frozenset(["b"]),
    )
    with pytest.raises(ValueError):
        prefix.reduce_prefix_energy_to_energy(game, 0)


@pytest.mark.parametrize("edge", [("z", "x", 0, "a"), ("a", "x", 0, "z")],
                         ids=["unknown-source", "unknown-target"])
def test_energy_reduction_rejects_an_edge_to_or_from_an_unknown_vertex(edge):
    game = prefix.PrefixEnergyGame(
        vertices=("a", "b"),
        initial="a",
        actions=("x",),
        table=table_from_edges(("a", "b"), [("a", "x", 0, "b"), ("b", "x", 0, "a"), edge]),
        obs={"a": "a", "b": "b"},
        critical=frozenset(["b"]),
    )
    with pytest.raises(ValueError, match="edge endpoints must be vertices"):
        prefix.reduce_prefix_energy_to_energy(game, 0)


@pytest.mark.parametrize("change, message", [
    (dict(table={"a": {"x": [(0, "b")]}, "b": {"y": [(0, "a")]}}), "unknown action 'y'"),
    (dict(table={"a": {"x": [(0, "b")]}}), "vertex 'b' has no table entry"),
    (dict(table={"a": {"x": [(0, "b")]}, "b": {"x": [(0, "a")]}, "z": {}}),
     "edge endpoints must be vertices"),
    (dict(critical=frozenset(["b", "z"])), "critical vertices must be vertices"),
], ids=["unknown-action", "missing-entry", "unknown-entry", "unknown-critical"])
def test_energy_reduction_checks_the_table_before_the_rise_bound(change, message, monkeypatch):
    game = prefix.PrefixEnergyGame(
        vertices=("a", "b"), initial="a", actions=("x",),
        table={"a": {"x": [(0, "b")]}, "b": {"x": [(0, "a")]}},
        obs={"a": "a", "b": "b"}, critical=frozenset(["b"]))
    assert prefix.reduce_prefix_energy_to_energy(game, 0)[1] == 0
    monkeypatch.setattr(prefix, "_forcing_rise_bound", lambda *args: pytest.fail("B computed"))
    with pytest.raises(ValueError) as exc:
        prefix.reduce_prefix_energy_to_energy(game._replace(**change), 0)
    assert str(exc.value) == message


def test_prefix_library_argument_checks():
    dead_end = mk_arena([("v", EVE), ("w", ADAM)], [("v", 1, "w")], critical=("w",))
    with pytest.raises(ValueError, match="deadlock-free"):
        prefix.solve_prefix_threshold(dead_end, PrefixObjective(SUM, ">=", Fraction(0)))
    arena = remark_arena()
    with pytest.raises(ValueError, match="path checking applies to dsum"):
        prefix.check_positional_dsum(arena, games.PositionalStrategy({}),
                                     PrefixObjective(SUM, ">=", Fraction(0)))
    eve = mk_arena([("v", EVE), ("w", ADAM)], [("v", 1, "w"), ("w", 0, "v")], critical=("w",))
    strict = PrefixObjective(DSUM, ">", Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError, match="strategy undefined at reachable vertex 'v'"):
        prefix.check_positional_dsum(eve, games.PositionalStrategy({}), strict)
    ok, witness = prefix.check_positional_dsum(eve, games.PositionalStrategy({"v": 0}), strict)
    assert (ok, witness) == (True, None)


@pytest.mark.parametrize("pick", [2, 7])
def test_positional_check_rejects_a_pick_that_is_not_an_edge_of_its_vertex(pick):
    # edge 2 is c -> c and edge 7 does not exist: neither is a move out of
    # v, so neither may be read as one (edge 2 as a v -> c edge of weight 0)
    arena = mk_arena([("v", EVE), ("w", ADAM), ("c", ADAM)],
                     [("v", 0, "w"), ("w", -5, "c"), ("c", 0, "c"), ("w", 0, "w")],
                     critical=("c",))
    obj = PrefixObjective(DSUM, ">", Fraction(0), Fraction(1, 2))
    for verdict_only in (False, True):
        with pytest.raises(ValueError, match="strategy picks %d at 'v', not one of its edges"
                           % pick):
            prefix.check_positional_dsum(arena, games.PositionalStrategy({"v": pick}), obj,
                                         verdict_only=verdict_only)
    assert prefix.check_positional_dsum(arena, games.PositionalStrategy({"v": 0}), obj)[0] is False


def solve_prefix_energy_capped_direct(game, c0, cap, floor):
    """Test-local oracle: knowledge construction with the check applied
    only at critical vertices; credits float in [-floor, cap]."""

    def updates(belief, action):
        per_obs = {}
        for v, c in belief:
            moves = game.table[v].get(action)
            if not moves:
                return None
            for w, dst in moves:
                nc = min(cap, c + w)
                if dst in game.critical and nc < 0:
                    return None
                if nc < -floor:
                    return None
                per_obs.setdefault(game.obs[dst], set()).add((dst, nc))
        return {o: frozenset(b) for o, b in per_obs.items()}

    start_ok = not (game.initial in game.critical and c0 < 0)
    if not start_ok:
        return games.NOT_WIN_AT_CAP
    initial = frozenset([(game.initial, min(c0, cap))])
    succ = {}
    queue, seen = [initial], {initial}
    while queue:
        belief = queue.pop(0)
        options = {}
        for action in game.actions:
            result = updates(belief, action)
            if result is None:
                continue
            options[action] = result
            for nxt in result.values():
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        succ[belief] = options
    losing = set()
    changed = True
    while changed:
        changed = False
        for belief in succ:
            if belief in losing:
                continue
            if not any(
                all(nxt not in losing for nxt in result.values())
                for result in succ[belief].values()
            ):
                losing.add(belief)
                changed = True
    return games.WIN if initial not in losing else games.NOT_WIN_AT_CAP


def test_energy_reduction_matches_direct_solver():
    rng = random.Random(61)
    for trial in range(40):
        n = rng.randint(1, 3)
        names = ["v%d" % i for i in range(n)]
        actions = ("x", "y")
        edges = []
        for v in names:
            for a in actions:
                for _ in range(rng.randint(1, 2)):
                    edges.append((v, a, rng.randint(-2, 2), rng.choice(names)))
        critical = frozenset(v for v in names if rng.random() < 0.6) or frozenset(
            [names[0]]
        )
        game = prefix.PrefixEnergyGame(
            vertices=tuple(names),
            initial=names[0],
            actions=actions,
            table=table_from_edges(names, edges),
            obs={v: rng.choice(("o1", "o2")) for v in names},
            critical=critical,
        )
        c0 = rng.randint(0, 2)
        try:
            reduced, credit = prefix.reduce_prefix_energy_to_energy(game, c0)
        except ValueError:
            continue
        buffer = credit - c0
        cap = credit + 8
        status, _ = games.solve_imperfect_energy_capped(reduced, credit, cap)
        direct = solve_prefix_energy_capped_direct(game, c0, cap - buffer, buffer)
        assert status == direct, games.emit_arena


# --- the energy reduction against the two-arena one it replaced ---------------


@dataclasses.dataclass
class OldImperfectArena:
    """ImperfectArena as the two-arena reduction read it: built from an edge
    list, with the critical set and the available actions of a vertex."""

    vertices: tuple
    initial: object
    actions: tuple
    edges: list  # (src, action, weight, dst)
    obs: dict
    critical: frozenset = frozenset()

    def __post_init__(self):
        self._succ = {}
        for src, a, w, dst in self.edges:
            self._succ.setdefault((src, a), []).append((w, dst))

    def moves(self, v, a):
        return self._succ.get((v, a), [])

    def available(self, v):
        return [a for a in self.actions if (v, a) in self._succ]


def old_arena(game):
    """The indexed prefix arena the two-arena reduction read: the game's
    moves as one edge list."""
    return OldImperfectArena(vertices=tuple(game.vertices), initial=game.initial,
                             actions=game.actions, edges=table_edges(game.table),
                             obs=game.obs, critical=game.critical)


def old_forcing_rise_bound(iarena):
    """prefix._forcing_rise_bound as it was, on the indexed prefix arena."""
    # vertex -> the moves of each available action, read once for both passes
    table = {v: [iarena.moves(v, a) for a in iarena.available(v)] for v in iarena.vertices}
    rank = {v: 0 for v in iarena.critical}
    changed = True
    while changed:
        changed = False
        for v, options in table.items():
            if v in rank or not options:
                continue
            worst = 0
            ok = True
            for moves in options:
                levels = [rank[dst] for _w, dst in moves if dst in rank]
                if not levels:
                    ok = False
                    break
                worst = max(worst, min(levels) + 1)
            if ok:
                rank[v] = worst
                changed = True
    if len(rank) < len(iarena.vertices):
        return None

    h = {}
    for v in sorted(table, key=rank.__getitem__):
        if v in iarena.critical:
            h[v] = 0
            continue
        worst = 0
        for moves in table[v]:
            best = None
            for w, dst in moves:
                if rank[dst] >= rank[v]:
                    continue
                rise = w + h[dst]
                if rise < 0:
                    rise = 0
                if best is None or rise < best:
                    best = rise
            if best is None:
                raise core.InternalError("rank-decreasing move must exist")
            worst = max(worst, best)
        h[v] = worst
    return max(h.values(), default=0)


def old_reduce_prefix_energy_to_energy(iarena, c0):
    """prefix.reduce_prefix_energy_to_energy as it was: from the indexed
    prefix arena to a second arena, a copy with the escape and sink edges."""
    bound = old_forcing_rise_bound(iarena)
    if bound is None:
        raise ValueError("Adam cannot force a critical visit from every vertex")
    wmax = max((abs(w) for _s, _a, w, _d in iarena.edges), default=0)
    if bound > len(iarena.vertices) * wmax:
        raise core.InternalError("forcing rise %d exceeds |V| * W" % bound)

    vertices = tuple(iarena.vertices) + (prefix._ENERGY_SINK,)
    edges = list(iarena.edges)
    for v in iarena.critical:
        for a in iarena.available(v):
            edges.append((v, a, -bound, prefix._ENERGY_SINK))
    for a in iarena.actions:
        edges.append((prefix._ENERGY_SINK, a, 0, prefix._ENERGY_SINK))
    obs = dict(iarena.obs)
    obs[prefix._ENERGY_SINK] = prefix._ENERGY_SINK
    reduced = OldImperfectArena(
        vertices=vertices,
        initial=iarena.initial,
        actions=iarena.actions,
        edges=edges,
        obs=obs,
        critical=frozenset(),
    )
    return reduced, c0 + bound


def old_rows(old):
    """An old arena's move lists as ImperfectArena.rows indexes them."""
    return {v: [old.moves(v, a) for a in old.actions] for v in old.vertices}


def reductions_agree(game, c0):
    """The one-table reduction gives the two-arena one's arena, move list
    for move list, and credit, or fails where it failed with the same
    ValueError; True when it did not fail."""
    try:
        old, old_credit = old_reduce_prefix_energy_to_energy(old_arena(game), c0)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            prefix.reduce_prefix_energy_to_energy(game, c0)
        assert str(caught.value) == str(exc)
        assert prefix._forcing_rise_bound(game.table, game.critical) is None
        return False
    new, credit = prefix.reduce_prefix_energy_to_energy(game, c0)
    assert type(new) is ImperfectArena
    assert (new.vertices, new.initial, new.actions, new.obs, credit) == (
        old.vertices, old.initial, old.actions, old.obs, old_credit)
    assert {v: [list(moves) for moves in row] for v, row in new.rows.items()} == old_rows(old)
    assert prefix._forcing_rise_bound(game.table, game.critical) == credit - c0
    return True


def test_energy_reduction_matches_the_two_arena_reduction_on_the_approx_pool(monkeypatch):
    workloads = load_bench_workloads(monkeypatch)
    reached = 0
    for family in workloads.WORKLOADS["approx-knowledge"]:
        for index in range(family.pool):
            inst = workloads.pool_instance("approx-knowledge", family, index)
            spec = core.parse_wfa(inst.files["spec.wfa"])
            argv = inst.argv
            cmp = {"le": "<=", "lt": "<"}[argv[argv.index("--cmp") + 1]]
            r = Fraction(argv[argv.index("--r") + 1])
            game, credit = synthesis.build_approx_game(spec, cmp, r)
            reached += reductions_agree(game, credit)
    assert reached >= 200, reached


def test_energy_reduction_matches_the_two_arena_reduction_on_memory_specs():
    gen = load_bench_gen()
    rng = random.Random(2811)
    seen = collections.Counter()
    for _ in range(260):
        measure = rng.choice(["sum", "avg"])
        spec = core.parse_wfa(gen.emit_wfa(gen.memory_spec(
            rng, rng.randint(2, 3), rng.randint(2, 4), "ab", "xy", measure, out_w=(-3, 3))))
        for cmp in ("<", "<="):
            for r in rng.sample(range(5), 2):
                game, credit = synthesis.build_approx_game(spec, cmp, Fraction(r))
                seen[measure, cmp, r, reductions_agree(game, credit)] += 1
    assert sum(seen.values()) >= 1000
    for measure, cmp, r in itertools.product(("sum", "avg"), ("<", "<="), range(5)):
        assert seen[measure, cmp, r, True] >= 5, seen
    assert sum(n for key, n in seen.items() if not key[3]) >= 50, seen


def test_energy_reduction_lists_escapes_in_action_order():
    # c lists its actions as y, then x; each escape follows its own
    # action's moves, the rows follow actions, and so do the sink's loops
    edges = [("s", "x", 2, "c"), ("s", "z", -1, "c"), ("c", "y", 1, "s"),
             ("c", "x", -2, "c"), ("c", "y", 0, "c")]
    game = prefix.PrefixEnergyGame(
        vertices=("s", "c"),
        initial="s",
        actions=("x", "y", "z"),
        table=table_from_edges(("s", "c"), edges),
        obs={"s": "o", "c": "o"},
        critical=frozenset({"c"}),
    )
    assert reductions_agree(game, 1)
    reduced, credit = prefix.reduce_prefix_energy_to_energy(game, 1)
    assert credit == 3
    drain = ("drain",)
    assert reduced.table["c"] == {"y": [(1, "s"), (0, "c"), (-2, drain)],
                                  "x": [(-2, "c"), (-2, drain)]}
    assert reduced.rows["c"] == [[(-2, "c"), (-2, drain)], [(1, "s"), (0, "c"), (-2, drain)], ()]
    assert reduced.rows[drain] == [[(0, drain)]] * 3
    # the game's own lists are left as they were
    assert game.table == table_from_edges(("s", "c"), edges)
    # an action listed with no moves is no more enabled than a missing one
    listed = game._replace(table={**game.table, "c": {**game.table["c"], "z": []}})
    assert prefix.reduce_prefix_energy_to_energy(listed, 1)[0].rows == reduced.rows
    stuck = game._replace(table=table_from_edges(("s", "c"), edges + [("s", "y", 0, "s")]))
    assert not reductions_agree(stuck, 1)


def test_rise_bound_reads_an_action_listed_with_no_moves_as_unavailable():
    # at a vertex that is not critical: the rise bound reads the empty list
    # as the rows, the knowledge solver and the escapes do
    absent = prefix.PrefixEnergyGame(
        vertices=("s", "c"), initial="s", actions=("x", "y"),
        table={"s": {"x": [(2, "c")]}, "c": {"x": [(-1, "s")]}},
        obs={"s": "o", "c": "o"}, critical=frozenset({"c"}))
    listed = absent._replace(table={**absent.table, "s": {"x": [(2, "c")], "y": []}})
    reduced, credit = prefix.reduce_prefix_energy_to_energy(absent, 1)
    assert credit == 3
    assert reductions_agree(absent, 1)
    listed_reduced, listed_credit = prefix.reduce_prefix_energy_to_energy(listed, 1)
    assert (listed_reduced.rows, listed_credit) == (reduced.rows, credit)
    # a vertex whose every list is empty has no move, as one with no entry
    stuck = absent._replace(table={**absent.table, "s": {"y": []}})
    with pytest.raises(ValueError, match="cannot force a critical visit"):
        prefix.reduce_prefix_energy_to_energy(stuck, 1)


def old_force_critical_everywhere(iarena):
    """The rank pass the rise bound once took as an argument: Adam's
    attractor to the critical set, swept in vertex order; None when some
    vertex escapes it."""
    rank = {v: 0 for v in iarena.critical}
    changed = True
    while changed:
        changed = False
        for v in iarena.vertices:
            if v in rank:
                continue
            available = iarena.available(v)
            if not available:
                continue
            worst = 0
            ok = True
            for a in available:
                levels = [rank[dst] for _w, dst in iarena.moves(v, a) if dst in rank]
                if not levels:
                    ok = False
                    break
                worst = max(worst, min(levels) + 1)
            if ok:
                rank[v] = worst
                changed = True
    if len(rank) < len(iarena.vertices):
        return None
    return rank


def repr_tie_forcing_rise_bound(iarena, rank):
    """prefix._forcing_rise_bound as it was before, with ties in rank broken by repr."""
    h = {}
    for v in sorted(iarena.vertices, key=lambda v: (rank[v], repr(v))):
        if v in iarena.critical:
            h[v] = 0
            continue
        worst = 0
        for a in iarena.available(v):
            best = None
            for w, dst in iarena.moves(v, a):
                if rank[dst] < rank[v]:
                    rise = max(0, w + h[dst])
                    best = rise if best is None else min(best, rise)
            worst = max(worst, best)
        h[v] = worst
    return max(h.values(), default=0)


def test_forcing_rise_bound_matches_the_repr_tie_break(paper_spec):
    """The one-pass rise bound must equal the bound computed from the old
    rank pass with ties in rank broken by repr, and fail the forcing
    hypothesis exactly where that pass did, on the approx games synth
    approx builds."""
    gen = load_bench_gen()
    rng = random.Random(67)
    specs = [paper_spec] + [
        core.parse_wfa(gen.emit_wfa(gen.memory_spec(
            rng, rng.randint(2, 3), rng.randint(2, 4), "ab", "xy", rng.choice(["sum", "avg"]),
            out_w=(-3, 3))))
        for _ in range(120)
    ]
    bounds, tied, escaped = set(), 0, 0
    for spec in specs:
        for cmp, r in (("<=", rng.randint(1, 4)), ("<", rng.randint(1, 4))):
            game, _credit = synthesis.build_approx_game(spec, cmp, r)
            bound = prefix._forcing_rise_bound(game.table, game.critical)
            iarena = old_arena(game)
            rank = old_force_critical_everywhere(iarena)
            if rank is None:
                assert bound is None
                escaped += 1
                continue
            assert bound == repr_tie_forcing_rise_bound(iarena, rank)
            bounds.add(bound)
            tied += len(set(rank.values())) < len(rank)
    assert len(bounds) >= 10 and tied >= 150 and escaped >= 10, (bounds, tied, escaped)


def test_forcing_rise_bound_fails_on_a_vertex_with_no_action():
    # Adam cannot force a critical visit from a vertex where Eve has no move
    game = prefix.PrefixEnergyGame(
        vertices=("s", "c", "stuck"), initial="s", actions=("go",),
        table=table_from_edges(("s", "c", "stuck"), [("s", "go", 1, "c"), ("c", "go", 0, "s")]),
        obs={"s": "o", "c": "o", "stuck": "o"}, critical=frozenset({"c"}))
    assert prefix._forcing_rise_bound(game.table, game.critical) is None
    with pytest.raises(ValueError, match="cannot force"):
        prefix.reduce_prefix_energy_to_energy(game, 0)
    unstuck = game._replace(vertices=("s", "c"), table={v: game.table[v] for v in "sc"})
    assert prefix._forcing_rise_bound(unstuck.table, unstuck.critical) == 1


def test_dsum_strict_adam_wins_every_strategy_refuted():
    rng = random.Random(71)
    lam = Fraction(1, 2)
    found_adam = 0
    for trial in range(40):
        arena = random_critical_arena(rng, max_v=4)
        obj = PrefixObjective(measure=DSUM, cmp=">", nu=Fraction(rng.randint(-1, 1)),
                              discount=lam)
        winner, _ = prefix.solve_prefix_threshold(arena, obj)
        if winner != ADAM:
            continue
        found_adam += 1
        for strategy in prefix.enumerate_positional(arena):
            ok, witness = prefix.check_positional_dsum(arena, strategy, obj)
            assert not ok
            if witness is not None:
                assert witness.value <= obj.nu
    assert found_adam > 3


def test_dsum_nonstrict_eve_escape_regression():
    # the initial Eve-owned critical vertex can flee the forcing region via
    # n3; dropping that escape once forced her into a failing check at n2
    arena = Arena(
        vertices=("n0", "n1", "n2", "n3"),
        owner={"n0": EVE, "n1": EVE, "n2": ADAM, "n3": EVE},
        initial="n0",
        edges=[
            ("n0", "-", 2, "n3"),
            ("n0", "-", -2, "n2"),
            ("n1", "-", -1, "n0"),
            ("n2", "-", -1, "n1"),
            ("n3", "-", -1, "n0"),
            ("n3", "-", 1, "n3"),
        ],
        critical=frozenset(["n0", "n1", "n2"]),
    )
    obj = PrefixObjective(measure=DSUM, cmp=">=", nu=Fraction(0), discount=Fraction(1, 3))
    winner, strategy = prefix.solve_prefix_threshold(arena, obj)
    assert winner == EVE
    ok, _ = prefix.check_positional_dsum(arena, strategy, obj)
    assert ok


def test_dsum_nonstrict_reduction_agrees_with_enumeration_more_discounts():
    rng = random.Random(59)
    for trial in range(120):
        arena = random_critical_arena(rng, max_v=4)
        lam = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
        nu = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        obj = PrefixObjective(measure=DSUM, cmp=">=", nu=nu, discount=lam)
        via_reduction = prefix.solve_prefix_threshold(arena, obj)[0]
        via_enumeration = dsum_prefix_oracle(arena, obj)
        assert via_reduction == via_enumeration, games.emit_arena(arena)
