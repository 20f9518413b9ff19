import collections
import heapq
import itertools
import math
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest

from wsynth import cli, core, games, prefix, synthesis
from wsynth.core import InternalError
from wsynth.games import ADAM, EVE, Arena, ImperfectArena

from conftest import (edge_iarena, load_bench_gen, load_bench_workloads,
                      named_solve_discounted_sum, named_solve_mean_payoff, old_attractor,
                      old_solve_safety, random_spec, table_edges)


def mk_arena(vertices, edges, initial=None, critical=()):
    """vertices: list of (name, owner); edges: list of (src, w, dst)."""
    return Arena(
        vertices=tuple(name for name, _ in vertices),
        owner={name: who for name, who in vertices},
        initial=initial or vertices[0][0],
        edges=[(src, "-", w, dst) for src, w, dst in edges],
        critical=frozenset(critical),
    )


def remark_arena():
    return mk_arena(
        [("v0", ADAM), ("v1", ADAM)],
        [("v0", 1, "v0"), ("v0", 3, "v1"), ("v1", 0, "v1")],
        critical=("v1",),
    )


def random_arena(rng, max_v=5, max_w=2):
    n = rng.randint(1, max_v)
    vertices = [("n%d" % i, rng.choice([EVE, ADAM])) for i in range(n)]
    edges = []
    for i in range(n):
        for _ in range(rng.randint(1, 2)):
            edges.append(
                ("n%d" % i, rng.randint(-max_w, max_w), "n%d" % rng.randrange(n))
            )
    return mk_arena(vertices, edges)


# --- attractor / safety ----------------------------------------------------


def test_attractor_all_and_empty():
    arena = random_arena(random.Random(0))
    full, _ = games.attractor(arena, arena.vertices, ADAM)
    assert full == set(arena.vertices)
    empty, _ = games.attractor(arena, (), ADAM)
    assert empty == set()


def test_attractor_remark():
    region, strat = games.attractor(remark_arena(), ["v1"], ADAM)
    assert region == {"v0", "v1"}
    # the recorded move at v0 leads toward v1
    assert strat.choice["v0"] == 1


def test_attractor_monotone_fixpoint():
    rng = random.Random(1)
    for _ in range(50):
        arena = random_arena(rng)
        targets = [v for v in arena.vertices if rng.random() < 0.4]
        for player in (EVE, ADAM):
            region, _ = games.attractor(arena, targets, player)
            assert set(targets) <= region
            again, _ = games.attractor(arena, region, player)
            assert again == region


def test_safety_trivial_and_losing():
    arena = mk_arena([("a", ADAM), ("b", EVE)], [("a", 0, "b"), ("b", 0, "a")])
    region, _ = games.solve_safety(arena, arena.vertices)
    assert region == set(arena.vertices)
    region, _ = games.solve_safety(arena, ["b"])
    assert arena.initial not in region


def test_arena_validation_errors():
    owner = {"a": ADAM, "b": EVE}
    cases = [
        (dict(vertices=("a", "b"), owner=owner, initial="z", edges=[]),
         "unknown initial vertex 'z'"),
        (dict(vertices=("a", "c", "d"), owner=owner, initial="a", edges=[]),
         "vertex 'c' has no owner"),
        (dict(vertices=("a", "b"), owner=dict(owner, b="nobody"), initial="a", edges=[]),
         "vertex 'b' has no owner"),
        (dict(vertices=("a", "b"), owner=owner, initial="a", edges=[("a", "-", 0, "z")]),
         "edge endpoints must be vertices"),
        (dict(vertices=("a", "b"), owner=owner, initial="a", edges=[("z", "-", 0, "a")]),
         "edge endpoints must be vertices"),
        # emit_arena would write it and parse_arena reject the text
        (dict(vertices=("a", "b", "a"), owner=owner, initial="a", edges=[("a", "-", 0, "b")]),
         "duplicate vertex 'a'"),
        # emit_arena would drop the mark, so the text would parse to another arena
        (dict(vertices=("a", "b"), owner=owner, initial="a", edges=[("a", "-", 0, "a")],
              critical=frozenset({"zz"})),
         "critical vertices must be vertices"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError) as exc:
            Arena(**kwargs)
        assert str(exc.value) == message


def test_attractor_and_safety_match_old_kernel_on_random_arenas():
    # the old kernel rebuilt incoming lists and an N-sized counter per call
    rng = random.Random(7)
    grown = 0
    for _ in range(400):
        arena = random_arena(rng, max_v=9)
        for player in (EVE, ADAM):
            targets = [v for v in arena.vertices if rng.random() < 0.3]
            if rng.random() < 0.3:
                targets.append("not-a-vertex")
            if rng.random() < 0.5:
                targets = frozenset(targets)
            region, strat = games.attractor(arena, targets, player)
            assert (region, strat.choice) == old_attractor(arena, targets, player)
            grown += len(region) > len(set(targets) & set(arena.vertices))
            # a second call reuses the arena's predecessor lists
            assert games.attractor(arena, targets, player)[0] == region
        safe = [v for v in arena.vertices if rng.random() < 0.7]
        region, strat = games.solve_safety(arena, safe)
        assert (region, strat.choice) == old_solve_safety(arena, safe)
        # the choices are keyed in vertex order, whatever the string hashing
        assert list(strat.choice) == [v for v in arena.vertices if v in strat.choice]
    assert grown >= 100


_ATTRACTOR_DIGEST = """
import hashlib, random
from wsynth import games
rng = random.Random(31)
digest = hashlib.sha256()
for _ in range(200):
    n = rng.randint(2, 8)
    names = ["v%d" % k for k in range(n)]
    owner = {v: rng.choice([games.EVE, games.ADAM]) for v in names}
    edges = [(v, "-", 0, rng.choice(names)) for v in names for _ in range(rng.randint(1, 3))]
    arena = games.Arena(vertices=tuple(names), owner=owner, initial=names[0], edges=edges)
    targets = frozenset(v for v in names if rng.random() < 0.4)
    for player in (games.EVE, games.ADAM):
        region, strategy = games.attractor(arena, targets, player)
        digest.update(repr((sorted(region), list(strategy.choice.items()))).encode())
print(digest.hexdigest())
"""


def test_attractor_strategy_does_not_depend_on_string_hashing():
    # the targets come as a frozenset of strings, whose order follows the
    # hash seed; the attractor takes them in vertex order
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for seed in "0123":
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", _ATTRACTOR_DIGEST],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout)
    assert len(digests) == 1, digests


# --- mean-payoff -----------------------------------------------------------


def test_mp_single_vertex_cases():
    eve_arena = mk_arena([("v", EVE)], [("v", 0, "v")])
    winner, strat = games.solve_mean_payoff(eve_arena)
    assert winner == EVE
    assert strat.choice["v"] == 0

    adam_arena = mk_arena([("v", ADAM)], [("v", -1, "v")])
    winner, strat = games.solve_mean_payoff(adam_arena)
    assert winner == ADAM
    assert strat.choice["v"] == 0


def test_mp_rejects_deadlocks():
    arena = mk_arena([("v", EVE), ("w", EVE)], [("v", 0, "w")])
    with pytest.raises(ValueError, match="dead"):
        games.solve_mean_payoff(arena)


@pytest.mark.parametrize("lam, cmp, dead_end, message", [
    (Fraction(1, 2), ">=", True, "deadlock-free"),
    (Fraction(1, 2), "<", False, "cmp must be"),
    (Fraction(0), ">", False, "strictly between 0 and 1"),
    (Fraction(1), ">=", False, "strictly between 0 and 1"),
])
def test_discounted_sum_rejects_bad_arguments(lam, cmp, dead_end, message):
    edges = [("v", 1, "w")] + ([] if dead_end else [("w", 0, "w")])
    arena = mk_arena([("v", EVE), ("w", ADAM)], edges)
    with pytest.raises(ValueError, match=message):
        games.solve_discounted_sum(arena, lam, Fraction(0), cmp)


@pytest.mark.parametrize("c0, cap, message", [
    (-1, 4, "initial credit must be nonnegative"),
    (3, 2, "cap must be at least the initial credit"),
])
def test_capped_energy_rejects_bad_credit_or_cap(c0, cap, message):
    ia = ImperfectArena(vertices=("v",), initial="v", actions=("go",),
                        table={"v": {"go": [(0, "v")]}}, obs={"v": "o"})
    with pytest.raises(ValueError, match=message):
        games.solve_imperfect_energy_capped(ia, c0, cap)


def cycle_mean_under(arena, choice_eve, choice_adam):
    """Mean value of the unique play from the initial vertex."""
    nxt = {}
    nxt.update(choice_eve)
    nxt.update(choice_adam)
    path, index = [], {}
    v = arena.initial
    while v not in index:
        index[v] = len(path)
        path.append(v)
        v = arena.edges[nxt[v]][3]
    cyc = path[index[v]:]
    total = sum(arena.edges[nxt[u]][2] for u in cyc)
    return Fraction(total, len(cyc))


def enumerate_positional(arena, player):
    mine = [v for v in arena.vertices if arena.owner[v] == player]
    pools = [arena.out(v) for v in mine]
    for combo in itertools.product(*pools):
        yield dict(zip(mine, combo))


def mp_oracle(arena):
    """Eve wins MP >= 0 iff some positional choice beats all of Adam's."""
    for sigma in enumerate_positional(arena, EVE):
        if all(
            cycle_mean_under(arena, sigma, tau) >= 0
            for tau in enumerate_positional(arena, ADAM)
        ):
            return EVE
    return ADAM


def test_mp_matches_enumeration_oracle():
    rng = random.Random(23)
    for trial in range(120):
        arena = random_arena(rng)
        winner, strat = games.solve_mean_payoff(arena)
        assert winner == mp_oracle(arena), games.emit_arena(arena)
        # strategy soundness: no bad cycle reachable in the restricted arena
        if winner == EVE:
            for tau in enumerate_positional(arena, ADAM):
                assert cycle_mean_under(arena, strat.choice, tau) >= 0
        else:
            for sigma in enumerate_positional(arena, EVE):
                assert cycle_mean_under(arena, sigma, strat.choice) < 0


def old_lift(vertices, owner, out_edges, cap):
    """The lifting as it was before set-lifting: a worklist of single
    vertices, each raised to its lift target, one update at a time."""

    def bump(value, weight):
        if value is None:
            return None
        need = value - weight
        if need < 0:
            need = 0
        return None if need > cap else need

    f = {v: 0 for v in vertices}

    def target(v):
        best = None
        first = True
        for weight, dst in out_edges[v]:
            cand = bump(f[dst], weight)
            if first:
                best = cand
                first = False
            elif owner[v] == EVE:
                if best is None or (cand is not None and cand < best):
                    best = cand
            else:
                if cand is None or (best is not None and cand > best):
                    best = cand
        return best

    preds = {v: set() for v in vertices}
    for u in vertices:
        for _w, dst in out_edges[u]:
            preds[dst].add(u)
    dirty = set(vertices)
    while dirty:
        v = dirty.pop()
        current = f[v]
        if current is None:
            continue
        t = target(v)
        if t == current:
            continue
        if t is None or t > current:
            f[v] = t
            dirty.update(preds[v])
    return f


def old_solve_mean_payoff(arena):
    """The solver as it was before the credit cap and the region restriction.

    Lifts toward n * W with old_lift, and solves the dual game over the
    full arena.
    """
    out_edges = {
        v: [(arena.edges[i][2], arena.edges[i][3]) for i in arena.out(v)]
        for v in arena.vertices
    }
    wneg = max((max(0, -w) for pairs in out_edges.values() for w, _ in pairs), default=0)
    f = old_lift(arena.vertices, arena.owner, out_edges, len(arena.vertices) * wneg)
    if f[arena.initial] is not None:
        choice = {}
        for v in arena.vertices:
            if arena.owner[v] != EVE or f[v] is None:
                continue
            for i in arena.out(v):
                _src, _a, w, dst = arena.edges[i]
                if f[dst] is not None and max(0, f[dst] - w) <= f[v]:
                    choice[v] = i
                    break
        return EVE, choice
    n = len(arena.vertices)
    dual_owner = {v: (EVE if arena.owner[v] == ADAM else ADAM) for v in arena.vertices}
    dual_out = {v: [(-(n * w + 1), dst) for w, dst in out_edges[v]] for v in arena.vertices}
    wneg2 = max((max(0, -w) for pairs in dual_out.values() for w, _ in pairs), default=0)
    g = old_lift(arena.vertices, dual_owner, dual_out, n * wneg2)
    assert g[arena.initial] is not None
    choice = {}
    for v in arena.vertices:
        if arena.owner[v] != ADAM or g[v] is None:
            continue
        for i in arena.out(v):
            _src, _a, w, dst = arena.edges[i]
            if g[dst] is not None and max(0, g[dst] + n * w + 1) <= g[v]:
                choice[v] = i
                break
    return ADAM, choice


def dict_lift(vertices, owner, out_edges, cap):
    """Set-lifting as it was keyed by vertex name: out_edges[v] lists
    (w, u) with u a name, and f, rank and preds are dicts."""
    preds = {v: [] for v in vertices}
    for v in vertices:
        for w, dst in out_edges[v]:
            preds[dst].append((v, w))
    f = {v: 0 for v in vertices}
    while dict_lift_round(vertices, owner, out_edges, preds, f, cap):
        pass
    for v in vertices:
        if f[v] is None:
            continue
        needs = [max(0, f[u] - w) for w, u in out_edges[v] if f[u] is not None]
        if owner[v] == EVE:
            target = min(needs, default=None)
        else:
            target = max(needs) if needs and len(needs) == len(out_edges[v]) else None
        if target != f[v]:
            raise InternalError("progress measure is not a fixpoint at %r" % (v,))
    return f


def dict_lift_round(vertices, owner, out_edges, preds, f, cap):
    """One round of dict_lift; games._lift_round says what it computes."""
    rank = {}
    queue = deque()
    for v in vertices:
        fv = f[v]
        if fv is None:
            continue
        if owner[v] == EVE:
            invalid = True
            for w, u in out_edges[v]:
                if f[u] is not None and fv + w >= f[u]:
                    invalid = False
                    break
        else:
            invalid = not out_edges[v]
            for w, u in out_edges[v]:
                if f[u] is None or fv + w < f[u]:
                    invalid = True
                    break
        if invalid:
            rank[v] = len(rank)
            queue.append(v)
    if not rank:
        return False

    tight_left = {}
    while queue:
        u = queue.popleft()
        fu = f[u]
        for v, w in preds[u]:
            fv = f[v]
            if v in rank or fv is None or fv - fu + w != 0:
                continue
            if owner[v] == EVE:
                if v not in tight_left:
                    slacks = [fv - f[x] + w2 for w2, x in out_edges[v] if f[x] is not None]
                    tight_left[v] = slacks.count(0) if max(slacks) == 0 else -1
                tight_left[v] -= 1
                if tight_left[v]:
                    continue
            rank[v] = len(rank)
            queue.append(v)

    heap = []
    unsettled = {}
    worst = {}
    for v, r in rank.items():
        fv = f[v]
        edges = out_edges[v]
        if owner[v] == EVE:
            costs = [f[u] - fv - w for w, u in edges if f[u] is not None and u not in rank]
            if costs:
                heapq.heappush(heap, (min(costs), r, v))
            continue
        count = 0
        most = 0
        top = not edges
        for w, u in edges:
            if f[u] is None:
                top = True
                break
            cost = f[u] - fv - w
            if u not in rank:
                most = max(most, cost)
            elif cost > 0 or (cost == 0 and rank[u] < r):
                count += 1
                most = cost
        if top:
            continue
        if count:
            unsettled[v] = count
            worst[v] = most
        else:
            heapq.heappush(heap, (most, r, v))

    rise = {}
    while heap:
        d, ru, u = heapq.heappop(heap)
        if u in rise:
            continue
        rise[u] = d
        fu = f[u]
        for v, w in preds[u]:
            if v in rise or v not in rank:
                continue
            cost = fu - f[v] - w
            if owner[v] == EVE:
                heapq.heappush(heap, (d + cost, rank[v], v))
            elif v in unsettled and (cost > 0 or (cost == 0 and ru < rank[v])):
                worst[v] = max(worst[v], d + cost)
                unsettled[v] -= 1
                if not unsettled[v]:
                    heapq.heappush(heap, (worst[v], rank[v], v))

    for v in rank:
        d = rise.get(v)
        f[v] = None if d is None or f[v] + d > cap else f[v] + d
    return True


def dict_credit_bound(out_edges):
    lows = [min(w for w, _ in es) for es in out_edges.values() if es]
    return -sum(low for low in lows if low < 0)


def dict_tight_edges(arena, vertices, player, weight_fn, f):
    choice = {}
    for v in vertices:
        if arena.owner[v] != player or f[v] is None:
            continue
        for i in arena.out(v):
            _src, _a, w, dst = arena.edges[i]
            if f.get(dst) is not None and max(0, f[dst] - weight_fn(w)) <= f[v]:
                choice[v] = i
                break
    return choice


def dict_solve_mean_payoff(arena):
    """games.solve_mean_payoff as it was on dicts keyed by vertex name,
    returning the winner and the strategy's choice dict."""
    out_edges = {
        v: [(arena.edges[i][2], arena.edges[i][3]) for i in arena.out(v)]
        for v in arena.vertices
    }
    f = dict_lift(arena.vertices, arena.owner, out_edges, dict_credit_bound(out_edges))
    if f[arena.initial] is not None:
        return EVE, dict_tight_edges(arena, arena.vertices, EVE, lambda w: w, f)
    n = len(arena.vertices)
    trap = tuple(v for v in arena.vertices if f[v] is None)
    dual_owner = {v: (EVE if arena.owner[v] == ADAM else ADAM) for v in trap}
    dual_out = {}
    for v in trap:
        dual_out[v] = [(-(n * w + 1), dst) for w, dst in out_edges[v] if f[dst] is None]
        if arena.owner[v] == EVE and len(dual_out[v]) < len(out_edges[v]):
            raise InternalError("Eve can leave Adam's mean-payoff region at %r" % (v,))
    g = dict_lift(trap, dual_owner, dual_out, dict_credit_bound(dual_out))
    if g[arena.initial] is None:
        raise InternalError("mean-payoff determinacy violated")
    return ADAM, dict_tight_edges(arena, trap, ADAM, lambda w: -(n * w + 1), g)


def dense(vertices, owner, out_edges):
    """A game keyed by vertex name as games._lift takes it: the names,
    Eve's flags and the out-lists on the vertex numbers 0..n-1."""
    number = {v: k for k, v in enumerate(vertices)}
    return (tuple(vertices), [owner[v] == EVE for v in vertices],
            [[(w, number[u]) for w, u in out_edges[v]] for v in vertices])


WEIGHT_RANGES = ((-2, 2), (-9, 3), (-1, 6), (-5, 5), (-3, 0), (0, 4))


def wide_random_arena(rng, max_v, weights):
    n = rng.randint(1, max_v)
    vertices = [("n%d" % i, rng.choice([EVE, ADAM])) for i in range(n)]
    edges = []
    for i in range(n):
        for _ in range(rng.randint(1, 3)):
            edges.append(("n%d" % i, rng.randint(*weights), "n%d" % rng.randrange(n)))
    return mk_arena(vertices, edges, initial="n%d" % rng.randrange(n))


def test_mp_matches_old_solver_on_random_arenas():
    rng = random.Random(2024)
    winners = set()
    for trial in range(1500):
        arena = wide_random_arena(rng, 25, WEIGHT_RANGES[trial % len(WEIGHT_RANGES)])
        winner, strat = games.solve_mean_payoff(arena)
        old_winner, old_choice = old_solve_mean_payoff(arena)
        assert (winner, list(strat.choice.items())) == (
            old_winner, list(old_choice.items())
        ), games.emit_arena(arena)
        winners.add(winner)
    assert winners == {EVE, ADAM}


def mixed_name_arena(rng, max_v, weights):
    """A wide random arena whose names mix strings and tuples, as the
    prefix reduction's ("copy", v) and ("sink",) do, listed in shuffled order."""
    arena = wide_random_arena(rng, max_v, weights)
    name = {v: rng.choice([v, ("copy", v)]) for v in arena.vertices}
    name[rng.choice(arena.vertices)] = ("sink",)
    order = list(arena.vertices)
    rng.shuffle(order)
    return Arena(vertices=tuple(name[v] for v in order),
                 owner={name[v]: who for v, who in arena.owner.items()},
                 initial=name[arena.initial],
                 edges=[(name[src], a, w, name[dst]) for src, a, w, dst in arena.edges])


def test_mp_matches_dict_solver_on_mixed_names():
    # the dense solver numbers vertices in arena order: winners, choices and
    # the order of the choice items are those of the name-keyed solver
    rng = random.Random(4711)
    winners = {EVE: 0, ADAM: 0}
    for trial in range(1000):
        arena = mixed_name_arena(rng, 25, WEIGHT_RANGES[trial % len(WEIGHT_RANGES)])
        winner, strat = games.solve_mean_payoff(arena)
        dict_winner, dict_choice = dict_solve_mean_payoff(arena)
        assert (winner, list(strat.choice.items())) == (
            dict_winner, list(dict_choice.items())), games.emit_arena(arena)
        winners[winner] += 1
    assert min(winners.values()) >= 200, winners


def test_mp_matches_dict_solver_on_reduced_bench_arenas():
    """The mean-payoff games of threshold-mp-shaped instances: spec arenas of
    memory specs and random prefix arenas, reduced as solve-prefix does."""
    gen = load_bench_gen()
    rng = random.Random(1931)
    seen = {EVE: 0, ADAM: 0, "copies": 0}
    for trial in range(120):
        measure = rng.choice([core.SUM, core.AVG])
        if trial % 2:
            k, m = rng.choice([(4, 2), (6, 3), (10, 3), (13, 4)])
            spec = core.parse_wfa(gen.emit_wfa(gen.memory_spec(rng, k, m, "abc", "xyz", measure)))
            safe = synthesis.make_domain_safe(spec)
            if safe is None:
                continue
            arena = synthesis.spec_to_prefix_arena(safe)
        else:
            arena = games.parse_arena(gen.emit_arena(gen.random_arena(rng, rng.randint(20, 80))))
        nu = Fraction(rng.choice(["-1", "-1/2", "0", "1/3", "1/2", "1", "2", "-3"]))
        obj = prefix.PrefixObjective(measure=measure, cmp=rng.choice([">", ">="]), nu=nu)
        reduction = prefix.reduce_prefix_game(arena, obj).reduction
        if reduction is None:
            continue
        winner, strat = games.solve_mean_payoff(reduction.arena)
        dict_winner, dict_choice = dict_solve_mean_payoff(reduction.arena)
        assert (winner, list(strat.choice.items())) == (dict_winner, list(dict_choice.items()))
        seen[winner] += 1
        seen["copies"] += any(isinstance(v, tuple) and v[0] == "copy"
                              for v in reduction.arena.vertices)
    assert min(seen.values()) >= 10, seen


def reaches_negative_cycle(arena, choice, weight_fn):
    """Bellman-Ford from the initial vertex over the one-player graph left
    when the owners of `choice` play it: is a negative cycle reachable?"""
    edges = []
    for v in arena.vertices:
        for i in ([choice[v]] if v in choice else arena.out(v)):
            _src, _a, w, dst = arena.edges[i]
            edges.append((v, weight_fn(w), dst))
    dist = {arena.initial: 0}
    for _ in range(len(arena.vertices)):
        changed = False
        for src, w, dst in edges:
            if src in dist and (dst not in dist or dist[src] + w < dist[dst]):
                dist[dst] = dist[src] + w
                changed = True
        if not changed:
            return False
    return True


def test_mp_strategy_sound_on_larger_arenas():
    rng = random.Random(77)
    for trial in range(300):
        arena = wide_random_arena(rng, 40, WEIGHT_RANGES[trial % len(WEIGHT_RANGES)])
        winner, strat = games.solve_mean_payoff(arena)
        player = EVE if winner == EVE else ADAM
        # the returned strategy covers every vertex of its owner it reaches
        reach, stack = {arena.initial}, [arena.initial]
        while stack:
            v = stack.pop()
            if arena.owner[v] == player:
                assert v in strat.choice, games.emit_arena(arena)
            for i in [strat.choice[v]] if v in strat.choice else arena.out(v):
                dst = arena.edges[i][3]
                if dst not in reach:
                    reach.add(dst)
                    stack.append(dst)
        if winner == EVE:
            # no reachable cycle of negative sum
            assert not reaches_negative_cycle(arena, strat.choice, lambda w: w)
        else:
            # no reachable cycle of sum >= 0: with N = |V| + 1, a simple cycle
            # has sum >= 0 exactly when its weights N*w + 1 sum above 0
            big = len(arena.vertices) + 1
            assert not reaches_negative_cycle(
                arena, strat.choice, lambda w: -(big * w + 1)
            ), games.emit_arena(arena)


def dual_game(arena, out_edges):
    """Owners swapped and weights -(N*w+1), as in solve_mean_payoff."""
    n = len(arena.vertices)
    owner = {v: (EVE if arena.owner[v] == ADAM else ADAM) for v in arena.vertices}
    out = {v: [(-(n * w + 1), d) for w, d in out_edges[v]] for v in arena.vertices}
    return owner, out


def test_lift_at_credit_bound_equals_lift_at_large_cap():
    rng = random.Random(5150)
    for trial in range(300):
        arena = wide_random_arena(rng, 12, WEIGHT_RANGES[trial % len(WEIGHT_RANGES)])
        n = len(arena.vertices)
        out_edges = {
            v: [(arena.edges[i][2], arena.edges[i][3]) for i in arena.out(v)]
            for v in arena.vertices
        }
        for owner, edges in ((arena.owner, out_edges), dual_game(arena, out_edges)):
            names, eve, out = dense(arena.vertices, owner, edges)
            wmax = max(abs(w) for pairs in out for w, _ in pairs)
            bound = games._credit_bound(out)
            assert bound <= n * wmax
            assert games._lift(names, eve, out, bound) == games._lift(
                names, eve, out, 4 * n * wmax
            ), games.emit_arena(arena)


def test_credit_bound_matches_the_nested_min():
    rng = random.Random(8128)
    seen = {"zero": 0, "positive": 0, "empty_list": 0}
    for trial in range(600):
        arena = wide_random_arena(rng, 12, WEIGHT_RANGES[trial % len(WEIGHT_RANGES)])
        out_edges = {
            v: [(arena.edges[i][2], arena.edges[i][3]) for i in arena.out(v)]
            for v in arena.vertices
        }
        n = len(arena.vertices)
        primal = dense(arena.vertices, arena.owner, out_edges)[2]
        dual_out = dense(arena.vertices, *dual_game(arena, out_edges))[2]
        # the solver's dual game keeps only edges inside Adam's region, so a
        # vertex may have none; a weight tie compares the targets
        for v in range(n):
            if rng.random() < 0.2:
                dual_out[v] = []
            elif rng.random() < 0.2:
                primal[v].append((primal[v][0][0], rng.randrange(n)))
        for out in (primal, dual_out):
            expected = sum(max(0, -min((w for w, _ in es), default=0)) for es in out)
            assert games._credit_bound(out) == expected
            seen["zero" if expected == 0 else "positive"] += 1
            seen["empty_list"] += not all(out)
    assert min(seen.values()) >= 50, seen


LIFT_WEIGHT_RANGES = ((0, 0), (-1, 0), (-50, 10), (-2, 2), (-9, 3), (-1, 6))


def test_set_lift_matches_old_lift_on_random_arenas():
    rng = random.Random(6174)
    seen = {"all_top": 0, "mixed": 0, "eve_clip": 0, "below_bound": 0}
    for trial in range(1500):
        arena = wide_random_arena(rng, 20, LIFT_WEIGHT_RANGES[trial % len(LIFT_WEIGHT_RANGES)])
        out_edges = {
            v: [(arena.edges[i][2], arena.edges[i][3]) for i in arena.out(v)]
            for v in arena.vertices
        }
        for owner, out in ((arena.owner, out_edges), dual_game(arena, out_edges)):
            names, eve, dense_out = dense(arena.vertices, owner, out)
            bound = games._credit_bound(dense_out)
            for cap in (bound, rng.randrange(bound) if bound else 0):
                f = dict(zip(names, games._lift(names, eve, dense_out, cap)))
                assert f == old_lift(arena.vertices, owner, out, cap), (
                    games.emit_arena(arena), owner, cap
                )
                tops = sum(value is None for value in f.values())
                seen["all_top"] += tops == len(f)
                seen["mixed"] += 0 < tops < len(f)
                seen["below_bound"] += cap < bound
                # an Eve vertex at 0 with an edge of positive slack, which
                # max(0, .) clips
                seen["eve_clip"] += any(
                    owner[v] == EVE and f[v] == 0
                    and any(f[u] is not None and w - f[u] > 0 for w, u in out[v])
                    for v in arena.vertices
                )
    assert min(seen.values()) >= 50, seen


def test_set_lift_clips_at_zero():
    # v would owe u's credit minus 10, below zero: f(v) stays 0, while
    # Adam's u needs one unit to pay the -1 back to v
    owner = {"v": EVE, "u": ADAM}
    out = {"v": [(10, "u")], "u": [(-1, "v")]}
    names, eve, dense_out = dense(("v", "u"), owner, out)
    cap = games._credit_bound(dense_out)
    assert (eve, dense_out, cap) == ([True, False], [[(10, 1)], [(-1, 0)]], 1)
    assert games._lift(names, eve, dense_out, cap) == [0, 1]
    assert old_lift(("v", "u"), owner, out, cap) == {"v": 0, "u": 1}


_BROKEN_LIFT = """
import sys
from wsynth import core, games
if not sys.flags.optimize:
    sys.exit("expected python -O")
real_round = games._lift_round
def overshoot(eve, out, preds, f, cap):
    if real_round(eve, out, preds, f, cap):
        return True
    for v, fv in enumerate(f):
        if fv:
            f[v] += 1
    return False
games._lift_round = overshoot
try:
    games._lift(("v", "u"), [True, False], [[(10, 1)], [(-1, 0)]], 1)
except core.InternalError as exc:
    print("internal error: %s" % exc)
"""


def test_lift_fixpoint_check_survives_python_O():
    # a round that lifts past the least fixpoint must not go unnoticed
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_LIFT],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "internal error: progress measure is not a fixpoint at 'u'\n"


def test_mp_rejects_adam_region_eve_can_leave(monkeypatch):
    # a lift that puts Eve's vertex e in Adam's region while its successor
    # w stays out of it breaks the premise of the restricted dual game
    arena = mk_arena([("e", EVE), ("w", ADAM)], [("e", 0, "w"), ("w", 0, "w")])
    monkeypatch.setattr(games, "_lift", lambda names, *_: [None, 0])
    with pytest.raises(InternalError, match="Eve can leave"):
        games.solve_mean_payoff(arena)


_BROKEN_DETERMINACY = """
import sys
from wsynth import core, games
if not sys.flags.optimize:
    sys.exit("expected python -O")
games._lift = lambda names, eve, out, cap: [None] * len(out)
arena = games.parse_arena(sys.stdin.read())
try:
    games.solve_mean_payoff(arena)
except core.InternalError as exc:
    print("internal error: %s" % exc)
"""


def test_mp_determinacy_check_survives_python_O(remark_arena_text):
    # with a broken lift neither player wins; -O must not turn this into
    # a silent Adam win
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_DETERMINACY],
        input=remark_arena_text, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "internal error: mean-payoff determinacy violated\n"


# --- discounted sum --------------------------------------------------------


def test_ds_geometric_self_loop():
    for c in (-3, 0, 5):
        arena = mk_arena([("v", EVE)], [("v", c, "v")])
        _w, _s, value = games.solve_discounted_sum(
            arena, Fraction(1, 2), Fraction(0), ">="
        )
        assert value == c  # c * (lam / (1 - lam)) with lam = 1/2


def test_ds_remark_reduced_value():
    # remark arena with the critical exit gadget applied by hand:
    # v1 gains a 0-weight escape to a 0-loop sink.
    arena = mk_arena(
        [("v0", ADAM), ("v1", ADAM), ("bot", ADAM)],
        [
            ("v0", 1, "v0"),
            ("v0", 3, "v1"),
            ("v1", 0, "v1"),
            ("v1", 0, "bot"),
            ("bot", 0, "bot"),
        ],
    )
    winner, _s, value = games.solve_discounted_sum(
        arena, Fraction(1, 2), Fraction(1), ">"
    )
    assert value == 1
    assert winner == ADAM  # Eve loses DS > 1 ...
    winner, _s, _v = games.solve_discounted_sum(arena, Fraction(1, 2), Fraction(1), ">=")
    assert winner == EVE  # ... but wins DS >= 1


def ds_value_iteration(arena, lam, steps=60):
    vals = {v: Fraction(0) for v in arena.vertices}
    for _ in range(steps):
        new = {}
        for v in arena.vertices:
            cands = [
                lam * (w + vals[dst])
                for _s, _a, w, dst in (arena.edges[i] for i in arena.out(v))
            ]
            new[v] = max(cands) if arena.owner[v] == EVE else min(cands)
        vals = new
    return vals


_NEVER_CONVERGES = """
import sys
from fractions import Fraction
from wsynth import core, games
if not sys.flags.optimize:
    sys.exit("expected python -O")
calls = []
def inflated(arena, next_edge, p, q):
    # every vertex looks worse for Adam than any edge he has, so he
    # switches after every evaluation
    calls.append(list(next_edge))
    return [(10**9, 1)] * len(next_edge)
games._evaluate_profile = inflated
arena = games.parse_arena(sys.stdin.read())
try:
    games.solve_discounted_sum(arena, Fraction(1, 2), Fraction(0), ">=")
except core.InternalError as exc:
    print("internal error after %d evaluations: %s" % (len(calls), exc))
"""


def test_ds_round_bound_survives_python_O(remark_arena_text):
    # remark.arena has 2 * 1 strategy profiles; a third evaluation would
    # have to repeat one, so strategy iteration has gone wrong
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _NEVER_CONVERGES],
        input=remark_arena_text, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "internal error after 2 evaluations: discounted-sum iteration did not converge\n"
    )


def test_ds_evaluations_within_profile_count(monkeypatch):
    # strategy iteration never revisits a profile
    rng = random.Random(11)
    real = games._evaluate_profile
    seen = []
    monkeypatch.setattr(
        games, "_evaluate_profile",
        lambda arena, next_edge, p, q: seen.append(tuple(next_edge))
        or real(arena, next_edge, p, q),
    )
    longest = 0
    for _ in range(100):
        arena = random_arena(rng, max_v=5)
        seen.clear()
        games.solve_discounted_sum(arena, Fraction(2, 3), Fraction(0), ">=")
        assert len(seen) == len(set(seen))
        longest = max(longest, len(seen))
    assert longest >= 3


def test_ds_matches_value_iteration():
    rng = random.Random(5)
    lam = Fraction(1, 2)
    for trial in range(60):
        arena = random_arena(rng, max_v=4)
        _w, _s, value = games.solve_discounted_sum(arena, lam, Fraction(0), ">=")
        approx = ds_value_iteration(arena, lam)[arena.initial]
        wmax = max(abs(e[2]) for e in arena.edges)
        assert abs(value - approx) <= lam**60 * wmax / (1 - lam)


def test_ds_fixpoint_identity():
    rng = random.Random(9)
    lam = Fraction(2, 5)
    for trial in range(30):
        arena = random_arena(rng, max_v=4)
        # the solver checks the fixpoint identity internally
        games.solve_discounted_sum(arena, lam, Fraction(0), ">")


def test_ds_fixpoint_identity_check_fails_as_internal_error(monkeypatch, tmp_path, capsys):
    # Adam's initial vertex valued 1 below the truth: his edges all look
    # worse to him, and no edge enters it, so no improvement test fires and
    # only the fixpoint identity check sees it
    real = games._evaluate_profile

    def lowered(arena, next_edge, p, q):
        values = real(arena, next_edge, p, q)
        k = arena.number[arena.initial]
        n, d = values[k]
        values[k] = n - d, d
        return values

    monkeypatch.setattr(games, "_evaluate_profile", lowered)
    path = tmp_path / "game.arena"
    path.write_text("arena\nvertex: s adam\nvertex: t adam critical\ninitial: s\n"
                    "edge: s - 1 t\nedge: t - 0 t\n")
    code = cli.main(["solve-prefix", str(path), "--measure", "dsum", "--cmp", "ge",
                     "--nu", "0", "--lambda", "1/2"])
    assert code == cli.EXIT_SOFTWARE == 70
    assert capsys.readouterr().err == (
        "internal error: discounted-sum fixpoint identity violated\n"
    )


def fraction_evaluate_profile(arena, next_edge, lam):
    """The Fraction lasso evaluation the integer-pair one replaced, kept as
    its oracle."""
    values = {}
    for start in arena.vertices:
        if start in values:
            continue
        path = []
        index = {}
        v = start
        while v not in values and v not in index:
            index[v] = len(path)
            path.append(v)
            v = arena.edges[next_edge[v]][3]
        if v not in values:
            # the walk closed a fresh cycle at v
            acc = Fraction(0)
            power = Fraction(1)
            for u in path[index[v]:]:
                power *= lam
                acc += power * arena.edges[next_edge[u]][2]
            values[v] = acc / (1 - power)
        suffix = values[v]
        for u in reversed(path):
            w = arena.edges[next_edge[u]][2]
            suffix = lam * (w + suffix)
            values[u] = suffix
    return values


def fraction_solve_discounted_sum(arena, lam, nu, cmp):
    """The Fraction strategy iteration the integer-pair one replaced, kept
    as its oracle: (winner, choice, value)."""
    lam = Fraction(lam)
    nu = Fraction(nu)
    next_edge = {v: arena.out(v)[0] for v in arena.vertices}

    def greedy_edge(v, values, maximize):
        best_i = None
        best_val = None
        for i in arena.out(v):
            _s, _a, w, dst = arena.edges[i]
            cand = lam * (w + values[dst])
            if best_val is None or (cand > best_val if maximize else cand < best_val):
                best_val = cand
                best_i = i
        return best_i, best_val

    profiles = math.prod(len(arena.out(v)) for v in arena.vertices)
    evaluations = 0
    while True:
        while True:
            evaluations += 1
            if evaluations > profiles:
                raise InternalError("discounted-sum iteration did not converge")
            values = fraction_evaluate_profile(arena, next_edge, lam)
            switched = False
            for v in arena.vertices:
                if arena.owner[v] != ADAM:
                    continue
                i, val = greedy_edge(v, values, maximize=False)
                if val < values[v]:
                    next_edge[v] = i
                    switched = True
            if not switched:
                break
        improved = False
        for v in arena.vertices:
            if arena.owner[v] != EVE:
                continue
            i, val = greedy_edge(v, values, maximize=True)
            if val > values[v]:
                next_edge[v] = i
                improved = True
        if not improved:
            break

    for v in arena.vertices:
        _i, opt = greedy_edge(v, values, arena.owner[v] == EVE)
        if values[v] != opt:
            raise InternalError("discounted-sum fixpoint identity violated")

    value = values[arena.initial]
    eve_wins = value > nu if cmp == ">" else value >= nu
    winner = EVE if eve_wins else ADAM
    choice = {v: next_edge[v] for v in arena.vertices
              if arena.owner[v] == (EVE if eve_wins else ADAM)}
    return winner, choice, value


_ORACLE_LAMBDAS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4),
                   Fraction(3, 5), Fraction(9, 10), Fraction(1, 7)]


def test_ds_matches_the_fraction_oracle_on_random_arenas():
    gen = load_bench_gen()
    rng = random.Random(2911)
    ties = 0
    for k in range(1000):
        arena = games.parse_arena(gen.emit_arena(gen.random_arena(
            rng, rng.randint(1, 9), max_out=rng.randint(1, 4), weights=(-4, 4))))
        lam = _ORACLE_LAMBDAS[k % len(_ORACLE_LAMBDAS)]
        value = fraction_solve_discounted_sum(arena, lam, 0, ">=")[2]
        for cmp in (">", ">="):
            # at nu = value the two comparisons part
            for nu in (value, Fraction(rng.randint(-8, 8), rng.randint(1, 3))):
                winner, strategy, got = games.solve_discounted_sum(arena, lam, nu, cmp)
                assert (winner, strategy.choice, got) == \
                    fraction_solve_discounted_sum(arena, lam, nu, cmp)
                assert type(got) is Fraction
                ties += nu == value
    assert ties >= 2000


def test_numbered_solvers_match_the_named_ones_on_mixed_names():
    # the solvers read the numbers Arena gives its vertices once; on names
    # mixing strings and tuples in shuffled order, winners, values, regions,
    # choices and the order of the choice items are the name-keyed solvers'
    rng = random.Random(3131)
    seen = collections.Counter()
    for trial in range(600):
        arena = mixed_name_arena(rng, 12, WEIGHT_RANGES[trial % len(WEIGHT_RANGES)])
        winner, strat = games.solve_mean_payoff(arena)
        named_winner, named_choice = named_solve_mean_payoff(arena)
        assert (winner, list(strat.choice.items())) == (named_winner, list(named_choice.items()))
        lam = _ORACLE_LAMBDAS[trial % len(_ORACLE_LAMBDAS)]
        nu = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        cmp = rng.choice([">", ">="])
        ds_winner, ds_strat, value = games.solve_discounted_sum(arena, lam, nu, cmp)
        named_winner, named_choice, named_value = named_solve_discounted_sum(arena, lam, nu, cmp)
        assert (ds_winner, list(ds_strat.choice.items()), value) == \
            (named_winner, list(named_choice.items()), named_value)
        targets = [v for v in arena.vertices if rng.random() < 0.3]
        player = rng.choice([EVE, ADAM])
        region, attr_strat = games.attractor(arena, targets, player)
        assert (region, attr_strat.choice) == old_attractor(arena, targets, player)
        safe = [v for v in arena.vertices if rng.random() < 0.7]
        region, safe_strat = games.solve_safety(arena, safe)
        assert (region, safe_strat.choice) == old_solve_safety(arena, safe)
        seen["mp", winner] += 1
        seen["ds", ds_winner] += 1
    assert len(seen) == 4 and min(seen.values()) >= 100, seen


def test_ds_matches_the_fraction_oracle_on_the_dsum_pool(monkeypatch, tmp_path, capsys):
    # every discounted-sum game that solve_prefix_threshold solves for the
    # dsum-positional pool: synth threshold and solve-prefix, > and >=
    workloads = load_bench_workloads(monkeypatch)
    real = games.solve_discounted_sum
    solved = []

    def checked(arena, lam, nu, cmp):
        winner, strategy, value = real(arena, lam, nu, cmp)
        assert (winner, strategy.choice, value) == \
            fraction_solve_discounted_sum(arena, lam, nu, cmp)
        solved.append(len(arena.vertices))
        return winner, strategy, value

    monkeypatch.setattr(games, "solve_discounted_sum", checked)
    instances = 0
    for family in workloads.WORKLOADS["dsum-positional"]:
        for index in range(family.pool):
            inst = workloads.pool_instance("dsum-positional", family, index)
            if inst.argv[0] == "dsum-path":
                continue  # path checks play no game
            for name, text in inst.files.items():
                (tmp_path / name).write_text(text)
            argv = [str(tmp_path / a) if a in inst.files else a for a in inst.argv]
            assert cli.main(argv) in (0, 1)
            capsys.readouterr()
            instances += 1
    assert instances == 140
    assert len(solved) >= 30 and max(solved) >= 20, (len(solved), max(solved))


# --- imperfect-information energy ------------------------------------------


def single_vertex_iarena(weight):
    return ImperfectArena(
        vertices=("v",),
        initial="v",
        actions=("go",),
        table={"v": {"go": [(weight, "v")]}},
        obs={"v": "o"},
    )


def test_energy_capped_trivial_win():
    status, strat = games.solve_imperfect_energy_capped(single_vertex_iarena(0), 0, 0)
    assert status == games.WIN
    assert strat.act[strat.initial] == "go"


def test_energy_capped_hopeless_loop():
    for c0 in (0, 3):
        status, strat = games.solve_imperfect_energy_capped(
            single_vertex_iarena(-1), c0, c0
        )
        assert status == games.NOT_WIN_AT_CAP
        assert strat is None


def test_energy_capped_hidden_coin():
    # Adam secretly moves to p or m inside one observation class; each
    # guess is safe on one branch and ruinous on the other, so a blind
    # Eve cannot avoid the risk at low credit.
    ia = edge_iarena(
        vertices=("s", "p", "m"),
        initial="s",
        actions=("go", "guess_p", "guess_m"),
        edges=[
            ("s", "go", 1, "p"),
            ("s", "go", -1, "m"),
            ("p", "guess_p", 1, "s"),
            ("p", "guess_m", -3, "s"),
            ("m", "guess_p", -3, "s"),
            ("m", "guess_m", 1, "s"),
        ],
        obs={"s": "start", "p": "hidden", "m": "hidden"},
    )
    status, _ = games.solve_imperfect_energy_capped(ia, 1, 2)
    assert status == games.NOT_WIN_AT_CAP
    # a sighted Eve would win from credit 1: observing p/m separates the
    # guesses, so each belief element keeps its safe action
    sighted = ImperfectArena(
        vertices=ia.vertices,
        initial=ia.initial,
        actions=ia.actions,
        table=ia.table,
        obs={"s": "start", "p": "saw_p", "m": "saw_m"},
    )
    status, _ = games.solve_imperfect_energy_capped(sighted, 1, 2)
    assert status == games.WIN


def test_energy_capped_monotone_in_cap():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randint(1, 3)
        names = ["v%d" % i for i in range(n)]
        actions = ("x", "y")
        edges = []
        for v in names:
            for a in actions:
                for _ in range(rng.randint(1, 2)):
                    edges.append((v, a, rng.randint(-2, 2), rng.choice(names)))
        obs = {v: rng.choice(("o1", "o2")) for v in names}
        ia = edge_iarena(
            vertices=tuple(names),
            initial=names[0],
            actions=actions,
            edges=edges,
            obs=obs,
        )
        c0 = rng.randint(0, 2)
        wins = []
        for cap in (c0, c0 + 2, c0 + 5):
            status, _ = games.solve_imperfect_energy_capped(ia, c0, cap)
            wins.append(status == games.WIN)
        assert wins == sorted(wins), "WIN must persist as the cap grows"


def old_solve_imperfect_energy_capped(iarena, c0, cap):
    """The solver as it was before floor beliefs: it explores every set
    belief of (vertex, credit) pairs and finds the losing beliefs by full
    sweeps until nothing changes."""
    if c0 < 0:
        raise ValueError("initial credit must be nonnegative")
    if cap < c0:
        raise ValueError("cap must be at least the initial credit")

    def updates(belief, action):
        """None when the action immediately loses, else obs -> belief."""
        per_obs = {}
        for v, c in belief:
            moves = iarena.table[v].get(action)
            if not moves:
                return None  # action not available from this belief
            for w, dst in moves:
                nc = c + w
                if nc < 0:
                    return None
                per_obs.setdefault(iarena.obs[dst], set()).add((dst, min(cap, nc)))
        return {o: frozenset(b) for o, b in per_obs.items()}

    initial = frozenset([(iarena.initial, min(c0, cap))])
    succ = {}
    order = []
    queue = [initial]
    seen = {initial}
    while queue:
        belief = queue.pop(0)
        order.append(belief)
        options = {}
        for action in iarena.actions:
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
        for belief in order:
            if belief in losing:
                continue
            safe_action = None
            for action, result in succ[belief].items():
                if all(nxt not in losing for nxt in result.values()):
                    safe_action = action
                    break
            if safe_action is None:
                losing.add(belief)
                changed = True

    if initial in losing:
        return games.NOT_WIN_AT_CAP, None

    act = {}
    step = {}
    reached = [initial]
    seen = {initial}
    while reached:
        belief = reached.pop(0)
        for action in iarena.actions:
            result = succ[belief].get(action)
            if result is None:
                continue
            if any(nxt in losing for nxt in result.values()):
                continue
            act[belief] = action
            for obs, nxt in result.items():
                step[(belief, obs)] = nxt
                if nxt not in seen:
                    seen.add(nxt)
                    reached.append(nxt)
            break
    return games.WIN, games.MemoryStrategy(initial=initial, act=act, step=step)


def full_floor_solve(iarena, c0, cap, limit=None):
    """The floor solver as it was before the on-the-fly search: it builds
    every reachable floor belief, trying every action at each, then finds
    the losing floors with a predecessor worklist and reads the strategy
    off the full beliefs, playing the first safe action of their floor.
    With a limit, it gives up (None) once more than `limit` floors or
    beliefs are reached."""
    if c0 < 0:
        raise ValueError("initial credit must be nonnegative")
    if cap < c0:
        raise ValueError("cap must be at least the initial credit")
    obs = iarena.obs

    def updates(belief, action):
        per_obs = {}
        for v, c in belief:
            for w, dst in iarena.table[v].get(action, ()):
                per_obs.setdefault(obs[dst], set()).add((dst, min(cap, c + w)))
        return {o: frozenset(b) for o, b in per_obs.items()}

    def floor_updates(floor, action):
        per_obs = {}
        for v, c in floor:
            moves = iarena.table[v].get(action)
            if not moves:
                return None
            for w, dst in moves:
                nc = c + w
                if nc < 0:
                    return None
                if nc > cap:
                    nc = cap
                low = per_obs.setdefault(obs[dst], {})
                if low.get(dst, nc) >= nc:
                    low[dst] = nc
        return [frozenset(low.items()) for low in per_obs.values()]

    def floor_of(belief):
        low = {}
        for v, c in belief:
            if low.get(v, c) >= c:
                low[v] = c
        return frozenset(low.items())

    initial = frozenset([(iarena.initial, min(c0, cap))])
    safe = {}
    preds = {initial: []}
    losing = deque()
    queue = deque([initial])
    while queue:
        if limit is not None and len(preds) > limit:
            return None
        floor = queue.popleft()
        actions = set()
        for action in iarena.actions:
            result = floor_updates(floor, action)
            if result is None:
                continue
            actions.add(action)
            for nxt in result:
                if nxt not in preds:
                    preds[nxt] = []
                    queue.append(nxt)
                preds[nxt].append((floor, action))
        safe[floor] = actions
        if not actions:
            losing.append(floor)

    while losing:
        floor = losing.popleft()
        for pred, action in preds[floor]:
            actions = safe[pred]
            if action in actions:
                actions.remove(action)
                if not actions:
                    losing.append(pred)

    if not safe[initial]:
        return games.NOT_WIN_AT_CAP, None

    act = {}
    step = {}
    reached = deque([initial])
    seen = {initial}
    while reached:
        if limit is not None and len(seen) > limit:
            return None
        belief = reached.popleft()
        actions = safe[floor_of(belief)]
        action = next(a for a in iarena.actions if a in actions)
        act[belief] = action
        for o, nxt in updates(belief, action).items():
            step[(belief, o)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                reached.append(nxt)
    return games.WIN, games.MemoryStrategy(initial=initial, act=act, step=step)


def assert_same_answer(answer, expected, context):
    """Equal statuses, and equal strategies as mappings.  Their insertion
    order follows the iteration order of frozenset beliefs, which CPython
    derives from how each set was built, and no caller reads it."""
    (status, strat), (old_status, old_strat) = answer, expected
    assert status == old_status, context
    if strat is None or old_strat is None:
        assert strat is old_strat is None
        return
    assert strat.initial == old_strat.initial
    assert strat.act == old_strat.act, context
    assert strat.step == old_strat.step, context


def random_iarena(rng):
    """Up to 4 vertices in up to 3 observation classes; each (vertex,
    action) pair is missing with probability 1/4 and otherwise has one or
    two moves of weight -3..3."""
    n = rng.randint(1, 4)
    names = ["v%d" % i for i in range(n)]
    actions = ("x", "y", "z")[: rng.randint(1, 3)]
    edges = []
    for v in names:
        for a in actions:
            if rng.random() < 0.25:
                continue
            for _ in range(rng.randint(1, 2)):
                edges.append((v, a, rng.randint(-3, 3), rng.choice(names)))
    classes = rng.randint(1, 3)
    return edge_iarena(
        vertices=tuple(names),
        initial=names[0],
        actions=actions,
        edges=edges,
        obs={v: "o%d" % rng.randrange(classes) for v in names},
    )


def test_energy_capped_matches_old_solver_on_random_arenas():
    rng = random.Random(505)
    seen = {"shared_obs": 0, "missing_action": 0, "negative": 0, "at_cap": 0,
            games.WIN: 0, games.NOT_WIN_AT_CAP: 0}
    caps = set()
    for trial in range(1200):
        ia = random_iarena(rng)
        c0 = rng.randint(0, 3)
        cap = c0 + rng.randint(0, 12 - c0) if trial % 3 else trial // 3 % 13
        c0 = min(c0, cap)
        answer = games.solve_imperfect_energy_capped(ia, c0, cap)
        for oracle in (old_solve_imperfect_energy_capped, full_floor_solve):
            assert_same_answer(answer, oracle(ia, c0, cap), (ia, c0, cap))
        status, strat = answer
        if strat is not None:
            credits = [c for belief in strat.act for _v, c in belief]
            seen["at_cap"] += cap > c0 and cap in credits
        seen[status] += 1
        caps.add(cap)
        seen["shared_obs"] += len(set(ia.obs.values())) < len(ia.vertices)
        seen["missing_action"] += any(not ia.table[v].get(a) for v in ia.vertices
                                      for a in ia.actions)
        seen["negative"] += any(w < 0 for _s, _a, w, _d in table_edges(ia.table))
    assert caps == set(range(13))
    assert min(seen.values()) >= 50, seen


def random_large_iarena(rng):
    """5 to 10 vertices, 2 or 3 actions and 1 to 4 observation classes;
    each (vertex, action) pair is missing with probability 0.15 and
    otherwise has one or two moves of weight -3..3."""
    n = rng.randint(5, 10)
    names = ["v%d" % i for i in range(n)]
    actions = ("x", "y", "z")[: rng.randint(2, 3)]
    edges = []
    for v in names:
        for a in actions:
            if rng.random() < 0.15:
                continue
            for _ in range(rng.randint(1, 2)):
                edges.append((v, a, rng.randint(-3, 3), rng.choice(names)))
    classes = rng.randint(1, 4)
    return edge_iarena(
        vertices=tuple(names),
        initial=names[0],
        actions=actions,
        edges=edges,
        obs={v: "o%d" % rng.randrange(classes) for v in names},
    )


def test_energy_capped_matches_full_floor_solve_on_larger_arenas():
    # A few of these arenas reach millions of floors or beliefs; the
    # oracle gives up on those past 1,000, which keeps the test fast.
    rng = random.Random(1616)
    seen = {games.WIN: 0, games.NOT_WIN_AT_CAP: 0, "too_big": 0}
    caps = set()
    sizes = set()
    for trial in range(200):
        ia = random_large_iarena(rng)
        cap = trial % 41
        c0 = rng.randint(0, min(cap, 6))
        expected = full_floor_solve(ia, c0, cap, limit=1000)
        if expected is None:
            seen["too_big"] += 1
            continue
        answer = games.solve_imperfect_energy_capped(ia, c0, cap)
        assert_same_answer(answer, expected, (ia, c0, cap))
        seen[answer[0]] += 1
        caps.add(cap)
        sizes.add((len(ia.vertices), len(set(ia.obs.values()))))
    assert min(seen[games.WIN], seen[games.NOT_WIN_AT_CAP]) >= 50, seen
    assert seen["too_big"] <= 40, seen
    assert 40 in caps and len(caps) >= 35, caps
    assert {n for n, _ in sizes} == set(range(5, 11)), sizes
    assert {k for _, k in sizes} == set(range(1, 5)), sizes


def test_energy_capped_matches_full_floor_solve_on_approx_games():
    # the games synth approx solves: built from random specs and reduced
    # to plain energy games, with the initial credit the reduction asks for
    rng = random.Random(2718)
    seen = {games.WIN: 0, games.NOT_WIN_AT_CAP: 0}
    for trial in range(300):
        measure = rng.choice([core.SUM, core.AVG])
        spec = random_spec(rng, max_states=8, max_w=3, measure=measure)
        cmp = rng.choice(["<=", "<"])
        # synth approx answers a strict bound of 0 without a game
        r = Fraction(rng.randint(cmp == "<", 4), rng.choice([1, 1, 2, 3]))
        iarena, credit = synthesis.build_approx_game(spec, cmp, r)
        try:
            reduced, c0 = prefix.reduce_prefix_energy_to_energy(iarena, credit)
        except ValueError:
            continue  # Adam cannot force a critical visit everywhere
        cap = max(c0, rng.randint(0, 24))
        answer = games.solve_imperfect_energy_capped(reduced, c0, cap)
        assert_same_answer(answer, full_floor_solve(reduced, c0, cap), core.emit_wfa(spec))
        seen[answer[0]] += 1
    assert min(seen.values()) >= 80, seen


def counting_moves(ia):
    """Wrap each of ia.rows; the returned list collects the (vertex, action)
    pair of every move list the solver looks up."""
    calls = []

    class Row(list):
        def __getitem__(self, i):
            calls.append((self.vertex, ia.actions[i]))
            return list.__getitem__(self, i)

    for v, row in ia.rows.items():
        ia.rows[v] = Row(row)
        ia.rows[v].vertex = v
    return calls


def test_energy_capped_leaves_later_actions_untried_after_a_win():
    # staying put on a 0-weight loop wins at once, so the search never
    # needs to look at the second action
    ia = edge_iarena(
        vertices=("v",),
        initial="v",
        actions=("stay", "jump"),
        edges=[("v", "stay", 0, "v"), ("v", "jump", -1, "v")],
        obs={"v": "o"},
    )
    calls = counting_moves(ia)
    status, strat = games.solve_imperfect_energy_capped(ia, 1, 3)
    assert status == games.WIN
    assert strat.act == {strat.initial: "stay"}
    assert calls and {a for _v, a in calls} == {"stay"}


def test_energy_capped_stops_once_the_initial_floor_loses():
    # Adam moves from s either into the safe chain w -> w2 or to the dead
    # end d.  The search takes an action's successor floors from the last
    # observation class to the first, so it meets d first; s then has no
    # action left, and the w chain is never expanded.
    ia = edge_iarena(
        vertices=("s", "w", "w2", "d"),
        initial="s",
        actions=("go",),
        edges=[
            ("s", "go", 0, "w"),
            ("s", "go", 0, "d"),
            ("w", "go", 0, "w2"),
            ("w2", "go", 0, "w2"),
        ],
        obs={"s": "S", "w": "W", "w2": "W2", "d": "D"},
    )
    calls = counting_moves(ia)
    assert games.solve_imperfect_energy_capped(ia, 0, 0) == (games.NOT_WIN_AT_CAP, None)
    assert {v for v, _a in calls} == {"s", "d"}


def test_energy_capped_skips_floors_no_live_edge_leads_to():
    # "risky" lets Adam move to a (class A) or to the dead end d (class D).
    # The search meets d first, so s moves on to "safe"; the floor at a,
    # still on the stack, is then reached by no live edge and is skipped.
    ia = edge_iarena(
        vertices=("s", "a", "d"),
        initial="s",
        actions=("risky", "safe"),
        edges=[
            ("s", "risky", 0, "a"),
            ("s", "risky", 0, "d"),
            ("s", "safe", 0, "s"),
            ("a", "risky", 0, "a"),
        ],
        obs={"s": "S", "a": "A", "d": "D"},
    )
    calls = counting_moves(ia)
    status, strat = games.solve_imperfect_energy_capped(ia, 0, 0)
    assert status == games.WIN
    assert strat.act == {strat.initial: "safe"}
    assert "a" not in {v for v, _a in calls}


def test_imperfect_arena_validation_errors():
    # observations are checked first, then the table's vertices and move
    # targets, then its actions, then that every vertex has an entry, then
    # the initial vertex, so input that was malformed before the
    # initial-vertex check reports the same error
    good = dict(vertices=("v", "w"), initial="v", actions=("go",),
                table={"v": {"go": [(0, "w")]}, "w": {}}, obs={"v": "o", "w": "o"})
    cases = [
        (dict(obs={"v": "o"}, table={"v": {"go": [(0, "z")]}}, initial="z"),
         "vertex 'w' has no observation"),
        (dict(table={"v": {"jump": [(0, "w")]}, "z": {"go": [(0, "w")]}, "w": {}}),
         "edge endpoints must be vertices"),
        (dict(table={"v": {"jump": [(0, "w")], "go": [(0, "z")]}, "w": {}}),
         "edge endpoints must be vertices"),
        (dict(table={"v": {"go": [(0, "w")]}, "w": {"jump": [(0, "v")]}}),
         "unknown action 'jump'"),
        (dict(table={"v": {"jump": [(0, "w")]}}, initial="z"), "unknown action 'jump'"),
        (dict(table={"v": {"go": [(0, "w")]}}, initial="z"), "vertex 'w' has no table entry"),
        (dict(initial="nowhere"), "unknown initial vertex 'nowhere'"),
    ]
    for change, message in cases:
        with pytest.raises(ValueError) as exc:
            ImperfectArena(**dict(good, **change))
        assert str(exc.value) == message
    # each vertex's move lists, indexed by action position
    ia = ImperfectArena(**dict(good, actions=("stay", "go")))
    assert ia.rows == {"v": [(), [(0, "w")]], "w": [(), ()]}


# --- arena text format ------------------------------------------------------


def test_arena_round_trip(remark_arena_text):
    arena = games.parse_arena(remark_arena_text)
    assert arena.critical == frozenset({"v1"})
    assert games.parse_arena(games.emit_arena(arena)) == arena


def test_arena_weights_of_any_length():
    digits = "9" * 5000  # more than int() and str() take on Python 3.11+
    text = "arena\nvertex: v eve critical\ninitial: v\nedge: v - -%s v\nedge: v a %s v\n" % (
        digits, digits)
    arena = games.parse_arena(text)
    assert [w for _src, _a, w, _dst in arena.edges] == [-(10**5000 - 1), 10**5000 - 1]
    assert games.emit_arena(arena) == text
    dot = games.arena_to_dot(arena)
    assert '[label="-%s"]' % digits in dot and '[label="a|%s"]' % digits in dot


def test_arena_parse_errors():
    with pytest.raises(games.FormatError):
        games.parse_arena("nope\n")
    with pytest.raises(games.FormatError, match="line 3"):
        games.parse_arena("arena\nvertex: a adam\nedge: a - b\ninitial: a\n")
    with pytest.raises(games.FormatError):
        games.parse_arena("arena\nvertex: a adam\n")  # missing initial


def test_arena_dot_contains_vertices(remark_arena_text):
    arena = games.parse_arena(remark_arena_text)
    dot = games.arena_to_dot(arena)
    assert '"v0"' in dot and '"v1"' in dot and "peripheries=2" in dot
