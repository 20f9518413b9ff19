import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wsynth import cli, dsumpath
from wsynth.dsumpath import (
    NO,
    YES,
    NondetDsumAutomaton,
    WeightedGraph,
    dsum_nonempty_geq,
    exists_path_leq,
    exists_path_lt,
    relative_gap,
)

from conftest import FIXTURES


def remark_graph():
    return WeightedGraph(
        vertices=("v0", "v1"),
        edges=[("v0", 1, "v0"), ("v0", 3, "v1"), ("v1", 0, "v1")],
        source="v0",
        targets=frozenset(["v1"]),
        discount=Fraction(1, 2),
    )



@pytest.mark.parametrize("change, message", [
    ({"source": "x"}, "unknown source vertex"),
    ({"edges": [("v0", 1, "x")]}, "edge endpoints must be vertices"),
    ({"edges": [("v0", 1, "v1"), ("x", 1, "v1")]}, "edge endpoints must be vertices"),
    ({"discount": Fraction(0)}, "strictly between 0 and 1"),
    ({"discount": 1}, "strictly between 0 and 1"),
    ({"discount": Fraction(-1, 2)}, "strictly between 0 and 1"),
    ({"discount": Fraction(3, 2)}, "strictly between 0 and 1"),
])
def test_weighted_graph_rejects_bad_parts(change, message):
    parts = dict(vertices=("v0", "v1"), edges=[], source="v0", targets=frozenset(["v1"]),
                 discount=Fraction(1, 2))
    with pytest.raises(ValueError, match=message):
        WeightedGraph(**dict(parts, **change))


def test_weighted_graph_takes_any_rational_discount():
    graph = WeightedGraph(vertices=("v0",), edges=[("v0", 0, "v0")], source="v0",
                          targets=frozenset(), discount="2/3")
    assert graph.discount == Fraction(2, 3) and type(graph.discount) is Fraction

def dsum(weights, lam):
    return sum(lam**i * w for i, w in enumerate(weights, start=1))


def random_graph(rng, max_v=6, max_w=3):
    n = rng.randint(1, max_v)
    names = ["g%d" % i for i in range(n)]
    edges = []
    for v in names:
        for _ in range(rng.randint(0, 2)):
            edges.append((v, rng.randint(-max_w, max_w), rng.choice(names)))
    targets = frozenset(v for v in names if rng.random() < 0.4)
    lam = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
    return WeightedGraph(
        vertices=tuple(names),
        edges=edges,
        source=names[0],
        targets=targets,
        discount=lam,
    )


def brute_force_paths(graph, max_len):
    """All (edge-index path, value) from the source, up to max_len edges."""
    out = {v: [] for v in graph.vertices}
    for i, (src, _w, dst) in enumerate(graph.edges):
        out[src].append(i)
    results = []
    stack = [(graph.source, [], Fraction(0), Fraction(1))]
    while stack:
        v, path, value, power = stack.pop()
        if v in graph.targets:
            results.append((list(path), value))
        if len(path) == max_len:
            continue
        for i in out[v]:
            _s, w, dst = graph.edges[i]
            stack.append((dst, path + [i], value + power * graph.discount * w,
                          power * graph.discount))
    return results


# --- relative gap algebra ----------------------------------------------------


def test_relative_gap_empty_path():
    assert relative_gap(0, 0, Fraction(1), Fraction(1, 2)) == 1


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)])
def test_relative_gap_rejects_a_discount_outside_the_unit_interval(lam):
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        relative_gap(0, 1, Fraction(1), lam)


def test_relative_gap_remark_prefix():
    lam = Fraction(1, 2)
    value = dsum([3], lam)
    assert value == Fraction(3, 2)
    rg = relative_gap(value, 1, Fraction(1), lam)
    assert rg == -1
    assert (value > 1) == (rg < 0)  # property (A) on this prefix


@settings(max_examples=200)
@given(
    st.lists(st.integers(-5, 5), min_size=0, max_size=6),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]),
    st.integers(-3, 3),
)
def test_property_A_strict_iff_negative_gap(weights, lam, nu_int):
    nu = Fraction(nu_int)
    value = dsum(weights, lam)
    rg = relative_gap(value, len(weights), nu, lam)
    assert (value > nu) == (rg < 0)
    assert (value == nu) == (rg == 0)


@settings(max_examples=200)
@given(
    st.lists(st.integers(-5, 5), min_size=0, max_size=5),
    st.integers(-5, 5),
    st.sampled_from([Fraction(1, 2), Fraction(2, 5)]),
    st.integers(-3, 3),
)
def test_property_B_one_step_update(prefix, j, lam, nu_int):
    nu = Fraction(nu_int)
    rg_prefix = relative_gap(dsum(prefix, lam), len(prefix), nu, lam)
    extended = prefix + [j]
    rg_ext = relative_gap(dsum(extended, lam), len(extended), nu, lam)
    assert rg_ext == rg_prefix / lam - j


@settings(max_examples=200)
@given(
    st.lists(st.integers(-5, 5), min_size=0, max_size=4),
    st.lists(st.integers(-5, 5), min_size=0, max_size=4),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3)]),
    st.integers(-3, 3),
)
def test_property_C_composition(part1, part2, lam, nu_int):
    nu = Fraction(nu_int)
    rg1 = relative_gap(dsum(part1, lam), len(part1), nu, lam)
    rg12 = relative_gap(dsum(part1 + part2, lam), len(part1 + part2), nu, lam)
    assert rg12 == (rg1 - dsum(part2, lam)) / lam ** len(part2)


@settings(max_examples=200)
@given(
    st.lists(st.integers(-4, 4), min_size=0, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), min_size=0, max_size=3),
    st.sampled_from([Fraction(1, 2), Fraction(2, 5)]),
    st.integers(-2, 2),
)
def test_property_D_loop_monotonicity(p1, p2, p3, lam, nu_int):
    nu = Fraction(nu_int)

    def rg(ws):
        return relative_gap(dsum(ws, lam), len(ws), nu, lam)

    if rg(p1) >= rg(p1 + p2):
        assert rg(p1 + p3) >= rg(p1 + p2 + p3)


# --- mrg tables ---------------------------------------------------------------


def test_mrg_monotone_rows():
    rng = random.Random(17)
    for _ in range(40):
        graph = random_graph(rng)
        table, _v, _e = dsumpath.compute_mrg(graph, Fraction(1))
        if table is None:
            continue
        for i in range(table.rounds):
            for v, val in table.rows[i].items():
                assert table.rows[i + 1][v] >= val


def test_remark_graph_leq_cases():
    graph = remark_graph()
    answer, _ = exists_path_leq(graph, Fraction(1))
    assert answer == NO  # path values are 1 + 2^-(k+1), all strictly above 1
    answer, witness = exists_path_leq(graph, Fraction(3, 2))
    assert answer == YES
    assert witness.value <= Fraction(3, 2)
    assert witness.vertices[-1] == "v1"


def test_remark_graph_lt_cases():
    graph = remark_graph()
    answer, _ = exists_path_lt(graph, Fraction(1))
    assert answer == NO  # 1 is the infimum, never attained
    # one loop before exiting already gives 5/4 < 3/2
    answer, witness = exists_path_lt(graph, Fraction(3, 2))
    assert answer == YES
    assert witness.value < Fraction(3, 2)
    answer, witness = exists_path_lt(graph, Fraction(2))
    assert answer == YES
    assert witness.value < 2


def test_single_zero_edge_boundary():
    graph = WeightedGraph(
        vertices=("s", "t"),
        edges=[("s", 0, "t")],
        source="s",
        targets=frozenset(["t"]),
        discount=Fraction(1, 2),
    )
    assert exists_path_lt(graph, Fraction(0))[0] == NO
    answer, witness = exists_path_leq(graph, Fraction(0))
    assert answer == YES and witness.value == 0


def test_pumped_witness_positive_loop():
    # the loop at p keeps raising the relative gap (weight -1 pumps value
    # down), and a heavy exit edge needs many pumps before the budget fits
    graph = WeightedGraph(
        vertices=("p", "t"),
        edges=[("p", -1, "p"), ("p", 40, "t")],
        source="p",
        targets=frozenset(["t"]),
        discount=Fraction(1, 2),
    )
    answer, witness = exists_path_leq(graph, Fraction(0))
    assert answer == YES
    assert witness.value <= 0
    assert len(witness.edges) > 2  # pumping was actually needed
    answer, witness = exists_path_lt(graph, Fraction(0))
    assert answer == YES
    assert witness.value < 0


def test_empty_pruned_graph():
    graph = WeightedGraph(
        vertices=("a", "b"),
        edges=[],
        source="a",
        targets=frozenset(["b"]),
        discount=Fraction(1, 2),
    )
    assert exists_path_leq(graph, Fraction(100))[0] == NO
    assert exists_path_lt(graph, Fraction(100))[0] == NO


def test_source_is_target_empty_path():
    graph = WeightedGraph(
        vertices=("a",),
        edges=[],
        source="a",
        targets=frozenset(["a"]),
        discount=Fraction(1, 2),
    )
    answer, witness = exists_path_leq(graph, Fraction(0))
    assert answer == YES and witness.value == 0 and witness.edges == []
    assert exists_path_lt(graph, Fraction(0))[0] == NO
    assert exists_path_lt(graph, Fraction(1))[0] == YES


def check_against_brute_force(graph, nu, strict, max_len):
    checker = exists_path_lt if strict else exists_path_leq
    answer, witness = checker(graph, nu)
    found = [
        (path, value)
        for path, value in brute_force_paths(graph, max_len)
        if (value < nu if strict else value <= nu)
    ]
    if answer == YES:
        assert witness.value < nu if strict else witness.value <= nu
        assert witness.vertices[-1] in graph.targets
        recomputed = dsumpath.dsum_of_edges(graph, witness.edges)
        assert recomputed == witness.value
    if found:
        assert answer == YES, (graph, nu, strict)


def test_oracle_equivalence_random_graphs():
    rng = random.Random(99)
    for trial in range(150):
        graph = random_graph(rng)
        nu = Fraction(rng.randint(-2, 2))
        max_len = 3 * len(graph.vertices)
        check_against_brute_force(graph, nu, False, max_len)
        check_against_brute_force(graph, nu, True, max_len)


# --- nondeterministic dsum automata -------------------------------------------


def test_nonempty_trivial_accepting_initial():
    auto = NondetDsumAutomaton(
        states=("q",),
        initial="q",
        finals=frozenset(["q"]),
        transitions=[],
        discount=Fraction(1, 2),
    )
    answer, witness = dsum_nonempty_geq(auto, Fraction(0))
    assert answer == YES and witness[0] == ()
    assert dsum_nonempty_geq(auto, Fraction(1, 10))[0] == NO


def test_nonempty_single_transition():
    auto = NondetDsumAutomaton(
        states=("q", "f"),
        initial="q",
        finals=frozenset(["f"]),
        transitions=[("q", "x", 1, "f")],
        discount=Fraction(1, 2),
    )
    answer, witness = dsum_nonempty_geq(auto, Fraction(1, 2))
    assert answer == YES
    assert witness[0] == ("x",) and witness[2] == Fraction(1, 2)


def test_nonempty_matches_brute_force():
    rng = random.Random(4)
    for trial in range(60):
        n = rng.randint(1, 4)
        states = ["s%d" % i for i in range(n)]
        transitions = []
        for s in states:
            for _ in range(rng.randint(0, 2)):
                transitions.append(
                    (s, rng.choice("xy"), rng.randint(-2, 2), rng.choice(states))
                )
        finals = frozenset(s for s in states if rng.random() < 0.5)
        lam = Fraction(1, 2)
        auto = NondetDsumAutomaton(
            states=tuple(states),
            initial=states[0],
            finals=finals,
            transitions=transitions,
            discount=lam,
        )
        nu = Fraction(rng.randint(-2, 2))
        answer, witness = dsum_nonempty_geq(auto, nu)

        # brute force over runs up to length 10
        best = None
        stack = [(states[0], Fraction(0), Fraction(1), 0)]
        while stack:
            s, value, power, depth = stack.pop()
            if s in finals and (best is None or value > best):
                best = value
            if depth == 10:
                continue
            for src, _sym, w, dst in transitions:
                if src == s:
                    stack.append((dst, value + power * lam * w, power * lam, depth + 1))
        if best is not None and best >= nu:
            assert answer == YES
        if answer == YES:
            assert witness[2] >= nu


# --- the Fraction kernel as an oracle for the integer-scaled one ---------------
#
# old_* below are the Fraction-valued maximal-relative-gap procedures the
# integer kernel replaced: one full relaxation of every edge per round, a
# ("stay",) parent for every vertex and round, and a fixpoint read off
# whole-row equality.  They are kept verbatim as the reference for answers,
# witnesses and table rows.


def old_dsum_of_edges(graph, edge_indices):
    lam = graph.discount
    acc = Fraction(0)
    power = Fraction(1)
    for i in edge_indices:
        power *= lam
        acc += power * graph.edges[i][1]
    return acc


def old_prune_to_targets(graph):
    can = set(graph.targets) & set(graph.vertices)
    changed = True
    while changed:
        changed = False
        for src, _w, dst in graph.edges:
            if dst in can and src not in can:
                can.add(src)
                changed = True
    edges = [
        (i, src, w, dst)
        for i, (src, w, dst) in enumerate(graph.edges)
        if src in can and dst in can
    ]
    vertices = [v for v in graph.vertices if v in can]
    return vertices, edges


def old_compute_mrg(graph, nu):
    """Returns (rounds, rows, parent) or None, plus the pruned graph."""
    vertices, edges = old_prune_to_targets(graph)
    if graph.source not in set(vertices):
        return None, vertices, edges
    lam = graph.discount
    nu = Fraction(nu)
    rows = [{graph.source: nu}]
    parent = {(0, graph.source): ("stay",)}
    n = len(vertices)
    for i in range(1, n + 1):
        prev = rows[-1]
        row = dict(prev)
        for key in row:
            parent.setdefault((i, key), ("stay",))
        for idx, src, w, dst in edges:
            if src not in prev:
                continue
            cand = prev[src] / lam - w
            if dst not in row or cand > row[dst]:
                row[dst] = cand
                parent[(i, dst)] = ("edge", idx, src)
        rows.append(row)
    return (n, rows, parent), vertices, edges


def old_backtrack(graph, table, round_i, vertex):
    _n, _rows, parent = table
    path_edges = []
    i, v = round_i, vertex
    while True:
        entry = parent[(i, v)]
        if entry[0] == "stay":
            if i == 0:
                break
            i -= 1
            continue
        _tag, edge_idx, pred = entry
        path_edges.append(edge_idx)
        i -= 1
        v = pred
    path_edges.reverse()
    vertices = [graph.source]
    for idx in path_edges:
        vertices.append(graph.edges[idx][2])
    return vertices, path_edges


def old_witness(graph, edge_indices):
    vertices = [graph.source]
    for idx in edge_indices:
        vertices.append(graph.edges[idx][2])
    return dsumpath.PathWitness(
        vertices=vertices, edges=list(edge_indices),
        value=old_dsum_of_edges(graph, edge_indices),
    )


def old_pumped_witness(graph, table, nu, strict, edges):
    lam = graph.discount
    n, rows, _parent = table
    rising = [v for v in rows[n] if v not in rows[n - 1] or rows[n][v] > rows[n - 1][v]]
    v_star = sorted(rising, key=repr)[0]
    vertices, path_edges = old_backtrack(graph, table, n, v_star)
    assert len(path_edges) == n
    first_seen = {}
    split = None
    for pos, v in enumerate(vertices):
        if v in first_seen:
            split = (first_seen[v], pos)
            break
        first_seen[v] = pos
    j, k = split
    stem = path_edges[:j]
    loop = path_edges[j:k]
    head = vertices[j]
    rg_stem = relative_gap(old_dsum_of_edges(graph, stem), len(stem), nu, lam)
    rg_loop = relative_gap(old_dsum_of_edges(graph, stem + loop), len(stem) + len(loop), nu, lam)
    z = rg_loop - rg_stem
    assert z > 0
    tail = {head: []}
    queue = [head]
    goal = None
    while queue:
        u = queue.pop(0)
        if u in graph.targets:
            goal = u
            break
        for idx, src, w, dst in edges:
            if src == u and dst not in tail:
                tail[dst] = tail[u] + [idx]
                queue.append(dst)
    tail_edges = tail[goal]
    tail_value = old_dsum_of_edges(graph, tail_edges)
    need = (tail_value - rg_stem) / z
    pumps = max(1, -(-need.numerator // need.denominator))
    if strict:
        while pumps * z + rg_stem <= tail_value:
            pumps += 1
    return old_witness(graph, stem + loop * pumps + tail_edges)


def old_exists_path(graph, nu, strict):
    """(answer, witness, pumped) with the Fraction kernel.

    A hit's witness is the backtrack, at the first round of the full table
    in which some target meets the threshold, to the first such target by
    repr.  With no hit, pumping works on round n as before.
    """
    nu = Fraction(nu)
    table, _vertices, edges = old_compute_mrg(graph, nu)
    if table is None:
        return NO, None, False
    n, rows, _parent = table
    for i, row in enumerate(rows):
        hits = [v for v in graph.targets if v in row and (row[v] > 0 if strict else row[v] >= 0)]
        if hits:
            _vs, path_edges = old_backtrack(graph, table, i, sorted(hits, key=repr)[0])
            return YES, old_witness(graph, path_edges), False
    if rows[n] != rows[n - 1]:
        return YES, old_pumped_witness(graph, table, nu, strict, edges), True
    return NO, None, False


ORACLE_LAMBDAS = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 7), Fraction(9, 10)]


def oracle_instance(rng):
    """Small random graph with self-loops, ties and sparse reachability."""
    n = rng.randint(1, 7)
    names = ["g%d" % i for i in range(n)]
    edges = []
    for v in names:
        for _ in range(rng.randint(0, 3)):
            dst = v if rng.random() < 0.2 else rng.choice(names)
            edges.append((v, rng.randint(-4, 4), dst))
    targets = {v for v in names if rng.random() < 0.3}
    if rng.random() < 0.15:
        targets.add(names[0])
    graph = WeightedGraph(
        vertices=tuple(names),
        edges=edges,
        source=names[0],
        targets=frozenset(targets),
        discount=rng.choice(ORACLE_LAMBDAS),
    )
    return graph, Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def pumping_instance(rng):
    """Negative self-loops and heavy edges into the targets: rounds rarely settle."""
    n = rng.randint(2, 7)
    names = ["g%d" % i for i in range(n)]
    targets = frozenset(v for v in names[1:] if rng.random() < 0.3)
    edges = []
    for v in names:
        for _ in range(rng.randint(1, 3)):
            dst = rng.choice(names)
            if dst == v:
                w = rng.randint(-3, -1)
            elif dst in targets:
                w = rng.randint(4, 12)
            else:
                w = rng.randint(-2, 3)
            edges.append((v, w, dst))
    graph = WeightedGraph(
        vertices=tuple(names),
        edges=edges,
        source=names[0],
        targets=targets,
        discount=rng.choice(ORACLE_LAMBDAS),
    )
    return graph, Fraction(rng.randint(-6, 2), rng.randint(1, 5))


def named_pruned(graph, vertices, out):
    """compute_mrg's pruned graph on names, as old_prune_to_targets gives it:
    (vertices, [(edge index, src, w, dst)] in edge order)."""
    names = graph.names
    return ([names[v] for v in vertices],
            sorted((i, names[u], w, names[dst]) for u in vertices for i, w, dst in out[u]))


def compare_with_fraction_kernel(graph, nu, seen):
    table, vertices, out = dsumpath.compute_mrg(graph, nu)
    old_table, old_vertices, old_edges = old_compute_mrg(graph, nu)
    assert named_pruned(graph, vertices, out) == (old_vertices, old_edges)
    assert (table is None) == (old_table is None)
    if table is not None:
        assert table.rounds == old_table[0]
        assert table.rows == old_table[1]
    for strict in (False, True):
        checker = exists_path_lt if strict else exists_path_leq
        answer, witness = checker(graph, nu)
        old_answer, old_wit, pumped = old_exists_path(graph, nu, strict)
        assert answer == old_answer, (graph, nu, strict)
        if answer == YES:
            assert (witness.edges, witness.vertices) == (old_wit.edges, old_wit.vertices)
            assert witness.value == old_wit.value
        seen["pumped"] += pumped
        seen[answer] += 1
    seen["self_loop"] += any(src == dst for src, _w, dst in graph.edges)
    seen["source_target"] += graph.source in graph.targets
    seen["unreachable"] += table is None


def test_integer_kernel_matches_fraction_kernel():
    rng = random.Random(2024)
    seen = dict.fromkeys(
        ["self_loop", "source_target", "unreachable", "pumped", "yes", "no"], 0
    )
    for _ in range(1200):
        graph, nu = oracle_instance(rng)
        compare_with_fraction_kernel(graph, nu, seen)
    assert min(seen.values()) >= 20, seen


def test_integer_kernel_matches_fraction_kernel_when_pumping():
    rng = random.Random(7)
    seen = dict.fromkeys(
        ["self_loop", "source_target", "unreachable", "pumped", "yes", "no"], 0
    )
    for _ in range(400):
        graph, nu = pumping_instance(rng)
        compare_with_fraction_kernel(graph, nu, seen)
    assert seen["pumped"] >= 100, seen


def test_hit_witnesses_are_shortest():
    # a witness read off a hit has the fewest edges of any path meeting
    # the threshold: brute force finds no shorter one
    seen = {"checked": 0, "longer_than_one": 0}
    for seed, make, count in ((11, oracle_instance, 3000), (12, pumping_instance, 1000)):
        rng = random.Random(seed)
        for _ in range(count):
            graph, nu = make(rng)
            for strict in (False, True):
                checker = exists_path_lt if strict else exists_path_leq
                answer, witness = checker(graph, nu)
                if answer == NO or not witness.edges or old_exists_path(graph, nu, strict)[2]:
                    continue  # no path, the empty path, or a pumped witness
                shorter = [
                    path for path, value in brute_force_paths(graph, len(witness.edges) - 1)
                    if (value < nu if strict else value <= nu)
                ]
                assert shorter == [], (graph, nu, strict, witness)
                seen["checked"] += 1
                seen["longer_than_one"] += len(witness.edges) > 1
    assert seen["checked"] >= 1000 and seen["longer_than_one"] >= 200, seen


@pytest.mark.parametrize("strict, nu", [(False, Fraction(0)), (False, Fraction(2, 3)),
                                        (True, Fraction(1, 5))])
def test_round_zero_hit_stops_at_round_zero(strict, nu):
    graph = WeightedGraph(
        vertices=("s", "a", "t"),
        edges=[("s", -1, "a"), ("a", -1, "t"), ("t", -2, "s")],
        source="s",
        targets=frozenset(["s", "t"]),
        discount=Fraction(1, 2),
    )
    table, _v, _e = dsumpath.compute_mrg(graph, nu, strict)
    assert (table.rounds, len(table.raised)) == (3, 1)
    checker = exists_path_lt if strict else exists_path_leq
    answer, witness = checker(graph, nu)
    assert (answer, witness.vertices, witness.edges, witness.value) == (YES, ["s"], [], 0)


def test_strict_check_does_not_stop_at_a_zero_gap():
    graph = WeightedGraph(
        vertices=("s", "t"),
        edges=[("s", -1, "t")],
        source="s",
        targets=frozenset(["s", "t"]),
        discount=Fraction(1, 2),
    )
    table, _v, _e = dsumpath.compute_mrg(graph, Fraction(0), True)
    assert len(table.raised) == 2
    answer, witness = exists_path_lt(graph, Fraction(0))
    assert (answer, witness.vertices, witness.value) == (YES, ["s", "t"], Fraction(-1, 2))


def test_table_stopped_without_a_hit_cannot_answer():
    # a table stopped at a >= 0 hit has no > 0 hit and lacks rounds after
    # the stop, so neither NO nor pumping may be read off it
    graph = WeightedGraph(
        vertices=("s", "t"),
        edges=[("s", 0, "t")],
        source="s",
        targets=frozenset(["t"]),
        discount=Fraction(1, 2),
    )
    table, _v, out = dsumpath.compute_mrg(graph, Fraction(0), False)
    assert (table.rounds, len(table.raised)) == (2, 2)
    with pytest.raises(dsumpath.InternalError, match="all n rounds"):
        dsumpath._pumped_witness(graph, table, Fraction(0), True, out)


def test_round_bound_counts_vertices_that_reach_a_target(monkeypatch):
    # n is the number of vertices that reach a target, so pruning x sets
    # n = 2: no round up to 2 hits, s still rises in round 2, and the
    # answer is pumped.  On the unpruned graph n = 3 and round 3 hits with
    # a shorter path, so a hit found before pruning is final only if its
    # path is simple.
    graph = WeightedGraph(
        vertices=("s", "t", "x"),
        edges=[("s", -100, "s"), ("s", 0, "t"), ("s", 0, "x")],
        source="s",
        targets=frozenset(["t"]),
        discount=Fraction(1, 2),
    )
    nu = Fraction(-75)
    answer, witness = exists_path_leq(graph, nu)
    assert (answer, witness.vertices, witness.value) == (
        YES, ["s", "s", "s", "s", "t"], Fraction(-175, 2))
    monkeypatch.setattr(dsumpath, "_prune_to_targets", lambda graph: (list(graph.out), graph.out))
    answer, witness = exists_path_leq(graph, nu)
    assert (answer, witness.vertices, witness.value) == (YES, ["s", "s", "s", "t"], nu)


def test_dsum_of_edges_matches_fraction_sum():
    rng = random.Random(5)
    for _ in range(300):
        graph, _nu = oracle_instance(rng)
        if not graph.edges:
            continue
        path = [rng.randrange(len(graph.edges)) for _ in range(rng.randint(0, 30))]
        assert dsumpath.dsum_of_edges(graph, path) == old_dsum_of_edges(graph, path)


def test_mrg_rows_stay_after_fixpoint():
    # a round that raises nothing leaves every later round unchanged
    graph = WeightedGraph(
        vertices=("s", "a", "t"),
        edges=[("s", 1, "a"), ("a", 1, "t")],
        source="s",
        targets=frozenset(["t"]),
        discount=Fraction(3, 4),
    )
    table, _v, _e = dsumpath.compute_mrg(graph, Fraction(-1, 3))
    assert table.raised[table.rounds] == {}
    assert table.rows[2] == table.rows[3]
    assert table.rows[3] == {"s": Fraction(-1, 3), "a": Fraction(-13, 9),
                             "t": Fraction(-79, 27)}


# --- the prune-first kernel as an oracle for one relaxation --------------------
#
# prune_first_* below are compute_mrg and _exists_path as they were before
# the relaxation ran on the graph as given: prune to the vertices that reach
# a target, then relax.  They are the reference for answers, witnesses and
# the strict=None tables.


def prune_first_compute_mrg(graph, nu, strict=None):
    vertices, pruned = dsumpath._prune_to_targets(graph)
    if graph.start not in pruned:
        return None, vertices, pruned
    p, q = graph.discount.numerator, graph.discount.denominator
    nu = Fraction(nu)
    b = nu.denominator
    n = len(vertices)
    out = {u: [(idx, w * b, dst) for idx, w, dst in outs] for u, outs in pruned.items()}
    powers = [1]
    raised = [{graph.start: (nu.numerator, None, None)}]
    latest = {graph.start: (nu.numerator, 0)}
    for i in range(1, n + 1):
        if strict is not None and dsumpath._hits(graph, raised[-1], strict):
            break
        if not raised[-1]:
            raised.extend({} for _ in range(n + 1 - i))
            break
        power = powers[-1] * p
        powers.append(power)
        best = {}
        for u, step in raised[-1].items():
            qr = q * step[0]
            for idx, wb, dst in out.get(u, ()):
                cand = qr - wb * power
                cur = best.get(dst)
                if cur is None:
                    kept = latest.get(dst)
                    if kept is not None and cand <= kept[0] * powers[i - kept[1]]:
                        continue
                elif cand < cur[0] or (cand == cur[0] and idx > cur[1]):
                    continue
                best[dst] = (cand, idx, u)
        for v, step in best.items():
            latest[v] = (step[0], i)
        raised.append(best)
    table = dsumpath.MrgTable(rounds=n, raised=raised, nu_den=b, lam_num=p)
    return table, vertices, pruned


def prune_first_exists_path(graph, nu, strict):
    nu = Fraction(nu)
    table, _vertices, out = prune_first_compute_mrg(graph, nu, strict)
    if table is None:
        return NO, None
    last = len(table.raised) - 1
    hits = dsumpath._hits(graph, table.raised[last], strict)
    if hits:
        first = min(hits, key=lambda v: repr(graph.names[v]))
        _vs, path_edges = dsumpath._backtrack(graph, table.raised, last, first)
        witness = dsumpath._witness(graph, path_edges)
    else:
        witness = dsumpath._pumped_witness(graph, table, nu, strict, out)
        if witness is None:
            return NO, None
    return YES, witness


def route_instance(rng):
    """A core around the source plus dead branches and far edges.

    Dead vertices reach no target, and some sit on loops of negative
    weight, whose relative gap rises every round.  Far edges leave
    vertices the source never reaches: they add to |E| but are never
    visited, so the relaxation can run past n rounds before its edge
    budget runs out.  Some sources carry a heavy loop that has to be
    pumped a few times before the exit to c1 meets nu.
    """
    core = ["c%d" % i for i in range(rng.randint(1, 4))]
    dead = ["d%d" % i for i in range(rng.randint(0, 3))]
    far = ["f%d" % i for i in range(rng.randint(0, 3))]
    targets = {v for v in core[1:] if rng.random() < 0.5}
    if not targets or rng.random() < 0.1:
        targets.add(core[0])
    lam = rng.choice(ORACLE_LAMBDAS)
    nu = Fraction(rng.randint(-8, 4), rng.randint(1, 4))
    edges = []
    if len(core) > 1 and rng.random() < 0.4:
        loop, exit_weight, pumps = -rng.randint(5, 60), rng.randint(0, 3), rng.randint(2, 3)
        edges += [("c0", loop, "c0"), ("c0", exit_weight, "c1")]
        targets.add("c1")
        nu = dsum([loop] * pumps + [exit_weight], lam)
    for v in core:
        for _ in range(rng.randint(1, 3)):
            dst = rng.choice(core + dead)
            edges.append((v, rng.randint(-4, -1) if dst == v else rng.randint(-3, 6), dst))
    for v in dead:
        for _ in range(rng.randint(0, 2)):
            dst = rng.choice(dead)
            edges.append((v, rng.randint(-4, -1) if dst == v else rng.randint(-3, 3), dst))
    for v in far:
        for _ in range(rng.randint(1, 6)):
            edges.append((v, rng.randint(-3, 3), rng.choice(far + core[:rng.randint(0, 1)])))
    rng.shuffle(edges)
    graph = WeightedGraph(
        vertices=tuple(core + dead + far),
        edges=edges,
        source=core[0],
        targets=frozenset(targets),
        discount=lam,
    )
    return graph, nu


def test_one_relaxation_matches_prune_first(monkeypatch):
    events = []
    prune, pump = dsumpath._prune_to_targets, dsumpath._pumped_witness

    def prune_spy(graph):
        # why compute_mrg prunes: a hit it cannot call final, or no hit in budget
        caller = sys._getframe(1)
        if caller.f_code is dsumpath.compute_mrg.__code__:
            state = caller.f_locals
            events.append("hit" if state["hits"] else "budget" if state["budget"] <= 0 else "")
        return prune(graph)

    def pump_spy(*args):
        events.append("pumped")
        return pump(*args)

    monkeypatch.setattr(dsumpath, "_prune_to_targets", prune_spy)
    monkeypatch.setattr(dsumpath, "_pumped_witness", pump_spy)
    routes = {("hit",): "pruned_hit_stands", ("hit", "pumped"): "hit_past_n_pumped"}
    seen = dict.fromkeys(["final_unpruned_hit", "pruned_hit_stands", "hit_past_n_pumped",
                          "budget_prune", "no", "no_target"], 0)
    rng = random.Random(31)
    for _ in range(1500):
        graph, nu = route_instance(rng)
        table, vertices, out = dsumpath.compute_mrg(graph, nu)
        old_table, old_vertices, old_out = prune_first_compute_mrg(graph, nu)
        assert (vertices, out) == (old_vertices, old_out)
        assert (table is None) == (old_table is None)
        if table is not None:
            assert (table.rounds, table.raised, table.hit) == (
                old_table.rounds, old_table.raised, None)
        for strict in (False, True):
            del events[:]
            checker = exists_path_lt if strict else exists_path_leq
            answer, witness = checker(graph, nu)
            route = tuple(events)
            old_answer, old_witness = prune_first_exists_path(graph, nu, strict)
            assert answer == old_answer, (graph, nu, strict)
            if answer == YES:
                assert (witness.vertices, witness.edges, witness.value) == (
                    old_witness.vertices, old_witness.edges, old_witness.value)
            if not route:
                seen["final_unpruned_hit"] += 1
            elif route in routes:
                seen[routes[route]] += 1
            seen["budget_prune"] += route[:1] == ("budget",)
            seen["no"] += answer == NO
            seen["no_target"] += table is None
    assert min(seen.values()) >= 50, seen


# --- verdict-only checks against the full check --------------------------------

VERDICT_LAMBDAS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)]


def verdict_instance(rng):
    """A graph of oracle_instance, pumping_instance or route_instance, with
    lambda and nu drawn again: nu has denominator 1 to 3."""
    make = rng.choice([oracle_instance, pumping_instance, route_instance])
    graph, _nu = make(rng)
    graph = dataclasses.replace(graph, discount=rng.choice(VERDICT_LAMBDAS))
    return graph, Fraction(rng.randint(-8, 4), rng.randint(1, 3))


def test_verdict_only_matches_the_full_check():
    # the full check is the reference: the same answer, and a YES without
    # a witness, whether the full check stops at a shortest hit, prunes
    # first or pumps
    seen = dict.fromkeys(["no", "final_hit", "full_prunes", "full_pumps", "pumped"], 0)
    rng = random.Random(35)
    for _ in range(6000):
        graph, nu = verdict_instance(rng)
        for strict in (False, True):
            checker = exists_path_lt if strict else exists_path_leq
            answer, _witness = checker(graph, nu)
            assert checker(graph, nu, verdict_only=True) == (answer, None), (graph, nu, strict)
            if answer == NO:
                seen["no"] += 1
                continue
            full = dsumpath.compute_mrg(graph, nu, strict)
            verdict = dsumpath.compute_mrg(graph, nu, strict, verdict_only=True)
            if verdict[0].hit is None:
                seen["pumped"] += 1
            elif full[0].hit is None:
                seen["full_pumps"] += 1
            elif full[1] is not None and verdict[1] is None:
                seen["full_prunes"] += 1
            else:
                seen["final_hit"] += 1
    assert min(seen.values()) >= 50, seen


def test_verdict_walk_is_checked_again_on_integers(monkeypatch):
    # a hit reported below the floor must not become a YES, also under
    # python -O: the re-check raises instead of asserting
    graph = WeightedGraph(
        vertices=("s", "t"),
        edges=[("s", 0, "t")],
        source="s",
        targets=frozenset(["t"]),
        discount=Fraction(1, 2),
    )
    assert exists_path_lt(graph, Fraction(0), verdict_only=True) == (NO, None)
    monkeypatch.setattr(dsumpath, "_hits", lambda graph, raised, strict: [
        v for v in raised if graph.target[v]])
    with pytest.raises(dsumpath.InternalError, match="verdict walk failed re-validation"):
        exists_path_lt(graph, Fraction(0), verdict_only=True)


# --- dsum-path --trace, pinned byte for byte ----------------------------------

REMARK_TRACE = "mrg[0]: v0=1\nmrg[1]: v0=1, v1=-1\nmrg[2]: v0=1, v1=-1\n"

RANDOM_TRACE = (
    "mrg[0]: g0=-3/4\n"
    "mrg[1]: g0=-3/4, g2=-1/8\n"
    "mrg[2]: g0=-3/4, g1=-3/16, g2=-1/8, g4=-67/16\n"
    "mrg[3]: g0=-3/4, g1=-3/16, g2=-1/8, g3=87/32, g4=55/32, g5=-105/32\n"
    "mrg[4]: g0=-3/4, g1=325/64, g2=-1/8, g3=87/32, g4=325/64, g5=357/64\n"
    "mrg[5]: g0=-3/4, g1=1231/128, g2=1455/128, g3=1359/128, g4=1231/128, g5=1359/128\n"
    "mrg[6]: g0=-3/4, g1=4365/256, g2=4845/256, g3=4461/256, g4=4333/256, g5=4461/256\n"
)


def trace_arena_text(seed):
    rng = random.Random(seed)
    names = ["g%d" % k for k in range(6)]
    lines = ["arena"]
    for k, v in enumerate(names):
        lines.append("vertex: %s adam%s" % (v, " critical" if k in (3, 5) else ""))
    lines.append("initial: g0")
    for v in names:
        for _ in range(rng.randint(1, 3)):
            lines.append("edge: %s - %d %s" % (v, rng.randint(-3, 4), rng.choice(names)))
    return "\n".join(lines) + "\n"


def test_trace_pinned_on_remark_arena(capsys):
    code = cli.main(["dsum-path", str(FIXTURES / "remark.arena"), "--nu", "1",
                     "--lambda", "1/2", "--trace"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "no\n", REMARK_TRACE)


@pytest.mark.parametrize("strict", [[], ["--strict"]])
def test_trace_pinned_on_random_graph(capsys, tmp_path, strict):
    arena = tmp_path / "random.arena"
    arena.write_text(trace_arena_text(3))
    code = cli.main(["dsum-path", str(arena), "--nu=-3/4", "--lambda", "2/3", "--trace"]
                    + strict)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "yes\nwitness: g0 g2 g1 g3\nvalue: -14/9\n"
    assert captured.err == RANDOM_TRACE


# --- re-validation survives python -O -----------------------------------------

_WRONG_DSUM = """
import sys
from fractions import Fraction
from wsynth import cli, core, dsumpath
if not sys.flags.optimize:
    sys.exit("expected python -O")
dsumpath.dsum_of_edges = lambda graph, edges: Fraction(10 ** 6)
graph = dsumpath.WeightedGraph(
    vertices=("s", "t"), edges=[("s", 0, "t")], source="s",
    targets=frozenset(["t"]), discount=Fraction(1, 2),
)
try:
    dsumpath.exists_path_leq(graph, 0)
    print("no error")
except core.InternalError as exc:
    print("internal error: %s" % exc)
sys.stdout.flush()
sys.exit(cli.main(sys.argv[1:]))
"""


def test_witness_revalidation_survives_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_DSUM, "dsum-path",
         str(FIXTURES / "remark.arena"), "--nu", "3/2", "--lambda", "1/2"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert done.returncode == 70, done.stderr
    assert done.stdout == "internal error: witness failed re-validation\n"
    assert done.stderr == "internal error: witness failed re-validation\n"
