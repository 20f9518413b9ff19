import importlib.util
import itertools
import math
import sys
from collections import deque
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wsynth import core, domain, dsumpath, games, synthesis
from wsynth.games import ADAM, EVE, ImperfectArena

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _load_bench(name):
    path = Path(__file__).resolve().parent.parent / "bench" / (name + ".py")
    module_spec = importlib.util.spec_from_file_location("bench_" + name, path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def load_bench_gen():
    """bench/gen.py, the benchmark's spec generator, as a module."""
    return _load_bench("gen")


def load_bench_check():
    """bench/check.py, the benchmark's answer checks (its brute force
    evaluates specs from their generated data, not through wsynth), as a
    module."""
    return _load_bench("check")


def load_bench_workloads(monkeypatch):
    """bench/workloads.py, the benchmark's instance pools, as a module.  It
    and the generator it imports as gen are in sys.modules only meanwhile."""
    monkeypatch.setitem(sys.modules, "gen", load_bench_gen())
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(module_spec)
    monkeypatch.setitem(sys.modules, "bench_workloads", module)  # for its dataclasses
    module_spec.loader.exec_module(module)
    return module


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


def old_verify_verdict_only(spec, t, obj):
    """verify_realizer(spec, t, obj, verdict_only=True) in its first check
    order: the domain check, then the Boolean check, then the value check."""
    synthesis._check_alphabets(spec, t)
    witness = synthesis._domain_equal_witness(spec, t)
    if witness is None:
        witness = synthesis._boolean_witness(spec, t)
    if witness is None and obj.kind != "boolean":
        if obj.kind == "threshold":
            bound, rival, at_equal = obj.bound, False, obj.cmp == ">"
        elif obj.kind == "best_value":
            bound, rival, at_equal = 0, True, False
        else:
            bound, rival, at_equal = -obj.bound, True, obj.cmp == "<"
        witness = synthesis._value_witness(spec, t, rival, bound, at_equal, True)
    return (synthesis.PASS if witness is None else synthesis.FAIL), None


def check_difference(spec, t, u):
    """bestVal(u) - S(u (x) f(u)); NEG_INF handling mirrors the objective."""
    u = core.word(u)
    out = core.run_transducer(t, u)
    top = core.best_value(spec, u)
    if out is None:
        return None if top is core.NEG_INF else core.NEG_INF
    got = core.evaluate(spec, u, out)
    if top is core.NEG_INF and got is core.NEG_INF:
        return None
    if got is core.NEG_INF:
        return core.NEG_INF
    return top - got


def domains_equal(left, right):
    """dom(left) = dom(right) via DFA equivalence of the domain automata."""
    if set(left.inputs) != set(right.inputs):
        common = sorted(set(left.inputs) | set(right.inputs))
    else:
        common = left.inputs
    return domain.first_difference(
        domain._domain(left, left.initial), domain._domain(right, right.initial), common
    ) is None


def old_attractor(arena, targets, player):
    """The attractor as first written: fresh incoming lists and counters.
    The targets are queued in vertex order, so the strategy does not
    depend on string hashing."""
    known = set(arena.vertices)
    region = set(t for t in targets if t in known)
    pending = {v: len(arena.out(v)) for v in arena.vertices}
    strategy = {}
    incoming = {v: [] for v in arena.vertices}
    for i, (src, _a, _w, dst) in enumerate(arena.edges):
        incoming[dst].append((src, i))
    queue = [v for v in arena.vertices if v in region]
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


# --- the perfect-information solvers keyed by vertex name ---------------------
#
# games.Arena numbers its vertices once, and the solvers read its integer
# arrays.  These are the solvers as they were before: each renumbers the
# arena or walks name-keyed dicts for itself.  They are the oracles for the
# numbered ones.


def named_solve_mean_payoff(arena):
    """games.solve_mean_payoff with its own vertex numbering; (winner, choice)."""
    if arena.deadlocks():
        raise ValueError("mean-payoff needs a deadlock-free arena")
    names = arena.vertices
    number = {v: k for k, v in enumerate(names)}
    pairs = [(w, number[dst]) for _src, _a, w, dst in arena.edges]
    ids = [arena.out(v) for v in names]
    out = [[pairs[i] for i in es] for es in ids]
    eve = [arena.owner[v] == EVE for v in names]
    f = games._lift(names, eve, out, games._credit_bound(out))
    if f[number[arena.initial]] is not None:
        return EVE, games._tight_edges(names, eve, out, ids, f)

    trap = [k for k, fk in enumerate(f) if fk is None]
    at = {k: j for j, k in enumerate(trap)}
    dual_ids = [[i for i in ids[k] if pairs[i][1] in at] for k in trap]
    for k, es in zip(trap, dual_ids):
        if eve[k] and len(es) < len(ids[k]):
            raise core.InternalError("Eve can leave Adam's mean-payoff region at %r" % (names[k],))
    n = len(names)
    dual_out = [[(-(n * pairs[i][0] + 1), at[pairs[i][1]]) for i in es] for es in dual_ids]
    trap_names = [names[k] for k in trap]
    dual_eve = [not eve[k] for k in trap]
    g = games._lift(trap_names, dual_eve, dual_out, games._credit_bound(dual_out))
    if g[at[number[arena.initial]]] is None:
        raise core.InternalError("mean-payoff determinacy violated")
    return ADAM, games._tight_edges(trap_names, dual_eve, dual_out, dual_ids, g)


def named_evaluate_profile(arena, next_edge, p, q):
    """games._evaluate_profile on name-keyed dicts: vertex -> (num, den)."""
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
        at = index.get(v, len(path))
        if at < len(path):
            n, d = 0, 1
            for u in reversed(path[at:]):
                n, d = p * (arena.edges[next_edge[u]][2] * d + n), q * d
            values[v] = n, d - p ** (len(path) - at)
        for segment in (path[at + 1:], path[:at]):
            n, d = values[v]
            for u in reversed(segment):
                n, d = p * (arena.edges[next_edge[u]][2] * d + n), q * d
                values[u] = n, d
    return values


def named_solve_discounted_sum(arena, lam, nu, cmp):
    """games.solve_discounted_sum on name-keyed dicts, with its two
    switching loops; (winner, choice, value)."""
    p, q = Fraction(lam).as_integer_ratio()
    nu = Fraction(nu)
    next_edge = {v: arena.out(v)[0] for v in arena.vertices}

    def greedy_edge(v, values, sign):
        best_i = None
        for i in arena.out(v):
            _s, _a, w, dst = arena.edges[i]
            n, d = values[dst]
            n += w * d
            if best_i is None or sign * (n * best_d - best_n * d) > 0:
                best_i, best_n, best_d = i, n, d
        n, d = values[v]
        return best_i, sign * (p * best_n * d - n * q * best_d)

    profiles = math.prod(len(arena.out(v)) for v in arena.vertices)
    evaluations = 0
    while True:
        while True:
            evaluations += 1
            if evaluations > profiles:
                raise core.InternalError("discounted-sum iteration did not converge")
            values = named_evaluate_profile(arena, next_edge, p, q)
            switched = False
            for v in arena.vertices:
                if arena.owner[v] != ADAM:
                    continue
                i, gain = greedy_edge(v, values, -1)
                if gain > 0:
                    next_edge[v] = i
                    switched = True
            if not switched:
                break
        improved = False
        for v in arena.vertices:
            if arena.owner[v] != EVE:
                continue
            i, gain = greedy_edge(v, values, 1)
            if gain > 0:
                next_edge[v] = i
                improved = True
        if not improved:
            break

    for v in arena.vertices:
        _i, gain = greedy_edge(v, values, 1 if arena.owner[v] == EVE else -1)
        if gain:
            raise core.InternalError("discounted-sum fixpoint identity violated")

    value = Fraction(*values[arena.initial])
    eve_wins = value > nu if cmp == ">" else value >= nu
    choice = {v: next_edge[v] for v in arena.vertices
              if arena.owner[v] == (EVE if eve_wins else ADAM)}
    return EVE if eve_wins else ADAM, choice, value


def named_restrict_to_strategy(arena, strategy):
    """prefix.restrict_to_strategy on names, with a deque; (reachable, edges)."""
    reachable = {arena.initial}
    queue = deque([arena.initial])
    edges = []
    while queue:
        v = queue.popleft()
        if arena.owner[v] == EVE:
            if v not in strategy.choice:
                raise ValueError("strategy undefined at reachable vertex %r" % (v,))
            indices = [strategy.choice[v]]
        else:
            indices = arena.out(v)
        for i in indices:
            _s, _a, w, dst = arena.edges[i]
            edges.append((v, w, dst))
            if dst not in reachable:
                reachable.add(dst)
                queue.append(dst)
    return reachable, edges


def named_check_positional_dsum(arena, strategy, obj, *, verdict_only=False):
    """prefix.check_positional_dsum as it was before it read the arena's
    numbers: the strategy's restriction as a WeightedGraph on names, with
    one edge per (src, w, dst) of the name-keyed walk, then the path check.
    A witness's edges index that graph's edges, not the arena's."""
    reachable, edges = named_restrict_to_strategy(arena, strategy)
    targets = frozenset(v for v in arena.critical if v in reachable)
    if not targets:
        return True, None
    graph = dsumpath.WeightedGraph(vertices=tuple(reachable), edges=edges,
                                   source=arena.initial, targets=targets, discount=obj.discount)
    checker = dsumpath.exists_path_leq if obj.cmp == ">" else dsumpath.exists_path_lt
    answer, witness = checker(graph, obj.nu, verdict_only=verdict_only)
    return (True, None) if answer == dsumpath.NO else (False, witness)


# --- imperfect-information arenas from edge lists -----------------------------


def table_from_edges(vertices, edges):
    """The move table of an edge list (src, action, weight, dst): every
    vertex's moves grouped by action, in edge order.  A source outside
    vertices gets an entry of its own, so ImperfectArena can reject it."""
    table = {v: {} for v in vertices}
    for src, a, w, dst in edges:
        table.setdefault(src, {}).setdefault(a, []).append((w, dst))
    return table


def edge_iarena(vertices, initial, actions, edges, obs):
    """An ImperfectArena given by an edge list, as the constructor once took it."""
    return ImperfectArena(vertices=tuple(vertices), initial=initial, actions=tuple(actions),
                          table=table_from_edges(vertices, edges), obs=obs)


def table_edges(table):
    """The edge list (src, action, weight, dst) of a move table, in table order."""
    return [(v, a, w, dst) for v, options in table.items()
            for a, moves in options.items() for w, dst in moves]


# --- the min-walk search on named nodes, before core.bfs ---------------------


def _old_bfs_tree(adjacency, starts, goal=None):
    """Breadth-first links {node: (prev, weight, label) or None}, in
    discovery order, and the first dequeued node meeting goal (or None).

    adjacency maps a node to its (weight, next, label) list.
    """
    via = dict.fromkeys(starts)
    queue = deque(via)
    while queue:
        node = queue.popleft()
        if goal is not None and goal(node):
            return via, node
        for w, nxt, label in adjacency.get(node, ()):
            if nxt not in via:
                via[nxt] = (node, w, label)
                queue.append(nxt)
    return via, None


def _old_walk_back(via, node):
    """(labels, value) of the walk that the links lead back from node."""
    labels = []
    value = 0
    while via[node] is not None:
        node, w, label = via[node]
        labels.append(label)
        value += w
    labels.reverse()
    return labels, value


def old_min_walk_below(edges, source, accepting, threshold):
    """synthesis._min_walk_below on named nodes, with its own forward and
    backward adjacency and live-node numbering; the labels of a
    source-to-accepting walk of value < threshold, or None."""
    forward = {}
    backward = {}
    for src, w, dst, label in edges:
        forward.setdefault(src, []).append((w, dst, label))
        backward.setdefault(dst, []).append((w, src, label))
    co_reach = _old_bfs_tree(backward, accepting)[0]
    live = [node for node in _old_bfs_tree(forward, [source])[0] if node in co_reach]
    if not live:
        return None
    n = len(live)
    index = {node: i for i, node in enumerate(live)}  # the source is 0
    live_edges = [
        (index[src], w, index[dst], label)
        for src, w, dst, label in edges
        if src in index and dst in index
    ]
    dist = [0] + [None] * (n - 1)
    parent = [None] * n
    relaxed = None
    for rounds in range(1, n + 1):
        changed = False
        for src, w, dst, label in live_edges:
            if dist[src] is None:
                continue
            cand = dist[src] + w
            if dist[dst] is None or cand < dist[dst]:
                dist[dst] = cand
                parent[dst] = (src, w, label)
                changed = True
                if rounds == n:
                    relaxed = dst
                    break
        if not changed or relaxed is not None:
            break

    if relaxed is None:
        reached = [index[node] for node in accepting if node in index]
        best = min(reached, key=dist.__getitem__)
        if dist[best] >= threshold:
            return None
        return _old_walk_back(parent, best)[0]

    on_cycle = relaxed
    for _ in range(n):
        on_cycle = parent[on_cycle][0]
    cycle_labels = []
    cycle_sum = 0
    node = on_cycle
    for _ in range(n):
        node, w, label = parent[node]
        cycle_labels.append(label)
        cycle_sum += w
        if node == on_cycle:
            break
    assert node == on_cycle and cycle_sum < 0
    cycle_labels.reverse()

    entry = live[on_cycle]
    goals = set(accepting)
    stem = _old_bfs_tree(forward, [source], lambda node: node == entry)
    tail = _old_bfs_tree(forward, [entry], lambda node: node in goals)
    stem_labels, stem_value = _old_walk_back(*stem)
    tail_labels, tail_value = _old_walk_back(*tail)
    base = stem_value + tail_value
    laps = 0
    if base >= threshold:
        laps = (base - threshold) // (-cycle_sum) + 1
    return stem_labels + cycle_labels * laps + tail_labels


# --- the four value-witness builders as first written -------------------------
#
# Each built its own synchronized product: the threshold check over the
# transducer and one spec run, the best-value/approx check over a second,
# rival run; Sum/Avg on scaled min-walk graphs, Dsum on letter-level graphs
# for the exact path checkers.  They are the oracle for the one product
# behind synthesis._value_witness.


def old_value_witness(spec, t, obj):
    """The old builders' witness word for a value objective, or None."""
    if obj.kind == "threshold":
        return _old_threshold_witness(spec, t, obj.cmp, obj.bound)
    if obj.kind == "best_value":
        return _old_difference_witness(spec, t, "<=", Fraction(0))
    return _old_difference_witness(spec, t, obj.cmp, obj.bound)


def _old_threshold_witness(spec, t, cmp, nu):
    """A domain word whose pair value violates S(u (x) f(u)) cmp nu, or None."""
    nu = Fraction(nu)
    if spec.measure == core.DSUM:
        return _old_threshold_witness_dsum(spec, t, cmp, nu)
    q_scale = nu.denominator
    nu_int = nu.numerator

    nodes = set()
    edges = []
    start = (t.initial, spec.initial)
    queue = deque([start])
    nodes.add(start)
    accepting = []
    while queue:
        node = queue.popleft()
        s, p = node
        if s in t.finals and p in spec.finals:
            accepting.append(node)
        for a in spec.inputs:
            entry = t.transitions.get((s, a))
            if entry is None:
                continue
            b, s2 = entry
            mid = spec.transitions.get((p, a))
            if mid is None:
                continue
            out = spec.transitions.get((mid[0], b))
            if out is None:
                continue
            p2 = out[0]
            if spec.measure == core.SUM:
                w = q_scale * (mid[1] + out[1])
            else:
                w = q_scale * (mid[1] + out[1]) - 2 * nu_int
            nxt = (s2, p2)
            edges.append((node, w, nxt, a))
            if nxt not in nodes:
                nodes.add(nxt)
                queue.append(nxt)
    if spec.measure == core.SUM:
        bound = nu_int if cmp == ">=" else nu_int + 1
    else:
        bound = 0 if cmp == ">=" else 1
    labels = old_min_walk_below(edges, start, accepting, bound)
    if labels is None:
        return None
    return tuple(labels)


def _old_threshold_witness_dsum(spec, t, cmp, nu):
    nodes = set()
    edges = []
    start = ("in", t.initial, spec.initial)
    nodes.add(start)
    queue = deque([start])
    accepting = set()
    while queue:
        node = queue.popleft()
        if node[0] == "in":
            _k, s, p = node
            if s in t.finals and p in spec.finals:
                accepting.add(node)
            for a in spec.inputs:
                entry = t.transitions.get((s, a))
                mid = spec.transitions.get((p, a))
                if entry is None or mid is None:
                    continue
                b, s2 = entry
                nxt = ("mid", s2, mid[0], b)
                edges.append((node, mid[1], nxt, a))
                if nxt not in nodes:
                    nodes.add(nxt)
                    queue.append(nxt)
        else:
            _k, s2, pm, b = node
            out = spec.transitions.get((pm, b))
            if out is None:
                continue
            nxt = ("in", s2, out[0])
            edges.append((node, out[1], nxt, None))
            if nxt not in nodes:
                nodes.add(nxt)
                queue.append(nxt)
    graph = dsumpath.WeightedGraph(
        vertices=tuple(sorted(nodes, key=repr)),
        edges=[(src, w, dst) for src, w, dst, _l in edges],
        source=start,
        targets=frozenset(accepting),
        discount=spec.discount,
    )
    labels = {
        (src, w, dst): label for src, w, dst, label in edges
    }
    checker = dsumpath.exists_path_leq if cmp == ">" else dsumpath.exists_path_lt
    answer, witness = checker(graph, nu)
    if answer == dsumpath.NO:
        return None
    symbols = []
    for i in witness.edges:
        src, w, dst = graph.edges[i]
        label = labels[(src, w, dst)]
        if label is not None:
            symbols.append(label)
    return tuple(symbols)


def _old_difference_witness(spec, t, cmp, bound):
    """A domain word where bestVal(u) - S(u (x) f(u)) violates cmp bound.

    Tracks the transducer run against an adversary run of the same
    automaton, synchronized on inputs; the adversary's outputs are
    unconstrained.  Sum/Avg use scaled integer min-walk searches, Dsum
    uses the exact discounted path checkers.
    """
    bound = Fraction(bound)
    if spec.measure == core.DSUM:
        return _old_difference_witness_dsum(spec, t, cmp, bound)
    q_scale = bound.denominator
    p_bound = bound.numerator

    start = (t.initial, spec.initial, spec.initial)
    nodes = {start}
    edges = []
    queue = deque([start])
    accepting = []
    while queue:
        node = queue.popleft()
        s, p, q = node
        if s in t.finals and p in spec.finals and q in spec.finals:
            accepting.append(node)
        for a in spec.inputs:
            entry = t.transitions.get((s, a))
            mid_main = spec.transitions.get((p, a))
            mid_adv = spec.transitions.get((q, a))
            if entry is None or mid_main is None or mid_adv is None:
                continue
            b, s2 = entry
            out_main = spec.transitions.get((mid_main[0], b))
            if out_main is None:
                continue
            p2 = out_main[0]
            main_w = mid_main[1] + out_main[1]
            for b_adv in spec.outputs:
                out_adv = spec.transitions.get((mid_adv[0], b_adv))
                if out_adv is None:
                    continue
                q2 = out_adv[0]
                adv_w = mid_adv[1] + out_adv[1]
                w = q_scale * (main_w - adv_w)
                if spec.measure == core.AVG:
                    w += 2 * p_bound
                nxt = (s2, p2, q2)
                edges.append((node, w, nxt, a))
                if nxt not in nodes:
                    nodes.add(nxt)
                    queue.append(nxt)
    if spec.measure == core.SUM:
        # value + p_bound must stay >= 0 (or >= 1 for strict)
        threshold = -p_bound if cmp == "<=" else -p_bound + 1
    else:
        threshold = 0 if cmp == "<=" else 1
    labels = old_min_walk_below(edges, start, accepting, threshold)
    if labels is None:
        return None
    return tuple(labels)


def _old_difference_witness_dsum(spec, t, cmp, bound):
    start = ("in", t.initial, spec.initial, spec.initial)
    nodes = {start}
    edges = []
    queue = deque([start])
    accepting = set()
    while queue:
        node = queue.popleft()
        if node[0] == "in":
            _k, s, p, q = node
            if s in t.finals and p in spec.finals and q in spec.finals:
                accepting.add(node)
            for a in spec.inputs:
                entry = t.transitions.get((s, a))
                mid_main = spec.transitions.get((p, a))
                mid_adv = spec.transitions.get((q, a))
                if entry is None or mid_main is None or mid_adv is None:
                    continue
                b, s2 = entry
                nxt = ("mid", s2, mid_main[0], mid_adv[0], b)
                edges.append((node, mid_main[1] - mid_adv[1], nxt, a))
                if nxt not in nodes:
                    nodes.add(nxt)
                    queue.append(nxt)
        else:
            _k, s2, pm, qm, b = node
            out_main = spec.transitions.get((pm, b))
            if out_main is None:
                continue
            for b_adv in spec.outputs:
                out_adv = spec.transitions.get((qm, b_adv))
                if out_adv is None:
                    continue
                nxt = ("in", s2, out_main[0], out_adv[0])
                edges.append((node, out_main[1] - out_adv[1], nxt, None))
                if nxt not in nodes:
                    nodes.add(nxt)
                    queue.append(nxt)
    graph = dsumpath.WeightedGraph(
        vertices=tuple(sorted(nodes, key=repr)),
        edges=[(src, w, dst) for src, w, dst, _l in edges],
        source=start,
        targets=frozenset(accepting),
        discount=spec.discount,
    )
    labels = {(src, w, dst): lbl for src, w, dst, lbl in edges}
    # difference graph carries main - adversary weights, so the pair value
    # difference bestVal - value equals -Dsum(path); violation of <= bound
    # means Dsum(path) < -bound (or <= for the strict objective)
    checker = dsumpath.exists_path_lt if cmp == "<=" else dsumpath.exists_path_leq
    answer, witness = checker(graph, -bound)
    if answer == dsumpath.NO:
        return None
    symbols = []
    for i in witness.edges:
        src, w, dst = graph.edges[i]
        lbl = labels[(src, w, dst)]
        if lbl is not None:
            symbols.append(lbl)
    return tuple(symbols)


# --- the per-spec set-up on core.bfs, before its flat worklists ---------------


def bfs_infer_polarity(spec):
    """core._infer_polarity with an assign closure per transition and one
    core.bfs, with a generator callback, for the propagation."""
    inputs, outputs = set(spec.inputs), set(spec.outputs)
    polarity = {}
    neighbours = {}

    def assign(state, pol):
        if polarity.setdefault(state, pol) != pol:
            raise core.SpecError("polarity conflict at state %r" % (state,))

    assign(spec.initial, core.INPUT)
    for (src, sym), (tgt, _w) in spec.transitions.items():
        if sym in inputs and sym not in outputs:
            assign(src, core.INPUT)
        elif sym in outputs and sym not in inputs:
            assign(src, core.OUTPUT)
        neighbours.setdefault(src, []).append(tgt)
        neighbours.setdefault(tgt, []).append(src)

    def successors(state):
        flip = core.OUTPUT if polarity[state] == core.INPUT else core.INPUT
        for other in neighbours.get(state, ()):
            assign(other, flip)
            yield other, None

    core.bfs(successors, list(polarity))
    for q in spec.states:
        polarity.setdefault(q, core.INPUT)
    return polarity


def bfs_live_states(spec, transitions=None):
    """domain._live_states as two core.bfs calls with a lambda callback."""
    succ, pred = {}, {}
    for (src, sym), (tgt, _w) in (spec.transitions if transitions is None else transitions).items():
        succ.setdefault(src, []).append((tgt, sym))
        pred.setdefault(tgt, []).append((src, sym))
    reach = core.bfs(lambda q: succ.get(q, ()), [spec.initial])[0]
    return reach.keys() & core.bfs(lambda q: pred.get(q, ()), spec.finals)[0].keys()


# --- the domain automaton on epsilon closures, before it stepped input states ---


def old_closure(spec, states):
    """Epsilon closure in the domain automaton: follow output transitions."""
    out = set(states)
    queue = list(states)
    while queue:
        q = queue.pop()
        if spec.polarity[q] != core.OUTPUT:
            continue
        for b in spec.outputs:
            entry = spec.transitions.get((q, b))
            if entry is not None and entry[0] not in out:
                out.add(entry[0])
                queue.append(entry[0])
    return frozenset(out)


def old_dom_step(spec, subset, symbol):
    """The old_closure of symbol's targets from subset's input states, with
    no step table."""
    targets = set()
    for q in subset:
        if spec.polarity[q] != core.INPUT:
            continue
        entry = spec.transitions.get((q, symbol))
        if entry is not None:
            targets.add(entry[0])
    return old_closure(spec, targets)


def old_domain(spec, state):
    """domain._domain on subsets that keep output states: (start, step,
    accepts) for domain.first_difference."""
    return (old_closure(spec, [state]), partial(old_dom_step, spec),
            partial(domain._accepts, spec))


def input_part(spec, subset):
    """An old_closure subset without its output states: the subset that
    domain's automaton keeps."""
    return frozenset(q for q in subset if spec.polarity[q] == core.INPUT)
