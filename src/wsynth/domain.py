"""Domain automata, domain-safety analysis, and the safe transformation.

The domain automaton of a weighted specification keeps input transitions
and turns every output transition into an epsilon move; it accepts exactly
the specification's domain.  An output transition (p, b, q) is domain-safe
when L(A_dom, p) = L(A_dom, q), i.e. taking it never discards domain
words.  A specification where every reachable output transition is safe
lets a strategy follow any run without monitoring the domain: every run
on a domain word ends in a final state.

make_domain_safe prunes an arbitrary specification into an equivalent
domain-safe one (same domain, same Boolean realizers) by solving a safety
game that tracks two runs on the same input, or reports that no Boolean
realizer exists at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import games
from .core import INPUT, OUTPUT, WeightedSpec, word
from .games import ADAM, EVE, Arena

NO_BOOLEAN_REALIZER = "no_boolean_realizer"

_DEAD = "__dead__"


def _closure(spec: WeightedSpec, states):
    """Epsilon closure in the domain automaton: follow output transitions."""
    out = set(states)
    queue = list(states)
    while queue:
        q = queue.pop()
        if spec.polarity[q] != OUTPUT:
            continue
        for b in spec.outputs:
            entry = spec.transitions.get((q, b))
            if entry is not None and entry[0] not in out:
                out.add(entry[0])
                queue.append(entry[0])
    return frozenset(out)


def _dom_step(spec: WeightedSpec, subset, symbol):
    nxt = set()
    for q in subset:
        if spec.polarity[q] != INPUT:
            continue
        entry = spec.transitions.get((q, symbol))
        if entry is not None:
            nxt.add(entry[0])
    return _closure(spec, nxt)


def _accepts(spec: WeightedSpec, subset):
    return any(q in spec.finals for q in subset)


def domain_membership(spec: WeightedSpec, u) -> bool:
    """Whether some output word completes u into the specification."""
    subset = _closure(spec, [spec.initial])
    for a in word(u):
        subset = _dom_step(spec, subset, a)
        if not subset:
            return False
    return _accepts(spec, subset)


def residual_languages_equal(spec: WeightedSpec, p, q) -> bool:
    """L(A_dom, p) = L(A_dom, q), by an on-the-fly determinized product."""
    start = (_closure(spec, [p]), _closure(spec, [q]))
    seen = {start}
    queue = [start]
    while queue:
        left, right = queue.pop()
        if _accepts(spec, left) != _accepts(spec, right):
            return False
        for a in spec.inputs:
            nxt = (_dom_step(spec, left, a), _dom_step(spec, right, a))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def domains_equal(left: WeightedSpec, right: WeightedSpec) -> bool:
    """dom(left) = dom(right) via DFA equivalence of the domain automata."""
    if set(left.inputs) != set(right.inputs):
        common = sorted(set(left.inputs) | set(right.inputs))
    else:
        common = left.inputs
    start = (_closure(left, [left.initial]), _closure(right, [right.initial]))
    seen = {start}
    queue = [start]
    while queue:
        lset, rset = queue.pop()
        if _accepts(left, lset) != _accepts(right, rset):
            return False
        for a in common:
            nxt = (_dom_step(left, lset, a), _dom_step(right, rset, a))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def _search(adjacency, starts):
    """Every node reachable from starts along adjacency lists, by BFS."""
    seen = set(starts)
    queue = deque(seen)
    while queue:
        for nxt in adjacency.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def reachable_states(spec: WeightedSpec):
    succ = {}
    for (src, _sym), (tgt, _w) in spec.transitions.items():
        succ.setdefault(src, []).append(tgt)
    return _search(succ, [spec.initial])


def _live_states(spec: WeightedSpec):
    """States reachable from the initial state that also reach a final one."""
    pred = {}
    for (src, _sym), (tgt, _w) in spec.transitions.items():
        pred.setdefault(tgt, []).append(src)
    return reachable_states(spec) & _search(pred, spec.finals)


def unsafe_transitions(spec: WeightedSpec):
    """Reachable output transitions that shrink the residual domain.

    The spec is domain-safe iff this set is empty.
    """
    reach = reachable_states(spec)
    bad = set()
    equal_memo = {}
    for (src, sym), (tgt, _w) in spec.transitions.items():
        if src not in reach or spec.polarity[src] != OUTPUT:
            continue
        key = (src, tgt)
        if key not in equal_memo:
            equal_memo[key] = residual_languages_equal(spec, src, tgt)
        if not equal_memo[key]:
            bad.add((src, sym, tgt))
    return bad


def is_domain_safe(spec: WeightedSpec) -> bool:
    return not unsafe_transitions(spec)


@dataclass
class TwoRunSafetyGame:
    """Safety game tracking Eve's run against Adam's run on shared input.

    Vertices are (kind, eve_state, adam_state) with kind ii / oo / io;
    Adam owns ii (he picks the next input) and io (he answers with his
    own output), Eve owns oo.  Dead runs are kept explicit so that a run
    that dies counts as non-accepting.  Eve loses when Adam's run is
    final while hers is not.
    """

    arena: Arena
    losing: frozenset


def build_two_run_game(spec: WeightedSpec) -> TwoRunSafetyGame:
    def step(state, symbol):
        if state == _DEAD:
            return _DEAD
        entry = spec.transitions.get((state, symbol))
        return entry[0] if entry else _DEAD

    initial = ("ii", spec.initial, spec.initial)
    vertices = []
    edges = []
    owner = {}
    seen = {initial}
    queue = deque([initial])
    while queue:
        vertex = queue.popleft()
        vertices.append(vertex)
        kind, left, right = vertex
        owner[vertex] = EVE if kind == "oo" else ADAM
        if kind == "ii":
            moves = [("oo", step(left, a), step(right, a)) for a in spec.inputs]
        elif kind == "oo":
            moves = [("io", step(left, b), right) for b in spec.outputs]
        else:
            moves = [("ii", left, step(right, b)) for b in spec.outputs]
        for nxt in moves:
            edges.append((vertex, "-", 0, nxt))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    losing = frozenset(
        v
        for v in vertices
        if v[0] == "ii" and v[2] in spec.finals and v[1] not in spec.finals
    )
    arena = Arena(
        vertices=tuple(vertices),
        owner=owner,
        initial=initial,
        edges=edges,
        critical=losing,
    )
    return TwoRunSafetyGame(arena=arena, losing=losing)


def two_run_game_to_dot(game: TwoRunSafetyGame) -> str:
    return games.arena_to_dot(game.arena, highlight=game.losing)


def trim(spec: WeightedSpec) -> WeightedSpec:
    """Keep states reachable from the initial and co-reachable to a final.

    The initial state always survives so the result stays well-formed;
    when it is not co-reachable the domain is empty and the result keeps
    no transitions.
    """
    core = _live_states(spec)
    keep = core | {spec.initial}
    transitions = {
        key: val
        for key, val in spec.transitions.items()
        if key[0] in core and val[0] in core
    }
    return WeightedSpec(
        inputs=spec.inputs,
        outputs=spec.outputs,
        states=tuple(q for q in spec.states if q in keep),
        initial=spec.initial,
        finals=tuple(f for f in spec.finals if f in keep),
        transitions=transitions,
        measure=spec.measure,
        discount=spec.discount,
        polarity={q: spec.polarity[q] for q in spec.states if q in keep},
    )


def make_domain_safe(spec: WeightedSpec):
    """Prune to a domain-safe spec with the same domain and realizers.

    Returns NO_BOOLEAN_REALIZER when Eve loses the two-run safety game
    from the diagonal initial vertex, i.e. when no transducer with the
    specification's domain can stay inside the relation.
    """
    game = build_two_run_game(spec)
    safe = [v for v in game.arena.vertices if v not in game.losing]
    region, _strategy = games.solve_safety(game.arena, safe)
    if game.arena.initial not in region:
        return NO_BOOLEAN_REALIZER
    vertex_set = set(game.arena.vertices)

    def diagonal_ok(q):
        v = ("ii" if spec.polarity[q] == INPUT else "oo", q, q)
        return v not in vertex_set or v in region

    keep = {q for q in spec.states if diagonal_ok(q)}
    transitions = {}
    for (src, sym), (tgt, w) in spec.transitions.items():
        if src not in keep or tgt not in keep:
            continue
        if spec.polarity[src] == OUTPUT:
            probe = ("io", tgt, src)
        else:
            probe = None
        if probe is not None and probe in vertex_set and probe not in region:
            continue
        transitions[(src, sym)] = (tgt, w)
    pruned = WeightedSpec(
        inputs=spec.inputs,
        outputs=spec.outputs,
        states=tuple(q for q in spec.states if q in keep),
        initial=spec.initial,
        finals=tuple(f for f in spec.finals if f in keep),
        transitions=transitions,
        measure=spec.measure,
        discount=spec.discount,
        polarity={q: spec.polarity[q] for q in spec.states if q in keep},
    )
    return trim(pruned)
