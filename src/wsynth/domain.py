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

from dataclasses import dataclass

from . import games
from .core import INPUT, OUTPUT, WeightedSpec, bfs, word
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


def _same_domain(left: WeightedSpec, p, right: WeightedSpec, q, symbols) -> bool:
    """L(A_dom(left), p) = L(A_dom(right), q) over symbols, by a BFS of the
    determinized product for a pair of subsets that disagree on acceptance."""

    def successors(pair):
        lset, rset = pair
        for a in symbols:
            yield (_dom_step(left, lset, a), _dom_step(right, rset, a)), a

    def differs(pair):
        return _accepts(left, pair[0]) != _accepts(right, pair[1])

    start = (_closure(left, [p]), _closure(right, [q]))
    return bfs(successors, [start], differs)[1] is None


def residual_languages_equal(spec: WeightedSpec, p, q) -> bool:
    """L(A_dom, p) = L(A_dom, q)."""
    return _same_domain(spec, p, spec, q, spec.inputs)


def domains_equal(left: WeightedSpec, right: WeightedSpec) -> bool:
    """dom(left) = dom(right) via DFA equivalence of the domain automata."""
    if set(left.inputs) != set(right.inputs):
        common = sorted(set(left.inputs) | set(right.inputs))
    else:
        common = left.inputs
    return _same_domain(left, left.initial, right, right.initial, common)


def reachable_states(spec: WeightedSpec):
    succ = {}
    for (src, sym), (tgt, _w) in spec.transitions.items():
        succ.setdefault(src, []).append((tgt, sym))
    return bfs(lambda q: succ.get(q, ()), [spec.initial])[0].keys()


def _live_states(spec: WeightedSpec):
    """States reachable from the initial state that also reach a final one."""
    pred = {}
    for (src, sym), (tgt, _w) in spec.transitions.items():
        pred.setdefault(tgt, []).append((src, sym))
    co_reach = bfs(lambda q: pred.get(q, ()), spec.finals)[0]
    return reachable_states(spec) & co_reach.keys()


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


_KINDS = ("ii", "oo", "io")


@dataclass
class TwoRunSafetyGame:
    """Safety game tracking Eve's run against Adam's run on shared input.

    Vertices are (kind, eve_state, adam_state) with kind ii / oo / io;
    Adam owns ii (he picks the next input) and io (he answers with his
    own output), Eve owns oo.  Dead runs are kept explicit so that a run
    that dies counts as non-accepting.  Eve loses when Adam's run is
    final while hers is not.

    The arena's vertices are 0..N-1 in breadth-first discovery order.
    Over the m run states (the spec's states in order, then the dead
    run), vertex v has the code (kind * m + eve) * m + adam in codes[v],
    and ids maps each code back to its vertex.
    """

    arena: Arena
    losing: frozenset
    codes: list
    ids: dict
    names: tuple

    def vertex(self, kind, eve, adam):
        """The vertex of (kind, eve, adam) by state indices, or None."""
        m = len(self.names)
        return self.ids.get((_KINDS.index(kind) * m + eve) * m + adam)

    def name(self, vertex):
        m = len(self.names)
        rest, adam = divmod(self.codes[vertex], m)
        kind, eve = divmod(rest, m)
        return (_KINDS[kind], self.names[eve], self.names[adam])


def build_two_run_game(spec: WeightedSpec) -> TwoRunSafetyGame:
    index = {q: k for k, q in enumerate(spec.states)}
    m = len(spec.states) + 1
    dead = m - 1

    def rows(symbols):
        """Per run state, the run state each symbol leads to."""
        table = []
        for q in spec.states:
            row = []
            for symbol in symbols:
                entry = spec.transitions.get((q, symbol))
                row.append(index[entry[0]] if entry else dead)
            table.append(row)
        table.append([dead] * len(symbols))
        return table

    in_rows = rows(spec.inputs)
    out_rows = rows(spec.outputs)
    mm = m * m
    start = index[spec.initial] * (m + 1)
    codes = [start]
    ids = {start: 0}
    eve_ids = []
    edges = []
    for vertex, code in enumerate(codes):  # codes grows: a FIFO queue
        kind, rest = divmod(code, mm)
        left, right = divmod(rest, m)
        if kind == 0:  # ii: Adam picks an input, both runs read it
            moves = [mm + l * m + r for l, r in zip(in_rows[left], in_rows[right])]
        elif kind == 1:  # oo: Eve's run outputs
            eve_ids.append(vertex)
            moves = [2 * mm + l * m + right for l in out_rows[left]]
        else:  # io: Adam's run outputs
            moves = [left * m + r for r in out_rows[right]]
        for nxt in moves:
            target = ids.get(nxt)
            if target is None:
                target = ids[nxt] = len(codes)
                codes.append(nxt)
            edges.append((vertex, "-", 0, target))
    final = [q in spec.finals for q in spec.states] + [False]
    losing = frozenset(
        v for v, code in enumerate(codes)
        if code < mm and final[code % m] and not final[code // m]
    )
    owner = dict.fromkeys(range(len(codes)), ADAM)
    owner.update(dict.fromkeys(eve_ids, EVE))
    arena = Arena(
        vertices=tuple(range(len(codes))),
        owner=owner,
        initial=0,
        edges=edges,
        critical=losing,
    )
    names = tuple(spec.states) + (_DEAD,)
    return TwoRunSafetyGame(arena, losing, codes, ids, names)


def two_run_game_to_dot(game: TwoRunSafetyGame) -> str:
    return games.arena_to_dot(
        game.arena, highlight=game.losing, label=lambda v: str(game.name(v))
    )


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
    forcing, _ = games.attractor(game.arena, game.losing, ADAM)
    if game.arena.initial in forcing:
        return NO_BOOLEAN_REALIZER
    index = {q: k for k, q in enumerate(spec.states)}

    def outside(kind, eve, adam):
        """Whether the vertex exists and Adam forces it into a losing one."""
        v = game.vertex(kind, index[eve], index[adam])
        return v is not None and v in forcing

    keep = {
        q for q in spec.states
        if not outside("ii" if spec.polarity[q] == INPUT else "oo", q, q)
    }
    transitions = {}
    for (src, sym), (tgt, w) in spec.transitions.items():
        if src not in keep or tgt not in keep:
            continue
        if spec.polarity[src] == OUTPUT and outside("io", tgt, src):
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
