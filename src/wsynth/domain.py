"""Domain automata, domain-safety analysis, and the safe transformation.

The domain automaton of a weighted specification keeps input transitions
and turns every output transition into an epsilon move; it accepts exactly
the specification's domain.  An output transition (p, b, q) is domain-safe
when L(A_dom, p) = L(A_dom, q), i.e. taking it never discards domain
words.  A specification where every reachable output transition is safe
lets a strategy follow any run without monitoring the domain: every run
on a domain word ends in a final state.

The domain automaton is determinized lazily, one subset at a time; each
spec memoizes its subset steps in its own table, so every question asked
of one spec (membership, residual equality, the verifier's domain check)
shares them.  All domain comparisons run one difference search,
first_difference.

make_domain_safe prunes an arbitrary specification into an equivalent
domain-safe one (same domain, same Boolean realizers) by solving a safety
game that tracks two runs on the same input, or returns None when no
Boolean realizer exists at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import chain, repeat

from . import games
from .core import INPUT, OUTPUT, WeightedSpec, bfs, walk_back, word
from .games import ADAM, EVE, Arena

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


def _state_closure(spec: WeightedSpec, state):
    """_closure of one state, memoized in the spec's closure table."""
    if state not in spec._closures:
        spec._closures[state] = _closure(spec, (state,))
    return spec._closures[state]


def _dom_step(spec: WeightedSpec, subset, symbol):
    """The union of the closures of symbol's targets, memoized per spec."""
    key = (subset, symbol)
    nxt = spec._dom_steps.get(key)
    if nxt is None:
        nxt = set()
        for q in subset:
            if spec.polarity[q] == INPUT:
                entry = spec.transitions.get((q, symbol))
                if entry is not None:
                    nxt |= _state_closure(spec, entry[0])
        nxt = spec._dom_steps[key] = frozenset(nxt)
    return nxt


def _accepts(spec: WeightedSpec, subset):
    return not subset.isdisjoint(spec.finals)


def domain_membership(spec: WeightedSpec, u) -> bool:
    """Whether some output word completes u into the specification."""
    subset = _state_closure(spec, spec.initial)
    for a in word(u):
        subset = _dom_step(spec, subset, a)
        if not subset:
            return False
    return _accepts(spec, subset)


def _domain(spec: WeightedSpec, state):
    """The determinized domain automaton of spec from state, as
    (start, step, accepts) for first_difference."""
    return _state_closure(spec, state), partial(_dom_step, spec), partial(_accepts, spec)


def first_difference(left, right, symbols):
    """The shortest word over symbols on which two deterministic automata
    disagree, or None.  Each automaton is (start, step, accepts); the
    search is a BFS of their product for a pair that disagrees."""
    (l_start, l_step, l_accepts), (r_start, r_step, r_accepts) = left, right

    def successors(pair):
        lstate, rstate = pair
        for a in symbols:
            yield (l_step(lstate, a), r_step(rstate, a)), a

    def differs(pair):
        return l_accepts(pair[0]) != r_accepts(pair[1])

    links, found = bfs(successors, [(l_start, r_start)], differs)
    return None if found is None else walk_back(links, found)


def residual_languages_equal(spec: WeightedSpec, p, q) -> bool:
    """L(A_dom, p) = L(A_dom, q)."""
    return first_difference(_domain(spec, p), _domain(spec, q), spec.inputs) is None


def reachable_states(spec: WeightedSpec):
    succ = {}
    for (src, sym), (tgt, _w) in spec.transitions.items():
        succ.setdefault(src, []).append((tgt, sym))
    return bfs(lambda q: succ.get(q, ()), [spec.initial])[0].keys()


def _live_states(spec: WeightedSpec, transitions=None):
    """States reachable from the initial state that also reach a final one,
    along transitions (the spec's own by default), by two worklist sweeps."""
    succ, pred = {q: [] for q in spec.states}, {q: [] for q in spec.states}
    for (src, _sym), (tgt, _w) in (spec.transitions if transitions is None else transitions).items():
        succ[src].append(tgt)
        pred[tgt].append(src)
    reach, co_reach = {spec.initial}, set(spec.finals)
    for seen, adjacency in ((reach, succ), (co_reach, pred)):
        queue = list(seen)
        for q in queue:
            for nxt in adjacency[q]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return reach & co_reach


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


def _successors(kind, level, m, in_rows, out_rows):
    """Each successor code of level's codes, all of one kind, in edge order."""
    mm = m * m
    if kind == 0:  # ii: Adam picks an input, both runs read it
        return [mm + l * m + r for c in level for l, r in zip(in_rows[c // m], in_rows[c % m])]
    if kind == 1:  # oo: Eve's run outputs
        return [l * m + r for c in level for r in (c % m + 2 * mm,) for l in out_rows[c // m - m]]
    # io: Adam's run outputs
    return [b + r for c in level for b in (c - c % m - 2 * mm,) for r in out_rows[c % m]]


@dataclass
class TwoRunSafetyGame:
    """Safety game tracking Eve's run against Adam's run on shared input.

    Vertices are (kind, eve_state, adam_state) with kind ii / oo / io;
    Adam owns ii (he picks the next input) and io (he answers with his
    own output), Eve owns oo.  Dead runs are kept explicit so that a run
    that dies counts as non-accepting, and so every ii vertex has one edge
    per input and every other one per output.  Eve loses when Adam's run
    is final while hers is not: the critical vertices.

    Over the m run states (the spec's states in order, then the dead run),
    a vertex has the code (kind * m + eve) * m + adam.  codes lists the
    reached codes in breadth-first discovery order, so vertex v is codes[v];
    preds maps each reached code to its predecessor codes, one entry per
    edge; critical holds the critical codes.  names holds the run states'
    names; the dead run's is __dead__, extended with _ until no spec state
    has it.  in_rows and out_rows give the run state each input and output
    leads to; moves[v], v's successor codes in edge order, derives from them.
    """

    codes: list
    preds: dict
    names: tuple
    critical: frozenset
    in_rows: list
    out_rows: list

    @cached_property
    def moves(self) -> list:
        m = len(self.names)
        return [_successors(code // (m * m), [code], m, self.in_rows, self.out_rows)
                for code in self.codes]

    @cached_property
    def arena(self) -> Arena:
        """The game as a generic Arena on vertices 0..N-1, built on first access."""
        ids = {code: v for v, code in enumerate(self.codes)}
        mm = len(self.names) ** 2
        return Arena(
            vertices=tuple(range(len(self.codes))),
            owner={v: EVE if mm <= code < 2 * mm else ADAM for v, code in enumerate(self.codes)},
            initial=0,
            edges=[(v, "-", 0, ids[nxt]) for v, moves in enumerate(self.moves) for nxt in moves],
            critical=frozenset(ids[code] for code in self.critical),
        )

    def name(self, vertex):
        m = len(self.names)
        rest, adam = divmod(self.codes[vertex], m)
        kind, eve = divmod(rest, m)
        return (_KINDS[kind], self.names[eve], self.names[adam])


def build_two_run_game(spec: WeightedSpec) -> TwoRunSafetyGame:
    index = {q: k for k, q in enumerate(spec.states)}
    m = len(spec.states) + 1
    dead = m - 1
    in_rows = [[dead] * len(spec.inputs) for _ in range(m)]
    out_rows = [[dead] * len(spec.outputs) for _ in range(m)]
    columns = {INPUT: (in_rows, {a: k for k, a in enumerate(spec.inputs)}),
               OUTPUT: (out_rows, {b: k for k, b in enumerate(spec.outputs)})}
    for (src, sym), (tgt, _w) in spec.transitions.items():
        rows, column = columns[spec.polarity[src]]
        rows[index[src]][column[sym]] = index[tgt]
    degree = (len(spec.inputs), len(spec.outputs), len(spec.outputs))
    final = [q in spec.finals for q in spec.states] + [False]
    start = index[spec.initial] * (m + 1)
    codes = [start]
    preds = {start: []}
    critical = []
    # every edge goes ii -> oo -> io -> ii, so each breadth-first level holds
    # one kind, and level-by-level first-seen dedup keeps FIFO discovery order
    level, kind = [start], 0
    while level:
        if kind == 0:
            critical += [c for c in level if final[c % m] and not final[c // m]]
        fresh = []
        parents = chain.from_iterable(zip(*repeat(level, degree[kind])))
        for code, nxt in zip(parents, _successors(kind, level, m, in_rows, out_rows)):
            sources = preds.get(nxt)
            if sources is None:
                preds[nxt] = [code]
                fresh.append(nxt)
            else:
                sources.append(code)
        codes += fresh
        level, kind = fresh, (kind + 1) % 3
    dead_name = _DEAD
    while dead_name in index:
        dead_name += "_"
    names = tuple(spec.states) + (dead_name,)
    return TwoRunSafetyGame(codes, preds, names, frozenset(critical), in_rows, out_rows)


def two_run_game_to_dot(game: TwoRunSafetyGame) -> str:
    return games.arena_to_dot(
        game.arena, highlight=game.arena.critical, label=lambda v: str(game.name(v))
    )


def trim(spec: WeightedSpec, transitions) -> WeightedSpec:
    """Keep states reachable from the initial and co-reachable to a final,
    along transitions (a subset of the spec's).

    The initial state always survives so the result stays well-formed;
    when it is not co-reachable the domain is empty and the result keeps
    no transitions.
    """
    live = _live_states(spec, transitions)
    keep = live | {spec.initial}
    return replace(
        spec,
        states=tuple(q for q in spec.states if q in keep),
        finals=tuple(f for f in spec.finals if f in keep),
        transitions={k: v for k, v in transitions.items() if k[0] in live and v[0] in live},
        polarity={q: spec.polarity[q] for q in spec.states if q in keep},
    )


def make_domain_safe(spec: WeightedSpec, game=None):
    """Prune to a domain-safe spec with the same domain and realizers.

    Returns None when Eve loses the two-run safety game from the diagonal
    initial vertex, i.e. when no transducer with the specification's
    domain can stay inside the relation.  game is spec's two-run game,
    built here unless the caller already has it.

    Otherwise an output transition (p, b, q) is dropped when Adam forces a
    loss from (io, q, p), and trim drops what then lies on no accepting
    run.  That drops each reachable q whose diagonal vertex (reached when
    both runs follow q's path) Adam attracts: from each (io, q, p) he plays
    b into (ii, q, q), so all transitions into q go; Eve's moves from
    (oo, q, q) lead to the (io, q', q) of q's transitions, so all out of q go.
    """
    if game is None:
        game = build_two_run_game(spec)
    m = len(game.names)
    mm = m * m
    # Eve owns the oo codes, mm..2mm-1, each with one edge per output
    forcing, _ = games.attract(game.preds, range(mm, 2 * mm), lambda _code: len(spec.outputs),
                               game.critical)
    if game.codes[0] in forcing:  # the initial vertex
        return None
    index = {q: k for k, q in enumerate(spec.states)}
    transitions = {
        (src, sym): (tgt, w) for (src, sym), (tgt, w) in spec.transitions.items()
        if spec.polarity[src] == INPUT or 2 * mm + index[tgt] * m + index[src] not in forcing
    }
    return trim(spec, transitions)
