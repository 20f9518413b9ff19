"""End-to-end synthesis pipelines and the independent realizer verifier.

Threshold synthesis plays the critical prefix game on the domain-safe
specification's arena (final states critical); best-value synthesis
searches Eve's positional strategies in that same arena (any best-value
realizer folds into a subautomaton of the spec, which is one of them);
approximate synthesis for Sum/Avg reduces to an imperfect-information
critical prefix energy game where Adam secretly runs a rival run of the
same automaton.  Eve's choices at a state are the arena's edges, in the
order of the state's alphabet.

verify_realizer is deliberately independent of the synthesis route: it
checks domains by DFA equivalence, and threshold, best-value and
approximate objectives on one synchronized product of the machine, the
spec run it produces and (for best-value and approx) a rival spec run.
Dsum checks that product letter by letter with the exact path checks of
dsumpath; Sum/Avg join each input step with its output fan into one
scaled integer edge for a min-walk search.  Every REALIZABLE result but
synth_approx's empty-domain machine passes it before being returned;
synth_approx minimizes its machine first, so it verifies what it returns.
Its reach, co-reach and witness searches run on the breadth-first kernel
core.bfs, as does every machine read-off (extract_transducer, belief
strategies); _value_product and the approximate game number their nodes
as they explore them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import domain as domain_mod
from . import games, prefix
from .core import (
    AVG,
    DSUM,
    INPUT,
    SUM,
    FormatError,
    InternalError,
    MealyTransducer,
    WeightedSpec,
    bfs,
    minimize_transducer,
    walk_back,
)
from .domain import make_domain_safe
from .dsumpath import NO as PATH_NO
from .dsumpath import WeightedGraph, exists_path_leq, exists_path_lt
from .games import ADAM, EVE, Arena

REALIZABLE = "realizable"
UNREALIZABLE = "unrealizable"
NO_BOOLEAN_REALIZER = "no_boolean_realizer"
UNKNOWN_AT_CAP = "unknown_at_cap"

PASS = "pass"
FAIL = "fail"

# helper states and vertices are 1-tuples: parsed names are strings
_GAME_SINK = ("dead_end",)
_COMPLETE_IN = ("absorb_in",)
_COMPLETE_OUT = ("absorb_out",)
_BOT = ("bot",)


@dataclass
class Objective:
    """What verify_realizer checks a transducer against."""

    kind: str  # boolean | threshold | best_value | approx
    cmp: Optional[str] = None  # threshold: > or >=   approx: < or <=
    bound: Optional[Fraction] = None  # threshold nu or approx r

    def __post_init__(self):
        if self.kind not in ("boolean", "threshold", "best_value", "approx"):
            raise ValueError("unknown objective kind %r" % self.kind)
        if self.kind == "threshold" and self.cmp not in (">", ">="):
            raise ValueError("threshold cmp must be '>' or '>='")
        if self.kind == "approx" and self.cmp not in ("<", "<="):
            raise ValueError("approx cmp must be '<' or '<='")
        if self.kind in ("threshold", "approx"):
            if self.bound is None:
                raise ValueError("%s needs a bound" % self.kind)
            self.bound = Fraction(self.bound)
        if self.kind == "approx" and self.bound < 0:
            raise ValueError("approximation slack must be nonnegative")


@dataclass
class SynthResult:
    status: str  # realizable | unrealizable | no_boolean_realizer | unknown_at_cap
    transducer: Optional[MealyTransducer] = None
    cap: Optional[int] = None


# ---------------------------------------------------------------------------
# Specification as a game arena


def spec_to_prefix_arena(spec: WeightedSpec) -> Arena:
    """Interpret the (domain-safe) spec as a critical prefix arena.

    Input states belong to Adam, output states to Eve, final states are
    critical; deadlocked states get a 0-weight exit to a fresh sink so
    plays never get stuck.  A spec transition's edge carries its symbol
    as the action; every other edge goes into the sink.  Each state's
    edges are listed in the order of its alphabet, states in spec order,
    so Eve's choices never depend on the order of a file's trans: lines.
    """
    vertices = list(spec.states)
    owner = {}
    edges = []
    dead = []
    for q in spec.states:
        adam = spec.polarity[q] == INPUT
        owner[q] = ADAM if adam else EVE
        before = len(edges)
        for sym in spec.inputs if adam else spec.outputs:
            entry = spec.transitions.get((q, sym))
            if entry is not None:
                edges.append((q, sym, entry[1], entry[0]))
        if len(edges) == before:
            dead.append(q)
    if dead:
        vertices.append(_GAME_SINK)
        owner[_GAME_SINK] = ADAM
        for q in dead:
            edges.append((q, "-", 0, _GAME_SINK))
        edges.append((_GAME_SINK, "-", 0, _GAME_SINK))
    return Arena(
        vertices=tuple(vertices),
        owner=owner,
        initial=spec.initial,
        edges=edges,
        critical=frozenset(spec.finals),
    )


def extract_transducer(spec: WeightedSpec, arena: Arena, strategy):
    """Mealy machine following Eve's positional strategy on the spec arena.

    State space: input states reachable under the strategy.  Domain
    equality with the spec holds by domain-safety (any followed run on a
    domain word ends in a final state).
    """
    transitions = {}

    def successors(p):
        for a in spec.inputs:
            entry = spec.transitions.get((p, a))
            if entry is None:
                continue
            mid = entry[0]
            if mid not in strategy.choice:
                raise ValueError("strategy undefined at reachable output state %r" % (mid,))
            _src, b, _w, tgt = arena.edges[strategy.choice[mid]]
            if tgt == _GAME_SINK:
                raise ValueError("strategy escapes the specification at %r" % (mid,))
            transitions[(p, a)] = (b, tgt)
            yield tgt, a

    seen = bfs(successors, [spec.initial])[0]
    return MealyTransducer(
        inputs=spec.inputs,
        outputs=spec.outputs,
        states=tuple(q for q in spec.states if q in seen),
        initial=spec.initial,
        finals=tuple(f for f in spec.finals if f in seen),
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# Independent verification


def _check_alphabets(spec, t):
    """A machine that uses a symbol the spec lacks is malformed input."""
    stray = [
        "stray %s %s" % (kind, " ".join(extra))
        for kind, extra in (
            ("inputs", [a for a in t.inputs if a not in spec.inputs]),
            ("outputs", [b for b in t.outputs if b not in spec.outputs]),
        )
        if extra
    ]
    if stray:
        raise FormatError("transducer and specification alphabets mismatch: " + "; ".join(stray))


def _domain_equal_witness(spec, t):
    """None when dom(t) = dom(spec), else a separating input word."""

    def step(s, a):
        entry = t.transitions.get((s, a))
        return entry[1] if entry else None

    machine = (t.initial, step, t.finals.__contains__)
    return domain_mod.first_difference(
        machine, domain_mod._domain(spec, spec.initial), spec.inputs
    )


def _boolean_witness(spec, t):
    """None when every accepted input's run accepts, else a witness word."""

    def successors(node):
        s, p = node
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
            yield (s2, p2), a

    def rejects(node):
        s, p = node
        return s in t.finals and (p is None or p not in spec.finals)

    links, found = bfs(successors, [(t.initial, spec.initial)], rejects)
    return None if found is None else walk_back(links, found)


def _min_walk_below(n, edges, accepting, threshold, verdict_only=False):
    """Is there a walk from node 0 to an accepting node of value < threshold?

    Nodes are 0..n-1, every one reachable from node 0, in breadth-first
    discovery order over edges, a list of (src, weight, dst, label).
    Returns None or the labels of a violating walk.  One Bellman-Ford pass
    over the live nodes (those reaching an accepting node), in
    O(|live| * |edges|): without a relaxation in round |live|, the parent
    chain of the cheapest accepting node is the witness; otherwise |live|
    parent steps back from the relaxed node land on a negative cycle
    (Cherkassky & Goldberg, Math. Prog. 1999), which the witness pumps
    just enough.  With verdict_only, it returns an empty list as soon as
    a relaxation brings an accepting node below threshold: every relaxed
    distance is the value of a real walk, so that is a violation, though
    its parent chain may run through a cycle.
    """
    backward = [[] for _ in range(n)]
    for edge in edges:
        backward[edge[2]].append((edge[0], edge))
    live = bfs(backward.__getitem__, accepting)[0]
    if 0 not in live:
        return None
    n_live = len(live)
    live_edges = [edge for edge in edges if edge[0] in live and edge[2] in live]
    stop_at = frozenset(accepting) if verdict_only else ()
    dist = [None] * n
    dist[0] = 0
    parent = [None] * n  # node -> (prev, edge)
    relaxed = None
    for rounds in range(1, n_live + 1):
        changed = False
        for edge in live_edges:
            src, w, dst, _label = edge
            if dist[src] is None:
                continue
            cand = dist[src] + w
            if dist[dst] is None or cand < dist[dst]:
                if dst in stop_at and cand < threshold:
                    return []
                dist[dst] = cand
                parent[dst] = (src, edge)
                changed = True
                if rounds == n_live:
                    relaxed = dst
                    break
        if not changed or relaxed is not None:
            break

    if relaxed is None:
        best = min((node for node in accepting if node in live), key=dist.__getitem__)
        if dist[best] >= threshold:
            return None
        return [edge[3] for edge in walk_back(parent, best)]

    on_cycle = relaxed
    for _ in range(n_live):
        on_cycle = parent[on_cycle][0]
    cycle = []
    node = on_cycle
    for _ in range(n_live):
        node, edge = parent[node]
        cycle.append(edge)
        if node == on_cycle:
            break
    cycle_sum = sum(edge[1] for edge in cycle)
    if node != on_cycle or cycle_sum >= 0:
        raise InternalError("parent walk found no negative cycle")
    cycle.reverse()

    forward = [[] for _ in range(n)]
    for edge in edges:
        forward[edge[0]].append((edge[2], edge))
    goals = set(accepting)
    stem = walk_back(*bfs(forward.__getitem__, [0], lambda node: node == on_cycle))
    tail = walk_back(*bfs(forward.__getitem__, [on_cycle], goals.__contains__))
    base = sum(edge[1] for edge in stem + tail)
    # smallest laps with base + laps*cycle_sum < threshold
    laps = 0
    if base >= threshold:
        need = base - threshold  # need laps*|cycle_sum| > need
        laps = need // (-cycle_sum) + 1
    return [edge[3] for edge in stem + cycle * laps + tail]


def _value_product(spec, t, rival):
    """The synchronized product of t with the spec run it produces, and with
    a rival run of the spec on the same inputs when rival is set.

    One BFS over input nodes (s, p[, q]), numbered in discovery order,
    records a step (node number, a, w_in, mid, fan) for every input a the
    runs can read.  mid = (s2, p2[, q2], b) is the output node, where b is
    t's output and the rival may take any output, and its fan
    [(w_out, next node number)] is built when mid is first reached and
    shared by every later step.  Weights are the main run's minus the
    rival's.  Returns (input nodes, steps, {mid: fan}, accepting node
    numbers).
    """
    trans = spec.transitions
    start = (t.initial, spec.initial) + ((spec.initial,) if rival else ())
    order = [start]
    number = {start: 0}
    steps = []
    fans = {}
    for src, node in enumerate(order):
        s, p = node[0], node[1]
        for a in spec.inputs:
            entry = t.transitions.get((s, a))
            mid_p = trans.get((p, a))
            if entry is None or mid_p is None:
                continue
            b, s2 = entry
            if rival:
                mid_q = trans.get((node[2], a))
                if mid_q is None:
                    continue
                mid = (s2, mid_p[0], mid_q[0], b)
                w_in = mid_p[1] - mid_q[1]
            else:
                mid = (s2, mid_p[0], b)
                w_in = mid_p[1]
            fan = fans.get(mid)
            if fan is None:
                fan = fans[mid] = []
                out = trans.get((mid_p[0], b))
                if out is None:
                    nexts = ()
                elif rival:
                    nexts = []
                    for c in spec.outputs:
                        adv = trans.get((mid_q[0], c))
                        if adv is not None:
                            nexts.append((out[1] - adv[1], (s2, out[0], adv[0])))
                else:
                    nexts = ((out[1], (s2, out[0])),)
                for w, nxt in nexts:
                    dst = number.get(nxt)
                    if dst is None:
                        dst = number[nxt] = len(order)
                        order.append(nxt)
                    fan.append((w, dst))
            steps.append((src, a, w_in, mid, fan))
    finals = set(spec.finals)
    accepting = [
        i for i, node in enumerate(order)
        if node[0] in t.finals and finals.issuperset(node[1:])
    ]
    return order, steps, fans, accepting


def _value_witness(spec, t, rival, bound, at_equal, verdict_only=False):
    """A domain word on which some walk of _value_product has value < bound
    (<= bound when at_equal), or None.  With verdict_only, a Sum/Avg word
    may be cut short: only whether it is None counts.

    Dsum checks the letter-level product itself, steps and fans as
    separate edges.  Sum/Avg join each step with its fan into one edge of
    weight scale*(w_in + w_out) + shift, with bound = num/scale: Sum has
    shift 0 and limit num, Avg has shift -2*num and limit 0 (a walk of k
    joined edges has average below the bound iff its shifted sum is below
    0), and at_equal adds 1 to the integer limit.
    """
    bound = Fraction(bound)
    order, steps, fans, accepting = _value_product(spec, t, rival)
    if spec.measure == DSUM:
        # one graph holds both kinds of node, so each is tagged with its kind
        ins = [("in",) + node for node in order]
        mids = {mid: ("mid",) + mid for mid in fans}
        edges = [(ins[src], w, mids[mid]) for src, _a, w, mid, _fan in steps]
        labels = [step[1] for step in steps]
        for mid, fan in fans.items():
            edges.extend((mids[mid], w, ins[dst]) for w, dst in fan)
        graph = WeightedGraph(
            vertices=(*ins, *mids.values()),
            edges=edges,
            source=ins[0],
            targets=frozenset(ins[i] for i in accepting),
            discount=spec.discount,
        )
        checker = exists_path_leq if at_equal else exists_path_lt
        answer, witness = checker(graph, bound)
        if answer == PATH_NO:
            return None
        # the step edges come first; fan edges read no input letter
        return tuple(labels[i] for i in witness.edges if i < len(labels))
    scale, num = bound.denominator, bound.numerator
    shift, limit = (0, num) if spec.measure == SUM else (-2 * num, 0)
    edges = [
        (src, scale * (w_in + w_out) + shift, dst, a)
        for src, a, w_in, _mid, fan in steps
        for w_out, dst in fan
    ]
    labels = _min_walk_below(
        len(order), edges, accepting, limit + at_equal, verdict_only=verdict_only
    )
    return None if labels is None else tuple(labels)


def verify_realizer(
    spec: WeightedSpec, t: MealyTransducer, obj: Objective, *, verdict_only=False
):
    """Independent check of a candidate realizer; (PASS, None) or (FAIL, word).

    Boolean: domain equality plus acceptance of every produced pair.
    Threshold: no domain word's pair value may fall at or below the line.
    Best-value / approximate: no adversary run may beat the produced run
    by more than the allowed slack (best-value is slack 0, non-strict).
    verdict_only is for callers that read the verdict alone: a FAIL then
    comes as (FAIL, None), and a Sum/Avg value check may stop at the
    first violating walk instead of building its witness.  It also runs
    the value check first, since the FAIL verdict does not depend on
    which check fails; only a machine that passes it pays for the domain
    and Boolean checks.
    """
    _check_alphabets(spec, t)
    checks = [_domain_equal_witness, _boolean_witness]
    if obj.kind != "boolean":
        checks.insert(0 if verdict_only else 2, _value_check(obj, verdict_only))
    for check in checks:
        witness = check(spec, t)
        if witness is not None:
            return FAIL, None if verdict_only else tuple(witness)
    return PASS, None


def _value_check(obj, verdict_only):
    """The value check of a threshold, best-value or approx objective, as a
    function of (spec, t) like the domain and Boolean checks."""
    if obj.kind == "threshold":
        bound, rival, at_equal = obj.bound, False, obj.cmp == ">"
    elif obj.kind == "best_value":
        bound, rival, at_equal = 0, True, False
    else:
        bound, rival, at_equal = -obj.bound, True, obj.cmp == "<"
    return lambda spec, t: _value_witness(spec, t, rival, bound, at_equal, verdict_only)


def _require_pass(verdict, witness):
    """Every REALIZABLE answer must pass verify_realizer."""
    if verdict != PASS:
        raise InternalError(
            "synthesized transducer failed verification on %r" % (witness,)
        )


# ---------------------------------------------------------------------------
# Threshold synthesis


def synth_threshold(spec: WeightedSpec, cmp: str, nu) -> SynthResult:
    nu = Fraction(nu)
    safe = make_domain_safe(spec)
    if safe is None:
        return SynthResult(status=NO_BOOLEAN_REALIZER)
    arena = spec_to_prefix_arena(safe)
    obj = prefix.PrefixObjective(
        measure=spec.measure, cmp=cmp, nu=nu, discount=spec.discount
    )
    winner, strategy = prefix.solve_prefix_threshold(arena, obj)
    if winner == ADAM:
        return SynthResult(status=UNREALIZABLE)
    t = extract_transducer(safe, arena, strategy)
    verdict, witness = verify_realizer(
        spec, t, Objective(kind="threshold", cmp=cmp, bound=nu)
    )
    _require_pass(verdict, witness)
    return SynthResult(status=REALIZABLE, transducer=t)


# ---------------------------------------------------------------------------
# Best-value synthesis


def synth_best_value(spec: WeightedSpec) -> SynthResult:
    """Search Eve's positional strategies on the domain-safe spec arena.

    Complete because a best-value realizer can be folded into a
    subautomaton of the specification, which is such a strategy, and
    Boolean realizers never leave the safety region that make_domain_safe
    keeps.  Each strategy is read off as a machine and verified; the
    first that passes is returned.
    """
    safe = make_domain_safe(spec)
    if safe is None:
        return SynthResult(status=NO_BOOLEAN_REALIZER)
    arena = spec_to_prefix_arena(safe)
    objective = Objective(kind="best_value")
    for strategy in prefix.enumerate_positional(arena):
        candidate = extract_transducer(safe, arena, strategy)
        verdict, _witness = verify_realizer(spec, candidate, objective, verdict_only=True)
        if verdict == PASS:
            return SynthResult(status=REALIZABLE, transducer=candidate)
    return SynthResult(status=UNREALIZABLE)


# ---------------------------------------------------------------------------
# Approximate synthesis


def _step(spec: WeightedSpec, q, sym, sink):
    """(target, weight) of q's sym-step.  A missing step leads at weight 0
    to sink: _COMPLETE_OUT after an input, _COMPLETE_IN after an output.
    The sinks are non-final and have no steps, so a dead run stays dead."""
    return spec.transitions.get((q, sym)) or (sink, 0)


def build_approx_game(spec: WeightedSpec, cmp: str, r):
    """Imperfect-information critical prefix energy game for approximate
    synthesis: Eve steers a run of the automaton while Adam secretly
    steers a rival run over the trimmed states, sharing inputs.  Eve's
    run may die: a missing step moves it at weight 0 into the non-final
    sinks of _step, where it stays.

    Avg adds the (scaled) slack to every step's weight; Sum instead
    grants it as initial credit.  The strict variant charges one unit
    once, on the moves leaving a one-shot copy of the initial vertex.
    Vertices are numbered in breadth-first order: the initial pair is 0,
    _BOT is 1, and the start copy comes last; each one's moves are grouped
    by action as it is expanded.  Returns (prefix.PrefixEnergyGame,
    initial credit) for what synth_approx has checked: a Sum or Avg spec,
    cmp "<" or "<=", an int or Fraction r >= 0.
    """
    strict = cmp == "<"
    scale, slack = r.denominator, r.numerator
    trimmed = domain_mod._live_states(spec)
    per_step = slack if spec.measure == AVG else 0
    initial = (spec.initial, spec.initial)
    names = [initial, _BOT]  # vertex -> its name: (p, q), (p, q, a) or _BOT
    number = {initial: 0, _BOT: 1}
    table = {}
    obs = {1: _BOT}
    critical = {1}

    def vertex(name):
        if name not in number:
            number[name] = len(names)
            names.append(name)
        return number[name]

    for v, name in enumerate(names):  # the loop reaches the vertices it appends
        if v == 1:
            table[v] = {"choose": [(-1, v)]}
        elif len(name) == 2:
            p, q = name
            obs[v] = ("i", p)
            moves = []
            for a in spec.inputs:
                q2, wq = _step(spec, q, a, _COMPLETE_OUT)
                if q2 in trimmed:
                    p2, wp = _step(spec, p, a, _COMPLETE_OUT)
                    moves.append((scale * (wp - wq) + per_step, vertex((p2, q2, a))))
            if q in spec.finals:
                critical.add(v)
                if p not in spec.finals:
                    moves.append((0, 1))
            moves.append((0, v))
            table[v] = {"choose": moves}
        else:
            p, q, a = name
            obs[v] = ("o", p, a)
            rival = [(q2, wq) for q2, wq in (_step(spec, q, b, _COMPLETE_IN) for b in spec.outputs)
                     if q2 in trimmed]
            options = table[v] = {}
            if rival:
                for b in spec.outputs:
                    p2, wp = _step(spec, p, b, _COMPLETE_IN)
                    options[b] = [(scale * (wp - wq) + per_step, vertex((p2, q2)))
                                  for q2, wq in rival]

    credit = 0 if spec.measure == AVG else (slack if not strict else slack - 1)
    start = 0
    if strict and spec.measure == AVG:
        start = len(table)
        table[start] = {"choose": [(w - 1, dst) for w, dst in table[0]["choose"]]}
        obs[start] = obs[0]
        if 0 in critical:
            critical.add(start)

    return prefix.PrefixEnergyGame(
        vertices=range(len(table)),
        initial=start,
        actions=("choose",) + tuple(spec.outputs),
        table=table,
        obs=obs,
        critical=frozenset(critical),
    ), credit


def _transducer_from_belief_strategy(spec, strategy):
    """Read the Mealy machine off a winning observation-based strategy.

    Beliefs sitting at input observations become machine states; input a
    leads through the observation (o, step(p,a), a), where the strategy
    names the output symbol, and on to the next input observation (i, p3),
    whose p3 is recorded as the reached belief's input state.
    """
    state_of = {strategy.initial: spec.initial}  # belief -> its input state
    moves = {}  # (belief, a) -> (b, next belief)
    finals = []

    def successors(belief):
        p = state_of[belief]
        if p in spec.finals:
            finals.append(belief)
        for a in spec.inputs:
            p2 = _step(spec, p, a, _COMPLETE_OUT)[0]
            mid = strategy.step.get((belief, ("o", p2, a)))
            if mid is None:
                continue
            b = strategy.act[mid]
            p3 = _step(spec, p2, b, _COMPLETE_IN)[0]
            # every move of the mid belief's action lands at (i, p3)
            nxt = strategy.step[(mid, ("i", p3))]
            state_of[nxt] = p3
            moves[(belief, a)] = (b, nxt)
            yield nxt, a

    beliefs = bfs(successors, [strategy.initial])[0]
    name = {belief: "m%d" % k for k, belief in enumerate(beliefs)}
    return MealyTransducer(
        inputs=spec.inputs,
        outputs=spec.outputs,
        states=tuple(name.values()),
        initial=name[strategy.initial],
        finals=tuple(name[belief] for belief in finals),
        transitions={
            (name[belief], a): (b, name[nxt]) for (belief, a), (b, nxt) in moves.items()
        },
    )


def synth_approx(spec: WeightedSpec, cmp: str, r, cap: int, *, doubling=False) -> SynthResult:
    """Approximate synthesis via the capped knowledge solver.

    WIN yields a verified transducer, minimized; NOT_WIN_AT_CAP is
    reported as UNKNOWN_AT_CAP since the cap never certifies
    unrealizability.  With doubling, the solver tries caps 1, 2, 4, ...
    below cap and then cap, on the one game, and the first win is the
    answer.  A win at a cap is a win at every larger cap, so the status
    is the one cap alone gives; the machine and the work may be smaller.
    """
    if spec.measure not in (SUM, AVG):
        raise ValueError(
            "approximate synthesis supports sum and avg; dsum requires external "
            "determinization and is not offered"
        )
    if cmp not in ("<", "<="):
        raise ValueError("cmp must be '<' or '<='")
    r = Fraction(r)
    if r < 0:
        raise ValueError("approximation slack must be nonnegative")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if domain_mod.reachable_states(spec).isdisjoint(spec.finals):
        t = MealyTransducer(
            inputs=spec.inputs,
            outputs=spec.outputs,
            states=(spec.initial,),
            initial=spec.initial,
            finals=(),
            transitions={},
        )
        return SynthResult(status=REALIZABLE, transducer=minimize_transducer(t))
    if cmp == "<" and r == 0:
        return SynthResult(status=UNREALIZABLE)

    game, credit = build_approx_game(spec, cmp, r)
    reduced, buffered = prefix.reduce_prefix_energy_to_energy(game, credit)
    caps = [cap]
    if doubling:
        caps = [2**k for k in range(cap.bit_length()) if 2**k < cap] + caps
    # the solver starts from the buffered credit, so a cap below it plays at it
    for c in dict.fromkeys(max(c, buffered) for c in caps):
        status, strategy = games.solve_imperfect_energy_capped(reduced, buffered, c)
        if status == games.WIN:
            break
    if status != games.WIN:
        return SynthResult(status=UNKNOWN_AT_CAP, cap=cap)
    t = minimize_transducer(_transducer_from_belief_strategy(spec, strategy))
    verdict, witness = verify_realizer(
        spec, t, Objective(kind="approx", cmp=cmp, bound=r)
    )
    _require_pass(verdict, witness)
    return SynthResult(status=REALIZABLE, transducer=t)


# ---------------------------------------------------------------------------
# Church totalization


def totalize_for_church(t: MealyTransducer, o0) -> MealyTransducer:
    """Make the machine total: missing inputs head to a fresh sink that
    emits o0 forever.  Finality is untouched, so the recognized partial
    function is unchanged; the total machine is the per-step strategy a
    Church-style synthesizer needs."""
    if o0 not in t.outputs:
        raise ValueError("default output %r not in the output alphabet" % (o0,))
    sink = "__church_sink__"
    while sink in t.states:
        sink += "_"
    transitions = dict(t.transitions)
    for q in tuple(t.states) + (sink,):
        for a in t.inputs:
            transitions.setdefault((q, a), (o0, sink))
    return MealyTransducer(
        inputs=t.inputs,
        outputs=t.outputs,
        states=tuple(t.states) + (sink,),
        initial=t.initial,
        finals=t.finals,
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# Mean-payoff hardness generator


def gen_spec_from_mp_game(arena: Arena):
    """Sum specification whose threshold->=0 synthesis answer equals the
    mean-payoff winner of the arena.

    Adam vertices read inputs, Eve vertices read outputs; a fresh prefix
    charges N (the sum of all absolute weights) so no honest play can
    dip below zero without an actual negative cycle, and a stop input
    lets Adam cash the current sum at the unique final state.
    """
    if arena.deadlocks():
        raise ValueError("mean-payoff generator needs a deadlock-free arena")

    # force strict Adam/Eve alternation with relay vertices
    vertices = list(arena.vertices)
    owner = dict(arena.owner)
    edges = []
    relay_count = 0
    for src, _a, w, dst in arena.edges:
        if arena.owner[src] != arena.owner[dst]:
            edges.append((src, w, dst))
        else:
            relay = ("relay", relay_count)
            relay_count += 1
            vertices.append(relay)
            owner[relay] = EVE if arena.owner[src] == ADAM else ADAM
            edges.append((src, w, relay))
            edges.append((relay, 0, dst))
    initial = arena.initial
    if owner[initial] == EVE:
        pre = ("relay", relay_count)
        relay_count += 1
        vertices.append(pre)
        owner[pre] = ADAM
        edges.append((pre, 0, initial))
        initial = pre

    out_of = {v: [] for v in vertices}
    for src, w, dst in edges:
        out_of[src].append((w, dst))
    m = max(len(out_of[v]) for v in vertices if owner[v] == ADAM)
    eve_degrees = [len(out_of[v]) for v in vertices if owner[v] == EVE]
    n = max(eve_degrees) if eve_degrees else 1
    big = sum(abs(w) for _s, w, _d in edges)

    inputs = tuple("a%d" % i for i in range(1, m + 1)) + ("stop",)
    outputs = tuple("b%d" % i for i in range(1, n + 1))

    def state(v):
        # relays are tuples and get their own prefix, so they can never
        # collide with a g_-prefixed original vertex name
        return "rel%d" % v[1] if isinstance(v, tuple) else "g_%s" % (v,)

    transitions = {}
    states = ["start", "boot"]
    transitions[("start", "a1")] = ("boot", 0)
    transitions[("boot", "b1")] = (state(initial), big)
    for v in vertices:
        states.append(state(v))
        symbols = inputs if owner[v] == ADAM else outputs
        listed = out_of[v]
        for j, (w, dst) in enumerate(listed):
            transitions[(state(v), symbols[j])] = (state(dst), w)
        if owner[v] == ADAM:
            for j in range(len(listed), m):
                w, dst = listed[0]
                transitions[(state(v), symbols[j])] = (state(dst), w)
            transitions[(state(v), "stop")] = ("halt", 0)
    states.extend(["halt", "end"])
    transitions[("halt", "b1")] = ("end", 0)

    spec = WeightedSpec(
        inputs=inputs,
        outputs=outputs,
        states=tuple(states),
        initial="start",
        finals=("end",),
        transitions=transitions,
        measure=SUM,
    )
    return spec, (SUM, ">=", Fraction(0))
