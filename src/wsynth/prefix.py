"""Critical prefix threshold games and their reductions.

A critical prefix game checks a quantitative condition only at prefixes
ending in a critical vertex.  Sum and Avg thresholds reduce to
mean-payoff (subtract the threshold, add cash-in edges from critical
vertices back to the initial vertex); a non-strict Dsum threshold
reduces to a discounted-sum game with stop gadgets (Adam may freeze the
value whenever a check falls due); a strict Dsum threshold admits no
such reduction and is solved by enumerating Eve's positional strategies
and path-checking each one, which is complete because positional
strategies suffice.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import games
from .core import AVG, DSUM, SUM, InternalError
from .dsumpath import NO, WeightedGraph, exists_path_leq, exists_path_lt
from .games import ADAM, EVE, Arena, ImperfectArena, PositionalStrategy

# helper vertices are 1-tuples: parsed vertex names are strings
_SINK = ("sink",)


@dataclass
class PrefixObjective:
    """Threshold objective checked at every critical prefix."""

    measure: str
    cmp: str  # ">" or ">="
    nu: Fraction
    discount: Optional[Fraction] = None

    def __post_init__(self):
        if self.measure not in (SUM, AVG, DSUM):
            raise ValueError("unknown measure %r" % self.measure)
        if self.cmp not in (">", ">="):
            raise ValueError("cmp must be '>' or '>='")
        self.nu = Fraction(self.nu)
        if self.measure == DSUM:
            if self.discount is None or not (0 < Fraction(self.discount) < 1):
                raise ValueError("dsum needs a discount strictly between 0 and 1")
            self.discount = Fraction(self.discount)
        elif self.discount is not None:
            raise ValueError("discount only makes sense for dsum")


def reduce_avg_to_sum(arena: Arena, nu: Fraction):
    """Same arena with weights q*w - p for nu = p/q; objective becomes Sum cmp 0."""
    nu = Fraction(nu)
    return _reweight(arena, nu.denominator, nu.numerator), Fraction(0)


def _reweight(arena: Arena, scale: int, shift: int):
    """Same arena with every weight w replaced by scale*w - shift: the
    arena itself when that changes no weight."""
    if (scale, shift) == (1, 0):
        return arena
    edges = [(src, a, scale * w - shift, dst) for src, a, w, dst in arena.edges]
    return Arena(
        vertices=arena.vertices,
        owner=dict(arena.owner),
        initial=arena.initial,
        edges=edges,
        critical=arena.critical,
    )


@dataclass
class MeanPayoffReduction:
    arena: Arena
    edge_origin: list  # reduced edge index -> original edge index or None


def reduce_sum_prefix_to_mp(arena: Arena, cmp: str, nu: int, forcing):
    """Critical prefix Sum game to a mean-payoff >= 0 game.

    nu must already be an integer (callers scale rational thresholds into
    the weights); a strict comparison is first lowered to >= nu+1.
    forcing is the set of vertices from which Adam can force a critical
    visit.  The others are replaced by an absorbing zero vertex (no check
    is ever due there), critical vertices gain a cash-in edge of weight
    -nu back to the initial vertex, and Eve-owned critical vertices are
    split so that Adam owns the moment of the check.
    """
    if cmp == ">":
        nu = nu + 1

    vertices = []
    owner = {}
    copies = {}
    for v in arena.vertices:
        if v not in forcing:
            continue
        if v in arena.critical and arena.owner[v] == EVE:
            copy = ("copy", v)
            copies[v] = copy
            vertices.extend([v, copy])
            owner[v] = ADAM
            owner[copy] = EVE
        else:
            vertices.append(v)
            owner[v] = arena.owner[v]
    vertices.append(_SINK)
    owner[_SINK] = EVE

    edges = []
    edge_origin = []
    for i, (src, _a, w, dst) in enumerate(arena.edges):
        if src in forcing:
            edges.append((copies.get(src, src), "-", w, dst if dst in forcing else _SINK))
            edge_origin.append(i)
    for v in arena.vertices:
        if v not in forcing or v not in arena.critical:
            continue
        if v in copies:
            edges.append((v, "-", 0, copies[v]))
        edges.append((v, "-", -nu, arena.initial))
    edges.append((_SINK, "-", 0, _SINK))
    # the edges added after the arena's own stand for none of its edges
    edge_origin += [None] * (len(edges) - len(edge_origin))

    reduced = Arena(
        vertices=tuple(vertices),
        owner=owner,
        initial=arena.initial,
        edges=edges,
        critical=frozenset(),
    )
    return MeanPayoffReduction(arena=reduced, edge_origin=edge_origin)


@dataclass
class DsumReduction:
    arena: Arena


def reduce_dsum_prefix_to_ds(arena: Arena, forcing):
    """Critical prefix Dsum >= nu game to a plain discounted-sum game.

    Only for the non-strict comparison: the strict case has no such
    reduction (waiting drives the value to the threshold from above
    without ever attaining it).  forcing is Adam's attractor to the
    critical set, so on a deadlock-free arena every vertex kept keeps a
    move: Adam's into the region, Eve's one per edge, and a critical
    check's or a pick's into the sink.  Adam gets the option to stop
    the game exactly when a check falls due, freezing the current value
    in a zero sink; gadget vertices keep path lengths unchanged so
    discounts line up.  The caller decides the empty prefix's check.
    """

    def eve_critical(v):
        return v in arena.critical and arena.owner[v] == EVE

    vertices = []
    owner = {}
    for v in arena.vertices:
        if v not in forcing:
            continue
        vertices.append(v)
        owner[v] = arena.owner[v]
        if eve_critical(v):
            for i in arena.out(v):
                pick = ("pick", v, i)
                vertices.append(pick)
                owner[pick] = ADAM
    vertices.append(_SINK)
    owner[_SINK] = ADAM

    edges = []

    def land(src, w, dst):
        """Materialize a move; entering an Eve-critical vertex installs
        Adam's stop option (for Adam-side sources) or commits Eve's next
        pick one step early (for Eve-side sources)."""
        if dst not in forcing:
            # leaving the forcing region ends all future checks: worthless
            # for Adam (drop his option), winning for Eve provided the
            # checks so far passed, which is exactly the value frozen in
            # the sink (only Eve-owned critical vertices can still have
            # such edges)
            if owner[src] == EVE:
                edges.append((src, "-", 0, _SINK))
            return
        if eve_critical(dst):
            if owner[src] == EVE:
                for i in arena.out(dst):
                    edges.append((src, "-", w, ("pick", dst, i)))
            else:
                edges.append((src, "-", w, dst))
                edges.append((src, "-", w, _SINK))
        else:
            edges.append((src, "-", w, dst))

    for v in arena.vertices:
        if v not in forcing:
            continue
        for i in arena.out(v):
            w, dst = arena.weight[i], arena.vertices[arena.dst[i]]
            land(v, w, dst)
            if eve_critical(v):
                pick = ("pick", v, i)
                edges.append((pick, "-", 0, _SINK))
                land(pick, w, dst)
        if v in arena.critical and arena.owner[v] == ADAM:
            edges.append((v, "-", 0, _SINK))
    edges.append((_SINK, "-", 0, _SINK))

    reduced = Arena(
        vertices=tuple(vertices),
        owner=owner,
        initial=arena.initial,
        edges=edges,
        critical=frozenset(),
    )
    return DsumReduction(arena=reduced)


def restrict_to_strategy(arena: Arena, strategy: PositionalStrategy):
    """Weighted graph of the plays allowed by Eve's positional strategy."""
    names, succ, dst, weight = arena.vertices, arena.succ, arena.dst, arena.weight
    start = arena.number[arena.initial]
    seen = [False] * len(names)
    seen[start] = True
    queue = [start]  # breadth first: the loop reaches the vertices it appends
    edges = []
    for k in queue:
        v = names[k]
        if arena.eve[k]:
            if v not in strategy.choice:
                raise ValueError("strategy undefined at reachable vertex %r" % (v,))
            indices = [strategy.choice[v]]
        else:
            indices = succ[k]
        for i in indices:
            u = dst[i]
            edges.append((v, weight[i], names[u]))
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    return {names[k] for k in queue}, edges


def check_positional_dsum(arena: Arena, strategy: PositionalStrategy, obj: PrefixObjective,
                          *, verdict_only=False):
    """Does Eve's positional strategy win the Dsum prefix game?

    The strategy loses iff Adam can trace a path to a critical vertex
    whose value fails the threshold: Dsum <= nu for the strict game,
    Dsum < nu for the non-strict one.  Returns (True, None) or
    (False, violating PathWitness).  With verdict_only, a losing
    strategy comes as (False, None), decided at the first violating walk
    the path check finds (see exists_path_leq); the verdict is the same.
    """
    if obj.measure != DSUM:
        raise ValueError("path checking applies to dsum objectives")
    reachable, edges = restrict_to_strategy(arena, strategy)
    targets = frozenset(v for v in arena.critical if v in reachable)
    if not targets:
        return True, None
    graph = WeightedGraph(
        vertices=tuple(reachable),
        edges=edges,
        source=arena.initial,
        targets=targets,
        discount=obj.discount,
    )
    checker = exists_path_leq if obj.cmp == ">" else exists_path_lt
    answer, witness = checker(graph, obj.nu, verdict_only=verdict_only)
    if answer == NO:
        return True, None
    return False, witness


def enumerate_positional(arena: Arena):
    """Eve's positional strategies: her vertices in arena order, each
    one's edges in arena order, the last vertex varying fastest.  It yields
    nothing when an Eve vertex has no edge, one empty strategy when she
    owns none."""
    eve_vertices = [v for v, eve in zip(arena.vertices, arena.eve) if eve]
    pools = [edges for edges, eve in zip(arena.succ, arena.eve) if eve]
    for combo in itertools.product(*pools):
        yield PositionalStrategy(dict(zip(eve_vertices, combo)))


@dataclass
class PrefixGame:
    """What decides a critical prefix objective: its winner when no game
    is left to play, else the game left to solve (None for strict Dsum,
    which enumerates positional strategies).  avoid is Eve's strategy to
    stay out of Adam's forcing region where she can."""

    name: str  # as --trace prints it
    winner: Optional[str] = None
    avoid: Optional[PositionalStrategy] = None
    reduction: object = None  # MeanPayoffReduction or DsumReduction


def reduce_prefix_game(arena: Arena, obj: PrefixObjective) -> PrefixGame:
    """Which game decides obj on arena, or its winner when none is needed.

    Dsum first decides the empty prefix's check (initial vertex critical,
    value 0); strict Dsum has no reduction.  Otherwise one safety game
    decides whether Eve avoids every critical vertex; on Adam's forcing
    region left over, non-strict Dsum becomes a discounted-sum game and
    Sum and Avg, on integer weights and threshold, a mean-payoff game.
    """
    empty_fails = obj.nu >= 0 if obj.cmp == ">" else obj.nu > 0
    if obj.measure == DSUM and arena.initial in arena.critical and empty_fails:
        return PrefixGame("initial check on the empty prefix fails", ADAM)
    if obj.measure == DSUM and obj.cmp == ">":
        return PrefixGame("none (positional enumeration + path check)")
    safe, avoid = games.solve_safety(arena, arena.number.keys() - arena.critical)
    if arena.initial in safe:
        return PrefixGame("eve avoids every critical vertex", EVE, avoid)
    forcing = arena.number.keys() - safe
    if obj.measure == DSUM:
        reduction = reduce_dsum_prefix_to_ds(arena, forcing)
        return PrefixGame("discounted-sum game", avoid=avoid, reduction=reduction)
    if obj.measure == AVG:
        weighted, nu = reduce_avg_to_sum(arena, obj.nu)
    else:
        weighted, nu = _reweight(arena, obj.nu.denominator, 0), obj.nu.numerator
    reduction = reduce_sum_prefix_to_mp(weighted, obj.cmp, int(nu), forcing)
    return PrefixGame("mean-payoff game", avoid=avoid, reduction=reduction)


def solve_prefix_threshold(arena: Arena, obj: PrefixObjective):
    """Winner of the critical prefix threshold game, with Eve's positional
    strategy (on the given arena) whenever she wins."""
    if arena.deadlocks():
        raise ValueError("prefix games need a deadlock-free arena")
    return play_prefix_game(arena, obj, reduce_prefix_game(arena, obj))


def play_prefix_game(arena: Arena, obj: PrefixObjective, game: PrefixGame):
    """solve_prefix_threshold on a deadlock-free arena, given the game
    that reduce_prefix_game(arena, obj) returns."""
    reduction = game.reduction
    if game.winner is not None:
        return game.winner, game.avoid
    if isinstance(reduction, MeanPayoffReduction):
        winner, mp_strategy = games.solve_mean_payoff(reduction.arena)
        if winner == ADAM:
            return ADAM, None
        # her mean-payoff moves along arena edges, read back at their source
        # (a copy's edges leave the vertex it splits), over avoid's choices
        choice = dict(game.avoid.choice)
        for edge_idx in mp_strategy.choice.values():
            origin = reduction.edge_origin[edge_idx]
            if origin is not None:
                choice[arena.edges[origin][0]] = origin
        return EVE, PositionalStrategy(choice)
    if reduction is not None:
        winner, _s, _value = games.solve_discounted_sum(
            reduction.arena, obj.discount, obj.nu, ">="
        )
        if winner == ADAM:
            return ADAM, None
    for strategy in enumerate_positional(arena):
        if check_positional_dsum(arena, strategy, obj, verdict_only=True)[0]:
            return EVE, strategy
    if reduction is not None:
        raise InternalError("positional sufficiency violated")
    return ADAM, None


# ---------------------------------------------------------------------------
# Critical prefix energy games with imperfect information


# A critical prefix energy game with imperfect information: an ImperfectArena's
# fields, not yet indexed, and the critical vertices, where the level is checked.
# table maps each vertex, in vertex order, to {action: [(w, dst), ...]}.
PrefixEnergyGame = namedtuple("PrefixEnergyGame", "vertices initial actions table obs critical")


def _forcing_rise_bound(table, critical):
    """Max energy rise Eve can extract while Adam forces a critical visit,
    or None when Adam cannot force one from every vertex.

    table maps each vertex, in vertex order, to {action: [(w, dst), ...]};
    an action with no moves is unavailable.  Ranks are Adam's
    reachability attractor to the critical set under the action-model
    rules, swept in vertex order until nothing changes.  Then h(v) = max
    over Eve's actions of the min over Adam's rank-decreasing resolutions
    of max(0, w + h(target)); the nesting computes the maximal prefix sum
    along the forcing play.  h(v) reads only vertices of lower rank, so
    the order within a rank does not matter.
    """
    rank = {v: 0 for v in critical}
    changed = True
    while changed:
        changed = False
        for v, options in table.items():
            if v in rank:
                continue
            worst = 0  # 0 leaves v unranked: no move, or an action not yet forced
            for moves in filter(None, options.values()):
                levels = [rank[dst] for _w, dst in moves if dst in rank]
                if not levels:
                    worst = 0
                    break
                worst = max(worst, min(levels) + 1)
            if worst:
                rank[v] = worst
                changed = True
    if len(rank) < len(table):
        return None

    h = {}
    for v in sorted(table, key=rank.__getitem__):
        if v in critical:
            h[v] = 0
            continue
        worst = 0
        for moves in filter(None, table[v].values()):
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
                raise InternalError("rank-decreasing move must exist")
            worst = max(worst, best)
        h[v] = worst
    return max(h.values(), default=0)


_ENERGY_SINK = ("drain",)


def reduce_prefix_energy_to_energy(game: PrefixEnergyGame, c0: int):
    """Critical prefix energy game to a plain energy game, plus credit buffer.

    Requires a table entry for every vertex, with moves on the game's
    actions between its vertices, and that Adam can force a critical visit
    from every vertex (checked in the perfect-information game, which
    suffices against observation-based strategies); raises ValueError
    otherwise.  Every critical vertex gets, after each enabled action's
    moves, a -B escape to a fresh sink: dropping below -B anywhere lets
    Adam convert the deficit into a failed check, so level >= 0 with credit
    c0 + B in the result is equivalent to the prefix objective with credit c0.
    """
    table = dict(game.table)
    table[_ENERGY_SINK] = {a: [(0, _ENERGY_SINK)] for a in game.actions}
    reduced = ImperfectArena(
        vertices=tuple(game.vertices) + (_ENERGY_SINK,),
        initial=game.initial,
        actions=game.actions,
        table=table,
        obs={**game.obs, _ENERGY_SINK: _ENERGY_SINK},
    )
    if any(v not in game.table for v in game.critical):
        raise ValueError("critical vertices must be vertices")
    bound = _forcing_rise_bound(game.table, game.critical)
    if bound is None:
        raise ValueError("Adam cannot force a critical visit from every vertex")
    n = len(game.table)
    if bound and not any(n * abs(w) >= bound for options in game.table.values()
                         for moves in options.values() for w, _d in moves):
        raise InternalError("forcing rise %d exceeds |V| * W" % bound)

    # only enabled actions: an escape on a disabled action would hand Eve
    # a brand-new move to hide in the sink
    escape = [(-bound, _ENERGY_SINK)]
    for v in game.critical:
        table[v] = {a: moves + escape for a, moves in table[v].items() if moves}
    return reduced, c0 + bound
