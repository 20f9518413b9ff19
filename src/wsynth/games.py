"""Two-player weighted game arenas and exact solvers.

Perfect-information arenas partition vertices between Eve and Adam.
Solvers are exact over integers/rationals: attractors and safety by
fixpoint, mean-payoff (threshold 0, sup variant) by set-lifting of an
energy progress measure, discounted sum by strategy iteration on exact
integer pairs (closed-form lasso values, cross-multiplied comparisons),
and imperfect-information energy games by a capped knowledge
construction (sound for WIN, inconclusive otherwise).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import itemgetter

from .core import FormatError, InternalError, _build, _directives, _dot, bfs, format_rational

EVE = "eve"
ADAM = "adam"


@dataclass
class Arena:
    """Perfect-information weighted game graph.

    edges is an ordered list of (src, action, weight, dst); the action is
    kept for files and for the spec symbol an edge stands for,
    perfect-information solvers ignore it.  Edge indices into this list
    are the currency of strategies.  The vertices are numbered once, in
    vertices order: number[v] is v's number k, eve[k] whether Eve owns it
    and succ[k] its edge indices in edge order; src[i], dst[i] and
    weight[i] describe edge i by numbers.  Built on first use: preds[k]
    lists the sources of the edges into k, one per edge, moves[k] the
    (i, weight[i], dst[i]) of succ[k], and is_critical[k] says if k is.
    """

    vertices: tuple
    owner: dict
    initial: object
    edges: list
    critical: frozenset = frozenset()

    def __post_init__(self):
        number = {v: k for k, v in enumerate(self.vertices)}
        if len(number) < len(self.vertices):
            v = next(v for k, v in enumerate(self.vertices) if number[v] != k)
            raise ValueError("duplicate vertex %r" % (v,))
        if self.initial not in number:
            raise ValueError("unknown initial vertex %r" % (self.initial,))
        owners = list(map(self.owner.get, self.vertices))
        if not {EVE, ADAM}.issuperset(owners):
            v = next(v for v, who in zip(self.vertices, owners) if who not in (EVE, ADAM))
            raise ValueError("vertex %r has no owner" % (v,))
        try:
            self.src = list(map(number.__getitem__, map(itemgetter(0), self.edges)))
            self.dst = list(map(number.__getitem__, map(itemgetter(3), self.edges)))
        except KeyError:
            raise ValueError("edge endpoints must be vertices") from None
        if any(v not in number for v in self.critical):
            raise ValueError("critical vertices must be vertices")
        self.number = number
        self.eve = [who == EVE for who in owners]
        self.weight = list(map(itemgetter(2), self.edges))
        self.succ = [[] for _ in owners]
        for i, k in enumerate(self.src):
            self.succ[k].append(i)

    @cached_property
    def preds(self):
        preds = [[] for _ in self.succ]
        for k, u in zip(self.src, self.dst):
            preds[u].append(k)
        return preds

    @cached_property
    def moves(self):
        return [[(i, self.weight[i], self.dst[i]) for i in edges] for edges in self.succ]

    @cached_property
    def is_critical(self):
        return [v in self.critical for v in self.vertices]

    def out(self, v):
        return self.succ[self.number[v]]

    def deadlocks(self):
        return [v for v, edges in zip(self.vertices, self.succ) if not edges]


@dataclass
class ImperfectArena:
    """Action-labeled arena with an observation partition for Eve.

    Eve picks an action, Adam resolves it to any action-successor of the
    true vertex; Eve only sees the observation class of each vertex.
    table maps each vertex to {action: [(weight, dst), ...]}; rows[v][i],
    built on first use, lists v's moves on actions[i], () where that
    action is unavailable: absent from table[v] or listed with no moves.
    """

    vertices: tuple
    initial: object
    actions: tuple
    table: dict  # vertex -> {action: [(weight, dst), ...]}
    obs: dict  # vertex -> observation id

    def __post_init__(self):
        for v in self.vertices:
            if v not in self.obs:
                raise ValueError("vertex %r has no observation" % (v,))
        known, actions, table = set(self.vertices), set(self.actions), self.table
        if not known.issuperset(table) or not known.issuperset(
                [dst for options in table.values() for moves in options.values() for _w, dst in moves]):
            raise ValueError("edge endpoints must be vertices")
        unknown = [a for options in table.values() for a in options if a not in actions]
        if unknown:
            raise ValueError("unknown action %r" % (unknown[0],))
        missing = [v for v in self.vertices if v not in table]
        if missing:
            raise ValueError("vertex %r has no table entry" % (missing[0],))
        if self.initial not in known:
            raise ValueError("unknown initial vertex %r" % (self.initial,))

    @cached_property
    def rows(self):
        return {v: [options.get(a) or () for a in self.actions]
                for v, options in self.table.items()}


@dataclass
class PositionalStrategy:
    """vertex -> edge index into the arena's edge list."""

    choice: dict


@dataclass
class MemoryStrategy:
    """Observation-based finite-memory strategy.

    act maps a memory state to the action played; step maps
    (memory, observation) to the next memory state.
    """

    initial: object
    act: dict
    step: dict


def attract(preds, theirs, degree, targets):
    """Vertices from which a player forces a visit to targets, and for
    those of the player's added through an edge, the vertex it leads to.

    preds[v] lists the sources of the edges into vertex v, one per edge.
    theirs holds the opponent's vertices; such a vertex u joins once all
    its degree(u) edges lead into the region.  degree is read when u is
    first met; a count read back from pending is never 0, as u joins at 0.
    The targets are taken in the order given, so the choices follow it.
    """
    queue = list(dict.fromkeys(targets))
    region = set(queue)
    pending = {}
    via = {}
    while queue:
        v = queue.pop()
        for src in preds[v]:
            if src in region:
                continue
            if src not in theirs:
                region.add(src)
                via[src] = v
                queue.append(src)
            else:
                left = (pending.get(src) or degree(src)) - 1
                pending[src] = left
                if not left:
                    region.add(src)
                    queue.append(src)
    return region, via


def attractor(arena: Arena, targets, player):
    """attract on the arena's numbers, ignoring targets that are not vertices
    and taking the rest in vertex order; a vertex of the player's plays its
    first edge into the vertex it joined through."""
    number, succ, dst, names = arena.number, arena.succ, arena.dst, arena.vertices
    theirs = {k for k, eve in enumerate(arena.eve) if eve != (player == EVE)}
    targets = sorted({number[t] for t in targets if t in number})
    region, via = attract(arena.preds, theirs, lambda k: len(succ[k]), targets)
    strategy = {names[u]: next(e for e in succ[u] if dst[e] == v) for u, v in via.items()}
    return {names[k] for k in region}, PositionalStrategy(strategy)


def solve_safety(arena: Arena, safe):
    """Eve's winning region for 'stay inside safe forever', plus a strategy.

    The region is the complement of Adam's attractor to the unsafe set;
    the strategy picks the first edge that stays inside the region, its
    choices keyed in vertex order.
    """
    attr, _ = attractor(arena, arena.number.keys() - safe, ADAM)
    inside = [v not in attr for v in arena.vertices]
    dst = arena.dst
    choice = {}
    for k, v in enumerate(arena.vertices):
        if arena.eve[k] and inside[k]:
            for i in arena.succ[k]:
                if inside[dst[i]]:
                    choice[v] = i
                    break
    return {v for v, ok in zip(arena.vertices, inside) if ok}, PositionalStrategy(choice)


def _lift(names, eve, out, cap):
    """Least energy progress measure; values above cap become None (top).

    Vertices are numbered 0..n-1: eve[v] tells whether Eve owns v, out[v]
    lists its edges as (w, u), and names[v] names v in errors.
    The measure f maps each vertex to the least credit with which Eve
    keeps the energy level non-negative.  It is the least fixpoint of
    f(v) = opt over edges (v, w, u) of max(0, f(u) - w), with min at Eve's
    vertices and max at Adam's, where a value above cap is top.
    Set-lifting (Dorfman, Kaplan & Zwick, ICALP 2019) reaches it in whole
    rounds instead of one vertex and one unit at a time: see _lift_round.
    Every round raises f only to values the least fixpoint also reaches,
    so the loop ends on it.  An explicit check confirms the fixpoint.
    """
    preds = [[] for _ in out]
    for v, edges in enumerate(out):
        for w, u in edges:
            preds[u].append((v, w))
    f = [0] * len(out)
    while _lift_round(eve, out, preds, f, cap):
        pass
    for v, edges in enumerate(out):
        if f[v] is None:
            continue
        # a target above cap would be top; it differs from f[v] either way
        needs = [f[u] - w for w, u in edges if f[u] is not None]
        if eve[v]:
            target = max(0, min(needs)) if needs else None
        else:
            target = max(0, max(needs)) if needs and len(needs) == len(edges) else None
        if target != f[v]:
            raise InternalError("progress measure is not a fixpoint at %r" % (names[v],))
    return f


def _lift_round(eve, out, preds, f, cap):
    """One set-lifting round on f, in place; False when nothing needs lifting.

    With slack s(e) = f(v) - f(u) + w on an edge e = (v, w, u) between
    finite vertices, the invalid set I holds the finite vertices whose
    lift target exceeds f: Eve's with no edge of s >= 0, Adam's with an
    edge of s < 0 or into top.  B is Adam's attractor to I along tight
    edges (s = 0), ranked by the order of joining.  An Eve vertex joins
    once every edge with s >= 0 is tight and leads into B; one edge of
    positive slack keeps it out, since max(0, .) clips what a rise of
    its successor asks of it.  The rise of B is the value of a min-cost
    reachability game on B, solved by Dijkstra: Eve minimises over all
    her edges, Adam maximises over his edges with s <= -1 and his tight
    edges to a lower rank.  An edge costs -s, and leaving B ends the
    game; an edge into top costs infinity.  Costs are non-negative and
    only edges to a lower rank cost 0, so every cycle costs at least 1,
    and a vertex that never settles can be raised without bound: it
    becomes top.  Each constraint counted holds at the least fixpoint,
    so no vertex is raised past it, and every vertex of I rises.
    """
    rank = [-1] * len(f)  # order of joining B, -1 outside B
    joined = []  # B in joining order
    for v, edges in enumerate(out):
        fv = f[v]
        if fv is None:
            continue
        if eve[v]:
            invalid = True
            for w, u in edges:
                if f[u] is not None and fv + w >= f[u]:
                    invalid = False
                    break
        else:
            invalid = not edges
            for w, u in edges:
                if f[u] is None or fv + w < f[u]:
                    invalid = True
                    break
        if invalid:
            rank[v] = len(joined)
            joined.append(v)
    if not joined:
        return False

    tight_left = {}  # Eve vertex -> tight edges not yet into B, below 0 if blocked
    for u in joined:  # the FIFO queue: the loop reaches the vertices it appends
        fu = f[u]
        for v, w in preds[u]:
            fv = f[v]
            if rank[v] >= 0 or fv is None or fv - fu + w != 0:
                continue
            if eve[v]:
                if v not in tight_left:
                    slacks = [fv - f[x] + w2 for w2, x in out[v] if f[x] is not None]
                    tight_left[v] = slacks.count(0) if max(slacks) == 0 else -1
                tight_left[v] -= 1
                if tight_left[v]:
                    continue
            rank[v] = len(joined)
            joined.append(v)

    heap = []
    unsettled = {}  # Adam vertex -> counted edges into B whose end is unsettled
    worst = {}
    for r, v in enumerate(joined):
        fv = f[v]
        edges = out[v]
        if eve[v]:
            costs = [f[u] - fv - w for w, u in edges if f[u] is not None and rank[u] < 0]
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
            if rank[u] < 0:
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
            if v in rise or rank[v] < 0:
                continue
            cost = fu - f[v] - w
            if eve[v]:
                heapq.heappush(heap, (d + cost, rank[v], v))
            elif v in unsettled and (cost > 0 or (cost == 0 and ru < rank[v])):
                worst[v] = max(worst[v], d + cost)
                unsettled[v] -= 1
                if not unsettled[v]:
                    heapq.heappush(heap, (worst[v], rank[v], v))

    for v in joined:
        d = rise.get(v)
        f[v] = None if d is None or f[v] + d > cap else f[v] + d
    return True


def _credit_bound(out):
    """An upper bound on every finite minimal credit of the energy game.

    Eve's winning plays close only non-negative cycles, so the worst prefix
    is a simple path, and a simple path leaves each vertex by one edge.
    """
    return -sum(min(min(es)[0], 0) for es in out if es)


def _tight_edges(names, mine, out, ids, f):
    """First edge per vertex of mine with finite f that keeps f progressive,
    as name -> ids[v][j] for the j-th edge of out[v]."""
    choice = {}
    for v, fv in enumerate(f):
        if not mine[v] or fv is None:
            continue
        for (w, u), i in zip(out[v], ids[v]):
            if f[u] is not None and max(0, f[u] - w) <= fv:
                choice[names[v]] = i
                break
    return choice


def solve_mean_payoff(arena: Arena):
    """Winner at the initial vertex for mean-payoff >= 0, with a strategy.

    Exact over integers: Eve wins where the least progress measure of the
    associated energy game is finite.  It comes from set-lifting (_lift),
    capped at the per-vertex credit bound, and Eve's strategy takes the
    first edge that keeps it.  When Adam wins, his strategy comes the
    same way from the dual game (owners swapped, weights -(N*w+1)) on his
    winning region T alone: T is an Eve trap, and every edge Adam has out
    of T leads to a vertex the dual lift marks top.  The dual game keeps
    the arena's numbers: a vertex outside T keeps no edge and goes to
    Adam, so the first lift round marks it top, and ties follow arena
    order.
    """
    if arena.deadlocks():
        raise ValueError("mean-payoff needs a deadlock-free arena")
    names, eve, ids, dst, weight = arena.vertices, arena.eve, arena.succ, arena.dst, arena.weight
    start = arena.number[arena.initial]
    out = [[(weight[i], dst[i]) for i in es] for es in ids]
    f = _lift(names, eve, out, _credit_bound(out))
    if f[start] is not None:
        return EVE, PositionalStrategy(_tight_edges(names, eve, out, ids, f))

    trap = [fk is None for fk in f]
    dual_ids = [[i for i in es if trap[dst[i]]] if t else [] for es, t in zip(ids, trap)]
    for k, es in enumerate(dual_ids):
        if trap[k] and eve[k] and len(es) < len(ids[k]):
            raise InternalError("Eve can leave Adam's mean-payoff region at %r" % (names[k],))
    n = len(names)
    dual_out = [[(-(n * weight[i] + 1), dst[i]) for i in es] for es in dual_ids]
    dual_eve = [t and not e for t, e in zip(trap, eve)]
    g = _lift(names, dual_eve, dual_out, _credit_bound(dual_out))
    if g[start] is None:
        raise InternalError("mean-payoff determinacy violated")
    return ADAM, PositionalStrategy(_tight_edges(names, dual_eve, dual_out, dual_ids, g))


def _evaluate_profile(arena: Arena, next_edge, p, q):
    """Discounted value of every vertex number k when each follows edge
    next_edge[k], for the discount p/q, as an unreduced pair (num, den)
    with den > 0, in a list indexed by number.

    Each play is a lasso.  One step back along an edge of weight w maps
    (n, d) to (p (w d + n), q d), so the L steps round a cycle from (0, 1)
    give (S, q^L), and the cycle's value is S / (q^L - p^L).
    """
    dst, weight = arena.dst, arena.weight
    values = [None] * len(next_edge)
    for start in range(len(next_edge)):
        if values[start] is not None:
            continue
        path = []
        index = {}
        v = start
        while values[v] is None and v not in index:
            index[v] = len(path)
            path.append(v)
            v = dst[next_edge[v]]
        at = index.get(v, len(path))
        if at < len(path):
            # the walk closed a fresh cycle at v
            n, d = 0, 1
            for u in reversed(path[at:]):
                n, d = p * (weight[next_edge[u]] * d + n), q * d
            values[v] = n, d - p ** (len(path) - at)
        # the rest of the cycle, then the stem, both lead back into v
        for segment in (path[at + 1:], path[:at]):
            n, d = values[v]
            for u in reversed(segment):
                n, d = p * (weight[next_edge[u]] * d + n), q * d
                values[u] = n, d
    return values


def solve_discounted_sum(arena: Arena, lam: Fraction, nu: Fraction, cmp: str):
    """Exact optimal discounted-sum value and winner for DS cmp nu.

    Dsum of a play weights the i-th edge by lam^i (i starting at 1); the
    optimal value satisfies val(v) = opt over edges (v -> u) of
    lam [w + val(u)].  Solved by strategy iteration on the arena's
    numbers: Eve improves against Adam's exact best response, play values
    of fixed positional pairs are solved in closed form on their lassos,
    as integer pairs compared by cross-multiplication; only the returned
    value is a Fraction.  No strategy profile is evaluated twice, so more
    evaluations than the product of the out-degrees mean a bug
    (InternalError).
    """
    if cmp not in (">", ">="):
        raise ValueError("cmp must be '>' or '>='")
    if not (0 < lam < 1):
        raise ValueError("discount must lie strictly between 0 and 1")
    if arena.deadlocks():
        raise ValueError("discounted-sum needs a deadlock-free arena")
    p, q = Fraction(lam).as_integer_ratio()
    nu = Fraction(nu)
    succ, dst, weight = arena.succ, arena.dst, arena.weight
    eves = [k for k, e in enumerate(arena.eve) if e]
    adams = [k for k, e in enumerate(arena.eve) if not e]
    next_edge = [edges[0] for edges in succ]

    def greedy_edge(k, sign):
        """First edge of k, in out order, to maximise sign (w + val(dst)) (lam > 0
        drops out), and a gain of the sign of sign (lam (w + val(dst)) - val(k))."""
        best_i = None
        for i in succ[k]:
            n, d = values[dst[i]]
            n += weight[i] * d
            if best_i is None or sign * (n * best_d - best_n * d) > 0:
                best_i, best_n, best_d = i, n, d
        n, d = values[k]
        return best_i, sign * (p * best_n * d - n * q * best_d)

    def improve(side, sign):
        """Switch each vertex of side to its greedy edge where that gains;
        whether any switched."""
        switched = False
        for k in side:
            i, gain = greedy_edge(k, sign)
            if gain > 0:
                next_edge[k] = i
                switched = True
        return switched

    # every evaluation is of a new strategy profile, so there are at most
    # as many as there are profiles
    profiles = math.prod(map(len, succ))
    evaluations = 0
    while True:
        # Adam best response to the current Eve choices
        while True:
            evaluations += 1
            if evaluations > profiles:
                raise InternalError("discounted-sum iteration did not converge")
            values = _evaluate_profile(arena, next_edge, p, q)
            if not improve(adams, -1):
                break
        if not improve(eves, 1):
            break

    for k, e in enumerate(arena.eve):
        if greedy_edge(k, 1 if e else -1)[1]:
            raise InternalError("discounted-sum fixpoint identity violated")

    value = Fraction(*values[arena.number[arena.initial]])
    eve_wins = value > nu if cmp == ">" else value >= nu
    winner = EVE if eve_wins else ADAM
    choice = {arena.vertices[k]: next_edge[k] for k in (eves if eve_wins else adams)}
    return winner, PositionalStrategy(choice), value


WIN = "win"
NOT_WIN_AT_CAP = "not_win_at_cap"


def solve_imperfect_energy_capped(iarena: ImperfectArena, c0: int, cap: int):
    """Capped knowledge construction for the energy objective (level >= 0).

    Beliefs are sets of (vertex, credit) pairs with credits clamped at
    cap.  An action loses outright when some belief element can drop
    below zero; otherwise Adam picks any observation class with a
    nonempty update.  WIN is sound for the uncapped objective (clamping
    only lowers credits); NOT_WIN_AT_CAP is inconclusive.

    The game is solved on floor beliefs, which keep only the lowest
    credit per vertex.  Clamping is monotone, the loss test fires on the
    lowest credit whenever it fires at all, and observations depend on
    vertices only, so the floor map commutes with the belief update: a
    belief loses exactly when its floor does.

    Floors are solved on the fly, depth first.  Each explored floor plays
    its current action, the first in iarena.actions order that neither
    loses at once nor leads to a floor marked lost, and pushes only that
    action's successors.  A floor left with no action is marked lost, and
    every predecessor still playing into it moves on to its next action.
    A popped floor that no live edge leads to is skipped, and the search
    stops once the initial floor is lost.  Every mark is sound, so each
    action before a current one loses.  When the stack empties, the
    unmarked explored floors and their current actions form a set Eve can
    stay in, so all of them win: each current action is the first safe
    one, as with the whole floor game solved.  The strategy is read off
    the full beliefs it reaches, playing their floors' current actions.
    """
    if c0 < 0:
        raise ValueError("initial credit must be nonnegative")
    if cap < c0:
        raise ValueError("cap must be at least the initial credit")
    obs, rows = iarena.obs, iarena.rows

    def updates(belief, i):
        """obs -> belief, for the i-th action when it is safe at the belief's floor."""
        per_obs = {}
        for v, c in belief:
            for w, dst in rows[v][i]:
                per_obs.setdefault(obs[dst], set()).add((dst, min(cap, c + w)))
        return {o: frozenset(b) for o, b in per_obs.items()}

    def floor_updates(floor, i):
        """None when the i-th action immediately loses, else the successor floors."""
        per_obs = {}
        for v, c in floor:
            moves = rows[v][i]
            if not moves:
                return None  # action not available from this belief
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
    lost = len(iarena.actions)
    cur = {}  # explored floor -> index of its current action, or lost
    preds = {}  # floor -> (floor, action index) edges that led to it
    stack = [initial]

    def advance(floor, start):
        """Play the first action from index start on that neither loses at
        once nor leads to a lost floor, and push its unexplored successors;
        False when there is none."""
        for i in range(start, lost):
            result = floor_updates(floor, i)
            if result is None or any(cur.get(nxt) == lost for nxt in result):
                continue
            cur[floor] = i
            for nxt in result:
                preds.setdefault(nxt, []).append((floor, i))
            stack.extend(nxt for nxt in result if nxt not in cur)
            return True
        cur[floor] = lost
        return False

    while stack:
        floor = stack.pop()
        if floor in cur or floor != initial and all(
            cur[f] != i for f, i in preds[floor]
        ):
            continue  # explored, or no live edge leads here
        dead = [] if advance(floor, 0) else [floor]
        while dead:
            floor = dead.pop()
            if floor == initial:
                return NOT_WIN_AT_CAP, None
            for f, i in preds[floor]:
                if cur[f] == i and not advance(f, i + 1):
                    dead.append(f)

    act = {}
    step = {}

    def successors(belief):
        i = cur[floor_of(belief)]
        act[belief] = iarena.actions[i]
        for o, nxt in updates(belief, i).items():
            step[(belief, o)] = nxt
            yield nxt, o

    bfs(successors, [initial])
    return WIN, MemoryStrategy(initial=initial, act=act, step=step)


# ---------------------------------------------------------------------------
# Text format


_ARENA = {
    "vertex": (2, None, "vertex takes: name eve|adam [critical]"),
    "initial": (1, 1, "initial takes one vertex"),
    "edge": (4, 4, "edge takes: src action weight dst"),
}


def parse_arena(text: str) -> Arena:
    owner = {}
    critical = set()
    initial = None
    edges = []
    for number, key, tokens in _directives(text, "arena", _ARENA, "edge"):
        if key == "edge":
            edges.append(tuple(tokens))
        elif key == "vertex":
            name = tokens[0]
            if tokens[1] not in (EVE, ADAM):
                raise FormatError(_ARENA["vertex"][2], number)
            if name in owner:
                raise FormatError("duplicate vertex %r" % name, number)
            owner[name] = tokens[1]
            if tokens[2:] == ["critical"]:
                critical.add(name)
            elif len(tokens) > 2:
                raise FormatError(_ARENA["vertex"][2], number)
        elif key == "initial":
            initial = tokens[0]
    if initial is None:
        raise FormatError("missing initial")
    return _build(
        Arena,
        vertices=tuple(owner),
        owner=owner,
        initial=initial,
        edges=edges,
        critical=frozenset(critical),
    )


def emit_arena(arena: Arena) -> str:
    lines = ["arena"]
    for v in arena.vertices:
        mark = " critical" if v in arena.critical else ""
        lines.append("vertex: %s %s%s" % (v, arena.owner[v], mark))
    lines.append("initial: %s" % (arena.initial,))
    for src, action, w, dst in arena.edges:
        lines.append("edge: %s %s %s %s" % (src, action, format_rational(w), dst))
    return "\n".join(lines) + "\n"


def arena_to_dot(arena: Arena, highlight=(), label=str) -> str:
    """Graphviz text; label(v) names vertex v."""
    highlight = set(highlight)
    nodes = []
    for v in arena.vertices:
        attributes = "shape=ellipse" if arena.owner[v] == EVE else "shape=box"
        if v in arena.critical:
            attributes += ", peripheries=2"
        if v in highlight:
            attributes += ', style=filled, fillcolor="lightgray"'
        nodes.append((v, attributes))
    edges = [(src, dst,
              format_rational(w) if action == "-" else "%s|%s" % (action, format_rational(w)))
             for src, action, w, dst in arena.edges]
    return _dot("arena", nodes, arena.initial, edges, label)
