"""Discounted-sum path thresholds on weighted graphs, with witnesses.

A path's relative gap rg(pi) = (nu - Dsum(pi)) / lambda^|pi| is the
normalized budget a continuation has left: Dsum(pi) <= nu iff rg(pi) >= 0,
extending by an edge of weight j maps rg to rg/lambda - j, and appending
pi2 gives rg(pi1 pi2) = (rg(pi1) - Dsum(pi2)) / lambda^|pi2|.

The decision procedures iterate the maximal-relative-gap table
mrg_i(v) = best rg over paths of length <= i from the source to v for
up to n = |V| rounds.  The table is kept on integers: with lambda = p/q
and nu = a/b in lowest terms, R_i(v) = b * p^i * mrg_i(v) is integral,
with R_0(source) = a and

    R_i(v) = max(p * R_{i-1}(v),
                 max over edges (u, w, v) of q * R_{i-1}(u) - w * b * p^i).

The scale b * p^i is positive, so every sign and every comparison within
a round is that of mrg itself.  A target with R_k >= 0 (R_k > 0 for the
strict check) is a hit, and a hit in round k stays one in every later
round, so the check stops after the first round with a hit (round 0
when the source is a target).  Its witness is the backtrack at that
round to the hit target that sorts first by repr: no path with fewer
edges meets the threshold, since it would have been a hit in an earlier
round.  With no hit in n rounds, no path with Dsum <= nu exists iff
round n is already a fixpoint (R_n = p * R_{n-1}); a non-fixpoint vertex
yields a pumpable loop whose relative gap grows without bound.  Every
YES answer ships a concrete path, re-validated by exact evaluation
before being returned; a failed re-validation raises InternalError.  A
verdict-only YES ships no path: it stops at the first hit and checks
that hit's walk again on integers instead.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import InternalError, bfs, walk_back

NO = "no"
YES = "yes"


# The graph that the path checks read: out maps each vertex number in vertices
# (numbers that may be a larger graph's, such as an arena's) to its out-edges
# (edge index, raw weight, dst number) in edge order; edge i has weight[i] and
# dst[i]; names[k] is read only for witnesses, MrgTable.rows and tie-breaks.
# A WeightedGraph has these fields too, with names in vertices.
NumberedGraph = namedtuple("NumberedGraph", "vertices out start target weight dst names discount")


@dataclass
class WeightedGraph:
    """Directed integer-weighted graph with a source, targets, and discount,
    given by names and numbered once into the fields of NumberedGraph:
    vertex k is vertices[k].  A target that is not a vertex is never hit."""

    vertices: tuple
    edges: list  # (src, weight, dst)
    source: object
    targets: frozenset
    discount: Fraction

    def __post_init__(self):
        if not isinstance(self.discount, Fraction):
            self.discount = Fraction(self.discount)
        if not 0 < self.discount.numerator < self.discount.denominator:
            raise ValueError("discount must lie strictly between 0 and 1")
        number = {v: k for k, v in enumerate(self.vertices)}  # a repeated name counts once
        if self.source not in number:
            raise ValueError("unknown source vertex")
        self.out = {k: [] for k in number.values()}
        self.weight, self.dst = [], []
        try:
            for i, (src, w, dst) in enumerate(self.edges):
                self.weight.append(w)
                self.dst.append(number[dst])
                self.out[number[src]].append((i, w, self.dst[i]))
        except KeyError:
            raise ValueError("edge endpoints must be vertices") from None
        self.start = number[self.source]
        self.target = [v in self.targets for v in self.vertices]
        self.names = self.vertices


@dataclass
class PathWitness:
    """A concrete source-to-target path: vertices plus its exact Dsum."""

    vertices: list  # names
    edges: list  # edge indices into the originating graph
    value: Fraction


def dsum_of_edges(graph, edge_indices):
    """Exact Dsum of a path, by integer Horner over lambda = p/q.

    After k edges acc = sum_j w_j * p^j * q^(k-j) and den = q^k.
    """
    p, q = graph.discount.numerator, graph.discount.denominator
    acc, power, den = 0, 1, 1
    for i in edge_indices:
        power *= p
        den *= q
        acc = acc * q + graph.weight[i] * power
    return Fraction(acc, den)


def relative_gap(dsum_value, length, nu, lam) -> Fraction:
    """(nu - dsum) / lam^length, exactly."""
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise ValueError("discount must lie strictly between 0 and 1")
    return (Fraction(nu) - Fraction(dsum_value)) / lam**length


def _prune_to_targets(graph):
    """The vertices that can reach a target, in graph order, and their
    out-lists cut to edges between them: (vertices, out)."""
    preds = {}
    for u, outs in graph.out.items():
        for i, _w, dst in outs:
            preds.setdefault(dst, []).append((u, i))
    can = bfs(lambda v: preds.get(v, ()), [v for v in graph.out if graph.target[v]])[0]
    vertices = [v for v in graph.out if v in can]
    out = {u: [e for e in graph.out[u] if e[2] in can] for u in vertices}
    return vertices, out


@dataclass
class MrgTable:
    """Per-round maximal relative gaps, scaled to integers, with parents.

    With lambda = p/q and nu = a/b, raised[i][v] = (R_i(v), edge_index,
    predecessor) for each vertex (by number) that round i reached or raised
    over that edge, where R_i(v) = b * p^i * mrg_i(v); round 0 holds the
    source alone.  A vertex missing from raised[i] kept its value
    (R_i = p * R_{i-1}), or is not reached yet (-infinity).  rounds is n
    (|V| if a hit was final before pruning), and raised holds rounds 0..n
    unless the computation stopped at a hit, whose witness edges are hit.
    rows is the Fraction view by name, rows[i][names[v]] = mrg_i(v), built
    on demand.
    """

    rounds: int
    raised: list
    nu_den: int  # b
    lam_num: int  # p
    hit: list = None
    names: tuple = ()

    @cached_property
    def rows(self):
        view = []
        current = {}
        scale = self.nu_den
        for raised in self.raised:
            current = dict(current)
            for v, step in raised.items():
                current[self.names[v]] = Fraction(step[0], scale)
            view.append(current)
            scale *= self.lam_num
        return view


def compute_mrg(graph, nu: Fraction, strict=None, *, verdict_only=False):
    """(table, vertices, out): the table, and the vertex numbers and
    out-lists of the graph pruned to the n vertices that reach a target
    (both None when the table never pruned); table is None when the
    source is not among them.  graph is a WeightedGraph or NumberedGraph.

    Only edges out of a vertex raised in round i-1 can raise a vertex in
    round i: any other edge's candidate is p times its round i-1
    candidate, which the target's kept value already matches.  Each
    round therefore relaxes just those edges, and a round that raises
    nothing is a fixpoint for every later round.  Among edges that beat
    the kept value, the lowest edge index wins a tie.  With strict None
    all n rounds are computed; with strict False or True the table ends
    at the first round with a hit for that check.

    The rounds relax the graph as given.  Rounds 0..n of the pruned table
    are these rounds restricted to the pruned vertices, parents and ties
    included: such vertices are only reached from each other, and a round
    raises a vertex by its own candidates alone.  So a hit in round k is
    final, with vertices and out None, when its witness has k or more
    distinct vertices.  Any other hit, a fixpoint, round |V| or 2|E| edge
    visits without a hit prune the graph once, restricting the rows so
    far to it and cutting them to n rounds.

    With verdict_only, every hit is final: its walk meets the threshold
    whether or not it is the shortest, so the table ends at the first
    round with a hit, unpruned unless the edge budget pruned it earlier.
    """
    p, q, b = graph.discount.numerator, graph.discount.denominator, nu.denominator
    out, names, source = graph.out, graph.names, graph.start
    powers = [1]  # p^i, one more per round computed
    raised = [{source: (nu.numerator, None, None)}]
    latest = {source: (nu.numerator, 0)}  # v -> (R_k(v), last round k raising v)
    rounds, vertices, hit = len(out), None, None
    budget = 2 * sum(map(len, out.values()))  # edge visits left before pruning
    while True:
        k = len(raised) - 1
        hits = strict is not None and _hits(graph, raised[k], strict)
        if hits:
            on_path, hit = _backtrack(graph, raised, k, min(hits, key=lambda v: repr(names[v])))
        if vertices is None and (
            (not verdict_only and k > len(set(on_path))) if hits
            else budget <= 0 or k == rounds or not raised[k]
        ):
            vertices, out = _prune_to_targets(graph)
            if source not in out:
                return None, vertices, out
            rounds = len(vertices)
            raised = [{v: step for v, step in row.items() if v in out}
                      for row in raised[: rounds + 1]]
            if k > rounds:  # rounds 0..n hold no hit
                hit = None
        if hits or k >= rounds:
            break
        if not raised[k]:
            raised.extend({} for _ in range(rounds - k))
            break
        power = powers[-1] * p
        powers.append(power)
        scale = b * power  # nu's denominator folded into the round's power
        best = {}
        for u, step in raised[k].items():
            qr = q * step[0]
            outs = out[u]
            budget -= len(outs)
            for idx, w, dst in outs:
                cand = qr - w * scale
                cur = best.get(dst)
                if cur is None:
                    kept = latest.get(dst)
                    if kept is not None and cand <= kept[0] * powers[k + 1 - kept[1]]:
                        continue
                elif cand < cur[0] or (cand == cur[0] and idx > cur[1]):
                    continue
                best[dst] = (cand, idx, u)
        for v, step in best.items():
            latest[v] = (step[0], k + 1)
        raised.append(best)
    table = MrgTable(rounds=rounds, raised=raised, nu_den=b, lam_num=p, hit=hit, names=names)
    return table, vertices, None if vertices is None else out


def _hits(graph, raised, strict):
    """The targets one round of the table raised to R >= 0 (R > 0 if strict)."""
    floor, target = (1 if strict else 0), graph.target  # R is an integer
    return [v for v, step in raised.items() if target[v] and step[0] >= floor]


def _check_walk(graph, nu, strict, edge_indices):
    """Raise InternalError unless the walk over edge_indices from the
    source ends in a target with Dsum <= nu (< nu if strict).

    Checked on integers as the table scales it: with lambda = p/q and
    nu = a/b, the gap after i edges is b * p^i * rg, which starts at a and
    becomes q * gap - w * b * p^i over the i-th edge, of weight w.
    """
    p, q, b = graph.discount.numerator, graph.discount.denominator, nu.denominator
    gap, power, end = nu.numerator, 1, graph.start
    for i in edge_indices:
        end = graph.dst[i]
        power *= p
        gap = q * gap - graph.weight[i] * b * power
    if not graph.target[end]:
        raise InternalError("verdict walk does not end in a target")
    if gap < (1 if strict else 0):
        raise InternalError("verdict walk failed re-validation")


def _backtrack(graph, raised, round_i, vertex):
    """(Vertex numbers, edges) of a path achieving round_i's value at vertex."""
    path_edges = []
    v = vertex
    for i in range(round_i, 0, -1):
        step = raised[i].get(v)
        if step is not None:
            path_edges.append(step[1])
            v = step[2]
    path_edges.reverse()
    return [graph.start, *map(graph.dst.__getitem__, path_edges)], path_edges


def _witness(graph, edge_indices):
    names, dst = graph.names, graph.dst
    return PathWitness([names[graph.start], *(names[dst[i]] for i in edge_indices)],
                       list(edge_indices), dsum_of_edges(graph, edge_indices))


def _pumped_witness(graph, table: MrgTable, nu, strict, out):
    """Build pi1 pi2^l pi4 from a vertex still rising at round n, on the
    pruned graph's out-lists.

    Returns None when round n is a fixpoint.  The length-n path achieving
    the raised value must repeat a vertex; the repeated loop raises the
    relative gap by z > 0 per pump, so some pump count l makes the gap at
    the loop head at least (strictly above, for the strict variant) the
    Dsum of a fixed tail into the targets.
    """
    lam = graph.discount
    n = table.rounds
    if len(table.raised) != n + 1:
        raise InternalError("a table without a hit must hold all n rounds")
    rising = table.raised[n]
    if not rising:
        return None
    # prefer a deterministic pick
    v_star = min(rising, key=lambda v: repr(graph.names[v]))
    vertices, path_edges = _backtrack(graph, table.raised, n, v_star)
    if len(path_edges) != n:
        raise InternalError("a freshly raised value needs a full-length path")
    first_seen = {}
    for k, v in enumerate(vertices):
        if v in first_seen:
            break
        first_seen[v] = k
    else:
        raise InternalError("length-n path must repeat a vertex")
    j = first_seen[v]
    stem = path_edges[:j]
    loop = path_edges[j:k]
    head = vertices[j]

    rg_stem = relative_gap(dsum_of_edges(graph, stem), len(stem), nu, lam)
    rg_loop = relative_gap(dsum_of_edges(graph, stem + loop), len(stem) + len(loop), nu, lam)
    z = rg_loop - rg_stem
    if z <= 0:
        raise InternalError("loop removal would contradict the shortest raised path")

    # shortest tail from the loop head into the targets (BFS, edge-index order)
    links, goal = bfs(lambda u: ((dst, idx) for idx, _w, dst in out[u]), [head],
                      graph.target.__getitem__)
    if goal is None:
        raise InternalError("pruned graph always reaches a target")
    tail_edges = walk_back(links, goal)
    tail_value = dsum_of_edges(graph, tail_edges)

    # l * z + rg(stem) >= Dsum(tail)   (strictly above, when strict)
    need = (tail_value - rg_stem) / z
    pumps = max(1, -(-need.numerator // need.denominator))  # ceil
    if strict:
        while pumps * z + rg_stem <= tail_value:
            pumps += 1
    return _witness(graph, stem + loop * pumps + tail_edges)


def exists_path_leq(graph, nu, *, verdict_only=False) -> tuple:
    """Is there a path from the source to a target with Dsum <= nu?

    graph is a WeightedGraph or a NumberedGraph.  Returns (NO, None) or
    (YES, PathWitness), whose edges index the graph's edges and whose
    vertices are names; witnesses are validated
    against the claimed comparison before being returned.  A witness
    that no pumping built has the fewest edges of any path with
    Dsum <= nu.

    verdict_only is for callers that read the answer alone: a YES then
    comes as (YES, None), as soon as a round of the table raises a target
    to a gap >= 0.  That value is the gap of a real walk, which is read
    back and checked again on integers (InternalError if it fails), but
    is neither pruned, pumped nor evaluated as a Fraction.  With no such
    round the check runs as without the flag.  The answer is the same.
    """
    return _exists_path(graph, nu, False, verdict_only)


def exists_path_lt(graph, nu, *, verdict_only=False) -> tuple:
    """Strict variant: a path with Dsum < nu.

    At a fixpoint the table holds the attained maximum relative gap, so a
    strict witness exists iff some target gap is strictly positive; away
    from the fixpoint pumping yields strict witnesses.  verdict_only is
    as for exists_path_leq, with a gap > 0.
    """
    return _exists_path(graph, nu, True, verdict_only)


def _exists_path(graph, nu, strict, verdict_only):
    nu = nu if type(nu) is Fraction else Fraction(nu)
    table, _vertices, out = compute_mrg(graph, nu, strict, verdict_only=verdict_only)
    if table is None:
        return NO, None
    if table.hit is not None:
        if verdict_only:
            _check_walk(graph, nu, strict, table.hit)
            return YES, None
        witness = _witness(graph, table.hit)
    else:
        witness = _pumped_witness(graph, table, nu, strict, out)
        if witness is None:
            return NO, None

    if not graph.target[graph.dst[witness.edges[-1]] if witness.edges else graph.start]:
        raise InternalError("witness path does not end in a target")
    if strict and not witness.value < nu:
        raise InternalError("witness failed strict re-validation")
    if not strict and not witness.value <= nu:
        raise InternalError("witness failed re-validation")
    return YES, None if verdict_only else witness


@dataclass
class NondetDsumAutomaton:
    """Nondeterministic max-semantics discounted-sum automaton."""

    states: tuple
    initial: object
    finals: frozenset
    transitions: list  # (src, symbol, weight, dst)
    discount: Fraction


def dsum_nonempty_geq(automaton: NondetDsumAutomaton, nu) -> tuple:
    """Some accepted word with value >= nu?  Returns (NO/YES, witness).

    The value of a word is the max over its accepting runs, so it
    suffices to find a run of value >= nu; inverting the weights turns
    that into a path of Dsum <= -nu.  The witness is (word, run-states).
    """
    nu = Fraction(nu)
    graph = WeightedGraph(automaton.states, [(src, -w, dst) for src, _sym, w, dst in
                                             automaton.transitions],
                          automaton.initial, frozenset(automaton.finals), automaton.discount)
    answer, path = exists_path_leq(graph, -nu)
    if answer == NO:
        return NO, None
    sym_word = [automaton.transitions[i][1] for i in path.edges]
    value = -path.value
    if value < nu:
        raise InternalError("automaton witness value below the threshold")
    return YES, (tuple(sym_word), list(path.vertices), value)
