import itertools
import random
import re
from collections import deque
from dataclasses import replace

import pytest

from wsynth import core, domain, games
from wsynth.games import ADAM, EVE, Arena

from conftest import (
    bfs_infer_polarity,
    bfs_live_states,
    brute_domain,
    domains_equal,
    input_part,
    load_bench_gen,
    old_closure,
    old_dom_step,
    old_domain,
    old_solve_safety,
    random_spec,
)


def residual_words(spec, state, max_len):
    """Oracle: domain words readable from `state`, by bounded enumeration."""
    words = set()
    for n in range(max_len + 1):
        for u in itertools.product(spec.inputs, repeat=n):
            subset = old_closure(spec, [state])
            for a in u:
                subset = old_dom_step(spec, subset, a)
            if domain._accepts(spec, subset):
                words.add(u)
    return words


def boolean_realizable_oracle(spec):
    """Exact oracle for Boolean realizability, independent of the two-run game.

    Eve tracks her own run plus the determinized domain subset; she loses
    whenever the subset accepts but her run is not in a final state.  Solved
    by a fixpoint over the (state, subset) safety game.
    """
    start = (spec.initial, old_closure(spec, [spec.initial]))

    states = set()
    queue = [start]
    moves = {}
    while queue:
        node = queue.pop()
        if node in states:
            continue
        states.add(node)
        q, subset = node
        opts = []
        for a in spec.inputs:
            nsub = old_dom_step(spec, subset, a)
            mid = spec.transitions.get((q, a)) if q is not None else None
            mid_state = mid[0] if mid else None
            outs = []
            if mid_state is not None:
                for b in spec.outputs:
                    entry = spec.transitions.get((mid_state, b))
                    outs.append((entry[0] if entry else None, nsub))
            else:
                outs.append((None, nsub))
            opts.append(outs)
            for nxt in outs:
                if nxt not in states:
                    queue.append(nxt)
        moves[node] = opts
    losing = set()
    changed = True
    while changed:
        changed = False
        for node in states:
            if node in losing:
                continue
            q, subset = node
            if domain._accepts(spec, subset) and q not in spec.finals:
                losing.add(node)
                changed = True
                continue
            for outs in moves[node]:
                if all(nxt in losing for nxt in outs):
                    losing.add(node)
                    changed = True
                    break
    return start not in losing


def test_domain_membership_paper(paper_spec):
    assert domain.domain_membership(paper_spec, "b")
    assert not domain.domain_membership(paper_spec, "aa")
    assert not domain.domain_membership(paper_spec, "")
    for i in range(1, 6):
        assert domain.domain_membership(paper_spec, "a" * i + "b")


def test_domain_membership_epsilon():
    spec = core.parse_wfa(
        "wfa\nmeasure: sum\ninputs: a\noutputs: c\ninitial: q0\nfinals: q0\n"
    )
    assert domain.domain_membership(spec, "")


def test_domain_membership_matches_enumeration(paper_spec):
    dom = set(brute_domain(paper_spec, 5))
    for n in range(6):
        for u in itertools.product(paper_spec.inputs, repeat=n):
            assert domain.domain_membership(paper_spec, u) == (u in dom)


def test_paper_fixture_is_domain_safe(paper_spec):
    assert domain.unsafe_transitions(paper_spec) == set()


def test_unsafe_transition_dead_branch():
    # at o0, output c accepts but output d leads to a non-final dead end
    spec = core.WeightedSpec(
        inputs=("a",),
        outputs=("c", "d"),
        states=("i0", "o0", "i1", "i2"),
        initial="i0",
        finals=("i1",),
        transitions={
            ("i0", "a"): ("o0", 0),
            ("o0", "c"): ("i1", 0),
            ("o0", "d"): ("i2", 0),
        },
    )
    assert domain.unsafe_transitions(spec) == {("o0", "d", "i2")}


def test_unsafe_transitions_single_output_per_state():
    rng = random.Random(3)
    for _ in range(20):
        spec = random_spec(rng)
        pruned = {}
        seen_out = set()
        for (src, sym), val in spec.transitions.items():
            if spec.polarity[src] == core.OUTPUT:
                if src in seen_out:
                    continue
                seen_out.add(src)
            pruned[(src, sym)] = val
        single = core.WeightedSpec(
            inputs=spec.inputs,
            outputs=spec.outputs,
            states=spec.states,
            initial=spec.initial,
            finals=spec.finals,
            transitions=pruned,
            polarity=dict(spec.polarity),
        )
        assert domain.unsafe_transitions(single) == set()


def test_residual_equality_matches_enumeration(paper_spec):
    for p in paper_spec.states:
        for q in paper_spec.states:
            expected = residual_words(paper_spec, p, 8) == residual_words(
                paper_spec, q, 8
            )
            assert domain.residual_languages_equal(paper_spec, p, q) == expected


def old_residual_languages_equal(spec, p, q):
    """The depth-first product search that the breadth-first kernel replaced."""
    start = (old_closure(spec, [p]), old_closure(spec, [q]))
    seen = {start}
    queue = [start]
    while queue:
        left, right = queue.pop()
        if domain._accepts(spec, left) != domain._accepts(spec, right):
            return False
        for a in spec.inputs:
            nxt = (old_dom_step(spec, left, a), old_dom_step(spec, right, a))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def test_residual_equality_matches_the_old_search():
    rng = random.Random(53)
    verdicts = []
    for _ in range(100):
        spec = random_spec(rng, max_states=rng.randint(2, 10),
                           final_bias=rng.choice((0.3, 0.6)))
        for p, q in itertools.product(spec.states, repeat=2):
            verdict = domain.residual_languages_equal(spec, p, q)
            assert verdict == old_residual_languages_equal(spec, p, q), (
                core.emit_wfa(spec), p, q)
            verdicts.append(verdict)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100, (
        verdicts.count(True), verdicts.count(False))


def test_make_domain_safe_keeps_paper_fixture(paper_spec):
    result = domain.make_domain_safe(paper_spec)
    assert result is not None
    assert domain.unsafe_transitions(result) == set()
    assert domains_equal(result, paper_spec)
    assert set(result.states) == set(paper_spec.states)
    assert result.transitions == paper_spec.transitions


def test_make_domain_safe_prunes_dead_branch():
    spec = core.WeightedSpec(
        inputs=("a",),
        outputs=("c", "d"),
        states=("i0", "o0", "i1", "i2"),
        initial="i0",
        finals=("i1",),
        transitions={
            ("i0", "a"): ("o0", 0),
            ("o0", "c"): ("i1", 0),
            ("o0", "d"): ("i2", 0),
        },
    )
    result = domain.make_domain_safe(spec)
    assert result is not None
    assert ("o0", "d") not in result.transitions
    assert ("o0", "c") in result.transitions


def test_make_domain_safe_unrealizable():
    # Adam can pick his output to accept exactly when Eve's differs: after
    # input a, output c accepts iff the next input is x, output d accepts
    # iff it is y; Eve must commit first, so she always risks the domain.
    spec = core.WeightedSpec(
        inputs=("a", "x", "y"),
        outputs=("c", "d"),
        states=("i0", "o0", "ix", "iy", "ox", "oy", "f"),
        initial="i0",
        finals=("f",),
        transitions={
            ("i0", "a"): ("o0", 0),
            ("o0", "c"): ("ix", 0),
            ("o0", "d"): ("iy", 0),
            ("ix", "x"): ("ox", 0),
            ("iy", "y"): ("oy", 0),
            ("ox", "c"): ("f", 0),
            ("oy", "c"): ("f", 0),
        },
    )
    assert not boolean_realizable_oracle(spec)
    assert domain.make_domain_safe(spec) is None


def test_two_run_game_vertex_bound(paper_spec):
    game = domain.build_two_run_game(paper_spec)
    n = len(paper_spec.states) + 1  # dead marker
    assert len(game.arena.vertices) <= 2 * n * n
    dot = domain.two_run_game_to_dot(game)
    assert dot.startswith("digraph")


def dot_node_ids(dot):
    """The distinct node ids that a DOT text declares, the init point aside."""
    node = re.compile(r"  (\S+) \[label=")
    return {match.group(1) for match in map(node.match, dot.splitlines()) if match}


def test_dot_gives_every_vertex_its_own_node_id():
    # a spec state named like the dead run must not share its node ids
    spec = core.parse_wfa(
        "wfa\nmeasure: sum\ninputs: a b\noutputs: x y\ninitial: __dead__\n"
        "finals: __dead__\ntrans: __dead__ a 0 m\ntrans: m x 0 __dead__\n"
    )
    game = domain.build_two_run_game(spec)
    assert len(game.arena.vertices) == 12
    assert len(dot_node_ids(domain.two_run_game_to_dot(game))) == len(game.arena.vertices)
    # nor may vertex names that differ only in a double or a single quote
    arena = Arena(
        vertices=('a"b', "a'b"), owner={'a"b': EVE, "a'b": ADAM}, initial='a"b',
        edges=[('a"b', "-", 0, "a'b"), ("a'b", "-", 0, 'a"b')],
    )
    dot = games.arena_to_dot(arena)
    assert len(dot_node_ids(dot)) == len(arena.vertices)
    assert dot.splitlines()[2:4] == ['  n0 [label="a\\"b", shape=ellipse];',
                                     '  n1 [label="a\'b", shape=box];']
    assert '  n0 -> n1 [label="0"];' in dot.splitlines()


def every_domain_run_accepts(spec, max_len):
    """Every run on u (x) v with u in dom ends in a final state."""
    for n in range(max_len + 1):
        for u in itertools.product(spec.inputs, repeat=n):
            if not domain.domain_membership(spec, u):
                continue
            for v in itertools.product(spec.outputs, repeat=n):
                state = spec.initial
                ok = True
                for a, b in zip(u, v):
                    for sym in (a, b):
                        entry = spec.transitions.get((state, sym))
                        if entry is None:
                            ok = False
                            break
                        state = entry[0]
                    if not ok:
                        break
                if ok and state not in spec.finals:
                    return False
    return True


def canonical_form(spec):
    """Structure up to breadth-first state renaming."""
    order = [spec.initial]
    seen = {spec.initial}
    i = 0
    while i < len(order):
        q = order[i]
        i += 1
        for sym in list(spec.inputs) + list(spec.outputs):
            entry = spec.transitions.get((q, sym))
            if entry and entry[0] not in seen:
                seen.add(entry[0])
                order.append(entry[0])
    rank = {q: j for j, q in enumerate(order)}
    trans = sorted(
        (rank[src], sym, w, rank[tgt])
        for (src, sym), (tgt, w) in spec.transitions.items()
        if src in rank and tgt in rank
    )
    finals = sorted(rank[f] for f in spec.finals if f in rank)
    return (trans, finals)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_make_domain_safe_random_suite(seed):
    rng = random.Random(seed)
    for trial in range(40):
        spec = random_spec(rng)
        oracle_says = boolean_realizable_oracle(spec)
        result = domain.make_domain_safe(spec)
        if result is None:
            assert not oracle_says
            continue
        assert oracle_says
        assert every_domain_run_accepts(result, 6)
        assert domains_equal(result, spec)
        assert domain.unsafe_transitions(result) == set()
        twice = domain.make_domain_safe(result)
        assert twice is not None
        assert canonical_form(twice) == canonical_form(result)


def old_reachable_states(spec):
    """The per-state scan over every transition that the successor map replaced."""
    seen = {spec.initial}
    queue = [spec.initial]
    while queue:
        q = queue.pop()
        for (src, _sym), (tgt, _w) in spec.transitions.items():
            if src == q and tgt not in seen:
                seen.add(tgt)
                queue.append(tgt)
    return seen


def test_reachable_states_matches_transition_scan():
    rng = random.Random(31)
    sizes = []
    for _ in range(300):
        spec = random_spec(rng, max_states=rng.randint(2, 14))
        reach = domain.reachable_states(spec)
        assert reach == old_reachable_states(spec)
        sizes.append(len(reach))
    assert min(sizes) == 1 and max(sizes) >= 8


def old_live_states(spec):
    """Reachable states intersected with the co-reach fixpoint that rescans
    every transition until no state is added, as trim did before."""
    co = set(spec.finals)
    changed = True
    while changed:
        changed = False
        for (src, _sym), (tgt, _w) in spec.transitions.items():
            if tgt in co and src not in co:
                co.add(src)
                changed = True
    return old_reachable_states(spec) & co


def test_live_states_matches_coreach_fixpoint():
    rng = random.Random(37)
    sizes = []
    for _ in range(300):
        spec = random_spec(rng, max_states=rng.randint(2, 14))
        live = domain._live_states(spec)
        assert live == old_live_states(spec)
        sizes.append(len(live))
    assert min(sizes) == 0 and max(sizes) >= 8


def test_set_up_matches_its_bfs_oracles_on_memory_specs():
    # polarity, the live states (of the spec and of a random restriction)
    # and every domain step from every state's start, against core.bfs
    # and the closure-based automaton, whose subsets also hold output states
    gen = load_bench_gen()
    rng = random.Random(41)
    counts = {"steps": 0, "dead states": 0, "restricted live": 0}
    for _ in range(300):
        raw = gen.memory_spec(rng, rng.randint(2, 5), rng.randint(2, 5), rng.choice(["ab", "abc"]),
                              rng.choice(["xy", "xyz"]), rng.choice(["sum", "avg"]))
        spec = core.parse_wfa(gen.emit_wfa(raw))
        assert list(spec.polarity.items()) == list(bfs_infer_polarity(spec).items())
        fewer = {key: val for key, val in spec.transitions.items() if rng.random() < 0.8}
        for transitions in (None, fewer):
            live = domain._live_states(spec, transitions)
            assert live == bfs_live_states(spec, transitions)
            counts["dead states"] += transitions is None and len(live) < len(spec.states)
            counts["restricted live"] += transitions is fewer and 0 < len(live)
        starts = [old_closure(spec, [q]) for q in spec.states]
        assert [input_part(spec, start) for start in starts] == [
            domain._domain(spec, q)[0] for q in spec.states]
        seen = set(starts)
        queue = list(seen)
        for subset in queue:
            for a in spec.inputs:
                nxt = old_dom_step(spec, subset, a)
                assert domain._dom_step(spec, input_part(spec, subset), a) == input_part(spec, nxt)
                counts["steps"] += 1
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    assert counts["steps"] >= 20000 and min(counts.values()) >= 50, counts


def _alternating_spec(rng, inputs, outputs):
    """A seeded partial spec with its polarity given, so that its alphabets
    may share symbols; some of its states may be unreachable."""
    in_states = ["i%d" % k for k in range(rng.randint(1, 4))]
    out_states = ["o%d" % k for k in range(rng.randint(1, 4))]
    transitions = {}
    for sources, symbols, targets in ((in_states, inputs, out_states),
                                      (out_states, outputs, in_states)):
        for src in sources:
            for sym in symbols:
                if rng.random() < 0.6:
                    transitions[(src, sym)] = (rng.choice(targets), 0)
    return core.WeightedSpec(
        inputs=inputs, outputs=outputs, states=tuple(in_states + out_states), initial="i0",
        finals=tuple(q for q in in_states if rng.random() < 0.5), transitions=transitions,
        polarity=dict.fromkeys(in_states, core.INPUT) | dict.fromkeys(out_states, core.OUTPUT),
    )


def test_input_state_automaton_matches_the_closure_automaton():
    # membership, the unsafe transitions and the first difference from every
    # state pair, against the automaton on epsilon closures, over alphabets
    # that share symbols and ones that do not
    rng = random.Random(71)
    alphabets = [(("a", "b"), ("c", "d")), (("a", "b"), ("b", "c")),
                 (("a", "b"), ("a", "b")), (("a",), ("a", "c"))]
    seen = dict.fromkeys(("shared", "disjoint", "in domain", "unsafe", "differ", "equal"), 0)
    for trial in range(1200):
        inputs, outputs = alphabets[trial % len(alphabets)]
        spec = _alternating_spec(rng, inputs, outputs)
        for u in (u for n in range(5) for u in itertools.product(inputs, repeat=n)):
            subset = old_closure(spec, [spec.initial])
            for a in u:
                subset = old_dom_step(spec, subset, a)
            member = domain.domain_membership(spec, u)
            assert member == domain._accepts(spec, subset), (core.emit_wfa(spec), u)
            seen["in domain"] += member
        reach = domain.reachable_states(spec)
        unsafe = {(p, b, q) for (p, b), (q, _w) in spec.transitions.items()
                  if p in reach and spec.polarity[p] == core.OUTPUT and domain.first_difference(
                      old_domain(spec, p), old_domain(spec, q), inputs) is not None}
        assert domain.unsafe_transitions(spec) == unsafe, core.emit_wfa(spec)
        seen["unsafe"] += bool(unsafe)
        for p, q in itertools.product(spec.states, repeat=2):
            got = domain.first_difference(domain._domain(spec, p), domain._domain(spec, q), inputs)
            assert got == domain.first_difference(
                old_domain(spec, p), old_domain(spec, q), inputs), (core.emit_wfa(spec), p, q)
            seen["equal" if got is None else "differ"] += 1
        seen["shared" if set(inputs) & set(outputs) else "disjoint"] += 1
        # no subset the spec's step table holds, as a key or a value, has an output state
        assert all(spec.polarity[q] == core.INPUT
                   for (subset, _a), nxt in spec._dom_steps.items() for q in subset | nxt)
    assert min(seen.values()) >= 100, seen


def old_build_two_run_game(spec):
    """The two-run game as first written, on (kind, eve, adam) tuples."""
    def step(state, symbol):
        if state == domain._DEAD:
            return domain._DEAD
        entry = spec.transitions.get((state, symbol))
        return entry[0] if entry else domain._DEAD

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
        v for v in vertices
        if v[0] == "ii" and v[2] in spec.finals and v[1] not in spec.finals
    )
    arena = Arena(vertices=tuple(vertices), owner=owner, initial=initial,
                  edges=edges, critical=losing)
    return arena, losing


def old_make_domain_safe(spec):
    """make_domain_safe as first written, on the tuple game and old kernel."""
    arena, losing = old_build_two_run_game(spec)
    region, _ = old_solve_safety(arena, [v for v in arena.vertices if v not in losing])
    if arena.initial not in region:
        return None
    vertex_set = set(arena.vertices)

    def diagonal_ok(q):
        v = ("ii" if spec.polarity[q] == core.INPUT else "oo", q, q)
        return v not in vertex_set or v in region

    keep = {q for q in spec.states if diagonal_ok(q)}
    transitions = {}
    for (src, sym), (tgt, w) in spec.transitions.items():
        if src not in keep or tgt not in keep:
            continue
        probe = ("io", tgt, src) if spec.polarity[src] == core.OUTPUT else None
        if probe is not None and probe in vertex_set and probe not in region:
            continue
        transitions[(src, sym)] = (tgt, w)
    pruned = core.WeightedSpec(
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
    return domain.trim(pruned, pruned.transitions)


def test_two_run_game_matches_tuple_game(paper_spec):
    rng = random.Random(41)
    specs = [paper_spec] + [
        random_spec(rng, max_states=rng.randint(2, 16), final_bias=rng.choice([0.3, 0.6, 0.9]))
        for _ in range(300)
    ]
    # trim_only: the game's pruning removes nothing that trim would keep
    answers = {"no_boolean_realizer": 0, "game_pruned": 0, "trim_only": 0}
    for spec in specs:
        game = domain.build_two_run_game(spec)
        arena, losing = old_build_two_run_game(spec)
        assert [game.name(v) for v in game.arena.vertices] == list(arena.vertices)
        assert len(game.arena.edges) == len(arena.edges)
        assert {game.name(v) for v in game.arena.critical} == losing
        assert domain.two_run_game_to_dot(game) == games.arena_to_dot(arena, highlight=losing)
        result = domain.make_domain_safe(spec)
        old = old_make_domain_safe(spec)
        if old is None:
            assert result is None
            answers["no_boolean_realizer"] += 1
            continue
        text = core.emit_wfa(result)
        assert text == core.emit_wfa(old)
        trimmed = core.emit_wfa(domain.trim(spec, spec.transitions))
        answers["trim_only" if text == trimmed else "game_pruned"] += 1
    assert min(answers.values()) >= 20, answers


def test_two_run_attractor_matches_the_arena_path(paper_spec):
    """games.attract on the game's predecessor lists against
    games.attractor on its generic Arena, the path make_domain_safe took
    before."""
    rng = random.Random(43)
    specs = [paper_spec] + [
        random_spec(rng, max_states=rng.randint(2, 12), final_bias=rng.choice([0.3, 0.6, 0.9]))
        for _ in range(300)
    ]
    seen = {"dead_run": 0, "eve_twin_edges_in_region": 0, "initial_lost": 0, "initial_safe": 0}
    for spec in specs:
        game = domain.build_two_run_game(spec)
        mm = len(game.names) ** 2
        eve = range(mm, 2 * mm)
        region, _ = games.attract(game.preds, eve, lambda _code: len(spec.outputs),
                                  game.critical)
        ids = {code: v for v, code in enumerate(game.codes)}
        assert {ids[code] for code in region} == games.attractor(
            game.arena, game.arena.critical, ADAM)[0]
        assert {ids[code] for code in game.critical} == game.arena.critical
        assert list(game.preds) == game.codes  # one dict, filled in discovery order
        dead = game.names[-1]
        seen["dead_run"] += any(dead in game.name(v) for v in game.arena.vertices)
        for code in region:
            targets = game.moves[ids[code]]
            assert code not in eve or len(targets) == len(spec.outputs)
            if code in eve and len(set(targets)) < len(targets):
                seen["eve_twin_edges_in_region"] += 1
        seen["initial_lost" if game.codes[0] in region else "initial_safe"] += 1
    assert min(seen.values()) >= 20, seen


def test_two_run_game_matches_tuple_game_on_bench_specs():
    """The counts the benchmark pins come from specs of this shape: 3-letter
    alphabets and 60 states or more."""
    gen = load_bench_gen()
    rng = random.Random(53)
    sizes = []
    for _ in range(6):
        k, m = rng.choice([(13, 4), (16, 5)])
        data = gen.memory_spec(rng, k, m, "abc", "xyz", rng.choice(["sum", "avg"]))
        spec = core.parse_wfa(gen.emit_wfa(data))
        game = domain.build_two_run_game(spec)
        arena, losing = old_build_two_run_game(spec)
        assert len(game.arena.vertices) == len(arena.vertices)
        assert len(game.arena.edges) == len(arena.edges)
        assert {game.name(v) for v in game.arena.critical} == losing
        assert domain.two_run_game_to_dot(game) == games.arena_to_dot(arena, highlight=losing)
        sizes.append(len(spec.states))
    assert min(sizes) >= 60, sizes


def test_make_domain_safe_builds_no_arena(paper_spec):
    rng = random.Random(47)
    for spec in [paper_spec] + [random_spec(rng) for _ in range(20)]:
        game = domain.build_two_run_game(spec)
        domain.make_domain_safe(spec, game)
        assert "arena" not in vars(game) and "moves" not in vars(game)
        assert game.arena is game.arena  # built once, on first access
        assert game.moves is game.moves


def fifo_build_two_run_game(spec):
    """The two-run game as explored by one FIFO queue that stored each
    vertex's successor list: (codes, moves, preds, names, critical)."""
    index = {q: k for k, q in enumerate(spec.states)}
    m = len(spec.states) + 1
    dead = m - 1

    def rows(symbols):
        return [[index[spec.transitions[(q, a)][0]] if (q, a) in spec.transitions else dead
                 for a in symbols] for q in spec.states] + [[dead] * len(symbols)]

    in_rows, out_rows = rows(spec.inputs), rows(spec.outputs)
    mm = m * m
    start = index[spec.initial] * (m + 1)
    codes = [start]
    moves_of = []
    preds = {start: []}
    for code in codes:  # codes grows: a FIFO queue
        kind, rest = divmod(code, mm)
        left, right = divmod(rest, m)
        if kind == 0:
            moves = [mm + l * m + r for l, r in zip(in_rows[left], in_rows[right])]
        elif kind == 1:
            moves = [2 * mm + l * m + right for l in out_rows[left]]
        else:
            moves = [left * m + r for r in out_rows[right]]
        moves_of.append(moves)
        for nxt in moves:
            sources = preds.get(nxt)
            if sources is None:
                preds[nxt] = [code]
                codes.append(nxt)
            else:
                sources.append(code)
    final = [q in spec.finals for q in spec.states] + [False]
    critical = frozenset(
        code for code in codes if code < mm and final[code % m] and not final[code // m]
    )
    dead_name = domain._DEAD
    while dead_name in index:
        dead_name += "_"
    return codes, moves_of, preds, tuple(spec.states) + (dead_name,), critical


def seeded_specs(seed, count, bench_count):
    """random_spec specs of 2-16 states, then bench memory_spec specs of
    the threshold-mp shape (3-letter alphabets, up to 63 states)."""
    gen = load_bench_gen()
    rng = random.Random(seed)
    specs = [
        random_spec(rng, max_states=rng.randint(2, 16), final_bias=rng.choice([0.3, 0.6, 0.9]))
        for _ in range(count)
    ]
    for _ in range(bench_count):
        data = gen.memory_spec(rng, rng.randint(4, 8), rng.randint(2, 4), "abc", "xyz",
                               rng.choice(["sum", "avg"]))
        specs.append(core.parse_wfa(gen.emit_wfa(data)))
    return specs


def test_level_build_matches_the_fifo_build(paper_spec):
    seen = {"dead_run": 0, "twin_outputs": 0, "twin_preds": 0, "critical": 0}
    for spec in [paper_spec] + seeded_specs(59, 400, 40):
        game = domain.build_two_run_game(spec)
        codes, moves, preds, names, critical = fifo_build_two_run_game(spec)
        assert game.codes == codes
        assert game.names == names
        assert game.critical == critical
        assert list(game.preds) == list(preds)
        assert all(sorted(game.preds[code]) == sorted(preds[code]) for code in codes)
        assert "moves" not in vars(game)
        assert game.moves == moves
        seen["dead_run"] += len(names) - 1 in {code % len(names) for code in codes}
        seen["twin_outputs"] += any(
            len(set(targets)) < len(targets)
            for q, targets in (
                (q, [spec.transitions[(q, b)][0] for b in spec.outputs if (q, b) in spec.transitions])
                for q in spec.states if spec.polarity[q] == core.OUTPUT)
        )
        seen["twin_preds"] += any(len(set(sources)) < len(sources) for sources in preds.values())
        seen["critical"] += bool(critical)
    assert min(seen.values()) >= 100, seen


def spec_with_escape(rng):
    """A random_spec behind an output choice Eve can use to escape it.

    Input e0 reads a or b into output e1; one output of e1 enters the
    random spec, the other a final loop that accepts every input.  Eve
    always wins by escaping, so a random spec without a Boolean realizer
    puts diagonal vertices in Adam's attractor while the initial one is safe.
    """
    inner = random_spec(rng, max_states=rng.randint(2, 12), final_bias=rng.choice([0.3, 0.6]))
    rename = {q: "r" + q for q in inner.states}
    enter, escape = rng.sample(("c", "d"), 2)
    transitions = {(rename[src], sym): (rename[tgt], w)
                   for (src, sym), (tgt, w) in inner.transitions.items()}
    transitions.update({
        ("e0", "a"): ("e1", 0), ("e0", "b"): ("e1", 1),
        ("e1", enter): (rename[inner.initial], 0), ("e1", escape): ("u0", 0),
        ("u0", "a"): ("u1", 0), ("u0", "b"): ("u1", 0), ("u1", "c"): ("u0", 0),
        ("u1", "d"): ("u0", 0),
    })
    return core.WeightedSpec(
        inputs=("a", "b"), outputs=("c", "d"),
        states=("e0", "e1", "u0", "u1") + tuple(rename[q] for q in inner.states),
        initial="e0", finals=("u0",) + tuple(rename[q] for q in inner.finals),
        transitions=transitions,
    )


def diagonal_make_domain_safe(spec):
    """make_domain_safe with the pruning it used to do first: drop every
    state whose diagonal vertex is in Adam's attractor, then apply the io
    check and trim.  Returns the result and the states whose diagonal
    vertex is in the attractor."""
    game = domain.build_two_run_game(spec)
    m = len(game.names)
    mm = m * m
    forcing, _ = games.attract(game.preds, range(mm, 2 * mm), lambda _code: len(spec.outputs),
                               game.critical)
    if game.codes[0] in forcing:
        return None, set()
    index = {q: k for k, q in enumerate(spec.states)}
    diagonal = {q: index[q] * (m + 1) + (0 if spec.polarity[q] == core.INPUT else mm)
                for q in spec.states}
    keep = {q for q in spec.states if diagonal[q] not in forcing}
    transitions = {}
    for (src, sym), (tgt, w) in spec.transitions.items():
        if src not in keep or tgt not in keep:
            continue
        if spec.polarity[src] == core.OUTPUT and 2 * mm + index[tgt] * m + index[src] in forcing:
            continue
        transitions[(src, sym)] = (tgt, w)
    return domain.trim(spec, transitions), set(spec.states) - keep


def test_diagonal_pruning_is_implied_by_the_io_check(paper_spec):
    """A state whose diagonal vertex Adam attracts loses all its incoming
    (ii) or outgoing (oo) transitions to the io check, so trim drops it."""
    seen = {"none": 0, "ii_dropped": 0, "oo_dropped": 0, "diagonals_safe": 0}
    rng = random.Random(71)
    specs = [paper_spec] + seeded_specs(61, 1500, 60) + [spec_with_escape(rng) for _ in range(1500)]
    for spec in specs:
        result = domain.make_domain_safe(spec)
        old, dropped = diagonal_make_domain_safe(spec)
        assert (result is None) == (old is None)
        if result is None:
            seen["none"] += 1
            continue
        assert core.emit_wfa(result) == core.emit_wfa(old)
        polarities = {spec.polarity[q] for q in dropped}
        seen["ii_dropped"] += core.INPUT in polarities
        seen["oo_dropped"] += core.OUTPUT in polarities
        seen["diagonals_safe"] += not dropped
    assert min(seen.values()) >= 100, seen


def _spec_over(rng, inputs):
    """random_spec's shape over the given input alphabet."""
    ni, no = rng.randint(1, 3), rng.randint(1, 3)
    in_states = ["i%d" % k for k in range(ni)]
    out_states = ["o%d" % k for k in range(no)]
    transitions = {}
    for src in in_states:
        for sym in inputs:
            if rng.random() < 0.75:
                transitions[(src, sym)] = (rng.choice(out_states), 0)
    for src in out_states:
        for sym in ("c", "d"):
            if rng.random() < 0.75:
                transitions[(src, sym)] = (rng.choice(in_states), 0)
    return core.WeightedSpec(
        inputs=tuple(inputs), outputs=("c", "d"), states=tuple(in_states + out_states),
        initial="i0", finals=tuple(q for q in in_states if rng.random() < 0.6),
        transitions=transitions,
    )


def _mutant(rng, spec):
    """spec with one transition redirected, dropped or added, or one final
    state toggled: a domain that may or may not differ."""
    transitions = dict(spec.transitions)
    finals = set(spec.finals)
    choice = rng.randrange(3)
    if choice == 0 and transitions:
        key = rng.choice(sorted(transitions))
        if rng.random() < 0.5:
            del transitions[key]
        else:
            same = [q for q in spec.states if spec.polarity[q] == spec.polarity[transitions[key][0]]]
            transitions[key] = (rng.choice(same), 0)
    elif choice == 1:
        q = rng.choice([q for q in spec.states if spec.polarity[q] == core.INPUT])
        finals ^= {q}
    else:
        src = rng.choice(spec.states)
        pol = spec.polarity[src]
        sym = rng.choice(spec.inputs if pol == core.INPUT else spec.outputs)
        targets = [q for q in spec.states if spec.polarity[q] != pol]
        transitions[(src, sym)] = (rng.choice(targets), 0)
    return replace(spec, finals=tuple(q for q in spec.states if q in finals),
                   transitions=transitions)


def _runs_after(spec, states, a):
    """Oracle: the spec states that input a and any output lead to."""
    out = set()
    for q in states:
        mid = spec.transitions.get((q, a))
        if mid is None:
            continue
        for b in spec.outputs:
            entry = spec.transitions.get((mid[0], b))
            if entry is not None:
                out.add(entry[0])
    return frozenset(out)


def _shortest_separating_word(left, right, symbols, max_len):
    """Oracle: the first word, by length then symbol order, that is in
    exactly one of the two domains, by enumerating every word up to
    max_len; None when there is none that short."""
    level = [((), frozenset([left.initial]), frozenset([right.initial]))]
    for _n in range(max_len + 1):
        for u, lstates, rstates in level:
            if lstates.isdisjoint(left.finals) != rstates.isdisjoint(right.finals):
                return u
        level = [(u + (a,), _runs_after(left, lstates, a), _runs_after(right, rstates, a))
                 for u, lstates, rstates in level for a in symbols]
    return None


def _in_domain(spec, u):
    """Oracle: whether some output word completes u into the spec."""
    states = frozenset([spec.initial])
    for a in u:
        states = _runs_after(spec, states, a)
    return not states.isdisjoint(spec.finals)


def test_first_difference_on_domains_that_differ():
    rng = random.Random(61)
    outcomes = {"word": 0, "none": 0}
    for _ in range(500):
        left = _spec_over(rng, ("a", "b"))
        roll = rng.random()
        if roll < 0.2:
            right = _spec_over(rng, rng.choice((("a",), ("a", "b", "e"), ("b", "e"))))
        elif roll < 0.3:
            right = domain.trim(left, left.transitions)
        else:
            right = _mutant(rng, left)
        symbols = sorted(set(left.inputs) | set(right.inputs))
        got = domain.first_difference(
            domain._domain(left, left.initial), domain._domain(right, right.initial), symbols)
        want = _shortest_separating_word(left, right, symbols, 6)
        assert domains_equal(left, right) == (got is None)
        if got is None:
            assert want is None, (core.emit_wfa(left), core.emit_wfa(right), want)
            outcomes["none"] += 1
            continue
        assert _in_domain(left, got) != _in_domain(right, got), (
            core.emit_wfa(left), core.emit_wfa(right), got)
        if want is not None:
            assert tuple(got) == tuple(want), (core.emit_wfa(left), core.emit_wfa(right), got, want)
        outcomes["word"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_derived_specs_do_not_read_their_source_step_table():
    rng = random.Random(67)
    words = [u for n in range(5) for u in itertools.product(("a", "b"), repeat=n)]
    derived_count = 0
    for _ in range(320):
        spec = random_spec(rng, max_states=rng.randint(2, 8),
                           measure=rng.choice((core.SUM, core.AVG)))
        for u in words:  # fill the source's step table first
            domain.domain_membership(spec, u)
        domain.unsafe_transitions(spec)
        assert spec._dom_steps
        safe = domain.make_domain_safe(spec)
        # the others keep the domain; a restriction to fewer transitions
        # changes it, so a table copied from the source would answer wrongly
        fewer = {key: val for key, val in spec.transitions.items() if rng.random() < 0.7}
        derived = [domain.trim(spec, spec.transitions), spec.with_measure(core.SUM),
                   domain.trim(spec, fewer)]
        derived += [] if safe is None else [safe]
        for result in derived:
            assert result is spec or not result._dom_steps
            fresh = core.parse_wfa(core.emit_wfa(result))
            assert [domain.domain_membership(result, u) for u in words] == [
                domain.domain_membership(fresh, u) for u in words], core.emit_wfa(spec)
            assert {(str(p), b, str(q)) for p, b, q in domain.unsafe_transitions(result)} == (
                domain.unsafe_transitions(fresh)), core.emit_wfa(spec)
            derived_count += 1
    assert derived_count >= 1200
