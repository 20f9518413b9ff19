"""Seeded generators for the benchmark's input files.

Every generator takes a random.Random and returns plain data (lists and
dicts of strings and ints); the emit_* functions turn that data into the
program's text formats.  Nothing here imports the program, so the
benchmark's own checks can evaluate the generated specifications without
going through the code under test.
"""

from __future__ import annotations

TRAP = "t"


def memory_spec(rng, n_dfa, n_mem, inputs, outputs, measure, discount=None,
                trap=0.15, in_w=(-2, 2), out_w=(-3, 4), final_p=0.35,
                choice_cap=None):
    """A Boolean-realizable specification: an input-domain DFA crossed with
    output memory copies.

    Input states are (d, m): d is a state of a random partial DFA over the
    inputs, m one of n_mem memory copies.  Reading input x moves to output
    state (delta(d, x), m); output y then moves to input state
    (d', mu(d', m, y)).  Every copy follows the same DFA, so any strategy
    that avoids the trap has exactly the DFA's language as domain.  Some
    outputs are diverted into a dead trap state, which make_domain_safe
    has to prune; every output state keeps at least one other output.
    Only states reachable from (0, 0) are emitted.  With choice_cap set,
    at most that many output states keep more than one live output, which
    bounds the number of output selectors.
    """
    delta = {}
    for d in range(n_dfa):
        for x in inputs:
            if rng.random() < 0.85:
                delta[(d, x)] = rng.randrange(n_dfa)
    dfa_finals = {d for d in range(n_dfa) if rng.random() < final_p}
    dfa_finals.add(rng.randrange(1, n_dfa) if n_dfa > 1 else 0)
    if measure == "avg":
        # The average of the empty word is 0/0.  The program's eval gives it
        # 0 while verify and the threshold game treat it as equal to the
        # threshold, so Avg domains here leave the empty word out rather
        # than have the checks pick a side.
        dfa_finals.discard(0)

    def name(kind, d, m):
        return "%s%dm%d" % (kind, d, m)

    trans = []
    finals = []
    choices = 0
    start = ("i", 0, 0)
    seen = {start}
    queue = [start]
    while queue:
        kind, d, m = queue.pop(0)
        src = name(kind, d, m)
        if kind == "i":
            if d in dfa_finals:
                finals.append(src)
            moves = [(x, ("o", delta[(d, x)], m)) for x in inputs if (d, x) in delta]
            weights = in_w
        else:
            diverted = [rng.random() < trap for _ in outputs]
            if all(diverted):
                diverted[rng.randrange(len(outputs))] = False
            if diverted.count(False) > 1:
                if choice_cap is not None and choices >= choice_cap:
                    keep = rng.choice([i for i, off in enumerate(diverted) if not off])
                    diverted = [i != keep for i in range(len(outputs))]
                else:
                    choices += 1
            moves = []
            for y, off in zip(outputs, diverted):
                if off:
                    moves.append((y, None))
                else:
                    moves.append((y, ("i", d, rng.randrange(n_mem))))
            weights = out_w
        for sym, nxt in moves:
            w = rng.randint(*weights)
            if nxt is None:
                trans.append((src, sym, w, TRAP))
                continue
            trans.append((src, sym, w, name(*nxt)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return {
        "measure": measure,
        "discount": discount,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "initial": name(*start),
        "finals": finals,
        "trans": trans,
    }


def random_arena(rng, n, max_out=3, weights=(-4, 4), critical_p=0.25, eve_p=0.5,
                 eve_choice_cap=None):
    """A random deadlock-free arena on vertices v0..v(n-1).

    Every vertex has 1..max_out successors.  When eve_choice_cap is set,
    at most that many Eve vertices get more than one successor, which
    bounds the number of Eve's positional strategies.
    """
    owner = ["eve" if rng.random() < eve_p else "adam" for _ in range(n)]
    critical = [rng.random() < critical_p for _ in range(n)]
    if not any(critical):
        critical[rng.randrange(n)] = True
    choices = 0
    edges = []
    for v in range(n):
        deg = rng.randint(1, max_out)
        if owner[v] == "eve" and deg > 1 and eve_choice_cap is not None:
            if choices >= eve_choice_cap:
                deg = 1
            else:
                choices += 1
        for dst in rng.sample(range(n), min(deg, n)):
            edges.append(("v%d" % v, rng.randint(*weights), "v%d" % dst))
    return {
        "vertices": ["v%d" % v for v in range(n)],
        "owner": {"v%d" % v: owner[v] for v in range(n)},
        "critical": ["v%d" % v for v in range(n) if critical[v]],
        "initial": "v0",
        "edges": edges,
    }


def random_graph(rng, n, out_deg=3, weights=(-3, 5), target_p=0.1):
    """A random weighted graph, as an arena whose critical vertices are
    the targets of a discounted-sum path query."""
    return random_arena(rng, n, max_out=out_deg, weights=weights,
                        critical_p=target_p, eve_p=0.0)


def selector_machine(rng, spec):
    """A Mealy machine that follows one random output per output state.

    The machine's states are the spec's input states reachable under the
    selector, so the machine realizes the spec's domain exactly when the
    selector never picks a diverted output.
    """
    moves = {}
    for src, sym, w, tgt in spec["trans"]:
        moves.setdefault(src, []).append((sym, tgt))
    pick = {}
    trans = []
    finals = set(spec["finals"])
    seen = {spec["initial"]}
    queue = [spec["initial"]]
    order = []
    while queue:
        p = queue.pop(0)
        order.append(p)
        for a, mid in moves.get(p, ()):
            if mid not in pick:
                pick[mid] = rng.choice(moves[mid])
            b, tgt = pick[mid]
            trans.append((p, a, b, tgt))
            if tgt not in seen and tgt in moves:
                seen.add(tgt)
                queue.append(tgt)
    return {
        "initial": spec["initial"],
        "finals": [q for q in order if q in finals],
        "trans": [t for t in trans if t[3] in seen],
    }


# ---------------------------------------------------------------------------
# Text formats


def emit_wfa(spec):
    lines = ["wfa", "measure: %s" % spec["measure"]]
    if spec["discount"] is not None:
        lines.append("discount: %s" % spec["discount"])
    lines.append("inputs: %s" % " ".join(spec["inputs"]))
    lines.append("outputs: %s" % " ".join(spec["outputs"]))
    lines.append("initial: %s" % spec["initial"])
    lines.append("finals: %s" % " ".join(spec["finals"]))
    for src, sym, w, tgt in spec["trans"]:
        lines.append("trans: %s %s %d %s" % (src, sym, w, tgt))
    return "\n".join(lines) + "\n"


def emit_arena(arena):
    critical = set(arena["critical"])
    lines = ["arena"]
    for v in arena["vertices"]:
        mark = " critical" if v in critical else ""
        lines.append("vertex: %s %s%s" % (v, arena["owner"][v], mark))
    lines.append("initial: %s" % arena["initial"])
    for src, w, dst in arena["edges"]:
        lines.append("edge: %s - %d %s" % (src, w, dst))
    return "\n".join(lines) + "\n"


def emit_mealy(machine):
    lines = ["mealy", "initial: %s" % machine["initial"],
             "finals: %s" % " ".join(machine["finals"])]
    for src, a, b, tgt in machine["trans"]:
        lines.append("trans: %s %s %s %s" % (src, a, b, tgt))
    return "\n".join(lines) + "\n"
