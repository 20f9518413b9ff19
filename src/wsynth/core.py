"""Weighted specifications, Mealy transducers, and their text formats.

A weighted specification is a deterministic automaton over words that
alternate between one input symbol and one output symbol.  States are
split into input states (an input symbol is read next) and output states;
accepted words end with an output symbol, so final states are input
states.  Transition weights are integers, aggregated by one of three
measures: sum, average (sum divided by word length), or discounted sum
with a rational discount factor 0 < lambda < 1 (the i-th weight is
multiplied by lambda^i, starting at i = 1).

All arithmetic is exact: sums are Python ints, everything else is
fractions.Fraction.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence


class FormatError(ValueError):
    """A .wfa/.mealy/.arena file does not conform to its grammar."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class SpecError(ValueError):
    """A structurally valid file describes an inconsistent machine."""


class InternalError(RuntimeError):
    """A guarantee the program relies on was broken: a bug, never bad input.

    Raised instead of `assert` so that the check survives `python -O`.
    """


class _Bottom:
    """The value of words outside the specification's relation (-infinity).

    Absorbing under comparison: smaller than every rational, equal only
    to itself.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NEG_INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("wsynth.NEG_INF")

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self


NEG_INF = _Bottom()

INPUT = "in"
OUTPUT = "out"

SUM = "sum"
AVG = "avg"
DSUM = "dsum"
MEASURES = (SUM, AVG, DSUM)


def _integer(text: str) -> int:
    """int(text) of any length: int() and str() stop at 4,300 digits on
    Python 3.11+, and Decimal does not."""
    try:
        return int(text)
    except ValueError:
        if not re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):  # what int() reads
            raise
        return int(Decimal(text))


def parse_rational(text: str) -> Fraction:
    """Parse 'P/Q' or a plain integer into an exact Fraction."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(_integer(num), _integer(den))
        return Fraction(_integer(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("not a rational: %r" % text) from exc


def format_rational(value: Fraction) -> str:
    """'P/Q', or 'P' for an integer, in plain digits of any length."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return "%s/%s" % (Decimal(value.numerator), Decimal(value.denominator))


@dataclass
class WeightedSpec:
    """Deterministic weighted automaton over alternating input/output words.

    transitions maps (state, symbol) -> (target, weight); determinism is
    the key shape of that dict.  polarity maps every state to INPUT or
    OUTPUT and is inferred, never declared, in files.  _dom_steps and
    _closures memoize domain.py's steps and single-state closures of the
    domain automaton; a spec derived by dataclasses.replace starts empty.
    """

    inputs: tuple
    outputs: tuple
    states: tuple
    initial: str
    finals: tuple
    transitions: dict
    measure: str = SUM
    discount: Optional[Fraction] = None
    polarity: dict = field(default_factory=dict)
    _dom_steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _closures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.polarity:
            self.polarity = _infer_polarity(self)
        validate_spec(self)

    def input_states(self):
        return [q for q in self.states if self.polarity[q] == INPUT]

    def output_states(self):
        return [q for q in self.states if self.polarity[q] == OUTPUT]

    def with_measure(self, measure, discount=None):
        return replace(
            self,
            transitions=dict(self.transitions),
            measure=measure,
            discount=discount,
            polarity=dict(self.polarity),
        )


@dataclass
class MealyTransducer:
    """Input-deterministic transducer; (state, input) -> (output, target)."""

    inputs: tuple
    outputs: tuple
    states: tuple
    initial: str
    finals: tuple
    transitions: dict

    def __post_init__(self):
        _no_repeats("final state", self.finals)
        known = set(self.states)
        if self.initial not in known:
            raise SpecError("unknown initial state %r" % self.initial)
        for f in self.finals:
            if f not in known:
                raise SpecError("unknown final state %r" % f)
        inputs, outputs = set(self.inputs), set(self.outputs)
        for (src, sym), (out, tgt) in self.transitions.items():
            if src not in known or tgt not in known:
                raise SpecError("dangling state in transition %r" % ((src, sym),))
            if sym not in inputs:
                raise SpecError("unknown input %r in transition %r" % (sym, (src, sym)))
            if out not in outputs:
                raise SpecError("unknown output %r in transition %r" % (out, (src, sym)))


def _infer_polarity(spec: WeightedSpec) -> dict:
    """Assign input/output polarity to every state.

    Alternation makes polarity a 2-colouring of the transition graph.  The
    initial state is anchored as input, and the source of a transition
    whose symbol lies in exactly one alphabet as that alphabet's side; a
    FIFO worklist over the transitions, both ways, then gives each state it
    reaches the opposite polarity of its neighbour.  States no anchor
    reaches (unreachable, ambiguous symbols only) default to input.
    """
    side = dict.fromkeys(spec.outputs, OUTPUT)
    side.update({a: None if a in side else INPUT for a in spec.inputs})
    polarity = {spec.initial: INPUT}
    neighbours = {}
    for (src, sym), (tgt, _w) in spec.transitions.items():
        pol = side.get(sym)
        if pol is not None and polarity.setdefault(src, pol) != pol:
            raise SpecError("polarity conflict at state %r" % (src,))
        neighbours.setdefault(src, []).append(tgt)
        neighbours.setdefault(tgt, []).append(src)
    queue = list(polarity)  # grows as it is read: a FIFO in discovery order
    for state in queue:
        flip = OUTPUT if polarity[state] == INPUT else INPUT
        for other in neighbours.get(state, ()):
            pol = polarity.get(other)
            if pol is None:
                polarity[other] = flip
                queue.append(other)
            elif pol != flip:
                raise SpecError("polarity conflict at state %r" % (other,))
    for q in spec.states:
        polarity.setdefault(q, INPUT)
    return polarity


def _no_repeats(kind, names):
    """SpecError naming the most repeated of names (the first, on a tie), if any."""
    if len(set(names)) < len(names):
        raise SpecError("repeated %s %r" % (kind, Counter(names).most_common(1)[0][0]))


def validate_spec(spec: WeightedSpec):
    for kind, names in (("input symbol", spec.inputs), ("output symbol", spec.outputs),
                        ("state", spec.states), ("final state", spec.finals)):
        _no_repeats(kind, names)
    known = set(spec.states)
    if spec.initial not in known:
        raise SpecError("unknown initial state %r" % spec.initial)
    if spec.polarity[spec.initial] != INPUT:
        raise SpecError("initial state must be an input state")
    inputs, outputs = set(spec.inputs), set(spec.outputs)
    for f in spec.finals:
        if f not in known:
            raise SpecError("unknown final state %r" % f)
        if spec.polarity[f] == OUTPUT:
            raise SpecError("final state %r is an output state" % f)
    for (src, sym), (tgt, _w) in spec.transitions.items():
        if src not in known or tgt not in known:
            raise SpecError("dangling state in transition (%r, %r)" % (src, sym))
        expected = inputs if spec.polarity[src] == INPUT else outputs
        if sym not in expected:
            raise SpecError(
                "transition (%r, %r) reads a symbol outside its state's alphabet"
                % (src, sym)
            )
        want = OUTPUT if spec.polarity[src] == INPUT else INPUT
        if spec.polarity[tgt] != want:
            raise SpecError("alternation violated by transition (%r, %r)" % (src, sym))
    if spec.measure not in MEASURES:
        raise SpecError("unknown measure %r" % spec.measure)
    if spec.measure == DSUM:
        if spec.discount is None or not (0 < spec.discount < 1):
            raise SpecError("dsum measure needs a discount strictly between 0 and 1")
    elif spec.discount is not None:
        raise SpecError("discount only makes sense for the dsum measure")


def word(text) -> tuple:
    """Normalize a word given as a string or an iterable of symbol tokens.

    Whitespace-separated tokens if any whitespace is present, otherwise
    one symbol per character.
    """
    if isinstance(text, str):
        return tuple(text.split()) if any(c.isspace() for c in text) else tuple(text)
    return tuple(text)


def measure_value(weights: Sequence[int], measure: str, discount=None):
    """Aggregate a weight sequence; the empty sequence has value 0."""
    if not weights:
        return Fraction(0)
    if measure == SUM:
        return Fraction(sum(weights))
    if measure == AVG:
        return Fraction(sum(weights), len(weights))
    acc = Fraction(0)
    power = Fraction(1)
    for w in weights:
        power *= discount
        acc += power * w
    return acc


def evaluate(spec: WeightedSpec, u, v):
    """Value of the convolution of u and v: the run's measure, or NEG_INF.

    NEG_INF when the run does not exist or does not end in a final state.
    """
    u, v = word(u), word(v)
    if len(u) != len(v):
        raise ValueError("input and output words must have equal length")
    inputs, outputs = set(spec.inputs), set(spec.outputs)
    for a in u:
        if a not in inputs:
            raise ValueError("symbol %r not in the input alphabet" % a)
    for b in v:
        if b not in outputs:
            raise ValueError("symbol %r not in the output alphabet" % b)
    state = spec.initial
    weights = []
    for a, b in zip(u, v):
        for sym in (a, b):
            entry = spec.transitions.get((state, sym))
            if entry is None:
                return NEG_INF
            state, w = entry[0], entry[1]
            weights.append(w)
    if state not in spec.finals:
        return NEG_INF
    return measure_value(weights, spec.measure, spec.discount)


def best_value(spec: WeightedSpec, u):
    """Maximum value of u paired with any output word of the same length.

    Outputs are length-matched to inputs, so the supremum is a maximum
    over finitely many candidates; computed by a forward DP that keeps,
    per state, the best exact prefix value (valid for dsum because all
    runs at a fixed position share the remaining discount factor).
    """
    u = word(u)
    inputs = set(spec.inputs)
    for a in u:
        if a not in inputs:
            raise ValueError("symbol %r not in the input alphabet" % a)
    outs_by_state = {}
    for (src, sym), (tgt, w) in spec.transitions.items():
        if spec.polarity[src] == OUTPUT:
            outs_by_state.setdefault(src, []).append((tgt, w))
    lam = spec.discount
    front = {spec.initial: Fraction(0)}
    step = 0
    for a in u:
        step += 1
        factor = lam**step if spec.measure == DSUM else 1
        mid = {}
        for state, val in front.items():
            entry = spec.transitions.get((state, a))
            if entry is None:
                continue
            tgt, w = entry
            cand = val + factor * w
            if tgt not in mid or cand > mid[tgt]:
                mid[tgt] = cand
        step += 1
        factor = lam**step if spec.measure == DSUM else 1
        front = {}
        for state, val in mid.items():
            for tgt, w in outs_by_state.get(state, ()):
                cand = val + factor * w
                if tgt not in front or cand > front[tgt]:
                    front[tgt] = cand
        if not front:
            return NEG_INF
    best = [val for state, val in front.items() if state in spec.finals]
    if not best:
        return NEG_INF
    top = max(best)
    if spec.measure == AVG and u:
        top = top / (2 * len(u))
    return top


def run_transducer(t: MealyTransducer, u):
    """Output of the unique run on u, or None when undefined.

    Undefined when the run dies, reads a foreign symbol, or ends outside
    the final states.
    """
    u = word(u)
    state = t.initial
    out = []
    for a in u:
        entry = t.transitions.get((state, a))
        if entry is None:
            return None
        b, state = entry
        out.append(b)
    return tuple(out) if state in t.finals else None


def minimize_transducer(t: MealyTransducer) -> MealyTransducer:
    """The least machine whose states are t's reachable states up to
    equivalence (Moore 1956).

    Partition refinement starts from final and non-final states, then
    splits each class by every input's output and target class until no
    class splits; an undefined transition stays apart from every defined
    one, so no don't-care states are merged.  Only transitions on
    t.inputs are read.  The classes are named m0, m1, ... in
    breadth-first order of the quotient from the initial class, inputs
    in alphabet order, so the result depends on no set or hash order.
    """
    # the states reachable from the initial one, numbered breadth first by
    # hand: this loop reads every transition, and numbering them with
    # core.bfs made minimizing the approx-knowledge pool's 211 machines
    # about a third slower
    index = {t.initial: 0}
    order = [t.initial]
    rows = []  # per reachable state, per input: None or (output, state number)
    for q in order:
        row = []
        for a in t.inputs:
            entry = t.transitions.get((q, a))
            if entry is not None:
                b, tgt = entry
                if tgt not in index:
                    index[tgt] = len(order)
                    order.append(tgt)
                entry = (b, index[tgt])
            row.append(entry)
        rows.append(row)
    finals = set(t.finals)
    block = [q in finals for q in order]
    count = 0
    while True:
        classes = {}
        block = [
            classes.setdefault(
                (block[k],) + tuple(e and (e[0], block[e[1]]) for e in row), len(classes)
            )
            for k, row in enumerate(rows)
        ]
        if len(classes) == count:
            break
        count = len(classes)
    first = {}  # class -> its first state number, whose row stands for the class
    for k, c in enumerate(block):
        first.setdefault(c, k)

    def moves(c):
        return ((block[e[1]], a) for a, e in zip(t.inputs, rows[first[c]]) if e)

    name = {c: "m%d" % k for k, c in enumerate(bfs(moves, [block[0]])[0])}
    return MealyTransducer(
        inputs=t.inputs,
        outputs=t.outputs,
        states=tuple(name.values()),
        initial="m0",
        finals=tuple(name[c] for c in name if order[first[c]] in finals),
        transitions={
            (name[c], a): (e[0], name[block[e[1]]])
            for c in name
            for a, e in zip(t.inputs, rows[first[c]])
            if e
        },
    )


def bfs(successors, starts, goal=None):
    """Breadth-first search: (links, found).

    successors(node) yields (next, step) pairs.  links maps every node
    discovered to (prev, step), the first edge that reached it, or to
    None for a start, in discovery order.  found is the first node taken
    off the queue that meets goal, or None; the search stops there.
    """
    links = dict.fromkeys(starts)
    queue = deque(links)
    while queue:
        node = queue.popleft()
        if goal is not None and goal(node):
            return links, node
        for nxt, step in successors(node):
            if nxt not in links:
                links[nxt] = (node, step)
                queue.append(nxt)
    return links, None


def walk_back(links, node):
    """The steps of the walk that the links lead back from node to a start."""
    steps = []
    while links[node] is not None:
        if len(steps) > len(links):
            raise InternalError("parent links form a cycle")
        node, step = links[node]
        steps.append(step)
    steps.reverse()
    return steps


# ---------------------------------------------------------------------------
# Text formats
#
# .wfa, .mealy and .arena share one line grammar: '#' starts a comment and
# blank lines are skipped; the first line names the format, and every other
# line is a directive `key: token token ...`.  Parsers keep names in
# first-mention order as the keys of a dict, which also tests membership.

_ANY = (0, None, None)


def _directives(text: str, header: str, arity: dict, weighted=None):
    """Yield (line number, key, tokens) for each directive after the header.

    arity maps each directive to (fewest tokens, most tokens or None, the
    message when the count is off); any other key is an unknown directive.
    On the `weighted` directive, token 2 is an integer weight and is
    yielded as an int.
    """
    for number, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        key, _colon, rest = line.partition(":")
        key, tokens = key.strip(), rest.split()
        if header is not None:
            if key != header or tokens:
                raise FormatError("expected '%s' header" % header, number)
            header = None
            continue
        rule = arity.get(key)
        if rule is None:
            raise FormatError("unknown directive %r" % key, number)
        low, high, message = rule
        if len(tokens) < low or high is not None and len(tokens) > high:
            raise FormatError(message, number)
        if key == weighted:
            try:
                tokens[2] = _integer(tokens[2])
            except ValueError:
                raise FormatError("weight must be an integer", number)
        yield number, key, tokens
    if header is not None:
        raise FormatError("expected '%s' header" % header, 1)


def _build(make, **fields):
    """make(**fields), with the SpecError or ValueError it raises as a FormatError."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise FormatError(str(exc))


_WFA = {
    "measure": (1, 1, "measure must be one of sum|avg|dsum"),
    "discount": (1, 1, "discount takes one rational"),
    "inputs": _ANY,
    "outputs": _ANY,
    "initial": (1, 1, "initial takes one state"),
    "finals": _ANY,
    "trans": (4, 4, "trans takes: source symbol weight target"),
}


def parse_wfa(text: str) -> WeightedSpec:
    """Parse the .wfa format (see emit_wfa for the shape)."""
    measure = discount = inputs = outputs = initial = None
    finals = ()
    transitions = {}
    states = {}
    for number, key, tokens in _directives(text, "wfa", _WFA, "trans"):
        if key == "trans":
            src, sym, weight, tgt = tokens
            if (src, sym) in transitions:
                raise FormatError("nondeterministic at %s/%s" % (src, sym), number)
            states[src] = states[tgt] = None
            transitions[(src, sym)] = (tgt, weight)
        elif key == "measure":
            measure = tokens[0]
            if measure not in MEASURES:
                raise FormatError(_WFA["measure"][2], number)
        elif key == "discount":
            try:
                discount = parse_rational(tokens[0])
            except ValueError as exc:
                raise FormatError(str(exc), number)
        elif key == "inputs":
            inputs = tuple(tokens)
        elif key == "outputs":
            outputs = tuple(tokens)
        elif key == "initial":
            initial = tokens[0]
            states[initial] = None
        elif key == "finals":
            finals = tuple(tokens)
            states.update(dict.fromkeys(finals))
    if measure is None:
        raise FormatError("missing measure")
    if inputs is None or outputs is None:
        raise FormatError("missing inputs or outputs")
    if initial is None:
        raise FormatError("missing initial")
    return _build(
        WeightedSpec,
        inputs=inputs,
        outputs=outputs,
        states=tuple(states),
        initial=initial,
        finals=finals,
        transitions=transitions,
        measure=measure,
        discount=discount,
    )


def emit_wfa(spec: WeightedSpec) -> str:
    lines = ["wfa", "measure: %s" % spec.measure]
    if spec.measure == DSUM:
        lines.append("discount: %s" % format_rational(spec.discount))
    lines.append("inputs: %s" % " ".join(spec.inputs))
    lines.append("outputs: %s" % " ".join(spec.outputs))
    lines.append("initial: %s" % spec.initial)
    lines.append("finals: %s" % " ".join(spec.finals))
    for (src, sym), (tgt, w) in spec.transitions.items():
        lines.append("trans: %s %s %s %s" % (src, sym, format_rational(w), tgt))
    return "\n".join(lines) + "\n"


_MEALY = {
    "initial": (1, 1, "initial takes one state"),
    "finals": _ANY,
    "trans": (4, 4, "trans takes: source input output target"),
}


def parse_mealy(text: str) -> MealyTransducer:
    initial = None
    finals = ()
    transitions = {}
    states = {}
    inputs = {}
    outputs = {}
    for number, key, tokens in _directives(text, "mealy", _MEALY):
        if key == "trans":
            src, a, b, tgt = tokens
            if (src, a) in transitions:
                raise FormatError("nondeterministic at %s/%s" % (src, a), number)
            states[src] = states[tgt] = inputs[a] = outputs[b] = None
            transitions[(src, a)] = (b, tgt)
        elif key == "initial":
            initial = tokens[0]
            states[initial] = None
        elif key == "finals":
            finals = tuple(tokens)
            states.update(dict.fromkeys(finals))
    if initial is None:
        raise FormatError("missing initial")
    return _build(
        MealyTransducer,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        states=tuple(states),
        initial=initial,
        finals=finals,
        transitions=transitions,
    )


def emit_mealy(t: MealyTransducer) -> str:
    lines = ["mealy", "initial: %s" % t.initial, "finals: %s" % " ".join(t.finals)]
    for (src, a), (b, tgt) in t.transitions.items():
        lines.append("trans: %s %s %s %s" % (src, a, b, tgt))
    return "\n".join(lines) + "\n"


def _dot(graph: str, nodes, initial, edges, label=str) -> str:
    """Graphviz text of a left-to-right digraph with an arrow into initial.

    nodes are (node, attributes) pairs and edges (source, target, text)
    triples.  Node k gets the id n<k>, in node order, and label(node) as
    its quoted label; each label escapes backslashes and double quotes.
    The arrow starts at a point node init, which no n<k> can equal.
    """

    def quoted(text):
        return '"%s"' % str(text).replace("\\", "\\\\").replace('"', '\\"')

    ids = {v: "n%d" % k for k, (v, _attributes) in enumerate(nodes)}
    lines = ["digraph %s {" % graph, "  rankdir=LR;"]
    lines += [
        "  %s [label=%s, %s];" % (ids[v], quoted(label(v)), attributes)
        for v, attributes in nodes
    ]
    lines.append("  init [shape=point];")
    lines.append("  init -> %s;" % ids[initial])
    lines += [
        "  %s -> %s [label=%s];" % (ids[src], ids[dst], quoted(text))
        for src, dst, text in edges
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def mealy_to_dot(t: MealyTransducer) -> str:
    return _dot(
        "mealy",
        [(q, "shape=doublecircle" if q in t.finals else "shape=circle") for q in t.states],
        t.initial,
        [(src, tgt, "%s|%s" % (a, b)) for (src, a), (b, tgt) in t.transitions.items()],
    )
