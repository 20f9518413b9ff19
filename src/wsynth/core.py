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

from collections import deque
from dataclasses import dataclass, field, replace
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


def parse_rational(text: str) -> Fraction:
    """Parse 'P/Q' or a plain integer into an exact Fraction."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("not a rational: %r" % text) from exc


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


@dataclass
class WeightedSpec:
    """Deterministic weighted automaton over alternating input/output words.

    transitions maps (state, symbol) -> (target, weight); determinism is
    the key shape of that dict.  polarity maps every state to INPUT or
    OUTPUT and is inferred, never declared, in files.  _dom_steps is the
    step table of the lazily determinized domain automaton, filled by
    domain._dom_step; a spec derived by dataclasses.replace starts empty.
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
        known = set(self.states)
        if self.initial not in known:
            raise SpecError("unknown initial state %r" % self.initial)
        for f in self.finals:
            if f not in known:
                raise SpecError("unknown final state %r" % f)
        for (src, sym), (out, tgt) in self.transitions.items():
            if src not in known or tgt not in known:
                raise SpecError("dangling state in transition %r" % ((src, sym),))


def _infer_polarity(spec: WeightedSpec) -> dict:
    """Assign input/output polarity to every state.

    Alternation makes polarity a 2-colouring of the transition graph.  The
    initial state is anchored as input, and the source of a transition
    whose symbol lies in exactly one alphabet as that alphabet's side; one
    bfs over the transitions, both ways, then gives every state it reaches
    the opposite polarity of its neighbour.  States no anchor reaches
    (unreachable, ambiguous symbols only) default to input polarity.
    """
    inputs, outputs = set(spec.inputs), set(spec.outputs)
    polarity = {}
    neighbours = {}

    def assign(state, pol):
        if polarity.setdefault(state, pol) != pol:
            raise SpecError("polarity conflict at state %r" % (state,))

    assign(spec.initial, INPUT)
    for (src, sym), (tgt, _w) in spec.transitions.items():
        if sym in inputs and sym not in outputs:
            assign(src, INPUT)
        elif sym in outputs and sym not in inputs:
            assign(src, OUTPUT)
        neighbours.setdefault(src, []).append(tgt)
        neighbours.setdefault(tgt, []).append(src)

    def successors(state):
        flip = OUTPUT if polarity[state] == INPUT else INPUT
        for other in neighbours.get(state, ()):
            assign(other, flip)
            yield other, None

    bfs(successors, list(polarity))
    for q in spec.states:
        polarity.setdefault(q, INPUT)
    return polarity


def validate_spec(spec: WeightedSpec):
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
    if state not in t.finals:
        return None
    return tuple(out)


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


def _tokenize(text: str):
    """Yield (line_number, key, tokens) per meaningful line."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            key, rest = line.split(":", 1)
            yield number, key.strip(), rest.split()
        else:
            yield number, line, []


def parse_wfa(text: str) -> WeightedSpec:
    """Parse the .wfa format (see emit_wfa for the shape)."""
    lines = list(_tokenize(text))
    if not lines or lines[0][1] != "wfa" or lines[0][2]:
        raise FormatError("expected 'wfa' header", lines[0][0] if lines else 1)
    measure = None
    discount = None
    inputs = outputs = None
    initial = None
    finals = None
    transitions = {}
    states = []
    seen_states = set()

    def note_state(name):
        if name not in seen_states:
            seen_states.add(name)
            states.append(name)

    for number, key, tokens in lines[1:]:
        if key == "measure":
            if len(tokens) != 1 or tokens[0] not in MEASURES:
                raise FormatError("measure must be one of sum|avg|dsum", number)
            measure = tokens[0]
        elif key == "discount":
            if len(tokens) != 1:
                raise FormatError("discount takes one rational", number)
            try:
                discount = parse_rational(tokens[0])
            except ValueError as exc:
                raise FormatError(str(exc), number)
        elif key == "inputs":
            inputs = tuple(tokens)
        elif key == "outputs":
            outputs = tuple(tokens)
        elif key == "initial":
            if len(tokens) != 1:
                raise FormatError("initial takes one state", number)
            initial = tokens[0]
            note_state(initial)
        elif key == "finals":
            finals = tuple(tokens)
            for f in finals:
                note_state(f)
        elif key == "trans":
            if len(tokens) != 4:
                raise FormatError("trans takes: source symbol weight target", number)
            src, sym, weight, tgt = tokens
            try:
                weight = int(weight)
            except ValueError:
                raise FormatError("weight must be an integer", number)
            if (src, sym) in transitions:
                raise FormatError("nondeterministic at %s/%s" % (src, sym), number)
            note_state(src)
            note_state(tgt)
            transitions[(src, sym)] = (tgt, weight)
        else:
            raise FormatError("unknown directive %r" % key, number)
    if measure is None:
        raise FormatError("missing measure")
    if inputs is None or outputs is None:
        raise FormatError("missing inputs or outputs")
    if initial is None:
        raise FormatError("missing initial")
    if finals is None:
        finals = ()
    try:
        return WeightedSpec(
            inputs=inputs,
            outputs=outputs,
            states=tuple(states),
            initial=initial,
            finals=finals,
            transitions=transitions,
            measure=measure,
            discount=discount,
        )
    except SpecError as exc:
        raise FormatError(str(exc))


def emit_wfa(spec: WeightedSpec) -> str:
    lines = ["wfa", "measure: %s" % spec.measure]
    if spec.measure == DSUM:
        lines.append("discount: %s" % format_rational(spec.discount))
    lines.append("inputs: %s" % " ".join(spec.inputs))
    lines.append("outputs: %s" % " ".join(spec.outputs))
    lines.append("initial: %s" % spec.initial)
    lines.append("finals: %s" % " ".join(spec.finals))
    for (src, sym), (tgt, w) in spec.transitions.items():
        lines.append("trans: %s %s %d %s" % (src, sym, w, tgt))
    return "\n".join(lines) + "\n"


def parse_mealy(text: str) -> MealyTransducer:
    lines = list(_tokenize(text))
    if not lines or lines[0][1] != "mealy" or lines[0][2]:
        raise FormatError("expected 'mealy' header", lines[0][0] if lines else 1)
    initial = None
    finals = ()
    transitions = {}
    states = []
    seen = set()
    inputs = []
    outputs = []

    def note_state(name):
        if name not in seen:
            seen.add(name)
            states.append(name)

    for number, key, tokens in lines[1:]:
        if key == "initial":
            if len(tokens) != 1:
                raise FormatError("initial takes one state", number)
            initial = tokens[0]
            note_state(initial)
        elif key == "finals":
            finals = tuple(tokens)
            for f in finals:
                note_state(f)
        elif key == "trans":
            if len(tokens) != 4:
                raise FormatError("trans takes: source input output target", number)
            src, a, b, tgt = tokens
            if (src, a) in transitions:
                raise FormatError("nondeterministic at %s/%s" % (src, a), number)
            note_state(src)
            note_state(tgt)
            if a not in inputs:
                inputs.append(a)
            if b not in outputs:
                outputs.append(b)
            transitions[(src, a)] = (b, tgt)
        else:
            raise FormatError("unknown directive %r" % key, number)
    if initial is None:
        raise FormatError("missing initial")
    try:
        return MealyTransducer(
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            states=tuple(states),
            initial=initial,
            finals=finals,
            transitions=transitions,
        )
    except SpecError as exc:
        raise FormatError(str(exc))


def emit_mealy(t: MealyTransducer) -> str:
    lines = ["mealy", "initial: %s" % t.initial, "finals: %s" % " ".join(t.finals)]
    for (src, a), (b, tgt) in t.transitions.items():
        lines.append("trans: %s %s %s %s" % (src, a, b, tgt))
    return "\n".join(lines) + "\n"


def _dot_escape(name):
    return str(name).replace('"', '\\"')


def mealy_to_dot(t: MealyTransducer) -> str:
    lines = ["digraph mealy {", "  rankdir=LR;"]
    for q in t.states:
        shape = "doublecircle" if q in t.finals else "circle"
        lines.append('  "%s" [shape=%s];' % (_dot_escape(q), shape))
    lines.append('  __init [shape=point];')
    lines.append('  __init -> "%s";' % _dot_escape(t.initial))
    for (src, a), (b, tgt) in t.transitions.items():
        lines.append(
            '  "%s" -> "%s" [label="%s|%s"];'
            % (_dot_escape(src), _dot_escape(tgt), _dot_escape(a), _dot_escape(b))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
