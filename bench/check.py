"""Answer checks that do not go through the code under test.

The benchmark generated every specification, so it evaluates them from
its own data: values of input/output word pairs, best values by
enumerating every output word, and bounded-length brute force over all
input words.  The only program code used here is verify_realizer, which
the caller runs as a second, independent re-check of every machine.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# Longest input word the brute-force check enumerates, by alphabet size.
BRUTE_LEN = {2: 5, 3: 3}

_CMP = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def _rational(text):
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den or 1))


class Spec:
    """A generated specification, indexed for evaluation."""

    def __init__(self, data):
        self.inputs = data["inputs"]
        self.outputs = data["outputs"]
        self.initial = data["initial"]
        self.finals = set(data["finals"])
        self.measure = data["measure"]
        self.lam = _rational(data["discount"]) if data["discount"] else None
        self.step = {(src, sym): (tgt, w) for src, sym, w, tgt in data["trans"]}

    def value(self, u, v):
        """Value of the pair (u, v), or None outside the relation."""
        state, weights = self.initial, []
        for a, b in zip(u, v):
            for sym in (a, b):
                entry = self.step.get((state, sym))
                if entry is None:
                    return None
                state = entry[0]
                weights.append(entry[1])
        if state not in self.finals:
            return None
        if not weights:
            return Fraction(0)
        if self.measure == "sum":
            return Fraction(sum(weights))
        if self.measure == "avg":
            return Fraction(sum(weights), len(weights))
        return sum((self.lam ** (i + 1) * w for i, w in enumerate(weights)), Fraction(0))

    def best(self, u):
        """Best value over every output word of the same length, or None.

        Enumerates the output words up to the brute-force length; longer
        words (counterexamples from the verifier) use a forward pass that
        keeps the best weight prefix per state, which is exact because all
        runs on u have the same length and discount factors.
        """
        if len(u) <= BRUTE_LEN[len(self.inputs)]:
            values = [self.value(u, v) for v in itertools.product(self.outputs, repeat=len(u))]
            values = [x for x in values if x is not None]
            return max(values) if values else None
        front = {self.initial: (Fraction(0), Fraction(1))}
        for a in u:
            for symbols in ((a,), self.outputs):
                nxt = {}
                for state, (acc, power) in front.items():
                    for sym in symbols:
                        entry = self.step.get((state, sym))
                        if entry is None:
                            continue
                        factor = power * self.lam if self.lam else Fraction(1)
                        cand = acc + factor * entry[1]
                        if entry[0] not in nxt or cand > nxt[entry[0]][0]:
                            nxt[entry[0]] = (cand, factor)
                front = nxt
        values = [acc for state, (acc, _p) in front.items() if state in self.finals]
        if not values:
            return None
        if self.measure == "avg" and u:
            return max(values) / (2 * len(u))
        return max(values)


def parse_mealy(text):
    """(initial, finals, {(state, input): (output, target)}) of a .mealy file."""
    initial, finals, step = None, set(), {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        tokens = rest.split()
        if key == "initial":
            initial = tokens[0]
        elif key == "finals":
            finals = set(tokens)
        elif key == "trans":
            src, a, b, tgt = tokens
            step[(src, a)] = (b, tgt)
    return initial, finals, step


def machine_states(text):
    """Number of states named in a .mealy file, counted as the program does."""
    names = []
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        tokens = rest.split()
        if key == "trans":
            tokens = [tokens[0], tokens[3]]
        elif key not in ("initial", "finals"):
            continue
        for name in tokens:
            if name not in names:
                names.append(name)
    return len(names)


def run_machine(machine, u):
    initial, finals, step = machine
    state, out = initial, []
    for a in u:
        entry = step.get((state, a))
        if entry is None:
            return None
        out.append(entry[0])
        state = entry[1]
    return tuple(out) if state in finals else None


def violation(spec, machine, objective, u):
    """Why the machine fails the objective on input word u, or None."""
    out = run_machine(machine, u)
    best = spec.best(u)
    if (out is None) != (best is None):
        return "domain differs on %r" % (u,)
    if out is None:
        return None
    got = spec.value(u, out)
    if got is None:
        return "pair outside the relation on %r" % (u,)
    kind = objective[0]
    if kind == "threshold":
        ok = _CMP[objective[1]](got, _rational(objective[2]))
    elif kind == "best_value":
        ok = got == best
    else:
        ok = _CMP[objective[1]](best - got, _rational(objective[2]))
    return None if ok else "%s fails on %r: value %s, best %s" % (kind, u, got, best)


def brute_force(spec, machine, objective):
    """First violation over all input words up to BRUTE_LEN, or None."""
    limit = BRUTE_LEN[len(spec.inputs)]
    for n in range(limit + 1):
        for u in itertools.product(spec.inputs, repeat=n):
            why = violation(spec, machine, objective, u)
            if why is not None:
                return why
    return None


def path_witness(graph, witness, value):
    """Why a dsum-path YES answer's witness is wrong, or None."""
    weight = {(src, dst): w for src, w, dst in graph["edges"]}
    if not witness or witness[0] != graph["initial"]:
        return "witness does not start at the source"
    if witness[-1] not in graph["critical"]:
        return "witness does not end at a target"
    lam = _rational(graph["lam"])
    total, power = Fraction(0), Fraction(1)
    for src, dst in zip(witness, witness[1:]):
        if (src, dst) not in weight:
            return "witness uses a missing edge %s->%s" % (src, dst)
        power *= lam
        total += power * weight[(src, dst)]
    if total != _rational(value):
        return "witness value %s, reported %s" % (total, value)
    nu = _rational(graph["nu"])
    if not (total < nu if graph["strict"] else total <= nu):
        return "witness value %s misses the threshold %s" % (total, nu)
    return None
