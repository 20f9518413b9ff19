"""Command-line front end.

Every command returns an answer word, and one table maps it to the exit
code: 0 realizable, pass, eve, yes, domain_safe, ok or a defined value;
1 unrealizable, no_boolean_realizer, fail, adam, no or -inf;
2 unknown_at_cap.  Other codes: 64 usage error, 65 input format error,
70 internal error (a broken guarantee, e.g. a synthesized machine that
fails verification, an answer missing from the table, or any other
unexpected exception).  Output on stdout is byte-deterministic for
identical inputs and flags; timings and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

from . import core, domain, dsumpath, games, prefix, synthesis
from .core import DSUM, FormatError, InternalError, format_rational, parse_rational
from .games import EVE

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_FORMAT = 65
EXIT_SOFTWARE = 70

# answers only the command line gives; eval and bestval print the value
# itself, and DEFINED stands for any value but -inf
DOMAIN_SAFE = "domain_safe"
OK = "ok"
DEFINED = "defined"
UNDEFINED = "-inf"

# the one answer -> exit code table; an answer missing here is exit 70
EXIT_CODE = {
    synthesis.REALIZABLE: EXIT_YES,
    synthesis.UNREALIZABLE: EXIT_NO,
    synthesis.NO_BOOLEAN_REALIZER: EXIT_NO,
    synthesis.UNKNOWN_AT_CAP: EXIT_UNKNOWN,
    synthesis.PASS: EXIT_YES,
    synthesis.FAIL: EXIT_NO,
    games.EVE: EXIT_YES,
    games.ADAM: EXIT_NO,
    dsumpath.YES: EXIT_YES,
    dsumpath.NO: EXIT_NO,
    DOMAIN_SAFE: EXIT_YES,
    OK: EXIT_YES,
    DEFINED: EXIT_YES,
    UNDEFINED: EXIT_NO,
}

# argparse reads a separate "-1/2" as an option, not as the flag's value
_RATIONAL_FLAGS = ("--nu", "--r", "--lambda")
_NEGATIVE_RATIONAL = re.compile(r"^-\d+/\d+$")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _rational(text):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise FormatError("cannot decode %s: %s" % (path, exc))


def _emit(args, payload, human_lines):
    """Print the answer.  The payload's "text" goes to the -o file; without
    one it stays in the JSON object with --json, or else goes to stdout
    ahead of the human lines."""
    out_path = getattr(args, "out", None)
    if "text" in payload and out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(payload.pop("text"))
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (out_path, exc))
    elif "text" in payload and not args.json:
        sys.stdout.write(payload.pop("text"))
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")


def _attach_negative_rationals(argv):
    """Rewrite `--nu -1/2` as `--nu=-1/2` so argparse takes the value."""
    out = []
    for arg in argv:
        if out and out[-1] in _RATIONAL_FLAGS and _NEGATIVE_RATIONAL.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _objective_flags(p):
    p.add_argument("--cmp", choices=["gt", "ge", "lt", "le"], default=None)
    p.add_argument("--nu", default=None)
    p.add_argument("--r", dest="slack", default=None)


def _domain_safe_args(p):
    p.add_argument("spec")
    p.add_argument("-o", dest="out", default=None)
    p.add_argument("--dot", action="store_true", help="emit the two-run game as DOT")


def _synth_args(p):
    p.add_argument("objective", choices=["threshold", "best-value", "approx"])
    p.add_argument("spec")
    _objective_flags(p)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("-o", dest="out", default=None)
    p.add_argument("--dot", action="store_true")


def _verify_args(p):
    p.add_argument("spec")
    p.add_argument("mealy")
    p.add_argument(
        "--objective",
        required=True,
        choices=["boolean", "threshold", "best-value", "approx"],
    )
    _objective_flags(p)


def _bestval_args(p):
    p.add_argument("spec")
    p.add_argument("--input", required=True)


def _eval_args(p):
    _bestval_args(p)
    p.add_argument("--output", required=True)


def _solve_prefix_args(p):
    p.add_argument("arena")
    p.add_argument("--measure", required=True, choices=["sum", "avg", "dsum"])
    p.add_argument("--cmp", required=True, choices=["gt", "ge"])
    p.add_argument("--nu", required=True)
    p.add_argument("--lambda", dest="discount", default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--dot", action="store_true")


def _dsum_path_args(p):
    p.add_argument("arena")
    p.add_argument("--nu", required=True)
    p.add_argument("--lambda", dest="discount", required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--trace", action="store_true")


def _gen_args(p):
    p.add_argument("what", choices=["mp-to-spec"])
    p.add_argument("arena")
    p.add_argument("-o", dest="out", default=None)


@functools.cache
def build_parser():
    """The wsynth parser with every subcommand, built on first use and
    shared by every later call in the process."""
    parser = _Parser(prog="wsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _run) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        add_arguments(command)
        # last, where every command's help has always listed it
        command.add_argument("--json", action="store_true")
    return parser


def _cmd_domain_safe(args):
    spec = core.parse_wfa(_read(args.spec))
    already = domain.is_domain_safe(spec)
    game = domain.build_two_run_game(spec)
    result = domain.make_domain_safe(spec, game)
    if result is None:
        return synthesis.NO_BOOLEAN_REALIZER, {"already_safe": already}, ["no boolean realizer"]
    payload = {
        "already_safe": already,
        "states": len(result.states),
        "transitions": len(result.transitions),
        "text": domain.two_run_game_to_dot(game) if args.dot else core.emit_wfa(result),
    }
    return DOMAIN_SAFE, payload, []


def _require(condition, message):
    if not condition:
        raise UsageError(message)


_CMP = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}


def _objective(args):
    """The objective that --objective, --cmp, --nu and --r name; flags are
    validated before any file is read, and a flag the objective does not
    read is rejected rather than ignored."""
    kind = args.objective.replace("-", "_")
    for flag, value, readers in (
        ("--cmp", args.cmp, ("threshold", "approx")),
        ("--nu", args.nu, ("threshold",)),
        ("--r", args.slack, ("approx",)),
        ("--cap", getattr(args, "cap", None), ("approx",)),  # synth only
    ):
        _require(value is None or kind in readers, "%s takes no %s" % (args.objective, flag))
    if kind == "threshold":
        _require(args.cmp in ("gt", "ge"), "threshold needs --cmp gt|ge")
        _require(args.nu is not None, "threshold needs --nu")
        bound = _rational(args.nu)
    elif kind == "approx":
        _require(args.cmp in ("lt", "le"), "approx needs --cmp lt|le")
        _require(args.slack is not None, "approx needs --r")
        bound = _rational(args.slack)
        _require(bound >= 0, "--r must be nonnegative")
    else:
        return synthesis.Objective(kind=kind)
    return synthesis.Objective(kind=kind, cmp=_CMP[args.cmp], bound=bound)


def _cmd_synth(args):
    obj = _objective(args)
    _require(args.cap is None or args.cap >= 0, "--cap must be nonnegative")
    spec = core.parse_wfa(_read(args.spec))
    if args.objective == "threshold":
        result = synthesis.synth_threshold(spec, obj.cmp, obj.bound)
    elif args.objective == "best-value":
        result = synthesis.synth_best_value(spec)
    else:
        if spec.measure == DSUM:
            raise UsageError(
                "unsupported: approximate dsum synthesis requires external "
                "determinization of discounted-sum automata"
            )
        doubling = args.cap is None  # the smallest winning cap up to the default
        cap = _default_cap(spec) if doubling else args.cap
        result = synthesis.synth_approx(spec, obj.cmp, obj.bound, cap, doubling=doubling)

    payload = {"objective": args.objective}
    lines = [result.status]
    if result.status == synthesis.REALIZABLE:
        machine = result.transducer
        payload["text"] = core.mealy_to_dot(machine) if args.dot else core.emit_mealy(machine)
        payload["transducer_states"] = len(machine.states)
        if not args.out:
            lines = []  # the machine is the answer
    elif result.status == synthesis.UNKNOWN_AT_CAP:
        payload["cap"] = result.cap
        lines = ["unknown at cap %d" % result.cap]
    return result.status, payload, lines


def _default_cap(spec):
    wmax = max((abs(w) for _t, w in spec.transitions.values()), default=1)
    return 4 * max(1, len(spec.states)) * max(1, wmax)


def _cmd_verify(args):
    obj = _objective(args)
    spec = core.parse_wfa(_read(args.spec))
    machine = core.parse_mealy(_read(args.mealy))
    verdict, witness = synthesis.verify_realizer(spec, machine, obj)
    if verdict != synthesis.FAIL:
        return verdict, {}, [verdict]
    lines = [verdict, "witness: %s" % " ".join(witness)]
    produced = core.run_transducer(machine, witness)
    if produced is not None and obj.kind != "boolean":
        got = core.evaluate(spec, witness, produced)
        top = core.best_value(spec, witness)
        lines.append("value: %s" % _value_text(got))
        lines.append("best: %s" % _value_text(top))
    return verdict, {"witness": list(witness)}, lines


def _value_text(value):
    return UNDEFINED if value is core.NEG_INF else format_rational(value)


def _cmd_value(args):
    spec = core.parse_wfa(_read(args.spec))
    u = core.word(args.input)
    try:
        if args.command == "eval":
            value = core.evaluate(spec, u, core.word(args.output))
        else:
            value = core.best_value(spec, u)
    except ValueError as exc:
        raise UsageError(str(exc))
    text = _value_text(value)
    return UNDEFINED if value is core.NEG_INF else DEFINED, {"answer": text}, [text]


def _cmd_solve_prefix(args):
    arena = games.parse_arena(_read(args.arena))
    discount = _rational(args.discount) if args.discount else None
    try:
        obj = prefix.PrefixObjective(
            measure=args.measure,
            cmp=_CMP[args.cmp],
            nu=_rational(args.nu),
            discount=discount,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    dead = arena.deadlocks()
    if dead:
        raise FormatError("arena has dead ends: %r" % (dead,))
    payload = {"text": games.arena_to_dot(arena)} if args.dot else {}
    game = prefix.reduce_prefix_game(arena, obj)
    if args.trace:
        sys.stderr.write("objective: %s %s %s\n" % (obj.measure, obj.cmp, format_rational(obj.nu)))
        sys.stderr.write("reduction: %s\n" % game.name)
        if game.reduction is not None:
            sys.stderr.write(games.emit_arena(game.reduction.arena))
    winner, strategy = prefix.play_prefix_game(arena, obj, game)
    lines = ["winner: %s" % winner]
    if winner == EVE and strategy is not None:
        lines.extend("strategy: %s %d" % (v, strategy.choice[v])
                     for v in arena.vertices if v in strategy.choice)
        payload["strategy_size"] = len(strategy.choice)
    return winner, payload, lines


def _cmd_dsum_path(args):
    arena = games.parse_arena(_read(args.arena))
    lam = _rational(args.discount)
    nu = _rational(args.nu)
    if not (0 < lam < 1):
        raise UsageError("discount must lie strictly between 0 and 1")
    # the arena's numbers and edges, with the critical vertices as targets
    graph = dsumpath.NumberedGraph(
        range(len(arena.moves)), dict(enumerate(arena.moves)), arena.number[arena.initial],
        arena.is_critical, arena.weight, arena.dst, arena.vertices, lam)
    checker = dsumpath.exists_path_lt if args.strict else dsumpath.exists_path_leq
    answer, witness = checker(graph, nu)
    if args.trace:
        table = dsumpath.compute_mrg(graph, nu)[0]
        if table is None:
            sys.stderr.write("no vertex reaches a target\n")
        else:
            for i, row in enumerate(table.rows):
                cells = ", ".join(
                    "%s=%s" % (v, format_rational(row[v])) for v in sorted(row, key=repr)
                )
                sys.stderr.write("mrg[%d]: %s\n" % (i, cells))
    if answer != dsumpath.YES:
        return answer, {}, [answer]
    vertices = [str(v) for v in witness.vertices]
    value = format_rational(witness.value)
    return answer, {"witness": vertices, "value": value}, [
        answer, "witness: %s" % " ".join(vertices), "value: %s" % value]


def _cmd_gen(args):
    arena = games.parse_arena(_read(args.arena))
    try:
        spec, (measure, cmp, nu) = synthesis.gen_spec_from_mp_game(arena)
    except ValueError as exc:
        raise FormatError(str(exc))
    payload = {
        "objective": {
            "measure": measure,
            "cmp": cmp,
            "nu": format_rational(nu),
        },
        "states": len(spec.states),
        "text": core.emit_wfa(spec),
    }
    return OK, payload, []


# command -> (help, argument builder, handler), in help-listing order; a
# handler returns (answer, JSON payload, human lines) and prints nothing
_COMMANDS = {
    "domain-safe": ("check/transform into a domain-safe spec", _domain_safe_args,
                    _cmd_domain_safe),
    "synth": ("synthesize a transducer", _synth_args, _cmd_synth),
    "verify": ("verify a transducer against a spec", _verify_args, _cmd_verify),
    "eval": ("value of an input/output pair", _eval_args, _cmd_value),
    "bestval": ("best achievable value for an input", _bestval_args, _cmd_value),
    "solve-prefix": ("solve a critical prefix threshold game", _solve_prefix_args,
                     _cmd_solve_prefix),
    "dsum-path": ("discounted-sum path threshold check", _dsum_path_args,
                  _cmd_dsum_path),
    "gen": ("generate test specifications", _gen_args, _cmd_gen),
}


def main(argv=None) -> int:
    argv = _attach_negative_rationals(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        answer, payload, lines = _COMMANDS[args.command][2](args)
        code = EXIT_CODE.get(answer)
        if code is None:
            raise InternalError("answer %r has no exit code" % (answer,))
        # a payload's own answer wins: eval and bestval print the value
        _emit(args, {"command": args.command, "answer": answer, **payload}, lines)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    except FormatError as exc:
        sys.stderr.write("format error: %s\n" % exc)
        return EXIT_FORMAT
    except InternalError as exc:
        sys.stderr.write("internal error: %s\n" % exc)
        return EXIT_SOFTWARE
    except Exception as exc:
        # a fault in the program, never an answer; repr keeps it on one line
        sys.stderr.write("internal error: %r\n" % (exc,))
        return EXIT_SOFTWARE
    if args.json:
        sys.stderr.write("elapsed_ms: %d\n" % int((time.monotonic() - started) * 1000))
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
