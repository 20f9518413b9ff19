import collections
import hashlib
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wsynth import cli, core, domain, prefix, synthesis
from wsynth.core import AVG, DSUM

from conftest import FIXTURES, always_d_realizer, first_c_realizer, load_bench_gen, random_spec

PAPER = str(FIXTURES / "paper-example.wfa")
BEST_VALUE_REALIZABLE = str(FIXTURES / "best-value-realizable.wfa")
REMARK = str(FIXTURES / "remark.arena")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_pair(capsys):
    code, out, _ = run(capsys, "eval", PAPER, "--input", "ab", "--output", "cd")
    assert code == 0
    assert out.strip() == "10"
    code, out, _ = run(capsys, "eval", PAPER, "--input", "aa", "--output", "cd")
    assert code == 1
    assert out.strip() == "-inf"


def test_bestval(capsys):
    code, out, _ = run(capsys, "bestval", PAPER, "--input", "b")
    assert code == 0 and out.strip() == "12"
    code, out, _ = run(capsys, "bestval", PAPER, "--input", "aab")
    assert code == 0 and out.strip() == "8"
    code, out, _ = run(capsys, "bestval", PAPER, "--input", "aa")
    assert code == 1


def test_synth_threshold_writes_verified_file(capsys, tmp_path):
    out = tmp_path / "out.mealy"
    code, _, _ = run(
        capsys, "synth", "threshold", PAPER, "--cmp", "ge", "--nu", "6", "-o", str(out)
    )
    assert code == 0
    assert out.exists()
    code, stdout, _ = run(
        capsys,
        "verify",
        PAPER,
        str(out),
        "--objective",
        "threshold",
        "--cmp",
        "ge",
        "--nu",
        "6",
    )
    assert code == 0
    assert stdout.strip() == "pass"


def test_synth_threshold_unrealizable(capsys):
    code, out, _ = run(capsys, "synth", "threshold", PAPER, "--cmp", "ge", "--nu", "7")
    assert code == 1
    assert out.strip() == "unrealizable"


def test_synth_best_value_exit_one(capsys):
    code, out, _ = run(capsys, "synth", "best-value", PAPER)
    assert code == 1


def test_synth_best_value_realizable_stdout_is_pinned(capsys, monkeypatch):
    calls = []
    verify = synthesis.verify_realizer
    monkeypatch.setattr(synthesis, "verify_realizer",
                        lambda *args, **kwargs: calls.append(1) or verify(*args, **kwargs))
    code, out, _ = run(capsys, "synth", "best-value", BEST_VALUE_REALIZABLE)
    assert (code, out) == (0, "mealy\ninitial: i0m0\nfinals: i1m1\n"
                           "trans: i0m0 a y i1m1\ntrans: i0m0 b y i1m1\n"
                           "trans: i1m1 a x i1m1\ntrans: i1m1 b x i1m1\n")
    # two candidates fail before the third passes
    assert len(calls) == 3


def test_synth_approx_round_trip(capsys, tmp_path):
    out = tmp_path / "approx.mealy"
    code, _, _ = run(
        capsys,
        "synth", "approx", PAPER, "--cmp", "le", "--r", "4", "--cap", "64",
        "-o", str(out),
    )
    assert code == 0
    code, stdout, _ = run(
        capsys,
        "verify", PAPER, str(out),
        "--objective", "approx", "--cmp", "le", "--r", "4",
    )
    assert code == 0


def test_synth_approx_strict_unknown(capsys):
    code, out, _ = run(
        capsys, "synth", "approx", PAPER, "--cmp", "lt", "--r", "4", "--cap", "64"
    )
    assert code == 2
    assert "unknown at cap" in out


def test_synth_approx_without_cap_answers_as_the_default_cap_does(capsys, tmp_path):
    # caps 1, 2, 4, ... up to the default cap: a win at a cap is a win at
    # every larger cap, so only the machine may differ from the default cap's
    rng = random.Random(3416)
    spec = tmp_path / "spec.wfa"
    seen = {}
    while len(seen) < 150:
        text = core.emit_wfa(random_spec(rng, max_states=rng.randint(3, 6),
                                         max_w=rng.randint(1, 2), measure=rng.choice([core.SUM, AVG])))
        cap = cli._default_cap(core.parse_wfa(text))
        if cap > 48:  # larger default caps take seconds each
            continue
        spec.write_text(text)
        argv = ["synth", "approx", str(spec), "--cmp", rng.choice(["le", "lt"]),
                "--r", rng.choice(["0", "1/2", "1", "2", "3"])]
        searched = run(capsys, *argv)
        at_default = run(capsys, *argv, "--cap", str(cap))
        assert searched[0] == at_default[0], (text, argv)
        if searched[0] != 0:
            assert searched == at_default
        seen[text, tuple(argv[3:])] = searched[0], searched[1].count("trans:") > 1
    outcomes = collections.Counter(seen.values())
    assert outcomes[0, True] >= 10 and outcomes[2, False] >= 20 and outcomes[1, False] >= 5, outcomes


_LIMITED_SYNTH = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))
from wsynth import cli
sys.exit(cli.main(["synth", "approx", sys.argv[1], "--cmp", "le", "--r", "1"]))
"""


def test_synth_approx_without_cap_wins_where_the_default_cap_outgrows_memory(tmp_path):
    # at cap 16 this spec's construction passes 1 GB, and its default cap is
    # 96; the search wins at cap 4, so a 1 GB address-space limit never bites
    spec = str(FIXTURES / "avg-wins-at-small-cap.wfa")
    assert cli._default_cap(core.parse_wfa(Path(spec).read_text())) == 96
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", _LIMITED_SYNTH, spec], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("mealy\ninitial: m0\n")
    machine = tmp_path / "m.mealy"
    machine.write_text(done.stdout)
    assert cli.main(["verify", spec, str(machine), "--objective", "approx",
                     "--cmp", "le", "--r", "1"]) == 0


def test_verify_fail_prints_witness_and_values(capsys, tmp_path):
    machine = tmp_path / "alwaysd.mealy"
    machine.write_text(core.emit_mealy(always_d_realizer()))
    code, out, _ = run(
        capsys, "verify", PAPER, str(machine), "--objective", "best-value"
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "fail"
    assert lines[1].startswith("witness:")
    assert any(line.startswith("value:") for line in lines)
    assert any(line.startswith("best:") for line in lines)


@pytest.mark.parametrize("measure, stdout", [
    ("sum", "fail\nwitness: a b\nvalue: 6\nbest: 10\n"),
    ("avg", "fail\nwitness: a b\nvalue: 3/2\nbest: 5/2\n"),
])
def test_verify_best_value_fail_stdout_is_pinned(capsys, tmp_path, measure, stdout):
    spec = tmp_path / "spec.wfa"
    spec.write_text((FIXTURES / "paper-example.wfa").read_text().replace(
        "measure: sum", "measure: " + measure))
    machine = str(FIXTURES / "always-d.mealy")
    code, out, _ = run(capsys, "verify", str(spec), machine, "--objective", "best-value")
    assert (code, out) == (1, stdout)


STRAY_MEALY = "mealy\ninitial: s\nfinals: s\ntrans: s x c s\ntrans: s a z s\n"


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verify_machine_outside_spec_alphabet_exits_65(tmp_path, flags):
    machine = tmp_path / "stray.mealy"
    machine.write_text(STRAY_MEALY)
    done = subprocess.run(
        [sys.executable, *flags, "-m", "wsynth.cli", "verify", PAPER, str(machine),
         "--objective", "best-value"],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        65, "", "format error: transducer and specification alphabets mismatch: "
        "stray inputs x; stray outputs z\n",
    )


_FUZZ_TOKENS = ["a", "b", "c", "d", "x", "wait", "done", "trans:", "initial:", "finals:",
                "mealy", "#", ""]
_FUZZ_OBJECTIVES = [
    ["--objective", "boolean"],
    ["--objective", "best-value"],
    ["--objective", "threshold", "--cmp", "ge", "--nu", "6"],
    ["--objective", "approx", "--cmp", "le", "--r", "4"],
]


def _mutate(rng, text, tokens=_FUZZ_TOKENS):
    """One random edit of an input file: a character, a token or a line."""
    lines = text.splitlines()
    kind = rng.randrange(6)
    if kind == 0 and text:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    if kind == 1:
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice("abcdxz01:-# \n\t") + text[i:]
    if kind == 2 and lines:
        i = rng.randrange(len(lines))
        words = lines[i].split(" ")
        words[rng.randrange(len(words))] = rng.choice(tokens)
        lines[i] = " ".join(words)
    elif kind == 3 and lines:
        i = rng.randrange(len(lines))
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == 4 and lines:
        del lines[rng.randrange(len(lines))]
    elif kind == 5 and len(lines) > 1:
        i, j = rng.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def test_verify_never_raises_on_mutated_machines(capsys, tmp_path):
    # parse_mealy and verify see a few hundred seeded mutants of two small
    # machines: each run ends in pass, fail or a format error
    rng = random.Random(8)
    bases = [core.emit_mealy(always_d_realizer()), core.emit_mealy(first_c_realizer())]
    machine = tmp_path / "mutant.mealy"
    codes = {}
    for trial in range(400):
        text = bases[trial % 2]
        for _ in range(rng.randint(1, 2)):
            text = _mutate(rng, text)
        machine.write_text(text)
        objective = _FUZZ_OBJECTIVES[trial % len(_FUZZ_OBJECTIVES)]
        code = cli.main(["verify", PAPER, str(machine), *objective])
        capsys.readouterr()
        assert code in (0, 1, 65), text
        codes[code] = codes.get(code, 0) + 1
    assert min(codes.get(code, 0) for code in (0, 1, 65)) >= 30, codes


# the file argument of each call is None
_FUZZ_SPEC_CALLS = [
    ["synth", "threshold", None, "--cmp", "ge", "--nu", "6"],
    ["domain-safe", None],
]
_FUZZ_ARENA_CALLS = [
    ["solve-prefix", None, "--measure", "dsum", "--cmp", "gt", "--nu", "1", "--lambda", "1/2"],
    ["dsum-path", None, "--nu", "3/2", "--lambda", "1/2"],
]
_FUZZ_SPEC_TOKENS = ["a", "c", "q0", "q7", "-1", "x", "wfa", "measure:", "sum", "dsum",
                     "inputs:", "outputs:", "initial:", "finals:", "trans:", "#", ""]
_FUZZ_ARENA_TOKENS = ["v0", "v1", "-", "-1", "x", "arena", "vertex:", "eve", "adam",
                      "critical", "initial:", "edge:", "obs:", "#", ""]


@pytest.mark.parametrize("fixture, calls, tokens", [
    ("paper-example.wfa", _FUZZ_SPEC_CALLS, _FUZZ_SPEC_TOKENS),
    ("remark.arena", _FUZZ_ARENA_CALLS, _FUZZ_ARENA_TOKENS),
])
def test_readers_never_raise_on_mutated_files(capsys, tmp_path, fixture, calls, tokens):
    # seeded mutants of the .wfa and .arena fixtures through the commands
    # that read them: each run ends in an answer or a format error
    rng = random.Random(9)
    base = (FIXTURES / fixture).read_text()
    path = tmp_path / fixture
    codes = {}
    for trial in range(300):
        text = base
        for _ in range(rng.randint(1, 2)):
            text = _mutate(rng, text, tokens)
        path.write_text(text)
        argv = [str(path) if arg is None else arg for arg in calls[trial % len(calls)]]
        code = cli.main(argv)
        capsys.readouterr()
        assert code in (0, 1, 65), (argv, text)
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(65, 0) >= 50 and codes.get(0, 0) + codes.get(1, 0) >= 50, codes


def test_dsum_path_remark(capsys):
    code, out, _ = run(capsys, "dsum-path", REMARK, "--nu", "1", "--lambda", "1/2")
    assert code == 1
    assert out.strip() == "no"
    code, out, _ = run(capsys, "dsum-path", REMARK, "--nu", "3/2", "--lambda", "1/2")
    assert code == 0
    assert out.splitlines()[0] == "yes"


def test_solve_prefix_remark(capsys):
    code, out, _ = run(
        capsys,
        "solve-prefix", REMARK,
        "--measure", "dsum", "--cmp", "gt", "--nu", "1", "--lambda", "1/2",
    )
    assert code == 0
    assert out.splitlines()[0] == "winner: eve"
    code, out, _ = run(
        capsys,
        "solve-prefix", REMARK,
        "--measure", "dsum", "--cmp", "ge", "--nu", "2", "--lambda", "1/2",
    )
    assert code == 1
    assert out.splitlines()[0] == "winner: adam"


def test_gen_mp_to_spec(capsys, tmp_path):
    arena = tmp_path / "game.arena"
    arena.write_text(
        "arena\nvertex: v eve\ninitial: v\nedge: v - 0 v\n"
    )
    out = tmp_path / "gen.wfa"
    code, _, _ = run(capsys, "gen", "mp-to-spec", str(arena), "-o", str(out))
    assert code == 0
    spec = core.parse_wfa(out.read_text())
    assert spec.measure == core.SUM


def test_domain_safe_round_trip(capsys, tmp_path):
    out = tmp_path / "safe.wfa"
    code, _, _ = run(capsys, "domain-safe", PAPER, "-o", str(out))
    assert code == 0
    spec = core.parse_wfa(out.read_text())
    assert set(spec.finals) == {"q2", "q7"}


# Eve picks x or y before she sees the second input; only one of them
# leaves that input in the domain
NO_BOOLEAN_REALIZER = """wfa
measure: sum
inputs: a b
outputs: x y
initial: i
finals: f
trans: i a 0 o1
trans: o1 x 0 i2
trans: o1 y 0 i3
trans: i2 a 0 o2
trans: i3 b 0 o3
trans: o2 x 0 f
trans: o3 x 0 f
"""


def test_domain_safe_without_boolean_realizer_exits_1(capsys, tmp_path):
    spec = tmp_path / "guess.wfa"
    spec.write_text(NO_BOOLEAN_REALIZER)
    code, out, _ = run(capsys, "domain-safe", str(spec))
    assert (code, out) == (1, "no boolean realizer\n")
    code, out, _ = run(capsys, "domain-safe", str(spec), "--json")
    assert code == 1
    assert json.loads(out) == {"command": "domain-safe", "answer": "no_boolean_realizer",
                               "already_safe": False}


def test_usage_errors_exit_64(capsys, tmp_path):
    assert run(capsys, "synth", "threshold", PAPER)[0] == 64  # missing --cmp/--nu
    assert run(capsys, "nonsense")[0] == 64
    assert run(capsys, "synth", "threshold", PAPER, "--cmp", "ge", "--nu", "x/y")[0] == 64
    assert run(capsys, "eval", PAPER, "--input", "zz", "--output", "cd")[0] == 64
    assert run(capsys, "eval", PAPER, "--input", "ab", "--output", "cz")[0] == 64
    assert run(capsys, "bestval", PAPER, "--input", "az")[0] == 64
    code, out, err = run(capsys, "bestval", str(tmp_path / "missing.wfa"), "--input", "a")
    assert (code, out) == (64, "")
    assert err.startswith("usage error: cannot read ")
    dsum = tmp_path / "dsum.wfa"
    dsum.write_text(core.emit_wfa(core.parse_wfa(Path(PAPER).read_text()).with_measure(
        DSUM, Fraction(1, 2))))
    code, out, err = run(capsys, "synth", "approx", str(dsum), "--cmp", "le", "--r", "4")
    assert (code, out) == (64, "")
    assert err.startswith("usage error: unsupported: approximate dsum synthesis")


def test_format_errors_exit_65(capsys, tmp_path):
    bad = tmp_path / "bad.wfa"
    bad.write_text("wfa\nmeasure: sum\ntrans: broken\n")
    code, _, err = run(capsys, "eval", str(bad), "--input", "a", "--output", "c")
    assert code == 65
    assert "format error" in err
    header = "wfa\nmeasure: %s\ninputs: a\n"
    for text, message in [
        ("", "line 1: expected 'wfa' header"),
        (header % "dsum" + "discount: x\n", "line 4: not a rational: 'x'"),
        (header % "sum" + "discount: 1/2\noutputs: c\ninitial: q0\nfinals: q0\n",
         "discount only makes sense for the dsum measure"),
    ]:
        bad.write_text(text)
        code, out, err = run(capsys, "eval", str(bad), "--input", "a", "--output", "c")
        assert (code, out, err) == (65, "", "format error: %s\n" % message)
    dead = tmp_path / "dead.arena"
    dead.write_text("arena\nvertex: v0 adam\nvertex: v1 eve\ninitial: v0\nedge: v0 - 1 v1\n")
    code, out, err = run(capsys, "gen", "mp-to-spec", str(dead))
    assert (code, out) == (65, "")
    assert err == "format error: mean-payoff generator needs a deadlock-free arena\n"


# A repeated name would double an input state's edges on one letter, or
# Eve's choices, or be echoed into the machine's finals line.
@pytest.mark.parametrize("line, repeated, message", [
    ("inputs: a b", "inputs: a b a", "repeated input symbol 'a'"),
    ("outputs: c d", "outputs: c d d", "repeated output symbol 'd'"),
    ("finals: q2 q7", "finals: q2 q7 q2", "repeated final state 'q2'"),
])
def test_repeated_names_in_a_spec_exit_65(capsys, tmp_path, line, repeated, message):
    bad = tmp_path / "bad.wfa"
    bad.write_text((FIXTURES / "paper-example.wfa").read_text().replace(line, repeated))
    code, out, err = run(capsys, "synth", "threshold", str(bad), "--cmp", "ge", "--nu", "6")
    assert (code, out, err) == (65, "", "format error: %s\n" % message)


def test_repeated_final_in_a_machine_exits_65(capsys, tmp_path):
    bad = tmp_path / "bad.mealy"
    bad.write_text((FIXTURES / "always-d.mealy").read_text().replace(
        "finals: done", "finals: done done"))
    code, out, err = run(capsys, "verify", PAPER, str(bad), "--objective", "boolean")
    assert (code, out, err) == (65, "", "format error: repeated final state 'done'\n")


@pytest.mark.parametrize("argv, name", [
    (["synth", "threshold", "{}", "--cmp", "ge", "--nu", "6"], "bad.wfa"),
    (["verify", PAPER, "{}", "--objective", "boolean"], "bad.mealy"),
    (["solve-prefix", "{}", "--measure", "sum", "--cmp", "ge", "--nu", "0"], "bad.arena"),
])
def test_undecodable_input_exits_65(capsys, tmp_path, argv, name):
    bad = tmp_path / name
    bad.write_bytes(b"\xff\xfe not utf-8\n")
    code, out, err = run(capsys, *[str(bad) if arg == "{}" else arg for arg in argv])
    assert (code, out) == (65, "")
    assert err.startswith("format error: cannot decode %s: " % bad)
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["synth", "threshold", PAPER, "--cmp", "ge", "--nu", "6"],
    ["domain-safe", PAPER],
    ["gen", "mp-to-spec", REMARK],
])
def test_unwritable_out_exits_64(capsys, tmp_path, argv):
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        code, out, err = run(capsys, *argv, "-o", str(target))
        assert (code, out) == (64, "")
        assert err.startswith("usage error: cannot write %s: " % target)
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_values_of_any_length(capsys, tmp_path):
    """int() and str() stop at 4,300 digits on Python 3.11+; the CLI reads
    and prints integers and rationals of any length."""
    spec = tmp_path / "big.wfa"
    spec.write_text("wfa\nmeasure: dsum\ndiscount: 999/1000\ninputs: a\noutputs: c\n"
                    "initial: p\nfinals: p\ntrans: p a 1 q\ntrans: q c %s p\n" % ("9" * 4000))
    code, out, _ = run(capsys, "eval", str(spec), "--input", "a" * 200, "--output", "c" * 200)
    value = core.evaluate(core.parse_wfa(spec.read_text()), "a" * 200, "c" * 200)
    assert value.numerator > 10**4300
    assert code == 0 and core.parse_rational(out.strip()) == value
    code, out, _ = run(capsys, "domain-safe", str(spec))
    assert code == 0 and out == spec.read_text()
    code, out, _ = run(capsys, "dsum-path", REMARK, "--nu", "9" * 5000, "--lambda", "1/2")
    assert (code, out) == (0, "yes\nwitness: v0 v1\nvalue: 3/2\n")
    code, _, err = run(capsys, "solve-prefix", REMARK, "--measure", "sum", "--cmp", "ge",
                       "--nu=-" + "9" * 5000, "--trace")
    assert code in (0, 1) and err.startswith("objective: sum >= -%s\n" % ("9" * 5000))


def test_dot_escapes_quotes_in_edge_labels(capsys, tmp_path):
    arena = tmp_path / "quote.arena"
    arena.write_text('arena\nvertex: v eve critical\ninitial: v\nedge: v a"b 1 v\n')
    code, out, _ = run(capsys, "solve-prefix", str(arena), "--measure", "sum",
                       "--cmp", "ge", "--nu", "0", "--dot")
    assert code == 0
    assert '  n0 -> n0 [label="a\\"b|1"];' in out.splitlines()


def test_dot_initial_arrow_point_is_no_state(capsys, tmp_path):
    spec = tmp_path / "init.wfa"
    spec.write_text(re.sub(r"\bq0\b", "init", (FIXTURES / "paper-example.wfa").read_text()))
    code, out, _ = run(capsys, "synth", "threshold", str(spec), "--cmp", "ge", "--nu", "0",
                       "--dot")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == '  n0 [label="init", shape=circle];'
    assert lines[6:8] == ["  init [shape=point];", "  init -> n0;"]
    arena = tmp_path / "init.arena"
    arena.write_text("arena\nvertex: init eve\nvertex: n0 adam\ninitial: n0\n"
                     "edge: init a 1 n0\nedge: n0 b 0 init\n")
    code, out, _ = run(capsys, "solve-prefix", str(arena), "--measure", "sum",
                       "--cmp", "ge", "--nu", "0", "--dot")
    assert "  init -> n1;" in out.splitlines()


# Observation classes are no part of the arena format. Each obs: block below
# was once refused by one of the directive's own checks, with the message
# given; now its first line is refused as an unknown directive.
@pytest.mark.parametrize("obs, message", [
    ("obs: o1 v0 ghost\nobs: o2 v1\n", "line 10: obs names unknown vertex 'ghost'"),
    ("obs: o1 v0 v1\nobs: o2 v0\n", "line 11: vertex 'v0' is listed in obs twice"),
    ("obs: o1 v0 ghost\nobs: o2 v0\n", "line 11: vertex 'v0' is listed in obs twice"),
    ("obs: o1 v0 v0 v1\n", "line 10: vertex 'v0' is listed in obs twice"),
])
def test_bad_obs_lines_exit_65(capsys, tmp_path, obs, message):
    bad = tmp_path / "bad.arena"
    bad.write_text((FIXTURES / "remark.arena").read_text() + obs)
    code, out, err = run(
        capsys, "solve-prefix", str(bad), "--measure", "sum", "--cmp", "ge", "--nu", "0"
    )
    assert (code, out, err) == (65, "", "format error: line 10: unknown directive 'obs'\n")
    assert message not in err


def dot_strings_close(line):
    """Does every double-quoted string on a DOT line end before the line does?"""
    quoted = escaped = False
    for char in line:
        if escaped:
            escaped = False
        elif quoted and char == "\\":
            escaped = True
        elif char == '"':
            quoted = not quoted
    return not quoted


def test_dot_ids_are_unique_and_every_quoted_string_closes(capsys, tmp_path):
    spec = tmp_path / "names.wfa"
    spec.write_text("wfa\nmeasure: sum\ninputs: a\noutputs: c\ninitial: q0\\\nfinals: init\n"
                    "trans: q0\\ a 1 n0\ntrans: n0 c 2 init\ntrans: init a 0 x\"y\n"
                    "trans: x\"y c 0 q0\\\n")
    outs = []
    for argv in (["synth", "threshold", str(spec), "--cmp", "ge", "--nu", "0", "--dot"],
                 ["domain-safe", str(spec), "--dot"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()[2:-1]
        ids = [line.split()[0] for line in lines if " -> " not in line]
        assert ids == ["n%d" % k for k in range(len(ids) - 1)] + ["init"]
        assert all(dot_strings_close(line) for line in lines), out
        outs.append(out)
    assert outs[0].splitlines()[2:6] == [
        '  n0 [label="q0\\\\", shape=circle];', '  n1 [label="init", shape=doublecircle];',
        '  init [shape=point];', '  init -> n0;']


@pytest.mark.parametrize("objective", [
    ["--measure", "sum", "--cmp", "ge", "--nu", "0"],
    ["--measure", "dsum", "--cmp", "gt", "--nu", "1", "--lambda", "1/2", "--json"],
])
def test_solve_prefix_dead_end_arena_exits_65(capsys, tmp_path, objective):
    bad = tmp_path / "dead.arena"
    bad.write_text(
        "arena\nvertex: v0 adam\nvertex: v1 eve\nvertex: v2 adam critical\n"
        "initial: v0\nedge: v0 - 1 v1\nedge: v0 - 2 v2\n"
    )
    code, out, err = run(capsys, "solve-prefix", str(bad), *objective)
    assert (code, out, err) == (65, "", "format error: arena has dead ends: ['v1', 'v2']\n")


def test_json_output_is_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "synth", "threshold", PAPER, "--cmp", "ge", "--nu", "7", "--json"
    )
    code2, out2, _ = run(
        capsys, "synth", "threshold", PAPER, "--cmp", "ge", "--nu", "7", "--json"
    )
    assert code1 == code2 == 1
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["answer"] == "unrealizable"


def test_json_verify_witness(capsys, tmp_path):
    machine = tmp_path / "alwaysd.mealy"
    machine.write_text(core.emit_mealy(always_d_realizer()))
    code, out, _ = run(
        capsys, "verify", PAPER, str(machine), "--objective", "best-value", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["answer"] == "fail"
    assert payload["witness"]


_TEXT_COMMANDS = [
    (["synth", "threshold", PAPER, "--cmp", "ge", "--nu", "6"], core.parse_mealy),
    (["synth", "approx", PAPER, "--cmp", "le", "--r", "4", "--cap", "64"], core.parse_mealy),
    (["domain-safe", PAPER], core.parse_wfa),
    (["gen", "mp-to-spec", REMARK], core.parse_wfa),
]


@pytest.mark.parametrize("argv, parse", _TEXT_COMMANDS)
def test_json_puts_the_text_in_the_object(capsys, tmp_path, argv, parse):
    # without -o, stdout is one JSON object; the text a human run prints
    # is its "text" key, and with -o it goes to the file instead
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["text"] == text
    parse(payload["text"])
    target = tmp_path / "out"
    code, out, _ = run(capsys, *argv, "-o", str(target), "--json")
    assert code == 0
    assert "text" not in json.loads(out)
    assert target.read_text() == text


@pytest.mark.parametrize("argv", [
    ["domain-safe", PAPER, "--dot"],
    ["synth", "threshold", PAPER, "--cmp", "ge", "--nu", "6", "--dot"],
    ["solve-prefix", REMARK, "--measure", "sum", "--cmp", "ge", "--nu", "0", "--dot"],
])
def test_json_puts_dot_text_in_the_object(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["text"].startswith("digraph")


# SHA-256 of `domain-safe --dot` on the paper fixture, as the two-run game
# on (kind, eve_state, adam_state) tuples rendered it
_PAPER_TWO_RUN_DOT_SHA256 = "655e695a5ae0eabac93de6c54536c0d7803e9a470386e0c2f85de0be5662331e"


def test_dot_flags(capsys):
    code, out, _ = run(capsys, "domain-safe", PAPER, "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert """  n0 [label="('ii', 'q0', 'q0')", shape=box];""" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == _PAPER_TWO_RUN_DOT_SHA256
    code, out, _ = run(
        capsys,
        "solve-prefix", REMARK, "--measure", "sum", "--cmp", "ge", "--nu", "0", "--dot",
    )
    assert out.startswith("digraph")


def test_trace_goes_to_stderr(capsys, tmp_path):
    code, out, err = run(
        capsys, "dsum-path", REMARK, "--nu", "1", "--lambda", "1/2", "--trace"
    )
    assert code == 1
    assert "mrg[0]" in err
    assert "mrg" not in out
    # the target v1 is out of the source's reach: no table to print
    far = tmp_path / "far.arena"
    far.write_text("arena\nvertex: v0 adam\nvertex: v1 eve critical\ninitial: v0\n"
                   "edge: v0 - 1 v0\nedge: v1 - 1 v1\n")
    code, out, err = run(capsys, "dsum-path", str(far), "--nu", "1", "--lambda", "1/2",
                         "--trace")
    assert (code, out, err) == (1, "no\n", "no vertex reaches a target\n")


@pytest.mark.parametrize("dot", [[], ["--dot"]])
def test_domain_safe_builds_the_two_run_game_once(capsys, monkeypatch, dot):
    builds = []
    build = domain.build_two_run_game
    monkeypatch.setattr(domain, "build_two_run_game",
                        lambda spec: builds.append(spec) or build(spec))
    code, out, _ = run(capsys, "domain-safe", PAPER, *dot)
    assert (code, len(builds)) == (0, 1)
    assert out.startswith("digraph" if dot else "wfa")


def test_synth_best_value_round_trip(capsys, tmp_path):
    spec_file = tmp_path / "single.wfa"
    spec_file.write_text(
        "wfa\nmeasure: sum\ninputs: a\noutputs: c\ninitial: i0\nfinals: i1\n"
        "trans: i0 a 1 o0\ntrans: o0 c 2 i1\ntrans: i1 a 1 o0\n"
    )
    out = tmp_path / "bv.mealy"
    code, _, _ = run(capsys, "synth", "best-value", str(spec_file), "-o", str(out))
    assert code == 0
    code, stdout, _ = run(
        capsys, "verify", str(spec_file), str(out), "--objective", "best-value"
    )
    assert code == 0 and stdout.strip() == "pass"


def test_solve_prefix_strategy_lines(capsys, tmp_path):
    arena = tmp_path / "eve.arena"
    arena.write_text(
        "arena\n"
        "vertex: v0 adam critical\n"
        "vertex: v1 eve\n"
        "initial: v0\n"
        "edge: v0 - 0 v1\n"
        "edge: v1 - 1 v0\n"
        "edge: v1 - -5 v0\n"
    )
    code, out, _ = run(
        capsys, "solve-prefix", str(arena), "--measure", "sum", "--cmp", "ge", "--nu", "0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "winner: eve"
    assert any(line.startswith("strategy: v1 ") for line in lines)


def test_solve_prefix_trace_dumps_reduction(capsys, tmp_path):
    avoidable = tmp_path / "avoidable.arena"
    avoidable.write_text(
        "arena\nvertex: v0 eve\nvertex: v1 adam critical\ninitial: v0\n"
        "edge: v0 - 0 v0\nedge: v0 - 0 v1\nedge: v1 - 0 v1\n"
    )
    critical_start = tmp_path / "critical-start.arena"
    critical_start.write_text(
        "arena\nvertex: v0 adam critical\ninitial: v0\nedge: v0 - 1 v0\n"
    )
    dsum = ["--measure", "dsum", "--lambda", "1/2"]
    cases = [
        (REMARK, ["--measure", "sum", "--cmp", "ge", "--nu", "0"], 0, "mean-payoff game"),
        (REMARK, [*dsum, "--cmp", "ge", "--nu", "1"], 0, "discounted-sum game"),
        (REMARK, [*dsum, "--cmp", "gt", "--nu", "1"], 0,
         "none (positional enumeration + path check)"),
        (avoidable, ["--measure", "avg", "--cmp", "gt", "--nu", "5"], 0,
         "eve avoids every critical vertex"),
        (avoidable, [*dsum, "--cmp", "ge", "--nu", "5"], 0, "eve avoids every critical vertex"),
        (critical_start, [*dsum, "--cmp", "gt", "--nu", "0"], 1,
         "initial check on the empty prefix fails"),
        (critical_start, [*dsum, "--cmp", "ge", "--nu", "1"], 1,
         "initial check on the empty prefix fails"),
    ]
    for arena, objective, want, line in cases:
        code, out, err = run(capsys, "solve-prefix", str(arena), *objective)
        traced = run(capsys, "solve-prefix", str(arena), *objective, "--trace")
        assert traced[:2] == (code, out) and code == want
        lines = traced[2].splitlines()
        assert lines[0].startswith("objective: ")
        assert lines[1] == "reduction: " + line
        # the arena of a game left to solve follows; a decided game ends the trace
        assert (lines[2:3] == ["arena"]) == line.endswith(" game")


@pytest.mark.parametrize("objective", [
    ["--measure", "sum", "--cmp", "ge", "--nu", "0"],
    ["--measure", "dsum", "--lambda", "1/2", "--cmp", "gt", "--nu", "1"],
    ["--measure", "dsum", "--lambda", "1/2", "--cmp", "ge", "--nu", "1"],
], ids=["sum", "strict-dsum", "dsum"])
def test_traced_solve_prefix_reduces_its_game_once(capsys, monkeypatch, objective):
    # the game --trace prints is the game that is played
    games = []
    reduce = prefix.reduce_prefix_game
    monkeypatch.setattr(prefix, "reduce_prefix_game",
                        lambda *args: games.append(reduce(*args)) or games[-1])
    for trace in ([], ["--trace"]):
        games.clear()
        code, _out, err = run(capsys, "solve-prefix", REMARK, *objective, *trace)
        assert (code, len(games)) == (0, 1)
    assert err.splitlines()[1] == "reduction: " + games[0].name


def test_unexpected_exception_exits_70_with_one_line(capsys, monkeypatch):
    def broken(_spec):
        raise KeyError("no such\nstate")

    monkeypatch.setattr(synthesis, "synth_best_value", broken)
    code, out, err = run(capsys, "synth", "best-value", PAPER)
    assert (code, out) == (70, "")
    assert err == "internal error: KeyError('no such\\nstate')\n"

    def unverified(_spec):
        raise core.InternalError("synthesized machine failed verification")

    # a broken guarantee is reported by its message
    monkeypatch.setattr(synthesis, "synth_best_value", unverified)
    code, out, err = run(capsys, "synth", "best-value", PAPER)
    assert (code, out, err) == (
        70, "", "internal error: synthesized machine failed verification\n")

    def interrupted(_spec):
        raise KeyboardInterrupt

    # not an Exception: a timeout or an interrupt still reaches the caller
    monkeypatch.setattr(synthesis, "synth_best_value", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["synth", "best-value", PAPER])


def test_bad_cap_and_slack_exit_64_before_reading_the_spec(capsys):
    # the spec path does not exist: flags are rejected before it is read
    missing = str(FIXTURES / "missing.wfa")
    code, out, err = run(capsys, "synth", "approx", missing, "--cmp", "le", "--r", "-1")
    assert (code, out) == (64, "")
    assert err == "usage error: --r must be nonnegative\n"
    code, out, err = run(capsys, "synth", "approx", missing, "--cmp", "le", "--r", "4",
                         "--cap", "-1")
    assert (code, out) == (64, "")
    assert err == "usage error: --cap must be nonnegative\n"


@pytest.mark.parametrize("argv, message", [
    (["synth", "best-value", "{}", "--cmp", "ge", "--nu", "6"], "best-value takes no --cmp"),
    (["synth", "best-value", "{}", "--nu", "6"], "best-value takes no --nu"),
    (["synth", "best-value", "{}", "--r", "1"], "best-value takes no --r"),
    (["synth", "best-value", "{}", "--cap", "8"], "best-value takes no --cap"),
    (["synth", "threshold", "{}", "--cmp", "ge", "--nu", "6", "--r", "1"],
     "threshold takes no --r"),
    (["synth", "threshold", "{}", "--cmp", "ge", "--nu", "6", "--cap", "8"],
     "threshold takes no --cap"),
    (["synth", "approx", "{}", "--cmp", "le", "--r", "4", "--nu", "6"], "approx takes no --nu"),
    (["verify", "{}", "{}", "--objective", "approx", "--cmp", "le", "--r", "4", "--nu", "6"],
     "approx takes no --nu"),
    (["verify", "{}", "{}", "--objective", "threshold", "--cmp", "ge", "--nu", "6", "--r", "1"],
     "threshold takes no --r"),
    (["verify", "{}", "{}", "--objective", "best-value", "--cmp", "ge"],
     "best-value takes no --cmp"),
    (["verify", "{}", "{}", "--objective", "best-value", "--nu", "6"], "best-value takes no --nu"),
    (["verify", "{}", "{}", "--objective", "boolean", "--r", "1"], "boolean takes no --r"),
    (["verify", "{}", "{}", "--objective", "boolean", "--cmp", "le"], "boolean takes no --cmp"),
])
def test_ignored_objective_flag_exits_64_before_reading_the_spec(capsys, argv, message):
    # a flag the objective does not read is a usage error, not an answer
    missing = str(FIXTURES / "missing.wfa")
    code, out, err = run(capsys, *[missing if arg == "{}" else arg for arg in argv])
    assert (code, out, err) == (64, "", "usage error: %s\n" % message)


def test_verify_negative_slack_exits_64_before_reading_the_files(capsys):
    # as for synth approx: a negative --r is a bad flag, not a failing machine
    missing = str(FIXTURES / "missing.wfa")
    for slack in (["--r=-1"], ["--r", "-1/2"]):
        code, out, err = run(capsys, "verify", missing, missing, "--objective", "approx",
                             "--cmp", "le", *slack)
        assert (code, out) == (64, "")
        assert err == "usage error: --r must be nonnegative\n"


def test_negative_rational_as_separate_flag_value(capsys):
    base = ["synth", "threshold", PAPER, "--cmp", "ge"]
    code, separate, err = run(capsys, *base, "--nu", "-1/2")
    assert code == 0, err
    assert separate.startswith("mealy\n")
    assert run(capsys, *base, "--nu=-1/2")[:2] == (0, separate)
    code, plain, _ = run(capsys, *base, "--nu", "-1")
    assert code == 0 and run(capsys, *base, "--nu=-1")[:2] == (0, plain)
    # --r takes the same form, and then fails on its value, not on parsing
    code, _, err = run(capsys, "synth", "approx", PAPER, "--cmp", "le", "--r", "-1/2")
    assert (code, err) == (64, "usage error: --r must be nonnegative\n")


@pytest.mark.parametrize("argv, message", [
    (["dsum-path", REMARK, "--nu", "1"], "discount must lie strictly between 0 and 1"),
    (["solve-prefix", REMARK, "--measure", "dsum", "--cmp", "ge", "--nu", "1"],
     "dsum needs a discount strictly between 0 and 1"),
])
def test_negative_lambda_fails_on_its_value(capsys, argv, message):
    # --lambda -1/2 is read as the flag's value, as --lambda -1 is
    for lam in ("-1/2", "-1"):
        code, out, err = run(capsys, *argv, "--lambda", lam)
        assert (code, out, err) == (64, "", "usage error: %s\n" % message)


_FAILING_VERIFIER = """
import sys
from wsynth import cli, synthesis
if not sys.flags.optimize:
    sys.exit("expected python -O")
synthesis.verify_realizer = lambda spec, t, obj: (synthesis.FAIL, ("a",))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [
    ["threshold", "--cmp", "ge", "--nu", "6"],
    ["approx", "--cmp", "le", "--r", "4", "--cap", "64"],
])
def test_failed_self_check_exits_70_under_python_O(flags):
    # the REALIZABLE self-check must not be an assert that -O strips
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _FAILING_VERIFIER, "synth"] + flags[:1] + [PAPER]
        + flags[1:],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 70, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("internal error: synthesized transducer failed")
    assert done.stderr.count("\n") == 1


_HASH_SEED_DRIVER = """
import json, sys
from wsynth import cli, games
solve = games.solve_mean_payoff
def counted(arena):
    winner, strategy = solve(arena)
    print("mean-payoff %s %r" % (winner, list(strategy.choice.items())))
    return winner, strategy
games.solve_mean_payoff = counted
for argv in json.loads(sys.argv[1]):
    print("exit %d" % cli.main(argv))
"""


def _random_prefix_arena(rng, n):
    lines = ["arena"]
    for i in range(n):
        mark = " critical" if rng.random() < 0.3 else ""
        lines.append("vertex: v%d %s%s" % (i, rng.choice(["eve", "adam"]), mark))
    lines.append("initial: v0")
    for i in range(n):
        for _ in range(rng.randint(1, 3)):
            lines.append("edge: v%d - %d v%d" % (i, rng.randint(-4, 4), rng.randrange(n)))
    return "\n".join(lines) + "\n"


def test_mean_payoff_stdout_independent_of_hash_seed(tmp_path):
    # vertex names are strings, whose hashes follow the hash seed; the
    # least fixpoint, the strategies read off it in edge order, and every
    # answer must not
    avg_spec = tmp_path / "paper-avg.wfa"
    avg_spec.write_text(Path(PAPER).read_text().replace("measure: sum", "measure: avg"))
    calls = []
    for nu in ("6", "7"):
        calls.append(["synth", "threshold", PAPER, "--cmp", "ge", "--nu", nu])
    for nu in ("1", "2"):
        calls.append(["synth", "threshold", str(avg_spec), "--cmp", "ge", "--nu", nu])
    rng = random.Random(4242)
    for i in range(12):
        arena = tmp_path / ("game%d.arena" % i)
        arena.write_text(_random_prefix_arena(rng, rng.randint(4, 14)))
        for measure in ("sum", "avg"):
            for cmp, nu in (("ge", "0"), ("gt", "1"), ("ge", "-3")):
                calls.append(["solve-prefix", str(arena), "--measure", measure,
                              "--cmp", cmp, "--nu", nu])
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_DRIVER, json.dumps(calls)],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    out = outputs[0]
    assert out.count("unrealizable") == 2 and out.count("mealy\n") == 2
    assert "winner: adam" in out and "strategy: " in out
    assert out.count("mean-payoff adam") >= 10 and out.count("mean-payoff eve") >= 5
    assert outputs[1:] == outputs[:1] * 3


_APPROX_SCRIPT = """
import contextlib, hashlib, io, sys
from wsynth import cli
spec, out = sys.argv[1], sys.argv[2]
for cmp, r, caps in (("le", "4", ("16", "64", "256", "1024")), ("lt", "9/2", ("64", "256")),
                     ("lt", "4", ("64", "256"))):
    for cap in caps:
        open(out, "w").close()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["synth", "approx", spec, "--cmp", cmp, "--r", r,
                             "--cap", cap, "-o", out])
        with open(out, "rb") as handle:
            machine = handle.read()
        print(cmp, r, cap, code, repr(stdout.getvalue()), hashlib.sha256(machine).hexdigest())
"""

# `synth approx` on the paper fixture: exit code, stdout, and the SHA-256
# of the -o machine file (of the empty file when there is no machine).
# Every win is the one 3-state minimal machine, whatever the cap.
_APPROX_PINNED = """\
le 4 16 0 'realizable\\n' 0a7c9423c7fb7d26463e8c908bfbb3ccbb335891fc39479771acdbf3f71e746a
le 4 64 0 'realizable\\n' 0a7c9423c7fb7d26463e8c908bfbb3ccbb335891fc39479771acdbf3f71e746a
le 4 256 0 'realizable\\n' 0a7c9423c7fb7d26463e8c908bfbb3ccbb335891fc39479771acdbf3f71e746a
le 4 1024 0 'realizable\\n' 0a7c9423c7fb7d26463e8c908bfbb3ccbb335891fc39479771acdbf3f71e746a
lt 9/2 64 0 'realizable\\n' 0a7c9423c7fb7d26463e8c908bfbb3ccbb335891fc39479771acdbf3f71e746a
lt 9/2 256 0 'realizable\\n' 0a7c9423c7fb7d26463e8c908bfbb3ccbb335891fc39479771acdbf3f71e746a
lt 4 64 2 'unknown at cap 64\\n' e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
lt 4 256 2 'unknown at cap 256\\n' e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
"""


@pytest.mark.parametrize("seed", range(4))
def test_synth_approx_pinned_on_paper_fixture(seed, tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
    done = subprocess.run(
        [sys.executable, "-c", _APPROX_SCRIPT, PAPER, str(tmp_path / "m.mealy")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == _APPROX_PINNED


def test_synth_approx_independent_of_hash_seed(tmp_path):
    # beliefs are frozensets and observation ids hold the spec's state
    # names, so set and dict orders inside the solver follow the string hash
    gen = load_bench_gen()
    rng = random.Random(2830)
    calls = []
    for i in range(20):
        spec = tmp_path / ("spec%d.wfa" % i)
        spec.write_text(gen.emit_wfa(gen.memory_spec(
            rng, rng.randint(2, 3), rng.randint(2, 4), "ab", "xy", rng.choice(["sum", "avg"]),
            out_w=(-3, 3))))
        calls.append(["synth", "approx", str(spec), "--cmp", rng.choice(["le", "lt"]),
                      "--r", str(rng.randint(1, 4)), "--cap", "8",
                      "-o", str(tmp_path / ("m%d.mealy" % i))])
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        done = subprocess.run(
            [sys.executable, "-c", _CLI_SCRIPT, json.dumps(calls)],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    codes = [line.split()[0] for line in outputs[0].splitlines()[1:]]
    assert len(codes) == 20 and codes.count("0") >= 8 and codes.count("2") >= 2, codes
    assert outputs[1:] == outputs[:1] * 3


def test_synth_approx_strict_avg_start_copy_is_pinned(tmp_path):
    # a strict Avg game starts from a one-shot copy of its initial vertex,
    # numbered last; exit code, stdout and machine bytes are pinned, whatever
    # the hash seed
    spec = tmp_path / "paper-avg.wfa"
    spec.write_text(Path(PAPER).read_text().replace("\nmeasure: sum\n", "\nmeasure: avg\n"))
    game, _credit = synthesis.build_approx_game(
        core.parse_wfa(spec.read_text()), "<", Fraction(1))
    assert game.initial == len(game.vertices) - 1 and game.initial not in game.critical
    argv = ["synth", "approx", str(spec), "--cmp", "lt", "--r", "1", "--cap", "64",
            "-o", str(tmp_path / "m.mealy")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        done = subprocess.run([sys.executable, "-c", _CLI_SCRIPT, json.dumps([argv])],
                              env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[1:] == [
            "0 'realizable\\n' "
            "0a7c9423c7fb7d26463e8c908bfbb3ccbb335891fc39479771acdbf3f71e746a"], seed


_CLI_SCRIPT = """
import contextlib, hashlib, io, json, sys
from wsynth import cli
print(sys.flags.optimize)
for argv in json.loads(sys.argv[1]):
    out = argv[argv.index("-o") + 1] if "-o" in argv else None
    if out:
        open(out, "w").close()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    digest = ""
    if out:
        with open(out, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    print(code, repr(stdout.getvalue()), digest)
"""


# Two routes to the target t: s t has value 1/2, the loop s a b t has -1.
# Its first hit is in round 1 for Dsum <= 1/2 and round 3 for Dsum < 1/2.
CHAIN_ARENA = """arena
vertex: s adam
vertex: a adam
vertex: b adam
vertex: t adam critical
initial: s
edge: s - 0 a
edge: a - 0 b
edge: b - 0 s
edge: s - 1 t
edge: b - -8 t
"""


def test_python_O_gives_the_same_cli_results(tmp_path):
    # correctness gates are explicit checks, so -O changes no answer
    machine = tmp_path / "always-d.mealy"
    machine.write_text(core.emit_mealy(always_d_realizer()))
    first_c = tmp_path / "first-c.mealy"
    first_c.write_text(core.emit_mealy(first_c_realizer()))
    paper = core.parse_wfa(Path(PAPER).read_text())
    dsum_paper = tmp_path / "paper-dsum.wfa"
    dsum_paper.write_text(core.emit_wfa(paper.with_measure(DSUM, Fraction(1, 2))))
    avg_paper = tmp_path / "paper-avg.wfa"
    avg_paper.write_text(core.emit_wfa(paper.with_measure(AVG)))
    ge = ["--objective", "threshold", "--cmp", "ge", "--nu"]
    chain = tmp_path / "chain.arena"
    chain.write_text(CHAIN_ARENA)
    out = str(tmp_path / "out")
    dsum = ["--measure", "dsum", "--lambda", "1/2"]
    path = ["dsum-path", str(chain), "--nu", "1/2", "--lambda", "1/2"]
    commands = [
        ["synth", "threshold", PAPER, "--cmp", "ge", "--nu", "6", "-o", out],
        ["synth", "threshold", PAPER, "--cmp", "gt", "--nu", "6"],
        ["synth", "best-value", PAPER, "-o", out],
        ["synth", "approx", PAPER, "--cmp", "le", "--r", "4", "--cap", "64", "-o", out],
        ["synth", "approx", PAPER, "--cmp", "lt", "--r", "4", "--cap", "64"],
        ["verify", PAPER, str(machine), "--objective", "threshold", "--cmp", "ge", "--nu", "6"],
        ["verify", PAPER, str(machine), "--objective", "best-value", "--json"],
        ["verify", PAPER, str(machine), "--objective", "approx", "--cmp", "lt", "--r", "1"],
        ["verify", PAPER, str(first_c), "--objective", "approx", "--cmp", "le", "--r", "4"],
        # Dsum runs through the letter-level product and dsumpath's checks
        ["verify", str(dsum_paper), str(machine), *ge, "3/4"],
        ["verify", str(dsum_paper), str(machine), *ge, "2/3"],
        ["verify", str(dsum_paper), str(machine), "--objective", "best-value"],
        ["verify", str(dsum_paper), str(first_c), "--objective", "approx", "--cmp", "lt",
         "--r", "1", "--json"],
        ["verify", str(avg_paper), str(first_c), *ge, "3/4"],
        ["verify", str(avg_paper), str(first_c), "--objective", "best-value"],
        ["verify", str(avg_paper), str(machine), "--objective", "approx", "--cmp", "le",
         "--r", "4"],
        ["domain-safe", PAPER],
        ["domain-safe", PAPER, "--dot"],
        ["solve-prefix", REMARK, "--measure", "sum", "--cmp", "ge", "--nu", "0"],
        ["solve-prefix", REMARK, *dsum, "--cmp", "gt", "--nu", "1"],
        ["solve-prefix", REMARK, *dsum, "--cmp", "ge", "--nu", "1"],
        ["dsum-path", REMARK, "--nu", "1", "--lambda", "1/2"],
        ["dsum-path", REMARK, "--nu", "1", "--lambda", "1/2", "--strict"],
        path,
        path + ["--trace"],
        path + ["--strict"],
        path + ["--strict", "--trace"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    runs = []
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", _CLI_SCRIPT, json.dumps(commands)],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(done.stdout.splitlines())
    plain, optimized = runs
    assert (plain[0], optimized[0]) == ("0", "1")
    assert optimized[1:] == plain[1:]
    assert len(plain) == len(commands) + 1
    assert {line.split()[0] for line in plain[1:]} == {"0", "1", "2"}
    dsum_runs = plain[1 + commands.index(["verify", str(dsum_paper), str(machine), *ge, "3/4"]):]
    # always-d on a a b is worth 11/16 < 3/4 under lambda 1/2; its infimum is 2/3
    assert dsum_runs[:2] == [
        "1 'fail\\nwitness: a a b\\nvalue: 11/16\\nbest: 11/16\\n' ",
        "0 'pass\\n' ",
    ]
    # --trace prints the full table on stderr but the same shortest witness
    assert plain[-4:] == [
        "0 'yes\\nwitness: s t\\nvalue: 1/2\\n' ",
        "0 'yes\\nwitness: s t\\nvalue: 1/2\\n' ",
        "0 'yes\\nwitness: s a b t\\nvalue: -1\\n' ",
        "0 'yes\\nwitness: s a b t\\nvalue: -1\\n' ",
    ]


def _parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of parsing argv as main reports it."""
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    except cli.UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        code = 64
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _full_parse(argv):
    cli.build_parser.__wrapped__().parse_args(argv)


_PARSE_ERRORS = [
    [],
    ["frobnicate"],
    ["--json", "synth"],
    ["synth"],
    ["synth", "fast", PAPER],
    ["synth", "approx", PAPER, "--cap", "many"],
    ["synth", "threshold", PAPER, "--cmp", "eq"],
    ["verify", PAPER, "m.mealy"],
    ["eval", PAPER, "--input", "a", "--output", "c", "--bogus"],
    ["solve-prefix", REMARK, "--measure", "sum", "--cmp", "ge"],
    ["dsum-path", REMARK, "--nu", "1"],
    ["gen", "spec-to-mp", REMARK],
]


@pytest.mark.parametrize("argv", [["--help"], ["-h"]]
                         + [[name, "--help"] for name in cli._COMMANDS]
                         + _PARSE_ERRORS)
def test_partial_parser_matches_full_parser(capsys, monkeypatch, argv):
    # main reuses the parser of its first call; _full_parse builds a fresh one
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse_outcome(capsys, _full_parse, argv)
    assert full[0] in (0, 64)
    assert _parse_outcome(capsys, cli.main, argv) == full
    if argv[:1] in (["--help"], ["-h"], ["frobnicate"]):
        assert all(name in full[1] + full[2] for name in cli._COMMANDS)


_PARSER_COUNT = """
import argparse, contextlib, io, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from wsynth import cli
print(len(built))
paper, remark = sys.argv[1], sys.argv[2]
calls = [
    ["bestval", paper, "--input", "ab"],
    ["eval", paper, "--input", "ab", "--output", "cd"],
    ["synth", "fast", paper],
    ["dsum-path", remark, "--nu", "1", "--lambda", "1/2"],
    ["solve-prefix", remark, "--measure", "sum", "--cmp", "ge", "--nu", "1"],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
print(*codes)
print(len(built))
"""


def test_one_parser_per_process():
    # importing builds no parser; the first main call builds the top-level
    # parser and its 8 subparsers, and later calls build none
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _PARSER_COUNT, PAPER, REMARK],
        env=env, capture_output=True, text=True, check=True,
    )
    assert len(cli._COMMANDS) == 8
    assert done.stdout.splitlines() == ["0", "0 0 64 1 0", "9"]


def _readme_session():
    """(argv, documented stdout) of each `$ wsynth` line of the README's
    example session."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("### Example session", 1)[1].split("```sh\n", 1)[1]
    session = []
    for line in block.split("```", 1)[0].splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "wsynth"
            session.append((argv[1:], ""))
        else:
            session[-1] = (session[-1][0], session[-1][1] + line + "\n")
    return session


def test_readme_example_session_runs_as_written(capsys, monkeypatch, tmp_path):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    session = _readme_session()
    assert len({argv[0] for argv, _ in session}) >= 4
    for argv, documented in session:
        cli.main(argv)
        assert capsys.readouterr().out == documented, argv


_ENTRY = """
import sys
from wsynth import cli
sys.argv = ["wsynth"] + sys.argv[1:]
cli.entry()
"""


@pytest.mark.parametrize("argv, code, out", [
    (["bestval", "fixtures/paper-example.wfa", "--input", "ab"], 0, "10\n"),
    (["dsum-path", "fixtures/remark.arena", "--nu", "1", "--lambda", "1/2"], 1, "no\n"),
])
def test_entry_point_exits_with_the_answer_code(argv, code, out):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _ENTRY] + argv,
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")


# Eight Sum/Avg/Dsum objectives: each comparison, rational and negative
# thresholds, and Dsum thresholds where the empty prefix fails the check
_PREFIX_OBJECTIVES = [
    ["--measure", "sum", "--cmp", "gt", "--nu", "0"],
    ["--measure", "sum", "--cmp", "ge", "--nu", "1/2"],
    ["--measure", "avg", "--cmp", "gt", "--nu", "-1/2"],
    ["--measure", "avg", "--cmp", "ge", "--nu", "1"],
    ["--measure", "dsum", "--cmp", "gt", "--nu", "0", "--lambda", "1/2"],
    ["--measure", "dsum", "--cmp", "ge", "--nu", "1", "--lambda", "1/2"],
    ["--measure", "dsum", "--cmp", "gt", "--nu", "-1", "--lambda", "2/3"],
    ["--measure", "dsum", "--cmp", "ge", "--nu", "0", "--lambda", "1/3"],
]

# SHA-256 of the exit code and stdout (winner and strategy lines) of
# solve-prefix over _seeded_prefix_arena(0..99) x _PREFIX_OBJECTIVES
_SOLVE_PREFIX_SHA256 = "3f62e3790b6c844e2e6c6c36a2a1c36417e712412dde39f21dbfd6605c30a88a"


def _seeded_prefix_arena(seed):
    """Arena text on v0..v(n-1), n <= 6, every vertex with 1..3 edges and
    at most four Eve vertices with a choice."""
    rng = random.Random("solve-prefix/%d" % seed)
    n = rng.randint(2, 6)
    lines = ["arena"]
    choices = 0
    edges = []
    for v in range(n):
        owner = rng.choice(["eve", "adam"])
        mark = " critical" if rng.random() < 0.3 or v == n - 1 else ""
        lines.append("vertex: v%d %s%s" % (v, owner, mark))
        degree = rng.randint(1, 3)
        if owner == "eve" and degree > 1:
            choices += 1
            degree = degree if choices <= 4 else 1
        for dst in rng.sample(range(n), min(degree, n)):
            edges.append("edge: v%d - %d v%d" % (v, rng.randint(-3, 3), dst))
    return "\n".join(lines + ["initial: v0"] + edges) + "\n"


def test_solve_prefix_stdout_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    for seed in range(100):
        arena = tmp_path / ("a%d.arena" % seed)
        arena.write_text(_seeded_prefix_arena(seed))
        for objective in _PREFIX_OBJECTIVES:
            code, out, _ = run(capsys, "solve-prefix", str(arena), *objective)
            digest.update(("%d\n%s" % (code, out)).encode())
    assert digest.hexdigest() == _SOLVE_PREFIX_SHA256


# The names the program once gave its own helper states and vertices; a
# spec state or arena vertex with one of them must change nothing
_FORMER_HELPER_NAMES = (
    "__sink__", "__drain__", "__absorb_in__", "__absorb_out__", "__bot__", "__start__",
)


def _renamed(text, old, new):
    return re.sub(r"\b%s\b" % re.escape(old), new, text)


def _outcomes(capsys, calls, rename=None):
    """(exit code, stdout) of each call, with stdout's names renamed back."""
    results = []
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        results.append((code, _renamed(out, *rename) if rename else out))
    return results


def test_former_helper_names_are_ordinary_names(capsys, tmp_path):
    first_c, always_d = tmp_path / "first-c.mealy", tmp_path / "always-d.mealy"
    first_c.write_text(core.emit_mealy(first_c_realizer()))
    always_d.write_text(core.emit_mealy(always_d_realizer()))
    spec_commands = [
        ["synth", "threshold", "{sum}", "--cmp", "ge", "--nu", "7"],
        ["synth", "threshold", "{sum}", "--cmp", "gt", "--nu", "5"],
        ["synth", "best-value", "{sum}"],
        ["synth", "approx", "{sum}", "--cmp", "le", "--r", "4"],
        ["synth", "approx", "{avg}", "--cmp", "lt", "--r", "1", "--cap", "16"],
        ["domain-safe", "{sum}"],
        ["verify", "{sum}", str(first_c), "--objective", "best-value"],
        ["verify", "{sum}", str(always_d), "--objective", "best-value"],
        ["verify", "{sum}", str(first_c), "--objective", "threshold", "--cmp", "ge",
         "--nu", "6"],
        ["verify", "{sum}", str(always_d), "--objective", "approx", "--cmp", "le",
         "--r", "4"],
    ]

    def spec_calls(text):
        sum_spec, avg_spec = tmp_path / "sum.wfa", tmp_path / "avg.wfa"
        sum_spec.write_text(text)
        avg_spec.write_text(text.replace("measure: sum", "measure: avg"))
        return [[arg.format(sum=sum_spec, avg=avg_spec) for arg in argv]
                for argv in spec_commands]

    def arena_calls(text):
        arena = tmp_path / "game.arena"
        arena.write_text(text)
        return [["solve-prefix", str(arena), *objective] for objective in _PREFIX_OBJECTIVES]

    paper = (FIXTURES / "paper-example.wfa").read_text()
    expected = _outcomes(capsys, spec_calls(paper))
    for name in _FORMER_HELPER_NAMES:
        rng = random.Random("helper-names/" + name)
        state = "q%d" % rng.randrange(8)
        renamed = spec_calls(_renamed(paper, state, name))
        assert _outcomes(capsys, renamed, (name, state)) == expected, (name, state)
        arena_text = _seeded_prefix_arena(rng.randrange(100))
        vertex = "v%d" % rng.randrange(arena_text.count("vertex:"))
        want = _outcomes(capsys, arena_calls(arena_text))
        renamed = arena_calls(_renamed(arena_text, vertex, name))
        assert _outcomes(capsys, renamed, (name, vertex)) == want, (name, vertex)
