"""Metamorphic relations: two runs that must agree, at any size, with no
oracle for either (Chen et al., ACM Computing Surveys 2018).

Renaming a spec's states consistently, with every line of the file kept
in its place, must change no byte that synth approx writes: its machines,
the one-state machine of an empty domain too, name their states m0, m1,
... in breadth-first order.  synth threshold names its machine's states
after the spec's, so its machines must differ exactly by the renaming.

Renaming an arena's vertices the same way, every line kept in its place,
must change no strict-Dsum solve-prefix exit code or winner, and Eve's
strategy only by the renaming: the positional search tries the same
candidates in the same order, and the path check decides each one by
values alone.  It must change no dsum-path answer either.  Names only
break ties between witnesses.

Scaling every weight and the threshold by the same k > 0, with the
discount kept, scales every Sum, Avg and Dsum value by k, so it must
change no winner of a critical prefix game and no synth threshold status.
For synth approx with cmp <=, scaling the slack r and the cap by k too,
where k*r keeps r's denominator, scales every weight of its game, the
credit, the rise bound B and the cap by k, so it must change no byte of
its answer.  Strict < charges one unit that does not scale.

A Sum or Avg spec realizable at threshold nu is realizable at every
lower threshold with the same comparison, since a machine that keeps
every value above nu keeps it above any lower one.  (The matching
relation for synth approx, slack r against a larger r at a fixed cap,
does not hold: a larger r can raise the game's buffered credit so close
to the cap that the capped game no longer wins.)

Raising the cap of synth approx, with the slack kept, keeps every win:
credits are clamped at the cap, so a strategy that wins at cap c wins
at 2c.  No cap answers unrealizable unless every cap does, since the
cap never certifies unrealizability.

Trimming a spec to its live states first must change no domain-safe
spec that make_domain_safe returns: a run that enters a dead state can
no longer end in a final state, just like a run that dies, so no winner
of the two-run game changes.
"""

import collections
import random
from fractions import Fraction

from wsynth import cli, core, domain, games, prefix, synthesis

from conftest import load_bench_gen, random_spec


def renamed(spec, rng):
    """The spec with its states renamed by a random bijection onto fresh
    names whose sorted order is shuffled, and the renaming."""
    states = list(dict.fromkeys(
        [spec["initial"]] + [q for src, _s, _w, tgt in spec["trans"] for q in (src, tgt)]))
    fresh = ["s%d" % k for k in rng.sample(range(10 * len(states)), len(states))]
    names = dict(zip(states, fresh))
    other = dict(spec, initial=names[spec["initial"]], finals=[names[q] for q in spec["finals"]],
                 trans=[(names[src], sym, w, names[tgt]) for src, sym, w, tgt in spec["trans"]])
    return other, names


def rename_machine(text, names):
    """Machine text with each state renamed; the symbols stay."""
    lines = []
    for line in text.splitlines():
        key, _, rest = line.partition(": ")
        tokens = rest.split()
        if key in ("initial", "finals"):
            tokens = [names[q] for q in tokens]
        elif key == "trans":
            tokens = [names[tokens[0]], tokens[1], tokens[2], names[tokens[3]]]
        lines.append(": ".join([key, " ".join(tokens)]) if rest or key == "finals" else line)
    return "\n".join(lines) + "\n"


def synth(tmp_path, capsys, text, argv):
    """(exit code, stdout, -o file text or None) of one synth call on text."""
    spec, out = tmp_path / "spec.wfa", tmp_path / "out.mealy"
    spec.write_text(text)
    out.unlink(missing_ok=True)
    code = cli.main(argv[:2] + [str(spec)] + argv[2:] + ["-o", str(out)])
    return code, capsys.readouterr().out, out.read_text() if out.exists() else None


def test_renaming_spec_states_renames_only_the_threshold_machines(tmp_path, capsys):
    gen = load_bench_gen()
    rng = random.Random(1212)
    seen = collections.Counter()
    for _ in range(220):
        measure = rng.choice(["sum", "avg"])
        spec = gen.memory_spec(rng, rng.randint(2, 3), rng.randint(2, 4), "ab", "xy", measure,
                               out_w=(-3, 3))
        other, names = renamed(spec, rng)
        text, other_text = gen.emit_wfa(spec), gen.emit_wfa(other)
        assert other_text != text
        seen["sorted order changed"] += sorted(names) != sorted(names, key=names.get)

        approx = ["synth", "approx", "--cmp", rng.choice(["le", "lt"]),
                  "--r", str(rng.randint(1, 4)), "--cap", "8"]
        answer = synth(tmp_path, capsys, text, approx)
        assert synth(tmp_path, capsys, other_text, approx) == answer, (text, approx)
        seen["approx", answer[0], answer[2] is not None and answer[2].count("trans:") > 2] += 1
        seen["empty domain"] += answer[2] == "mealy\ninitial: m0\nfinals: \n"

        nu = str(rng.randint(-3, 3)) if measure == "sum" else rng.choice(["-1/2", "0", "1/3", "1"])
        threshold = ["synth", "threshold", "--cmp", rng.choice(["ge", "gt"]), "--nu=" + nu]
        code, stdout, machine = synth(tmp_path, capsys, text, threshold)
        expected = (code, stdout, machine and rename_machine(machine, names))
        assert synth(tmp_path, capsys, other_text, threshold) == expected, (text, threshold)
        seen["threshold", code, machine is not None and machine.count("trans:") > 2] += 1
    # both pipelines give machines with more than one choice, and other answers
    assert seen["approx", 0, True] >= 60 and seen["approx", 2, False] >= 20, seen
    assert seen["empty domain"] >= 5 and seen["sorted order changed"] >= 150, seen
    assert seen["threshold", 0, True] >= 40 and seen["threshold", 1, False] >= 40, seen


_LAMBDAS = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]


def renamed_arena(layout, rng):
    """A bench/gen.py arena layout with its vertices renamed by a random
    bijection onto fresh names whose sorted order is shuffled, and the
    renaming."""
    fresh = ["u%d" % k for k in rng.sample(range(10 * len(layout["vertices"])),
                                            len(layout["vertices"]))]
    names = dict(zip(layout["vertices"], fresh))
    other = dict(vertices=[names[v] for v in layout["vertices"]],
                 owner={names[v]: who for v, who in layout["owner"].items()},
                 critical=[names[v] for v in layout["critical"]], initial=names[layout["initial"]],
                 edges=[(names[src], w, names[dst]) for src, w, dst in layout["edges"]])
    return other, names


def test_renaming_arena_vertices_keeps_every_strict_dsum_answer(tmp_path, capsys):
    gen = load_bench_gen()
    rng = random.Random(3636)
    seen = collections.Counter()
    path = tmp_path / "game.arena"

    def run(layout, argv):
        path.write_text(gen.emit_arena(layout))
        code = cli.main([argv[0], str(path)] + argv[1:])
        return code, capsys.readouterr().out.splitlines()

    for trial in range(240):
        layout = gen.random_arena(rng, rng.randint(3, 8), max_out=4, eve_choice_cap=3,
                                  critical_p=0.6)
        if trial % 2:
            # each check ends the play in a drain: a target the table raised
            # is never raised again, so every hit must be seen when it comes
            critical = set(layout["critical"])
            layout["vertices"].append("z")
            layout["owner"]["z"] = "adam"
            layout["edges"] = [edge for edge in layout["edges"] if edge[0] not in critical]
            layout["edges"] += [(v, 0, "z") for v in critical] + [("z", 3, "z")]
        other, names = renamed_arena(layout, rng)
        flags = ["--nu=%s" % Fraction(rng.randint(-6, 4), rng.randint(1, 3)),
                 "--lambda", str(rng.choice(_LAMBDAS))]
        solve = ["solve-prefix", "--measure", "dsum", "--cmp", "gt"] + flags
        code, (winner, *picks) = run(layout, solve)
        renamed_picks = ["strategy: %s %s" % (names[v], i)
                         for v, i in (line.split()[1:] for line in picks)]
        assert run(other, solve) == (code, [winner, *renamed_picks]), gen.emit_arena(layout)
        seen[winner] += 1
        for strict in ([], ["--strict"]):
            code, lines = run(layout, ["dsum-path"] + flags + strict)
            assert run(other, ["dsum-path"] + flags + strict)[0] == code
            seen["dsum-path", lines[0]] += 1
    assert min(seen.values()) >= 40, seen


def test_scaling_weights_and_threshold_keeps_every_prefix_winner():
    gen = load_bench_gen()
    rng = random.Random(3303)
    seen = collections.Counter()
    for trial in range(120):
        measure = (core.SUM, core.AVG, core.DSUM)[trial % 3]
        layout = gen.random_arena(rng, rng.randint(3, 12), eve_choice_cap=4)
        arenas = [games.parse_arena(gen.emit_arena(dict(layout, edges=[
            (src, k * w, dst) for src, w, dst in layout["edges"]]))) for k in (1, 2, 3)]
        discount = rng.choice(_LAMBDAS) if measure == core.DSUM else None
        # the small integers, where a strict check meets its value, and a fraction
        for nu in list(range(-2, 3)) + [Fraction(rng.randint(-6, 6), rng.choice([2, 3]))]:
            cmp = rng.choice([">", ">="])
            winners = [prefix.solve_prefix_threshold(
                arena, prefix.PrefixObjective(measure, cmp, k * nu, discount))[0]
                for k, arena in zip((1, 2, 3), arenas)]
            assert winners == winners[:1] * 3, (gen.emit_arena(layout), measure, cmp, nu)
            seen[measure, cmp, winners[0]] += 1
    assert len(seen) == 12 and min(seen.values()) >= 20, seen


def test_scaling_weights_and_threshold_keeps_every_synth_threshold_status():
    gen = load_bench_gen()
    rng = random.Random(3304)
    seen = collections.Counter()
    for trial in range(150):
        measure = (core.SUM, core.AVG, core.DSUM)[trial % 3]
        discount = str(rng.choice(_LAMBDAS)) if measure == core.DSUM else None
        layout = gen.memory_spec(rng, rng.randint(2, 4), rng.randint(2, 3), "ab", "xy", measure,
                                 discount=discount, choice_cap=4)
        cmp = rng.choice([">", ">="])
        nu = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        status = synthesis.synth_threshold(core.parse_wfa(gen.emit_wfa(layout)), cmp, nu).status
        for k in (2, 3):
            scaled = dict(layout, trans=[(src, sym, k * w, tgt)
                                         for src, sym, w, tgt in layout["trans"]])
            spec = core.parse_wfa(gen.emit_wfa(scaled))
            assert synthesis.synth_threshold(spec, cmp, k * nu).status == status, \
                (gen.emit_wfa(layout), cmp, nu, k)
        seen[measure, status] += 1
    assert min(seen[m, s] for m in (core.SUM, core.AVG, core.DSUM)
               for s in (synthesis.REALIZABLE, synthesis.UNREALIZABLE)) >= 10, seen


def test_scaling_weights_slack_and_cap_keeps_every_synth_approx_answer():
    gen = load_bench_gen()
    rng = random.Random(5)
    seen = collections.Counter()
    for trial in range(150):
        measure = (core.SUM, core.AVG)[trial % 2]
        layout = gen.memory_spec(rng, rng.randint(2, 3), rng.randint(2, 4), "ab", "xy", measure,
                                 out_w=(-3, 3))
        r = Fraction(rng.randint(0, 4), rng.choice([1, 2]))
        cap = rng.choice([4, 8])
        answer = synthesis.synth_approx(core.parse_wfa(gen.emit_wfa(layout)), "<=", r, cap)
        machine = answer.transducer and core.emit_mealy(answer.transducer)
        for k in (2, 3):
            if (k * r).denominator != r.denominator:
                continue
            scaled = dict(layout, trans=[(src, sym, k * w, tgt)
                                         for src, sym, w, tgt in layout["trans"]])
            got = synthesis.synth_approx(core.parse_wfa(gen.emit_wfa(scaled)), "<=", k * r, k * cap)
            assert (got.status, got.transducer and core.emit_mealy(got.transducer)) == \
                (answer.status, machine), (gen.emit_wfa(layout), r, cap, k)
            seen[measure, answer.status, machine is not None and machine.count("trans:") > 2] += 1
    for measure in (core.SUM, core.AVG):
        assert seen[measure, synthesis.REALIZABLE, True] >= 20, seen
        assert seen[measure, synthesis.UNKNOWN_AT_CAP, False] >= 20, seen


def test_lowering_the_threshold_keeps_every_synth_threshold_win():
    gen = load_bench_gen()
    rng = random.Random(3412)
    nus = [Fraction(k, 2) for k in range(-8, 9)]
    seen = collections.Counter()
    for trial in range(150):
        measure = (core.SUM, core.AVG)[trial % 2]
        layout = gen.memory_spec(rng, rng.randint(2, 3), rng.randint(2, 4), "ab", "xy", measure,
                                 out_w=(-3, 3))
        spec = core.parse_wfa(gen.emit_wfa(layout))
        cmp = rng.choice([">", ">="])
        wins = [synthesis.synth_threshold(spec, cmp, nu).status == synthesis.REALIZABLE
                for nu in nus]
        # a win at each nu up to some point, and none above it
        assert wins == sorted(wins, reverse=True), (gen.emit_wfa(layout), cmp, wins)
        seen[measure, "switches" if 0 < sum(wins) < len(nus) else "constant"] += 1
    assert min(seen[measure, "switches"] for measure in (core.SUM, core.AVG)) >= 30, seen


def test_raising_the_cap_keeps_every_synth_approx_win():
    gen = load_bench_gen()
    rng = random.Random(1)
    caps = (1, 2, 4, 8, 16)
    seen = collections.Counter()
    for trial in range(200):
        measure = (core.SUM, core.AVG)[trial % 2]
        layout = gen.memory_spec(rng, rng.randint(2, 3), rng.randint(2, 4), "ab", "xy", measure,
                                 out_w=(-3, 3))
        spec = core.parse_wfa(gen.emit_wfa(layout))
        cmp = rng.choice(["<", "<="])
        r = Fraction(rng.randint(0, 4), rng.choice([1, 2]))
        statuses = [synthesis.synth_approx(spec, cmp, r, cap).status for cap in caps]
        wins = [status == synthesis.REALIZABLE for status in statuses]
        context = (gen.emit_wfa(layout), cmp, r, statuses)
        # no win at a cap below some point, and a win at every cap above it
        assert wins == sorted(wins), context
        # the cap never certifies unrealizability
        assert (synthesis.UNREALIZABLE in statuses) == (
            statuses == [synthesis.UNREALIZABLE] * len(caps)), context
        seen[measure, cmp, "switches" if 0 < sum(wins) < len(caps) else statuses[0]] += 1
    assert min(seen[measure, cmp, "switches"] for measure in (core.SUM, core.AVG)
               for cmp in ("<", "<=")) >= 3, seen
    assert min(seen[measure, "<", synthesis.UNREALIZABLE]
               for measure in (core.SUM, core.AVG)) >= 3, seen


def test_trimming_first_changes_no_domain_safe_spec():
    # memory specs lose only their trap; the small random specs also have
    # live unsafe transitions and specs with no Boolean realizer
    gen = load_bench_gen()
    rng = random.Random(7)
    specs = []
    for _ in range(600):
        layout = gen.memory_spec(rng, rng.randint(2, 5), rng.randint(2, 5), rng.choice(["ab", "abc"]),
                                 rng.choice(["xy", "xyz"]), rng.choice([core.SUM, core.AVG]))
        specs.append(core.parse_wfa(gen.emit_wfa(layout)))
    specs += [random_spec(rng, max_states=rng.randint(2, 10), measure=rng.choice([core.SUM, core.AVG]))
              for _ in range(600)]
    seen = collections.Counter()
    for spec in specs:
        trimmed = domain.trim(spec, spec.transitions)
        safe = domain.make_domain_safe(spec)
        assert domain.make_domain_safe(trimmed) == safe, core.emit_wfa(spec)
        seen["dead states"] += len(trimmed.states) < len(spec.states)
        seen["no realizer"] += safe is None
        seen["unsafe transitions"] += safe is not None and len(safe.transitions) < len(
            trimmed.transitions)
    assert min(seen.values()) >= 30, seen
