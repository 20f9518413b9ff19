"""Per-layer tracing from outside the program.

install() wraps every public function of the seven wsynth modules and
rebinds the wrapper in every wsynth namespace that holds the function,
so from-imports (synthesis.make_domain_safe) and module globals looked up
inside loops (synthesis.verify_realizer, prefix.check_positional_dsum)
are both traced.  Generator functions are left alone: their work runs in
the caller's frames and is charged to the caller's layer.

Each call records a span (name, start, end, parent span, instance id) in
memory.  A layer's self time is the time its spans cover minus the time
their child spans cover, so the self times of one instance (the seven
layers, with verify_realizer's own time as an eighth row) add up to the
duration of its root span, cli.main.  run.check_roots checks that this
span is the only root and covers the whole call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "core", "domain", "games", "prefix", "dsumpath", "synthesis")

# Names whose results feed count metrics; each hook gets (counts, args, result).


def _two_run(counts, args, result):
    counts["domain.two_run_vertices"] += len(result.arena.vertices)
    counts["domain.two_run_edges"] += len(result.arena.edges)


def _mean_payoff(counts, args, result):
    counts["games.mean_payoff_calls"] += 1
    counts["games.mean_payoff_vertices"] += len(args[0].vertices)
    counts["games.mean_payoff_adam"] += result[0] == "adam"


def _knowledge(counts, args, result):
    counts["games.knowledge_calls"] += 1
    if result[0] == "win":
        counts["games.knowledge_win"] += 1
        counts["games.knowledge_memory_states"] += len(result[1].act)


def _reduced(counts, args, result):
    if not isinstance(result, str):
        counts["prefix.reduced_vertices"] += len(result.arena.vertices)


def _energy(counts, args, result):
    if not isinstance(result, str):
        counts["prefix.reduced_vertices"] += len(result[0].vertices)
        counts["prefix.energy_credit"] += result[1]


def _positional(counts, args, result):
    counts["prefix.positional_checked"] += 1
    counts["prefix.positional_win"] += result[0] is True


def _path(counts, args, result):
    counts["dsumpath.path_checks"] += 1
    counts["dsumpath.path_vertices"] += len(args[0].vertices)
    counts["dsumpath.path_yes"] += result[0] == "yes"


def _verify(counts, args, result):
    counts["synthesis.verify_calls"] += 1
    counts["synthesis.verify_fail"] += result[0] == "fail"


HOOKS = {
    "domain.build_two_run_game": _two_run,
    "games.solve_mean_payoff": _mean_payoff,
    "games.solve_imperfect_energy_capped": _knowledge,
    "prefix.reduce_sum_prefix_to_mp": _reduced,
    "prefix.reduce_dsum_prefix_to_ds": _reduced,
    "prefix.reduce_prefix_energy_to_energy": _energy,
    "prefix.check_positional_dsum": _positional,
    "dsumpath.exists_path_leq": _path,
    "dsumpath.exists_path_lt": _path,
    "synthesis.verify_realizer": _verify,
}

# Count metrics reported as they are, and shares reported as part / whole.
COUNTS = ("domain.two_run_vertices", "domain.two_run_edges",
          "games.mean_payoff_calls", "games.mean_payoff_vertices",
          "games.knowledge_calls", "games.knowledge_memory_states",
          "prefix.reduced_vertices", "prefix.positional_checked",
          "prefix.energy_credit", "dsumpath.path_checks",
          "dsumpath.path_vertices", "synthesis.verify_calls")
SHARES = {
    "games.mean_payoff_adam_share": ("games.mean_payoff_adam", "games.mean_payoff_calls"),
    "games.knowledge_win_share": ("games.knowledge_win", "games.knowledge_calls"),
    "prefix.positional_win_share": ("prefix.positional_win", "prefix.positional_checked"),
    "dsumpath.yes_share": ("dsumpath.path_yes", "dsumpath.path_checks"),
    "synthesis.verify_fail_share": ("synthesis.verify_fail", "synthesis.verify_calls"),
}


def new_counts():
    keys = set(COUNTS) | {key for pair in SHARES.values() for key in pair}
    return dict.fromkeys(sorted(keys), 0)


def nonzero(counts):
    """The counts that are not 0, as expected.json records them."""
    return {key: value for key, value in counts.items() if value}


# Time metrics that cover given spans (a span nested in another of the set
# is not counted twice).
COVER = {
    "games.mean_payoff_s": {"games.solve_mean_payoff"},
    "games.safety_s": {"games.solve_safety", "games.attractor"},
    "games.discounted_sum_s": {"games.solve_discounted_sum"},
    "games.knowledge_s": {"games.solve_imperfect_energy_capped"},
    "synthesis.verify_s": {"synthesis.verify_realizer"},
}

# Fixed probe calls and the wrapped names each is known to reach.  A
# traced run fails when a reachable name records no span, which is what a
# namespace binding missed by install() looks like.
PROBES = [
    (["synth", "threshold", "paper.wfa", "--cmp", "ge", "--nu", "6", "-o", "out.mealy"],
     ["cli.main", "core.parse_wfa", "synthesis.synth_threshold",
      "domain.make_domain_safe", "domain.build_two_run_game", "games.solve_safety",
      "games.attractor", "synthesis.spec_to_prefix_arena",
      "prefix.solve_prefix_threshold", "prefix.reduce_sum_prefix_to_mp",
      "games.solve_mean_payoff", "synthesis.extract_transducer",
      "synthesis.verify_realizer", "core.emit_mealy"]),
    (["synth", "threshold", "paper-avg.wfa", "--cmp", "gt", "--nu", "1"],
     ["prefix.reduce_avg_to_sum", "games.solve_mean_payoff"]),
    (["synth", "best-value", "paper.wfa", "-o", "out.mealy"],
     ["synthesis.synth_best_value", "synthesis.verify_realizer"]),
    (["verify", "paper.wfa", "always-c.mealy", "--objective", "best-value"],
     ["core.parse_mealy", "synthesis.verify_realizer", "core.run_transducer",
      "core.evaluate", "core.best_value"]),
    (["solve-prefix", "remark.arena", "--measure", "dsum", "--cmp", "gt", "--nu", "1",
      "--lambda", "1/2"],
     ["games.parse_arena", "prefix.check_positional_dsum", "dsumpath.exists_path_leq",
      "dsumpath.compute_mrg"]),
    (["solve-prefix", "remark.arena", "--measure", "dsum", "--cmp", "ge", "--nu", "1",
      "--lambda", "1/2"],
     ["prefix.reduce_dsum_prefix_to_ds", "games.solve_discounted_sum"]),
    (["dsum-path", "remark.arena", "--nu", "1", "--lambda", "1/2", "--strict"],
     ["dsumpath.exists_path_lt"]),
    (["synth", "approx", "paper.wfa", "--cmp", "le", "--r", "4", "--cap", "64",
      "-o", "out.mealy"],
     ["synthesis.synth_approx", "synthesis.build_approx_game",
      "prefix.reduce_prefix_energy_to_energy", "games.solve_imperfect_energy_capped"]),
]

REMARK_ARENA = """arena
vertex: v0 adam
vertex: v1 adam critical
initial: v0
edge: v0 - 1 v0
edge: v0 - 3 v1
edge: v1 - 0 v1
"""

ALWAYS_C_MEALY = """mealy
initial: s
finals: s
trans: s a c s
trans: s b c s
"""


class Tracer:
    """Span recorder; wrappers are built once and bound by install()."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.instance = None
        self.counts = None
        self._wrappers = None
        self._originals = []

    def _wrap(self, label, fn):
        name_id = len(self.names)
        self.names.append(label)
        hook = HOOKS.get(label)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.instance)
            if hook is not None and self.counts is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every public function and rebind it wherever it is bound."""
        if self._wrappers is None:
            self._wrappers = {}
            for layer in LAYERS:
                module = sys.modules["wsynth." + layer]
                for name, obj in vars(module).items():
                    if (name.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != module.__name__
                            or inspect.isgeneratorfunction(obj)):
                        continue
                    self._wrappers[obj] = self._wrap("%s.%s" % (layer, name), obj)
        wrappers = self._wrappers
        for modname, module in list(sys.modules.items()):
            if modname != "wsynth" and not modname.startswith("wsynth."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._originals.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self):
        for module, name, obj in self._originals:
            setattr(module, name, obj)
        self._originals.clear()

    def reset(self, counts):
        self.spans.clear()
        self.counts = counts

    def analyse(self):
        """Per-instance layer self times and covered times, in ns.

        Returns ({instance: {layer: ns}}, {instance: [(root name, ns)]},
        {instance: {metric: ns}}, {name: span count}).
        """
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _inst in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns, roots, covered, calls = {}, {}, {}, {}
        for index, (name_id, start, end, parent, inst) in enumerate(self.spans):
            label = self.names[name_id]
            calls[label] = calls.get(label, 0) + 1
            layer = label.split(".", 1)[0]
            own = end - start - child_ns[index]
            if label == "synthesis.verify_realizer":
                layer = "verify"
            per = self_ns.setdefault(inst, {})
            per[layer] = per.get(layer, 0) + own
            if parent < 0:
                roots.setdefault(inst, []).append((label, end - start))
            for metric, names in COVER.items():
                if label in names and not self._inside(parent, names):
                    per = covered.setdefault(inst, {})
                    per[metric] = per.get(metric, 0) + end - start
        return self_ns, roots, covered, calls

    def _inside(self, index, names):
        while index >= 0:
            name_id, _s, _e, parent, _i = self.spans[index]
            if self.names[name_id] in names:
                return True
            index = parent
        return False

    def dump(self, path):
        """Write the spans of the last pass as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\tinstance\n")
            for index, (name_id, start, end, parent, inst) in enumerate(self.spans):
                handle.write("%d\t%s\t%d\t%d\t%d\t%s\n" % (
                    index, self.names[name_id], start, end, parent, inst))
