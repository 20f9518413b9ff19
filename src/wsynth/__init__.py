"""Synthesis of Mealy machines from partial-domain weighted specifications."""

from .core import (AVG, DSUM, NEG_INF, SUM, FormatError, InternalError, MealyTransducer,
                   SpecError, WeightedSpec, best_value, evaluate, emit_mealy, emit_wfa,
                   minimize_transducer, parse_mealy, parse_wfa, run_transducer)
from .domain import domain_membership, is_domain_safe, make_domain_safe, unsafe_transitions
from .dsumpath import (NondetDsumAutomaton, WeightedGraph, dsum_nonempty_geq, exists_path_leq,
                       exists_path_lt, relative_gap)
from .games import (Arena, ImperfectArena, attractor, parse_arena, emit_arena,
                    solve_discounted_sum, solve_imperfect_energy_capped, solve_mean_payoff,
                    solve_safety)
from .prefix import PrefixObjective, check_positional_dsum, solve_prefix_threshold
from .synthesis import (FAIL, NO_BOOLEAN_REALIZER, PASS, REALIZABLE, UNKNOWN_AT_CAP,
                        UNREALIZABLE, Objective, SynthResult, gen_spec_from_mp_game,
                        synth_approx, synth_best_value, synth_threshold, totalize_for_church,
                        verify_realizer)

__all__ = [
    "AVG", "DSUM", "NEG_INF", "SUM", "FormatError", "InternalError", "MealyTransducer",
    "SpecError", "WeightedSpec", "best_value", "evaluate", "emit_mealy", "emit_wfa",
    "minimize_transducer", "parse_mealy", "parse_wfa", "run_transducer",
    "domain_membership", "is_domain_safe", "make_domain_safe", "unsafe_transitions",
    "NondetDsumAutomaton", "WeightedGraph", "dsum_nonempty_geq", "exists_path_leq",
    "exists_path_lt", "relative_gap",
    "Arena", "ImperfectArena", "attractor", "parse_arena", "emit_arena",
    "solve_discounted_sum", "solve_imperfect_energy_capped", "solve_mean_payoff",
    "solve_safety",
    "PrefixObjective", "check_positional_dsum", "solve_prefix_threshold",
    "FAIL", "NO_BOOLEAN_REALIZER", "PASS", "REALIZABLE", "UNKNOWN_AT_CAP",
    "UNREALIZABLE", "Objective", "SynthResult", "gen_spec_from_mp_game",
    "synth_approx", "synth_best_value", "synth_threshold", "totalize_for_church",
    "verify_realizer",
]
