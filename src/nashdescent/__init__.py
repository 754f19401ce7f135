"""Approximate Nash equilibria of bimatrix games by descent and adjustment.

The package splits into: game primitives (`game`), a dense LP kernel
(`lp`), the descent to stationary points (`descent`), the three classic
adjustments (`adjust`), the four-case one-third adjustment (`dfm`), the
worst-case instance generator and static instances (`generator`),
comparison algorithms (`baselines`), and the experiment harness with its
CLI (`experiments`, `cli`).

Importing the package loads none of them. A public name, such as
``nashdescent.generate_tight``, imports its defining submodule on first
access (PEP 562), so a caller pays only for the submodules it uses; a
submodule name, such as ``nashdescent.lp``, imports that submodule. The
CLI and the experiment harness reach the solvers through this namespace,
so each subcommand loads only the submodules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with the public names it defines.
_NAMES = {
    "adjust": ("AdjustmentOutcome", "TsResult", "adjust_boundary_min", "adjust_linear",
               "adjust_ts", "lambda_mu", "ts_solve"),
    "baselines": ("RunTrace", "ZeroSumResult", "fictitious_play", "regret_matching",
                  "zero_sum_baseline"),
    "descent": ("DescentBudgetError", "DirectionResult", "DualSolution", "StationaryPoint",
                "balance", "bilinear_matrix", "direction", "find_stationary", "line_search",
                "scaled_derivative", "stationary_from", "t_value", "verify_stationary"),
    "dfm": ("DfmResult", "DfmTrace", "dfm_adjust", "dfm_solve"),
    "game": ("Game", "GameError", "Profile", "Regrets", "Supports", "is_eps_ne", "mixed",
             "normalize_game", "pure", "regrets", "segment_min_f", "square_min_f", "supports",
             "uniform"),
    "generator": ("Constants", "GeneratorInput", "SamplingError", "StaticInstance",
                  "TightCertificate", "TightInstance", "canonical_block", "dfm_family",
                  "dfm_tight", "generate_tight", "half_sp", "perturb_profile",
                  "profile_distance", "sample_inputs", "sample_outside_ball",
                  "sample_tight_games", "solve_b", "tight_3x3", "tight_feasible", "tight_m_n",
                  "tight_no_dominated", "verify_tight"),
    "lp": ("LinearProgram", "LpError", "LpNumericalError", "LpSolution", "solve_lp",
           "solve_zero_sum"),
    "experiments": ("ExperimentConfig", "ExperimentReport", "TrialRecord", "exp_compare",
                    "exp_outside_ball", "exp_stability", "exp_success_rate",
                    "wilson_interval"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _NAMES:
        # Importing a submodule binds it as an attribute of the package.
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later accesses skip this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_NAMES})
