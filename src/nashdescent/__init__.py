"""Approximate Nash equilibria of bimatrix games by descent and adjustment.

The package splits into: game primitives (`game`), a dense LP kernel
(`lp`), the descent to stationary points (`descent`), the three classic
adjustments (`adjust`), the four-case one-third adjustment (`dfm`), the
worst-case instance generator and static instances (`generator`),
comparison algorithms (`baselines`), and the experiment harness with its
CLI (`experiments`, `cli`).
"""

from .adjust import (
    AdjustmentOutcome,
    TsResult,
    adjust_boundary_min,
    adjust_linear,
    adjust_ts,
    lambda_mu,
    ts_solve,
)
from .baselines import RunTrace, ZeroSumResult, fictitious_play, regret_matching, zero_sum_baseline
from .descent import (
    DescentBudgetError,
    DirectionResult,
    DualSolution,
    StationaryPoint,
    balance,
    bilinear_matrix,
    direction,
    find_stationary,
    line_search,
    scaled_derivative,
    stationary_from,
    t_value,
    verify_stationary,
)
from .dfm import DfmResult, DfmTrace, dfm_adjust, dfm_solve
from .game import (
    Game,
    GameError,
    Profile,
    Regrets,
    Supports,
    is_eps_ne,
    mixed,
    normalize_game,
    pure,
    regrets,
    segment_min_f,
    square_min_f,
    supports,
    uniform,
)
from .generator import (
    Constants,
    GeneratorInput,
    SamplingError,
    StaticInstance,
    TightCertificate,
    TightInstance,
    canonical_block,
    dfm_family,
    dfm_tight,
    generate_tight,
    half_sp,
    perturb_profile,
    profile_distance,
    sample_inputs,
    sample_outside_ball,
    solve_b,
    tight_3x3,
    tight_feasible,
    tight_m_n,
    tight_no_dominated,
    verify_tight,
)
from .lp import (
    LinearProgram,
    LpError,
    LpNumericalError,
    LpSolution,
    solve_lp,
    solve_zero_sum,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    exp_compare,
    exp_outside_ball,
    exp_stability,
    exp_success_rate,
    sample_tight_games,
    wilson_interval,
)

__version__ = "0.1.0"
