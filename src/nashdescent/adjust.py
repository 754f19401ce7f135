"""Post-processing of a stationary point inside the square spanned by
(x*,y*) and the dual witnesses (w*,z*): the classic convex-combination
adjustment, the exact boundary minimum, and the linear-bound intersection,
plus the full descent-and-adjust pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descent import StationaryPoint, find_stationary
from .game import Game, Profile, Regrets, mixed, regrets, segment_min_f, supports

METHOD_TS = "ts"
METHOD_BOUNDARY = "boundary-min"
METHOD_LINEAR = "linear-intersect"

# fC(w*,z*) vs fR(w*,z*) ties within this band route to the fC >= fR branch,
# the one that moves x.
BRANCH_TIE_TOL = 1e-12


@dataclass(frozen=True)
class AdjustmentOutcome:
    method: str
    profile: Profile
    f: float


def lambda_mu(game: Game, sp: StationaryPoint) -> tuple[float, float]:
    """The classic adjustment coefficients.

    lambda minimizes (w*-x*)'Ry' over y' supported on the column player's
    best responses; mu minimizes x''C(z*-y*) over x' supported on the row
    player's best responses.  Linear objectives over a restricted simplex
    bottom out at vertices, so both are column/row minima.  mu is lambda
    of the swapped game (C', R'); one ``supports`` call gives both players'
    best responses.
    """
    p, d = sp.profile, sp.dual
    s = supports(game, p)
    return _lambda(game.R, p.x, d.w, s.col_best), _lambda(game.C.T, p.y, d.z, s.row_best)


def _lambda(R: np.ndarray, x: np.ndarray, w: np.ndarray, best: np.ndarray) -> float:
    """lambda of ``lambda_mu`` for the player with payoff R, strategy x and
    witness w, over the opponent's best responses ``best``."""
    return float(((w - x) @ R)[best].min())


def adjust_ts(game: Game, sp: StationaryPoint) -> AdjustmentOutcome:
    """Method 1: the original convex-combination adjustment."""
    lam, mu = lambda_mu(game, sp)
    if lam >= mu:
        prof = _ts_move_x(sp, lam - mu)
    else:
        prof = _ts_move_x(sp.swapped(), mu - lam).swapped()
    return AdjustmentOutcome(METHOD_TS, prof, regrets(game, prof).f)


def _ts_move_x(sp: StationaryPoint, gap: float) -> Profile:
    """Mix x* into w* with weight gap/(1 + gap) on x*, and play z*."""
    coeff = 1.0 / (1.0 + gap)
    return Profile(mixed(coeff * sp.dual.w + gap * coeff * sp.profile.x), sp.dual.z)


def _far_edge(game: Game, sp: StationaryPoint, on_x_edge) -> tuple[Profile, float]:
    """Run on_x_edge(game, sp, f_wz) -> (profile, f), written for the edge
    from (x*, z*) to (w*, z*) with f_wz the regrets at (w*, z*), on the far
    edge that the corner (w*, z*) picks.

    With fC >= fR there (ties within BRANCH_TIE_TOL included) that is the
    x edge; otherwise it is the y edge, the x edge of the swapped game,
    whose regrets at its corner (z*, w*) are (fC, fR): the same products
    and sums.
    """
    f_wz = regrets(game, Profile(sp.dual.w, sp.dual.z))
    if f_wz.fC >= f_wz.fR - BRANCH_TIE_TOL:
        return on_x_edge(game, sp, f_wz)
    f_zw = Regrets(f_wz.fC, f_wz.fR, max(f_wz.fC, f_wz.fR))
    prof, f = on_x_edge(game.swapped(), sp.swapped(), f_zw)
    return prof.swapped(), f


def _x_edge_min(game: Game, sp: StationaryPoint, f_wz: Regrets) -> tuple[Profile, float]:
    """The exact minimum of f on the edge from (x*, z*) to (w*, z*); the
    corner's regrets f_wz are not needed for it."""
    z = sp.dual.z
    _, prof, f = segment_min_f(game, Profile(sp.profile.x, z), Profile(sp.dual.w, z))
    return prof, f


def _linear_intersection(game: Game, sp: StationaryPoint,
                         f_wz: Regrets) -> tuple[Profile, float]:
    """Where fR's chord from (x*, z*) to (w*, z*) meets fC's chord on that edge."""
    x = sp.profile.x
    w, z = sp.dual.w, sp.dual.z
    f_xz = regrets(game, Profile(x, z))
    den = f_xz.fR + f_wz.fC - f_wz.fR
    p = 0.0 if abs(den) <= 1e-12 else f_xz.fR / den
    prof = Profile(mixed(np.clip(p * w + (1.0 - p) * x, 0.0, None)), z)
    return prof, regrets(game, prof).f


def adjust_boundary_min(game: Game, sp: StationaryPoint) -> AdjustmentOutcome:
    """Method 2: the exact minimum of f on the far boundary of the square."""
    return AdjustmentOutcome(METHOD_BOUNDARY, *_far_edge(game, sp, _x_edge_min))


def adjust_linear(game: Game, sp: StationaryPoint) -> AdjustmentOutcome:
    """Method 3: intersect the linear bounds of the two regrets on the far boundary."""
    return AdjustmentOutcome(METHOD_LINEAR, *_far_edge(game, sp, _linear_intersection))


@dataclass(frozen=True)
class TsResult:
    """Pipeline outcome: the canonical answer plus every candidate's value."""

    best: AdjustmentOutcome
    sp: StationaryPoint
    stationary_f: float
    ts_f: float
    boundary_f: float
    linear_f: float


def ts_solve(game: Game, p0: Profile, delta: float = 1e-3,
             max_iter: int | None = None) -> TsResult:
    """Descent to a stationary point, then adjust.

    The canonical answer is the better of the stationary profile and the
    Method-1 adjustment; the two analysis methods are evaluated and reported
    alongside.  ``max_iter`` is find_stationary's iteration cap.
    """
    sp = find_stationary(game, p0, delta, max_iter)
    m1 = adjust_ts(game, sp)
    m2 = adjust_boundary_min(game, sp)
    m3 = adjust_linear(game, sp)
    stationary = AdjustmentOutcome("stationary", sp.profile, sp.f)
    best = stationary if sp.f <= m1.f else m1
    return TsResult(
        best=best,
        sp=sp,
        stationary_f=sp.f,
        ts_f=m1.f,
        boundary_f=m2.f,
        linear_f=m3.f,
    )
