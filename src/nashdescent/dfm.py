"""The four-case adjustment that sharpens the worst case to 1/3.

Cases route on the height differences (lambda*, mu*) of the stationary
point.  The easy cases return a corner of the adjustment square; the two
hard cases mix in a best response to a midpoint strategy and minimize f
along a segment leaving the square.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .descent import StationaryPoint, find_stationary
from .game import Game, Profile, normalize_in_place, pure, regrets, segment_min_f

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DfmTrace:
    """Record of one adjustment: case routing, intermediates, and output.

    In case 3 (y_hat, w_hat, t_r, v_r, mu_hat) are the midpoint strategy,
    its best-response row, the two payoff gaps and the recomputed height
    difference.  Case 4 is case 3 on the swapped game, so it stores the
    mirrored quantities (x_hat, z_hat, t_c, v_c, lambda_hat) in the same
    slots; its alpha and beta still weight w* and z*.
    """

    case: int
    branch: str  # "A", "B" or "none"
    output: Profile
    f: float
    y_hat: np.ndarray | None = None
    w_hat: np.ndarray | None = None
    t_r: float | None = None
    v_r: float | None = None
    mu_hat: float | None = None
    alpha: float | None = None
    beta: float | None = None
    fallback: bool = False


def dfm_adjust(game: Game, sp: StationaryPoint) -> DfmTrace:
    """Route the stationary point through the four-case adjustment.

    Guards compare lambda*, mu* exactly; the half-open thresholds partition
    [0,1]^2, so exactly one case fires.
    """
    lam, mu = sp.lambda_star, sp.mu_star
    if min(lam, mu) <= 0.5 or max(lam, mu) <= 2.0 / 3.0:
        prof = sp.profile
        return DfmTrace(1, "none", prof, regrets(game, prof).f)
    if min(lam, mu) >= 2.0 / 3.0:
        prof = Profile(sp.dual.w, sp.dual.z)
        return DfmTrace(2, "none", prof, regrets(game, prof).f)
    if 0.5 < lam <= 2.0 / 3.0 < mu:
        return _case_three(game, sp)
    # Case 4, 0.5 < mu <= 2/3 < lam, is case 3 with the players swapped.
    t = _case_three(game.swapped(), sp.swapped())
    return replace(t, case=4, alpha=t.beta, beta=t.alpha, output=t.output.swapped())


def _case_three(game: Game, sp: StationaryPoint) -> DfmTrace:
    """Case 3 (0.5 < lambda* <= 2/3 < mu*): mix in a best response to the
    midpoint of y* and z*, then minimize f along a segment from (x*, y*)."""
    lam, mu = sp.lambda_star, sp.mu_star
    y = sp.profile.y
    w, z = sp.dual.w, sp.dual.z
    R, C = game.R, game.C
    y_hat = normalize_in_place((y + z) / 2.0)
    w_hat = pure(game.m, int((R @ y_hat).argmax()))
    t_r = float(w_hat @ R @ y_hat - w @ R @ y_hat)
    v_r = float(w @ R @ y - w_hat @ R @ y)
    mu_hat = float(w_hat @ C @ z - w_hat @ C @ y)
    if v_r + t_r >= (mu - lam) / 2.0 and mu_hat >= mu - v_r - t_r:
        alpha = (2.0 * (v_r + t_r) - (mu - lam)) / (2.0 * (v_r + t_r))
        endpoint = Profile(normalize_in_place(np.maximum(alpha * w + (1 - alpha) * w_hat, 0.0)), z)
        branch, beta = "A", None
    else:
        den = 1.0 + mu / 2.0 - lam - t_r
        num = 1.0 - mu / 2.0 - t_r
        # Neither can occur when t_r <= mu/2, which puts beta in [0, 1); a
        # negative beta would push the endpoint off the simplex.  Bail out
        # defensively.
        if den <= 0 or num < 0:
            _log.debug("branch B fallback: 1 + mu/2 - lambda - t_r = %r, 1 - mu/2 - t_r = %r "
                       "(lambda %r, mu %r, t_r %r, in case 3's frame); returning the "
                       "stationary profile", den, num, lam, mu, t_r)
            prof = sp.profile
            return DfmTrace(3, "B", prof, regrets(game, prof).f, y_hat, w_hat, t_r, v_r, mu_hat,
                            fallback=True)
        beta = num / den
        endpoint = Profile(w, normalize_in_place(np.maximum((1 - beta) * y_hat + beta * z, 0.0)))
        branch, alpha = "B", None
    _, prof, f = segment_min_f(game, sp.profile, endpoint)
    return DfmTrace(3, branch, prof, f, y_hat, w_hat, t_r, v_r, mu_hat, alpha, beta)


@dataclass(frozen=True)
class DfmResult:
    profile: Profile
    f: float
    sp: StationaryPoint
    trace: DfmTrace


def dfm_solve(game: Game, p0: Profile, delta: float = 1e-3,
              max_iter: int | None = None) -> DfmResult:
    """Descent to a stationary point, then the four-case adjustment.

    Returns the better of the stationary profile and the adjusted one.
    ``max_iter`` is find_stationary's iteration cap.
    """
    sp = find_stationary(game, p0, delta, max_iter)
    trace = dfm_adjust(game, sp)
    if sp.f <= trace.f:
        return DfmResult(sp.profile, sp.f, sp, trace)
    return DfmResult(trace.output, trace.f, sp, trace)
