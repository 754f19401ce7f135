"""Descent to a delta-stationary point of the regret objective f.

One iteration: rebalance the profile so both players' regrets agree, solve
the minimax direction program for the steepest feasible descent direction
(value V and a dual witness), stop once V - f >= -delta, otherwise take the
closed-form line-search step.  The dual witness attached to the returned
stationary point feeds every adjustment method downstream.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .game import (SUPPORT_TOL, Game, Profile, mixed, normalize_in_place, regrets, renormalized,
                   supports)
from .lp import EQ, GE, LE, MINIMIZE, OPTIMAL, LinearProgram, LpNumericalError, solve_lp

# |fR - fC| band inside which a profile counts as balanced and the balance
# LP is skipped.
BALANCE_BAND = 1e-7
# fR/fC proximity under which the derivative takes the max of both branches.
EQUAL_REGRET_TOL = 1e-9

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DualSolution:
    """Max-min witness (rho, w, z) of the direction program.

    w is supported on the row player's best responses to y, z on the column
    player's best responses to x; rho in [0,1] mixes the two regret terms.
    """

    rho: float
    w: np.ndarray
    z: np.ndarray

    def swapped(self) -> "DualSolution":
        """The witness for the swapped game: (1 - rho, z, w)."""
        return DualSolution(1.0 - self.rho, self.z, self.w)


class DirectionResult:
    """Outcome of the minimax direction program at a balanced profile.

    ``dual`` is the program's dual witness, built from the LP's weights
    when it is first read: the descent reads it only at its stationary
    point, and only when the equalizing LP fails there.
    """

    def __init__(self, x_new: np.ndarray, y_new: np.ndarray, value: float,
                 _program: tuple | None = None):
        self.x_new, self.y_new, self.value = x_new, y_new, value
        # The program's data (the game, G, its best-response row ids, the
        # supports and the LP's weights on those rows), kept for the witness
        # and for the equalized-dual LP at the same profile.
        self._program = _program

    @cached_property
    def dual(self) -> DualSolution:
        game, _, _, sup, weights = self._program
        return _dual_from_weights(game, weights, sup)


@dataclass(frozen=True)
class StationaryPoint:
    profile: Profile
    dual: DualSolution
    f: float
    value: float
    lambda_star: float
    mu_star: float
    iterations: int
    f_history: tuple = ()

    def swapped(self) -> "StationaryPoint":
        """The same point of the swapped game; lambda* and mu* trade places."""
        return replace(self, profile=self.profile.swapped(), dual=self.dual.swapped(),
                       lambda_star=self.mu_star, mu_star=self.lambda_star)


@dataclass(frozen=True)
class StationarityReport:
    ok: bool
    failures: tuple
    A: np.ndarray
    B: np.ndarray


class DescentBudgetError(RuntimeError):
    """Iteration budget exhausted; carries the best profile reached so far."""

    def __init__(self, profile: Profile, f: float, iterations: int):
        super().__init__(
            f"descent did not reach a stationary point in {iterations} iterations"
            f" (best f={f:.6g})"
        )
        self.profile = profile
        self.f = f
        self.iterations = iterations


def bilinear_matrix(game: Game, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (m+n)x(m+n) matrix G with T = (rho*w, (1-rho)*z)' G (y', x')."""
    R, C = game.R, game.C
    m, n = game.m, game.n
    xR = x @ R
    Cy = C @ y
    xRy = float(xR @ y)
    xC = x @ C
    Ry = R @ y
    xCy = float(xC @ y)
    G = np.empty((m + n, n + m))
    G[:m, :n] = R - xR
    G[:m, n:] = xRy - Ry
    G[m:, :n] = xCy - xC
    G[m:, n:] = C.T - Cy
    return G


def balance(game: Game, p: Profile) -> Profile:
    """Equalize fR and fC by re-optimizing the lagging player's strategy.

    With fR > fC the row strategy is re-solved to minimize fR subject to
    fR >= fC; with fC > fR the same program runs on the swapped game.
    Profiles already within BALANCE_BAND are returned as is.
    """
    r = regrets(game, p)
    if abs(r.fR - r.fC) <= BALANCE_BAND:
        return p
    if r.fR > r.fC:
        return _rebalance_row(game, p)
    return _rebalance_row(game.swapped(), p.swapped()).swapped()


def _rebalance_row(game: Game, p: Profile) -> Profile:
    """Minimize fR over x subject to fR >= fC, one linear row per opponent column."""
    R, C = game.R, game.C
    y = p.y
    Ry = R @ y
    Cy = C @ y
    rows = np.empty((game.n + 1, game.m))
    rows[:-1] = Ry + C.T - Cy
    rows[-1] = 1.0
    rels = (LE,) * game.n + (EQ,)
    rhs = [float(Ry.max())] * game.n + [1.0]
    sol = solve_lp(LinearProgram(-Ry, MINIMIZE, rows, rels, rhs))
    if sol.status != OPTIMAL:
        raise LpNumericalError(f"balance LP ended {sol.status}")
    return Profile(renormalized(sol.x), y)


def _support_rows(game: Game, p: Profile):
    sup = supports(game, p)
    return list(sup.row_best) + [game.m + int(j) for j in sup.col_best], sup


def _dual_from_weights(game: Game, weights: np.ndarray, sup) -> DualSolution:
    u = np.maximum(weights, 0.0)
    total = u.sum()
    if total <= 0:
        u = np.ones_like(u)
        total = u.sum()
    u /= total
    # The weights list the row player's best responses first, then the
    # column player's; each block becomes one witness strategy.
    nw = len(sup.row_best)
    masses, witnesses = [], []
    for uk, best, k in ((u[:nw], sup.row_best, game.m), (u[nw:], sup.col_best, game.n)):
        full = np.zeros(k)
        full[best] = uk
        mass = float(full.sum())
        if mass > SUPPORT_TOL:
            full /= mass
        else:  # degenerate certificate: any best response works
            full[best] = 1.0 / len(best)
        masses.append(mass)
        witnesses.append(normalize_in_place(full))
    return DualSolution(rho=min(max(masses[0], 0.0), 1.0), w=witnesses[0], z=witnesses[1])


def direction(game: Game, p: Profile) -> DirectionResult:
    """Solve min over (x',y') of max over (rho,w,z) of T at a balanced profile.

    The max side reduces to the rows of G indexed by the two best-response
    sets, so the program is the LP  min v  s.t.  G_k (y';x') <= v  on those
    rows with (x',y') on the simplices.  The dual weights on the rows give
    (rho, w, z); ``_equalized_dual`` turns the result into the equalized
    witness.
    """
    m, n = game.m, game.n
    G = bilinear_matrix(game, p.x, p.y)
    row_ids, sup = _support_rows(game, p)
    k = len(row_ids)

    # Variables: y' (n), x' (m), v (free).
    nv = n + m + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    # v >= G_k (y';x') on each best-response row, then the two simplices.
    rows = np.zeros((k + 2, nv))
    rows[:k, :-1] = -G[row_ids]
    rows[:k, -1] = 1.0
    rows[k, :n] = 1.0
    rows[k + 1, n:-1] = 1.0
    lower = [0.0] * (n + m) + [None]
    sol = solve_lp(LinearProgram(c, MINIMIZE, rows, (GE,) * k + (EQ, EQ), [0.0] * k + [1.0, 1.0],
                                 lower=lower))
    if sol.status != OPTIMAL:
        raise LpNumericalError(f"direction LP ended {sol.status}")
    return DirectionResult(
        x_new=renormalized(sol.x[n : n + m]),
        y_new=renormalized(sol.x[:n]),
        value=float(sol.objective),
        _program=(game, G, row_ids, sup, sol.duals[:k]),
    )


def _equalized_dual(d: DirectionResult) -> DualSolution:
    """The equalized dual witness at the profile where ``direction``
    returned d, from the program data d carries: among all optimal dual
    witnesses, the one minimizing the largest deviation of the induced
    coefficient vectors from their minima.  Worst-case-tight instances are
    built around this witness, and it is unique there.

    Falls back to d's own witness, with a debug record on this module's
    logger, when the equalizing LP fails.
    """
    game, G, row_ids, sup, _ = d._program
    try:
        weights = _equalized_dual_weights(G, row_ids, game.n, game.m, d.value)
        failure = "ended without an optimum"
    except LpNumericalError as err:
        weights, failure = None, f"raised: {err}"
    if weights is None:
        _log.debug("equalized-dual LP on %d best-response rows %s; keeping the "
                   "direction LP's witness", len(row_ids), failure)
        return d.dual
    return _dual_from_weights(game, weights, sup)


def _equalized_dual_weights(G, row_ids, n, m, value):
    """Among optimal dual weights, minimize the worst suppmin slack.

    Feasible set: u >= 0 on the best-response rows, sum u = 1, and the
    column minima of u'G split into dy + dx >= value (so u stays on the
    dual-optimal face); the objective presses every column of u'G down
    toward its group minimum.
    """
    k = len(row_ids)
    Gs = G[row_ids]  # k x (n+m)
    # Variables: u (k), dy, dx (free), s (>= 0).
    nv = k + 3
    c = np.zeros(nv)
    c[-1] = 1.0
    # Per column of u'G, a GE row against its group minimum (dy for the
    # first n columns, dx for the rest) and an LE row with the slack s;
    # then sum u = 1 and the dual-optimal face.
    rows = np.zeros((2 * (n + m) + 2, nv))
    pairs = rows[:-2].reshape(n + m, 2, nv)
    pairs[:, :, :k] = Gs.T[:, None, :]
    pairs[:n, :, k] = -1.0
    pairs[n:, :, k + 1] = -1.0
    pairs[:, 1, -1] = -1.0
    rows[-2, :k] = 1.0
    rows[-1, k : k + 2] = 1.0
    rels = (GE, LE) * (n + m) + (EQ, GE)
    rhs = [0.0] * (2 * (n + m)) + [1.0, value - 1e-10]
    lower = [0.0] * k + [None, None, 0.0]
    sol = solve_lp(LinearProgram(c, MINIMIZE, rows, rels, rhs, lower=lower))
    if sol.status != OPTIMAL:
        return None
    return sol.x[:k]


def scaled_derivative(game: Game, p: Profile, q: Profile):
    """One-sided derivative of f along the unnormalized displacement q - p.

    Returns (Df, DfR, DfC).  The branch follows whichever regret is active;
    when the regrets agree (within 1e-9) the derivative is the max of both.
    """
    game.check_profile(p)
    game.check_profile(q)
    r = regrets(game, p)
    sup = supports(game, p)
    # dfR, then dfC as the dfR of the swapped game.
    derivatives = []
    for g, (x, y), (xp, yp), fR, row_best in (
        (game, p, q, r.fR, sup.row_best),
        (game.swapped(), p.swapped(), q.swapped(), r.fC, sup.col_best),
    ):
        Ry = g.R @ y
        Ryp = g.R @ yp
        derivatives.append(float(Ryp[row_best].max() - xp @ Ry - x @ Ryp + x @ Ry - fR))
    dfR, dfC = derivatives
    if r.fR > r.fC + EQUAL_REGRET_TOL:
        df = dfR
    elif r.fC > r.fR + EQUAL_REGRET_TOL:
        df = dfC
    else:
        df = max(dfR, dfC)
    return df, dfR, dfC


def t_value(game: Game, p: Profile, q: Profile, d: DualSolution) -> float:
    """The smoothed derivative form T(x,y,x',y',rho,w,z) evaluated directly."""
    sup = supports(game, p)
    if np.any(d.w[np.setdiff1d(np.arange(game.m), sup.row_best)] > SUPPORT_TOL):
        raise ValueError("w is not supported on the row best-response set")
    if np.any(d.z[np.setdiff1d(np.arange(game.n), sup.col_best)] > SUPPORT_TOL):
        raise ValueError("z is not supported on the column best-response set")
    R, C = game.R, game.C
    x, y = p
    xp, yp = q
    term_r = d.w @ R @ yp - x @ R @ yp - xp @ R @ y + x @ R @ y
    term_c = xp @ C @ d.z - x @ C @ yp - xp @ C @ y + x @ C @ y
    return float(d.rho * term_r + (1.0 - d.rho) * term_c)


def line_search(game: Game, p: Profile, dres: DirectionResult, f: float) -> float:
    """Closed-form step size in (0,1] toward (x_new, y_new), where f is
    the regret f at p (``regrets(game, p).f``).

    The two support bounds keep the best-response sets from being overtaken
    mid-step; indices whose payoff cannot catch up along the direction
    (nonpositive gap growth) impose no bound.  A negative quadratic cross
    term H additionally caps the step at |V-f|/(2|H|).
    """
    R, C = game.R, game.C
    x, y = p
    xp, yp = dres.x_new, dres.y_new

    def support_bound(vals, vals_new):
        # On Python floats: the comparisons, differences and quotients of
        # the array form, without an array call for each of them.
        vals, vals_new = vals.tolist(), vals_new.tolist()
        vmax = max(vals)
        best = [v >= vmax - SUPPORT_TOL for v in vals]
        if all(best):
            return np.inf
        m_new = max([w for w, b in zip(vals_new, best) if b])
        bound = np.inf
        for v, w, b in zip(vals, vals_new, best):
            num, gap = vmax - v, w - m_new
            if not b and gap > 0 and num + gap > 1e-12:
                bound = min(bound, num / (num + gap))
        return bound

    eps1 = support_bound(R @ y, R @ yp)
    eps2 = support_bound(C.T @ x, C.T @ xp)
    eps = min(eps1, eps2, 1.0)
    dx = xp - x
    dy = yp - y
    H = min(float(dx @ R @ dy), float(dx @ C @ dy))
    if H < 0:
        eps = min(eps, abs(dres.value - f) / (2.0 * abs(H)))
    return min(eps, 1.0)


def lambda_mu_star(game: Game, p: Profile, d: DualSolution) -> tuple[float, float]:
    """Height differences lambda* = (w-x)'Rz and mu* = w'C(z-y)."""
    lam = float((d.w - p.x) @ game.R @ d.z)
    mu = float(d.w @ game.C @ (d.z - p.y))
    return lam, mu


def find_stationary(
    game: Game,
    p0: Profile,
    delta: float = 1e-3,
    max_iter: int | None = None,
) -> StationaryPoint:
    """Iterate balance / direction / line search until V - f >= -delta.

    Returns the stationary point together with its equalized dual witness
    and the derived quantities lambda*, mu*.  Raises GameError when p0 is
    not a profile of mixed strategies (it is checked, never renormalized)
    and DescentBudgetError (carrying the best profile) if the iteration cap
    is hit; the default cap ceil(4/delta^2) honors the quadratic
    convergence bound.  The witness is built once, at the stationary point.
    ``f_history`` lists f at each balanced iterate.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be a positive finite number")
    if max_iter is None:
        max_iter = math.ceil(4.0 / (delta * delta))
    p = game.check_profile(p0)
    for v in p:
        mixed(v)  # a check only: the start keeps its bytes
    history = []
    iterations = 0
    while True:
        p = balance(game, p)
        r = regrets(game, p)
        history.append(r.f)
        d = direction(game, p)
        if d.value - r.f >= -delta:
            dual = _equalized_dual(d)
            lam, mu = lambda_mu_star(game, p, dual)
            return StationaryPoint(
                profile=p,
                dual=dual,
                f=r.f,
                value=d.value,
                lambda_star=lam,
                mu_star=mu,
                iterations=iterations,
                f_history=tuple(history),
            )
        if iterations >= max_iter:
            raise DescentBudgetError(p, r.f, iterations)
        eps = line_search(game, p, d, r.f)
        p = Profile(normalize_in_place(np.maximum(p.x + eps * (d.x_new - p.x), 0.0)),
                    normalize_in_place(np.maximum(p.y + eps * (d.y_new - p.y), 0.0)))
        iterations += 1


def stationary_from(game: Game, p: Profile, d: DualSolution) -> StationaryPoint:
    """Package a known profile and dual witness as a StationaryPoint.

    Used for canonical instances whose stationary data is specified rather
    than discovered by descent.
    """
    r = regrets(game, p)
    lam, mu = lambda_mu_star(game, p, d)
    return StationaryPoint(
        profile=p,
        dual=d,
        f=r.f,
        value=r.f,
        lambda_star=lam,
        mu_star=mu,
        iterations=0,
    )


def verify_stationary(game: Game, sp: StationaryPoint, tol: float = 1e-6) -> StationarityReport:
    """Check the stationarity characterization at sp's profile and dual.

    Conditions: equal regrets, supp(x) inside the minimizers of
    A = -rho*Ry + (1-rho)C(z-y), and supp(y) inside the minimizers of
    B = rho*R'(w-x) - (1-rho)C'x, all within ``tol``.
    """
    failures = []
    r = regrets(game, sp.profile)
    if abs(r.fR - r.fC) > tol:
        failures.append(f"|fR - fC| = {abs(r.fR - r.fC):.3g} > {tol:.3g}")
    # A for the row player, then B as the A of the swapped game.
    certificates = []
    for g, (x, y), d, player, name in ((game, sp.profile, sp.dual, "x", "A"),
                                       (game.swapped(), sp.profile.swapped(),
                                        sp.dual.swapped(), "y", "B")):
        cert = -d.rho * (g.R @ y) + (1.0 - d.rho) * (g.C @ (d.z - y))
        for i in np.nonzero(x > SUPPORT_TOL)[0]:
            if cert[i] > cert.min() + tol:
                failures.append(f"{player} support index {i}: {name}[{i}] exceeds "
                                f"min({name}) by {cert[i] - cert.min():.3g}")
        certificates.append(cert)
    A, B = certificates
    return StationarityReport(ok=not failures, failures=tuple(failures), A=A, B=B)
