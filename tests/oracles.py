"""Independent reference computations used to check the library.

Everything here is deliberately brute force (enumeration, grids, finite
differences) and never calls the code paths under test.
"""

import logging
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from nashdescent.baselines import RunTrace, _history_stride
from nashdescent.descent import DirectionResult, DualSolution
from nashdescent.game import NEG_TOL, SUM_TOL, SUPPORT_TOL, Game, GameError, Profile, mixed, regrets
from nashdescent.generator import GeneratorInput, solve_b
from nashdescent.lp import (
    CHECK_TOL,
    EQ,
    GE,
    INFEASIBLE,
    LE,
    MAXIMIZE,
    MINIMIZE,
    OPTIMAL,
    TOL,
    UNBOUNDED,
    LinearProgram,
    LpError,
    LpNumericalError,
    LpSolution,
)


def nonempty_subsets(k):
    return chain.from_iterable(combinations(range(k), r) for r in range(1, k + 1))


def bound_constants_decimal():
    """The true (b, lambda0, mu0) in 60-digit Decimal, independent of the library.

    Along the ridge where st/(s+t) = (1-s)/(1+t-s), s(t) is the positive
    root of (1-t)s^2 + (t^2+2t-1)s - t = 0; golden-section search maximizes
    v(t) = s(t)t/(s(t)+t) over [0.5, 0.99] in 250 rounds.  lambda0 and mu0
    are accurate to about 30 digits (the argmax of a smooth maximum), b to
    about 60.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        one = Decimal(1)

        def s_of(t):
            a, b = one - t, t * t + 2 * t - one
            return (-b + (b * b + 4 * a * t).sqrt()) / (2 * a)

        def v(t):
            s = s_of(t)
            return s * t / (s + t)

        g = (Decimal(5).sqrt() - one) / 2
        lo, hi = Decimal("0.5"), Decimal("0.99")
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        fc, fd = v(c), v(d)
        for _ in range(250):
            if fc >= fd:
                hi, d, fd = d, c, fc
                c = hi - g * (hi - lo)
                fc = v(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + g * (hi - lo)
                fd = v(d)
        lam = (lo + hi) / 2
        return +v(lam), +lam, +s_of(lam)


def support_enum_ne(R, C, tol=1e-9):
    """All exact Nash equilibria of a small bimatrix game, by support pairs.

    For each support pair, solve the indifference systems and keep solutions
    that are nonnegative and best responses.  Intended for m, n <= 3.
    """
    R = np.asarray(R, float)
    C = np.asarray(C, float)
    m, n = R.shape
    out = []
    for Sx in nonempty_subsets(m):
        for Sy in nonempty_subsets(n):
            y = _indifferent(R[list(Sx), :], list(Sy), tol)
            x = _indifferent(C[:, list(Sy)].T, list(Sx), tol)
            if x is None or y is None:
                continue
            Ry = R @ y
            Cx = C.T @ x
            if Ry[list(Sx)].min() < Ry.max() - 1e-8:
                continue
            if Cx[list(Sy)].min() < Cx.max() - 1e-8:
                continue
            out.append((x, y))
    return out


def _indifferent(P, support, tol):
    """Probability vector on `support` equalizing the rows of P, or None."""
    k = P.shape[1]
    rows = [np.ones(len(support))]
    rhs = [1.0]
    for i in range(1, P.shape[0]):
        rows.append(P[0, support] - P[i, support])
        rhs.append(0.0)
    A = np.array(rows)
    b = np.array(rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.abs(A @ sol - b).max() > 1e-8 or sol.min() < -1e-9:
        return None
    v = np.zeros(k)
    v[support] = np.clip(sol, 0.0, None)
    s = v.sum()
    if s <= 0:
        return None
    return v / s


def zero_sum_value_enum(A, tol=1e-9):
    """Value of a small zero-sum game via equilibrium support enumeration."""
    eqs = support_enum_ne(A, -A, tol)
    assert eqs, "no equilibrium found by enumeration"
    x, y = eqs[0]
    return float(x @ A @ y)


def simplex_grid(k, resolution):
    """All barycentric grid points of the given resolution on the k-simplex."""
    pts = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            pts.append(prefix + [remaining])
            return
        for t in range(remaining + 1):
            rec(prefix + [t], remaining - t, slots - 1)

    rec([], resolution, k)
    return np.array(pts, float) / resolution


def segment_f_min_grid(R, C, a, b, points):
    """Least f = max(fR, fC) over `points` evenly spaced profiles on the
    segment from profile a = (x, y) to profile b, endpoints included."""
    R = np.asarray(R, float)
    C = np.asarray(C, float)
    ts = np.linspace(0.0, 1.0, points)[:, None]
    X = (1.0 - ts) * np.asarray(a[0], float) + ts * np.asarray(b[0], float)
    Y = (1.0 - ts) * np.asarray(a[1], float) + ts * np.asarray(b[1], float)
    payoff_x = Y @ R.T  # row k: R y_k
    payoff_y = X @ C  # row k: C' x_k
    fR = payoff_x.max(axis=1) - (X * payoff_x).sum(axis=1)
    fC = payoff_y.max(axis=1) - (payoff_y * Y).sum(axis=1)
    return float(np.maximum(fR, fC).min())


def square_f_min_grid(R, C, a, b, points):
    """Least f = max(fR, fC) over a points x points lattice on the square of
    profiles ((1 - s) x + s w, (1 - t) y + t z) spanned by a = (x, y) and
    b = (w, z), corners included."""
    R = np.asarray(R, float)
    C = np.asarray(C, float)
    ts = np.linspace(0.0, 1.0, points)[:, None]
    X = (1.0 - ts) * np.asarray(a[0], float) + ts * np.asarray(b[0], float)
    Y = (1.0 - ts) * np.asarray(a[1], float) + ts * np.asarray(b[1], float)
    RY = R @ Y.T  # column l: R y_l
    CX = C.T @ X.T  # column k: C' x_k
    fR = RY.max(axis=0)[None, :] - X @ RY
    fC = CX.max(axis=0)[:, None] - (X @ C) @ Y.T
    return float(np.maximum(fR, fC).min())


def grid_direction_value(R, C, x, y, row_best, col_best, resolution):
    """Brute min over a profile grid of the best-response smoothed derivative.

    Evaluates max{ max over row_best of T's row term, max over col_best of
    T's column term } on a barycentric grid of candidate (x', y') pairs.
    """
    R = np.asarray(R, float)
    C = np.asarray(C, float)
    Ry = R @ y
    xR = x @ R
    xRy = float(xR @ y)
    xC = x @ C
    Cy = C @ y
    xCy = float(xC @ y)
    Ys = simplex_grid(len(y), resolution)
    Xs = simplex_grid(len(x), resolution)
    # row term: max_{row_best}(Ry') - x'Ry - xRy' + xRy, split by dependence
    a_w = (Ys @ R.T)[:, list(row_best)].max(axis=1) - Ys @ xR + xRy
    rx = Xs @ Ry
    # column term: max_{col_best}(C'x') - x'Cy - xCy' + xCy
    b_z = (Xs @ C)[:, list(col_best)].max(axis=1) - Xs @ Cy + xCy
    cy = Ys @ xC
    vals = np.maximum(a_w[None, :] - rx[:, None], b_z[:, None] - cy[None, :])
    return float(vals.min())


def finite_difference_df(f_of_profile, p, q, thetas=(1e-4, 1e-5, 1e-6)):
    """One-sided derivative of f along q - p by Richardson-style shrinking."""
    x, y = p
    xp, yp = q
    f0 = f_of_profile(x, y)
    vals = []
    for th in thetas:
        vals.append((f_of_profile(x + th * (xp - x), y + th * (yp - y)) - f0) / th)
    return vals[-1], vals


def has_pure_ne(R, C, tol=1e-12):
    m, n = R.shape
    return any(
        R[i, j] >= R[:, j].max() - tol and C[i, j] >= C[i, :].max() - tol
        for i in range(m)
        for j in range(n)
    )


def regret_matching_choice(game: Game, rounds: int, rng: np.random.Generator) -> RunTrace:
    """baselines.regret_matching as it was with one Generator.choice call
    per player and round; the library draws the same uniforms in chunks."""
    if rounds < 1:
        raise ValueError("rounds must be positive")
    R, C = game.R, game.C
    m, n = game.m, game.n
    regret_x = np.zeros(m)
    regret_y = np.zeros(n)
    counts_x = np.zeros(m)
    counts_y = np.zeros(n)
    stride = _history_stride(rounds)
    history = []
    for t in range(1, rounds + 1):
        px = np.clip(regret_x, 0.0, None)
        px = px / px.sum() if px.sum() > 0 else np.full(m, 1.0 / m)
        py = np.clip(regret_y, 0.0, None)
        py = py / py.sum() if py.sum() > 0 else np.full(n, 1.0 / n)
        i = int(rng.choice(m, p=px))
        j = int(rng.choice(n, p=py))
        counts_x[i] += 1
        counts_y[j] += 1
        regret_x += R[:, j] - R[i, j]
        regret_y += C[i, :] - C[i, j]
        if t % stride == 0 or t == rounds:
            avg = Profile(mixed(counts_x / t), mixed(counts_y / t))
            history.append((t, regrets(game, avg).f))
    profile = Profile(mixed(counts_x / rounds), mixed(counts_y / rounds))
    return RunTrace("rm", rounds, profile, regrets(game, profile).f, tuple(history))


def pair_candidates_unscreened(inp):
    """generator._pair_candidates as it was before it screened out pairs
    whose tight LP is infeasible on its face: every k outside supp x* with
    every l outside supp y*."""
    sx, sy, _, _ = inp.supports()
    ks = [k for k in range(inp.m) if k not in set(int(t) for t in sx)]
    ls = [l for l in range(inp.n) if l not in set(int(t) for t in sy)]
    return [(k, l) for k in ks for l in ls]


class TightLpBuilderOld:
    """generator._TightLpBuilder as it was before it stated its rows in
    array blocks, copied verbatim: the hand-mirrored row and column loops.
    It keeps the (a, rel, b) rows and the lower bounds it states; its
    program has upper bound 1 on every variable.

    Assemble the feasibility program over the 2mn payoff entries.

    Variables are the entries of R then C, row-major.  Every structural
    condition of the characterization is linear once the stationary profile
    and dual witnesses are fixed.
    """

    def __init__(self, inp: GeneratorInput, k: int, l: int, lambda_intersect: bool):
        self.inp = inp
        self.k = k
        self.l = l
        self.lambda_intersect = lambda_intersect
        self.m = inp.m
        self.n = inp.n
        self.nv = 2 * self.m * self.n
        self.rows: list = []
        cons = solve_b()
        self.b = cons.b
        self.lam0 = cons.lambda0
        self.mu0 = cons.mu0
        self.rho = cons.rho_star
        self.lower = [0.0] * self.nv
        self._build()

    def _r(self, i: int, j: int) -> int:
        return i * self.n + j

    def _c(self, i: int, j: int) -> int:
        return self.m * self.n + i * self.n + j

    def _row_payoff_coeffs(self, i: int, weights_y: np.ndarray) -> np.ndarray:
        """Coefficients of (R weights_y)_i."""
        a = np.zeros(self.nv)
        for j in range(self.n):
            a[self._r(i, j)] = weights_y[j]
        return a

    def _col_payoff_coeffs(self, j: int, weights_x: np.ndarray) -> np.ndarray:
        """Coefficients of (C' weights_x)_j."""
        a = np.zeros(self.nv)
        for i in range(self.m):
            a[self._c(i, j)] = weights_x[i]
        return a

    def _argmax_rows(self, values, members, universe):
        """members all equal and dominating every index of the universe."""
        anchor = int(members[0])
        for i in members[1:]:
            self.rows.append((values(int(i)) - values(anchor), EQ, 0.0))
        in_members = set(int(t) for t in members)
        for i in universe:
            if i not in in_members:
                self.rows.append((values(anchor) - values(int(i)), GE, 0.0))

    def _build(self):
        inp = self.inp
        m, n = self.m, self.n
        sx, sy, sw, sz = inp.supports()
        x, y, w, z = inp.x_star, inp.y_star, inp.w_star, inp.z_star
        rho = self.rho

        # Dual witnesses sit on best-response sets.
        self._argmax_rows(lambda i: self._row_payoff_coeffs(i, y), sw, range(m))
        self._argmax_rows(lambda j: self._col_payoff_coeffs(j, x), sz, range(n))
        # The enumerated pure strategies are best responses to z* and w*.
        self._argmax_rows(lambda i: self._row_payoff_coeffs(i, z), [self.k], range(m))
        self._argmax_rows(lambda j: self._col_payoff_coeffs(j, w), [self.l], range(n))

        # Stationarity: supports of x*, y* minimize the certificate vectors
        # A_i = -rho (Ry*)_i + (1-rho)(C(z*-y*))_i  and
        # B_j =  rho (R'(w*-x*))_j - (1-rho)(C'x*)_j.
        def A_coeffs(i: int) -> np.ndarray:
            a = np.zeros(self.nv)
            for j in range(n):
                a[self._r(i, j)] = -rho * y[j]
                a[self._c(i, j)] = (1.0 - rho) * (z[j] - y[j])
            return a

        def B_coeffs(j: int) -> np.ndarray:
            a = np.zeros(self.nv)
            for i in range(m):
                a[self._r(i, j)] = rho * (w[i] - x[i])
                a[self._c(i, j)] = -(1.0 - rho) * x[i]
            return a

        anchor = int(sx[0])
        for i in sx[1:]:
            self.rows.append((A_coeffs(int(i)) - A_coeffs(anchor), EQ, 0.0))
        in_sx = set(int(t) for t in sx)
        for i in range(m):
            if i not in in_sx:
                self.rows.append((A_coeffs(int(i)) - A_coeffs(anchor), GE, 0.0))
        anchor = int(sy[0])
        for j in sy[1:]:
            self.rows.append((B_coeffs(int(j)) - B_coeffs(anchor), EQ, 0.0))
        in_sy = set(int(t) for t in sy)
        for j in range(n):
            if j not in in_sy:
                self.rows.append((B_coeffs(int(j)) - B_coeffs(anchor), GE, 0.0))

        # Regrets at the stationary profile equal the bound.
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._r(i, j)] = (w[i] - x[i]) * y[j]
        self.rows.append((a, EQ, self.b))
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._c(i, j)] = x[i] * (z[j] - y[j])
        self.rows.append((a, EQ, self.b))

        # Far-corner structure: zero own payoffs, saturated best responses,
        # and the prescribed height differences.
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._r(i, j)] = x[i] * z[j]
        self.rows.append((a, EQ, 0.0))
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._c(i, j)] = w[i] * y[j]
        self.rows.append((a, EQ, 0.0))
        for j in sz:
            self.lower[self._r(self.k, int(j))] = 1.0
        for i in sw:
            self.lower[self._c(int(i), self.l)] = 1.0
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._r(i, j)] = w[i] * z[j]
        self.rows.append((a, EQ, self.lam0))
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._c(i, j)] = w[i] * z[j]
        self.rows.append((a, EQ, self.mu0))

        # The boundary minimum coincides with the linear-bound intersection.
        anchor_z = int(sz[0])
        self.rows.append(
            (self._col_payoff_coeffs(self.l, x) - self._col_payoff_coeffs(anchor_z, x), EQ, 0.0)
        )

        if self.lambda_intersect:
            # Force k to also best-respond to y*, intersecting the two
            # row-player best-response sets.
            anchor_w = int(sw[0])
            self.rows.append(
                (self._row_payoff_coeffs(self.k, y) - self._row_payoff_coeffs(anchor_w, y), EQ, 0.0)
            )


# The descent's three LPs as they were stated row by row, as (a, rel, b)
# tuples, before LinearProgram took one constraint block; copied verbatim
# from descent._rebalance_row, descent.direction and
# descent._equalized_dual_weights.  Each returns (objective, rows, lower).


def rebalance_rows_old(game: Game, p: Profile):
    R, C = game.R, game.C
    y = p.y
    Ry = R @ y
    Cy = C @ y
    rows = [(Ry + C[:, j] - Cy, LE, float(Ry.max())) for j in range(game.n)]
    rows.append((np.ones(game.m), EQ, 1.0))
    return -Ry, rows, None


def direction_rows_old(G, row_ids, n, m):
    nv = n + m + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    rows = []
    for rid in row_ids:
        a = np.zeros(nv)
        a[: n + m] = -G[rid]
        a[-1] = 1.0
        rows.append((a, GE, 0.0))
    ay = np.zeros(nv)
    ay[:n] = 1.0
    rows.append((ay, EQ, 1.0))
    ax = np.zeros(nv)
    ax[n : n + m] = 1.0
    rows.append((ax, EQ, 1.0))
    lower = [0.0] * (n + m) + [None]
    return c, rows, lower


def equalized_rows_old(G, row_ids, n, m, value):
    k = len(row_ids)
    Gs = G[row_ids]  # k x (n+m)
    # Variables: u (k), dy, dx (free), s (>= 0).
    nv = k + 3
    c = np.zeros(nv)
    c[-1] = 1.0
    rows = []
    for col in range(n + m):
        a = np.zeros(nv)
        a[:k] = Gs[:, col]
        a[k + (0 if col < n else 1)] = -1.0
        rows.append((a, GE, 0.0))
        a2 = a.copy()
        a2[-1] = -1.0
        rows.append((a2, LE, 0.0))
    asum = np.zeros(nv)
    asum[:k] = 1.0
    rows.append((asum, EQ, 1.0))
    aface = np.zeros(nv)
    aface[k] = 1.0
    aface[k + 1] = 1.0
    rows.append((aface, GE, value - 1e-10))
    lower = [0.0] * k + [None, None, 0.0]
    return c, rows, lower


def same_program(lp, objective, rows, lower, upper=None):
    """Whether a LinearProgram states exactly these (a, rel, b) rows, in
    order, with equal sign bits on every coefficient, and this objective
    and these bounds."""
    nv = lp.objective.size
    return (len(lp.constraints) == len(rows)
            and all(np.array_equal(got, a) and np.array_equal(np.signbit(got), np.signbit(a))
                    for got, (a, _, _) in zip(lp.constraints, rows))
            and list(lp.relations) == [rel for _, rel, _ in rows]
            and lp.rhs.tolist() == [b for _, _, b in rows]
            and np.array_equal(lp.objective, objective)
            and np.array_equal(np.signbit(lp.objective), np.signbit(objective))
            and lp.lower == ((0.0,) * nv if lower is None else tuple(lower))
            and lp.upper == ((None,) * nv if upper is None else tuple(upper)))


# ---------------------------------------------------------------------------
# An exact certificate of an optimal LP answer.


def lp_certificate(lp: LinearProgram, sol: LpSolution):
    """The exact violations of an optimal answer, in Fraction arithmetic on
    the program's float data: (primal, dual, gap, objective).

    In the program's minimizing form (c and the duals times -1 for a
    maximum), the duals y give reduced costs d = c - A'y, which split into
    multipliers max(d, 0) on each finite lower bound and max(-d, 0) on
    each finite upper bound.
    - primal: the largest violation of a row or a bound by x;
    - dual: the largest violation of the duals' signs (>= 0 on a >= row,
      <= 0 on a <= row) or of d's (>= 0 without an upper bound, <= 0
      without a lower bound);
    - gap: |c'x - (b'y + lower'max(d, 0) - upper'max(-d, 0))|;
    - objective: |reported objective - c'x|, in the program's own sense.
    Nothing here reads the kernel's standard form.
    """
    sign = -1 if lp.sense == MAXIMIZE else 1
    x = [Fraction(v) for v in sol.x.tolist()]
    y = [sign * Fraction(v) for v in sol.duals.tolist()]
    c = [sign * Fraction(v) for v in lp.objective.tolist()]
    A = [[Fraction(v) for v in row] for row in lp.constraints.tolist()]
    primal, dual = [Fraction(0)], [Fraction(0)]
    for a, rel, b, yi in zip(A, lp.relations, lp.rhs.tolist(), y):
        r = sum(ai * xi for ai, xi in zip(a, x)) - Fraction(b)
        primal.append(abs(r) if rel == EQ else max(r, 0) if rel == LE else max(-r, 0))
        if rel != EQ:
            dual.append(max(yi, 0) if rel == LE else max(-yi, 0))
    dual_obj = sum(Fraction(b) * yi for b, yi in zip(lp.rhs.tolist(), y))
    for j, (lo, up) in enumerate(zip(lp.lower, lp.upper)):
        d = c[j] - sum(a[j] * yi for a, yi in zip(A, y))
        if lo is None:
            dual.append(max(d, 0))
        else:
            primal.append(max(Fraction(lo) - x[j], 0))
            dual_obj += Fraction(lo) * max(d, 0)
        if up is None:
            dual.append(max(-d, 0))
        else:
            primal.append(max(x[j] - Fraction(up), 0))
            dual_obj -= Fraction(up) * max(-d, 0)
    cx = sum(cj * xj for cj, xj in zip(c, x))
    return max(primal), max(dual), abs(cx - dual_obj), abs(Fraction(sol.objective) - sign * cx)


def lp_certified(lp: LinearProgram, sol: LpSolution) -> bool:
    """Whether an optimal answer passes ``lp_certificate`` within
    CHECK_TOL (1 + s), s the largest magnitude of the data each violation
    is measured against: the rhs and bounds for the primal, c for the duals
    and |f| for the gap and the objective."""
    if sol.status != OPTIMAL:
        return False
    primal, dual, gap, objective = lp_certificate(lp, sol)
    bounds = [abs(v) for v in lp.lower + lp.upper if v is not None]
    scale = max([0.0, *map(abs, lp.rhs.tolist()), *bounds])
    f = abs(sol.objective)
    return (primal <= CHECK_TOL * (1 + scale)
            and dual <= CHECK_TOL * (1 + max(map(abs, lp.objective.tolist())))
            and gap <= CHECK_TOL * (1 + f) and objective <= CHECK_TOL * (1 + f))


# ---------------------------------------------------------------------------
# The LP kernel and the normalizations as they were before the per-call
# overhead was taken out of them, copied verbatim from lp.py, game.py and
# descent.py; only the names changed (an _old suffix, and solve_lp_old builds
# its own ConstraintFormOld instead of reading the program's form).  The
# kernel tests compare the library with these byte for byte.

_log = logging.getLogger("nashdescent.lp.old")

# The frozen kernel's (ratio-tie window, entering rule) fallbacks, tried in
# order; the library keeps the first and repairs a basis it rejects.
_ATTEMPTS = ((TOL, "bland"), (1e-7, "bland"), (1e-7, "dantzig"), (1e-5, "dantzig"))


def pivot_old(T: np.ndarray, row: int, col: int, basis: np.ndarray):
    """Pivot on T[row, col]: one rank-1 update of every row, objective row
    (T's last) included; the pivot row's multiplier is zeroed."""
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= colvals[:, None] * T[row]
    basis[row] = col


def run_simplex_old(T, basis, budget, window, entering, bounded_objective=False):
    """Drive a tableau to optimality; returns 'optimal' or 'unbounded'.

    T's last row is the objective row: reduced costs, then minus the
    objective value.  ``entering`` picks the entering column (Bland: lowest
    eligible index; Dantzig: most negative reduced cost, lowest index on
    ties); the leaving row takes the best-scaled pivot among rows whose
    ratio is within ``window`` of the minimum, lowest basis index on ties.
    With ``bounded_objective`` (phase 1, which cannot descend below zero)
    an apparently unbounded column is numerically degenerate: it is frozen
    out of the entering candidates for the rest of the run.
    """
    nrows = T.shape[0] - 1
    reduced, rhs = T[-1, :-1], T[:-1, -1]
    allowed = None
    for _ in range(budget):
        eligible = reduced < -TOL
        if allowed is not None:
            eligible &= allowed
        if entering == "bland":
            col = int(eligible.argmax())
        else:
            col = int(np.where(eligible, reduced, np.inf).argmin())
        if not eligible[col]:
            return OPTIMAL
        colv = T[:-1, col]
        pos = (colv > TOL).nonzero()[0]
        if pos.size == 0:
            if not bounded_objective:
                return UNBOUNDED
            if allowed is None:
                allowed = np.ones(reduced.size, dtype=bool)
            allowed[col] = False
            continue
        row = pos[0]
        if pos.size > 1:
            cpos = colv[pos]
            ratios = rhs[pos] / cpos
            best = ratios.min()
            tie = ratios <= best + window * (1.0 + abs(best))
            ties, cties = pos[tie], cpos[tie]
            row = ties[0]
            if ties.size > 1:
                strong = ties[cties >= 0.1 * cties.max()]
                row = strong[basis[strong].argmin()]
        pivot_old(T, int(row), col, basis)
    raise LpNumericalError(
        f"no optimal basis within {budget} pivots ({nrows} rows)"
    )


class ConstraintFormOld:
    """Objective-free equality standard form of a LinearProgram, the
    back-maps, and the memoized phase-1 outcome of each pivot policy."""

    def __init__(self, lp: LinearProgram):
        nv = self.nv = lp.objective.size
        n_user = self.n_user = len(lp.relations)
        self.free_extra = [j for j, lo in enumerate(lp.lower) if lo is None]
        self.shift = np.array([0.0 if lo is None else float(lo) for lo in lp.lower])
        ub = [j for j, up in enumerate(lp.upper) if up is not None]
        if any(lp.lower[j] is None for j in ub):
            raise LpError("upper bound on a free variable is not supported")
        ncols_struct = self.ncols_struct = nv + len(self.free_extra)
        nrows = self.nrows = n_user + len(ub)
        self.ncols = ncols_struct + nrows

        # User rows, then one row x_j <= u_j per upper bound.  A row with a
        # negative rhs is negated, which swaps <= and >=; the slack of a <=
        # row enters with +1, of a >= row with -1.  The shift comes off with
        # one product per row, since A @ shift sums in another order and can
        # move a last bit; with nothing shifted every product is +0.0.
        rhs = lp.rhs
        if self.shift.any():
            rhs = np.array([bi - a @ self.shift for a, bi in zip(lp.constraints, rhs)])
        upper = np.array([lp.upper[j] for j in ub], dtype=float) - self.shift[ub]
        rhs = np.concatenate([rhs, upper])
        rels = np.array(lp.relations + (LE,) * len(ub), dtype=str)
        flip = self.flip = np.where(rhs < 0, -1.0, 1.0)
        slack = np.where(rels == EQ, 0.0, np.where(rels == LE, flip, -flip))
        A = np.zeros((nrows, self.ncols))
        S = A[:, :ncols_struct]
        S[:n_user, :nv] = lp.constraints
        if ub:
            S[range(n_user, nrows), ub] = 1.0
        if self.free_extra:
            # A free variable's second column carries the negated coefficients.
            S[:, nv:] = -S[:, self.free_extra]
        if (flip < 0).any():
            S *= flip[:, None]
        np.fill_diagonal(A[:, ncols_struct:], slack)
        self.A, self.b = A, rhs * flip
        self.needs_artificial = np.flatnonzero(slack <= 0.0)
        self.resid_tol = CHECK_TOL * (1.0 + np.abs(self.b).max(initial=0.0))
        self.budget = 50 * (self.ncols + nrows)
        self._phase_one = {}

    def phase_one(self, window: float, entering: str):
        """``_phase_one`` under one pivot policy, computed once.

        Returns (T, basis, kept), None when the constraints are
        infeasible, or the LpNumericalError that phase 1 raised.  Callers
        must not modify the returned arrays.
        """
        key = (window, entering)
        if key not in self._phase_one:
            try:
                self._phase_one[key] = phase_one_old(self, window, entering)
            except LpNumericalError as err:
                self._phase_one[key] = err
        return self._phase_one[key]


class ObjectiveOld:
    """The per-objective part of the standard form: sign and costs."""

    def __init__(self, lp: LinearProgram, form: ConstraintFormOld):
        self.sign = 1.0 if lp.sense == MINIMIZE else -1.0
        self.c_user = self.sign * lp.objective
        self.c_full = np.zeros(form.ncols)
        self.c_full[: form.nv] = self.c_user
        self.c_full[form.nv : form.ncols_struct] = -self.c_user[form.free_extra]
        self.c_std = self.c_full[: form.ncols_struct]


def phase_one_old(form: ConstraintFormOld, window: float, entering: str):
    """A feasible starting tableau for phase 2 under a fixed pivot policy.

    Returns (T, basis, kept) with the artificial columns removed and a last
    row for phase 2's objective, where ``kept`` lists the rows left after
    redundant ones were dropped, or is None when none was; or returns None
    when the constraints are infeasible; raises LpNumericalError when the
    budget runs out.  Depends on the constraints and the policy only, never
    on the objective.
    """
    nrows, ncols, art = form.nrows, form.ncols, form.needs_artificial
    basis = form.ncols_struct + np.arange(nrows)
    n_art = art.size
    T = np.zeros((nrows + 1, ncols + n_art + 1))
    T[:nrows, :ncols] = form.A
    T[:nrows, -1] = form.b
    if not n_art:
        return T, basis, None
    basis[art] = ncols + np.arange(n_art)
    T[art, basis[art]] = 1.0
    # Phase-1 costs: 1 on each artificial, minus every artificial row,
    # subtracted one row at a time in row order.
    T[-1, ncols:-1] = 1.0
    T[-1] = np.subtract.reduce(T[np.append(nrows, art)])
    run_simplex_old(T, basis, form.budget, window, entering, bounded_objective=True)
    if -T[-1, -1] > CHECK_TOL:
        return None
    # Drive leftover artificials out of the basis; an artificial stuck in
    # an all-zero row marks a redundant constraint, which is dropped.
    dropped = []
    for i in (basis >= ncols).nonzero()[0]:
        row = np.abs(T[i, :ncols])
        cand = (row > 1e-7).nonzero()[0]
        if cand.size == 0:
            cand = (row > TOL).nonzero()[0]
        if cand.size:
            pivot_old(T, i, int(cand[0]), basis)
        else:
            dropped.append(i)
    T = np.concatenate([T[:, :ncols], T[:, -1:]], axis=1)
    if not dropped:
        return T, basis, None
    kept = np.setdiff1d(np.arange(nrows), dropped)
    return T[np.append(kept, nrows)], basis[kept], kept


def phase_two_old(form: ConstraintFormOld, obj: ObjectiveOld, start, window: float, entering: str):
    """Optimize the objective from a copy of phase 1's tableau.

    Returns the terminal basis, or None when the objective is unbounded;
    raises LpNumericalError when the budget runs out.
    """
    T, basis = start[0].copy(), start[1].copy()
    z = T[-1]
    z[:-1], z[-1] = obj.c_full, 0.0
    z -= obj.c_full[basis] @ T[:-1]
    status = run_simplex_old(T, basis, form.budget, window, entering)
    return None if status == UNBOUNDED else basis


def extract_old(form: ConstraintFormOld, obj: ObjectiveOld, basis, kept):
    """Primal/dual recovery from a terminal basis, with feasibility checks.

    Both solves run against the unpivoted data, so tableau drift cannot leak
    into the returned solution.  Returns None if the basis is not genuinely
    feasible (the caller then retries under a coarser pivot policy).
    """
    A, b = form.A, form.b
    if kept is None:
        Bmat, bk = A[:, basis], b
    else:
        Bmat, bk = A[np.ix_(kept, basis)], b[kept]
    try:
        xb = np.linalg.solve(Bmat, bk)
        yk = np.linalg.solve(Bmat.T, obj.c_full[basis])
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(xb).all() and np.isfinite(yk).all()):
        return None
    if xb.min(initial=0.0) < -CHECK_TOL:
        return None
    x_std = np.zeros(form.ncols)
    x_std[basis] = np.maximum(xb, 0.0)
    resid = np.abs(A @ x_std - b).max(initial=0.0)
    if resid > form.resid_tol:
        return None
    y_std = yk
    if kept is not None:
        y_std = np.zeros(form.nrows)
        y_std[kept] = yk

    x = x_std[: form.nv].copy()
    if form.free_extra:
        x[form.free_extra] -= x_std[form.nv : form.ncols_struct]
    x += form.shift
    primal_obj_std = float(obj.c_std @ x_std[: form.ncols_struct])
    dual_obj_std = float(y_std @ b)
    duals = obj.sign * form.flip[: form.n_user] * y_std[: form.n_user]
    c_shift = obj.c_user @ form.shift
    objective = obj.sign * (primal_obj_std + c_shift)
    dual_objective = obj.sign * (dual_obj_std + c_shift)
    return LpSolution(
        status=OPTIMAL,
        x=x,
        duals=duals,
        objective=objective,
        dual_objective=dual_objective,
    )


def solve_lp_old(lp: LinearProgram) -> LpSolution:
    """Solve a LinearProgram, returning primal, duals and both objectives.

    The returned duals are oriented so that for every optimal solve the
    dual objective (rhs-weighted multipliers plus bound terms) equals the
    primal objective up to round-off; signs follow the usual convention
    (e.g. a binding <= row in a max problem carries a nonnegative dual).
    Each pivot policy is one phase 1 (memoized on the program's standard
    form, see ``LinearProgram.with_objective``) and one phase 2.
    """
    form = ConstraintFormOld(lp)
    obj = ObjectiveOld(lp, form)
    for attempt, policy in enumerate(_ATTEMPTS, 1):
        try:
            return solve_with_old(form, obj, *policy)
        except LpNumericalError as err:
            last_error = err
            following = (f"trying policy {attempt + 1} {_ATTEMPTS[attempt]}"
                         if attempt < len(_ATTEMPTS) else "no policy left")
            _log.debug("pivot policy %d %s failed on a %d-row program: %s; %s",
                       attempt, policy, form.nrows, err, following)
    raise last_error


def solve_with_old(form: ConstraintFormOld, obj: ObjectiveOld, window: float, entering: str):
    """One pivot policy's answer; raises LpNumericalError when it fails."""
    start = form.phase_one(window, entering)
    if isinstance(start, LpNumericalError):
        # A fresh error per solve: the memoized one is shared.
        raise LpNumericalError(*start.args)
    if start is None:
        return LpSolution(status=INFEASIBLE)
    basis = phase_two_old(form, obj, start, window, entering)
    if basis is None:
        return LpSolution(status=UNBOUNDED)
    sol = extract_old(form, obj, basis, start[2])
    if sol is None:
        raise LpNumericalError("terminal basis failed feasibility checks")
    return sol


def mixed_old(vec, k: int | None = None) -> np.ndarray:
    """Validate a vector as a mixed strategy and return it as a read-only array.

    Tiny negatives (>= -1e-12) are clamped to zero and the vector is
    renormalized to sum exactly to 1.
    """
    v = np.array(vec, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise GameError("mixed strategy must be a nonempty vector")
    if k is not None and v.size != k:
        raise GameError(f"mixed strategy has length {v.size}, expected {k}")
    if not np.all(np.isfinite(v)):
        raise GameError("mixed strategy has non-finite entries")
    if v.min() < -NEG_TOL:
        raise GameError(f"mixed strategy entry {v.min()} is negative")
    v[v < 0] = 0.0
    s = v.sum()
    if abs(s - 1.0) > SUM_TOL:
        raise GameError(f"mixed strategy sums to {s}, not 1")
    v /= s
    v.flags.writeable = False
    return v


def renormalized_old(vec) -> np.ndarray:
    """A vector scaled to a mixed strategy: negatives clipped to 0, then
    divided by the sum; uniform when no mass is left."""
    v = np.clip(np.asarray(vec, dtype=float), 0.0, None)
    total = v.sum()
    if total <= 0:
        v = np.ones_like(v)
        total = v.sum()
    return mixed_old(v / total)


def dual_from_weights_old(game: Game, weights: np.ndarray, sup) -> DualSolution:
    u = np.clip(weights, 0.0, None)
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
        witnesses.append(mixed_old(full))
    return DualSolution(rho=min(max(masses[0], 0.0), 1.0), w=witnesses[0], z=witnesses[1])


def line_search_old(game: Game, p: Profile, dres: DirectionResult, tol: float = SUPPORT_TOL) -> float:
    """Closed-form step size in (0,1] toward (x_new, y_new).

    The two support bounds keep the best-response sets from being overtaken
    mid-step; indices whose payoff cannot catch up along the direction
    (nonpositive gap growth) impose no bound.  A negative quadratic cross
    term H additionally caps the step at |V-f|/(2|H|).
    """
    R, C = game.R, game.C
    x, y = p
    xp, yp = dres.x_new, dres.y_new
    r = regrets(game, p)

    def support_bound(vals, vals_new):
        vmax = vals.max()
        best = vals >= vmax - tol
        if np.all(best):
            return np.inf
        m_new = vals_new[best].max()
        num = vmax - vals[~best]
        gap = vals_new[~best] - m_new
        den = num + gap
        ok = (gap > 0) & (den > 1e-12)
        if not np.any(ok):
            return np.inf
        return float((num[ok] / den[ok]).min())

    eps1 = support_bound(R @ y, R @ yp)
    eps2 = support_bound(C.T @ x, C.T @ xp)
    eps = min(eps1, eps2, 1.0)
    dx = xp - x
    dy = yp - y
    H = min(float(dx @ R @ dy), float(dx @ C @ dy))
    if H < 0:
        eps = min(eps, abs(dres.value - r.f) / (2.0 * abs(H)))
    return min(eps, 1.0)
