"""Independent reference computations used to check the library.

Everything here is deliberately brute force (enumeration, grids, finite
differences) and never calls the code paths under test.
"""

from itertools import chain, combinations

import numpy as np

from nashdescent.baselines import RunTrace, _history_stride
from nashdescent.game import Game, Profile, mixed, regrets
from nashdescent.generator import GeneratorInput, solve_b
from nashdescent.lp import EQ, GE, LE


def nonempty_subsets(k):
    return chain.from_iterable(combinations(range(k), r) for r in range(1, k + 1))


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


def regret_matching_choice(game: Game, rounds: int, rng: np.random.Generator | None = None,
                           seed: int | None = None) -> RunTrace:
    """baselines.regret_matching as it was with one Generator.choice call
    per player and round; the library draws the same uniforms in chunks."""
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
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
    return RunTrace("rm", rounds, profile, regrets(game, profile).f, tuple(history), seed)


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
