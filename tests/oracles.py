"""Independent reference computations used to check the library.

Each entry reaches its answer by another route than the code it checks:
enumeration, a grid, exact arithmetic, or numpy's own sampler.  None is a
copy of library code, and none calls the code path it checks.
- ``support_enum_ne`` and ``zero_sum_value_enum``: equilibria of small
  games by enumerating support pairs and solving each pair's
  indifference system, with no LP.
- ``simplex_grid``, ``segment_f_min_grid``, ``square_f_min_grid`` and
  ``grid_direction_value``: minima of f and of the direction program's
  value over evenly spaced profiles, against the library's exact
  minimizers and LP.
- ``bound_constants_decimal``: b, lambda0 and mu0 by golden-section search
  in 60-digit Decimal, against the pinned doubles.
- ``lp_certificate`` and ``lp_certified``: the exact violations of an LP
  answer, in Fraction arithmetic on the program's own data, not on the
  kernel's standard form or tableau.
- ``pair_candidates_unscreened``: every (k, l) outside the supports, the
  set the generator's screen must only shrink by infeasible pairs.
- ``regret_matching_choice``: regret matching drawing each action with
  ``Generator.choice``, against the library's chunked uniform draws.
- ``has_pure_ne``: a pure equilibrium, by checking every cell.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from nashdescent.baselines import RunTrace, _history_stride
from nashdescent.game import Game, Profile, mixed, regrets
from nashdescent.lp import CHECK_TOL, EQ, LE, MAXIMIZE, OPTIMAL, LinearProgram, LpSolution


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
    # A's nonzero entries, by row and by column: the generator's tight
    # programs are mostly zeros.
    rows = [[(j, Fraction(v)) for j, v in enumerate(row) if v] for row in lp.constraints.tolist()]
    cols = [[] for _ in x]
    for i, row in enumerate(rows):
        for j, a in row:
            cols[j].append((i, a))
    primal, dual = [Fraction(0)], [Fraction(0)]
    for row, rel, b, yi in zip(rows, lp.relations, lp.rhs.tolist(), y):
        r = sum(a * x[j] for j, a in row) - Fraction(b)
        primal.append(abs(r) if rel == EQ else max(r, 0) if rel == LE else max(-r, 0))
        if rel != EQ:
            dual.append(max(yi, 0) if rel == LE else max(-yi, 0))
    dual_obj = sum(Fraction(b) * yi for b, yi in zip(lp.rhs.tolist(), y))
    for j, (lo, up) in enumerate(zip(lp.lower, lp.upper)):
        d = c[j] - sum(a * y[i] for i, a in cols[j])
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
