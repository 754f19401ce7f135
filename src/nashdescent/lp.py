"""Dense linear-programming kernel: two-phase tableau simplex with Bland's
anti-cycling rule, primal and dual outputs, and a zero-sum-game solver.

Problem sizes in this package stay in the low hundreds of variables, so a
dense tableau with fully vectorized pivots is both the simplest and the
fastest option.  Pivot ties break by lowest index, which makes every solve
bit-reproducible; a degenerate solve that drifts into an infeasible basis
is detected and retried under progressively coarser, equally deterministic
pivot policies before any result is returned.

Phase 1 depends on the constraints and the pivot policy only, so it runs
once per constraint set: the objective-free standard form is built on a
program's first solve and memoizes each policy's phase-1 outcome (the
feasible tableau with its basis, infeasibility, or the error raised).
``LinearProgram.with_objective`` derives a program with another objective
that shares that form, and solving it runs phase 2 from a copy of the
cached tableau; the answer is bit-identical to a fresh program's.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .game import mixed

# Feasibility / optimality tolerance of the simplex.
TOL = 1e-9
# Residual ceiling enforced on every returned optimal solution.
CHECK_TOL = 1e-7

MINIMIZE = "min"
MAXIMIZE = "max"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "=", ">="

# (ratio-tie window, entering rule) fallbacks, tried in order.
_ATTEMPTS = ((TOL, "bland"), (1e-7, "bland"), (1e-7, "dantzig"), (1e-5, "dantzig"))


class LpError(ValueError):
    """Malformed linear program."""


class LpNumericalError(RuntimeError):
    """No pivot policy produced a clean optimal basis within budget."""


class _SharedForm:
    """The standard form that programs derived through ``with_objective``
    share; empty until the first of them is solved."""

    form: "_ConstraintForm | None" = None


@dataclass
class LinearProgram:
    """min or max  c'x  subject to rows (a, rel, b) and box bounds on x.

    Bounds default to x >= 0.  A lower bound of None makes the variable
    free; finite lower bounds are shifted out internally and upper bounds
    become internal rows, so callers never see either transformation.
    Constraints and bounds are stored as tuples and change only through
    ``add``, so the standard form built from them on the first solve (see
    ``with_objective``) never goes stale.
    """

    objective: np.ndarray
    sense: str = MINIMIZE
    constraints: tuple = ()
    lower: tuple | None = None  # per-variable, None entry = free
    upper: tuple | None = None  # per-variable, None entry = unbounded
    _shared: _SharedForm = field(default_factory=_SharedForm, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        self._check_objective(None)
        nv = self.objective.size
        self.lower = (0.0,) * nv if self.lower is None else tuple(self.lower)
        self.upper = (None,) * nv if self.upper is None else tuple(self.upper)
        if len(self.lower) != nv or len(self.upper) != nv:
            raise LpError("bound lists must match the variable count")
        self.constraints = tuple(self._checked_row(*row) for row in self.constraints)

    def _check_objective(self, nv):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise LpError("objective must be a nonempty vector")
        if nv is not None and self.objective.size != nv:
            raise LpError("objective length does not match the variable count")
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise LpError(f"unknown sense {self.sense!r}")

    def _checked_row(self, a, rel, b):
        a = np.asarray(a, dtype=float)
        if a.shape != (self.objective.size,):
            raise LpError("constraint row width does not match objective")
        if rel not in (LE, EQ, GE):
            raise LpError(f"unknown relation {rel!r}")
        if not np.isfinite(b):
            raise LpError("constraint rhs must be finite")
        return a, rel, float(b)

    def add(self, a, rel, b):
        """Append one constraint; programs sharing the old ones keep them."""
        self.constraints = self.constraints + (self._checked_row(a, rel, b),)
        self._shared = _SharedForm()

    def with_objective(self, objective, sense: str = MINIMIZE) -> "LinearProgram":
        """The same constraints and bounds under another objective.

        The returned program shares this one's validated constraints, its
        bounds and its standard form, which the first solve of any of them
        builds and whose memo holds each pivot policy's phase-1 outcome; so
        among all programs derived from one constraint set, phase 1 runs
        once per policy and every further solve runs phase 2 only.
        """
        lp = copy.copy(self)
        lp.objective, lp.sense = objective, sense
        lp._check_objective(self.objective.size)
        return lp

    def _standard_form(self) -> "_ConstraintForm":
        if self._shared.form is None:
            self._shared.form = _ConstraintForm(self)
        return self._shared.form


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    duals: np.ndarray | None = None  # one multiplier per user constraint
    objective: float | None = None
    dual_objective: float | None = None


def _pivot(T: np.ndarray, z: np.ndarray, row: int, col: int, basis: np.ndarray):
    piv = T[row, col]
    T[row] /= piv
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    z -= z[col] * T[row]
    basis[row] = col


def _run_simplex(T, z, basis, allowed, budget, window, entering, bounded_objective=False):
    """Drive a tableau to optimality; returns 'optimal' or 'unbounded'.

    ``allowed`` masks columns permitted to enter (used to freeze artificials
    in phase 2).  ``entering`` picks the entering column (Bland: lowest
    eligible index; Dantzig: most negative reduced cost, lowest index on
    ties); the leaving row takes the best-scaled pivot among rows whose
    ratio is within ``window`` of the minimum, lowest basis index on ties.
    With ``bounded_objective`` (phase 1, which cannot descend below zero)
    an apparently unbounded column is numerically degenerate and is skipped.
    """
    nrows = T.shape[0]
    for _ in range(budget):
        reduced = z[:-1]
        eligible = np.nonzero(allowed & (reduced < -TOL))[0]
        if eligible.size == 0:
            return OPTIMAL
        if entering == "bland":
            col = int(eligible[0])
        else:
            col = int(eligible[np.argmin(reduced[eligible])])
        colv = T[:, col]
        pos = np.nonzero(colv > TOL)[0]
        if pos.size == 0:
            if bounded_objective:
                allowed[col] = False
                continue
            return UNBOUNDED
        ratios = T[pos, -1] / colv[pos]
        best = ratios.min()
        ties = pos[ratios <= best + window * (1.0 + abs(best))]
        strong = ties[colv[ties] >= 0.1 * colv[ties].max()]
        row = int(strong[np.argmin(basis[strong])])
        _pivot(T, z, row, col, basis)
    raise LpNumericalError(
        f"no optimal basis within {budget} pivots ({nrows} rows)"
    )


class _ConstraintForm:
    """Objective-free equality standard form of a LinearProgram, the
    back-maps, and the memoized phase-1 outcome of each pivot policy."""

    def __init__(self, lp: LinearProgram):
        nv = lp.objective.size
        self.n_user = len(lp.constraints)

        self.shift = np.zeros(nv)
        self.free_extra = []
        for j, lo in enumerate(lp.lower):
            if lo is None:
                self.free_extra.append(j)
            else:
                self.shift[j] = float(lo)
        self.nv = nv
        ncols_struct = nv + len(self.free_extra)
        self.ncols_struct = ncols_struct

        def expand(row_a):
            full = np.zeros(ncols_struct)
            full[:nv] = row_a
            for t, j in enumerate(self.free_extra):
                full[nv + t] = -row_a[j]
            return full

        rows_a, rows_rel, rows_b = [], [], []
        for a, rel, b in lp.constraints:
            rows_a.append(expand(a))
            rows_rel.append(rel)
            rows_b.append(b - a @ self.shift)
        for j, up in enumerate(lp.upper):
            if up is None:
                continue
            if lp.lower[j] is None:
                raise LpError("upper bound on a free variable is not supported")
            a = np.zeros(nv)
            a[j] = 1.0
            rows_a.append(expand(a))
            rows_rel.append(LE)
            rows_b.append(float(up) - self.shift[j])

        nrows = len(rows_a)
        self.nrows = nrows
        A = np.zeros((nrows, ncols_struct + nrows))
        b = np.zeros(nrows)
        flip = np.ones(nrows)
        needs_artificial = []
        for i in range(nrows):
            a, rel, bi = rows_a[i], rows_rel[i], rows_b[i]
            if bi < 0:
                a, bi = -a, -bi
                flip[i] = -1.0
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            A[i, :ncols_struct] = a
            b[i] = bi
            if rel == LE:
                A[i, ncols_struct + i] = 1.0
            elif rel == GE:
                A[i, ncols_struct + i] = -1.0
                needs_artificial.append(i)
            else:
                needs_artificial.append(i)
        self.A = A
        self.b = b
        self.flip = flip
        self.needs_artificial = needs_artificial
        self.ncols = ncols_struct + nrows
        self.budget = 50 * (self.ncols + nrows)
        self._phase_one = {}

    def phase_one(self, window: float, entering: str):
        """``_phase_one`` under one pivot policy, computed once.

        Returns (T, basis, row_kept), None when the constraints are
        infeasible, or the LpNumericalError that phase 1 raised.  Callers
        must not modify the returned arrays.
        """
        key = (window, entering)
        if key not in self._phase_one:
            try:
                self._phase_one[key] = _phase_one(self, window, entering)
            except LpNumericalError as err:
                self._phase_one[key] = err
        return self._phase_one[key]


class _Objective:
    """The per-objective part of the standard form: sign and costs."""

    def __init__(self, lp: LinearProgram, form: _ConstraintForm):
        self.sign = 1.0 if lp.sense == MINIMIZE else -1.0
        self.c_user = self.sign * lp.objective
        self.c_std = np.concatenate([self.c_user, -self.c_user[form.free_extra]])
        self.c_full = np.concatenate([self.c_std, np.zeros(form.nrows)])


def _phase_one(form: _ConstraintForm, window: float, entering: str):
    """A feasible starting tableau for phase 2 under a fixed pivot policy.

    Returns (T, basis, row_kept) with the artificial columns removed, or
    None when the constraints are infeasible; raises LpNumericalError when
    the budget runs out.  Depends on the constraints and the policy only,
    never on the objective.
    """
    A, b, nrows, ncols = form.A, form.b, form.nrows, form.ncols
    row_kept = np.ones(nrows, dtype=bool)
    n_art = len(form.needs_artificial)
    if not n_art:
        return np.hstack([A, b[:, None]]), form.ncols_struct + np.arange(nrows), row_kept
    A1 = np.hstack([A, np.zeros((nrows, n_art))])
    basis = np.empty(nrows, dtype=int)
    for t, i in enumerate(form.needs_artificial):
        A1[i, ncols + t] = 1.0
        basis[i] = ncols + t
    for i in range(nrows):
        if i not in form.needs_artificial:
            basis[i] = form.ncols_struct + i
    T = np.hstack([A1, b[:, None]])
    c1 = np.zeros(ncols + n_art)
    c1[ncols:] = 1.0
    z = np.concatenate([c1, [0.0]])
    for i in form.needs_artificial:
        z -= T[i]
    allowed = np.ones(ncols + n_art, dtype=bool)
    _run_simplex(T, z, basis, allowed, form.budget, window, entering,
                 bounded_objective=True)
    if -z[-1] > CHECK_TOL:
        return None
    # Drive leftover artificials out of the basis; an artificial stuck in
    # an all-zero row marks a redundant constraint, which is dropped.
    for i in range(nrows):
        if basis[i] >= ncols:
            cand = np.nonzero(np.abs(T[i, :ncols]) > 1e-7)[0]
            if cand.size == 0:
                cand = np.nonzero(np.abs(T[i, :ncols]) > TOL)[0]
            if cand.size:
                piv = T[i, cand[0]]
                T[i] /= piv
                colvals = T[:, cand[0]].copy()
                colvals[i] = 0.0
                T -= np.outer(colvals, T[i])
                z -= z[cand[0]] * T[i]
                basis[i] = int(cand[0])
            else:
                row_kept[i] = False
    if not np.all(row_kept):
        T = T[row_kept]
        basis = basis[row_kept]
    return np.hstack([T[:, :ncols], T[:, -1:]]), basis, row_kept


def _phase_two(form: _ConstraintForm, obj: _Objective, start, window: float, entering: str):
    """Optimize the objective from a copy of phase 1's tableau.

    Returns the terminal basis, or None when the objective is unbounded;
    raises LpNumericalError when the budget runs out.
    """
    T, basis = start[0].copy(), start[1].copy()
    z = np.concatenate([obj.c_full, [0.0]])
    z -= obj.c_full[basis] @ T
    status = _run_simplex(T, z, basis, np.ones(form.ncols, dtype=bool), form.budget,
                          window, entering)
    return None if status == UNBOUNDED else basis


def _extract(form: _ConstraintForm, obj: _Objective, basis, row_kept):
    """Primal/dual recovery from a terminal basis, with feasibility checks.

    Both solves run against the unpivoted data, so tableau drift cannot leak
    into the returned solution.  Returns None if the basis is not genuinely
    feasible (the caller then retries under a coarser pivot policy).
    """
    A, b = form.A, form.b
    kept = np.nonzero(row_kept)[0]
    Bmat = A[np.ix_(kept, basis)]
    cB = obj.c_full[basis]
    try:
        xb = np.linalg.solve(Bmat, b[kept])
        yk = np.linalg.solve(Bmat.T, cB)
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(xb)) and np.all(np.isfinite(yk))):
        return None
    if xb.min(initial=0.0) < -CHECK_TOL:
        return None
    x_std = np.zeros(form.ncols)
    x_std[basis] = np.clip(xb, 0.0, None)
    resid = np.abs(A @ x_std - b).max() if len(b) else 0.0
    if resid > CHECK_TOL * (1.0 + np.abs(b).max(initial=0.0)):
        return None
    y_std = np.zeros(form.nrows)
    y_std[kept] = yk

    x = x_std[: form.nv].copy()
    for t, j in enumerate(form.free_extra):
        x[j] -= x_std[form.nv + t]
    x += form.shift
    primal_obj_std = float(obj.c_std @ x_std[: form.ncols_struct])
    dual_obj_std = float(y_std @ b)
    duals = obj.sign * form.flip[: form.n_user] * y_std[: form.n_user]
    objective = obj.sign * (primal_obj_std + obj.c_user @ form.shift)
    dual_objective = obj.sign * (dual_obj_std + obj.c_user @ form.shift)
    return LpSolution(
        status=OPTIMAL,
        x=x,
        duals=duals,
        objective=objective,
        dual_objective=dual_objective,
    )


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a LinearProgram, returning primal, duals and both objectives.

    The returned duals are oriented so that for every optimal solve the
    dual objective (rhs-weighted multipliers plus bound terms) equals the
    primal objective up to round-off; signs follow the usual convention
    (e.g. a binding <= row in a max problem carries a nonnegative dual).
    Each pivot policy is one phase 1 (memoized on the program's standard
    form, see ``LinearProgram.with_objective``) and one phase 2.
    """
    form = lp._standard_form()
    obj = _Objective(lp, form)
    last_error = None
    for window, entering in _ATTEMPTS:
        start = form.phase_one(window, entering)
        if isinstance(start, LpNumericalError):
            # A fresh error per solve: the memoized one is shared.
            last_error = LpNumericalError(*start.args)
            continue
        if start is None:
            return LpSolution(status=INFEASIBLE)
        try:
            basis = _phase_two(form, obj, start, window, entering)
        except LpNumericalError as err:
            last_error = err
            continue
        if basis is None:
            return LpSolution(status=UNBOUNDED)
        sol = _extract(form, obj, basis, start[2])
        if sol is not None:
            return sol
        last_error = LpNumericalError("terminal basis failed feasibility checks")
    raise last_error or LpNumericalError("no pivot policy succeeded")


def _as_strategy(vec) -> np.ndarray:
    v = np.clip(np.asarray(vec, dtype=float), 0.0, None)
    total = v.sum()
    if total <= 0:
        v = np.ones_like(v)
        total = v.sum()
    return mixed(v / total)


def solve_zero_sum(A) -> tuple[np.ndarray, np.ndarray, float]:
    """Maximin strategies and value of the zero-sum game with payoff matrix A.

    The row player maximizes x'Ay, the column player minimizes it.  Returns
    (x, y, value) with min(A'x) >= value - 1e-8 and max(Ay) <= value + 1e-8.
    Optimal strategies are the deterministic vertex solutions of the two
    value LPs (ties inherit the simplex's pivoting policy).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0 or not np.all(np.isfinite(A)):
        raise LpError("payoff matrix must be a nonempty finite matrix")
    m, n = A.shape

    # Row side: max v subject to (A'x)_j >= v for every column j.
    cx = np.zeros(m + 1)
    cx[-1] = 1.0
    rows = [(np.concatenate([A[:, j], [-1.0]]), GE, 0.0) for j in range(n)]
    rows.append((np.concatenate([np.ones(m), [0.0]]), EQ, 1.0))
    lpx = LinearProgram(cx, MAXIMIZE, rows, lower=[0.0] * m + [None])
    solx = solve_lp(lpx)
    if solx.status != OPTIMAL:
        raise LpNumericalError(f"zero-sum row LP ended {solx.status}")

    # Column side: min u subject to (Ay)_i <= u for every row i.
    cy = np.zeros(n + 1)
    cy[-1] = 1.0
    rows = [(np.concatenate([A[i, :], [-1.0]]), LE, 0.0) for i in range(m)]
    rows.append((np.concatenate([np.ones(n), [0.0]]), EQ, 1.0))
    lpy = LinearProgram(cy, MINIMIZE, rows, lower=[0.0] * n + [None])
    soly = solve_lp(lpy)
    if soly.status != OPTIMAL:
        raise LpNumericalError(f"zero-sum column LP ended {soly.status}")

    value = float(solx.objective)
    if abs(value - soly.objective) > 1e-7 * (1.0 + abs(value)):
        raise LpNumericalError(
            f"zero-sum values disagree: {value} vs {soly.objective}"
        )
    return _as_strategy(solx.x[:m]), _as_strategy(soly.x[:n]), value
