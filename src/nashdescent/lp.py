"""Dense linear-programming kernel: two-phase tableau simplex with Bland's
anti-cycling rule, primal and dual outputs, and a zero-sum-game solver.

Problem sizes in this package stay in the low hundreds of variables, so a
dense tableau with fully vectorized pivots is both the simplest and the
fastest option.  Pivot ties break by lowest index, which makes every solve
bit-reproducible; a degenerate solve that drifts into an infeasible basis
is detected and retried under progressively coarser, equally deterministic
pivot policies before any result is returned.  Each fallback is logged at
debug level on the ``nashdescent.lp`` logger.

The tableaux the descent solves are tiny (4 to 14 rows), so the kernel's
cost is the number of numpy calls, not flops.  The objective row is the
tableau's last row, so a pivot is one rank-1 update of the whole tableau,
and the standard form is filled by whole-block assignments.  Work that is
one number per row runs on Python floats, with the same arithmetic as on
arrays: the standard form's relation signs, slacks and artificial rows,
the ratio test's ties, and the finiteness checks of a recovered solution.
The recovery's two linear solves, with B and with B', go to LAPACK as one
stacked call.

A program states its constraints as one block: a (k, nv) coefficient
array, k relations and k right-hand sides, fixed when the program is made.
Its objective-free standard form is built then too, and memoizes each pivot
policy's phase-1 outcome (the feasible tableau with its basis,
infeasibility, or the error raised), since phase 1 depends on the
constraints and the policy only.  ``LinearProgram.with_objective`` derives
a program with another objective that shares that form, and solving it runs
phase 2 from a copy of the cached tableau; the answer is bit-identical to a
fresh program's.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .game import renormalized

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
_RELATIONS = frozenset((LE, EQ, GE))

# What c_user @ shift is when nothing is shifted.
_ZERO = np.float64(0.0)

# (ratio-tie window, entering rule) fallbacks, tried in order.
_ATTEMPTS = ((TOL, "bland"), (1e-7, "bland"), (1e-7, "dantzig"), (1e-5, "dantzig"))

_log = logging.getLogger(__name__)


class LpError(ValueError):
    """Malformed linear program."""


class LpNumericalError(RuntimeError):
    """No pivot policy produced a clean optimal basis within budget."""


@dataclass
class LinearProgram:
    """min or max  c'x  subject to  constraints[i] @ x  relations[i]  rhs[i]
    for each row i, and box bounds on x.

    ``constraints`` is a (k, nv) array, ``relations`` k of LE, EQ and GE,
    and ``rhs`` k numbers; every coefficient and rhs, like every entry of
    the objective, must be finite.  Bounds are finite or None and default to
    x >= 0.  A lower bound of None makes the variable free; finite lower
    bounds are shifted out internally and upper bounds become internal
    rows, so callers never see either transformation.  The constraints and
    bounds are fixed at construction, when the standard form is built.
    """

    objective: np.ndarray
    sense: str
    constraints: np.ndarray
    relations: tuple
    rhs: np.ndarray
    lower: tuple | None = None  # per-variable, None entry = free
    upper: tuple | None = None  # per-variable, None entry = unbounded
    _form: "_ConstraintForm" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check_objective(None)
        nv = self.objective.size
        given = self.lower is not None or self.upper is not None
        self.lower = (0.0,) * nv if self.lower is None else tuple(self.lower)
        self.upper = (None,) * nv if self.upper is None else tuple(self.upper)
        if len(self.lower) != nv or len(self.upper) != nv:
            raise LpError("bound lists must match the variable count")
        if given and not all(math.isfinite(v) for v in self.lower + self.upper if v is not None):
            raise LpError("bounds must be finite; None marks a free or unbounded variable")
        A = np.asarray(self.constraints, dtype=float)
        self.constraints = A.reshape(0, nv) if A.size == 0 else A
        self.relations = tuple(self.relations)
        self.rhs = np.asarray(self.rhs, dtype=float)
        k = len(self.relations)
        if self.constraints.shape != (k, nv) or self.rhs.shape != (k,):
            raise LpError("constraints must be a (rows, variables) block with one "
                          "relation and one rhs per row")
        if not _RELATIONS.issuperset(self.relations):
            raise LpError(f"unknown relation among {self.relations}")
        if not np.logical_and.reduce(np.isfinite(self.constraints), axis=None):
            raise LpError("constraint coefficients must be finite")
        if not all(map(math.isfinite, self.rhs.tolist())):
            raise LpError("constraint rhs must be finite")
        self._form = _ConstraintForm(self)

    def _check_objective(self, nv):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise LpError("objective must be a nonempty vector")
        if nv is not None and self.objective.size != nv:
            raise LpError("objective length does not match the variable count")
        if not all(map(math.isfinite, self.objective.tolist())):
            raise LpError("objective coefficients must be finite")
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise LpError(f"unknown sense {self.sense!r}")

    def with_objective(self, objective, sense: str = MINIMIZE) -> "LinearProgram":
        """The same constraints and bounds under another objective.

        The returned program shares this one's validated constraints, its
        bounds and its standard form, whose memo holds each pivot policy's
        phase-1 outcome; so among all programs derived from one program,
        phase 1 runs once per policy and every further solve runs phase 2
        only.
        """
        lp = copy.copy(self)
        lp.objective, lp.sense = objective, sense
        lp._check_objective(self.objective.size)
        return lp


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    duals: np.ndarray | None = None  # one multiplier per user constraint
    objective: float | None = None
    dual_objective: float | None = None


def _pivot(T: np.ndarray, row: int, col: int, basis: np.ndarray):
    """Pivot on T[row, col]: one rank-1 update of every row, objective row
    (T's last) included; the pivot row's multiplier is zeroed."""
    prow = T[row]
    prow /= prow[col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= colvals[:, None] * prow
    basis[row] = col


def _run_simplex(T, basis, budget, window, entering, bounded_objective=False):
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
        pl = pos.tolist()
        if not pl:
            if not bounded_objective:
                return UNBOUNDED
            if allowed is None:
                allowed = np.ones(reduced.size, dtype=bool)
            allowed[col] = False
            continue
        row = pl[0]
        if len(pl) > 1:
            # The ratio test on Python floats: the same divisions and
            # comparisons as on arrays, without an array call for each.
            cl = colv[pos].tolist()
            ratios = [b / c for b, c in zip(rhs[pos].tolist(), cl)]
            best = min(ratios)
            limit = best + window * (1.0 + abs(best))
            ties = [k for k, r in enumerate(ratios) if r <= limit]
            row = pl[ties[0]]
            if len(ties) > 1:
                floor = 0.1 * max([cl[k] for k in ties])
                row = min([pl[k] for k in ties if cl[k] >= floor], key=basis.__getitem__)
        _pivot(T, row, col, basis)
    raise LpNumericalError(
        f"no optimal basis within {budget} pivots ({nrows} rows)"
    )


class _ConstraintForm:
    """Objective-free equality standard form of a LinearProgram, the
    back-maps, and the memoized phase-1 outcome of each pivot policy."""

    def __init__(self, lp: LinearProgram):
        nv = self.nv = lp.objective.size
        n_user = self.n_user = len(lp.relations)
        lower, upper = lp.lower, lp.upper
        # Each index scan runs only when its tuple holds what it looks for.
        self.free_extra = [j for j, lo in enumerate(lower) if lo is None] if None in lower else []
        shift = [0.0 if lo is None else float(lo) for lo in lower]
        self.shift, self.shifted = np.array(shift), any(shift)
        ub = [j for j, up in enumerate(upper) if up is not None] if upper.count(None) < nv else []
        if ub and any(lower[j] is None for j in ub):
            raise LpError("upper bound on a free variable is not supported")
        ncols_struct = self.ncols_struct = nv + len(self.free_extra)
        nrows = self.nrows = n_user + len(ub)
        ncols = self.ncols = ncols_struct + nrows

        # User rows, then one row x_j <= u_j per upper bound.  A row with a
        # negative rhs is negated, which swaps <= and >=; the slack of a <=
        # row enters with +1, of a >= row with -1.  The shift comes off with
        # one product per row, since A @ shift sums in another order and can
        # move a last bit; with nothing shifted every product is +0.0.  The
        # per-row bookkeeping runs on Python floats, with the same values.
        rhs, rels = lp.rhs, lp.relations
        if self.shifted:
            rhs = np.array([bi - a @ self.shift for a, bi in zip(lp.constraints, rhs)])
        rhs = rhs.tolist()
        if ub:
            rhs += [float(lp.upper[j]) - shift[j] for j in ub]
            rels += (LE,) * len(ub)
        flip = [-1.0 if bi < 0 else 1.0 for bi in rhs]
        slack = [0.0 if rel == EQ else f if rel == LE else -f for rel, f in zip(rels, flip)]
        self.flip = np.array(flip)
        A = np.zeros((nrows, ncols))
        S = A[:, :ncols_struct]
        S[:n_user, :nv] = lp.constraints
        if ub:
            S[range(n_user, nrows), ub] = 1.0
        if self.free_extra:
            # A free variable's second column carries the negated coefficients.
            S[:, nv:] = -S.take(self.free_extra, axis=1)
        if -1.0 in flip:
            S *= self.flip[:, None]
        A.ravel()[ncols_struct::ncols + 1] = slack  # the slack block's diagonal
        b = [bi * f for bi, f in zip(rhs, flip)]
        self.A, self.b = A, np.array(b)
        # Phase 1's starting basis: the slack of each row, or an artificial
        # (a column past ncols) for a row whose slack cannot start at b_i.
        # Also the flat positions in phase 1's tableau of the artificials'
        # unit entries and of their 1s in the last row, and the rows its
        # cost row is made of.
        art = self.needs_artificial = [i for i, sl in enumerate(slack) if sl <= 0.0]
        start_basis = list(range(ncols_struct, ncols))
        width = ncols + len(art) + 1
        for j, i in enumerate(art, ncols):
            start_basis[i] = j
        self.start_basis = np.array(start_basis, dtype=np.intp)
        cost_ones = range(nrows * width + ncols, nrows * width + ncols + len(art))
        self.art_cells = np.array([i * width + j for j, i in enumerate(art, ncols)]
                                  + list(cost_ones), dtype=np.intp)
        self.cost_rows = np.array([nrows] + art, dtype=np.intp)
        # Every b_i is >= 0 or -0.0, so max(b) is max|b_i| once 1.0 is added.
        self.resid_tol = CHECK_TOL * (1.0 + max(b, default=0.0))
        self.budget = 50 * (ncols + nrows)
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
                self._phase_one[key] = _phase_one(self, window, entering)
            except LpNumericalError as err:
                self._phase_one[key] = err
        return self._phase_one[key]


class _Objective:
    """The per-objective part of the standard form: sign and costs."""

    def __init__(self, lp: LinearProgram, form: _ConstraintForm):
        # -c is the product -1.0 * c, and 1.0 * c is c.
        self.sign = 1.0 if lp.sense == MINIMIZE else -1.0
        self.c_user = lp.objective if lp.sense == MINIMIZE else -lp.objective
        # Phase 2's first objective row: the cost of every standard-form
        # column, then 0.0 in the rhs column.
        self.c_row = np.zeros(form.ncols + 1)
        self.c_row[: form.nv] = self.c_user
        if form.free_extra:
            self.c_row[form.nv : form.ncols_struct] = -self.c_user.take(form.free_extra)
        self.c_std = self.c_row[: form.ncols_struct]
        # The product sign * flip of each user row, which orients its dual.
        user_flip = form.flip[: form.n_user]
        self.dual_sign = user_flip if lp.sense == MINIMIZE else -user_flip


def _phase_one(form: _ConstraintForm, window: float, entering: str):
    """A feasible starting tableau for phase 2 under a fixed pivot policy.

    Returns (T, basis, kept) with the artificial columns removed and a last
    row for phase 2's objective, where ``kept`` lists the rows left after
    redundant ones were dropped, or is None when none was; or returns None
    when the constraints are infeasible; raises LpNumericalError when the
    budget runs out.  Depends on the constraints and the policy only, never
    on the objective.
    """
    nrows, ncols, art = form.nrows, form.ncols, form.needs_artificial
    basis = form.start_basis.copy()
    T = np.zeros((nrows + 1, ncols + len(art) + 1))
    T[:nrows, :ncols] = form.A
    T[:nrows, -1] = form.b
    if not art:
        return T, basis, None
    # The artificials' unit entries, and a 1 at each in the last row; then
    # phase 1's costs: that row minus every artificial row, subtracted one
    # row at a time in row order.
    T.ravel()[form.art_cells] = 1.0
    np.subtract.reduce(T.take(form.cost_rows, axis=0), out=T[-1])
    _run_simplex(T, basis, form.budget, window, entering, bounded_objective=True)
    if -T[-1, -1] > CHECK_TOL:
        return None
    # Drive leftover artificials out of the basis; an artificial stuck in
    # an all-zero row marks a redundant constraint, which is dropped.
    dropped = []
    in_basis = basis.tolist()
    if max(in_basis) >= ncols:
        for i in [i for i, j in enumerate(in_basis) if j >= ncols]:
            row = np.abs(T[i, :ncols])
            cand = (row > 1e-7).nonzero()[0]
            if cand.size == 0:
                cand = (row > TOL).nonzero()[0]
            if cand.size:
                _pivot(T, i, int(cand[0]), basis)
            else:
                dropped.append(i)
    T = np.concatenate([T[:, :ncols], T[:, -1:]], axis=1)
    if not dropped:
        return T, basis, None
    kept = np.setdiff1d(np.arange(nrows), dropped)
    return T[np.append(kept, nrows)], basis[kept], kept


def _phase_two(form: _ConstraintForm, obj: _Objective, start, window: float, entering: str):
    """Optimize the objective from a copy of phase 1's tableau.

    Returns the terminal basis, or None when the objective is unbounded;
    raises LpNumericalError when the budget runs out.
    """
    T, basis = start[0].copy(), start[1].copy()
    z = T[-1]
    z[:] = obj.c_row
    z -= obj.c_row[basis] @ T[:-1]
    status = _run_simplex(T, basis, form.budget, window, entering)
    return None if status == UNBOUNDED else basis


def _extract(form: _ConstraintForm, obj: _Objective, basis, kept):
    """Primal/dual recovery from a terminal basis, with feasibility checks.

    Both solves run against the unpivoted data, so tableau drift cannot leak
    into the returned solution.  Returns None if the basis is not genuinely
    feasible (the caller then retries under a coarser pivot policy).
    """
    A, b = form.A, form.b
    if kept is None:
        Bmat, bk = A.take(basis, axis=1), b
    else:
        Bmat, bk = A[np.ix_(kept, basis)], b[kept]
    # B x = b and B' y = c_B as one stacked call: LAPACK solves each
    # matrix of the stack on its own, as two calls would.
    try:
        xy = np.linalg.solve(np.array((Bmat, Bmat.T)),
                             np.array((bk, obj.c_row.take(basis)))[:, :, None])
    except np.linalg.LinAlgError:
        return None
    xl, yl = xy.reshape(2, -1).tolist()
    if not all(map(math.isfinite, xl + yl)) or min(xl, default=0.0) < -CHECK_TOL:
        return None
    xb, yk = xy[:, :, 0]
    x_std = np.zeros(form.ncols)
    x_std[basis] = np.maximum(xb, 0.0)
    resid = np.maximum.reduce(np.abs(A @ x_std - b), initial=0.0)
    if resid > form.resid_tol:
        return None
    y_std = yk
    if kept is not None:
        y_std = np.zeros(form.nrows)
        y_std[kept] = yk

    x = x_std[: form.nv].copy()
    for k, j in enumerate(form.free_extra, form.nv):  # the same subtraction per entry
        x[j] -= x_std[k]
    # With nothing shifted, x += shift would add +0.0 to entries that are
    # never -0.0 (np.maximum returns +0.0 for -0.0, and a - a is +0.0), and
    # c_user @ shift of a finite c_user is +0.0.
    c_shift = _ZERO
    if form.shifted:
        x += form.shift
        c_shift = obj.c_user @ form.shift
    primal_obj_std = float(obj.c_std @ x_std[: form.ncols_struct])
    dual_obj_std = float(y_std @ b)
    duals = obj.dual_sign * y_std[: form.n_user]
    objective = obj.sign * (primal_obj_std + c_shift)
    dual_objective = obj.sign * (dual_obj_std + c_shift)
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
    form = lp._form
    obj = _Objective(lp, form)
    for attempt, policy in enumerate(_ATTEMPTS, 1):
        try:
            return _solve_with(form, obj, *policy)
        except LpNumericalError as err:
            last_error = err
            following = (f"trying policy {attempt + 1} {_ATTEMPTS[attempt]}"
                         if attempt < len(_ATTEMPTS) else "no policy left")
            _log.debug("pivot policy %d %s failed on a %d-row program: %s; %s",
                       attempt, policy, form.nrows, err, following)
    raise last_error


def _solve_with(form: _ConstraintForm, obj: _Objective, window: float, entering: str):
    """One pivot policy's answer; raises LpNumericalError when it fails."""
    start = form.phase_one(window, entering)
    if isinstance(start, LpNumericalError):
        # A fresh error per solve: the memoized one is shared.
        raise LpNumericalError(*start.args)
    if start is None:
        return LpSolution(status=INFEASIBLE)
    basis = _phase_two(form, obj, start, window, entering)
    if basis is None:
        return LpSolution(status=UNBOUNDED)
    sol = _extract(form, obj, basis, start[2])
    if sol is None:
        raise LpNumericalError("terminal basis failed feasibility checks")
    return sol


def solve_zero_sum(A) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimax strategies and value of the zero-sum game with payoff matrix A.

    The row player maximizes x'Ay, the column player minimizes it.  One LP
    gives both: max v subject to (A'x)_j >= v for every column j, with x on
    the simplex.  By LP duality its multipliers on those n rows, negated and
    normalized, are a minimax strategy y of the column player.  Returns
    (x, y, value), certified on A itself: min(A'x) >= value - tol and
    max(Ay) <= value + tol with tol = 1e-8 (1 + |value|), else
    LpNumericalError, since the kernel certifies the primal answer only.
    x is the LP's vertex solution and y its basis's multipliers, so ties
    inherit the simplex's pivoting policy.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0 or not np.all(np.isfinite(A)):
        raise LpError("payoff matrix must be a nonempty finite matrix")
    m, n = A.shape
    # Variables x, then the free value v.
    rows = np.zeros((n + 1, m + 1))
    rows[:n, :m] = A.T
    rows[:n, m] = -1.0
    rows[n, :m] = 1.0
    c = np.zeros(m + 1)
    c[m] = 1.0
    sol = solve_lp(LinearProgram(c, MAXIMIZE, rows, (GE,) * n + (EQ,), [0.0] * n + [1.0],
                                 lower=[0.0] * m + [None]))
    if sol.status != OPTIMAL:
        raise LpNumericalError(f"zero-sum LP ended {sol.status}")
    x, y, value = renormalized(sol.x[:m]), renormalized(-sol.duals[:n]), float(sol.objective)
    tol = 1e-8 * (1.0 + abs(value))
    low, high = (A.T @ x).min(), (A @ y).max()
    if low < value - tol or high > value + tol:
        raise LpNumericalError(
            f"zero-sum strategies fail the saddle check: min(A'x) = {low}, "
            f"max(Ay) = {high}, value {value}"
        )
    return x, y, value
