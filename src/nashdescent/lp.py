"""Dense linear-programming kernel: two-phase tableau simplex with Bland's
anti-cycling rule, primal and dual outputs, and a zero-sum-game solver.

Problem sizes in this package stay in the low hundreds of variables, so a
dense tableau with fully vectorized pivots is both the simplest and the
fastest option.  Pivot ties break by lowest index, which makes every solve
bit-reproducible.  Every answer is certified on the unpivoted data: primal
feasible, dual feasible (no reduced cost below tolerance) and with a small
residual.  A degenerate solve that drifts into a basis failing those checks
is repaired: on a tableau rebuilt at that basis from the unpivoted data,
dual simplex pivots restore primal feasibility and the simplex finishes.
Each repair is logged at debug level on the ``nashdescent.lp`` logger.

The tableau is stored by columns: array row j is tableau column j, whose
last entry is the objective row's, and the last array row is the rhs
column.  So the ratio test reads one contiguous entering column.  A pivot
finds its entering column and candidate rows with numpy masks and runs
the ratio test and its tie rules on the candidates as Python floats.  The
tableaux the descent solves are tiny (4 to 14 rows), so the kernel's cost
is the number of numpy calls, not flops: a pivot is one rank-1 update of
the whole tableau, objective row included, and the standard form is
filled by whole-block assignments.  The generator's tight programs are
the exception: from 4x4 up their tableaux have thousands of cells and
mostly zero pivot rows, so a tableau above ``RESTRICTED_UPDATE_CELLS``
cells updates only the columns where its pivot row is nonzero.  Both
updates give the same bits up to the sign of a zero, which no decision
reads.  Other work that is one number per row runs on Python floats too,
with the same arithmetic as on arrays: the standard form's relation
signs, slacks and artificial rows, and the finiteness checks of a
recovered solution.  The recovery's two linear solves, with B and with
B', go to LAPACK as one stacked call.

A program states its constraints as one block: a (k, nv) coefficient
array, k relations and k right-hand sides, fixed when the program is made.
Its objective-free standard form is built then too.  The form's layout
(free and capped variables, row signs and slacks, phase 1's starting basis
and artificials, the pivot budget) depends only on the program's shape, so
the layouts of the descent's programs, which repeat a few shapes and have
no upper bounds, are memoized (``_cached_layout``).  The form memoizes
phase 1's outcome, which depends on the constraints only.
``LinearProgram.with_objective`` derives a program with another objective
that shares that form, and solving it runs phase 2 from a copy of the
cached tableau; the answer is bit-identical to a fresh program's.
"""

from __future__ import annotations

import copy
import functools
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

# Tableaux with more cells than this update only the columns a pivot
# changes.  The descent's stay far below it (at most 1705 cells, at 7x7),
# where the whole update is cheaper, and so do the 3x3 tight programs'
# (2128 to 2698), where the two updates cost about the same; the tight
# programs from 4x4 up lie above it (5130 cells and more), where most
# entries of a pivot row are 0 (notes/decisions.md sections 23 and 25).
RESTRICTED_UPDATE_CELLS = 4096

# What c_user @ shift is when nothing is shifted.
_ZERO = np.float64(0.0)
_UNSET = object()  # the phase-1 memo before phase 1 runs; None means infeasible

# The layouts _cached_layout keeps, the least recently used dropped first.
# The 2641 descent programs of the benchmark's ts-tight3 workload at seed 0
# have 8 shapes, the 240 of dfm-hard (3x3 to 5x5 games) 6.
LAYOUT_MEMO_SIZE = 64

_log = logging.getLogger(__name__)


class LpError(ValueError):
    """Malformed linear program."""


class LpNumericalError(RuntimeError):
    """A pivot budget ran out, or a rejected basis could not be repaired."""


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
        bounds and its standard form, whose memo holds phase 1's outcome;
        so among all programs derived from one program, phase 1 runs once
        and every further solve runs phase 2 only.
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
    """Pivot on tableau row ``row`` and column ``col``, the entry
    T[col, row] of a tableau stored by columns: T[j] is column j, its last
    entry the objective row's, and T[-1] is the rhs column.  The pivot row
    is scaled, then every other row, objective row included, takes a rank-1
    update.

    A tableau of at most ``RESTRICTED_UPDATE_CELLS`` cells is updated
    whole, with the pivot row's multiplier zeroed; a larger one only in the
    columns where the pivot row is nonzero.  A column left out would only
    have become x - 0*y, which can differ from x in the sign of a zero and
    nowhere else; every updated cell gets the same product and subtraction
    on either path.
    """
    prow = T[:, row]
    prow /= prow[col]
    colvals = T[col].copy()
    colvals[row] = 0.0
    if T.size > RESTRICTED_UPDATE_CELLS:
        changed = prow.nonzero()[0]
        cols = T.take(changed, axis=0)
        cols -= prow.take(changed)[:, None] * colvals
        T[changed] = cols
    else:
        T -= prow[:, None] * colvals
    basis[row] = col


def _run_simplex(T, basis, budget, bounded_objective=False):
    """Drive a tableau to optimality; returns 'optimal' or 'unbounded'.

    T is stored by columns (see ``_pivot``): the ratio test reads the
    entering column as one contiguous array row, and the objective row,
    reduced costs and then minus the objective value, is T's last array
    column.  The entering column is the lowest eligible index (Bland);
    the leaving row takes the best-scaled pivot among rows whose
    ratio is within TOL of the minimum, lowest basis index on ties.
    With ``bounded_objective`` (phase 1, which cannot descend below zero)
    an apparently unbounded column is numerically degenerate: it is frozen
    out of the entering candidates for the rest of the run.

    The entering column and the candidate rows are found with numpy masks;
    the ratio test and its tie rules run on the candidates as Python
    floats, which costs fewer calls than array operations on the few rows
    that remain.
    """
    nrows = T.shape[1] - 1
    reduced, rhs = T[:-1, -1], T[-1, :-1]
    tol, neg_tol = TOL, -TOL
    frozen = []
    for _ in range(budget):
        eligible = reduced < neg_tol
        if frozen:
            eligible[frozen] = False
        col = int(eligible.argmax())
        if not eligible[col]:
            return OPTIMAL
        colv = T[col, :-1]
        pos = (colv > tol).nonzero()[0]
        pl = pos.tolist()
        if not pl:
            if not bounded_objective:
                return UNBOUNDED
            frozen.append(col)
            continue
        row = pl[0]
        if len(pl) > 1:
            # The ratio test on Python floats: the same divisions and
            # comparisons as on arrays, without an array call for each.
            cl, bl = colv[pos].tolist(), rhs[pos].tolist()
            ratios = [b / c for b, c in zip(bl, cl)]
            best = min(ratios)
            limit = best + TOL * (1.0 + abs(best))
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
    back-maps, and the memoized phase-1 outcome.

    What the program's shape fixes comes from ``_layout``, memoized by
    shape (``_cached_layout``) for programs without upper bounds: a
    descent meets a few shapes per game size and repeats them, while the
    generator's box-bounded programs almost never repeat one.  A, b, the
    shift and ``resid_tol`` are computed for each program.
    """

    def __init__(self, lp: LinearProgram):
        nv = self.nv = lp.objective.size
        n_user = self.n_user = len(lp.relations)
        lower, upper = lp.lower, lp.upper
        shift = [0.0 if lo is None else float(lo) for lo in lower]
        self.shift, self.shifted = np.array(shift), any(shift)
        # User rows, then one row x_j <= u_j per upper bound.  The shift
        # comes off with one product per row, since A @ shift sums in another
        # order and can move a last bit; with nothing shifted every product
        # is +0.0.
        rhs = lp.rhs
        if self.shifted:
            rhs = np.array([bi - a @ self.shift for a, bi in zip(lp.constraints, rhs)])
        ub = (tuple([j for j, up in enumerate(upper) if up is not None])
              if upper.count(None) < nv else ())
        if ub:
            rhs = np.concatenate((rhs, [float(upper[j]) - shift[j] for j in ub]))
        nrows = self.nrows = n_user + len(ub)
        # The layout reads the rhs's signs after the shift, which can turn them.
        layout = (_layout if ub else _cached_layout)(nv, lp.relations, lower, ub,
                                                     (rhs < 0).tobytes())
        (self.free_extra, self.flip, negated, slack, self.needs_artificial, self.start_basis,
         self.art_cells, self.cost_rows, ncols_struct, ncols, self.budget) = layout
        self.ncols_struct, self.ncols = ncols_struct, ncols

        # Rows whose rhs is negative are negated; then the slack block's
        # diagonal.
        A = np.zeros((nrows, ncols))
        S = A[:, :ncols_struct]
        S[:n_user, :nv] = lp.constraints
        if ub:
            S[range(n_user, nrows), ub] = 1.0
        if self.free_extra:
            # A free variable's second column carries the negated coefficients.
            S[:, nv:] = -S.take(self.free_extra, axis=1)
        if negated:
            S *= self.flip[:, None]
        A.ravel()[ncols_struct::ncols + 1] = slack
        self.A, self.b = A, rhs * self.flip
        # Every b_i is >= 0 or -0.0, so max(b) is max|b_i| once 1.0 is added.
        self.resid_tol = CHECK_TOL * (1.0 + max(self.b.tolist(), default=0.0))
        self._start = _UNSET

    def phase_one(self):
        """``_phase_one``'s outcome, computed once: (T, basis, kept, R),
        None when the constraints are infeasible, or the LpNumericalError
        that phase 1 raised.  R is a C-ordered copy of the rows of T's
        row-major view above its objective row, which every phase 2 reads
        (see ``_phase_two``).  Callers must not modify the returned arrays.
        """
        if self._start is _UNSET:
            try:
                start = _phase_one(self)
            except LpNumericalError as err:
                start = err
            if isinstance(start, tuple):
                start += (start[0].T[:-1].copy(),)
            self._start = start
        return self._start


def _read_only(values, dtype=float):
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def _layout(nv, relations, lower, ub, negative):
    """Everything in a standard form that the program's shape fixes: the
    variable count, the relations, the lower bounds, the capped variables
    ``ub`` and ``negative``, one byte per row (upper-bound rows included)
    that is 1 where the rhs after the shift is negative.

    Returns, in this order: the free variables; each row's flip, -1.0
    where its rhs is negative, and whether any is -1.0; the slack block's
    diagonal; the rows that need an artificial; phase 1's starting basis,
    the flat cells of its artificials' unit entries and the rows its cost
    row is made of; the structural and total column counts, and the pivot
    budget.  Every array is read-only.
    """
    # The free-variable scan runs only when the tuple holds a None.
    free_extra = tuple([j for j, lo in enumerate(lower) if lo is None]) if None in lower else ()
    if ub and any(lower[j] is None for j in ub):
        raise LpError("upper bound on a free variable is not supported")
    nrows = len(negative)
    ncols_struct = nv + len(free_extra)
    ncols = ncols_struct + nrows
    # A row with a negative rhs is negated, which swaps <= and >=; the slack
    # of a <= row enters with +1, of a >= row with -1.
    rels = relations + (LE,) * len(ub)
    flip = [-1.0 if neg else 1.0 for neg in negative]
    slack = [0.0 if rel == EQ else f if rel == LE else -f for rel, f in zip(rels, flip)]
    # Phase 1's starting basis: the slack of each row, or an artificial (a
    # column past ncols) for a row whose slack cannot start at b_i.  Also
    # the flat positions in phase 1's tableau, stored by columns, of each
    # artificial's unit entry and of its 1 in the last row, and the rows
    # its cost row is made of.
    art = tuple([i for i, sl in enumerate(slack) if sl <= 0.0])
    start_basis = list(range(ncols_struct, ncols))
    for j, i in enumerate(art, ncols):
        start_basis[i] = j
    art_cells = [j * (nrows + 1) + r for j, i in enumerate(art, ncols) for r in (i, nrows)]
    return (free_extra, _read_only(flip), -1.0 in flip, _read_only(slack), art,
            _read_only(start_basis, np.intp), _read_only(art_cells, np.intp),
            _read_only((nrows,) + art, np.intp), ncols_struct, ncols, 50 * (ncols + nrows))


_cached_layout = functools.lru_cache(maxsize=LAYOUT_MEMO_SIZE)(_layout)


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


def _phase_one(form: _ConstraintForm):
    """A feasible starting tableau for phase 2.

    Returns (T, basis, kept) with T stored by columns (see ``_pivot``), the
    artificial columns removed and a last row, T's last array column, for
    phase 2's objective, where ``kept`` lists the rows left after
    redundant ones were dropped, or is None when none was; or returns None
    when the constraints are infeasible; raises LpNumericalError when the
    budget runs out.  Depends on the constraints only, never on the
    objective.  An artificial column is an array row of T, so removing
    them moves the rhs row up and copies nothing else.
    """
    nrows, ncols, art = form.nrows, form.ncols, form.needs_artificial
    basis = form.start_basis.copy()
    T = np.zeros((ncols + len(art) + 1, nrows + 1))
    T[:ncols, :nrows] = form.A.T
    T[-1, :nrows] = form.b
    if not art:
        return T, basis, None
    # The artificials' unit entries, and a 1 at each in the last row; then
    # phase 1's costs: that row minus every artificial row, subtracted one
    # row at a time in row order, on T.T, the tableau's row-major view.
    T.ravel()[form.art_cells] = 1.0
    np.subtract.reduce(T.T.take(form.cost_rows, axis=0), out=T[:, -1])
    _run_simplex(T, basis, form.budget, bounded_objective=True)
    if -T[-1, -1] > CHECK_TOL:
        return None
    # Drive leftover artificials out of the basis; an artificial stuck in
    # an all-zero row marks a redundant constraint, which is dropped.
    dropped = []
    in_basis = basis.tolist()
    if max(in_basis) >= ncols:
        for i in [i for i, j in enumerate(in_basis) if j >= ncols]:
            row = np.abs(T[:ncols, i])
            cand = (row > 1e-7).nonzero()[0]
            if cand.size == 0:
                cand = (row > TOL).nonzero()[0]
            if cand.size:
                _pivot(T, i, int(cand[0]), basis)
            else:
                dropped.append(i)
    # The rhs column moves into the first artificial column's array row.
    T[ncols] = T[-1]
    T = T[: ncols + 1]
    if not dropped:
        return T, basis, None
    kept = np.setdiff1d(np.arange(nrows), dropped)
    return T.take(np.append(kept, nrows), axis=1), basis[kept], kept


def _phase_two(form: _ConstraintForm, obj: _Objective, start):
    """Optimize the objective from a copy of phase 1's tableau.

    The starting objective row is c - c_B @ R, with R the rows above it
    in a C-ordered, row-major copy that phase 1's memo holds, so each
    form copies them once however many objectives it solves.  BLAS sums
    c_B @ M in another order when M is the column-major view T.T[:-1], so
    the product on that view can differ in its last bits.  Returns the
    terminal basis, or None when the objective is unbounded; raises
    LpNumericalError when the budget runs out.
    """
    T, basis = start[0].copy(), start[1].copy()
    T[:, -1] = obj.c_row - obj.c_row[basis] @ start[3]
    status = _run_simplex(T, basis, form.budget)
    return None if status == UNBOUNDED else basis


def _extract(form: _ConstraintForm, obj: _Objective, basis, kept):
    """Primal/dual recovery from a terminal basis, with its certificate.

    Both solves run against the unpivoted data, so tableau drift cannot leak
    into the returned solution.  Returns None unless the basis is primal
    feasible (no basic value below -CHECK_TOL, and a residual within
    ``resid_tol``) and dual feasible (no reduced cost c - A'y below
    -CHECK_TOL (1 + max|c|)); the caller then repairs it.
    """
    A, b = form.A, form.b
    Bmat, bk = A.take(basis, axis=1), b
    if kept is not None:
        Bmat, bk = Bmat[kept], b[kept]
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
    least = min((obj.c_row[:-1] - y_std @ A).tolist())
    if least < -CHECK_TOL and least < -CHECK_TOL * (1.0 + np.abs(obj.c_std).max()):
        return None

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


def _repair(form: _ConstraintForm, obj: _Objective, basis, kept):
    """Dual simplex pivots from a terminal basis that ``_extract`` rejected,
    on a tableau rebuilt at that basis from the unpivoted A and b, and
    stored by columns like every tableau (see ``_pivot``); then, once it
    is primal feasible, ``_run_simplex`` on that tableau.

    While a basic value is below -TOL, the row with the most negative one
    leaves, and the column with the least ratio of its reduced cost
    (clamped at 0) to the row's negative entry enters, lowest index on
    ties.  Returns the optimal basis, or None when B is singular, a leaving
    row has no negative entry, the simplex ends unbounded or a budget runs
    out.
    """
    Ab = np.column_stack((form.A, form.b))[slice(None) if kept is None else kept]
    try:
        rows = np.linalg.solve(Ab.take(basis, axis=1), Ab)
    except np.linalg.LinAlgError:
        return None
    T = np.vstack((rows, obj.c_row - obj.c_row.take(basis) @ rows)).T.copy()
    reduced, rhs = T[:-1, -1], T[-1, :-1]
    for _ in range(form.budget):
        row = int(rhs.argmin())
        if rhs[row] >= -TOL:
            try:
                return basis if _run_simplex(T, basis, form.budget) == OPTIMAL else None
            except LpNumericalError:
                return None
        entries = T[:-1, row]
        cand = (entries < -TOL).nonzero()[0]
        if not cand.size:
            return None
        ratios = np.maximum(reduced[cand], 0.0) / -entries[cand]
        _pivot(T, row, int(cand[ratios.argmin()]), basis)
    return None


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a LinearProgram, returning primal, duals and both objectives.

    The returned duals are oriented so that for every optimal solve the
    dual objective (rhs-weighted multipliers plus bound terms) equals the
    primal objective up to round-off; signs follow the usual convention
    (e.g. a binding <= row in a max problem carries a nonnegative dual).
    A solve is one phase 1 (memoized on the program's standard form, see
    ``LinearProgram.with_objective``) and one phase 2.
    An optimum is returned only with a basis certified on the unpivoted
    data (``_extract``); a basis that fails is repaired (``_repair``), and
    LpNumericalError is raised if the repaired basis fails too.
    """
    form = lp._form
    start = form.phase_one()
    if isinstance(start, LpNumericalError):
        # A fresh error per solve: the memoized one is shared.
        raise LpNumericalError(*start.args)
    if start is None:
        return LpSolution(status=INFEASIBLE)
    obj = _Objective(lp, form)
    basis = _phase_two(form, obj, start)
    if basis is None:
        return LpSolution(status=UNBOUNDED)
    sol = _extract(form, obj, basis, start[2])
    if sol is None:
        basis = _repair(form, obj, basis, start[2])
        sol = None if basis is None else _extract(form, obj, basis, start[2])
        _log.debug("%s the rejected terminal basis of a %d-row program",
                   "could not repair" if sol is None else "repaired", form.nrows)
        if sol is None:
            raise LpNumericalError("repaired terminal basis failed feasibility checks")
    return sol


def solve_zero_sum(A) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimax strategies and value of the zero-sum game with payoff matrix A.

    The row player maximizes x'Ay, the column player minimizes it.  One LP
    gives both: max v subject to (A'x)_j >= v for every column j, with x on
    the simplex.  By LP duality its multipliers on those n rows, negated and
    normalized, are a minimax strategy y of the column player.  Returns
    (x, y, value), certified on A itself: min(A'x) >= value - tol and
    max(Ay) <= value + tol with tol = 1e-8 (1 + |value|), else
    LpNumericalError; the kernel certifies the LP, this check the claim
    about the game.  x is the LP's vertex solution and y its basis's
    multipliers, so ties inherit the simplex's pivot rule.
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
