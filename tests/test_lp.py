import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashdescent.game import Profile, regrets
from nashdescent.lp import (
    EQ,
    GE,
    LE,
    INFEASIBLE,
    OPTIMAL,
    RESTRICTED_UPDATE_CELLS,
    UNBOUNDED,
    LinearProgram,
    LpError,
    LpNumericalError,
    solve_lp,
    solve_zero_sum,
)

from .golden_corpus import row_block
from .oracles import zero_sum_value_enum


def test_forced_minimum():
    sol = solve_lp(LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, 1.0]], [GE], [1.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_single_binding_row_dual():
    sol = solve_lp(LinearProgram(np.array([1.0]), "max", [[1.0]], [LE], [0.5]))
    assert sol.objective == pytest.approx(0.5, abs=1e-12)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_and_unbounded_verdicts():
    sol = solve_lp(LinearProgram(np.array([1.0]), "min", [[1.0], [1.0]], [GE, LE], [2.0, 1.0]))
    assert sol.status == INFEASIBLE
    sol = solve_lp(LinearProgram(np.array([-1.0]), "min", [], [], []))
    assert sol.status == UNBOUNDED
    # No rows at all: the optimum sits on the lower bounds.
    sol = solve_lp(LinearProgram(np.array([1.0, 0.0]), "min", np.empty((0, 2)), (), [],
                                 lower=[0.5, 0.0]))
    assert sol.status == OPTIMAL and sol.x.tolist() == [0.5, 0.0]
    assert sol.objective == 0.5 and sol.duals.size == 0


def test_malformed_programs_rejected():
    with pytest.raises(LpError):
        LinearProgram(np.array([1.0]), "mid", [], [], [])
    for constraints, relations, rhs in [
        ([[1.0, 2.0]], [LE], [1.0]),          # row wider than the objective
        ([1.0], [LE], [1.0]),                 # a row, not a block
        ([[1.0], [2.0]], [LE], [1.0, 2.0]),   # fewer relations than rows
        ([[1.0]], [LE], [1.0, 2.0]),          # more rhs than rows
        ([[1.0]], ["<>"], [1.0]),             # unknown relation
        ([[1.0]], [LE], [np.inf]),            # infinite rhs
        ([[1.0]], [LE], [np.nan]),            # NaN rhs
        ([], [LE], [1.0]),                    # a relation with no row
    ]:
        with pytest.raises(LpError):
            LinearProgram(np.array([1.0]), "min", constraints, relations, rhs)


def test_malformed_bounds_rejected():
    with pytest.raises(LpError):
        LinearProgram(np.array([1.0, 1.0]), "min", [], [], [], lower=[0.0])
    with pytest.raises(LpError):
        LinearProgram(np.array([1.0]), "min", [], [], [], lower=[None], upper=[1.0])


@pytest.mark.parametrize("bounds", [
    {"lower": [np.nan]}, {"lower": [np.inf]}, {"lower": [-np.inf]},
    {"upper": [np.nan]}, {"upper": [np.inf]}, {"upper": [-np.inf]},
], ids=["lower-nan", "lower-inf", "lower-neg-inf", "upper-nan", "upper-inf", "upper-neg-inf"])
def test_non_finite_bounds_rejected(bounds):
    # None is the only way to say free or unbounded.
    with pytest.raises(LpError):
        LinearProgram(np.array([1.0]), "min", [[1.0]], [LE], [1.0], **bounds)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg-inf"])
def test_non_finite_coefficients_rejected(bad):
    # A NaN objective once solved to "optimal" with objective NaN, and a NaN
    # coefficient to an "optimal" x: a NaN residual passes no check.
    with pytest.raises(LpError):
        LinearProgram(np.array([1.0, bad]), "min", [[1.0, 1.0]], (EQ,), [1.0])
    with pytest.raises(LpError):
        LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, bad]], (EQ,), [1.0])
    base = LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, 1.0]], (EQ,), [1.0])
    with pytest.raises(LpError):
        base.with_objective(np.array([bad, 1.0]), "max")


def test_zero_bounds_are_bounds():
    # An upper bound of 0.0 is a bound, a lower bound of 0.0 the default.
    sol = solve_lp(LinearProgram(np.array([-1.0, -1.0]), "min", [[1.0, 1.0]], [LE], [5.0],
                                 lower=[0.0, 0.0], upper=[0.0, 2.0]))
    assert sol.status == OPTIMAL and sol.x.tolist() == [0.0, 2.0] and sol.objective == -2.0


def test_bounds_and_free_variables():
    # min x - t  s.t.  t <= 3, 0 <= x <= 2: optimum x=0, t=3
    lp = LinearProgram(
        np.array([1.0, -1.0]), "min", [[0.0, 1.0]], [LE], [3.0],
        lower=[0.0, None], upper=[2.0, None],
    )
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_strong_duality_on_random_programs(seed):
    rng = np.random.default_rng(seed)
    nv, nc = int(rng.integers(2, 7)), int(rng.integers(1, 7))
    c = rng.normal(size=nv)
    rows = [(rng.normal(size=nv), rng.choice([LE, GE, EQ]), float(rng.normal()))
            for _ in range(nc)]
    sol = solve_lp(LinearProgram(c, "min", *row_block(rows, nv), upper=[3.0] * nv))
    if sol.status == OPTIMAL:
        assert abs(sol.objective - sol.dual_objective) <= 1e-7 * (1 + abs(sol.objective))


def test_direction_program_value_at_tight_point(eq1, cons):
    # the smoothed-derivative LP at the tight stationary profile has value b
    from nashdescent.descent import direction

    d = direction(eq1.game, eq1.profile)
    f = regrets(eq1.game, eq1.profile).f
    assert d.value == pytest.approx(f, abs=1e-9)
    assert d.value == pytest.approx(cons.b, abs=1e-9)


def test_zero_sum_matching_pennies():
    x, y, v = solve_zero_sum(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert v == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)
    assert np.allclose(y, [0.5, 0.5], atol=1e-9)


def test_zero_sum_1x1():
    x, y, v = solve_zero_sum(np.array([[1.0]]))
    assert v == pytest.approx(1.0)
    assert x[0] == 1.0 and y[0] == 1.0


def test_zero_sum_value_matches_enumeration_on_tight_R(eq1):
    A = eq1.game.R
    _, _, v = solve_zero_sum(A)
    assert v == pytest.approx(zero_sum_value_enum(A), abs=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_zero_sum_saddle_conditions(seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, size=(int(rng.integers(2, 6)), int(rng.integers(2, 6))))
    x, y, v = solve_zero_sum(A)
    assert (A.T @ x).min() >= v - 1e-8
    assert (A @ y).max() <= v + 1e-8
    # the saddle condition against many random deviations
    probe = np.random.default_rng(seed + 1)
    for _ in range(100):
        yp = probe.dirichlet(np.ones(A.shape[1]))
        xp = probe.dirichlet(np.ones(A.shape[0]))
        assert x @ A @ yp >= v - 1e-8
        assert xp @ A @ y <= v + 1e-8


def test_zero_sum_scaling_property():
    rng = np.random.default_rng(5)
    A = rng.uniform(size=(4, 4))
    x1, y1, v1 = solve_zero_sum(A)
    x2, y2, v2 = solve_zero_sum(2.5 * A)
    assert v2 == pytest.approx(2.5 * v1, abs=1e-8)
    assert np.array_equal(np.nonzero(x1 > 1e-9)[0], np.nonzero(x2 > 1e-9)[0])
    assert np.array_equal(np.nonzero(y1 > 1e-9)[0], np.nonzero(y2 > 1e-9)[0])


def test_zero_sum_is_one_lp(monkeypatch):
    import nashdescent.lp as lpmod

    seen, real = [], lpmod.solve_lp
    monkeypatch.setattr(lpmod, "solve_lp", lambda lp: seen.append(lp) or real(lp))
    solve_zero_sum(np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 1.5]]))
    assert len(seen) == 1


def test_zero_sum_rejects_duals_that_fail_the_saddle_check(monkeypatch):
    import nashdescent.lp as lpmod

    real = lpmod.solve_lp

    def doctored(lp):
        sol = real(lp)
        sol.duals[:2] = [-1.0, 0.0]  # all of y on column 0, which pays the row player 1
        return sol

    monkeypatch.setattr(lpmod, "solve_lp", doctored)
    with pytest.raises(LpNumericalError, match="saddle check"):
        solve_zero_sum(np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_iteration_budget_error_is_distinct():
    from nashdescent.lp import LpNumericalError

    assert issubclass(LpNumericalError, RuntimeError)


# ---------------------------------------------------------------------------
# Objectives sharing one constraint set.


def outcome(lp):
    """solve_lp's answer, or the error it raised, in a comparable form."""
    try:
        return solve_lp(lp)
    except LpNumericalError as err:
        return str(err)


def same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    pairs = ((got.x, want.x), (got.duals, want.duals))
    return (got.status == want.status
            and all(g is w or np.array_equal(g, w) for g, w in pairs)
            and got.objective == want.objective
            and got.dual_objective == want.dual_objective)


def fresh(c, sense, rows, lower, upper):
    return outcome(LinearProgram(c, sense, *row_block(rows, c.size), lower=lower, upper=upper))


small = st.integers(-3, 3).map(float)


@st.composite
def programs(draw):
    """Small programs with EQ/GE/LE rows, free and shifted variables, and
    upper bounds on some of the rest; many are infeasible or unbounded."""
    nv = draw(st.integers(1, 5))
    lower, upper = [], []
    for _ in range(nv):
        lo = draw(st.sampled_from([0.0, None, -1.5, 0.5]))
        lower.append(lo)
        width = draw(st.sampled_from([None, None, 1.0, 2.5])) if lo is not None else None
        upper.append(None if width is None else lo + width)
    rows = [(np.array(draw(st.lists(small, min_size=nv, max_size=nv))),
             draw(st.sampled_from([LE, EQ, GE])), draw(small))
            for _ in range(draw(st.integers(0, 5)))]
    objectives = [(np.array(draw(st.lists(small, min_size=nv, max_size=nv))),
                   draw(st.sampled_from(["min", "max"])))
                  for _ in range(draw(st.integers(2, 4)))]
    return rows, lower, upper, objectives


@settings(max_examples=300, deadline=None)
@given(programs())
def test_shared_phase_one_matches_fresh_solves(prog):
    rows, lower, upper, objectives = prog
    (c0, s0), rest = objectives[0], objectives[1:]
    base = LinearProgram(c0, s0, *row_block(rows, c0.size), lower=lower, upper=upper)
    assert same_outcome(outcome(base), fresh(c0, s0, rows, lower, upper))
    for c, sense in rest:
        assert same_outcome(outcome(base.with_objective(c, sense)),
                            fresh(c, sense, rows, lower, upper))


def test_shared_phase_one_statuses():
    # 0 <= x0 <= 2, x1 free, x0 + x1 >= 1: bounded below in x0, not in x1
    lower, upper = [0.0, None], [2.0, None]
    base = LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, 1.0]], [GE], [1.0],
                         lower=lower, upper=upper)
    sol = solve_lp(base)
    assert sol.status == OPTIMAL and sol.objective == pytest.approx(1.0)
    assert solve_lp(base.with_objective(np.array([0.0, 1.0]), "max")).status == UNBOUNDED
    sol = solve_lp(base.with_objective(np.array([-1.0, 0.0]), "min"))
    assert sol.status == OPTIMAL and sol.x[0] == pytest.approx(2.0)
    # The same region cut empty: infeasible under every objective.
    cut = LinearProgram(np.array([1.0, 0.0]), "min", [[1.0, 1.0], [1.0, 1.0]], [GE, LE],
                        [1.0, 0.0], lower=lower, upper=upper)
    assert solve_lp(cut).status == INFEASIBLE
    for c in (np.array([1.0, 0.0]), np.array([0.0, -1.0])):
        assert solve_lp(cut.with_objective(c, "max")).status == INFEASIBLE


def test_with_objective_validates_and_shares():
    base = LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, 1.0]], [GE], [1.0])
    other = base.with_objective(np.array([2.0, 1.0]), "max")
    assert other.constraints is base.constraints
    assert other.relations is base.relations and other.rhs is base.rhs
    assert other.lower is base.lower and other.upper is base.upper
    assert other._form is base._form
    assert base.objective.tolist() == [1.0, 1.0] and base.sense == "min"
    with pytest.raises(LpError):
        base.with_objective(np.array([1.0]), "min")
    with pytest.raises(LpError):
        base.with_objective(np.array([1.0, 1.0]), "mid")


def test_phase_one_runs_once_per_constraint_set(monkeypatch):
    import nashdescent.lp as lpmod

    calls = []
    real = lpmod._phase_one

    def counted(form):
        calls.append(form)
        return real(form)

    def failing(form):
        calls.append(form)
        raise LpNumericalError("phase 1 budget")

    objectives = (np.array([1.0, 1.0]), np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    monkeypatch.setattr(lpmod, "_phase_one", failing)
    base = LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, 1.0]], [GE], [1.0])
    for c in objectives:
        with pytest.raises(LpNumericalError, match="phase 1 budget"):
            solve_lp(base.with_objective(c, "min"))
    # The error is memoized with the form, and raised afresh by each solve.
    assert calls == [base._form]
    monkeypatch.setattr(lpmod, "_phase_one", counted)
    calls.clear()
    base = LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, 1.0]], [GE], [1.0])
    for c in objectives:
        assert solve_lp(base.with_objective(c, "min")).status == OPTIMAL
    assert calls == [base._form]
    calls.clear()
    empty = LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, 1.0], [1.0, 1.0]], [GE, LE],
                          [1.0, 0.5])
    for c in (np.array([1.0, 1.0]), np.array([-1.0, 0.0])):
        assert solve_lp(empty.with_objective(c, "max")).status == INFEASIBLE
    assert calls == [empty._form]


# ---------------------------------------------------------------------------
# Phase 1's frozen columns.


def test_phase_one_freezes_an_unbounded_looking_column():
    import nashdescent.lp as lpmod

    # The kernel stores a tableau by columns: one array row per column x0,
    # x1, s0, s1 and rhs, each holding rows 0 and 1 and then the reduced
    # cost.  x0 prices out negative but has no positive entry: phase 1
    # cannot be unbounded, so x0 is frozen and x1 enters at row 0 (ratio
    # 1 < 2).  That pivot gives x0 a positive entry in row 1, yet x0 stays
    # frozen.
    def tableau():
        return np.array([[-1.0, 0.0, -1.0],
                         [1.0, 1.0, -1.0],
                         [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0],
                         [1.0, 2.0, -1.0]])

    T, basis = tableau(), np.array([2, 3])
    status = lpmod._run_simplex(T, basis, 10, bounded_objective=True)
    assert status == OPTIMAL
    assert basis.tolist() == [1, 3]
    assert T.tolist() == [[-1.0, 1.0, -2.0],
                          [1.0, 0.0, 0.0],
                          [1.0, -1.0, 1.0],
                          [0.0, 1.0, 0.0],
                          [1.0, 1.0, 0.0]]
    # A frozen column is frozen for one run only: the next run enters it.
    assert lpmod._run_simplex(T, basis, 10, bounded_objective=True) == OPTIMAL
    assert basis.tolist() == [1, 0]
    # Phase 2 has no floor under its objective: the same column is unbounded.
    T, basis = tableau(), np.array([2, 3])
    assert lpmod._run_simplex(T, basis, 10) == UNBOUNDED
    assert basis.tolist() == [2, 3]


# ---------------------------------------------------------------------------
# Differential test against HiGHS.


def highs_outcome(lp, presolve=True):
    """(status, objective) of the same program under scipy's HiGHS.

    Without presolve, HiGHS also tightens its primal and dual feasibility
    tolerances from 1e-7 to 1e-9: a program whose optimum moves fast with
    its rhs can gain much by breaking a row within 1e-7.  On one
    equalized-dual LP of the descent, with duals near 3e7, a point 2.8e-8
    outside the dual-optimal face row reaches 0.2548, where the optimum is
    0.9962."""
    from scipy.optimize import linprog

    sign = 1.0 if lp.sense == "min" else -1.0
    rows = list(zip(lp.constraints, lp.relations, lp.rhs))
    ub = [(a, b) if rel == LE else (-a, -b) for a, rel, b in rows if rel != EQ]
    eq = [(a, b) for a, rel, b in rows if rel == EQ]
    careful = {} if presolve else {"primal_feasibility_tolerance": 1e-9,
                                   "dual_feasibility_tolerance": 1e-9}
    res = linprog(
        sign * lp.objective,
        A_ub=np.array([a for a, _ in ub]) if ub else None,
        b_ub=np.array([b for _, b in ub]) if ub else None,
        A_eq=np.array([a for a, _ in eq]) if eq else None,
        b_eq=np.array([b for _, b in eq]) if eq else None,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
        options={"presolve": presolve, **careful},
    )
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, res.message)
    return status, (sign * res.fun if res.status == 0 else None)


def agrees_with_highs(lp, sol, presolve=True):
    status, objective = highs_outcome(lp, presolve)
    if status != sol.status:
        return False
    return status != OPTIMAL or abs(sol.objective - objective) <= 1e-7 * (1.0 + abs(objective))


def test_differential_against_highs():
    pytest.importorskip("scipy")
    from .golden_corpus import random_program, real_lps

    rng = np.random.default_rng(2024)
    programs = [random_program(rng) for _ in range(1200)]
    programs += [lp for _, lp, _ in real_lps()]
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for lp in programs:
        sol = solve_lp(lp)
        statuses[sol.status] += 1
        # With presolve on, HiGHS reports some unbounded programs as
        # infeasible; a disagreement stands only if it survives presolve off.
        assert agrees_with_highs(lp, sol) or agrees_with_highs(lp, sol, presolve=False), (
            lp, sol, highs_outcome(lp, presolve=False))
    assert min(statuses.values()) >= 100, statuses


# ---------------------------------------------------------------------------
# The kernel against independent references: every optimal answer passes
# the exact certificate of oracles.lp_certified, and every status and
# optimal objective agrees with HiGHS.  Where the kernel's pivots end on a
# basis that fails its own checks, it repairs the basis; a repaired answer
# must pass the same two checks.


def answer_bits(out):
    """Every bit of one answer: status, x, duals and both objectives with
    their types, or the error raised."""
    if isinstance(out, LpNumericalError):
        return "error", str(out)
    return (out.status,
            None if out.x is None else out.x.tobytes(),
            None if out.duals is None else out.duals.tobytes(),
            type(out.objective), repr(out.objective),
            type(out.dual_objective), repr(out.dual_objective))


def phase_one_cells(form):
    """The cells of phase 1's tableau, artificial columns included: the
    largest tableau a program pivots on."""
    return (form.nrows + 1) * (form.ncols + len(form.needs_artificial) + 1)


def assert_kernel_certified(lp):
    """solve_lp's answer to lp passes the exact certificate when it is
    optimal, and agrees with HiGHS in status and optimal objective.

    With presolve on, HiGHS reports some unbounded programs as infeasible;
    a disagreement stands only if it survives presolve off, where HiGHS
    also holds its rows to 1e-9 (``highs_outcome``)."""
    from .oracles import lp_certified

    sol = solve_lp(lp)
    assert sol.status != OPTIMAL or lp_certified(lp, sol), (lp, sol)
    assert agrees_with_highs(lp, sol) or agrees_with_highs(lp, sol, presolve=False), (
        lp, sol, highs_outcome(lp, presolve=False))
    return sol


def test_extract_rejects_a_basis_that_is_not_dual_feasible():
    import nashdescent.lp as lpmod

    # min -x0 - 0.5 x1  s.t.  x0 + x1 <= 1: columns x0, x1, s0.  The slack
    # basis is feasible (x = 0) but x0 prices out at -1; the x1 basis is
    # feasible too, but x0 still prices out at -0.5; the x0 basis is the
    # optimum.
    lp = LinearProgram(np.array([-1.0, -0.5]), "min", [[1.0, 1.0]], [LE], [1.0])
    form, obj = lp._form, lpmod._Objective(lp, lp._form)
    assert lpmod._extract(form, obj, np.array([2]), None) is None
    assert lpmod._extract(form, obj, np.array([1]), None) is None
    sol = lpmod._extract(form, obj, np.array([0]), None)
    assert sol.x.tolist() == [1.0, 0.0] and sol.objective == -1.0


def test_repair_takes_dual_simplex_pivots(monkeypatch):
    import nashdescent.lp as lpmod

    pivots, real = [], lpmod._pivot

    def recording(T, row, col, basis):
        pivots.append((row, col))
        real(T, row, col, basis)

    monkeypatch.setattr(lpmod, "_pivot", recording)
    # min x0 + x1  s.t.  x0 >= 1, x1 >= 2: columns x0, x1, s0, s1.  At the
    # slack basis x_B = (-1, -2), and no reduced cost is negative.  The row
    # with the most negative basic value leaves first.
    lp = LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, 0.0], [0.0, 1.0]], [GE, GE],
                       [1.0, 2.0])
    form, obj = lp._form, lpmod._Objective(lp, lp._form)
    basis = lpmod._repair(form, obj, np.array([2, 3]), None)
    assert pivots == [(1, 1), (0, 0)] and basis.tolist() == [0, 1]
    assert lpmod._extract(form, obj, basis, None).x.tolist() == [1.0, 2.0]
    # A reduced cost below 0 by round-off counts as 0, so x0 and x1 tie and
    # the lower index enters.
    lp = LinearProgram(np.array([0.0, -1e-12]), "min", [[1.0, 1.0]], [GE], [1.0])
    assert lpmod._repair(lp._form, lpmod._Objective(lp, lp._form), np.array([2]),
                         None).tolist() == [0]


def test_certificate_rejects_wrong_answers():
    import dataclasses

    from .oracles import lp_certificate, lp_certified

    # max x0 + 2 x1  s.t.  x0 + x1 <= 1, x0 - x1 >= -3, 0 <= x1 <= 0.75, x2 free
    # in an equality: the optimum is x = (0.25, 0.75, -1), f = 1.75.
    lp = LinearProgram(np.array([1.0, 2.0, 0.0]), "max",
                       [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 1.0]], [LE, GE, EQ],
                       [1.0, -3.0, -0.25], lower=[0.0, 0.0, None], upper=[None, 0.75, None])
    sol = solve_lp(lp)
    assert sol.x.tolist() == [0.25, 0.75, -1.0] and sol.objective == 1.75
    assert lp_certified(lp, sol) and max(lp_certificate(lp, sol)) == 0
    wrong = {
        "infeasible x": dataclasses.replace(sol, x=sol.x + [0.0, 1e-3, 0.0]),
        "off-optimal x": dataclasses.replace(sol, x=sol.x - [0.25, 0.0, 0.0]),
        "wrong-signed dual": dataclasses.replace(sol, duals=sol.duals * [-1.0, 1.0, 1.0]),
        "objective": dataclasses.replace(sol, objective=1.75 + 1e-6),
    }
    for name, bad in wrong.items():
        assert not lp_certified(lp, bad), name


def outcome_or_error(lp):
    try:
        return solve_lp(lp)
    except LpNumericalError as err:
        return err


@pytest.fixture(scope="module")
def captured_programs(solver_runs):
    """Every LP of the solver runs and of three seeded 5x5 generate_tight
    draws, with the balance, direction, equalized-dual and tight sites."""
    from nashdescent.generator import generate_tight, sample_inputs

    from .golden_corpus import captured_lps

    out = []
    rng = np.random.default_rng(99)
    with captured_lps(out):
        for solver, game, p0, delta in solver_runs:
            solver(game, p0, delta, max_iter=200)
        for _ in range(3):
            generate_tight(sample_inputs(5, 5, "disjoint", rng, pure_duals=False), rng=rng)
    return out


def test_kernel_matches_reference_on_captured_programs(captured_programs, monkeypatch):
    import nashdescent.lp as lpmod

    repaired, real = [], lpmod._repair

    def recording(form, *args):
        repaired.append(form)
        return real(form, *args)

    monkeypatch.setattr(lpmod, "_repair", recording)
    sites = {"repaired": 0}
    for site, lp, _ in captured_programs:
        repaired.clear()
        assert_kernel_certified(lp)
        sites["repaired"] += bool(repaired)
        sites[site] = sites.get(site, 0) + 1
    assert sites["balance"] >= 40 and sites["direction"] >= 40, sites
    assert sites["equalized"] >= 20 and sites["tight"] >= 5 and sites["repaired"] >= 1, sites


def test_kernel_matches_reference_on_seeded_programs():
    from .golden_corpus import random_program

    # The golden corpus's 60 programs, then 400 more from another seed.
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for seed, count in ((131, 60), (77, 400)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            statuses[assert_kernel_certified(random_program(rng)).status] += 1
    assert min(statuses.values()) >= 40, statuses


@settings(max_examples=200, deadline=None)
@given(programs())
def test_kernel_matches_reference_on_drawn_programs(prog):
    rows, lower, upper, objectives = prog
    for c, sense in objectives:
        assert_kernel_certified(
            LinearProgram(c, sense, *row_block(rows, c.size), lower=lower, upper=upper))


# ---------------------------------------------------------------------------
# The two updates of a pivot: at or below RESTRICTED_UPDATE_CELLS cells, a
# rank-1 update of the whole tableau; above it, an update of only the
# columns where the pivot row is nonzero.  Each is forced by moving the
# cutoff, which chooses nothing else.


def rebuilt(lp):
    """A fresh program with lp's data, and so a fresh standard form."""
    return LinearProgram(lp.objective, lp.sense, lp.constraints, lp.relations, lp.rhs,
                         lower=lp.lower, upper=lp.upper)


def kernel_run(lp):
    """(phase-1 basis, terminal basis, answer bits) of a fresh copy of lp."""
    import nashdescent.lp as lpmod

    fresh = rebuilt(lp)
    form = fresh._form
    start = form.phase_one()
    if not isinstance(start, tuple):
        return repr(start), None, answer_bits(outcome_or_error(fresh))
    terminal = lpmod._phase_two(form, lpmod._Objective(fresh, form), start)
    return (start[1].tolist(), None if terminal is None else terminal.tolist(),
            answer_bits(outcome_or_error(fresh)))


@pytest.fixture(scope="module")
def tight_7x7_programs():
    """The tight LPs of one seeded 7x7 generate_tight draw."""
    from nashdescent.generator import generate_tight, sample_inputs

    from .golden_corpus import captured_lps

    out = []
    rng = np.random.default_rng(707)
    with captured_lps(out):
        while not generate_tight(sample_inputs(7, 7, "disjoint", rng, pure_duals=False),
                                 rng=rng):
            pass
    return [lp for _, lp, _ in out]


def test_both_pivot_updates_give_the_same_bits(monkeypatch, captured_programs,
                                               tight_7x7_programs):
    """Every program reaches the same bases and the same answer bytes with
    the cutoff at 0 (restricted updates), above every tableau (whole
    updates) and at its value; each run starts from an empty layout memo."""
    import math

    import nashdescent.lp as lpmod

    from .golden_corpus import random_program, real_lps

    rng = np.random.default_rng(131)
    corpus = [random_program(rng) for _ in range(60)] + [lp for _, lp, _ in real_lps()]
    tight_5x5 = [lp for site, lp, _ in captured_programs if site == "tight"]
    programs = corpus + [lp for _, lp, _ in captured_programs] + tight_7x7_programs
    assert len(tight_5x5) >= 6 and len(tight_7x7_programs) >= 8
    cells = [phase_one_cells(lp._form) for lp in tight_5x5 + tight_7x7_programs]
    assert min(cells) > RESTRICTED_UPDATE_CELLS
    runs = {}
    for name, cutoff in (("whole", math.inf), ("restricted", 0),
                         ("default", RESTRICTED_UPDATE_CELLS)):
        monkeypatch.setattr(lpmod, "RESTRICTED_UPDATE_CELLS", cutoff)
        lpmod._cached_layout.cache_clear()
        runs[name] = [kernel_run(lp) for lp in programs]
    assert runs["restricted"] == runs["whole"] == runs["default"]
    assert sum(bits[0] == OPTIMAL for _, _, bits in runs["whole"]) >= 250


def test_descent_tableaux_stay_at_or_under_the_cutoff(monkeypatch):
    """Every pivot of a 7x7 ts_solve and dfm_solve updates the whole
    tableau, and every pivot of a 4x4 tight program only changed columns."""
    import nashdescent.lp as lpmod
    from nashdescent.adjust import ts_solve
    from nashdescent.dfm import dfm_solve
    from nashdescent.experiments import lattice_profile
    from nashdescent.generator import generate_tight, sample_inputs, sample_tight_games

    cells, real = [], lpmod._pivot

    def recording(T, row, col, basis):
        cells.append(T.size)
        real(T, row, col, basis)

    rng = np.random.default_rng(77)
    insts = sample_tight_games(7, 7, 2, rng, groups=2)
    monkeypatch.setattr(lpmod, "_pivot", recording)
    for inst in insts:
        ts_solve(inst.game, lattice_profile(7, 7, 10, rng), 1e-3, max_iter=200)
        dfm_solve(inst.game, Profile(inst.input.x_star, inst.input.y_star), 1e-4, max_iter=200)
    assert len(cells) >= 50 and max(cells) <= RESTRICTED_UPDATE_CELLS, (len(cells), max(cells))
    cells.clear()
    while not generate_tight(sample_inputs(4, 4, "disjoint", rng, pure_duals=False), rng=rng):
        pass
    assert cells and min(cells) > RESTRICTED_UPDATE_CELLS, min(cells, default=None)


def test_phase_two_starts_from_the_row_major_cost_product(monkeypatch, captured_programs,
                                                         tight_7x7_programs):
    """Phase 2's first objective row is c - c_B @ R, byte for byte, with R
    the rows above it in a C-ordered, row-major copy of phase 1's tableau:
    BLAS sums the product on the column-major view in another order."""
    import nashdescent.lp as lpmod

    rows, real = [], lpmod._run_simplex

    def recording(T, basis, budget, bounded_objective=False):
        if not bounded_objective:
            rows.append(T[:, -1].tobytes())
        return real(T, basis, budget, bounded_objective)

    monkeypatch.setattr(lpmod, "_run_simplex", recording)
    sites = {}
    programs = [(site, lp) for site, lp, _ in captured_programs]
    programs += [("tight 7x7", lp) for lp in tight_7x7_programs]
    for site, lp in programs:
        fresh = rebuilt(lp)
        form = fresh._form
        start = form.phase_one()
        if not isinstance(start, tuple):
            continue
        obj = lpmod._Objective(fresh, form)
        rows.clear()
        lpmod._phase_two(form, obj, start)
        R = start[0].T.copy()
        assert R.flags.c_contiguous
        assert rows == [(obj.c_row - obj.c_row[start[1]] @ R[:-1]).tobytes()], site
        sites[site] = sites.get(site, 0) + 1
    assert min(sites.get(s, 0) for s in ("balance", "direction", "equalized")) >= 20, sites
    assert sites.get("tight", 0) >= 6 and sites.get("tight 7x7", 0) >= 8, sites


# ---------------------------------------------------------------------------
# The standard form's layout memo: a form built from a memo hit is the form
# a fresh build makes.


def form_bits(form):
    """Every part of a standard form that a solve reads."""
    return (form.A.tobytes(), form.A.shape, form.b.tobytes(), form.flip.tobytes(),
            form.shift.tobytes(), form.shifted, form.start_basis.tobytes(),
            form.art_cells.tobytes(), form.cost_rows.tobytes(), repr(form.resid_tol),
            form.budget, form.free_extra, form.needs_artificial, form.nrows, form.ncols,
            form.ncols_struct)


def test_layout_memo_hits_build_fresh_forms(monkeypatch, captured_programs):
    """A form built from a memo hit is the form an uncached build makes, and
    a program with upper bounds neither reads nor fills the memo."""
    import nashdescent.lp as lpmod

    from .golden_corpus import random_program

    # x0 >= 1 with x0 <= 2 or x0 <= 0.5: the same shape before the shift,
    # but the shift makes the second rhs negative, so that row is negated.
    shifted_sign = [LinearProgram(np.array([1.0]), "min", [[1.0]], [LE], [rhs], lower=[1.0])
                    for rhs in (2.0, 0.5, 2.0)]

    # Each seeded program, then a copy with its rows doubled: the shift
    # doubles that copy's rhs exactly, so it has the program's shape and
    # must hit unless it has upper bounds.
    def doubled(lp):
        return LinearProgram(lp.objective, lp.sense, 2.0 * lp.constraints, lp.relations,
                             2.0 * lp.rhs, lower=lp.lower, upper=lp.upper)

    def capped(lp):
        return any(up is not None for up in lp.upper)

    rng = np.random.default_rng(77)
    seeded = [p for lp in (random_program(rng) for _ in range(400)) for p in (lp, doubled(lp))]
    tight = [lp for site, lp, _ in captured_programs if site == "tight"]
    groups = {"captured": [lp for site, lp, _ in captured_programs if site != "tight"],
              "seeded": seeded, "tight": tight, "shifted sign": shifted_sign}
    cached = lpmod._cached_layout
    cached.cache_clear()
    hits = {name: [] for name in groups}
    for name, programs in groups.items():
        for lp in programs:
            before = cached.cache_info()
            form = rebuilt(lp)._form
            after = cached.cache_info()
            hits[name].append(after.hits > before.hits)
            if capped(lp):
                assert after == before, (name, lp)
            with monkeypatch.context() as m:
                m.setattr(lpmod, "_cached_layout", lpmod._layout)
                assert form_bits(form) == form_bits(rebuilt(lp)._form), (name, lp)
    assert sum(hits["captured"]) >= 100, hits["captured"]
    repeats = [hit for lp, hit in zip(seeded[1::2], hits["seeded"][1::2]) if not capped(lp)]
    assert len(repeats) >= 100 and all(repeats), repeats
    assert len(tight) >= 6 and all(map(capped, tight)) and not any(hits["tight"])
    # The third program hits the first's layout, the second builds its own.
    assert hits["shifted sign"] == [False, False, True]
    assert shifted_sign[1]._form.flip.tolist() == [-1.0]
    shifted = [lp for lp in groups["seeded"] if lp._form.shifted]
    assert any(lp._form.free_extra for lp in groups["seeded"]) and shifted
    assert any(lp._form.nrows > len(lp.relations) for lp in shifted)


def test_layout_memo_is_bounded_and_read_only():
    import nashdescent.lp as lpmod

    cached, size = lpmod._cached_layout, lpmod.LAYOUT_MEMO_SIZE
    cached.cache_clear()
    for nv in range(1, 3 * size):
        LinearProgram(np.ones(nv), "min", np.ones((2, nv)), (GE, LE), [1.0, 2.0])
        assert cached.cache_info().currsize <= size
    assert cached.cache_info() == (0, 3 * size - 1, size, size)
    # The memo keeps the last shapes: looking each up again is a hit.
    layouts = [cached(nv, (GE, LE), (0.0,) * nv, (), bytes(2)) for nv in range(2 * size, 3 * size)]
    assert cached.cache_info() == (size, 3 * size - 1, size, size)
    arrays = [v for layout in layouts for v in layout if isinstance(v, np.ndarray)]
    assert len(arrays) == 5 * size
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    # A form's own arrays stay writable copies where a solve writes to them.
    form = LinearProgram(np.ones(3), "min", np.ones((2, 3)), (GE, LE), [1.0, 2.0])._form
    assert form.A.flags.writeable and form.b.flags.writeable
    assert form.start_basis.copy().flags.writeable


def test_malformed_programs_raise_on_memo_hits():
    import nashdescent.lp as lpmod

    cached = lpmod._cached_layout
    cached.cache_clear()
    good = dict(objective=np.array([1.0, 1.0]), sense="min", constraints=[[1.0, 1.0]],
                relations=[LE], rhs=[1.0], lower=[0.0, 0.0])
    bad = [{"lower": [np.nan, 0.0]}, {"lower": [-np.inf, 0.0]}, {"upper": [np.inf, None]},
           {"relations": ["<>"]}, {"lower": [None, 0.0], "upper": [2.0, None]}]
    for _ in range(3):  # a miss, then hits
        LinearProgram(**good)
        for change in bad:
            with pytest.raises(LpError):
                LinearProgram(**{**good, **change})
    assert cached.cache_info() == (2, 1, lpmod.LAYOUT_MEMO_SIZE, 1)
