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
    UNBOUNDED,
    LinearProgram,
    LpError,
    LpNumericalError,
    solve_lp,
    solve_zero_sum,
)

from .golden_corpus import row_block
from .oracles import simplex_grid, zero_sum_value_enum


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


def test_phase_one_runs_once_per_policy(monkeypatch):
    import nashdescent.lp as lpmod

    calls = []
    real = lpmod._phase_one

    def first_policy_fails(form, window, entering):
        calls.append((window, entering))
        if (window, entering) == lpmod._ATTEMPTS[0]:
            raise LpNumericalError("phase 1 budget")
        return real(form, window, entering)

    monkeypatch.setattr(lpmod, "_phase_one", first_policy_fails)
    base = LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, 1.0]], [GE], [1.0])
    for c in (np.array([1.0, 1.0]), np.array([1.0, 2.0]), np.array([2.0, 1.0])):
        assert solve_lp(base.with_objective(c, "min")).status == OPTIMAL
    # The failed policy and the next one each ran phase 1 once.
    assert calls == list(lpmod._ATTEMPTS[:2])
    calls.clear()
    empty = LinearProgram(np.array([1.0, 1.0]), "min", [[1.0, 1.0], [1.0, 1.0]], [GE, LE],
                          [1.0, 0.5])
    for c in (np.array([1.0, 1.0]), np.array([-1.0, 0.0])):
        assert solve_lp(empty.with_objective(c, "max")).status == INFEASIBLE
    assert calls == list(lpmod._ATTEMPTS[:2])


# ---------------------------------------------------------------------------
# Phase 1's frozen columns.


def test_phase_one_freezes_an_unbounded_looking_column():
    import nashdescent.lp as lpmod

    # Columns x0, x1, s0, s1 | rhs; the last row holds the reduced costs.
    # x0 prices out negative but has no positive entry: phase 1 cannot be
    # unbounded, so x0 is frozen and x1 enters at row 0 (ratio 1 < 2).
    # That pivot gives x0 a positive entry in row 1, yet x0 stays frozen.
    def tableau():
        return np.array([[-1.0, 1.0, 1.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0, 1.0, 2.0],
                         [-1.0, -1.0, 0.0, 0.0, -1.0]])

    T, basis = tableau(), np.array([2, 3])
    status = lpmod._run_simplex(T, basis, 10, lpmod.TOL, "bland", bounded_objective=True)
    assert status == OPTIMAL
    assert basis.tolist() == [1, 3]
    assert T.tolist() == [[-1.0, 1.0, 1.0, 0.0, 1.0],
                          [1.0, 0.0, -1.0, 1.0, 1.0],
                          [-2.0, 0.0, 1.0, 0.0, 0.0]]
    # A frozen column is frozen for one run only: the next run enters it.
    assert lpmod._run_simplex(T, basis, 10, lpmod.TOL, "bland",
                              bounded_objective=True) == OPTIMAL
    assert basis.tolist() == [1, 0]
    # Phase 2 has no floor under its objective: the same column is unbounded.
    T, basis = tableau(), np.array([2, 3])
    assert lpmod._run_simplex(T, basis, 10, lpmod.TOL, "bland") == UNBOUNDED
    assert basis.tolist() == [2, 3]


# ---------------------------------------------------------------------------
# Differential test against HiGHS.


def highs_outcome(lp, presolve=True):
    """(status, objective) of the same program under scipy's HiGHS."""
    from scipy.optimize import linprog

    sign = 1.0 if lp.sense == "min" else -1.0
    rows = list(zip(lp.constraints, lp.relations, lp.rhs))
    ub = [(a, b) if rel == LE else (-a, -b) for a, rel, b in rows if rel != EQ]
    eq = [(a, b) for a, rel, b in rows if rel == EQ]
    res = linprog(
        sign * lp.objective,
        A_ub=np.array([a for a, _ in ub]) if ub else None,
        b_ub=np.array([b for _, b in ub]) if ub else None,
        A_eq=np.array([a for a, _ in eq]) if eq else None,
        b_eq=np.array([b for _, b in eq]) if eq else None,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
        options={"presolve": presolve},
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
# The kernel against its verbatim former self: the same standard form, the
# same tableaux after phase 1 and the same answers, bit for bit, under every
# pivot policy.


def answer_bits(out):
    """Every bit of one policy's answer: status, x, duals and both
    objectives with their types, or the error raised."""
    if isinstance(out, LpNumericalError):
        return "error", str(out)
    return (out.status,
            None if out.x is None else out.x.tobytes(),
            None if out.duals is None else out.duals.tobytes(),
            type(out.objective), repr(out.objective),
            type(out.dual_objective), repr(out.dual_objective))


def phase_one_bits(start):
    if start is None or isinstance(start, LpNumericalError):
        return repr(start)
    T, basis, kept = start
    return T.tobytes(), T.shape, basis.tolist(), None if kept is None else kept.tolist()


def assert_kernel_matches_reference(lp):
    import nashdescent.lp as lpmod

    from .oracles import ConstraintFormOld, ObjectiveOld, solve_lp_old, solve_with_old

    new = LinearProgram(lp.objective, lp.sense, lp.constraints, lp.relations, lp.rhs,
                        lower=lp.lower, upper=lp.upper)
    form, old = new._form, ConstraintFormOld(lp)
    assert form.A.tobytes() == old.A.tobytes() and form.A.shape == old.A.shape
    assert form.b.tobytes() == old.b.tobytes() and form.flip.tobytes() == old.flip.tobytes()
    assert form.shift.tobytes() == old.shift.tobytes() and form.free_extra == old.free_extra
    assert list(form.needs_artificial) == old.needs_artificial.tolist()
    assert (repr(float(form.resid_tol)), form.budget) == (repr(float(old.resid_tol)), old.budget)
    obj, old_obj = lpmod._Objective(new, form), ObjectiveOld(lp, old)
    for policy in lpmod._ATTEMPTS:
        assert phase_one_bits(form.phase_one(*policy)) == phase_one_bits(old.phase_one(*policy))
        answers = []
        for solve, f, o in ((lpmod._solve_with, form, obj), (solve_with_old, old, old_obj)):
            try:
                answers.append(answer_bits(solve(f, o, *policy)))
            except LpNumericalError as err:
                answers.append(answer_bits(err))
        assert answers[0] == answers[1], policy
    try:
        want = solve_lp_old(lp)
    except LpNumericalError as err:
        want = err
    assert answer_bits(outcome_or_error(new)) == answer_bits(want)


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
            try:
                solver(game, p0, delta, max_iter=200)
            except LpNumericalError:
                pass
        for _ in range(3):
            generate_tight(sample_inputs(5, 5, "disjoint", rng, pure_duals=False), rng=rng)
    return out


def test_kernel_matches_reference_on_captured_programs(captured_programs):
    sites = {}
    for site, lp, result in captured_programs:
        assert_kernel_matches_reference(lp)
        sites[site] = sites.get(site, 0) + 1
        # The reference also fails where the run failed.
        if isinstance(result, LpNumericalError):
            sites["failed"] = sites.get("failed", 0) + 1
    assert sites["balance"] >= 40 and sites["direction"] >= 40, sites
    assert sites["equalized"] >= 20 and sites["tight"] >= 5 and sites["failed"] >= 1, sites


def test_kernel_matches_reference_on_seeded_programs():
    from .golden_corpus import random_program

    # The golden corpus's 60 programs, then 400 more from another seed.
    for seed, count in ((131, 60), (77, 400)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            assert_kernel_matches_reference(random_program(rng))


@settings(max_examples=200, deadline=None)
@given(programs())
def test_kernel_matches_reference_on_drawn_programs(prog):
    rows, lower, upper, objectives = prog
    for c, sense in objectives:
        assert_kernel_matches_reference(
            LinearProgram(c, sense, *row_block(rows, c.size), lower=lower, upper=upper))
