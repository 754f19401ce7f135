import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashdescent.descent import (
    DescentBudgetError,
    DualSolution,
    balance,
    bilinear_matrix,
    direction,
    find_stationary,
    line_search,
    scaled_derivative,
    stationary_from,
    t_value,
    verify_stationary,
)
from nashdescent.game import Game, Profile, mixed, normalize_game, pure, regrets, supports, uniform

from .oracles import grid_direction_value


def random_profile(game, rng):
    return Profile(mixed(rng.dirichlet(np.ones(game.m))),
                   mixed(rng.dirichlet(np.ones(game.n))))


class TestBalance:
    def test_tight_point_unchanged(self, eq1):
        p0 = eq1.profile
        assert balance(eq1.game, p0) is p0

    def test_remark_point_unchanged(self, remark):
        p0 = remark.profile
        assert balance(remark.game, p0) is p0
        r = regrets(remark.game, p0)
        assert r.fR == r.fC == pytest.approx(0.5)

    def test_balances_unbalanced_start(self, eq1):
        p0 = Profile(pure(3, 2), pure(3, 0))
        p = balance(eq1.game, p0)
        r = regrets(eq1.game, p)
        assert abs(r.fR - r.fC) <= 1e-7

    @pytest.mark.parametrize("seed", range(10))
    def test_balance_never_increases_f(self, seed):
        rng = np.random.default_rng(seed)
        g = normalize_game(rng.uniform(size=(4, 5)), rng.uniform(size=(4, 5)))
        p0 = random_profile(g, rng)
        p = balance(g, p0)
        assert regrets(g, p).f <= regrets(g, p0).f + 1e-10
        assert abs(regrets(g, p).fR - regrets(g, p).fC) <= 1e-7


class TestDirection:
    def test_value_and_dual_at_tight_point(self, eq1, cons):
        from nashdescent import descent

        d = direction(eq1.game, eq1.profile)
        dual = descent._equalized_dual(d)
        assert d.value == pytest.approx(cons.b, abs=1e-9)
        assert dual.rho == pytest.approx(cons.rho_star, abs=1e-6)
        assert np.allclose(dual.w, [0, 0, 1], atol=1e-6)
        assert np.allclose(dual.z, [0, 0, 1], atol=1e-6)

    def test_dual_validity_without_canonicalization(self, eq1):
        # any optimal witness must certify the value through the inner min
        d = direction(eq1.game, eq1.profile)
        G = bilinear_matrix(eq1.game, *eq1.profile)
        u = np.concatenate([d.dual.rho * d.dual.w, (1 - d.dual.rho) * d.dual.z])
        cols = u @ G
        inner_min = cols[:3].min() + cols[3:].min()
        assert inner_min >= d.value - 1e-7

    def test_remark_dual_is_forced(self, remark):
        from nashdescent import descent

        d = direction(remark.game, remark.profile)
        dual = descent._equalized_dual(d)
        assert d.value == pytest.approx(0.5, abs=1e-9)
        assert dual.rho == pytest.approx(0.5, abs=1e-7)
        assert np.allclose(dual.w, [0, 1], atol=1e-9)
        assert np.allclose(dual.z, [0, 1], atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_matches_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = normalize_game(rng.uniform(size=(3, 3)), rng.uniform(size=(3, 3)))
        p = balance(g, random_profile(g, rng))
        d = direction(g, p)
        sup = supports(g, p)
        brute = grid_direction_value(
            g.R, g.C, p.x, p.y, sup.row_best, sup.col_best, resolution=18
        )
        assert d.value <= brute + 1e-9
        assert abs(d.value - brute) <= 2e-2

    def test_value_never_exceeds_f(self, generated_3x3):
        rng = np.random.default_rng(0)
        for inst in generated_3x3:
            p = balance(inst.game, random_profile(inst.game, rng))
            d = direction(inst.game, p)
            assert d.value <= regrets(inst.game, p).f + 1e-8


class TestScaledDerivative:
    def test_zero_at_no_displacement(self, eq1):
        rng = np.random.default_rng(1)
        p = random_profile(eq1.game, rng)
        df, dfR, dfC = scaled_derivative(eq1.game, p, p)
        assert df == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_at_stationary_point(self, eq1):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = random_profile(eq1.game, rng)
            df, _, _ = scaled_derivative(eq1.game, eq1.profile, q)
            assert df >= -1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        g = normalize_game(rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4)))
        p = random_profile(g, rng)
        q = random_profile(g, rng)
        df, _, _ = scaled_derivative(g, p, q)
        fd = None
        for theta in (1e-4, 1e-5, 1e-6):
            xt = p.x + theta * (q.x - p.x)
            yt = p.y + theta * (q.y - p.y)
            fd = (regrets(g, Profile(mixed(xt), mixed(yt))).f - regrets(g, p).f) / theta
        assert df == pytest.approx(fd, abs=1e-3)


class TestTValue:
    def test_substitution_identity(self, eq1):
        rng = np.random.default_rng(3)
        p = random_profile(eq1.game, rng)
        sup = supports(eq1.game, p)
        w = np.zeros(3)
        w[sup.row_best] = rng.dirichlet(np.ones(len(sup.row_best)))
        z = np.zeros(3)
        z[sup.col_best] = rng.dirichlet(np.ones(len(sup.col_best)))
        d = DualSolution(0.37, mixed(w), mixed(z))
        r = regrets(eq1.game, p)
        assert t_value(eq1.game, p, p, d) == pytest.approx(
            0.37 * r.fR + 0.63 * r.fC, abs=1e-12
        )

    def test_corner_products_at_tight_point(self, eq1, cons):
        p = eq1.profile
        d = eq1.dual
        t1 = t_value(eq1.game, p, Profile(p.x, d.z), d)
        assert t1 == pytest.approx(d.rho * cons.lambda0, abs=1e-9)
        t2 = t_value(eq1.game, p, Profile(d.w, p.y), d)
        assert t2 == pytest.approx((1 - d.rho) * cons.mu0, abs=1e-9)

    def test_support_violation_raises(self, eq1):
        bad = DualSolution(0.5, pure(3, 0), pure(3, 2))  # row 0 is not a best response
        with pytest.raises(ValueError):
            t_value(eq1.game, eq1.profile, eq1.profile, bad)

    def test_agrees_with_bilinear_form(self, eq1):
        g = eq1.game
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(1000):
            p = random_profile(g, rng)
            sup = supports(g, p)
            w = np.zeros(3)
            w[sup.row_best] = rng.dirichlet(np.ones(len(sup.row_best)))
            z = np.zeros(3)
            z[sup.col_best] = rng.dirichlet(np.ones(len(sup.col_best)))
            d = DualSolution(float(rng.uniform()), mixed(w), mixed(z))
            q = random_profile(g, rng)
            direct = t_value(g, p, q, d)
            G = bilinear_matrix(g, p.x, p.y)
            bil = np.concatenate([d.rho * d.w, (1 - d.rho) * d.z]) @ G @ np.concatenate([q.y, q.x])
            worst = max(worst, abs(direct - bil))
        assert worst <= 1e-10


class TestLineSearch:
    def test_full_support_case_reduces_to_quadratic_cap(self):
        # identical rows/columns keep every index in the best-response sets
        R = np.array([[0.6, 0.2], [0.6, 0.2]])
        C = np.array([[0.1, 0.1], [0.9, 0.9]])
        g = Game(R, C)
        p = Profile(mixed([1.0, 0.0]), mixed([1.0, 0.0]))
        from nashdescent.descent import DirectionResult

        q = DirectionResult(mixed([0.0, 1.0]), mixed([0.0, 1.0]), value=0.0)
        f = regrets(g, p).f
        H = min((q.x_new - p.x) @ R @ (q.y_new - p.y),
                (q.x_new - p.x) @ C @ (q.y_new - p.y))
        eps = line_search(g, p, q, f)
        if H < 0:
            assert eps == pytest.approx(min(1.0, abs(q.value - f) / (2 * abs(H))))
        else:
            assert eps == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_step_strictly_decreases_f(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = normalize_game(rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4)))
        p = balance(g, random_profile(g, rng))
        r = regrets(g, p)
        d = direction(g, p)
        if d.value >= r.f - 1e-6:
            pytest.skip("start already stationary")
        eps = line_search(g, p, d, r.f)
        assert 0.0 < eps <= 1.0
        stepped = Profile(
            mixed(np.clip(p.x + eps * (d.x_new - p.x), 0, None)),
            mixed(np.clip(p.y + eps * (d.y_new - p.y), 0, None)),
        )
        assert regrets(g, stepped).f < r.f


class TestFindStationary:
    def test_immediate_at_tight_point(self, eq1, cons):
        sp = find_stationary(eq1.game, eq1.profile, delta=1e-6)
        assert sp.iterations == 0
        assert sp.f == pytest.approx(cons.b, abs=1e-9)
        assert sp.lambda_star == pytest.approx(cons.lambda0, abs=1e-6)
        assert sp.mu_star == pytest.approx(cons.mu0, abs=1e-6)

    def test_immediate_at_remark_point(self, remark):
        sp = find_stationary(remark.game, remark.profile, delta=1e-6)
        assert sp.iterations == 0
        assert sp.f == pytest.approx(0.5, abs=1e-9)
        assert verify_stationary(remark.game, sp).ok

    def test_from_uniform_start(self, eq1):
        p0 = Profile(uniform(3), uniform(3))
        f0 = regrets(eq1.game, p0).f
        sp = find_stationary(eq1.game, p0, delta=1e-3)
        assert sp.f <= f0 + 1e-12
        assert sp.value - sp.f >= -1e-3
        assert abs(regrets(eq1.game, sp.profile).fR - regrets(eq1.game, sp.profile).fC) <= 1e-7
        assert len(sp.f_history) == sp.iterations + 1 and sp.f_history[-1] == sp.f
        diffs = np.diff(np.array(sp.f_history))
        assert np.all(diffs <= 1e-10)

    def test_budget_error_carries_profile(self, eq1):
        p0 = Profile(uniform(3), uniform(3))
        with pytest.raises(DescentBudgetError) as err:
            find_stationary(eq1.game, p0, delta=1e-9, max_iter=0)
        assert err.value.profile is not None
        assert err.value.iterations == 0

    def test_rejects_bad_delta(self, eq1):
        with pytest.raises(ValueError):
            find_stationary(eq1.game, eq1.profile, delta=0.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_delta(self, eq1, delta):
        with pytest.raises(ValueError, match="delta must be a positive finite number"):
            find_stationary(eq1.game, eq1.profile, delta=delta, max_iter=5)

    @pytest.mark.parametrize("solver", ["find_stationary", "ts_solve", "dfm_solve"])
    @pytest.mark.parametrize("x0, y0", [
        ([0.5, 0.5, 0.5], None),
        ([2.0, -1.0, 0.0], None),
        ([1.0, -1e-9, 1e-9], None),
        ([np.nan, 0.5, 0.5], None),
        ([0.5, 0.5, np.inf], None),
        (None, [0.4, 0.4, 0.4]),
    ], ids=["sum-1.5", "negative", "slightly-negative", "nan", "inf", "y-sum-1.2"])
    def test_rejects_a_start_off_the_simplex(self, eq1, solver, x0, y0):
        from nashdescent.adjust import ts_solve
        from nashdescent.dfm import dfm_solve
        from nashdescent.game import GameError

        fn = {"find_stationary": find_stationary, "ts_solve": ts_solve, "dfm_solve": dfm_solve}
        p0 = Profile(eq1.profile.x if x0 is None else np.array(x0),
                     eq1.profile.y if y0 is None else np.array(y0))
        with pytest.raises(GameError, match="mixed strategy"):
            fn[solver](eq1.game, p0, delta=1e-3, max_iter=5)

    def test_start_is_checked_not_renormalized(self):
        # A pure equilibrium whose x sums to 1 + 5e-10, inside mixed's
        # tolerance: the descent stops at once and returns the start itself.
        game = Game(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]]))
        p0 = Profile(np.array([1.0 + 5e-10, 0.0]), np.array([1.0, 0.0]))
        sp = find_stationary(game, p0, delta=1e-3)
        assert sp.iterations == 0 and sp.profile.x is p0.x and sp.profile.y is p0.y

    @pytest.mark.parametrize("failure", ["no-optimum", "raises"])
    def test_equalized_dual_fallback_is_logged(self, eq1, monkeypatch, caplog, failure):
        import logging

        from nashdescent import descent
        from nashdescent.lp import LpNumericalError

        def failing(*args):
            if failure == "raises":
                raise LpNumericalError("budget")
            return None

        monkeypatch.setattr(descent, "_equalized_dual_weights", failing)
        caplog.set_level(logging.DEBUG, logger="nashdescent.descent")
        sp = find_stationary(eq1.game, eq1.profile, delta=1e-3)
        # The fallback is the direction LP's own witness.
        d = direction(eq1.game, sp.profile)
        assert (sp.dual.rho, sp.dual.w.tolist(), sp.dual.z.tolist()) == (
            d.dual.rho, d.dual.w.tolist(), d.dual.z.tolist())
        records = [r.getMessage() for r in caplog.records if r.name == "nashdescent.descent"]
        assert len(records) == 1, records
        assert records[0].startswith("equalized-dual LP on ")
        assert ("raised: budget" if failure == "raises" else "ended without an optimum") in records[0]
        assert records[0].endswith("keeping the direction LP's witness")

    def test_equalized_dual_success_is_not_logged(self, eq1, caplog):
        import logging

        caplog.set_level(logging.DEBUG, logger="nashdescent.descent")
        find_stationary(eq1.game, eq1.profile, delta=1e-3)
        assert not [r for r in caplog.records if r.name == "nashdescent.descent"]

    @pytest.mark.parametrize("seed", range(6))
    def test_stationary_point_estimates(self, seed):
        # Lemma-style bounds at tight precision: lambda*, mu* in [0,1] and
        # f <= lambda*mu*/(lambda*+mu*) when the witness is interior.
        rng = np.random.default_rng(seed)
        g = normalize_game(rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4)))
        sp = find_stationary(g, random_profile(g, rng), delta=1e-7)
        if not 1e-9 < sp.dual.rho < 1 - 1e-9:
            return
        assert -1e-9 <= sp.lambda_star <= 1 + 1e-9
        assert -1e-9 <= sp.mu_star <= 1 + 1e-9
        if sp.lambda_star + sp.mu_star > 1e-9:
            bound = sp.lambda_star * sp.mu_star / (sp.lambda_star + sp.mu_star)
            assert sp.f <= bound + 1e-6
            assert bound <= 0.5 + 1e-6


class TestVerifyStationary:
    def test_tight_point_certificate_vector(self, eq1, cons):
        rep = verify_stationary(eq1.game, eq1.stationary_point())
        assert rep.ok
        expected = -0.1 * cons.rho_star + (1 - cons.rho_star) * cons.b
        assert np.allclose(rep.A, expected, atol=1e-9)

    def test_dfm_family_certificate_vectors(self, eq4_family):
        # The hard-case family fails the equal-regret half of the check (its
        # regrets differ by eps at the prescribed profile) while both
        # minimizer inclusions hold with the documented certificate vectors.
        eps = 0.1
        inst = eq4_family(eps)
        rep = verify_stationary(inst.game, inst.stationary_point())
        assert not rep.ok
        assert len(rep.failures) == 1 and "fR - fC" in rep.failures[0]
        assert np.allclose(rep.A, [(1 - 3 * eps) / 6, (1 + 3 * eps) / 6, (1 + 3 * eps) / 6],
                           atol=1e-12)
        assert np.allclose(rep.B, [1 / 6, 1 / 6 + eps / 4, 1 / 6 + eps / 4], atol=1e-12)
        assert int(np.argmin(rep.A)) == 0 and int(np.argmin(rep.B)) == 0

    def test_perturbed_rho_breaks_the_inclusion(self, eq1):
        bad = stationary_from(eq1.game, eq1.profile,
                              DualSolution(0.9, eq1.input.w_star, eq1.input.z_star))
        rep = verify_stationary(eq1.game, bad)
        assert not rep.ok
        # entrywise recomputation of the certificate vector
        y, z = eq1.input.y_star, eq1.input.z_star
        A = -0.9 * (eq1.game.R @ y) + 0.1 * (eq1.game.C @ (z - y))
        assert np.allclose(rep.A, A, atol=1e-12)
        assert A[0] > A.min() + 1e-6


class TestLpBlocks:
    """The descent states each LP as one block, with exactly the rows of the
    row-by-row builders it replaced (oracles.*_rows_old): the same
    coefficients with the same sign bits, relations and rhs, in order."""

    @staticmethod
    def inputs():
        from nashdescent.experiments import lattice_profile, sample_tight_games

        rng = np.random.default_rng(2718)
        for m, n in [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 5), (5, 3)]:
            games = [normalize_game(rng.uniform(size=(m, n)), rng.uniform(size=(m, n)))
                     for _ in range(3)]
            starts = {}
            if min(m, n) >= 3:
                for inst in sample_tight_games(m, n, 2, rng, groups=2):
                    games.append(inst.game)
                    starts[len(games) - 1] = Profile(inst.input.x_star, inst.input.y_star)
            for gi, game in enumerate(games):
                profiles = [random_profile(game, rng), lattice_profile(m, n, 10, rng)]
                profiles += [starts[gi]] if gi in starts else []
                yield game, profiles

    def test_same_rows_as_row_by_row_builders(self, monkeypatch):
        import contextlib

        from nashdescent import descent
        from nashdescent.lp import LpNumericalError

        from .oracles import (direction_rows_old, equalized_rows_old, rebalance_rows_old,
                              same_program)

        captured = []
        real = descent.solve_lp

        def recording(lp):
            captured.append(lp)
            return real(lp)

        monkeypatch.setattr(descent, "solve_lp", recording)
        counts = {"balance": 0, "direction": 0, "equalized": 0}
        for game, profiles in self.inputs():
            for p in profiles:
                for g, q in ((game, p), (game.swapped(), p.swapped())):
                    captured.clear()
                    with contextlib.suppress(LpNumericalError):
                        descent._rebalance_row(g, q)
                    assert same_program(captured[0], *rebalance_rows_old(g, q))
                    counts["balance"] += 1
                # At the start and at its balanced twin, where the
                # best-response sets of both players tie.
                for q in (p, balance(game, p)):
                    G = bilinear_matrix(game, q.x, q.y)
                    row_ids, _ = descent._support_rows(game, q)
                    captured.clear()
                    with contextlib.suppress(LpNumericalError):
                        d = direction(game, q)
                        descent._equalized_dual(d)
                    assert same_program(captured[0], *direction_rows_old(G, row_ids, game.n, game.m))
                    counts["direction"] += 1
                    if len(captured) > 1:
                        assert same_program(captured[1], *equalized_rows_old(
                            G, row_ids, game.n, game.m, d.value))
                        counts["equalized"] += 1
        assert min(counts.values()) >= 80, counts


class TestReferenceBits:
    """The witness, the normalizations and the descent step against verbatim
    copies of their former code (tests/oracles.py), bit for bit."""

    @staticmethod
    def bits(v):
        return v.tobytes(), v.shape, v.flags.writeable

    def test_witnesses_and_directions_match_the_reference(self, solver_runs, monkeypatch):
        from nashdescent import descent
        from nashdescent.lp import LpNumericalError

        from .golden_corpus import captured_lps
        from .oracles import dual_from_weights_old, renormalized_old

        profiles = []
        real = descent.direction

        def recording(game, p, *args, **kwargs):
            profiles.append((game, p))
            return real(game, p, *args, **kwargs)

        monkeypatch.setattr(descent, "direction", recording)
        for solver, game, p0, delta in solver_runs:
            try:
                solver(game, p0, delta, max_iter=200)
            except LpNumericalError:
                pass
        monkeypatch.undo()
        equalized = 0
        for game, p in profiles:
            lps = []
            try:
                with captured_lps(lps):
                    d = direction(game, p)
                    dual = descent._equalized_dual(d)
            except LpNumericalError:  # the pinned input whose direction LP fails
                continue
            _, G, row_ids, sup, weights = d._program
            x = lps[0][2].x
            assert self.bits(d.x_new) == self.bits(renormalized_old(x[game.n:game.n + game.m]))
            assert self.bits(d.y_new) == self.bits(renormalized_old(x[:game.n]))
            want = dual_from_weights_old(game, weights, sup)
            plain = direction(game, p).dual
            assert (repr(plain.rho), self.bits(plain.w), self.bits(plain.z)) == (
                repr(want.rho), self.bits(want.w), self.bits(want.z))
            eq = lps[1][2] if len(lps) > 1 and not isinstance(lps[1][2], Exception) else None
            if eq is not None and eq.status == "optimal":
                want = dual_from_weights_old(game, eq.x[:len(row_ids)], sup)
                equalized += 1
            assert (repr(dual.rho), self.bits(dual.w), self.bits(dual.z)) == (
                repr(want.rho), self.bits(want.w), self.bits(want.z))
        assert len(profiles) >= 80 and equalized >= 40, (len(profiles), equalized)

    def test_line_search_matches_the_reference(self, solver_runs, monkeypatch):
        from nashdescent import descent

        from .oracles import line_search_old

        calls = []
        real = descent.line_search

        def recording(game, p, d, *args):
            calls.append((game, p, d))
            return real(game, p, d, *args)

        monkeypatch.setattr(descent, "line_search", recording)
        for solver, game, p0, delta in solver_runs[:-1]:  # the last one fails
            solver(game, p0, delta, max_iter=200)
        monkeypatch.undo()
        # Unbalanced profiles and arbitrary directions on games with tied
        # payoffs, so that best-response sets and support bounds tie.
        rng = np.random.default_rng(5)
        for m, n in ((2, 2), (3, 3), (4, 3), (3, 6), (6, 6)):
            for levels in (None, 3):
                for _ in range(20):
                    draw = (lambda s: rng.uniform(size=s)) if levels is None else (
                        lambda s: rng.integers(0, levels, size=s) / (levels - 1))
                    game = Game(draw((m, n)), draw((m, n)))
                    q = Profile(*(mixed(rng.dirichlet(np.ones(k))) for k in (m, n)))
                    d = descent.DirectionResult(q.x, q.y, float(rng.uniform(-0.5, 0.5)))
                    calls.append((game, random_profile(game, rng), d))
        for game, p, d in calls:
            f = regrets(game, p).f
            assert repr(line_search(game, p, d, f)) == repr(line_search_old(game, p, d))
        assert len(calls) >= 240


@st.composite
def near_simplex_pairs(draw):
    """Two vectors that pass mixed's checks (normalized draws, some entries
    nudged by up to 1e-13 or set to -0.0) and a step size in [0, 1]."""
    k = draw(st.integers(1, 8))

    def one():
        v = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
        if v.sum() <= 0:
            v[draw(st.integers(0, k - 1))] = 1.0
        v = v / v.sum()
        v += np.array(draw(st.lists(st.sampled_from([0.0, 1e-13, -1e-13, 3e-16]),
                                    min_size=k, max_size=k)))
        return np.where((v == 0) & np.array(draw(st.lists(st.booleans(), min_size=k,
                                                          max_size=k))), -0.0, v)

    return one(), one(), draw(st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(near_simplex_pairs())
def test_normalization_core_equals_mixed(drawn):
    from nashdescent.game import normalize_in_place

    from .oracles import mixed_old

    a, b, eps = drawn
    # A drawn vector, and the descent's step from a toward b.
    for v in (a, np.clip(a + eps * (b - a), 0.0, None)):
        want = mixed_old(v)
        for got in (normalize_in_place(v.copy()), mixed(v)):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, np.nan, np.inf, 1e-13]),
                min_size=1, max_size=8))
def test_mixed_and_renormalized_match_the_reference(values):
    from nashdescent.game import GameError, renormalized

    from .oracles import mixed_old, renormalized_old

    v = np.array(values)
    outcomes = []
    for fn in (mixed, mixed_old):
        try:
            outcomes.append(fn(v).tobytes())
        except GameError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
    if np.isfinite(v).all():
        got, want = renormalized(v), renormalized_old(v)
        assert got.tobytes() == want.tobytes() and not got.flags.writeable
