import numpy as np
import pytest

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
        d = direction(eq1.game, eq1.profile, canonicalize=True)
        assert d.value == pytest.approx(cons.b, abs=1e-9)
        assert d.dual.rho == pytest.approx(cons.rho_star, abs=1e-6)
        assert np.allclose(d.dual.w, [0, 0, 1], atol=1e-6)
        assert np.allclose(d.dual.z, [0, 0, 1], atol=1e-6)

    def test_dual_validity_without_canonicalization(self, eq1):
        # any optimal witness must certify the value through the inner min
        d = direction(eq1.game, eq1.profile)
        G = bilinear_matrix(eq1.game, *eq1.profile)
        u = np.concatenate([d.dual.rho * d.dual.w, (1 - d.dual.rho) * d.dual.z])
        cols = u @ G
        inner_min = cols[:3].min() + cols[3:].min()
        assert inner_min >= d.value - 1e-7

    def test_remark_dual_is_forced(self, remark):
        d = direction(remark.game, remark.profile, canonicalize=True)
        assert d.value == pytest.approx(0.5, abs=1e-9)
        assert d.dual.rho == pytest.approx(0.5, abs=1e-7)
        assert np.allclose(d.dual.w, [0, 1], atol=1e-9)
        assert np.allclose(d.dual.z, [0, 1], atol=1e-9)

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

        q = DirectionResult(mixed([0.0, 1.0]), mixed([0.0, 1.0]), value=0.0,
                            dual=DualSolution(0.5, mixed([1, 0]), mixed([0.5, 0.5])))
        f = regrets(g, p).f
        H = min((q.x_new - p.x) @ R @ (q.y_new - p.y),
                (q.x_new - p.x) @ C @ (q.y_new - p.y))
        eps = line_search(g, p, q)
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
        eps = line_search(g, p, d)
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
        sp = find_stationary(eq1.game, p0, delta=1e-3, record_history=True)
        assert sp.f <= f0 + 1e-12
        assert sp.value - sp.f >= -1e-3
        assert abs(regrets(eq1.game, sp.profile).fR - regrets(eq1.game, sp.profile).fC) <= 1e-7
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
                              DualSolution(0.9, eq1.w_star, eq1.z_star))
        rep = verify_stationary(eq1.game, bad)
        assert not rep.ok
        # entrywise recomputation of the certificate vector
        A = -0.9 * (eq1.game.R @ eq1.y_star) + 0.1 * (eq1.game.C @ (eq1.z_star - eq1.y_star))
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
                    row_ids, _ = descent._support_rows(game, q, 1e-9)
                    captured.clear()
                    with contextlib.suppress(LpNumericalError):
                        d = direction(game, q, canonicalize=True)
                    assert same_program(captured[0], *direction_rows_old(G, row_ids, game.n, game.m))
                    counts["direction"] += 1
                    if len(captured) > 1:
                        assert same_program(captured[1], *equalized_rows_old(
                            G, row_ids, game.n, game.m, d.value))
                        counts["equalized"] += 1
        assert min(counts.values()) >= 80, counts
