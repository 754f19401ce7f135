import numpy as np
import pytest

from nashdescent.adjust import (
    METHOD_BOUNDARY,
    METHOD_LINEAR,
    METHOD_TS,
    adjust_boundary_min,
    adjust_linear,
    adjust_ts,
    lambda_mu,
    ts_solve,
)
from nashdescent.descent import DualSolution, StationaryPoint, lambda_mu_star, stationary_from
from nashdescent.game import Game, Profile, mixed, pure, regrets, square_min_f, uniform


def zero_game_sp():
    """Degenerate stationary point of the all-zero game with w=x, z=y."""
    g = Game(np.zeros((2, 2)), np.zeros((2, 2)))
    p = Profile(pure(2, 0), pure(2, 0))
    return g, stationary_from(g, p, DualSolution(0.5, p.x, p.y))


class TestLambdaMu:
    def test_tight_instance_matches_entrywise_scan(self, eq1, cons):
        g = eq1.game
        sp = eq1.stationary_point()
        lam, mu = lambda_mu(g, sp)
        # oracle: restrict the payoff difference rows to the best-response sets
        row_diff = (eq1.input.w_star - eq1.input.x_star) @ g.R
        col_diff = g.C @ (eq1.input.z_star - eq1.input.y_star)
        assert lam == pytest.approx(row_diff[[1, 2]].min(), abs=1e-12)
        assert mu == pytest.approx(col_diff[[1, 2]].min(), abs=1e-12)
        assert lam == pytest.approx(cons.lambda0, abs=1e-9)
        assert mu == pytest.approx(cons.mu0, abs=1e-9)

    def test_zero_displacement_gives_zero(self):
        g, sp = zero_game_sp()
        lam, mu = lambda_mu(g, sp)
        assert lam == 0.0 and mu == 0.0

    def test_remark_instance(self, remark):
        lam, mu = lambda_mu(remark.game, remark.stationary_point())
        assert lam == pytest.approx(1.0)
        assert mu == pytest.approx(1.0)


class TestLambdaStarMuStar:
    def test_tight_instance(self, eq1, cons):
        sp = eq1.stationary_point()
        lam, mu = lambda_mu_star(eq1.game, sp.profile, sp.dual)
        assert lam == pytest.approx(cons.lambda0, abs=1e-12)
        assert mu == pytest.approx(cons.mu0, abs=1e-12)

    def test_dfm_tight_entrywise(self, eq3):
        sp = eq3.stationary_point()
        lam, mu = lambda_mu_star(eq3.game, sp.profile, sp.dual)
        assert lam == pytest.approx(eq3.game.R[2, 2] - eq3.game.R[0, 2], abs=1e-12)
        assert mu == pytest.approx(eq3.game.C[2, 2] - eq3.game.C[2, 0], abs=1e-12)
        assert (lam, mu) == (pytest.approx(0.5), pytest.approx(1.0))

    def test_dfm_family(self, eq4_family):
        inst = eq4_family(0.1)
        sp = inst.stationary_point()
        lam, mu = lambda_mu_star(inst.game, sp.profile, sp.dual)
        assert lam == pytest.approx(2 / 3 - 0.05, abs=1e-12)
        assert mu == pytest.approx(2 / 3 + 0.1, abs=1e-12)

    def test_regret_difference_identities(self, eq1, generated_3x3):
        for inst in [eq1] + list(generated_3x3):
            if hasattr(inst, "stationary_point"):
                g, sp = inst.game, inst.stationary_point()
            else:
                g = inst.game
                sp = stationary_from(
                    g, Profile(inst.input.x_star, inst.input.y_star),
                    DualSolution(inst.rho_star, inst.input.w_star, inst.input.z_star),
                )
            lam, mu = lambda_mu_star(g, sp.profile, sp.dual)
            x, y = sp.profile
            w, z = sp.dual.w, sp.dual.z
            f_xz = regrets(g, Profile(x, z))
            f_wy = regrets(g, Profile(w, y))
            f_wz = regrets(g, Profile(w, z))
            assert lam == pytest.approx(f_xz.fR - f_wz.fR, abs=1e-10)
            assert mu == pytest.approx(f_wy.fC - f_wz.fC, abs=1e-10)


class TestMethodOne:
    def test_tight_instance_weight_and_value(self, eq1, cons):
        out = adjust_ts(eq1.game, eq1.stationary_point())
        assert out.method == METHOD_TS
        coeff = 1.0 / (1.0 + cons.lambda0 - cons.mu0)
        assert out.profile.x[2] == pytest.approx(coeff, abs=1e-6)
        assert out.f == pytest.approx(cons.b, abs=1e-6)

    def test_equal_coefficients_collapse(self):
        g, sp = zero_game_sp()
        out = adjust_ts(g, sp)
        assert np.allclose(out.profile.x, sp.dual.w)
        assert np.allclose(out.profile.y, sp.dual.z)

    def test_remark_instance_reaches_pure_equilibrium(self, remark):
        out = adjust_ts(remark.game, remark.stationary_point())
        assert np.allclose(out.profile.x, [0, 1])
        assert np.allclose(out.profile.y, [0, 1])
        assert out.f == pytest.approx(0.0, abs=1e-12)


class TestMethodTwo:
    def test_tight_instance_matches_method_three(self, eq1, cons):
        sp = eq1.stationary_point()
        out2 = adjust_boundary_min(eq1.game, sp)
        out3 = adjust_linear(eq1.game, sp)
        assert out2.f == pytest.approx(cons.b, abs=1e-6)
        alpha_star = 1.0 / (1.0 + cons.lambda0 - cons.mu0)
        assert out2.profile.x[2] == pytest.approx(alpha_star, abs=1e-6)
        assert np.allclose(out2.profile.x, out3.profile.x, atol=1e-9)

    def test_degenerate_square(self):
        g, sp = zero_game_sp()
        out = adjust_boundary_min(g, sp)
        assert out.f == 0.0
        assert np.allclose(out.profile.x, sp.profile.x)

    def test_ordering_on_generated_instances(self, generated_4x4):
        for inst in generated_4x4:
            sp = stationary_from(
                inst.game, Profile(inst.input.x_star, inst.input.y_star),
                DualSolution(inst.rho_star, inst.input.w_star, inst.input.z_star),
            )
            f1 = adjust_ts(inst.game, sp).f
            f2 = adjust_boundary_min(inst.game, sp).f
            f3 = adjust_linear(inst.game, sp).f
            assert f2 <= f1 + 1e-9
            assert f2 <= f3 + 1e-9


class TestMethodThree:
    def test_tight_instance_closed_form(self, eq1, cons):
        out = adjust_linear(eq1.game, eq1.stationary_point())
        assert out.method == METHOD_LINEAR
        p_star = 1.0 / (1.0 + cons.lambda0 - cons.mu0)
        assert out.profile.x[2] == pytest.approx(p_star, abs=1e-9)
        assert out.f == pytest.approx((1 - cons.mu0) / (1 + cons.lambda0 - cons.mu0), abs=1e-9)
        assert out.f == pytest.approx(cons.b, abs=1e-6)

    def test_zero_numerator_maps_to_base_corner(self):
        g, sp = zero_game_sp()
        out = adjust_linear(g, sp)
        assert np.allclose(out.profile.x, sp.profile.x)
        assert np.allclose(out.profile.y, sp.dual.z)

    def test_coincides_with_boundary_min_under_shared_support(self, generated_3x3):
        for inst in generated_3x3:
            g = inst.game
            sp = stationary_from(
                g, Profile(inst.input.x_star, inst.input.y_star),
                DualSolution(inst.rho_star, inst.input.w_star, inst.input.z_star),
            )
            x, y = sp.profile
            w, z = sp.dual.w, sp.dual.z
            f_wz = regrets(g, Profile(w, z))
            col_best_x = set(np.nonzero(g.C.T @ x >= (g.C.T @ x).max() - 1e-9)[0])
            col_best_w = set(np.nonzero(g.C.T @ w >= (g.C.T @ w).max() - 1e-9)[0])
            if f_wz.fC > f_wz.fR and col_best_x & col_best_w:
                out2 = adjust_boundary_min(g, sp)
                out3 = adjust_linear(g, sp)
                assert np.allclose(out2.profile.x, out3.profile.x, atol=1e-7)
                assert np.allclose(out2.profile.y, out3.profile.y, atol=1e-7)


class TestTsSolve:
    def test_tight_instance(self, eq1, cons):
        res = ts_solve(eq1.game, eq1.profile, delta=1e-6)
        assert res.best.f == pytest.approx(cons.b, abs=1e-6)
        for val in (res.stationary_f, res.ts_f, res.boundary_f, res.linear_f):
            assert val == pytest.approx(cons.b, abs=1e-6)

    def test_dfm_tight_instance(self, eq3):
        res = ts_solve(eq3.game, eq3.profile, delta=1e-6)
        assert res.best.f == pytest.approx(1 / 3, abs=1e-9)
        assert res.ts_f >= 1 / 3 - 1e-9

    def test_equilibrium_dominates_adjustments(self):
        # strictly dominant strategies: descent lands on the pure equilibrium
        R = np.array([[1.0, 1.0], [0.0, 0.0]])
        C = np.array([[1.0, 0.0], [1.0, 0.0]])
        g = Game(R, C)
        res = ts_solve(g, Profile(uniform(2), uniform(2)), delta=1e-6)
        assert res.best.f <= 1e-6

    def test_rejects_bad_delta(self, eq1):
        with pytest.raises(ValueError):
            ts_solve(eq1.game, eq1.profile, delta=-1.0)


def square_min(game, sp):
    """square_min_f over the adjustment square of a stationary point."""
    return square_min_f(game, sp.profile, Profile(sp.dual.w, sp.dual.z))


class TestRectangleScan:
    """The exact minimum of f over the adjustment square (rectangle)."""

    def test_tight_instance_floor(self, eq1, cons):
        assert square_min(eq1.game, eq1.stationary_point())[3] >= cons.b - 1e-9

    def test_equilibrium_corner(self):
        g, sp = zero_game_sp()
        alpha, beta, prof, f = square_min(g, sp)
        assert (alpha, beta, f) == (0.0, 0.0, 0.0)
        assert np.array_equal(prof.x, sp.profile.x) and np.array_equal(prof.y, sp.profile.y)

    def test_scan_never_beats_corners(self, generated_3x3):
        inst = generated_3x3[0]
        sp = stationary_from(
            inst.game, Profile(inst.input.x_star, inst.input.y_star),
            DualSolution(inst.rho_star, inst.input.w_star, inst.input.z_star),
        )
        (x, y), (w, z) = sp.profile, (sp.dual.w, sp.dual.z)
        corner_f = min(regrets(inst.game, Profile(a, b)).f for a in (x, w) for b in (y, z))
        assert square_min(inst.game, sp)[3] <= corner_f + 1e-12


class TestSquareGeometry:
    """Sampled checks of the square's structure around a stationary point."""

    @staticmethod
    def _sp(inst):
        return stationary_from(
            inst.game, Profile(inst.input.x_star, inst.input.y_star),
            DualSolution(inst.rho_star, inst.input.w_star, inst.input.z_star),
        )

    def test_stretching_bounds(self, generated_3x3):
        rng = np.random.default_rng(0)
        for inst in generated_3x3[:4]:
            g = inst.game
            sp = self._sp(inst)
            x, y = sp.profile
            w, z = sp.dual.w, sp.dual.z
            f_wz = regrets(g, Profile(w, z))
            for _ in range(250):
                p = float(rng.uniform())
                xp = mixed(p * w + (1 - p) * x)
                assert regrets(g, Profile(xp, z)).fC <= p * f_wz.fC + 1e-9
                q = float(rng.uniform())
                yq = mixed(q * z + (1 - q) * y)
                assert regrets(g, Profile(w, yq)).fR <= q * f_wz.fR + 1e-9

    def test_monotone_and_linear_sections(self, generated_3x3):
        rng = np.random.default_rng(1)
        for inst in generated_3x3[:4]:
            g = inst.game
            sp = self._sp(inst)
            x, y = sp.profile
            w, z = sp.dual.w, sp.dual.z
            beta = float(rng.uniform())
            yb = mixed(beta * z + (1 - beta) * y)
            alphas = np.linspace(0, 1, 100)
            fC = np.array([regrets(g, Profile(mixed(a * w + (1 - a) * x), yb)).fC
                           for a in alphas])
            fR = np.array([regrets(g, Profile(mixed(a * w + (1 - a) * x), yb)).fR
                           for a in alphas])
            assert np.all(np.diff(fC) >= -1e-9)
            chord = fR[0] + (fR[-1] - fR[0]) * alphas
            assert np.abs(fR - chord).max() <= 1e-9

    def test_base_corner_minimizes_near_boundary(self, generated_3x3):
        # the L-shaped boundary through (x*, y*) never dips below f(x*, y*)
        for inst in generated_3x3[:4]:
            g = inst.game
            sp = self._sp(inst)
            x, y = sp.profile
            w, z = sp.dual.w, sp.dual.z
            f0 = sp.f
            for t in np.linspace(0, 1, 50):
                assert regrets(g, Profile(mixed(t * w + (1 - t) * x), y)).f >= f0 - 1e-9
                assert regrets(g, Profile(x, mixed(t * z + (1 - t) * y))).f >= f0 - 1e-9
