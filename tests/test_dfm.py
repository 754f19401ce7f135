import numpy as np
import pytest

from nashdescent.descent import DualSolution, StationaryPoint, stationary_from
from nashdescent.dfm import dfm_adjust, dfm_solve
from nashdescent.game import Game, Profile, mixed, normalize_game, pure, regrets, segment_min_f, uniform


def fabricated_sp(inst, lam, mu):
    """A stationary-point record with prescribed height differences."""
    base = inst.stationary_point()
    return StationaryPoint(
        profile=base.profile, dual=base.dual, f=base.f, value=base.value,
        lambda_star=lam, mu_star=mu, iterations=0,
    )


def expected_case(lam, mu):
    if min(lam, mu) <= 0.5 or max(lam, mu) <= 2 / 3:
        return 1
    if min(lam, mu) >= 2 / 3:
        return 2
    return 3 if lam <= 2 / 3 < mu else 4


class TestRouting:
    def test_dfm_tight_routes_to_case_one(self, eq3):
        trace = dfm_adjust(eq3.game, eq3.stationary_point())
        assert trace.case == 1
        assert trace.f == pytest.approx(1 / 3, abs=1e-12)
        assert np.allclose(trace.output.x, eq3.input.x_star)

    def test_high_heights_route_to_far_corner(self, eq1):
        trace = dfm_adjust(eq1.game, fabricated_sp(eq1, 0.7, 0.7))
        assert trace.case == 2
        assert np.allclose(trace.output.x, eq1.input.w_star)
        assert np.allclose(trace.output.y, eq1.input.z_star)

    def test_tight_instance_routes_to_mirror_case(self, eq1, cons):
        trace = dfm_adjust(eq1.game, eq1.stationary_point())
        assert trace.case == 4
        assert trace.f < 1 / 3

    def test_routing_partitions_the_unit_square(self, eq1):
        for lam in np.linspace(0, 1, 21):
            for mu in np.linspace(0, 1, 21):
                trace = dfm_adjust(eq1.game, fabricated_sp(eq1, lam, mu))
                assert trace.case == expected_case(lam, mu)


class TestHardCaseFamily:
    @pytest.mark.parametrize("eps", [0.3, 0.1, 0.03, 0.01])
    def test_trace_values_and_closed_form(self, eq4_family, eps):
        inst = eq4_family(eps)
        trace = dfm_adjust(inst.game, inst.stationary_point())
        assert trace.case == 3 and trace.branch == "A"
        assert np.allclose(trace.y_hat, [0.5, 0.0, 0.5])
        assert np.allclose(trace.w_hat, [0.0, 1.0, 0.0])
        assert trace.t_r == pytest.approx(1 / 6 + eps / 4, abs=1e-12)
        assert trace.v_r == pytest.approx(0.0, abs=1e-12)
        assert trace.mu_hat == pytest.approx(2 / 3 + eps, abs=1e-12)
        assert trace.alpha == pytest.approx(1 - 9 * eps / (2 + 3 * eps), abs=1e-12)
        closed = max((1 - 9 * eps / (2 + 3 * eps)) * (1 / 3 + eps / 2), 1 / 3 - eps)
        assert trace.f == pytest.approx(closed, abs=1e-12)

    def test_family_is_monotone_toward_one_third(self, eq4_family):
        values = []
        for eps in (0.3, 0.1, 0.03, 0.01, 0.003):
            inst = eq4_family(eps)
            values.append(dfm_adjust(inst.game, inst.stationary_point()).f)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1 / 3


class TestSegmentMin:
    def test_degenerate_segment(self, eq1):
        p = eq1.profile
        t, prof, f = segment_min_f(eq1.game, p, p)
        assert t == 0.0
        assert f == pytest.approx(regrets(eq1.game, p).f, abs=1e-12)

    def test_equilibrium_endpoint_wins(self, eq1):
        ne = eq1.game.pure_profile(1, 1)
        far = Profile(uniform(3), uniform(3))
        t, prof, f = segment_min_f(eq1.game, ne, far)
        assert t == 0.0
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_hard_case_segment_beats_both_ends(self, eq4_family):
        inst = eq4_family(0.1)
        sp = inst.stationary_point()
        trace = dfm_adjust(inst.game, sp)
        endpoint = Profile(
            mixed(trace.alpha * sp.dual.w + (1 - trace.alpha) * trace.w_hat),
            sp.dual.z,
        )
        assert trace.f <= regrets(inst.game, endpoint).f + 1e-12
        assert trace.f <= sp.f + 1e-12


class TestPipeline:
    def test_dfm_tight_pipeline(self, eq3):
        res = dfm_solve(eq3.game, eq3.profile, delta=1e-6)
        assert res.f == pytest.approx(1 / 3, abs=1e-9)
        assert res.trace.case == 1

    def test_hard_family_pipeline_obeys_bound(self, eq4_family):
        # Descent rebalances the prescribed profile before adjusting, so the
        # pipeline lands on the balanced stationary point; the adjusted value
        # must still respect the one-third guarantee.
        for eps in (0.1, 0.01):
            inst = eq4_family(eps)
            res = dfm_solve(inst.game, inst.profile, delta=1e-6)
            assert res.f <= 1 / 3 + 1e-6
            assert res.f <= res.sp.f + 1e-12

    def test_reaches_equilibrium_when_descent_does(self):
        R = np.array([[1.0, 1.0], [0.0, 0.0]])
        C = np.array([[1.0, 0.0], [1.0, 0.0]])
        res = dfm_solve(Game(R, C), Profile(uniform(2), uniform(2)), delta=1e-6)
        assert res.f <= 1e-6

    def test_rejects_bad_delta(self, eq3):
        with pytest.raises(ValueError):
            dfm_solve(eq3.game, eq3.profile, delta=0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_upper_bound_on_random_games(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        g = normalize_game(rng.uniform(size=(m, n)), rng.uniform(size=(m, n)))
        res = dfm_solve(g, Profile(uniform(m), uniform(n)), delta=1e-4)
        assert res.f <= 1 / 3 + 1e-4 + 1e-6

    def test_upper_bound_on_generated_instances(self, generated_3x3):
        for inst in generated_3x3:
            star = Profile(inst.input.x_star, inst.input.y_star)
            res = dfm_solve(inst.game, star, delta=1e-4)
            assert res.f <= 1 / 3 + 1e-4 + 1e-6


def test_branch_b_fallback_is_logged(caplog):
    import logging

    from tests.golden_corpus import fallback_pair, mirrored_sp

    caplog.set_level(logging.DEBUG, logger="nashdescent.dfm")
    # Case 3, then the same data with the players exchanged (case 4).
    for game, sp in (fallback_pair(), mirrored_sp(*fallback_pair())):
        caplog.clear()
        trace = dfm_adjust(game, sp)
        assert trace.branch == "B" and trace.fallback and trace.output == sp.profile
        records = [r.getMessage() for r in caplog.records if r.name == "nashdescent.dfm"]
        assert len(records) == 1, records
        assert records[0].startswith("branch B fallback: 1 + mu/2 - lambda - t_r = -")
        assert records[0].endswith("returning the stationary profile")


def test_branch_b_falls_back_rather_than_leave_the_simplex(caplog):
    import logging

    from tests.golden_corpus import negative_beta_pair

    caplog.set_level(logging.DEBUG, logger="nashdescent.dfm")
    game, sp = negative_beta_pair()
    for g, p, case in ((game, sp, 4), (game.swapped(), sp.swapped(), 3)):
        caplog.clear()
        trace = dfm_adjust(g, p)
        assert (trace.case, trace.branch, trace.fallback) == (case, "B", True)
        assert trace.output == p.profile and trace.alpha is None and trace.beta is None
        records = [r.getMessage() for r in caplog.records if r.name == "nashdescent.dfm"]
        assert len(records) == 1 and ", 1 - mu/2 - t_r = -" in records[0], records


def test_no_record_without_a_fallback(caplog, eq3):
    import logging

    caplog.set_level(logging.DEBUG, logger="nashdescent.dfm")
    assert not dfm_adjust(eq3.game, eq3.stationary_point()).fallback
    assert not [r for r in caplog.records if r.name == "nashdescent.dfm"]
