import json
from decimal import Decimal, localcontext

import numpy as np
import pytest

from nashdescent import generator
from nashdescent.game import Game, Profile, pure, regrets
from nashdescent.generator import (
    RESTRICTIONS,
    GeneratorInput,
    _pair_candidates,
    _tight_program,
    certificate_json,
    dfm_family,
    dfm_tight,
    generate_tight,
    half_sp,
    has_no_candidates,
    perturb_profile,
    profile_distance,
    sample_inputs,
    sample_outside_ball,
    solve_b,
    tight_3x3,
    tight_feasible,
    tight_m_n,
    tight_no_dominated,
    verify_tight,
)
from nashdescent.lp import EQ, GE, INFEASIBLE, OPTIMAL, solve_lp

from .oracles import bound_constants_decimal, pair_candidates_unscreened


class TestConstants:
    def test_matches_reported_optimizers(self, cons):
        assert abs(cons.mu0 - 0.582523) <= 1e-4
        assert abs(cons.lambda0 - 0.812815) <= 1e-4

    def test_crossing_equality_at_optimum(self, cons):
        first = cons.mu0 * cons.lambda0 / (cons.mu0 + cons.lambda0)
        second = (1 - cons.mu0) / (1 + cons.lambda0 - cons.mu0)
        assert abs(first - second) <= 1e-6
        assert abs(min(first, second) - cons.b) <= 1e-9

    def test_rho_star(self, cons):
        assert cons.rho_star == pytest.approx(cons.mu0 / (cons.lambda0 + cons.mu0))

    def test_bit_identical_to_full_grid_derivation(self):
        # The doubles the former lattice scan and golden-section search
        # returned; every stored output rests on these bits.
        cons = solve_b()
        assert cons.b == 0.339332122592393
        assert cons.lambda0 == 0.8128147733676225
        assert cons.mu0 == 0.5825222146359572

    def test_pinned_doubles_against_decimal_oracle(self):
        # The pinned doubles sit a fixed, one-sided distance from the true
        # maximizer; moving any of them (to the nearest doubles of the true
        # roots, say) must fail here and be declared.
        cons = solve_b()
        b, lam, mu = bound_constants_decimal()
        assert 0 < b - Decimal(cons.b) <= Decimal("2.3e-16")
        assert Decimal("1.32e-8") < lam - Decimal(cons.lambda0) < Decimal("1.34e-8")
        assert Decimal("6.8e-9") < Decimal(cons.mu0) - mu < Decimal("6.9e-9")
        # The true values are roots of three integer quartics.
        with localcontext() as ctx:
            ctx.prec = 60
            residuals = (4 * b**4 - 4 * b**3 + 4 * b**2 - 4 * b + 1,
                         2 * lam**4 + 2 * lam**3 - 2 * lam**2 - 2 * lam + 1,
                         -2 * mu**4 + 2 * mu**3 - 2 * mu + 1)
        assert all(abs(r) <= Decimal("1e-28") for r in residuals), residuals


def assert_satisfies_feasibility_program(game, inp, k, l, cons, tol=1e-7):
    """Independent constraint-by-constraint check of the generator program."""
    R, C = game.R, game.C
    x, y, w, z = inp.x_star, inp.y_star, inp.w_star, inp.z_star
    rho = cons.rho_star
    sx, sy, sw, sz = inp.supports()

    assert R.min() >= -tol and R.max() <= 1 + tol
    assert C.min() >= -tol and C.max() <= 1 + tol
    Ry = R @ y
    assert np.all(Ry[sw] >= Ry.max() - tol)
    Cx = C.T @ x
    assert np.all(Cx[sz] >= Cx.max() - tol)
    Rz = R @ z
    assert Rz[k] >= Rz.max() - tol
    Cw = C.T @ w
    assert Cw[l] >= Cw.max() - tol
    A = -rho * Ry + (1 - rho) * (C @ (z - y))
    assert np.all(A[sx] <= A.min() + tol)
    B = rho * (R.T @ (w - x)) - (1 - rho) * Cx
    assert np.all(B[sy] <= B.min() + tol)
    assert (w - x) @ R @ y == pytest.approx(cons.b, abs=tol)
    assert x @ C @ (z - y) == pytest.approx(cons.b, abs=tol)
    assert x @ R @ z == pytest.approx(0.0, abs=tol)
    assert w @ C @ y == pytest.approx(0.0, abs=tol)
    for j in sz:
        assert R[k, j] == pytest.approx(1.0, abs=tol)
    for i in sw:
        assert C[i, l] == pytest.approx(1.0, abs=tol)
    assert w @ R @ z == pytest.approx(cons.lambda0, abs=tol)
    assert w @ C @ z == pytest.approx(cons.mu0, abs=tol)
    assert Cx[l] >= Cx.max() - tol


class TestGenerate:
    def test_static_tight_instance_is_in_the_feasible_set(self, eq1, cons):
        # the canonical game satisfies every constraint of its own program
        assert_satisfies_feasibility_program(
            eq1.game, eq1.input, k=1, l=1, cons=cons
        )

    def test_canonical_input_is_feasible(self):
        inp = GeneratorInput(pure(3, 0), pure(3, 0), pure(3, 2), pure(3, 2))
        assert tight_feasible(inp)
        rng = np.random.default_rng(0)
        insts = generate_tight(inp, count=2, rng=rng)
        assert len(insts) == 2
        assert insts[0].k == 1 and insts[0].l == 1

    def test_emitted_instances_satisfy_their_program(self, generated_3x3, cons):
        for inst in generated_3x3:
            assert_satisfies_feasibility_program(
                inst.game, inst.input, inst.k, inst.l, cons
            )

    def test_full_support_input_is_rejected(self):
        inp = GeneratorInput(np.ones(3) / 3, pure(3, 0), pure(3, 2), pure(3, 2))
        assert generate_tight(inp, rng=np.random.default_rng(0)) == []
        assert not tight_feasible(inp)

    @pytest.mark.parametrize("size", [3, 4, 5, 6, 7])
    def test_nested_supports_never_feasible(self, size):
        for trial in range(10):
            rng = np.random.default_rng(1000 * size + trial)
            inp = sample_inputs(size, size, "nested", rng, pure_duals=False)
            assert not tight_feasible(inp)

    def test_convex_combinations_stay_feasible(self, cons):
        inp = GeneratorInput(pure(3, 0), pure(3, 0), pure(3, 2), pure(3, 2))
        insts = generate_tight(inp, count=2, rng=np.random.default_rng(3))
        blend = Game(
            0.5 * (insts[0].game.R + insts[1].game.R),
            0.5 * (insts[0].game.C + insts[1].game.C),
        )
        assert_satisfies_feasibility_program(blend, inp, insts[0].k, insts[0].l, cons)
        assert verify_tight(blend, inp).passed

    @pytest.mark.parametrize("low", [0, -1])
    def test_nonpositive_counts_raise_before_any_lp_or_draw(self, monkeypatch, low):
        """An empty list would read as "no game exists for this input"."""
        calls = []
        monkeypatch.setattr(generator, "solve_lp", calls.append)
        inp = GeneratorInput(pure(3, 0), pure(3, 0), pure(3, 2), pure(3, 2))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="counts must be positive: count"):
            generate_tight(inp, count=low, rng=rng)
        for kwargs, name in (({"count": low}, "count"), ({"count": 2, "groups": low}, "groups")):
            with pytest.raises(ValueError, match=f"counts must be positive: {name}"):
                generator.sample_tight_games(3, 3, rng=rng, **kwargs)
        assert calls == [] and rng.bit_generator.state == state


def _sweep_inputs(sizes, per_cell):
    """Seeded generator inputs: every size, restriction and witness kind."""
    for m, n in sizes:
        for r, restriction in enumerate(RESTRICTIONS):
            for pure_duals in (True, False):
                rng = np.random.default_rng([m, n, r, pure_duals])
                for _ in range(per_cell):
                    yield sample_inputs(m, n, restriction, rng, pure_duals=pure_duals)


class TestPairScreen:
    """_pair_candidates leaves out only pairs whose tight LP is infeasible."""

    def test_dropped_pairs_have_infeasible_programs(self):
        sizes = [(3, 3), (3, 5), (4, 4), (5, 4), (5, 5), (6, 6)]
        dropped = kept = 0
        for inp in _sweep_inputs(sizes, per_cell=3):
            screened = _pair_candidates(inp)
            every = pair_candidates_unscreened(inp)
            # a subsequence of the unscreened enumeration, in its order
            assert screened == [pair for pair in every if pair in set(screened)]
            kept += len(screened)
            for k, l in set(every) - set(screened):
                dropped += 1
                for intersect in (False, True):
                    lp = _tight_program(inp, k, l, intersect)
                    assert solve_lp(lp).status == INFEASIBLE, (inp, k, l, intersect)
        assert dropped >= 100 and kept >= 100

    @pytest.mark.parametrize("intersect", [False, True])
    def test_same_games_and_rng_state_as_unscreened(self, monkeypatch, intersect):
        inputs = list(_sweep_inputs([(3, 3), (4, 4), (5, 3)], per_cell=1))

        def run():
            rng = np.random.default_rng(5)
            out = []
            for inp in inputs:
                insts = generate_tight(inp, count=2, rng=rng, lambda_intersect=intersect)
                out.append(([(inst.k, inst.l, inst.game.R, inst.game.C) for inst in insts],
                            tight_feasible(inp, lambda_intersect=intersect),
                            rng.bit_generator.state))
            return out

        got = run()
        with monkeypatch.context() as patch:
            patch.setattr(generator, "_pair_candidates", pair_candidates_unscreened)
            want = run()
        assert sum(len(games) for games, _, _ in got) >= 4
        for (games, feasible, state), (games0, feasible0, state0) in zip(got, want):
            assert feasible == feasible0
            assert state == state0
            assert len(games) == len(games0)
            for (k, l, R, C), (k0, l0, R0, C0) in zip(games, games0):
                assert k == k0 and l == l0
                assert (R == R0).all() and (C == C0).all()

    @pytest.mark.parametrize("restriction", RESTRICTIONS)
    def test_pure_witness_index_is_never_a_candidate(self, restriction):
        rng = np.random.default_rng(17)
        for size in (3, 4, 5, 6):
            for _ in range(5):
                inp = sample_inputs(size, size, restriction, rng)
                a, b = int(inp.w_star.argmax()), int(inp.z_star.argmax())
                for k, l in _pair_candidates(inp):
                    assert k != a and l != b

    def test_two_point_support_on_3x3_disjoint_needs_no_lp(self, monkeypatch):
        inp = GeneratorInput([0.5, 0.5, 0.0], pure(3, 0), pure(3, 2), pure(3, 2))
        assert pair_candidates_unscreened(inp) == [(2, 1), (2, 2)]
        assert _pair_candidates(inp) == []

        def no_lp(*args, **kwargs):
            raise AssertionError("a tight LP was built")

        monkeypatch.setattr(generator, "_tight_program", no_lp)
        assert generate_tight(inp, rng=np.random.default_rng(0)) == []
        assert not tight_feasible(inp)


    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (2, 5), (3, 3)])
    def test_has_no_candidates_matches_the_screen(self, m, n):
        # Every sampled input has an empty screen where the predicate says
        # so, and some input has a candidate where it does not.
        for r, restriction in enumerate(RESTRICTIONS):
            rng = np.random.default_rng([m, n, r])
            screens = [_pair_candidates(sample_inputs(m, n, restriction, rng, pure_duals=p))
                       for p in (True, False) for _ in range(40)]
            if has_no_candidates(m, n, restriction):
                assert not any(screens), restriction
            else:
                assert any(screens), restriction


def row_violation(lp, v):
    """The largest amount by which the point v breaks a row or a bound of lp."""
    r = lp.constraints @ v - lp.rhs
    rel = np.array(lp.relations)
    rows = np.where(rel == EQ, np.abs(r), np.where(rel == GE, -r, r))
    lower = np.array([-np.inf if lo is None else lo for lo in lp.lower])
    upper = np.array([np.inf if up is None else up for up in lp.upper])
    return max(rows.max(initial=0.0), (lower - v).max(), (v - upper).max())


class TestTightLpRows:
    """_tight_program against the paper's conditions for a tight instance
    (Tsaknakis and Spirakis, WINE 2007): the known tight games satisfy its
    rows at their (k, l), games that are not tight satisfy no such program,
    and every point of a program's feasible set is a game that
    verify_tight certifies."""

    @pytest.mark.parametrize("inst, k, l", [
        (tight_3x3(), 1, 1), (tight_m_n(3, 4), 2, 3), (tight_m_n(4, 3), 3, 2),
        (tight_m_n(5, 5), 2, 2), (tight_m_n(3, 7), 2, 6), (tight_no_dominated(), 2, 2),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_static_instances_satisfy_their_rows(self, inst, k, l):
        v = np.concatenate([inst.game.R.ravel(), inst.game.C.ravel()])
        for intersect in (False, True):
            assert row_violation(_tight_program(inst.input, k, l, intersect), v) <= 1e-15

    @pytest.mark.parametrize("inst", [dfm_tight(), dfm_family(0.1), half_sp()],
                             ids=lambda inst: inst.name)
    def test_games_that_are_not_tight_satisfy_no_program(self, inst):
        # Each is the worst case of another bound, 1/3 or 1/2, not b.
        v = np.concatenate([inst.game.R.ravel(), inst.game.C.ravel()])
        for k in range(inst.game.m):
            for l in range(inst.game.n):
                for intersect in (False, True):
                    lp = _tight_program(inst.input, k, l, intersect)
                    assert row_violation(lp, v) > 0.1, (k, l, intersect)

    def test_feasible_points_are_tight_games(self):
        sizes = [(2, 2), (2, 4), (3, 3), (4, 5), (5, 5), (7, 3)]
        programs = feasible = 0
        for inp in _sweep_inputs(sizes, per_cell=2):
            for k, l in pair_candidates_unscreened(inp):
                for intersect in (False, True):
                    lp = _tight_program(inp, k, l, intersect)
                    programs += 1
                    sol = solve_lp(lp)
                    if sol.status != OPTIMAL:
                        continue
                    feasible += 1
                    R, C = np.clip(sol.x.reshape(2, inp.m, inp.n), 0.0, 1.0)
                    cert = verify_tight(Game(R, C), inp)
                    assert cert.passed, (inp, k, l, intersect, cert.failures)
                    # k and l best-respond to z* and w*, and with intersect
                    # k best-responds to y* too.
                    assert (R @ inp.z_star)[k] >= (R @ inp.z_star).max() - 1e-9
                    assert (inp.w_star @ C)[l] >= (inp.w_star @ C).max() - 1e-9
                    if intersect:
                        assert (R @ inp.y_star)[k] >= (R @ inp.y_star).max() - 1e-9
        assert programs >= 500 and feasible >= 50, (programs, feasible)


class TestSampleInputs:
    def test_disjoint_restriction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            inp = sample_inputs(4, 5, "disjoint", rng, pure_duals=False)
            sx, sy, sw, sz = inp.supports()
            assert not set(sx) & set(sw)
            assert not set(sy) & set(sz)
            assert len(sx) < 4 and len(sy) < 5

    def test_nested_restriction(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            inp = sample_inputs(4, 4, "nested", rng, pure_duals=False)
            sx, sy, sw, sz = inp.supports()
            assert set(sw) <= set(sx)
            assert set(sz) <= set(sy)

    def test_intersecting_restriction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            inp = sample_inputs(4, 4, "intersecting", rng, pure_duals=False)
            sx, sy, sw, sz = inp.supports()
            assert set(sx) & set(sw)
            assert set(sy) & set(sz)

    def test_pure_witnesses_by_default(self):
        rng = np.random.default_rng(4)
        inp = sample_inputs(5, 5, "disjoint", rng)
        assert inp.pure_duals

    def test_seeded_reproducibility(self):
        a = sample_inputs(4, 4, "disjoint", np.random.default_rng(7))
        b = sample_inputs(4, 4, "disjoint", np.random.default_rng(7))
        assert np.array_equal(a.x_star, b.x_star)
        assert np.array_equal(a.w_star, b.w_star)
        assert np.array_equal(a.y_star, b.y_star)
        assert np.array_equal(a.z_star, b.z_star)

    def test_rejects_unknown_restriction(self):
        with pytest.raises(ValueError):
            sample_inputs(3, 3, "bogus", np.random.default_rng(0))


class TestVerifyTight:
    def test_static_instances_pass(self, eq1):
        for inst in (eq1, tight_m_n(4, 5), tight_no_dominated()):
            cert = verify_tight(inst.game, inst.input)
            assert cert.passed, cert.failures

    def test_mixed_dual_flag(self):
        cert = verify_tight(tight_no_dominated().game,
                            tight_no_dominated().input)
        assert cert.mixed_duals

    def test_perturbed_entry_breaks_the_certificate(self, eq1):
        # raising the base payoff drops the row regret while the column
        # regret stays at b, so the equal-regret half of stationarity fails
        R = eq1.game.R.copy()
        R[0, 0] = 0.2
        cert = verify_tight(Game(R, eq1.game.C), eq1.input)
        assert not cert.passed
        assert "stationary" in cert.failures
        r = regrets(Game(R, eq1.game.C), eq1.profile)
        assert abs(r.fR - r.fC) > 1e-3

    def test_boundary_check_uses_tol(self, eq1, cons):
        # lowering C[0, 1] dips f below b on the square's boundary by about
        # 1.2e-5 and leaves every other check intact
        C = eq1.game.C.copy()
        C[0, 1] -= 1e-4
        game = Game(eq1.game.R, C)
        gap = cons.b - verify_tight(game, eq1.input).values["boundary_min"]
        assert 1e-6 < gap < 1e-4
        below = verify_tight(game, eq1.input, tol=gap / 2)
        above = verify_tight(game, eq1.input, tol=2 * gap)
        assert below.failures == ["boundary_above_b"]
        assert above.passed

    def test_generated_instances_pass(self, generated_3x3, generated_4x4):
        for inst in list(generated_3x3) + list(generated_4x4):
            assert verify_tight(inst.game, inst.input).passed

    def test_lambda_intersect_controls_full_square(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 5:
            inp = sample_inputs(3, 3, "disjoint", rng)
            insts = generate_tight(inp, count=1, rng=rng, lambda_intersect=True)
            if not insts:
                continue
            cert = verify_tight(insts[0].game, inp, full_square=True)
            assert cert.passed and cert.checks["square_above_b"], cert.failures
            done += 1


class TestSamplers:
    def test_perturbation_stays_close_and_valid(self, eq1):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = perturb_profile(eq1.profile, 0.01, rng)
            assert p.x.sum() == pytest.approx(1.0)
            assert p.x.min() >= 0
            assert profile_distance(p, eq1.profile) <= 0.05

    def test_outside_ball_sampler(self, eq1):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = sample_outside_ball(eq1.profile, 0.01, rng)
            assert profile_distance(p, eq1.profile) >= 0.01

    def test_distance_is_max_norm(self):
        p = Profile(pure(3, 0), pure(3, 0))
        q = Profile(pure(3, 0), pure(3, 2))
        assert profile_distance(p, q) == 1.0


class TestStaticInstances:
    def test_family_pattern(self, cons):
        inst = tight_m_n(3, 3)
        assert np.allclose(inst.game.R[0], [0.1, 0, 0])
        assert np.allclose(inst.game.R[1], [0.1 + cons.b, cons.lambda0, cons.lambda0])
        assert np.allclose(inst.game.R[2], [0.1 + cons.b, 1, 1])
        assert np.allclose(inst.game.C[0], [0.1, 0.1 + cons.b, 0.1 + cons.b])
        assert np.allclose(inst.game.C[1], [0, cons.mu0, 1])

    def test_family_requires_size_above_two(self):
        with pytest.raises(ValueError):
            tight_m_n(2, 3)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 5), (6, 4), (7, 7)])
    def test_family_members_verify(self, m, n):
        inst = tight_m_n(m, n)
        assert verify_tight(inst.game, inst.input).passed

    def test_no_dominated_strategies(self):
        g = tight_no_dominated().game
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert not np.all(g.R[i] <= g.R[j] + 1e-12)
                    assert not np.all(g.C[:, i] <= g.C[:, j] + 1e-12)

    def test_half_sp_value(self, remark):
        assert regrets(remark.game, remark.profile).f == pytest.approx(0.5)

    def test_dfm_family_domain(self):
        with pytest.raises(ValueError):
            dfm_family(0.5)
        with pytest.raises(ValueError):
            dfm_family(0.0)

    def test_certificate_json_schema(self, generated_3x3):
        inst = generated_3x3[0]
        doc = json.loads(certificate_json(inst, verify_tight(inst.game, inst.input)))
        for key in ("xStar", "yStar", "wStar", "zStar", "k", "l", "checks"):
            assert key in doc
