"""Exchanging the players commutes with every adjustment.

Running an adjustment on (G.swapped(), sp.swapped()) must give the swapped
output of running it on (G, sp).  The column-player code paths are built on
this: each is the row-player path run on the swapped game.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashdescent.adjust import BRANCH_TIE_TOL, adjust_boundary_min, adjust_linear, adjust_ts
from nashdescent.descent import DualSolution, StationaryPoint, balance, scaled_derivative
from nashdescent.dfm import dfm_adjust
from nashdescent.game import Game, Profile, mixed, regrets
from nashdescent.generator import dfm_family
from tests.golden_corpus import fallback_pair, negative_beta_pair

TOL = 1e-12
TWO_THIRDS = 2.0 / 3.0

unit = st.floats(0.0, 1.0, allow_nan=False)
# (lambda*, mu*) inside each DFM case; 3 and 4 are mirror images.
CASE_HEIGHTS = {
    1: st.tuples(st.floats(0.0, 0.5), unit),
    2: st.tuples(st.floats(TWO_THIRDS, 1.0), st.floats(TWO_THIRDS, 1.0)),
    3: st.tuples(st.floats(0.5, TWO_THIRDS, exclude_min=True),
                 st.floats(TWO_THIRDS, 1.0, exclude_min=True)),
    4: st.tuples(st.floats(TWO_THIRDS, 1.0, exclude_min=True),
                 st.floats(0.5, TWO_THIRDS, exclude_min=True)),
}


@st.composite
def games_and_points(draw):
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))

    def matrix():
        return np.array(draw(st.lists(unit, min_size=m * n, max_size=m * n))).reshape(m, n)

    def strategy(k):
        v = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
        return mixed(v / v.sum())

    game = Game(matrix(), matrix())
    lam, mu = draw(CASE_HEIGHTS[draw(st.sampled_from(sorted(CASE_HEIGHTS)))])
    sp = StationaryPoint(Profile(strategy(m), strategy(n)),
                         DualSolution(draw(unit), strategy(m), strategy(n)),
                         0.0, 0.0, lam, mu, 0)
    return game, sp


def assert_profiles_close(a: Profile, b: Profile):
    np.testing.assert_allclose(a.x, b.x, rtol=0, atol=TOL)
    np.testing.assert_allclose(a.y, b.y, rtol=0, atol=TOL)


def assert_dfm_mirrored(mirror, trace):
    """mirror is the trace on the swapped data, trace the one on the original."""
    assert (mirror.case, trace.case) in ((1, 1), (2, 2), (3, 4), (4, 3))
    assert mirror.branch == trace.branch
    assert mirror.fallback == trace.fallback
    assert_profiles_close(mirror.output.swapped(), trace.output)
    assert mirror.f == pytest.approx(trace.f, abs=TOL)
    assert (mirror.alpha is None) == (trace.beta is None)
    assert (mirror.beta is None) == (trace.alpha is None)
    for a, b in ((mirror.alpha, trace.beta), (mirror.beta, trace.alpha),
                 (mirror.t_r, trace.t_r), (mirror.v_r, trace.v_r),
                 (mirror.mu_hat, trace.mu_hat)):
        if b is not None:
            assert a == pytest.approx(b, abs=TOL)
    for a, b in ((mirror.y_hat, trace.y_hat), (mirror.w_hat, trace.w_hat)):
        if b is not None:
            np.testing.assert_allclose(a, b, rtol=0, atol=TOL)


def test_swap_is_an_involution():
    rng = np.random.default_rng(0)
    game = Game(rng.uniform(size=(2, 3)), rng.uniform(size=(2, 3)))
    swapped = game.swapped()
    assert (swapped.m, swapped.n) == (3, 2)
    np.testing.assert_array_equal(swapped.R, game.C.T)
    np.testing.assert_array_equal(swapped.C, game.R.T)
    assert not swapped.R.flags.writeable and not swapped.C.flags.writeable
    np.testing.assert_array_equal(swapped.swapped().R, game.R)
    sp = dfm_family(0.1).stationary_point()
    back = sp.swapped().swapped()
    assert back.dual.rho == pytest.approx(sp.dual.rho, abs=1e-15)
    for f in fields(StationaryPoint):
        if f.name not in ("profile", "dual"):
            assert getattr(back, f.name) == getattr(sp, f.name)
    assert sp.swapped().lambda_star == sp.mu_star


@settings(max_examples=150, deadline=None)
@given(games_and_points())
@example(negative_beta_pair())
def test_adjustments_commute_with_the_swap(data):
    game, sp = data
    g2, sp2 = game.swapped(), sp.swapped()

    # The far-boundary methods send ties within BRANCH_TIE_TOL to the
    # x-moving side in either frame, and those are different edges.
    f_wz = regrets(game, Profile(sp.dual.w, sp.dual.z))
    tied = abs(f_wz.fC - f_wz.fR) <= 1e3 * BRANCH_TIE_TOL
    for adjust in (adjust_ts,) if tied else (adjust_ts, adjust_boundary_min, adjust_linear):
        mirror, out = adjust(g2, sp2), adjust(game, sp)
        assert mirror.method == out.method
        assert_profiles_close(mirror.profile.swapped(), out.profile)
        assert mirror.f == pytest.approx(out.f, abs=TOL)

    assert_dfm_mirrored(dfm_adjust(g2, sp2), dfm_adjust(game, sp))

    p, q = sp.profile, Profile(sp.dual.w, sp.dual.z)
    p2 = p.swapped()
    mirror, out = balance(g2, p2), balance(game, p)
    assert (mirror is p2) == (out is p)
    assert_profiles_close(mirror.swapped(), out)

    df2, dfR2, dfC2 = scaled_derivative(g2, p.swapped(), q.swapped())
    df, dfR, dfC = scaled_derivative(game, p, q)
    np.testing.assert_allclose([df2, dfR2, dfC2], [df, dfC, dfR], rtol=0, atol=TOL)


def branch_b_point():
    rng = np.random.default_rng(7)
    game = Game(rng.uniform(size=(3, 4)), rng.uniform(size=(3, 4)))
    p = Profile(mixed(rng.dirichlet(np.ones(3))), mixed(rng.dirichlet(np.ones(4))))
    dual = DualSolution(0.4, mixed(rng.dirichlet(np.ones(3))), mixed(rng.dirichlet(np.ones(4))))
    return game, StationaryPoint(p, dual, 0.0, 0.0, 0.6, 0.9, 0)


def family_point():
    inst = dfm_family(0.1)
    return inst.game, inst.stationary_point()


@pytest.mark.parametrize("make, branch, fallback", [
    (family_point, "A", False),
    (branch_b_point, "B", False),
    (fallback_pair, "B", True),
])
def test_every_hard_case_branch_commutes_with_the_swap(make, branch, fallback):
    game, sp = make()
    trace = dfm_adjust(game, sp)
    assert (trace.case, trace.branch, trace.fallback) == (3, branch, fallback)
    mirror = dfm_adjust(game.swapped(), sp.swapped())
    assert (mirror.case, mirror.branch, mirror.fallback) == (4, branch, fallback)
    assert_dfm_mirrored(mirror, trace)
