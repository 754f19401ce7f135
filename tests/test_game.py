import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashdescent.game import (
    Game,
    GameError,
    Profile,
    is_eps_ne,
    mixed,
    normalize_game,
    pure,
    regrets,
    segment_min_f,
    square_min_f,
    supports,
    uniform,
)
from nashdescent.generator import canonical_block

from .oracles import segment_f_min_grid, square_f_min_grid, support_enum_ne


def test_normalize_affine_map():
    g = normalize_game([[2, 4], [6, 4]], [[0, 1], [1, 0]])
    assert np.allclose(g.R, [[0, 0.5], [1, 0.5]])


def test_normalize_constant_matrix_maps_to_zero():
    g = normalize_game([[3, 3], [3, 3]], [[1, 2], [3, 4]])
    assert np.all(g.R == 0.0)


def test_normalize_identity_when_already_unit_range():
    R = np.array([[0.0, 0.25], [1.0, 0.5]])
    C = np.array([[1.0, 0.0], [0.3, 0.7]])
    g = normalize_game(R, C)
    assert np.array_equal(g.R, R)
    assert np.array_equal(g.C, C)


def test_normalize_rejects_bad_input():
    with pytest.raises(GameError):
        normalize_game([[np.inf, 0]], [[0, 0]])
    with pytest.raises(GameError):
        normalize_game([[1, 2]], [[1], [2]])


def test_game_rejects_out_of_range_entries():
    with pytest.raises(GameError):
        Game(np.array([[1.5]]), np.array([[0.0]]))


def test_pure_rejects_index_out_of_range():
    assert pure(3, 2).tolist() == [0.0, 0.0, 1.0]
    for i in (-1, 3):
        with pytest.raises(GameError, match="outside"):
            pure(3, i)
    g = Game(np.zeros((2, 3)), np.zeros((2, 3)))
    assert g.pure_profile(1, 2).y.tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(GameError):
        g.pure_profile(2, 0)
    with pytest.raises(GameError):
        g.pure_profile(0, -1)


def test_regrets_at_tight_stationary_profile(eq1, cons):
    r = regrets(eq1.game, eq1.profile)
    assert r.fR == pytest.approx(cons.b, abs=1e-9)
    assert r.fC == pytest.approx(cons.b, abs=1e-9)
    assert r.f == max(r.fR, r.fC)


def test_regrets_at_pure_equilibrium(eq1):
    p = eq1.game.pure_profile(1, 1)
    assert regrets(eq1.game, p).f == pytest.approx(0.0, abs=1e-12)


def test_regrets_at_uniform_profile_matches_direct_arithmetic(eq1):
    g = eq1.game
    x = y = np.full(3, 1 / 3)
    expected_fR = (g.R @ y).max() - x @ g.R @ y
    expected_fC = (g.C.T @ x).max() - x @ g.C @ y
    r = regrets(g, Profile(uniform(3), uniform(3)))
    assert r.fR == pytest.approx(expected_fR, abs=1e-12)
    assert r.fC == pytest.approx(expected_fC, abs=1e-12)


def test_supports_on_tight_instance(eq1):
    sup = supports(eq1.game, eq1.profile)
    assert list(sup.row_best) == [1, 2]
    assert list(sup.col_best) == [1, 2]


def test_supports_dominated_column_matches_argmax_scan():
    # column 0 of R strictly dominated entrywise by column 1
    R = np.array([[0.1, 0.6, 0.2], [0.2, 0.9, 0.1], [0.0, 0.5, 0.4]])
    C = np.zeros((3, 3))
    g = Game(R, C)
    p = Profile(uniform(3), pure(3, 0))
    sup = supports(g, p, tol=0.0)
    expected = np.nonzero(R[:, 0] == R[:, 0].max())[0]
    assert np.array_equal(sup.row_best, expected)


def test_is_eps_ne_thresholds(eq1, cons):
    g = eq1.game
    assert is_eps_ne(g, g.pure_profile(1, 1), 0.0)
    star = eq1.profile
    assert not is_eps_ne(g, star, 0.3)
    assert is_eps_ne(g, star, 0.34)
    with pytest.raises(ValueError):
        is_eps_ne(g, star, -0.1)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10_000))
def test_regrets_stay_in_unit_interval(m, n, seed):
    rng = np.random.default_rng(seed)
    g = normalize_game(rng.uniform(size=(m, n)), rng.uniform(size=(m, n)))
    p = Profile(mixed(rng.dirichlet(np.ones(m))), mixed(rng.dirichlet(np.ones(n))))
    r = regrets(g, p)
    assert -1e-12 <= r.fR <= 1.0 + 1e-12
    assert -1e-12 <= r.fC <= 1.0 + 1e-12
    assert is_eps_ne(g, p, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_regrets_invariant_under_renormalization(seed):
    rng = np.random.default_rng(seed)
    g = normalize_game(rng.uniform(size=(3, 4)), rng.uniform(size=(3, 4)))
    g2 = normalize_game(g.R, g.C)
    p = Profile(mixed(rng.dirichlet(np.ones(3))), mixed(rng.dirichlet(np.ones(4))))
    assert regrets(g, p) == regrets(g2, p)


@pytest.mark.parametrize("seed", range(12))
def test_zero_regret_at_enumerated_equilibria(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    g = normalize_game(rng.uniform(size=(m, n)), rng.uniform(size=(m, n)))
    eqs = support_enum_ne(g.R, g.C)
    assert eqs, "small games always have an equilibrium"
    for x, y in eqs:
        assert regrets(g, Profile(mixed(x), mixed(y))).f == pytest.approx(0.0, abs=1e-7)


def test_supports_exact_scan_on_rational_matrix():
    R = np.array([[0.25, 0.5], [0.5, 0.25]])
    C = np.array([[0.5, 0.5], [0.25, 1.0]])
    g = Game(R, C)
    p = Profile(mixed([0.5, 0.5]), mixed([0.5, 0.5]))
    sup = supports(g, p, tol=0.0)
    Ry = R @ p.y
    Cx = C.T @ p.x
    assert np.array_equal(sup.row_best, np.nonzero(Ry == Ry.max())[0])
    assert np.array_equal(sup.col_best, np.nonzero(Cx == Cx.max())[0])


def test_mixed_clamps_and_renormalizes():
    v = mixed([0.5, 0.5 + 1e-13, -1e-13])
    assert v.min() >= 0
    assert v.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(GameError):
        mixed([0.5, 0.6])
    with pytest.raises(GameError):
        mixed([1.5, -0.5])


def test_immutability(eq1):
    with pytest.raises(ValueError):
        eq1.game.R[0, 0] = 0.5
    with pytest.raises(ValueError):
        eq1.profile.x[0] = 0.2


def test_json_round_trip(eq1):
    text = eq1.game.to_json(canonical=canonical_block(eq1.input, eq1.rho_star))
    g2 = Game.from_doc(json.loads(text))
    assert np.array_equal(g2.R, eq1.game.R)
    doc = json.loads(text)
    assert doc["m"] == 3 and doc["n"] == 3
    assert doc["canonical"]["rho"] == pytest.approx(eq1.rho_star)


def test_json_rejects_out_of_range_unless_normalized():
    doc = {"m": 1, "n": 2, "R": [[0, 2.0]], "C": [[0, 1.0]]}
    with pytest.raises(GameError):
        Game.from_doc(doc)
    g = Game.from_doc(doc, normalize=True)
    assert g.R.max() == 1.0


@st.composite
def segments(draw):
    """A game of size 2-6 and a segment in its profile space.

    Payoffs are uniform or drawn from {0, 1/2, 1}, which makes tied and
    parallel pieces common.  Segments move both players, one player, or
    neither (zero length); strategies may sit on faces of the simplex.
    """
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    entry = draw(st.sampled_from([st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])]))

    def matrix():
        return np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)

    def strategy(k):
        v = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                   min_size=k, max_size=k)))
        return mixed(v / v.sum()) if v.sum() > 0 else uniform(k)

    a = Profile(strategy(m), strategy(n))
    moves = draw(st.sampled_from(["both", "row", "column", "none"]))
    b = Profile(strategy(m) if moves in ("both", "row") else a.x,
                strategy(n) if moves in ("both", "column") else a.y)
    return Game(matrix(), matrix()), a, b


@settings(max_examples=300, deadline=None)
@given(segments())
def test_segment_min_f_is_exact(data):
    game, a, b = data
    t, prof, f = segment_min_f(game, a, b)
    assert 0.0 <= t <= 1.0
    np.testing.assert_allclose(prof.x, a.x + t * (b.x - a.x), rtol=0, atol=1e-12)
    np.testing.assert_allclose(prof.y, a.y + t * (b.y - a.y), rtol=0, atol=1e-12)
    assert f == regrets(game, prof).f
    assert f <= segment_f_min_grid(game.R, game.C, a, b, 2001) + 1e-12


@settings(max_examples=300, deadline=None)
@given(segments())
def test_square_min_f_is_exact(data):
    """The segment draw's two ends span the square: it may be a segment or a
    point, and its corners may be pure."""
    game, a, b = data
    alpha, beta, prof, f = square_min_f(game, a, b)
    assert 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0
    np.testing.assert_allclose(prof.x, a.x + alpha * (b.x - a.x), rtol=0, atol=1e-12)
    np.testing.assert_allclose(prof.y, a.y + beta * (b.y - a.y), rtol=0, atol=1e-12)
    assert f == regrets(game, prof).f
    assert f <= square_f_min_grid(game.R, game.C, a, b, 201) + 1e-12
    (x, y), (w, z) = a, b
    for p, q in (((x, y), (w, y)), ((x, z), (w, z)), ((x, y), (x, z)), ((w, y), (w, z))):
        assert f <= segment_min_f(game, Profile(*p), Profile(*q))[2] + 1e-12


def test_square_min_f_finds_an_interior_crossing_minimum():
    """A square whose minimum lies inside a cell, on the crossing of a row
    and a column piece where their gradients are parallel: no cut-grid
    vertex or cut-line crossing reaches it (the best of those is 0.10256)."""
    R = np.array([[0.2, 0.2, 0.5], [0.5, 0.4, 0.8], [0.6, 0.6, 0.5]])
    C = np.array([[0.3, 0.4, 0.2], [0.3, 0.1, 0.0], [0.9, 0.8, 0.5]])
    a = Profile(mixed(np.array([0, 3, 2]) / 5), mixed(np.array([2, 1, 3]) / 6))
    b = Profile(mixed(np.array([1, 0, 1]) / 2), mixed(np.array([1, 2, 0]) / 3))
    alpha, beta, prof, f = square_min_f(Game(R, C), a, b)
    assert 0.4 < alpha < 0.43 and 0.65 < beta < 0.67
    r = regrets(Game(R, C), prof)
    assert abs(r.fR - r.fC) <= 1e-12
    assert f <= square_f_min_grid(R, C, a, b, 201) + 1e-12
    assert f < 0.0978
