import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashdescent.baselines import _RM_CHUNK, fictitious_play, regret_matching, zero_sum_baseline
from nashdescent.game import Game, Profile, normalize_game, regrets
from nashdescent.generator import solve_b, tight_3x3, tight_m_n

from .oracles import has_pure_ne, regret_matching_choice


class TestFictitiousPlay:
    def test_matching_pennies_converges(self):
        g = normalize_game([[1, 0], [0, 1]], [[0, 1], [1, 0]])
        trace = fictitious_play(g, 10_000)
        assert trace.f <= 0.05
        # oracle: the unique equilibrium is uniform, check regrets directly
        assert regrets(g, trace.profile).f == trace.f

    def test_dominant_pair_locks_in_quickly(self):
        g = normalize_game([[1, 1], [0, 0]], [[1, 0], [1, 0]])
        trace = fictitious_play(g, 4)
        assert trace.f == pytest.approx(0.0, abs=1e-12)

    def test_history_prefix_consistency(self, eq1):
        long = fictitious_play(eq1.game, 1000)
        for t, f in long.f_history[:3]:
            assert fictitious_play(eq1.game, t).f == pytest.approx(f, abs=1e-12)

    def test_final_history_entry_matches_profile(self, eq1):
        trace = fictitious_play(eq1.game, 500)
        t, f = trace.f_history[-1]
        assert t == 500
        assert f == pytest.approx(regrets(eq1.game, trace.profile).f, abs=1e-10)

    def test_rejects_zero_rounds(self, eq1):
        with pytest.raises(ValueError):
            fictitious_play(eq1.game, 0)


class TestRegretMatching:
    def test_zero_game_is_trivial(self):
        g = Game(np.zeros((2, 3)), np.zeros((2, 3)))
        trace = regret_matching(g, 5, np.random.default_rng(0))
        assert trace.f == 0.0

    def test_matching_pennies(self):
        g = normalize_game([[1, 0], [0, 1]], [[0, 1], [1, 0]])
        trace = regret_matching(g, 100_000, np.random.default_rng(0))
        assert trace.f <= 0.05

    def test_deterministic_given_seed(self, eq1):
        a = regret_matching(eq1.game, 2000, np.random.default_rng(11))
        b = regret_matching(eq1.game, 2000, np.random.default_rng(11))
        assert a.f == b.f
        assert np.array_equal(a.profile.x, b.profile.x)

    def test_finds_pure_equilibrium_on_generated_instances(self, generated_3x3):
        for inst in generated_3x3[:3]:
            if not has_pure_ne(inst.game.R, inst.game.C):
                continue
            trace = regret_matching(inst.game, 100_000, np.random.default_rng(5))
            assert trace.f <= 1e-3


def _assert_same_run(game, rounds, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = regret_matching(game, rounds, rng)
    want = regret_matching_choice(game, rounds, ref_rng)
    assert (got.f, got.f_history) == (want.f, want.f_history)
    assert np.array_equal(got.profile.x, want.profile.x)
    assert np.array_equal(got.profile.y, want.profile.y)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 300),
       st.integers(0, 10_000), st.booleans())
def test_regret_matching_matches_choice_oracle(m, n, rounds, seed, ties):
    # Small integer payoffs make tied and all-nonpositive regrets common, so
    # the uniform fallback and zero-probability actions are exercised.
    g = np.random.default_rng([seed, m, n])
    if ties:
        game = Game(g.integers(0, 3, (m, n)) / 2.0, g.integers(0, 3, (m, n)) / 2.0)
    else:
        game = Game(g.random((m, n)), g.random((m, n)))
    _assert_same_run(game, rounds, seed)


def test_regret_matching_matches_choice_oracle_across_chunks(eq1):
    # Two whole chunks of uniforms and three rounds of a third.
    _assert_same_run(eq1.game, 2 * _RM_CHUNK + 3, 17)


class TestZeroSumBaseline:
    def test_tight_family_sits_at_the_bound(self, cons):
        for inst in (tight_3x3(), tight_m_n(4, 4), tight_m_n(6, 5)):
            res = zero_sum_baseline(inst.game)
            assert res.f == pytest.approx(cons.b, abs=1e-9)
            assert not res.adjusted
            assert res.candidate == "threat"

    def test_zero_sum_game_is_solved_exactly(self):
        rng = np.random.default_rng(2)
        R0 = rng.uniform(-1, 1, size=(4, 4))
        g = normalize_game(R0, -R0)
        res = zero_sum_baseline(g)
        assert res.f <= 1e-8

    @pytest.mark.parametrize("seed", range(25))
    def test_universal_bound_on_random_games(self, seed):
        rng = np.random.default_rng(seed)
        g = normalize_game(rng.uniform(size=(5, 5)), rng.uniform(size=(5, 5)))
        res = zero_sum_baseline(g)
        assert res.f <= 0.382 + 1e-6

    def test_deterministic(self, eq1):
        a = zero_sum_baseline(eq1.game)
        b = zero_sum_baseline(eq1.game)
        assert a.f == b.f
        assert np.array_equal(a.profile.x, b.profile.x)

    def test_two_lps_per_game(self, eq1, monkeypatch):
        # One LP per embedded zero-sum game, on R and on C'.
        import nashdescent.lp as lpmod

        seen, real = [], lpmod.solve_lp
        monkeypatch.setattr(lpmod, "solve_lp", lambda lp: seen.append(lp) or real(lp))
        zero_sum_baseline(eq1.game)
        assert len(seen) == 2
