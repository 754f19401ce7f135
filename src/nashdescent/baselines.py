"""Comparison algorithms: fictitious play, regret matching, and the
zero-sum-based approximation with its convex-combination fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import Game, Profile, mixed, pure, regrets, segment_min_f
from .lp import solve_zero_sum

ZS_THRESHOLD = 0.382


@dataclass(frozen=True)
class RunTrace:
    algorithm: str
    rounds: int
    profile: Profile
    f: float
    f_history: tuple = ()  # (round, f) pairs of the running average profile


class _AveragePlay:
    """The average play of a learning dynamic over ``rounds`` rounds: each
    player's action counts, the running average profile's f every
    max(1, rounds // 50) rounds and at the last, and the final trace."""

    def __init__(self, game: Game, rounds: int):
        if rounds < 1:
            raise ValueError("rounds must be positive")
        self.game, self.rounds = game, rounds
        self.counts_x, self.counts_y = np.zeros(game.m), np.zeros(game.n)
        self.stride = max(1, rounds // 50)
        self.history = []

    def play(self, t: int, i: int, j: int):
        """Round t was played with actions i and j."""
        self.counts_x[i] += 1
        self.counts_y[j] += 1
        if t % self.stride == 0 or t == self.rounds:
            avg = Profile(mixed(self.counts_x / t), mixed(self.counts_y / t))
            self.history.append((t, regrets(self.game, avg).f))

    def trace(self, algorithm: str) -> RunTrace:
        profile = Profile(mixed(self.counts_x / self.rounds), mixed(self.counts_y / self.rounds))
        return RunTrace(algorithm, self.rounds, profile, regrets(self.game, profile).f,
                        tuple(self.history))


def fictitious_play(game: Game, rounds: int) -> RunTrace:
    """Deterministic fictitious play from the first pure strategies.

    Each round both players best-respond (lowest index on ties) to the
    opponent's empirical average; the trace reports the average profile.
    """
    tally = _AveragePlay(game, rounds)
    R, C = game.R, game.C
    row_payoff = np.zeros(game.m)  # cumulative R[:, j_t]
    col_payoff = np.zeros(game.n)  # cumulative C[i_t, :]
    for t in range(1, rounds + 1):
        # All zeros in the first round, so both players start at action 0.
        i = int(np.argmax(row_payoff))
        j = int(np.argmax(col_payoff))
        tally.play(t, i, j)
        row_payoff += R[:, j]
        col_payoff += C[i, :]
    return tally.trace("fp")


# Rounds whose uniforms regret_matching draws from the generator at once.
_RM_CHUNK = 4096


def _pick(p: np.ndarray, u: float) -> int:
    """The action Generator.choice(p.size, p=p) returns when its uniform is u."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def regret_matching(game: Game, rounds: int, rng: np.random.Generator) -> RunTrace:
    """Regret matching with external regrets.

    Players randomize proportionally to positive cumulative regrets (uniform
    when none is positive); the trace reports the empirical average profile.
    Each round consumes two uniforms from rng, the row player's first, as
    two Generator.choice calls would; they are drawn _RM_CHUNK rounds at a
    time, 2*rounds in all, so rng ends in the same state.
    """
    tally = _AveragePlay(game, rounds)
    R, C = game.R, game.C
    m, n = game.m, game.n
    regret_x = np.zeros(m)
    regret_y = np.zeros(n)
    for t in range(1, rounds + 1):
        k = 2 * ((t - 1) % _RM_CHUNK)
        if k == 0:
            u = rng.random(2 * min(_RM_CHUNK, rounds - t + 1)).tolist()
        px = np.maximum(regret_x, 0.0)
        px = px / px.sum() if px.sum() > 0 else np.full(m, 1.0 / m)
        py = np.maximum(regret_y, 0.0)
        py = py / py.sum() if py.sum() > 0 else np.full(n, 1.0 / n)
        i = _pick(px, u[k])
        j = _pick(py, u[k + 1])
        tally.play(t, i, j)
        regret_x += R[:, j] - R[i, j]
        regret_y += C[i, :] - C[i, j]
    return tally.trace("rm")


@dataclass(frozen=True)
class ZeroSumResult:
    profile: Profile
    f: float
    candidate: str  # which zero-sum solution the answer came from
    adjusted: bool  # whether the convex-combination fallback fired


def zero_sum_baseline(game: Game) -> ZeroSumResult:
    """Approximation from the equilibria of the two embedded zero-sum games.

    The zero-sum game on R yields the column player's punishing strategy
    y_R (capping the row player's best-response payoff at the game value);
    the zero-sum game on C' yields the row player's punishing strategy x_C.
    The mutual-threat profile (x_C, y_R) bounds both regrets by the two game
    values and is returned as soon as it meets the 0.382 threshold; the
    mutual-guarantee profile (x_R, y_C) is the second candidate.  Failing
    both, each candidate is mixed toward the players' best responses, with
    the weight that minimizes f exactly.
    """
    R, C = game.R, game.C
    x_r, y_r, _ = solve_zero_sum(R)
    y_c, x_c, _ = solve_zero_sum(C.T)
    candidates = [
        ("threat", Profile(x_c, y_r)),
        ("guarantee", Profile(x_r, y_c)),
    ]
    best_f, best_name, best_prof = np.inf, None, None
    for name, prof in candidates:
        f = regrets(game, prof).f
        if f <= ZS_THRESHOLD:
            return ZeroSumResult(prof, f, name, adjusted=False)
        if f < best_f:
            best_f, best_name, best_prof = f, name, prof

    for name, prof in candidates:
        brx = pure(game.m, int(np.argmax(R @ prof.y)))
        bry = pure(game.n, int(np.argmax(C.T @ prof.x)))
        # Mix both players, the row player alone, and the column player alone.
        for mix in (Profile(brx, bry), Profile(brx, prof.y), Profile(prof.x, bry)):
            _, p, f = segment_min_f(game, prof, mix)
            if f < best_f:
                best_f, best_name, best_prof = f, name, p
    return ZeroSumResult(best_prof, best_f, best_name, adjusted=True)
