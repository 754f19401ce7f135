"""The benchmark's workloads.

Each workload builds its inputs from the seed at set-up, runs one
operation (an *op*) on one input, and checks the op's output with
formulas of its own. The package is passed in as ``nd`` rather than
imported here, because run.py imports it afresh for every set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Explicit descent cap handed to every solver op. The library default,
# ceil(4/delta^2), is 4e8 iterations at delta=1e-4, so a stalled descent
# would hang the run; with this cap it raises DescentBudgetError and counts
# as a failed op. The most iterations seen on these workloads is 5.
MAX_ITER = 200
# The published worst-case bound of the classic descent-and-adjust, used to
# cross-check the library's solve_b() at set-up.
B_PUBLISHED = 0.3393
# Largest allowed |f reported - f recomputed|.
F_MATCH = 1e-12
# Largest allowed |sum - 1| of a returned strategy.
SUM_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    """What the check found for one op.

    ``error`` is None when the output passed; ``fs`` are the regrets the
    check recomputed; ``tag`` is the DFM case and branch, or whether a
    generator draw was feasible.
    """

    error: str | None
    fs: tuple = ()
    tag: str = ""


def regret_pair(R: np.ndarray, C: np.ndarray, x: np.ndarray, y: np.ndarray):
    """fR and fC from explicit elementwise sums, independent of nd.regrets."""
    ry = (R * y[None, :]).sum(axis=1)
    cx = (C * x[:, None]).sum(axis=0)
    fR = float(ry.max()) - float(np.einsum("i,ij,j->", x, R, y))
    fC = float(cx.max()) - float(np.einsum("i,ij,j->", x, C, y))
    return fR, fC


def _strategy_error(v, k: int) -> str | None:
    v = np.asarray(v)
    if v.shape != (k,) or not np.all(np.isfinite(v)):
        return "strategy-shape"
    if v.min() < 0.0 or abs(float(v.sum()) - 1.0) > SUM_TOL:
        return "off-simplex"
    return None


def check_profile(game, profile, f_reported: float, bound: float) -> Outcome:
    """Simplex membership, reported f against the recomputed one, and the bound."""
    x, y = profile
    error = _strategy_error(x, game.m) or _strategy_error(y, game.n)
    if error:
        return Outcome(error)
    f = max(regret_pair(game.R, game.C, np.asarray(x), np.asarray(y)))
    if abs(f - f_reported) > F_MATCH:
        return Outcome("f-mismatch", (f,))
    if f > bound:
        return Outcome("above-bound", (f,))
    return Outcome(None, (f,))


class TsTight3:
    """ts_solve from lattice starts on generated 3x3 tight games."""

    name = "ts-tight3"
    why = ("criterion-8 shape: many tiny LPs, so LP per-call overhead and the "
           "descent loop dominate; bypasses dfm, generator and large pivots")
    games = 40
    ops = 400  # inputs in one pass
    # Seconds of one pass on a shared 2-vCPU virtual machine (see
    # run.timed_passes); it fixes the pass count of a run.
    # The machine's speed swings by about 60% over a few seconds, so passes
    # are kept short: each input's best is then over 10 or more moments.
    pass_s = 2.3
    # Fixed per workload so that runs compare the same percentile. Each tail
    # has at least 20 inputs beyond it: with 10, it followed the seed's few
    # slowest games more than the code.
    tail_pct = 95.0
    delta = 1e-3
    exercises = ("lp.balance", "lp.direction", "lp.equalized",
                 "descent.find_stationary", "descent.balance", "descent.direction",
                 "descent.line_search", "adjust.adjust_ts",
                 "adjust.adjust_boundary_min", "adjust.adjust_linear",
                 "game.regrets")

    def build(self, nd, rng):
        # One generator input per game, so the games are independent draws.
        insts = nd.sample_tight_games(3, 3, self.games, rng, groups=self.games)
        games = [inst.game for inst in insts]
        lattice = nd.experiments.lattice_profile
        return [(games[i % self.games], lattice(3, 3, 10, rng)) for i in range(self.ops)]

    def run(self, nd, item):
        game, p0 = item
        return nd.ts_solve(game, p0, delta=self.delta, max_iter=MAX_ITER)

    def check(self, nd, item, res) -> Outcome:
        game, _ = item
        return check_profile(game, res.best.profile, res.best.f,
                             nd.solve_b().b + self.delta)


class DfmHard:
    """dfm_solve from the prescribed stationary profile of generated tight games."""

    name = "dfm-hard"
    why = ("criterion-5 tight games route to DFM case 4/A, so the sampled "
           "segment search is most of each op (ROADMAP item 3)")
    per_size = 40
    pass_s = 1.45
    tail_pct = 75.0
    delta = 1e-4
    exercises = ("lp.direction", "lp.equalized", "descent.find_stationary",
                 "descent.balance", "dfm.dfm_adjust", "dfm.segment_min_f",
                 "game.regrets")

    def build(self, nd, rng):
        items = []
        for size in (3, 4, 5):
            for inst in nd.sample_tight_games(size, size, self.per_size, rng):
                items.append((inst.game, nd.Profile(inst.input.x_star, inst.input.y_star)))
        return items

    def run(self, nd, item):
        game, p0 = item
        return nd.dfm_solve(game, p0, delta=self.delta, max_iter=MAX_ITER)

    def check(self, nd, item, res) -> Outcome:
        game, _ = item
        out = check_profile(game, res.profile, res.f, 1.0 / 3.0 + self.delta + 1e-6)
        return Outcome(out.error, out.fs, f"{res.trace.case}{res.trace.branch}")


class Gen5x5:
    """One 5x5 generator draw: generate_tight, then verify_tight on each instance."""

    name = "gen-5x5"
    why = ("success-rate batch: a feasibility LP over 2mn bounded entries plus "
           "the Python loops that assemble its rows; the descent is never called")
    ops = 120
    pass_s = 3.3
    tail_pct = 75.0
    exercises = ("lp.tight", "generator.generate_tight", "generator.verify_tight",
                 "game.regrets")

    def build(self, nd, rng):
        return [
            (nd.sample_inputs(5, 5, "disjoint", rng, pure_duals=False),
             int(rng.integers(2**32)))
            for _ in range(self.ops)
        ]

    def run(self, nd, item):
        inp, op_seed = item
        insts = nd.generate_tight(inp, rng=np.random.default_rng(op_seed))
        return insts, [nd.verify_tight(inst.game, inst.input) for inst in insts]

    def check(self, nd, item, res) -> Outcome:
        insts, certs = res
        b = nd.solve_b().b
        fs = []
        for inst, cert in zip(insts, certs):
            if not cert.passed:
                return Outcome("certificate-failed", tuple(fs))
            f = max(regret_pair(inst.game.R, inst.game.C,
                                inst.input.x_star, inst.input.y_star))
            fs.append(f)
            if abs(f - b) > 1e-6:
                return Outcome("f-not-b", tuple(fs))
        return Outcome(None, tuple(fs), "feasible" if insts else "infeasible")


WORKLOADS = {w.name: w for w in (TsTight3(), DfmHard(), Gen5x5())}
