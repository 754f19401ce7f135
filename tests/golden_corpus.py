"""A small seeded corpus of solver outputs, used as a regression reference.

``build_corpus()`` recomputes every entry from fixed seeds; the stored copy
``golden_corpus.json`` was written by running this module against the code
before the player-swap refactor, and ``test_golden.py`` checks that the
current code still reproduces it.  The entries that minimize f along a
segment (``segment_min_f``, the adjust entries' ``dfm`` and ``boundary``,
``dfm_solve``, the zero-sum entries that mix toward best responses, and
``verify_tight``'s ``boundary_min``) were rewritten when the sampled segment
searches gave way to the exact minimizer; no f value rose by more than
2.3e-16, and four ``boundary`` values fell, where the old edge enumerator
had missed a kink of the column regret.  The ``generate_tight`` entries
(with ``tight_feasible`` on the same inputs) were added from the code before
the generator's LPs began to share one phase 1 per constraint set, and are
compared exactly.  The ``solve_lp`` entries (60 seeded programs and the real
LPs of one ts_solve run and one generate_tight draw) were added from the
code before the simplex kernel's pivots and set-up were rewritten, and are
compared exactly too.  The ``generate_tight`` entries of the intersecting
spec were appended from the code before sample_inputs tested supports with
Python sets.  The ``rectangle_scan_f`` entries and the verify entries'
``grid_min`` and ``grid_above_b`` were renamed ``square_min_f``,
``square_min`` and ``square_above_b`` with their stored values kept, when
the lattice scans gave way to the exact square minimizer; it reproduces
them within 3.4e-16.  The baselines' ``zs`` entries, and only those, were
rewritten when ``solve_zero_sum`` began to take the column player's
strategy from the row LP's multipliers instead of a second LP; 16 of the 47
moved beyond 1e-12, where the two LPs had picked different minimax
strategies.  The whole file was then regenerated once on code meant to
give the same outputs, to take up the last-bit drift earlier kernels had
left: 349 stored values moved, none by more than 1.4e-15 (314 in
``ts_solve``, 16 in ``balance``, 13 in ``adjust``, 2 in
``scaled_derivative`` and 4 in ``experiments``), and ``ts_solve[21]``'s
``best.method``, a 1e-16 tie the test sets aside, went from "ts" to
"stationary".  Since then a plain regeneration rewrites only the entries a
change moves, and a second run rewrites nothing.  When ``generate_tight``
lost its option to sample every feasible best-response pair, the entries
of the two specs that had set it and had an input with more than one
feasible pair, and only those, were rewritten: ``generate_tight[3]`` and
``[13]`` kept the games of their first pair and lost the rest, and
``[4]`` and ``[14]``, the next draws of the same specs, moved with the
RNG that the dropped pairs no longer use.  The 7x7 spec (disjoint
supports, mixed duals) was appended from the code before large tableaux'
pivots began to update only the rows they change; that regeneration added
its three ``generate_tight`` entries and rewrote nothing else, and a second
run rewrote nothing.  Those entries had been written with two BLAS threads,
and two of them, ``generate_tight[29]`` and ``[31]``, differ from a
one-thread run in the last bit of 25 floats; they were re-stored from a
one-thread run of the same code, which rewrote nothing else.  The tests and
a regeneration both run with one BLAS thread.  Regenerate with

    PYTHONPATH=src python tests/golden_corpus.py

only when an output is meant to change, and say why in the change log.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads, as in tests/conftest.py.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import contextlib
import dataclasses
import json
import sys

import numpy as np

from nashdescent import descent, generator
from nashdescent.adjust import (
    adjust_boundary_min,
    adjust_linear,
    adjust_ts,
    ts_solve,
)
from nashdescent.baselines import fictitious_play, regret_matching, zero_sum_baseline
from nashdescent.descent import (
    DescentBudgetError,
    DualSolution,
    StationaryPoint,
    balance,
    scaled_derivative,
)
from nashdescent.dfm import dfm_adjust, dfm_solve
from nashdescent.experiments import (
    ExperimentConfig,
    exp_compare,
    exp_outside_ball,
    exp_stability,
    lattice_profile,
    sample_tight_games,
)
from nashdescent.game import Game, Profile, mixed, regrets, segment_min_f, square_min_f
from nashdescent.generator import (
    dfm_family,
    dfm_tight,
    generate_tight,
    sample_inputs,
    tight_3x3,
    tight_feasible,
    tight_m_n,
    verify_tight,
)
from nashdescent.lp import EQ, GE, LE, LinearProgram, LpNumericalError, solve_lp

PATH = os.path.join(os.path.dirname(__file__), "golden_corpus.json")
DELTA = 1e-3
MAX_ITER = 200
# Shapes of the uniform random games; the non-square ones catch a swap that
# mixes up m and n.
RANDOM_SHAPES = ((3, 3), (4, 3), (3, 5))


def plain(obj):
    """JSON-ready copy: arrays to lists, records to dicts, floats kept exact."""
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {k: plain(v) for k, v in obj._asdict().items()}
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def random_game(rng, m: int, n: int) -> Game:
    return Game(rng.uniform(size=(m, n)), rng.uniform(size=(m, n)))


def random_profile(rng, m: int, n: int) -> Profile:
    return Profile(mixed(rng.dirichlet(np.ones(m))), mixed(rng.dirichlet(np.ones(n))))


def sp_record(sp: StationaryPoint) -> dict:
    return {
        "profile": plain(sp.profile), "dual": plain(sp.dual), "f": sp.f,
        "value": sp.value, "lambda_star": sp.lambda_star, "mu_star": sp.mu_star,
        "iterations": sp.iterations,
    }


def _solver_games():
    """Generated tight games, the inputs the descent pipelines are studied on.

    Uniform random games are left out of the descent runs: on some of them
    the equalized dual witness moves by up to 6.5e-8 when a balance LP row
    changes in its last bit, far beyond what a 1e-12 comparison allows.
    """
    tight3 = [inst.game for inst in sample_tight_games(3, 3, 6, np.random.default_rng(11), groups=6)]
    tight4 = [inst.game for inst in sample_tight_games(4, 4, 3, np.random.default_rng(12), groups=3)]
    return tight3 + tight4


def _random_games():
    rng = np.random.default_rng(13)
    return [random_game(rng, m, n) for m, n in RANDOM_SHAPES for _ in range(2)]


def ts_entries(games) -> list:
    out = []
    for gi, game in enumerate(games):
        rng = np.random.default_rng([21, gi])
        for _ in range(3):
            p0 = lattice_profile(game.m, game.n, 10, rng)
            try:
                res = ts_solve(game, p0, DELTA, max_iter=MAX_ITER)
            except (DescentBudgetError, LpNumericalError) as err:
                out.append({"game": gi, "p0": plain(p0), "error": type(err).__name__})
                continue
            sp = res.sp
            out.append({
                "game": gi, "p0": plain(p0),
                "stationary_f": res.stationary_f, "ts_f": res.ts_f,
                "boundary_f": res.boundary_f, "linear_f": res.linear_f,
                "best": plain(res.best), "sp": sp_record(sp),
                "adjust_ts": plain(adjust_ts(game, sp)),
                "adjust_boundary_min": plain(adjust_boundary_min(game, sp)),
                "adjust_linear": plain(adjust_linear(game, sp)),
                "square_min_f": square_min_f(game, sp.profile, Profile(sp.dual.w, sp.dual.z))[3],
            })
    return out


def dfm_solve_entries(games) -> list:
    out = []
    tight = sample_tight_games(3, 3, 3, np.random.default_rng(31), groups=3)
    starts = [(inst.game, Profile(inst.input.x_star, inst.input.y_star)) for inst in tight]
    for gi, game in enumerate(games):
        starts.append((game, lattice_profile(game.m, game.n, 10, np.random.default_rng([32, gi]))))
    for game, p0 in starts:
        try:
            res = dfm_solve(game, p0, DELTA, max_iter=MAX_ITER)
        except (DescentBudgetError, LpNumericalError) as err:
            out.append({"error": type(err).__name__})
            continue
        out.append({"profile": plain(res.profile), "f": res.f, "sp": sp_record(res.sp),
                    "trace": plain(res.trace)})
    return out


def fallback_pair(lam: float = 0.6, mu: float = 0.9) -> tuple[Game, StationaryPoint]:
    """Case-3 data on which branch B's denominator is negative.

    Row 0 pays 1 everywhere and the witness w = e_1 pays 0, so t_r = 1 and
    v_r = -1; a constant C row 0 gives mu_hat = 0 < mu, which rules out
    branch A, and then 1 + mu/2 - lam - t_r < 0.
    """
    rng = np.random.default_rng(42)
    R = np.vstack([np.ones(3), np.zeros(3), rng.uniform(size=3)])
    C = np.vstack([np.full(3, 0.5), rng.uniform(size=(2, 3))])
    p = random_profile(rng, 3, 3)
    sp = StationaryPoint(p, DualSolution(0.5, mixed([0.0, 1.0, 0.0]), mixed(rng.dirichlet(np.ones(3)))),
                         0.0, 0.0, lam, mu, 0)
    return Game(R, C), sp


def negative_beta_pair() -> tuple[Game, StationaryPoint]:
    """Case-4 data on which branch B's beta, in case 3's frame, is negative.

    Swapped, w_hat = e_1 earns 1 against y_hat and the witness 8/9 e_0 +
    1/9 e_1 earns about 0.19, so t_r is about 0.81 > 1 - mu/2 = 0.5 while
    1 + mu/2 - lambda - t_r stays positive; beta would be about -4.5.
    """
    R, C = np.zeros((3, 2)), np.array([[0.0, 1.0], [0.25, 1.0], [0.0, 1.0]])
    sp = StationaryPoint(Profile(mixed([0.4, 0.4, 0.2]), mixed([0.5, 0.5])),
                         DualSolution(0.0, mixed(np.ones(3) / 3), mixed([8 / 9, 1 / 9])),
                         0.0, 0.0, 1.0, 0.625, 0)
    return Game(R, C), sp


def mirrored_sp(game: Game, sp: StationaryPoint) -> tuple[Game, StationaryPoint]:
    """The same data with the players exchanged, built by hand."""
    d = sp.dual
    return Game(game.C.T, game.R.T), StationaryPoint(
        Profile(sp.profile.y, sp.profile.x), DualSolution(1.0 - d.rho, d.z, d.w),
        sp.f, sp.value, sp.mu_star, sp.lambda_star, sp.iterations)


def adjust_pairs() -> list:
    """Every DFM case and branch: static instances, their mirrors, fabricated
    stationary records with prescribed height differences on random games,
    and the branch-B fallback."""
    pairs = []
    for inst in (tight_3x3(), dfm_tight(), dfm_family(0.1), tight_m_n(3, 4)):
        pairs.append((inst.game, inst.stationary_point()))
        pairs.append(mirrored_sp(inst.game, inst.stationary_point()))
    rng = np.random.default_rng(41)
    heights = ((0.6, 0.9), (0.9, 0.6), (0.55, 0.99), (0.99, 0.55), (0.3, 0.8), (0.8, 0.8))
    for m, n in RANDOM_SHAPES:
        for lam, mu in heights:
            game = random_game(rng, m, n)
            p = random_profile(rng, m, n)
            q = random_profile(rng, m, n)
            sp = StationaryPoint(p, DualSolution(float(rng.uniform()), q.x, q.y),
                                 0.0, 0.0, lam, mu, 0)
            pairs.append((game, sp))
    pairs.append(fallback_pair())
    pairs.append(mirrored_sp(*fallback_pair()))
    return pairs


def adjust_entries() -> list:
    return [{
        "dfm": plain(dfm_adjust(game, sp)),
        "ts": plain(adjust_ts(game, sp)),
        "boundary": plain(adjust_boundary_min(game, sp)),
        "linear": plain(adjust_linear(game, sp)),
    } for game, sp in adjust_pairs()]


def balance_entries() -> list:
    out = []
    rng = np.random.default_rng(51)
    for m, n in RANDOM_SHAPES:
        for _ in range(6):
            game = random_game(rng, m, n)
            p = random_profile(rng, m, n)
            q = balance(game, p)
            r = regrets(game, p)
            out.append({"row_side": r.fR > r.fC, "skipped": q is p, "profile": plain(q)})
    inst = tight_3x3()
    p = inst.profile
    out.append({"skipped": balance(inst.game, p) is p})
    return out


def derivative_entries() -> list:
    out = []
    rng = np.random.default_rng(61)
    for m, n in RANDOM_SHAPES:
        for _ in range(4):
            game = random_game(rng, m, n)
            out.append(plain(scaled_derivative(game, random_profile(rng, m, n),
                                               random_profile(rng, m, n))))
    # A symmetric game at a symmetric profile has fR == fC exactly.
    A = rng.uniform(size=(3, 3))
    game = Game(A, A.T)
    x = mixed(rng.dirichlet(np.ones(3)))
    out.append(plain(scaled_derivative(game, Profile(x, x), random_profile(rng, 3, 3))))
    return out


def segment_entries() -> list:
    out = []
    rng = np.random.default_rng(71)
    for m, n in RANDOM_SHAPES:
        game = random_game(rng, m, n)
        a, b = random_profile(rng, m, n), random_profile(rng, m, n)
        out.append(plain(segment_min_f(game, a, b)))
    return out


def verify_entries() -> list:
    out = []
    for inst in sample_tight_games(3, 3, 2, np.random.default_rng(81), groups=2):
        cert = verify_tight(inst.game, inst.input, full_square=True)
        out.append({"checks": cert.checks, "values": plain(cert.values)})
    return out


# (m, n, support restriction, pure duals, lambda_intersect); the
# nested and intersecting inputs are never feasible, so their phase 1 ends
# infeasible.  Together the specs reach every restriction sample_inputs
# branches on, and the recorded inputs pin its draws.
GENERATOR_SPECS = (
    (3, 3, "disjoint", True, False),
    (3, 3, "disjoint", False, False),
    (4, 4, "disjoint", True, True),
    (4, 4, "none", False, False),
    (5, 5, "disjoint", True, False),
    (5, 5, "disjoint", False, True),
    (3, 3, "nested", False, False),
    (3, 3, "intersecting", True, False),
    (7, 7, "disjoint", False, False),
)


def generator_entries() -> list:
    """generate_tight and tight_feasible on seeded inputs; compared exactly."""
    out = []
    for si, (m, n, restriction, pure, intersect) in enumerate(GENERATOR_SPECS):
        rng = np.random.default_rng([111, si])
        feasible = 0
        for _ in range(6):
            if feasible == 2:
                break
            inp = sample_inputs(m, n, restriction, rng, pure_duals=pure)
            insts = generate_tight(inp, count=2, rng=rng, lambda_intersect=intersect)
            feasible += bool(insts)
            out.append({
                "input": plain(inp),
                "feasible": tight_feasible(inp, lambda_intersect=intersect),
                "instances": [{"k": inst.k, "l": inst.l, "R": plain(inst.game.R),
                               "C": plain(inst.game.C)} for inst in insts],
            })
    return out


def random_program(rng) -> LinearProgram:
    """A small seeded program with EQ/GE/LE rows and free, shifted and
    upper-bounded variables; small integer data makes many of them
    degenerate, infeasible or unbounded."""
    nv = int(rng.integers(1, 7))
    lower, upper = [], []
    for _ in range(nv):
        lo = [0.0, None, -1.5, 0.5][int(rng.integers(4))]
        width = [None, None, 1.0, 2.5][int(rng.integers(4))] if lo is not None else None
        lower.append(lo)
        upper.append(None if width is None else lo + width)
    integers = rng.uniform() < 0.5

    def draw(size):
        return rng.integers(-3, 4, size=size).astype(float) if integers else rng.normal(size=size)

    rows = [(draw(nv), [LE, EQ, GE][int(rng.integers(3))], float(draw(1)[0]))
            for _ in range(int(rng.integers(0, 7)))]
    sense = ["min", "max"][int(rng.integers(2))]
    return LinearProgram(draw(nv), sense, *row_block(rows, nv), lower=lower, upper=upper)


def row_block(rows, nv: int):
    """(coefficients, relations, rhs) of a list of (a, rel, b) rows."""
    return (np.array([a for a, _, _ in rows]).reshape(len(rows), nv),
            [rel for _, rel, _ in rows], [b for _, _, b in rows])


# The functions that call solve_lp, by the LP they state.
LP_SITES = {"_rebalance_row": "balance", "direction": "direction",
            "_equalized_dual_weights": "equalized", "_first_feasible": "tight",
            "generate_tight": "tight"}


@contextlib.contextmanager
def captured_lps(out: list):
    """Append (site, program, outcome) for every solve_lp call that the
    descent and the generator make inside the block."""
    def recording(lp):
        site = LP_SITES[sys._getframe(1).f_code.co_name]
        try:
            sol = solve_lp(lp)
        except LpNumericalError as err:
            out.append((site, lp, err))
            raise
        out.append((site, lp, sol))
        return sol

    modules = (descent, generator)
    saved = [mod.solve_lp for mod in modules]
    for mod in modules:
        mod.solve_lp = recording
    try:
        yield out
    finally:
        for mod, fn in zip(modules, saved):
            mod.solve_lp = fn


def real_lps() -> list:
    """The balance, direction, equalized-dual and tight LPs of one seeded
    ts_solve run on a generated 3x3 tight game and one seeded 5x5
    generate_tight draw, as (site, program, outcome)."""
    game = sample_tight_games(3, 3, 1, np.random.default_rng(121), groups=1)[0].game
    p0 = lattice_profile(3, 3, 10, np.random.default_rng(122))
    rng = np.random.default_rng(123)
    inp = sample_inputs(5, 5, "disjoint", rng, pure_duals=False)
    out = []
    with captured_lps(out):
        ts_solve(game, p0, DELTA, max_iter=MAX_ITER)
        generate_tight(inp, count=2, rng=rng)
    return out


def lp_entries() -> list:
    """solve_lp on 60 seeded programs and on the captured real LPs; compared
    exactly."""
    rng = np.random.default_rng(131)
    cases = []
    for _ in range(60):
        lp = random_program(rng)
        try:
            cases.append(("random", lp, solve_lp(lp)))
        except LpNumericalError as err:
            cases.append(("random", lp, err))
    cases += real_lps()
    return [{"site": site, "rows": len(lp.constraints),
             **({"error": str(out)} if isinstance(out, LpNumericalError) else plain(out))}
            for site, lp, out in cases]


def baseline_entries(games) -> list:
    out = []
    games = games + _random_games()
    # On 0/1 games both zero-sum candidates miss the threshold often enough
    # that the mixing scan runs (3 of these 30).
    rng = np.random.default_rng(101)
    binary = [Game(rng.integers(0, 2, size=(3, 3)), rng.integers(0, 2, size=(3, 3)))
              for _ in range(30)]
    zs_games = games + [tight_m_n(3, 4).game, tight_3x3().game] + binary
    for game in zs_games:
        out.append({"zs": plain(zero_sum_baseline(game))})
    for gi, game in enumerate(games[:4] + games[-2:]):
        out.append({
            "fp": plain(fictitious_play(game, 300)),
            "rm": plain(regret_matching(game, 300, np.random.default_rng([91, gi]))),
        })
    return out


def report_entry(report) -> dict:
    doc = json.loads(report.to_json())
    for rec in doc["records"]:
        del rec["wall_ms"]
    return doc


def experiment_entries() -> dict:
    stab = ExperimentConfig(sizes=((3, 3),), count=3,
                            samples=4, seed=5)
    otb = ExperimentConfig(sizes=((3, 3),), count=2,
                           radius=1e-30, samples=3, seed=6)
    cmp = ExperimentConfig(sizes=((3, 3),), count=1, points=3,
                           rounds=200, seed=7)
    return {
        "stability": report_entry(exp_stability(stab)),
        "outside_ball": report_entry(exp_outside_ball(otb)),
        "compare": report_entry(exp_compare(cmp)),
    }


def build_corpus() -> dict:
    games = _solver_games()
    return {
        "games": [{"R": plain(g.R), "C": plain(g.C)} for g in games],
        "ts_solve": ts_entries(games),
        "dfm_solve": dfm_solve_entries(games),
        "adjust": adjust_entries(),
        "balance": balance_entries(),
        "scaled_derivative": derivative_entries(),
        "segment_min_f": segment_entries(),
        "verify_tight": verify_entries(),
        "generate_tight": generator_entries(),
        "solve_lp": lp_entries(),
        "baselines": baseline_entries(games),
        "experiments": experiment_entries(),
    }


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        json.dump(build_corpus(), fh, indent=0)
        fh.write("\n")
    print(f"wrote {PATH}")
