"""Experiment harness: stability of worst-case stationary points under
perturbed restarts, the outside-the-ball restart strategy, generator success
rates, and algorithm comparison, all at desk scale with seeded, re-runnable
trial streams and structured reports.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, asdict, replace
from io import StringIO

import numpy as np

from .adjust import ts_solve
from .descent import DescentBudgetError, find_stationary
from .baselines import fictitious_play, regret_matching, zero_sum_baseline
from .dfm import dfm_solve
from .game import Game, Profile, mixed
from .generator import (
    RESTRICTIONS,
    SamplingError,
    TightInstance,
    generate_tight,
    has_no_candidates,
    perturb_profile,
    profile_distance,
    sample_inputs,
    sample_outside_ball,
    tight_feasible,
)
from .lp import LpNumericalError

F_THRESHOLD = 0.339
# Descent precision of the outside-the-ball restarts.
OTB_DELTA = 1e-2
# Share of an instance's outside-the-ball restarts that must be effective.
EFFECTIVENESS = 0.95
# Lattice resolution of exp-compare's initial-point cells.
RESOLUTION = 10
# The algorithms exp-compare runs: the descent pipelines ts and dfm from `points`
# lattice starts each, then fictitious play, regret matching and zero-sum once.
ALGORITHMS = ("ts", "dfm", "fp", "rm", "zs")
CSV_COLUMNS = ("experiment", "instance", "algorithm", "seed", "f", "iterations",
               "wall_ms", "detail")
# Generator inputs a tight-game draw loop makes before it gives up.
MAX_INPUT_DRAWS = 10_000


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% confidence interval for a binomial proportion (score method).

    At 0 successes the lower end is exactly 0, and at ``trials`` successes
    the upper end is exactly 1: the score interval's values there, which
    the floating-point formula can miss by a rounding error.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass
class ExperimentConfig:
    sizes: tuple = ((3, 3),)
    count: int = 100           # tight instances per size
    trials: int = 200          # generator-input draws per success-rate cell
    delta: float = 1e-3        # descent precision inside the ball experiments
    radius: float = 0.01       # perturbation-ball radius
    samples: int | None = None  # restarts per instance; default 16(m-1)(n-1)
    rounds: int = 10_000       # learning-dynamics rounds
    points: int = 500          # descent initial points per instance (compare)
    restriction: str = "disjoint"
    restrictions: tuple = RESTRICTIONS
    pure_duals: bool = True
    lambda_intersect: bool = False
    algorithms: tuple = ALGORITHMS
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        counts = {"count": self.count, "trials": self.trials, "rounds": self.rounds,
                  "points": self.points, "samples": self.samples}
        low = [name for name, v in counts.items() if v is not None and v < 1]
        if low:
            raise ValueError(f"counts must be positive: {', '.join(low)}")
        if not all(0.0 < v < math.inf for v in (self.radius, self.delta)):
            raise ValueError("radius and precisions must be positive finite numbers")
        named = [("algorithm", v, ALGORITHMS) for v in self.algorithms] + [
            ("restriction", v, RESTRICTIONS) for v in (self.restriction, *self.restrictions)]
        for name, v, known in named:
            if v not in known:
                raise ValueError(f"unknown {name} {v!r}; expected one of {', '.join(known)}")
        for size in self.sizes:
            if not (isinstance(size, (tuple, list)) and len(size) == 2
                    and all(isinstance(k, (int, np.integer)) and k >= 2 for k in size)):
                raise ValueError(f"sizes must be (m, n) pairs with m, n >= 2, got {size!r}")

    def ball_samples(self, m: int, n: int) -> int:
        return self.samples if self.samples is not None else 16 * (m - 1) * (n - 1)


@dataclass
class TrialRecord:
    experiment: str
    instance: str
    algorithm: str
    seed: int
    f: float
    iterations: int
    wall_ms: float
    detail: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    config: dict
    records: list
    aggregates: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "records": [asdict(r) for r in self.records],
                "aggregates": self.aggregates,
            },
            indent=1,
        )

    def to_csv(self) -> str:
        out = StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for r in self.records:
            out.write(
                f"{r.experiment},{r.instance},{r.algorithm},{r.seed},"
                f"{r.f:.12g},{r.iterations},{r.wall_ms:.3f},"
                f"\"{json.dumps(r.detail).replace(chr(34), chr(39))}\"\n"
            )
        return out.getvalue()

    def write(self, path: str, fmt: str = "json"):
        text = self.to_json() if fmt == "json" else self.to_csv()
        with open(path, "w") as fh:
            fh.write(text)


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _tight_draws(m: int, n: int, restriction: str, rng: np.random.Generator,
                 pure_duals: bool, per_draw: int, lambda_intersect: bool,
                 max_draws: int = MAX_INPUT_DRAWS):
    """Per generator-input draw, the up to ``per_draw`` tight instances
    ``generate_tight`` makes from it, for at most ``max_draws`` draws.

    Raises SamplingError before the first draw when no input of this size
    and restriction can have a candidate best-response pair.
    """
    if has_no_candidates(m, n, restriction):
        raise SamplingError(f"no {restriction} input at {m}x{n} has a candidate "
                            "best-response pair, so no tight game exists")
    for _ in range(max_draws):
        inp = sample_inputs(m, n, restriction, rng, pure_duals=pure_duals)
        yield generate_tight(inp, count=per_draw, rng=rng, lambda_intersect=lambda_intersect)


def sample_tight_games(
    m: int,
    n: int,
    count: int,
    rng: np.random.Generator,
    restriction: str = "disjoint",
    pure_duals: bool = True,
    groups: int = 10,
    lambda_intersect: bool = False,
) -> list[TightInstance]:
    """Sample `count` tight instances from `groups` independent input draws.

    Inputs are rejection-sampled until the feasibility program admits a
    game; each feasible input contributes an equal share of instances.
    """
    out: list[TightInstance] = []
    for insts in _tight_draws(m, n, restriction, rng, pure_duals,
                              math.ceil(count / groups), lambda_intersect):
        out.extend(insts)
        if len(out) >= count:
            return out[:count]
    raise SamplingError(f"could not generate {count} tight {m}x{n} instances "
                        f"in {MAX_INPUT_DRAWS} input draws")


def _random_composition(rng: np.random.Generator, total: int, parts: int) -> np.ndarray:
    """Uniform composition of `total` into `parts` nonnegative integers."""
    if parts == 1:
        return np.array([total])
    cuts = np.sort(rng.choice(total + parts - 1, size=parts - 1, replace=False))
    starts = np.concatenate([[0], cuts + 1])
    ends = np.concatenate([cuts, [total + parts - 1]])
    return ends - starts


def lattice_profile(m: int, n: int, resolution: int, rng: np.random.Generator) -> Profile:
    """One initial point from a uniformly chosen cell of a barycentric grid.

    The cell anchor is a uniform lattice point of the given resolution; the
    point is jittered inside the cell and renormalized.
    """
    def side(k: int) -> np.ndarray:
        anchor = _random_composition(rng, resolution, k) / resolution
        jitter = rng.dirichlet(np.ones(k)) / resolution
        v = anchor + jitter
        return mixed(v / v.sum())

    return Profile(side(m), side(n))


# ---------------------------------------------------------------------------
# Per-instance tasks (top level so worker processes can unpickle them).


def _restarts(payload, start):
    """The prescribed profile and a lazy stream of descents, restart t from
    start(star, radius, rng(seed, t)); each task applies its own stop rule."""
    _, inst, radius, delta, samples, seed = payload
    star = Profile(mixed(inst.input.x_star), mixed(inst.input.y_star))
    descents = (find_stationary(inst.game, start(star, radius, _rng(seed, t)), delta)
                for t in range(samples))
    return star, descents


def _stability_task(payload):
    key, _, radius, _, samples, seed = payload
    star, descents = _restarts(payload, perturb_profile)
    t0 = time.perf_counter()
    trials_run = 0
    stable = True
    last_f = float("nan")
    iters = 0
    for sp in descents:
        trials_run += 1
        iters += sp.iterations
        last_f = sp.f
        if profile_distance(sp.profile, star) >= radius:
            stable = False
            break
    wall = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(
        "stability", key, "ts-descent", seed, last_f, iters, wall,
        {"stable": stable, "trials_run": trials_run, "samples": samples},
    )


def _otb_task(payload):
    key, _, radius, _, samples, seed = payload
    star, descents = _restarts(payload, sample_outside_ball)
    t0 = time.perf_counter()
    effective_trials = 0
    iters = 0
    last_f = float("nan")
    for sp in descents:
        iters += sp.iterations
        last_f = sp.f
        if profile_distance(sp.profile, star) >= radius and sp.f < F_THRESHOLD:
            effective_trials += 1
    wall = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(
        "outside-the-ball", key, "ts-descent", seed, last_f, iters, wall,
        {
            "effective_trials": effective_trials,
            "samples": samples,
            "effective": effective_trials >= EFFECTIVENESS * samples,
        },
    )


def run_algorithm(game: Game, algorithm: str, p0: Profile | None, delta: float,
                  rounds: int, rng: np.random.Generator | None):
    """One run of ``algorithm`` on ``game``, as (f, profile, iterations, detail).

    The descent pipelines ts and dfm start from p0 with precision delta;
    fictitious play and regret matching play ``rounds`` rounds, regret
    matching drawing from rng; the zero-sum baseline reads only the game.
    """
    if algorithm == "ts":
        res = ts_solve(game, p0, delta)
        return res.best.f, res.best.profile, res.sp.iterations, {
            "stationary_f": res.stationary_f, "ts_f": res.ts_f,
            "boundary_f": res.boundary_f, "linear_f": res.linear_f,
            "best_method": res.best.method,
        }
    if algorithm == "dfm":
        res = dfm_solve(game, p0, delta)
        return res.f, res.profile, res.sp.iterations, {
            "case": res.trace.case, "branch": res.trace.branch, "stationary_f": res.sp.f}
    if algorithm == "fp":
        trace = fictitious_play(game, rounds)
        return trace.f, trace.profile, rounds, {}
    if algorithm == "rm":
        trace = regret_matching(game, rounds, rng)
        return trace.f, trace.profile, rounds, {}
    if algorithm == "zs":
        res = zero_sum_baseline(game)
        return res.f, res.profile, 0, {"candidate": res.candidate, "adjusted": res.adjusted}
    raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}")


def _compare_task(payload):
    """The descent pipelines run once per lattice start, trial t from
    rng(seed, t); the other algorithms run once, from rng(seed)."""
    key, game, algorithm, seed, delta, rounds, points = payload
    descent = algorithm in ("ts", "dfm")
    records = []
    for t in range(points if descent else 1):
        rng = _rng(seed, t) if descent else _rng(seed)
        p0 = lattice_profile(game.m, game.n, RESOLUTION, rng) if descent else None
        t0 = time.perf_counter()
        error = None
        try:
            f, _, iters, detail = run_algorithm(game, algorithm, p0, delta, rounds, rng)
        except DescentBudgetError as err:
            f, iters = err.f, err.iterations
        except LpNumericalError as err:
            # A failed run is a record with no f, not an aborted experiment.
            f, iters, detail, error = math.nan, 0, {}, str(err)
        wall = (time.perf_counter() - t0) * 1000.0
        detail = {"trial": t} if descent else detail
        if error is not None:
            detail = {**detail, "error": error}
        records.append(TrialRecord("compare", key, algorithm, seed, f, iters, wall, detail))
    return records


def _pmap(fn, payloads, workers: int):
    if workers <= 1:
        return [fn(p) for p in payloads]
    # Imported here: it loads multiprocessing, sockets and subprocesses,
    # which a serial run never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


# ---------------------------------------------------------------------------
# Experiments.


def _report(name: str, cfg: ExperimentConfig, records: list) -> ExperimentReport:
    """The report of experiment ``name``: its config, which names it, its
    records and their aggregates."""
    cfg_dict = {"experiment": name, **asdict(cfg), "sizes": [list(s) for s in cfg.sizes]}
    return ExperimentReport(cfg_dict, records, AGGREGATORS[name](records, cfg_dict))


def _tight_games(cfg: ExperimentConfig):
    """(size index, m, n, tight instances) for each configured size."""
    for si, (m, n) in enumerate(cfg.sizes):
        yield si, m, n, sample_tight_games(
            m, n, cfg.count, _rng(cfg.seed, si), cfg.restriction,
            pure_duals=cfg.pure_duals, lambda_intersect=cfg.lambda_intersect,
        )


def _restart_payloads(cfg: ExperimentConfig, si: int, m: int, n: int, games, delta,
                      *seed_key) -> list:
    """One restart-task payload per instance; seeds derive from (seed, si, gi, *seed_key)."""
    return [
        (f"{m}x{n}#{gi}", inst, cfg.radius, delta, cfg.ball_samples(m, n),
         int(_rng(cfg.seed, si, gi, *seed_key).integers(2**31)))
        for gi, inst in enumerate(games)
    ]


def aggregate_stability(records, cfg_dict) -> dict:
    agg = {}
    for m, n in (tuple(s) for s in cfg_dict["sizes"]):
        size = f"{m}x{n}"
        rs = [r for r in records if r.instance.startswith(size + "#")]
        stable = sum(1 for r in rs if r.detail["stable"])
        if rs:
            lo, hi = wilson_interval(stable, len(rs))
            agg[size] = {
                "instances": len(rs),
                "stable": stable,
                "rate": stable / len(rs),
                "wilson95": [lo, hi],
            }
    return agg


def exp_stability(cfg: ExperimentConfig) -> ExperimentReport:
    """Perturbed-restart stability of generated worst-case instances.

    An instance is stable when descent returns within the perturbation ball
    for every one of its restarts (the scan short-circuits at the first
    escape).  Fall-back is measured on the descent output profile in the
    max norm.
    """
    records = []
    for si, m, n, games in _tight_games(cfg):
        payloads = _restart_payloads(cfg, si, m, n, games, cfg.delta)
        records.extend(_pmap(_stability_task, payloads, cfg.workers))
    return _report("stability", cfg, records)


def aggregate_otb(records, cfg_dict) -> dict:
    agg = {}
    for m, n in (tuple(s) for s in cfg_dict["sizes"]):
        size = f"{m}x{n}"
        rs = [r for r in records if r.instance.startswith(size + "#")]
        if rs:
            agg[size] = {
                "stable_instances": len(rs),
                "effective": sum(1 for r in rs if r.detail["effective"]),
            }
    return agg


def exp_outside_ball(cfg: ExperimentConfig) -> ExperimentReport:
    """Restarts sampled outside the perturbation ball, on stable instances.

    A trial is effective when descent ends outside the ball with a ratio
    below the 0.339 threshold; an instance is effective when at least the
    share EFFECTIVENESS (95%) of its trials are.
    """
    records = []
    for si, m, n, games in _tight_games(cfg):
        stab = _pmap(_stability_task, _restart_payloads(cfg, si, m, n, games, cfg.delta),
                     cfg.workers)
        restarts = _restart_payloads(cfg, si, m, n, games, OTB_DELTA, 1)
        payloads = [p for p, srec in zip(restarts, stab) if srec.detail["stable"]]
        records.extend(_pmap(_otb_task, payloads, cfg.workers))
    return _report("outside-the-ball", cfg, records)


def aggregate_success(records, cfg_dict) -> dict:
    agg = {}
    for m, n in (tuple(s) for s in cfg_dict["sizes"]):
        for restriction in cfg_dict["restrictions"]:
            key = f"{m}x{n}/{restriction}"
            rs = [r for r in records if r.instance == key]
            if rs:
                k = sum(1 for r in rs if r.detail["feasible"])
                lo, hi = wilson_interval(k, len(rs))
                agg[key] = {
                    "trials": len(rs),
                    "feasible": k,
                    "rate": k / len(rs),
                    "wilson95": [lo, hi],
                }
    return agg


def exp_success_rate(cfg: ExperimentConfig) -> ExperimentReport:
    """Feasibility rate of the tight-instance program over random inputs.

    Inputs are always drawn with set-valued witnesses, the distribution the
    success tables are stated for; the report's config records
    ``pure_duals`` false.
    """
    cfg = replace(cfg, pure_duals=False)
    records = []
    for si, (m, n) in enumerate(cfg.sizes):
        for ri, restriction in enumerate(cfg.restrictions):
            key = f"{m}x{n}/{restriction}"
            for t in range(cfg.trials):
                rng = _rng(cfg.seed, si, ri, t)
                t0 = time.perf_counter()
                inp = sample_inputs(m, n, restriction, rng, pure_duals=False)
                ok = tight_feasible(inp, lambda_intersect=cfg.lambda_intersect)
                wall = (time.perf_counter() - t0) * 1000.0
                records.append(TrialRecord(
                    "success-rate", key, "generator", t, float(ok), 0, wall,
                    {"feasible": bool(ok)},
                ))
    return _report("success-rate", cfg, records)


def aggregate_compare(records, cfg_dict) -> dict:
    """Per algorithm: its runs, how many of them failed (a record whose
    detail holds an ``error``), and the statistics of f over the others,
    None when every run failed."""
    agg = {}
    for alg in cfg_dict["algorithms"]:
        runs = [r for r in records if r.algorithm == alg]
        if not runs:
            continue
        fs = np.array([r.f for r in runs if "error" not in r.detail])
        stats = dict.fromkeys(("pr_f_above_339", "pr_f_above_01", "median_f", "max_f"))
        if fs.size:
            stats = {
                "pr_f_above_339": float((fs > F_THRESHOLD).mean()),
                "pr_f_above_01": float((fs > 0.01).mean()),
                "median_f": float(np.median(fs)),
                "max_f": float(fs.max()),
            }
        agg[alg] = {"runs": len(runs), "failed": len(runs) - int(fs.size), **stats}
    return agg


def exp_compare(cfg: ExperimentConfig) -> ExperimentReport:
    """Descent pipelines versus learning dynamics and the zero-sum baseline
    on generated worst-case instances."""
    records = []
    for si, m, n, games in _tight_games(cfg):
        payloads = []
        for gi, inst in enumerate(games):
            for ai, alg in enumerate(cfg.algorithms):
                payloads.append((
                    f"{m}x{n}#{gi}", inst.game, alg,
                    int(_rng(cfg.seed, si, gi, ai).integers(2**31)),
                    cfg.delta, cfg.rounds, cfg.points,
                ))
        for recs in _pmap(_compare_task, payloads, cfg.workers):
            records.extend(recs)
    return _report("compare", cfg, records)


AGGREGATORS = {
    "stability": aggregate_stability,
    "outside-the-ball": aggregate_otb,
    "success-rate": aggregate_success,
    "compare": aggregate_compare,
}


def recompute_aggregates(report: ExperimentReport) -> dict:
    """Rebuild the aggregates from the raw records (consistency check)."""
    kinds = {r.experiment for r in report.records}
    if len(kinds) != 1:
        raise ValueError(f"records carry mixed experiments: {kinds}")
    return AGGREGATORS[kinds.pop()](report.records, report.config)
