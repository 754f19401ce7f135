import dataclasses
import json
import math

import numpy as np
import pytest

from nashdescent import experiments, generator
from nashdescent.experiments import (
    ALGORITHMS,
    EFFECTIVENESS,
    ExperimentConfig,
    exp_compare,
    exp_outside_ball,
    exp_stability,
    exp_success_rate,
    lattice_profile,
    recompute_aggregates,
    sample_tight_games,
    wilson_interval,
)
from nashdescent.generator import MAX_INPUT_DRAWS, RESTRICTIONS, SamplingError
from nashdescent.lp import LpNumericalError


def strip_walls(report):
    doc = json.loads(report.to_json())
    for rec in doc["records"]:
        rec["wall_ms"] = None
    return doc


class TestWilson:
    def test_closed_form_check(self):
        lo, hi = wilson_interval(101, 600)
        assert lo == pytest.approx(0.141, abs=1e-3)
        assert hi == pytest.approx(0.200, abs=1e-3)

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        lo, hi = wilson_interval(10, 10)
        assert hi == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            wilson_interval(1, 0)

    def test_exact_end_points_at_every_trial_count(self):
        # The score interval is exactly [0, .] at 0 successes and [., 1] at
        # n; the floating-point formula misses both for some n (n = 3 gives
        # a lower end of 5.55e-17).
        lows = [wilson_interval(0, n)[0] for n in range(1, 2001)]
        highs = [wilson_interval(n, n)[1] for n in range(1, 2001)]
        assert [n for n, lo in enumerate(lows, 1) if lo != 0.0] == []
        assert [n for n, hi in enumerate(highs, 1) if hi != 1.0] == []


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(count=0)
        with pytest.raises(ValueError):
            ExperimentConfig(radius=0.0)

    @pytest.mark.parametrize("name", ["radius", "delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_radius_and_precisions_rejected(self, name, value):
        with pytest.raises(ValueError, match="positive finite"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [("samples", 0), ("samples", -3)])
    def test_counts_below_one_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"counts must be positive: {name}"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("field, value, message", [
        ("algorithms", ("ts", "bogus"), "unknown algorithm 'bogus'"),
        ("restriction", "bogus", "unknown restriction 'bogus'"),
        ("restrictions", ("disjoint", "bogus"), "unknown restriction 'bogus'"),
        ("sizes", ((1, 1),), "sizes must be"),
        ("sizes", ((3, 3), (2, 1)), "sizes must be"),
        ("sizes", ((3, 3, 3),), "sizes must be"),
        ("sizes", (3,), "sizes must be"),
        ("sizes", ((3.0, 3),), "sizes must be"),
    ])
    def test_unrunnable_names_and_sizes_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: value})

    def test_every_algorithm_and_restriction_accepted(self):
        cfg = ExperimentConfig(algorithms=ALGORITHMS, restrictions=RESTRICTIONS,
                               sizes=((2, 2), (3, 5)))
        assert cfg.algorithms == ("ts", "dfm", "fp", "rm", "zs")

    def test_default_ball_samples(self):
        cfg = ExperimentConfig()
        assert cfg.ball_samples(3, 3) == 64
        assert cfg.ball_samples(7, 7) == 16 * 36


class TestSamplingHelpers:
    def test_sample_tight_games_count_and_reproducibility(self):
        a = sample_tight_games(3, 3, 6, np.random.default_rng(5))
        b = sample_tight_games(3, 3, 6, np.random.default_rng(5))
        assert len(a) == len(b) == 6
        for inst_a, inst_b in zip(a, b):
            assert np.array_equal(inst_a.game.R, inst_b.game.R)

    @pytest.mark.parametrize("m, n, pure_duals", [(2, 2, True), (2, 3, False), (3, 2, True),
                                                  (2, 5, False)])
    def test_draws_without_candidates_fail_before_generating(self, monkeypatch, m, n,
                                                             pure_duals):
        def no_generate(*args, **kwargs):
            raise AssertionError("generate_tight was called")

        monkeypatch.setattr(generator, "generate_tight", no_generate)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(SamplingError, match=f"no disjoint input at {m}x{n} has a candidate"):
            sample_tight_games(m, n, 1, rng, pure_duals=pure_duals)
        assert rng.bit_generator.state == state

    def test_sample_tight_games_gives_up_after_its_draws(self, monkeypatch):
        draws = []
        monkeypatch.setattr(generator, "generate_tight",
                            lambda inp, **kwargs: draws.append(inp) or [])
        with pytest.raises(SamplingError, match="could not generate 2 tight 3x3 instances "
                                                "in 10000 input draws"):
            sample_tight_games(3, 3, 2, np.random.default_rng(0))
        assert len(draws) == MAX_INPUT_DRAWS

    def test_lattice_profile_is_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = lattice_profile(4, 5, 10, rng)
            assert p.x.sum() == pytest.approx(1.0)
            assert p.y.sum() == pytest.approx(1.0)
            assert p.x.min() >= 0 and p.y.min() >= 0


class TestStability:
    def test_vanishing_radius_is_always_stable(self):
        # far below the support tolerance the perturbation cannot move the
        # best-response structure, so every restart stops where it began
        cfg = ExperimentConfig(sizes=((3, 3),), count=3,
                               radius=1e-30, samples=5, seed=1)
        rep = exp_stability(cfg)
        assert rep.aggregates["3x3"]["rate"] == 1.0

    def test_report_reproducible_modulo_timing(self):
        cfg = ExperimentConfig(sizes=((3, 3),), count=3,
                               samples=8, seed=2)
        a = exp_stability(cfg)
        b = exp_stability(cfg)
        assert strip_walls(a) == strip_walls(b)

    def test_aggregates_recomputable(self):
        cfg = ExperimentConfig(sizes=((3, 3),), count=4,
                               samples=6, seed=3)
        rep = exp_stability(cfg)
        assert recompute_aggregates(rep) == rep.aggregates

    def test_a_failed_restart_is_counted(self, monkeypatch):
        cfg = ExperimentConfig(sizes=((3, 3),), count=2, samples=3, seed=5)
        want = exp_stability(cfg)
        real = experiments.find_stationary
        calls = []

        def second_descent_fails(game, p0, delta):
            calls.append(None)
            if len(calls) == 2:
                raise LpNumericalError("terminal basis failed feasibility checks")
            return real(game, p0, delta)

        monkeypatch.setattr(experiments, "find_stationary", second_descent_fails)
        got = exp_stability(cfg)
        # Instance 0 escapes at its first restart; instance 1's first
        # restart fails, and its second escapes, as it did before.
        first, bad = (dataclasses.replace(r, wall_ms=0.0) for r in got.records)
        assert first == dataclasses.replace(want.records[0], wall_ms=0.0)
        assert bad.detail == {**want.records[1].detail, "failed": 1}
        assert bad.detail == {"stable": False, "trials_run": 2, "samples": 3, "failed": 1}
        assert got.aggregates["3x3"] == {**want.aggregates["3x3"], "failed": 1}
        assert recompute_aggregates(got) == got.aggregates

    def test_an_instance_with_no_finished_restart_is_not_stable(self, monkeypatch):
        def failing(game, p0, delta):
            raise LpNumericalError("terminal basis failed feasibility checks")

        monkeypatch.setattr(experiments, "find_stationary", failing)
        cfg = ExperimentConfig(sizes=((3, 3),), count=2, samples=3, seed=5)
        rep = exp_stability(cfg)
        assert [r.detail for r in rep.records] == [
            {"stable": False, "trials_run": 3, "samples": 3, "failed": 3}] * 2
        assert rep.aggregates["3x3"]["rate"] == 0.0 and rep.aggregates["3x3"]["failed"] == 6
        # exp_outside_ball runs its trials on stable instances only: none here.
        assert exp_outside_ball(cfg).records == []


class TestOutsideBall:
    def test_definition_and_threshold_monotonicity(self):
        cfg = ExperimentConfig(sizes=((3, 3),),
                               count=4, samples=6, seed=4)
        rep = exp_outside_ball(cfg)
        for rec in rep.records:
            assert rec.detail["effective"] == (
                rec.detail["effective_trials"] >= EFFECTIVENESS * rec.detail["samples"]
            )
        eff95 = sum(r.detail["effective_trials"] >= 0.95 * r.detail["samples"]
                    for r in rep.records)
        eff90 = sum(r.detail["effective_trials"] >= 0.90 * r.detail["samples"]
                    for r in rep.records)
        assert eff90 >= eff95

    def test_a_failed_trial_is_never_effective(self, monkeypatch):
        cfg = ExperimentConfig(sizes=((3, 3),), count=2, samples=3, seed=4, radius=1e-30)
        want = exp_outside_ball(cfg)
        assert [r.detail["effective_trials"] for r in want.records] == [3, 3]
        real = experiments.find_stationary
        calls = []

        def first_trial_fails(game, p0, delta):
            # The stability scan runs at cfg.delta, the trials at OTB_DELTA.
            if delta == experiments.OTB_DELTA:
                calls.append(None)
                if len(calls) == 1:
                    raise LpNumericalError("terminal basis failed feasibility checks")
            return real(game, p0, delta)

        monkeypatch.setattr(experiments, "find_stationary", first_trial_fails)
        got = exp_outside_ball(cfg)
        bad, second = got.records
        assert bad.detail == {"effective_trials": 2, "samples": 3, "effective": False,
                              "failed": 1}
        assert dataclasses.replace(second, wall_ms=0.0) == dataclasses.replace(
            want.records[1], wall_ms=0.0)
        assert got.aggregates["3x3"] == {"stable_instances": 2, "effective": 1, "failed": 1}
        assert recompute_aggregates(got) == got.aggregates

    def test_runs_only_on_stable_instances(self):
        stab = exp_stability(ExperimentConfig(sizes=((3, 3),),
                                              count=4, samples=6, seed=4))
        otb = exp_outside_ball(ExperimentConfig(sizes=((3, 3),), count=4, samples=6,
                                                seed=4))
        stable_keys = {r.instance for r in stab.records if r.detail["stable"]}
        assert {r.instance for r in otb.records} == stable_keys


class TestSuccessRate:
    def test_cells_and_reaggregation(self):
        cfg = ExperimentConfig(sizes=((3, 3),), trials=20,
                               restrictions=("disjoint", "nested"), pure_duals=False,
                               seed=5)
        rep = exp_success_rate(cfg)
        assert rep.aggregates["3x3/nested"]["feasible"] == 0
        assert rep.aggregates["3x3/disjoint"]["rate"] > 0.2
        assert recompute_aggregates(rep) == rep.aggregates

    def test_reproducible(self):
        cfg = ExperimentConfig(sizes=((3, 3),), trials=10,
                               restrictions=("disjoint",), seed=6)
        assert strip_walls(exp_success_rate(cfg)) == strip_walls(exp_success_rate(cfg))


class TestCompare:
    def test_small_run_structure(self):
        cfg = ExperimentConfig(sizes=((3, 3),), count=2,
                               points=10, rounds=2000, seed=7)
        rep = exp_compare(cfg)
        assert rep.aggregates["ts"]["runs"] == 20
        assert rep.aggregates["fp"]["runs"] == 2
        assert recompute_aggregates(rep) == rep.aggregates
        fs = [r.f for r in rep.records if r.algorithm == "ts"]
        agg = rep.aggregates["ts"]
        assert agg["median_f"] == pytest.approx(float(np.median(fs)))
        assert agg["pr_f_above_01"] == pytest.approx(float(np.mean(np.array(fs) > 0.01)))

    def test_a_failed_run_is_a_record(self, monkeypatch):
        cfg = ExperimentConfig(sizes=((3, 3),), count=1, points=4, rounds=200, seed=7)
        want = exp_compare(cfg)
        real = experiments.run_algorithm
        ts_calls = []

        def third_ts_run_fails(game, algorithm, *args):
            if algorithm == "ts":
                ts_calls.append(None)
                if len(ts_calls) == 3:
                    raise LpNumericalError("terminal basis failed feasibility checks")
            return real(game, algorithm, *args)

        monkeypatch.setattr(experiments, "run_algorithm", third_ts_run_fails)
        got = exp_compare(cfg)
        assert len(got.records) == len(want.records)
        failed = [r for r in got.records if "error" in r.detail]
        assert len(failed) == 1
        bad = failed[0]
        assert (bad.algorithm, bad.iterations) == ("ts", 0) and math.isnan(bad.f)
        assert bad.detail == {"trial": 2, "error": "terminal basis failed feasibility checks"}
        # Every other record is unchanged, wall times aside.
        others = [(g, w) for g, w in zip(got.records, want.records) if g is not bad]
        assert all(dataclasses.replace(g, wall_ms=0.0) == dataclasses.replace(w, wall_ms=0.0)
                   for g, w in others)
        fs = [r.f for r in got.records if r.algorithm == "ts" and r is not bad]
        agg = got.aggregates["ts"]
        assert (agg["runs"], agg["failed"], agg["max_f"]) == (4, 1, max(fs))
        assert agg["median_f"] == float(np.median(fs))
        assert got.aggregates["fp"] == {**want.aggregates["fp"], "failed": 0}
        assert recompute_aggregates(got) == got.aggregates

    def test_every_run_failed(self):
        rec = experiments.TrialRecord("compare", "3x3#0", "zs", 1, math.nan, 0, 0.0,
                                      {"error": "zero-sum LP ended infeasible"})
        agg = experiments.aggregate_compare([rec], {"algorithms": ["zs"]})
        assert agg == {"zs": {"runs": 1, "failed": 1, "pr_f_above_339": None,
                              "pr_f_above_01": None, "median_f": None, "max_f": None}}

    def test_csv_round_trip_columns(self):
        cfg = ExperimentConfig(sizes=((3, 3),), count=1,
                               points=3, rounds=500, seed=8)
        rep = exp_compare(cfg)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "experiment,instance,algorithm,seed,f,iterations,wall_ms,detail"
        assert len(lines) == 1 + len(rep.records)

    def test_workers_do_not_change_results(self):
        cfg1 = ExperimentConfig(sizes=((3, 3),), count=2,
                                points=5, rounds=500, seed=9, workers=1)
        cfg2 = dataclasses.replace(cfg1, workers=2)
        a, b = exp_compare(cfg1), exp_compare(cfg2)
        da, db = strip_walls(a), strip_walls(b)
        da["config"]["workers"] = db["config"]["workers"] = None
        assert da == db


@pytest.mark.parametrize("run, cfg, name", [
    (exp_stability, ExperimentConfig(count=1, samples=2), "stability"),
    (exp_outside_ball, ExperimentConfig(count=1, samples=2, radius=1e-30), "outside-the-ball"),
    (exp_success_rate, ExperimentConfig(trials=1), "success-rate"),
    (exp_compare, ExperimentConfig(count=1, points=1, rounds=10), "compare"),
])
def test_report_names_its_experiment(run, cfg, name):
    # The name leads the config, as in every report file written so far.
    rep = run(cfg)
    assert next(iter(rep.config.items())) == ("experiment", name)
    assert recompute_aggregates(rep) == rep.aggregates


def test_import_leaves_process_pools_unloaded():
    """A serial run never needs a process pool, so importing the package
    loads neither concurrent.futures nor multiprocessing."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nashdescent

    src = str(Path(nashdescent.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys, nashdescent; "
              "print(sorted(m for m in sys.modules if m.partition('.')[0] in "
              "('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
