"""Seeded closed-loop benchmark of the nashdescent library.

One simulated caller issues each op only after the previous one returns,
the way an experiment loop calls ts_solve or dfm_solve. Every game, start
point and generator input is built from --seed during set-up; the timed
loop hands the library only those inputs and checks each output with its
own formulas (see workloads.py).

    python3 bench/run.py --workload ts-tight3 --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 34

The timed loop makes a fixed number of whole passes over the workload's
inputs, set by --seconds and the workload's nominal pass time. With
--trace 0 the last line of stdout is a JSON object carrying the end-to-end
metrics. With --trace 1 untraced and traced passes alternate, and the JSON
carries the per-layer metrics of tracing.py plus the tracing overhead. The
lines before it are for people: environment, every metric with its unit,
failures by type, and the output fingerprint compared with the value in
fingerprints.json that this script printed when the benchmark was defined.

The library is imported from ../src of this file only; without it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread keeps small-matrix timings steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import zlib
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer
from workloads import B_PUBLISHED, MAX_ITER, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "nashdescent"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
# Set-ups per run; setup_s is their median.
SETUPS = 3
# Fewest timed passes per untraced run; the per-input best is over these.
MIN_PASSES = 2
# Seconds allowed to each workload's subprocess under --workload all, on
# top of --seconds times CHILD_TIMEOUT_FACTOR.
CHILD_TIMEOUT_BASE = 120
CHILD_TIMEOUT_FACTOR = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=34)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def fresh_import():
    """Import nashdescent from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "nashdescent" or m.startswith("nashdescent.")]:
        del sys.modules[name]
    nd = importlib.import_module("nashdescent")
    if Path(nd.__file__).resolve().parent != PACKAGE_DIR:
        raise ImportError(f"nashdescent came from {nd.__file__}, not {PACKAGE_DIR}")
    return nd


def input_rng(wl, seed: int) -> np.random.Generator:
    """The generator of a workload's inputs: one stream per seed and workload name."""
    return np.random.default_rng([seed, zlib.crc32(wl.name.encode())])


def set_up(wl, seed):
    """SETUPS fresh imports, solve_b() warm-ups and input builds; the last is kept."""
    times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        nd = fresh_import()
        b = nd.solve_b().b
        items = wl.build(nd, input_rng(wl, seed))
        times.append(perf_counter() - t0)
    if abs(b - B_PUBLISHED) > 1e-4:
        raise RuntimeError(f"solve_b() gave b={b}, published {B_PUBLISHED}")
    return nd, items, statistics.median(times)


class Tally:
    """Per-input best latency, failures by type and the first pass's outcomes."""

    def __init__(self, wl, nd, items):
        self.wl, self.nd, self.items = wl, nd, items
        self.best = np.full(len(items), np.inf)
        self.attempted = 0
        self.failures = Counter()
        self.outcomes: list[Outcome] | None = None

    def run_pass(self) -> float:
        """Every input once, in order; returns the pass's wall time."""
        outcomes = []
        t0 = perf_counter()
        for i, item in enumerate(self.items):
            outcomes.append(self._op(i, item))
        wall = perf_counter() - t0
        if self.outcomes is None:
            self.outcomes = outcomes
        return wall

    def _op(self, i: int, item) -> Outcome:
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = self.wl.run(self.nd, item)
        except Exception as err:  # a raising op is a counted failure; the run goes on
            # Its time-to-raise is no latency, so it stays out of `best`.
            self.failures[type(err).__name__] += 1
            return Outcome(f"raised {type(err).__name__}")
        self.best[i] = min(self.best[i], perf_counter() - t0)
        outcome = self.wl.check(self.nd, item, out)
        if outcome.error:
            self.failures[f"check:{outcome.error}"] += 1
        return outcome

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def fingerprint(outcomes) -> str:
    """Hash of one pass's outputs: f values to 1e-9, DFM case and feasible counts."""
    def rounded(values):
        return [round(float(v), 9) + 0.0 for v in values]  # + 0.0 folds -0.0 into 0.0

    doc = json.dumps({
        "f": [rounded(o.fs) for o in outcomes],
        "tags": sorted(Counter(o.tag for o in outcomes if o.tag).items()),
    })
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}  numpy {np.__version__}  "
            f"blas {blas.get('name')} {blas.get('version')}  blas_threads {BLAS_THREADS}  "
            f"nproc {os.cpu_count()}  affinity {len(os.sched_getaffinity(0))}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_fingerprint(wl, seed, outcomes):
    digest = fingerprint(outcomes)
    stored = json.loads(FINGERPRINTS.read_text()).get(wl.name, {}).get(str(seed))
    verdict = ("matches the stored value" if digest == stored
               else "no stored value for this seed" if stored is None
               else f"DIFFERS from the stored value {stored}")
    print(f"fingerprint  {digest}  ({len(outcomes)} ops)  {verdict}")


def timed_passes(wl, seconds: int) -> int:
    """Passes of a run, fixed by --seconds and the workload, not by the code's speed.

    On a shared virtual machine the CPU speed can drift by tens of percent
    within seconds, so every timing is each input's fastest latency over the
    passes. The minimum of more samples is lower, so two commits compared
    at the same --seconds take it over the same number of passes.
    """
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def run_untraced(tally, passes):
    """`passes` whole passes over the inputs; timings from each input's best."""
    walls = [tally.run_pass() for _ in range(passes)]
    lat_ms = tally.best[np.isfinite(tally.best)] * 1e3
    if lat_ms.size == 0:
        return None
    tail_ms = float(np.percentile(lat_ms, tally.wl.tail_pct))
    beyond = int(np.sum(lat_ms > tail_ms))
    ok_share = 1.0 - tally.failed / tally.attempted
    best_of = f"best of {len(walls)} passes"
    print(f"passes       {len(walls)} of {tally.best.size} ops; wall min {min(walls):.3f} s, "
          f"median {statistics.median(walls):.3f} s, max {max(walls):.3f} s")
    return {
        "op_ms_p50": (float(np.median(lat_ms)), "ms",
                      f"{lat_ms.size} of {tally.best.size} inputs completed, {best_of}"),
        "op_ms_tail": (tail_ms, "ms", f"p{tally.wl.tail_pct:g}, {beyond} inputs beyond it, "
                       f"{best_of}"),
        "ops_per_s": (ok_share * 1e3 / float(lat_ms.mean()), "1/s",
                      f"completed ops per second of op time, {best_of}"),
    }


def run_traced(wl, tally, nd, passes):
    """Alternate untraced and traced passes, `passes` in all; metrics per traced op."""
    tracer = Tracer(nd)
    plain, traced = [], []
    for _ in range(max(1, passes // 2)):
        plain.append(tally.run_pass())
        with tracer.installed():
            traced.append(tally.run_pass())
    for fn, where in tracer.sites.items():
        print(f"patched      {fn} at {', '.join(where)}")
    missing = [name for name in wl.exercises if tracer.calls(name) == 0]
    if missing:
        print(f"SELF-CHECK   wrappers that never fired: {', '.join(missing)}")
    if tracer.calls("lp.other"):
        print(f"note         {tracer.calls('lp.other')} LPs outside every known call site")
    overhead = (statistics.median(traced) - statistics.median(plain)) / statistics.median(plain)
    print(f"passes       {len(plain)} untraced, {len(traced)} traced, {len(tally.items)} ops each; "
          f"median {statistics.median(plain):.3f} s vs {statistics.median(traced):.3f} s")
    metrics = {k: (v, u, "") for k, (v, u) in tracer.metrics(len(tally.items) * len(traced)).items()}
    metrics["trace.overhead_share"] = (overhead, "share", "traced minus untraced pass time")
    return metrics, not missing


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    try:
        nd, items, setup_s = set_up(wl, args.seed)
    except ImportError as err:
        print(f"cannot import nashdescent from {PACKAGE_DIR}: {err}", file=sys.stderr)
        return 2
    print(f"# workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# why: {wl.why}")
    print(f"# {environment()}")
    print(f"# closed loop, 1 caller; max_iter {MAX_ITER}; {len(items)} inputs per pass")
    tally = Tally(wl, nd, items)
    passes = timed_passes(wl, args.seconds)
    if args.trace:
        metrics, self_check = run_traced(wl, tally, nd, passes)
    else:
        metrics, self_check = run_untraced(tally, passes), True
        if metrics is None:
            print(f"every op failed; by type: {dict(tally.failures)}", file=sys.stderr)
            return 1
        metrics["setup_s"] = (setup_s, "s", f"median of {SETUPS} set-ups")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", "")
    report_fingerprint(wl, args.seed, tally.outcomes)
    eps = (max((f for o in tally.outcomes for f in o.fs), default=0.0), "payoff",
           "worst recomputed f over one pass")
    if args.trace:
        metrics["eps_max"] = eps
    else:
        print(f"eps_max      {eps[0]!r} {eps[1]}  ({eps[2]})")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:34s} {value!r} {unit}" + (f"  ({note})" if note else ""))
    share = tally.failed / tally.attempted
    print(f"fail_share   {share!r}  ({tally.failed} of {tally.attempted} ops; "
          f"by type: {dict(tally.failures) or 'none'})")
    correct = self_check and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    timeout = CHILD_TIMEOUT_BASE + CHILD_TIMEOUT_FACTOR * args.seconds
    for name in WORKLOADS:
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"workload {name} did not finish within {timeout} s", file=sys.stderr)
            return 1
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"no library at {PACKAGE_DIR}; run from a checkout that has src/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
