import os

# One BLAS thread unless the environment asks for another count, set before
# numpy loads, as bench/run.py does: the golden corpus is compared bit for
# bit, and BLAS sums some products in another order when it splits them
# over threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from nashdescent.generator import (
    dfm_family,
    dfm_tight,
    generate_tight,
    half_sp,
    sample_inputs,
    solve_b,
    tight_3x3,
)


@pytest.fixture(scope="session")
def cons():
    return solve_b()


@pytest.fixture(scope="session")
def eq1():
    return tight_3x3()


@pytest.fixture(scope="session")
def remark():
    return half_sp()


@pytest.fixture(scope="session")
def eq3():
    return dfm_tight()


@pytest.fixture(scope="session")
def eq4_family():
    return dfm_family


@pytest.fixture(scope="session")
def generated_3x3():
    """A reusable batch of generated worst-case 3x3 instances."""
    rng = np.random.default_rng(20240817)
    out = []
    while len(out) < 8:
        inp = sample_inputs(3, 3, "disjoint", rng)
        out.extend(generate_tight(inp, count=2, rng=rng))
    return out[:8]


@pytest.fixture(scope="session")
def generated_4x4():
    rng = np.random.default_rng(1234)
    out = []
    while len(out) < 5:
        inp = sample_inputs(4, 4, "disjoint", rng)
        out.extend(generate_tight(inp, count=1, rng=rng))
    return out[:5]


@pytest.fixture(scope="session")
def solver_runs():
    """(solver, game, start, delta) for runs shaped like the benchmark's:
    ts_solve from lattice starts on generated 3x3 tight games, dfm_solve
    from the prescribed profiles of generated 3x3 to 5x5 tight games, and
    ts_solve on inputs whose LPs reach the LP kernel's basis repair, two of
    them its exact re-solve too."""
    from nashdescent.adjust import ts_solve
    from nashdescent.dfm import dfm_solve
    from nashdescent.experiments import lattice_profile, sample_tight_games
    from nashdescent.game import Game, Profile, mixed

    from .test_regressions import FALLBACK_INPUTS, REPAIRED_INPUTS, C, R, X0, Y0

    rng = np.random.default_rng(2718)
    runs = [(ts_solve, inst.game, lattice_profile(3, 3, 10, rng), 1e-3)
            for inst in sample_tight_games(3, 3, 12, rng, groups=12) for _ in range(2)]
    for size in (3, 4, 5):
        runs += [(dfm_solve, inst.game, Profile(inst.input.x_star, inst.input.y_star), 1e-4)
                 for inst in sample_tight_games(size, size, 4, rng)]
    for R_, C_, x0, y0, _ in FALLBACK_INPUTS.values():
        runs.append((ts_solve, Game(np.array(R_), np.array(C_)), Profile(mixed(x0), mixed(y0)), 1e-3))
    runs.append((ts_solve, Game(np.array(R), np.array(C)), Profile(mixed(X0), mixed(Y0)), 1e-3))
    for R_, C_, x0, y0 in map(REPAIRED_INPUTS.get, ("s2-i2949-9x9", "s3-i992-3x8")):
        runs.append((ts_solve, Game(np.array(R_), np.array(C_)), Profile(mixed(x0), mixed(y0)), 1e-3))
    return runs
