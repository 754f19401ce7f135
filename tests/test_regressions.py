"""Known library defects, pinned as strict xfails until they are fixed."""

import numpy as np
import pytest

from nashdescent.adjust import ts_solve
from nashdescent.dfm import dfm_solve
from nashdescent.game import Game, Profile, mixed
from nashdescent.lp import LpNumericalError

# A game and start on which the descent's direction LP fails its
# feasibility check (found by the benchmark's input stream).
R = [[0.3444684316253001, 0.8142700297880664, 0.8128147733676224],
     [0.008920182177778653, 0.007774419202976073, 1.0],
     [0.005136309032907142, 0.0014552564204441845, 0.0]]
C = [[0.0, 1.0, 0.5825222146359572],
     [0.003245647311350138, 0.007774419202976073, 0.3452895687495241],
     [0.005136309032907142, 0.3444684316253001, 0.3444684316253001]]
X0 = [0.15632593228333827, 0.4692273002142109, 0.3744467675024508]
Y0 = [0.8394008555658641, 0.02133997670016621, 0.13925916773396976]


@pytest.mark.xfail(
    strict=True,
    raises=LpNumericalError,
    reason="the 6th LP of the run, a 4-row direction LP, ends on the same basis "
    "under all four pivot policies; that basis has condition number 15.7 and "
    "one basic variable at -1.99e-7, below CHECK_TOL = 1e-7, so every attempt "
    "is rejected. HiGHS solves the same LP to an optimum of 9.2e-8, and the "
    "player-swapped copy of the game solves to f = 4.7e-12. The LP kernel "
    "needs a certified optimum (see notes/decisions.md)",
)
@pytest.mark.parametrize("solver", [ts_solve, dfm_solve], ids=["ts_solve", "dfm_solve"])
def test_direction_lp_rejects_its_own_optimum(solver):
    game = Game(np.array(R), np.array(C))
    solver(game, Profile(mixed(X0), mixed(Y0)), delta=1e-3, max_iter=200)


# Bench ts-tight3, seed 65: its op on input 127 of the 400 hits the same
# rejection of a terminal direction-LP basis under both solvers.
R65 = [[0.08763778585529793, 0.0, 0.309316450894032],
       [0.46818751368351375, 1.0, 0.5215667765801852],
       [0.9004525592229202, 0.8128147733676225, 0.6486485734864249]]
C65 = [[0.6486485734864249, 0.6486485734864249, 0.309316450894032],
       [0.46818751368351375, 0.6869040376549391, 0.1954578863476908],
       [1.0, 0.5825222146359572, 0.0]]
X65 = [0.28747192206208855, 0.5972075497495093, 0.11532052818840223]
Y65 = [0.0016167714231791154, 0.9982618981831813, 0.00012133039363958914]


@pytest.mark.xfail(
    strict=True,
    raises=LpNumericalError,
    reason="a direction LP of the descent ends on a basis that fails the "
    "kernel's feasibility checks under all four pivot policies (\"terminal "
    "basis failed feasibility checks\"); the LP kernel needs a certified "
    "optimum (see notes/decisions.md)",
)
@pytest.mark.parametrize("solver", [ts_solve, dfm_solve], ids=["ts_solve", "dfm_solve"])
def test_bench_seed_65_direction_lp_fails(solver):
    game = Game(np.array(R65), np.array(C65))
    solver(game, Profile(mixed(X65), mixed(Y65)), delta=1e-3, max_iter=200)
