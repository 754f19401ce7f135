"""Known library defects, pinned as strict xfails until they are fixed, and
inputs that reach the LP kernel's fallback pivot policies."""

import logging

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


# Bench ts-tight3 inputs whose descent meets a 6-row LP that the first
# pivot policy ends on a basis failing the feasibility checks, and that a
# later policy of lp._ATTEMPTS solves: seed 5, input 44 (the second policy)
# and seed 1, input 175 (the third).
FALLBACK_INPUTS = {
    "seed5-input44": (
        [[0.048927034052329774, 0.0, 0.2645077234310245],
         [0.26138298909892077, 1.0, 0.3403215509255796],
         [0.8617418074199523, 0.8128147733676226, 0.6038398460234176]],
        [[0.5120194671908327, 0.5120194671908327, 0.17268734459843968],
         [0.26138298909892077, 0.5027874197223337, 0.10912159142085118],
         [1.0, 0.5825222146359573, 0.0]],
        [0.2731532448498578, 0.0009795995950852175, 0.725867155555057],
        [0.6651424152403318, 0.14742541528205805, 0.18743216947761027],
        [(1, 2)],
    ),
    "seed1-input175": (
        [[0.39929752038065885, 0.49097488297783265, 1.0],
         [0.8875573702138223, 0.6031351678364035, 0.8128147733676225],
         [0.07474259684620004, 0.2638030452440106, 0.0]],
        [[0.39929752038065885, 0.20022119447089923, 0.7023611871409372],
         [1.0, 0.0, 0.5825222146359572],
         [0.6031351678364035, 0.2638030452440106, 0.6031351678364035]],
        [0.12899078263388572, 0.574428829818181, 0.29658038754793326],
        [0.4264977243757768, 0.0031480383033984163, 0.5703542373208247],
        [(1, 2), (2, 3)],
    ),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_INPUTS))
def test_pivot_policy_fallback_is_logged(case, caplog):
    R_, C_, x0, y0, fallbacks = FALLBACK_INPUTS[case]
    caplog.set_level(logging.DEBUG, logger="nashdescent.lp")
    res = ts_solve(Game(np.array(R_), np.array(C_)), Profile(mixed(x0), mixed(y0)),
                   delta=1e-3, max_iter=200)
    assert res.best.f <= 1e-3
    records = [r.getMessage() for r in caplog.records if r.name == "nashdescent.lp"]
    assert len(records) == len(fallbacks), records
    for message, (failed, following) in zip(records, fallbacks):
        assert message.startswith(f"pivot policy {failed} ")
        assert "failed on a 6-row program: terminal basis failed feasibility checks" in message
        assert f"; trying policy {following} " in message
