"""Inputs on which the solvers once raised: descent LPs that end on a basis
that fails the kernel's certificate, which the LP kernel repairs or, failing
that, re-solves in exact arithmetic (each raised LpNumericalError before
its mend existed), a degenerate game whose Method 3 intersection lay beyond
the square's edge, and a seeded sample of the degenerate games those came
from."""

import logging

import numpy as np
import pytest

from nashdescent.adjust import ts_solve
from nashdescent.dfm import dfm_solve
from nashdescent.experiments import lattice_profile
from nashdescent.game import Game, Profile, mixed
from nashdescent.generator import solve_b

DELTA = 1e-3

# A game and start on which the descent's direction LP ends on a rejected
# basis (found by the benchmark's input stream).
R = [[0.3444684316253001, 0.8142700297880664, 0.8128147733676224],
     [0.008920182177778653, 0.007774419202976073, 1.0],
     [0.005136309032907142, 0.0014552564204441845, 0.0]]
C = [[0.0, 1.0, 0.5825222146359572],
     [0.003245647311350138, 0.007774419202976073, 0.3452895687495241],
     [0.005136309032907142, 0.3444684316253001, 0.3444684316253001]]
X0 = [0.15632593228333827, 0.4692273002142109, 0.3744467675024508]
Y0 = [0.8394008555658641, 0.02133997670016621, 0.13925916773396976]

# Bench ts-tight3, seed 65: its op on input 127 of the 400.
R65 = [[0.08763778585529793, 0.0, 0.309316450894032],
       [0.46818751368351375, 1.0, 0.5215667765801852],
       [0.9004525592229202, 0.8128147733676225, 0.6486485734864249]]
C65 = [[0.6486485734864249, 0.6486485734864249, 0.309316450894032],
       [0.46818751368351375, 0.6869040376549391, 0.1954578863476908],
       [1.0, 0.5825222146359572, 0.0]]
X65 = [0.28747192206208855, 0.5972075497495093, 0.11532052818840223]
Y65 = [0.0016167714231791154, 0.9982618981831813, 0.00012133039363958914]

# Bench ts-tight3, seed 46: its ops on inputs 28 and 108, two starts on the
# same game.
R46 = [[0.8128147733676224, 0.9999879300449557, 0.9999573992471362],
       [0.0, 0.1871731566773333, 0.6606252766547434],
       [0.9999999999999998, 0.9999355186557111, 0.6560404153593603]]
C46 = [[0.5825222146359571, 0.9999999999999998, 0.0],
       [0.9999573992471362, 0.9999573992471362, 0.6606252766547434],
       [0.9999730804711888, 0.9999355186557111, 0.663926803120658]]


def halves(rows):
    """A payoff matrix from rows of digits, each digit twice its entry."""
    return [[int(d) / 2 for d in row] for row in rows]


def probe_games(seed: int, count: int):
    """The first ``count`` (R, C, start) of a seeded probe over degenerate
    games: game i is m x n with m, n drawn from 2-10; kind i % 3 draws R
    and C from {0, 1} (kind 0), from {0, 1/2, 1} (kind 1) or uniformly with
    R's last row equal to its first and C's last column equal to its first
    (kind 2); then R[0, 0] = C[0, 0] = 1 and R[-1, -1] = C[-1, -1] = 0, and
    the start is a lattice_profile of resolution 10."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, n = (int(v) for v in rng.integers(2, 11, size=2))
        if i % 3 == 0:
            R, C = (rng.integers(0, 2, size=(m, n)).astype(float) for _ in "RC")
        elif i % 3 == 1:
            R, C = (rng.choice([0.0, 0.5, 1.0], size=(m, n)) for _ in "RC")
        else:
            R, C = rng.random((m, n)), rng.random((m, n))
            R[-1], C[:, -1] = R[0], C[:, 0]
        R[0, 0] = C[0, 0] = 1.0
        R[-1, -1] = C[-1, -1] = 0.0
        yield R, C, lattice_profile(m, n, 10, rng)


# The bench inputs above, then games of the probe above, named by seed and
# index, whose direction LP ends on a basis that fails the kernel's checks.
# The repair mends the bench inputs.  On the probe games `_extract` rejects
# the repaired basis too (on s5-i2464 it is primal feasible with a reduced
# cost of -0.5), and the exact re-solve mends them.
REPAIRED_INPUTS = {
    "direction-lp": (R, C, X0, Y0),
    "seed65-input127": (R65, C65, X65, Y65),
    "seed46-input28": (R46, C46, [0.9829296544481702, 0.008291076481994541, 0.008779269069835302],
                       [0.061601411451423484, 0.3844283965799384, 0.5539701919686381]),
    "seed46-input108": (R46, C46, [0.05104158005435102, 0.008863073772903409, 0.9400953461727456],
                        [0.6140874799306945, 0.28487962144134854, 0.10103289862795711]),
    "s5-i2464-10x8": (
        halves(["22012122", "11001100", "20120022", "11201001", "01210112",
                "22210002", "11022101", "01200211", "10020102", "21221100"]),
        halves(["20012221", "10010112", "01102002", "22001012", "10000121",
                "20110210", "00101100", "21212210", "02112220", "01222110"]),
        [0.27687744720983154, 0.0008034407324903902, 0.2062990161496513,
         0.10181348447528711, 0.004648120800407935, 0.10431398109488625,
         0.09488560844136601, 0.024398360722686925, 0.18432558773677363,
         0.0016349526366188844],
        [0.10132221241851742, 0.19020384113090258, 0.37054359325497854,
         0.00797127808995099, 0.18758190201805341, 0.0028347267057291787,
         0.022512064813619278, 0.11703038156824856],
    ),
    "s2-i2949-9x9": (
        halves(["200220000", "022222000", "202202002", "200000200", "020022200",
                "220222002", "222000020", "202222020", "020220020"]),
        halves(["222020022", "000022222", "020220222", "022002200", "200200020",
                "002002000", "202020000", "222020002", "022022020"]),
        [0.27938109432817027, 0.27709930326561755, 0.10545824969744509,
         0.008458948645163795, 0.01300405121295487, 0.09901911303528527,
         0.10702185921254688, 0.10827970402735416, 0.0022776765754622323],
        [0.014128292861488919, 0.09848259197274081, 0.10120919820636191,
         0.22330915841823418, 0.009131513142145288, 0.18395326908139364,
         0.00012794564742493145, 0.004168519447274476, 0.3654895112229358],
    ),
    "s3-i992-3x8": (
        [[1.0, 0.09917663225366702, 0.676321365524521, 0.393468169047714,
          0.1516389928950399, 0.6348331266911418, 0.7255487727247643, 0.43956249177551043],
         [0.3173450282361755, 0.6173492719174509, 0.39185992863812524, 0.9577683297696928,
          0.06930681930175742, 0.0655083409828513, 0.6129053446017195, 0.03334820580854869],
         [0.1131138517389515, 0.09917663225366702, 0.676321365524521, 0.393468169047714,
          0.1516389928950399, 0.6348331266911418, 0.7255487727247643, 0.0]],
        [[1.0, 0.20686666156795186, 0.6566590373580083, 0.17327612554268512,
          0.20676399932264977, 0.03731488806867156, 0.023291523892189137, 0.3470295099020959],
         [0.47746486086865114, 0.7263550567987621, 0.2703600521358941, 0.7405090827151024,
          0.1919548314366365, 0.01629175332752797, 0.7930942772176404, 0.47746486086865114],
         [0.6893161468087089, 0.6937863398833646, 0.04369118127776017, 0.8997515236829187,
          0.6469528452197908, 0.8009868830984145, 0.8493650111844665, 0.0]],
        [0.4035218793859381, 0.564106097580109, 0.03237202303395287],
        [0.10073297872082722, 0.09745913613820759, 0.004704827176484628,
         0.02425363245975683, 0.20789169642155977, 0.002375457112018439,
         0.5493165436586147, 0.013265728312530976],
    ),
}


def final_f(solver, R_, C_, x0, y0):
    res = solver(Game(np.array(R_), np.array(C_)), Profile(mixed(x0), mixed(y0)),
                 delta=DELTA, max_iter=200)
    return res.best.f if solver is ts_solve else res.f


@pytest.mark.parametrize("case", sorted(REPAIRED_INPUTS))
@pytest.mark.parametrize("solver", [ts_solve, dfm_solve], ids=["ts_solve", "dfm_solve"])
def test_repaired_direction_lp_lets_the_descent_finish(solver, case):
    assert final_f(solver, *REPAIRED_INPUTS[case]) <= DELTA


# Bench ts-tight3 inputs whose descent meets a 6-row LP that the kernel's
# pivot rule ends on a basis failing its certificate, and that the former
# fallback pivot policies solved: seed 5, input 44 (by the second policy) and
# seed 1, input 175 (by the third).
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
        6.278415565219575e-10,
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
        1.1102230246251565e-16,
    ),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_INPUTS))
def test_basis_repair_is_logged(case, caplog):
    R_, C_, x0, y0, f = FALLBACK_INPUTS[case]
    caplog.set_level(logging.DEBUG, logger="nashdescent.lp")
    assert final_f(ts_solve, R_, C_, x0, y0) == f
    records = [r.getMessage() for r in caplog.records if r.name == "nashdescent.lp"]
    assert records == ["repaired the rejected terminal basis of a 6-row program"]


# A degenerate 6x3 game (entries in {0, 1/2, 1}) whose stationary point is an
# exact equilibrium: every corner regret is about 6.1e-11, so Method 3's chord
# intersection is p = 1.0000018, just beyond the far edge, and the mix
# p w + (1 - p) x summed to 1.0000002459988748 before p was clamped to [0, 1].
R_EDGE = [[1, 1, .5], [0, 1, .5], [.5, 1, 0], [0, 1, 1], [0, .5, .5], [.5, .5, 0]]
C_EDGE = [[1, 1, 0], [0, 0, .5], [.5, 1, 0], [.5, 1, 1], [0, .5, 0], [.5, 0, 0]]
X_EDGE = [0.19477306824703816, 0.0189074374498064, 0.3802335310820738,
          0.1275436596663359, 0.002988310008018637, 0.27555399354672705]
Y_EDGE = [0.7402469745772298, 0.1346222256258576, 0.12513079979691272]


@pytest.mark.parametrize("solver", [ts_solve, dfm_solve], ids=["ts_solve", "dfm_solve"])
def test_chord_intersection_beyond_the_edge_is_clamped(solver):
    assert final_f(solver, R_EDGE, C_EDGE, X_EDGE, Y_EDGE) <= DELTA


# The probe's first 150 games at seeds 2 and 3 (the full probe at seeds 1-5,
# 3000 games each, once raised on three direction LPs and one GameError).
@pytest.mark.parametrize("seed", [2, 3])
def test_degenerate_games_finish_within_their_bounds(seed):
    b = solve_b().b
    for R_, C_, p0 in probe_games(seed, 150):
        game = Game(R_, C_)
        assert ts_solve(game, p0, delta=DELTA, max_iter=200).best.f <= b + DELTA
        assert dfm_solve(game, p0, delta=DELTA, max_iter=200).f <= 1 / 3 + DELTA
