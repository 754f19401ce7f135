"""Worst-case instance generator: the feasibility program that characterizes
games attaining the 0.3393 bound at a prescribed stationary point, input
samplers and the loop that draws tight games from them, tightness
verification, the bound constants as pinned doubles, and the static
instances used throughout the test and experiment suites.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .descent import DualSolution, stationary_from, verify_stationary
from .game import (SUPPORT_TOL, Game, Profile, mixed, pure, regrets, renormalized,
                   segment_min_f, square_min_f)
from .lp import (
    CHECK_TOL, EQ, GE, MINIMIZE, MAXIMIZE, OPTIMAL, LinearProgram, solve_lp,
)


@dataclass(frozen=True)
class Constants:
    """The worst-case bound b and the height differences attaining it."""

    b: float
    lambda0: float
    mu0: float

    @property
    def rho_star(self) -> float:
        return self.mu0 / (self.lambda0 + self.mu0)


# b is the maximum over the unit square of min{st/(s+t), (1-s)/(1+t-s)}
# (Tsaknakis and Spirakis, WINE 2007), attained at s = mu0, t = lambda0.
# These are the doubles a lattice scan refined by nested golden-section
# search returned: 0x1.5b79e14410fd2p-2, 0x1.a029420aa3a16p-1 and
# 0x1.2a405a0a1c1fap-1.  Against the true maximizer, b is 2.1e-16 low,
# lambda0 1.33e-8 low and mu0 6.8e-9 high: the argmax of a smooth maximum is
# found only to about the square root of the machine epsilon.  The true
# values are roots of three integer quartics (notes/decisions.md section
# 17).  Every tight program, static instance and stored output rests on
# these bits, so moving them to the nearest doubles of those roots waits
# for a re-baseline of the stored benchmark fingerprints and golden corpus.
_CONSTANTS = Constants(b=0.339332122592393, lambda0=0.8128147733676225,
                       mu0=0.5825222146359572)


def solve_b() -> Constants:
    """The bound b and the height differences (lambda0, mu0) attaining it."""
    return _CONSTANTS


@dataclass(frozen=True)
class GeneratorInput:
    """Prescribed stationary profile (x*,y*) and dual witnesses (w*,z*)."""

    x_star: np.ndarray
    y_star: np.ndarray
    w_star: np.ndarray
    z_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_star", mixed(self.x_star))
        object.__setattr__(self, "y_star", mixed(self.y_star))
        object.__setattr__(self, "w_star", mixed(self.w_star))
        object.__setattr__(self, "z_star", mixed(self.z_star))
        if self.x_star.size != self.w_star.size or self.y_star.size != self.z_star.size:
            raise ValueError("strategy dimensions are inconsistent")

    @property
    def m(self) -> int:
        return self.x_star.size

    @property
    def n(self) -> int:
        return self.y_star.size

    def supports(self):
        return (
            np.nonzero(self.x_star > SUPPORT_TOL)[0],
            np.nonzero(self.y_star > SUPPORT_TOL)[0],
            np.nonzero(self.w_star > SUPPORT_TOL)[0],
            np.nonzero(self.z_star > SUPPORT_TOL)[0],
        )

    @property
    def pure_duals(self) -> bool:
        sx, sy, sw, sz = self.supports()
        return len(sw) == 1 and len(sz) == 1


@dataclass(frozen=True)
class TightInstance:
    game: Game
    input: GeneratorInput
    rho_star: float
    k: int
    l: int


@dataclass
class TightCertificate:
    checks: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    mixed_duals: bool = False

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def failures(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]


def _player_conditions(x, y, w, z, weights, k: int, height: float, b: float):
    """One player's conditions of the tight program, stated for the row
    player of a game (R, C) with stationary data (x*, y*, w*, z*).

    A row is a (2, m, n) block of coefficients: on the player's own payoffs
    R, then on the opponent's C.  Returns the conditions in the program's
    order, each as (rows, relations, right-hand side); the row
    (R y*)_k - (R y*)_a, with a the first index of supp w*; and the lower
    bounds, as a (2, m, n) block.  ``weights`` is (rho, 1 - rho), the dual
    weights on the player's own regret and the opponent's.
    """
    m, n = x.size, y.size
    every = np.arange(m)

    def per_strategy(own, opp=0.0):
        # V[i] states a per-strategy quantity at i, on row i of each block.
        V = np.zeros((m, 2, m, n))
        V[every, 0, every] = own
        V[every, 1, every] = opp
        return V

    def dominance(V, members, maximal: bool):
        # The members (a mask) tie, and lie above (maximal) or below every
        # other index.
        tied, rest = members.nonzero()[0], V[~members]
        anchor = V[tied[0]]
        outside = anchor - rest if maximal else rest - anchor
        rows = np.concatenate([V[tied[1:]] - anchor, outside])
        return rows, [EQ] * (len(tied) - 1) + [GE] * len(rest), 0.0

    def equals(own, value):
        rows = np.zeros((1, 2, m, n))
        rows[0, 0] = own
        return rows, [EQ], value

    rho, rho_opp = weights
    sw = w > SUPPORT_TOL
    Vy = per_strategy(y)
    lower = np.zeros((2, m, n))
    lower[0, k, z > SUPPORT_TOL] = 1.0
    conditions = [
        # w* sits on the best-response set to y*, and k best-responds to z*.
        dominance(Vy, sw, True),
        dominance(per_strategy(z), every == k, True),
        # Stationarity: supp x* minimizes the certificate vector
        # A_i = -rho (R y*)_i + (1 - rho)(C (z* - y*))_i.
        dominance(per_strategy(-rho * y, rho_opp * (z - y)), x > SUPPORT_TOL, False),
        # The regret at the stationary profile equals the bound.
        equals(np.outer(w - x, y), b),
        # Far-corner structure: a zero own payoff at (x*, z*) and the
        # prescribed height at (w*, z*); with the lower bounds on row k,
        # the best response to z* saturates.
        equals(np.outer(x, z), 0.0),
        equals(np.outer(w, z), height),
    ]
    return conditions, Vy[k] - Vy[sw.argmax()], lower


def _swap_back(blocks: np.ndarray) -> np.ndarray:
    """Blocks (C', R') stated over the swapped game, of shape (..., 2, n, m),
    as (R, C) blocks of shape (..., 2, m, n)."""
    return blocks[..., ::-1, :, :].swapaxes(-1, -2)


def _tight_program(inp: GeneratorInput, k: int, l: int, lambda_intersect: bool) -> LinearProgram:
    """The feasibility program over the 2mn payoff entries, with a zero objective.

    Variables are the entries of R then C, row-major.  Every structural
    condition of the characterization is linear once the stationary profile
    and dual witnesses are fixed.  ``_player_conditions`` states the row
    player's conditions; the column player's are the row player's of the
    swapped game (C', R') at (y*, x*, z*, w*), weights (1 - rho, rho),
    strategy l and height mu0, mapped back by ``_swap_back``.  The rows come
    in this order: each condition's row-player rows, then its column-player
    rows; then (C'x*)_l = (C'x*)_a with a the first index of supp z*, which
    puts the boundary minimum on the linear-bound intersection; then, with
    ``lambda_intersect``, (R y*)_k = (R y*)_a with a the first index of
    supp w*, which makes k best-respond to y* too (notes/decisions.md
    section 11).
    """
    cons = solve_b()
    x, y, w, z = inp.x_star, inp.y_star, inp.w_star, inp.z_star
    # Both weight pairs hold the same two doubles: 1 - (1 - rho) may
    # round away from rho.
    rho, rho_c = cons.rho_star, 1.0 - cons.rho_star
    row, k_row, lower_r = _player_conditions(x, y, w, z, (rho, rho_c), k, cons.lambda0, cons.b)
    col, l_row, lower_c = _player_conditions(y, x, z, w, (rho_c, rho), l, cons.mu0, cons.b)
    groups = []
    for mine, (blocks, rels, rhs) in zip(row, col):
        groups += [mine, (_swap_back(blocks), rels, rhs)]
    groups.append((_swap_back(l_row)[None], [EQ], 0.0))
    if lambda_intersect:
        groups.append((k_row[None], [EQ], 0.0))
    nv = 2 * inp.m * inp.n
    coeffs = np.concatenate([blocks for blocks, _, _ in groups]).reshape(-1, nv)
    rels = [rel for _, group_rels, _ in groups for rel in group_rels]
    rhs = [value for _, group_rels, value in groups for _ in group_rels]
    lower = (lower_r + _swap_back(lower_c)).ravel().tolist()
    return LinearProgram(np.zeros(nv), MINIMIZE, coeffs, rels, rhs,
                         lower=lower, upper=(1.0,) * nv)


def _best_responses(x, w, z, height: float) -> list[int]:
    """The strategies k outside supp x* that the row player's conditions
    may take as the best response to z*, in increasing order.

    Those conditions bound R[k, j] below by 1 for j in supp z*, keep every
    entry in [0, 1] and ask for w*'Rz* = height, so w*'Rz* >=
    w*_k sum_{supp z*} z*.  A k whose floor beats the height by more than
    CHECK_TOL, phase 1's infeasibility threshold, has an LP that answers
    INFEASIBLE (notes/decisions.md section 10).
    """
    z_mass = z[z > SUPPORT_TOL].sum()
    return [k for k in range(x.size)
            if x[k] <= SUPPORT_TOL and w[k] * z_mass - height <= CHECK_TOL]


def _pair_candidates(inp: GeneratorInput):
    """The best-response pairs (k, l) whose tight LP may be feasible, in the
    order the generator tries them: k outside supp x*, l outside supp y*,
    less the pairs whose LP phase 1 is sure to reject.  An input with a full
    supp x* or supp y* has none."""
    cons = solve_b()
    ks = _best_responses(inp.x_star, inp.w_star, inp.z_star, cons.lambda0)
    ls = _best_responses(inp.y_star, inp.z_star, inp.w_star, cons.mu0)
    return [(k, l) for k in ks for l in ls]


def has_no_candidates(m: int, n: int, restriction: str) -> bool:
    """Whether ``_pair_candidates`` is empty for every input ``sample_inputs``
    draws at this size and restriction.  With disjoint supports, a side of
    two strategies puts supp x* on one and w* wholly on the other, k, the
    only candidate; its floor w*_k = 1 beats lambda0 (or mu0) by more than
    CHECK_TOL."""
    return restriction == "disjoint" and 2 in (m, n)


def _first_feasible(inp: GeneratorInput, lambda_intersect: bool):
    """The first candidate pair whose tight LP is feasible, as (k, l,
    program, feasibility probe), or None when no pair is."""
    for k, l in _pair_candidates(inp):
        lp = _tight_program(inp, k, l, lambda_intersect)
        probe = solve_lp(lp)
        if probe.status == OPTIMAL:
            return k, l, lp, probe
    return None


def generate_tight(
    inp: GeneratorInput,
    count: int = 1,
    *,
    rng: np.random.Generator,
    lambda_intersect: bool = False,
) -> list[TightInstance]:
    """Sample games for which the prescribed stationary data is worst-case tight.

    Takes the first candidate best-response pair (k, l) outside the supports
    of x* and y* whose program is feasible, skipping the pairs
    ``_pair_candidates`` shows infeasible without an LP; solves m random
    linear objectives over its feasible polytope (coin-flipping min against
    max) and emits ``count`` random convex combinations of the vertices
    found; every objective reuses the program's phase 1.  ``rng`` is drawn
    from only after a feasible probe, so skipping an infeasible pair
    changes no game and no generator state.  The empty list means no game
    exists for this input.  A ``count`` below 1 raises ValueError before
    any LP or draw.
    """
    if count < 1:
        raise ValueError("counts must be positive: count")
    found = _first_feasible(inp, lambda_intersect)
    if found is None:
        return []
    k, l, lp, probe = found
    vertices = [probe.x]
    for _ in range(inp.m):
        c = rng.uniform(0.0, 1.0, size=lp.objective.size)
        sense = MINIMIZE if rng.uniform() < 0.5 else MAXIMIZE
        sol = solve_lp(lp.with_objective(c, sense))
        if sol.status == OPTIMAL:
            vertices.append(sol.x)
    V = np.array(vertices)
    out = []
    for _ in range(count):
        weights = rng.uniform(0.0, 1.0, size=len(vertices))
        weights /= weights.sum()
        R, C = np.clip((weights @ V).reshape(2, inp.m, inp.n), 0.0, 1.0)
        out.append(TightInstance(Game(R, C), inp, solve_b().rho_star, k, l))
    return out


def tight_feasible(inp: GeneratorInput, lambda_intersect: bool = False) -> bool:
    """Whether any game realizes the prescribed tight stationary data."""
    return _first_feasible(inp, lambda_intersect) is not None


RESTRICTIONS = ("none", "disjoint", "intersecting", "nested")


def _random_subset(rng, k: int, forbid_full: bool = False):
    while True:
        support = np.flatnonzero(rng.uniform(size=k) < 0.5)
        if support.size and not (forbid_full and support.size == k):
            return support


def _fill(rng, k: int, support) -> np.ndarray:
    v = np.zeros(k)
    vals = rng.uniform(0.0, 1.0, size=len(support))
    while vals.sum() <= 0:
        vals = rng.uniform(0.0, 1.0, size=len(support))
    v[support] = vals / vals.sum()
    return v


def sample_inputs(
    m: int,
    n: int,
    restriction: str,
    rng: np.random.Generator,
    pure_duals: bool = True,
) -> GeneratorInput:
    """Draw generator inputs with the requested support relation.

    Supports are uniform nonempty subsets (x*, y* never full); values on the
    support are independent uniforms, normalized.  By default the witnesses
    w*, z* are pure, which keeps the dual solution of generated games
    essentially unique; pass pure_duals=False for set-valued witnesses.
    """
    if m < 2 or n < 2:
        raise ValueError("need at least two strategies per player")
    if restriction not in RESTRICTIONS:
        raise ValueError(f"unknown restriction {restriction!r}")

    def draw_side(k: int):
        # Joint rejection keeps the tuple distribution uniform over all
        # support pairs satisfying the restriction (sampling the base first
        # and the witness conditionally would skew toward large bases).
        while True:
            base = _random_subset(rng, k, forbid_full=True)
            if pure_duals:
                dual = np.array([rng.integers(k)])
            else:
                dual = _random_subset(rng, k)
            members = set(base.tolist())
            meets = not members.isdisjoint(dual.tolist())
            if restriction == "disjoint" and meets:
                continue
            if restriction == "intersecting" and not meets:
                continue
            if restriction == "nested" and not members.issuperset(dual.tolist()):
                continue
            return base, dual

    sx, sw = draw_side(m)
    sy, sz = draw_side(n)
    return GeneratorInput(
        x_star=_fill(rng, m, sx),
        y_star=_fill(rng, n, sy),
        w_star=_fill(rng, m, sw),
        z_star=_fill(rng, n, sz),
    )


def perturb_profile(p: Profile, radius: float, rng: np.random.Generator) -> Profile:
    """Perturb every coordinate uniformly in [-radius, radius], clamp, renormalize."""
    x = np.asarray(p.x) + rng.uniform(-radius, radius, size=p.x.size)
    y = np.asarray(p.y) + rng.uniform(-radius, radius, size=p.y.size)
    return Profile(renormalized(x), renormalized(y))


def profile_distance(p: Profile, q: Profile) -> float:
    """Max-norm distance between two profiles on the product of simplices."""
    return max(
        float(np.abs(p.x - q.x).max()),
        float(np.abs(p.y - q.y).max()),
    )


# Draws sample_outside_ball makes before it gives up.
OUTSIDE_BALL_TRIES = 1000
# Generator inputs a tight-game draw loop makes before it gives up.
MAX_INPUT_DRAWS = 10_000


class SamplingError(RuntimeError):
    """A rejection sampler used up its draws without an accepted sample."""


def sample_outside_ball(center: Profile, radius: float, rng: np.random.Generator) -> Profile:
    """Uniform-normalized random profile conditioned on leaving the ball."""
    for _ in range(OUTSIDE_BALL_TRIES):
        x = rng.uniform(0.0, 1.0, size=center.x.size)
        y = rng.uniform(0.0, 1.0, size=center.y.size)
        if x.sum() <= 0 or y.sum() <= 0:
            continue
        cand = Profile(mixed(x / x.sum()), mixed(y / y.sum()))
        if profile_distance(cand, center) >= radius:
            return cand
    raise SamplingError(f"could not sample a profile at distance >= {radius} from the center")


def tight_draws(m: int, n: int, restriction: str, rng: np.random.Generator,
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
    A ``count`` or ``groups`` below 1 raises ValueError before any draw.
    """
    low = [name for name, v in (("count", count), ("groups", groups)) if v < 1]
    if low:
        raise ValueError(f"counts must be positive: {', '.join(low)}")
    out: list[TightInstance] = []
    for insts in tight_draws(m, n, restriction, rng, pure_duals,
                             math.ceil(count / groups), lambda_intersect):
        out.extend(insts)
        if len(out) >= count:
            return out[:count]
    raise SamplingError(f"could not generate {count} tight {m}x{n} instances "
                        f"in {MAX_INPUT_DRAWS} input draws")


def verify_tight(
    game: Game,
    inp: GeneratorInput,
    tol: float = 1e-6,
    full_square: bool = False,
) -> TightCertificate:
    """Check that a game is worst-case tight for the prescribed data.

    Conditions: stationarity of (x*,y*) with the dual (rho*, w*, z*); the
    regret value equals b; the height differences equal (lambda0, mu0); the
    two far-corner regrets saturate at 1; the far corner leans toward the
    column regret; and f stays above b - tol on the square's boundary,
    checked exactly by minimizing f along each of its four edges.  With
    full_square set, f is also checked above b - tol on the whole square,
    exactly, by ``square_min_f``.
    """
    cons = solve_b()
    cert = TightCertificate(mixed_duals=not inp.pure_duals)
    x, y, w, z = inp.x_star, inp.y_star, inp.w_star, inp.z_star
    xy, xz, wy, wz = Profile(x, y), Profile(x, z), Profile(w, y), Profile(w, z)
    sp = stationary_from(game, xy, DualSolution(cons.rho_star, w, z))
    rep = verify_stationary(game, sp, tol)
    cert.checks["stationary"] = rep.ok
    cert.values["f"] = sp.f
    cert.checks["f_equals_b"] = abs(sp.f - cons.b) <= tol
    lam, mu = sp.lambda_star, sp.mu_star
    cert.values["lambda_star"] = lam
    cert.values["mu_star"] = mu
    cert.checks["lambda_is_lambda0"] = abs(lam - cons.lambda0) <= tol
    cert.checks["mu_is_mu0"] = abs(mu - cons.mu0) <= tol
    f_xz, f_wy, f_wz = regrets(game, xz), regrets(game, wy), regrets(game, wz)
    cert.checks["corner_regrets_saturate"] = (
        abs(f_xz.fR - 1.0) <= tol and abs(f_wy.fC - 1.0) <= tol
    )
    cert.checks["column_leaning_corner"] = f_wz.fC > f_wz.fR
    cert.values["f_wz_C"] = f_wz.fC
    cert.values["f_wz_R"] = f_wz.fR

    lows = [segment_min_f(game, a, b)[2] for a, b in ((xy, wy), (xz, wz), (xy, xz), (wy, wz))]
    cert.values["boundary_min"] = min(lows)
    cert.checks["boundary_above_b"] = min(lows) >= cons.b - tol

    if full_square:
        cert.values["square_min"] = square_min_f(game, xy, wz)[3]
        cert.checks["square_above_b"] = cert.values["square_min"] >= cons.b - tol
    return cert


def certificate_json(inst: TightInstance, cert: TightCertificate) -> str:
    doc = {
        "xStar": inst.input.x_star.tolist(),
        "yStar": inst.input.y_star.tolist(),
        "wStar": inst.input.w_star.tolist(),
        "zStar": inst.input.z_star.tolist(),
        "rhoStar": inst.rho_star,
        "k": inst.k,
        "l": inst.l,
        "checks": cert.checks,
        "values": cert.values,
        "mixedDuals": cert.mixed_duals,
    }
    return json.dumps(doc)


def canonical_block(inp: GeneratorInput, rho_star: float) -> dict:
    """The canonical block of a game file: the witness (x*, y*, w*, z*) and rho*."""
    return {"x": inp.x_star, "y": inp.y_star, "w": inp.w_star, "z": inp.z_star,
            "rho": rho_star}


# ---------------------------------------------------------------------------
# Static instances.


@dataclass(frozen=True)
class StaticInstance:
    name: str
    game: Game
    input: GeneratorInput
    rho_star: float

    @property
    def profile(self) -> Profile:
        return Profile(self.input.x_star, self.input.y_star)

    @property
    def dual(self) -> DualSolution:
        return DualSolution(self.rho_star, self.input.w_star, self.input.z_star)

    def stationary_point(self):
        return stationary_from(self.game, self.profile, self.dual)


def _pure_witness(m: int, n: int, base: int, dual: int) -> GeneratorInput:
    """x* and y* on strategy ``base``, w* and z* on strategy ``dual``."""
    return GeneratorInput(pure(m, base), pure(n, base), pure(m, dual), pure(n, dual))


def tight_3x3() -> StaticInstance:
    """The 3x3 game attaining the 0.3393 bound at a pure stationary point."""
    cons = solve_b()
    b, lam0, mu0 = cons.b, cons.lambda0, cons.mu0
    R = np.array([[0.1, 0.0, 0.0], [0.1 + b, 1.0, 1.0], [0.1 + b, lam0, lam0]])
    C = np.array([[0.1, 0.1 + b, 0.1 + b], [0.0, 1.0, mu0], [0.0, 1.0, mu0]])
    return StaticInstance("tight-3x3", Game(R, C), _pure_witness(3, 3, 0, 2), cons.rho_star)


def tight_m_n(m: int, n: int) -> StaticInstance:
    """Worst-case-tight games of every size m, n > 2."""
    if m <= 2 or n <= 2:
        raise ValueError("tight instances of this family need m, n > 2")
    cons = solve_b()
    b, lam0, mu0 = cons.b, cons.lambda0, cons.mu0
    R = np.ones((m, n))
    R[0, :] = 0.0
    R[0, 0] = 0.1
    R[1:, 0] = 0.1 + b
    R[1, 1:] = lam0
    C = np.ones((m, n))
    C[0, :] = 0.1 + b
    C[0, 0] = 0.1
    C[1:, 0] = 0.0
    C[1:, 1] = mu0
    return StaticInstance(f"tight-{m}x{n}", Game(R, C), _pure_witness(m, n, 0, 1), cons.rho_star)


def tight_no_dominated() -> StaticInstance:
    """A tight 4x4 game in which no pure strategy dominates another."""
    cons = solve_b()
    b, lam0, mu0 = cons.b, cons.lambda0, cons.mu0
    R = np.array(
        [
            [2 * b + 0.2, 0.0, 0.0, 0.0],
            [0.0, 2 * b + 0.2, 0.0, 0.0],
            [2 * b + 0.17, 2 * b + 0.03, 1.0, 1.0],
            [2 * b + 0.03, 2 * b + 0.17, 2 * lam0 - 1, 2 * lam0 - 1],
        ]
    )
    C = np.array(
        [
            [2 * b + 0.2, 0.0, 2 * b + 0.17, 2 * b + 0.03],
            [0.0, 2 * b + 0.2, 2 * b + 0.03, 2 * b + 0.17],
            [0.0, 0.0, 1.0, 2 * mu0 - 1],
            [0.0, 0.0, 1.0, 2 * mu0 - 1],
        ]
    )
    half = np.array([0.5, 0.5, 0.0, 0.0])
    dual = np.array([0.0, 0.0, 0.5, 0.5])
    return StaticInstance("no-dominated", Game(R, C), GeneratorInput(half, half, dual, dual),
                          cons.rho_star)


def dfm_tight() -> StaticInstance:
    """The 3x3 game on which the four-case adjustment attains exactly 1/3."""
    R = np.array([[0.0, 0.0, 0.0], [1 / 3, 1.0, 1.0], [1 / 3, 0.5, 0.5]])
    C = np.array([[0.0, 1 / 3, 1 / 3], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    return StaticInstance("dfm-tight", Game(R, C), _pure_witness(3, 3, 0, 2), 2.0 / 3.0)


def dfm_family(eps: float) -> StaticInstance:
    """The family approaching 1/3 through the hard adjustment cases."""
    if not 0.0 < eps <= 1.0 / 3.0:
        raise ValueError("eps must lie in (0, 1/3]")
    R = np.array(
        [[0.0, 0.0, 0.0], [1 / 3, 1.0, 1.0], [1 / 3, 2 / 3 - eps / 2, 2 / 3 - eps / 2]]
    )
    C = np.array(
        [[0.0, 1 / 3 - eps, 1 / 3 - eps], [0.0, 1.0, 2 / 3 + eps], [0.0, 1.0, 2 / 3 + eps]]
    )
    return StaticInstance(f"dfm-family:{eps}", Game(R, C), _pure_witness(3, 3, 0, 2), 0.5)


def half_sp() -> StaticInstance:
    """The 2x2 game whose stationary point is only a 1/2-approximation."""
    R = np.array([[0.5, 0.0], [1.0, 1.0]])
    C = np.array([[0.5, 1.0], [0.0, 1.0]])
    return StaticInstance("half-sp", Game(R, C), _pure_witness(2, 2, 0, 1), 0.5)
