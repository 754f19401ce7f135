"""Worst-case instance generator: the feasibility program that characterizes
games attaining the 0.3393 bound at a prescribed stationary point, input
samplers, tightness verification, numeric computation of the bound constants,
and the static instances used throughout the test and experiment suites.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .descent import DualSolution, stationary_from, verify_stationary
from .game import SUPPORT_TOL, Game, Profile, grid_f, mixed, regrets, segment_min_f
from .lp import (
    CHECK_TOL, EQ, GE, LE, MINIMIZE, MAXIMIZE, OPTIMAL, INFEASIBLE, LinearProgram, solve_lp,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Constants:
    """The worst-case bound b and the height differences attaining it."""

    b: float
    lambda0: float
    mu0: float

    @property
    def rho_star(self) -> float:
        return self.mu0 / (self.lambda0 + self.mu0)


def _bound_curve(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """min of the two estimates st/(s+t) and (1-s)/(1+t-s), guarded at 0/0."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    first = np.where(s + t > 0, s * t / np.maximum(s + t, 1e-300), 0.0)
    den = 1.0 + t - s
    second = np.where(den > 0, (1.0 - s) / np.maximum(den, 1e-300), np.inf)
    return np.minimum(first, second)


def _bound_point(s: float, t: float) -> float:
    """_bound_curve at one point, in Python floats: the same correctly
    rounded operations in the same order, so the same double
    (notes/decisions.md section 9)."""
    st = s + t
    first = s * t / max(st, 1e-300) if st > 0 else 0.0
    den = 1.0 + t - s
    second = (1.0 - s) / max(den, 1e-300) if den > 0 else math.inf
    return min(first, second)


def _golden_max(f, lo: float, hi: float, iters: int):
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = f(d)
    mid = (lo + hi) / 2.0
    return mid, f(mid)


# Rows of s per block of the coarse scan in solve_b.
_ROW_BLOCK = 8


@lru_cache(maxsize=1)
def solve_b() -> Constants:
    """Maximize min{st/(s+t), (1-s)/(1+t-s)} over the unit square.

    A scan of the 1001x1001 lattice of step 1/1000, _ROW_BLOCK rows of s at
    a time, locates the optimum; 40 golden-section rounds on t, each with
    an exact inner golden-section maximization over s, refine it.  The scan
    keeps the first maximal cell in row-major order, the cell np.argmax
    picks on the whole lattice (notes/decisions.md section 8).  The
    refinement evaluates _bound_point, the scalar twin of _bound_curve
    (section 9).
    The inner problem is unimodal (the min of an increasing and a decreasing
    function of s), so the nesting converges; flat coordinate-wise search
    would stall on the crossing ridge.
    """
    grid = np.linspace(0.0, 1.0, 1001)
    best, j = -np.inf, 0
    for lo in range(0, grid.size, _ROW_BLOCK):
        vals = _bound_curve(grid[lo:lo + _ROW_BLOCK, None], grid)
        k = int(np.argmax(vals))
        if vals.flat[k] > best:
            best, j = vals.flat[k], k % grid.size

    def best_over_s(t: float) -> float:
        return _golden_max(lambda s: _bound_point(s, t), 0.0, 1.0, 90)[1]

    t0 = float(grid[j])
    t_lo, t_hi = max(0.0, t0 - 0.05), min(1.0, t0 + 0.05)
    lam0, _ = _golden_max(best_over_s, t_lo, t_hi, 40)
    mu0, b = _golden_max(lambda s: _bound_point(s, lam0), 0.0, 1.0, 90)
    return Constants(b=b, lambda0=lam0, mu0=mu0)


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

    def supports(self, tol: float = SUPPORT_TOL):
        return (
            np.nonzero(self.x_star > tol)[0],
            np.nonzero(self.y_star > tol)[0],
            np.nonzero(self.w_star > tol)[0],
            np.nonzero(self.z_star > tol)[0],
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
    certificate: "TightCertificate | None" = None


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


class _TightLpBuilder:
    """Assemble the feasibility program over the 2mn payoff entries.

    Variables are the entries of R then C, row-major.  Every structural
    condition of the characterization is linear once the stationary profile
    and dual witnesses are fixed.
    """

    def __init__(self, inp: GeneratorInput, k: int, l: int, lambda_intersect: bool):
        self.inp = inp
        self.k = k
        self.l = l
        self.lambda_intersect = lambda_intersect
        self.m = inp.m
        self.n = inp.n
        self.nv = 2 * self.m * self.n
        self.rows: list = []
        cons = solve_b()
        self.b = cons.b
        self.lam0 = cons.lambda0
        self.mu0 = cons.mu0
        self.rho = cons.rho_star
        self.lower = [0.0] * self.nv
        self._build()
        self.lp = LinearProgram(np.zeros(self.nv), MINIMIZE, self.rows, lower=self.lower,
                                upper=(1.0,) * self.nv)

    def _r(self, i: int, j: int) -> int:
        return i * self.n + j

    def _c(self, i: int, j: int) -> int:
        return self.m * self.n + i * self.n + j

    def _row_payoff_coeffs(self, i: int, weights_y: np.ndarray) -> np.ndarray:
        """Coefficients of (R weights_y)_i."""
        a = np.zeros(self.nv)
        for j in range(self.n):
            a[self._r(i, j)] = weights_y[j]
        return a

    def _col_payoff_coeffs(self, j: int, weights_x: np.ndarray) -> np.ndarray:
        """Coefficients of (C' weights_x)_j."""
        a = np.zeros(self.nv)
        for i in range(self.m):
            a[self._c(i, j)] = weights_x[i]
        return a

    def _argmax_rows(self, values, members, universe):
        """members all equal and dominating every index of the universe."""
        anchor = int(members[0])
        for i in members[1:]:
            self.rows.append((values(int(i)) - values(anchor), EQ, 0.0))
        in_members = set(int(t) for t in members)
        for i in universe:
            if i not in in_members:
                self.rows.append((values(anchor) - values(int(i)), GE, 0.0))

    def _build(self):
        inp = self.inp
        m, n = self.m, self.n
        sx, sy, sw, sz = inp.supports()
        x, y, w, z = inp.x_star, inp.y_star, inp.w_star, inp.z_star
        rho = self.rho

        # Dual witnesses sit on best-response sets.
        self._argmax_rows(lambda i: self._row_payoff_coeffs(i, y), sw, range(m))
        self._argmax_rows(lambda j: self._col_payoff_coeffs(j, x), sz, range(n))
        # The enumerated pure strategies are best responses to z* and w*.
        self._argmax_rows(lambda i: self._row_payoff_coeffs(i, z), [self.k], range(m))
        self._argmax_rows(lambda j: self._col_payoff_coeffs(j, w), [self.l], range(n))

        # Stationarity: supports of x*, y* minimize the certificate vectors
        # A_i = -rho (Ry*)_i + (1-rho)(C(z*-y*))_i  and
        # B_j =  rho (R'(w*-x*))_j - (1-rho)(C'x*)_j.
        def A_coeffs(i: int) -> np.ndarray:
            a = np.zeros(self.nv)
            for j in range(n):
                a[self._r(i, j)] = -rho * y[j]
                a[self._c(i, j)] = (1.0 - rho) * (z[j] - y[j])
            return a

        def B_coeffs(j: int) -> np.ndarray:
            a = np.zeros(self.nv)
            for i in range(m):
                a[self._r(i, j)] = rho * (w[i] - x[i])
                a[self._c(i, j)] = -(1.0 - rho) * x[i]
            return a

        anchor = int(sx[0])
        for i in sx[1:]:
            self.rows.append((A_coeffs(int(i)) - A_coeffs(anchor), EQ, 0.0))
        in_sx = set(int(t) for t in sx)
        for i in range(m):
            if i not in in_sx:
                self.rows.append((A_coeffs(int(i)) - A_coeffs(anchor), GE, 0.0))
        anchor = int(sy[0])
        for j in sy[1:]:
            self.rows.append((B_coeffs(int(j)) - B_coeffs(anchor), EQ, 0.0))
        in_sy = set(int(t) for t in sy)
        for j in range(n):
            if j not in in_sy:
                self.rows.append((B_coeffs(int(j)) - B_coeffs(anchor), GE, 0.0))

        # Regrets at the stationary profile equal the bound.
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._r(i, j)] = (w[i] - x[i]) * y[j]
        self.rows.append((a, EQ, self.b))
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._c(i, j)] = x[i] * (z[j] - y[j])
        self.rows.append((a, EQ, self.b))

        # Far-corner structure: zero own payoffs, saturated best responses,
        # and the prescribed height differences.
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._r(i, j)] = x[i] * z[j]
        self.rows.append((a, EQ, 0.0))
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._c(i, j)] = w[i] * y[j]
        self.rows.append((a, EQ, 0.0))
        for j in sz:
            self.lower[self._r(self.k, int(j))] = 1.0
        for i in sw:
            self.lower[self._c(int(i), self.l)] = 1.0
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._r(i, j)] = w[i] * z[j]
        self.rows.append((a, EQ, self.lam0))
        a = np.zeros(self.nv)
        for i in range(m):
            for j in range(n):
                a[self._c(i, j)] = w[i] * z[j]
        self.rows.append((a, EQ, self.mu0))

        # The boundary minimum coincides with the linear-bound intersection.
        anchor_z = int(sz[0])
        self.rows.append(
            (self._col_payoff_coeffs(self.l, x) - self._col_payoff_coeffs(anchor_z, x), EQ, 0.0)
        )

        if self.lambda_intersect:
            # Force k to also best-respond to y*, intersecting the two
            # row-player best-response sets.
            anchor_w = int(sw[0])
            self.rows.append(
                (self._row_payoff_coeffs(self.k, y) - self._row_payoff_coeffs(anchor_w, y), EQ, 0.0)
            )

    def solve(self, objective: np.ndarray | None, sense: str = MINIMIZE):
        """Optimize over the program; None asks for feasibility only.

        Every objective shares ``self.lp``'s standard form, so the program's
        phase 1 runs once however many objectives are solved.
        """
        c = np.zeros(self.nv) if objective is None else objective
        return solve_lp(self.lp.with_objective(c, sense))


def _pair_candidates(inp: GeneratorInput):
    """The best-response pairs (k, l) whose tight LP may be feasible, in the
    order the generator tries them: k outside supp x*, l outside supp y*.

    A pair whose LP phase 1 is sure to reject is left out before any row is
    built (notes/decisions.md section 10).
    """
    sx, sy, sw, sz = inp.supports()
    cons = solve_b()
    w, z = inp.w_star, inp.z_star
    # _TightLpBuilder._build bounds R[k, j] below by 1 for j in supp z* and
    # C[i, l] for i in supp w*, keeps every entry in [0, 1], and asks for
    # w*'Rz* = lambda0 and w*'Cz* = mu0.  So w*'Rz* >= w*_k sum_{supp z*} z*
    # and w*'Cz* >= z*_l sum_{supp w*} w*; a pair where either floor beats
    # its height by more than CHECK_TOL, phase 1's infeasibility threshold,
    # has an LP that answers INFEASIBLE.
    z_mass = z[sz].sum()
    w_mass = w[sw].sum()
    in_sx = set(int(t) for t in sx)
    in_sy = set(int(t) for t in sy)
    ks = [k for k in range(inp.m)
          if k not in in_sx and w[k] * z_mass - cons.lambda0 <= CHECK_TOL]
    ls = [l for l in range(inp.n)
          if l not in in_sy and z[l] * w_mass - cons.mu0 <= CHECK_TOL]
    return [(k, l) for k in ks for l in ls]


def generate_tight(
    inp: GeneratorInput,
    count: int = 1,
    objectives: int | None = None,
    rng: np.random.Generator | None = None,
    all_pairs: bool = False,
    lambda_intersect: bool = False,
) -> list[TightInstance]:
    """Sample games for which the prescribed stationary data is worst-case tight.

    Enumerates candidate best-response strategies (k, l) outside the supports
    of x* and y*, less the pairs ``_pair_candidates`` shows infeasible without
    an LP; for each feasible pair, solves ``objectives`` random linear
    objectives over the feasible polytope (coin-flipping min against max) and
    emits ``count`` random convex combinations of the vertices found.  ``rng``
    is drawn from only after a feasible probe, so skipping an infeasible pair
    changes no game and no generator state.  The empty list means no game
    exists for this input.
    """
    rng = np.random.default_rng() if rng is None else rng
    sx, sy, _, _ = inp.supports()
    if len(sx) == inp.m or len(sy) == inp.n:
        return []
    n_obj = inp.m if objectives is None else objectives
    out: list[TightInstance] = []
    cons = solve_b()
    for k, l in _pair_candidates(inp):
        builder = _TightLpBuilder(inp, k, l, lambda_intersect)
        probe = builder.solve(None)
        if probe.status != OPTIMAL:
            continue
        vertices = [probe.x]
        for _ in range(n_obj):
            c = rng.uniform(0.0, 1.0, size=builder.nv)
            sense = MINIMIZE if rng.uniform() < 0.5 else MAXIMIZE
            sol = builder.solve(c, sense)
            if sol.status == OPTIMAL:
                vertices.append(sol.x)
        V = np.array(vertices)
        for _ in range(count):
            weights = rng.uniform(0.0, 1.0, size=len(vertices))
            weights /= weights.sum()
            flat = weights @ V
            mn = inp.m * inp.n
            R = np.clip(flat[:mn].reshape(inp.m, inp.n), 0.0, 1.0)
            C = np.clip(flat[mn:].reshape(inp.m, inp.n), 0.0, 1.0)
            out.append(
                TightInstance(
                    game=Game(R, C),
                    input=inp,
                    rho_star=cons.rho_star,
                    k=k,
                    l=l,
                )
            )
        if not all_pairs:
            break
    return out


def tight_feasible(inp: GeneratorInput, lambda_intersect: bool = False) -> bool:
    """Whether any game realizes the prescribed tight stationary data."""
    sx, sy, _, _ = inp.supports()
    if len(sx) == inp.m or len(sy) == inp.n:
        return False
    for k, l in _pair_candidates(inp):
        builder = _TightLpBuilder(inp, k, l, lambda_intersect)
        if builder.solve(None).status == OPTIMAL:
            return True
    return False


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
    restriction: str = "disjoint",
    rng: np.random.Generator | None = None,
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
    rng = np.random.default_rng() if rng is None else rng

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
    x = np.clip(x, 0.0, None)
    y = np.clip(y, 0.0, None)
    if x.sum() <= 0:
        x = np.ones_like(x)
    if y.sum() <= 0:
        y = np.ones_like(y)
    return Profile(mixed(x / x.sum()), mixed(y / y.sum()))


def profile_distance(p: Profile, q: Profile) -> float:
    """Max-norm distance between two profiles on the product of simplices."""
    return max(
        float(np.abs(p.x - q.x).max()),
        float(np.abs(p.y - q.y).max()),
    )


def sample_outside_ball(
    center: Profile, radius: float, rng: np.random.Generator, max_tries: int = 1000
) -> Profile:
    """Uniform-normalized random profile conditioned on leaving the ball."""
    for _ in range(max_tries):
        x = rng.uniform(0.0, 1.0, size=center.x.size)
        y = rng.uniform(0.0, 1.0, size=center.y.size)
        if x.sum() <= 0 or y.sum() <= 0:
            continue
        cand = Profile(mixed(x / x.sum()), mixed(y / y.sum()))
        if profile_distance(cand, center) >= radius:
            return cand
    raise RuntimeError("could not sample a point outside the ball")


def verify_tight(
    game: Game,
    inp: GeneratorInput,
    grid_size: int = 200,
    tol: float = 1e-6,
    full_grid: bool = False,
) -> TightCertificate:
    """Check that a game is worst-case tight for the prescribed data.

    Conditions: stationarity of (x*,y*) with the dual (rho*, w*, z*); the
    regret value equals b; the height differences equal (lambda0, mu0); the
    two far-corner regrets saturate at 1; the far corner leans toward the
    column regret; and f stays above b - tol on the square's boundary,
    checked exactly by minimizing f along each of its four edges.  With
    full_grid set, f is also checked on a grid_size x grid_size lattice over
    the whole square; grid_size sizes nothing else.
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

    if full_grid:
        alphas = np.linspace(0.0, 1.0, grid_size)
        X = (1 - alphas)[:, None] * x + alphas[:, None] * w
        Y = (1 - alphas)[:, None] * y + alphas[:, None] * z
        cert.values["grid_min"] = float(grid_f(game, X, Y).min())
        cert.checks["grid_above_b"] = cert.values["grid_min"] >= cons.b - tol
    return cert


def certificate_json(inst: TightInstance) -> str:
    cert = inst.certificate
    doc = {
        "xStar": inst.input.x_star.tolist(),
        "yStar": inst.input.y_star.tolist(),
        "wStar": inst.input.w_star.tolist(),
        "zStar": inst.input.z_star.tolist(),
        "rhoStar": inst.rho_star,
        "k": inst.k,
        "l": inst.l,
        "checks": cert.checks if cert else {},
        "values": cert.values if cert else {},
        "mixedDuals": cert.mixed_duals if cert else not inst.input.pure_duals,
    }
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# Static instances.


@dataclass(frozen=True)
class StaticInstance:
    name: str
    game: Game
    x_star: np.ndarray
    y_star: np.ndarray
    w_star: np.ndarray
    z_star: np.ndarray
    rho_star: float

    def __post_init__(self):
        for attr in ("x_star", "y_star", "w_star", "z_star"):
            object.__setattr__(self, attr, mixed(getattr(self, attr)))

    @property
    def profile(self) -> Profile:
        return Profile(self.x_star, self.y_star)

    @property
    def dual(self) -> DualSolution:
        return DualSolution(self.rho_star, self.w_star, self.z_star)

    @property
    def generator_input(self) -> GeneratorInput:
        return GeneratorInput(self.x_star, self.y_star, self.w_star, self.z_star)

    def stationary_point(self, game: Game | None = None):
        return stationary_from(game or self.game, self.profile, self.dual)

    def canonical_dict(self) -> dict:
        return {
            "x": self.x_star,
            "y": self.y_star,
            "w": self.w_star,
            "z": self.z_star,
            "rho": self.rho_star,
        }


def _e(k: int, i: int) -> np.ndarray:
    v = np.zeros(k)
    v[i] = 1.0
    return v


def tight_3x3() -> StaticInstance:
    """The 3x3 game attaining the 0.3393 bound at a pure stationary point."""
    cons = solve_b()
    b, lam0, mu0 = cons.b, cons.lambda0, cons.mu0
    R = np.array([[0.1, 0.0, 0.0], [0.1 + b, 1.0, 1.0], [0.1 + b, lam0, lam0]])
    C = np.array([[0.1, 0.1 + b, 0.1 + b], [0.0, 1.0, mu0], [0.0, 1.0, mu0]])
    return StaticInstance(
        "tight-3x3", Game(R, C),
        _e(3, 0), _e(3, 0), _e(3, 2), _e(3, 2), cons.rho_star,
    )


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
    return StaticInstance(
        f"tight-{m}x{n}", Game(R, C),
        _e(m, 0), _e(n, 0), _e(m, 1), _e(n, 1), cons.rho_star,
    )


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
    return StaticInstance(
        "tight-no-dominated", Game(R, C), half, half, dual, dual, cons.rho_star
    )


def dfm_tight() -> StaticInstance:
    """The 3x3 game on which the four-case adjustment attains exactly 1/3."""
    R = np.array([[0.0, 0.0, 0.0], [1 / 3, 1.0, 1.0], [1 / 3, 0.5, 0.5]])
    C = np.array([[0.0, 1 / 3, 1 / 3], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    return StaticInstance(
        "dfm-tight", Game(R, C), _e(3, 0), _e(3, 0), _e(3, 2), _e(3, 2), 2.0 / 3.0
    )


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
    return StaticInstance(
        f"dfm-family-{eps}", Game(R, C), _e(3, 0), _e(3, 0), _e(3, 2), _e(3, 2), 0.5
    )


def half_sp() -> StaticInstance:
    """The 2x2 game whose stationary point is only a 1/2-approximation."""
    R = np.array([[0.5, 0.0], [1.0, 1.0]])
    C = np.array([[0.5, 1.0], [0.0, 1.0]])
    return StaticInstance(
        "half-sp", Game(R, C), _e(2, 0), _e(2, 0), _e(2, 1), _e(2, 1), 0.5
    )
