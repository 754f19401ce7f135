"""Bimatrix games normalized to [0,1], mixed strategies, regrets and
approximate-equilibrium predicates.

Conventions used throughout the package: the row player has m pure
strategies and payoff matrix R, the column player has n pure strategies
and payoff matrix C (both m x n).  Mixed strategies are plain 1-D numpy
arrays on the probability simplex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Entries may drift below 0 / above 1 by this much before we reject them.
ENTRY_TOL = 1e-12
# Clamp threshold for tiny negative strategy weights produced by line-search
# arithmetic; anything more negative is a genuine error.
NEG_TOL = 1e-12
# A strategy must sum to 1 within this much before renormalization.
SUM_TOL = 1e-9
# Default absolute tolerance for best-response support sets.
SUPPORT_TOL = 1e-9
# Segment-search candidates whose envelope value is within this of the least
# one tie; the one nearest the segment's start wins.
SEGMENT_TIE_TOL = 1e-15


class GameError(ValueError):
    """Malformed game data (shape, range, or non-finite entries)."""


def mixed(vec) -> np.ndarray:
    """Validate a vector as a mixed strategy and return it as a read-only array.

    Tiny negatives (>= -1e-12) are clamped to 0 and the sum is made exactly 1.
    The checks run at the library's boundary, on vectors that callers give.
    """
    v = np.array(vec, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise GameError("mixed strategy must be a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise GameError("mixed strategy has non-finite entries")
    if v.min() < -NEG_TOL:
        raise GameError(f"mixed strategy entry {v.min()} is negative")
    return normalize_in_place(v)


def normalize_in_place(v: np.ndarray) -> np.ndarray:
    """The arithmetic of ``mixed`` without its input checks, in place: zero
    v's negatives, divide v by its sum (which must be within 1e-9 of 1) and
    make v read-only; returns v.

    For a vector the library has just computed and clipped: it gets the
    arithmetic only, and a NaN or infinite entry still fails the sum check.
    """
    v[v < 0] = 0.0  # not np.maximum, which turns -0.0 into +0.0
    s = float(v.sum())
    if not abs(s - 1.0) <= SUM_TOL:  # a NaN sum fails too
        raise GameError(f"mixed strategy sums to {s}, not 1")
    v /= s
    v.flags.writeable = False
    return v


def pure(k: int, i: int) -> np.ndarray:
    """The pure strategy e_i in a k-action strategy space."""
    if not 0 <= i < k:
        raise GameError(f"pure strategy index {i} is outside [0, {k})")
    v = np.zeros(k)
    v[i] = 1.0
    v.flags.writeable = False
    return v


def uniform(k: int) -> np.ndarray:
    v = np.full(k, 1.0 / k)
    v.flags.writeable = False
    return v


def renormalized(vec) -> np.ndarray:
    """A vector scaled to a mixed strategy: negatives clipped to 0, then
    divided by the sum; uniform when no mass is left."""
    v = np.maximum(np.asarray(vec, dtype=float), 0.0)
    total = float(v.sum())
    if total <= 0:
        v = np.ones_like(v)
        total = v.sum()
    return normalize_in_place(v / total)


class Profile(NamedTuple):
    """A pair of mixed strategies (x for the row player, y for the column player)."""

    x: np.ndarray
    y: np.ndarray

    def swapped(self) -> "Profile":
        """The profile seen from the swapped game: (y, x)."""
        return Profile(self.y, self.x)


class Regrets(NamedTuple):
    """Row regret, column regret and their maximum at a profile."""

    fR: float
    fC: float
    f: float


class Supports(NamedTuple):
    """Best-response index sets at a profile.

    row_best is the set of row-player pure best responses to y (argmax of Ry),
    col_best the column-player pure best responses to x (argmax of C'x).
    """

    row_best: np.ndarray
    col_best: np.ndarray


@dataclass(frozen=True)
class Game:
    """An m x n bimatrix game with both payoff matrices in [0,1].

    Immutable after construction; matrices are stored dense and read-only.
    """

    R: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        R = np.array(self.R, dtype=float)
        C = np.array(self.C, dtype=float)
        if R.ndim != 2 or R.size == 0:
            raise GameError("R must be a nonempty matrix")
        if R.shape != C.shape:
            raise GameError(f"shape mismatch: R is {R.shape}, C is {C.shape}")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(C))):
            raise GameError("payoff matrices must be finite")
        for name, M in (("R", R), ("C", C)):
            if M.min() < -ENTRY_TOL or M.max() > 1 + ENTRY_TOL:
                raise GameError(
                    f"{name} entries outside [0,1]: min={M.min()}, max={M.max()}"
                )
        R.flags.writeable = False
        C.flags.writeable = False
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "C", C)

    @property
    def m(self) -> int:
        return self.R.shape[0]

    @property
    def n(self) -> int:
        return self.R.shape[1]

    def swapped(self) -> "Game":
        """The game with the players exchanged, (C', R').

        Read-only transposed views of the validated matrices, not validated
        again, so it is cheap enough to build on every descent step.
        """
        g = object.__new__(Game)
        object.__setattr__(g, "R", self.C.T)
        object.__setattr__(g, "C", self.R.T)
        return g

    def check_profile(self, p: Profile) -> Profile:
        if p.x.shape != (self.m,) or p.y.shape != (self.n,):
            raise GameError(
                f"profile shape ({p.x.shape[0]}, {p.y.shape[0]}) does not match "
                f"game shape ({self.m}, {self.n})"
            )
        return p

    def uniform_profile(self) -> Profile:
        return Profile(uniform(self.m), uniform(self.n))

    def pure_profile(self, i: int, j: int) -> Profile:
        return Profile(pure(self.m, i), pure(self.n, j))

    def to_json(self, canonical: dict | None = None) -> str:
        doc = {"m": self.m, "n": self.n, "R": self.R.tolist(), "C": self.C.tolist()}
        if canonical is not None:
            doc["canonical"] = {k: np.asarray(v).tolist() for k, v in canonical.items()}
        return json.dumps(doc)

    @classmethod
    def from_doc(cls, doc: dict, normalize: bool = False) -> "Game":
        """The game of a parsed JSON document (the format of ``to_json``)."""
        if not isinstance(doc, dict):
            raise GameError("a game document must be an object with keys 'R' and 'C'")
        for key in ("R", "C"):
            if key not in doc:
                raise GameError(f"game document has no {key!r} matrix")
        R = np.array(doc["R"], dtype=float)
        C = np.array(doc["C"], dtype=float)
        if "m" in doc and (doc["m"], doc.get("n")) != R.shape:
            raise GameError("declared dimensions do not match matrix shape")
        if normalize:
            return normalize_game(R, C)
        return cls(R, C)


def _affine_to_unit(M: np.ndarray) -> np.ndarray:
    lo, hi = M.min(), M.max()
    if hi - lo <= 0:
        return np.zeros_like(M)
    return (M - lo) / (hi - lo)


def normalize_game(Rraw, Craw) -> Game:
    """Shift and scale each payoff matrix independently onto [0,1].

    A constant matrix maps to all zeros.  The affine map preserves each
    player's best-response structure, so the normalized game has the same
    (approximate) equilibria up to a rescaling of epsilon.
    """
    R = np.array(Rraw, dtype=float)
    C = np.array(Craw, dtype=float)
    if R.ndim != 2 or R.size == 0 or R.shape != C.shape:
        raise GameError("payoff matrices must be nonempty and of equal shape")
    if not (np.all(np.isfinite(R)) and np.all(np.isfinite(C))):
        raise GameError("payoff matrices must be finite")
    return Game(_affine_to_unit(R), _affine_to_unit(C))


def regrets(game: Game, p: Profile) -> Regrets:
    """Best-response gaps fR = max(Ry) - x'Ry and fC = max(C'x) - x'Cy."""
    game.check_profile(p)
    x, y = p
    Ry = game.R @ y
    Cx = game.C.T @ x
    fR = float(Ry.max() - x @ Ry)
    fC = float(Cx.max() - Cx @ y)
    return Regrets(fR, fC, max(fR, fC))


def _quadratic_roots(qa, qb, qc) -> tuple[np.ndarray, np.ndarray]:
    """Both roots of qa t^2 + qb t + qc, elementwise, without cancellation."""
    q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
    return q / qa, qc / q


def segment_min_f(game: Game, a: Profile, b: Profile) -> tuple[float, Profile, float]:
    """Minimize f exactly along the segment from profile a to profile b.

    On p(t) = (x + t dx, y + t dy) each row piece (Ry(t))_i - x(t)'Ry(t) and
    each column piece (C'x(t))_j - x(t)'Cy(t) is a quadratic in t, and f is
    the upper envelope of these m + n quadratics.  Its minimum on [0, 1] lies
    at an endpoint, a crossing of two pieces or the vertex of a convex piece.
    The envelope is evaluated at all of them at once; the smallest t whose
    value is within SEGMENT_TIE_TOL of the least wins, and f is recomputed at
    the profile returned.  Returns (t, profile, f).
    """
    game.check_profile(a)
    game.check_profile(b)
    x, y = a
    dx, dy = b.x - x, b.y - y
    Ry, Rdy = game.R @ y, game.R @ dy
    Cx, Cdx = game.C.T @ x, game.C.T @ dx
    # Coefficients of p0 + p1 t + p2 t^2: the m row pieces, then the n column
    # pieces; each family shares its p2.
    p0 = np.concatenate([Ry - x @ Ry, Cx - Cx @ y])
    p1 = np.concatenate([Rdy - (dx @ Ry + x @ Rdy), Cdx - (Cdx @ y + Cx @ dy)])
    p2 = np.array([-(dx @ Rdy)] * game.m + [-(Cdx @ dy)] * game.n)
    # Differences of every ordered pair of pieces (each pair twice, harmless).
    qa, qb, qc = (v[:, None] - v[None, :] for v in (p2, p1, p0))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # When qa = 0 (two pieces of one family) the second root is the linear
        # one; a concave piece's vertex is a maximum, a harmless extra candidate.
        roots = np.concatenate([r.ravel() for r in _quadratic_roots(qa, qb, qc)]
                               + [-p1 / (2.0 * p2)])
    ts = np.concatenate([[0.0, 1.0], roots[(roots > 0.0) & (roots < 1.0)]])
    F = (p0[:, None] + ts * (p1[:, None] + ts * p2[:, None])).max(axis=0)
    t = float(ts[F <= F.min() + SEGMENT_TIE_TOL].min())
    prof = Profile(normalize_in_place(np.maximum(x + t * dx, 0.0)),
                   normalize_in_place(np.maximum(y + t * dy, 0.0)))
    return t, prof, regrets(game, prof).f


def _cuts(c0, c1) -> np.ndarray:
    """0, 1 and every t in (0, 1) where two of the lines c0 + c1 t cross."""
    t = ((c0[None, :] - c0[:, None]) / (c1[:, None] - c1[None, :])).ravel()
    return np.unique(np.concatenate([[0.0, 1.0], t[(t > 0.0) & (t < 1.0)]]))


def _pair_points(d0, du, dv, duv, g0, gu, gv, cuts) -> tuple[np.ndarray, np.ndarray]:
    """Points (u, v) of each curve d0 + du u + dv v + duv uv = 0 on the lines
    v = c of cuts, and where it meets its line g0 + gu u + gv v = 0."""
    on_cuts = -(d0[:, None] + dv[:, None] * cuts) / (du[:, None] + duv[:, None] * cuts)
    u = np.stack(_quadratic_roots(-duv * gu, du * gv - dv * gu - duv * g0, d0 * gv - dv * g0))
    v = np.broadcast_to(cuts, on_cuts.shape)
    return (np.concatenate([on_cuts.ravel(), u.ravel()]),
            np.concatenate([v.ravel(), (-(g0 + gu * u) / gv).ravel()]))


def square_min_f(game: Game, a: Profile, b: Profile) -> tuple[float, float, Profile, float]:
    """Minimize f exactly on p(alpha, beta) = ((1-alpha) x + alpha w,
    (1-beta) y + beta z), the square spanned by a = (x, y) and b = (w, z).

    Each row and column piece of f is bilinear in (alpha, beta); two row
    pieces cross on a line beta = const, two column pieces on a line alpha =
    const.  A bilinear piece has no strict interior minimum, so f's minimum
    is a vertex of these cut lines, a row-column crossing on a cut line, or
    a point of a row-column crossing where the two gradients are parallel
    (a line: one quadratic per pair).  Of the candidates within
    SEGMENT_TIE_TOL of the least value, the least alpha, then the least beta
    wins; f is recomputed at the profile returned.  Returns
    (alpha, beta, profile, f).
    """
    game.check_profile(a)
    game.check_profile(b)
    x, y = a
    dx, dy = b.x - x, b.y - y
    Ry, Rdy = game.R @ y, game.R @ dy
    Cx, Cdx = game.C.T @ x, game.C.T @ dx
    # Coefficients (k0, ka, kb, kab) of k0 + ka alpha + kb beta + kab alpha beta;
    # the row pieces share ka and kab, the column pieces kb and kab.
    row = (Ry - x @ Ry, np.full_like(Ry, -(dx @ Ry)), Rdy - x @ Rdy, np.full_like(Ry, -(dx @ Rdy)))
    col = (Cx - Cx @ y, Cdx - Cdx @ y, np.full_like(Cx, -(Cx @ dy)), np.full_like(Cx, -(Cdx @ dy)))
    # Per (row, column) pair: the pieces' difference d0 + da alpha + db beta
    # + dab alpha beta, and the line g0 + ga alpha + gb beta = 0 where their
    # gradients are parallel.
    pk, pa, pb, pab = (np.repeat(c, Cx.size) for c in row)
    qk, qa, qb, qab = (np.tile(c, Ry.size) for c in col)
    d0, da, db, dab = pk - qk, pa - qa, pb - qb, pab - qab
    g0, ga, gb = pa * qb - pb * qa, pa * qab - pab * qa, pab * qb - pb * qab
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alphas, betas = _cuts(col[0], col[1]), _cuts(row[0], row[2])
        al1, be1 = _pair_points(d0, da, db, dab, g0, ga, gb, betas)
        be2, al2 = _pair_points(d0, db, da, dab, g0, gb, ga, alphas)
    al = np.concatenate([np.repeat(alphas, betas.size), al1, al2])
    be = np.concatenate([np.tile(betas, alphas.size), be1, be2])
    inside = (al >= 0.0) & (al <= 1.0) & (be >= 0.0) & (be <= 1.0)
    al, be = al[inside], be[inside]
    k0, ka, kb, kab = (np.concatenate(c)[:, None] for c in zip(row, col))
    F = (k0 + al * (ka + kab * be) + kb * be).max(axis=0)
    tied = F <= F.min() + SEGMENT_TIE_TOL
    alpha = float(al[tied].min())
    beta = float(be[tied][al[tied] == alpha].min())
    prof = Profile(normalize_in_place(np.maximum((1.0 - alpha) * x + alpha * b.x, 0.0)),
                   normalize_in_place(np.maximum((1.0 - beta) * y + beta * b.y, 0.0)))
    return alpha, beta, prof, regrets(game, prof).f


def supports(game: Game, p: Profile, tol: float = SUPPORT_TOL) -> Supports:
    """Best-response sets S_R(y) and S_C(x).

    An index is a best response when its payoff is within ``tol`` (absolute)
    of the maximum.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    game.check_profile(p)
    x, y = p
    Ry = game.R @ y
    Cx = game.C.T @ x
    return Supports(
        row_best=(Ry >= Ry.max() - tol).nonzero()[0],
        col_best=(Cx >= Cx.max() - tol).nonzero()[0],
    )


def is_eps_ne(game: Game, p: Profile, eps: float) -> bool:
    """True when neither player can gain more than eps by deviating."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return regrets(game, p).f <= eps
