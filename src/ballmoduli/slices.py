"""Slices of unit balls: diameters, residual-set radius, separating balls.

Slice diameters are measured in the norm of the ball being sliced.  The
certified path relies on a convexity fact: the diameter of a closed slice
{g in B : v(g) >= a} is attained at extreme points, and every extreme
point of the slice lies on the unit sphere (points of the hyperplane
section interior to the ball are relative-interior, hence not extreme).

In the plane the pair search is linear in the slice's grid points.  The
grid points with v(g) >= a form one cyclic run of the grid's angular order,
because a convex curve meets a half-plane in one arc (rounding can split it
on a flat face at the threshold; ``_max_pair`` closes the gaps).  For a run point
p_i, k -> ||p_i - p_{i+k}|| does not decrease up to the antipode and does
not increase after it (``gridutil.sphere_grid`` states the order and the
monotonicity lemma of Martini, Swanepoel & Weiss, Expo. Math. 19 (2001),
Prop. 31), so the farthest partner of p_i in the run is an end of the run
or an antipodal index clipped into the run.  Those four candidates, each
with a one-index window against float ties, give the slice's largest grid
distance.  After clipping, the end windows are the positions
{0, 1, m-2, m-1}, and an antipodal candidate adds a pair only where it
lands before m-1, which on a run shorter than floor(n/2) it never does;
so the scan evaluates 4m norms plus those antipodal pairs, the same pair
set as clipping all 12 candidates per position, instead of m^2.  In 3-D
every pair is compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .bracket import GRID, MULTISTART, Bracket
from .config import Budget, resolve
from .denting import modulus_convexity, _resolution
from .errors import BallConstructionError, DomainError
from .gridutil import _covering_runs, lowdisc_sphere, sphere_grid
from .spaces import (Point, SpaceDescriptor, duality_preimage, polar_space,
                     _coords, _dual_norm_array, _norm_array, _unit_coords)

_PAIR_CHUNK = 1024  # _max_pair's difference blocks hold _PAIR_CHUNK * n points


@dataclass(frozen=True)
class Slice:
    """The slice {g in the unit ball : direction(g) > threshold}.

    For ``ball_side="dual"`` the ball is the dual ball and the direction is
    a primal point acting as a functional (a w*-slice).
    """

    direction: tuple[float, ...]
    threshold: float
    ball_side: Literal["primal", "dual"] = "primal"

    def __post_init__(self):
        if self.threshold <= 0.0:
            raise DomainError("slice threshold must be positive")

    @staticmethod
    def of(direction: Sequence[float], threshold: float,
           ball_side: Literal["primal", "dual"] = "primal") -> "Slice":
        return Slice(tuple(float(c) for c in direction), threshold, ball_side)


def _ball_space(space: SpaceDescriptor, ball_side: str) -> SpaceDescriptor:
    return space if ball_side == "primal" else polar_space(space)


def slice_diameter(space: SpaceDescriptor, slc: Slice,
                   budget: Optional[Budget] = None) -> Bracket:
    """Certified bracket for the diameter of a slice, in the ball's norm.

    A threshold at or above the direction's dual norm yields the empty
    slice, reported as the exact bracket [0, 0].
    """
    budget = resolve(budget)
    W = _ball_space(space, slc.ball_side)
    v = _unit_coords(W, slc.direction, "dual", "direction")
    alpha = slc.threshold
    if alpha >= float(_dual_norm_array(W, v)):
        return Bracket.exact(0.0)
    res = _resolution(budget, 1e-3, 0.05, W.dim)
    grid = sphere_grid(W, res)
    h = grid.covering
    vals = grid.points @ v
    # |v(g) - v(g0)| <= ||g - g0|| since v is a unit functional
    relax = vals >= alpha - h
    lower, upper = _max_pair(W, grid.points, np.stack([vals >= alpha, relax]))
    upper = (upper + 2.0 * h) if np.any(relax) else 0.0
    return Bracket(lower=lower, upper=upper, method=GRID,
                   resolution=res, lipschitz=1.0)


def _max_pair(space: SpaceDescriptor, grid_points: np.ndarray,
              masks: np.ndarray) -> list[float]:
    """Largest ||g - g'|| over the grid points selected by each row of the
    (r, n) boolean array ``masks``, one value per row (0 below two points).

    In the plane ``grid_points`` is a ``sphere_grid`` in angular order and
    each mask is one cyclic run of it (see the module docstring), or one run
    split by rounding on a flat face at the threshold; the scan covers the
    shortest cyclic run holding every masked point, found for every row by
    one ``_covering_runs`` call.  Elsewhere each unordered pair is compared
    once (||a - b|| = ||b - a|| in floating point), in blocks of
    ``_PAIR_CHUNK`` rows against the rows from theirs on.
    """
    counts = np.count_nonzero(masks, axis=1)
    if space.dim == 2:
        runs = zip(*_covering_runs(masks))
        return [_max_pair_arc(space, grid_points, int(start), int(m)) if k >= 2 else 0.0
                for k, (start, m) in zip(counts, runs)]
    out = []
    for k, mask in zip(counts, masks):
        pts, best = grid_points[mask], 0.0
        for i in range(0, k if k >= 2 else 0, _PAIR_CHUNK):
            diffs = pts[i:i + _PAIR_CHUNK, None, :] - pts[None, i:, :]
            best = max(best, float(np.max(_norm_array(space, diffs))))
        out.append(best)
    return out


def _max_pair_arc(space: SpaceDescriptor, grid_points: np.ndarray,
                  start: int, m: int) -> float:
    """``_max_pair`` on the cyclic run of m >= 2 grid points from ``start``."""
    n = len(grid_points)
    # in exact arithmetic the covering run is the masked run itself; where
    # rounding splits it (a flat face at the threshold) the points between
    # its pieces lie on the segment joining masked points, so by convexity
    # of the norm they change no pair maximum
    run = grid_points[(start + np.arange(m)) % n]
    # a position's partners: the end windows {0, 1, m-2, m-1}, and the
    # positions one index either side of floor(n/2) and ceil(n/2) ahead of
    # it (mod n) that land before m-1; any other antipodal partner clips
    # onto the end m-1, and none lands before it on a run shorter than
    # floor(n/2)
    ends = run[[0, 1, m - 2, m - 1]]
    anti = (np.arange(m)[:, None] + np.arange(n // 2 - 1, (n + 1) // 2 + 2)) % n
    i, k = np.nonzero(anti < m - 1)
    diffs = (run[:, None, :] - ends).reshape(-1, 2)
    if len(i):
        diffs = np.concatenate([diffs, run[i] - run[anti[i, k]]])
    return float(np.max(_norm_array(space, diffs)))


# -- residual-set radius ----------------------------------------------------


def f_eps_radius(space: SpaceDescriptor, eps: float,
                 budget: Optional[Budget] = None) -> Bracket:
    """Bracket for sup{||f|| : f in the dual ball lies in no w*-slice of
    diameter < eps}.

    Upper bound (rigorous): any f with ||f|| > 1 - 2 delta*(eps/2) lies in
    the small w*-slice determined by a norming direction of f.  Lower
    bound (by definition a search floor): the largest norm of a sample
    point for which no witness slice was found within the budget.  The
    lower bound is sampled, not certified, so the bracket is tagged
    ``multistart``, with the resolution of the witness slices' grids (the
    upper end's delta* may be exact, on a polygon).
    Convention: eps >= 2 returns [0, 0] — the whole-ball slice witnesses
    every point.
    """
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if eps >= 2.0:
        return Bracket.exact(0.0)
    budget = resolve(budget)
    W = polar_space(space)
    slice_budget = budget.with_resolution(_resolution(budget, 5e-3, 0.08, W.dim))
    delta = modulus_convexity(W, eps / 2.0, budget)
    tau = 1.0 - 2.0 * max(delta.lower, 0.0)
    upper = min(1.0, tau)

    samples = [lowdisc_sphere(W, 24)]
    if W.kind == "polyhedral":
        samples.append(_facet_midpoints(W))
    shell = np.vstack(samples)
    lower = 0.0
    for r in (1.0, 0.98, 0.95, 0.9, 0.8, 0.6):
        if r <= lower or r > upper + 1e-12:
            continue
        for fa in shell:
            fr = r * fa
            if float(_norm_array(W, fr)) <= lower:
                continue
            if not _has_witness_slice(space, W, fr, eps, slice_budget):
                lower = max(lower, float(_norm_array(W, fr)))
    lower = min(lower, upper)
    return Bracket(lower=lower, upper=upper, method=MULTISTART,
                   resolution=slice_budget.resolution, lipschitz=1.0)


def _facet_midpoints(W: SpaceDescriptor) -> np.ndarray:
    V = np.asarray(W.vertices, dtype=float)
    mids = []
    for a in W.facets:
        on = V[np.isclose(V @ a, 1.0, atol=1e-9)]
        if len(on):
            mids.append(np.mean(on, axis=0))
    return np.array(mids) if mids else np.zeros((0, W.dim))


def _has_witness_slice(space: SpaceDescriptor, W: SpaceDescriptor,
                       fr: np.ndarray, eps: float, slice_budget: Budget) -> bool:
    r = float(_norm_array(W, fr))
    if r < 1e-12:
        return True  # the origin lies in every slice; small slices exist
    dirs = [duality_preimage(space, fr / r).array]
    dirs.extend(lowdisc_sphere(space, 12))
    for xa in dirs:
        v = float(fr @ xa)
        if v <= 0.0:
            continue
        for frac in (0.5, 0.25, 0.1, 0.02):
            alpha = v - frac * min(v, 1.0 - v + 1e-3)
            if not (0.0 < alpha < v):
                continue
            diam = slice_diameter(space, Slice.of(xa, alpha, "dual"), slice_budget)
            if diam.upper < eps:
                return True
    return False


# -- separating-ball construction ------------------------------------------


@dataclass(frozen=True)
class SeparatingBall:
    """A ball B[center, radius] separating a convex set from a functional's
    sublevel region, together with the constants used to build it."""

    center: Point
    radius: float
    lam: float
    k: int
    gamma: float
    eta: float
    d: float
    M1: float
    K: float

    def __post_init__(self):
        if self.radius > self.K + 1e-9:
            raise DomainError("ball radius exceeds the uniform cap K")
        if self.eta <= 0.0:
            raise DomainError("eta must be positive")
        lam_expected = self.M1 / (2.0 * self.k * (1.0 - self.gamma))
        if abs(self.lam - lam_expected) > 1e-6 * max(1.0, lam_expected):
            raise DomainError("lam is inconsistent with (M1, k, gamma)")
        eta_expected = 1.0 - 2.0 * self.k * (1.0 - self.gamma)
        if abs(self.eta - eta_expected) > 1e-9:
            raise DomainError("eta is inconsistent with (k, gamma)")


def construct_separating_ball(space: SpaceDescriptor, C: Sequence[Sequence[float]],
                              f, eps: float, M: float,
                              budget: Optional[Budget] = None) -> SeparatingBall:
    """Build a ball containing the polytope C while staying in {f >= eps/2}.

    Recipe: with M1 = M + 3 eps/4 and the smallest k with 1/2k < eps/4M1,
    search for gamma close to 1 such that the w*-slice in direction of a
    norming point x2 of f at threshold eta = 1 - 2k(1-gamma) has certified
    diameter < eps/4M1; then the ball B[lam x2, lam - d - 3 eps/4] with
    lam = M1/(1-eta) and d = d(0, C + (3 eps/4)B)(1-eta)/(1+eta) works.
    The recipe needs the distance only from below (a larger d shrinks the
    ball, which can then miss C): d(0, C) is taken from ``_distance_to_hull``
    on the dual grid of the slice search, a certified lower bound within
    h max_i ||v_i|| of it, and d(0, C + (3 eps/4)B) = max(0, d(0, C) - 3 eps/4).
    All three postconditions (containment of C, inf f over the ball
    >= eps/2, radius <= K = lam) are verified numerically to 1e-6; any
    violation raises BallConstructionError with the failed condition.
    """
    budget = resolve(budget)
    fa = _unit_coords(space, f, "dual", "f")
    V = _coords(C, space, "primal")
    if V.ndim != 2 or len(V) == 0:
        raise DomainError("C must be a nonempty vertex list")
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    norms = _norm_array(space, V)
    if float(np.max(norms)) > M + 1e-9:
        raise DomainError(f"C is not contained in the ball of radius M={M}")
    inf_fC = float(np.min(V @ fa))
    if inf_fC < eps - 1e-9:
        raise DomainError(f"inf f over C is {inf_fC}, below eps={eps}")

    M1 = M + 0.75 * eps
    k = int(math.floor(2.0 * M1 / eps)) + 1
    target = eps / (4.0 * M1)
    x2 = duality_preimage(space, fa).array

    eta = None
    gamma = None
    slice_budget = budget.with_resolution(_resolution(budget, 5e-4, 0.02, space.dim))
    for j in range(1, 16):
        gamma_j = 1.0 - 2.0 ** (-j) / (2.0 * k)
        eta_j = 1.0 - 2.0 * k * (1.0 - gamma_j)
        if eta_j <= 0.0 or float(fa @ x2) <= gamma_j:
            continue
        diam = slice_diameter(space, Slice.of(x2, eta_j, "dual"), slice_budget)
        if diam.upper < target:
            gamma, eta = gamma_j, eta_j
            break
    if eta is None:
        raise BallConstructionError(
            "no-small-slice-witness",
            f"no w*-slice in the norming direction of f reaches certified "
            f"diameter < {target:.6g}; the dual ball is not uniformly "
            f"w*-denting at this scale")

    d0C = _distance_to_hull(space, V, slice_budget.resolution)
    d0D = max(d0C - 0.75 * eps, 0.0)
    d = d0D * (1.0 - eta) / (1.0 + eta)
    lam = M1 / (1.0 - eta)
    radius = lam - d - 0.75 * eps
    center = lam * x2
    K = lam

    tol = 1e-6
    margins = radius + tol - _norm_array(space, V - center)
    if float(np.min(margins)) < 0.0:
        raise BallConstructionError(
            "containment", f"a vertex of C escapes the ball by {-float(np.min(margins)):.3g}")
    inf_f_ball = float(fa @ center) - radius
    if inf_f_ball < 0.5 * eps - tol:
        raise BallConstructionError(
            "separation", f"inf f over the ball is {inf_f_ball:.6g} < eps/2")
    if radius > K + tol:
        raise BallConstructionError("radius", f"radius {radius} exceeds K={K}")
    return SeparatingBall(center=Point.of(space, center), radius=radius,
                          lam=lam, k=k, gamma=gamma, eta=eta, d=d, M1=M1, K=K)


def _distance_to_hull(space: SpaceDescriptor, V: np.ndarray, res: float) -> float:
    """Lower bound on the distance from the origin to the convex hull of the
    rows of V, within h max_i ||v_i|| of it (h the covering radius of the
    dual grid at ``res``).

    By the minimum-norm duality theorem (Luenberger, Optimization by Vector
    Space Methods, 1969, Ch. 5), d(0, conv V) = max(0, sup over unit
    functionals g of min_i g(v_i)).  Every unit g of the dual sphere grid
    gives a lower bound; the maximizer has a grid neighbour g0 with
    ||g - g0||* <= h, and |g(v_i) - g0(v_i)| <= h ||v_i||.
    """
    G = sphere_grid(polar_space(space), res).points
    return max(0.0, float(np.max(np.min(G @ V.T, axis=1))))
