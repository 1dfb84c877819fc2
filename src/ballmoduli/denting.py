"""Denting moduli s, d and their dual (w*) counterparts, plus the modulus
of convexity.

All searches are certified grid searches in dimensions 2 and 3: grids carry a
computed covering radius, objectives and constraints are norm/linear-form
compositions whose Lipschitz constants are recorded, and every returned
Bracket is rigorous under those constants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import exactpoly
from .bracket import GRID, Bracket
from .config import Budget, resolve
from .errors import BudgetError, DomainError
from .gridutil import lowdisc_sphere, sharp_equiv_constants, sphere_grid
from .spaces import (SpaceDescriptor, polar_space, _exact_polygon, _kernel_frames,
                     _norm_array, _support_array, _unit_coords)


def _resolution(budget: Budget, default2: float, default3: float, dim: int) -> float:
    if budget.resolution is not None:
        return budget.resolution
    return default2 if dim <= 2 else default3


# -- modulus of convexity ---------------------------------------------------


def modulus_convexity(space: SpaceDescriptor, t: float,
                      budget: Optional[Budget] = None) -> Bracket:
    """Certified bracket for inf{1 - ||x+y||/2 : x,y unit, ||x-y|| >= t}.

    On a 2-D polygon the value is exactly 0 for t <= D, the largest length
    of an edge in the polygon's own norm (``_flat_threshold``): the ends x
    and y of that edge are unit vectors with ||x - y|| = D >= t, and their
    midpoint lies on the same edge, so 1 - ||x + y||/2 = 0, while
    delta >= 0 always.  Every other case takes the grid search
    (``_convexity_grid``).
    """
    if not (0.0 < t <= 2.0):
        raise DomainError(f"modulus of convexity needs 0 < t <= 2, got {t}")
    D = _flat_threshold(space)
    if D is not None and Fraction(t) <= D:
        return Bracket.exact(0.0)
    return _convexity_grid(space, t, resolve(budget))


@lru_cache(maxsize=256)
def _flat_threshold(space: SpaceDescriptor) -> Optional[Fraction]:
    """D for a 2-D polygon, the largest own-norm length of an edge w - v,
    on the descriptor's own polygon (``spaces._exact_polygon``); None where
    that is None.  Memoized on the descriptor's value, as the polygon is."""
    poly = _exact_polygon(space)
    return None if poly is None else exactpoly.edge_diameter(poly)


def _convexity_grid(space: SpaceDescriptor, t: float, budget: Budget) -> Bracket:
    """modulus_convexity's grid search, 0 < t <= 2.

    The upper end is the least objective over grid pairs at distance >= t,
    the lower end the least over grid pairs at distance >= t - 2h minus h
    (h the grid's covering radius).  In the plane both minima come from
    O(n log n) norms through the grid's angular order: for each grid point
    p_i the offsets k with ||p_i - p_{i+k}|| >= tau form one interval
    around n/2 (``gridutil.sphere_grid`` states the order and the
    monotonicity lemma), and on it 1 - ||p_i + p_{i+k}||/2, a distance from
    -p_i, is least at the interval's two ends (the lemma at -p_i).  The
    ends are found for all i at once by bisection (``_arc_min``), and the
    objective is taken at the first offsets from each end whose float
    distance passes tau.  Where no grid pair passes t (at t = 2 on a grid
    without antipodal pairs), the upper end is 1, the objective at (x, -x).
    ``BudgetError`` is raised when the norm evaluations this path makes
    would pass ``max_evals``; in 3-D, when half the n^2 pair grid would.
    """
    res = _resolution(budget, 1.5e-3, 0.12, space.dim)
    grid = sphere_grid(space, res)
    pts, h = grid.points, grid.covering
    # the objective 1 - ||x+y||/2 and the constraint ||x-y|| are each
    # 1-Lipschitz in (x, y) jointly for the max-of-norms metric; moving both
    # endpoints to grid neighbours changes value by <= h and distance by <= 2h
    taus = (t, t - 2.0 * h)
    if space.dim == 2:
        norms = _capped_norms(space, budget.max_evals)
        best_feas, best_relax = (_arc_min(norms, pts, tau) for tau in taus)
    else:
        best_feas, best_relax = _all_pairs_min(space, pts, taus, budget.max_evals)
    # the pair (x, -x) is feasible for every t <= 2 with objective 1, so
    # delta <= 1 even where no grid pair passes (an odd 2-D grid at t = 2);
    # delta >= 0 a priori, and a negative value is rounding in ||x+y|| <= 2
    return Bracket(lower=max(0.0, best_relax - h), upper=min(max(best_feas, 0.0), 1.0),
                   method=GRID, resolution=res, lipschitz=1.0)


# The arc ends are bisected on ||x - y|| >= tau - _ARC_TOL: far above the
# rounding of a norm near 2, so a flat stretch of ||x - y|| at tau (a polygon
# at tau = 2) cannot mislead the bisection, yet far below a grid step.
_ARC_TOL = 1e-12
_ARC_WINDOW = np.arange(4)  # offsets taken at a time, in the scan and for the objective


def _capped_norms(space: SpaceDescriptor, max_evals: int):
    """``_norm_array`` on ``space`` that raises ``BudgetError`` before the
    total number of evaluated points would pass ``max_evals``."""
    used = 0

    def norms(a: np.ndarray) -> np.ndarray:
        nonlocal used
        used += a.size // a.shape[-1]
        if used > max_evals:
            raise BudgetError(f"the convexity scan needs more than {max_evals} "
                              f"norm evaluations")
        return _norm_array(space, a)
    return norms


def _arc_min(norms, pts: np.ndarray, tau: float) -> float:
    """min of 1 - ||p_i + p_j||/2 over pairs of a 2-D sphere grid with
    ||p_i - p_j|| >= tau (inf if there is none).

    Each point p_i has two sides, the offsets k in [0, floor(n/2)] and in
    [ceil(n/2), n]; each side is searched from its outer end (k = 0, resp.
    n) towards the antipodal offset.  Bisection finds the first offset
    with ||p_i - p_{i+k}|| >= tau - _ARC_TOL; no offset before it passes
    tau.  From there the offsets are scanned in windows for the first one
    that passes tau in floating point, and the objective is taken there
    and at the next three offsets that pass.

    In exact arithmetic one side would do, since every pair lies on the
    first side of one of its points; but where pairs tie at distance tau (a
    polygon at tau = 2), rounding can let a pair pass in one orientation
    only, so both are searched.
    """
    n = len(pts)
    rows = np.tile(np.arange(n), 2)[:, None]
    outer = np.repeat([-1, n + 1], n)[:, None]  # before the first offset
    inner = np.repeat([n // 2, (n + 1) // 2], n)[:, None]  # the antipodal end
    step = np.sign(inner - outer)

    def dist(r, k):
        return norms(pts[r] - pts[(r + k) % n])

    lo, hi = outer, inner
    for _ in range((n // 2).bit_length()):  # halves the gap n//2 + 1 to 1
        active = np.abs(hi - lo) > 1
        mid = np.where(active, (lo + hi) // 2, hi)
        ok = dist(rows, mid) >= tau - _ARC_TOL
        hi, lo = np.where(active & ok, mid, hi), np.where(active & ~ok, mid, lo)
    # scan from hi towards the antipodal end for the first offset passing tau
    first = np.full(2 * n, -1)
    pending = np.arange(2 * n)
    k = hi[:, 0].copy()
    while pending.size:
        block = k[pending, None] + step[pending] * _ARC_WINDOW
        inside = (inner[pending] - block) * step[pending] >= 0
        feas = inside & (dist(rows[pending], block) >= tau)
        hit = feas.any(axis=1)
        first[pending[hit]] = block[hit, np.argmax(feas[hit], axis=1)]
        k[pending] = block[:, -1] + step[pending, 0]
        pending = pending[~hit & inside[:, -1]]
    found = first >= 0
    r = rows[found]
    j = (r + first[found, None] + step[found] * _ARC_WINDOW) % n
    keep = norms(pts[r] - pts[j]) >= tau
    vals = 1.0 - 0.5 * norms(pts[r] + pts[j])
    return float(np.min(vals[keep])) if np.any(keep) else math.inf


def _all_pairs_min(space: SpaceDescriptor, pts: np.ndarray, taus, max_evals: int):
    """min of 1 - ||x + y||/2 over grid pairs with ||x - y|| >= tau, for
    each tau, comparing every pair in row blocks."""
    n = len(pts)
    if n * n > 2 * max_evals:
        raise BudgetError(f"pair grid of {n}^2 evaluations exceeds the budget")
    best = [math.inf] * len(taus)
    chunk = max(1, int(4_000_000 // max(n, 1)))
    for i in range(0, n, chunk):
        block = pts[i:i + chunk]
        vals = 1.0 - 0.5 * _norm_array(space, block[:, None, :] + pts[None, i:, :])
        dist = _norm_array(space, block[:, None, :] - pts[None, i:, :])
        for r, tau in enumerate(taus):
            ok = dist >= tau
            if np.any(ok):
                best[r] = min(best[r], float(np.min(vals[ok])))
    return best


# -- kernel scans for the s-modulus ----------------------------------------


# the exactly-feasible ring of a kernel in basis coefficients: the two
# points +-1 of the kernel line in the plane, 720 angles of the circle in 3-D
_LINE_RING = np.array([[1.0], [-1.0]])
_ANGLES = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
_CIRCLE_RING = np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=-1)


def _kernel_axis(space: SpaceDescriptor, t: float, res: float):
    """(c, slack): the coefficient axis of ``_kernel_mins``' kernel grid and
    the grid's slack C step sqrt(dim - 1)/2 (``_kernel_mins`` states both)."""
    eq = sharp_equiv_constants(space)
    R = (2.0 + t / 4.0) / eq.c * 1.05
    n_c = int(math.ceil(2.0 * R / max(res / eq.C, 1e-9))) + 1
    c = np.linspace(-R, R, n_c)
    return c, eq.C * (c[1] - c[0]) * math.sqrt(space.dim - 1) / 2.0


def _kernel_bases(F: np.ndarray):
    """(bases, ring) for the rows f of an (n, dim) array F: a
    Euclid-orthonormal basis of each ker f, as (n, dim - 1, dim) (f rotated
    by 90 degrees in the plane, ``kernel_frame`` in 3-D), and the
    exactly-feasible ring's directions in basis coefficients."""
    if F.shape[1] == 2:
        V = np.stack([-F[:, 1], F[:, 0]], axis=-1)
        return (V / np.linalg.norm(V, axis=-1, keepdims=True))[:, None, :], _LINE_RING
    return _kernel_frames(F), _CIRCLE_RING


def _kernel_mins(space: SpaceDescriptor, xs: np.ndarray, F: np.ndarray,
                 t: float, res: float, max_evals: int,
                 r_tight: Optional[float] = None, ring_only: bool = False):
    """Certified minima of ||x+y|| - 1 over y in ker f with ||y|| >= r, one per
    row of xs and F (both (n, dim)), returned as (lower, upper) arrays.

    The lower minimum is certified for r = t/4.  Each kernel has a
    Euclid-orthonormal basis of k = dim - 1 rows (f rotated by 90 degrees in
    the plane, ``kernel_frame`` in 3-D), searched on the coefficient grid
    [-R, R]^k of step <= res/C (C, c the sharp equivalence constants,
    R = 1.05 (2 + t/4) / c).  The search is truncated at ||y|| <= 2 + t/4:
    the value at the exactly-feasible shell ||y|| = t/4 is at most t/4,
    while ||x+y|| - 1 >= ||y|| - 2 exceeds t/4 beyond that radius.  Every
    truncated-region y lies within slack = C step sqrt(k)/2 of a grid point,
    and both ||x+y|| and ||y|| are 1-Lipschitz in y, so the minimum over grid
    points with t/4 - slack <= ||y|| <= 2 + t/4 + slack and over the ring of
    exactly-feasible points ||y|| = t/4 (at +-basis in the plane, at 720
    angles of the basis circle in 3-D), minus slack, is a lower bound.

    The upper minimum, computed only when ``r_tight`` is given (else None),
    is the least value at feasible points of the tightened problem
    ||y|| >= r_tight truncated at 2 + t/4: grid points with
    r_tight <= ||y|| <= 2 + t/4 and the ring at radius min(r_tight, 2 + t/4).

    With ``ring_only`` the grid is empty (the grid minima start at inf), so
    no grid point is evaluated, and in 3-D only every 8th ring angle is:
    each minimum is then taken over a subset of the points the full one
    ranges over (same slack), so it is at least the full minimum, which is
    what ``_d_point_bounds`` prunes with.

    Rows are scanned in chunks of at most min(256 n_c, max_evals) grid
    points (256 functionals in the plane), or ring points with
    ``ring_only``, to bound peak memory; a ``BudgetError`` is raised only
    when one row's full grid exceeds max_evals, also with ``ring_only``.
    Each chunk is scanned in its own call, so its (chunk, grid, dim)
    arrays are freed before the next chunk is built; holding them across
    the loop would put two full chunks in memory at once.
    """
    r0, hi = t / 4.0, 2.0 + t / 4.0
    c, slack = _kernel_axis(space, t, res)
    n_c = len(c)
    bases, ring = _kernel_bases(F)
    if space.dim == 2:
        grid = c[:, None]
    else:
        grid = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2)
        ring = ring[::8 if ring_only else 1]
    n_grid, grid = len(grid), grid[:0] if ring_only else grid

    def scan(B: np.ndarray, x: np.ndarray):
        Y = grid @ B
        w = _norm_array(space, Y)
        vals = _norm_array(space, x + Y) - 1.0
        U = ring @ B
        w_U = _norm_array(space, U)

        def ring_min(radius: float) -> np.ndarray:
            Yb = (radius / w_U)[..., None] * U
            return np.min(_norm_array(space, x + Yb), axis=1) - 1.0

        relax = np.where((w >= r0 - slack) & (w <= hi + slack), vals, np.inf)
        lo = np.minimum(np.min(relax, axis=1, initial=np.inf), ring_min(r0)) - slack
        if r_tight is None:
            return lo, None
        tight = np.where((w >= r_tight) & (w <= hi), vals, np.inf)
        return lo, np.minimum(np.min(tight, axis=1, initial=np.inf),
                              ring_min(min(r_tight, hi)))

    chunk = max(1, min(256 * n_c, max_evals) // (len(ring) if ring_only else n_grid))
    lower = np.empty(len(F))
    upper = np.empty(len(F)) if r_tight is not None else None
    if len(F) and n_grid > max_evals:
        raise BudgetError(f"kernel scan of {n_grid} evaluations exceeds the budget")
    for i in range(0, len(F), chunk):
        lo, up = scan(bases[i:i + chunk], xs[i:i + chunk, None, :])
        lower[i:i + chunk] = lo
        if upper is not None:
            upper[i:i + chunk] = up
    return lower, upper


def s_point(space: SpaceDescriptor, x, f, t: float,
            budget: Optional[Budget] = None) -> Bracket:
    """Certified bracket for s(x, f, t) = inf{||x+y||-1 : y in ker f, ||y|| >= t/4}
    (see ``_kernel_mins`` for the certificate)."""
    if not (0.0 < t < 2.0):
        raise DomainError(f"s modulus needs 0 < t < 2, got {t}")
    budget = resolve(budget)
    xa = _unit_coords(space, x, "primal", "x")
    fa = _unit_coords(space, f, "dual", "f")
    res = _resolution(budget, 1e-3, 0.03, space.dim)
    lo, up = _kernel_mins(space, xa[None, :], fa[None, :], t, res,
                          budget.max_evals, r_tight=t / 4.0)
    return Bracket(lower=float(lo[0]), upper=float(up[0]), method=GRID,
                   resolution=res, lipschitz=sharp_equiv_constants(space).C)


# -- sup over the dual sphere: d(x, t) --------------------------------------


def d_point(space: SpaceDescriptor, x, t: float,
            budget: Optional[Budget] = None) -> Bracket:
    """Certified bracket for d(x, t) = sup over unit f of s(x, f, t)
    (see ``_d_point_bounds`` for the certificate)."""
    if not (0.0 < t < 2.0):
        raise DomainError(f"d modulus needs 0 < t < 2, got {t}")
    budget = resolve(budget)
    xa = _unit_coords(space, x, "primal", "x")
    grid, res_f, res_i = _d_point_grid(space, budget)
    lower, upper = _d_point_bounds(space, xa[None, :], grid.points, t, res_i,
                                   budget.max_evals, covering=grid.covering)
    return Bracket(lower=float(lower[0]), upper=float(upper[0]), method=GRID,
                   resolution=res_f, lipschitz=2.0 + t / 4.0)


def _d_point_grid(space: SpaceDescriptor, budget: Budget):
    """(dual grid, its resolution, kernel resolution) of ``d_point``'s scan,
    which ``d_star_zero``'s lower end runs without the upper pass."""
    res_f = _resolution(budget, 4e-3, 0.25, space.dim)
    res_i = _resolution(budget, 1.5e-3, 0.06, space.dim)
    return sphere_grid(polar_space(space), res_f), res_f, res_i


def _d_point_bounds(space: SpaceDescriptor, X: np.ndarray, F: np.ndarray,
                    t: float, res_i: float, max_evals: int,
                    covering: Optional[float] = None):
    """Bounds on d(x, t) for each row x of X from the unit functionals in the
    rows of F plus the norming functional of x, as (lower, upper) arrays.

    Lower bound: d(x, t) >= s(x, f, t) for every unit f, and d(x, t) >= 0
    since s(x, f, t) >= 0 at a norming f.  The upper bound, computed only
    when F is a dual-sphere grid of covering radius ``covering`` (else
    None): for every unit f there is a grid neighbour f0 with
    ||f - f0||* <= h; projecting a minimizer y0 of the tightened problem
    (shell radius t/4 + h R, truncation 2 + t/4) into ker f along a norming
    vector of f moves it by at most h R with R = 2 + t/4 and keeps it
    feasible, so s(x, f, t) <= tight-min(f0) + h R.

    Both ends are maxima over rows (x, f) of ``_kernel_mins`` minima, and
    most rows cannot raise the maximum, so the kernel grid is scanned only
    where one can.  A first pass takes every row's minima on the
    exactly-feasible ring alone (``ring_only``): a minimum over a subset,
    so at least the row's full minimum.  For each x the full scan then
    runs on the incumbents, the norming row and the rows with the largest
    first-pass lower and upper minima, and after them on the rows whose
    first-pass lower or upper minimum exceeds the incumbents' best full
    one.  Any other row has full minima at most its first-pass ones, hence
    at most the incumbents' best, so the maxima over the rows scanned in
    full are the maxima over all rows, bit for bit.  With one row per x
    (F empty) every row is an incumbent and the first pass is skipped.
    """
    n, m = len(X), len(F) + 1
    norming = _support_array(space, X / _norm_array(space, X)[:, None])
    rows = np.concatenate([np.broadcast_to(F, (n,) + F.shape),
                           norming[:, None, :]], axis=1).reshape(n * m, X.shape[1])
    xs = np.repeat(X, m, axis=0)
    R_t = 2.0 + t / 4.0
    r_tight = None if covering is None else t / 4.0 + covering * R_t

    def scan(idx, ring_only: bool = False) -> np.ndarray:
        """(lower, upper) minima of the rows idx, one row of the result
        each; the upper row repeats the lower one when there is no upper."""
        lo, up = _kernel_mins(space, xs[idx], rows[idx], t, res_i, max_evals,
                              r_tight=r_tight, ring_only=ring_only)
        return np.stack([lo, lo if up is None else up])

    if m == 1:
        ends = scan(slice(None))
    else:
        rough = scan(slice(None), ring_only=True).reshape(2, n, m)
        base = np.arange(n)[:, None] * m
        # the norming rows and the first-pass leaders, as a sorted index set
        lead = np.zeros(n * m, dtype=bool)
        lead[base + m - 1] = True
        lead[base + rough.argmax(axis=2).T] = True
        inc = np.flatnonzero(lead)
        ends = np.full((2, n * m), -np.inf)
        ends[:, inc] = scan(inc)
        best = ends.reshape(2, n, m).max(axis=2, keepdims=True)
        rest = np.any(rough > best, axis=0).ravel()
        rest[inc] = False
        ends[:, rest] = scan(rest)
    lower, upper = ends.reshape(2, n, m).max(axis=2)
    lower = np.maximum(lower, 0.0)
    if r_tight is None:
        return lower, None
    return lower, upper + covering * R_t


def _d_lower_cheap(space: SpaceDescriptor, X: np.ndarray, t: float,
                   res_i: float, max_evals: int, n_extra: int = 32) -> np.ndarray:
    """Rigorous lower bounds on d(x, t), one per row x of X, from the norming
    functional plus a small sample of dual directions."""
    extra = lowdisc_sphere(polar_space(space), n_extra)
    return _d_point_bounds(space, X, extra, t, res_i, max_evals)[0]


# rounding margin of the ring floors, as ``beta._MARGIN`` of the beta scans
_FLOOR_MARGIN = 1e-12
_FIRST_CHUNK = 16  # least number of base points per full scan


def _ring_floors(space: SpaceDescriptor, X: np.ndarray, F: np.ndarray,
                 t: float, res: float) -> np.ndarray:
    """A lower bound LB(x) on ``_d_lower_cheap(space, x, t, res, max_evals,
    n_extra=0)`` for each row x of X, whose norming functional is the
    matching row f of F, from the ring of ker f at radius
    r' = max(t/4 - slack, 0) alone (slack the kernel grid's, ``_kernel_axis``).

    That value is max(0, m(x) - 1 - slack), with m(x) the least ||x + y||
    over the kernel grid points with ||y|| >= t/4 - slack (truncated above)
    and the exactly-feasible ring ||y|| = t/4 (``_kernel_mins``): points y
    of ker f with ||y|| >= r'.  For y in ker f, ||x + y|| >= f(x)/||f||*, so
    g(y) = ||x + y|| has g(0) <= g(y) + eta with
    eta = max(0, ||x|| - f(x)/||f||*).  g is convex, so for ||y|| >= r' the
    point z = lam y, lam = r'/||y|| in [0, 1], of the ring ||z|| = r' has
    g(z) <= lam g(y) + (1 - lam) g(0) <= g(y) + (1 - lam) eta, that is
    g(y) >= g(z) - eta.  In the plane the ring is the two points
    +-r' v/||v|| of the kernel line, so m(x) >= min over them of g - eta.
    In 3-D the ring is a circle, sampled as in ``_kernel_mins`` at
    z_k = r' u_k/||u_k|| for n = len(_ANGLES) equally spaced unit vectors
    u_k of the basis circle.  By the monotonicity lemma for normed planes
    (``gridutil.sphere_grid``) a ring point between two consecutive
    samples is within their distance of the first, and
    ||a/||a|| - b/||b|||| <= 2 ||a - b||/||a|| with ||a - b|| <= C |a - b|_2,
    so every ring point is within gap = 4 r' C sin(pi/n) / min_k ||u_k||
    of a sample, and m(x) >= min over the samples of g - eta - gap.  Hence

        LB(x) = max(0, min over the ring samples of ||x + z||
                       - 1 - eta - slack - gap - margin),

    with gap = 0 in the plane, and a margin of 1e-12 for the rounding of
    the points (each kernel point lies within an ulp of ker f) and norms.

    Where r' <= slack, min over the ring of ||x + z|| <= ||x|| + r' puts
    every LB(x) within the rounding of ||x|| - 1 of 0, so the ring is not
    read and every floor is 0, a floor of every (clamped) value.
    """
    _, slack = _kernel_axis(space, t, res)
    r = max(t / 4.0 - slack, 0.0)
    if r <= slack:
        return np.zeros(len(X))
    eta = np.maximum(_norm_array(space, X) - np.sum(F * X, axis=1)
                     / _norm_array(polar_space(space), F), 0.0)
    ring_min = np.empty(len(X))
    C = sharp_equiv_constants(space).C
    for i in range(0, len(X), 256):  # at most 256 x 720 ring points at a time
        bases, ring = _kernel_bases(F[i:i + 256])
        U = ring @ bases
        w = _norm_array(space, U)
        Z = (r / w)[..., None] * U
        ring_min[i:i + 256] = np.min(_norm_array(space, X[i:i + 256, None, :] + Z), axis=1)
        if space.dim > 2:  # gap, from the chord 2 sin(pi/n) of the basis circle
            ring_min[i:i + 256] -= (4.0 * r * C * math.sin(math.pi / len(_ANGLES))
                                    / np.min(w, axis=1))
    return np.maximum(ring_min - 1.0 - eta - slack - _FLOOR_MARGIN, 0.0)


def _least_d_lower(space: SpaceDescriptor, X: np.ndarray, t: float,
                   res_i: float, max_evals: int) -> tuple[float, int]:
    """(least value, first index of it) of ``_d_lower_cheap(space, X, t,
    res_i, max_evals, n_extra=0)``, scanning in full only the rows that
    can hold it.

    Each row's value is at least its ring floor LB(x) (``_ring_floors``).
    The rows are scanned in full in increasing (LB, index) order, each
    chunk 16 rows or a quarter of the rows scanned so far, whichever is
    more, so that past 64 rows at most a quarter more rows than needed
    are read.  The scan stops at the first row whose (LB, index) exceeds
    the (least value, index) found so far: every row after it has
    (value, index) >= (LB, index) above that pair too, so the least value
    and its first index are those of the full scan.  Each row's value is
    its ``_kernel_mins`` lower minimum clamped at 0, as in
    ``_d_point_bounds``, whatever rows share its call.
    """
    F = _support_array(space, X / _norm_array(space, X)[:, None])
    floors = _ring_floors(space, X, F, t, res_i)
    order = np.argsort(floors, kind="stable")
    best, i_best = math.inf, -1
    done, size = 0, _FIRST_CHUNK
    while done < len(X) and (floors[order[done]], order[done]) < (best, i_best):
        idx = order[done:done + size]
        lo, _ = _kernel_mins(space, X[idx], F[idx], t, res_i, max_evals)
        vals = np.maximum(lo, 0.0)
        k = np.lexsort((idx, vals))[0]
        best, i_best = min((best, i_best), (float(vals[k]), int(idx[k])))
        done += size
        size = max(_FIRST_CHUNK, done // 4)
    return best, i_best


def d_global(space: SpaceDescriptor, t: float,
             budget: Optional[Budget] = None) -> Bracket:
    """Certified bracket for d(t) = inf over unit x of d(x, t).

    d(., t) is 1-Lipschitz on the sphere (the defining infimum shifts by at
    most ||x - x'||), so a covering grid certifies the lower bound; any
    single x certifies the upper bound through its full d_point bracket,
    taken at the grid point of least lower bound (``_least_d_lower``).
    """
    if not (0.0 < t < 2.0):
        raise DomainError(f"d modulus needs 0 < t < 2, got {t}")
    budget = resolve(budget)
    res_x = _resolution(budget, 2e-3, 0.12, space.dim)
    res_i = _resolution(budget, 1.5e-3, 0.05, space.dim)
    grid = sphere_grid(space, res_x)
    low, i_best = _least_d_lower(space, grid.points, t, res_i, budget.max_evals)
    lower = max(0.0, low - grid.covering)
    upper = d_point(space, grid.points[i_best], t, budget).upper
    return Bracket(lower=lower, upper=upper, method=GRID,
                   resolution=res_x, lipschitz=1.0)


# -- dual family ------------------------------------------------------------


def s_star(space: SpaceDescriptor, f, x, t: float,
           budget: Optional[Budget] = None) -> Bracket:
    """s*(f, x, t): the s-modulus of the dual ball, computed in the polar
    space with x acting as a functional on X* (reflexivity)."""
    return s_point(polar_space(space), _unit_coords(space, f, "dual", "f"),
                   _unit_coords(space, x, "primal", "x"), t, budget)


def d_star(space: SpaceDescriptor, f, t: float,
           budget: Optional[Budget] = None) -> Bracket:
    """d*(f, t) = sup over unit x of s*(f, x, t)."""
    return d_point(polar_space(space), _unit_coords(space, f, "dual", "f"), t, budget)


def d_star_global(space: SpaceDescriptor, t: float,
                  budget: Optional[Budget] = None) -> Bracket:
    """d*(t) = inf over unit f of d*(f, t)."""
    W = polar_space(space)
    return d_global(W, t, budget)


def d_star_zero(space: SpaceDescriptor, f, t: float,
                budget: Optional[Budget] = None) -> Bracket:
    """d*0(f, t) = sup{d*(g, t) : g unit in X*, ||f - g|| < t}.

    Lower bound: g = f is always admissible (``d_star``'s lower scan,
    without its upper pass), plus a strict-interior sample
    at radius <= t(1 - 1e-6).  Upper bound: d*(., t) is 1-Lipschitz in g, so
    a covering of the closed neighbourhood certifies the sup; the cover
    point nearest f is always in it.  The d* upper scan at each cover point
    runs at fixed resolutions (dual grid 0.02, kernel 5e-3 in 2-D; 0.3 and
    0.08 in 3-D), whatever ``budget.resolution`` says; only the cover and
    the lower bound follow the budget.
    """
    if not (0.0 < t < 2.0):
        raise DomainError(f"d*0 needs 0 < t < 2, got {t}")
    budget = resolve(budget)
    W = polar_space(space)
    fa = _unit_coords(space, f, "dual", "f")
    grid, _, res_k = _d_point_grid(W, budget)
    lower = float(_d_point_bounds(W, fa[None, :], grid.points, t, res_k,
                                  budget.max_evals)[0][0])
    res_i = _resolution(budget, 2e-3, 0.05, W.dim)
    inner = lowdisc_sphere(W, 64)
    near = inner[_norm_array(W, inner - fa) <= t * (1.0 - 1e-6)][:8]
    lower = float(np.max(_d_lower_cheap(W, near, t, res_i, budget.max_evals),
                         initial=lower))
    upper, res_g = _d_star_zero_upper(W, fa, t, budget)
    return Bracket(lower=lower, upper=upper, method=GRID,
                   resolution=res_g, lipschitz=1.0)


def _d_star_zero_upper(W: SpaceDescriptor, fa: np.ndarray, t: float,
                       budget: Budget) -> tuple[float, float]:
    """(upper end of d*0(f, t), cover resolution) for a unit f of W =
    polar(space): the max of the d* upper scan over the cover points within
    t + h of f, plus h (``d_star_zero`` has the certificate)."""
    res_g = _resolution(budget, 0.05, 0.2, W.dim)
    cover = sphere_grid(W, res_g)
    h_g = cover.covering
    sel = cover.points[_norm_array(W, cover.points - fa) <= t + h_g]
    dual = sphere_grid(polar_space(W), 0.02 if W.dim == 2 else 0.3)
    _, up = _d_point_bounds(W, sel, dual.points, t, 5e-3 if W.dim == 2 else 0.08,
                            budget.max_evals, covering=dual.covering)
    return float(np.max(up)) + h_g, res_g


def d_star_zero_global(space: SpaceDescriptor, t: float,
                       budget: Optional[Budget] = None) -> Bracket:
    """d*0(t) = inf over unit f of d*0(f, t).

    Lower bound: for any unit f with grid neighbour f0 at distance <= h,
    every g with ||g - f0|| <= t - h satisfies ||g - f|| <= t, hence
    d*0(f, t) >= max over such sampled g of a certified d*(g, t) lower bound.
    The scan stops at the first f0 whose bound is 0.
    """
    if not (0.0 < t < 2.0):
        raise DomainError(f"d*0 needs 0 < t < 2, got {t}")
    budget = resolve(budget)
    W = polar_space(space)
    res_f = _resolution(budget, 0.1, 0.25, W.dim)
    res_i = _resolution(budget, 2e-3, 0.05, W.dim)
    grid = sphere_grid(W, res_f)
    h_f = grid.covering
    sample = lowdisc_sphere(W, 48)
    lower = math.inf
    for fa in grid.points:
        near = sample[_norm_array(W, sample - fa) <= max(t - h_f, 0.0) * (1.0 - 1e-9)]
        cand = np.vstack([fa[None, :], near[:4]])
        lows = _d_lower_cheap(W, cand, t, res_i, budget.max_evals)
        lower = min(lower, float(np.max(lows)))
        if lower <= 0.0:
            break
    # upper bound: d*0(t) <= d*0(f, t) at any sampled f
    probes = lowdisc_sphere(W, 4)
    upper = min(_d_star_zero_upper(W, fa, t, budget)[0] for fa in probes)
    return Bracket(lower=lower, upper=upper, method=GRID,
                   resolution=res_f, lipschitz=1.0)
