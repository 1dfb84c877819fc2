"""Denting moduli s, d and their dual (w*) counterparts, plus the modulus
of convexity.

All searches are certified grid searches in dimensions 2 and 3: grids carry a
computed covering radius, objectives and constraints are norm/linear-form
compositions whose Lipschitz constants are recorded, and every returned
Bracket is rigorous under those constants.  The inner minimum s of the d
family is read on the exactly-feasible ring of a kernel, not on a grid
(``_s_ends``).
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
from .spaces import (SpaceDescriptor, polar_space, _exact_polygon, _face_array,
                     _kernel_frames, _norm_array, _support_array, _unit_coords)


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


# -- the s-modulus on the exactly-feasible ring -------------------------------


# the exactly-feasible ring of a kernel in basis coefficients: the two
# points +-1 of the kernel line in the plane, 720 angles of the circle in 3-D
_LINE_RING = np.array([[1.0], [-1.0]])
_ANGLES = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
_CIRCLE_RING = np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=-1)
_MARGIN = 1e-12  # rounding margin of the lower ends, as ``beta._MARGIN``
_FACE_MARGIN = 1e-9  # a face point counts as inside the ring below r - this
_CHUNK_POINTS = 1 << 15  # ring and face points scanned at a time


def _kernel_bases(F: np.ndarray):
    """(bases, ring) for the rows f of an (n, dim) array F: a
    Euclid-orthonormal basis of each ker f, as (n, dim - 1, dim) (f rotated
    by 90 degrees in the plane, ``kernel_frame`` in 3-D), and the
    exactly-feasible ring's directions in basis coefficients."""
    if F.shape[1] == 2:
        V = np.stack([-F[:, 1], F[:, 0]], axis=-1)
        return (V / np.linalg.norm(V, axis=-1, keepdims=True))[:, None, :], _LINE_RING
    return _kernel_frames(F), _CIRCLE_RING


def _s_ends(space: SpaceDescriptor, xs: np.ndarray, F: np.ndarray, t: float,
            max_evals: int, lift: Optional[float] = None,
            first_pass: bool = False):
    """Bounds on s(x, f, t) = inf{||x + y|| - 1 : y in ker f, ||y|| >= r},
    r = t/4, one per row of xs and F (both (n, dim)), as (lower, upper)
    arrays; upper is None when ``lift`` is None.

    g(y) = ||x + y|| is convex on ker f, and g(y) >= |f(x)|/||f||* = c
    there, with equality exactly on A = {sign(f(x)) c u - x : u in F_f},
    F_f the face of the unit sphere that f norms (``spaces._face_array``):
    so s >= c - 1 always, and s = c - 1 when a point of A has ||a|| >= r.
    If a point a of A has ||a|| < r, the least value over ||y|| >= r lies
    on the ring ||y|| = r: the segment from a to a feasible y crosses the
    ring at some z, and g(z) <= max(g(a), g(y)) = g(y).  The test reads
    every face point: A is the convex hull of their images, and the ring
    term applies where each image has ||a|| < r - 1e-9 (the margin absorbs
    the rounding of the face points); in that tie zone and outside it, the
    lower end is c - 1 alone.  (One image inside would do, since an A that
    also leaves the ring meets it, and the ring minimum is then c - 1; the
    far face points are read for the upper end, where in 3-D the ring
    samples may miss that crossing.)  The ring is sampled at r u/||u|| for the directions u of
    ``_kernel_bases``: the two points of the kernel line in the plane,
    which is the whole ring, and 720 equally spaced unit vectors u_k of the
    basis circle in 3-D.  By the monotonicity lemma for normed planes
    (``gridutil.sphere_grid``) a ring point between two consecutive samples
    is within their distance of the first, and
    ||a/||a|| - b/||b|||| <= 2 ||a - b||/||a|| with ||a - b|| <= C |a - b|_2,
    so every ring point lies within gap = 4 r C sin(pi/720) / min_k ||u_k||
    of a sample, and g is 1-Lipschitz.  Hence

        lower = max(c - 1, min over the samples of ||x + z|| - 1 - gap)
                - 1e-12

    with the ring term only where A lies inside the ring, gap = 0 in the
    plane, and a margin of 1e-12 for the rounding of the points (each
    kernel point lies within an ulp of ker f) and norms.

    The upper end, for ``lift`` = h >= 0, bounds s(x, f', t) for every
    unit f' with ||f' - f||* <= h.  For y0 in ker f with
    (1 - h) ||y0|| >= r, y = y0 - f'(y0) e, e a unit norming vector of f',
    lies in ker f' with ||y - y0|| <= h ||y0|| and ||y|| >= r, so
    s(x, f', t) <= ||x + y0|| - 1 + h ||y0||.  The upper end is the least
    such value over the ring sampled at radius rho = r/(1 - h) and over
    the points of A with (1 - h) ||a|| >= r; inf where h >= 1.  With h = 0
    it is the least value at computed feasible points of s itself, taking
    no margin, as a grid search's upper end.

    With ``first_pass`` only every 8th ring direction is read and no face
    point: each end is then a maximum of c - 1 and a minimum over a subset
    of the full pass's points (the lower one with a gap no larger), so it
    is at least the full pass's end, which is what ``_d_point_bounds``
    prunes with.

    Rows are scanned in chunks of at most min(2^15, max_evals) ring and
    face points.  A ``BudgetError`` is raised when one row's ring samples
    plus its face points exceed max_evals (the full pass only).
    """
    r = t / 4.0
    bases, ring = _kernel_bases(F)
    fn = _norm_array(polar_space(space), F)
    fx = np.sum(xs * F, axis=1) / fn
    if first_pass:
        ring, faces = ring[::8], np.empty((len(F), 0, space.dim))
    else:
        faces = _face_array(space, F)
        if len(F) and len(ring) + faces.shape[1] > max_evals:
            raise BudgetError(f"the ring scan of {len(ring) + faces.shape[1]} points "
                              f"per row exceeds the budget")
    rho = None if lift is None or lift >= 1.0 else r / (1.0 - lift)
    chord = (0.0 if space.dim == 2 else
             4.0 * r * sharp_equiv_constants(space).C * math.sin(math.pi / len(_ANGLES)))
    chunk = max(1, min(_CHUNK_POINTS, max_evals) // (len(ring) + faces.shape[1]))
    lower = np.empty(len(F))
    upper = None if lift is None else np.full(len(F), np.inf)
    for i in range(0, len(F), chunk):
        rows = slice(i, i + chunk)
        x = xs[rows, None, :]
        U = ring @ bases[rows]
        w = _norm_array(space, U)

        def ring_min(radius: float) -> np.ndarray:
            return np.min(_norm_array(space, x + (radius / w)[..., None] * U), axis=1) - 1.0

        at_r = ring_min(r)
        floor = at_r - chord / np.min(w, axis=1)
        A = fx[rows, None, None] * faces[rows] - x
        na = _norm_array(space, A)
        floor = np.where(np.all(na < r - _FACE_MARGIN, axis=1), floor, -np.inf)
        lower[rows] = np.maximum(np.abs(fx[rows]) - 1.0, floor) - _MARGIN
        if rho is None:
            continue
        feasible = np.where(na * (1.0 - lift) >= r,
                            _norm_array(space, x + A) - 1.0 + lift * na, np.inf)
        upper[rows] = np.minimum((at_r if rho == r else ring_min(rho)) + lift * rho,
                                 np.min(feasible, axis=1, initial=np.inf))
    return lower, upper


def s_point(space: SpaceDescriptor, x, f, t: float,
            budget: Optional[Budget] = None) -> Bracket:
    """Certified bracket for s(x, f, t) = inf{||x+y||-1 : y in ker f, ||y|| >= t/4}
    from the exactly-feasible ring of ker f (``_s_ends`` has the
    certificate); exact up to rounding in the plane."""
    if not (0.0 < t < 2.0):
        raise DomainError(f"s modulus needs 0 < t < 2, got {t}")
    budget = resolve(budget)
    xa = _unit_coords(space, x, "primal", "x")
    fa = _unit_coords(space, f, "dual", "f")
    lo, up = _s_ends(space, xa[None, :], fa[None, :], t, budget.max_evals, lift=0.0)
    return Bracket(lower=float(lo[0]), upper=float(up[0]), method=GRID,
                   resolution=0.0, lipschitz=1.0)


# -- sup over the dual sphere: d(x, t) --------------------------------------


def d_point(space: SpaceDescriptor, x, t: float,
            budget: Optional[Budget] = None) -> Bracket:
    """Certified bracket for d(x, t) = sup over unit f of s(x, f, t)
    (see ``_d_point_bounds`` for the certificate)."""
    if not (0.0 < t < 2.0):
        raise DomainError(f"d modulus needs 0 < t < 2, got {t}")
    budget = resolve(budget)
    xa = _unit_coords(space, x, "primal", "x")
    grid, res_f = _d_point_grid(space, budget)
    h = grid.covering
    lower, upper = _d_point_bounds(space, xa[None, :], grid.points, t,
                                   budget.max_evals, covering=h)
    # the upper end's lift per unit of h is rho = (t/4)/(1 - h) (``_s_ends``);
    # past h = 1 the upper end is the cap t/4 and takes no lift
    return Bracket(lower=float(lower[0]), upper=float(upper[0]), method=GRID,
                   resolution=res_f, lipschitz=t / 4.0 / (1.0 - h) if h < 1.0 else 0.0)


def _d_point_grid(space: SpaceDescriptor, budget: Budget):
    """(dual grid, its resolution) of ``d_point``'s scan, which
    ``d_star_zero``'s lower end runs without the upper pass."""
    res_f = _resolution(budget, 4e-3, 0.25, space.dim)
    return sphere_grid(polar_space(space), res_f), res_f


def _d_point_bounds(space: SpaceDescriptor, X: np.ndarray, F: np.ndarray,
                    t: float, max_evals: int, covering: Optional[float] = None):
    """Bounds on d(x, t) for each row x of X from the unit functionals in the
    rows of F plus the norming functional of x, as (lower, upper) arrays.

    Lower bound: d(x, t) >= s(x, f, t) for every unit f, and d(x, t) >= 0
    since s(x, f, t) >= 0 at a norming f.  The upper bound, computed only
    when F is a dual-sphere grid of covering radius h = ``covering`` (else
    None): every unit f has a grid neighbour f0 with ||f - f0||* <= h, so
    s(x, f, t) is at most f0's lifted upper end (``_s_ends`` with
    lift h), and d(x, t) at most the largest of them.  Every upper end is
    capped at t/4: a y in ker f with ||y|| = t/4 gives
    s(x, f, t) <= ||x|| + ||y|| - 1 = t/4, so d(x, t) <= t/4; the cap is
    the whole upper end where h >= 1.

    Both ends are maxima over rows (x, f) of ``_s_ends``, and most rows
    cannot raise the maximum, so the full ring and the face points are
    read only where one can.  A first pass reads every 8th ring direction
    of every row and no face point (``first_pass``): its ends are at least
    the row's full ones.  For each x the full scan then runs on the
    incumbents, the norming row and the rows with the largest first-pass
    lower and upper ends, and after them on the rows whose first-pass lower
    or upper end exceeds the incumbents' best full one.  Any other row has
    full ends at most its first-pass ones, hence at most the incumbents'
    best, so the maxima over the rows scanned in full are the maxima over
    all rows, bit for bit.  With one row per x (F empty) every row is an
    incumbent and the first pass is skipped.
    """
    n, m = len(X), len(F) + 1
    norming = _support_array(space, X / _norm_array(space, X)[:, None])
    rows = np.concatenate([np.broadcast_to(F, (n,) + F.shape),
                           norming[:, None, :]], axis=1).reshape(n * m, X.shape[1])
    xs = np.repeat(X, m, axis=0)

    def scan(idx, first_pass: bool = False) -> np.ndarray:
        """(lower, upper) ends of the rows idx, one row of the result
        each; the upper row repeats the lower one when there is no upper."""
        lo, up = _s_ends(space, xs[idx], rows[idx], t, max_evals,
                         lift=covering, first_pass=first_pass)
        return np.stack([lo, lo if up is None else up])

    if m == 1:
        ends = scan(slice(None))
    else:
        rough = scan(slice(None), first_pass=True).reshape(2, n, m)
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
    if covering is None:
        return lower, None
    return lower, np.minimum(upper, t / 4.0)


def _d_lower_cheap(space: SpaceDescriptor, X: np.ndarray, t: float,
                   max_evals: int, n_extra: int = 32) -> np.ndarray:
    """Rigorous lower bounds on d(x, t), one per row x of X, from the norming
    functional plus a small sample of dual directions."""
    extra = lowdisc_sphere(polar_space(space), n_extra)
    return _d_point_bounds(space, X, extra, t, max_evals)[0]


def d_global(space: SpaceDescriptor, t: float,
             budget: Optional[Budget] = None) -> Bracket:
    """Certified bracket for d(t) = inf over unit x of d(x, t).

    d(., t) is 1-Lipschitz on the sphere (the defining infimum shifts by at
    most ||x - x'||), so a covering grid certifies the lower bound, from
    each grid point's norming-row lower end (``_d_lower_cheap`` without
    extra directions); any single x certifies the upper bound through its
    full d_point bracket, taken at the first grid point of least lower end.
    """
    if not (0.0 < t < 2.0):
        raise DomainError(f"d modulus needs 0 < t < 2, got {t}")
    budget = resolve(budget)
    res_x = _resolution(budget, 2e-3, 0.12, space.dim)
    grid = sphere_grid(space, res_x)
    lows = _d_lower_cheap(space, grid.points, t, budget.max_evals, n_extra=0)
    i_best = int(np.argmin(lows))
    lower = max(0.0, float(lows[i_best]) - grid.covering)
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
    reads a dual grid of fixed resolution (0.02 in 2-D, 0.3 in 3-D),
    whatever ``budget.resolution`` says; only the cover and the lower bound
    follow the budget.  The upper end is capped at t/4, as every d*(g, t)
    is (``_d_point_bounds``).
    """
    if not (0.0 < t < 2.0):
        raise DomainError(f"d*0 needs 0 < t < 2, got {t}")
    budget = resolve(budget)
    W = polar_space(space)
    fa = _unit_coords(space, f, "dual", "f")
    grid, _ = _d_point_grid(W, budget)
    lower = float(_d_point_bounds(W, fa[None, :], grid.points, t,
                                  budget.max_evals)[0][0])
    inner = lowdisc_sphere(W, 64)
    near = inner[_norm_array(W, inner - fa) <= t * (1.0 - 1e-6)][:8]
    lower = float(np.max(_d_lower_cheap(W, near, t, budget.max_evals),
                         initial=lower))
    upper, res_g = _d_star_zero_upper(W, fa, t, budget)
    return Bracket(lower=lower, upper=upper, method=GRID,
                   resolution=res_g, lipschitz=1.0)


def _d_star_zero_upper(W: SpaceDescriptor, fa: np.ndarray, t: float,
                       budget: Budget) -> tuple[float, float]:
    """(upper end of d*0(f, t), cover resolution) for a unit f of W =
    polar(space): the max of the d* upper scan over the cover points within
    t + h of f, plus h, capped at t/4 (``d_star_zero`` has the
    certificate)."""
    res_g = _resolution(budget, 0.05, 0.2, W.dim)
    cover = sphere_grid(W, res_g)
    h_g = cover.covering
    sel = cover.points[_norm_array(W, cover.points - fa) <= t + h_g]
    dual = sphere_grid(polar_space(W), 0.02 if W.dim == 2 else 0.3)
    _, up = _d_point_bounds(W, sel, dual.points, t, budget.max_evals,
                            covering=dual.covering)
    return min(float(np.max(up)) + h_g, t / 4.0), res_g


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
    grid = sphere_grid(W, res_f)
    h_f = grid.covering
    sample = lowdisc_sphere(W, 48)
    lower = math.inf
    for fa in grid.points:
        near = sample[_norm_array(W, sample - fa) <= max(t - h_f, 0.0) * (1.0 - 1e-9)]
        cand = np.vstack([fa[None, :], near[:4]])
        lows = _d_lower_cheap(W, cand, t, budget.max_evals)
        lower = min(lower, float(np.max(lows)))
        if lower <= 0.0:
            break
    # upper bound: d*0(t) <= d*0(f, t) at any sampled f
    probes = lowdisc_sphere(W, 4)
    upper = min(_d_star_zero_upper(W, fa, t, budget)[0] for fa in probes)
    return Bracket(lower=lower, upper=upper, method=GRID,
                   resolution=res_f, lipschitz=1.0)
