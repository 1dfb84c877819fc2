"""The beta moduli: beta(f, x, t), beta(f, t) = sup_x, beta(t) = inf_f.

beta(f, x, t) = inf{1 - g(x) : g in the dual ball, ||f - g|| >= t}.  The
feasible region is the dual ball minus an open ball; the infimum (a
maximum of the linear form g -> g(x)) is attained at an extreme point of
the region, which lies either on the dual sphere or on the spherical cut
{||f - g|| = t} inside the ball.  Covering those two surfaces with
certified grids brackets the value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from . import exactpoly
from .bracket import EXACT, GRID, Bracket, ModulusCurve
from .config import Budget, resolve
from .denting import _resolution
from .errors import DomainError
from .gridutil import _covering_runs, sphere_grid
from .spaces import (SpaceDescriptor, duality_preimage, lp_space, polar_space,
                     _exact_polygon, _norm_array, _support_array, _unit_coords)


def is_euclidean(space: SpaceDescriptor) -> bool:
    """True when the norm is isometrically Euclidean (inner-product induced)."""
    if space.kind == "lp":
        return space.p == 2.0
    if space.kind == "weighted-lp":
        return space.p == 2.0
    if space.kind == "lp-sum":
        return space.p == 2.0 and all(is_euclidean(c) for c in space.components)
    return False


def _check_beta_domain(t: float) -> None:
    if not (0.0 < t < 1.0):
        raise DomainError(f"beta moduli are defined for 0 < t < 1, got {t}")


def _surface_masks(W: SpaceDescriptor, F: np.ndarray, S: np.ndarray, t: float,
                   h: float, dist: Optional[np.ndarray] = None):
    """``_candidate_surfaces``' selection from the sphere grid S (covering h)
    of W and the cut points f + t*S, for one functional f (shape (dim,)) or
    for each row of F (shape (n, dim), each mask then gaining a leading
    axis): (cut points, (sphere, cut) feasible masks, (sphere, cut) relaxed
    masks).  A row's values do not depend on the other rows.  ``dist``, the
    norms ||S - f|| (independent of t), is computed unless given."""
    Fr = F[..., None, :]
    if dist is None:
        dist = _norm_array(W, S - Fr)
    cut = Fr + t * S
    cut_norm = _norm_array(W, cut)
    return (cut, (dist >= t, cut_norm <= 1.0),
            (dist >= t - h, cut_norm <= 1.0 + t * h))


def _candidate_surfaces(W: SpaceDescriptor, fa: np.ndarray, t: float,
                        res: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(feasible candidates, relaxed candidates, covering slack) covering the
    extreme points of {g in B(W) : ||f - g|| >= t} in the norm of W: the
    sphere points at distance >= t from f and the points of the cut surface
    {g = f + t u : u unit} inside the ball, covered within t*h; the relaxed
    set widens both tests by the covering radius."""
    grid = sphere_grid(W, res)
    h = grid.covering
    S = grid.points
    cut, (sph_f, cut_f), (sph_r, cut_r) = _surface_masks(W, fa, S, t, h)
    feas = np.vstack([S[sph_f], cut[cut_f], [-fa]])
    relax = np.vstack([S[sph_r], cut[cut_r], [-fa]])
    return feas, relax, max(h, t * h)


def beta_point(space: SpaceDescriptor, f, x, t: float,
               budget: Optional[Budget] = None) -> Bracket:
    """Certified bracket for beta(f, x, t)."""
    _check_beta_domain(t)
    budget = resolve(budget)
    fa = _unit_coords(space, f, "dual", "f")
    xa = _unit_coords(space, x, "primal", "x")
    W = polar_space(space)
    if is_euclidean(space) and space.dim > 2:
        return _beta_point_euclidean(fa, xa, t, budget)
    res = _resolution(budget, 1e-3, 0.05, W.dim)
    feas, relax, h = _candidate_surfaces(W, fa, t, res)
    # 1 - g(x) is 1-Lipschitz in g for the W-norm since ||x|| = 1
    upper = 1.0 - float(np.max(feas @ xa))
    lower = 1.0 - float(np.max(relax @ xa)) - h
    return Bracket(lower=max(lower, 0.0), upper=max(upper, 0.0),
                   method=GRID, resolution=res, lipschitz=1.0)


def _beta_point_euclidean(fa: np.ndarray, xa: np.ndarray, t: float,
                          budget: Budget) -> Bracket:
    """Inner-product norms are isometric to l2 with f mapped to (1, 0): the
    optimum over the dual ball lies in span{f, x}, and x maps to
    (a, sqrt(1 - a^2)) with a = f(x), which holds for any inner product."""
    a = float(fa @ xa)
    x2 = np.array([a, math.sqrt(max(1.0 - a * a, 0.0))])
    return beta_point(lp_space(2, 2.0), np.array([1.0, 0.0]), x2, t, budget)


def beta_sup(space: SpaceDescriptor, f, t: float,
             budget: Optional[Budget] = None) -> Bracket:
    """Certified bracket for beta(f, t) = sup over unit x of beta(f, x, t).

    beta(f, ., t) is 1-Lipschitz in x (the objective 1 - g(x) moves by at
    most ||x - x'|| uniformly over the dual ball), so a primal-sphere
    covering certifies the sup; the duality-map preimage of f is always
    included among the candidates.
    """
    _check_beta_domain(t)
    budget = resolve(budget)
    fa = _unit_coords(space, f, "dual", "f")
    if is_euclidean(space) and space.dim >= 2:
        return _beta_sup_euclidean(t)
    return _beta_sup_grid(space, polar_space(space), fa, t, budget)


def _sup_resolutions(space: SpaceDescriptor, W: SpaceDescriptor,
                     budget: Budget) -> tuple[float, float]:
    """beta_sup's resolutions: of the primal x grid and of the grid of W."""
    return (_resolution(budget, 2e-3, 0.08, space.dim),
            _resolution(budget, 1.5e-3, 0.06, W.dim))


def _beta_sup_grid(space: SpaceDescriptor, W: SpaceDescriptor, fa: np.ndarray,
                   t: float, budget: Budget) -> Bracket:
    """beta_sup's certified search: a primal-sphere covering plus the duality
    preimage of f, against the candidate surfaces of W = polar(space), one
    ``_sup_end`` scan per end on the masks of ``_surface_masks``."""
    res_x, res_g = _sup_resolutions(space, W, budget)
    ggrid = sphere_grid(W, res_g)
    _, feasible, relaxed = _surface_masks(W, fa, ggrid.points, t, ggrid.covering)
    p = duality_preimage(space, fa).array
    n_feas = 1 + sum(int(np.count_nonzero(mask)) for mask in feasible)
    lower = _sup_end(space, W, fa, p, t, budget, relaxed, n_feas, lower=True)
    upper = _sup_end(space, W, fa, p, t, budget, feasible, n_feas, lower=False)
    return Bracket(lower=lower, upper=upper, method=GRID,
                   resolution=res_x, lipschitz=1.0)


_MARGIN = 1e-12  # pruning margin for products rounded in another shape
_PRUNE_STRIDE = 8  # stride of the candidate rows and x grids the pruning passes read


def _sup_end(space: SpaceDescriptor, W: SpaceDescriptor, fa: np.ndarray,
             p: np.ndarray, t: float, budget: Budget, masks, n_feas: int,
             lower: bool) -> float:
    """beta_sup(space, f, t, budget)'s lower (``lower``) or upper end, from
    f's (sphere, cut) masks over the candidate grid S of W (the relaxed
    masks of ``_surface_masks`` for the lower end, the feasible ones for the
    upper), its number ``n_feas`` of feasible candidate rows (the -f row
    included) and its duality preimage p.

    Each end is a maximum over x of a per-x value, 1 - max g.x over the
    candidate rows g (the feasible ones for the upper end, the relaxed ones
    less the slack for the lower end), computed in blocks of 2.5e5 // n_feas
    points of x, and most blocks cannot raise it.  When there is more than
    one block, a first pass bounds each x's value from above by a max of
    g.x over a subset of x's candidate rows, which is at most the full max
    (``_max_over_blocks`` prunes with it):

    - in the plane (``_peak_tops``), the rows of S at the two grid indices
      around the angle of x's norming functional and at the ends of the
      mask's runs, for each mask, and -f.  u.x is unimodal along the convex
      curve S (it peaks at the norming functional), so on one arc of S its
      max is at an arc end or next to the peak: where each mask is one run,
      as the candidate masks are in exact arithmetic (``_sup_floors``), the
      bound is x's value up to rounding;
    - in 3-D (``_strided_tops``), every ``_PRUNE_STRIDE``-th candidate row.

    A one-block scan costs about as much as a first pass, so it runs
    without one.
    """
    res_x, res_g = _sup_resolutions(space, W, budget)
    xgrid = sphere_grid(space, res_x)
    ggrid = sphere_grid(W, res_g)
    S, h = ggrid.points, ggrid.covering
    sph, cut = masks
    rows = np.vstack([S[sph], fa + t * S[cut], [-fa]])
    X = np.vstack([xgrid.points, p[None, :]])
    # blocks of <= 2.5e5 products (2 MB) keep the peak memory low
    chunk = max(1, 250_000 // n_feas)
    starts = np.arange(0, len(X), chunk)
    if len(starts) == 1:
        top = None
    elif space.dim == 2:
        top = _peak_tops(S, masks, fa, t, X, _support_array(space, X))
    else:
        top = _strided_tops(rows, X)
    if lower:
        return _max_over_blocks(rows, X, starts, chunk, top, max(h, t * h), 0.0)
    return _max_over_blocks(rows, X, starts, chunk, top, 0.0, -math.inf) + xgrid.covering


def _peak_tops(S: np.ndarray, masks, fa: np.ndarray, t: float, X: np.ndarray,
               G: np.ndarray) -> np.ndarray:
    """For each row x of X, with norming functional the row of G, the max of
    g.x over -f and, for each of the (sphere, cut) masks over the 2-D
    sphere grid S, the rows of S at the ends of the mask's cyclic runs and
    at the indices i, i + 1 (mod n) in the mask, where
    i = floor(n angle(G[x]) / 2 pi) mod n; a cut row f + t u is taken as
    f.x + t (u.x).  S[i] and S[i + 1] flank the norming functional (S[j]
    lies at angle 2 pi j / n, ``sphere_grid``), which is where u.x peaks on
    S.  A floor, not a cast to int: truncation moves i for every negative
    angle."""
    n = len(S)
    i = np.floor(np.arctan2(G[:, 1], G[:, 0]) * (n / (2.0 * math.pi))).astype(np.int64) % n
    peak = np.stack([i, (i + 1) % n])
    at_peak = np.einsum("kxd,xd->kx", S[peak], X)
    fx = X @ fa
    top = -fx
    for mask, shift, scale in ((masks[0], 0.0, 1.0), (masks[1], fx, t)):
        ends = np.flatnonzero(mask & ~(np.roll(mask, 1) & np.roll(mask, -1)))
        u = np.where(mask[peak], at_peak, -np.inf).max(axis=0)
        if len(ends):
            u = np.maximum(u, (X @ S[ends].T).max(axis=1))
        top = np.maximum(top, shift + scale * u)
    return top


def _strided_tops(rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """For each row x of X, the max of g.x over every ``_PRUNE_STRIDE``-th
    row g of rows, in blocks of about 2.5e5 products."""
    sub = rows[::_PRUNE_STRIDE]
    step = max(1, 250_000 // len(sub))
    return np.concatenate([np.max(sub @ X[i:i + step].T, axis=0)
                           for i in range(0, len(X), step)])


def _max_over_blocks(rows: np.ndarray, X: np.ndarray, starts: np.ndarray,
                     chunk: int, top: Optional[np.ndarray], slack: float,
                     best: float) -> float:
    """max(best, max over the rows x of X of 1 - max(rows @ x) - slack),
    scanning in full only the blocks X[i:i + chunk] (i in starts) that can
    raise it.

    ``top`` is None, and every block is scanned, or holds for each x a max
    of g.x over a subset of the rows (``_sup_end``), so that
    1 - top - slack is at least x's value.  The blocks are scanned in decreasing order
    of their largest such bound, and the scan stops at the first block
    whose bound is at least ``_MARGIN`` below the best full value so far:
    every later block is bounded below it as well and cannot raise the max.
    The lower end starts at best = 0, its clamp, so a block bounded below 0
    cannot move it.  A scanned block's products are ``rows @ blk.T``, with
    the rows in the order sphere, cut, -f and the block's shape fixed by
    ``starts``, so the max is the unpruned one bit for bit.  The bounds'
    products have other shapes (and a cut row's g.x is summed as
    f.x + t u.x), so they may differ from those in the last bits; the
    margin exceeds such differences for vectors of moderate coordinates by
    orders of magnitude."""
    bound = (np.full(len(starts), np.inf) if top is None
             else np.maximum.reduceat(1.0 - top - slack, starts))
    for b in np.argsort(-bound, kind="stable"):
        if bound[b] <= best - _MARGIN:
            break
        best = max(best, _block_max(rows, X[starts[b]:starts[b] + chunk], slack))
    return best


def _block_max(rows: np.ndarray, blk: np.ndarray, slack: float) -> float:
    """The max over the rows x of blk of 1 - max(rows @ x) - slack."""
    return float(np.max(1.0 - np.max(rows @ blk.T, axis=0) - slack))


def _beta_sup_euclidean(t: float) -> Bracket:
    """beta(f, t) = t^2/2 for every unit f of an inner-product space of
    dimension >= 2, enclosed within an ulp on each side (the product t*t
    and its halving err by at most an ulp together).  A line has no such
    plane, and its callers check it.

    Proof, with f(x) = <f, x> and f's duality preimage x = f: a feasible g
    (|g| <= 1, |f - g| >= t) has 2 g(f) = |g|^2 + 1 - |f - g|^2 <= 2 - t^2,
    so beta(f, f, t) >= t^2/2, and the unit g at chord t from f attains it.
    Any other unit x lies in a plane through f; with a the angle from f to
    x and b = 2 asin(t/2) the angle of chord t, g = x is feasible where
    a >= b and gives 0, and else the unit g at angle b on x's side is
    feasible and gives 1 - cos(b - a) <= 1 - cos b = t^2/2.  So beta(f, t),
    the sup over x, is t^2/2 for every f, and so is beta(t), the inf over
    f."""
    v = t * t * 0.5
    return Bracket(lower=math.nextafter(v, -math.inf), upper=math.nextafter(v, math.inf),
                   method=EXACT, lipschitz=0.0)


def beta_global(space: SpaceDescriptor, t_grid,
                budget: Optional[Budget] = None) -> ModulusCurve:
    """Curve of certified brackets for beta(t) = inf over unit f of beta(f, t).

    Lower bound: for any unit f with grid neighbour f0 at dual distance
    <= h, the feasible set for (f, t) is contained in the one for
    (f0, t - h), hence beta(f, t) >= beta(f0, t - h) pointwise in x and
    after the sup over x.
    """
    budget = resolve(budget)
    ts = tuple(float(t) for t in t_grid)
    for t in ts:
        _check_beta_domain(t)
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError(f"t grid must be strictly increasing, got {ts}")
    values = tuple(_beta_global_single(space, t, budget) for t in ts)
    return ModulusCurve(kind="beta", t_grid=ts, values=values)


def _beta_global_single(space: SpaceDescriptor, t: float, budget: Budget) -> Bracket:
    """beta(t)'s bracket: the least beta_sup lower end at t - h over the dual
    grid (covering h) and the least upper end at t.  One ``_sup_floors``
    pass builds both ends' masks and floors, and ``_least_sup_end`` runs
    the end's own scan on the few functionals that can move it.  On a
    2-D polygon the exact beta(g, t) at the dual vertices and edge midpoints
    cap the upper end from the start, and a zero among them ends the
    search: beta(t) is then 0, and the result is the [0, 0] the scans would
    give (their lower end is a certified lower bound of beta(t), clamped
    at 0)."""
    if is_euclidean(space) and space.dim >= 2:
        return _beta_sup_euclidean(t)
    W = polar_space(space)
    exact_2d = space.kind == "polyhedral" and space.dim == 2
    res_f = _resolution(budget, 0.05 if exact_2d else 0.02, 0.15, W.dim)
    upper = _exact_pins(space, t)
    if upper == 0.0:
        return Bracket(lower=0.0, upper=0.0, method=GRID, resolution=res_f, lipschitz=1.0)
    fgrid = sphere_grid(W, res_f)
    h_f = fgrid.covering
    inner = budget.with_resolution(
        _resolution(budget, 0.02 if exact_2d else 8e-3, 0.1, W.dim))
    ts = (max(t - h_f, 1e-9), t)
    F = fgrid.points
    P = _support_array(W, F)
    ends = _sup_floors(space, W, F, P, ts, inner)
    lower = _least_sup_end(space, W, F, P, ts[0], inner, math.inf, ends[0], lower=True)
    upper = _least_sup_end(space, W, F, P, ts[1], inner, upper, ends[1], lower=False)
    return Bracket(lower=max(lower, 0.0), upper=upper, method=GRID,
                   resolution=res_f, lipschitz=1.0)


def _exact_pins(space: SpaceDescriptor, t: float) -> float:
    """The least exact beta(g, t') over the dual-sphere vertices and edge
    midpoints of the descriptor's own polygon (``spaces._exact_polygon``;
    inf where that is None), where t' is the least k / 10^12 at or above
    t: each g is a genuine unit functional and beta(g, .) does not
    decrease (its feasible set shrinks as t grows), so
    beta(t) <= beta(g, t) <= beta(g, t').  t' stays a short rational, and
    rounding t to the nearest one could put t' below t, where the value is
    no upper end.  beta(g, t') >= 0, so a zero ends the search."""
    primal = _exact_polygon(space)
    if primal is None:
        return math.inf
    dual = primal.polar()
    t_exact = Fraction(math.ceil(Fraction(t) * 10 ** 12), 10 ** 12)
    n = len(dual.vertices)
    best = math.inf
    for i, v in enumerate(dual.vertices):
        w = dual.vertices[(i + 1) % n]
        for cand in (v, ((v[0] + w[0]) / 2, (v[1] + w[1]) / 2)):
            scale = dual.gauge(cand)
            g = (cand[0] / scale, cand[1] / scale)
            best = min(best, float(exactpoly.beta_sup_exact(primal, dual, g, t_exact)))
            if best == 0.0:
                return best
    return best


_BLOCK = 60_000  # entries of the largest temporaries of the floor pass


def _least_sup_end(space: SpaceDescriptor, W: SpaceDescriptor, F: np.ndarray,
                   P: np.ndarray, t: float, budget: Budget, best: float,
                   end, lower: bool) -> float:
    """min(best, min over the rows f of F of beta_sup(space, f, t, budget)'s
    lower (``lower``) or upper end), with the end's scan run on few f.

    ``end`` is ``_sup_floors``' (floors, packed (sphere, cut) masks,
    feasible row counts, grid size) for this end, and P holds the duality
    preimages.  Each floor is at most f's end plus a few ulps.  The one-end
    scan (``_sup_end``, on the masks and the preimage already built) runs
    on f in increasing order of floor, and stops at the first f whose floor
    is at least ``_MARGIN`` above the least end so far: that f and every
    later one have an end above it and cannot lower the min.  A lower end
    is clamped at 0, so the lower scan also stops once the min is 0.  The
    result is the min over every f bit for bit.
    """
    floors, bits, n_feas, m = end
    for k in np.argsort(floors, kind="stable"):
        if floors[k] - _MARGIN >= best or (lower and best <= 0.0):
            break
        masks = np.unpackbits(bits[:, k], axis=-1, count=m).view(bool)
        best = min(best, _sup_end(space, W, F[k], P[k], t, budget, masks,
                                  int(n_feas[k]), lower))
    return best


def _sup_floors(space: SpaceDescriptor, W: SpaceDescriptor, F: np.ndarray,
                P: np.ndarray, ts: tuple[float, float], budget: Budget):
    """beta_global's two ends, the lower one at ts[0] and the upper one at
    ts[1]: for each, (floors, (sphere, cut) masks packed by
    ``np.packbits``, feasible row counts, grid size), one floor, mask pair
    and count per row f of F (P holds the rows' duality preimages).

    The masks are ``_surface_masks``' over the candidate grid S (relaxed
    ones for the lower end, feasible ones for the upper), computed in
    blocks of f that share the t-independent norms ||S - f||; the counts
    are beta_sup's number of feasible candidate rows at the end's t.  A
    floor is f's end evaluated at its preimage P[f], with the max of g.x
    taken over -f and the rows of f's exact masks, so it is at most the end
    beta_sup computes, up to rounding: a max over fewer x is smaller.

    In the plane the floor is also f's end on every ``_PRUNE_STRIDE``-th
    point of its x grid, with the max of g.x over a superset of f's
    candidate rows (a max over more rows is larger, so 1 - g.x smaller):
    for the sphere rows and the cut rows f + t u the maximum over each
    mask's shortest covering cyclic run of S (``_masked_maxima``).  A run
    holds the mask whatever the mask is, so the floors stay below the ends
    even where rounding splits a mask.  In exact arithmetic both masks are
    single runs, so the run is the mask and the floor is as tight as the
    masked one: {u : ||u - f|| >= t} is an arc around -f by the
    monotonicity lemma (``sphere_grid``), and {u : ||f + t u|| <= 1} is
    the part of the circle f + t S inside the ball, one arc, because the
    boundaries of two positive homothets of a plane convex body meet in at
    most two connected pieces (the relaxed masks widen t and the ball, the
    same shapes).  These strided x pay in the plane, where they keep the
    end scans to a few functionals; in 3-D a masked max over them costs
    more than the scans it saves, so the floor reads P[f] alone.

    Rounding: g.x for a cut row is taken as f.x + t (u.x), and the products
    here have other shapes than beta_sup's, so a floor can exceed beta_sup's
    value by rounding errors of products of vectors of moderate
    coordinates, a few ulps; ``_least_sup_end`` skips an f only when its
    floor is ``_MARGIN`` = 1e-12 above the min, far above such errors.
    Every temporary holds about ``_BLOCK`` entries or fewer."""
    res_x, res_g = _sup_resolutions(space, W, budget)
    xgrid = sphere_grid(space, res_x)
    ggrid = sphere_grid(W, res_g)
    S, h = ggrid.points, ggrid.covering
    n, m = len(F), len(S)
    bits = np.empty((2, 2, n, -(-m // 8)), dtype=np.uint8)  # (end, sphere/cut, f, S)
    n_feas = np.empty((2, n), dtype=np.int64)
    floors = np.empty((2, n))
    step = max(1, _BLOCK // (4 * m))
    for i in range(0, n, step):
        blk = slice(i, i + step)
        Fb, Pb = F[blk], P[blk]
        dist = _norm_array(W, S - Fb[:, None, :])
        masks = np.empty((2, 2, len(Fb), m), dtype=bool)
        for e, lower in enumerate((True, False)):
            _, feas, relax = _surface_masks(W, Fb, S, ts[e], h, dist)
            masks[e] = relax if lower else feas
            n_feas[e, blk] = (1 + np.count_nonzero(feas[0], axis=1)
                              + np.count_nonzero(feas[1], axis=1))
        bits[:, :, blk] = np.packbits(masks, axis=-1)
        # the max of u.x over each mask at P[f], after the strided x in the plane
        top = np.where(masks, Pb @ S.T, -np.inf).max(axis=-1)[..., None]
        fx = np.einsum("fd,fd->f", Fb, Pb)[:, None]
        if W.dim == 2:
            Xs = xgrid.points[::_PRUNE_STRIDE]
            runs = _masked_maxima(Xs, S, masks.reshape(-1, m)).reshape(2, 2, len(Fb), -1)
            top = np.concatenate([runs, top], axis=-1)
            fx = np.concatenate([Fb @ Xs.T, fx], axis=1)
        for e, lower in enumerate((True, False)):
            g = np.maximum(np.maximum(top[e, 0], fx + ts[e] * top[e, 1]), -fx)
            if lower:
                floors[e, blk] = np.maximum((1.0 - g - max(h, ts[e] * h)).max(axis=-1), 0.0)
            else:
                floors[e, blk] = (1.0 - g).max(axis=-1) + xgrid.covering
    return [(floors[e], bits[e], n_feas[e], m) for e in range(2)]


def _masked_maxima(X: np.ndarray, S: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """A (k, x) array bounding max{S[j].X[x] : masks[k, j]} from above
    (-inf where a mask is empty), for the rows of X, the rows of a 2-D
    sphere grid S in its angular order and (k, len(S)) masks.

    It is the maximum over the mask's shortest covering cyclic run
    (``gridutil._covering_runs``), a superset of the mask and the mask
    itself wherever the mask is one run, as the candidate masks are in
    exact arithmetic (``_sup_floors``).  The run maxima come from a sparse
    table of range maxima (Bender & Farach-Colton, "The LCA problem
    revisited", LATIN 2000) over the doubled columns: level j holds the
    maxima of 2^j consecutive columns, and a run of length L is covered by
    the two level-floor(log2 L) windows at its ends.  That is
    O(x n log n + k x) work instead of O(k x n); the table is built in
    blocks of x of about ``_BLOCK`` entries."""
    k, n = masks.shape
    out = np.empty((k, len(X)))
    start, length = _covering_runs(masks)
    lev = np.frexp(np.maximum(length, 1))[1] - 1
    right = start + length - (1 << lev)
    n_lev = n.bit_length()
    step = max(1, _BLOCK // (n_lev * 2 * n))
    for j in range(0, len(X), step):
        tb = X[j:j + step] @ S.T
        table = np.full((n_lev, len(tb), 2 * n), -np.inf)
        table[0] = np.concatenate([tb, tb], axis=1)
        for v in range(1, n_lev):
            w = 1 << (v - 1)
            np.maximum(table[v - 1, :, :-w], table[v - 1, :, w:],
                       out=table[v, :, :-w])
        out[:, j:j + step] = np.maximum(table[lev, :, start], table[lev, :, right])
    out[length == 0] = -np.inf
    return out
