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
from typing import Optional

import numpy as np

from .bracket import GRID, Bracket, ModulusCurve
from .config import Budget, resolve
from .denting import _PRUNE_STRIDE, _resolution
from .errors import DomainError
from .gridutil import sphere_grid
from .spaces import (SpaceDescriptor, duality_preimage, lp_space, polar_space,
                     _norm_array, _support_array, _unit_coords)


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
                   h: float):
    """``_candidate_surfaces``' selection from the sphere grid S (covering h)
    of W and the cut points f + t*S, for one functional f (shape (dim,)) or
    for each row of F (shape (n, dim), each mask then gaining a leading
    axis): (cut points, (sphere, cut) feasible masks, (sphere, cut) relaxed
    masks).  A row's values do not depend on the other rows."""
    Fr = F[..., None, :]
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
                   method=GRID, resolution=res, lipschitz=1.0, seed=budget.seed)


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
    if is_euclidean(space):
        return _beta_sup_euclidean(t, budget)
    return _beta_sup_grid(space, polar_space(space), fa, t, budget)


def _sup_resolutions(space: SpaceDescriptor, W: SpaceDescriptor,
                     budget: Budget) -> tuple[float, float]:
    """beta_sup's resolutions: of the primal x grid and of the grid of W."""
    return (_resolution(budget, 2e-3, 0.08, space.dim),
            _resolution(budget, 1.5e-3, 0.06, W.dim))


def _beta_sup_grid(space: SpaceDescriptor, W: SpaceDescriptor, fa: np.ndarray,
                   t: float, budget: Budget) -> Bracket:
    """beta_sup's certified search: a primal-sphere covering plus the duality
    preimage of f, against the candidate surfaces of W = polar(space).

    Each end is a maximum over x of a per-x value, 1 - max g.x over the
    candidate rows g (the feasible ones for the upper end, the relaxed ones
    less the slack for the lower end), computed in blocks of x, and most
    blocks cannot raise it.  A first pass takes the max of g.x over every
    ``_PRUNE_STRIDE``-th candidate row only: a max over fewer rows, so the
    per-x value it gives is at least the full one.  The full scan then runs
    block by block in decreasing order of that bound, starting with the
    incumbent (largest bound), and stops at the first block whose bound is
    at least ``_MARGIN`` below the best full value so far; every later block
    is bounded below it as well and cannot raise the max.  The lower end is
    clamped at 0, so its best starts at 0: a block bounded below 0 cannot
    move it.  A scanned block is the unpruned scan's block with its products
    (``rows @ blk.T``), so the maxima are the unpruned ones bit for bit.  A
    matrix product's rounding depends on its shape, so the first pass's
    products may differ from those in the last bits; the margin exceeds
    such differences for vectors of moderate coordinates by orders of
    magnitude.
    """
    res_x, res_g = _sup_resolutions(space, W, budget)
    xgrid = sphere_grid(space, res_x)
    X = np.vstack([xgrid.points, duality_preimage(space, fa).array[None, :]])
    feas, relax, h_g = _candidate_surfaces(W, fa, t, res_g)
    # blocks of <= 2.5e5 products (2 MB) keep the peak memory low
    chunk = max(1, int(250_000 // max(len(feas), 1)))
    starts = np.arange(0, len(X), chunk)
    upper = _max_over_blocks(feas, X, starts, chunk, 0.0, -math.inf)
    lower = _max_over_blocks(relax, X, starts, chunk, h_g, 0.0)
    return Bracket(lower=lower, upper=upper + xgrid.covering,
                   method=GRID, resolution=res_x, lipschitz=1.0, seed=budget.seed)


_MARGIN = 1e-12  # pruning margin for products rounded in another shape


def _max_over_blocks(rows: np.ndarray, X: np.ndarray, starts: np.ndarray,
                     chunk: int, slack: float, best: float) -> float:
    """max(best, max over the rows x of X of 1 - max(rows @ x) - slack),
    scanning in full only the blocks X[i:i + chunk] (i in starts) that can
    raise it (``_beta_sup_grid`` has the proof)."""
    sub = rows[::_PRUNE_STRIDE]
    step = max(1, 250_000 // len(sub))
    top = np.concatenate([np.max(sub @ X[i:i + step].T, axis=0)
                          for i in range(0, len(X), step)])
    bound = np.maximum.reduceat(1.0 - top - slack, starts)
    for b in np.argsort(-bound, kind="stable"):
        if bound[b] <= best - _MARGIN:
            break
        blk = X[starts[b]:starts[b] + chunk]
        best = max(best, float(np.max(1.0 - np.max(rows @ blk.T, axis=0) - slack)))
    return best


def _beta_sup_euclidean(t: float, budget: Budget) -> Bracket:
    """In a Euclidean space every unit f is equivalent under isometry and the
    optimal x lies in a plane through f; compute on the 2-D model."""
    plane = lp_space(2, 2.0)
    return _beta_sup_grid(plane, plane, np.array([1.0, 0.0]), t, budget)


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
    grid (covering h) and the least upper end at t, each found by
    ``_least_sup_end`` without a full beta_sup on most functionals.  On a
    2-D polygon the exact beta(g, t) at the dual vertices and edge midpoints
    cap the upper end from the start."""
    if is_euclidean(space):
        return _beta_sup_euclidean(t, budget)
    W = polar_space(space)
    exact_2d = space.kind == "polyhedral" and space.dim == 2
    res_f = _resolution(budget, 0.05 if exact_2d else 0.02, 0.15, W.dim)
    fgrid = sphere_grid(W, res_f)
    h_f = fgrid.covering
    inner = budget.with_resolution(
        _resolution(budget, 0.02 if exact_2d else 8e-3, 0.1, W.dim))
    upper = _exact_pins(space, t) if exact_2d else math.inf
    t_relax = max(t - h_f, 1e-9)
    lower = _least_sup_end(space, W, fgrid.points, t_relax, inner, math.inf,
                           lower=True)
    upper = _least_sup_end(space, W, fgrid.points, t, inner, upper, lower=False)
    return Bracket(lower=max(lower, 0.0), upper=upper, method=GRID,
                   resolution=res_f, lipschitz=1.0, seed=budget.seed)


def _exact_pins(space: SpaceDescriptor, t: float) -> float:
    """The least exact beta(g, t) over the dual-sphere vertices and edge
    midpoints of a 2-D polygon: each is a genuine unit functional, so
    beta(t) <= the value."""
    from .oracle import exact_beta_sup, to_polygon
    dual = to_polygon(space).polar()
    n = len(dual.vertices)
    best = math.inf
    for i, v in enumerate(dual.vertices):
        w = dual.vertices[(i + 1) % n]
        for cand in (v, ((v[0] + w[0]) / 2, (v[1] + w[1]) / 2)):
            scale = dual.gauge(cand)
            g = (cand[0] / scale, cand[1] / scale)
            best = min(best, float(exact_beta_sup(space, g, t)))
    return best


_BLOCK = 60_000  # entries of the largest temporary of _sup_floors


def _least_sup_end(space: SpaceDescriptor, W: SpaceDescriptor, F: np.ndarray,
                   t: float, budget: Budget, best: float, lower: bool) -> float:
    """min(best, min over the rows f of F of beta_sup(space, f, t, budget)'s
    lower (``lower``) or upper end), with beta_sup run on few f.

    ``_sup_floors`` gives each f a floor: its end's value up to rounding,
    taken over a subset of the x beta_sup maximises over, so at most
    beta_sup's value plus a few ulps.  beta_sup runs on f in increasing
    order of floor, and the scan stops at the first f whose floor is at
    least ``_MARGIN`` above the least end so far: that f and every later
    one have an end above it and cannot lower the min.  A lower end is
    clamped at 0, so the lower scan also stops once the min is 0.  The
    result is the min over every f bit for bit.
    """
    floors = _sup_floors(space, W, F, t, budget, lower)
    for k in np.argsort(floors, kind="stable"):
        if floors[k] - _MARGIN >= best or (lower and best <= 0.0):
            break
        b = beta_sup(space, F[k], t, budget)
        best = min(best, b.lower if lower else b.upper)
    return best


def _sup_floors(space: SpaceDescriptor, W: SpaceDescriptor, F: np.ndarray,
                t: float, budget: Budget, lower: bool) -> np.ndarray:
    """For each row f of F, beta_sup(space, f, t, budget)'s lower (``lower``)
    or upper end evaluated on every ``_PRUNE_STRIDE``-th point of its x grid
    and on f's duality preimage, against f's full candidate rows.

    The masks of the rows are ``_surface_masks``' for all f of a block at
    once, the preimages one ``_support_array`` call; both are beta_sup's,
    value for value.  The products differ from beta_sup's in rounding only:
    g.x for a cut point g = f + t u is f.x + t (u.x), and the max of that
    over u is f.x + t max u.x, since rounding is monotone.  Blocks of f keep
    every temporary at about ``_BLOCK`` entries."""
    res_x, res_g = _sup_resolutions(space, W, budget)
    xgrid = sphere_grid(space, res_x)
    ggrid = sphere_grid(W, res_g)
    S, h = ggrid.points, ggrid.covering
    Xs = xgrid.points[::_PRUNE_STRIDE]
    P = _support_array(W, F)
    n_x = max(1, _BLOCK // len(S))
    n_f = max(1, n_x // (len(Xs) + 1))
    floors = np.empty(len(F))
    for i in range(0, len(F), n_f):
        Fb = F[i:i + n_f]
        _, feasible, relaxed = _surface_masks(W, Fb, S, t, h)
        sph, cut = relaxed if lower else feasible
        # x axis: the strided grid, then the preimage
        XP = np.concatenate([np.broadcast_to(Xs, (len(Fb),) + Xs.shape),
                             P[i:i + n_f, None, :]], axis=1)
        g = np.concatenate([_top_products(XP[:, j:j + n_x], Fb, S, sph, cut, t)
                            for j in range(0, XP.shape[1], n_x)], axis=1)
        if lower:
            floors[i:i + n_f] = np.maximum((1.0 - g - max(h, t * h)).max(axis=-1), 0.0)
        else:
            floors[i:i + n_f] = (1.0 - g).max(axis=-1) + xgrid.covering
    return floors


def _top_products(XP: np.ndarray, F: np.ndarray, S: np.ndarray, sph: np.ndarray,
                  cut: np.ndarray, t: float) -> np.ndarray:
    """max of g.x over the candidate rows g of each f (row of F): the points
    of S where ``sph``, the cut points f + t*S where ``cut`` (masks of shape
    (f, S)), and -f; for each f and each x in the rows of XP[f] (laid out
    (f, x, rows) and reduced over the rows)."""
    us = XP @ S.T
    fx = np.einsum("fxd,fd->fx", XP, F)
    on_sphere = np.where(sph[:, None, :], us, -np.inf).max(axis=-1)
    on_cut = fx + t * np.where(cut[:, None, :], us, -np.inf).max(axis=-1)
    return np.maximum(np.maximum(on_sphere, on_cut), -fx)
