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
from .denting import _resolution
from .errors import DomainError
from .gridutil import sphere_grid
from .spaces import (SpaceDescriptor, duality_preimage, lp_space, polar_space,
                     _norm_array, _unit_coords)


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


def _candidate_surfaces(W: SpaceDescriptor, fa: np.ndarray, t: float,
                        res: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(feasible candidates, relaxed candidates, covering slack) covering the
    extreme points of {g in B(W) : ||f - g|| >= t} in the norm of W."""
    grid = sphere_grid(W, res)
    h = grid.covering
    S = grid.points
    dist = _norm_array(W, S - fa)
    sphere_feas = S[dist >= t]
    sphere_relax = S[dist >= t - h]
    # the cut surface {g = f + t u : u unit}, covered within t*h
    cut = fa + t * S
    cut_norm = _norm_array(W, cut)
    cut_feas = cut[cut_norm <= 1.0]
    cut_relax = cut[cut_norm <= 1.0 + t * h]
    feas = np.vstack([sphere_feas, cut_feas, [-fa]])
    relax = np.vstack([sphere_relax, cut_relax, [-fa]])
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


def _beta_sup_grid(space: SpaceDescriptor, W: SpaceDescriptor, fa: np.ndarray,
                   t: float, budget: Budget) -> Bracket:
    """beta_sup's certified search: a primal-sphere covering plus the duality
    preimage of f, against the candidate surfaces of W = polar(space)."""
    res_x = _resolution(budget, 2e-3, 0.08, space.dim)
    res_g = _resolution(budget, 1.5e-3, 0.06, W.dim)
    xgrid = sphere_grid(space, res_x)
    X = np.vstack([xgrid.points, duality_preimage(space, fa).array[None, :]])
    feas, relax, h_g = _candidate_surfaces(W, fa, t, res_g)
    lower = -math.inf
    upper = -math.inf
    # blocks of <= 2.5e5 products (2 MB) keep the peak memory low
    chunk = max(1, int(250_000 // max(len(feas), 1)))
    for i in range(0, len(X), chunk):
        blk = X[i:i + chunk]
        up_pt = 1.0 - np.max(feas @ blk.T, axis=0)
        lo_pt = 1.0 - np.max(relax @ blk.T, axis=0) - h_g
        lower = max(lower, float(np.max(lo_pt)))
        upper = max(upper, float(np.max(up_pt)))
    return Bracket(lower=max(lower, 0.0), upper=upper + xgrid.covering,
                   method=GRID, resolution=res_x, lipschitz=1.0, seed=budget.seed)


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
    values = []
    for t in ts:
        _check_beta_domain(t)
        values.append(_beta_global_single(space, t, budget))
    return ModulusCurve(kind="beta", t_grid=ts, values=tuple(values))


def _beta_global_single(space: SpaceDescriptor, t: float, budget: Budget) -> Bracket:
    if is_euclidean(space):
        return _beta_sup_euclidean(t, budget)
    W = polar_space(space)
    exact_2d = space.kind == "polyhedral" and space.dim == 2
    res_f = _resolution(budget, 0.05 if exact_2d else 0.02, 0.15, W.dim)
    fgrid = sphere_grid(W, res_f)
    h_f = fgrid.covering
    inner = budget.with_resolution(
        _resolution(budget, 0.02 if exact_2d else 8e-3, 0.1, W.dim))
    lower = math.inf
    upper = math.inf
    t_relax = max(t - h_f, 1e-9)
    for fa in fgrid.points:
        b_rel = beta_sup(space, fa, t_relax, inner)
        lower = min(lower, b_rel.lower)
        b_at = beta_sup(space, fa, t, inner)
        upper = min(upper, b_at.upper)
    if exact_2d:
        # exact values at dual-sphere vertices and edge midpoints pin the
        # upper bound (each is a genuine unit functional, so inf <= value)
        from .oracle import exact_beta_sup, to_polygon
        dual = to_polygon(space).polar()
        n = len(dual.vertices)
        for i, v in enumerate(dual.vertices):
            w = dual.vertices[(i + 1) % n]
            for cand in (v, ((v[0] + w[0]) / 2, (v[1] + w[1]) / 2)):
                scale = dual.gauge(cand)
                g = (cand[0] / scale, cand[1] / scale)
                upper = min(upper, float(exact_beta_sup(space, g, t)))
    return Bracket(lower=max(lower, 0.0), upper=upper, method=GRID,
                   resolution=res_f, lipschitz=1.0, seed=budget.seed)
