"""Independent ground truth for the certified engines.

Two paths: a plain brute-force Lipschitz grid search (dimension <= 3)
and exact rational enumeration for 2-D polyhedral norms.  The verification
harness compares engine brackets against both.  The grid search has its
own grids and scans, but it shares with the engine the norm kernels
(``spaces._norm_array``, ``_dual_norm_array``, ``polar_space``) and the
3-D icosphere with its covering radius (``gridutil._icosphere``,
``_max_circumradius``): a change to those moves both sides of a
comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bracket import GRID, Bracket
from .errors import BudgetError, DomainError
from . import exactpoly
from .exactpoly import Polygon
from .gridutil import _icosphere, _max_circumradius
from .spaces import SpaceDescriptor, polar_space, _dual_norm_array, _norm_array

_MAX_EVALS = 100_000_000


# -- plain grids ------------------------------------------------------------


def _consts(space: SpaceDescriptor) -> tuple[float, float]:
    d = space.dim
    E = np.eye(d)
    C = math.sqrt(d) * float(np.max(_norm_array(space, E)))
    c = 1.0 / (math.sqrt(d) * float(np.max(_dual_norm_array(space, E))))
    return c, C


def _sphere(space: SpaceDescriptor, resolution: float) -> tuple[np.ndarray, float]:
    """(points, covering) on the unit sphere, brute-force flavour; the dual
    sphere is ``_sphere(polar_space(space), resolution)``."""
    c, C = _consts(space)
    L = 2.0 * C / c
    if space.dim == 2:
        n = max(8, int(math.ceil(math.pi * L / resolution)))
        n += n % 2  # keep antipodal pairs exact
        if n > _MAX_EVALS:
            raise BudgetError("oracle sphere grid too large")
        th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        h = L * math.pi / n
    elif space.dim == 3:
        level = 0
        while True:
            V, F = _icosphere(level)
            r = _max_circumradius(V, F)
            if L * r <= resolution or len(V) > 100_000:
                break
            level += 1
        dirs, h = V, L * r
    else:
        raise DomainError("the oracle grid is limited to dimension <= 3")
    pts = dirs / _norm_array(space, dirs)[:, None]
    return pts, h


def grid_bracket(kind: str, space: SpaceDescriptor, resolution: float,
                 **args) -> Bracket:
    """Brute-force certified bracket for one of the supported problem kinds:
    delta, s, d, beta, beta_sup, slice-diameter.  The ends are passed to
    ``Bracket`` as computed, so an inverted pair raises ``ValueError``."""
    if resolution <= 0:
        raise DomainError("resolution must be positive")
    if space.dim > 3:
        raise DomainError("the oracle grid is limited to dimension <= 3")
    fn = {
        "delta": _g_delta,
        "s": _g_s,
        "d": _g_d,
        "beta": _g_beta,
        "beta_sup": _g_beta_sup,
        "slice-diameter": _g_slice,
    }.get(kind)
    if fn is None:
        raise DomainError(f"unsupported oracle problem kind {kind!r}")
    lower, upper, lip = fn(space, resolution, **args)
    return Bracket(lower=lower, upper=upper, method=GRID,
                   resolution=resolution, lipschitz=lip)


def _g_delta(space, resolution, *, t):
    pts, h = _sphere(space, resolution)
    n = len(pts)
    if n * n > _MAX_EVALS:
        raise BudgetError("oracle pair grid too large")
    best_f, best_r = math.inf, math.inf
    for i in range(0, n, 512):
        blk = pts[i:i + 512]
        dist = _norm_array(space, blk[:, None, :] - pts[None, :, :])
        vals = 1.0 - 0.5 * _norm_array(space, blk[:, None, :] + pts[None, :, :])
        if np.any(dist >= t):
            best_f = min(best_f, float(np.min(vals[dist >= t])))
        relax = dist >= t - 2.0 * h
        if np.any(relax):
            best_r = min(best_r, float(np.min(vals[relax])))
    # delta >= 0 a priori, and a negative value is rounding in ||x+y|| <= 2
    return max(0.0, best_r - h), max(best_f, 0.0), 1.0


def _kernel_dir(f: np.ndarray) -> np.ndarray:
    v = np.array([-f[1], f[0]])
    return v / np.linalg.norm(v)


def _g_s(space, resolution, *, x, f, t):
    if space.dim != 2:
        raise DomainError("oracle s grid implemented for dimension 2")
    xa, fa = np.asarray(x, float), np.asarray(f, float)
    c, C = _consts(space)
    v = _kernel_dir(fa)
    R = (2.0 + t / 4.0) / c * 1.05
    n = int(math.ceil(2.0 * R / (resolution / C))) + 1
    s = np.linspace(-R, R, n)
    Y = s[:, None] * v[None, :]
    w = _norm_array(space, Y)
    vals = _norm_array(space, xa + Y) - 1.0
    nv = float(_norm_array(space, v))
    b = _norm_array(space, xa + np.array([1.0, -1.0])[:, None] * (t / 4.0 / nv) * v) - 1.0
    slack = C * (s[1] - s[0]) * 0.5
    feas = w >= t / 4.0
    upper = min(float(np.min(vals[feas], initial=np.inf)), float(np.min(b)))
    relax = (w >= t / 4.0 - slack) & (w <= 2.0 + t / 4.0 + slack)
    lower = min(float(np.min(vals[relax], initial=np.inf)), float(np.min(b))) - slack
    return lower, upper, C


def _g_d(space, resolution, *, x, t):
    if space.dim != 2:
        raise DomainError("oracle d grid implemented for dimension 2")
    xa = np.asarray(x, float)
    F, h_f = _sphere(polar_space(space), resolution * 4.0)
    # moving a minimizer (norm <= 2 + t/4 + margin) from ker f0 into ker f
    # costs at most h_f * (3 + t/4); tighten the shell by the same amount
    m = h_f * (3.0 + t / 4.0)
    lower, upper = 0.0, -math.inf
    for fa in F:
        lo, _, _ = _g_s(space, resolution, x=xa, f=fa, t=t)
        lower = max(lower, lo)
        _, up_t, _ = _g_s(space, resolution, x=xa, f=fa, t=t + 4.0 * m)
        upper = max(upper, up_t)
    return lower, upper + m, 3.0 + t / 4.0


def _dual_ball_grid(space, resolution, fa):
    W = polar_space(space)
    S, h_s = _sphere(W, resolution)
    n_r = max(2, int(math.ceil(1.0 / resolution)))
    radii = np.linspace(0.0, 1.0, n_r + 1)
    pts = (radii[:, None, None] * S[None, :, :]).reshape(-1, space.dim)
    pts = np.vstack([pts, [-fa]])
    return W, pts, 1.0 / n_r + h_s


def _g_beta(space, resolution, *, f, x, t):
    fa, xa = np.asarray(f, float), np.asarray(x, float)
    W, pts, h = _dual_ball_grid(space, resolution, fa)
    dist = _norm_array(W, pts - fa)
    vals = 1.0 - pts @ xa
    upper = float(np.min(vals[dist >= t], initial=np.inf))
    lower = float(np.min(vals[dist >= t - h], initial=np.inf)) - h
    return max(lower, 0.0), upper, 1.0


def _g_beta_sup(space, resolution, *, f, t):
    fa = np.asarray(f, float)
    W, pts, h = _dual_ball_grid(space, resolution, fa)
    X, h_x = _sphere(space, resolution)
    dist = _norm_array(W, pts - fa)
    feas, relax = dist >= t, dist >= t - h
    vals = pts @ X.T
    upper = 1.0 - np.max(np.where(feas[:, None], vals, -np.inf), axis=0)
    lower = 1.0 - np.max(np.where(relax[:, None], vals, -np.inf), axis=0) - h
    return max(float(np.max(lower)), 0.0), float(np.max(upper)) + h_x, 1.0


def _g_slice(space, resolution, *, direction, alpha, ball_side="primal"):
    W = space if ball_side == "primal" else polar_space(space)
    v = np.asarray(direction, float)
    if alpha >= float(_dual_norm_array(W, v)):
        return 0.0, 0.0, 1.0
    pts, h = _sphere(W, resolution)
    vals = pts @ v
    feas, relax = pts[vals >= alpha], pts[vals >= alpha - h]

    def diam(P):
        if len(P) < 2:
            return 0.0
        best = 0.0
        for i in range(0, len(P), 512):
            best = max(best, float(np.max(
                _norm_array(W, P[i:i + 512, None, :] - P[None, :, :]))))
        return best

    return diam(feas), diam(relax) + 2.0 * h, 1.0


# -- exact rational path ----------------------------------------------------


def _rational(c) -> Fraction:
    """The oracle's one float-to-rational rule, nearest with denominator at
    most 10^12: 0.6 becomes 3/5.  t may round below itself, so an exact
    value is a reference, not a bound."""
    return Fraction(c).limit_denominator(10 ** 12)


def _frac_vec(v) -> tuple[Fraction, Fraction]:
    return (_rational(v[0]), _rational(v[1]))


def to_polygon(space: SpaceDescriptor) -> Polygon:
    if space.kind != "polyhedral" or space.dim != 2:
        raise DomainError("the exact path requires a 2-D polyhedral space")
    return Polygon([_frac_vec(v) for v in space.vertices])


def exact_slice_diameter(space: SpaceDescriptor, direction, alpha,
                         ball_side: str = "primal") -> Fraction:
    ball = to_polygon(space)
    if ball_side == "dual":
        ball = ball.polar()
    return exactpoly.slice_diameter_exact(ball, _frac_vec(direction), _rational(alpha))


def exact_beta_point(space: SpaceDescriptor, f, x, t) -> Fraction:
    dual = to_polygon(space).polar()
    return exactpoly.beta_point_exact(dual, _frac_vec(f), _frac_vec(x), _rational(t))


def exact_beta_sup(space: SpaceDescriptor, f, t) -> Fraction:
    primal = to_polygon(space)
    return exactpoly.beta_sup_exact(primal, primal.polar(), _frac_vec(f), _rational(t))


def exact_s_point(space: SpaceDescriptor, x, f, t) -> Fraction:
    return exactpoly.s_point_exact(to_polygon(space), _frac_vec(x), _frac_vec(f), _rational(t))


def _on_sphere(ball: Polygon, v) -> tuple[Fraction, Fraction]:
    """v in exact arithmetic, scaled radially onto the sphere of ``ball``.
    The sign tests take their point through it: a float point of a sphere
    edge is off it by about an ulp, and just outside the ball d reads
    positive where it is 0 on the sphere."""
    a = _frac_vec(v)
    scale = ball.gauge(a)
    return (a[0] / scale, a[1] / scale)


def exact_d_positive(space: SpaceDescriptor, x, t) -> bool:
    """Exact sign of d(x, t) on a 2-D polyhedral sphere: True iff positive."""
    ball = to_polygon(space)
    return not exactpoly.denting_nonpositive(ball, _on_sphere(ball, x), _rational(t))


def exact_d_star_positive(space: SpaceDescriptor, f, t) -> bool:
    """Exact sign of d*(f, t): the same test on the polar polygon."""
    dual = to_polygon(space).polar()
    return not exactpoly.denting_nonpositive(dual, _on_sphere(dual, f), _rational(t))


def exact_d_star_zero_is_zero(space: SpaceDescriptor, f, t) -> bool:
    """True when d*_0(f, t) = 0 exactly: no g in the closed t-neighbourhood
    of f on the dual sphere is w*-denting at scale t."""
    dual = to_polygon(space).polar()
    return exactpoly.dstar_zero_nonpositive(dual, _on_sphere(dual, f), _rational(t))


# -- the fixed oracle/engine battery ---------------------------------------

# 30 instances in dimension <= 3 exercising every modulus family.
BATTERY: list[dict] = [
    {"kind": "delta", "space": "l2-2", "args": {"t": 1.0}},
    {"kind": "delta", "space": "l2-2", "args": {"t": 0.5}},
    {"kind": "delta", "space": "lp:1.5-2d", "args": {"t": 1.0}},
    {"kind": "delta", "space": "lp:3-2d", "args": {"t": 1.0}},
    {"kind": "delta", "space": "linf-2d", "args": {"t": 1.0}},
    {"kind": "delta", "space": "l1-2d", "args": {"t": 0.5}},
    {"kind": "delta", "space": "square-rot", "args": {"t": 1.0}},
    {"kind": "delta", "space": "l2-3", "args": {"t": 1.0}},
    {"kind": "s", "space": "l2-2", "args": {"x": (1.0, 0.0), "f": (1.0, 0.0), "t": 1.0}},
    {"kind": "s", "space": "l2-2", "args": {"x": (1.0, 0.0), "f": (0.0, 1.0), "t": 1.0}},
    {"kind": "s", "space": "linf-2d", "args": {"x": (1.0, 1.0), "f": (0.5, 0.5), "t": 1.0}},
    {"kind": "s", "space": "l1-2d", "args": {"x": (1.0, 0.0), "f": (1.0, 0.0), "t": 1.0}},
    {"kind": "s", "space": "lp:1.5-2d", "args": {"x": (1.0, 0.0), "f": (1.0, 0.0), "t": 0.8}},
    {"kind": "s", "space": "square-rot", "args": {"x": (0.2, 1.4), "f": (0.8, 0.6), "t": 1.0}},
    {"kind": "d", "space": "l2-2", "args": {"x": (1.0, 0.0), "t": 1.0}},
    {"kind": "d", "space": "linf-2d", "args": {"x": (1.0, 1.0), "t": 1.0}},
    {"kind": "d", "space": "linf-2d", "args": {"x": (1.0, 0.0), "t": 0.5}},
    {"kind": "d", "space": "l1-2d", "args": {"x": (1.0, 0.0), "t": 0.5}},
    {"kind": "d", "space": "l1-2d", "args": {"x": (0.5, 0.5), "t": 0.5}},
    {"kind": "d", "space": "square-rot", "args": {"x": (0.2, 1.4), "t": 0.5}},
    {"kind": "beta", "space": "l2-2", "args": {"f": (1.0, 0.0), "x": (1.0, 0.0), "t": 0.5}},
    {"kind": "beta", "space": "l2-2", "args": {"f": (1.0, 0.0), "x": (1.0, 0.0), "t": 0.25}},
    {"kind": "beta", "space": "l1-2d", "args": {"f": (1.0, 0.0), "x": (1.0, 0.0), "t": 0.5}},
    {"kind": "beta", "space": "linf-2d", "args": {"f": (1.0, 0.0), "x": (1.0, 0.0), "t": 0.5}},
    {"kind": "beta", "space": "lp:1.5-2d", "args": {"f": (1.0, 0.0), "x": (1.0, 0.0), "t": 0.5}},
    {"kind": "beta_sup", "space": "l2-2", "args": {"f": (1.0, 0.0), "t": 0.5}},
    {"kind": "beta_sup", "space": "l1-2d", "args": {"f": (1.0, 0.0), "t": 0.5}},
    {"kind": "beta_sup", "space": "l1-2d", "args": {"f": (1.0, 1.0), "t": 0.25}},
    {"kind": "slice-diameter", "space": "l2-2",
     "args": {"direction": (1.0, 0.0), "alpha": 0.9365, "ball_side": "dual"}},
    {"kind": "slice-diameter", "space": "l1-2d",
     "args": {"direction": (1.0, 0.0), "alpha": 0.5, "ball_side": "dual"}},
]
assert len(BATTERY) == 30
