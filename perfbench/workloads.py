"""The benchmark's seeded workloads.

Each builder takes a ``numpy`` generator made from ``--seed`` and returns the
list of ops one pass runs.  An op names a public ``ballmoduli`` function and
its arguments; the worker looks the function up on the package at call time,
so the tracer's wrappers are used when tracing is on.  Every op carries what
a correct result looks like: a closed form, an exact rational value from
``ballmoduli.oracle`` (computed after the timed pass), an admissible range,
or the named condition of an expected failure.

Seeded parameters sit near fixed slots (see ``JITTER``), so every input
depends on the seed while the work of a pass barely does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

import numpy as np

import ballmoduli as bm
from ballmoduli import Budget, Slice, oracle
from ballmoduli.exactpoly import Polygon, hull_ccw

from checker import Expect


@dataclass
class Op:
    label: str
    call: str  # name of a public ballmoduli function
    args: tuple
    kwargs: dict = field(default_factory=dict)
    # an Expect, or a function computing one after the timed pass
    expect: Union[Expect, Callable[[], Expect]] = field(default_factory=Expect)
    # what is still known when that function raises (the op is then reported
    # as unverified, not as failed)
    fallback: Expect = field(default_factory=Expect)


# Seeded values sit at fixed slots moved by a uniform draw of +-JITTER/2 of a
# slot's width (directions: by up to ANGLE_JITTER radians), so every input
# depends on the seed while the work and the widths of a pass, which depend
# on thresholds, directions and t, stay nearly the same.  A slice's grid
# points decide both the work of its diameter (their number squared) and
# its bracket's width (a move of one grid step changes which points are in
# the slice), so the moves stay well below the 5e-3 grid step: at
# JITTER = 0.1 one polygon slice diameter's time varied by up to 15 % from
# seed to seed, and at 0.02 slice-geometry's width_sum by 4 %.
JITTER = 0.005
ANGLE_JITTER = 0.0025


def spread(rng: np.random.Generator, lo: float, hi: float, k: int,
           digits: int = 3) -> list[float]:
    """k seeded values, one near the centre of each of k equal parts of
    [lo, hi], rounded so that they are short exact decimals."""
    u = (np.arange(k) + 0.5 + JITTER * (rng.random(k) - 0.5)) / k
    return [round(float(v), digits) for v in lo + (hi - lo) * u]


# -- closed forms --------------------------------------------------------------


def delta_hilbert(t: float) -> float:
    """Modulus of convexity of a Euclidean plane; by Nordlander's theorem it
    bounds that of every normed space of dimension >= 2 from above."""
    return 1.0 - math.sqrt(1.0 - t * t / 4.0)


def delta_lp(p: float, t: float) -> float:
    """Modulus of convexity of lp (p >= 2), attained in the plane (Clarkson)."""
    return 1.0 - (1.0 - (t / 2.0) ** p) ** (1.0 / p)


def s_euclid(t: float) -> float:
    """s(x, f, t) = d(x, t) for a norming pair of a Euclidean space."""
    return math.sqrt(1.0 + t * t / 16.0) - 1.0


def beta_euclid(f, x, t: float) -> float:
    """beta(f, x, t) of a Euclidean space: the best g sits on the circle
    through f and x at angle max(0, theta_t - angle(f, x)) from x."""
    theta_t = 2.0 * math.asin(t / 2.0)
    phi = math.acos(max(-1.0, min(1.0, float(np.dot(f, x)))))
    return 1.0 - math.cos(max(0.0, theta_t - phi))


def beta_range(f, x, t: float) -> Expect:
    """0 <= beta(f, x, t) <= 1 - (1 - t) f(x): g = (1 - t) f is feasible."""
    return Expect(lo=0.0, hi=1.0 - (1.0 - t) * float(np.dot(f, x)))


def chord(alpha: float) -> float:
    """Diameter of the Euclidean slice {v >= alpha}, 0 < alpha < 1."""
    return 2.0 * math.sqrt(1.0 - alpha * alpha)


# -- inputs ----------------------------------------------------------------------


def directions(space, rng: np.random.Generator, k: int, dual: bool = False) -> list:
    """k seeded unit vectors (unit functionals if dual) near k fixed,
    well-spread directions: slot angles of a half turn in 2-D, a Fibonacci
    hemisphere in 3-D (the balls are symmetric, so -v adds nothing to v)."""
    if space.dim == 2:
        angles = (0.3 + math.pi * (np.arange(k) + 0.5) / k
                  + ANGLE_JITTER * (rng.random(k) - 0.5))
        raw = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    else:
        z = 1.0 - (np.arange(k) + 0.5) / k
        r = np.sqrt(1.0 - z * z)
        th = math.pi * (3.0 - math.sqrt(5.0)) * np.arange(k)
        raw = np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)
        raw = raw + 0.5 * ANGLE_JITTER * rng.standard_normal(raw.shape)
    n = bm.dual_norm(space, raw) if dual else bm.norm(space, raw)
    return list(raw / np.asarray(n)[:, None])


def seeded_polygon(rng: np.random.Generator, pairs: int) -> list[tuple[Fraction, Fraction]]:
    """A symmetric polygon with 2*pairs vertices on the 1/16 grid: angles
    near the slots of a half turn, radii in [0.95, 1.05]."""
    angles = math.pi * (np.arange(pairs) + 0.5 + JITTER * (rng.random(pairs) - 0.5)) / pairs
    radii = 1.0 + 0.1 * (rng.random(pairs) - 0.5)
    half = [(Fraction(round(16 * r * math.cos(a)), 16),
             Fraction(round(16 * r * math.sin(a)), 16))
            for a, r in zip(angles, radii)]
    hull = hull_ccw(half + [(-x, -y) for x, y in half])
    if len(hull) != 2 * pairs:  # near-regular, so this does not happen
        raise ValueError(f"seeded polygon lost a vertex: {hull}")
    return hull


def boundary_point(poly: Polygon, rng: np.random.Generator, j: int):
    """A rational point near the middle of edge j (its slot), on the 1/1024
    grid of the edge, with the edge's index."""
    i = j % len(poly.vertices)
    v, w = poly.vertices[i], poly.vertices[(i + 1) % len(poly.vertices)]
    lam = Fraction(round(1024 * (0.5 + JITTER * (float(rng.random()) - 0.5))), 1024)
    return i, (v[0] + lam * (w[0] - v[0]), v[1] + lam * (w[1] - v[1]))


def floats(v) -> tuple[float, ...]:
    return tuple(float(c) for c in v)


def longest_edge(poly: Polygon) -> Fraction:
    """Largest own-norm length of an edge: delta(t) = 0 up to this t."""
    return max(poly.gauge((w[0] - v[0], w[1] - v[1])) for v, w in poly.edges())


# -- slice-geometry --------------------------------------------------------------

SLICE_SPACES = ("l2-2", "lp:1.5-2d", "l1-2d", "linf-2d", "square-rot")
SLICE_BUDGET = Budget(resolution=5e-3)  # the lemma battery's 2-D slice budget
POLYGON_PRESETS = ("l1-2d", "linf-2d", "square-rot")


def slice_geometry(rng: np.random.Generator) -> list[Op]:
    # the separating balls go first: the disk's recipe sets the peak memory,
    # which then does not depend on what earlier ops left in the heap
    ops = _separating_balls(rng)
    for name in SLICE_SPACES:
        sp = bm.preset(name)
        W = bm.polar_space(sp)
        exact = name in POLYGON_PRESETS
        euclid = name == "l2-2"
        primal_dirs = directions(sp, rng, 2, dual=True)
        dual_dirs = directions(W, rng, 2, dual=True)
        for j, alpha in enumerate(spread(rng, 0.3, 0.85, 4)):
            side = "primal" if j % 2 == 0 else "dual"
            v = (primal_dirs if side == "primal" else dual_dirs)[j // 2]
            expect = Expect(lo=0.0, hi=2.0)
            if euclid:
                expect = Expect(value=chord(alpha))
            elif exact:
                expect = _exact(oracle.exact_slice_diameter, sp, tuple(v), alpha, side)
            ops.append(Op(f"slice_diameter/{name}/{side}", "slice_diameter",
                          (sp, Slice.of(v, alpha, side), SLICE_BUDGET), expect=expect,
                          fallback=Expect(lo=0.0, hi=2.0)))
        for x, t in zip(directions(sp, rng, 3), spread(rng, 0.3, 1.2, 3)):
            f = bm.support_functional(sp, x).array
            ops.append(Op(f"s_point/{name}", "s_point", (sp, x, f, t, SLICE_BUDGET),
                          expect=_s_expect(sp, x, f, t, exact, euclid), fallback=s_range(t)))
        for f, t in zip(directions(sp, rng, 3, dual=True), spread(rng, 0.3, 1.2, 3)):
            x = bm.duality_preimage(sp, f).array
            ops.append(Op(f"s_star/{name}", "s_star", (sp, f, x, t, SLICE_BUDGET),
                          expect=_s_expect(W, f, x, t, exact, euclid), fallback=s_range(t)))
    seed = int(rng.integers(1 << 16))
    ops.append(Op("run_suite/lemmas", "run_suite", ("lemmas",),
                  dict(spaces=list(SLICE_SPACES), seed=seed, instances_per_lemma=3),
                  expect=Expect(report=True)))
    return ops


def _exact(fn, *args) -> Callable[[], Expect]:
    return lambda: Expect(value=float(fn(*args)))


def _s_expect(space, x, f, t, exact: bool, euclid: bool):
    if euclid:
        return Expect(value=s_euclid(t))
    if exact:
        return _exact(oracle.exact_s_point, space, tuple(x), tuple(f), t)
    return s_range(t)


def s_range(t: float) -> Expect:
    """A norming pair gives s >= 0; the shell point ||y|| = t/4 gives s <= t/4."""
    return Expect(lo=0.0, hi=t / 4.0)


def _separating_balls(rng: np.random.Generator) -> list[Op]:
    """The recipe on the disk (succeeds) and on the l1 plane, whose square
    dual ball has no small w*-slices (fails with the named condition)."""
    eps, M, f = 0.8, 1.0, (1.0, 0.0)
    # f >= eps on C, and C lies in the unit ball of both norms
    C = [(round(float(rng.uniform(0.82, 0.86)), 3), round(float(y), 3))
         for y in (-rng.uniform(0.02, 0.12), rng.uniform(0.02, 0.12))]
    l2, l1 = bm.preset("l2-2"), bm.preset("l1-2d")
    return [
        Op("construct_separating_ball/l2-2", "construct_separating_ball",
           (l2, C, f, eps, M, Budget(resolution=1.5e-3)),
           expect=Expect(ball=(C, f, eps, lambda v: float(bm.norm(l2, v))))),
        Op("construct_separating_ball/l1-2d", "construct_separating_ball",
           (l1, C, f, eps, M, Budget(resolution=1e-2)),
           expect=Expect(raises="no-small-slice-witness")),
    ]


# -- smooth-sweeps ---------------------------------------------------------------

SWEEP_BUDGET = Budget(resolution=4e-2)
CONVEXITY_BUDGET = Budget(resolution=2e-2)
DSTAR_ZERO_BUDGET = Budget(resolution=0.3)


def smooth_sweeps(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []
    for name, sp, p in (("lp:1.5-2d", bm.preset("lp:1.5-2d"), None),
                        ("lp:3-2d", bm.preset("lp:3-2d"), 3.0),
                        ("wlp:3:1,2", bm.weighted_lp_space(3.0, (1.0, 2.0)), 3.0)):
        for t in spread(rng, 0.2, 1.8, 5):
            # weighted lp is isometric to lp, so Clarkson's form holds for both
            expect = (Expect(value=delta_lp(p, t)) if p is not None
                      else Expect(lo=0.0, hi=delta_hilbert(t)))
            ops.append(Op(f"modulus_convexity/{name}", "modulus_convexity",
                          (sp, t, CONVEXITY_BUDGET), expect=expect))
        for call in ("d_global", "d_star_global"):
            for t in spread(rng, 0.2, 1.6, 3):
                ops.append(Op(f"{call}/{name}", call, (sp, t, SWEEP_BUDGET),
                              expect=s_range(t)))
        for t in spread(rng, 0.2, 0.8, 2):
            ops.append(Op(f"beta_global/{name}", "beta_global", (sp, [t], SWEEP_BUDGET),
                          expect=Expect(lo=0.0, hi=1.0)))
    t = spread(rng, 0.15, 0.3, 1)[0]
    ops.append(Op("d_star_zero_global/lp:1.5-2d", "d_star_zero_global",
                  (bm.preset("lp:1.5-2d"), t, DSTAR_ZERO_BUDGET),
                  expect=s_range(t)))
    return ops


# -- polygon-exact ---------------------------------------------------------------

POLY_COARSE = Budget(resolution=1.5e-2)
POLY_FINE = Budget(resolution=5e-3)
POLY_GLOBAL = Budget(resolution=0.2)


def polygon_exact(rng: np.random.Generator) -> list[Op]:
    spaces = [(name, bm.preset(name)) for name in POLYGON_PRESETS]
    for pairs in (3, 4):
        verts = seeded_polygon(rng, pairs)
        spaces.append((f"poly{2 * pairs}", bm.polyhedral_space([floats(v) for v in verts])))
    ops: list[Op] = []
    for name, sp in spaces:
        poly = oracle.to_polygon(sp)
        dual = poly.polar()
        t = round(float(longest_edge(poly)) * spread(rng, 0.3, 0.9, 1)[0], 3)
        ops.append(Op(f"modulus_convexity/{name}", "modulus_convexity",
                      (sp, t, POLY_COARSE), expect=Expect(value=0.0)))
        for j, t in enumerate(spread(rng, 0.3, 1.2, 2)):
            i, x = boundary_point(poly, rng, 2 * j)
            x, f = floats(x), floats(poly.facets[i])  # the edge's norming functional
            ops.append(Op(f"s_point/{name}", "s_point", (sp, x, f, t),
                          expect=_exact(oracle.exact_s_point, sp, x, f, t),
                          fallback=s_range(t)))
        for j, t in enumerate(spread(rng, 0.3, 1.2, 2)):
            x = floats(boundary_point(poly, rng, 2 * j + 1)[1])
            ops.append(Op(f"d_point/{name}", "d_point", (sp, x, t, POLY_COARSE),
                          expect=_d_sign(sp, x, t), fallback=s_range(t)))
        for j, t in enumerate(spread(rng, 0.2, 0.8, 2)):
            f = floats(boundary_point(dual, rng, 2 * j)[1])
            x = floats(boundary_point(poly, rng, 2 * j + 1)[1])
            ops.append(Op(f"beta_point/{name}", "beta_point", (sp, f, x, t),
                          expect=_exact(oracle.exact_beta_point, sp, f, x, t),
                          fallback=beta_range(f, x, t)))
        for j, t in enumerate(spread(rng, 0.2, 0.8, 3)):
            f = floats(boundary_point(dual, rng, j)[1])
            ops.append(Op(f"beta_sup/{name}", "beta_sup", (sp, f, t, POLY_FINE),
                          expect=_exact(oracle.exact_beta_sup, sp, f, t),
                          fallback=Expect(lo=0.0, hi=1.0)))
        for j, (side, alpha) in enumerate(zip(("primal", "dual"), spread(rng, 0.3, 0.85, 2))):
            ball = poly if side == "primal" else dual
            # a point of the polar's boundary is a unit functional on the ball
            v = floats(boundary_point(ball.polar(), rng, j)[1])
            ops.append(Op(f"slice_diameter/{name}/{side}", "slice_diameter",
                          (sp, Slice.of(v, alpha, side), POLY_FINE),
                          expect=_exact(oracle.exact_slice_diameter, sp, v, alpha, side),
                          fallback=Expect(lo=0.0, hi=2.0)))
    for (name, sp), t in zip((spaces[0], spaces[2]), spread(rng, 0.2, 0.8, 2)):
        ops.append(Op(f"beta_global/{name}", "beta_global", (sp, [t], POLY_GLOBAL),
                      expect=_beta_global_expect(sp, t), fallback=Expect(lo=0.0, hi=1.0)))
    ops.append(Op("run_suite/mip-detect", "run_suite", ("mip-detect",),
                  expect=Expect(report=True, flags={"l1-2d": "MIP: violated",
                                                    "l2-2": "MIP: positive"})))
    return ops


def _d_sign(space, x, t) -> Callable[[], Expect]:
    """d(x, t) >= 0 always; the exact sign test pins d = 0 when it fails."""
    def expect() -> Expect:
        if oracle.exact_d_positive(space, x, t):
            return Expect(lo=0.0, hi=t / 4.0, positive=True)  # d <= s <= t/4
        return Expect(value=0.0)
    return expect


def _beta_global_expect(space, t) -> Callable[[], Expect]:
    """beta(t) <= beta(g, t) for every unit g; the exact beta(g, t) at the
    dual polygon's vertices and edge midpoints bounds it, and pins it to 0
    when one of them vanishes."""
    def expect() -> Expect:
        dual = oracle.to_polygon(space).polar()
        best = math.inf
        for v, w in dual.edges():
            for c in (v, ((v[0] + w[0]) / 2, (v[1] + w[1]) / 2)):
                scale = dual.gauge(c)
                g = (float(c[0] / scale), float(c[1] / scale))
                best = min(best, float(oracle.exact_beta_sup(space, g, t)))
        return Expect(value=0.0) if best == 0.0 else Expect(lo=0.0, hi=best)
    return expect


# -- space-3d --------------------------------------------------------------------

SPACE3D = (("l2-3", 0.5), ("lp:1.5-3d", 0.5), ("l1-3d", 0.6))
BUDGET3D = Budget(resolution=0.3)


def space_3d(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []
    for name, coarse in SPACE3D:
        sp = bm.preset(name)
        W = bm.polar_space(sp)
        euclid = name == "l2-3"
        octahedron = name == "l1-3d"
        big = Budget(resolution=coarse)
        for t in spread(rng, 0.3, 1.7, 2):
            if euclid:
                expect = Expect(value=delta_hilbert(t))
            elif octahedron:  # the edge e1 -> e2 has l1 length 2
                expect = Expect(value=0.0)
            else:
                expect = Expect(lo=0.0, hi=delta_hilbert(t))
            ops.append(Op(f"modulus_convexity/{name}", "modulus_convexity",
                          (sp, t, big), expect=expect))
        x, y = directions(sp, rng, 2)
        t_d, t_s = spread(rng, 0.3, 1.2, 2)
        ops.append(Op(f"d_point/{name}", "d_point", (sp, x, t_d, big),
                      expect=Expect(value=s_euclid(t_d)) if euclid
                      else s_range(t_d)))
        f = bm.support_functional(sp, y).array
        ops.append(Op(f"s_point/{name}", "s_point", (sp, y, f, t_s, BUDGET3D),
                      expect=Expect(value=s_euclid(t_s)) if euclid
                      else s_range(t_s)))
        primal_dirs = directions(sp, rng, 2, dual=True)
        dual_dirs = directions(W, rng, 2, dual=True)
        for j, alpha in enumerate(spread(rng, 0.3, 0.85, 4)):
            side = "dual" if j % 2 == 0 else "primal"
            v = (primal_dirs if side == "primal" else dual_dirs)[j // 2]
            ops.append(Op(f"slice_diameter/{name}/{side}", "slice_diameter",
                          (sp, Slice.of(v, alpha, side), BUDGET3D),
                          expect=Expect(value=chord(alpha)) if euclid
                          else Expect(lo=0.0, hi=2.0)))
        fs = directions(sp, rng, 4, dual=True)
        for f, x, t in zip(fs[:2], directions(sp, rng, 2), spread(rng, 0.2, 0.8, 2)):
            ops.append(Op(f"beta_point/{name}", "beta_point", (sp, f, x, t, BUDGET3D),
                          expect=Expect(value=beta_euclid(f, x, t)) if euclid
                          else beta_range(f, x, t)))
        for f, t in zip(fs[2:], spread(rng, 0.2, 0.8, 2)):
            ops.append(Op(f"beta_sup/{name}", "beta_sup", (sp, f, t, BUDGET3D),
                          expect=Expect(value=t * t / 2.0) if euclid
                          else Expect(lo=0.0, hi=1.0)))
    return ops


WORKLOADS = {
    "slice-geometry": slice_geometry,
    "smooth-sweeps": smooth_sweeps,
    "polygon-exact": polygon_exact,
    "space-3d": space_3d,
}
