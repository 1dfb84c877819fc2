"""Sphere grids with computed covering radii.

Every certified search in the package reduces to covering a unit sphere
by finitely many points whose covering radius in the ambient
norm is known.  The radius is derived from rigorous norm-equivalence
constants computed from the basis vectors, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, DomainError
from .spaces import SpaceDescriptor, _dual_norm_array, _facet_subsets, _norm_array

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_MAX_GRID_POINTS = 5_000_000  # a sphere grid larger than this raises BudgetError


@dataclass(frozen=True)
class EquivConstants:
    """c * |x|_2 <= ||x|| <= C * |x|_2, plus the radial-projection bound."""

    c: float
    C: float

    @property
    def projection_lipschitz(self) -> float:
        # u -> u/||u|| on the Euclidean sphere is (2C/c)-Lipschitz into ||.||
        return 2.0 * self.C / self.c


def equiv_constants(space: SpaceDescriptor) -> EquivConstants:
    """Crude constants from the basis vectors."""
    d = space.dim
    E = np.eye(d)
    C = math.sqrt(d) * float(np.max(_norm_array(space, E)))
    c = 1.0 / (math.sqrt(d) * float(np.max(_dual_norm_array(space, E))))
    return EquivConstants(c=c, C=C)


@lru_cache(maxsize=256)
def sharp_equiv_constants(space: SpaceDescriptor) -> EquivConstants:
    """Tightened equivalence constants, bootstrapped from the crude ones.

    The crude constants make the norm provably Lipschitz on the Euclidean
    sphere; evaluating on a fine grid then gives rigorous sharper bounds.
    Every certified search starts here, so this is where a dimension other
    than 2 or 3 is refused.
    """
    d = space.dim
    if d not in (2, 3):
        raise DomainError(f"certified searches need dimension 2 or 3, got {d}")
    crude = equiv_constants(space)
    if d == 2:
        n = 8192
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        gap = math.pi / n
    else:
        dirs, faces = _icosphere(4)
        gap = _max_circumradius(dirs, faces)
    vals = _norm_array(space, dirs)
    C = min(crude.C, float(np.max(vals)) + crude.C * gap)
    c = max(crude.c, float(np.min(vals)) - crude.C * gap)
    if c <= 0:
        c = crude.c
    return EquivConstants(c=c, C=C)


@dataclass(frozen=True)
class SphereGrid:
    """Points on the unit sphere of a norm with a certified covering radius.

    Every sphere point is within ``covering`` of some grid point, measured
    in the space's own norm.
    """

    points: np.ndarray  # (n, dim), read-only: grids are memoized and shared
    covering: float

    def __post_init__(self):
        self.points.flags.writeable = False


@lru_cache(maxsize=256)
def sphere_grid(space: SpaceDescriptor, resolution: float) -> SphereGrid:
    """Certified covering of the unit sphere at ambient covering radius
    <= resolution.  Memoized: the points are shared and read-only.  The
    dual sphere is ``sphere_grid(polar_space(space), resolution)``.

    In the plane the grid is in angular order, and the 2-D pair scans
    (``slices._max_pair``, ``denting.modulus_convexity``) rest on it:

    - the n points p_0, ..., p_{n-1} run counter-clockwise at equal angle
      steps 2 pi/n (p_i is the unit point in direction angle 2 pi i/n);
    - so the antipode -p_i lies between indices i + floor(n/2) and
      i + ceil(n/2) (mod n), and the indices i + k with k in [0, floor(n/2)]
      run along the arc from p_i to -p_i;
    - by the monotonicity lemma for normed planes (for unit x, ||x - y|| does
      not decrease as y runs along the unit circle from x to -x; Martini,
      Swanepoel & Weiss, "The geometry of Minkowski spaces -- a survey,
      Part I", Expo. Math. 19 (2001), Prop. 31), k -> ||p_i - p_{i+k}|| does
      not decrease for k in [0, floor(n/2)] and does not increase for k in
      [ceil(n/2), n].

    So the grid points on one arc of the circle (those in a half-plane, or
    those at distance >= t from a unit point) are one cyclic run of
    indices in exact arithmetic.  ``_covering_runs`` gives the shortest run
    holding any subset, so a scan over it never misses a point that
    rounding split off the arc.
    """
    if resolution <= 0:
        raise DomainError("resolution must be positive")
    eq = sharp_equiv_constants(space)
    L = eq.projection_lipschitz
    if space.dim == 2:
        # Euclidean-arc half step * projection Lipschitz bounds the covering
        n = max(8, int(math.ceil(math.pi * L / resolution)))
        if n > _MAX_GRID_POINTS:
            raise BudgetError(f"2-D sphere grid needs {n} points, cap is {_MAX_GRID_POINTS}")
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        pts = dirs / _norm_array(space, dirs)[:, None]
        h = L * (math.pi / n)  # half angular step, chord <= arc
        return SphereGrid(points=pts, covering=h)
    verts, faces = _icosphere_for(resolution / L)
    pts = verts / _norm_array(space, verts)[:, None]
    # Euclidean covering radius of the triangulated sphere: any unit
    # vector lies in a face cap; bound by the largest circumradius.
    r = _max_circumradius(verts, faces)
    return SphereGrid(points=pts, covering=L * r)


def _covering_runs(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, length) of the shortest cyclic run of indices holding every
    True entry, for each row of an (r, n) boolean array: the run starts at
    the first True after the longest cyclic gap between consecutive True
    entries (the first such gap in index order on ties) and ends at the
    True before it.  An empty row gives (0, 0) and a full row (0, n)."""
    r, n = masks.shape
    # in each row doubled, the next run start after a run end of the first
    # copy lies within the row
    twice = np.concatenate([masks, masks], axis=1)
    row, col = np.divmod(np.flatnonzero(masks & ~twice[:, 1:n + 1]), n)  # run ends
    starts = np.flatnonzero(twice[:, 1:] & ~twice[:, :-1])  # one before each start
    at = row * (2 * n - 1) + col
    gaps = np.zeros((r, n), dtype=np.int64)
    gaps[row, col] = starts[np.searchsorted(starts, at)] - at + 1
    # per row the longest gap, the first in index order on ties; a row
    # without run ends is empty or full
    col = gaps.argmax(axis=1)
    gap = gaps[np.arange(r), col]
    length = np.where(gap > 0, n + 1 - gap, n * masks[:, 0])
    return (col + gap) % n, length


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """The 12 unit vertices (0, +-1, +-phi) and cyclic shifts, and the 20
    triangular faces as vertex-index triples, from the facet enumeration."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    v = []
    for a, b in [(1, phi), (-1, phi), (1, -phi), (-1, -phi)]:
        v += [(0, a, b), (a, b, 0), (b, 0, a)]
    V = np.array(v, dtype=float)
    V /= np.linalg.norm(V, axis=1)[:, None]
    return V, _facet_subsets(V)[0]


def _subdivide(V: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    edge_mid: dict[tuple[int, int], int] = {}
    verts = list(V)

    def mid(i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in edge_mid:
            m = verts[i] + verts[j]
            m = m / np.linalg.norm(m)
            verts.append(m)
            edge_mid[key] = len(verts) - 1
        return edge_mid[key]

    faces = []
    for a, b, c in F:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return np.array(verts), np.array(faces)


_ICO_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    if level not in _ICO_CACHE:
        if level == 0:
            _ICO_CACHE[0] = _icosahedron()
        else:
            _ICO_CACHE[level] = _subdivide(*_icosphere(level - 1))
    return _ICO_CACHE[level]


def _max_circumradius(V: np.ndarray, F: np.ndarray) -> float:
    # circumradius of each planar face triangle; spherical caps are flatter
    # than the chordal bound by projection, and radial projection onto the
    # sphere does not increase distances to the nearest vertex beyond it.
    a = np.linalg.norm(V[F[:, 0]] - V[F[:, 1]], axis=1)
    b = np.linalg.norm(V[F[:, 1]] - V[F[:, 2]], axis=1)
    c = np.linalg.norm(V[F[:, 2]] - V[F[:, 0]], axis=1)
    s = 0.5 * (a + b + c)
    area = np.sqrt(np.maximum(s * (s - a) * (s - b) * (s - c), 1e-300))
    # planar circumradius abc/4A; multiply by sqrt(2) slack for the
    # projection of interior face points back to the sphere
    return float(np.max(a * b * c / (4.0 * area))) * math.sqrt(2.0)


def _icosphere_for(target_euclid: float) -> tuple[np.ndarray, np.ndarray]:
    level = 0
    while True:
        V, F = _icosphere(level)
        if _max_circumradius(V, F) <= target_euclid:
            return V, F
        if len(V) * 4 > _MAX_GRID_POINTS:
            raise BudgetError(f"3-D sphere grid at covering {target_euclid:.3g} "
                              f"exceeds {_MAX_GRID_POINTS} points")
        level += 1


@lru_cache(maxsize=256)
def lowdisc_sphere(space: SpaceDescriptor, n: int) -> np.ndarray:
    """Deterministic low-discrepancy sequence on the unit sphere of a 2-D
    or 3-D space (memoized, read-only)."""
    if space.dim not in (2, 3):
        raise DomainError(f"sphere samples need dimension 2 or 3, got {space.dim}")
    if space.dim == 2:
        theta = (2.0 * math.pi) * ((np.arange(n) * 0.6180339887498949 + 0.05) % 1.0)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:
        k = np.arange(n) + 0.5
        z = 1.0 - 2.0 * k / n
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        th = GOLDEN_ANGLE * np.arange(n)
        dirs = np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)
    pts = dirs / _norm_array(space, dirs)[:, None]
    pts.flags.writeable = False
    return pts
