"""Finite-dimensional normed spaces: descriptors, norms, duality.

Supported kinds: lp (1 < p < inf), weighted-lp, polyhedral (unit ball is
the convex hull of a symmetric vertex set), and lp-sum of component
spaces.  All operations are pure; descriptors are immutable and hashable,
with derived data (facet form of a polytope, conjugate exponent) cached
idempotently.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Literal, Optional, Sequence

import numpy as np

from . import exactpoly
from .errors import BudgetError, DescriptorError, DimensionMismatchError, DomainError

Side = Literal["primal", "dual"]

_MAX_DIM = 8
_MAX_FACET_SUBSETS = 1_000_000  # a facet enumeration over more subsets raises BudgetError


def conjugate_exponent(p: float) -> float:
    return p / (p - 1.0)


def _facet_subsets(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facets of conv(V) for a symmetric (n, dim) vertex array spanning R^dim.

    With the origin interior, a facet hyperplane is exactly a supporting
    hyperplane {a . x = 1} through dim linearly independent vertices.  So
    every dim-subset of the rows is tried: singular subsets (|det| at most
    1e-10 times the product of the row lengths) are skipped, a . v = 1 is
    solved on the rest, and a is kept where max_v a . v <= 1 + 1e-9.
    Subsets of one facet are merged by the vertices they touch, keeping the
    first subset in lexicographic order.  Returns the subsets' vertex
    indices, (m, dim) ints, and the rows a, (m, dim), one per facet, in
    lexicographic order of the rows.  Raises BudgetError when there are more
    than ``_MAX_FACET_SUBSETS`` subsets, before any is built.
    """
    n, d = V.shape
    if math.comb(n, d) > _MAX_FACET_SUBSETS:
        raise BudgetError(f"facet enumeration of {n} vertices in dimension {d} needs "
                          f"{math.comb(n, d)} subsets, cap is {_MAX_FACET_SUBSETS}")
    block = max(1, 4_000_000 // (n * d))  # keeps each temporary under ~4e6 entries
    subsets = itertools.combinations(range(n), d)
    idx, rows, touched = [], [], []
    while True:
        c = np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, block)),
                        dtype=np.intp).reshape(-1, d)
        if not len(c):
            break
        M = V[c]
        live = np.abs(np.linalg.det(M)) > 1e-10 * np.prod(np.linalg.norm(M, axis=2), axis=1)
        c, M = c[live], M[live]
        a = np.linalg.solve(M, np.ones((len(M), d, 1)))[..., 0]
        vals = a @ V.T
        ok = vals.max(axis=1) <= 1.0 + 1e-9
        idx.append(c[ok])
        rows.append(a[ok])
        touched.append(np.packbits(vals[ok] >= 1.0 - 1e-9, axis=1))
    _, first = np.unique(np.concatenate(touched), axis=0, return_index=True)
    idx, A = np.concatenate(idx)[first], np.concatenate(rows)[first]
    order = np.lexsort(A.T[::-1])
    return idx[order], A[order]


@dataclass(frozen=True)
class SpaceDescriptor:
    kind: Literal["lp", "weighted-lp", "polyhedral", "lp-sum"]
    dim: int
    p: Optional[float] = None
    weights: Optional[tuple[float, ...]] = None
    vertices: Optional[tuple[tuple[float, ...], ...]] = None
    components: Optional[tuple["SpaceDescriptor", ...]] = None

    def __post_init__(self):
        if self.dim <= 0:
            raise DescriptorError("dimension must be positive")
        if self.dim > _MAX_DIM:
            raise DescriptorError(f"dimensions above {_MAX_DIM} are unsupported")
        if self.kind in ("lp", "lp-sum"):
            if self.p is None or not (1.0 < self.p < np.inf):
                raise DescriptorError(f"{self.kind} requires 1 < p < inf, got {self.p}")
        if self.kind == "weighted-lp":
            if self.p is None or not (1.0 < self.p < np.inf):
                raise DescriptorError("weighted-lp requires 1 < p < inf")
            if self.weights is None or len(self.weights) != self.dim:
                raise DescriptorError("weighted-lp requires one weight per coordinate")
            if any(w <= 0 for w in self.weights):
                raise DescriptorError("weights must be strictly positive")
        if self.kind == "polyhedral":
            if not self.vertices:
                raise DescriptorError("polyhedral space requires a vertex set")
            if any(np.shape(v) != (self.dim,) for v in self.vertices):
                raise DescriptorError("vertex coordinates must match the dimension")
            V = np.asarray(self.vertices, dtype=float)
            # symmetry: v in V  =>  -v in V, to 1e-12 in each coordinate
            for v in V:
                if not np.any(np.all(np.isclose(V, -v, rtol=0.0, atol=1e-12), axis=1)):
                    raise DescriptorError("polyhedral vertex set must be symmetric")
            if np.linalg.matrix_rank(V, tol=1e-12) < self.dim:
                raise DescriptorError("polyhedral vertex set must span the space")
        if self.kind == "lp-sum":
            if not self.components:
                raise DescriptorError("lp-sum requires a nonempty component list")
            if sum(c.dim for c in self.components) != self.dim:
                raise DescriptorError("lp-sum dimension must equal the sum of component dims")

    # -- derived data ------------------------------------------------------

    @cached_property
    def q(self) -> Optional[float]:
        return conjugate_exponent(self.p) if self.p is not None else None

    @cached_property
    def facets(self) -> np.ndarray:
        """Facet matrix F of a polyhedral ball: ||x|| = max_j (F @ x)_j.

        One row per facet, the outward functional normalized so that the
        facet hyperplane is {y : F_j . y = 1}, in lexicographic order (from
        ``_facet_subsets``).  The rows are also the vertices of the polar
        polytope.  Built idempotently on demand; raises BudgetError past the
        enumeration's cap.
        """
        if self.kind != "polyhedral":
            raise DescriptorError("facet form only exists for polyhedral spaces")
        return _facet_subsets(np.asarray(self.vertices, dtype=float))[1]

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        if self.kind != "lp-sum":
            raise DescriptorError("block structure only exists for lp-sum spaces")
        out, start = [], 0
        for c in self.components:
            out.append(slice(start, start + c.dim))
            start += c.dim
        return tuple(out)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        d: dict = {"kind": self.kind, "dim": self.dim}
        if self.p is not None:
            d["p"] = self.p
        if self.weights is not None:
            d["weights"] = list(self.weights)
        if self.vertices is not None:
            d["vertices"] = [list(v) for v in self.vertices]
        if self.components is not None:
            d["components"] = [c.to_json() for c in self.components]
        return d

    @staticmethod
    def from_json(data: dict | str) -> "SpaceDescriptor":
        """The descriptor ``to_json`` wrote; a missing field or a value of
        the wrong type or shape raises ``DescriptorError``."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or "kind" not in data:
            raise DescriptorError("descriptor JSON must be an object with a 'kind'")
        try:
            return SpaceDescriptor._from_fields(data)
        except DescriptorError:
            raise
        except KeyError as exc:
            raise DescriptorError(f"{data['kind']!r} descriptor lacks the field "
                                  f"{exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise DescriptorError(f"malformed {data['kind']!r} descriptor: {exc}") from exc

    @staticmethod
    def _from_fields(data: dict) -> "SpaceDescriptor":
        kind = data["kind"]
        if kind == "polyhedral":
            verts = tuple(tuple(float(c) for c in v) for v in data["vertices"])
            if "dim" not in data:
                return polyhedral_space(verts)
            return SpaceDescriptor(kind="polyhedral", dim=data["dim"], vertices=verts)
        if kind == "lp-sum":
            comps = tuple(SpaceDescriptor.from_json(c) for c in data["components"])
            dim = data.get("dim", sum(c.dim for c in comps))
            return SpaceDescriptor(kind="lp-sum", dim=dim, p=float(data["p"]), components=comps)
        if kind == "weighted-lp":
            w = tuple(float(x) for x in data["weights"])
            return SpaceDescriptor(kind="weighted-lp", dim=data.get("dim", len(w)),
                                   p=float(data["p"]), weights=w)
        if kind == "lp":
            return SpaceDescriptor(kind="lp", dim=int(data["dim"]), p=float(data["p"]))
        raise DescriptorError(f"unknown space kind {kind!r}")


# -- convenience constructors ---------------------------------------------


def lp_space(dim: int, p: float) -> SpaceDescriptor:
    return SpaceDescriptor(kind="lp", dim=dim, p=float(p))


def weighted_lp_space(p: float, weights: Sequence[float]) -> SpaceDescriptor:
    w = tuple(float(x) for x in weights)
    return SpaceDescriptor(kind="weighted-lp", dim=len(w), p=float(p), weights=w)


def polyhedral_space(vertices: Sequence[Sequence[float]]) -> SpaceDescriptor:
    V = tuple(tuple(float(c) for c in v) for v in vertices)
    if not V:
        raise DescriptorError("polyhedral space requires a vertex set")
    return SpaceDescriptor(kind="polyhedral", dim=len(V[0]), vertices=V)


def make_lp_sum(components: Sequence[SpaceDescriptor], p: float) -> SpaceDescriptor:
    if not (1.0 < p < np.inf):
        raise DomainError(f"lp-sum requires 1 < p < inf, got {p}")
    comps = tuple(components)
    if not comps:
        raise DomainError("lp-sum requires at least one component")
    return SpaceDescriptor(kind="lp-sum", dim=sum(c.dim for c in comps),
                           p=float(p), components=comps)


def cross_polytope(dim: int) -> SpaceDescriptor:
    """Unit ball of l1 in polyhedral form."""
    verts = []
    for i in range(dim):
        e = [0.0] * dim
        e[i] = 1.0
        verts.append(tuple(e))
        verts.append(tuple(-c for c in e))
    return polyhedral_space(verts)


def hypercube(dim: int) -> SpaceDescriptor:
    """Unit ball of l-infinity in polyhedral form."""
    verts = []
    for mask in range(2 ** dim):
        verts.append(tuple(1.0 if mask & (1 << i) else -1.0 for i in range(dim)))
    return polyhedral_space(verts)


# -- points and functionals ------------------------------------------------


@dataclass(frozen=True)
class Point:
    """A coordinate vector tagged with its space and primal/dual side."""

    coords: tuple[float, ...]
    space: SpaceDescriptor
    side: Side = "primal"

    def __post_init__(self):
        if len(self.coords) != self.space.dim:
            raise DimensionMismatchError(
                f"{len(self.coords)} coordinates for a {self.space.dim}-dimensional space")
        if not all(np.isfinite(c) for c in self.coords):
            raise DomainError("coordinates must be finite")

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    @staticmethod
    def of(space: SpaceDescriptor, coords: Sequence[float], side: Side = "primal") -> "Point":
        return Point(tuple(float(c) for c in coords), space, side)


def _coords(x, space: SpaceDescriptor, side: Side) -> np.ndarray:
    if isinstance(x, Point):
        if x.side != side:
            raise DomainError(f"expected a {side}-side point, got {x.side}")
        if x.space.dim != space.dim:
            raise DimensionMismatchError("point belongs to a space of different dimension")
        return x.array
    a = np.asarray(x, dtype=float)
    if a.shape[-1:] != (space.dim,):
        raise DimensionMismatchError(
            f"coordinates of shape {a.shape}, space has dimension {space.dim}")
    if not np.all(np.isfinite(a)):
        raise DomainError("coordinates must be finite")
    return a


def _unit_coords(space: SpaceDescriptor, x, side: Side, name: str) -> np.ndarray:
    """Coordinates of one unit vector: ``x`` passes ``_coords``'s checks and has
    norm 1 to within 1e-6, in ``space`` or, for a functional, in its polar."""
    a = _coords(x, space, side)
    if a.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a single vector, got shape {a.shape}")
    n = float(_norm_array(space if side == "primal" else polar_space(space), a))
    if abs(n - 1.0) > 1e-6:
        raise DomainError(f"{name} must have norm 1, got {n}")
    return a


# -- norms -----------------------------------------------------------------


def norm(space: SpaceDescriptor, x) -> np.ndarray | float:
    """Norm of ``x`` (a primal Point, or an array with trailing axis dim)."""
    a = _coords(x, space, "primal")
    return _norm_array(space, a)


def _norm_array(space: SpaceDescriptor, a: np.ndarray):
    """Norm of each row of a (..., dim) array: a float for one vector.

    The lp, weighted-lp and lp-sum norms are (sum_j w_j |a_j|^p)^(1/p),
    with the sum taken over the coordinate columns (for lp-sum, the
    component norms) left to right, as numpy's last-axis sum does below 8
    terms.  So for up to 7 columns every value equals that of
    ``np.sum(w * np.abs(a) ** p, axis=-1) ** (1/p)`` bit for bit; at 8
    columns numpy's sum is pairwise and the two may differ by 2 ulp.
    """
    if space.kind == "lp":
        return _lp_columns(np.abs(a, dtype=float), space.p)
    if space.kind == "weighted-lp":
        return _lp_columns(np.abs(a, dtype=float), space.p, np.asarray(space.weights))
    if space.kind == "polyhedral":
        # facet-major: numpy reduces a long leading axis far faster than the
        # short facet axis of a @ facets.T, to the same values
        vals = space.facets @ a.reshape(-1, space.dim).T
        return vals.max(axis=0).reshape(a.shape[:-1])[()]
    if space.kind == "lp-sum":
        parts = [_norm_array(c, a[..., s])
                 for c, s in zip(space.components, space.block_slices)]
        return _lp_columns(np.stack(parts, axis=-1), space.p)
    raise DescriptorError(space.kind)


def _lp_columns(b: np.ndarray, p: float, w: Optional[np.ndarray] = None):
    """(sum_j w_j b_j^p)^(1/p) over the last axis of a fresh nonnegative
    array b, which it overwrites.  The columns are added one at a time into
    one output, because numpy reduces a short last axis one row at a time.
    A single vector's root is numpy's scalar power, as ``np.sum`` would give;
    a 0-d array's power can differ from it in the last bit."""
    b **= p
    if w is not None:
        b *= w
    s = b[..., 0] + b[..., 1] if b.shape[-1] > 1 else b[..., 0].copy()
    for j in range(2, b.shape[-1]):
        s += b[..., j]
    if s.ndim == 0:
        return s[()] ** (1.0 / p)
    s **= 1.0 / p
    return s


def dual_norm(space: SpaceDescriptor, f) -> np.ndarray | float:
    """Norm of a functional: sup{f(x) : ||x|| <= 1}, the norm in the polar."""
    a = _coords(f, space, "dual")
    return _dual_norm_array(space, a)


def _dual_norm_array(space: SpaceDescriptor, a: np.ndarray):
    return _norm_array(polar_space(space), a)


def pairing(f, x) -> float:
    """Action f(x) of a functional on a point (plain dot product)."""
    fa = f.array if isinstance(f, Point) else np.asarray(f, dtype=float)
    xa = x.array if isinstance(x, Point) else np.asarray(x, dtype=float)
    return float(fa @ xa)


# -- polar space -----------------------------------------------------------


@lru_cache(maxsize=256)
def polar_space(space: SpaceDescriptor) -> SpaceDescriptor:
    """Descriptor of the dual space X*, the one definition of the dual side:
    dual_norm in X is the norm in polar(X).

    Memoized on the descriptor's value, so equal descriptors share one polar
    together with its derived data (facets, grids)."""
    if space.kind == "lp":
        return lp_space(space.dim, space.q)
    if space.kind == "weighted-lp":
        w = np.asarray(space.weights)
        return weighted_lp_space(space.q, tuple(w ** (-space.q / space.p)))
    if space.kind == "polyhedral":
        return polyhedral_space([tuple(row) for row in space.facets])
    if space.kind == "lp-sum":
        return make_lp_sum([polar_space(c) for c in space.components], space.q)
    raise DescriptorError(space.kind)


@lru_cache(maxsize=256)
def _exact_polygon(space: SpaceDescriptor) -> Optional[exactpoly.Polygon]:
    """The engine's one exact polygon of a 2-D polyhedral descriptor: its
    float vertices taken exactly (``Fraction(c)``); None for any other
    space, and where those floats are not exactly symmetric (no norm ball).
    Memoized on the descriptor's value, as ``polar_space`` is."""
    if space.kind != "polyhedral" or space.dim != 2:
        return None
    V = [(Fraction(x), Fraction(y)) for x, y in space.vertices]
    if set(V) != {(-x, -y) for x, y in V}:
        return None
    return exactpoly.Polygon(V)


# -- support mapping -------------------------------------------------------


def support_functional(space: SpaceDescriptor, x) -> Point:
    """A deterministic selection from the duality map of a unit vector.

    Returns f with dual_norm(f) = 1 and f(x) = 1.  At non-smooth points of
    a polyhedral ball the selection is the lexicographically smallest
    norming vertex of the dual polytope.
    """
    a = _coords(x, space, "primal")
    if abs(_norm_array(space, a) - 1.0) > 1e-9:
        raise DomainError("support_functional requires a unit-norm point")
    return Point.of(space, _support_array(space, a), side="dual")


def _support_array(space: SpaceDescriptor, a: np.ndarray) -> np.ndarray:
    """``support_functional``'s selection for unit vectors in the rows of a
    (..., dim) array, unvalidated.  A polyhedral row gets the first (in
    lexicographic order) dual vertex, that is facet row, v with
    a . v >= min(||a||, 1) - 1e-9, where ||a|| is the max of a . v over the
    dual vertices; the threshold never exceeds that max, so the pick norms a
    to within 1e-9."""
    if space.kind == "lp":
        return np.sign(a) * np.abs(a) ** (space.p - 1.0)
    if space.kind == "weighted-lp":
        w = np.asarray(space.weights)
        return w * np.sign(a) * np.abs(a) ** (space.p - 1.0)
    if space.kind == "polyhedral":
        V = space.facets
        vals = V @ a.reshape(-1, space.dim).T
        top = np.minimum(vals.max(axis=0), 1.0)
        return V[np.argmax(vals >= top - 1e-9, axis=0)].reshape(a.shape)
    if space.kind == "lp-sum":
        out = np.zeros_like(a)
        for c, s in zip(space.components, space.block_slices):
            block = a[..., s]
            nb = _norm_array(c, block)[..., None]
            live = nb > 1e-15
            g = _support_array(c, block / np.where(live, nb, 1.0))
            out[..., s] = np.where(live, nb ** (space.p - 1.0) * g, 0.0)
        return out
    raise DescriptorError(space.kind)


def duality_preimage(space: SpaceDescriptor, f) -> Point:
    """A unit vector x with f(x) = 1 for a unit functional f.

    Uses reflexivity: the norming point of f is the support functional of f
    computed in the polar space.
    """
    a = _coords(f, space, "dual")
    g = support_functional(polar_space(space), a)
    return Point.of(space, g.coords, side="primal")


# -- kernel frames ---------------------------------------------------------


def kernel_frame(space: SpaceDescriptor, f) -> np.ndarray:
    """(dim-1, dim) array whose rows span ker f, Euclid-orthonormal (K K^T = I,
    K f = 0): the last dim-1 right singular vectors of the row f/|f|_2."""
    a = _coords(f, space, "dual")
    if float(np.linalg.norm(a)) == 0.0:
        raise DomainError("kernel_frame requires a nonzero functional")
    return _kernel_frames(a[None, :])[0]


def _kernel_frames(F: np.ndarray) -> np.ndarray:
    """``kernel_frame`` of each row of an (n, dim) array of nonzero rows,
    unvalidated, as an (n, dim-1, dim) array, from one batched SVD.  Each
    row is scaled by the root of its own dot product, one batched matmul of
    (1, dim) by (dim, 1) stacks: that is ``np.linalg.norm`` of the row bit
    for bit, where the norm over axis 1 (and ``einsum``) rounds differently
    in the last bits, and so would the frames."""
    scale = np.sqrt((F[:, None, :] @ F[:, :, None])[:, 0, 0])
    return np.linalg.svd((F / scale[:, None])[:, None, :])[2][:, 1:]
