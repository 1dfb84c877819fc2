import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from ballmoduli import (BudgetError, DescriptorError, DimensionMismatchError, DomainError,
                        Point, Slice, SpaceDescriptor, beta_point, beta_sup,
                        construct_separating_ball, cross_polytope, d_point,
                        d_star, d_star_zero, dual_norm, duality_preimage,
                        hypercube, lp_space, make_lp_sum, norm, pairing,
                        polar_space, polyhedral_space, preset, s_point, s_star,
                        slice_diameter, support_functional, weighted_lp_space,
                        witness_functional)
from ballmoduli.gridutil import (_covering_runs, _icosphere, lowdisc_sphere,
                                sharp_equiv_constants, sphere_grid)
from ballmoduli.spaces import (_exact_polygon, _face_array, _kernel_frames, _norm_array,
                               _support_array, kernel_frame)


def _plain_norm(space, a):
    """The norm as one numpy expression per kind: a sum over the last axis."""
    if space.kind == "polyhedral":
        return np.max(a @ space.facets.T, axis=-1)
    if space.kind == "lp-sum":
        parts = [_plain_norm(c, a[..., s]) for c, s in zip(space.components, space.block_slices)]
        return np.sum(np.stack(parts, axis=-1) ** space.p, axis=-1) ** (1.0 / space.p)
    w = np.asarray(space.weights) if space.kind == "weighted-lp" else 1.0
    return np.sum(w * np.abs(a) ** space.p, axis=-1) ** (1.0 / space.p)


def _lp_family(kind, d, p):
    if kind == "lp":
        return lp_space(d, p)
    if kind == "weighted-lp":
        return weighted_lp_space(p, np.linspace(0.5, 3.0, d))
    k = 1 if d < 4 else 2  # an lp component beside a polyhedral one
    return make_lp_sum([lp_space(d - k, 1.5), cross_polytope(k)], p)


class TestNorms:
    def test_lp_norm_matches_numpy(self, rng):
        for p in (1.5, 2.0, 3.0, 10.0):
            space = lp_space(3, p)
            v = rng.normal(size=3)
            assert norm(space, v) == pytest.approx(
                np.linalg.norm(v, ord=p), rel=1e-12)

    def test_weighted_lp_norm(self):
        space = weighted_lp_space(2.0, [4.0, 1.0])
        assert norm(space, [1.0, 0.0]) == pytest.approx(2.0)
        assert norm(space, [0.0, 3.0]) == pytest.approx(3.0)

    def test_polyhedral_gauge_on_vertices(self):
        space = preset("square-rot")
        for v in space.vertices:
            assert norm(space, list(v)) == pytest.approx(1.0, abs=1e-9)

    def test_lp_sum_norm_blockwise(self, rng):
        space = make_lp_sum([lp_space(2, 2.0), cross_polytope(2)], 3.0)
        v = rng.normal(size=4)
        expected = (np.linalg.norm(v[:2]) ** 3
                    + np.linalg.norm(v[2:], 1) ** 3) ** (1 / 3)
        assert norm(space, v) == pytest.approx(expected, rel=1e-12)

    def test_dual_norm_is_conjugate_lp(self, rng):
        space = lp_space(2, 1.5)
        v = rng.normal(size=2)
        assert dual_norm(space, v) == pytest.approx(
            np.linalg.norm(v, ord=3.0), rel=1e-12)

    def test_cross_polytope_is_l1(self, rng):
        space = cross_polytope(2)
        v = rng.normal(size=2)
        assert norm(space, v) == pytest.approx(np.abs(v).sum(), rel=1e-9)

    def test_hypercube_is_linf(self, rng):
        space = hypercube(3)
        v = rng.normal(size=3)
        assert norm(space, v) == pytest.approx(np.abs(v).max(), rel=1e-9)

    @pytest.mark.parametrize("name", ["l1-2d", "square-rot", "l1-3d", "linf-3d"])
    def test_polytope_norm_is_the_facet_max_bit_for_bit(self, name, rng):
        # the facet axis is reduced as a leading axis; a max is exact, so
        # the values are those of the plain reduction over the last axis
        space = preset(name)
        for shape in [(space.dim,), (37, space.dim), (3, 37, space.dim)]:
            a = rng.normal(size=shape)
            want = np.max(a @ space.facets.T, axis=-1)
            got = _norm_array(space, a)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["lp", "weighted-lp", "lp-sum"])
    def test_lp_norms_are_the_plain_sum_bit_for_bit(self, kind, rng):
        # the columns are added left to right, as numpy's last-axis sum does
        # below 8 terms, and a single vector keeps numpy's scalar root
        for d, p in product(range(1 if kind != "lp-sum" else 2, 8),
                            (1.05, 1.5, 2.0, 3.0, 7.0)):
            space = _lp_family(kind, d, p)
            for shape in [(d,), (37, d), (3, 37, d)]:
                a = rng.normal(size=shape)
                before = a.copy()
                got, want = _norm_array(space, a), _plain_norm(space, a)
                assert type(got) is type(want)
                assert np.array_equal(got, want)
                assert np.array_equal(a, before)
            assert type(_norm_array(space, rng.normal(size=d))) is np.float64

    @pytest.mark.parametrize("kind", ["lp", "weighted-lp"])
    def test_lp_norms_at_eight_columns_are_within_4_ulp(self, kind, rng):
        # numpy's sum turns pairwise at 8 terms; the column sum does not
        for p in (1.05, 2.0, 7.0):
            space = _lp_family(kind, 8, p)
            a = rng.normal(size=(200, 8))
            np.testing.assert_array_max_ulp(_norm_array(space, a), _plain_norm(space, a), 4)

    @pytest.mark.parametrize("space", [
        preset("lp:1.5-2d"), weighted_lp_space(3.0, [1.0, 2.0]), preset("l2-3"),
        preset("lpsum:3:l1-2d+lp:1.5-2d")],
        ids=["lp:1.5-2d", "wlp:3:1,2", "l2-3", "lpsum:3:l1-2d+lp:1.5-2d"])
    def test_lp_norms_take_read_only_input(self, space, rng):
        if space.dim <= 3:
            a = sphere_grid(space, 0.1).points
        else:
            a = rng.normal(size=(50, space.dim))
            a.setflags(write=False)
        assert np.array_equal(_norm_array(space, a), _plain_norm(space, a))


class TestPolarity:
    @pytest.mark.parametrize("name", ["l2-2", "lp:1.5-2d", "l1-2d",
                                      "linf-3d", "square-rot"])
    def test_bipolar_roundtrip(self, name, rng):
        space = preset(name)
        again = polar_space(polar_space(space))
        pts = rng.normal(size=(16, space.dim))
        for v in pts:
            assert norm(space, v) == pytest.approx(norm(again, v), abs=1e-9)

    def test_polar_swaps_norms(self, rng):
        space = preset("l1-2d")
        dual = polar_space(space)
        v = rng.normal(size=2)
        assert norm(dual, v) == pytest.approx(dual_norm(space, v), abs=1e-9)

    def test_polar_of_sum_conjugates_exponent(self):
        space = preset("l2sum-4")
        dual = polar_space(space)
        assert dual.kind == "lp-sum"
        assert dual.p == pytest.approx(2.0)


class TestDerivedData:
    def test_equal_descriptors_share_polar_grids_and_samples(self):
        a, b = preset("square-rot"), preset("square-rot")
        assert a is not b
        assert polar_space(a) is polar_space(b)
        assert sphere_grid(a, 0.05) is sphere_grid(b, 0.05)
        assert lowdisc_sphere(a, 16) is lowdisc_sphere(b, 16)

    @pytest.mark.parametrize("name", ["l2-2", "l2-3"])
    def test_cached_arrays_are_read_only(self, name):
        space = preset(name)
        for a in (lowdisc_sphere(space, 8), sphere_grid(space, 0.3).points):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    @pytest.mark.parametrize("space", [
        preset("l2-2"), preset("lp:1.5-2d"), weighted_lp_space(3.0, [1.0, 2.0]),
        preset("l1-2d"), preset("square-rot"), preset("l2-3")],
        ids=["l2-2", "lp:1.5-2d", "wlp:3:1,2", "l1-2d", "square-rot", "l2-3"])
    def test_dual_sphere_is_the_polar_sphere(self, space):
        pts = sphere_grid(polar_space(space), 0.1).points
        assert np.allclose(dual_norm(space, pts), 1.0, rtol=0.0, atol=1e-12)


def _covering_run_loop(mask):
    """(start, length) of one row's covering run: the True after the first
    longest cyclic gap, one row at a time."""
    n, idx = len(mask), np.flatnonzero(mask)
    if len(idx) in (0, n):
        return 0, len(idx)
    gaps = np.diff(idx, append=idx[0] + n)
    j = int(np.argmax(gaps))
    return int(idx[(j + 1) % len(idx)]), n - int(gaps[j]) + 1


class TestCoveringRuns:
    def _check(self, masks):
        start, length = _covering_runs(masks)
        n = masks.shape[1]
        for row, s, m in zip(masks, start, length):
            assert (s, m) == _covering_run_loop(row)
            covered = np.zeros(n, dtype=bool)
            covered[(s + np.arange(m)) % n] = True
            assert not np.any(row & ~covered)
            # no shorter cyclic window holds every True entry
            idx = np.flatnonzero(row)
            if m:
                assert not any(np.isin(idx, (a + np.arange(m - 1)) % n).all()
                               for a in range(n))

    def test_named_masks(self):
        n = 12
        rows = {"empty": [], "full": range(n), "single": [5], "run": range(3, 8),
                "wrap-around": [10, 11, 0, 1, 2], "split": [2, 3, 5, 6],
                "tied gaps": [0, 6], "last only": [n - 1]}
        masks = np.zeros((len(rows), n), dtype=bool)
        for k, idx in enumerate(rows.values()):
            masks[k, list(idx)] = True
        start, length = _covering_runs(masks)
        got = dict(zip(rows, zip(start.tolist(), length.tolist())))
        assert got == {"empty": (0, 0), "full": (0, n), "single": (5, 1),
                       "run": (3, 5), "wrap-around": (10, 5), "split": (2, 5),
                       "tied gaps": (6, 7), "last only": (n - 1, 1)}
        self._check(masks)

    def test_rounding_split_mask(self):
        # rounding puts the dual square's left-face points at -1 and
        # -0.9999999999999999 alternately, so the slice mask at that
        # threshold leaves every other left-face point out
        W = polar_space(polyhedral_space([(-0.625, 0), (0, -0.625), (0.625, 0), (0, 0.625)]))
        L = sharp_equiv_constants(W).projection_lipschitz
        P = sphere_grid(W, math.pi * L / 39.5).points
        vals = P @ (np.array([1.0, 0.0]) / dual_norm(W, [1.0, 0.0]))
        mask = vals >= -0.9999999999999999
        assert np.count_nonzero(np.diff(mask.astype(int))) > 2
        self._check(mask[None, :])
        self._check(~mask[None, :])

    def test_random_masks_match_the_row_loop(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 9):
            masks = rng.random((200, n)) < rng.random((200, 1))
            self._check(masks)


class TestDualityMaps:
    # support_functional's gradient formulas never call polar_space, so a
    # unit dual norm here checks the polar's weights w^(-q/p) and the
    # conjugate exponent of a mixed sum independently
    @pytest.mark.parametrize("name", ["l2-2", "lp:3-2d", "l1-2d", "linf-2d",
                                      "square-rot", "l2-3", "weighted:3:1,2",
                                      "lpsum:3:l1-2d+lp:1.5-2d"])
    def test_support_functional_norms_its_point(self, name, rng):
        space = (weighted_lp_space(3.0, (1.0, 2.0)) if name == "weighted:3:1,2"
                 else preset(name))
        for _ in range(10):
            x = rng.normal(size=space.dim)
            x = x / norm(space, x)
            f = support_functional(space, x)
            assert pairing(f.array, x) == pytest.approx(1.0, abs=1e-7)
            assert dual_norm(space, f.array) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("name", ["l2-2", "lp:1.5-2d", "l1-2d", "l2-3"])
    def test_duality_preimage_is_normed_by_f(self, name, rng):
        space = preset(name)
        for _ in range(10):
            f = rng.normal(size=space.dim)
            f = f / dual_norm(space, f)
            x = duality_preimage(space, f)
            assert norm(space, x.array) == pytest.approx(1.0, abs=1e-7)
            assert pairing(f, x.array) == pytest.approx(1.0, abs=1e-7)

    def test_cross_polytope_vertices_pick_the_least_norming_vertex(self):
        # each vertex of the l1 ball is normed by two dual vertices
        space = preset("l1-2d")
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        want = np.array([[1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0], [-1.0, -1.0]])
        for x, w in zip(X, want):
            assert support_functional(space, x).coords == tuple(w)
        assert np.array_equal(_support_array(space, X), want)

    def test_sub_unit_row_gets_a_norming_vertex(self):
        # ||a|| = 1/2 is below the 1 - 1e-9 threshold: the pick still norms a
        space = preset("l1-2d")
        a = np.array([[0.5, 0.0], [0.0, -0.5]])
        f = _support_array(space, a)
        assert np.array_equal(f, [[1.0, -1.0], [-1.0, -1.0]])
        assert np.array_equal(np.sum(a * f, axis=1), [0.5, 0.5])

    def test_lp_sum_zero_block(self):
        space = preset("lpsum:3:l1-2d+lp:1.5-2d")
        x = np.array([0.0, 0.0, 0.6, -0.8])
        x = x / norm(space, x)
        f = support_functional(space, x).array
        assert np.array_equal(f[:2], [0.0, 0.0])
        assert pairing(f, x) == pytest.approx(1.0, abs=1e-12)
        assert dual_norm(space, f) == pytest.approx(1.0, abs=1e-12)
        X = np.stack([x, np.array([1.0, 0.0, 0.0, 0.0])])
        assert np.array_equal(_support_array(space, X)[0], f)

    def test_kernel_frame_annihilates_f(self, rng):
        # the 3-D kernel certificate also assumes orthonormal rows: K K^T = I
        for name in ("l2-2", "l2-3", "l1-3d", "linf-3d"):
            space = preset(name)
            for _ in range(20):
                f = rng.normal(size=space.dim)
                f = f / dual_norm(space, f)
                K = kernel_frame(space, f)
                assert K.shape == (space.dim - 1, space.dim)
                assert np.allclose(K @ K.T, np.eye(space.dim - 1), rtol=0.0, atol=1e-12)
                assert np.allclose(K @ f, 0.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["l1-3d", "linf-3d", "lp:1.5-3d", "l2-3"])
    def test_kernel_frames_are_the_per_row_frames_bit_for_bit(self, name):
        # the batched row scales equal np.linalg.norm of each row
        F = sphere_grid(polar_space(preset(name)), 0.25).points
        scale = np.array([np.linalg.norm(a) for a in F])
        want = np.linalg.svd((F / scale[:, None])[:, None, :])[2][:, 1:]
        assert np.array_equal(_kernel_frames(F), want)


class TestFaceArray:
    """``_face_array`` returns points of the unit sphere that f norms, and on
    a polytope every vertex of that face."""

    @pytest.mark.parametrize("name, f, want", [
        ("l1-3d", (1.0, 0.3, -0.2), [(1, 0, 0)]),
        ("l1-3d", (1.0, 1.0, 0.0), [(1, 0, 0), (0, 1, 0)]),
        ("l1-3d", (-1.0, 1.0, 1.0), [(-1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ("linf-3d", (1.0, 0.0, 0.0), [(1, s, u) for s in (-1, 1) for u in (-1, 1)]),
        ("linf-3d", (0.5, 0.5, 0.0), [(1, 1, -1), (1, 1, 1)]),
        ("square-rot", (0.2, 1.4), [(0.2, 1.4)]),
        ("lpsum:2:lp:2-1d+l1-2d", (0.0, 1.0, 1.0), [(0, 1, 0), (0, 0, 1)]),
    ])
    def test_polytope_faces_are_their_vertex_sets(self, name, f, want):
        space = preset(name)
        f = np.asarray(f) / dual_norm(space, np.asarray(f))
        got = _face_array(space, np.stack([f, f]))
        # rows padded with their first point hold the same set
        assert got.shape[0] == 2 and np.array_equal(got[0], got[1])
        assert {tuple(p) for p in np.round(got[0], 12).tolist()} == {
            tuple(float(c) for c in w) for w in want}

    @pytest.mark.parametrize("name", ["l2-2", "lp:1.5-2d", "l2-3", "weighted:3:1,2",
                                      "l1-3d", "linf-3d", "square-rot",
                                      "lpsum:2:lp:2-1d+l1-2d",
                                      "lpsum:3:l1-2d+lp:1.5-2d"])
    def test_points_are_normed_by_f(self, name, rng):
        space = (weighted_lp_space(3.0, (1.0, 2.0)) if name == "weighted:3:1,2"
                 else preset(name))
        F = rng.normal(size=(20, space.dim))
        if space.kind == "lp-sum":
            F[0, space.block_slices[0]] = 0.0  # a zero block
        faces = _face_array(space, F)
        assert faces.shape[0] == 20 and faces.shape[2] == space.dim
        assert np.allclose(_norm_array(space, faces), 1.0, rtol=0.0, atol=1e-12)
        fn = dual_norm(space, F)
        assert np.allclose(np.einsum("nkd,nd->nk", faces, F), fn[:, None],
                           rtol=0.0, atol=1e-9)


class TestDescriptors:
    def test_json_roundtrip(self):
        for name in ("l2-2", "l1-2d", "square-rot", "l2sum-4"):
            space = preset(name)
            again = SpaceDescriptor.from_json(space.to_json())
            assert again == space

    def test_descriptor_is_hashable(self):
        assert len({preset("l2-2"), preset("l2-2"), preset("l1-2d")}) == 2

    def test_exact_polygon_takes_the_float_vertices_exactly(self):
        # the engine's exact paths work on the descriptor's own polygon:
        # the float 0.2 is not 1/5, and nothing rounds it there
        verts = _exact_polygon(preset("square-rot")).vertices
        assert (Fraction(0.2), Fraction(1.4)) in verts
        assert (Fraction(1, 5), Fraction(7, 5)) not in verts
        assert _exact_polygon(preset("square-rot")) is _exact_polygon(preset("square-rot"))
        assert _exact_polygon(preset("l2-2")) is None
        assert _exact_polygon(preset("l1-3d")) is None
        # symmetric to the descriptor's 1e-12, but 0.1 + 0.2 is not 0.3
        near = polyhedral_space([(0.1 + 0.2, 1.0), (-0.3, -1.0), (1.0, 0.0), (-1.0, 0.0)])
        assert _exact_polygon(near) is None

    def test_block_slices(self):
        space = preset("l2sum-4")
        assert space.block_slices == (slice(0, 2), slice(2, 4))

    def test_nearly_symmetric_vertex_set_raises(self):
        # ||(1, 0)|| = 1 but ||(-1, 0)|| = 0.999995: not a norm
        with pytest.raises(DescriptorError):
            polyhedral_space([(1.0, 0.0), (-1.000005, 0.0), (0.0, 1.0), (0.0, -1.0)])

    def test_empty_vertex_list_raises(self):
        with pytest.raises(DescriptorError):
            polyhedral_space([])
        with pytest.raises(DescriptorError):
            SpaceDescriptor.from_json({"kind": "polyhedral", "vertices": []})

    def test_malformed_descriptor_raises(self):
        with pytest.raises(DescriptorError):
            SpaceDescriptor.from_json({"kind": "nope", "dim": 2})
        with pytest.raises(DescriptorError):
            lp_space(0, 2.0)
        with pytest.raises(DescriptorError):
            lp_space(2, 0.5)

    @pytest.mark.parametrize("data", [
        {"kind": "polyhedral"},
        {"kind": "lp", "dim": 2},
        {"kind": "polyhedral", "vertices": [[1, 0], [0]]},
    ], ids=["no-vertices", "no-p", "ragged-vertices"])
    def test_incomplete_json_raises_descriptor_error(self, data):
        with pytest.raises(DescriptorError):
            SpaceDescriptor.from_json(data)

    def test_point_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Point.of(preset("l2-2"), [1.0, 0.0, 0.0])


E1 = (1.0, 0.0)

# Each public entry point that takes a unit point or functional, with the
# checked vector v as its only free argument.
ENTRY_POINTS = {
    "s_point-x": ("l2-2", lambda sp, v: s_point(sp, v, E1, 1.0)),
    "s_point-f": ("l2-2", lambda sp, v: s_point(sp, E1, v, 1.0)),
    "d_point": ("l2-2", lambda sp, v: d_point(sp, v, 1.0)),
    "s_star-f": ("l2-2", lambda sp, v: s_star(sp, v, E1, 1.0)),
    "s_star-x": ("l2-2", lambda sp, v: s_star(sp, E1, v, 1.0)),
    "d_star": ("l2-2", lambda sp, v: d_star(sp, v, 1.0)),
    "d_star_zero": ("l2-2", lambda sp, v: d_star_zero(sp, v, 1.0)),
    "beta_point-f": ("l2-2", lambda sp, v: beta_point(sp, v, E1, 0.5)),
    "beta_point-x": ("l2-2", lambda sp, v: beta_point(sp, E1, v, 0.5)),
    "beta_sup": ("l2-2", lambda sp, v: beta_sup(sp, v, 0.5)),
    "slice_diameter": ("l2-2", lambda sp, v: slice_diameter(sp, Slice.of(v, 0.5))),
    "slice_diameter-dual": ("l2-2", lambda sp, v: slice_diameter(
        sp, Slice.of(v, 0.5, "dual"))),
    "construct_separating_ball": ("l2-2", lambda sp, v: construct_separating_ball(
        sp, [[0.0, 2.0]], v, 0.5, 2.0)),
    "witness_functional": ("l2sum-4", witness_functional),
}


class TestInputContract:
    """Every entry point checks its vectors before any search: finite,
    matching dimension, unit norm to 1e-6 (in the polar for functionals)."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("first", [math.nan, 1.0 + 1e-5], ids=["nan", "non-unit"])
    def test_bad_coordinate_raises_domain_error(self, entry, first):
        name, call = ENTRY_POINTS[entry]
        space = preset(name)
        with pytest.raises(DomainError):
            call(space, [first] + [0.0] * (space.dim - 1))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_length_raises_dimension_mismatch(self, entry, extra):
        name, call = ENTRY_POINTS[entry]
        space = preset(name)
        with pytest.raises(DimensionMismatchError):
            call(space, [1.0] + [0.0] * (space.dim - 1 + extra))

    def test_point_on_the_wrong_side_raises_domain_error(self):
        space = preset("l2-2")
        with pytest.raises(DomainError):
            s_point(space, Point.of(space, E1, side="dual"), E1, 1.0)
        with pytest.raises(DomainError):
            s_star(space, Point.of(space, E1), E1, 1.0)


def _lex(rows) -> np.ndarray:
    A = np.asarray(rows, dtype=float)
    return A[np.lexsort(A.T[::-1])]


class TestFacets:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_cross_polytope_and_hypercube_facets(self, d, rng):
        signs = _lex(list(product([-1.0, 1.0], repeat=d)))
        units = _lex(np.vstack([np.eye(d), -np.eye(d)]))
        l1, linf = cross_polytope(d), hypercube(d)
        assert np.array_equal(l1.facets, signs)
        assert np.array_equal(linf.facets, units)
        v = rng.normal(size=(50, d))
        assert np.allclose(norm(l1, v), np.abs(v).sum(axis=1), rtol=0.0, atol=1e-12)
        assert np.allclose(norm(linf, v), np.abs(v).max(axis=1), rtol=0.0, atol=1e-12)

    def test_enumeration_cap_raises_budget_error_before_work(self):
        space = hypercube(6)  # C(64, 6) vertex subsets, past the cap
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            norm(space, np.ones(6))
        assert time.perf_counter() - start < 0.5

    def test_icosahedron_faces(self):
        V, F = _icosphere(0)
        assert F.shape == (20, 3)
        edges = {tuple(sorted((int(a), int(b)))) for f in F
                 for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0]))}
        lengths = [np.linalg.norm(V[a] - V[b]) for a, b in edges]
        assert len(edges) == 30
        assert np.allclose(lengths, lengths[0], rtol=0.0, atol=1e-12)
        assert np.array_equal(np.bincount(F.ravel(), minlength=12), [5] * 12)
        assert len(_icosphere(3)[0]) == 642


def test_runtime_imports_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "import ballmoduli as bm\n"
        "sq = bm.preset('square-rot')\n"
        "bm.slice_diameter(sq, bm.Slice.of(bm.support_functional(sq, sq.vertices[0]).array, 0.5))\n"
        "l1 = bm.preset('l1-3d')\n"
        "bm.norm(l1, [1.0, 2.0, 3.0]); bm.norm(bm.polar_space(l1), [1.0, 2.0, 3.0])\n"
        "bm.d_point(bm.preset('l2-3'), [1.0, 0.0, 0.0], 0.5, bm.Budget(resolution=0.3))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_d_point_leaves_numpy_ma_unimported():
    # numpy imports numpy.ma lazily, on first use (np.unique uses it); the
    # d scans have no use for it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "import ballmoduli as bm\n"
        "bm.d_point(bm.preset('lp:1.5-2d'), [1.0, 0.0], 0.5, bm.Budget(resolution=4e-2))\n"
        "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
