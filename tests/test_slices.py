import math

import numpy as np
import pytest

from ballmoduli import (MULTISTART, BallConstructionError, Budget,
                        DimensionMismatchError, DomainError,
                        SeparatingBall, Slice, construct_separating_ball,
                        f_eps_radius, norm, pairing, polar_space, polyhedral_space,
                        preset, slice_diameter)
from ballmoduli.gridutil import sharp_equiv_constants, sphere_grid
from ballmoduli import slices
from ballmoduli.slices import _max_pair
from ballmoduli.spaces import _norm_array


class TestSliceDiameter:
    def test_euclidean_dual_slice_chord(self):
        alpha = 0.9365
        b = slice_diameter(preset("l2-2"), Slice.of((1.0, 0.0), alpha, "dual"),
                           Budget(resolution=5e-4))
        assert b.contains(2.0 * math.sqrt(1.0 - alpha * alpha), slack=1e-12)
        assert b.width <= 5e-3

    def test_square_dual_slice_in_own_norm(self):
        # X = l1, dual ball the square; the slice {g1 >= 1/2} spans the
        # full vertical edge range, diameter 2 in the sup norm
        b = slice_diameter(preset("l1-2d"), Slice.of((1.0, 0.0), 0.5, "dual"))
        assert b.contains(2.0, slack=1e-9)

    def test_empty_slice_convention(self):
        b = slice_diameter(preset("l2-2"), Slice.of((1.0, 0.0), 1.0))
        assert (b.lower, b.upper) == (0.0, 0.0)

    def test_monotone_in_threshold(self):
        space = preset("l2-2")
        b1 = slice_diameter(space, Slice.of((1.0, 0.0), 0.5))
        b2 = slice_diameter(space, Slice.of((1.0, 0.0), 0.8))
        assert b2.midpoint <= b1.midpoint + b1.width + b2.width

    def test_plane_pair_scan_needs_one_arc(self):
        space = preset("l2-2")
        pts = sphere_grid(space, 0.1).points
        mask = np.zeros(len(pts), dtype=bool)
        mask[[-2, -1, 0, 1]] = True  # one run, across the wrap-around
        assert _max_pair(space, pts, mask) == pytest.approx(
            float(np.linalg.norm(pts[-2] - pts[1])), abs=1e-15)
        # the dual square's left-face points sit at -1 and -0.9999999999999999
        # alternately, so the mask at that threshold forms 4 runs; the scan
        # covers the shortest run holding them all
        W = polar_space(polyhedral_space([(-0.625, 0), (0, -0.625), (0.625, 0),
                                          (0, 0.625)]))
        L = sharp_equiv_constants(W).projection_lipschitz
        pts = sphere_grid(W, math.pi * L / 39.5).points
        mask = pts[:, 0] * 0.625 >= -0.9999999999999999
        starts = np.flatnonzero(mask & ~np.roll(mask, 1))
        assert len(pts) == 40 and len(starts) == 4
        P = pts[mask]
        expected = float(np.max(_norm_array(W, P[:, None, :] - P[None, :, :])))
        assert abs(_max_pair(W, pts, mask) - expected) <= 1e-15

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            Slice.of((1.0, 0.0), 0.0)
        with pytest.raises(DomainError):
            slice_diameter(preset("l2-2"), Slice.of((2.0, 0.0), 0.5))


class TestMaxPair3D:
    @pytest.mark.parametrize("name", ["l2-3", "lp:1.5-3d", "l1-3d", "linf-3d"])
    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_unordered_pairs_equal_all_ordered_pairs(self, name, side, monkeypatch):
        # each unordered pair once gives the all-ordered-pairs max bit for
        # bit: ||a - b|| and ||b - a|| are equal in floating point; small
        # blocks, so that most pairs fall across two of them
        monkeypatch.setattr(slices, "_PAIR_CHUNK", 37)
        space = preset(name)
        W = space if side == "primal" else polar_space(space)
        pts = sphere_grid(W, 0.3).points
        mask = pts[:, 0] + 0.5 * pts[:, 1] >= -0.2
        P = pts[mask]
        expected = float(np.max(_norm_array(W, P[:, None, :] - P[None, :, :])))
        assert _max_pair(W, pts, mask) == expected


class TestFEpsRadius:
    def test_euclidean_upper_bound(self):
        b = f_eps_radius(preset("l2-2"), 1.0)
        # 1 - 2 delta(1/2) = sqrt(1 - 1/16) for the disk
        assert b.upper <= math.sqrt(1.0 - 1.0 / 16.0) + 1e-3
        assert b.lower <= b.upper

    def test_square_face_midpoints_never_witnessed(self):
        b = f_eps_radius(preset("l1-2d"), 0.5)
        assert b.lower >= 1.0 - 1e-6

    def test_sampled_lower_bound_is_tagged_best_effort(self):
        b = f_eps_radius(preset("l2-2"), 1.0, Budget(resolution=0.05))
        assert b.method == MULTISTART

    def test_large_eps_convention(self):
        b = f_eps_radius(preset("l2-2"), 2.0)
        assert (b.lower, b.upper) == (0.0, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            f_eps_radius(preset("l2-2"), 0.0)


class TestSeparatingBall:
    def test_euclidean_instance_satisfies_postconditions(self):
        space = preset("l2-2")
        C = [(0.5, -0.2), (0.5, 0.2)]
        eps, M = 0.5, 1.0
        ball = construct_separating_ball(space, C, (1.0, 0.0), eps, M)
        assert isinstance(ball, SeparatingBall)
        center = np.asarray(ball.center.coords)
        for v in C:
            assert norm(space, np.asarray(v) - center) <= ball.radius + 1e-6
        assert pairing((1.0, 0.0), center) - ball.radius >= eps / 2.0 - 1e-6
        assert ball.radius <= ball.K + 1e-6

    def test_degenerate_single_point(self):
        ball = construct_separating_ball(
            preset("l2-2"), [(0.5, 0.0)], (1.0, 0.0), 0.5, 1.0)
        assert ball.radius > 0.0

    def test_flat_dual_ball_fails_structurally(self):
        with pytest.raises(BallConstructionError) as err:
            construct_separating_ball(
                preset("l1-2d"), [(0.5, -0.2), (0.5, 0.2)], (1.0, 0.0),
                0.5, 1.0)
        assert err.value.condition == "no-small-slice-witness"

    def test_metadata_consistency(self):
        ball = construct_separating_ball(
            preset("l2-2"), [(0.5, 0.0)], (1.0, 0.0), 0.5, 1.0)
        assert ball.eta == pytest.approx(1.0 - 2.0 * ball.k * (1.0 - ball.gamma))
        assert ball.lam == pytest.approx(ball.M1 / (1.0 - ball.eta))

    def test_rejects_bad_inputs(self):
        space = preset("l2-2")
        with pytest.raises(DomainError):  # C escapes the M-ball
            construct_separating_ball(space, [(2.0, 0.0)], (1.0, 0.0), 0.5, 1.0)
        with pytest.raises(DomainError):  # inf f over C below eps
            construct_separating_ball(space, [(0.1, 0.0)], (1.0, 0.0), 0.5, 1.0)
        with pytest.raises(DomainError):  # f not unit
            construct_separating_ball(space, [(0.5, 0.0)], (2.0, 0.0), 0.5, 1.0)
        with pytest.raises(DomainError):  # a vertex of C is not finite
            construct_separating_ball(space, [(0.6, 0.0), (math.nan, 0.0)],
                                      (1.0, 0.0), 0.5, 1.0)
        with pytest.raises(DimensionMismatchError):  # a vertex of C is 3-D
            construct_separating_ball(space, [(0.6, 0.0, 0.0)], (1.0, 0.0), 0.5, 1.0)
        with pytest.raises(DomainError):  # C is empty
            construct_separating_ball(space, np.zeros((0, 2)), (1.0, 0.0), 0.5, 1.0)
