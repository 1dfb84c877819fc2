import numpy as np
import pytest

from ballmoduli import (Budget, DomainError, beta_global, beta_point, beta_sup,
                        dual_norm, duality_preimage, is_euclidean, lp_space,
                        make_lp_sum, preset, weighted_lp_space)
from ballmoduli import beta


class TestBetaPoint:
    def test_euclidean_circle_intersection(self):
        b = beta_point(preset("l2-2"), (1.0, 0.0), (1.0, 0.0), 0.5)
        assert b.contains(0.125, slack=1e-12)
        assert b.width <= 5e-3

    def test_upper_bounded_by_t_for_norming_pair(self):
        # g = (1-t) f is feasible with 1 - g(x) = t
        b = beta_point(preset("lp:1.5-2d"), (1.0, 0.0), (1.0, 0.0), 0.5)
        assert b.upper <= 0.5 + 1e-6

    def test_flat_face_vanishes(self):
        b = beta_point(preset("l1-2d"), (1.0, 0.0), (1.0, 0.0), 0.5)
        assert b.lower == 0.0
        assert b.upper <= 5e-3

    def test_euclidean_3d_plane_reduction(self):
        b2 = beta_point(preset("l2-2"), (1.0, 0.0), (1.0, 0.0), 0.5)
        b3 = beta_point(preset("l2-3"), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.5)
        assert b3.overlaps(b2)
        assert b3.width <= 5e-3
        # a weighted l2 norm is an inner-product norm too; at a norming pair
        # beta(f, x, t) = t^2 / 2
        space = weighted_lp_space(2.0, (1.0, 4.0, 9.0))
        f = np.array([1.0, 1.0, 1.0])
        f = f / dual_norm(space, f)
        b = beta_point(space, f, duality_preimage(space, f), 0.5,
                       Budget(resolution=5e-3))
        assert b.contains(0.125)

    def test_inverted_candidates_raise(self, monkeypatch):
        x = np.array([1.0, 0.0])
        # feasible g = x gives upper 0; relaxed g = -x gives lower 2 - h
        monkeypatch.setattr(beta, "_candidate_surfaces",
                            lambda W, fa, t, res: (x[None, :], -x[None, :], 1e-3))
        with pytest.raises(ValueError, match="exceeds upper"):
            beta_point(preset("lp:1.5-2d"), (1.0, 0.0), x, 0.5)

    def test_domain_and_units(self):
        with pytest.raises(DomainError):
            beta_point(preset("l2-2"), (1.0, 0.0), (1.0, 0.0), 1.5)
        with pytest.raises(DomainError):
            beta_point(preset("l2-2"), (2.0, 0.0), (1.0, 0.0), 0.5)


class TestBetaSup:
    def test_euclidean_pin(self):
        b = beta_sup(preset("l2-2"), (1.0, 0.0), 0.5)
        assert b.contains(0.125, slack=1e-12)

    def test_flat_face_vanishes(self):
        b = beta_sup(preset("l1-2d"), (1.0, 0.0), 0.5)
        assert b.lower == 0.0
        assert b.upper <= 5e-3

    def test_dual_vertex_positive(self):
        b = beta_sup(preset("l1-2d"), (1.0, 1.0), 0.25)
        assert b.lower > 0.0


class TestBetaGlobal:
    def test_euclidean_curve_is_half_t_squared(self):
        curve = beta_global(preset("l2-2"), (0.25, 0.5, 0.75))
        for t, b in zip(curve.t_grid, curve.values):
            assert b.contains(t * t / 2.0, slack=1e-12)
        assert curve.is_monotone()

    def test_cross_polytope_curve_exactly_zero(self):
        curve = beta_global(preset("l1-2d"), (0.25, 0.5))
        for b in curve.values:
            assert b.lower == 0.0 and b.upper == 0.0

    def test_rotated_square_curve_exactly_zero(self):
        curve = beta_global(preset("square-rot"), (0.5,))
        assert curve.values[0].upper == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_global(preset("l2-2"), (0.5, 1.5))


class TestIsEuclidean:
    def test_classification(self):
        assert is_euclidean(preset("l2-2"))
        assert is_euclidean(preset("l2sum-4"))
        assert not is_euclidean(preset("lp:1.5-2d"))
        assert not is_euclidean(preset("l1-2d"))
        assert not is_euclidean(
            make_lp_sum([lp_space(2, 2.0), lp_space(2, 3.0)], 2.0))
