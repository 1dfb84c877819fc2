import math

import pytest

from ballmoduli import (Budget, DomainError, d_global, d_point, d_star,
                        d_star_global, d_star_zero, d_star_zero_global,
                        modulus_convexity, preset, s_point, s_star)

S_PIN = math.sqrt(17.0) / 4.0 - 1.0  # inf over the kernel line in the plane
DELTA_PIN = 1.0 - math.sqrt(3.0) / 2.0


class TestModulusConvexity:
    def test_euclidean_closed_form(self):
        b = modulus_convexity(preset("l2-2"), 1.0)
        assert b.contains(DELTA_PIN, slack=1e-12)
        assert b.width <= 5e-3

    def test_lp_closed_form(self):
        b = modulus_convexity(preset("lp:4-2d"), 1.0)
        val = 1.0 - (1.0 - 1.0 / 16.0) ** 0.25
        assert b.lower <= val <= b.upper

    def test_flat_space_vanishes(self):
        b = modulus_convexity(preset("linf-2d"), 1.0)
        assert b.lower == 0.0
        assert b.upper <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            modulus_convexity(preset("l2-2"), 0.0)
        with pytest.raises(DomainError):
            modulus_convexity(preset("l2-2"), 2.5)


class TestSPoint:
    def test_euclidean_norming_pin(self):
        b = s_point(preset("l2-2"), (1.0, 0.0), (1.0, 0.0), 1.0)
        assert b.lower <= S_PIN <= b.upper
        assert b.width <= 5e-3

    def test_perpendicular_functional_reaches_minus_one(self):
        # ker f = span{x}: y = -x is feasible and ||x + y|| - 1 = -1
        b = s_point(preset("l2-2"), (1.0, 0.0), (0.0, 1.0), 1.0)
        assert b.lower <= -1.0 + 1e-9
        assert b.upper >= -1.0 - 1e-3

    def test_hypercube_face_value_zero(self):
        b = s_point(preset("linf-2d"), (1.0, 0.0), (1.0, 0.0), 1.0)
        assert b.lower <= 0.0 <= b.upper
        assert b.width <= 5e-3

    def test_norming_functional_nonnegative(self):
        b = s_point(preset("lp:1.5-2d"), (1.0, 0.0), (1.0, 0.0), 0.8)
        assert b.upper >= -1e-9

    def test_non_unit_inputs_raise(self):
        with pytest.raises(DomainError):
            s_point(preset("l2-2"), (2.0, 0.0), (1.0, 0.0), 1.0)
        with pytest.raises(DomainError):
            s_point(preset("l2-2"), (1.0, 0.0), (2.0, 0.0), 1.0)


class TestDPoint:
    def test_euclidean_matches_norming_direction(self):
        b = d_point(preset("l2-2"), (1.0, 0.0), 1.0)
        assert b.lower <= S_PIN <= b.upper

    def test_hypercube_vertex_is_denting(self):
        b = d_point(preset("linf-2d"), (1.0, 1.0), 1.0)
        assert b.lower >= 0.25 - 1e-3

    def test_hypercube_edge_midpoint_not_denting(self):
        b = d_point(preset("linf-2d"), (1.0, 0.0), 0.5)
        assert b.lower == 0.0
        assert b.upper <= 2e-2

    def test_lower_bound_never_negative(self):
        b = d_point(preset("l1-2d"), (0.5, 0.5), 0.5)
        assert b.lower >= 0.0

    def test_euclidean_3d_matches_norming_direction(self):
        b = d_point(preset("l2-3"), (1.0, 0.0, 0.0), 1.0, Budget(resolution=0.3))
        assert b.lower <= S_PIN <= b.upper


class TestDGlobal:
    def test_euclidean_rotation_invariance(self):
        b = d_global(preset("l2-2"), 1.0)
        assert b.lower <= S_PIN <= b.upper

    def test_hypercube_vanishes_at_edge_midpoints(self):
        b = d_global(preset("linf-2d"), 0.5)
        assert b.lower == 0.0
        assert b.upper <= 2e-2

    def test_cross_polytope_vanishes(self):
        b = d_global(preset("l1-2d"), 0.5)
        assert b.lower == 0.0


class TestDualFamily:
    def test_self_dual_s_star_equals_s(self):
        b = s_star(preset("l2-2"), (1.0, 0.0), (1.0, 0.0), 1.0)
        assert b.lower <= S_PIN <= b.upper

    def test_dual_vertex_is_wstar_denting(self):
        # X = l1 so the dual ball is the square; (1,1) is a vertex
        b = d_star(preset("l1-2d"), (1.0, 1.0), 1.0)
        assert b.lower >= 0.25 - 1e-3

    def test_dual_face_midpoint_not_wstar_denting(self):
        b = d_star(preset("l1-2d"), (1.0, 0.0), 0.5)
        assert b.lower == 0.0
        assert b.upper <= 2e-2

    def test_d_star_global_euclidean(self):
        b = d_star_global(preset("l2-2"), 1.0)
        assert b.lower <= S_PIN <= b.upper


class TestDStarZero:
    def test_dominates_d_star(self):
        space = preset("l2-2")
        dz = d_star_zero(space, (1.0, 0.0), 0.5)
        ds = d_star(space, (1.0, 0.0), 0.5)
        assert dz.upper >= ds.lower - 1e-9

    def test_flat_neighborhood_vanishes(self):
        b = d_star_zero(preset("l1-2d"), (1.0, 0.0), 0.5)
        assert b.lower == 0.0
        assert b.upper <= 0.1

    def test_global_euclidean_positive(self):
        b = d_star_zero_global(preset("l2-2"), 0.5,
                               Budget(resolution=5e-3))
        assert b.upper > 0.0
