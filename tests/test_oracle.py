"""The independent oracle: exact rational values and brute-force grids.

The exact values pinned here were computed by the rational path itself
and cross-checked against the brute-force grids; they are the ground
truth the engine tests compare against.
"""

import math
from fractions import Fraction

import pytest

from ballmoduli import (Budget, DomainError, beta_sup, polyhedral_space,
                        preset)
from ballmoduli.oracle import (BATTERY, exact_beta_point, exact_beta_sup,
                               exact_d_positive, exact_d_star_positive,
                               exact_d_star_zero_is_zero, exact_s_point,
                               exact_slice_diameter, grid_bracket, to_polygon)


class TestExactPolyhedral:
    def test_to_polygon_rounds_vertices_to_nearest(self):
        # the oracle alone rounds: square-rot's floats 0.2 and 1.4 become
        # the short rationals 1/5 and 7/5
        verts = to_polygon(preset("square-rot")).vertices
        assert all(isinstance(c, Fraction) for v in verts for c in v)
        assert (Fraction(1, 5), Fraction(7, 5)) in verts

    def test_square_dual_slice_diameter(self):
        # slice {g1 >= 1/2} of the square dual ball, measured in its norm
        val = exact_slice_diameter(preset("l1-2d"), (1.0, 0.0), 0.5, "dual")
        assert val == 2

    def test_s_point_hypercube_vertex(self):
        val = exact_s_point(preset("linf-2d"), (1.0, 1.0), (0.5, 0.5), 1.0)
        assert val == Fraction(1, 4)

    def test_s_point_rotated_square_vertex(self):
        val = exact_s_point(preset("square-rot"), (0.2, 1.4), (0.8, 0.6), 1.0)
        assert val == 0

    def test_beta_sup_vanishes_on_flat_face(self):
        assert exact_beta_sup(preset("l1-2d"), (1.0, 0.0), 0.5) == 0

    def test_beta_point_vanishes_on_flat_face(self):
        assert exact_beta_point(preset("l1-2d"), (1.0, 0.0), (1.0, 0.0), 0.5) == 0

    def test_beta_sup_positive_at_dual_vertex(self):
        assert exact_beta_sup(preset("l1-2d"), (1.0, 1.0), 0.25) == Fraction(1, 8)

    def test_beta_point_hypercube(self):
        val = exact_beta_point(preset("linf-2d"), (1.0, 0.0), (1.0, 0.0), 0.5)
        assert val == Fraction(1, 4)

    def test_denting_sign_at_vertex_and_edge(self):
        space = preset("l1-2d")
        assert exact_d_positive(space, (1.0, 0.0), 0.5)
        assert not exact_d_positive(space, (0.5, 0.5), 0.5)

    def test_dual_denting_sign(self):
        space = preset("l1-2d")  # dual ball is the square
        assert exact_d_star_positive(space, (1.0, 1.0), 0.5)
        assert not exact_d_star_positive(space, (1.0, 0.0), 0.5)

    def test_sign_tests_scale_a_rounded_point_onto_the_sphere(self):
        # the float f lies on a dual edge up to rounding, 2e-16 outside the
        # dual ball: d*(f, t) = 0 there, as d*0(f, t) = 0 requires
        space = polyhedral_space([(-0.625, 0.0), (-0.0625, -1.0), (0.5625, -0.5625),
                                  (0.625, 0.0), (0.0625, 1.0), (-0.5625, 0.5625)])
        f = (0.0032679738562091504, -1.0002042483660132)
        assert exact_d_star_zero_is_zero(space, f, 0.0625)
        assert not exact_d_star_positive(space, f, 0.0625)

    def test_beta_sup_cut_edge_through_origin(self):
        # an edge of f + t B* lies on a line through the origin
        space = polyhedral_space([(7 / 8, 7 / 16), (-7 / 8, -7 / 16), (0.0, 15 / 16),
                                  (0.0, -15 / 16), (7 / 8, -1 / 2), (-7 / 8, 1 / 2)])
        f = (-4 / 105, -16 / 15)
        val = exact_beta_sup(space, f, 0.5)
        assert val == 0
        assert beta_sup(space, f, 0.5, Budget(resolution=5e-3)).contains(float(val))

    def test_d_star_zero_detection(self):
        space = preset("l1-2d")
        # every g within 1/2 of the face midpoint stays on the flat face
        assert exact_d_star_zero_is_zero(space, (1.0, 0.0), 0.5)
        # around the square's vertex there are denting functionals
        assert not exact_d_star_zero_is_zero(space, (1.0, 1.0), 0.5)


class TestGridBrackets:
    def test_delta_euclidean_closed_form(self):
        b = grid_bracket("delta", preset("l2-2"), 2e-3, t=1.0)
        assert b.lower <= 1.0 - math.sqrt(3.0) / 2.0 <= b.upper

    def test_delta_flat_space_is_zero(self):
        b = grid_bracket("delta", preset("linf-2d"), 2e-3, t=1.0)
        assert b.lower == 0.0
        assert b.upper <= 1e-12

    def test_s_euclidean_closed_form(self):
        b = grid_bracket("s", preset("l2-2"), 1e-3,
                         x=(1.0, 0.0), f=(1.0, 0.0), t=1.0)
        assert b.lower <= math.sqrt(17.0) / 4.0 - 1.0 <= b.upper

    def test_s_perpendicular_functional_reaches_minus_one(self):
        b = grid_bracket("s", preset("l2-2"), 1e-3,
                         x=(1.0, 0.0), f=(0.0, 1.0), t=1.0)
        assert b.lower <= -1.0 <= b.upper

    def test_beta_euclidean_closed_form(self):
        b = grid_bracket("beta", preset("l2-2"), 4e-3,
                         f=(1.0, 0.0), x=(1.0, 0.0), t=0.5)
        assert b.lower <= 0.125 <= b.upper

    def test_slice_diameter_chord_formula(self):
        alpha = 0.9365
        b = grid_bracket("slice-diameter", preset("l2-2"), 2e-3,
                         direction=(1.0, 0.0), alpha=alpha, ball_side="dual")
        assert b.lower <= 2.0 * math.sqrt(1.0 - alpha * alpha) <= b.upper

    def test_d_bracket_contains_euclidean_value(self):
        b = grid_bracket("d", preset("l2-2"), 3e-3, x=(1.0, 0.0), t=1.0)
        assert b.lower <= math.sqrt(17.0) / 4.0 - 1.0 <= b.upper

    def test_unknown_kind_raises(self):
        with pytest.raises(DomainError):
            grid_bracket("nope", preset("l2-2"), 1e-2, t=1.0)

    def test_dimension_limit(self):
        with pytest.raises(DomainError):
            grid_bracket("delta", preset("l2sum-4"), 1e-2, t=1.0)

    def test_inverted_bracket_raises(self, monkeypatch):
        from ballmoduli import oracle
        monkeypatch.setattr(oracle, "_g_delta", lambda *a, **k: (0.5, 0.4, 1.0))
        with pytest.raises(ValueError):
            grid_bracket("delta", preset("l2-2"), 1e-2, t=1.0)

    def test_delta_upper_end_floored_at_zero(self):
        # the best feasible objective is -2.2e-16, rounding in ||x+y|| <= 2
        b = grid_bracket("delta", preset("l1-2d"), 2e-3, t=0.5)
        assert b.lower == 0.0 and b.upper == 0.0


def test_battery_is_fixed_and_well_formed():
    assert len(BATTERY) == 30
    kinds = {item["kind"] for item in BATTERY}
    assert kinds == {"delta", "s", "d", "beta", "beta_sup", "slice-diameter"}
    for item in BATTERY:
        assert preset(item["space"]).dim <= 3
