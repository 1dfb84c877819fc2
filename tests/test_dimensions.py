"""Certified searches run in dimensions 2 and 3 only; Euclidean beta answers
in every dimension >= 2 through its plane model."""

import math

import numpy as np
import pytest

from ballmoduli import (Budget, DomainError, Slice, beta_global, beta_point,
                        beta_sup, construct_separating_ball, cross_polytope,
                        d_global, d_point, d_star, d_star_global, d_star_zero,
                        d_star_zero_global, f_eps_radius, lp_space,
                        modulus_convexity, s_point, s_star, slice_diameter)
from ballmoduli.gridutil import lowdisc_sphere

BUDGET = Budget(resolution=0.3)

MODULI = {
    "modulus_convexity": lambda sp, x, f: modulus_convexity(sp, 0.5, BUDGET),
    "s_point": lambda sp, x, f: s_point(sp, x, f, 0.5, BUDGET),
    "d_point": lambda sp, x, f: d_point(sp, x, 0.5, BUDGET),
    "d_global": lambda sp, x, f: d_global(sp, 0.5, BUDGET),
    "s_star": lambda sp, x, f: s_star(sp, f, x, 0.5, BUDGET),
    "d_star": lambda sp, x, f: d_star(sp, f, 0.5, BUDGET),
    "d_star_global": lambda sp, x, f: d_star_global(sp, 0.5, BUDGET),
    "d_star_zero": lambda sp, x, f: d_star_zero(sp, f, 0.5, BUDGET),
    "d_star_zero_global": lambda sp, x, f: d_star_zero_global(sp, 0.5, BUDGET),
    "beta_point": lambda sp, x, f: beta_point(sp, f, x, 0.5, BUDGET),
    "beta_sup": lambda sp, x, f: beta_sup(sp, f, 0.5, BUDGET),
    "beta_global": lambda sp, x, f: beta_global(sp, [0.5], BUDGET),
    "slice_diameter": lambda sp, x, f: slice_diameter(sp, Slice.of(f, 0.5), BUDGET),
    "f_eps_radius": lambda sp, x, f: f_eps_radius(sp, 0.5, BUDGET),
    "construct_separating_ball":
        lambda sp, x, f: construct_separating_ball(sp, [2.0 * x], f, 1.0, 3.0, BUDGET),
}

SPACES = {"l2-1": lambda: lp_space(1, 2.0), "l3-1": lambda: lp_space(1, 3.0),
          "cross-4": lambda: cross_polytope(4)}


@pytest.mark.parametrize("space", sorted(SPACES))
@pytest.mark.parametrize("modulus", sorted(MODULI))
def test_outside_dimensions_2_and_3_every_modulus_raises(space, modulus):
    sp = SPACES[space]()
    e = np.eye(sp.dim)[0]  # a unit vector and a unit functional in all three
    with pytest.raises(DomainError, match="dimension 2 or 3"):
        MODULI[modulus](sp, e, e)


@pytest.mark.parametrize("dim", [1, 4])
def test_lowdisc_sphere_refuses_other_dimensions(dim):
    with pytest.raises(DomainError, match="dimension 2 or 3"):
        lowdisc_sphere(lp_space(dim, 3.0), 5)


def test_euclidean_beta_in_four_dimensions_uses_the_plane():
    plane, space = lp_space(2, 2.0), lp_space(4, 2.0)
    f = np.array([0.5, 0.5, 0.5, 0.5])
    want = beta_sup(plane, (1.0, 0.0), 0.5, BUDGET)
    assert beta_sup(space, f, 0.5, BUDGET) == want
    assert beta_global(space, [0.5], BUDGET).values[0] == want
    x = np.array([1.0, 0.0, 0.0, 0.0])
    got = beta_point(space, f, x, 0.5, BUDGET)
    want = beta_point(plane, (1.0, 0.0), (0.5, math.sqrt(0.75)), 0.5, BUDGET)
    assert got == want
