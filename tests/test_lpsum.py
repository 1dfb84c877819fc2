import math

import numpy as np
import pytest

from ballmoduli import (Bracket, ComponentModuli, DomainError, ModulusCurve,
                        alpha_star, delta_q_lower, dual_norm, norm, preset,
                        sum_beta_lower_bound, sum_slice_threshold_case1,
                        witness_functional)


def _curve(points):
    ts = tuple(t for t, _ in points)
    vals = tuple(Bracket.exact(v) for _, v in points)
    return ModulusCurve(kind="beta", t_grid=ts, values=vals)


class TestDeltaQ:
    def test_euclidean_closed_form(self):
        assert delta_q_lower(2.0, 1.0) == pytest.approx(1.0 - math.sqrt(3.0) / 2.0)

    def test_q4_closed_form(self):
        assert delta_q_lower(4.0, 1.0) == pytest.approx(
            1.0 - (15.0 / 16.0) ** 0.25)

    def test_subquadratic_bound(self):
        assert delta_q_lower(1.5, 0.4) == pytest.approx(0.5 * 0.16 / 8.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_q_lower(1.0, 0.5)
        with pytest.raises(DomainError):
            delta_q_lower(2.0, 3.0)


class TestComponentModuli:
    def test_floor_uses_largest_grid_point_at_or_below(self):
        cm = ComponentModuli(curves=(_curve([(0.1, 0.005), (0.2, 0.02)]),))
        assert cm.floor(0.2) == pytest.approx(0.02)
        assert cm.floor(0.15) == pytest.approx(0.005)
        assert cm.floor(0.05) == 0.0

    def test_floor_is_min_over_components(self):
        cm = ComponentModuli(curves=(_curve([(0.1, 0.02)]),
                                     _curve([(0.1, 0.005)])))
        assert cm.floor(0.1) == pytest.approx(0.005)

    def test_rejects_non_beta_curves(self):
        bad = ModulusCurve(kind="delta", t_grid=(0.5,),
                           values=(Bracket.exact(0.1),))
        with pytest.raises(DomainError):
            ComponentModuli(curves=(bad,))


class TestWitnessFunctional:
    def test_single_block_support(self):
        space = preset("l2sum-4")
        z = witness_functional(space, (1.0, 0.0, 0.0, 0.0))
        assert np.allclose(z.coords, (1.0, 0.0, 0.0, 0.0))

    def test_equal_blocks_at_p_equals_q(self):
        space = preset("l2sum-4")
        r = 1.0 / math.sqrt(2.0)
        z = witness_functional(space, (r, 0.0, r, 0.0))
        assert np.allclose(z.coords, (r, 0.0, r, 0.0), atol=1e-9)

    def test_unit_norm_for_random_f(self, rng):
        space = preset("l2sum-4")
        for _ in range(100):
            f = rng.normal(size=4)
            f = f / dual_norm(space, f)
            z = witness_functional(space, f)
            assert norm(space, np.asarray(z.coords)) == pytest.approx(
                1.0, abs=1e-9)

    def test_norms_f_on_a_mixed_sum(self, rng):
        space = preset("lpsum:3:l1-2d+lp:1.5-2d")
        for _ in range(100):
            f = rng.normal(size=4)
            f = f / dual_norm(space, f)
            z = np.asarray(witness_functional(space, f).coords)
            assert norm(space, z) == pytest.approx(1.0, abs=1e-9)
            assert float(f @ z) == pytest.approx(1.0, abs=1e-9)

    def test_zero_f_raises(self):
        with pytest.raises(DomainError):
            witness_functional(preset("l2sum-4"), (0.0, 0.0, 0.0, 0.0))


class TestThresholdAndBound:
    def test_degenerate_floor_gives_vacuous_threshold(self):
        cm = ComponentModuli(curves=(_curve([(0.1, 0.0)]),))
        assert sum_slice_threshold_case1(2.0, 0.8, cm) == 1.0

    def test_threshold_formula(self):
        cm = ComponentModuli(curves=(_curve([(0.2, 0.02)]),))
        tau = sum_slice_threshold_case1(2.0, 0.8, cm)
        assert tau == pytest.approx(1.0 - 0.09 * 0.02)

    def test_bound_magnitude_from_bisection(self):
        cm = ComponentModuli(curves=(_curve([(0.1, 0.005)]),))
        a = alpha_star(2.0, 0.8, cm)
        bound = sum_beta_lower_bound(2.0, 2.0, 0.8, cm)
        target = 0.15 * 0.005
        assert 0.0 < a < target
        assert bound == pytest.approx(delta_q_lower(2.0, a / 2.0))
        assert bound == pytest.approx(1.75e-8, rel=0.1)

    def test_bound_zero_on_infeasibility(self):
        cm = ComponentModuli(curves=(_curve([(0.1, 0.0)]),))
        assert sum_beta_lower_bound(2.0, 2.0, 0.8, cm) == 0.0

    def test_bound_monotone_in_floor(self):
        lo = ComponentModuli(curves=(_curve([(0.1, 0.002)]),))
        hi = ComponentModuli(curves=(_curve([(0.1, 0.02)]),))
        assert (sum_beta_lower_bound(2.0, 2.0, 0.8, hi)
                >= sum_beta_lower_bound(2.0, 2.0, 0.8, lo))

    def test_conjugacy_enforced(self):
        cm = ComponentModuli(curves=(_curve([(0.1, 0.005)]),))
        with pytest.raises(DomainError):
            sum_beta_lower_bound(2.0, 3.0, 0.8, cm)
        with pytest.raises(DomainError):
            sum_slice_threshold_case1(2.0, 1.5, cm)
