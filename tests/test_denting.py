import math

import numpy as np
import pytest

from ballmoduli import (Budget, BudgetError, DomainError, d_global, d_point, d_star,
                        d_star_global, d_star_zero, d_star_zero_global,
                        modulus_convexity, polar_space, polyhedral_space, preset,
                        s_point, s_star, weighted_lp_space)
from ballmoduli import denting
from ballmoduli.config import resolve
from ballmoduli.gridutil import lowdisc_sphere, sharp_equiv_constants, sphere_grid
from ballmoduli.spaces import _norm_array, _support_array

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

    def test_plane_budget_counts_the_scan_not_the_pair_grid(self):
        space = preset("lp:3-2d")
        n = len(sphere_grid(space, 1.5e-3).points)
        default = modulus_convexity(space, 1.0)
        # below n^2/2, the old all-pairs refusal threshold, but above the
        # O(n log n) norms of the 2-D scan
        assert modulus_convexity(space, 1.0, Budget(max_evals=n * n // 8)) == default
        with pytest.raises(BudgetError):
            modulus_convexity(space, 1.0, Budget(max_evals=10 * n))

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

    def test_inverted_kernel_minima_raise(self, monkeypatch):
        monkeypatch.setattr(denting, "_kernel_mins",
                            lambda *a, **k: (np.array([0.5]), np.array([0.1])))
        with pytest.raises(ValueError, match="exceeds upper"):
            s_point(preset("l2-2"), (1.0, 0.0), (1.0, 0.0), 1.0)


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


class TestBatchedBounds:
    """The d-family helpers on several base points at once equal the same
    calls one base point at a time, exactly."""

    @pytest.mark.parametrize("name,res", [("lp:1.5-2d", 4e-2), ("l1-2d", 4e-2),
                                          ("l2-3", 0.3)])
    def test_rows_match_single_calls(self, name, res):
        space = preset(name)
        X = sphere_grid(space, 0.5).points[:5]
        dual = sphere_grid(polar_space(space), 2 * res)
        lo, up = denting._d_point_bounds(space, X, dual.points, 0.7, res,
                                         10 ** 9, covering=dual.covering)
        cheap = denting._d_lower_cheap(space, X, 0.7, res, 10 ** 9, n_extra=8)
        for i, x in enumerate(X):
            lo1, up1 = denting._d_point_bounds(space, X[i:i + 1], dual.points,
                                               0.7, res, 10 ** 9,
                                               covering=dual.covering)
            assert (lo1[0], up1[0]) == (lo[i], up[i])
            assert denting._d_lower_cheap(space, x[None, :], 0.7, res, 10 ** 9,
                                          n_extra=8)[0] == cheap[i]
        assert np.all(lo <= up) and np.all(cheap <= up)
        assert denting._d_point_bounds(space, X, dual.points, 0.7, res,
                                       10 ** 9)[1] is None

    @pytest.mark.parametrize("name", ["lp:1.5-2d", "l2-3"])
    def test_no_rows_give_empty_bounds(self, name):
        space = preset(name)
        X = np.empty((0, space.dim))
        dual = sphere_grid(polar_space(space), 0.6)
        lo, up = denting._d_point_bounds(space, X, dual.points, 0.7, 0.3,
                                         10 ** 9, covering=dual.covering)
        assert lo.shape == up.shape == (0,)
        assert denting._d_lower_cheap(space, X, 0.7, 0.3, 10 ** 9).shape == (0,)


def _seeded_polygon(seed: int):
    """A symmetric polygon with 10 vertices at seeded angles on the circle."""
    angles = np.sort(np.random.default_rng(seed).uniform(0.0, math.pi, 5))
    half = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return polyhedral_space(np.vstack([half, -half]).tolist())


def _rational_polygon(seed: int):
    """A symmetric polygon with 10 vertices on the 1/16 grid (seeded)."""
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, math.pi, 5))
    radii = rng.integers(12, 17, 5)
    half = np.stack([np.round(radii * np.cos(angles)),
                     np.round(radii * np.sin(angles))], axis=-1) / 16.0
    return polyhedral_space(np.vstack([half, -half]).tolist())


def _unpruned_d_global(space, t, budget=None):
    """``d_global``'s ends with the unpruned lower pass, and that pass's
    values: ``_d_lower_cheap`` at every grid point, the least value and the
    first grid point that has it."""
    budget = resolve(budget)
    res_x = denting._resolution(budget, 2e-3, 0.12, space.dim)
    res_i = denting._resolution(budget, 1.5e-3, 0.05, space.dim)
    grid = sphere_grid(space, res_x)
    lows = denting._d_lower_cheap(space, grid.points, t, res_i, budget.max_evals,
                                  n_extra=0)
    i = int(np.argmin(lows))
    return (max(0.0, float(lows[i]) - grid.covering),
            d_point(space, grid.points[i], t, budget).upper), lows


def _unpruned_bounds(space, X, F, t, res, max_evals, covering=None):
    """``_d_point_bounds`` without pruning: one ``_kernel_mins`` over every
    row (x, f) and (x, norming functional of x), maxima per x."""
    n, m = len(X), len(F) + 1
    norming = _support_array(space, X / _norm_array(space, X)[:, None])
    rows = np.concatenate([np.broadcast_to(F, (n,) + F.shape),
                           norming[:, None, :]], axis=1).reshape(n * m, space.dim)
    R_t = 2.0 + t / 4.0
    r_tight = None if covering is None else t / 4.0 + covering * R_t
    lo, up = denting._kernel_mins(space, np.repeat(X, m, axis=0), rows, t, res,
                                  max_evals, r_tight=r_tight)
    lower = np.maximum(lo.reshape(n, m).max(axis=1), 0.0)
    if up is None:
        return lower, None
    return lower, up.reshape(n, m).max(axis=1) + covering * R_t


PRUNE_SPACES = {
    "lp:1.5-2d": (lambda: preset("lp:1.5-2d"), 2e-2),
    "weighted-l3": (lambda: weighted_lp_space(3.0, [1.0, 2.0]), 2e-2),
    "l1-2d": (lambda: preset("l1-2d"), 2e-2),
    "polygon": (lambda: _seeded_polygon(7), 2e-2),
    "l2-3": (lambda: preset("l2-3"), 0.3),
    "l1-3d": (lambda: preset("l1-3d"), 0.3),
    "lp:1.5-3d": (lambda: preset("lp:1.5-3d"), 0.3),
}


def _prune_case(name):
    """(space, res, base points, dual grid) of a ``PRUNE_SPACES`` case."""
    make, res = PRUNE_SPACES[name]
    space = make()
    X = np.vstack([sphere_grid(space, 0.4).points[:4], lowdisc_sphere(space, 3)])
    return space, res, X, sphere_grid(polar_space(space), 2 * res)


class TestPrunedBounds:
    """The pruned ``_d_point_bounds`` equals the row maxima of an unpruned
    ``_kernel_mins`` over all rows, bit for bit."""

    @pytest.mark.parametrize("name", sorted(PRUNE_SPACES))
    # at t = 1.8 rows other than the incumbents raise the max
    @pytest.mark.parametrize("t", [0.3, 1.8])
    def test_equals_unpruned_scan(self, name, t):
        space, res, X, dual = _prune_case(name)
        cases = [(dual.points, dual.covering), (dual.points, None),
                 (lowdisc_sphere(polar_space(space), 16), None),
                 (np.empty((0, space.dim)), None)]
        for F, covering in cases:
            for pts in (X, X[:0]):
                got = denting._d_point_bounds(space, pts, F, t, res, 10 ** 9,
                                              covering=covering)
                want = _unpruned_bounds(space, pts, F, t, res, 10 ** 9, covering)
                assert np.array_equal(got[0], want[0])
                if covering is None:
                    assert got[1] is None and want[1] is None
                else:
                    assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("name", ["l1-2d", "polygon", "l2-3", "l1-3d"])
    def test_ring_pass_bounds_the_full_minima(self, name):
        # the first pass reads a subset of each row's points, so neither
        # of its minima falls below the full scan's
        space, res, X, dual = _prune_case(name)
        F = np.vstack([dual.points, _support_array(space, X)])
        xs = np.repeat(X, len(F), axis=0)
        rows = np.tile(F, (len(X), 1))
        for t in (0.3, 1.8):
            r_tight = t / 4.0 + dual.covering * (2.0 + t / 4.0)
            full = denting._kernel_mins(space, xs, rows, t, res, 10 ** 9,
                                        r_tight=r_tight)
            ring = denting._kernel_mins(space, xs, rows, t, res, 10 ** 9,
                                        r_tight=r_tight, ring_only=True)
            assert np.all(ring[0] >= full[0]) and np.all(ring[1] >= full[1])

    @pytest.mark.parametrize("name", ["l1-2d", "l2-3"])
    def test_rows_after_the_incumbents_are_scanned(self, name, monkeypatch):
        # at t = 1.8 some rows beat the incumbents' best full value, so the
        # pruning's second stage runs on a non-empty set of rows
        space, res, X, dual = _prune_case(name)
        sizes, kernel_mins = [], denting._kernel_mins

        def spy(space, xs, F, *args, **kw):
            sizes.append(len(F))
            return kernel_mins(space, xs, F, *args, **kw)
        monkeypatch.setattr(denting, "_kernel_mins", spy)
        denting._d_point_bounds(space, X, dual.points, 1.8, res, 10 ** 9,
                                covering=dual.covering)
        assert len(sizes) == 3 and sizes[2] > 0

    def test_budget_error_at_the_unpruned_threshold(self):
        # a row's kernel grid has n_c points in the plane; max_evals below
        # that refuses the scan, at it the scan runs one row per chunk
        space, t, res = preset("lp:1.5-2d"), 0.7, 2e-2
        eq = sharp_equiv_constants(space)
        R = (2.0 + t / 4.0) / eq.c * 1.05
        n_c = int(math.ceil(2.0 * R / (res / eq.C))) + 1
        X = sphere_grid(space, 0.5).points[:3]
        dual = sphere_grid(polar_space(space), 0.1)
        full = denting._d_point_bounds(space, X, dual.points, t, res, 10 ** 9,
                                       covering=dual.covering)
        at = denting._d_point_bounds(space, X, dual.points, t, res, n_c,
                                     covering=dual.covering)
        assert np.array_equal(at[0], full[0]) and np.array_equal(at[1], full[1])
        _unpruned_bounds(space, X, dual.points, t, res, n_c, dual.covering)
        for bounds in (denting._d_point_bounds, _unpruned_bounds):
            with pytest.raises(BudgetError):
                bounds(space, X, dual.points, t, res, n_c - 1, dual.covering)


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

    def test_small_budget_scans_in_smaller_chunks(self):
        # max_evals caps each chunk of kernel rows, not the whole sweep, and
        # the bracket does not depend on how the rows are chunked
        space = preset("lp:1.5-2d")
        small = d_global(space, 0.7, Budget(resolution=4e-2, max_evals=500))
        full = d_global(space, 0.7, Budget(resolution=4e-2))
        assert (small.lower, small.upper) == (full.lower, full.upper)


# name -> (space, budget resolutions)
D_GLOBAL_SPACES = {
    "lp:1.5-2d": (lambda: preset("lp:1.5-2d"), (4e-2, 2e-2)),
    "lp:3-2d": (lambda: preset("lp:3-2d"), (4e-2, 2e-2)),
    "weighted-l3": (lambda: weighted_lp_space(3.0, [1.0, 2.0]), (4e-2, 2e-2)),
    "l1-2d": (lambda: preset("l1-2d"), (4e-2, 2e-2)),
    "linf-2d": (lambda: preset("linf-2d"), (4e-2, 2e-2)),
    "square-rot": (lambda: preset("square-rot"), (4e-2, 2e-2)),
    "rational-0": (lambda: _rational_polygon(0), (4e-2, 2e-2)),
    "rational-1": (lambda: _rational_polygon(1), (4e-2, 2e-2)),
    "l2-3": (lambda: preset("l2-3"), (0.3,)),
    "lp:1.5-3d": (lambda: preset("lp:1.5-3d"), (0.3,)),
    "l1-3d": (lambda: preset("l1-3d"), (0.3,)),
}


class TestPrunedDGlobal:
    """``d_global`` and ``d_star_global``, whose lower pass scans only the
    grid points their ring floors cannot rule out, equal the unpruned pass
    at both ends, bit for bit."""

    @pytest.mark.parametrize("name", sorted(D_GLOBAL_SPACES))
    @pytest.mark.parametrize("t", [0.2, 0.9, 1.6, 1.95])
    def test_equals_unpruned(self, name, t):
        make, resolutions = D_GLOBAL_SPACES[name]
        space = make()
        for budget in (Budget(resolution=res) for res in resolutions):
            got = d_global(space, t, budget)
            assert (got.lower, got.upper) == _unpruned_d_global(space, t, budget)[0]
            got = d_star_global(space, t, budget)
            want = _unpruned_d_global(polar_space(space), t, budget)[0]
            assert (got.lower, got.upper) == want

    def test_every_value_clamped_takes_the_first_point(self):
        # every lower-pass value is 0, so the first grid point is the argmin
        space, budget = preset("lp:3-2d"), Budget(resolution=0.3)
        for t in (0.2, 0.9, 1.6):
            want, lows = _unpruned_d_global(space, t, budget)
            assert np.all(lows == 0.0)
            got = d_global(space, t, budget)
            assert (got.lower, got.upper) == want

    def test_default_budget_positive_lower_end(self):
        space = preset("lp:1.5-2d")
        got = d_global(space, 0.5)
        assert (got.lower, got.upper) == _unpruned_d_global(space, 0.5)[0]
        assert got.lower == pytest.approx(0.0011529604028817555, abs=1e-12)
        assert got.upper == pytest.approx(0.012947020256213327, abs=1e-12)

    def test_scans_few_points(self, monkeypatch):
        # on a smooth norm that is not Euclidean the floors rule out most
        # of the grid; on l2-2 every point ties and nothing is ruled out
        rows, kernel_mins = [], denting._kernel_mins
        monkeypatch.setattr(denting, "_kernel_mins",
                            lambda space, xs, *a, **k: rows.append(len(xs))
                            or kernel_mins(space, xs, *a, **k))
        budget = Budget(resolution=4e-2)
        for name, t in (("lp:1.5-2d", 0.9), ("l2-2", 0.9)):
            space = preset(name)
            n = len(sphere_grid(space, 4e-2).points)
            rows.clear()
            denting._least_d_lower(space, sphere_grid(space, 4e-2).points, t, 4e-2,
                                   budget.max_evals)
            assert (sum(rows) < n // 4) == (name == "lp:1.5-2d")

    def test_budget_error_as_unpruned(self):
        # one row's kernel grid over max_evals refuses the scan either way
        space, t, res = preset("lp:1.5-2d"), 0.9, 4e-2
        budget = Budget(resolution=res, max_evals=10)
        with pytest.raises(BudgetError):
            d_global(space, t, budget)
        with pytest.raises(BudgetError):
            _unpruned_d_global(space, t, budget)


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

    def test_small_radius_without_interior_samples(self):
        # no point of the 64-point interior sample lies within t of f, so
        # the lower bound is d*(f, t) alone
        space = preset("l2-2")
        f = np.array([math.cos(0.3), math.sin(0.3)])
        inner = lowdisc_sphere(space, 64)
        assert np.min(np.linalg.norm(inner - f, axis=1)) > 0.01
        coarse = Budget(resolution=4e-2)
        b = d_star_zero(space, f, 0.01, coarse)
        assert b.lower == d_star(space, f, 0.01, coarse).lower
        assert b.lower <= b.upper

    @pytest.mark.parametrize("name, res, t", [("lp:1.5-2d", None, 0.3),
                                              ("l2-2", None, 1.0),
                                              ("linf-3d", 0.15, 1.0)])
    def test_lower_end_at_f_is_the_d_star_lower_end(self, monkeypatch, name, res, t):
        # with no interior sample the lower end is the scan at g = f, which
        # runs d*'s lower pass without its upper pass: the same value bit for
        # bit (the cover scan of the upper end is stubbed out)
        space, budget = preset(name), Budget(resolution=res)
        f = lowdisc_sphere(polar_space(space), 1)[0]
        want = d_star(space, f, t, budget).lower
        monkeypatch.setattr(denting, "lowdisc_sphere",
                            lambda sp, n: np.empty((0, sp.dim)))
        monkeypatch.setattr(denting, "_d_star_zero_upper",
                            lambda W, fa, t, budget: (math.inf, 1.0))
        assert want > 0.0
        assert d_star_zero(space, f, t, budget).lower == want

    def test_flat_neighborhood_vanishes(self):
        b = d_star_zero(preset("l1-2d"), (1.0, 0.0), 0.5)
        assert b.lower == 0.0
        assert b.upper <= 0.1

    def test_global_upper_is_the_least_probe_upper(self):
        # the global sweep's probes run d_star_zero's cover scan alone
        space, t, budget = preset("lp:1.5-2d"), 0.2, Budget(resolution=0.3)
        probes = lowdisc_sphere(polar_space(space), 4)
        want = min(d_star_zero(space, f, t, budget).upper for f in probes)
        assert d_star_zero_global(space, t, budget).upper == want

    def test_global_euclidean_positive(self):
        b = d_star_zero_global(preset("l2-2"), 0.5,
                               Budget(resolution=5e-3))
        assert b.upper > 0.0
