import math
from fractions import Fraction

import numpy as np
import pytest

from ballmoduli import (Budget, DomainError, beta_global, beta_point, beta_sup,
                        dual_norm, duality_preimage, is_euclidean, lp_space,
                        make_lp_sum, polar_space, polyhedral_space, preset,
                        weighted_lp_space)
from ballmoduli import EXACT, beta
from ballmoduli.config import resolve
from ballmoduli.gridutil import _covering_runs, sphere_grid
from ballmoduli.spaces import _norm_array, _support_array


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

    @pytest.mark.parametrize("t", [1e-8, 0.1, 0.3, 0.5, 0.7, 0.9999999999999999])
    def test_euclidean_encloses_half_t_squared(self, t):
        # t^2/2 of the float t, in exact arithmetic, on every inner-product
        # space of dimension >= 2, for beta_sup and beta_global alike
        exact = Fraction(t) ** 2 / 2
        spaces = [(preset("l2-2"), (1.0, 0.0)), (preset("l2-3"), (0.0, 1.0, 0.0)),
                  (weighted_lp_space(2.0, (1.0, 4.0, 9.0)), (1.0, 0.0, 0.0)),
                  (preset("l2sum-4"), (0.6, 0.0, 0.0, 0.8))]
        for space, f in spaces:
            for b in (beta_sup(space, f, t), beta_global(space, [t]).values[0]):
                assert b.method == EXACT
                assert Fraction(b.lower) <= exact <= Fraction(b.upper)
                assert b.width <= 4.0 * math.ulp(exact)


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

    @pytest.mark.parametrize("ts", [(0.3, 1.5), (0.5, 0.3), (0.3, 0.3)])
    def test_whole_t_grid_checked_before_any_scan(self, ts, monkeypatch):
        calls = []
        monkeypatch.setattr(beta, "_beta_global_single",
                            lambda *a: calls.append(a))
        with pytest.raises(DomainError):
            beta_global(preset("lp:1.5-2d"), ts)
        assert calls == []


class TestIsEuclidean:
    def test_classification(self):
        assert is_euclidean(preset("l2-2"))
        assert is_euclidean(preset("l2sum-4"))
        assert not is_euclidean(preset("lp:1.5-2d"))
        assert not is_euclidean(preset("l1-2d"))
        assert not is_euclidean(
            make_lp_sum([lp_space(2, 2.0), lp_space(2, 3.0)], 2.0))


def _unpruned_surfaces(W, fa, t, res):
    """``_candidate_surfaces``' rows computed for one f on its own, without
    the masks shared with the batched first pass of beta_global."""
    grid = sphere_grid(W, res)
    h, S = grid.covering, grid.points
    dist = _norm_array(W, S - fa)
    cut = fa + t * S
    cut_norm = _norm_array(W, cut)
    feas = np.vstack([S[dist >= t], cut[cut_norm <= 1.0], [-fa]])
    relax = np.vstack([S[dist >= t - h], cut[cut_norm <= 1.0 + t * h], [-fa]])
    return feas, relax, max(h, t * h)


def _unpruned_beta_sup(space, f, t, budget=None):
    """beta_sup's (lower, upper) without pruning: every x block in full."""
    budget = resolve(budget)
    W = polar_space(space)
    fa = np.asarray(f, dtype=float)
    xgrid = sphere_grid(space, beta._resolution(budget, 2e-3, 0.08, space.dim))
    X = np.vstack([xgrid.points, duality_preimage(space, fa).array[None, :]])
    feas, relax, h_g = _unpruned_surfaces(
        W, fa, t, beta._resolution(budget, 1.5e-3, 0.06, W.dim))
    lower = upper = -math.inf
    chunk = max(1, int(250_000 // max(len(feas), 1)))
    for i in range(0, len(X), chunk):
        blk = X[i:i + chunk]
        up_pt = 1.0 - np.max(feas @ blk.T, axis=0)
        lo_pt = 1.0 - np.max(relax @ blk.T, axis=0) - h_g
        lower = max(lower, float(np.max(lo_pt)))
        upper = max(upper, float(np.max(up_pt)))
    return max(lower, 0.0), upper + xgrid.covering


def _unpruned_beta_global(space, t, budget=None):
    """beta_global's (lower, upper) at one t without pruning: both ends of
    beta_sup on every functional of the dual grid."""
    budget = resolve(budget)
    W = polar_space(space)
    exact_2d = space.kind == "polyhedral" and space.dim == 2
    fgrid = sphere_grid(W, beta._resolution(budget, 0.05 if exact_2d else 0.02, 0.15, W.dim))
    inner = budget.with_resolution(
        beta._resolution(budget, 0.02 if exact_2d else 8e-3, 0.1, W.dim))
    t_relax = max(t - fgrid.covering, 1e-9)
    lower = upper = math.inf
    for fa in fgrid.points:
        lower = min(lower, _unpruned_beta_sup(space, fa, t_relax, inner)[0])
        upper = min(upper, _unpruned_beta_sup(space, fa, t, inner)[1])
    if exact_2d:
        upper = min(upper, beta._exact_pins(space, t))
    return max(lower, 0.0), upper


def _rational_polygon(seed):
    """A symmetric polygon with 10 vertices on the 1/16 grid (seeded)."""
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, math.pi, 5))
    radii = rng.integers(12, 17, 5)
    half = np.stack([np.round(radii * np.cos(angles)),
                     np.round(radii * np.sin(angles))], axis=-1) / 16.0
    return polyhedral_space(np.vstack([half, -half]).tolist())


EXACT_SPACES = {
    "lp:1.5-2d": (lambda: preset("lp:1.5-2d"), 4e-2),
    "lp:3-2d": (lambda: preset("lp:3-2d"), 4e-2),
    "weighted-l3": (lambda: weighted_lp_space(3.0, [1.0, 2.0]), 4e-2),
    "l1-2d": (lambda: preset("l1-2d"), 0.2),
    "linf-2d": (lambda: preset("linf-2d"), 0.2),
    "square-rot": (lambda: preset("square-rot"), 0.2),
    "polygon": (lambda: _rational_polygon(3), 0.1),
    "lp-sum": (lambda: make_lp_sum([lp_space(1, 2.0), lp_space(1, 2.0)], 1.5), 4e-2),
    "lp:1.5-3d": (lambda: preset("lp:1.5-3d"), 0.6),
}


class TestPrunedScans:
    """The pruned scans of beta_sup and beta_global equal the unpruned ones,
    both ends, bit for bit."""

    @pytest.mark.parametrize("name", sorted(EXACT_SPACES))
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_beta_sup_equals_unpruned(self, name, t):
        make, res = EXACT_SPACES[name]
        space, budget = make(), Budget(resolution=res / 4.0)
        W = polar_space(space)
        for v in ([1.0, 0.3, -0.2], [0.4, -1.0, 0.5]):
            f = np.asarray(v[:space.dim])
            f = f / float(_norm_array(W, f))
            got = beta_sup(space, f, t, budget)
            assert (got.lower, got.upper) == _unpruned_beta_sup(space, f, t, budget)

    @pytest.mark.parametrize("name", sorted(EXACT_SPACES))
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_beta_global_equals_unpruned(self, name, t):
        make, res = EXACT_SPACES[name]
        space, budget = make(), Budget(resolution=res)
        got = beta_global(space, [t], budget).values[0]
        assert (got.lower, got.upper) == _unpruned_beta_global(space, t, budget)

    def test_euclidean_default_budget(self):
        # the plane-model grid search, which Euclidean beta_sup no longer runs
        plane = lp_space(2, 2.0)
        got = beta._beta_sup_grid(plane, plane, np.array([1.0, 0.0]), 0.5, resolve(None))
        assert (got.lower, got.upper) == _unpruned_beta_sup(plane, (1.0, 0.0), 0.5)

    def test_plateau_where_most_x_survive(self):
        # on the flat face of l1-2d most x share the bound of the best one
        space, budget = preset("l1-2d"), Budget(resolution=5e-3)
        got = beta_sup(space, (1.0, 0.0), 0.3, budget)
        assert (got.lower, got.upper) == _unpruned_beta_sup(space, (1.0, 0.0), 0.3, budget)

    def test_lower_end_stops_at_zero(self, monkeypatch):
        # an exact pin is 0, so beta(t) = 0 and the search ends before any
        # one-end scan: the bracket is the [0, 0] every scan gives
        space, budget = preset("l1-2d"), Budget(resolution=0.2)
        calls = []
        real = beta._sup_end
        monkeypatch.setattr(beta, "_sup_end",
                            lambda *a, **k: calls.append(a[4]) or real(*a, **k))
        got = beta_global(space, [0.5], budget).values[0]
        assert (got.lower, got.upper) == (0.0, 0.0)
        assert (got.lower, got.upper) == _unpruned_beta_global(space, 0.5, budget)
        assert len(calls) == 0


def _end_rows(space, f, t, budget, lower):
    """(S, masks, rows, X) of one ``_sup_end`` scan of beta_sup."""
    W = polar_space(space)
    res_x, res_g = beta._sup_resolutions(space, W, budget)
    xgrid, ggrid = sphere_grid(space, res_x), sphere_grid(W, res_g)
    S = ggrid.points
    _, feasible, relaxed = beta._surface_masks(W, f, S, t, ggrid.covering)
    masks = relaxed if lower else feasible
    rows = np.vstack([S[masks[0]], f + t * S[masks[1]], [-f]])
    X = np.vstack([xgrid.points, duality_preimage(space, f).array[None, :]])
    return S, masks, rows, X


def _full_tops(rows, X):
    """max(rows @ x) for each row x of X, in blocks."""
    return np.concatenate([np.max(rows @ X[i:i + 500].T, axis=0)
                           for i in range(0, len(X), 500)])


def _test_functionals(space):
    """A dual vertex (a facet row) of a polygon, the dual-unit functional
    along the first axis otherwise, and one in the lower half-plane."""
    W = polar_space(space)
    first = space.facets[0] if space.kind == "polyhedral" else np.array([1.0, 0.0])
    return [v / float(_norm_array(W, v)) for v in (first, np.array([0.4, -1.0]))]


class TestPeakTops:
    """In the plane beta_sup's first pass reads each x's candidate rows next
    to its peak and at the ends of the masks' runs: never above the full
    max of g.x, and equal to it wherever both masks are single runs."""

    @pytest.mark.parametrize("name", sorted(n for n in EXACT_SPACES
                                            if EXACT_SPACES[n][0]().dim == 2))
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_bound_against_full_max(self, name, t):
        make, res = EXACT_SPACES[name]
        space, budget = make(), Budget(resolution=res / 4.0)
        singles = 0
        for f in _test_functionals(space):
            for lower in (True, False):
                S, masks, rows, X = _end_rows(space, f, t, budget, lower)
                top = beta._peak_tops(S, masks, f, t, X, _support_array(space, X))
                full = _full_tops(rows, X)
                assert np.all(top <= full + 1e-12)
                if all(_covering_runs(m[None, :])[1][0] == np.count_nonzero(m)
                       for m in masks):
                    singles += 1
                    assert np.all(top >= full - 1e-12)
        assert singles > 0

    @pytest.mark.parametrize("name", ["lp:1.5-2d", "l1-2d", "polygon"])
    def test_split_mask_still_bounds(self, name):
        make, res = EXACT_SPACES[name]
        space, budget = make(), Budget(resolution=res / 4.0)
        f = _test_functionals(space)[1]
        S, (sph, cut), _, X = _end_rows(space, f, 0.5, budget, lower=False)
        n = len(S)
        # cut a gap out of the middle of the sphere arc, and keep two
        # quarter-turn arcs of the cut
        split = sph.copy()
        on = np.flatnonzero(sph)
        split[on[len(on) // 3:2 * len(on) // 3]] = False
        halves = np.zeros(n, dtype=bool)
        halves[:n // 4] = halves[n // 2:3 * n // 4] = True
        for masks in ((split, cut), (sph, halves), (split, halves)):
            assert any(_covering_runs(m[None, :])[1][0] > np.count_nonzero(m)
                       for m in masks)
            rows = np.vstack([S[masks[0]], f + 0.5 * S[masks[1]], [-f]])
            top = beta._peak_tops(S, masks, f, 0.5, X, _support_array(space, X))
            assert np.all(top <= _full_tops(rows, X) + 1e-12)

    def test_fine_flat_face_scans_few_blocks(self, monkeypatch):
        # on the flat face of l1-2d beta(f, t) = 0, the lower end's clamp,
        # so only a bound near each x's own value rules blocks out
        space, budget = preset("l1-2d"), Budget(resolution=5e-3)
        scans, blocks = [], []
        real_scan, real_blocks = beta._block_max, beta._max_over_blocks
        monkeypatch.setattr(beta, "_block_max",
                            lambda *a: scans.append(1) or real_scan(*a))
        monkeypatch.setattr(beta, "_max_over_blocks",
                            lambda *a: blocks.append(len(a[2])) or real_blocks(*a))
        got = beta_sup(space, (1.0, 0.0), 0.3, budget)
        assert (got.lower, got.upper) == _unpruned_beta_sup(space, (1.0, 0.0), 0.3, budget)
        assert sum(blocks) > 20 and len(scans) <= 4

    def test_one_block_has_no_first_pass(self, monkeypatch):
        space, budget = preset("lp:1.5-2d"), Budget(resolution=4e-2)
        passes, blocks = [], []
        for fn in ("_peak_tops", "_strided_tops"):
            monkeypatch.setattr(beta, fn, lambda *a: passes.append(a))
        real_blocks = beta._max_over_blocks
        monkeypatch.setattr(beta, "_max_over_blocks",
                            lambda *a: blocks.append(len(a[2])) or real_blocks(*a))
        f = _test_functionals(space)[1]
        got = beta_sup(space, f, 0.3, budget)
        assert (got.lower, got.upper) == _unpruned_beta_sup(space, f, 0.3, budget)
        assert blocks == [1, 1] and passes == []


def _dense_floors(space, W, F, t, budget, lower, strided=True):
    """beta_global's first-pass floors with every masked max taken directly,
    on an (f, x, rows) tensor over the strided x grid (none unless
    ``strided``) plus each preimage."""
    res_x, res_g = beta._sup_resolutions(space, W, budget)
    xgrid, ggrid = sphere_grid(space, res_x), sphere_grid(W, res_g)
    S, h = ggrid.points, ggrid.covering
    Xs = xgrid.points[::beta._PRUNE_STRIDE] if strided else xgrid.points[:0]
    _, feasible, relaxed = beta._surface_masks(W, F, S, t, h)
    sph, cut = relaxed if lower else feasible
    XP = np.concatenate([np.broadcast_to(Xs, (len(F),) + Xs.shape),
                         _support_array(W, F)[:, None, :]], axis=1)
    us = XP @ S.T
    fx = np.einsum("fxd,fd->fx", XP, F)
    on_sphere = np.where(sph[:, None, :], us, -np.inf).max(axis=-1)
    on_cut = fx + t * np.where(cut[:, None, :], us, -np.inf).max(axis=-1)
    g = np.maximum(np.maximum(on_sphere, on_cut), -fx)
    if lower:
        return np.maximum((1.0 - g - max(h, t * h)).max(axis=-1), 0.0)
    return (1.0 - g).max(axis=-1) + xgrid.covering


def _global_floors(space, t, budget):
    """(W, F, ts, inner budget, ``_sup_floors``' two ends) of beta_global's
    search for beta(t) at this budget."""
    W = polar_space(space)
    exact_2d = space.kind == "polyhedral" and space.dim == 2
    fgrid = sphere_grid(W, beta._resolution(budget, 0.05 if exact_2d else 0.02, 0.15, W.dim))
    inner = budget.with_resolution(
        beta._resolution(budget, 0.02 if exact_2d else 8e-3, 0.1, W.dim))
    F = fgrid.points
    ts = (max(t - fgrid.covering, 1e-9), t)
    return W, F, ts, inner, beta._sup_floors(space, W, F, _support_array(W, F), ts, inner)


def _assert_below_ends(space, F, floors, t, budget, lower):
    for f, floor in zip(F, floors):
        b = beta_sup(space, f, t, budget)
        assert floor <= (b.lower if lower else b.upper) + 1e-12


class TestRunFloors:
    """In the plane beta_global's floors take each candidate mask's max over
    its covering cyclic run: still below every functional's beta_sup end,
    and the dense floor wherever the masks are single runs."""

    @pytest.mark.parametrize("name", ["lp:1.5-2d", "l1-2d", "square-rot", "polygon"])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_run_floors_against_dense_and_ends(self, name, t):
        make, res = EXACT_SPACES[name]
        space = make()
        W, F, ts, inner, ends = _global_floors(space, t, Budget(resolution=res))
        for (floors, bits, _, m), tt, lower in zip(ends, ts, (True, False)):
            dense = _dense_floors(space, W, F, tt, inner, lower)
            single = np.ones(len(F), dtype=bool)
            for mask in np.unpackbits(bits, axis=-1, count=m).view(bool):
                single &= _covering_runs(mask)[1] == np.count_nonzero(mask, axis=1)
            assert single.any()
            assert np.all(np.abs(floors - dense)[single] <= 1e-12)
            assert np.all(floors <= dense + 1e-12)
            _assert_below_ends(space, F, floors, tt, inner, lower)


class TestPreimageFloors:
    """In 3-D beta_global's floors read each functional's end at its own
    duality preimage only: the dense floor over the preimages, below every
    beta_sup end, and no run-maximum table."""

    @pytest.mark.parametrize("name", ["lp:1.5-3d", "l1-3d"])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_preimage_floors_against_dense_and_ends(self, name, t):
        space = preset(name)
        W, F, ts, inner, ends = _global_floors(space, t, Budget(resolution=0.6))
        for (floors, _, _, _), tt, lower in zip(ends, ts, (True, False)):
            dense = _dense_floors(space, W, F, tt, inner, lower, strided=False)
            assert np.all(np.abs(floors - dense) <= 1e-12)
            _assert_below_ends(space, F, floors, tt, inner, lower)

    def test_no_run_table_in_3d(self, monkeypatch):
        calls = []
        real = beta._masked_maxima
        monkeypatch.setattr(beta, "_masked_maxima",
                            lambda *a: calls.append(1) or real(*a))
        beta_global(preset("lp:1.5-3d"), [0.3, 0.7], Budget(resolution=0.6))
        assert calls == []


def _pin_values(space, t):
    """Exact beta(g, t) at every dual vertex and edge midpoint of a polygon,
    in the order ``beta._exact_pins`` visits them."""
    from ballmoduli.oracle import exact_beta_sup, to_polygon
    dual = to_polygon(space).polar()
    V, out = dual.vertices, []
    for v, w in zip(V, V[1:] + V[:1]):
        for cand in (v, ((v[0] + w[0]) / 2, (v[1] + w[1]) / 2)):
            scale = dual.gauge(cand)
            out.append(float(exact_beta_sup(space, (cand[0] / scale, cand[1] / scale), t)))
    return out


class TestExactPins:
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_least_pin_over_all_pins(self, seed):
        # at t = 0.7 every pin of these polygons is positive, so the search
        # runs to the end; at t = 0.3 a later pin is 0
        space = _rational_polygon(seed)
        for t in (0.3, 0.7):
            values = _pin_values(space, t)
            assert beta._exact_pins(space, t) == min(values)
            assert (min(values) > 0.0) == (t == 0.7)

    def test_rounds_t_up(self):
        # at t' = 1/2 every pin of this hexagon is 0, and beta > 0 for every
        # t > 1/2: a pin at the nearest short rational to t would be below t
        # and give a certified [0, 0]
        space = polyhedral_space([(7 / 8, 7 / 16), (-7 / 8, -7 / 16), (0.0, 15 / 16),
                                  (0.0, -15 / 16), (7 / 8, -1 / 2), (-7 / 8, 1 / 2)])
        got = beta_global(space, [0.5000000000001], Budget(resolution=0.05)).values[0]
        assert got.upper > 0.0
        assert beta._exact_pins(space, 0.5) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_pins_do_not_decrease_in_t(self, seed):
        space = _rational_polygon(seed)
        for t in (0.3, 1.0 / 3.0, 0.5000000000001, 0.7, 0.1 + 0.2):
            assert beta._exact_pins(space, np.nextafter(t, 1.0)) >= beta._exact_pins(space, t)

    def test_no_pin_without_an_exact_polygon(self):
        # symmetric to the descriptor's 1e-12, but 0.1 + 0.2 is not 0.3: the
        # float vertices bound no exact norm ball, so nothing is pinned
        space = polyhedral_space([(0.1 + 0.2, 1.0), (-0.3, -1.0), (1.0, 0.0), (-1.0, 0.0)])
        assert beta._exact_pins(space, 0.5) == math.inf

    @pytest.mark.parametrize("name", ["l1-2d", "square-rot", "linf-2d"])
    def test_stops_at_the_first_zero(self, name, monkeypatch):
        # the first edge midpoint is the first zero pin
        from ballmoduli import exactpoly
        calls = []
        real = exactpoly.beta_sup_exact
        monkeypatch.setattr(exactpoly, "beta_sup_exact",
                            lambda *a: calls.append(a) or real(*a))
        assert beta._exact_pins(preset(name), 0.55) == 0.0
        assert len(calls) == 2
