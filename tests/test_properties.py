"""Randomized structural properties, driven by hypothesis."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ballmoduli import (Bracket, Budget, Slice, beta_point, beta_sup,
                        d_star_zero, dual_norm, duality_preimage, lp_space,
                        modulus_convexity, norm, pairing, polar_space, polyhedral_space,
                        preset, s_point, slice_diameter, support_functional,
                        weighted_lp_space, witness_functional)
from ballmoduli import exactpoly, oracle
from ballmoduli.denting import _convexity_grid, _flat_threshold
from ballmoduli.exactpoly import Polygon, _min_of_max_affine
from ballmoduli.gridutil import (_covering_runs, lowdisc_sphere, sharp_equiv_constants,
                                sphere_grid)
from ballmoduli.slices import _distance_to_hull, _max_pair
from ballmoduli.spaces import _face_array, _kernel_frames, _norm_array, _support_array

PRESETS = ["l2-2", "l2-3", "lp:1.5-2d", "lp:3-2d", "l1-2d", "linf-2d",
           "square-rot", "l2sum-4"]

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def vectors(dim):
    return st.lists(finite, min_size=dim, max_size=dim).map(np.asarray)


@st.composite
def space_and_vectors(draw, n=2):
    name = draw(st.sampled_from(PRESETS))
    space = preset(name)
    vs = [draw(vectors(space.dim)) for _ in range(n)]
    return space, vs


class TestNormAxioms:
    @given(space_and_vectors(2))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, data):
        space, (u, v) = data
        assert norm(space, u + v) <= norm(space, u) + norm(space, v) + 1e-9

    @given(space_and_vectors(1), st.floats(min_value=-5.0, max_value=5.0,
                                           allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, data, c):
        space, (u,) = data
        assert norm(space, c * u) == pytest.approx(
            abs(c) * norm(space, u), abs=1e-9)

    @given(space_and_vectors(2))
    @settings(max_examples=60, deadline=None)
    def test_pairing_bounded_by_norm_product(self, data):
        space, (x, f) = data
        assert abs(pairing(f, x)) <= (norm(space, x) * dual_norm(space, f)
                                      + 1e-9)


class TestDualityMaps:
    @given(space_and_vectors(3))
    @settings(max_examples=60, deadline=None)
    def test_support_functional_attains(self, data):
        space, us = data
        xs = [u / norm(space, u) for u in us if norm(space, u) >= 1e-6]
        if not xs:
            return
        fs = []
        for x in xs:
            f = support_functional(space, x)
            assert pairing(f.array, x) == pytest.approx(1.0, abs=1e-7)
            assert dual_norm(space, f.array) == pytest.approx(1.0, abs=1e-7)
            fs.append(f.array)
        # the array path selects the same functional for each stacked row
        assert np.array_equal(_support_array(space, np.stack(xs)), np.stack(fs))

    @given(vectors(4))
    @settings(max_examples=60, deadline=None)
    def test_witness_functional_unit(self, f):
        space = preset("l2sum-4")
        nf = dual_norm(space, f)
        if nf < 1e-6:
            return
        z = witness_functional(space, f / nf)
        assert norm(space, np.asarray(z.coords)) == pytest.approx(1.0, abs=1e-9)


class TestBracketAlgebra:
    @given(finite, st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_exact_and_width(self, v, w):
        b = Bracket(lower=v, upper=v + w, method="exact", resolution=0.0,
                    lipschitz=0.0)
        assert b.width == pytest.approx(w)
        assert b.contains(b.midpoint)
        assert b.overlaps(Bracket.exact(v))

    def test_invalid_bracket_rejected(self):
        for lower, upper in ((1.0, 0.0), (math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                Bracket(lower=lower, upper=upper, method="exact", resolution=0.0,
                        lipschitz=0.0)


@st.composite
def rational_polygons(draw):
    """A symmetric polygon with 4 to 8 vertices on the 1/16 grid: one vertex
    per slot of a half turn, at radius 5/8 to 1, inradius at least 1/3."""
    pairs = draw(st.integers(2, 4))
    half = []
    for k in range(pairs):
        a = math.pi * (k + draw(st.floats(0.0, 1.0))) / pairs
        r = draw(st.integers(10, 16)) / 16
        half.append((Fraction(round(16 * r * math.cos(a)), 16),
                     Fraction(round(16 * r * math.sin(a)), 16)))
    try:
        poly = Polygon(half + [(-x, -y) for x, y in half])
    except ValueError:
        assume(False)
    assume(len(poly.vertices) >= 4)
    assume(max(a1 * a1 + a2 * a2 for a1, a2 in poly.facets) <= 9)
    return poly


def _edge_point(poly: Polygon, i: int, lam: Fraction):
    v, w = poly.edges()[i % len(poly.vertices)]
    return (v[0] + lam * (w[0] - v[0]), v[1] + lam * (w[1] - v[1]))


def _floats(v) -> tuple[float, ...]:
    return tuple(float(c) for c in v)


class TestFacetEnumeration:
    @given(rational_polygons())
    @settings(max_examples=60, deadline=None)
    def test_float_facets_are_the_exact_facets(self, poly):
        space = polyhedral_space([_floats(v) for v in poly.vertices])
        F, E = space.facets, np.array([_floats(a) for a in poly.facets])
        gap = np.max(np.abs(F[:, None, :] - E[None, :, :]), axis=2)
        assert F.shape == E.shape
        assert np.all(gap.min(axis=0) <= 1e-12) and np.all(gap.min(axis=1) <= 1e-12)


class TestEngineContainsExact:
    """Every engine bracket on a rational polygon contains the exact value."""

    @given(rational_polygons(), st.integers(0, 7), st.integers(0, 7),
           st.integers(1, 15), st.integers(1, 15), st.integers(1, 31))
    @settings(max_examples=25, deadline=None)
    def test_brackets_contain_exact_values(self, poly, i, j, li, lj, k):
        space = polyhedral_space([_floats(v) for v in poly.vertices])
        budget = Budget(resolution=1.5e-2)
        x = _floats(_edge_point(poly, i, Fraction(li, 16)))
        f = _floats(poly.facets[i % len(poly.facets)])  # norms edge i
        y = _floats(_edge_point(poly, j, Fraction(lj, 16)))
        t = k / 16  # in (0, 2)
        tb = (k % 15 + 1) / 16  # in (0, 1)
        checks = [
            (s_point(space, x, f, t, budget), oracle.exact_s_point(space, x, f, t)),
            (beta_point(space, f, y, tb, budget),
             oracle.exact_beta_point(space, f, y, tb)),
            (beta_sup(space, f, tb, budget), oracle.exact_beta_sup(space, f, tb)),
            (slice_diameter(space, Slice.of(f, tb, "primal"), budget),
             oracle.exact_slice_diameter(space, f, tb, "primal")),
            (slice_diameter(space, Slice.of(y, tb, "dual"), budget),
             oracle.exact_slice_diameter(space, y, tb, "dual")),
        ]
        for bracket, exact in checks:
            assert bracket.contains(float(exact), slack=1e-9), (bracket, exact)

    @given(rational_polygons(), st.integers(0, 7), st.integers(0, 7),
           st.integers(1, 15), st.integers(1, 31))
    @settings(max_examples=40, deadline=None)
    def test_s_at_a_vertex_contains_exact_values(self, poly, i, j, lam, k):
        # x at a vertex of the ball, f at a vertex of the dual ball (its face
        # is an edge, so the minimisers of ||x + y|| on ker f form a
        # segment) and inside a dual edge (its face is a vertex)
        space = polyhedral_space([_floats(v) for v in poly.vertices])
        x = _floats(poly.vertices[i % len(poly.vertices)])
        dual = poly.polar()
        t = k / 16
        for f in (dual.vertices[j % len(dual.vertices)],
                  _edge_point(dual, j, Fraction(lam, 16))):
            b = s_point(space, x, _floats(f), t)
            exact = float(oracle.exact_s_point(space, x, _floats(f), t))
            assert b.lower <= b.upper
            assert b.contains(exact, slack=1e-9), (b, exact)


@st.composite
def planes(draw):
    """A rational polygon or a weighted lp plane, 1.05 <= p <= 6."""
    if draw(st.booleans()):
        poly = draw(rational_polygons())
        return polyhedral_space([_floats(v) for v in poly.vertices])
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=2, max_size=2))
    return weighted_lp_space(draw(st.floats(1.05, 6.0)), weights)


def _grid_of_size(space, n):
    """The 2-D sphere grid with exactly n points."""
    L = sharp_equiv_constants(space).projection_lipschitz
    res = math.pi * L / (n - 0.5)
    grid = sphere_grid(space, res)
    assert len(grid.points) == n
    return res, grid


def _all_pairs_max(space, pts):
    if len(pts) < 2:
        return 0.0
    return float(np.max(_norm_array(space, pts[:, None, :] - pts[None, :, :])))


def _all_pairs_delta(space, grid, t):
    """(lower, upper) of modulus_convexity from every pair of the grid; the
    upper end is 1, the objective at (x, -x), where no pair is at distance
    >= t."""
    P, h = grid.points, grid.covering
    vals = 1.0 - 0.5 * _norm_array(space, P[:, None, :] + P[None, :, :])
    dist = _norm_array(space, P[:, None, :] - P[None, :, :])
    feas, relax = vals[dist >= t], vals[dist >= t - 2.0 * h]
    upper = min(max(float(np.min(feas)), 0.0), 1.0) if feas.size else 1.0
    return max(0.0, float(np.min(relax)) - h), upper


def _twelve_partner_max(space, pts, mask):
    """The earlier 2-D scan: every run position against both run ends and
    the antipodal offsets floor(n/2) and ceil(n/2), each widened by one
    index, taken mod n and clipped to the run's last position."""
    if np.count_nonzero(mask) < 2:
        return 0.0
    n = len(pts)
    start, m = (int(v[0]) for v in _covering_runs(mask[None, :]))
    run = pts[(start + np.arange(m)) % n]
    pos = np.arange(m)[:, None]
    ends = np.broadcast_to([0, m - 1], (m, 2))
    anti = pos + [n // 2, (n + 1) // 2]
    cand = np.concatenate([ends, anti], axis=1)[:, :, None] + np.arange(-1, 2)
    partners = np.minimum(cand.reshape(m, -1) % n, m - 1)
    return float(np.max(_norm_array(space, run[:, None, :] - run[partners])))


@st.composite
def planes_and_lp(draw):
    """An lp plane, 1.05 <= p <= 6, or one of ``planes``."""
    if draw(st.booleans()):
        return lp_space(2, draw(st.floats(1.05, 6.0)))
    return draw(planes())


def _engine_delta(space, t, res):
    """modulus_convexity's grid search, which a polygon skips for t <= D."""
    b = _convexity_grid(space, t, Budget(resolution=res))
    return b.lower, b.upper


class TestPlanePairScans:
    """The 2-D slice and delta scans, which compare O(n log n) candidate
    pairs chosen through the grid's angular order, against every pair."""

    # rounding puts the dual square's left-face points at -1 and
    # -0.9999999999999999 alternately, which splits the mask into 4 runs
    @example(polyhedral_space([(-0.625, 0), (0, -0.625), (0.625, 0), (0, 0.625)]),
             True, 40, 0.0, -0.9999999999999999)
    @given(planes(), st.booleans(), st.integers(40, 600),
           st.floats(0.0, 2.0 * math.pi), st.floats(-1.0, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_slice_pair_max_equals_all_pairs(self, space, dual, n, angle, alpha):
        W = polar_space(space) if dual else space
        _, grid = _grid_of_size(W, n)
        P, h = grid.points, grid.covering
        v = np.array([math.cos(angle), math.sin(angle)])
        v /= dual_norm(W, v)
        vals = P @ v
        # alpha - h <= 0 puts antipodal points in the relaxed arc; both
        # masks in one call, as slice_diameter scans them
        masks = np.stack([vals >= alpha, vals >= alpha - h])
        for got, mask in zip(_max_pair(W, P, masks), masks):
            assert abs(got - _all_pairs_max(W, P[mask])) <= 1e-15

    # the split dual-square mask; a short run across the wrap-around of an
    # odd grid; a relaxed run longer than a half-turn
    @example(polyhedral_space([(-0.625, 0), (0, -0.625), (0.625, 0), (0, 0.625)]),
             True, 40, 0.0, -0.9999999999999999)
    @example(lp_space(2, 2.0), False, 41, 0.0, 0.5)
    @example(weighted_lp_space(3.0, [1.0, 2.0]), True, 600, 1.0, -0.2)
    @given(planes_and_lp(), st.booleans(), st.integers(40, 600),
           st.floats(0.0, 2.0 * math.pi), st.floats(-1.0, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_slice_pair_max_equals_twelve_partner_scan(self, space, dual, n, angle, alpha):
        # the end windows and the antipodal partners inside the run are the
        # pairs the twelve-partner scan evaluates, so the max is the same
        # bit for bit
        W = polar_space(space) if dual else space
        _, grid = _grid_of_size(W, n)
        P, h = grid.points, grid.covering
        v = np.array([math.cos(angle), math.sin(angle)])
        v /= dual_norm(W, v)
        vals = P @ v
        masks = np.stack([vals >= alpha, vals >= alpha - h])
        for got, mask in zip(_max_pair(W, P, masks), masks):
            assert got == _twelve_partner_max(W, P, mask)
            assert _max_pair(W, P, mask[None, :]) == [got]

    @given(planes(), st.integers(40, 500), st.floats(0.02, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_delta_equals_all_pairs(self, space, n, t):
        res, grid = _grid_of_size(space, n)
        assert _engine_delta(space, t, res) == _all_pairs_delta(space, grid, t)

    # at t = 2 a polygon's farthest pairs tie at distance 2, and rounding
    # lets some of them pass ||x - y|| >= 2 in one orientation only; this
    # polygon needs both ends of the feasible arcs
    @example(polyhedral_space([(-0.8125, 0.0), (-0.125, -0.875), (0.8125, -0.625),
                               (0.8125, 0.0), (0.125, 0.875), (-0.8125, 0.625)]), 20)
    @given(planes(), st.integers(20, 250))
    @settings(max_examples=40, deadline=None)
    def test_delta_at_t2_on_odd_grid(self, space, k):
        res, grid = _grid_of_size(space, 2 * k + 1)
        assert _engine_delta(space, 2.0, res) == _all_pairs_delta(space, grid, 2.0)


class TestFlatThreshold:
    """delta(t) = 0 exactly up to D, the longest own-norm edge of a polygon."""

    @given(rational_polygons(), st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_threshold_against_oracle_and_grid(self, poly, k):
        space = polyhedral_space([_floats(v) for v in poly.vertices])
        exact = oracle.to_polygon(space)
        D = _flat_threshold(space)
        assert D == max(exact.gauge((w[0] - v[0], w[1] - v[1])) for v, w in exact.edges())
        budget = Budget(resolution=1.5e-2)
        t = float(D) * k / 16
        if Fraction(t) <= D:
            assert modulus_convexity(space, t, budget) == Bracket.exact(0.0)
            # the certified grid bracket agrees with the exact zero
            assert _convexity_grid(space, t, budget).lower == 0.0
        above = float(np.nextafter(float(D), 3.0))
        assume(above <= 2.0)
        got = modulus_convexity(space, above, budget)
        assert got.method == "grid-certified"
        assert got == _convexity_grid(space, above, budget)


class TestMinOfMaxAffine:
    @staticmethod
    def _all_crossings(consts, slopes, lo, hi):
        """The envelope's minimum over lo, hi and every crossing in between."""
        cands = {lo, hi}
        for i in range(len(consts)):
            for j in range(i + 1, len(consts)):
                if slopes[i] != slopes[j]:
                    s = (consts[j] - consts[i]) / (slopes[i] - slopes[j])
                    if lo < s < hi:
                        cands.add(s)
        return min(max(c + s * k for c, k in zip(consts, slopes)) for s in cands)

    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                    min_size=1, max_size=12),
           st.integers(-30, 30), st.integers(0, 30), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_envelope_walk_equals_all_crossings(self, lines, lo, width, den):
        consts = [Fraction(c, den) for c, _ in lines]
        slopes = [Fraction(k, 3) for _, k in lines]
        lo, hi = Fraction(lo, 4), Fraction(lo + width, 4)
        got = _min_of_max_affine(consts, slopes, lo, hi)
        assert got == self._all_crossings(consts, slopes, lo, hi)
        assert isinstance(got, Fraction)


class TestFarSetCandidates:
    @staticmethod
    def _all_crossings(dual_ball, f, t):
        """The far set's candidates from every dual edge crossed with every
        edge of f + t B*."""
        def segment_intersection(p, q, r, s):
            d1, d2 = exactpoly.sub(q, p), exactpoly.sub(s, r)
            den = d1[0] * d2[1] - d1[1] * d2[0]
            if den == 0:
                return None
            rp = exactpoly.sub(r, p)
            t = (rp[0] * d2[1] - rp[1] * d2[0]) / den
            u = (rp[0] * d1[1] - rp[1] * d1[0]) / den
            if 0 <= t <= 1 and 0 <= u <= 1:
                return (p[0] + t * d1[0], p[1] + t * d1[1])
            return None

        Q = [(f[0] + t * v[0], f[1] + t * v[1]) for v in dual_ball.vertices]
        cand = [v for v in dual_ball.vertices if dual_ball.gauge(exactpoly.sub(v, f)) >= t]
        cand += [w for w in Q if dual_ball.contains(w)]
        for p, q in dual_ball.edges():
            for r, s in zip(Q, Q[1:] + Q[:1]):
                pt = segment_intersection(p, q, r, s)
                if pt is not None:
                    cand.append(pt)
        return cand

    @given(rational_polygons(), st.integers(0, 7), st.integers(0, 16),
           st.integers(1, 32))
    @settings(max_examples=200, deadline=None)
    def test_same_candidates_as_all_crossings(self, poly, i, k, m):
        # one clip per dual edge finds every crossing that is not a vertex
        # of either polygon, so the candidate set, and every beta value read
        # from it, is the same
        dual = poly.polar()
        f = _edge_point(dual, i, Fraction(k, 16))
        t = Fraction(m, 16)
        got = exactpoly._far_set_candidates(dual, f, t)
        want = self._all_crossings(dual, f, t)
        assert set(got) == set(want)


_DIAMOND = Polygon([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                    (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))])


class TestDentingSign:
    @staticmethod
    def _interval_test(ball, g, t):
        """d(g, t) <= 0 when, on each sphere edge [v, w] of directions u, the
        two parameter intervals of lam where g +- (t/4) u(lam) stays in the
        ball cover [0, 1]."""
        def interval(v, w, r):
            d = exactpoly.sub(w, v)
            hp = [(r * exactpoly.dot(a, d), Fraction(0),
                   1 - exactpoly.dot(a, g) - r * exactpoly.dot(a, v)) for a in ball.facets]
            return exactpoly.segment_interval((0, 0), (1, 0), hp)

        def covers(i1, i2):
            cur = 0
            for lo, hi in sorted(i for i in (i1, i2) if i is not None):
                if lo > cur:
                    return False
                cur = max(cur, hi)
            return cur >= 1

        return all(covers(interval(v, w, t / 4), interval(v, w, -t / 4))
                   for v, w in ball.edges())

    @given(rational_polygons(), st.integers(0, 7), st.integers(0, 16),
           st.integers(1, 39))
    # on the l1 ball d(g, 1/2) > 0 at a vertex and d(g, 1/2) = 0 at an edge
    # midpoint, so both outcomes are drawn in every run
    @example(_DIAMOND, 0, 0, 10)
    @example(_DIAMOND, 0, 8, 10)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_point_test_equals_the_interval_test(self, poly, i, k, m):
        # the point test is the square test on the one-point segment [g, g]
        g = _edge_point(poly, i, Fraction(k, 16))
        t = Fraction(m, 20)
        assert exactpoly.denting_nonpositive(poly, g, t) == self._interval_test(poly, g, t)


RING_SPACES = ["l2-2", "lp:1.5-2d", "square-rot", "l2-3", "lp:1.5-3d", "l1-3d",
               "linf-3d", "lpsum:2:lp:2-1d+l1-2d"]


def _unit_rows(space, a):
    return a / _norm_array(space, a)[..., None]


class TestRingSoundness:
    """s_point's lower end lies below ||x + y|| - 1 at every sampled feasible
    y of ker f, and its bracket is never inverted."""

    @pytest.mark.parametrize("name", RING_SPACES)
    def test_lower_end_below_feasible_values(self, name):
        space = preset(name)
        W = polar_space(space)
        rng = np.random.default_rng(sum(map(ord, name)))
        for case in range(24):
            x = _unit_rows(space, rng.standard_normal(space.dim))
            f = (_support_array(space, x) if case % 3 == 0
                 else _unit_rows(W, rng.standard_normal(space.dim)))
            t = float(rng.uniform(0.02, 1.98))
            b = s_point(space, x, f, t)
            assert b.lower <= b.upper
            # kernel directions at random angles, on the ring ||y|| = t/4 and
            # beyond it, and the minimisers of ||x + y|| on ker f (the face
            # of f moved by -x, projected into the kernel) that are feasible
            K = _kernel_frames(f[None, :])[0]
            U = rng.standard_normal((400, space.dim - 1)) @ K
            Y = (t / 4.0) * _unit_rows(space, U) * rng.uniform(1.0, 1.5, (len(U), 1))
            Y[::2] = (t / 4.0) * _unit_rows(space, U[::2])
            fx = float(f @ x) / float(_norm_array(W, f))
            A = (fx * _face_array(space, f[None, :])[0] - x) @ K.T @ K
            Y = np.vstack([Y, A[_norm_array(space, A) >= t / 4.0]])
            values = _norm_array(space, x + Y) - 1.0
            assert b.lower <= float(np.min(values)), (name, case, t)

    def test_edge_face_crossing_the_ring_gives_an_exact_bracket(self):
        # on l1-3d, f = (1, 1, 0) norms the edge [e1, e2]; its minimisers
        # A = f(x) [e1, e2] - x start inside the ring (at e2) and leave it, so
        # s = f(x) - 1 = -0.05 and the far face point e1 attains it, which
        # the ring samples alone would miss
        b = s_point(preset("l1-3d"), (0.05, 0.9, 0.05), (1.0, 1.0, 0.0), 1.0)
        assert -0.05 - 2e-12 <= b.lower <= b.upper <= -0.05 + 1e-15


def _euclidean_hull_distance(V):
    """Exact distance from the origin to the convex hull of the rows of V in
    the Euclidean plane: 0 inside a triangle of vertices, else the least
    distance to a segment between two of them."""
    def seg(p, q):
        d = q - p
        dd = float(d @ d)  # 0 also where a tiny nonzero d underflows when squared
        lam = 0.0 if dd == 0.0 else min(max(-float(p @ d) / dd, 0.0), 1.0)
        return float(np.linalg.norm(p + lam * d))

    def cross(p, q):
        return p[0] * q[1] - p[1] * q[0]

    k = len(V)
    for i in range(k):
        for j in range(i + 1, k):
            for m in range(j + 1, k):
                c = [cross(V[i], V[j]), cross(V[j], V[m]), cross(V[m], V[i])]
                if min(c) > 0 or max(c) < 0:
                    return 0.0
    return min(seg(V[i], V[j]) for i in range(k) for j in range(i, k))


def _weights_grid_distance(space, V, n):
    """min ||sum_i w_i v_i|| over convex weights with denominator n: an upper
    bound on the distance from the origin to the hull, at most
    (k - 1) max_i ||v_i|| / n above it for k rows."""
    k = len(V)
    if k == 1:
        return float(norm(space, V[0]))
    a = np.arange(n + 1)
    if k == 2:
        W = np.stack([a, n - a], axis=-1)
    else:
        i, j = np.meshgrid(a, a, indexing="ij")
        keep = i + j <= n
        W = np.stack([i[keep], j[keep], n - i[keep] - j[keep]], axis=-1)
    return float(np.min(_norm_array(space, (W / n) @ V)))


hull_points = st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                       min_size=1, max_size=3).map(np.array)


class TestHullDistance:
    """The separating ball's d(0, C): a dual-grid lower bound within
    h max_i ||v_i|| of the true distance (minimum-norm duality)."""

    @given(hull_points, st.floats(0.02, 0.3))
    @example(np.array([(0.0, 0.0), (0.0, 5.854435796346927e-298)]), 0.25)
    @settings(max_examples=100, deadline=None)
    def test_euclidean_within_covering(self, V, res):
        space = preset("l2-2")
        h = sphere_grid(polar_space(space), res).covering
        d = _euclidean_hull_distance(V)
        lower = _distance_to_hull(space, V, res)
        assert d - h * float(np.max(np.linalg.norm(V, axis=1))) - 1e-12 <= lower <= d + 1e-12

    @given(planes(), hull_points, st.floats(0.02, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_plane_within_covering(self, space, V, res):
        h = sphere_grid(polar_space(space), res).covering
        n = 300
        M = float(np.max(_norm_array(space, V)))
        upper = _weights_grid_distance(space, V, n)
        lower = _distance_to_hull(space, V, res)
        assert upper - (h + (len(V) - 1) / n) * M - 1e-12 <= lower <= upper + 1e-12


def _dual_edge_point(poly: Polygon, i: int, lam: Fraction):
    return _floats(_edge_point(poly.polar(), i, lam))


class TestExactSignTests:
    """Consequences of d*0(f, t) >= d*(f, t) >= 0 for the exact sign tests."""

    @given(rational_polygons(), st.integers(0, 7), st.integers(0, 16),
           st.integers(1, 31))
    @settings(max_examples=60, deadline=None)
    def test_d_star_positive_rules_out_d_star_zero_zero(self, poly, i, k, m):
        space = polyhedral_space([_floats(v) for v in poly.vertices])
        f, t = _dual_edge_point(poly, i, Fraction(k, 16)), m / 16
        if oracle.exact_d_star_positive(space, f, t):
            assert not oracle.exact_d_star_zero_is_zero(space, f, t)

    # small t at interior points of the dual edges, where d*0 = 0 is common
    @given(rational_polygons(), st.integers(0, 7), st.integers(1, 15),
           st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_d_star_zero_zero_pins_the_engine_lower_end(self, poly, i, k, m):
        space = polyhedral_space([_floats(v) for v in poly.vertices])
        f, t = _dual_edge_point(poly, i, Fraction(k, 16)), m / 32
        if oracle.exact_d_star_zero_is_zero(space, f, t):
            assert d_star_zero(space, f, t, Budget(resolution=0.3)).lower == 0
