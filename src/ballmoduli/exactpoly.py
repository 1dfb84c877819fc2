"""Exact rational computations on 2-D polyhedral unit balls.

All geometry here is done with ``fractions.Fraction``: convex hulls,
facet functionals, Minkowski functionals, halfplane clipping, the
finite enumerations behind the exact modulus values, and the exact
coverage of parameter squares behind the denting signs.  Distances between
points of a polygonal ball are measured in the ball's own norm, so every
exact value produced here is rational.  Inputs are rationals already:
no float is converted here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, Fraction]
HalfPlane = tuple[Fraction, Fraction, Fraction]  # a1*x + a2*y <= b

ZERO = Fraction(0)
ONE = Fraction(1)


def cross(o: Vec, a: Vec, b: Vec) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_ccw(points: Iterable[Vec]) -> list[Vec]:
    """Convex hull in counterclockwise order (monotone chain, exact)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


class Polygon:
    """Convex polygon with the origin in its interior (a unit ball)."""

    def __init__(self, vertices: Iterable[Vec]):
        self.vertices = hull_ccw(vertices)
        if len(self.vertices) < 3:
            raise ValueError("polygon must be two-dimensional")
        self.facets: list[tuple[Fraction, Fraction]] = []
        n = len(self.vertices)
        for i in range(n):
            v, w = self.vertices[i], self.vertices[(i + 1) % n]
            det = v[0] * w[1] - w[0] * v[1]
            if det == 0:
                raise ValueError("origin must be interior to the polygon")
            self.facets.append(((w[1] - v[1]) / det, (v[0] - w[0]) / det))

    def gauge(self, x: Vec) -> Fraction:
        """Minkowski functional: max over facet functionals."""
        return max(a[0] * x[0] + a[1] * x[1] for a in self.facets)

    def contains(self, x: Vec) -> bool:
        return self.gauge(x) <= 1

    def edges(self) -> list[tuple[Vec, Vec]]:
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def polar(self) -> "Polygon":
        return Polygon(self.facets)


def dot(a: Vec, b: Vec) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def clip_halfplane(vertices: list[Vec], a: Vec, b: Fraction) -> list[Vec]:
    """Sutherland-Hodgman clip of a convex polygon by {x : a.x <= b}."""
    if not vertices:
        return []
    out: list[Vec] = []
    n = len(vertices)
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        fp, fq = dot(a, p) - b, dot(a, q) - b
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    # dedupe consecutive duplicates
    ded: list[Vec] = []
    for v in out:
        if not ded or v != ded[-1]:
            ded.append(v)
    if len(ded) > 1 and ded[0] == ded[-1]:
        ded.pop()
    return ded


def segment_interval(p: Vec, q: Vec, halfplanes: Iterable[HalfPlane]
                     ) -> Optional[tuple[Fraction, Fraction]]:
    """Parameter interval of {p + t(q-p) : t in [0,1]} inside all halfplanes."""
    lo, hi = ZERO, ONE
    d = sub(q, p)
    for a1, a2, b in halfplanes:
        c0 = a1 * p[0] + a2 * p[1] - b
        c1 = a1 * d[0] + a2 * d[1]
        if c1 == 0:
            if c0 > 0:
                return None
        elif c1 > 0:
            hi = min(hi, -c0 / c1)
        else:
            lo = max(lo, -c0 / c1)
        if lo > hi:
            return None
    return (lo, hi)


# -- slice diameter --------------------------------------------------------


def slice_diameter_exact(ball: Polygon, f: Vec, alpha: Fraction) -> Fraction:
    """Diameter, in the ball's own norm, of {g in ball : f.g > alpha}."""
    if max(dot(f, v) for v in ball.vertices) <= alpha:
        return ZERO  # empty-slice convention
    clipped = clip_halfplane(ball.vertices, (-f[0], -f[1]), -alpha)
    best = ZERO
    for i, u in enumerate(clipped):
        for w in clipped[i + 1:]:
            best = max(best, ball.gauge(sub(u, w)))
    return best


def edge_diameter(ball: Polygon) -> Fraction:
    """The largest length of an edge w - v in the ball's own norm."""
    return max(ball.gauge(sub(w, v)) for v, w in ball.edges())


# -- beta moduli -----------------------------------------------------------


def _far_set_candidates(dual_ball: Polygon, f: Vec, t: Fraction) -> list[Vec]:
    """Extreme candidates of {g in dual ball : ||f-g|| >= t} (dual-ball norm):
    the dual ball's vertices in the set, the vertices of f + t B* in the
    dual ball, and the points where the dual sphere crosses the boundary
    of f + t B*.

    Each dual edge is clipped once against f + t B*'s halfplanes
    a.g <= t + a.f (a over the dual facets); a clipped end strictly inside
    the edge lies on the boundary of f + t B*.  A chord of f + t B* meets
    that boundary only at its ends, or runs along an edge of it and meets
    the others at vertices of f + t B*: so every other crossing is a
    vertex of one of the two polygons.  f + t B* need not have the origin
    inside, as a ``Polygon`` must, so it stays vertices and halfplanes."""
    Q = [(f[0] + t * v[0], f[1] + t * v[1]) for v in dual_ball.vertices]
    cand = [v for v in dual_ball.vertices if dual_ball.gauge(sub(v, f)) >= t]
    cand += [w for w in Q if dual_ball.contains(w)]
    near = [(a1, a2, t + dot((a1, a2), f)) for a1, a2 in dual_ball.facets]
    for p, q in dual_ball.edges():
        for lam in segment_interval(p, q, near) or ():
            if 0 < lam < 1:
                cand.append((p[0] + lam * (q[0] - p[0]), p[1] + lam * (q[1] - p[1])))
    return cand


def beta_point_exact(dual_ball: Polygon, f: Vec, x: Vec, t: Fraction) -> Fraction:
    """inf{1 - g(x) : g in dual ball, ||f-g|| >= t}, exactly."""
    cand = _far_set_candidates(dual_ball, f, t)
    if not cand:
        raise ValueError("empty feasible set; need t <= 2")
    return 1 - max(dot(g, x) for g in cand)


def beta_sup_exact(primal_ball: Polygon, dual_ball: Polygon,
                   f: Vec, t: Fraction) -> Fraction:
    """sup over x in the primal sphere of beta_point, exactly.

    Equals 1 - min over the primal sphere of the support function of the
    far set; the minimum over each sphere edge of a max of affine
    functions is attained at an endpoint or a crossing of two lines.
    """
    cand = _far_set_candidates(dual_ball, f, t)
    # on each sphere edge v + lam (w - v): the affine maps lam -> g.v + lam g.(w-v)
    return 1 - min(_min_of_max_affine([dot(g, v) for g in cand],
                                      [dot(g, sub(w, v)) for g in cand], ZERO, ONE)
                   for v, w in primal_ball.edges())


def _min_of_max_affine(consts: Sequence[Fraction], slopes: Sequence[Fraction],
                       lo: Fraction, hi: Fraction) -> Fraction:
    """min over s in [lo, hi] of max_i (consts[i] + s slopes[i]), exactly.

    The maximum is convex and piecewise linear in s, so the minimum is
    attained at an endpoint or where two of the lines cross.  The upper
    envelope is walked right from lo: at s, the active line of largest
    slope is the envelope's right derivative.  Where that slope is >= 0 the
    envelope does not decrease on [s, hi], and every piece walked before
    decreased, so its value at s is the minimum.  Otherwise the envelope
    follows that line to the first crossing of a steeper line, which lies
    strictly right of s (each steeper line is strictly below it at s), or
    to hi.  Slopes increase from piece to piece, so there are at most m
    pieces, each found in O(m)."""
    s = lo
    while True:
        vals = [c + s * k for c, k in zip(consts, slopes)]
        top = max(vals)
        i = max((j for j, v in enumerate(vals) if v == top), key=slopes.__getitem__)
        if slopes[i] >= 0:
            return top
        c, k = consts[i], slopes[i]
        nxt = min(((c - cj) / (kj - k) for cj, kj in zip(consts, slopes) if kj > k),
                  default=hi)
        if nxt >= hi:
            return c + hi * k
        s = nxt


# -- s modulus on a polygonal ball ----------------------------------------


def s_point_exact(ball: Polygon, x: Vec, f: Vec, t: Fraction) -> Fraction:
    """inf{||x+y|| - 1 : y in ker f, ||y|| >= t/4}, truncated at 2 + t/4."""
    v = (-f[1], f[0])
    nv = ball.gauge(v)
    lo = (t / 4) / nv
    hi = (2 + t / 4) / nv
    consts = [dot(a, x) for a in ball.facets]
    # y = s (sign v) for s in [lo, hi]: ||x + y|| = max over facets a of a.x + s a.(sign v)
    return min(_min_of_max_affine(consts, [sign * dot(a, v) for a in ball.facets], lo, hi)
               for sign in (1, -1)) - 1


# -- denting sign tests ----------------------------------------------------


def denting_nonpositive(ball: Polygon, g: Vec, t: Fraction) -> bool:
    """Exact test that d(g, t) = sup_f s(g, f, t) <= 0 for g on the sphere
    of ``ball``: the covering test on the one-point segment [g, g]."""
    return _segment_nonpositive(ball, g, g, t)


def dstar_zero_nonpositive(ball: Polygon, f: Vec, t: Fraction) -> bool:
    """Exact test that d(g, t) <= 0 for every g on the sphere of ``ball``
    with ||f - g|| <= t, for f on that sphere.

    With ``ball`` the dual ball this is d*(g, t) <= 0 on the closed
    t-neighbourhood of f, which with d*(f, t) >= 0 pins d*_0(f, t) = 0
    exactly.  Each piece [ga, gb] of a sphere edge inside f + t B (one clip
    of the edge against its halfplanes a.g <= t + a.f) runs the covering
    test.
    """
    near = [(a1, a2, t + dot((a1, a2), f)) for a1, a2 in ball.facets]
    for g0, g1 in ball.edges():
        seg = segment_interval(g0, g1, near)
        if seg is None:
            continue
        lo, hi = seg
        ga = (g0[0] + lo * (g1[0] - g0[0]), g0[1] + lo * (g1[1] - g0[1]))
        gb = (g0[0] + hi * (g1[0] - g0[0]), g0[1] + hi * (g1[1] - g0[1]))
        if not _segment_nonpositive(ball, ga, gb, t):
            return False
    return True


def _segment_nonpositive(ball: Polygon, ga: Vec, gb: Vec, t: Fraction) -> bool:
    """Whether d(g, t) <= 0 at every g of the sphere segment [ga, gb].

    d(g, t) <= 0 iff for every unit direction u one of g +- (t/4) u stays in
    the ball.  For each edge [v, w] of directions, the square of parameters
    (mu, lam) with g = ga + mu (gb - ga) and u = v + lam (w - v) must be
    covered by the two closed sets where g +- (t/4) u stays in the ball.
    """
    return all(_square_covered(ball, ga, gb, v, w, t / 4) for v, w in ball.edges())


def _square_covered(ball: Polygon, ga: Vec, gb: Vec, v: Vec, w: Vec,
                    r: Fraction) -> bool:
    """Whether [0,1]^2 (mu, lam) is covered by R+ union R-, where R(sigma) is
    the set with g(mu) + sigma r u(lam) inside the ball.  Both sets are
    intersections of closed halfplanes that are linear in (mu, lam).

    The points outside R+ are the union, over the halfplanes of R+, of the
    open pieces square ∩ {a.x > b}.  A non-empty open piece has the closed
    piece square ∩ {a.x >= b} as its closure, and R- is closed and convex,
    so the piece lies in R- iff every vertex of the closed piece does.
    """
    dg, du = sub(gb, ga), sub(w, v)

    def halfplanes(sigma: int) -> list[HalfPlane]:
        hp = []
        for a in ball.facets:
            c_mu = dot(a, dg)
            c_lam = sigma * r * dot(a, du)
            c0 = dot(a, ga) + sigma * r * dot(a, v)
            hp.append((c_mu, c_lam, 1 - c0))
        return hp

    square = [(ZERO, ZERO), (ONE, ZERO), (ONE, ONE), (ZERO, ONE)]
    hp_minus = halfplanes(-1)
    for a1, a2, b in halfplanes(1):
        piece = clip_halfplane(square, (-a1, -a2), -b)
        if not any(a1 * q[0] + a2 * q[1] > b for q in piece):
            continue  # the open piece is empty
        if not all(c1 * q[0] + c2 * q[1] <= c for q in piece for c1, c2, c in hp_minus):
            return False
    return True
