"""Compare the brackets, norms and support functionals of two checkouts.

    PYTHONPATH=<checkout>/src python tools/compare_brackets.py dump OUT.json
    python tools/compare_brackets.py diff A.json B.json

``dump`` evaluates a fixed list of calls and writes every bracket end with
its method tag, every norm value and every functional coordinate:

- d at a coarse and at the default budget, d_global and d* at coarse
  budgets on 2-D and 3-D presets (the 3-D ones at the 0.3 cover budget),
  and d*-global, d*0 and d*0-global on the 2-D ones, d*0 also at
  t = 0.01, where its interior sample is mostly empty;
- d_global and d*-global on lp:1.5 and square-rot at the default budget
  (t = 0.5 and 1.2) and at resolution 2e-2 (t = 1.6 and 1.95): positive
  lower ends, and upper ends taken at the grid point of least lower bound;
- primal and dual slice diameters, s and s* at norming and at generic
  pairs, beta and beta-sup at the default budget, and the oracle's
  brute-force d bracket, on the 2-D spaces;
- s and s* at the default budget on l2-3, lp:1.5-3d, l1-3d and linf-3d,
  at a norming and a generic pair and with f (for s*, x) along (1, 0, 0),
  (1, 1, 0) and (1, 1, 1): on the polytopes these norm a facet, an edge
  or a vertex of the ball, so the 3-D ring and each kind of face is read;
- beta-global at t = 0.3 and 0.7, at resolution 4e-2 on lp:1.5, lp:3 and
  the weighted lp:3 plane, at 0.2 on l1-2d, square-rot, ``poly2d:6`` and
  ``poly2d:8`` (the first seeded rational polygons of 6 and 8 vertices
  that the sign tests' generator draws from seed 0), at 0.45 on lp:1.5-3d
  and lp:3-3d and at 0.6 on l1-3d, and beta-sup at 5e-3 on the three
  polygon presets, with f at a vertex and at an edge midpoint of the dual
  ball, and on lp:1.5, the weighted lp:3 plane, ``poly2d:6`` and
  ``poly2d:8``, with f in the lower half-plane;
- beta-global at t = 0.3 and 0.7 and resolution 0.2 on ``tenths``, a
  14-gon whose float vertices k/10 are not dyadic (so the engine's exact
  polygon is not the oracle's) and whose pins are positive at both t;
- primal and dual slice diameters at resolutions 5e-3 and 1.5e-3 and
  thresholds 0.002, 0.3, 0.6 and 0.999 on the six 2-D presets, and the
  modulus of convexity at t = 0.3, 1, 1.7 and 2 and resolutions 2e-2 and
  1.5e-3 on the 2-D spaces, ``poly2d:6`` and ``poly2d:8``;
- ``construct_separating_ball``'s radius, d, gamma and eta on the disk
  instance of the slice-geometry workload (C fixed inside its drawn
  ranges), on an lp:3 plane and on a single point;
- the residual-set radius ``f_eps_radius`` at eps = 0.5 and 1 on l2-2,
  lp:1.5, l1-2d and square-rot, at the default budget;
- the exact sign tests d > 0, d* > 0 and d*0 = 0, as 0/1, at points of
  100 seeded rational polygons, the last 40 at t = k/64 (k <= 8) and
  interior edge points, where d*0 = 0 is common;
- norm, dual norm and support functional at seeded random points, also on
  the polytopes l1-3d, linf-3d, ``cross:4`` and ``cube:4`` (cross_polytope(4)
  and hypercube(4)) and ``poly3d:S``, the symmetric hull of six seeded
  Gaussian points in R^3 and their negatives (seed S);
- norm and dual norm at seeded random points, as one array and one vector
  at a time, on lp and weighted lp spaces in dimensions 1 and 4 to 7 and
  on an lp-sum with a 5-D lp component (``NORM_SPACES``), so that every
  column count of the lp-family norm kernel is covered, and in dimension 8
  (``NORM8_SPACES``) under the kinds ``norm8`` and ``dual_norm8``, where
  numpy's sum turns pairwise and values may move by an ulp or two;
- every verification suite's ``to_json()`` report at small fixed settings
  (``VERIFY_RUNS``; ``mip-detect`` also on linf-2d alone) and the
  ``run_oracle_battery()`` output.

``diff`` prints the number of values compared, the largest absolute
difference overall, the number of differing values and their largest
difference per kind of call (the first word of its key) where any differ,
how many of the calls that return a bracket in both dumps narrowed and
which widened (a lower end fell or an upper end rose), the calls whose
method tags differ (a call that raised ``BudgetError`` is tagged so), then
the number of paths at which the suite reports and the battery output
differ as parsed JSON; it exits 1 if the call lists differ.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import numpy as np

SPACES_2D = ["l2-2", "lp:1.5-2d", "lp:3-2d", "l1-2d", "linf-2d", "square-rot",
             "weighted:3:1,2"]
SPACES_3D = ["l2-3", "l1-3d", "linf-3d"]
SUPPORT_SPACES = ["l2-2", "l2-3", "lp:1.5-2d", "lp:3-2d", "l1-2d", "linf-2d",
                  "square-rot", "l2sum-4", "lpsum:3:l1-2d+lp:1.5-2d", "l1-3d",
                  "linf-3d", "cross:4", "cube:4", "poly3d:0", "poly3d:1"]


def _weighted(p, d):
    return f"weighted:{p}:" + ",".join(str(0.5 + 0.75 * i) for i in range(d))


NORM_SPACES = ([f"lp:{p}-{d}d" for d in (1, 4, 5, 6, 7) for p in (1.5, 3)]
               + [_weighted(p, d) for d in (1, 4, 5, 6, 7) for p in (1.5, 7)]
               + ["lpsum:3:lp:1.5-5d+l1-2d"])
NORM8_SPACES = ["lp:1.5-8d", "lp:3-8d", _weighted(7, 8)]
# half the vertices of ``tenths`` (the other half are their negatives)
TENTHS = [(2.0, 0.3), (1.7, 1.1), (1.0, 1.7), (0.2, 2.0), (-0.7, 1.9), (-1.4, 1.4),
          (-1.9, 0.6)]
# report label (the suite name, then any words) -> (run_suite keywords,
# resolution or None)
VERIFY_RUNS = {
    "lemmas": ({"spaces": ["l2-2", "lp:1.5-2d", "l1-2d", "square-rot"], "seed": 3,
                "instances_per_lemma": 8}, 2e-2),
    "chain": ({"spaces": ["lp:1.5-2d"]}, 5e-2),
    "mip-detect": ({}, None),
    "mip-detect linf-2d": ({"spaces": ["linf-2d"]}, None),
    "lpsum": ({"seed": 2, "n_pairs": 60}, 4e-2),
    "ordering": ({"spaces": ["lp:1.5-2d", "l1-2d"], "seed": 1}, 0.1),
    "dense-set": ({}, 4e-2),
    "spaces": ({"seed": 5}, None),
    "beta-slices": ({"seed": 4}, 4e-2),
    "delta-q": ({}, None),
}


def _space(bm, name):
    kind, _, arg = name.partition(":")
    if kind == "weighted":
        p, w = arg.split(":")
        return bm.weighted_lp_space(float(p), [float(v) for v in w.split(",")])
    if kind == "cross":
        return bm.cross_polytope(int(arg))
    if kind == "cube":
        return bm.hypercube(int(arg))
    if kind == "poly2d":
        rng = np.random.default_rng(0)
        while True:
            poly = _rational_polygon(rng)
            if poly is not None and len(poly.vertices) == int(arg):
                return bm.polyhedral_space([tuple(float(c) for c in v)
                                            for v in poly.vertices])
    if kind == "tenths":
        return bm.polyhedral_space(TENTHS + [(-x, -y) for x, y in TENTHS])
    if kind == "poly3d":
        half = np.random.default_rng(int(arg)).standard_normal((6, 3))
        return bm.polyhedral_space(np.vstack([half, -half]).tolist())
    return bm.preset(name)


def _unit(bm, sp, v, dual=False):
    # functionals are scaled by the norm of the polar, not by dual_norm, so
    # that both checkouts get the same inputs even where dual_norm moved
    v = np.asarray(v, dtype=float)
    return v / float(bm.norm(bm.polar_space(sp), v) if dual else bm.norm(sp, v))


def calls(bm):
    yield from _d_family(bm)
    yield from _slice_s_beta(bm)
    yield from _s_3d(bm)
    yield from _beta_scans(bm)
    yield from _pair_scans(bm)
    yield from _separating_balls(bm)
    yield from _residual_radii(bm)
    yield from _sign_tests(bm)


def _d_family(bm):
    coarse, cover = bm.Budget(resolution=4e-2), bm.Budget(resolution=0.3)
    for name in SPACES_2D + SPACES_3D:
        sp = _space(bm, name)
        v = [1.0, 0.3, -0.2][:sp.dim]
        x, f = _unit(bm, sp, v), _unit(bm, sp, v, dual=True)
        three = sp.dim == 3
        grid = cover if three else coarse
        for t in (0.3, 1.0):
            yield f"d_point {name} {t} coarse", lambda: bm.d_point(sp, x, t, grid)
            yield f"d_point {name} {t} default", lambda: bm.d_point(sp, x, t)
            yield f"d_global {name} {t}", lambda: bm.d_global(sp, t, grid)
            yield f"d_star {name} {t}", lambda: bm.d_star(sp, f, t, grid)
            if three:
                continue
            yield f"d_star_global {name} {t}", lambda: bm.d_star_global(sp, t, coarse)
            yield f"d_star_zero {name} {t}", lambda: bm.d_star_zero(sp, f, t, cover)
        if not three:
            yield f"d_star_zero {name} 0.01", lambda: bm.d_star_zero(sp, f, 0.01, cover)
            yield f"d_star_zero_global {name} 0.2", lambda: bm.d_star_zero_global(
                sp, 0.2, cover)
    for name in ("lp:1.5-2d", "square-rot"):
        sp = _space(bm, name)
        for budget, label, ts in ((None, "default", (0.5, 1.2)),
                                  (bm.Budget(resolution=2e-2), "2e-2", (1.6, 1.95))):
            for t in ts:
                yield f"d_global {name} {t} {label}", lambda: bm.d_global(sp, t, budget)
                yield f"d_star_global {name} {t} {label}", lambda: bm.d_star_global(
                    sp, t, budget)


def _slice_s_beta(bm):
    from ballmoduli import oracle
    for name in SPACES_2D:
        sp = _space(bm, name)
        x, f = _unit(bm, sp, [1.0, 0.3]), _unit(bm, sp, [0.4, -1.0], dual=True)
        g = bm.support_functional(sp, x).array
        y = bm.duality_preimage(sp, f).array
        for alpha in (0.5, 0.9):
            yield f"slice_diameter {name} {alpha} primal", lambda: bm.slice_diameter(
                sp, bm.Slice.of(f, alpha))
            yield f"slice_diameter {name} {alpha} dual", lambda: bm.slice_diameter(
                sp, bm.Slice.of(x, alpha, "dual"))
        for t in (0.5, 1.2):
            yield f"s_point {name} {t} norming", lambda: bm.s_point(sp, x, g, t)
            yield f"s_point {name} {t} generic", lambda: bm.s_point(sp, x, f, t)
            yield f"s_star {name} {t} norming", lambda: bm.s_star(sp, f, y, t)
            yield f"s_star {name} {t} generic", lambda: bm.s_star(sp, f, x, t)
        for t in (0.25, 0.5):
            yield f"beta_point {name} {t}", lambda: bm.beta_point(sp, f, x, t)
            yield f"beta_sup {name} {t}", lambda: bm.beta_sup(sp, f, t)
        yield f"oracle_d {name} 0.5", lambda: oracle.grid_bracket(
            "d", sp, 0.05, x=x, t=0.5)


def _s_3d(bm):
    for name in ("l2-3", "lp:1.5-3d", "l1-3d", "linf-3d"):
        sp = _space(bm, name)
        x, f = _unit(bm, sp, [1.0, 0.3, -0.2]), _unit(bm, sp, [0.4, -1.0, 0.5], dual=True)
        g, y = bm.support_functional(sp, x).array, bm.duality_preimage(sp, f).array
        # label -> ((x, f) of s, (f, x) of s*)
        pairs = {"norming": ((x, g), (f, y)), "generic": ((x, f), (f, x))}
        for label, v in (("axis", [1.0, 0.0, 0.0]), ("edge", [1.0, 1.0, 0.0]),
                         ("diag", [1.0, 1.0, 1.0])):
            pairs[label] = ((x, _unit(bm, sp, v, dual=True)), (f, _unit(bm, sp, v)))
        for label, (s_args, star_args) in pairs.items():
            for t in (0.5, 1.2):
                yield f"s_point {name} {t} {label}", lambda: bm.s_point(sp, *s_args, t)
                yield f"s_star {name} {t} {label}", lambda: bm.s_star(sp, *star_args, t)


def _beta_scans(bm):
    for name, res in (("lp:1.5-2d", 4e-2), ("lp:3-2d", 4e-2), ("weighted:3:1,2", 4e-2),
                      ("l1-2d", 0.2), ("square-rot", 0.2), ("poly2d:6", 0.2),
                      ("poly2d:8", 0.2), ("tenths", 0.2), ("lp:1.5-3d", 0.45),
                      ("lp:3-3d", 0.45), ("l1-3d", 0.6)):
        sp = _space(bm, name)
        for t in (0.3, 0.7):
            yield f"beta_global {name} {t} {res}", lambda: bm.beta_global(
                sp, [t], bm.Budget(resolution=res)).values[0]
    fine = bm.Budget(resolution=5e-3)
    for name in ("l1-2d", "linf-2d", "square-rot"):
        sp = _space(bm, name)
        # the dual ball's vertices are the facet rows; two neighbours in
        # angle span an edge
        V = sp.facets[np.argsort(np.arctan2(sp.facets[:, 1], sp.facets[:, 0]))]
        for where, v in (("vertex", V[0]), ("edge", (V[0] + V[1]) / 2.0)):
            f = _unit(bm, sp, v, dual=True)
            for t in (0.3, 0.7):
                yield f"beta_sup {name} {t} {where} 5e-3", lambda: bm.beta_sup(sp, f, t, fine)
    for name in ("lp:1.5-2d", "weighted:3:1,2", "poly2d:6", "poly2d:8"):
        sp = _space(bm, name)
        f = _unit(bm, sp, [0.4, -1.0], dual=True)
        for t in (0.3, 0.7):
            yield f"beta_sup {name} {t} lower 5e-3", lambda: bm.beta_sup(sp, f, t, fine)


def _pair_scans(bm):
    for name in SPACES_2D[:-1]:
        sp = _space(bm, name)
        x, f = _unit(bm, sp, [1.0, 0.3]), _unit(bm, sp, [0.4, -1.0], dual=True)
        for res in (5e-3, 1.5e-3):
            budget = bm.Budget(resolution=res)
            for alpha in (0.002, 0.3, 0.6, 0.999):
                yield (f"slice_diameter {name} {alpha} primal {res}",
                       lambda: bm.slice_diameter(sp, bm.Slice.of(f, alpha), budget))
                yield (f"slice_diameter {name} {alpha} dual {res}",
                       lambda: bm.slice_diameter(sp, bm.Slice.of(x, alpha, "dual"), budget))
    for name in SPACES_2D + ["poly2d:6", "poly2d:8"]:
        sp = _space(bm, name)
        for res in (2e-2, 1.5e-3):
            for t in (0.3, 1.0, 1.7, 2.0):
                yield (f"modulus_convexity {name} {t} {res}",
                       lambda: bm.modulus_convexity(sp, t, bm.Budget(resolution=res)))


def _separating_balls(bm):
    cases = [("l2-2", [(0.84, -0.07), (0.84, 0.07)], 0.8, bm.Budget(resolution=1.5e-3)),
             ("lp:3-2d", [(0.6, -0.2), (0.7, 0.3), (0.65, 0.0)], 0.5, None),
             ("l2-2", [(0.5, 0.0)], 0.5, None)]
    for name, C, eps, budget in cases:
        def ball():
            b = bm.construct_separating_ball(_space(bm, name), C, (1.0, 0.0), eps, 1.0, budget)
            return [b.radius, b.d, b.gamma, b.eta], "ball"
        yield f"separating_ball {name} {len(C)}", ball


def _residual_radii(bm):
    for name in ("l2-2", "lp:1.5-2d", "l1-2d", "square-rot"):
        sp = _space(bm, name)
        for eps in (0.5, 1.0):
            yield f"f_eps_radius {name} {eps}", lambda: bm.f_eps_radius(sp, eps)


def _rational_polygon(rng):
    """A symmetric polygon with 4 to 8 vertices on the 1/16 grid, or None."""
    from ballmoduli.exactpoly import Polygon
    pairs = int(rng.integers(2, 5))
    half = []
    for k in range(pairs):
        a = math.pi * (k + rng.uniform()) / pairs
        r = int(rng.integers(10, 17))
        half.append((Fraction(round(r * math.cos(a)), 16), Fraction(round(r * math.sin(a)), 16)))
    try:
        poly = Polygon(half + [(-x, -y) for x, y in half])
    except ValueError:
        return None
    return poly if len(poly.vertices) >= 4 else None


def _sign_tests(bm):
    from ballmoduli import oracle
    rng = np.random.default_rng(0)
    k = 0
    while k < 100:
        poly = _rational_polygon(rng)
        if poly is None:
            continue
        sp = bm.polyhedral_space([tuple(float(c) for c in v) for v in poly.vertices])
        edges, dual_edges = poly.edges(), poly.polar().edges()
        (v, w) = edges[int(rng.integers(len(edges)))]
        (g, h) = dual_edges[int(rng.integers(len(dual_edges)))]
        # past the first 60, small t at interior edge points, where d*0 = 0
        small = k >= 60
        lam = Fraction(int(rng.integers(1, 16) if small else rng.integers(0, 17)), 16)
        x = tuple(float(a + lam * (b - a)) for a, b in zip(v, w))
        f = tuple(float(a + lam * (b - a)) for a, b in zip(g, h))
        t = int(rng.integers(1, 9)) / 64 if small else int(rng.integers(1, 32)) / 16

        def signs():
            return [int(oracle.exact_d_positive(sp, x, t)),
                    int(oracle.exact_d_star_positive(sp, f, t)),
                    int(oracle.exact_d_star_zero_is_zero(sp, f, t))], "exact"
        yield f"exact_signs poly{k} {t}", signs
        k += 1


def dump(path: str) -> None:
    import ballmoduli as bm
    from ballmoduli.spaces import _support_array
    out, methods = {}, {}
    for key, fn in calls(bm):
        try:
            b = fn()
        except bm.BudgetError:  # recorded as a tag, so both sides must raise
            out[key], methods[key] = [], "BudgetError"
            print(key, "BudgetError", flush=True)
            continue
        # a call returns a bracket, or (values, tag) where it has no bracket
        values, tag = ([b.lower, b.upper], b.method) if isinstance(b, bm.Bracket) else b
        out[key], methods[key] = values, tag
        print(key, *values, tag, flush=True)
    rng, rng_norm = np.random.default_rng(0), np.random.default_rng(1)
    for name in SUPPORT_SPACES:
        sp = _space(bm, name)
        raw = rng_norm.standard_normal((50, sp.dim))
        out[f"norm {name}"] = bm.norm(sp, raw).tolist()
        out[f"dual_norm {name}"] = bm.dual_norm(sp, raw).tolist()
        pts = rng.standard_normal((50, sp.dim))
        pts /= bm.norm(sp, pts)[:, None]
        out[f"support {name}"] = [float(c) for x in pts
                                  for c in _support_array(sp, x)]
    for kind, names in (("", NORM_SPACES), ("8", NORM8_SPACES)):
        for name in names:
            sp = _space(bm, name)
            raw = rng_norm.standard_normal((50, sp.dim))
            # the whole array, then its first rows one vector at a time
            out[f"norm{kind} {name}"] = (bm.norm(sp, raw).tolist()
                                         + [float(bm.norm(sp, x)) for x in raw[:10]])
            out[f"dual_norm{kind} {name}"] = (bm.dual_norm(sp, raw).tolist()
                                              + [float(bm.dual_norm(sp, x)) for x in raw[:10]])
    verify = {}
    for label, (kw, res) in VERIFY_RUNS.items():
        budget = bm.Budget(resolution=res) if res is not None else None
        verify[label] = bm.run_suite(label.split()[0], budget=budget, **kw).to_json()
        print("suite", label, flush=True)
    verify["oracle-battery"] = bm.run_oracle_battery()
    with open(path, "w") as fh:
        json.dump({"values": out, "methods": methods, "verify": verify}, fh, indent=0)


def _json_diffs(a, b, path=""):
    """The paths at which two parsed JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in sorted(a.keys() | b.keys())
                for p in _json_diffs(a.get(k), b.get(k), f"{path}/{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (u, v) in enumerate(zip(a, b))
                for p in _json_diffs(u, v, f"{path}/{i}")]
    return [] if a == b else [path]


BRACKET_TAGS = ("grid-certified", "multistart", "exact")


def _moved_brackets(a, b) -> tuple[int, list[str]]:
    """(number of narrowed brackets, keys of the widened ones) over the
    calls that returned a bracket in both dumps.  A bracket widened when its
    lower end fell or its upper end rose, and narrowed when neither did and
    one end moved inward."""
    narrowed, widened = 0, []
    for key, ua in a["values"].items():
        ub = b["values"][key]
        tags = a["methods"].get(key), b["methods"].get(key)
        if len(ua) != 2 or len(ub) != 2 or not all(t in BRACKET_TAGS for t in tags):
            continue
        if ub[0] < ua[0] or ub[1] > ua[1]:
            widened.append(key)
        elif ub != ua:
            narrowed += 1
    return narrowed, widened


def diff(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    va, vb = a["values"], b["values"]
    if va.keys() != vb.keys():
        print("call lists differ:", sorted(va.keys() ^ vb.keys()))
        return 1
    worst, where, n = 0.0, None, 0
    per_kind: dict[str, list] = {}  # kind -> [max |delta|, values that differ]
    for key in va:
        if len(va[key]) != len(vb[key]):
            continue  # one side raised; its method tag differs
        kind = per_kind.setdefault(key.split()[0], [0.0, 0])
        for u, v in zip(va[key], vb[key]):
            n += 1
            kind[0] = max(kind[0], abs(u - v))
            kind[1] += u != v
            if abs(u - v) > worst:
                worst, where = abs(u - v), key
    print(f"{len(va)} calls, {n} values, max |delta| = {worst:.3g}"
          + (f" ({where})" if where else ""))
    for kind, (d, count) in per_kind.items():
        if count:
            print(f"  {kind}: {count} values differ, max |delta| = {d:.3g}")
    narrowed, widened = _moved_brackets(a, b)
    print(f"{narrowed} brackets narrowed, {len(widened)} widened"
          + "".join(f"\n  widened: {k} {va[k]} -> {vb[k]}" for k in widened))
    tags = [k for k in a["methods"] if a["methods"][k] != b["methods"].get(k)]
    print(f"{len(a['methods'])} method tags, {len(tags)} differ"
          + (f": {tags}" if tags else ""))
    paths = _json_diffs(a["verify"], b["verify"])
    print(f"{len(a['verify']) - 1} suite reports and the battery, {len(paths)} paths differ"
          + (f": {paths[:20]}" if paths else ""))
    return 0


if __name__ == "__main__":
    cmd, *args = sys.argv[1:]
    sys.exit(dump(*args) if cmd == "dump" else diff(*args))
