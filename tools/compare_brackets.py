"""Compare the d-family brackets and support functionals of two checkouts.

    PYTHONPATH=<checkout>/src python tools/compare_brackets.py dump OUT.json
    python tools/compare_brackets.py diff A.json B.json

``dump`` evaluates a fixed list of calls (d at a coarse and at the default
budget, d_global, d*, d*-global, d*0 and d*0-global at coarse budgets on
2-D and 3-D presets, d*0 also at t = 0.01, where its interior sample is
mostly empty, plus support functionals at seeded random points) and writes
every bracket end and functional coordinate.  ``diff`` prints the number of
values compared and the largest absolute difference, and exits 1 if the
call lists differ.
"""

from __future__ import annotations

import json
import sys

import numpy as np

SPACES_2D = ["l2-2", "lp:1.5-2d", "lp:3-2d", "l1-2d", "linf-2d", "square-rot",
             "weighted:3:1,2"]
SPACES_3D = ["l2-3", "l1-3d", "linf-3d"]
SUPPORT_SPACES = ["l2-2", "l2-3", "lp:1.5-2d", "lp:3-2d", "l1-2d", "linf-2d",
                  "square-rot", "l2sum-4", "lpsum:3:l1-2d+lp:1.5-2d"]


def _space(bm, name):
    if name.startswith("weighted:"):
        _, p, w = name.split(":")
        return bm.weighted_lp_space(float(p), [float(v) for v in w.split(",")])
    return bm.preset(name)


def _unit(bm, sp, v, dual=False):
    v = np.asarray(v, dtype=float)
    return v / float(bm.dual_norm(sp, v) if dual else bm.norm(sp, v))


def calls(bm):
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
            if three:
                continue
            yield f"d_star {name} {t}", lambda: bm.d_star(sp, f, t, coarse)
            yield f"d_star_global {name} {t}", lambda: bm.d_star_global(sp, t, coarse)
            yield f"d_star_zero {name} {t}", lambda: bm.d_star_zero(sp, f, t, cover)
        if not three:
            yield f"d_star_zero {name} 0.01", lambda: bm.d_star_zero(sp, f, 0.01, cover)
            yield f"d_star_zero_global {name} 0.2", lambda: bm.d_star_zero_global(
                sp, 0.2, cover)


def dump(path: str) -> None:
    import ballmoduli as bm
    from ballmoduli.spaces import _support_array
    out = {}
    for key, fn in calls(bm):
        b = fn()
        out[key] = [b.lower, b.upper]
        print(key, b.lower, b.upper, flush=True)
    rng = np.random.default_rng(0)
    for name in SUPPORT_SPACES:
        sp = _space(bm, name)
        pts = rng.standard_normal((50, sp.dim))
        pts /= bm.norm(sp, pts)[:, None]
        out[f"support {name}"] = [float(c) for x in pts
                                  for c in _support_array(sp, x)]
    with open(path, "w") as fh:
        json.dump(out, fh, indent=0)


def diff(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    if a.keys() != b.keys():
        print("call lists differ:", sorted(a.keys() ^ b.keys()))
        return 1
    worst, where, n = 0.0, None, 0
    for key in a:
        for u, v in zip(a[key], b[key], strict=True):
            n += 1
            if abs(u - v) > worst:
                worst, where = abs(u - v), key
    print(f"{len(a)} calls, {n} values, max |delta| = {worst:.3g}"
          + (f" ({where})" if where else ""))
    return 0


if __name__ == "__main__":
    cmd, *args = sys.argv[1:]
    sys.exit(dump(*args) if cmd == "dump" else diff(*args))
