"""One-off per-layer breakdown of the public calls behind the slowest tier-1 tests.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/slow_tests.py

Runs each call once with the benchmark's tracer installed and writes
``perfbench/slow_tests.md``: the per-layer metrics of each call and its
boundary functions ranked by self time.  Times include the tracer's own
overhead.  This is a report, not a workload; it takes several minutes.
"""

from __future__ import annotations

import time
from pathlib import Path

import ballmoduli as bm
from ballmoduli import BallConstructionError, Budget

from layers import Tracer, function_profile, layer_metrics, layer_table

CASES = {
    "lemmas": ('run_suite("lemmas")', lambda: bm.run_suite("lemmas")),
    "chain": ('run_suite("chain")', lambda: bm.run_suite("chain")),
    "oracle": ("run_oracle_battery()", lambda: bm.run_oracle_battery()),
    "sepball-l1": ("construct_separating_ball(l1-2d, ...) -> no-small-slice-witness",
                   lambda: bm.construct_separating_ball(
                       bm.preset("l1-2d"), [(0.5, -0.2), (0.5, 0.2)], (1.0, 0.0), 0.5, 1.0)),
    "dstar0-l2": ("d_star_zero_global(l2-2, 0.5, resolution 5e-3)",
                  lambda: bm.d_star_zero_global(bm.preset("l2-2"), 0.5, Budget(resolution=5e-3))),
}
TOP = 8


def main() -> None:
    tracer = Tracer()
    tracer.install()
    per_case, walls, profiles = {}, {}, {}
    for i, (case, (_, call)) in enumerate(CASES.items()):
        del tracer.spans[:]
        tracer.op_id = i
        t0 = time.perf_counter()
        try:
            call()
        except BallConstructionError:
            pass  # the expected structural failure of the l1 case
        walls[case] = time.perf_counter() - t0
        tracer.op_id = None
        per_case[case] = layer_metrics(tracer.spans, tracer.layer_of)
        profiles[case] = function_profile(tracer.spans)
        print(f"{case}: {walls[case]:.1f} s", flush=True)
    tracer.uninstall()

    lines = ["# Slow tier-1 calls broken down by layer", "",
             "Generated by `perfbench/slow_tests.py`; one traced run of each call on",
             "2 cores with BLAS pinned to 1 thread.  Times include tracing overhead.",
             "`<layer>.s` is the layer's self time; `<layer>.<fn>_s` is the",
             "inclusive time of that function's calls.", ""]
    for case, (desc, _) in CASES.items():
        lines.append(f"- `{case}`: `{desc}`, {walls[case]:.1f} s traced")
    lines += ["", "## Per-layer metrics", "", layer_table(per_case), "",
              f"## Top {TOP} boundary functions by self time", ""]
    for case in CASES:
        lines += [f"### {case} ({walls[case]:.1f} s)", "",
                  "| function | layer | calls | self s | inclusive s |", "|---|---|---|---|---|"]
        ranked = sorted(profiles[case].items(), key=lambda kv: -kv[1][1])[:TOP]
        for name, (calls, self_s, incl_s) in ranked:
            lines.append(f"| `{name}` | {tracer.layer_of[name]} | {calls} | "
                         f"{self_s:.2f} | {incl_s:.2f} |")
        lines.append("")
    out = Path(__file__).resolve().parent / "slow_tests.md"
    out.write_text("\n".join(lines))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
