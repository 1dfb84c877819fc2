"""ballmoduli benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark runs passes of the workload
one after another, each in a fresh process (``worker.py``), until ``S``
seconds have gone and at least ``MIN_PASSES`` passes have run.  A pass runs
every op of the workload once; its inputs depend only on the seed, so all
passes of a run repeat the same work.  Every result is checked.

Every time is scaled to a fixed machine speed measured by the speed probe
that runs around each op (``probe.py``), so that the host's drift does not
read as a change of the program; the raw times are in the run's record.

With ``--trace 0`` it reports the end-to-end metrics:

    setup_s      median time from spawning a pass process to its inputs built
    wall_s       time to run every op of the workload once: the sum over ops
                 of each op's latency, its median over the passes
    op_p50_ms    median op latency (each op's latency as in wall_s)
    op_tail_ms   op latency at the highest percentile with >= 10 ops beyond it
    width_sum    sum of the widths of the brackets a pass returns
    width_max    widest bracket of a pass
    ok_frac      1 - fail_frac, the share of attempted ops that passed
    peak_rss_mb  median peak resident memory of a pass process

With ``--trace 1`` passes alternate between traced and untraced, and it
reports the per-layer metrics of the traced passes (see ``layers.py``) plus
``trace.wall_s`` and ``trace.overhead_s`` (traced minus untraced ``wall_s``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable summary.  The full record, with each op's method tag, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COUNT_METRICS, median_metrics
from probe import NOMINAL_S, op_scales, setup_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("slice-geometry", "smooth-sweeps", "polygon-exact", "space-3d")
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two traced, two untraced
RUN_LIMIT_S = 170.0  # the whole run must end well within 180 s
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, traced: bool, spans, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_raw_s"] = out.pop("setup_done") - start
    out["setup_s"] = out["setup_raw_s"] * setup_scale(out["probes_setup_s"])
    for op, scale in zip(out["ops"], op_scales(out["probes_s"])):
        op["latency_raw_s"] = op["latency_s"]
        op["latency_s"] *= scale
    out["traced"] = traced
    return out


def source_id() -> dict:
    """Which program was measured: the git commit when there is one, and a
    hash of the package source either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ballmoduli").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def tail_index(n: int) -> int:
    """0-based index, in ascending order, of the highest-percentile op that
    leaves at least TAIL_BEYOND ops beyond it (the maximum if n is small)."""
    return max(n - TAIL_BEYOND, 1) - 1


def end_to_end(passes: list[dict], raw: bool = False) -> tuple[dict, dict]:
    """The end-to-end metrics; with ``raw`` the times are not scaled."""
    latency, setup = ("latency_raw_s", "setup_raw_s") if raw else ("latency_s", "setup_s")
    n_ops = len(passes[0]["ops"])
    per_op = [statistics.median(p["ops"][i][latency] for p in passes)
              for i in range(n_ops)]
    ranked = sorted(per_op)
    k = tail_index(n_ops)
    widths = [o["width"] for o in passes[0]["ops"] if o["width"] is not None]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not o["ok"] for p in passes for o in p["ops"])
    metrics = {
        "setup_s": (statistics.median(p[setup] for p in passes), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "op_tail_ms": (1e3 * ranked[k], "ms"),
        "width_sum": (sum(widths), "1"),
        "width_max": (max(widths), "1"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = {"ops_per_pass": n_ops, "tail_percentile": 100.0 * (k + 1) / n_ops,
             "per_op_median_s": per_op}
    return metrics, notes


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    layer = median_metrics([p["layers"] for p in traced])
    repeat = all(p["layers"][m] == traced[0]["layers"][m]
                 for p in traced for m in COUNT_METRICS)
    metrics = {name: (value, "count" if name in COUNT_METRICS
                      else "ratio" if name.endswith("_share") else "s")
               for name, value in layer.items()}
    traced_wall = end_to_end(traced)[0]["wall_s"][0]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - end_to_end(untraced)[0]["wall_s"][0], "s")
    return metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ballmoduli" / "__init__.py").is_file():
        print(f"perfbench: no ballmoduli package under {ROOT / 'src'}; "
              "run from the root of a ballmoduli checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = time.monotonic()
    min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    passes: list[dict] = []
    try:
        while len(passes) < min_passes or time.monotonic() - start < args.seconds:
            traced = bool(args.trace) and len(passes) % 2 == 0
            spans = OUT / f"spans-{tag}.jsonl" if traced and not passes else None
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            passes.append(run_pass(args.workload, args.seed, traced, spans, remaining))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: pass {len(passes)} failed: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics, notes = end_to_end(untraced)
    widths = [[o["width"] for o in p["ops"]] for p in passes]
    deterministic = all(w == widths[0] for w in widths)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not o["ok"] for p in passes for o in p["ops"])
    counts_repeat = True
    if args.trace:
        metrics, counts_repeat = per_layer(traced, untraced)
    correct = failed == 0 and deterministic and counts_repeat

    raw = {k: v for k, (v, _) in end_to_end(untraced, raw=True)[0].items()
           if k in ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms")}
    probes = [t for p in passes for t in p["probes_s"]]
    probe_ms = 1e3 * statistics.median(probes)
    env = dict(passes[0]["env"], **source_id(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)),
               thread_env={var: "1" for var in THREAD_VARS})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": len(passes), "traced_passes": len(traced),
              "correct": correct, "deterministic_widths": deterministic,
              "counts_repeat": counts_repeat, "env": env, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "raw_times": raw, "probe_median_ms": probe_ms,
              "pass_walls_s": [sum(o["latency_s"] for o in p["ops"]) for p in passes],
              "pass_raw_walls_s": [sum(o["latency_raw_s"] for o in p["ops"]) for p in passes],
              "ops": [{k: o[k] for k in ("label", "method", "width", "ok", "reason",
                                         "unverified")}
                      for o in passes[0]["ops"]]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for p in passes:
        for o in p["ops"]:
            if not o["ok"]:
                print(f"perfbench: FAILED {o['label']}: {o['reason']}", file=sys.stderr)
    unverified = [o for o in passes[0]["ops"] if o["unverified"]]
    for o in unverified:
        print(f"perfbench: UNVERIFIED {o['label']}: {o['unverified']}; checked against "
              "its admissible range instead", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed}: {len(passes)} passes "
          f"({len(traced)} traced), {notes['ops_per_pass']} ops per pass, "
          f"fail_frac={failed / attempted:.4g} ({failed}/{attempted}), "
          f"unverified ops per pass: {len(unverified)}, deterministic widths: {deterministic}")
    if not args.trace:
        print(f"  op tail is p{notes['tail_percentile']:.1f} of N={notes['ops_per_pass']} "
              f"per-op medians")
    print(f"  speed probe: median {probe_ms:.4g} ms, nominal {1e3 * NOMINAL_S:.4g} ms; "
          "unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  env {json.dumps(env)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
