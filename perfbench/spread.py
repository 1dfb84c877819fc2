"""Run-to-run spread of the benchmark over seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs ``run.py`` once per seed, one run at a time, and reports for each metric
the median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  It marks
each end-to-end metric other than ``setup_s`` whose spread is not below a
third of its bound in ``BENCHMARK.json``.  The runs are saved to
``perfbench/out/spread-<workload>-trace<t>.json``; with ``--record`` the
medians and spreads also go into ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("nan"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the medians and spreads in perfbench/baseline.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run failed with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)

    summary = {}
    print(f"{'metric':28s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, spr = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spr < bound / 3:
            flag = "  <-- not below bound/3"
        summary[name] = {"median": med, "spread": spr, "values": values,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:28s} {med:14.6g} {spr:8.4f} {bound if bound is not None else '':>6}{flag}")
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "trace": args.trace, "runs": runs, "summary": summary},
                              indent=1) + "\n")
    if args.record:
        record(args.workload, args.trace, seconds, args.seeds, summary)
    return 0


def record(workload: str, trace: int, seconds: int, seeds: list[int], summary: dict) -> None:
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.exists() else {}
    env = json.loads((HERE / "out" / f"{workload}-seed{seeds[-1]}-trace{trace}.json")
                     .read_text())["env"]
    baseline.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = {
        "seconds": seconds, "seeds": seeds, "env": env,
        "metrics": {name: {k: s[k] for k in ("median", "spread", "unit")}
                    for name, s in summary.items()}}
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
