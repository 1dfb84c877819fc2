"""Command-line front end: curve computation, sweeps, verification suites,
and the oracle comparison battery.

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 budget/certification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .beta import beta_global
from .bracket import CURVE_CSV_COLUMNS, Bracket
from .config import DEFAULT_BUDGET, Budget
from .denting import (d_global, d_star_global, d_star_zero_global,
                      modulus_convexity)
from .errors import BallModuliError, BudgetError, DescriptorError, DomainError
from .presets import list_presets, preset
from .spaces import SpaceDescriptor
from .verify import list_suites, run_oracle_battery, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3

_MODULI = ("delta", "d", "d-star", "d-star-zero", "beta")


def _parse_space(text: str) -> SpaceDescriptor:
    text = text.strip()
    if text.startswith("{"):
        try:
            return SpaceDescriptor.from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise DescriptorError(f"malformed space JSON: {exc}") from exc
    return preset(text)


def _parse_t_grid(args) -> list[float]:
    if args.t is not None and args.t_grid is not None:
        raise DomainError("use either --t or --t-grid, not both")
    if args.t is not None:
        return [float(args.t)]
    if args.t_grid is not None:
        try:
            ts = [float(v) for v in args.t_grid.split(",") if v.strip()]
        except ValueError as exc:
            raise DomainError(f"malformed --t-grid: {args.t_grid!r}") from exc
        if not ts or sorted(ts) != ts or len(set(ts)) != len(ts):
            raise DomainError("--t-grid must be strictly increasing")
        return ts
    raise DomainError("one of --t or --t-grid is required")


def _budget(args) -> Budget:
    if args.budget is not None and args.budget <= 0:
        raise DomainError(f"--budget must be positive, got {args.budget}")
    return Budget(resolution=args.resolution,
                  max_evals=args.budget or DEFAULT_BUDGET.max_evals)


def _curve_rows(space: SpaceDescriptor, modulus: str, ts: Sequence[float],
                budget: Budget) -> list[dict]:
    kind = modulus.replace("-", "_")
    if modulus == "beta":
        return beta_global(space, ts, budget).rows()
    fn = {"delta": modulus_convexity, "d": d_global,
          "d_star": d_star_global, "d_star_zero": d_star_zero_global}[kind]
    rows = []
    for t in ts:
        b: Bracket = fn(space, t, budget)
        row = {"kind": kind, "t": t}
        row.update(b.to_json())
        rows.append(row)
    return rows


def _emit(rows: list[dict], columns: list[str], args) -> None:
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})
        text = buf.getvalue()
    _write(text, args)


def _emit_json(payload: dict, args) -> None:
    _write(json.dumps(payload, indent=2, default=str) + "\n", args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args) -> int:
    space = _parse_space(args.space)
    ts = _parse_t_grid(args)
    rows = _curve_rows(space, args.modulus, ts, _budget(args))
    _emit(rows, CURVE_CSV_COLUMNS, args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    space = _parse_space(args.space)
    try:
        lo_s, hi_s = args.t_range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise DomainError(f"malformed --t-range {args.t_range!r}; "
                          "expected min:max") from exc
    if args.steps < 1 or not lo < hi:
        raise DomainError("--steps must be >= 1 and the range nonempty")
    ts = [float(v) for v in np.linspace(lo, hi, args.steps)]
    rows = _curve_rows(space, args.modulus, ts, _budget(args))
    _emit(rows, ["t", "lower", "upper", "method"], args)
    return EXIT_OK


def cmd_verify(args) -> int:
    spaces = ([s for s in args.spaces.split(",") if s.strip()]
              if args.spaces else None)
    report = run_suite(args.suite, spaces=spaces, seed=args.seed,
                       budget=_budget(args))
    payload = report.to_json()
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _emit_json(payload, args)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def cmd_oracle_diff(args) -> int:
    out = run_oracle_battery(budget=_budget(args))
    out["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _emit_json(out, args)
    all_inside = all(rec.get("exact_inside", True) for rec in out["records"])
    ok = out["n_overlap"] == out["n_instances"] and all_inside
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=None,
                   help="maximum objective evaluations (a positive integer)")
    p.add_argument("--resolution", type=float, default=None,
                   help="target grid covering radius (operation default if unset)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballmoduli",
        description="Certified geometric moduli of finite-dimensional "
                    "normed spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute a modulus curve")
    p.add_argument("--space", required=True,
                   help=f"space JSON or preset ({', '.join(list_presets())})")
    p.add_argument("--modulus", required=True, choices=_MODULI)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-grid", default=None, help="comma-separated t values")
    _add_common(p)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("sweep", help="uniform-grid sweep, plot-ready CSV")
    p.add_argument("--space", required=True)
    p.add_argument("--modulus", required=True, choices=_MODULI)
    p.add_argument("--t-range", required=True, help="min:max")
    p.add_argument("--steps", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run a registered verification suite")
    p.add_argument("--suite", required=True,
                   help=f"one of: {', '.join(list_suites())}")
    p.add_argument("--spaces", default=None,
                   help="comma-separated preset names (suite default if unset)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the suite's random draws")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle-diff",
                       help="compare engine brackets against the brute-force "
                            "oracle on the fixed battery")
    _add_common(p)
    p.set_defaults(fn=cmd_oracle_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (BallModuliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
