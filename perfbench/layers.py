"""Per-layer tracing of ``ballmoduli`` from outside the package.

The layers are the package's modules.  ``Tracer.install`` wraps each
module's boundary functions (``BOUNDARY``) and rebinds the wrapper in every
``ballmoduli.*`` namespace that holds the function: ``denting``, ``beta``
and ``slices`` bind ``sphere_grid`` through ``from .gridutil import``, so
patching ``gridutil`` alone would miss their calls.

Each call records a span (name, start, end, parent, op id).  A function
already running (or, for the two norm kernels, either kernel) is not
recorded again, so the recursive ``_norm_array`` of an lp-sum counts once.
Self time is a span's duration minus the durations of its child spans.
Spans stay in memory; ``write_jsonl`` writes them out after the pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

# Boundary functions per layer.  The two norm kernels share one guard group.
BOUNDARY = {
    "spaces": ("_norm_array", "_dual_norm_array", "polar_space", "kernel_frame",
               "support_functional", "duality_preimage"),
    "gridutil": ("sphere_grid", "lowdisc_sphere", "sharp_equiv_constants"),
    "denting": ("modulus_convexity", "s_point", "d_point", "d_global", "s_star",
                "d_star", "d_star_global", "d_star_zero", "d_star_zero_global",
                "_d_point_bounds", "_d_lower_cheap"),
    "beta": ("beta_point", "beta_sup", "beta_global", "_beta_global_single",
             "_candidate_surfaces", "_beta_sup_euclidean"),
    "slices": ("slice_diameter", "_max_pair", "f_eps_radius",
               "construct_separating_ball", "_distance_to_hull"),
    "exactpoly": ("slice_diameter_exact", "beta_point_exact", "beta_sup_exact",
                  "s_point_exact", "denting_nonpositive", "dstar_zero_nonpositive"),
    "oracle": ("grid_bracket", "to_polygon", "exact_slice_diameter",
               "exact_beta_point", "exact_beta_sup", "exact_s_point",
               "exact_d_positive", "exact_d_star_positive",
               "exact_d_star_zero_is_zero"),
    "verify": ("run_suite", "run_oracle_battery"),
}
NORM_KERNELS = ("_norm_array", "_dual_norm_array")
# Functions whose argument key is tracked to measure repeated work.
KEYED = ("polar_space", "sphere_grid")

# The per-layer metrics reported for a traced pass, in report order.
LAYER_METRICS = (
    "spaces.norm_calls", "spaces.norm_points", "spaces.norm_s",
    "spaces.polar_calls", "spaces.polar_repeat_share", "spaces.polar_s", "spaces.s",
    "gridutil.grid_calls", "gridutil.grid_points", "gridutil.grid_repeat_share",
    "gridutil.grid_s", "gridutil.equiv_s", "gridutil.s",
    "denting.convexity_s", "denting.convexity_points", "denting.d_calls",
    "denting.d_lower_calls", "denting.s",
    "beta.sup_calls", "beta.surface_calls", "beta.s",
    "slices.diameter_calls", "slices.pair_evals", "slices.s", "slices.sepball_s",
    "exactpoly.calls", "exactpoly.s",
    "oracle.s",
    "verify.s",
)
COUNT_METRICS = tuple(m for m in LAYER_METRICS
                      if m.endswith(("_calls", "_points", "pair_evals", ".calls")))

# span record fields
NAME, START, END, PARENT, OP, POINTS, CHILD_NS, SUB_POINTS, KEY = range(9)


def _points(a) -> int:
    """Number of vectors in a trailing-axis array of coordinates."""
    shape = getattr(a, "shape", None)
    if not shape:
        return 1
    n = 1
    for s in shape[:-1]:
        n *= s
    return n


class Tracer:
    """Span recorder for calls into ``ballmoduli``'s boundary functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None  # spans are recorded only while an op runs
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []
        self.layer_of: dict[str, str] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ballmoduli" or name.startswith("ballmoduli.")}
        wrappers: dict[int, object] = {}
        for layer, names in BOUNDARY.items():
            home = modules[f"ballmoduli.{layer}"]
            for name in names:
                fn = getattr(home, name)
                self.layer_of[name] = layer
                group = "norm" if name in NORM_KERNELS else name
                wrappers[id(fn)] = self._wrap(name, group, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def _wrap(self, name: str, group: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns
        is_norm = group == "norm"
        keyed = name in KEYED
        sig = inspect.signature(fn) if keyed else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None or active[group]:
                return fn(*args, **kwargs)
            key = None
            if keyed:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.values())
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op_id,
                   _points(args[-1]) if is_norm else 0, 0, 0, key]
            spans.append(rec)
            stack.append(idx)
            active[group] += 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                active[group] -= 1
                stack.pop()
                parent = rec[PARENT]
                if parent >= 0:
                    p = spans[parent]
                    p[CHILD_NS] += rec[END] - rec[START]
                    p[SUB_POINTS] += rec[POINTS] + rec[SUB_POINTS]
            if name == "sphere_grid":
                rec[POINTS] = len(result.points)
            return result

        return wrapper

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": rec[NAME], "layer": self.layer_of[rec[NAME]],
                    "start_ns": rec[START], "end_ns": rec[END],
                    "parent": rec[PARENT], "op": rec[OP]}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate the recorded spans into the per-layer metrics."""
        return layer_metrics(self.spans, self.layer_of)


def function_profile(spans) -> dict[str, tuple[int, float, float]]:
    """Per boundary function: (calls, self seconds, inclusive seconds)."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for rec in spans:
        dur = (rec[END] - rec[START]) * 1e-9
        row = out[rec[NAME]]
        row[0] += 1
        row[1] += dur - rec[CHILD_NS] * 1e-9
        row[2] += dur
    return {name: tuple(row) for name, row in out.items()}


def layer_metrics(spans, layer_of) -> dict[str, float]:
    prof = defaultdict(lambda: (0, 0.0, 0.0), function_profile(spans))
    m: dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
    for name, (_, self_s, _) in list(prof.items()):
        m[f"{layer_of[name]}.s"] += self_s
    keys: dict[str, set] = defaultdict(set)
    repeats: dict[str, int] = defaultdict(int)
    for rec in spans:
        name = rec[NAME]
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
        if name in NORM_KERNELS:
            m["spaces.norm_points"] += rec[POINTS]
        elif name == "sphere_grid":
            m["gridutil.grid_points"] += rec[POINTS]
        elif name == "modulus_convexity":
            m["denting.convexity_points"] += rec[SUB_POINTS]
        elif name == "_max_pair":
            m["slices.pair_evals"] += rec[SUB_POINTS]
        elif name == "_beta_sup_euclidean" and parent != "beta_sup":
            m["beta.sup_calls"] += 1  # a sup computed without beta_sup
        if layer_of[name] == "exactpoly" and (parent is None or layer_of[parent] != "exactpoly"):
            m["exactpoly.calls"] += 1
        if rec[KEY] is not None:
            repeats[name] += rec[KEY] in keys[name]
            keys[name].add(rec[KEY])
    norms = [prof[name] for name in NORM_KERNELS]
    m["spaces.norm_calls"] = sum(p[0] for p in norms)
    m["spaces.norm_s"] = sum(p[2] for p in norms)
    m["spaces.polar_calls"] = prof["polar_space"][0]
    m["spaces.polar_s"] = prof["polar_space"][2]
    m["spaces.polar_repeat_share"] = repeats["polar_space"] / max(prof["polar_space"][0], 1)
    m["gridutil.grid_calls"] = prof["sphere_grid"][0]
    m["gridutil.grid_s"] = prof["sphere_grid"][2]
    m["gridutil.grid_repeat_share"] = repeats["sphere_grid"] / max(prof["sphere_grid"][0], 1)
    m["gridutil.equiv_s"] = prof["sharp_equiv_constants"][2]
    m["denting.convexity_s"] = prof["modulus_convexity"][2]
    m["denting.d_calls"] = prof["_d_point_bounds"][0]
    m["denting.d_lower_calls"] = prof["_d_lower_cheap"][0]
    m["beta.sup_calls"] += prof["beta_sup"][0]
    m["beta.surface_calls"] = prof["_candidate_surfaces"][0]
    m["slices.diameter_calls"] = prof["slice_diameter"][0]
    m["slices.sepball_s"] = prof["construct_separating_ball"][2]
    return {name: int(m[name]) if name in COUNT_METRICS else m[name]
            for name in LAYER_METRICS}


def layer_table(per_case: dict[str, dict[str, float]]) -> str:
    """Markdown table of per-layer self times and counts, one column per case."""
    cases = list(per_case)
    lines = ["| metric | " + " | ".join(cases) + " |",
             "|---|" + "---|" * len(cases)]
    for name in LAYER_METRICS:
        cells = []
        for case in cases:
            v = per_case[case][name]
            cells.append(f"{v:.0f}" if name in COUNT_METRICS else f"{v:.3f}")
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts must repeat exactly across passes; times are medians."""
    out = {}
    for name in LAYER_METRICS:
        values = [p[name] for p in passes]
        out[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    return out
