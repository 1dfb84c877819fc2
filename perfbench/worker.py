"""One benchmark pass, run by ``run.py`` in a fresh process.

Set-up, timed from the spawn of the process, imports ``ballmoduli``, numpy
and scipy and builds the workload's inputs from the seed; the package's
caches start cold, as in a CLI call.  The pass then runs every op once,
timing each, with a speed probe (``probe.py``) before each op and after the
last; only afterwards it computes the reference values and checks every
result.  It prints one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--spans FILE]

``run.py`` sets ``PYTHONPATH`` to the checkout's ``src`` and pins the BLAS
and OpenMP pools to one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import time

import numpy as np
import scipy

import ballmoduli as bm
from checker import Outcome, check
from layers import Tracer
from probe import SETUP_PROBES, probe
from workloads import WORKLOADS


def blas_threads():
    """Thread count reported by each OpenBLAS library loaded in the process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[path.rsplit("/", 1)[-1]] = fn()
                break
    return counts


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the pass's spans as JSONL here")
    args = parser.parse_args()

    ops = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    setup_done = time.monotonic()
    probes_setup = [probe() for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    outcomes, latencies, probes = [], [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        probes.append(probe())
        fn = getattr(bm, op.call)
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            outcome = Outcome(result=fn(*op.args, **op.kwargs))
        except Exception as exc:  # an op that raises is judged by the checker
            outcome = Outcome(error=exc)
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.op_id = None
        outcomes.append(outcome)
    probes.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer_metrics = None
    if tracer is not None:
        tracer.uninstall()
        layer_metrics = tracer.layer_metrics()
        if args.spans:
            tracer.write_jsonl(args.spans)

    records = []
    for op, outcome, latency in zip(ops, outcomes, latencies):
        unverified = ""
        try:
            expect = op.expect() if callable(op.expect) else op.expect
        except Exception as exc:  # the reference failed, not the op: check what is known
            expect = op.fallback
            unverified = f"exact reference raised {type(exc).__name__}: {exc}"
        verdict = check(expect, outcome)
        records.append({"label": op.label, "latency_s": latency, "ok": verdict.ok,
                        "reason": verdict.reason, "method": verdict.method,
                        "width": verdict.width, "unverified": unverified})

    print(json.dumps({
        "setup_done": setup_done, "probes_setup_s": probes_setup, "probes_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "ops": records, "layers": layer_metrics,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__,
                "ballmoduli": os.path.relpath(bm.__file__, os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__)))),
                "blas_threads": blas_threads()},
    }))


if __name__ == "__main__":
    main()
