"""A speed probe: a fixed load that tracks how fast the machine runs right now.

A shared host's speed drifts: on a 2-core VM the same numpy/Python loop took
8.6 ms and 11.2 ms per call within one minute, with process CPU time drifting
as much as wall time.  Runs of the benchmark made minutes apart then differ
by more than the benchmark's bounds.  The worker therefore runs ``probe()``
right after set-up, before every op and after the last one, and ``run.py``
scales each op's latency by ``NOMINAL_S`` over the mean time of the two
probes around it, and the set-up time by ``NOMINAL_S`` over the median of
the set-up probes.  The reported times are thus milliseconds at a fixed
probe speed: a slower program still reads slower, a slower machine does
not.  The raw times are kept in the run's record under ``perfbench/out/``.

The probe uses neither ``ballmoduli`` nor anything it sets up, so no change to
the program can move it.  It mixes what the workloads spend their time on:
interpreter loops and numpy calls on arrays of 16 to 32768 points.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
# (points, repeats): call overhead dominates on 16 points, arithmetic on
# 4096, memory traffic and fresh allocations on 32768
_LOADS = ((_RNG.random((16, 2)), 150), (_RNG.random((4096, 2)), 8),
          (_RNG.random((1 << 15, 2)), 1))

# about the time of probe() on the 2-core VM that defined the benchmark; it
# only fixes the scale of the reported times
NOMINAL_S = 4.0e-3
SETUP_PROBES = 5  # run right after set-up, to scale setup_s


def probe() -> float:
    """Time one run of the fixed load, in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(8000):
        acc += (i % 7) * 0.5
    for points, repeats in _LOADS:
        for _ in range(repeats):
            n = np.sqrt((points * points).sum(axis=1))
            acc += float(np.maximum(n, 0.5).min())
    return time.perf_counter() - t0


def op_scales(probes_s: list[float]) -> list[float]:
    """Scale of each op's latency, from the n + 1 probes around n ops."""
    return [2.0 * NOMINAL_S / (a + b) for a, b in zip(probes_s, probes_s[1:])]


def setup_scale(probes_setup_s: list[float]) -> float:
    return NOMINAL_S / statistics.median(probes_setup_s)
