"""Output checker: decides whether one benchmark op passed.

An op is one public ``ballmoduli`` call.  It passes only if

* every bracket it returns is finite and not inverted (lower <= upper);
* each bracket contains the op's known value (an exact rational value from
  ``ballmoduli.oracle`` or a closed form) and meets the op's admissible
  range, where the workload states one;
* a verification report has no failed check and carries the expected flags;
* a separating ball satisfies its three postconditions;
* an expected ``BallConstructionError`` is raised with the named condition,
  and nothing else is raised.

The module imports no part of ``ballmoduli`` so that the checker can be
tested against hand-made results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

# Slack for comparing a certified bracket with an exact or closed-form value.
# Inputs are floats converted from rationals, so values agree to ~1e-15.
VALUE_SLACK = 1e-9


@dataclass(frozen=True)
class Expect:
    """What a correct result of one op looks like.

    value:     exact or closed-form value every bracket must contain.
    lo, hi:    admissible range of the true value; every bracket must meet it.
    positive:  the true value is known to be > 0, so every upper end is.
    raises:    condition of the BallConstructionError the op must raise.
    report:    the result is a verification report: no check may fail...
    flags:     ...and it must carry these flags.
    ball:      (C, f, eps, norm) of a separating ball whose postconditions
               are re-verified with the space's norm function.
    """

    value: Optional[float] = None
    lo: float = -math.inf
    hi: float = math.inf
    positive: bool = False
    raises: Optional[str] = None
    report: bool = False
    flags: Optional[dict] = None
    ball: Optional[tuple] = None


@dataclass
class Outcome:
    """Result of running one op: its return value or the exception raised."""

    result: Any = None
    error: Optional[BaseException] = None


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    method: str = ""
    width: Optional[float] = None


def brackets_of(result) -> list:
    """The brackets an op returned: a bracket, or the values of a curve."""
    if hasattr(result, "lower") and hasattr(result, "upper"):
        return [result]
    values = getattr(result, "values", None)
    if isinstance(values, tuple) and values and all(hasattr(v, "lower") for v in values):
        return list(values)
    return []


def check(expect: Expect, outcome: Outcome) -> Verdict:
    """Judge one op's outcome against what the workload expects of it."""
    err = outcome.error
    if expect.raises is not None:
        if err is None:
            return Verdict(False, f"expected failure {expect.raises!r} did not raise")
        condition = getattr(err, "condition", None)
        if type(err).__name__ != "BallConstructionError" or condition != expect.raises:
            return Verdict(False, f"raised {type(err).__name__}({condition or err}) "
                                  f"instead of {expect.raises!r}")
        return Verdict(True, method=f"raises:{condition}")
    if err is not None:
        return Verdict(False, f"unexpected {type(err).__name__}: {err}")

    result = outcome.result
    if expect.report:
        return _check_report(expect, result)
    if expect.ball is not None:
        return _check_ball(expect, result)

    brackets = brackets_of(result)
    if not brackets:
        return Verdict(False, f"no bracket in result of type {type(result).__name__}")
    method = ",".join(sorted({str(getattr(b, "method", "?")) for b in brackets}))
    for b in brackets:
        lower, upper = float(b.lower), float(b.upper)
        if not (math.isfinite(lower) and math.isfinite(upper)):
            return Verdict(False, f"non-finite bracket [{lower}, {upper}]", method)
        if lower > upper:
            return Verdict(False, f"inverted bracket [{lower}, {upper}]", method)
        if expect.value is not None and not (
                lower - VALUE_SLACK <= expect.value <= upper + VALUE_SLACK):
            return Verdict(False, f"bracket [{lower!r}, {upper!r}] excludes the "
                                  f"known value {expect.value!r}", method)
        if lower > expect.hi + VALUE_SLACK or upper < expect.lo - VALUE_SLACK:
            return Verdict(False, f"bracket [{lower!r}, {upper!r}] misses the "
                                  f"admissible range [{expect.lo}, {expect.hi}]", method)
        if expect.positive and upper <= 0.0:
            return Verdict(False, f"bracket [{lower!r}, {upper!r}] excludes the "
                                  f"known positive value", method)
    width = sum(float(b.upper) - float(b.lower) for b in brackets)
    return Verdict(True, method=method, width=width)


def _check_report(expect: Expect, report) -> Verdict:
    n_fail = getattr(report, "n_fail", None)
    if n_fail is None:
        return Verdict(False, f"expected a verification report, got {type(report).__name__}")
    if n_fail:
        return Verdict(False, f"verification report has {n_fail} failed checks", "suite")
    flags = getattr(report, "flags", {}) or {}
    for key, want in (expect.flags or {}).items():
        if flags.get(key) != want:
            return Verdict(False, f"flag {key!r} is {flags.get(key)!r}, expected {want!r}",
                           "suite")
    return Verdict(True, method="suite")


def _check_ball(expect: Expect, ball) -> Verdict:
    """Re-verify the separating-ball postconditions from the returned ball."""
    C, f, eps, norm = expect.ball
    tol = 1e-6
    try:
        center = [float(c) for c in ball.center.coords]
        radius, K = float(ball.radius), float(ball.K)
    except AttributeError:
        return Verdict(False, f"expected a separating ball, got {type(ball).__name__}")
    for v in C:
        if norm([a - b for a, b in zip(v, center)]) > radius + tol:
            return Verdict(False, f"vertex {v} escapes the ball", "construction")
    inf_f = sum(a * b for a, b in zip(f, center)) - radius
    if inf_f < 0.5 * eps - tol:
        return Verdict(False, f"inf f over the ball is {inf_f} < eps/2", "construction")
    if radius > K + tol:
        return Verdict(False, f"radius {radius} exceeds K={K}", "construction")
    return Verdict(True, method="construction")
