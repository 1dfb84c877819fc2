"""Stability of the beta modulus under lp-sums.

Aggregates component beta curves into a floor beta_0, builds the witness
functional for a dual vector of the sum, and evaluates the derived
threshold and lower-bound formulas.  Only valid lower bounds are ever
used, so the derived sum bound is itself a valid lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bracket import ModulusCurve
from .errors import DomainError
from .spaces import Point, SpaceDescriptor, polar_space, _support_array, _unit_coords


def delta_q_lower(q: float, eps: float) -> float:
    """Valid lower bound for the modulus of convexity of an lq norm.

    Exact closed form 1 - (1 - (eps/2)^q)^(1/q) for q >= 2; the
    conservative quadratic bound (q - 1) eps^2 / 8 for 1 < q < 2.
    """
    if not (1.0 < q < math.inf):
        raise DomainError(f"delta_q needs 1 < q < inf, got {q}")
    if not (0.0 < eps <= 2.0):
        raise DomainError(f"delta_q needs 0 < eps <= 2, got {eps}")
    if q >= 2.0:
        return 1.0 - (1.0 - (eps / 2.0) ** q) ** (1.0 / q)
    return (q - 1.0) * eps * eps / 8.0


@dataclass(frozen=True)
class ComponentModuli:
    """Per-component beta curves and their pointwise floor beta_0."""

    curves: tuple[ModulusCurve, ...]

    def __post_init__(self):
        if not self.curves:
            raise DomainError("at least one component curve is required")
        for c in self.curves:
            if c.kind != "beta":
                raise DomainError("component curves must have kind 'beta'")

    def floor(self, t: float) -> float:
        """beta_0(t): a valid lower bound for inf over components of beta_i(t).

        Uses each curve's certified lower bounds; beta is nondecreasing in
        t, so the lower bound at the largest grid point <= t applies at t.
        Returns 0 when a curve has no grid point at or below t.
        """
        out = math.inf
        for c in self.curves:
            best = 0.0
            for tg, b in zip(c.t_grid, c.values):
                if tg <= t + 1e-12:
                    best = max(best, b.lower)
            out = min(out, best)
        return max(out, 0.0)


def witness_functional(sum_space: SpaceDescriptor, f) -> Point:
    """The unit vector z with blocks ||f_i||^(q/p) x_i, where x_i norms the
    i-th block direction of the unit functional f: the duality preimage of
    f in the sum."""
    if sum_space.kind != "lp-sum":
        raise DomainError("witness_functional requires an lp-sum space")
    fa = _unit_coords(sum_space, f, "dual", "f")
    return Point.of(sum_space, _support_array(polar_space(sum_space), fa))


def sum_slice_threshold_case1(q: float, t: float, beta0: ComponentModuli) -> float:
    """Threshold tau = 1 - (3t/8)^q * beta_0(t/4) for the blockwise-equal-norm
    slice contract of the sum's dual ball."""
    if not (0.0 < t < 1.0):
        raise DomainError(f"threshold needs 0 < t < 1, got {t}")
    if not (1.0 < q < math.inf):
        raise DomainError(f"threshold needs 1 < q < inf, got {q}")
    return 1.0 - (3.0 * t / 8.0) ** q * beta0.floor(t / 4.0)


def alpha_star(q: float, t: float, beta0: ComponentModuli) -> float:
    """The largest alpha in (0, t/2) with delta_q(alpha/2) + alpha below
    (3t/16) beta_0(t/8) (strictness margin 1e-12), by bisection; 0 when no
    alpha is feasible."""
    target = (3.0 * t / 16.0) * beta0.floor(t / 8.0) - 1e-12

    def feasible(alpha: float) -> bool:
        return delta_q_lower(q, alpha / 2.0) + alpha < target

    hi = t / 2.0 * (1.0 - 1e-12)
    lo = hi * 1e-9
    if target <= 0.0 or not feasible(lo):
        return 0.0
    # the left side is continuous and strictly increasing in alpha
    if feasible(hi):
        return hi
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if feasible(mid):
            a = mid
        else:
            b = mid
    return a


def sum_beta_lower_bound(p: float, q: float, t: float,
                         beta0: ComponentModuli) -> float:
    """Derived lower bound for the beta modulus of the lp-sum at t.

    Returns delta_q(alpha*/2) with alpha* from ``alpha_star``; 0 when no
    alpha is feasible.
    """
    if not (0.0 < t < 1.0):
        raise DomainError(f"bound needs 0 < t < 1, got {t}")
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-9:
        raise DomainError("p and q must be conjugate exponents")
    a = alpha_star(q, t, beta0)
    if a <= 0.0:
        return 0.0
    return delta_q_lower(q, a / 2.0)
