"""Evaluation budgets."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Budget:
    """Evaluation budget for certified searches.

    resolution: target ambient-norm covering radius of the search grids.
        None lets each operation pick its documented default.
    max_evals: hard cap on objective evaluations; exceeding it raises
        BudgetError instead of silently degrading the certificate.
    seed: seed for the sampled (non-certified) search components.  In
        dimensions 2 and 3 ``lowdisc_sphere`` ignores it, so no 2-D or 3-D
        bracket depends on it; it is recorded in the brackets all the same.
    """

    resolution: float | None = None
    max_evals: int = 50_000_000
    seed: int = 0

    def with_resolution(self, resolution: float) -> "Budget":
        return replace(self, resolution=resolution)


DEFAULT_BUDGET = Budget()


def resolve(budget: Budget | None) -> Budget:
    return budget if budget is not None else DEFAULT_BUDGET
