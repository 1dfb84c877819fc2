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
    """

    resolution: float | None = None
    max_evals: int = 50_000_000

    def with_resolution(self, resolution: float) -> "Budget":
        return replace(self, resolution=resolution)


DEFAULT_BUDGET = Budget()


def resolve(budget: Budget | None) -> Budget:
    return budget if budget is not None else DEFAULT_BUDGET
