"""Certified intervals and sampled modulus curves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

GRID = "grid-certified"
MULTISTART = "multistart"
EXACT = "exact"


@dataclass(frozen=True)
class Bracket:
    """Interval [lower, upper] guaranteed (per ``method``) to contain a value.

    grid-certified and exact brackets are rigorous; multistart brackets are
    best-effort and flagged as such by the method tag.
    """

    lower: float
    upper: float
    method: str = GRID
    resolution: float = 0.0
    lipschitz: Optional[float] = None

    def __post_init__(self):
        if not self.lower <= self.upper + 1e-15:
            raise ValueError(f"bracket lower {self.lower} exceeds upper {self.upper}")
        if self.method == GRID and self.lipschitz is None:
            raise ValueError("grid-certified brackets must record the Lipschitz constant")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack

    def overlaps(self, other: "Bracket") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    def to_json(self) -> dict:
        d = {"lower": self.lower, "upper": self.upper,
             "method": self.method, "resolution": self.resolution}
        if self.lipschitz is not None:
            d["lipschitz"] = self.lipschitz
        return d

    @staticmethod
    def exact(value: float) -> "Bracket":
        return Bracket(lower=value, upper=value, method=EXACT, resolution=0.0, lipschitz=0.0)


@dataclass(frozen=True)
class ModulusCurve:
    kind: str  # delta | d | d_star | d_star_zero | beta
    t_grid: tuple[float, ...]
    values: tuple[Bracket, ...]

    def __post_init__(self):
        if len(self.t_grid) != len(self.values):
            raise ValueError("t grid and value list must have equal length")
        if any(b >= a for a, b in zip(self.t_grid[1:], self.t_grid)):
            raise ValueError("t grid must be strictly increasing")
        hi = 1.0 if self.kind == "beta" else 2.0
        if any(not (0.0 < t < hi) for t in self.t_grid):
            raise ValueError(f"t grid must lie in (0, {hi}) for kind {self.kind}")

    def rows(self) -> list[dict]:
        out = []
        for t, b in zip(self.t_grid, self.values):
            row = {"kind": self.kind, "t": t}
            row.update(b.to_json())
            out.append(row)
        return out

    def is_monotone(self) -> bool:
        """Midpoints nondecreasing up to the combined bracket widths."""
        for b1, b2 in zip(self.values, self.values[1:]):
            if b2.midpoint < b1.midpoint - (b1.width + b2.width) - 1e-12:
                return False
        return True


CURVE_CSV_COLUMNS = ["kind", "t", "lower", "upper", "method", "resolution"]
