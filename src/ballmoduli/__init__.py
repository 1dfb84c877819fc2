"""Certified geometric moduli of finite-dimensional normed spaces.

Computes convexity, denting, and ball-intersection moduli of unit balls
with certified interval brackets, an independent brute-force/exact
oracle, property-verification suites, and a CLI front end.
"""

from .bracket import (CURVE_CSV_COLUMNS, EXACT, GRID, MULTISTART, Bracket,
                      ModulusCurve)
from .beta import beta_global, beta_point, beta_sup, is_euclidean
from .config import DEFAULT_BUDGET, Budget
from .denting import (d_global, d_point, d_star, d_star_global, d_star_zero,
                      d_star_zero_global, modulus_convexity, s_point, s_star)
from .errors import (BallConstructionError, BallModuliError, BudgetError,
                     DescriptorError, DimensionMismatchError, DomainError)
from .lpsum import (ComponentModuli, alpha_star, delta_q_lower,
                    sum_beta_lower_bound, sum_slice_threshold_case1,
                    witness_functional)
from .presets import list_presets, preset
from .slices import (SeparatingBall, Slice, construct_separating_ball,
                     f_eps_radius, slice_diameter)
from .spaces import (Point, SpaceDescriptor, cross_polytope, dual_norm,
                     duality_preimage, hypercube, lp_space, make_lp_sum,
                     norm, pairing, polar_space, polyhedral_space,
                     support_functional, weighted_lp_space)
from .verify import (Check, VerificationReport, list_suites,
                     run_oracle_battery, run_suite)

__version__ = "0.1.0"

__all__ = [
    "Bracket", "ModulusCurve", "GRID", "MULTISTART", "EXACT",
    "CURVE_CSV_COLUMNS",
    "Budget", "DEFAULT_BUDGET",
    "BallModuliError", "DimensionMismatchError", "DomainError",
    "DescriptorError", "BudgetError", "BallConstructionError",
    "SpaceDescriptor", "Point", "norm", "dual_norm", "pairing",
    "polar_space", "support_functional", "duality_preimage",
    "lp_space", "weighted_lp_space", "polyhedral_space", "make_lp_sum",
    "cross_polytope", "hypercube",
    "modulus_convexity", "s_point", "d_point", "d_global",
    "s_star", "d_star", "d_star_global", "d_star_zero", "d_star_zero_global",
    "beta_point", "beta_sup", "beta_global", "is_euclidean",
    "Slice", "SeparatingBall", "slice_diameter", "f_eps_radius",
    "construct_separating_ball",
    "ComponentModuli", "delta_q_lower", "alpha_star",
    "sum_slice_threshold_case1", "sum_beta_lower_bound", "witness_functional",
    "preset", "list_presets",
    "Check", "VerificationReport", "run_suite", "list_suites",
    "run_oracle_battery",
]
