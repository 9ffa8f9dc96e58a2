"""Centralized numerical tolerances.

Every module reads the thresholds used by validation, route cross-checks and
report generation from the one `DEFAULT_TOL` record, where it needs them, so
they can be audited in one place. No function takes a per-call override.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # ||L L^T - L^T L||_F <= normality_rtol * max(1, ||L||_F^2)
    normality_rtol: float = 1e-10
    # per-node |out_degree - in_degree| <= balance_rtol * max(1, degree scale)
    balance_rtol: float = 1e-10
    # max deviation of U^T U from the identity
    unitary_atol: float = 1e-10
    # ||L u - lambda u|| <= eigen_residual_rtol * ||L||
    eigen_residual_rtol: float = 1e-9
    # group-inverse axioms, relative to the matrix scale
    group_inverse_rtol: float = 1e-9
    # agreement between certainty routes (per node, relative)
    route_agreement_rtol: float = 1e-9
    # eigenmode or closed-form covariance vs the general-route propagator (max-norm)
    covariance_cross_atol: float = 1e-6
    # path-enumeration oracle vs matrix information
    oracle_agreement_atol: float = 1e-6
    # scores are rounded to this many decimals before ranking, so that
    # exact mathematical ties perturbed by float noise break identically
    # across different computation routes
    rank_decimals: int = 9


DEFAULT_TOL = Tolerances()
