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
    # verify: mirror Laplacian vs the symmetric part (L + L^T) / 2, relative to max |L|
    mirror_symmetric_rtol: float = 1e-12
    # verify: row sums of Phi^k - I for the unit-noise propagator
    row_stochastic_atol: float = 1e-9
    # verify: dispersion-Kirchhoff residual, relative to the total dispersion
    dispersion_identity_rtol: float = 1e-9
    # verify: unit-noise |P(t) - t I| at t = 1e-6
    covariance_small_time_atol: float = 1e-9
    # verify: slack of the unit-noise variance envelope [t / n, t]
    covariance_envelope_atol: float = 1e-9
    # verify: large-time plateau gap, relative to max(1, t)
    covariance_plateau_rtol: float = 1e-9
    # verify: simulator panel product vs step-by-step states, relative to max |x|
    panel_vs_steps_rtol: float = 1e-12
    # scores are rounded to this many decimals before ranking, so that
    # exact mathematical ties perturbed by float noise break identically
    # across different computation routes
    rank_decimals: int = 9


DEFAULT_TOL = Tolerances()
