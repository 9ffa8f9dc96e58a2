"""Output checks, run on every request outside the timed region.

Each check returns an empty string when the output is correct and a short
reason otherwise. The reference certainty comes from a grounded linear solve
written here, with no call into ddmnet or a linear-algebra library, so it is
independent of all three of the program's routes.
"""

from __future__ import annotations

import csv
import functools
import io
import json

import numpy as np

from workloads import CURVES_T_MAX, CURVES_T_STEP, Graph, Request

# z-score beyond which a Monte Carlo moment is treated as wrong rather than
# unlucky. simulate exits 1 when a mean passes 3 or a variance 4 standard
# errors, which a correct simulator does for about 0.3% of seeds per mean;
# 6 standard errors happen about once in 5e8.
SIMULATE_Z_LIMIT = 6.0


def gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix by in-place Gauss-Jordan
    elimination. Positive pivots need no pivoting; written out so that the
    reference calls no solver."""
    a = np.array(a, dtype=float)
    for k in range(a.shape[0]):
        pivot = a[k, k]
        a[k, k] = 1.0
        a[k] /= pivot
        factor = a[:, k].copy()
        factor[k] = 0.0
        a[:, k] = 0.0
        a[k, k] = 1.0 / pivot
        a -= np.outer(factor, a[k])
    return a


@functools.cache
def reference_x_diag(g: Graph) -> np.ndarray:
    """Diagonal of X, the group inverse of the mirror Laplacian, computed once per graph.

    Ground the last node and invert the reduced Laplacian: padded with a zero
    row and column this is a generalized inverse G of L, and X = P G P with
    P = I - 11^T / n, whose diagonal is G_kk - 2 (G 1)_k / n + 1^T G 1 / n^2.
    """
    lap = g.laplacian()
    lap = (lap + lap.T) / 2.0
    n = g.n
    grounded = np.zeros((n, n))
    grounded[:-1, :-1] = gauss_jordan_inverse(lap[:-1, :-1])
    row = grounded.sum(axis=1)
    return np.diag(grounded) - 2.0 * row / n + row.sum() / n**2


def reference_inv_mu(g: Graph, sigma: float) -> np.ndarray:
    """1/mu_k = (sigma^2 / 2) X_kk."""
    return sigma**2 / 2.0 * reference_x_diag(g)


def prepare(requests: list[Request]) -> None:
    """Compute every request's reference before timing starts."""
    for req in requests:
        if req.command in ("analyze", "centrality"):
            reference_x_diag(req.graph)


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float((np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))).max())


def check_analyze(req: Request, report: dict, tol) -> str:
    routes = {}
    for name in ("spectral", "group-inverse", "info-centrality"):
        entry = report["routes"][name]
        if not entry["applicable"]:
            return f"route {name} not applicable: {entry.get('reason')}"
        routes[name] = np.array([row["inv_mu"] for row in entry["rows"]])
    reference = reference_inv_mu(req.graph, req.sigma)
    for name, inv_mu in routes.items():
        gap = _rel_gap(inv_mu, routes["spectral"])
        if gap > tol.route_agreement_rtol:
            return f"routes spectral and {name} differ by {gap:.2e}"
        gap = _rel_gap(inv_mu, reference)
        if gap > tol.route_agreement_rtol:
            return f"route {name} differs from the grounded-solve reference by {gap:.2e}"
    return ""


def check_centrality(req: Request, report: dict, tol) -> str:
    inv_mu = reference_inv_mu(req.graph, 1.0)
    certainty_ranking = sorted(range(1, req.graph.n + 1), key=lambda k: (inv_mu[k - 1], k))
    if report["centrality"]["ranking"] != certainty_ranking:
        return "information-centrality ranking differs from the certainty ranking"
    return ""


def check_verify(req: Request, report: dict, tol) -> str:
    failed = [c["name"] for c in report["checks"] if c["status"] == "FAIL"]
    return f"checks failed: {', '.join(failed)}" if failed else ""


def check_family(req: Request, report: dict, tol) -> str:
    cross = report["cross_check"]
    if "inv_mu_spectral_gap" in cross:
        scale = max([1.0] + [abs(v) for v in report["closed_form"]["inv_mu"]])
        if cross["inv_mu_spectral_gap"] > tol.route_agreement_rtol * scale:
            return f"closed-form vs spectral 1/mu gap {cross['inv_mu_spectral_gap']:.2e}"
    for t, gap in cross["covariance_integration_gap"].items():
        if gap > tol.covariance_cross_atol:
            return f"closed-form vs integrated covariance gap {gap:.2e} at t = {t}"
    return ""


def check_curves(req: Request, text: str, tol) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    n = req.graph.n
    times = np.arange(0.0, CURVES_T_MAX + 1e-12, CURVES_T_STEP)
    if len(rows) != times.size + 1 or len(rows[0]) != n + 3:
        return f"curves table is {len(rows)} x {len(rows[0]) if rows else 0}"
    values = np.array(rows[1:], dtype=float)
    if not np.allclose(values[:, 0], times, rtol=0.0, atol=1e-12):
        return "curves time column is off the grid"
    lower = req.sigma**2 * times / n
    upper = req.sigma**2 * times
    if not (np.allclose(values[:, n + 1], lower, rtol=1e-12, atol=0.0)
            and np.allclose(values[:, n + 2], upper, rtol=1e-12, atol=0.0)):
        return "curves envelope columns differ from sigma^2 t / n and sigma^2 t"
    slack = 1e-9 * np.maximum(1.0, upper)
    var = values[:, 1:n + 1]
    if np.any(var < (lower - slack)[:, None]) or np.any(var > (upper + slack)[:, None]):
        return "a variance curve leaves the envelope [sigma^2 t / n, sigma^2 t]"
    return ""


def check_simulate(req: Request, report: dict, tol) -> str:
    for m in report["moments"]:
        z = np.abs(np.array(m["z_mean"] + m["z_variance"], dtype=float))
        if not np.all(z <= SIMULATE_Z_LIMIT):
            return f"moment z-score {z.max():.2f} at t = {m['t']} beyond {SIMULATE_Z_LIMIT}"
    return ""


CHECKS = {"analyze": check_analyze, "centrality": check_centrality, "verify": check_verify,
          "family": check_family, "simulate": check_simulate}


def check(req: Request, code: int, stdout: str, tol) -> str:
    """Empty string if the request's exit code and output are right, else why not."""
    allowed = (0, 1) if req.command == "simulate" else (0,)
    if code not in allowed:
        return f"exit code {code}"
    try:
        if req.command == "curves":
            return check_curves(req, stdout, tol)
        return CHECKS[req.command](req, json.loads(stdout), tol)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
