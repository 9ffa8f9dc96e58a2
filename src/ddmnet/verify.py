"""Cross-validation suite: every analytic identity the toolkit relies on,
checked on one concrete graph.

Each check returns PASS, FAIL or SKIP (with the reason a route does not
apply to the given graph); the CLI `verify` subcommand turns any FAIL into
a nonzero exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centrality import path_oracle_pairs, rank_nodes
from .certainty import (
    ModelParams,
    _covariance_doubled,
    _covariance_step,
    _variance_walk,
    dispersion_summary,
    spectral_covariance,
)
from .config import DEFAULT_TOL
from .errors import DisconnectedGraphError, PathCapExceededError
from .graph import laplacian, laplacian_row_residual, mirror_graph
from .request import Request
from .simulate import SimConfig, simulate_ensemble

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""


def _rel_gap(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b):
        return 0.0
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _row_sum_deviations(e: np.ndarray, k_max: int) -> np.ndarray:
    """Row sums of Phi^k - I for k = 1 .. k_max, shape (k_max, n), from E = Phi - I.

    With d_k = (Phi^k - I) 1, d_{k + 1} = d_k + E (1 + d_k): one matrix-vector
    product per power.
    """
    out = np.empty((k_max, e.shape[0]))
    d = np.zeros(e.shape[0])
    for row in out:
        d = d + e @ (1.0 + d)
        row[:] = d
    return out


def run_checks(req: Request, oracle_cap: int = 8) -> list[CheckResult]:
    """Run the full invariant suite against the graph and parameters of `req`,
    sharing its stages with the caller. The path oracle runs when
    1 < n <= `oracle_cap`.

    The covariance checks read unit-noise quantities, so their statuses do not
    depend on sigma: the full P(1e-6) from its own Van Loan step; the
    variances at t = 0.5, 2 and 5 from one `_variance_walk` of the t = 0.5
    step pair; and, on normal graphs, the full P(2) and the large-time plateau
    from doublings of that pair. The row sums of Phi^4 and Phi^10 come from
    matrix-vector products with E (`_row_sum_deviations`).
    """
    g, params = req.g, req.params
    lap, profile, mirror = req.lap, req.profile, req.mirror
    results: list[CheckResult] = []

    def record(name: str, status: str, detail: str = "") -> None:
        results.append(CheckResult(name=name, status=status, detail=detail))

    # Laplacian row sums vanish bit-exactly by construction
    row_sums = float(np.abs(laplacian_row_residual(lap)).max())
    record("laplacian-row-sums", PASS if row_sums == 0.0 else FAIL, f"max |row sum| = {row_sums:.2e}")

    # mirror Laplacian equals the symmetric part of the original (balanced only). The
    # mirror is built afresh from the request's: on a graph that is its own mirror,
    # req.lap_mirror is lap itself, and the check would compare lap with itself
    twice = mirror_graph(mirror)
    if profile.balanced:
        sym_gap = float(np.abs(laplacian(twice) - (lap + lap.T) / 2.0).max())
        record("mirror-symmetric-part",
               PASS if sym_gap <= 1e-12 * max(1.0, float(np.abs(lap).max())) else FAIL,
               f"max deviation = {sym_gap:.2e}")
    else:
        record("mirror-symmetric-part", SKIP, "identity holds for balanced digraphs only")
    record("mirror-idempotent", PASS if twice == mirror else FAIL)

    if profile.normal_laplacian and not profile.balanced:
        record("normal-implies-balanced", FAIL, "normal Laplacian but unbalanced degrees")
    else:
        record("normal-implies-balanced", PASS)

    # exact unit-noise pairs (E = Phi - I, P): t = 1e-6 alone, and one variance walk with
    # step 0.5 for t = 0.5, 2, 5. sigma^2 only scales P, so the covariance checks compare P itself.
    t_small = 1e-6
    e_small, cov_small = _covariance_step(lap, t_small)
    e_half, p_half = _covariance_step(lap, 0.5)
    var_walk = _variance_walk(lap, e_half, p_half, 0.5, 10)
    var_general = {0.5 * i: var_walk[i - 1] for i in (1, 4, 10)}

    # propagator of the dynamics is row-stochastic at every horizon: E's rows sum to 0,
    # and so do those of Phi^4 - I and Phi^10 - I
    worst = max(float(np.abs(e_small.sum(axis=1)).max()),
                float(np.abs(_row_sum_deviations(e_half, 10)[[0, 3, 9]]).max()))
    record("row-stochastic-propagator", PASS if worst <= 1e-9 else FAIL, f"max |row sum - 1| = {worst:.2e}")

    # certainty routes
    if req.routes:
        spectral_report, group_report, centrality_report = req.routes
        record("spectral-route", PASS, "certainty computed from the eigenstructure")
        # the last pair comes from one factorization: it checks the bridge formula
        # 1/mu = (sigma^2 / 2) (1/kappa - K_f / n^2), not an independent route
        for name, a, b in (("route-spectral-vs-group-inverse", spectral_report, group_report),
                           ("route-spectral-vs-centrality", spectral_report, centrality_report),
                           ("route-group-inverse-vs-centrality", group_report, centrality_report)):
            gap = max(_rel_gap(x, y) for x, y in zip(a.inv_mu, b.inv_mu))
            record(name, PASS if gap <= DEFAULT_TOL.route_agreement_rtol else FAIL,
                   f"max per-node gap = {gap:.2e}")

        # ranking by certainty == ranking by information centrality
        same = rank_nodes(spectral_report.mu) == rank_nodes(req.harmonic)
        record("ranking-certainty-vs-info-centrality", PASS if same else FAIL)

        disp = dispersion_summary(spectral_report, req.info.kirchhoff_index)
        if g.is_undirected():
            ok = disp.identity_residual <= 1e-9 * max(1.0, disp.total_dispersion)
            record("dispersion-kirchhoff-identity", PASS if ok else FAIL,
                   f"residual = {disp.identity_residual:.2e}")
        else:
            record("dispersion-kirchhoff-identity", SKIP,
                   "identity asserted for undirected graphs only; "
                   f"residual = {disp.identity_residual:.2e}")
    else:
        why = "Laplacian not normal" if not profile.normal_laplacian else "not strongly connected"
        record("spectral-route", SKIP, f"{why}; certainty index undefined for this graph")
        for name in ("route-spectral-vs-group-inverse", "route-spectral-vs-centrality",
                     "route-group-inverse-vs-centrality"):
            record(name, SKIP, "certainty routes need normal + strongly connected")
        record("ranking-certainty-vs-info-centrality", SKIP, "certainty undefined")
        record("dispersion-kirchhoff-identity", SKIP, "certainty undefined")

    # covariance: small-time isolation, envelope bounds, large-time plateau
    gap_small = float(np.abs(cov_small - t_small * np.eye(g.n)).max())
    record("covariance-small-time", PASS if gap_small <= 1e-9 else FAIL,
           f"max |P - t I| (unit noise) = {gap_small:.2e} at t = {t_small}")

    if profile.strongly_connected:
        outside = [t for t, var in var_general.items()
                   if not np.all((var >= t / g.n - 1e-9) & (var <= t + 1e-9))]
        record("covariance-envelope-bounds", FAIL if outside else PASS,
               f"unit-noise variance outside [t / n, t] at t = {outside[0]}" if outside else "")
    else:
        record("covariance-envelope-bounds", SKIP, "lower bound needs strong connectivity")

    if req.routes and g.n > 1:
        # the propagator's step pair at t = 0.5, doubled to t = 0.5 * 2^k >= 12 / rate,
        # where e^{-2 rate t} < 4e-11: the transient is below tolerance
        rate = float(req.spectral.eigenvalues[1:].min())
        k = max(0, math.ceil(math.log2(24.0) - math.log2(rate)))
        t_late, _, p_late = _covariance_doubled(lap, e_half, p_half, 0.5, k)
        offset = np.diag(p_late) - t_late / g.n
        gap_late = float(np.abs(offset - np.asarray(spectral_report.inv_mu) / params.sigma**2).max())
        record("covariance-large-time-plateau", PASS if gap_late <= 1e-9 * max(1.0, t_late) else FAIL,
               f"max gap = {gap_late:.2e} at t = {t_late:.2f}")

        cov_normal = spectral_covariance(req.spectral, ModelParams(), 2.0)
        _, _, cov_general = _covariance_doubled(lap, e_half, p_half, 0.5, 2)
        gap_modes = float(np.abs(cov_normal - cov_general).max())
        record("covariance-normal-vs-integrated",
               PASS if gap_modes <= DEFAULT_TOL.covariance_cross_atol else FAIL, f"max gap = {gap_modes:.2e}")
    else:
        record("covariance-large-time-plateau", SKIP, "needs a normal, strongly connected graph")
        record("covariance-normal-vs-integrated", SKIP, "needs a normal, strongly connected graph")

    # simulator: identical moment sums on a repeated fixed-seed run
    norm_inf = float(np.abs(lap).sum(axis=1).max())
    h = 0.01 if norm_inf == 0.0 else min(0.01, 0.05 / norm_inf)
    sim_cfg = SimConfig(params=params, t_max=20 * h, step=h, trajectories=64, seed=1234,
                        sample_times=(20 * h,))
    first = simulate_ensemble(g, sim_cfg)
    second = simulate_ensemble(g, sim_cfg)
    identical = (np.array_equal(first.sums, second.sums)
                 and np.array_equal(first.outers, second.outers))
    record("simulation-determinism", PASS if identical else FAIL,
           f"{sim_cfg.trajectories} trajectories, {sim_cfg.total_steps} steps, repeated run")

    # path-enumeration oracle vs matrix information on the mirror
    if g.n <= 1:
        record("path-oracle-vs-matrix-information", SKIP, "single node")
    elif g.n > oracle_cap:
        record("path-oracle-vs-matrix-information", SKIP,
               f"n = {g.n} exceeds the oracle cap {oracle_cap}")
    else:
        try:
            entries = path_oracle_pairs(mirror, req.info)
        except DisconnectedGraphError:
            record("path-oracle-vs-matrix-information", SKIP,
                   "mirror graph is disconnected; pairwise information is undefined")
        except PathCapExceededError as exc:
            record("path-oracle-vs-matrix-information", SKIP, str(exc))
        else:
            atol = DEFAULT_TOL.oracle_agreement_atol
            worst_pair = max(0.0, *(abs(e["information_paths"] - e["information_matrix"]) for e in entries))
            deviating = [e["pair"] for e in entries
                         if e["information_paths_orientation_blind"] is None
                         or abs(e["information_paths_orientation_blind"] - e["information_paths"]) > atol]
            detail = f"max |oracle - matrix| = {worst_pair:.2e}"
            if deviating:
                pairs = ", ".join(f"({k},{j})" for k, j in deviating)
                detail += (f"; orientation-blind path combination deviates on pairs {pairs}"
                           " (reported, not a failure)")
            record("path-oracle-vs-matrix-information", PASS if worst_pair <= atol else FAIL, detail)

    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.status != FAIL for r in results)
