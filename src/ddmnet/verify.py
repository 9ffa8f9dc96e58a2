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

from .blasthreads import numpy_blas_on_one_thread
from .centrality import path_oracle_pairs, rank_nodes
from .certainty import (
    ModelParams,
    _covariance_doubled,
    _covariance_step,
    _variance_walk,
    certainty_spectral,
    dispersion_summary,
    spectral_covariance,
)
from .config import DEFAULT_TOL
from .errors import DisconnectedGraphError, GraphValidationError, PathCapExceededError
from .graph import laplacian, laplacian_row_residual, mirror_graph
from .request import Request
from .simulate import (_advance_panel, _advance_steps, _draw_normals, _moments_error, _panel_operator,
                       _stream_generators)

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"

# the simulator check's one draw: rows, panels per row and steps per panel
PANEL_CHECK_TRAJECTORIES, PANEL_CHECK_PANELS, PANEL_CHECK_SPAN = 16, 2, 10
PANEL_CHECK_SEED = 1234


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


def _panel_vs_steps(lap: np.ndarray, params: ModelParams) -> tuple[str, str]:
    """Status and detail of the simulator's panel identity: S Euler-Maruyama
    steps from row states x equal x M^S + xi K + beta h S 1 (simulate.py).

    One draw of PANEL_CHECK_TRAJECTORIES rows, each PANEL_CHECK_PANELS panels of
    PANEL_CHECK_SPAN steps, goes through both advances: the panel helper's two
    products against `_panel_operator`, and the step helper's one product per
    step against M = (I - hL)^T. The batch is not a statistical sample: the
    check tests a linear identity, and every row meets every block of K and
    M^S. The second panel makes x M^S act on a nonzero state. Both run on one
    BLAS thread, so the detail's digits do not depend on the pool.

    M takes h ||L||_inf = 0.05, so it is the same matrix at every weight
    scale, and a wrong K shows as plainly on small weights as on large ones.
    L is first scaled by a power of two, which is exact and leaves the
    product h L as it was, so that h stays finite where ||L||_inf is
    subnormal. The drift and the noise take h at most 0.01: an h grown with
    1 / ||L||_inf would let the drift beta h outgrow the noise sigma sqrt(h),
    hide K's error below the gate, and overflow the states on small weights
    for a beta that is not too large.
    """
    n = lap.shape[0]
    norm_inf = float(np.abs(lap).sum(axis=1).max())
    exponent = math.frexp(norm_inf)[1]
    lap_unit = np.ldexp(lap, -exponent)  # ||lap_unit||_inf in [1/2, 1), or 0 without arcs
    step_matrix_t = (np.eye(n) - 0.05 / (math.ldexp(norm_inf, -exponent) or 1.0) * lap_unit).T
    h = 0.01 if norm_inf == 0.0 else min(0.01, 0.05 / norm_inf)
    span = PANEL_CHECK_SPAN
    drift, noise_scale = params.beta * h, params.sigma * math.sqrt(h)
    noise = np.empty((PANEL_CHECK_TRAJECTORIES, PANEL_CHECK_PANELS * span * n))
    _draw_normals(_stream_generators(PANEL_CHECK_SEED, 0, PANEL_CHECK_TRAJECTORIES), noise)
    x_panel = x_steps = np.zeros((PANEL_CHECK_TRAJECTORIES, n))
    with numpy_blas_on_one_thread(), np.errstate(over="ignore", invalid="ignore"):
        operator = _panel_operator(step_matrix_t, span, noise_scale)
        for col in range(0, noise.shape[1], span * n):
            panel = noise[:, col:col + span * n]
            # the step helper scales its panel in place, so it reads the draw second
            x_panel = _advance_panel(x_panel, panel, operator, drift, span)
            x_steps = _advance_steps(x_steps, panel, step_matrix_t, noise_scale, drift)
        gap = float(np.abs(x_panel - x_steps).max())
        scale = float(np.abs(x_steps).max())
    if not (math.isfinite(gap) and math.isfinite(scale)):
        raise _moments_error(params, PANEL_CHECK_PANELS * span * h, subject="states")
    ok = gap <= DEFAULT_TOL.panel_vs_steps_rtol * scale
    return (PASS if ok else FAIL,
            f"max |panel - steps| / max |x| = {gap / scale if scale else 0.0:.2e}; "
            f"{PANEL_CHECK_TRAJECTORIES} trajectories, {PANEL_CHECK_PANELS} panels of {span} steps")


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
        ok = sym_gap <= DEFAULT_TOL.mirror_symmetric_rtol * max(1.0, float(np.abs(lap).max()))
        record("mirror-symmetric-part", PASS if ok else FAIL, f"max deviation = {sym_gap:.2e}")
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
    record("row-stochastic-propagator", PASS if worst <= DEFAULT_TOL.row_stochastic_atol else FAIL,
           f"max |row sum - 1| = {worst:.2e}")

    # certainty routes
    if req.routes:
        spectral_report, group_report, centrality_report = req.routes
        record("spectral-route", PASS, "certainty computed from the eigenstructure")
        # the last pair comes from one Cholesky factor: it checks the bridge identity
        # 1/mu = (sigma^2 / 2) (1/kappa - K_f / n^2), not an independent route
        for name, a, b in (("route-spectral-vs-group-inverse", spectral_report, group_report),
                           ("route-spectral-vs-centrality", spectral_report, centrality_report),
                           ("bridge-identity-group-inverse-centrality", group_report, centrality_report)):
            gap = max(_rel_gap(x, y) for x, y in zip(a.inv_mu, b.inv_mu))
            record(name, PASS if gap <= DEFAULT_TOL.route_agreement_rtol else FAIL,
                   f"max per-node gap = {gap:.2e}")

        # ranking by certainty == ranking by information centrality
        same = rank_nodes(spectral_report.mu) == rank_nodes(req.harmonic)
        record("ranking-certainty-vs-info-centrality", PASS if same else FAIL)

        disp = dispersion_summary(spectral_report, req.info.kirchhoff_index)
        if g.is_undirected():
            scale = max(1.0, disp.total_dispersion)
            ok = disp.identity_residual <= DEFAULT_TOL.dispersion_identity_rtol * scale
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
                     "bridge-identity-group-inverse-centrality"):
            record(name, SKIP, "certainty routes need normal + strongly connected")
        record("ranking-certainty-vs-info-centrality", SKIP, "certainty undefined")
        record("dispersion-kirchhoff-identity", SKIP, "certainty undefined")

    # covariance: small-time isolation, envelope bounds, large-time plateau
    gap_small = float(np.abs(cov_small - t_small * np.eye(g.n)).max())
    record("covariance-small-time", PASS if gap_small <= DEFAULT_TOL.covariance_small_time_atol else FAIL,
           f"max |P - t I| (unit noise) = {gap_small:.2e} at t = {t_small}")

    if profile.strongly_connected:
        slack = DEFAULT_TOL.covariance_envelope_atol
        outside = [t for t, var in var_general.items()
                   if not np.all((var >= t / g.n - slack) & (var <= t + slack))]
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
        # against the unit-noise 1/mu: dividing the report's by sigma^2 loses every
        # digit where sigma^2 leaves the normal range
        unit_inv_mu = certainty_spectral(req.spectral, ModelParams()).inv_mu
        gap_late = float(np.abs(offset - np.asarray(unit_inv_mu)).max())
        ok = gap_late <= DEFAULT_TOL.covariance_plateau_rtol * max(1.0, t_late)
        record("covariance-large-time-plateau", PASS if ok else FAIL,
               f"max gap = {gap_late:.2e} at t = {t_late:.2f}")

        cov_normal = spectral_covariance(req.spectral, ModelParams(), 2.0)
        _, _, cov_general = _covariance_doubled(lap, e_half, p_half, 0.5, 2)
        gap_modes = float(np.abs(cov_normal - cov_general).max())
        record("covariance-normal-vs-integrated",
               PASS if gap_modes <= DEFAULT_TOL.covariance_cross_atol else FAIL, f"max gap = {gap_modes:.2e}")
    else:
        record("covariance-large-time-plateau", SKIP, "needs a normal, strongly connected graph")
        record("covariance-normal-vs-integrated", SKIP, "needs a normal, strongly connected graph")

    # simulator: the panel product against the step-by-step recurrence, on one draw
    record("simulation-panel-vs-steps", *_panel_vs_steps(lap, params))

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
        except (PathCapExceededError, GraphValidationError) as exc:  # too many paths, or too long
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
