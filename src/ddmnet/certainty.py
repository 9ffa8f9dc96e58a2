"""Node certainty via the Laplacian eigenstructure and the mirror group inverse.

Each node of a coupled drift-diffusion network accumulates evidence with
variance at least sigma^2 t / n; the certainty index mu of a node is the
inverse of the asymptotic excess of its variance over that floor:

    1 / mu_k = sum_{p >= 2} sigma^2 |u_k^(p)|^2 / (2 Re lambda_p)

over the nonzero Laplacian eigenpairs. The same quantity equals
(sigma^2 / 2) times the corresponding diagonal entry of the group inverse of
the mirror graph's Laplacian, the second, independently computed route:
`certainty_group_inverse` reads X off the Cholesky solve basis of
`centrality.information_matrix`, and shares no factorization with the
spectral route's `spectral_decompose`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import DdmnetError, GraphValidationError, NotNormalError, NotStronglyConnectedError
from .graph import normality, strongly_connected, weight_range

INFINITE_CERTAINTY = math.inf


@dataclass(frozen=True)
class ModelParams:
    """Drift rate and diffusion standard deviation of every unit."""

    beta: float = 1.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if math.isinf(self.sigma * self.sigma):  # every route scales by sigma**2
            raise ValueError(f"sigma^2 overflows double precision: sigma must be at most "
                             f"{math.sqrt(sys.float_info.max):.6g}, got {self.sigma}")


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Orthonormal eigendecomposition of the symmetric part (L + L^T) / 2 of a
    normal Laplacian L, zero mode first.

    L commutes with L^T, so L = U Lambda U^* gives (L + L^T) / 2 = U (Re Lambda) U^*:
    eigenvalues are Re lambda_p, and L's modes span each eigenspace.
    eigenvalues[0] == 0 with eigenvector (1/sqrt(n)) * ones; the remaining
    eigenvalues are strictly positive for strongly connected graphs.
    """

    eigenvalues: np.ndarray  # real, shape (n,)
    vectors: np.ndarray  # real orthogonal, shape (n, n), columns are eigenvectors

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class CertaintyReport:
    """Per-node certainty, the route that produced it, and dispersion summaries.

    inv_mu[k] == 0 encodes infinite certainty (mu[k] == math.inf).
    """

    mu: tuple[float, ...]
    inv_mu: tuple[float, ...]
    route: str
    kirchhoff_index: float
    total_dispersion: float
    sigma: float

    def to_rows(self) -> list[dict]:
        """Rows for CSV/JSON serialization; infinite mu serializes as None."""
        return [
            {
                "node": k + 1,
                "mu": None if math.isinf(self.mu[k]) else self.mu[k],
                "inv_mu": self.inv_mu[k],
                "route": self.route,
            }
            for k in range(len(self.mu))
        ]


def _report_from_inv_mu(inv_mu: np.ndarray, route: str, kirchhoff: float, sigma: float) -> CertaintyReport:
    """The report of a route. Raises DdmnetError naming the edge weights where the
    Kirchhoff index overflows, and naming sigma where 1/mu or their sum overflows:
    the sum is sigma^2 K_f / (2n), finite at sigma = 1 wherever K_f is."""
    inv = tuple(float(v) for v in inv_mu)
    total = float(sum(inv))
    if not math.isfinite(kirchhoff):
        raise DdmnetError(f"the {route} Kirchhoff index overflows double precision: "
                          "the edge weights are too small for this graph")
    if not math.isfinite(total):
        raise DdmnetError(f"the {route} certainty overflows double precision: "
                          f"sigma = {sigma:.6g} is too large for this graph")
    return CertaintyReport(
        mu=tuple(INFINITE_CERTAINTY if v == 0.0 else 1.0 / v for v in inv),
        inv_mu=inv,
        route=route,
        kirchhoff_index=float(kirchhoff),
        total_dispersion=total,
        sigma=float(sigma),
    )


def spectral_decompose(lap: np.ndarray) -> SpectralData:
    """`SpectralData` of a normal, strongly connected Laplacian: one real
    symmetric eigensolver on (L + L^T) / 2. The zero mode is moved to
    position 0 and its eigenvector pinned to (1/sqrt(n)) * ones.

    Raises NotNormalError / NotStronglyConnectedError when the premises fail,
    and GraphValidationError where the normality test overflows.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if n == 0 or lap.shape != (n, n):
        raise GraphValidationError(f"Laplacian must be a non-empty square matrix, got shape {lap.shape}")
    residual, normal = normality(lap)
    if not normal:
        raise NotNormalError(f"Laplacian is not normal: commutator residual {residual:.3e}")
    off = lap.copy()
    np.fill_diagonal(off, 0.0)
    bad = np.argwhere(~(np.isfinite(off) & (off <= 0.0)))
    if bad.size:
        k, j = bad[0]
        raise GraphValidationError(f"matrix is not a valid Laplacian: edge ({k + 1}, {j + 1}): "
                                   f"weight must be finite and > 0, got {-float(lap[k, j])}")
    if not strongly_connected(n, *np.nonzero(off)):
        raise NotStronglyConnectedError("graph is not strongly connected")
    return _eigensystem(lap)


def _eigensystem(lap: np.ndarray) -> SpectralData:
    """spectral_decompose on a Laplacian known to be normal and strongly connected."""
    n = lap.shape[0]
    sym = (lap + lap.T) / 2.0  # lap itself, bit for bit, where lap is symmetric
    eigvals, vecs = np.linalg.eigh(sym)
    scale = max(1.0, float(np.linalg.norm(sym, "fro")))

    # zero mode first
    zero_idx = int(np.argmin(np.abs(eigvals)))
    rest = [p for p in range(n) if p != zero_idx]
    order = [zero_idx] + rest
    eigvals = eigvals[order]
    vecs = vecs[:, order]

    if abs(eigvals[0]) > DEFAULT_TOL.eigen_residual_rtol * scale:
        raise NotStronglyConnectedError(f"no eigenvalue near zero (closest: {eigvals[0]:.3e})")
    consensus = np.full(n, 1.0 / math.sqrt(n))
    if abs(abs(float(vecs[:, 0] @ consensus)) - 1.0) > DEFAULT_TOL.consensus_alignment_atol:
        raise NotStronglyConnectedError("zero-eigenvalue eigenspace is not the consensus direction")
    eigvals[0] = 0.0
    vecs[:, 0] = consensus

    data = SpectralData(eigenvalues=eigvals, vectors=vecs)
    _validate_spectral(sym, scale, data)
    return data


def _validate_spectral(sym: np.ndarray, scale: float, data: SpectralData) -> None:
    """Check `data` against the symmetric part `sym` it decomposes, whose
    Frobenius norm is at most `scale`."""
    if float(np.abs(data.vectors.T @ data.vectors - np.eye(data.n)).max()) > DEFAULT_TOL.unitary_atol:
        raise NotNormalError("eigenvector matrix is not orthogonal within tolerance")
    residual = float(np.linalg.norm(sym @ data.vectors - data.vectors * data.eigenvalues, "fro"))
    if residual > DEFAULT_TOL.eigen_residual_rtol * scale:
        raise NotNormalError(f"eigenpair residual {residual:.3e} exceeds tolerance")
    if data.n > 1 and float(data.eigenvalues[1:].min()) <= 0.0:
        raise NotStronglyConnectedError("nonzero eigenvalue with nonpositive real part")


def certainty_spectral(data: SpectralData, params: ModelParams) -> CertaintyReport:
    """Certainty from the eigenstructure: 1/mu_k = sigma^2 sum |u_k|^2 / (2 Re lambda).
    Raises DdmnetError where 1/Re lambda overflows (subnormal weights), and
    where 1/mu or the Kirchhoff index overflows at a finite 1/Re lambda."""
    re = data.eigenvalues[1:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv_re = 1.0 / re
        kirchhoff = data.n * float(inv_re.sum())
        inv_mu = params.sigma**2 * (data.vectors[:, 1:] ** 2 / (2.0 * re)).sum(axis=1)
    if not np.all(np.isfinite(inv_re)):
        raise DdmnetError("spectral certainty overflows double precision: smallest nonzero "
                          f"Re lambda = {float(re.min()):.3g}")
    return _report_from_inv_mu(inv_mu, "spectral", kirchhoff, params.sigma)


def certainty_group_inverse(group_inv: np.ndarray, params: ModelParams) -> CertaintyReport:
    """Certainty from the mirror group inverse X (`InformationMatrix.x`):
    1/mu_k = (sigma^2 / 2) X_kk."""
    diag = np.diag(np.asarray(group_inv, dtype=float)).copy()
    n = diag.shape[0]
    with np.errstate(over="ignore"):  # _report_from_inv_mu names the cause
        inv_mu = params.sigma**2 / 2.0 * diag
        kirchhoff = n * float(np.trace(group_inv))
    if n == 1:
        inv_mu = np.zeros(1)
    return _report_from_inv_mu(inv_mu, "group-inverse", kirchhoff, params.sigma)


def variance_envelope(params: ModelParams, n: int, t: float) -> tuple[float, float, float]:
    """(mean, lower, upper) = (beta t, sigma^2 t / n, sigma^2 t) at time t."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return params.beta * t, params.sigma**2 * t / n, params.sigma**2 * t


def _check_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")


def spectral_covariance(data: SpectralData, params: ModelParams, t: float) -> np.ndarray:
    """State covariance at time t from zero initial conditions, by the eigenmode
    closed form of a normal, strongly connected Laplacian's spectrum `data`:
    sigma^2 U diag(t, (1 - e^{-2 Re lambda_p t}) / (2 Re lambda_p)) U^T. It reads
    (L + L^T) / 2 only: e^{-L s} e^{-L^T s} = e^{-(L + L^T) s} where L is normal."""
    _check_time(t)
    re = data.eigenvalues[1:]
    gdiag = np.concatenate(([t], -np.expm1(-2.0 * re * t) / (2.0 * re)))
    cov = params.sigma**2 * ((data.vectors * gdiag) @ data.vectors.T)
    return (cov + cov.T) / 2.0


def _require_finite(lap: np.ndarray, t: float, *arrays: np.ndarray) -> None:
    """Raise DdmnetError where a propagator or covariance at time t is not finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DdmnetError(f"the covariance at t = {t:.6g} overflows double precision: {weight_range(lap)}")


# The [13/13] Pade approximant of the exponential, coefficients b_0, ..., b_13
# (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def _van_loan_pade(a: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, P), approximating (e^{-a} - I, e^{-a} F), from the [13/13] Pade
    approximant r of Van Loan's unit-noise block M = [[a, tau I], [0, -a^T]],
    whose exponential is [[e^a, F], [0, e^{-a^T}]].

    There is no squaring: the caller keeps ||a||_inf <= 1. Every power of M
    is block upper-triangular, and an even power's (2, 2) block is its (1, 1)
    block transposed, so only top block rows are formed. With V and U = M W
    the even and odd parts of r's numerator p, r = I + 2 q^{-1} U for
    q = V - U. q(M)'s (2, 2) block is p(M)'s (1, 1) block p11 transposed, so
    back substitution gives E = -2 G, G = p11^{-1} u11, with no identity to
    cancel, and P = 2 p11^{-1} (u12 + q12 G^T): one factorization of p11.
    """
    n = a.shape[0]
    b = _PADE13
    a2 = a @ a
    m2 = np.zeros((2 * n, 2 * n))  # M^2
    m2[:n, :n] = a2
    m2[:n, n:] = tau * (a - a.T)
    m2[n:, n:] = a2.T
    row = np.eye(n, 2 * n)  # the top block row of M^0, then of M^2, M^4, ...
    v, w = b[0] * row, b[1] * row
    for b_even, b_odd in zip(b[2::2], b[3::2]):
        row = row @ m2
        v += b_even * row
        w += b_odd * row
    u = a @ w  # the top block row of M W
    u[:, n:] += tau * w[:, :n].T
    sol = np.linalg.solve(v[:, :n] + u[:, :n], np.hstack((u, v[:, n:] - u[:, n:])))
    g = sol[:, :n]
    return -2.0 * g, 2.0 * (sol[:, n:2 * n] + sol[:, 2 * n:] @ g.T)


def _covariance_step(lap: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, P) = (expm(-L t) - I, P(t)) for the unit-noise covariance ODE
    dP/dt = I - L P - P L^T with P(0) = 0; sigma^2 P(t) is the covariance.

    Van Loan's block exponential (IEEE TAC 23:395, 1978), by `_van_loan_pade`
    on a short step tau = t / 2^k with ||L||_inf tau <= 1, then k doublings
    by `_covariance_doubled`. Their relative error grows like machine epsilon
    times ||L||_inf t, so where that product reaches 1 no digit of the pair
    would hold. Raises DdmnetError there, before any arithmetic, and where
    the pair is not finite.
    """
    scaled = float(np.abs(lap).sum(axis=1).max()) * t
    if not math.isfinite(scaled):
        raise ValueError(f"||L||_inf * t = {scaled} is not finite at t = {t}")
    if scaled * sys.float_info.epsilon >= 1.0:
        raise DdmnetError(f"the covariance at t = {t:.6g} cannot be computed in double precision: "
                          f"||L||_inf * t = {scaled:.3g} reaches 1/eps = {1.0 / sys.float_info.epsilon:.3g}; "
                          f"{weight_range(lap)}")
    k = math.ceil(math.log2(scaled)) if scaled > 1.0 else 0
    tau = t / 2.0**k
    _, e, p = _covariance_doubled(lap, *_van_loan_pade(lap * tau, tau), tau, k)
    return e, (p + p.T) / 2.0


def _times_sigma2(sigma: float, times: np.ndarray | list[float], unit: np.ndarray) -> np.ndarray:
    """sigma^2 times the unit-noise covariances `unit`, whose leading axis runs
    over `times`. Raises DdmnetError naming sigma and the first time where the
    product overflows."""
    with np.errstate(over="ignore"):
        cov = sigma**2 * unit
    finite = np.isfinite(cov).reshape(len(times), -1).all(axis=1)
    if not finite.all():
        raise DdmnetError(f"the covariance at t = {times[np.argmin(finite)]:.6g} overflows "
                          f"double precision: sigma = {sigma:.6g} is too large")
    return cov


def analytic_covariance(lap: np.ndarray, params: ModelParams, t: float) -> np.ndarray:
    """State covariance at time t from zero initial conditions, for any digraph.

    sigma^2 times the unit-noise covariance that a Van Loan block exponential
    plus doubling (`_covariance_step`) propagates exactly, including
    Laplacians that are defective. Its relative error grows like machine
    epsilon times ||L|| t. `spectral_covariance` is the eigenmode closed form
    for normal Laplacians.
    """
    lap = np.asarray(lap, dtype=float)
    _check_time(t)
    if t == 0.0:
        return np.zeros(lap.shape)
    return _times_sigma2(params.sigma, [t], _covariance_step(lap, t)[1][None])[0]


def _covariance_doubled(lap: np.ndarray, e: np.ndarray, p: np.ndarray, t: float,
                        k: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(2^k t, E(2^k t), P(2^k t)) from the unit-noise step pair (E, P) at time t.

    The k doublings P <- P + Phi P Phi^T, Phi <- Phi^2 carry Phi as its
    deviation E = Phi - I: with Q = P + E P, P <- P + Q + Q E^T and
    E <- 2 E + E^2. Where ||L|| t is far below 1, Phi rounds to I and the
    dynamics survive only in E. Raises DdmnetError where the time, E or P
    overflows.
    """
    try:
        t_late = math.ldexp(t, k)
    except OverflowError:
        raise DdmnetError(f"the covariance at t = {t:.6g} * 2^{k} overflows double precision: "
                          f"{weight_range(lap)}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            q = p + e @ p
            p = p + q + q @ e.T
            e = 2.0 * e + e @ e
    _require_finite(lap, t_late, e, p)
    return t_late, e, p


def _variance_walk(lap: np.ndarray, e: np.ndarray, p_step: np.ndarray, t_step: float,
                   count: int) -> np.ndarray:
    """Unit-noise variances diag P(i t_step) for i = 1 .. count, shape (count, n),
    from the step pair (E, P_step) of _covariance_step(lap, t_step).

    P(i t_step) is the sum over j < i of Phi^j P_step Phi^jT, so with the
    Cholesky factor P_step = C C^T its diagonal adds the row sums of
    C_j o C_j, where C_j = Phi^j C and C_{j + 1} = C_j + E C_j: one n x n
    product per grid point, and every term is nonnegative, so each variance
    is nondecreasing along the grid. Raises DdmnetError where P_step has no
    Cholesky factor in double precision, and naming the first t whose
    variance is not finite.
    """
    try:
        c = np.linalg.cholesky(p_step)
    except np.linalg.LinAlgError:
        raise DdmnetError(f"the covariance at t = {t_step:.6g} is not positive definite in "
                          f"double precision: {weight_range(lap)}") from None
    out = np.empty((count, c.shape[0]))
    buf = np.empty_like(c)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(out):
            if i:
                np.matmul(e, c, out=buf)
                c += buf
            np.einsum("ij,ij->i", c, c, out=row)
        np.cumsum(out, axis=0, out=out)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        t = (int(np.argmin(finite)) + 1) * t_step
        raise DdmnetError(f"the covariance at t = {t:.6g} overflows double precision: {weight_range(lap)}")
    return out


def covariance_curves(lap: np.ndarray, params: ModelParams, t_step: float, count: int) -> np.ndarray:
    """Per-node variance Var(x_k(i t_step)) for i = 0 .. count - 1, shape (count, n).

    One exact unit-noise step pair serves the whole grid: `_variance_walk`
    carries its Cholesky factor, one product per point, and sigma^2
    multiplies the block once. Memory stays O(n^2 + count n), and every
    column is nondecreasing. count == 1 is the t = 0 row and needs no
    exponential. Works for every digraph. Raises DdmnetError naming sigma
    and the first time whose variance overflows.
    """
    lap = np.asarray(lap, dtype=float)
    if not 0.0 < t_step < math.inf:
        raise ValueError(f"t_step must be finite and > 0, got {t_step}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = np.zeros((count, lap.shape[0]))
    if count > 1:
        unit = _variance_walk(lap, *_covariance_step(lap, t_step), t_step, count - 1)
        out[1:] = _times_sigma2(params.sigma, t_step * np.arange(1, count), unit)
    return out


@dataclass(frozen=True)
class DispersionSummary:
    """Kirchhoff index of the mirror, total dispersion, and their identity residual."""

    kirchhoff_index: float
    total_dispersion: float
    identity_residual: float


def dispersion_summary(report: CertaintyReport, kirchhoff_index: float) -> DispersionSummary:
    """Check sum_k 1/mu_k == sigma^2 K_f / (2n), with K_f the mirror's Kirchhoff
    index (`InformationMatrix.kirchhoff_index`)."""
    n = len(report.inv_mu)
    total = report.total_dispersion
    expected = report.sigma**2 * (kirchhoff_index / (2.0 * n))  # sigma^2 K_f alone may overflow
    residual = abs(total - expected)
    return DispersionSummary(kirchhoff_index=float(kirchhoff_index), total_dispersion=total,
                             identity_residual=residual)
