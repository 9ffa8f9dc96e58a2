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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import GraphValidationError, NotNormalError, NotStronglyConnectedError
from .graph import is_normal, normality_residual, strongly_connected
from .lazyscipy import scipy_linalg

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


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Unitary eigendecomposition of a normal Laplacian, zero mode first.

    eigenvalues[0] == 0 with eigenvector (1/sqrt(n)) * ones; the remaining
    eigenvalues have strictly positive real part for strongly connected graphs.
    """

    eigenvalues: np.ndarray  # complex, shape (n,)
    vectors: np.ndarray  # complex unitary, shape (n, n), columns are eigenvectors
    consensus_mode_verified: bool

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
    inv = tuple(float(v) for v in inv_mu)
    return CertaintyReport(
        mu=tuple(INFINITE_CERTAINTY if v == 0.0 else 1.0 / v for v in inv),
        inv_mu=inv,
        route=route,
        kirchhoff_index=float(kirchhoff),
        total_dispersion=float(sum(inv)),
        sigma=float(sigma),
    )


def spectral_decompose(lap: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SpectralData:
    """Unitary eigendecomposition of a normal, strongly connected Laplacian.

    Symmetric inputs use a real symmetric eigensolver; normal non-symmetric
    ones use a complex Schur factorization, whose triangular factor is
    diagonal (to roundoff) exactly when the matrix is normal. The zero mode
    is moved to position 0 and its eigenvector pinned to (1/sqrt(n)) * ones.

    Raises NotNormalError / NotStronglyConnectedError when the premises fail.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if n == 0 or lap.shape != (n, n):
        raise GraphValidationError(f"Laplacian must be a non-empty square matrix, got shape {lap.shape}")
    if not is_normal(lap, tol):
        raise NotNormalError(
            f"Laplacian is not normal: commutator residual {normality_residual(lap):.3e}"
        )
    off = lap.copy()
    np.fill_diagonal(off, 0.0)
    bad = np.argwhere(~(np.isfinite(off) & (off <= 0.0)))
    if bad.size:
        k, j = bad[0]
        raise GraphValidationError(f"matrix is not a valid Laplacian: edge ({k + 1}, {j + 1}): "
                                   f"weight must be finite and > 0, got {-float(lap[k, j])}")
    if not strongly_connected(n, *np.nonzero(off)):
        raise NotStronglyConnectedError("graph is not strongly connected")

    scale = max(1.0, float(np.linalg.norm(lap, "fro")))
    if np.allclose(lap, lap.T, atol=tol.normality_rtol * scale):
        eigvals_r, vecs_r = np.linalg.eigh(lap)
        eigvals = eigvals_r.astype(complex)
        vecs = vecs_r.astype(complex)
    else:
        tri, z = scipy_linalg().schur(lap, output="complex")
        eigvals = np.diag(tri).copy()
        vecs = z

    # zero mode first, remaining modes in a deterministic order
    zero_idx = int(np.argmin(np.abs(eigvals)))
    rest = [p for p in range(n) if p != zero_idx]
    rest.sort(key=lambda p: (eigvals[p].real, eigvals[p].imag))
    order = [zero_idx] + rest
    eigvals = eigvals[order]
    vecs = vecs[:, order]

    if abs(eigvals[0]) > tol.eigen_residual_rtol * scale:
        raise NotStronglyConnectedError(f"no eigenvalue near zero (closest: {eigvals[0]:.3e})")
    consensus = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    overlap = complex(np.vdot(vecs[:, 0], consensus))
    if abs(abs(overlap) - 1.0) > 1e-8:
        raise NotStronglyConnectedError("zero-eigenvalue eigenspace is not the consensus direction")
    eigvals[0] = 0.0
    vecs[:, 0] = consensus

    data = SpectralData(eigenvalues=eigvals, vectors=vecs, consensus_mode_verified=True)
    _validate_spectral(lap, data, tol)
    return data


def _validate_spectral(lap: np.ndarray, data: SpectralData, tol: Tolerances) -> None:
    n = data.n
    gram = data.vectors.conj().T @ data.vectors
    if float(np.abs(gram - np.eye(n)).max()) > tol.unitary_atol:
        raise NotNormalError("eigenvector matrix is not unitary within tolerance")
    residual = float(np.linalg.norm(lap @ data.vectors - data.vectors * data.eigenvalues, "fro"))
    scale = max(1.0, float(np.linalg.norm(lap, "fro")))
    if residual > tol.eigen_residual_rtol * scale:
        raise NotNormalError(f"eigenpair residual {residual:.3e} exceeds tolerance")
    if n > 1 and float(data.eigenvalues[1:].real.min()) <= 0.0:
        raise NotStronglyConnectedError("nonzero eigenvalue with nonpositive real part")


def certainty_spectral(data: SpectralData, params: ModelParams) -> CertaintyReport:
    """Certainty from the eigenstructure: 1/mu_k = sigma^2 sum |u_k|^2 / (2 Re lambda)."""
    n = data.n
    if n == 1:
        return _report_from_inv_mu(np.zeros(1), "spectral", 0.0, params.sigma)
    re = data.eigenvalues[1:].real
    weights = np.abs(data.vectors[:, 1:]) ** 2
    inv_mu = params.sigma**2 * (weights / (2.0 * re)).sum(axis=1)
    kirchhoff = n * float((1.0 / re).sum())
    return _report_from_inv_mu(inv_mu, "spectral", kirchhoff, params.sigma)


def certainty_group_inverse(group_inv: np.ndarray, params: ModelParams) -> CertaintyReport:
    """Certainty from the mirror group inverse X (`InformationMatrix.x`):
    1/mu_k = (sigma^2 / 2) X_kk."""
    diag = np.diag(np.asarray(group_inv, dtype=float)).copy()
    n = diag.shape[0]
    inv_mu = params.sigma**2 / 2.0 * diag
    if n == 1:
        inv_mu = np.zeros(1)
    kirchhoff = n * float(np.trace(group_inv))
    return _report_from_inv_mu(inv_mu, "group-inverse", kirchhoff, params.sigma)


def variance_envelope(params: ModelParams, n: int, t: float) -> tuple[float, float, float]:
    """(mean, lower, upper) = (beta t, sigma^2 t / n, sigma^2 t) at time t."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return params.beta * t, params.sigma**2 * t / n, params.sigma**2 * t


def propagator(lap: np.ndarray, t: float) -> np.ndarray:
    """State transition matrix expm(-L t); row-stochastic for every Laplacian."""
    return scipy_linalg().expm(-np.asarray(lap, dtype=float) * t)


def _covariance_from_spectrum(data: SpectralData, params: ModelParams, t: float,
                              tol: Tolerances) -> np.ndarray:
    n = data.n
    gdiag = np.empty(n)
    gdiag[0] = t
    if n > 1:
        re = data.eigenvalues[1:].real
        gdiag[1:] = -np.expm1(-2.0 * re * t) / (2.0 * re)
    cov = (data.vectors * gdiag) @ data.vectors.conj().T
    imag_max = float(np.abs(cov.imag).max())
    if imag_max > tol.imaginary_atol * max(1.0, float(np.abs(cov.real).max())):
        raise NotNormalError(f"covariance has imaginary residue {imag_max:.3e}")
    cov = params.sigma**2 * cov.real
    return (cov + cov.T) / 2.0


def _covariance_step(lap: np.ndarray, sigma2: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(expm(-L t), P(t)) for dP/dt = sigma^2 I - L P - P L^T with P(0) = 0.

    Van Loan's block exponential (IEEE TAC 23:395, 1978) on a short step
    tau = t / 2^k with ||L||_inf tau <= 1, then k doublings
    P <- P + Phi P Phi^T, Phi <- Phi^2. The block holds expm(+L tau), which
    overflows over long spans, so it is only ever taken on the short step.
    """
    n = lap.shape[0]
    scaled = float(np.abs(lap).sum(axis=1).max()) * t
    if not math.isfinite(scaled):
        raise ValueError(f"||L||_inf * t = {scaled} is not finite at t = {t}")
    k = math.ceil(math.log2(scaled)) if scaled > 1.0 else 0
    tau = t / 2.0**k
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = lap * tau
    block[:n, n:] = sigma2 * tau * np.eye(n)
    block[n:, n:] = -lap.T * tau
    e = scipy_linalg().expm(block)
    phi = e[n:, n:].T
    p = phi @ e[:n, n:]
    for _ in range(k):
        p = p + phi @ p @ phi.T
        phi = phi @ phi
    return phi, (p + p.T) / 2.0


def analytic_covariance(lap: np.ndarray, params: ModelParams, t: float, mode: str = "general",
                        tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """State covariance at time t from zero initial conditions.

    mode "normal" evaluates the eigenmode closed form (requires a normal,
    strongly connected Laplacian); mode "general" propagates the covariance
    ODE exactly with a Van Loan block exponential plus doubling and works for
    any digraph, including ones whose Laplacian is defective. Its relative
    error grows like machine epsilon times ||L|| t.
    """
    lap = np.asarray(lap, dtype=float)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    if mode == "normal":
        data = spectral_decompose(lap, tol)
        return _covariance_from_spectrum(data, params, t, tol)
    if mode == "general":
        if t == 0.0:
            return np.zeros(lap.shape)
        return _covariance_step(lap, params.sigma**2, t)[1]
    raise ValueError(f"unknown mode {mode!r}; expected 'normal' or 'general'")


def _covariance_walk(phi: np.ndarray, p_step: np.ndarray) -> Iterator[np.ndarray]:
    """P(tau), P(2 tau), ... from the step pair (Phi, P_step) of _covariance_step(lap, sigma2, tau).

    P((i + 1) tau) = Phi P(i tau) Phi^T + P_step is exact, so one step pair
    serves a whole uniform grid.
    """
    p = p_step
    while True:
        yield p
        p = phi @ p @ phi.T + p_step


def covariance_curves(lap: np.ndarray, params: ModelParams, t_step: float, count: int) -> np.ndarray:
    """Per-node variance Var(x_k(i t_step)) for i = 0 .. count - 1, shape (count, n).

    Computes one exact step pair for the grid and walks it with
    _covariance_walk, keeping only each point's diagonal, so memory stays
    O(n^2) for any count. count == 1 is the t = 0 row and needs no
    exponential. Works for every digraph.
    """
    lap = np.asarray(lap, dtype=float)
    if not 0.0 < t_step < math.inf:
        raise ValueError(f"t_step must be finite and > 0, got {t_step}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = np.zeros((count, lap.shape[0]))
    if count > 1:
        walk = _covariance_walk(*_covariance_step(lap, params.sigma**2, t_step))
        for row, p in zip(out[1:], walk):
            row[:] = np.diag(p)
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
    residual = abs(total - report.sigma**2 * kirchhoff_index / (2.0 * n))
    return DispersionSummary(kirchhoff_index=float(kirchhoff_index), total_dispersion=total,
                             identity_residual=residual)
