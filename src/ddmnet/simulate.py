"""Monte Carlo integration of the networked drift-diffusion dynamics.

Euler-Maruyama with additive noise:

    x <- x + (beta * 1 - L x) h + sigma sqrt(h) xi,   x(0) = 0,

one independent SFC64 stream per trajectory, seeded by
SeedSequence((seed, trajectory index)). Hashing the pair, rather than
combining seed and index into one integer, keeps the streams of different
seeds apart. Moments are accumulated streaming (one pass, O(n^2) memory
independent of the trajectory count) in a fixed chunk order.

The step is linear, so a panel of S steps is one product: with
M = (I - hL)^T acting on row states,

    x <- x M^S + [xi_0 ... xi_{S-1}] K + beta h S 1,

where block s of the stacked (S n, n) matrix K is sigma sqrt(h) M^(S-1-s).
Panels end at every sample time and span at most PANEL_STEPS steps. K holds
powers of I - hL, never the exact propagator, so the simulation stays an
independent check of the covariance route.

Chunks of CHUNK_TRAJECTORIES trajectories run in a process pool with one
worker per chunk, up to the number of CPUs this process may use; a single
chunk or a single worker runs in-process. Every chunk runs numpy's BLAS on
one thread, in the pool and in-process alike. The chunk size, the panel
length and that thread count fix every rounding, so runs split across any
number of workers produce bit-identical moment sums.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .certainty import ModelParams
from .errors import StepCapError, UnstableStepError
from .graph import WeightedDigraph, laplacian
from .lazyscipy import numpy_blas_on_one_thread, single_thread_numpy_blas

# the chunk size is part of the deterministic-merge contract: chunk sums are
# merged in chunk order, so results do not depend on the worker count
CHUNK_TRAJECTORIES = 1024
# longest panel, in steps. It is part of the determinism contract too: each
# trajectory's stream is read in the same order whatever the panel length, but
# the panel length sets the summation order of each panel's product, so
# results move at roundoff with it. It also sets memory: batch x panel x n
# doubles of noise and a panel x n x n stack per chunk.
PANEL_STEPS = 250
# Euler steps per trajectory above which a configuration is refused: nothing
# is reported until every step is done, and at 1e8 steps one chunk of
# CHUNK_TRAJECTORIES trajectories already runs for hours
MAX_STEPS = 10**8

_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration; sample_times must lie on the step grid.

    An empty sample-time list is a valid degenerate configuration (nothing
    simulated, nothing recorded): reports come out header-only.
    """

    params: ModelParams
    t_max: float
    step: float
    trajectories: int
    seed: int
    sample_times: tuple[float, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_max):
            raise ValueError(f"t_max must be finite, got {self.t_max}")
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        if self.trajectories < 2:
            raise ValueError(f"need at least 2 trajectories, got {self.trajectories}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.sample_times and self.t_max < max(self.sample_times) - _GRID_RTOL:
            raise ValueError("t_max must cover every sample time")
        last = max(self.sample_times, default=0.0)
        if last / self.step > MAX_STEPS:
            raise StepCapError(f"sample time {last} at step {self.step} needs "
                               f"{last / self.step:.3g} steps per trajectory, "
                               f"above the cap of {MAX_STEPS}")
        indices = [self.step_index(t) for t in self.sample_times]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate sample times: {self.sample_times}")

    def step_index(self, t: float) -> int:
        """Grid index of a sample time; raises if t is not on the step grid."""
        idx = round(t / self.step)
        if abs(idx * self.step - t) > _GRID_RTOL * max(1.0, abs(t)):
            raise ValueError(f"sample time {t} is not on the step grid (h = {self.step})")
        return idx

    @property
    def total_steps(self) -> int:
        return self.step_index(max(self.sample_times)) if self.sample_times else 0


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Streaming moment sums per sample time: sum of states and of outer products."""

    n: int
    config: SimConfig
    sums: np.ndarray  # shape (num_sample_times, n)
    outers: np.ndarray  # shape (num_sample_times, n, n)

    @property
    def trajectories(self) -> int:
        return self.config.trajectories


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Empirical mean/covariance at one sample time with standard errors."""

    t: float
    trajectories: int
    mean: np.ndarray
    covariance: np.ndarray
    se_mean: np.ndarray
    se_covariance: np.ndarray


@dataclass(frozen=True, eq=False)
class MomentValidation:
    """Outcome of comparing a MomentReport against analytic targets."""

    passed: bool
    z_covariance: np.ndarray
    z_mean: np.ndarray | None
    failures: tuple[str, ...]
    warnings: tuple[str, ...]


def _panel_operator(step_matrix_t: np.ndarray, span: int,
                    noise_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The stack K and the power M^span that advance a panel of `span` steps.

    Block s of K, rows s*n .. s*n + n - 1, is sigma sqrt(h) M^(span - 1 - s),
    so a panel's normals, laid out step by step in one row per trajectory,
    enter through one product (module docstring).
    """
    n = step_matrix_t.shape[0]
    stack = np.empty((span, n, n))
    power = np.eye(n)
    for s in range(span - 1, -1, -1):
        stack[s] = power
        power = power @ step_matrix_t
    stack *= noise_scale
    return stack.reshape(span * n, n), power


def _simulate_chunk(lap: np.ndarray, cfg: SimConfig, lo: int, hi: int,
                    sample_steps: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Moment sums over trajectories [lo, hi); pure function of its arguments.

    Panels end at every sample step and span at most PANEL_STEPS steps; each
    advances the whole batch with one product against `_panel_operator`,
    built once per distinct span.
    """
    n = lap.shape[0]
    batch = hi - lo
    h = cfg.step
    drift = cfg.params.beta * h
    noise_scale = cfg.params.sigma * math.sqrt(h)
    step_matrix_t = (np.eye(n) - h * lap).T
    operators: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    gens = [np.random.Generator(np.random.SFC64(np.random.SeedSequence((cfg.seed, i))))
            for i in range(lo, hi)]
    sums = np.zeros((len(sample_steps), n))
    outers = np.zeros((len(sample_steps), n, n))
    x = np.zeros((batch, n))
    # one row per trajectory; a shorter panel uses the leading columns, a
    # strided view that the product reads without a copy
    noise = np.empty((batch, min(PANEL_STEPS, cfg.total_steps) * n))
    done = 0
    for idx in sorted(range(len(sample_steps)), key=sample_steps.__getitem__):
        while done < sample_steps[idx]:
            span = min(PANEL_STEPS, sample_steps[idx] - done)
            width = span * n
            for b, gen in enumerate(gens):
                gen.standard_normal(out=noise[b, :width])
            if span not in operators:
                operators[span] = _panel_operator(step_matrix_t, span, noise_scale)
            stack, power = operators[span]
            x = x @ power + noise[:, :width] @ stack
            x += drift * span  # M's columns sum to 1: the drift row passes each step unchanged
            done += span
        sums[idx] += x.sum(axis=0)  # a t = 0 sample adds the zero state
        outers[idx] += x.T @ x
    return sums, outers


def _worker_count(requested: int | None, chunks: int) -> int:
    """Processes to use: `requested` (None: every usable CPU), at most one per chunk."""
    if requested is None:
        try:
            requested = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity mask on this platform
            requested = os.cpu_count() or 1
    return max(1, min(requested, chunks))


def simulate_ensemble(g: WeightedDigraph, cfg: SimConfig, workers: int | None = None) -> Ensemble:
    """Simulate the ensemble and accumulate moment sums at the sample times.

    Deterministic for a given (graph, config) regardless of `workers`:
    trajectories are chunked by a fixed size, each chunk's sums are computed
    from per-trajectory streams, and chunks are merged in index order.
    `workers=None` uses every CPU this process may run on; the pool never
    has more processes than chunks.
    """
    lap = laplacian(g)
    norm_inf = float(np.abs(lap).sum(axis=1).max())
    if norm_inf > 0 and cfg.step > 0.1 / norm_inf:
        raise UnstableStepError(
            f"step {cfg.step} exceeds the stability guard 0.1 / ||L||_inf = {0.1 / norm_inf:.3g}"
        )
    sample_steps = tuple(cfg.step_index(t) for t in cfg.sample_times)
    bounds = [(lo, min(lo + CHUNK_TRAJECTORIES, cfg.trajectories))
              for lo in range(0, cfg.trajectories, CHUNK_TRAJECTORIES)]
    sums = np.zeros((len(sample_steps), g.n))
    outers = np.zeros((len(sample_steps), g.n, g.n))
    workers = _worker_count(workers, len(bounds))
    if workers == 1:
        # one BLAS thread, as in the pool workers: the panel products' bits
        # depend on the thread count
        with numpy_blas_on_one_thread():
            for lo, hi in bounds:
                s, o = _simulate_chunk(lap, cfg, lo, hi, sample_steps)
                sums += s
                outers += o
    else:
        # the platform's default start method: where it is fork, workers reuse
        # the parent's numpy/scipy imports instead of paying for them again.
        # The workers fill the CPUs between them, so each runs numpy's BLAS
        # on one thread for good; this process keeps its pool.
        with ProcessPoolExecutor(max_workers=workers, initializer=single_thread_numpy_blas) as pool:
            futures = [pool.submit(_simulate_chunk, lap, cfg, lo, hi, sample_steps)
                       for lo, hi in bounds]
            for fut in futures:  # merge strictly in chunk order
                s, o = fut.result()
                sums += s
                outers += o
    return Ensemble(n=g.n, config=cfg, sums=sums, outers=outers)


def empirical_moments(ensemble: Ensemble, t: float) -> MomentReport:
    """Unbiased mean and covariance at a recorded sample time.

    Standard error of a variance uses the Gaussian asymptotic formula
    Var(s^2) ~= 2 s^4 / (M - 1); the process is Gaussian, so this is exact
    to leading order. Off-diagonal entries use (s_kk s_jj + s_kj^2)/(M - 1).
    """
    wanted = ensemble.config.step_index(t)
    recorded = [ensemble.config.step_index(ts) for ts in ensemble.config.sample_times]
    if wanted not in recorded:
        raise ValueError(f"time {t} was not recorded; sample times: {ensemble.config.sample_times}")
    idx = recorded.index(wanted)
    m = ensemble.trajectories
    mean = ensemble.sums[idx] / m
    cov = (ensemble.outers[idx] - m * np.outer(mean, mean)) / (m - 1)
    cov = (cov + cov.T) / 2.0
    var = np.diag(cov)
    se_cov = np.sqrt((np.outer(var, var) + cov**2) / (m - 1))
    np.fill_diagonal(se_cov, np.sqrt(2.0 / (m - 1)) * np.abs(var))
    se_mean = np.sqrt(np.maximum(var, 0.0) / m)
    return MomentReport(t=t, trajectories=m, mean=mean, covariance=cov,
                        se_mean=se_mean, se_covariance=se_cov)


def validate_moments(report: MomentReport, target_covariance: np.ndarray,
                     gate: float = 4.0, offdiag_gate: float = 5.0,
                     target_mean: np.ndarray | None = None,
                     mean_gate: float = 3.0) -> MomentValidation:
    """Z-score the empirical moments against analytic targets.

    The verdict fails iff a diagonal z-score exceeds `gate` (or, when a mean
    target is supplied, a mean z-score exceeds `mean_gate`). Off-diagonal
    entries are noisier: exceedances of `offdiag_gate` are reported as
    warnings without failing the validation.
    """
    target_covariance = np.asarray(target_covariance, dtype=float)
    if target_covariance.shape != report.covariance.shape:
        raise ValueError("target covariance shape does not match the report")
    with np.errstate(divide="ignore", invalid="ignore"):
        z_cov = (report.covariance - target_covariance) / report.se_covariance
    z_cov = np.where(report.se_covariance > 0, z_cov,
                     np.where(report.covariance == target_covariance, 0.0, math.inf))
    failures: list[str] = []
    warnings: list[str] = []
    n = report.covariance.shape[0]
    for k in range(n):
        if abs(z_cov[k, k]) > gate:
            failures.append(f"Var(x_{k + 1}) off target: z = {z_cov[k, k]:+.2f} (gate {gate})")
    for k in range(n):
        for j in range(k + 1, n):
            if abs(z_cov[k, j]) > offdiag_gate:
                warnings.append(f"Cov(x_{k + 1}, x_{j + 1}) off target: z = {z_cov[k, j]:+.2f}")
    z_mean = None
    if target_mean is not None:
        target_mean = np.asarray(target_mean, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            z_mean = (report.mean - target_mean) / report.se_mean
        z_mean = np.where(report.se_mean > 0, z_mean,
                          np.where(report.mean == target_mean, 0.0, math.inf))
        for k in range(n):
            if abs(z_mean[k]) > mean_gate:
                failures.append(f"mean(x_{k + 1}) off target: z = {z_mean[k]:+.2f} (gate {mean_gate})")
    return MomentValidation(
        passed=not failures,
        z_covariance=z_cov,
        z_mean=z_mean,
        failures=tuple(failures),
        warnings=tuple(warnings),
    )
