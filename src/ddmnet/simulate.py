"""Monte Carlo integration of the networked drift-diffusion dynamics.

Euler-Maruyama with additive noise:

    x <- x + (beta * 1 - L x) h + sigma sqrt(h) xi,   x(0) = 0,

one independent SFC64 stream per trajectory, seeded by
SeedSequence((seed, trajectory index)). Hashing the pair, rather than
combining seed and index into one integer, keeps the streams of different
seeds apart. `_stream_states` computes those seeds for a whole chunk in one
vectorized pass of SeedSequence's hash (O'Neill's seed_seq mixing), bit for
bit what numpy's SeedSequence gives one trajectory at a time. Moments are
accumulated streaming (one pass, O(n^2) memory independent of the trajectory
count) in a fixed chunk order.

The step is linear, so a panel of S steps is one product: with
M = (I - hL)^T acting on row states,

    x <- x M^S + [xi_0 ... xi_{S-1}] K + beta h S 1,

where block s of the stacked (S n, n) matrix K is sigma sqrt(h) M^(S-1-s).
Panels end at every sample time and span at most PANEL_STEPS steps. K holds
powers of I - hL, never the exact propagator, so the simulation stays an
independent check of the covariance route. Building K costs span n^3 flops
per chunk, on top of the batch span n^2 of the products, so where n rivals
the chunk's batch `_takes_steps` has the chunk step instead, one product per
step on the same panel of normals. `_advance_panel` and `_advance_steps` are
those two advances; `verify` runs both on one draw and compares the states.

Chunks of CHUNK_TRAJECTORIES trajectories run in a process pool with one
worker per chunk, up to the number of CPUs this process may use; a single
chunk or a single worker runs in-process. Every chunk runs numpy's BLAS on
one thread, in the pool and in-process alike. The chunk size, the panel
length, the panel-or-step rule and that thread count fix every rounding, so
runs split across any number of workers produce bit-identical moment sums.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .certainty import ModelParams
from .errors import DdmnetError, StepCapError, UnstableStepError
from .graph import WeightedDigraph, laplacian
from .blasthreads import numpy_blas_on_one_thread, single_thread_numpy_blas

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

# SeedSequence's constants (numpy.random.bit_generator): hashmix's xor key
# starts at _HASH_INIT_A and is multiplied by _HASH_MULT_A before each use as
# multiplier; generate_state does the same with B; mix combines two words
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_WORD = 0xFFFFFFFF

_GRID_RTOL = 1e-9
_OFFDIAG_GATE = 5.0
_MEAN_GATE = 3.0


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


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int: 32 bits each, least significant first."""
    words = [value & _WORD]
    while value > _WORD:
        value >>= 32
        words.append(value & _WORD)
    return words


def _hash_keys(first: int, mult: int, calls: int) -> np.ndarray:
    """The keys of `calls` hash calls, first * mult^k mod 2^32 for k = 0 .. calls, as a uint32 column."""
    keys = [first]
    for _ in range(calls):
        keys.append(keys[-1] * mult & _WORD)
    return np.array(keys, dtype=np.uint32)[:, None]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> 16
    return out


def _stream_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """SeedSequence((seed, i)).generate_state(3, np.uint64) for i in [lo, hi), one row each.

    SeedSequence hashes the entropy words of (seed, i) into a pool of four
    words, then hashes the pool into the state. Every row makes the same
    sequence of hash calls, with the same keys, so each call runs on all
    rows at once, and on every pool word it touches. Indices lie below 2^64,
    and i must have one word count across the range: a chunk never straddles
    2^32, which CHUNK_TRAJECTORIES divides.
    """
    width = len(_uint32_words(hi - 1))
    if len(_uint32_words(lo)) != width:
        raise ValueError(f"trajectory indices [{lo}, {hi}) change word count")
    index = np.arange(lo, hi, dtype=np.uint64)
    seed_words = _uint32_words(seed)
    entropy = np.empty((len(seed_words) + width, hi - lo), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    for k in range(width):
        entropy[len(seed_words) + k] = (index >> np.uint64(32 * k)) & np.uint64(_WORD)
    pool = np.zeros((_POOL_SIZE, hi - lo), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL_SIZE]

    extra = max(0, len(entropy) - _POOL_SIZE)
    keys = _hash_keys(_HASH_INIT_A, _HASH_MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    call = 0

    def hashmix(words: np.ndarray, calls: int) -> np.ndarray:
        nonlocal call
        out = words ^ keys[call:call + calls]
        out *= keys[call + 1:call + calls + 1]
        out ^= out >> 16
        call += calls
        return out

    # the entropy's first words, zero-padded to the pool size
    pool = hashmix(pool, _POOL_SIZE)
    # every pool word into every other: each source's three hashes come in
    # destination order, and a source never changes during its own pass
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))
    # entropy words beyond the pool, each mixed into every pool word
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, hashmix(word, _POOL_SIZE))

    # generate_state(3, np.uint64): six words cycling through the pool, paired little-endian
    keys = _hash_keys(_HASH_INIT_B, _HASH_MULT_B, 6)
    state = pool[[0, 1, 2, 3, 0, 1]] ^ keys[:-1]
    state *= keys[1:]
    state ^= state >> 16
    state = state.astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


@functools.cache
def _fixed_state_type() -> type:
    """An ISeedSequence whose generate_state returns one row of `_stream_states`.

    np.random.SFC64 seeds itself with generate_state(3, np.uint64) of the
    sequence it is given. The class is made on first use, so that
    importing ddmnet loads no numpy.random module.
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
            return self.state

    return FixedState


def _stream_generators(seed: int, lo: int, hi: int) -> list[np.random.Generator]:
    """np.random.Generator(SFC64(SeedSequence((seed, i)))) for i in [lo, hi)."""
    fixed = _fixed_state_type()
    return [np.random.Generator(np.random.SFC64(fixed(state)))
            for state in _stream_states(seed, lo, hi)]


def _takes_steps(n: int, batch: int) -> bool:
    """Whether a chunk of `batch` trajectories on n nodes advances one product
    per step rather than by panels.

    A panel's stack costs span n^3 flops to build, once per chunk, against
    the batch span n^2 that either path spends on products; a step pays
    Python's per-product overhead. Medians on a 2-CPU Intel Xeon virtual
    machine with numpy's BLAS on one thread, one panel per chunk
    (panel/step, ms): batch 64, span 20: n = 20
    0.12/0.19, n = 30 0.23/0.25, n = 40 0.34/0.32, n = 60 0.76/0.54,
    n = 100 3.2/1.1; batch 64, span 250: n = 30 3.1/3.5, n = 40 4.3/4.3,
    n = 60 11.8/7.1; batch 256, span 250: n = 100 58/61, n = 150 141/131,
    n = 200 341/218; batch 1024, span 250: n = 5 2.6/9.2, n = 200 620/698,
    n = 512 4563/3077. The crossover does not move with the span; more
    panels per chunk share one stack and favour panels further. Part of the
    determinism contract: the two paths round differently.
    """
    return 2 * n >= batch


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


def _draw_normals(gens: list[np.random.Generator], noise: np.ndarray) -> None:
    """Fill row b of `noise` with standard normals from gens[b], in place."""
    for row, gen in zip(noise, gens):
        gen.standard_normal(out=row)


def _advance_panel(x: np.ndarray, noise: np.ndarray, operator: tuple[np.ndarray, np.ndarray],
                   drift: float, span: int) -> np.ndarray:
    """x M^span + noise K + drift span: one panel of `span` steps in two products,
    with `operator` = (K, M^span) from `_panel_operator`."""
    stack, power = operator
    x = x @ power + noise @ stack
    x += drift * span  # M's columns sum to 1: the drift row passes each step unchanged
    return x


def _advance_steps(x: np.ndarray, noise: np.ndarray, step_matrix_t: np.ndarray,
                   noise_scale: float, drift: float) -> np.ndarray:
    """The same panel step by step, x <- x M + (sigma sqrt(h) xi + beta h), one
    product per step. Scales and shifts `noise` in place."""
    n = step_matrix_t.shape[0]
    noise *= noise_scale
    noise += drift
    for col in range(0, noise.shape[1], n):
        x = x @ step_matrix_t
        x += noise[:, col:col + n]
    return x


@np.errstate(over="ignore", invalid="ignore")  # simulate_ensemble names an overflow's cause
def _simulate_chunk(lap: np.ndarray, cfg: SimConfig, lo: int, hi: int,
                    sample_steps: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Moment sums over trajectories [lo, hi); pure function of its arguments.
    States that overflow run on to inf or nan.

    Panels end at every sample step and span at most PANEL_STEPS steps. By
    `_takes_steps`, each panel advances the whole batch with one product
    against `_panel_operator`, built once per distinct span, or with one
    product per step against M, reading the same normals.
    """
    n = lap.shape[0]
    batch = hi - lo
    h = cfg.step
    drift = cfg.params.beta * h
    noise_scale = cfg.params.sigma * math.sqrt(h)
    step_matrix_t = (np.eye(n) - h * lap).T
    operators: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    steps = _takes_steps(n, batch)

    gens = _stream_generators(cfg.seed, lo, hi)
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
            panel = noise[:, :span * n]
            _draw_normals(gens, panel)
            if steps:
                x = _advance_steps(x, panel, step_matrix_t, noise_scale, drift)
            else:
                if span not in operators:
                    operators[span] = _panel_operator(step_matrix_t, span, noise_scale)
                x = _advance_panel(x, panel, operators[span], drift, span)
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


def simulate_ensemble(g: WeightedDigraph, cfg: SimConfig, workers: int | None = None,
                      lap: np.ndarray | None = None) -> Ensemble:
    """Simulate the ensemble and accumulate moment sums at the sample times.

    Deterministic for a given (graph, config) regardless of `workers`:
    trajectories are chunked by a fixed size, each chunk's sums are computed
    from per-trajectory streams, and chunks are merged in index order.
    `workers=None` uses every CPU this process may run on; the pool never
    has more processes than chunks. `lap` is laplacian(g), where the caller
    has built it already; it is read, never written.
    """
    if lap is None:
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
        # depend on the thread count. Overflowing sums are named below.
        with numpy_blas_on_one_thread(), np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in bounds:
                s, o = _simulate_chunk(lap, cfg, lo, hi, sample_steps)
                sums += s
                outers += o
    else:
        # the platform's default start method: where it is fork, workers reuse
        # the parent's numpy imports instead of paying for them again.
        # The workers fill the CPUs between them, so each runs numpy's BLAS
        # on one thread for good; this process keeps its pool. Only a pool
        # loads concurrent.futures and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with (ProcessPoolExecutor(max_workers=workers, initializer=single_thread_numpy_blas) as pool,
              np.errstate(over="ignore", invalid="ignore")):
            futures = [pool.submit(_simulate_chunk, lap, cfg, lo, hi, sample_steps)
                       for lo, hi in bounds]
            for fut in futures:  # merge strictly in chunk order
                s, o = fut.result()
                sums += s
                outers += o
    finite = np.isfinite(sums).all(axis=1) & np.isfinite(outers).all(axis=(1, 2))
    if not finite.all():
        raise _moments_error(cfg.params, min(t for t, ok in zip(cfg.sample_times, finite) if not ok))
    return Ensemble(n=g.n, config=cfg, sums=sums, outers=outers)


def _moments_error(params: ModelParams, t: float, problem: str = "overflow double precision",
                   subject: str = "moments") -> DdmnetError:
    """The error for simulated moments (or states) at time t that double precision
    cannot hold. It names sigma, or beta where the drift beta t outgrows the noise
    sigma sqrt(t)."""
    cause = (f"sigma = {params.sigma:.6g}" if params.sigma >= abs(params.beta) * math.sqrt(t)
             else f"beta = {params.beta:.6g}")
    return DdmnetError(f"the simulated {subject} at t = {t:.6g} {problem}: {cause} is too large")


def empirical_moments(ensemble: Ensemble, t: float) -> MomentReport:
    """Unbiased mean and covariance at a recorded sample time.

    Standard error of a variance uses the Gaussian asymptotic formula
    Var(s^2) ~= 2 s^4 / (M - 1); the process is Gaussian, so this is exact
    to leading order. Off-diagonal entries use (s_kk s_jj + s_kj^2)/(M - 1).
    Raises DdmnetError where a variance after t = 0 is not positive (its
    digits cancelled) or a standard error exceeds the largest double.
    """
    wanted = ensemble.config.step_index(t)
    recorded = [ensemble.config.step_index(ts) for ts in ensemble.config.sample_times]
    if wanted not in recorded:
        raise ValueError(f"time {t} was not recorded; sample times: {ensemble.config.sample_times}")
    idx = recorded.index(wanted)
    m = ensemble.trajectories
    mean = ensemble.sums[idx] / m
    cov = (ensemble.outers[idx] - m * np.outer(mean, mean)) / (m - 1)
    # halving is exact above the subnormal range: this is (cov + cov.T) / 2 bit
    # for bit, and stays finite where cov + cov.T overflows (two trajectories)
    cov = cov / 2.0 + cov.T / 2.0
    var = np.diag(cov)
    # scaled by s, the power of two at or below the largest variance, the
    # squares stay finite; a power of two scales exactly, so the bits are those
    # of the unscaled formula wherever no square leaves the normal range
    s = math.ldexp(1.0, math.frexp(float(np.abs(var).max(initial=0.0)))[1] - 1)
    # at few trajectories an error can exceed its variance; a negative variance
    # gives a NaN here, and both are named below
    with np.errstate(over="ignore", invalid="ignore"):
        se_cov = s * np.sqrt((np.outer(var / s, var / s) + (cov / s) ** 2) / (m - 1))
        np.fill_diagonal(se_cov, np.sqrt(2.0 / (m - 1)) * np.abs(var))
    # every state is zero at t = 0; later, where the mean beta t dwarfs the spread,
    # the sums about zero cancel every digit of a variance
    if wanted and not (var > 0).all():
        raise _moments_error(ensemble.config.params, t, "lose their spread to cancellation in double precision")
    if not np.isfinite(se_cov).all():
        raise _moments_error(ensemble.config.params, t)
    se_mean = np.sqrt(var / m)
    return MomentReport(t=t, trajectories=m, mean=mean, covariance=cov,
                        se_mean=se_mean, se_covariance=se_cov)


def validate_moments(report: MomentReport, target_covariance: np.ndarray, gate: float = 4.0,
                     target_mean: np.ndarray | None = None) -> MomentValidation:
    """Z-score the empirical moments against analytic targets.

    The verdict fails iff a diagonal z-score exceeds `gate` (or, when a mean
    target is supplied, a mean z-score exceeds _MEAN_GATE = 3). Off-diagonal
    entries are noisier: exceedances of _OFFDIAG_GATE = 5 are reported as
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
            if abs(z_cov[k, j]) > _OFFDIAG_GATE:
                warnings.append(f"Cov(x_{k + 1}, x_{j + 1}) off target: z = {z_cov[k, j]:+.2f}")
    z_mean = None
    if target_mean is not None:
        target_mean = np.asarray(target_mean, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            z_mean = (report.mean - target_mean) / report.se_mean
        z_mean = np.where(report.se_mean > 0, z_mean,
                          np.where(report.mean == target_mean, 0.0, math.inf))
        for k in range(n):
            if abs(z_mean[k]) > _MEAN_GATE:
                failures.append(f"mean(x_{k + 1}) off target: z = {z_mean[k]:+.2f} (gate {_MEAN_GATE})")
    return MomentValidation(
        passed=not failures,
        z_covariance=z_cov,
        z_mean=z_mean,
        failures=tuple(failures),
        warnings=tuple(warnings),
    )
