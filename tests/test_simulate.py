import ctypes
import functools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddmnet.blasthreads as blasthreads
import ddmnet.simulate as simulate_module
from ddmnet import (
    DdmnetError,
    ModelParams,
    SimConfig,
    StepCapError,
    UnstableStepError,
    analytic_covariance,
    build_graph,
    empirical_moments,
    laplacian,
    simulate_ensemble,
    validate_moments,
)
from ddmnet.config import DEFAULT_TOL

PARAMS = ModelParams(beta=1.0, sigma=1.0)


def single_node():
    return build_graph(1, [])


def imploding_star(n):
    return build_graph(n, [(k, 1, 1.0) for k in range(2, n + 1)])


def step_loop_sums(g, cfg):
    """Moment sums of plain per-step Euler-Maruyama on the simulator's streams.

    The reference for the blocked panels: one product per step, drift and
    scaled noise added each step, each trajectory reading n normals per step
    from its own SFC64 stream.
    """
    lap = laplacian(g)
    h = cfg.step
    step_matrix_t = (np.eye(g.n) - h * lap).T
    gens = [np.random.Generator(np.random.SFC64(np.random.SeedSequence((cfg.seed, i))))
            for i in range(cfg.trajectories)]
    sample_steps = [cfg.step_index(t) for t in cfg.sample_times]
    sums = np.zeros((len(sample_steps), g.n))
    outers = np.zeros((len(sample_steps), g.n, g.n))
    x = np.zeros((cfg.trajectories, g.n))
    for step in range(cfg.total_steps + 1):
        if step > 0:
            noise = np.array([gen.standard_normal(g.n) for gen in gens])
            x = x @ step_matrix_t + cfg.params.beta * h + cfg.params.sigma * math.sqrt(h) * noise
        for idx, s in enumerate(sample_steps):
            if s == step:
                sums[idx] += x.sum(axis=0)
                outers[idx] += x.T @ x
    return sums, outers


def assert_close_per_sample(blocked, loop, rtol):
    """Each sample time's sums agree to rtol relative to their largest entry."""
    for b, ref in zip(blocked, loop):
        assert np.abs(b - ref).max() <= rtol * np.abs(ref).max()


class TestConfig:
    def test_sample_time_must_be_on_grid(self):
        with pytest.raises(ValueError, match="step grid"):
            SimConfig(PARAMS, t_max=1.0, step=0.01, trajectories=10, seed=0,
                      sample_times=(0.005,))

    def test_t_max_must_cover_samples(self):
        with pytest.raises(ValueError, match="t_max"):
            SimConfig(PARAMS, t_max=1.0, step=0.01, trajectories=10, seed=0,
                      sample_times=(2.0,))

    def test_duplicate_sample_times_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SimConfig(PARAMS, t_max=1.0, step=0.01, trajectories=10, seed=0,
                      sample_times=(0.5, 0.5))

    def test_needs_two_trajectories(self):
        with pytest.raises(ValueError):
            SimConfig(PARAMS, t_max=1.0, step=0.01, trajectories=1, seed=0, sample_times=(1.0,))

    def test_steps_beyond_the_cap_rejected(self):
        # builds configurations only: 1e12 steps per trajectory would never finish
        with pytest.raises(StepCapError, match="cap"):
            SimConfig(PARAMS, t_max=1e9, step=1e-3, trajectories=10, seed=0, sample_times=(1e9,))
        with pytest.raises(StepCapError, match="cap"):  # the step count overflows a float
            SimConfig(PARAMS, t_max=1e300, step=1e-10, trajectories=10, seed=0,
                      sample_times=(1e300,))
        cap = simulate_module.MAX_STEPS
        at_cap = SimConfig(PARAMS, t_max=cap, step=1.0, trajectories=10, seed=0,
                           sample_times=(float(cap),))
        assert at_cap.total_steps == cap

    def test_step_guard(self, benchmark_graph):
        cfg = SimConfig(PARAMS, t_max=1.0, step=0.05, trajectories=4, seed=0, sample_times=(1.0,))
        # ||L||_inf = 6 for the benchmark, so the guard is 0.1/6 ~ 0.0167
        with pytest.raises(UnstableStepError):
            simulate_ensemble(benchmark_graph, cfg)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, benchmark_graph):
        cfg = SimConfig(PARAMS, t_max=0.5, step=0.01, trajectories=300, seed=42,
                        sample_times=(0.25, 0.5))
        a = simulate_ensemble(benchmark_graph, cfg)
        b = simulate_ensemble(benchmark_graph, cfg)
        assert np.array_equal(a.sums, b.sums)
        assert np.array_equal(a.outers, b.outers)

    def test_worker_count_does_not_change_results(self, benchmark_graph):
        # > 1 chunk so the parallel path actually splits the work
        cfg = SimConfig(PARAMS, t_max=0.2, step=0.01, trajectories=2200, seed=7,
                        sample_times=(0.2,))
        serial = simulate_ensemble(benchmark_graph, cfg, workers=1)
        for parallel in (simulate_ensemble(benchmark_graph, cfg, workers=3),
                         simulate_ensemble(benchmark_graph, cfg)):  # default: usable CPUs
            assert np.array_equal(serial.sums, parallel.sums)
            assert np.array_equal(serial.outers, parallel.outers)

    def test_worker_count_does_not_change_full_panels(self, benchmark_graph):
        # 250-step panels make the products' inner dimension 1250, long
        # enough for OpenBLAS to round it differently on one thread and on
        # several; the in-process run must match the one-thread pool workers
        cfg = SimConfig(PARAMS, t_max=0.5, step=1e-3, trajectories=2100, seed=8,
                        sample_times=(0.5,))
        serial = simulate_ensemble(benchmark_graph, cfg, workers=1)
        parallel = simulate_ensemble(benchmark_graph, cfg, workers=2)
        assert np.array_equal(serial.sums, parallel.sums)
        assert np.array_equal(serial.outers, parallel.outers)

    @pytest.mark.parametrize("panel", [7, 250, 1000])
    @pytest.mark.parametrize("case", ["benchmark", "single_node", "n_above_batch"])
    def test_blocked_panels_match_the_step_loop(self, benchmark_graph, monkeypatch, panel, case):
        # the panel length sets the summation order of each panel's product,
        # so results move at roundoff with it; against the plain step loop on
        # the same streams they agree to 1e-12. Sample steps cut spans short
        # (7, 243, ...), t = 0 is sampled, and panels of 1000 cover each span
        # between samples whole.
        graph, step, trajectories = {
            "benchmark": (benchmark_graph, 1e-3, 40),
            "single_node": (single_node(), 1e-3, 3),
            "n_above_batch": (build_graph(12, [(k, k % 12 + 1, 1.0 + k / 10) for k in range(1, 13)]
                                      + [(k, (k + 4) % 12 + 1, 0.5) for k in range(1, 13, 3)]),
                          1e-2, 5),
        }[case]
        times = tuple(step * s for s in (0, 7, 250, 600))
        cfg = SimConfig(PARAMS, t_max=times[-1], step=step, trajectories=trajectories, seed=3,
                        sample_times=times)
        monkeypatch.setattr(simulate_module, "PANEL_STEPS", panel)
        paths = []
        monkeypatch.setattr(simulate_module, "_takes_steps",
                            lambda *args: paths.append(REAL_TAKES_STEPS(*args)) or paths[-1])
        blocked = simulate_ensemble(graph, cfg, workers=1)
        # n >= batch / 2 steps one product at a time; the others stack panels
        assert paths == [case == "n_above_batch"]
        sums, outers = step_loop_sums(graph, cfg)
        assert np.all(blocked.sums[0] == 0.0) and np.all(blocked.outers[0] == 0.0)
        assert_close_per_sample(blocked.sums, sums, 1e-12)
        assert_close_per_sample(blocked.outers, outers, 1e-12)

    def test_worker_count_does_not_change_mixed_paths(self):
        # 2100 trajectories on 40 nodes: two full chunks of 1024 stack panels
        # and the remainder chunk of 52 steps, in the pool and in-process alike
        n = 40
        graph = build_graph(n, [(k, k % n + 1, 1.0 + k / 10) for k in range(1, n + 1)]
                            + [(k, (k + 9) % n + 1, 0.5) for k in range(1, n + 1, 3)])
        cfg = SimConfig(PARAMS, t_max=0.025, step=1e-3, trajectories=2100, seed=4,
                        sample_times=(0.01, 0.025))
        assert not simulate_module._takes_steps(n, 1024)
        assert simulate_module._takes_steps(n, 52)
        serial = simulate_ensemble(graph, cfg, workers=1)
        parallel = simulate_ensemble(graph, cfg, workers=2)
        assert np.array_equal(serial.sums, parallel.sums)
        assert np.array_equal(serial.outers, parallel.outers)

    def test_seeds_below_the_trajectory_count_draw_distinct_streams(self, benchmark_graph):
        # a stream key that mixes seed and trajectory index into one integer
        # (seed XOR i) gives seeds 0, 1 and 6 the same 1024 streams in another
        # order, so their sums agree to roundoff
        sums = [simulate_ensemble(benchmark_graph,
                                  SimConfig(PARAMS, t_max=0.5, step=0.01, trajectories=1024,
                                            seed=seed, sample_times=(0.5,)), workers=1).sums
                for seed in (0, 1, 6)]
        for other in sums[1:]:
            assert np.abs(other - sums[0]).max() > 1e-6 * np.abs(sums[0]).max()

    def test_different_seeds_differ(self, benchmark_graph):
        cfg_a = SimConfig(PARAMS, t_max=0.1, step=0.01, trajectories=50, seed=1, sample_times=(0.1,))
        cfg_b = SimConfig(PARAMS, t_max=0.1, step=0.01, trajectories=50, seed=2, sample_times=(0.1,))
        a = simulate_ensemble(benchmark_graph, cfg_a)
        b = simulate_ensemble(benchmark_graph, cfg_b)
        assert not np.array_equal(a.sums, b.sums)


REAL_TAKES_STEPS = simulate_module._takes_steps


@st.composite
def panel_cases(draw):
    """A random digraph's M = (I - hL)^T at verify's h ||L||_inf = 0.05, the h = min(0.01,
    0.05 / ||L||_inf) of verify's drift and noise, a batch, a span, sigma, beta and a seed
    for the normals."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    edges = [(k, j, float(10.0 ** rng.uniform(-3, 3))) for k in range(1, n + 1) for j in range(1, n + 1)
             if k != j and rng.random() < density]
    lap = laplacian(build_graph(n, edges))
    norm_inf = float(np.abs(lap).sum(axis=1).max())
    h = 0.01 if norm_inf == 0.0 else min(0.01, 0.05 / norm_inf)
    span = draw(st.integers(1, simulate_module.PANEL_STEPS))
    return ((np.eye(n) - (0.05 / norm_inf if norm_inf else 0.0) * lap).T, h, draw(st.integers(1, 64)), span,
            draw(st.floats(2.0**-20, 1e150)), draw(st.floats(-1e300, 1e300)), rng)


class TestPanelIdentity:
    """The identity behind the blocked panels, which verify's
    simulation-panel-vs-steps check tests: S steps x <- x M + sigma sqrt(h) xi + beta h
    equal x M^S + [xi_0 ... xi_{S-1}] K + beta h S."""

    @settings(max_examples=80, deadline=None)
    @given(case=panel_cases())
    @pytest.mark.filterwarnings("error")
    def test_panel_helper_matches_the_step_helper(self, case):
        step_matrix_t, h, batch, span, sigma, beta, rng = case
        n = step_matrix_t.shape[0]
        noise_scale, drift = sigma * math.sqrt(h), beta * h
        operator = simulate_module._panel_operator(step_matrix_t, span, noise_scale)
        x_panel = x_steps = np.zeros((batch, n))
        # two panels, so that x M^S acts on a nonzero state
        for noise in rng.standard_normal((2, batch, span * n)):
            x_panel = simulate_module._advance_panel(x_panel, noise, operator, drift, span)
            x_steps = simulate_module._advance_steps(x_steps, noise, step_matrix_t, noise_scale, drift)
        gap = np.abs(x_panel - x_steps).max()
        assert gap <= DEFAULT_TOL.panel_vs_steps_rtol * np.abs(x_steps).max()


class TestPathRule:
    # the measured crossover sits near 2n = batch at spans 20 and 250 alike
    @pytest.mark.parametrize("n,batch,steps", [
        (5, 1024, False),  # the montecarlo chunks
        (5, 64, False),  # 64 trajectories on the five-node fixture
        (31, 64, False),
        (32, 64, True),  # 64 trajectories step from n = 32 on
        (100, 64, True),
        (100, 1024, False),
        (511, 1024, False),
        (512, 1024, True),
        (5, 10, True),  # a remainder chunk of at most 2n trajectories
        (5, 11, False),
        (1, 3, False),
        (1, 2, True),
    ])
    def test_rule_table(self, n, batch, steps):
        assert simulate_module._takes_steps(n, batch) is steps


def numpy_seed_states(seed, lo, hi):
    return np.array([np.random.SeedSequence((seed, i)).generate_state(3, np.uint64)
                     for i in range(lo, hi)])


class TestStreamSeeding:
    """`_stream_states` against numpy's own SeedSequence, without simulating."""

    @pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 11])
    @pytest.mark.parametrize("lo,hi", [(0, 64), (1024, 2048), (2**32 - 1024, 2**32),
                                       (2**32, 2**32 + 1024)])
    @pytest.mark.filterwarnings("error")
    def test_states_match_numpy(self, seed, lo, hi):
        assert np.array_equal(simulate_module._stream_states(seed, lo, hi),
                              numpy_seed_states(seed, lo, hi))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**200), chunk=st.integers(0, 2**23 + 10),
           offset=st.integers(0, 1023), count=st.integers(1, 40))
    def test_drawn_seeds_and_chunks_match_numpy(self, seed, chunk, offset, count):
        # within one chunk of CHUNK_TRAJECTORIES, as the simulator asks
        size = simulate_module.CHUNK_TRAJECTORIES
        lo = chunk * size + offset
        hi = min(lo + count, (chunk + 1) * size)
        assert np.array_equal(simulate_module._stream_states(seed, lo, hi),
                              numpy_seed_states(seed, lo, hi))

    def test_a_range_across_two_to_the_32_is_refused(self):
        with pytest.raises(ValueError, match="word count"):
            simulate_module._stream_states(7, 2**32 - 1, 2**32 + 1)

    @pytest.mark.parametrize("seed,lo", [(1234, 0), (2**64 + 7, 2**32 - 2), (0, 2**32)])
    def test_first_normals_match_numpy_streams(self, seed, lo):
        gens = simulate_module._stream_generators(seed, lo, lo + 2)
        for i, gen in zip(range(lo, lo + 2), gens):
            ref = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, i))))
            assert np.array_equal(gen.standard_normal(1000), ref.standard_normal(1000))


def numpy_blas_threads() -> int | None:
    """Thread count of numpy's own OpenBLAS copy, or None where none is mapped."""
    lib = blasthreads._numpy_openblas()
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


REAL_CHUNK = simulate_module._simulate_chunk


def chunk_recording_blas_threads(out_dir, *args):
    """`_simulate_chunk` that first writes numpy's BLAS thread count to out_dir/<pid>."""
    (out_dir / str(os.getpid())).write_text(str(numpy_blas_threads()))
    return REAL_CHUNK(*args)


class TestBlasThreads:
    def test_chunks_run_numpy_blas_on_one_thread_and_the_caller_keeps_its_pool(
            self, benchmark_graph, monkeypatch, tmp_path):
        before = numpy_blas_threads()
        if before is None:
            pytest.skip("no numpy-bundled OpenBLAS is mapped here")
        monkeypatch.setattr(simulate_module, "_simulate_chunk",
                            functools.partial(chunk_recording_blas_threads, tmp_path))
        # 3 chunks on 2 pool workers, then the same run in this process
        cfg = SimConfig(PARAMS, t_max=0.1, step=0.01, trajectories=2100, seed=5, sample_times=(0.1,))
        pooled = simulate_ensemble(benchmark_graph, cfg, workers=2)
        workers = {p.name: int(p.read_text()) for p in tmp_path.iterdir()}
        assert workers and str(os.getpid()) not in workers
        assert set(workers.values()) == {1}
        assert numpy_blas_threads() == before
        serial = simulate_ensemble(benchmark_graph, cfg, workers=1)
        assert int((tmp_path / str(os.getpid())).read_text()) == 1
        assert numpy_blas_threads() == before
        assert np.array_equal(pooled.outers, serial.outers)


class TestWorkerCount:
    """Pool sizing only; none of these start a process."""

    def test_default_is_usable_cpus_capped_at_chunks(self):
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert simulate_module._worker_count(None, 10_000) == usable
        assert simulate_module._worker_count(None, 1) == 1

    def test_default_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert simulate_module._worker_count(None, 3) == 3
        assert simulate_module._worker_count(None, 100) == 8

    def test_default_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert simulate_module._worker_count(None, 100) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulate_module._worker_count(None, 100) == 1

    def test_explicit_count_is_capped_at_chunks(self):
        assert simulate_module._worker_count(64, 2) == 2
        assert simulate_module._worker_count(1, 5) == 1
        assert simulate_module._worker_count(3, 5) == 3
        assert simulate_module._worker_count(0, 5) == 1


class TestMoments:
    def test_hand_computed_two_trajectory_moments(self):
        # two trajectories landing at 0 and 2 give mean 1, variance 2
        ens_cfg = SimConfig(PARAMS, t_max=0.01, step=0.01, trajectories=2, seed=0,
                            sample_times=(0.01,))
        ens = simulate_ensemble(single_node(), ens_cfg)
        forced = type(ens)(n=1, config=ens_cfg,
                           sums=np.array([[2.0]]), outers=np.array([[[4.0]]]))
        rep = empirical_moments(forced, 0.01)
        assert rep.mean[0] == 1.0
        assert rep.covariance[0, 0] == 2.0

    @pytest.mark.filterwarnings("error")
    def test_standard_errors_scale_exactly_past_the_square_range(self, benchmark_graph):
        # the unscaled formula, finite at unit noise, gives the same bits; scaling every
        # outer product by 2^1000 scales the standard errors by 2^1000 exactly, where
        # the squared variances alone would overflow
        cfg = SimConfig(PARAMS, t_max=1.0, step=0.01, trajectories=64, seed=5, sample_times=(1.0,))
        ens = simulate_ensemble(benchmark_graph, cfg)
        rep = empirical_moments(ens, 1.0)
        var, m = np.diag(rep.covariance), cfg.trajectories
        unscaled = np.sqrt((np.outer(var, var) + rep.covariance**2) / (m - 1))
        np.fill_diagonal(unscaled, np.sqrt(2.0 / (m - 1)) * np.abs(var))
        assert np.array_equal(rep.se_covariance, unscaled)
        big = type(ens)(n=ens.n, config=cfg, sums=2.0**500 * ens.sums, outers=2.0**1000 * ens.outers)
        assert np.array_equal(empirical_moments(big, 1.0).se_covariance, 2.0**1000 * unscaled)

    @pytest.mark.filterwarnings("error")
    def test_standard_errors_beyond_the_float_range_name_sigma(self):
        # two trajectories at 0 and +-1.3e154 sqrt(2): the variance 1.69e308 is finite, its
        # standard error sqrt(2) times that is not
        cfg = SimConfig(ModelParams(sigma=1e154), t_max=0.01, step=0.01, trajectories=2, seed=0,
                        sample_times=(0.01,))
        ens = simulate_ensemble(single_node(), cfg)
        forced = type(ens)(n=1, config=cfg, sums=np.zeros((1, 1)), outers=np.array([[[1.69e308]]]))
        with pytest.raises(DdmnetError, match=r"^the simulated moments at t = 0\.01 overflow double "
                                              r"precision: sigma = 1e\+154 is too large$"):
            empirical_moments(forced, 0.01)

    @pytest.mark.filterwarnings("error")
    def test_zero_spread_at_t_zero_is_no_error(self, benchmark_graph):
        # every state starts at zero, so the variances at t = 0 are zero, not lost
        cfg = SimConfig(PARAMS, t_max=0.1, step=0.01, trajectories=8, seed=0, sample_times=(0.0, 0.1))
        rep = empirical_moments(simulate_ensemble(benchmark_graph, cfg), 0.0)
        assert not rep.covariance.any() and not rep.se_covariance.any() and not rep.se_mean.any()

    def test_unknown_sample_time(self, benchmark_graph):
        cfg = SimConfig(PARAMS, t_max=0.1, step=0.01, trajectories=10, seed=0, sample_times=(0.1,))
        ens = simulate_ensemble(benchmark_graph, cfg)
        with pytest.raises(ValueError, match="not recorded"):
            empirical_moments(ens, 0.05)

    def test_single_node_mean_and_variance(self):
        m = 100_000
        cfg = SimConfig(PARAMS, t_max=2.0, step=0.01, trajectories=m, seed=11, sample_times=(2.0,))
        rep = empirical_moments(simulate_ensemble(single_node(), cfg), 2.0)
        se_mean = rep.se_mean[0]
        assert abs(rep.mean[0] - 2.0) < 3 * se_mean
        se_var = rep.se_covariance[0, 0]
        assert abs(rep.covariance[0, 0] - 2.0) < 3 * se_var

    def test_imploding_star_moments(self):
        g = imploding_star(3)
        cfg = SimConfig(PARAMS, t_max=2.0, step=0.005, trajectories=20000, seed=3,
                        sample_times=(2.0,))
        rep = empirical_moments(simulate_ensemble(g, cfg), 2.0)
        leaf = 2.0 + 2 * math.exp(-2.0) - math.exp(-4.0) - 1.0
        assert abs(rep.covariance[0, 0] - 2.0) < 3 * rep.se_covariance[0, 0]
        for k in (1, 2):
            assert abs(rep.covariance[k, k] - leaf) < 3 * rep.se_covariance[k, k]


class TestValidation:
    def test_self_target_passes_with_zero_z(self, benchmark_graph):
        cfg = SimConfig(PARAMS, t_max=0.2, step=0.01, trajectories=200, seed=5, sample_times=(0.2,))
        rep = empirical_moments(simulate_ensemble(benchmark_graph, cfg), 0.2)
        validation = validate_moments(rep, rep.covariance, target_mean=rep.mean)
        assert validation.passed
        assert np.all(validation.z_covariance == 0.0)
        assert np.all(validation.z_mean == 0.0)

    def test_analytic_target_passes(self, benchmark_graph):
        # one run at the default gates fails by chance with p ~ 0.015, so 20
        # seeds run and at most 2 may fail: by chance that happens ~0.3 % of
        # the time, and an offset of 2 standard errors trips it more often
        # than it trips one run
        target = analytic_covariance(laplacian(benchmark_graph), PARAMS, 1.0)
        failed = {}
        for seed in range(20):
            cfg = SimConfig(PARAMS, t_max=1.0, step=0.005, trajectories=20000, seed=seed,
                            sample_times=(1.0,))
            rep = empirical_moments(simulate_ensemble(benchmark_graph, cfg), 1.0)
            validation = validate_moments(rep, target, target_mean=np.full(5, 1.0))
            if not validation.passed:
                failed[seed] = validation.failures
        assert len(failed) <= 2, failed

    def test_wrong_target_fails_at_separated_time(self, benchmark_graph):
        # sigma^2 t is the isolated-unit variance: at t = 5 every connected
        # node sits far below it, so it must be rejected
        cfg = SimConfig(PARAMS, t_max=5.0, step=0.01, trajectories=5000, seed=23,
                        sample_times=(5.0,))
        rep = empirical_moments(simulate_ensemble(benchmark_graph, cfg), 5.0)
        wrong = 5.0 * np.eye(5)
        validation = validate_moments(rep, wrong)
        assert not validation.passed

    def test_variance_within_envelope_bounds(self, benchmark_graph):
        cfg = SimConfig(PARAMS, t_max=2.0, step=0.01, trajectories=5000, seed=29,
                        sample_times=(2.0,))
        rep = empirical_moments(simulate_ensemble(benchmark_graph, cfg), 2.0)
        lower, upper = 2.0 / 5, 2.0
        for k in range(5):
            se = rep.se_covariance[k, k]
            assert rep.covariance[k, k] > lower - 3 * se
            assert rep.covariance[k, k] < upper + 3 * se

    def test_shape_mismatch_rejected(self, benchmark_graph):
        cfg = SimConfig(PARAMS, t_max=0.1, step=0.01, trajectories=10, seed=0, sample_times=(0.1,))
        rep = empirical_moments(simulate_ensemble(benchmark_graph, cfg), 0.1)
        with pytest.raises(ValueError):
            validate_moments(rep, np.eye(3))


class TestMeanTopologyIndependence:
    def test_means_equal_beta_t_for_varied_graphs(self, benchmark_graph):
        graphs = [benchmark_graph, imploding_star(4),
                  build_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])]
        for g in graphs:
            cfg = SimConfig(ModelParams(beta=0.7, sigma=1.0), t_max=1.0, step=0.01,
                            trajectories=8000, seed=31, sample_times=(1.0,))
            rep = empirical_moments(simulate_ensemble(g, cfg), 1.0)
            for k in range(g.n):
                assert abs(rep.mean[k] - 0.7) < 3 * rep.se_mean[k]

class TestEmptySampleTimes:
    def test_header_only_configuration(self):
        cfg = SimConfig(PARAMS, t_max=1.0, step=0.01, trajectories=4, seed=0, sample_times=())
        ens = simulate_ensemble(single_node(), cfg)
        assert ens.sums.shape == (0, 1)
        assert cfg.total_steps == 0


class TestWeakOrderConvergence:
    def test_halving_step_moves_variance_less_than_two_errors(self, benchmark_graph):
        # same trajectory budget, steps h and h/2: the discretization shift of
        # Var(x_1(5)) must be buried in the Monte Carlo error
        reports = {}
        for step in (4e-3, 2e-3):
            cfg = SimConfig(PARAMS, t_max=5.0, step=step, trajectories=100_000, seed=314,
                            sample_times=(5.0,))
            reports[step] = empirical_moments(simulate_ensemble(benchmark_graph, cfg), 5.0)
        a, b = reports[4e-3], reports[2e-3]
        se = math.hypot(a.se_covariance[0, 0], b.se_covariance[0, 0])
        assert abs(a.covariance[0, 0] - b.covariance[0, 0]) < 2 * se
