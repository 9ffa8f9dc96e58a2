import math

import numpy as np
import pytest

from conftest import covariance_by_quadrature, effective_resistance_by_solve, random_connected_graph
from ddmnet import (
    FamilySpec,
    ModelParams,
    NotNormalError,
    NotStronglyConnectedError,
    analytic_covariance,
    build_graph,
    certainty_group_inverse,
    certainty_spectral,
    closed_form_covariance,
    covariance_curves,
    dispersion_summary,
    information_matrix,
    laplacian,
    make_family,
    mirror_graph,
    permute_graph,
    propagator,
    spectral_decompose,
    variance_envelope,
)
from ddmnet.errors import DisconnectedGraphError, GraphValidationError

PARAMS = ModelParams(beta=1.0, sigma=1.0)

# expected benchmark dispersion, frozen from the independent group-inverse
# oracle (numpy pinv of the mirror Laplacian): exact rationals k/110
BENCHMARK_INV_MU = (13 / 110, 13 / 110, 21 / 110, 21 / 110, 22 / 110)


def undirected(n, pairs, w=1.0):
    edges = [(a, b, w) for a, b in pairs] + [(b, a, w) for a, b in pairs]
    return build_graph(n, edges)


def directed_ring(n, w=1.0):
    return build_graph(n, [(k, k % n + 1, w) for k in range(1, n + 1)])


class TestSpectralDecompose:
    def test_two_node(self):
        data = spectral_decompose(laplacian(undirected(2, [(1, 2)])))
        assert np.allclose(data.eigenvalues, [0.0, 2.0])
        assert np.allclose(np.abs(data.vectors[:, 1]), 1 / math.sqrt(2))
        assert np.allclose(data.vectors[:, 0], 1 / math.sqrt(2))

    def test_path_three_eigenvalues(self):
        g = undirected(3, [(1, 2), (2, 3)])
        data = spectral_decompose(laplacian(g))
        assert np.allclose(np.sort(data.eigenvalues.real), [0.0, 1.0, 3.0], atol=1e-12)

    def test_directed_ring_real_parts(self):
        data = spectral_decompose(laplacian(directed_ring(4)))
        assert np.allclose(np.sort(data.eigenvalues.real), [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_rejects_non_normal(self):
        g = build_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])  # exploding star
        with pytest.raises((NotNormalError, NotStronglyConnectedError)):
            spectral_decompose(laplacian(g))

    def test_rejects_disconnected(self):
        g = undirected(4, [(1, 2), (3, 4)])
        with pytest.raises(NotStronglyConnectedError):
            spectral_decompose(laplacian(g))

    def test_rejects_disjoint_directed_rings(self):
        # normal (two circulant blocks), so only the connectivity test can reject it
        lap = np.kron(np.eye(2), laplacian(directed_ring(3)))
        with pytest.raises(NotStronglyConnectedError):
            spectral_decompose(lap)

    def test_rejects_positive_off_diagonal(self):
        lap = -laplacian(directed_ring(3))  # normal, with +1 off the diagonal
        with pytest.raises(GraphValidationError, match="not a valid Laplacian"):
            spectral_decompose(lap)

    def test_unitary_and_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            lap = laplacian(g)
            data = spectral_decompose(lap)
            gram = data.vectors.conj().T @ data.vectors
            assert np.abs(gram - np.eye(g.n)).max() < 1e-10
            res = np.linalg.norm(lap @ data.vectors - data.vectors * data.eigenvalues)
            assert res < 1e-9 * max(1.0, np.linalg.norm(lap))


class TestCertaintySpectral:
    def test_benchmark_values(self, benchmark_graph):
        rep = certainty_spectral(spectral_decompose(laplacian(benchmark_graph)), PARAMS)
        assert rep.route == "spectral"
        assert np.allclose(rep.inv_mu, BENCHMARK_INV_MU, atol=1e-12)
        assert np.round(rep.mu, 2).tolist() == [8.46, 8.46, 5.24, 5.24, 5.0]

    def test_benchmark_against_group_inverse_oracle(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        oracle = 0.5 * np.diag(np.linalg.pinv(lap, hermitian=True))
        rep = certainty_spectral(spectral_decompose(lap), PARAMS)
        assert np.allclose(rep.inv_mu, oracle, atol=1e-12)

    def test_complete_nine(self):
        pairs = [(a, b) for a in range(1, 10) for b in range(a + 1, 10)]
        rep = certainty_spectral(spectral_decompose(laplacian(undirected(9, pairs))), PARAMS)
        assert np.allclose(rep.mu, 20.25, atol=1e-12)

    def test_two_node_mu_eight(self):
        rep = certainty_spectral(spectral_decompose(laplacian(undirected(2, [(1, 2)]))), PARAMS)
        assert np.allclose(rep.mu, 8.0, atol=1e-12)

    def test_single_node_infinite(self):
        rep = certainty_spectral(spectral_decompose(laplacian(build_graph(1, []))), PARAMS)
        assert rep.mu == (math.inf,)
        assert rep.inv_mu == (0.0,)
        assert rep.total_dispersion == 0.0

    def test_sigma_scaling(self, benchmark_graph):
        data = spectral_decompose(laplacian(benchmark_graph))
        base = certainty_spectral(data, ModelParams(sigma=1.0))
        scaled = certainty_spectral(data, ModelParams(sigma=2.0))
        assert np.allclose(scaled.inv_mu, 4.0 * np.asarray(base.inv_mu))

    def test_circulant_equality(self):
        for g in (directed_ring(5), directed_ring(7, 1.3)):
            rep = certainty_spectral(spectral_decompose(laplacian(g)), PARAMS)
            assert np.ptp(rep.inv_mu) < 1e-12

    def test_permutation_equivariance(self, benchmark_graph):
        perm = (3, 5, 1, 2, 4)
        rep = certainty_spectral(spectral_decompose(laplacian(benchmark_graph)), PARAMS)
        rep_p = certainty_spectral(
            spectral_decompose(laplacian(permute_graph(benchmark_graph, perm))), PARAMS)
        for k in range(5):
            assert rep_p.inv_mu[perm[k] - 1] == pytest.approx(rep.inv_mu[k], abs=1e-12)


class TestGroupInverse:
    def test_two_node_value(self):
        # axioms PXP=P, XPX=X, PX=XP on [[1,-1],[-1,1]] force X = (1/4) * same
        x = information_matrix(laplacian(undirected(2, [(1, 2)]))).x
        assert np.allclose(x, np.array([[0.25, -0.25], [-0.25, 0.25]]), atol=1e-14)

    def test_annihilates_consensus(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            x = information_matrix(laplacian(g)).x
            assert np.abs(x @ np.ones(g.n)).max() < 1e-10
            assert np.abs(np.ones(g.n) @ x).max() < 1e-10

    def test_star_trace_is_kirchhoff_over_n(self):
        x = information_matrix(laplacian(undirected(3, [(1, 2), (1, 3)]))).x
        assert np.trace(x) == pytest.approx(4 / 3, abs=1e-12)

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            information_matrix(laplacian(undirected(4, [(1, 2), (3, 4)])))

    def test_route_matches_spectral(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        spectral = certainty_spectral(spectral_decompose(lap), PARAMS)
        group = certainty_group_inverse(information_matrix(lap).x, PARAMS)
        assert group.route == "group-inverse"
        assert np.allclose(group.inv_mu, spectral.inv_mu, rtol=1e-9)
        assert group.kirchhoff_index == pytest.approx(spectral.kirchhoff_index, rel=1e-12)

    def test_route_agreement_on_circulants(self):
        for g in (directed_ring(4), directed_ring(6, 0.7)):
            lap = laplacian(g)
            spectral = certainty_spectral(spectral_decompose(lap), PARAMS)
            group = certainty_group_inverse(
                information_matrix(laplacian(mirror_graph(g))).x, PARAMS)
            assert np.allclose(group.inv_mu, spectral.inv_mu, rtol=1e-9)


class TestAnalyticCovariance:
    def test_zero_time_is_zero(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        for mode in ("normal", "general"):
            assert np.all(analytic_covariance(lap, PARAMS, 0.0, mode) == 0.0)

    def test_single_node_is_sigma_squared_t(self):
        lap = laplacian(build_graph(1, []))
        cov = analytic_covariance(lap, PARAMS, 3.0, "general")
        assert cov.shape == (1, 1) and cov[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_imploding_star_variances(self):
        g = build_graph(3, [(2, 1, 1.0), (3, 1, 1.0)])
        cov = analytic_covariance(laplacian(g), PARAMS, 2.0, "general")
        leaf = 2.0 + 2 * math.exp(-2.0) - math.exp(-4.0) - 1.0
        assert cov[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert cov[1, 1] == pytest.approx(leaf, abs=1e-9)
        assert cov[2, 2] == pytest.approx(leaf, abs=1e-9)

    def test_modes_agree_on_normal_graphs(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        for t in (0.1, 1.0, 5.0):
            gap = np.abs(analytic_covariance(lap, PARAMS, t, "normal")
                         - analytic_covariance(lap, PARAMS, t, "general")).max()
            assert gap < 1e-6

    def test_general_mode_matches_quadrature_oracle(self):
        rng = np.random.default_rng(31)
        g = random_connected_graph(rng, 5)
        lap = laplacian(g)
        for t in (0.3, 1.7):
            oracle = covariance_by_quadrature(lap, 1.0, t)
            ours = analytic_covariance(lap, PARAMS, t, "general")
            assert np.abs(ours - oracle).max() < 1e-9

    def test_small_time_behaves_like_isolated_units(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        t = 1e-6
        for mode in ("normal", "general"):
            cov = analytic_covariance(lap, PARAMS, t, mode)
            assert np.abs(cov - t * np.eye(5)).max() < 1e-9

    def test_diagonal_within_envelope(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            lap = laplacian(g)
            for t in (0.5, 2.0, 5.0):
                _, lower, upper = variance_envelope(PARAMS, g.n, t)
                var = np.diag(analytic_covariance(lap, PARAMS, t, "general"))
                assert np.all(var >= lower - 1e-9)
                assert np.all(var <= upper + 1e-9)

    def test_large_time_plateau(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        rep = certainty_spectral(spectral_decompose(lap), PARAMS)
        t = 12.0  # e^{-2 lambda_2 t} ~ 4e-15: decay term below 1e-10
        var = np.diag(analytic_covariance(lap, PARAMS, t, "normal"))
        assert np.abs(var - (t / 5 + np.asarray(rep.inv_mu))).max() < 1e-9

    def test_rejects_negative_time(self, benchmark_graph):
        with pytest.raises(ValueError):
            analytic_covariance(laplacian(benchmark_graph), PARAMS, -1.0, "general")

    def test_psd_and_symmetric(self, benchmark_graph):
        cov = analytic_covariance(laplacian(benchmark_graph), PARAMS, 2.0, "general")
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-12

    def test_curves_grid_matches_pointwise(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        grid = covariance_curves(lap, PARAMS, 0.5, 6)
        for i, t in enumerate(0.5 * np.arange(6)):
            expected = np.diag(analytic_covariance(lap, PARAMS, float(t), "normal"))
            assert np.allclose(grid[i], expected, atol=1e-10)

    def test_curves_general_route(self):
        # non-normal stars; the second grid is the CLI's default, the third runs 2000 steps to t = 100
        for kind in ("exploding_star", "imploding_star"):
            spec = FamilySpec(kind, 4)
            lap = laplacian(make_family(spec))
            for t_step, count, oracle_every in ((0.5, 3, 1), (0.05, 101, 10), (0.05, 2001, 100)):
                grid = covariance_curves(lap, PARAMS, t_step, count)
                assert grid.shape == (count, 4)
                for i in range(count):
                    t = i * t_step
                    closed = np.diag(closed_form_covariance(spec, PARAMS, t))
                    assert np.abs(grid[i] - closed).max() <= 1e-12 * np.abs(closed).max(), (kind, t)
                    if i % oracle_every == 0:
                        oracle = np.diag(covariance_by_quadrature(lap, 1.0, t))
                        assert np.abs(grid[i] - oracle).max() < 1e-9, (kind, t)

    def test_curves_walk_matches_pointwise_on_the_cli_grid(self, benchmark_graph):
        # the CLI prints np.arange(0, t_max + 1e-12, t_step), which is exactly i * t_step
        times = np.arange(0.0, 5.0 + 1e-12, 0.05)
        assert np.array_equal(times, 0.05 * np.arange(101))
        ring = build_graph(6, [(1, 2, 1.0), (2, 3, 0.5), (3, 4, 2.0), (4, 5, 1.0), (5, 6, 1.5),
                               (6, 1, 1.0), (1, 4, 0.75), (3, 6, 1.25), (5, 2, 0.5)])
        params = ModelParams(beta=0.3, sigma=1.7)
        for g in (benchmark_graph, ring):
            lap = laplacian(g)
            grid = covariance_curves(lap, params, 0.05, times.size)
            for i, t in enumerate(times):
                pointwise = np.diag(analytic_covariance(lap, params, float(t), "general"))
                assert np.abs(grid[i] - pointwise).max() <= 1e-13 * np.abs(pointwise).max()

    def test_curves_compute_one_exponential_per_grid(self, benchmark_graph, expm_calls):
        lap = laplacian(benchmark_graph)
        grid = covariance_curves(lap, PARAMS, 0.05, 101)
        assert len(expm_calls) == 1
        expm_calls.clear()
        single = covariance_curves(lap, PARAMS, 0.05, 1)
        assert expm_calls == []
        assert single.shape == (1, 5) and not single.any() and not grid[0].any()

    def test_curves_reject_bad_grid(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        for t_step in (math.inf, -math.inf, math.nan, 0.0, -0.05):
            with pytest.raises(ValueError, match="t_step"):
                covariance_curves(lap, PARAMS, t_step, 3)
        for count in (0, -1):
            with pytest.raises(ValueError, match="count"):
                covariance_curves(lap, PARAMS, 0.05, count)

    def test_rejects_non_finite_time(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        for t in (math.inf, math.nan):
            for mode in ("normal", "general"):
                with pytest.raises(ValueError):
                    analytic_covariance(lap, PARAMS, t, mode)
            with pytest.raises(ValueError):
                closed_form_covariance(FamilySpec("complete", 5), PARAMS, t)


class TestPropagator:
    def test_row_stochastic(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        for t in (0.1, 1.0, 5.0):
            rows = propagator(lap, t).sum(axis=1)
            assert np.abs(rows - 1.0).max() < 1e-9

    def test_row_stochastic_non_normal(self):
        g = build_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
        rows = propagator(laplacian(g), 2.0).sum(axis=1)
        assert np.abs(rows - 1.0).max() < 1e-9


class TestEnvelopeAndDispersion:
    def test_mean_is_beta_t(self):
        mean, _, _ = variance_envelope(ModelParams(beta=1.0, sigma=1.0), 7, 2.0)
        assert mean == 2.0

    def test_bounds_values(self):
        _, lower, upper = variance_envelope(ModelParams(sigma=1.0), 5, 5.0)
        assert (lower, upper) == (1.0, 5.0)

    def test_single_node_degenerate(self):
        _, lower, upper = variance_envelope(ModelParams(sigma=2.0), 1, 3.0)
        assert lower == upper == 12.0

    def test_star_kirchhoff_matches_resistance_oracle(self):
        g = undirected(3, [(1, 2), (1, 3)])
        lap = laplacian(g)
        resistance_sum = sum(
            effective_resistance_by_solve(lap, a, b) for a in range(3) for b in range(a + 1, 3)
        )
        assert resistance_sum == pytest.approx(4.0, abs=1e-12)
        rep = certainty_spectral(spectral_decompose(lap), PARAMS)
        summary = dispersion_summary(rep, information_matrix(lap).kirchhoff_index)
        assert summary.kirchhoff_index == pytest.approx(4.0, abs=1e-9)

    def test_two_node_kirchhoff(self):
        g = undirected(2, [(1, 2)])
        lap = laplacian(g)
        assert effective_resistance_by_solve(lap, 0, 1) == pytest.approx(1.0)
        rep = certainty_spectral(spectral_decompose(lap), PARAMS)
        summary = dispersion_summary(rep, information_matrix(lap).kirchhoff_index)
        assert summary.kirchhoff_index == pytest.approx(1.0, abs=1e-12)

    def test_identity_residual_vanishes_on_undirected(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            lap = laplacian(g)
            rep = certainty_spectral(spectral_decompose(lap), PARAMS)
            summary = dispersion_summary(rep, information_matrix(lap).kirchhoff_index)
            assert summary.identity_residual < 1e-9

class TestGroupInverseCirculant:
    def test_circulant_diagonal_entries_equal(self):
        g = build_graph(6, [(k, k % 6 + 1, 1.0) for k in range(1, 7)])
        x = information_matrix(laplacian(mirror_graph(g))).x
        assert np.ptp(np.diag(x)) < 1e-12
