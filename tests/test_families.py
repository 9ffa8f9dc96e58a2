import math

import numpy as np
import pytest

from conftest import covariance_by_quadrature
from ddmnet import (
    FamilySpec,
    GraphValidationError,
    ModelParams,
    analytic_covariance,
    certainty_spectral,
    classify,
    closed_form_covariance,
    closed_form_mu,
    laplacian,
    make_family,
    parse_family_spec,
    path_spectrum,
    spectral_decompose,
)
from ddmnet.graph import MAX_NODES

PARAMS = ModelParams()


class TestMakeFamily:
    def test_complete_laplacian_form(self):
        lap = laplacian(make_family(FamilySpec("complete", 3)))
        assert np.array_equal(lap, 3 * np.eye(3) - np.ones((3, 3)))

    def test_path_is_tridiagonal(self):
        lap = laplacian(make_family(FamilySpec("undirected_path", 4)))
        expected = np.array([
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
        ])
        assert np.array_equal(lap, expected)

    def test_exploding_star_blocks(self):
        lap = laplacian(make_family(FamilySpec("exploding_star", 3)))
        assert np.array_equal(lap[0], [2.0, -1.0, -1.0])
        assert np.array_equal(lap[1:], np.zeros((2, 3)))

    def test_imploding_star_blocks(self):
        lap = laplacian(make_family(FamilySpec("imploding_star", 3)))
        assert np.array_equal(lap, [[0.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])

    def test_star_center_degree(self):
        profile = classify(make_family(FamilySpec("undirected_star", 9, 2.0)))
        assert profile.out_degree[0] == 16.0
        assert profile.out_degree[1:] == (2.0,) * 8

    def test_directed_ring_profile(self):
        profile = classify(make_family(FamilySpec("directed_ring", 5)))
        assert profile.strongly_connected and profile.balanced and profile.normal_laplacian

    def test_circulant_offsets(self):
        g = make_family(FamilySpec("circulant", 6, 1.0, offsets=(1, 3)))
        lap = laplacian(g)
        assert np.allclose(np.diag(lap), 2.0)
        # circulant structure: row k is row 0 rotated by k
        for k in range(6):
            assert np.array_equal(lap[k], np.roll(lap[0], k))

    def test_ring_needs_three_nodes(self):
        with pytest.raises(GraphValidationError):
            FamilySpec("undirected_ring", 2)

    def test_order_beyond_the_node_cap_is_refused_before_building(self):
        # the edge list of a ring this large would not fit in memory
        with pytest.raises(GraphValidationError) as err:
            parse_family_spec(f"directed_ring:{10**11}:1")
        assert str(err.value) == (f"node count n exceeds the cap of {MAX_NODES} nodes "
                                  f"for dense n x n matrices, got {10**11}")
        assert FamilySpec("directed_ring", MAX_NODES).n == MAX_NODES

    def test_circulant_offset_validation(self):
        with pytest.raises(GraphValidationError):
            FamilySpec("circulant", 4, offsets=(4,))
        with pytest.raises(GraphValidationError):
            FamilySpec("circulant", 4, offsets=(1, 5))

    def test_parse_spec(self):
        spec = parse_family_spec("circulant(1,3):8:1.5")
        assert spec == FamilySpec("circulant", 8, 1.5, offsets=(1, 3))
        assert parse_family_spec("complete:9:1") == FamilySpec("complete", 9, 1.0)

    def test_parse_spec_errors(self):
        for bad in ("complete:9", "ring:x:1", "complete:9:one", "circulant(1:9:1"):
            with pytest.raises(GraphValidationError):
                parse_family_spec(bad)


class TestClosedFormMu:
    def test_complete_nine(self):
        res = closed_form_mu(FamilySpec("complete", 9), sigma=1.0)
        assert np.allclose(res.mu, 20.25)

    def test_star_nine(self):
        res = closed_form_mu(FamilySpec("undirected_star", 9), sigma=1.0)
        assert res.mu[0] == pytest.approx(20.25, abs=1e-12)
        assert np.allclose(res.mu[1:], 1296 / 568)

    def test_star_center_equals_complete(self):
        for n in (2, 5, 9):
            star = closed_form_mu(FamilySpec("undirected_star", n), sigma=1.0)
            comp = closed_form_mu(FamilySpec("complete", n), sigma=1.0)
            assert star.mu[0] == pytest.approx(comp.mu[0], rel=1e-15)

    def test_star_leaf_ratio(self):
        for n in (3, 6, 9):
            res = closed_form_mu(FamilySpec("undirected_star", n), sigma=1.0)
            assert res.mu[1] == pytest.approx(res.mu[0] * (n - 1) / (n**2 - n - 1), rel=1e-12)

    def test_path_two_matches_complete_two(self):
        res = closed_form_mu(FamilySpec("undirected_path", 2), sigma=1.0)
        assert np.allclose(res.mu, 8.0)

    def test_path_symmetry_and_midpoint_max(self):
        for n in (5, 8, 9):
            res = closed_form_mu(FamilySpec("undirected_path", n), sigma=1.0)
            inv = np.asarray(res.inv_mu)
            assert np.allclose(inv, inv[::-1], atol=1e-12)
            best = np.argmin(inv)
            assert best in ((n - 1) // 2, n // 2)

    def test_path_center_matches_undirected_ring(self):
        path = closed_form_mu(FamilySpec("undirected_path", 9), sigma=1.0)
        ring = closed_form_mu(FamilySpec("undirected_ring", 9), sigma=1.0)
        assert min(path.inv_mu) == pytest.approx(ring.inv_mu[0], abs=1e-12)

    def test_circulant_all_equal(self):
        res = closed_form_mu(FamilySpec("circulant", 7, 1.0, offsets=(1, 3)), sigma=1.0)
        assert np.ptp(res.inv_mu) == 0.0

    def test_directed_ring_matches_spectral(self):
        spec = FamilySpec("directed_ring", 4)
        res = closed_form_mu(spec, sigma=1.0)
        rep = certainty_spectral(spectral_decompose(laplacian(make_family(spec))), PARAMS)
        assert np.allclose(res.inv_mu, rep.inv_mu, atol=1e-12)
        assert np.allclose(res.mu, 3.2)

    def test_normal_families_match_spectral_route(self):
        specs = [FamilySpec("complete", 6), FamilySpec("undirected_ring", 6, 2.0),
                 FamilySpec("directed_ring", 5, 0.5), FamilySpec("undirected_star", 7, 1.5),
                 FamilySpec("undirected_path", 6, 2.5),
                 FamilySpec("circulant", 8, 1.0, offsets=(1, 2))]
        for spec in specs:
            res = closed_form_mu(spec, sigma=1.3)
            rep = certainty_spectral(
                spectral_decompose(laplacian(make_family(spec))), ModelParams(sigma=1.3))
            assert np.allclose(res.inv_mu, rep.inv_mu, rtol=1e-9), spec

    def test_non_normal_families_flagged(self):
        for kind in ("exploding_star", "imploding_star"):
            res = closed_form_mu(FamilySpec(kind, 5), sigma=1.0)
            assert res.mu is None and not res.normal and not res.strongly_connected
            assert "not defined" in res.reason

    def test_star_ordering(self):
        for n in range(2, 10):
            res = closed_form_mu(FamilySpec("undirected_star", n), sigma=1.0)
            assert all(res.mu[0] >= m for m in res.mu)

    def test_single_node(self):
        res = closed_form_mu(FamilySpec("complete", 1), sigma=1.0)
        assert res.mu == (math.inf,) and res.inv_mu == (0.0,)


class TestClosedFormCovariance:
    @pytest.mark.parametrize("kind", ["complete", "undirected_star", "undirected_path",
                                      "exploding_star", "imploding_star"])
    def test_matches_quadrature_oracle(self, kind):
        for n in (3, 5):
            for alpha in (1.0, 5.0):
                spec = FamilySpec(kind, n, alpha)
                lap = laplacian(make_family(spec))
                for t in (0.1, 1.0):
                    ours = closed_form_covariance(spec, PARAMS, t)
                    oracle = covariance_by_quadrature(lap, 1.0, t)
                    assert np.abs(ours - oracle).max() < 1e-9, (kind, n, alpha, t)

    def test_rings_match_quadrature_oracle(self):
        for spec in (FamilySpec("undirected_ring", 5, 2.0), FamilySpec("directed_ring", 6),
                     FamilySpec("circulant", 7, 1.0, offsets=(1, 3))):
            lap = laplacian(make_family(spec))
            ours = closed_form_covariance(spec, PARAMS, 1.5)
            oracle = covariance_by_quadrature(lap, 1.0, 1.5)
            assert np.abs(ours - oracle).max() < 1e-9

    def test_matches_integrated_route_across_families(self):
        kinds = ("complete", "undirected_ring", "directed_ring", "circulant",
                 "undirected_star", "undirected_path", "exploding_star", "imploding_star")
        for kind in kinds:
            for n in range(2, 10):
                if kind in ("undirected_ring", "directed_ring") and n < 3:
                    continue
                offsets = (1, 2) if kind == "circulant" and n > 2 else (1,)
                spec = (FamilySpec(kind, n, offsets=offsets) if kind == "circulant"
                        else FamilySpec(kind, n))
                lap = laplacian(make_family(spec))
                for t in (0.1, 1.0, 5.0, 500.0):
                    gap = np.abs(closed_form_covariance(spec, PARAMS, t)
                                 - analytic_covariance(lap, PARAMS, t, "general")).max()
                    assert gap < 1e-6, (kind, n, t)

    def test_stars_match_general_route_to_roundoff(self):
        for kind in ("exploding_star", "imploding_star"):
            for n in (2, 4, 9):
                for alpha in (1.0, 5.0):
                    spec = FamilySpec(kind, n, alpha)
                    lap = laplacian(make_family(spec))
                    for t in (1e-6, 0.1, 1.0, 5.0, 500.0):
                        closed = closed_form_covariance(spec, PARAMS, t)
                        gap = np.abs(closed - analytic_covariance(lap, PARAMS, t, "general")).max()
                        assert gap <= 1e-12 * np.abs(closed).max(), (kind, n, alpha, t)

    def test_zero_time(self):
        assert np.all(closed_form_covariance(FamilySpec("complete", 4), PARAMS, 0.0) == 0.0)

    def test_imploding_star_values(self):
        spec = FamilySpec("imploding_star", 5)
        cov = closed_form_covariance(spec, PARAMS, 2.0)
        assert cov[0, 0] == pytest.approx(2.0)
        leaf = 2.0 + 2 * math.exp(-2.0) - math.exp(-4.0) - 1.0
        assert np.allclose(np.diag(cov)[1:], leaf)
        assert leaf == pytest.approx(1.2524, abs=5e-5)

    def test_imploding_star_order_independent(self):
        covs = {n: closed_form_covariance(FamilySpec("imploding_star", n), PARAMS, 2.0)
                for n in (3, 6, 9)}
        for n in (6, 9):
            assert covs[n][0, 0] == covs[3][0, 0]
            assert covs[n][1, 1] == covs[3][1, 1]
            assert covs[n][1, 0] == covs[3][1, 0]

    def test_exploding_star_leaves_isolated(self):
        spec = FamilySpec("exploding_star", 6, 2.0)
        cov = closed_form_covariance(spec, ModelParams(sigma=1.5), 3.0)
        assert np.all(np.diag(cov)[1:] == 1.5**2 * 3.0)

    def test_exploding_star_deterministic_average_limit(self):
        # for very strong coupling the center tracks the leaf average exactly
        n, alpha, t = 9, 1e3, 1.0
        cov = closed_form_covariance(FamilySpec("exploding_star", n, alpha), PARAMS, t)
        weights = np.zeros(n)
        weights[0] = 1.0
        weights[1:] = -1.0 / (n - 1)
        var_gap = float(weights @ cov @ weights)
        assert var_gap < 1e-2

    def test_sigma_scaling(self):
        spec = FamilySpec("undirected_star", 4)
        base = closed_form_covariance(spec, ModelParams(sigma=1.0), 2.0)
        scaled = closed_form_covariance(spec, ModelParams(sigma=3.0), 2.0)
        assert np.allclose(scaled, 9.0 * base, rtol=1e-15)

    def test_variance_accessor(self):
        res = closed_form_mu(FamilySpec("undirected_star", 5), sigma=1.0)
        var = res.variance(2.0)
        cov = closed_form_covariance(FamilySpec("undirected_star", 5), PARAMS, 2.0)
        assert np.array_equal(var, np.diag(cov))


class TestPathSpectrum:
    def test_three_node_eigenvalues(self):
        eigvals, _ = path_spectrum(3, 1.0)
        assert np.allclose(np.sort(eigvals), [0.0, 1.0, 3.0])

    def test_uniform_first_mode(self):
        _, vecs = path_spectrum(5, 1.0)
        assert np.allclose(vecs[:, 0], 1 / math.sqrt(5))

    def test_two_node_matches_complete(self):
        eigvals, _ = path_spectrum(2, 1.0)
        assert np.allclose(np.sort(eigvals), [0.0, 2.0])

    def test_eigenpair_residual_and_orthonormality(self):
        for n in (2, 5, 9):
            for alpha in (1.0, 2.5):
                lap = laplacian(make_family(FamilySpec("undirected_path", n, alpha)))
                eigvals, vecs = path_spectrum(n, alpha)
                res = np.linalg.norm(lap @ vecs - vecs * eigvals)
                assert res < 1e-9 * max(1.0, np.linalg.norm(lap))
                assert np.abs(vecs.T @ vecs - np.eye(n)).max() < 1e-10

    def test_variance_plateau_consistency(self):
        # diagonal of the covariance converges to sigma^2 t / n + 1/mu
        spec = FamilySpec("undirected_path", 5)
        res = closed_form_mu(spec, sigma=1.0)
        t = 40.0
        var = np.diag(closed_form_covariance(spec, PARAMS, t))
        assert np.abs(var - (t / 5 + np.asarray(res.inv_mu))).max() < 1e-9
