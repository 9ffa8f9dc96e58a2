"""Acceptance suite: one test per criterion, each timed against its stated
budget and reported as a PASS/FAIL line in the terminal summary.

Criterion 1 checks the five-node benchmark table against the exact values,
mu = (110/13, 110/13, 110/21, 110/21, 5) = (8.46, 8.46, 5.24, 5.24, 5.00)
to two decimals, which every route and Monte Carlo reproduce. The historical
reference table prints (8.33, 8.33, 5.26, 5.26, 5.00) instead: it was made by
rounding the diagonal of (L + 11^T)^-1 to two decimals (0.28, 0.42, 0.44)
before evaluating 1/mu_k = (C_kk - 1/n^2) / 2, which gives exactly 25/3,
100/19 and 5. Criterion 1 rebuilds that column from the rounded diagonal, so
the table's provenance is checked rather than left as a standing failure.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import centrality_report, random_connected_graph, random_tree, record_acceptance
from ddmnet import (
    FamilySpec,
    ModelParams,
    SimConfig,
    analytic_covariance,
    certainty_group_inverse,
    certainty_spectral,
    certainty_via_centrality,
    classify,
    closed_form_covariance,
    closed_form_mu,
    empirical_moments,
    enumerate_combined_paths,
    five_node_benchmark,
    geodesic_closeness,
    information_matrix,
    laplacian,
    make_family,
    mirror_graph,
    rank_nodes,
    simulate_ensemble,
    spectral_covariance,
    spectral_decompose,
)
from ddmnet.cli import main as cli_main

PARAMS = ModelParams(beta=1.0, sigma=1.0)


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        record_acceptance(name, False, time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    over = elapsed >= budget_seconds
    record_acceptance(name, not over, elapsed, f"over budget ({budget_seconds:g} s)" if over else "")
    assert not over, f"{name} took {elapsed:.1f}s (budget {budget_seconds}s)"


def test_criterion_1_benchmark_table():
    """Five-node benchmark: degree, closeness and certainty columns to 2 decimals."""
    with criterion("1 benchmark table (degree, closeness, mu)", 1.0):
        g = five_node_benchmark()
        profile = classify(g)
        assert profile.out_degree == (3.0, 3.0, 2.0, 2.0, 2.0)
        _, closeness = geodesic_closeness(g)
        assert np.round(closeness, 2).tolist() == [1.0, 1.0, 0.83, 0.83, 0.83]
        lap = laplacian(g)
        rep = certainty_spectral(spectral_decompose(lap), PARAMS)
        assert np.round(rep.mu, 2).tolist() == [8.46, 8.46, 5.24, 5.24, 5.0]

        # Exact values. The benchmark's effective resistances have row sums
        # r = (31, 31, 39, 39, 40)/11 and Kirchhoff index K_f = 90/11. The
        # group-inverse diagonal is X_kk = r_k/n - K_f/n^2, so with sigma = 1
        # 1/mu_k = X_kk/2 = (5 r_k - K_f)/50 = (13, 13, 21, 21, 22)/110.
        exact_mu = (110 / 13, 110 / 13, 110 / 21, 110 / 21, 5.0)
        assert max(abs(a - b) for a, b in zip(rep.mu, exact_mu)) <= 1e-12

        # The paper's point: nodes 3, 4 and 5 tie on degree and on closeness,
        # yet node 5 is the least certain of them.
        assert len(set(profile.out_degree[2:])) == 1
        assert np.ptp(closeness[2:]) <= 1e-12
        assert rep.mu[2] == pytest.approx(rep.mu[3], abs=1e-12)
        assert rep.mu[3] > rep.mu[4]

        # Provenance of the historical column (8.33, 8.33, 5.26, 5.26, 5.00):
        # the diagonal of C = (L + 11^T)^-1, exactly (76, 76, 116, 116, 121)/275,
        # rounded to two decimals before 1/mu_k = (C_kk - 1/n^2)/2 is applied.
        c_diag = np.diag(np.linalg.inv(lap + np.ones_like(lap)))
        assert np.abs(c_diag - np.array([76, 76, 116, 116, 121]) / 275).max() <= 1e-12
        rounded_inv_mu = (np.round(c_diag, 2) - 1.0 / g.n**2) / 2.0
        assert np.round(1.0 / rounded_inv_mu, 2).tolist() == [8.33, 8.33, 5.26, 5.26, 5.0]


def test_criterion_2_centrality_certainty_identity():
    """Per-node identity and ranking equivalence on 100 random connected graphs."""
    with criterion("2 certainty == centrality identity on 100 random graphs", 10.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            g = random_connected_graph(rng, n, w_lo=0.5, w_hi=2.0)
            lap = laplacian(g)
            spectral = certainty_spectral(spectral_decompose(lap), PARAMS)
            cent = centrality_report(g)
            bridge = certainty_via_centrality(cent.info_harmonic, spectral.kirchhoff_index,
                                              PARAMS, n)
            gap = max(abs(a - b) for a, b in zip(spectral.inv_mu, bridge.inv_mu))
            assert gap <= 1e-9
            assert rank_nodes(spectral.mu) == cent.ranking


def test_criterion_3_route_triangle():
    """Spectral, group-inverse and centrality routes agree pairwise at 1e-9."""
    with criterion("3 route triangle on normal strongly connected graphs", 30.0):
        graphs = [five_node_benchmark(),
                  make_family(FamilySpec("complete", 5)),
                  make_family(FamilySpec("undirected_ring", 6, 2.0)),
                  make_family(FamilySpec("directed_ring", 5)),
                  make_family(FamilySpec("circulant", 7, 1.0, offsets=(1, 2))),
                  make_family(FamilySpec("undirected_star", 6)),
                  make_family(FamilySpec("undirected_path", 5, 0.7))]
        rng = np.random.default_rng(33)
        graphs += [random_connected_graph(rng, int(rng.integers(2, 10))) for _ in range(20)]
        for g in graphs:
            lap = laplacian(g)
            spectral = certainty_spectral(spectral_decompose(lap), PARAMS)
            mirror_lap = (lap + lap.T) / 2.0
            group = certainty_group_inverse(information_matrix(mirror_lap).x, PARAMS)
            cent = centrality_report(mirror_graph(g))
            bridge = certainty_via_centrality(cent.info_harmonic, group.kirchhoff_index,
                                              PARAMS, g.n)
            for a, b in ((spectral, group), (spectral, bridge), (group, bridge)):
                gap = max(abs(x - y) / max(1.0, abs(x), abs(y))
                          for x, y in zip(a.inv_mu, b.inv_mu))
                assert gap <= 1e-9, (a.route, b.route)


def test_criterion_4_closed_form_values():
    """Closed-form family certainties against the generic spectral route."""
    with criterion("4 closed-form family values", 1.0):
        comp = closed_form_mu(FamilySpec("complete", 9), sigma=1.0)
        assert np.allclose(comp.mu, 20.25, atol=1e-9)
        star = closed_form_mu(FamilySpec("undirected_star", 9), sigma=1.0)
        assert star.mu[0] == pytest.approx(20.25, abs=1e-9)
        assert np.allclose(star.mu[1:], 1296 / 568, atol=1e-9)
        path2 = closed_form_mu(FamilySpec("undirected_path", 2), sigma=1.0)
        assert np.allclose(path2.mu, 8.0, atol=1e-9)
        circ = closed_form_mu(FamilySpec("circulant", 8, 1.0, offsets=(1, 3)), sigma=1.0)
        assert np.ptp(circ.inv_mu) <= 1e-12
        for spec, closed in (
            (FamilySpec("complete", 9), comp),
            (FamilySpec("undirected_star", 9), star),
            (FamilySpec("undirected_path", 2), path2),
            (FamilySpec("circulant", 8, 1.0, offsets=(1, 3)), circ),
        ):
            generic = certainty_spectral(spectral_decompose(laplacian(make_family(spec))), PARAMS)
            assert max(abs(a - b) for a, b in zip(closed.inv_mu, generic.inv_mu)) <= 1e-9


def test_criterion_5_family_covariances_vs_integration():
    """Closed-form covariances match the integrated route at 1e-6 over the sweep."""
    with criterion("5 closed-form vs integrated covariance sweep", 30.0):
        for kind in ("complete", "undirected_star", "undirected_path",
                     "exploding_star", "imploding_star"):
            for n in (3, 5, 9):
                for alpha in (1.0, 5.0):
                    spec = FamilySpec(kind, n, alpha)
                    lap = laplacian(make_family(spec))
                    for t in (0.1, 1.0, 5.0):
                        gap = np.abs(closed_form_covariance(spec, PARAMS, t)
                                     - analytic_covariance(lap, PARAMS, t)).max()
                        assert gap < 1e-6, (kind, n, alpha, t, gap)


def test_criterion_6_path_oracle_and_tree_equivalence():
    """Path-enumeration information vs matrix information; trees reduce to closeness."""
    with criterion("6 path oracle on 50 trees and the benchmark", 60.0):
        rng = np.random.default_rng(66)
        for _ in range(50):
            g = random_tree(rng, int(rng.integers(2, 11)))
            info = information_matrix(laplacian(g))
            for k in range(1, g.n + 1):
                for j in range(k + 1, g.n + 1):
                    _, oracle = enumerate_combined_paths(g, k, j)
                    assert abs(oracle - info.information[k - 1, j - 1]) <= 1e-6
            rep = centrality_report(g)
            assert np.abs(np.asarray(rep.info_harmonic) - np.asarray(rep.closeness)).max() <= 1e-9
        bench = five_node_benchmark()
        info = information_matrix(laplacian(bench))
        for k in range(1, 6):
            for j in range(k + 1, 6):
                _, oracle = enumerate_combined_paths(bench, k, j)
                assert abs(oracle - info.information[k - 1, j - 1]) <= 1e-6


def test_criterion_7_monte_carlo_validation():
    """Desk-scale reproduction: empirical variances, means, and the dispersion plateau."""
    with criterion("7 Monte Carlo validation of the benchmark", 300.0):
        g = five_node_benchmark()
        lap = laplacian(g)
        spectral = certainty_spectral(spectral_decompose(lap), PARAMS)
        group = certainty_group_inverse(information_matrix(lap).x, PARAMS)

        # variance and mean gates at the mandated step
        cfg_a = SimConfig(PARAMS, t_max=5.0, step=1e-3, trajectories=100_000, seed=20240601,
                          sample_times=(5.0,))
        moments = empirical_moments(simulate_ensemble(g, cfg_a), 5.0)
        target = spectral_covariance(spectral_decompose(lap), PARAMS, 5.0)
        for k in range(5):
            z = (moments.covariance[k, k] - target[k, k]) / moments.se_covariance[k, k]
            assert abs(z) <= 4.0, f"node {k + 1} variance z-score {z:.2f}"
            z_mean = (moments.mean[k] - 5.0) / moments.se_mean[k]
            assert abs(z_mean) <= 3.0, f"node {k + 1} mean z-score {z_mean:.2f}"

        # dispersion plateau at M = 1e6; a coarser step keeps the run inside
        # the budget (discretization bias ~ h * Re(lambda) / 2 < 1.2%)
        cfg_b = SimConfig(PARAMS, t_max=5.0, step=5e-3, trajectories=1_000_000, seed=20240602,
                          sample_times=(3.0, 4.0, 5.0))
        ens = simulate_ensemble(g, cfg_b)
        gaps = np.zeros((3, 5))
        for i, t in enumerate((3.0, 4.0, 5.0)):
            rep = empirical_moments(ens, t)
            gaps[i] = np.diag(rep.covariance) - t / 5.0
        plateau = gaps.mean(axis=0)
        for k in range(5):
            # settles the group-inverse constant: (sigma^2/2) X_kk, not x2 or /2
            assert abs(plateau[k] - group.inv_mu[k]) <= 0.1 * group.inv_mu[k], (
                f"node {k + 1}: plateau {plateau[k]:.4f} vs 1/mu {group.inv_mu[k]:.4f}")
            assert abs(plateau[k] - spectral.inv_mu[k]) <= 0.1 * spectral.inv_mu[k]


def test_criterion_8_non_normal_stars():
    """Exploding/imploding star behavior: order independence, isolation, strong coupling."""
    with criterion("8 exploding and imploding star behavior", 30.0):
        # imploding star: identical node variances for every order
        refs = closed_form_covariance(FamilySpec("imploding_star", 3), PARAMS, 2.0)
        for n in (6, 9):
            cov = closed_form_covariance(FamilySpec("imploding_star", n), PARAMS, 2.0)
            assert abs(cov[0, 0] - refs[0, 0]) <= 1e-9
            assert abs(cov[1, 1] - refs[1, 1]) <= 1e-9

        # exploding star: leaves are exactly isolated units
        for n in (3, 6, 9):
            cov = closed_form_covariance(FamilySpec("exploding_star", n), PARAMS, 2.0)
            assert all(v == 2.0 for v in np.diag(cov)[1:])

        # exploding star center variance against a re-derived expression
        for n in (3, 6, 9):
            for t in (1.0, 5.0):
                alpha = 1.0
                b = (n - 1) * alpha
                expected = (-2.0 / (b * (n - 1)) + t / (n - 1)
                            + 2.0 * math.exp(-b * t) / (b * (n - 1))
                            + n * (1.0 - math.exp(-2.0 * b * t)) / (2.0 * b * (n - 1)))
                cov = closed_form_covariance(FamilySpec("exploding_star", n, alpha), PARAMS, t)
                assert abs(cov[0, 0] - expected) <= 1e-9
                integrated = analytic_covariance(
                    laplacian(make_family(FamilySpec("exploding_star", n, alpha))),
                    PARAMS, t)
                assert abs(cov[0, 0] - integrated[0, 0]) <= 1e-6

        # strong coupling pins the center to the leaf average
        n = 9
        cov = closed_form_covariance(FamilySpec("exploding_star", n, 1e3), PARAMS, 1.0)
        w = np.full(n, -1.0 / (n - 1))
        w[0] = 1.0
        assert float(w @ cov @ w) < 1e-2


def test_criterion_9_centrality_variant_ranking_flip():
    """The two information-centrality variants order v4 and v5 oppositely."""
    with criterion("9 harmonic vs arithmetic ranking of v4/v5", 1.0):
        g = five_node_benchmark()
        harmonic = centrality_report(g, "harmonic")
        arithmetic = centrality_report(g, "arithmetic")
        assert harmonic.ranking.index(4) < harmonic.ranking.index(5)
        assert arithmetic.ranking.index(5) < arithmetic.ranking.index(4)


def test_criterion_10_simulation_determinism(tmp_path):
    """Byte-identical simulate reports regardless of worker count."""
    with criterion("10 simulate determinism across worker counts", 60.0):
        args = ["simulate", "fixtures/five_node_benchmark.json", "--t-max", "0.5",
                "--step", "0.01", "--trajectories", "2200", "--seed", "99",
                "--sample-times", "0.25,0.5"]
        out1 = tmp_path / "w1.json"
        out2 = tmp_path / "w2.json"
        out4 = tmp_path / "w4.json"
        out_default = tmp_path / "default.json"
        assert cli_main(args + ["--workers", "1", "--output", str(out1)]) == 0
        assert cli_main(args + ["--workers", "2", "--output", str(out2)]) == 0
        assert cli_main(args + ["--workers", "4", "--output", str(out4)]) == 0
        assert cli_main(args + ["--output", str(out_default)]) == 0
        assert (out1.read_bytes() == out2.read_bytes() == out4.read_bytes()
                == out_default.read_bytes())
        report = json.loads(out1.read_text())
        assert report["passed"]
