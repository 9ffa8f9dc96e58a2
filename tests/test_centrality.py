import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import centrality_report, random_connected_graph, random_tree
from ddmnet import (
    DisconnectedGraphError,
    ModelParams,
    PathCapExceededError,
    build_graph,
    certainty_spectral,
    certainty_via_centrality,
    enumerate_combined_paths,
    geodesic_closeness,
    information_matrix,
    information_scores,
    laplacian,
    naive_combined_information,
    rank_nodes,
    spectral_decompose,
)

PARAMS = ModelParams()


def undirected(n, pairs, w=1.0):
    edges = [(a, b, w) for a, b in pairs] + [(b, a, w) for a, b in pairs]
    return build_graph(n, edges)


@st.composite
def connected_weighted_graphs(draw):
    """Connected undirected graphs on at most 12 nodes: a random recursive
    tree plus any extra pairs, every edge weighted in [1e-3, 1e3]."""
    n = draw(st.integers(1, 12))
    pairs = {(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)}
    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    if all_pairs:
        pairs |= draw(st.sets(st.sampled_from(all_pairs)))
    edges = []
    for a, b in sorted(pairs):
        w = draw(st.floats(1e-3, 1e3))
        edges += [(a, b, w), (b, a, w)]
    return build_graph(n, edges)


def floyd_warshall(g):
    """All-pairs geodesic distances by min-plus relaxation over every intermediate node."""
    d = np.full((g.n, g.n), math.inf)
    np.fill_diagonal(d, 0.0)
    for k, j, w in g.edges:
        d[k - 1, j - 1] = 1.0 / w
    for m in range(g.n):
        d = np.minimum(d, d[:, m, None] + d[None, m, :])
    return d


class TestCloseness:
    def test_benchmark_table(self, benchmark_graph):
        _, closeness = geodesic_closeness(benchmark_graph)
        assert np.round(closeness, 2).tolist() == [1.0, 1.0, 0.83, 0.83, 0.83]
        assert closeness[2] == pytest.approx(5 / 6, abs=1e-15)

    def test_two_node(self):
        dist, closeness = geodesic_closeness(undirected(2, [(1, 2)]))
        assert dist[0, 1] == 1.0
        assert closeness == (2.0, 2.0)

    def test_path_three_center(self):
        _, closeness = geodesic_closeness(undirected(3, [(1, 2), (2, 3)]))
        assert closeness[1] == pytest.approx(1.5)
        assert closeness[0] == pytest.approx(1.0)

    def test_weighted_edge_lengths_are_inverse_weights(self):
        dist, _ = geodesic_closeness(undirected(2, [(1, 2)], w=4.0))
        assert dist[0, 1] == 0.25

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            geodesic_closeness(undirected(4, [(1, 2), (3, 4)]))

    @settings(deadline=None)
    @given(connected_weighted_graphs())
    def test_matches_floyd_warshall(self, g):
        dist, closeness = geodesic_closeness(g)
        expected = floyd_warshall(g)
        np.testing.assert_allclose(dist, expected, rtol=1e-12)
        sums = expected.sum(axis=1)
        np.testing.assert_allclose(closeness, [math.inf if s == 0 else g.n / s for s in sums],
                                   rtol=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = random_connected_graph(rng, 7)
            dist, _ = geodesic_closeness(g)
            for a in range(7):
                for b in range(7):
                    for c in range(7):
                        assert dist[a, b] <= dist[a, c] + dist[c, b] + 1e-12


class TestInformationMatrix:
    def test_two_node(self):
        info = information_matrix(laplacian(undirected(2, [(1, 2)])))
        assert np.allclose(info.x + 1.0 / 2**2, 0.5 * np.eye(2))  # C = X + 11^T / n^2
        assert info.information[0, 1] == pytest.approx(1.0)

    def test_group_inverse_shift_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            lap = laplacian(g)
            info = information_matrix(lap)
            x = np.linalg.pinv(lap)  # independent reference: an SVD, no Cholesky
            gap = np.abs(info.x - x).max()
            assert gap < 1e-9

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            information_matrix(laplacian(undirected(4, [(1, 2), (3, 4)])))

    def test_resistance_symmetry_and_positivity(self, benchmark_graph):
        info = information_matrix(laplacian(benchmark_graph))
        assert np.allclose(info.resistance, info.resistance.T)
        off = info.resistance[~np.eye(5, dtype=bool)]
        assert np.all(off > 0)


class TestInformationCentrality:
    def test_benchmark_harmonic_ordering(self, benchmark_graph):
        rep = centrality_report(benchmark_graph, "harmonic")
        k = rep.info_harmonic
        assert k[0] == pytest.approx(k[1], abs=1e-12)
        assert k[2] == pytest.approx(k[3], abs=1e-12)
        assert k[0] > k[2] > k[4]  # v4 above v5 under the harmonic variant
        assert rep.ranking == (1, 2, 3, 4, 5)

    def test_benchmark_arithmetic_flips_last_pair(self, benchmark_graph):
        rep = centrality_report(benchmark_graph, "arithmetic")
        a = rep.info_arithmetic
        assert a[4] > a[3]  # v5 above v4 under the arithmetic variant
        assert rep.ranking == (1, 2, 5, 3, 4)

    def test_exact_benchmark_values(self, benchmark_graph):
        rep = centrality_report(benchmark_graph)
        assert rep.info_harmonic[0] == pytest.approx(55 / 31, abs=1e-12)
        assert rep.info_harmonic[2] == pytest.approx(55 / 39, abs=1e-12)
        assert rep.info_harmonic[4] == pytest.approx(11 / 8, abs=1e-12)

    def test_tree_harmonic_equals_closeness(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_tree(rng, int(rng.integers(2, 12)))
            rep = centrality_report(g)
            assert np.allclose(rep.info_harmonic, rep.closeness, atol=1e-9, rtol=0)

    def test_single_node(self):
        rep = centrality_report(build_graph(1, []))
        assert rep.info_harmonic == (math.inf,)
        assert rep.ranking == (1,)

    def test_scale_covariance(self, benchmark_graph):
        scaled = build_graph(5, [(k, j, 3.0 * w) for k, j, w in benchmark_graph.edges])
        base = information_matrix(laplacian(benchmark_graph))
        more = information_matrix(laplacian(scaled))
        mask = ~np.eye(5, dtype=bool)
        assert np.allclose(more.information[mask], 3.0 * base.information[mask], rtol=1e-12)
        for variant in ("harmonic", "arithmetic"):
            assert (centrality_report(scaled, variant).ranking
                    == centrality_report(benchmark_graph, variant).ranking)
        assert (rank_nodes(centrality_report(scaled).closeness)
                == rank_nodes(centrality_report(benchmark_graph).closeness))

    def test_scores_match_the_report_exactly(self):
        rng = np.random.default_rng(77)
        graphs = [build_graph(1, [])] + [random_connected_graph(rng, int(n)) for n in rng.integers(2, 30, 12)]
        for g in graphs:
            harmonic, arithmetic = information_scores(information_matrix(laplacian(g)))
            for variant, scores in (("harmonic", harmonic), ("arithmetic", arithmetic)):
                rep = centrality_report(g, variant)
                assert rep.info_harmonic == harmonic
                assert rep.info_arithmetic == arithmetic
                assert rep.ranking == rank_nodes(scores)

    def test_report_computes_closeness_once(self, benchmark_graph, closeness_calls):
        centrality_report(benchmark_graph)
        assert closeness_calls == [5]


class TestCertaintyBridge:
    def test_benchmark_matches_spectral(self, benchmark_graph):
        lap = laplacian(benchmark_graph)
        spectral = certainty_spectral(spectral_decompose(lap), PARAMS)
        cent = centrality_report(benchmark_graph)
        bridge = certainty_via_centrality(cent.info_harmonic, spectral.kirchhoff_index, PARAMS, 5)
        assert bridge.route == "info-centrality"
        assert np.allclose(bridge.inv_mu, spectral.inv_mu, atol=1e-12)
        assert np.round(bridge.mu, 2).tolist() == [8.46, 8.46, 5.24, 5.24, 5.0]

    def test_identity_on_random_graphs(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            lap = laplacian(g)
            spectral = certainty_spectral(spectral_decompose(lap), PARAMS)
            cent = centrality_report(g)
            bridge = certainty_via_centrality(cent.info_harmonic, spectral.kirchhoff_index, PARAMS, g.n)
            assert max(abs(a - b) for a, b in zip(bridge.inv_mu, spectral.inv_mu)) <= 1e-9

    def test_ranking_equivalence(self):
        rng = np.random.default_rng(78)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            spectral = certainty_spectral(spectral_decompose(laplacian(g)), PARAMS)
            cent = centrality_report(g)
            assert rank_nodes(spectral.mu) == cent.ranking

    def test_star_center_certainty_from_bridge(self):
        g = undirected(3, [(1, 2), (1, 3)])
        spectral = certainty_spectral(spectral_decompose(laplacian(g)), PARAMS)
        cent = centrality_report(g)
        bridge = certainty_via_centrality(cent.info_harmonic, spectral.kirchhoff_index, PARAMS, 3)
        assert bridge.mu[0] == pytest.approx(9.0, abs=1e-9)

    def test_equal_scores_on_complete_graph(self):
        pairs = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
        g = undirected(6, pairs)
        cent = centrality_report(g)
        assert np.ptp(cent.info_harmonic) < 1e-12
        bridge = certainty_via_centrality(
            cent.info_harmonic,
            certainty_spectral(spectral_decompose(laplacian(g)), PARAMS).kirchhoff_index,
            PARAMS, 6)
        assert np.ptp(bridge.inv_mu) < 1e-12


class TestPathEnumeration:
    def test_benchmark_pair_one_four(self, benchmark_graph):
        bundle, oracle = enumerate_combined_paths(benchmark_graph, 1, 4)
        lengths = sorted(len(p) - 1 for p in bundle.paths)
        assert lengths == [1, 3, 4]
        assert oracle == pytest.approx(11 / 8, abs=1e-12)

    def test_benchmark_pair_one_five(self, benchmark_graph):
        bundle, oracle = enumerate_combined_paths(benchmark_graph, 1, 5)
        lengths = sorted(len(p) - 1 for p in bundle.paths)
        assert lengths == [1, 2, 4]
        assert oracle == pytest.approx(11 / 7, abs=1e-12)

    def test_benchmark_all_pairs_match_matrix(self, benchmark_graph):
        info = information_matrix(laplacian(benchmark_graph))
        for k in range(1, 6):
            for j in range(k + 1, 6):
                _, oracle = enumerate_combined_paths(benchmark_graph, k, j)
                assert abs(oracle - info.information[k - 1, j - 1]) < 1e-6

    def test_opposite_orientation_pairs_deviate_in_blind_combination(self, benchmark_graph):
        # pairs whose paths traverse a shared edge in opposite directions:
        # the orientation-blind combination overestimates the information
        info = information_matrix(laplacian(benchmark_graph))
        for pair in ((3, 5), (4, 5)):
            bundle, oracle = enumerate_combined_paths(benchmark_graph, *pair)
            blind = naive_combined_information(bundle)
            assert oracle == pytest.approx(info.information[pair[0] - 1, pair[1] - 1], abs=1e-12)
            assert blind == pytest.approx(6 / 7, abs=1e-12)
            assert abs(blind - oracle) > 1e-3

    def test_tree_single_path(self):
        rng = np.random.default_rng(5)
        g = random_tree(rng, 7)
        info = information_matrix(laplacian(g))
        dist, _ = geodesic_closeness(g)
        for k in range(1, 8):
            for j in range(k + 1, 8):
                bundle, oracle = enumerate_combined_paths(g, k, j)
                assert len(bundle.paths) == 1
                assert oracle == pytest.approx(1.0 / dist[k - 1, j - 1], rel=1e-12)
                assert naive_combined_information(bundle) == pytest.approx(oracle, rel=1e-12)
                assert abs(oracle - info.information[k - 1, j - 1]) < 1e-9

    def test_overlap_matrix_invariants(self, benchmark_graph):
        bundle, _ = enumerate_combined_paths(benchmark_graph, 3, 5)
        d = bundle.overlap
        assert np.allclose(d, d.T)
        assert np.all(d >= 0)
        for r in range(d.shape[0]):
            assert np.all(d[r, r] >= d[r])

    def test_node_cap(self, benchmark_graph):
        with pytest.raises(PathCapExceededError):
            enumerate_combined_paths(benchmark_graph, 1, 2, max_nodes=3)

    def test_path_cap(self, benchmark_graph):
        with pytest.raises(PathCapExceededError):
            enumerate_combined_paths(benchmark_graph, 1, 2, max_paths=2)

    def test_random_graph_oracle_agreement(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            info = information_matrix(laplacian(g))
            for k in range(1, g.n + 1):
                for j in range(k + 1, g.n + 1):
                    _, oracle = enumerate_combined_paths(g, k, j)
                    assert abs(oracle - info.information[k - 1, j - 1]) < 1e-6


class TestRankNodes:
    def test_simple_sort(self):
        assert rank_nodes((1.0, 3.0, 2.0)) == (2, 3, 1)

    def test_all_equal_breaks_by_index(self):
        assert rank_nodes((2.0, 2.0, 2.0, 2.0)) == (1, 2, 3, 4)

    def test_infinite_first(self):
        assert rank_nodes((1.0, math.inf, 5.0)) == (2, 3, 1)

    def test_float_noise_ties_collapse(self):
        assert rank_nodes((1.0 + 2e-13, 1.0, 1.0 - 2e-13)) == (1, 2, 3)

    @pytest.mark.parametrize("scale", [2.0**-40, 1e-9, 1.0, 1e9, 2.0**40])
    def test_rounding_is_relative_to_the_largest_score(self, scale):
        assert rank_nodes((scale, 3.0 * scale, 2.0 * scale)) == (2, 3, 1)
        assert rank_nodes((scale * (1.0 - 2e-13), scale, scale * (1.0 + 2e-13))) == (1, 2, 3)
        assert rank_nodes((scale, math.inf, 5.0 * scale)) == (2, 3, 1)

    def test_benchmark_mu_order(self, benchmark_graph):
        rep = certainty_spectral(spectral_decompose(laplacian(benchmark_graph)), PARAMS)
        assert rank_nodes(rep.mu) == (1, 2, 3, 4, 5)
