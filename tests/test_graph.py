import json

import numpy as np
import pytest

from ddmnet import (
    GraphFormatError,
    GraphValidationError,
    build_graph,
    classify,
    graph_from_dict,
    graph_to_dict,
    laplacian,
    laplacian_row_residual,
    load_graph,
    mirror_graph,
    permute_graph,
)
from ddmnet.graph import MAX_NODES


def undirected(n, pairs, w=1.0):
    edges = [(a, b, w) for a, b in pairs] + [(b, a, w) for a, b in pairs]
    return build_graph(n, edges)


class TestBuildGraph:
    def test_benchmark_edge_set(self, benchmark_graph):
        assert benchmark_graph.n == 5
        forward = {(k, j) for k, j, _ in benchmark_graph.edges if k < j}
        assert forward == {(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)}

    def test_single_node(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.edges == ()

    def test_node_count_up_to_the_dense_cap(self):
        # no n x n matrix is built here, so the cap is tested without allocating one
        g = build_graph(MAX_NODES, [(1, MAX_NODES, 1.0)])
        assert g.n == MAX_NODES and g.edges == ((1, MAX_NODES, 1.0),)
        with pytest.raises(GraphValidationError) as err:
            build_graph(MAX_NODES + 1, [])
        assert str(err.value) == (f"node count n exceeds the cap of {MAX_NODES} nodes "
                                  f"for dense n x n matrices, got {MAX_NODES + 1}")

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphValidationError):
            build_graph(2, [(1, 2, -1.0)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphValidationError):
            build_graph(3, [(2, 2, 1.0)])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(GraphValidationError):
            build_graph(3, [(1, 4, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphValidationError):
            build_graph(3, [(1, 2, 1.0), (1, 2, 2.0)])

    def test_rejects_zero_weight(self):
        with pytest.raises(GraphValidationError):
            build_graph(2, [(1, 2, 0.0)])

    @pytest.mark.parametrize("exponent", [400, 5000])
    def test_rejects_integer_weight_beyond_float_range(self, exponent):
        # 10**5000 has more digits than an int may convert to a string, so the message cannot repr it
        with pytest.raises(GraphValidationError) as err:
            build_graph(2, [(1, 2, 1.0), (2, 1, 10**exponent)])
        assert str(err.value) == "edge (2, 1): weight is an integer beyond the float range"

    def test_edge_holding_an_unprintable_integer_names_the_edge(self):
        # an int past the 4300-digit conversion limit has no repr, so the message shows a placeholder
        with pytest.raises(GraphValidationError) as err:
            build_graph(2, [(1.5, 2, 10**5000)])
        assert str(err.value) == "edge (1.5, 2, <int too long to print>): node indices must be integers"
        with pytest.raises(GraphValidationError) as err:
            build_graph(2, [(1, 2, 10**5000, 4)])
        assert str(err.value) == ("edge (1, 2, <int too long to print>, 4) "
                                  "is not a (source, target, weight) triple")

    def test_rejects_overflowing_degree_naming_the_node(self):
        with pytest.raises(GraphValidationError, match="node 1: weighted out-degree"):
            build_graph(3, [(1, 2, 1e308), (1, 3, 1e308)])
        with pytest.raises(GraphValidationError, match="node 3: weighted in-degree"):
            build_graph(3, [(1, 3, 1e308), (2, 3, 1e308)])

    def test_large_weights_on_separate_nodes_accepted(self):
        # the total weight overflows, but no single degree does
        g = build_graph(4, [(1, 2, 1e308), (3, 4, 1e308)])
        assert np.isfinite(np.diag(laplacian(g))).all()


class TestLaplacian:
    def test_two_node(self):
        g = undirected(2, [(1, 2)])
        assert np.array_equal(laplacian(g), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_three_node_star(self):
        g = undirected(3, [(1, 2), (1, 3)])
        expected = np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.array_equal(laplacian(g), expected)

    def test_imploding_star_rows(self):
        g = build_graph(3, [(2, 1, 1.0), (3, 1, 1.0)])
        expected = np.array([[0.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.array_equal(laplacian(g), expected)

    def test_row_sums_exactly_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            edges = []
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    if k != j and rng.random() < 0.4:
                        edges.append((k, j, float(rng.uniform(0.1, 3.0))))
            g = build_graph(n, edges)
            assert np.all(laplacian_row_residual(laplacian(g)) == 0.0)


class TestClassify:
    def test_undirected_is_normal_and_balanced(self, benchmark_graph):
        profile = classify(benchmark_graph)
        assert profile.normal_laplacian
        assert profile.balanced
        assert profile.strongly_connected
        assert profile.out_degree == (3.0, 3.0, 2.0, 2.0, 2.0)
        assert profile.in_degree == (3.0, 3.0, 2.0, 2.0, 2.0)

    def test_directed_ring_is_normal(self):
        g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0)])
        profile = classify(g)
        assert profile.strongly_connected and profile.balanced and profile.normal_laplacian

    def test_exploding_star_not_strongly_connected(self):
        g = build_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
        profile = classify(g)
        assert not profile.strongly_connected
        assert not profile.balanced
        assert not profile.normal_laplacian

    def test_normal_implies_balanced(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            edges = []
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    if k != j and rng.random() < 0.4:
                        edges.append((k, j, float(rng.uniform(0.1, 3.0))))
            profile = classify(build_graph(n, edges))
            if profile.normal_laplacian:
                assert profile.balanced

    def test_permutation_equivariance(self, benchmark_graph):
        rng = np.random.default_rng(5)
        perm = tuple(int(v) for v in rng.permutation(5) + 1)
        permuted = permute_graph(benchmark_graph, perm)
        base = classify(benchmark_graph)
        other = classify(permuted)
        assert other.balanced == base.balanced
        assert other.strongly_connected == base.strongly_connected
        assert other.normal_laplacian == base.normal_laplacian
        for k in range(5):
            assert other.out_degree[perm[k] - 1] == base.out_degree[k]
            assert other.in_degree[perm[k] - 1] == base.in_degree[k]


class TestMirror:
    def test_undirected_fixed_point(self, benchmark_graph):
        assert mirror_graph(benchmark_graph) == benchmark_graph

    def test_idempotent(self):
        g = build_graph(4, [(1, 2, 2.0), (2, 3, 1.0), (3, 4, 0.5), (4, 1, 1.5)])
        m = mirror_graph(g)
        assert mirror_graph(m) == m

    def test_directed_ring_becomes_half_weight_triangle(self):
        g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)])
        m = mirror_graph(g)
        assert m.is_undirected()
        weights = {(k, j): w for k, j, w in m.edges}
        assert weights == {
            (1, 2): 0.5, (2, 1): 0.5, (2, 3): 0.5, (3, 2): 0.5, (1, 3): 0.5, (3, 1): 0.5,
        }

    def test_exploding_star_becomes_half_weight_star(self):
        g = build_graph(3, [(1, 2, 1.0), (1, 3, 1.0)])
        m = mirror_graph(g)
        weights = {(k, j): w for k, j, w in m.edges}
        assert weights == {(1, 2): 0.5, (2, 1): 0.5, (1, 3): 0.5, (3, 1): 0.5}

    def test_laplacian_is_symmetric_part_for_balanced(self):
        # undirected graphs and circulant digraphs are balanced
        rng = np.random.default_rng(17)
        graphs = []
        for _ in range(10):
            n = int(rng.integers(2, 8))
            edges = []
            for k in range(1, n + 1):
                for j in range(k + 1, n + 1):
                    if rng.random() < 0.5:
                        w = float(rng.uniform(0.1, 3.0))
                        edges.append((k, j, w))
                        edges.append((j, k, w))
            graphs.append(build_graph(n, edges))
        graphs.append(build_graph(5, [(k, k % 5 + 1, 1.5) for k in range(1, 6)]))
        for g in graphs:
            lap = laplacian(g)
            lap_mirror = laplacian(mirror_graph(g))
            scale = max(1.0, float(np.abs(lap).max()))
            assert np.allclose(lap_mirror, (lap + lap.T) / 2.0, atol=1e-13 * scale, rtol=0)

    def test_mirror_weights_average_both_directions(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            edges = []
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    if k != j and rng.random() < 0.5:
                        edges.append((k, j, float(rng.uniform(0.1, 3.0))))
            g = build_graph(n, edges)
            a = g.adjacency()
            m = mirror_graph(g).adjacency()
            assert np.allclose(m, (a + a.T) / 2.0, atol=1e-15, rtol=0)


class TestGraphFiles:
    def test_fixture_file_is_benchmark(self, benchmark_graph):
        assert load_graph("fixtures/five_node_benchmark.json") == benchmark_graph

    def test_undirected_expansion(self):
        g = graph_from_dict({"n": 2, "edges": [[1, 2, 1.0]], "undirected": True})
        assert g.is_undirected()
        assert len(g.edges) == 2

    def test_round_trip(self, benchmark_graph):
        assert graph_from_dict(graph_to_dict(benchmark_graph)) == benchmark_graph

    def test_malformed_weight_names_edge(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "edges": [[1, 2, "x"]], "undirected": False}))
        with pytest.raises(GraphFormatError, match="edge #1"):
            load_graph(str(path))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2,\n  "edges": [[1, 2,]]}')
        with pytest.raises(GraphFormatError, match="line"):
            load_graph(str(path))

    def test_missing_file(self):
        with pytest.raises(GraphFormatError, match="cannot read"):
            load_graph("no/such/file.json")

    def test_item_holding_an_unprintable_integer_names_the_item(self):
        with pytest.raises(GraphFormatError) as err:
            graph_from_dict({"n": 2, "edges": [[1.5, 2, 10**5000]]})
        assert str(err.value) == "edge #1 [1.5, 2, <int too long to print>]: node indices must be integers"

    def test_unknown_field_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown fields"):
            graph_from_dict({"n": 1, "edges": [], "weighted": True})
