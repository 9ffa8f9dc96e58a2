"""The solve basis: one Cholesky factorization of the mirror Laplacian feeds
the group-inverse and info-centrality routes, the Kirchhoff index and the
path oracle's matrix side; the spectral route keeps its own eigensolver.
"""

import itertools
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import random_connected_graph
from ddmnet import (
    DEFAULT_TOL,
    DdmnetError,
    DisconnectedGraphError,
    ModelParams,
    build_graph,
    certainty_group_inverse,
    certainty_spectral,
    certainty_via_centrality,
    information_matrix,
    information_scores,
    laplacian,
    load_graph,
    mirror_graph,
    rank_nodes,
    spectral_decompose,
)
from ddmnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
UNDIRECTED60 = str(ROOT / "tests/data/undirected60.json")
FIXTURE = str(ROOT / "fixtures/five_node_benchmark.json")
PARAMS = ModelParams(sigma=1.3)
FACTORIZATIONS = ("eigh", "eigvalsh", "eig", "inv", "solve", "pinv", "cholesky", "svd")


@pytest.fixture
def linalg_calls(monkeypatch) -> Counter:
    """Count calls into numpy.linalg's dense factorizations and inverses."""
    calls: Counter = Counter()
    for name in FACTORIZATIONS:
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


# one eigh for the spectral route, one Cholesky (and the inverse of its
# triangular factor) for everything else; on the five-node fixture the path
# oracle adds one pinv and one orientation-blind inv per node pair
ORACLE_PAIRS = {"pinv": 10, "inv": 10}


@pytest.mark.parametrize("command,graph,expected", [
    ("analyze", UNDIRECTED60, {"eigh": 1, "cholesky": 1, "inv": 1}),
    ("analyze", FIXTURE, {"eigh": 1, "cholesky": 1, "inv": 1}),
    ("centrality", UNDIRECTED60, {"cholesky": 1, "inv": 1}),
    ("centrality", FIXTURE, {"cholesky": 1, "inv": 1 + ORACLE_PAIRS["inv"], "pinv": ORACLE_PAIRS["pinv"]}),
    ("verify", UNDIRECTED60, {"eigh": 1, "cholesky": 1, "inv": 1}),
    ("verify", FIXTURE, {"eigh": 1, "cholesky": 1, "inv": 1 + ORACLE_PAIRS["inv"], "pinv": ORACLE_PAIRS["pinv"]}),
])
def test_factorization_counts(command, graph, expected, linalg_calls, tmp_path, capsys):
    assert main([command, graph, "--output", str(tmp_path / "report")]) == 0
    capsys.readouterr()
    assert dict(linalg_calls) == expected


def scaled(g, k):
    """g with every weight multiplied by 2^k, which is exact."""
    return build_graph(g.n, [(a, b, w * 2.0**k) for a, b, w in g.edges])


def relative_gap(a, b) -> float:
    return max(abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b))


@pytest.mark.parametrize("k", [-30, -20, 0, 20, 30])
@pytest.mark.parametrize("path", [UNDIRECTED60, FIXTURE])
def test_routes_agree_at_any_weight_scale(path, k):
    base = load_graph(path)
    g = scaled(base, k)
    spectral = certainty_spectral(spectral_decompose(laplacian(g)), PARAMS)
    info = information_matrix(laplacian(mirror_graph(g)))
    group = certainty_group_inverse(info.x, PARAMS)
    harmonic, _ = information_scores(info)
    bridge = certainty_via_centrality(harmonic, info.kirchhoff_index, PARAMS, g.n)
    for a, b in itertools.combinations((spectral, group, bridge), 2):
        assert relative_gap(a.inv_mu, b.inv_mu) <= DEFAULT_TOL.route_agreement_rtol, (a.route, b.route)

    unscaled = certainty_spectral(spectral_decompose(laplacian(base)), PARAMS)
    ranking = rank_nodes(unscaled.mu)
    assert rank_nodes(spectral.mu) == ranking
    assert rank_nodes(group.mu) == ranking
    assert rank_nodes(harmonic) == ranking


def test_kirchhoff_index_is_the_resistance_sum():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 12)))
        info = information_matrix(laplacian(g))
        pairs = info.resistance[np.triu_indices(g.n, 1)].sum()
        assert info.kirchhoff_index == pytest.approx(pairs, rel=1e-12)


def test_disconnection_is_decided_on_the_pattern():
    # L + s 11^T has a second zero eigenvalue on a disconnected graph, and
    # roundoff often leaves it positive, so a Cholesky factorization may
    # succeed; the connectivity search must reject every one of these
    rng = np.random.default_rng(5)
    factored = 0
    for _ in range(30):
        sizes = rng.integers(1, 7, size=2)
        a = random_connected_graph(rng, int(sizes[0]))
        b = random_connected_graph(rng, int(sizes[1]))
        g = build_graph(a.n + b.n, list(a.edges) + [(k + a.n, j + a.n, w) for k, j, w in b.edges])
        lap = laplacian(g)
        try:
            np.linalg.cholesky(lap + np.trace(lap) / g.n**2)
            factored += 1
        except np.linalg.LinAlgError:
            pass
        with pytest.raises(DisconnectedGraphError):
            information_matrix(lap)
    assert factored > 0


def path_graph(weights):
    edges = [(k, k + 1, w) for k, w in enumerate(weights, 1)]
    return build_graph(len(weights) + 1, edges + [(j, k, w) for k, j, w in edges])


@pytest.mark.parametrize("weights,span", [
    # the Cholesky factorization fails
    ([5.55e-19, 1.06e-24, 2.59e-25, 2.15e-05, 6.59e-03, 1.47e-10], "[2.59e-25, 0.00659]"),
    # the factorization succeeds but the group-inverse axioms fail
    ([1.0, 1e-20], "[1e-20, 1]"),
    # X overflows
    ([2.2250738585e-313], "[2.23e-313, 2.23e-313]"),
])
def test_weight_range_beyond_double_precision_is_named(weights, span):
    with pytest.raises(DdmnetError, match=re.escape(f"edge weights lie in {span}") + "$"):
        information_matrix(laplacian(path_graph(weights)))


def test_single_node():
    info = information_matrix(laplacian(build_graph(1, [])))
    assert info.x.tolist() == [[0.0]]
    assert info.kirchhoff_index == 0.0
