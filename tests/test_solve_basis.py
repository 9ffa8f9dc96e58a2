"""The solve basis: one Cholesky factorization of the mirror Laplacian feeds
the group-inverse and info-centrality routes, the Kirchhoff index and the
path oracle's matrix side; the spectral route keeps its own eigensolver.
"""

import itertools
import re
import sys
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
RING_PATH = str(ROOT / "tests/data/ring3_path3.json")  # normal, not symmetric
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
# oracle adds one pinv and one orientation-blind inv per node pair, and
# verify's two Van Loan exponentials one solve each, and its variance walk
# one Cholesky factor of the t = 0.5 step's covariance
ORACLE_PAIRS = {"pinv": 10, "inv": 10}


@pytest.mark.parametrize("command,graph,expected", [
    ("analyze", UNDIRECTED60, {"eigh": 1, "cholesky": 1, "inv": 1}),
    ("analyze", FIXTURE, {"eigh": 1, "cholesky": 1, "inv": 1}),
    ("centrality", UNDIRECTED60, {"cholesky": 1, "inv": 1}),
    ("centrality", FIXTURE, {"cholesky": 1, "inv": 1 + ORACLE_PAIRS["inv"], "pinv": ORACLE_PAIRS["pinv"]}),
    ("verify", UNDIRECTED60, {"eigh": 1, "cholesky": 2, "inv": 1, "solve": 2}),
    ("verify", FIXTURE, {"eigh": 1, "cholesky": 2, "inv": 1 + ORACLE_PAIRS["inv"], "pinv": ORACLE_PAIRS["pinv"],
                         "solve": 2}),
    ("analyze", RING_PATH, {"eigh": 1, "cholesky": 1, "inv": 1}),
])
def test_factorization_counts(command, graph, expected, linalg_calls, tmp_path, capsys):
    assert main([command, graph, "--output", str(tmp_path / "report")]) == 0
    capsys.readouterr()
    assert dict(linalg_calls) == expected


DIGRAPH6 = str(ROOT / "tests/data/digraph6.json")
STAGES = ("laplacian", "normality_residual", "strongly_connected", "mirror_graph")


@pytest.fixture
def stage_calls(monkeypatch) -> Counter:
    """Count calls to the graph stages a request builds, under every name a
    ddmnet module binds them to, and to WeightedDigraph.adjacency."""
    import ddmnet.graph

    calls: Counter = Counter()
    for name in STAGES:
        real = getattr(ddmnet.graph, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "ddmnet"]:
            for attr in [a for a, v in vars(module).items() if v is real]:
                monkeypatch.setattr(module, attr, counting)
    real_adjacency = ddmnet.graph.WeightedDigraph.adjacency

    def adjacency(self):
        calls["adjacency"] += 1
        return real_adjacency(self)

    monkeypatch.setattr(ddmnet.graph.WeightedDigraph, "adjacency", adjacency)
    return calls


def stages(laplacian, adjacency, normality_residual, strongly_connected, mirror_graph=0) -> dict:
    counts = {"laplacian": laplacian, "adjacency": adjacency, "normality_residual": normality_residual,
              "strongly_connected": strongly_connected, "mirror_graph": mirror_graph}
    return {name: count for name, count in counts.items() if count}


# Each command builds the Laplacian, the profile (one normality commutator,
# one strong-connectivity search), the mirror and its Laplacian at most once;
# the mirror's solve basis searches the mirror once more. An undirected graph
# (undirected60, the fixture) is its own mirror, so neither is built again,
# and the profile's search stands for the mirror's. analyze leaves the mirror
# alone where the certainty index is undefined (digraph6 is not normal).
# verify adds the mirror of the mirror for the idempotence check, and on a
# balanced graph (undirected60, the fixture) also that mirror's Laplacian,
# for the symmetric-part check; its simulator check reads the request's
# Laplacian, and so does simulate's ensemble.
@pytest.mark.parametrize("argv,expected", [
    (["analyze", UNDIRECTED60], stages(1, 1, 1, 1)),
    (["analyze", FIXTURE], stages(1, 1, 1, 1)),
    (["analyze", DIGRAPH6], stages(1, 1, 1, 1)),
    (["centrality", UNDIRECTED60], stages(1, 1, 1, 1)),
    (["centrality", FIXTURE], stages(1, 1, 1, 1)),
    (["centrality", DIGRAPH6], stages(2, 2, 1, 2, 1)),
    (["verify", UNDIRECTED60], stages(2, 2, 1, 1, 1)),
    (["verify", FIXTURE], stages(2, 2, 1, 1, 1)),
    (["verify", DIGRAPH6], stages(2, 2, 1, 2, 2)),
    (["family", "complete:9:1"], stages(1, 1, 1, 1)),
    (["simulate", FIXTURE, "--trajectories", "64", "--t-max", "0.1", "--sample-times", "0.1"],
     stages(1, 1, 1, 1)),
], ids=[f"{command}-{graph}" for command in ("analyze", "centrality", "verify")
        for graph in ("undirected60", "fixture", "digraph6")] + ["family-complete9", "simulate-fixture"])
def test_stage_counts(argv, expected, stage_calls, tmp_path, capsys):
    assert main([*argv, "--output", str(tmp_path / "report")]) == 0
    capsys.readouterr()
    assert dict(stage_calls) == expected


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
@pytest.mark.filterwarnings("error")  # the failure is named without a RuntimeWarning on the way
def test_weight_range_beyond_double_precision_is_named(weights, span):
    with pytest.raises(DdmnetError, match=re.escape(f"edge weights lie in {span}") + "$"):
        information_matrix(laplacian(path_graph(weights)))


@pytest.mark.filterwarnings("error")
def test_spectral_certainty_names_an_overflowing_spectrum():
    # on a subnormal edge 1/Re lambda overflows; the spectral route says so instead of reporting inf
    data = spectral_decompose(laplacian(path_graph([2.2250738585e-313])))
    with pytest.raises(DdmnetError, match=r"^spectral certainty overflows double precision: "
                                          r"smallest nonzero Re lambda = 4\.45e-313$"):
        certainty_spectral(data, PARAMS)


@pytest.mark.filterwarnings("error")
def test_kirchhoff_overflow_at_unit_sigma_names_the_weights():
    # a star of 40 leaves of weight 1e-307: every 1/Re lambda is finite, their sum K_f / n
    # is not, and the 1/mu sum to K_f / (2n) at sigma = 1, so sigma is not the cause
    lap = laplacian(build_graph(41, [e for j in range(2, 42) for e in ((1, j, 1e-307), (j, 1, 1e-307))]))
    with pytest.raises(DdmnetError, match=r"^the spectral Kirchhoff index overflows double precision: "
                                          r"the edge weights are too small for this graph$"):
        certainty_spectral(spectral_decompose(lap), ModelParams())
    with pytest.raises(DdmnetError, match=re.escape("the mirror's Kirchhoff index overflows double "
                                                    "precision: edge weights lie in [1e-307, 1e-307]") + "$"):
        information_matrix(lap)


def test_single_node():
    info = information_matrix(laplacian(build_graph(1, [])))
    assert info.x.tolist() == [[0.0]]
    assert info.kirchhoff_index == 0.0
