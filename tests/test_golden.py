"""Reports compared byte for byte with files written before the array-backed
graph storage; the curves CSV was written with the uniform covariance walk,
and the group-inverse and info-centrality numbers with the Cholesky solve
basis. The family report was written before the CLI built its parser once
per process and wrote reports without deep copies. The simulate report was
written while each trajectory's stream was seeded by numpy's SeedSequence
one at a time; its three chunks stack panels. The ring-by-path report, the
one golden of a normal digraph that is not symmetric, was written when the
spectral route first decomposed the symmetric part (L + L^T) / 2 with eigh.
The verify, curves, family and simulate reports, which read the Van Loan
covariance step, were written when that step took sigma^2 out of its
block, carrying the propagator as its deviation Phi - I through one doubling
loop; the verify and curves reports were last written when the grid walk
carried the Cholesky factor of the step's covariance and kept only the
variances.

The runs use the same relative paths from the repository root as the files
were made with, so the "graph_file" echo matches too. To rewrite the files
after a declared output change, run from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py

The graph inputs are seeded, so that rewrites them identically.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ddmnet import DEFAULT_TOL, laplacian, load_graph
from ddmnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = "tests/data"
FIXTURE = "fixtures/five_node_benchmark.json"
UNDIRECTED = f"{DATA}/undirected60.json"
DIGRAPH = f"{DATA}/digraph6.json"
RING_PATH = f"{DATA}/ring3_path3.json"

CASES = [
    ("analyze_five_node.json", ["analyze", FIXTURE]),
    ("analyze_five_node.csv", ["analyze", FIXTURE, "--format", "csv"]),
    ("centrality_five_node.json", ["centrality", FIXTURE]),
    ("centrality_five_node.csv", ["centrality", FIXTURE, "--format", "csv"]),
    ("analyze_undirected60.json", ["analyze", UNDIRECTED]),
    ("analyze_undirected60.csv", ["analyze", UNDIRECTED, "--format", "csv"]),
    ("analyze_ring3_path3.json", ["analyze", RING_PATH]),
    ("centrality_undirected60.json", ["centrality", UNDIRECTED]),
    ("centrality_undirected60.csv", ["centrality", UNDIRECTED, "--format", "csv"]),
    ("verify_digraph6.json", ["verify", DIGRAPH]),
    ("verify_five_node.json", ["verify", FIXTURE]),
    ("curves_digraph6.csv", ["analyze", DIGRAPH, "--format", "curves"]),
    ("family_complete9.json", ["family", "complete:9:1"]),
    ("simulate_five_node.json", ["simulate", FIXTURE, "--trajectories", "2100", "--t-max", "1",
                                 "--sample-times", "0.5,1", "--seed", "7"]),
]


@pytest.mark.parametrize("golden,argv", CASES)
def test_report_is_byte_identical(golden, argv, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(ROOT)
    out = tmp_path / golden
    code = main([*argv, "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (ROOT / DATA / golden).read_bytes()


def test_ring_path_golden_matches_the_symmetric_part(monkeypatch, tmp_path, capsys):
    """Every route of the ring-by-path golden equals (sigma^2 / 2) diag(S^+), with
    S = (L + L^T) / 2 pseudo-inverted by a general SVD, and verify passes on the graph."""
    monkeypatch.chdir(ROOT)
    g = load_graph(RING_PATH)
    lap = laplacian(g)
    oracle = 0.5 * np.diag(np.linalg.pinv((lap + lap.T) / 2.0, hermitian=False))
    routes = json.loads((ROOT / DATA / "analyze_ring3_path3.json").read_text())["routes"]
    assert set(routes) == {"spectral", "group-inverse", "info-centrality"}
    for route in routes.values():
        inv_mu = [row["inv_mu"] for row in route["rows"]]
        np.testing.assert_allclose(inv_mu, oracle, rtol=DEFAULT_TOL.route_agreement_rtol, atol=0.0)
    assert len(set(np.round(oracle, 12))) == 3
    assert main(["verify", RING_PATH, "--output", str(tmp_path / "verify.json")]) == 0
    capsys.readouterr()


def write_inputs() -> None:
    """The seeded n = 60, p = 0.5 undirected graph, a small non-normal digraph and
    a normal, non-symmetric one."""
    rng = np.random.default_rng(60)
    n = 60
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < 0.5
    weights = rng.uniform(0.5, 2.0, size=int(keep.sum()))
    edges = [[int(k) + 1, int(j) + 1, float(w)] for k, j, w in zip(iu[keep], ju[keep], weights)]
    Path(UNDIRECTED).write_text(json.dumps({"n": n, "edges": edges, "undirected": True}) + "\n")
    # a directed ring with chords of unequal weight: unbalanced, hence not normal
    arcs = [[1, 2, 1.0], [2, 3, 0.5], [3, 4, 2.0], [4, 5, 1.0], [5, 6, 1.5], [6, 1, 1.0],
            [1, 4, 0.75], [3, 6, 1.25], [5, 2, 0.5]]
    Path(DIGRAPH).write_text(json.dumps({"n": 6, "edges": arcs, "undirected": False}) + "\n")
    # the Cartesian product of a directed 3-ring and the path 1 -(1)- 2 -(2)- 3: node 3 r + p
    # is ring node r and path node p (0-based), so L = L_ring (x) I + I (x) L_path, which is
    # normal because the two terms commute; the path's weights give three certainty levels
    arcs = [[3 * r + p + 1, 3 * ((r + 1) % 3) + p + 1, 1.0] for r in range(3) for p in range(3)]
    arcs += [arc for r in range(3) for p, w in ((0, 1.0), (1, 2.0))
             for arc in ([3 * r + p + 1, 3 * r + p + 2, w], [3 * r + p + 2, 3 * r + p + 1, w])]
    Path(RING_PATH).write_text(json.dumps({"n": 9, "edges": arcs, "undirected": False}) + "\n")


if __name__ == "__main__":
    write_inputs()
    for name, argv in CASES:
        print(f"{name}: exit {main([*argv, '--output', f'{DATA}/{name}'])}")
