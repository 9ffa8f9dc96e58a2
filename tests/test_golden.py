"""Reports compared byte for byte with files written before the array-backed
graph storage; the curves CSV was written with the uniform covariance walk,
and the group-inverse and info-centrality numbers with the Cholesky solve
basis.

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

from ddmnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = "tests/data"
FIXTURE = "fixtures/five_node_benchmark.json"
UNDIRECTED = f"{DATA}/undirected60.json"
DIGRAPH = f"{DATA}/digraph6.json"

CASES = [
    ("analyze_five_node.json", ["analyze", FIXTURE]),
    ("analyze_five_node.csv", ["analyze", FIXTURE, "--format", "csv"]),
    ("centrality_five_node.json", ["centrality", FIXTURE]),
    ("centrality_five_node.csv", ["centrality", FIXTURE, "--format", "csv"]),
    ("analyze_undirected60.json", ["analyze", UNDIRECTED]),
    ("analyze_undirected60.csv", ["analyze", UNDIRECTED, "--format", "csv"]),
    ("centrality_undirected60.json", ["centrality", UNDIRECTED]),
    ("centrality_undirected60.csv", ["centrality", UNDIRECTED, "--format", "csv"]),
    ("verify_digraph6.json", ["verify", DIGRAPH]),
    ("verify_five_node.json", ["verify", FIXTURE]),
    ("curves_digraph6.csv", ["analyze", DIGRAPH, "--format", "curves"]),
]


@pytest.mark.parametrize("golden,argv", CASES)
def test_report_is_byte_identical(golden, argv, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(ROOT)
    out = tmp_path / golden
    code = main([*argv, "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (ROOT / DATA / golden).read_bytes()


def write_inputs() -> None:
    """The seeded n = 60, p = 0.5 undirected graph and a small non-normal digraph."""
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


if __name__ == "__main__":
    write_inputs()
    for name, argv in CASES:
        print(f"{name}: exit {main([*argv, '--output', f'{DATA}/{name}'])}")
