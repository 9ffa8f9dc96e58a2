"""Weighted digraphs, their Laplacians, classification, and the mirror graph.

Nodes are 1-based everywhere in the public interface. A directed edge
(k, j, w) means node k observes node j's state with attention weight w > 0,
so the Laplacian row of k carries -w at column j and the weighted out-degree
on the diagonal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .config import DEFAULT_TOL, Tolerances
from .errors import GraphFormatError, GraphValidationError


@dataclass(frozen=True)
class WeightedDigraph:
    """Immutable weighted digraph with a canonical (sorted, deduplicated) edge list."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def adjacency(self) -> np.ndarray:
        """Dense weighted adjacency matrix A with A[k-1, j-1] = w for edge (k, j, w)."""
        a = np.zeros((self.n, self.n))
        for k, j, w in self.edges:
            a[k - 1, j - 1] = w
        return a

    def is_undirected(self, rtol: float = 1e-12) -> bool:
        """True if every edge has a reverse edge of equal weight."""
        weights = {(k, j): w for k, j, w in self.edges}
        for (k, j), w in weights.items():
            wr = weights.get((j, k))
            if wr is None or abs(wr - w) > rtol * max(1.0, abs(w)):
                return False
        return True


@dataclass(frozen=True)
class GraphProfile:
    """Validation summary: degrees, balance, strong connectivity, Laplacian normality."""

    out_degree: tuple[float, ...]
    in_degree: tuple[float, ...]
    balanced: bool
    strongly_connected: bool
    normal_laplacian: bool
    normality_residual: float


def build_graph(n: int, edges: Iterable[tuple[int, int, float]]) -> WeightedDigraph:
    """Validate and canonicalize a weighted edge list into a WeightedDigraph.

    Rejects self-loops, nonpositive weights, out-of-range node indices,
    duplicate (source, target) pairs and weighted degrees that overflow.
    """
    if not isinstance(n, int) or n < 1:
        raise GraphValidationError(f"node count must be a positive integer, got {n!r}")
    seen: set[tuple[int, int]] = set()
    canon: list[tuple[int, int, float]] = []
    total = 0.0
    for edge in edges:
        try:
            k, j, w = edge
        except (TypeError, ValueError) as exc:
            raise GraphValidationError(f"edge {edge!r} is not a (source, target, weight) triple") from exc
        if not (isinstance(k, int) and isinstance(j, int)):
            raise GraphValidationError(f"edge {edge!r}: node indices must be integers")
        if not (1 <= k <= n and 1 <= j <= n):
            raise GraphValidationError(f"edge {edge!r}: node index out of range 1..{n}")
        if k == j:
            raise GraphValidationError(f"edge {edge!r}: self-loops are not allowed")
        w = float(w)
        if not w > 0 or not np.isfinite(w):
            raise GraphValidationError(f"edge ({k}, {j}): weight must be finite and > 0, got {w}")
        if (k, j) in seen:
            raise GraphValidationError(f"duplicate edge ({k}, {j})")
        seen.add((k, j))
        canon.append((k, j, w))
        total += w
    canon.sort()
    # no weighted degree exceeds the total weight, so a finite total clears them all
    if total == math.inf:
        src, dst, wts = (np.array(col) for col in zip(*canon))
        for label, nodes in (("out", src), ("in", dst)):
            degree = np.bincount(nodes, weights=wts, minlength=n + 1)
            bad = np.flatnonzero(~np.isfinite(degree))
            if bad.size:
                raise GraphValidationError(
                    f"node {bad[0]}: weighted {label}-degree is not finite ({degree[bad[0]]})")
    return WeightedDigraph(n=n, edges=tuple(canon))


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Graph Laplacian: off-diagonal -w, diagonal the negated off-diagonal row sum.

    The diagonal is the negated off-diagonal row sum, so the row sums vanish
    bit-exactly when evaluated in the same order (see laplacian_row_residual).
    """
    lap = -g.adjacency()
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def laplacian_row_residual(lap: np.ndarray) -> np.ndarray:
    """Row-sum residual evaluated in construction order: exactly zero for every
    Laplacian built by `laplacian` (off-diagonal sum first, diagonal added last)."""
    off = np.array(lap, dtype=float, copy=True)
    np.fill_diagonal(off, 0.0)
    return off.sum(axis=1) + np.diag(lap)


def normality_residual(lap: np.ndarray) -> float:
    """Frobenius norm of the commutator L L^T - L^T L."""
    return float(np.linalg.norm(lap @ lap.T - lap.T @ lap, "fro"))


def is_normal(lap: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    scale = max(1.0, float(np.linalg.norm(lap, "fro")) ** 2)
    return normality_residual(lap) <= tol.normality_rtol * scale


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """Strong connectivity of the directed edge pattern (weights ignored)."""
    if g.n == 1:
        return True
    rows = [k - 1 for k, _, _ in g.edges]
    cols = [j - 1 for _, j, _ in g.edges]
    sparse = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))
    ncomp, _ = connected_components(sparse, directed=True, connection="strong")
    return int(ncomp) == 1


def classify(g: WeightedDigraph, tol: Tolerances = DEFAULT_TOL) -> GraphProfile:
    """Compute degrees and the balance / strong-connectivity / normality flags."""
    a = g.adjacency()
    out_deg = a.sum(axis=1)
    in_deg = a.sum(axis=0)
    scale = max(1.0, float(np.max(out_deg + in_deg, initial=0.0)))
    balanced = bool(np.all(np.abs(out_deg - in_deg) <= tol.balance_rtol * scale))
    lap = laplacian(g)
    residual = normality_residual(lap)
    normal = residual <= tol.normality_rtol * max(1.0, float(np.linalg.norm(lap, "fro")) ** 2)
    return GraphProfile(
        out_degree=tuple(float(d) for d in out_deg),
        in_degree=tuple(float(d) for d in in_deg),
        balanced=balanced,
        strongly_connected=is_strongly_connected(g),
        normal_laplacian=normal,
        normality_residual=residual,
    )


def mirror_graph(g: WeightedDigraph) -> WeightedDigraph:
    """Undirected companion graph with weights (w_kj + w_jk) / 2.

    For balanced digraphs (weighted in-degree equals out-degree at every
    node, which normal Laplacians guarantee) its Laplacian equals the
    symmetric part (L + L^T) / 2 of the input's.
    """
    half: dict[tuple[int, int], float] = {}
    for k, j, w in g.edges:
        key = (min(k, j), max(k, j))
        half[key] = half.get(key, 0.0) + w / 2.0
    edges: list[tuple[int, int, float]] = []
    for (a, b), w in half.items():
        edges.append((a, b, w))
        edges.append((b, a, w))
    return build_graph(g.n, edges)


def permute_graph(g: WeightedDigraph, perm: tuple[int, ...]) -> WeightedDigraph:
    """Relabel nodes: node k becomes perm[k-1] (perm is a permutation of 1..n)."""
    if sorted(perm) != list(range(1, g.n + 1)):
        raise GraphValidationError(f"{perm!r} is not a permutation of 1..{g.n}")
    return build_graph(g.n, [(perm[k - 1], perm[j - 1], w) for k, j, w in g.edges])


def five_node_benchmark() -> WeightedDigraph:
    """5-node undirected benchmark whose certainty ranking is invisible to degree/closeness.

    Nodes 3, 4 and 5 all have degree 2 and equal closeness, yet differ in
    certainty because they are reached over different non-geodesic paths.
    """
    pairs = [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)]
    edges = [(k, j, 1.0) for k, j in pairs] + [(j, k, 1.0) for k, j in pairs]
    return build_graph(5, edges)


# --- JSON graph file format -------------------------------------------------
#
# {"n": int, "edges": [[source, target, weight], ...], "undirected": bool}
#
# With "undirected": true each listed edge implies its reverse at equal weight.


def graph_from_dict(data: dict) -> WeightedDigraph:
    """Build a graph from the JSON-schema dict, with field-level diagnostics."""
    if not isinstance(data, dict):
        raise GraphFormatError(f"expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"n", "edges", "undirected"}
    if unknown:
        raise GraphFormatError(f"unknown fields: {sorted(unknown)}")
    if "n" not in data or "edges" not in data:
        raise GraphFormatError('both "n" and "edges" fields are required')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphFormatError(f'"n" must be an integer, got {n!r}')
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise GraphFormatError('"edges" must be a list of [source, target, weight] triples')
    undirected = data.get("undirected", False)
    if not isinstance(undirected, bool):
        raise GraphFormatError(f'"undirected" must be a boolean, got {undirected!r}')
    edges: list[tuple[int, int, float]] = []
    for idx, item in enumerate(raw_edges):
        if not (isinstance(item, list) and len(item) == 3):
            raise GraphFormatError(f"edge #{idx + 1} {item!r}: expected [source, target, weight]")
        k, j, w = item
        if not (isinstance(k, int) and isinstance(j, int)) or isinstance(k, bool) or isinstance(j, bool):
            raise GraphFormatError(f"edge #{idx + 1} {item!r}: node indices must be integers")
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise GraphFormatError(f"edge #{idx + 1} {item!r}: weight {w!r} is not a number")
        edges.append((k, j, float(w)))
        if undirected:
            edges.append((j, k, float(w)))
    try:
        return build_graph(n, edges)
    except GraphValidationError as exc:
        raise GraphFormatError(str(exc)) from exc


def graph_to_dict(g: WeightedDigraph) -> dict:
    """Canonical JSON-schema dict for a graph (always explicit, "undirected": false)."""
    return {"n": g.n, "edges": [[k, j, w] for k, j, w in g.edges], "undirected": False}


def load_graph(path: str) -> WeightedDigraph:
    """Load and validate a graph file, with parse diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return graph_from_dict(data)
