"""Closeness and information centrality on undirected graphs.

Information centrality aggregates *all* simple paths between a pair of
nodes, not only geodesics: the pairwise information I_kj is the inverse of
the combined-path length, I_kj = (x_kk + x_jj - 2 x_kj)^{-1} with X the
group inverse of L, all from one Cholesky factorization. The module also
carries a brute-force path-enumeration oracle for small graphs, and the
bridge from information centrality back to the node certainty index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certainty import CertaintyReport, ModelParams, _report_from_inv_mu
from .config import DEFAULT_TOL
from .errors import (
    DdmnetError,
    DisconnectedGraphError,
    GraphValidationError,
    OverlapMatrixSingularError,
    PathCapExceededError,
)
from .graph import WeightedDigraph, strongly_connected, weight_range


def _require_undirected(g: WeightedDigraph) -> None:
    if not g.is_undirected():
        raise GraphValidationError("operation requires an undirected (symmetric-weight) graph")


def geodesic_closeness(g: WeightedDigraph) -> tuple[np.ndarray, tuple[float, ...]]:
    """All-pairs geodesic distances (edge length 1/w) and per-node closeness.

    Closeness of a node is the inverse of its mean distance to all nodes,
    the zero self-distance included. Distances come from scipy's
    shortest_path over the arcs, which picks its algorithm by the arc count
    m: Floyd-Warshall, O(n^3), where m >= n^2 / 4, and Dijkstra,
    O(n m log n), below. The two add up a path's lengths in different
    orders, so their distances can differ in the last bits. Lengths are
    positive by construction. A length that overflows (a subnormal weight)
    raises GraphValidationError naming its edge. scipy is imported here, on
    first use, so that commands which report no closeness never load it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    _require_undirected(g)
    n = g.n
    with np.errstate(over="ignore", divide="ignore"):
        length = 1.0 / g.w
    if np.isinf(length).any():
        i = int(np.argmax(np.isinf(length)))
        raise GraphValidationError(f"edge ({g.src[i]}, {g.dst[i]}): length 1/w overflows double precision "
                                   f"(w = {g.w[i]:.3g})")
    lengths = csr_matrix((length, (g.src - 1, g.dst - 1)), shape=(n, n))
    dist = shortest_path(lengths, directed=True)
    if not np.all(np.isfinite(dist)):
        raise DisconnectedGraphError("graph is disconnected: some geodesic distances are infinite")
    means = dist.sum(axis=1) / n
    closeness = tuple(math.inf if m == 0.0 else float(1.0 / m) for m in means)
    return dist, closeness


@dataclass(frozen=True, eq=False)
class InformationMatrix:
    """The solve basis of a connected undirected graph and what it yields.

    x is the group inverse X of the Laplacian; information[k, j] = I_kj
    (diagonal inf); resistance[k, j] = 1 / I_kj = X_kk + X_jj - 2 X_kj with a
    zero diagonal, which is exactly the effective-resistance distance;
    kirchhoff_index = n tr X is the sum of the resistances over node pairs.
    """

    x: np.ndarray
    information: np.ndarray
    resistance: np.ndarray
    kirchhoff_index: float


def information_matrix(lap_mirror: np.ndarray, connected: bool | None = None) -> InformationMatrix:
    """The solve basis of a connected undirected graph's Laplacian L.

    With s = tr(L) / n^2, the mean weighted degree over n, L + s 11^T is
    positive definite and puts the filled null mode at the mean degree,
    inside L's spectrum at any weight scale. One Cholesky factorization
    inverts it to C_s = X + 11^T / (s n^2), which gives the group inverse X;
    the axioms L X L = L, X L X = X, L X = X L are asserted. Connectivity is
    decided on the pattern of L, since the factorization can succeed on a
    disconnected graph; a caller that has decided it on the same arcs passes
    its verdict as `connected` instead.
    """
    lap = np.asarray(lap_mirror, dtype=float)
    n = lap.shape[0]
    scale = float(np.abs(lap).max(initial=0.0))
    if float(np.abs(lap - lap.T).max(initial=0.0)) > 1e-12 * scale:
        raise GraphValidationError("Laplacian must be symmetric")
    if connected is None:
        connected = strongly_connected(n, *np.nonzero(lap))  # self-arcs k -> k reach nothing new
    if not connected:
        raise DisconnectedGraphError("mirror graph is disconnected")
    s = float(np.trace(lap)) / n**2 or 1.0  # a single node has L = 0
    try:
        factor_inv = np.linalg.inv(np.linalg.cholesky(lap + s))
    except np.linalg.LinAlgError:
        factor_inv = np.full((n, n), math.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below reports it
        x = factor_inv.T @ factor_inv - 1.0 / (s * n**2)
        x = (x + x.T) / 2.0
    rtol = DEFAULT_TOL.group_inverse_rtol
    x_scale = float(np.abs(x).max())
    lx = lap @ x
    # the graph is connected here: a failure means the weights' range defeats double precision
    if not (
        np.all(np.isfinite(x))
        and float(np.abs(lx @ lap - lap).max()) <= rtol * scale
        and float(np.abs(x @ lx - x).max()) <= rtol * x_scale
        and float(np.abs(lx - x @ lap).max()) <= rtol * scale * x_scale
    ):
        raise DdmnetError(f"cannot factor the mirror Laplacian in double precision: {weight_range(lap)}")

    with np.errstate(over="ignore"):  # finite K_f bounds every resistance, at most 2 tr(X)
        kirchhoff = n * float(np.trace(x))
    if math.isinf(kirchhoff):
        raise DdmnetError(f"the mirror's Kirchhoff index overflows double precision: {weight_range(lap)}")

    diag = np.diag(x)
    resistance = diag[:, None] + diag[None, :] - 2.0 * x
    np.fill_diagonal(resistance, 0.0)
    with np.errstate(divide="ignore"):
        information = np.where(resistance > 0, 1.0 / np.where(resistance > 0, resistance, 1.0), math.inf)
    np.fill_diagonal(information, math.inf)
    return InformationMatrix(x=x, information=information, resistance=resistance, kirchhoff_index=kirchhoff)


@dataclass(frozen=True)
class CentralityReport:
    """Per-node closeness and information centralities plus a ranked node order."""

    closeness: tuple[float, ...]
    info_harmonic: tuple[float, ...]
    info_arithmetic: tuple[float, ...]
    ranking: tuple[int, ...]
    ranked_by: str

    def to_rows(self) -> list[dict]:
        rank_of = {node: pos + 1 for pos, node in enumerate(self.ranking)}
        n = len(self.closeness)

        def enc(v: float) -> float | None:
            return None if math.isinf(v) else v

        return [
            {
                "node": k + 1,
                "closeness": enc(self.closeness[k]),
                "info_harmonic": enc(self.info_harmonic[k]),
                "info_arithmetic": enc(self.info_arithmetic[k]),
                "rank": rank_of[k + 1],
            }
            for k in range(n)
        ]


def rank_nodes(scores: tuple[float, ...] | list[float] | np.ndarray) -> tuple[int, ...]:
    """Node order by descending score; ties break by ascending node index.

    Scores are divided by 2^e <= max finite |score| < 2^(e+1), which is
    exact, and rounded to DEFAULT_TOL.rank_decimals decimals, so that exact
    mathematical ties perturbed by float noise collapse back into ties and
    break identically whichever route produced the scores, at any weight
    scale.
    Infinite scores sort first.
    """
    arr = np.asarray(scores, dtype=float)
    top = float(np.abs(arr[np.isfinite(arr)]).max(initial=0.0))
    rounded = np.round(np.ldexp(arr, 1 - math.frexp(top)[1]), DEFAULT_TOL.rank_decimals)
    order = sorted(range(len(rounded)), key=lambda k: (-rounded[k], k))
    return tuple(k + 1 for k in order)


def information_scores(info: InformationMatrix) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Harmonic and arithmetic information centrality from the mirror's solve basis.

    The harmonic score inverts the mean combined-path distance 1/I_kj (the
    self-term is 0, mirroring the closeness convention); the arithmetic score
    averages I_kj itself over the other nodes.
    """
    n = info.x.shape[0]
    mean_resistance = info.resistance.sum(axis=1) / n
    harmonic = tuple(math.inf if m == 0.0 else float(1.0 / m) for m in mean_resistance)
    if n == 1:
        return harmonic, (math.inf,)
    off = info.information.copy()
    np.fill_diagonal(off, 0.0)
    return harmonic, tuple(float(v) for v in off.sum(axis=1) / (n - 1))


def information_centrality(g: WeightedDigraph, info: InformationMatrix,
                           variant: str = "harmonic") -> CentralityReport:
    """Full centrality report for a connected undirected graph: geodesic
    closeness next to both `information_scores` of `info`, the solve basis
    of g; `variant` selects which score orders the ranking.
    """
    if variant not in ("harmonic", "arithmetic"):
        raise ValueError(f"unknown variant {variant!r}; expected 'harmonic' or 'arithmetic'")
    _, closeness = geodesic_closeness(g)  # rejects a directed graph
    harmonic, arithmetic = information_scores(info)
    scores = harmonic if variant == "harmonic" else arithmetic
    return CentralityReport(
        closeness=closeness,
        info_harmonic=harmonic,
        info_arithmetic=arithmetic,
        ranking=rank_nodes(scores),
        ranked_by=variant,
    )


def certainty_via_centrality(info_centrality_scores: tuple[float, ...], kirchhoff_index: float,
                             params: ModelParams, n: int) -> CertaintyReport:
    """Certainty from harmonic information centrality on the mirror graph:

        1 / mu_k = (sigma^2 / 2) * (1 / kappa_k - K_f / n^2)

    so ranking nodes by information centrality ranks them by certainty.
    """
    if len(info_centrality_scores) != n:
        raise ValueError("need one information-centrality score per node")
    inv_kappa = np.array([0.0 if math.isinf(k) else 1.0 / k for k in info_centrality_scores])
    with np.errstate(over="ignore"):  # _report_from_inv_mu names sigma
        inv_mu = params.sigma**2 / 2.0 * (inv_kappa - kirchhoff_index / n**2)
    if n == 1:
        inv_mu = np.zeros(1)
    return _report_from_inv_mu(inv_mu, "info-centrality", kirchhoff_index, params.sigma)


@dataclass(frozen=True, eq=False)
class PathBundle:
    """All simple paths between one node pair, with their overlap matrix.

    `paths` are 1-based vertex sequences. `overlap` has the weighted path
    lengths on the diagonal and the summed inverse weights of shared edges
    off the diagonal (orientation-blind, hence nonnegative).
    """

    source: int
    target: int
    paths: tuple[tuple[int, ...], ...]
    overlap: np.ndarray


_MAX_PATHS = 10000  # simple paths per node pair before the oracle gives up


def _enumerate_simple_paths(adj: list[list[tuple[int, float]]], src: int, dst: int,
                            max_paths: int) -> list[list[int]]:
    paths: list[list[int]] = []
    stack = [src]
    visited = {src}

    def dfs(u: int) -> None:
        if u == dst:
            if len(paths) >= max_paths:
                raise PathCapExceededError(f"more than {max_paths} simple paths")
            paths.append(list(stack))
            return
        for v, _ in adj[u]:
            if v not in visited:
                visited.add(v)
                stack.append(v)
                dfs(v)
                stack.pop()
                visited.remove(v)

    dfs(src)
    return paths


def enumerate_combined_paths(g: WeightedDigraph, source: int, target: int,
                             max_nodes: int = 10, max_paths: int = _MAX_PATHS) -> tuple[PathBundle, float]:
    """Enumerate all simple paths between two nodes and return the pairwise
    information computed from them.

    The returned oracle value is the unit-flow energy minimum over all
    combinations of the enumerated paths: with G the orientation-signed
    overlap matrix (a shared edge contributes +1/w when two paths traverse
    it the same way and -1/w otherwise), I = 1^T G^+ 1. By the flow
    decomposition of the electrical current this equals the pairwise
    information of the whole graph exactly. The orientation-blind overlap
    matrix is returned in the bundle; `naive_combined_information` evaluates
    the simpler 1^T D^{-1} 1 combination, which coincides with the oracle
    whenever no two paths traverse a shared edge in opposite directions
    (trees and series-parallel overlaps in particular).
    """
    _require_undirected(g)
    n = g.n
    if n > max_nodes:
        raise PathCapExceededError(f"graph order {n} exceeds the enumeration cap {max_nodes}")
    if not (1 <= source <= n and 1 <= target <= n):
        raise GraphValidationError(f"node pair ({source}, {target}) out of range 1..{n}")
    if source == target:
        raise GraphValidationError("path enumeration needs two distinct nodes")
    return _combined_paths(*_path_inputs(g), source, target, max_paths)


def _path_inputs(g: WeightedDigraph) -> tuple[list[list[tuple[int, float]]], dict[frozenset[int], float]]:
    """The 0-based adjacency lists of g, each sorted, and the weight of each edge by its node pair."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    weight: dict[frozenset[int], float] = {}
    for k, j, w in g.edges:
        adj[k - 1].append((j - 1, w))
        weight[frozenset((k - 1, j - 1))] = w
    for row in adj:
        row.sort()
    return adj, weight


def _combined_paths(adj: list[list[tuple[int, float]]], weight: dict[frozenset[int], float],
                    source: int, target: int, max_paths: int) -> tuple[PathBundle, float]:
    """enumerate_combined_paths on the _path_inputs of a validated undirected graph."""
    raw_paths = _enumerate_simple_paths(adj, source - 1, target - 1, max_paths)
    if not raw_paths:
        raise DisconnectedGraphError(f"no path between nodes {source} and {target}")
    m = len(raw_paths)
    oriented = []
    for p in raw_paths:
        oriented.append({frozenset((p[i], p[i + 1])): (p[i], p[i + 1]) for i in range(len(p) - 1)})

    unsigned = np.zeros((m, m))
    signed = np.zeros((m, m))
    for r in range(m):
        length = sum(1.0 / weight[e] for e in oriented[r])
        unsigned[r, r] = length
        signed[r, r] = length
        for s in range(r + 1, m):
            plus = 0.0
            net = 0.0
            for e in oriented[r].keys() & oriented[s].keys():
                inv_w = 1.0 / weight[e]
                plus += inv_w
                net += inv_w if oriented[r][e] == oriented[s][e] else -inv_w
            unsigned[r, s] = unsigned[s, r] = plus
            signed[r, s] = signed[s, r] = net

    # G is a Gram matrix: rank deficiency is structural when path vectors are
    # linearly dependent as edge flows, so a pseudoinverse is exact here. It is
    # taken of the unit-diagonal D^{-1/2} G D^{-1/2}, D = diag G, so that its
    # cutoff does not drop paths whose lengths lie far below the longest one:
    # I = (D^{-1/2} 1)^T (D^{-1/2} G D^{-1/2})^+ (D^{-1/2} 1).
    scale = 1.0 / np.sqrt(np.diag(signed))
    equilibrated = np.linalg.pinv(signed * np.outer(scale, scale), rcond=1e-12, hermitian=True)
    oracle = float(scale @ equilibrated @ scale)
    bundle = PathBundle(
        source=source,
        target=target,
        paths=tuple(tuple(v + 1 for v in p) for p in raw_paths),
        overlap=unsigned,
    )
    return bundle, oracle


def naive_combined_information(bundle: PathBundle) -> float:
    """Orientation-blind combination 1^T D^{-1} 1 of the bundle's overlap matrix."""
    d = bundle.overlap
    try:
        inv = np.linalg.inv(d)
    except np.linalg.LinAlgError as exc:
        raise OverlapMatrixSingularError(
            f"overlap matrix for pair ({bundle.source}, {bundle.target}) is singular"
        ) from exc
    return float(inv.sum())


def path_oracle_pairs(g: WeightedDigraph, info: InformationMatrix) -> list[dict]:
    """Per node pair k < j of the undirected graph g with solve basis `info`: the
    path count, I_kj from `info`, the oracle's value and the orientation-blind
    combination (None, with a note, where its overlap matrix is singular). The
    adjacency lists and edge weights are built once for all pairs."""
    _require_undirected(g)
    adj, weight = _path_inputs(g)
    pairs = []
    for k in range(1, g.n + 1):
        for j in range(k + 1, g.n + 1):
            bundle, oracle = _combined_paths(adj, weight, k, j, _MAX_PATHS)
            entry = {
                "pair": [k, j],
                "paths": len(bundle.paths),
                "information_matrix": float(info.information[k - 1, j - 1]),
                "information_paths": oracle,
            }
            try:
                entry["information_paths_orientation_blind"] = naive_combined_information(bundle)
            except DdmnetError as exc:
                entry["information_paths_orientation_blind"] = None
                entry["note"] = str(exc)
            pairs.append(entry)
    return pairs
