"""Weighted digraphs, their Laplacians, classification, and the mirror graph.

Nodes are 1-based everywhere in the public interface. A directed edge
(k, j, w) means node k observes node j's state with attention weight w > 0,
so the Laplacian row of k carries -w at column j and the weighted out-degree
on the diagonal.

A graph stores its arcs as three read-only arrays, `src`, `dst` (int64) and
`w` (float64), sorted by (src, dst). The routines an analysis runs read
those arrays with whole-array numpy operations; `edges` rebuilds the
(k, j, w) triples for callers that want them. Validation of outside input is vectorised too:
a check runs once over all edges, and only the first edge that fails is
examined on its own, to report it with the same message in edge order.
The entry points (`build_graph`, `graph_from_dict`) scan the Python types
of their edge columns; one validator, `_graph_from_columns`, then checks
the labels and weights as numpy arrays.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOL
from .errors import GraphFormatError, GraphValidationError


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """Immutable weighted digraph stored as canonical arc arrays.

    Arc i is (src[i], dst[i], w[i]). The arrays are read-only, sorted by
    (src, dst), and hold no pair twice. The constructor trusts its arguments:
    outside input goes through `build_graph`, which validates.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.src, self.dst, self.w):
            arr.flags.writeable = False

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The arcs as (source, target, weight) triples in canonical order."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst) and np.array_equal(self.w, other.w))

    def __hash__(self) -> int:
        return hash((self.n, self.src.tobytes(), self.dst.tobytes(), self.w.tobytes()))

    def adjacency(self) -> np.ndarray:
        """Dense weighted adjacency matrix A with A[k-1, j-1] = w for edge (k, j, w)."""
        a = np.zeros((self.n, self.n))
        a[self.src - 1, self.dst - 1] = self.w
        return a

    def is_undirected(self) -> bool:
        """True if every edge has a reverse edge of equal weight, to
        DEFAULT_TOL.undirected_rtol relative."""
        # ordered by (dst, src), the reverse of arc i sits at rev[i] exactly when every arc has one;
        # labels in 1..n <= 2^15 make dst (n + 1) + src an exact key in that order
        rev = np.argsort(self.dst * (self.n + 1) + self.src, kind="stable")
        return (np.array_equal(self.dst[rev], self.src) and np.array_equal(self.src[rev], self.dst)
                and bool(np.all(np.abs(self.w[rev] - self.w)
                                <= DEFAULT_TOL.undirected_rtol * np.maximum(1.0, self.w))))


@dataclass(frozen=True)
class GraphProfile:
    """Validation summary: degrees, balance, strong connectivity, Laplacian normality."""

    out_degree: tuple[float, ...]
    in_degree: tuple[float, ...]
    balanced: bool
    strongly_connected: bool
    normal_laplacian: bool
    normality_residual: float


def _first(mask: np.ndarray, default: int) -> int:
    """Index of the first True in mask, or default when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


def _show(value: object) -> str:
    """repr(value), with an int too long for a decimal string shown as <int too long to print>.

    Python refuses to convert an int of more than sys.get_int_max_str_digits()
    digits to a string, so repr of an edge holding one raises ValueError.
    Lists and tuples are shown item by item; every other value keeps its repr.
    """
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, (list, tuple)):
            return f"<{type(value).__name__} too long to print>"
    items = ", ".join(map(_show, value))
    return f"[{items}]" if isinstance(value, list) else f"({items}{',' * (len(value) == 1)})"


def _unpacked(edges: list) -> list:
    """The leading edges that unpack into three values, as tuples; stops at the first that does not."""
    triples = []
    for edge in edges:
        try:
            k, j, w = edge
        except (TypeError, ValueError):
            break
        triples.append((k, j, w))
    return triples


def _check_edge(edge: object, triple: tuple | None, n: int) -> None:
    """Raise build_graph's error for one edge taken alone, its checks in order.

    `triple` is the edge unpacked, or None when it does not unpack.
    """
    if triple is None:
        raise GraphValidationError(f"edge {_show(edge)} is not a (source, target, weight) triple")
    k, j, w = triple
    if not (isinstance(k, int) and isinstance(j, int)):
        raise GraphValidationError(f"edge {_show(edge)}: node indices must be integers")
    if not (1 <= k <= n and 1 <= j <= n):
        raise GraphValidationError(f"edge {_show(edge)}: node index out of range 1..{n}")
    if k == j:
        raise GraphValidationError(f"edge {_show(edge)}: self-loops are not allowed")
    try:
        w = float(w)
    except OverflowError:  # no repr: an int past the conversion limit has no decimal string
        raise GraphValidationError(f"edge ({k}, {j}): weight is an integer beyond the float range") from None
    if not w > 0 or not np.isfinite(w):
        raise GraphValidationError(f"edge ({k}, {j}): weight must be finite and > 0, got {w}")


def _columns(rows: list) -> list[list]:
    """The three columns of rows of three items each. (zip(*rows) keeps one
    iterator per row alive, and at 10^5 rows costs several times as much
    per item as at 10^4.)"""
    return [[row[c] for row in rows] for c in range(3)]


def _weights(values: Sequence) -> np.ndarray:
    """float(w) of the leading values that convert; stops before the first that raises."""
    if set(map(type, values)) <= {float, int, bool}:
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # an int beyond the float range
            pass
    converted = []
    for value in values:
        try:
            converted.append(float(value))
        except (TypeError, ValueError, OverflowError):  # _check_edge raises it again
            break
    return np.array(converted, dtype=float)


_MAX_INDEX = int(np.iinfo(np.int64).max)  # node labels are stored as int64

# Node count above which a graph is refused. Every command holds dense n x n
# float64 matrices (adjacency, Laplacian, eigenvectors; verify's Van Loan
# block is 2n x 2n), and at this count one such matrix is already 8 GiB.
MAX_NODES = 2**15


def _check_node_count(n: object) -> None:
    if not isinstance(n, int) or n < 1:
        raise GraphValidationError(f"node count must be a positive integer, got {_show(n)}")
    if n > _MAX_INDEX:
        raise GraphValidationError(
            f"node count n exceeds the 64-bit index range ({_MAX_INDEX}), got {_show(n)}")
    if n > MAX_NODES:
        raise GraphValidationError(
            f"node count n exceeds the cap of {MAX_NODES} nodes for dense n x n matrices, got {n}")


def build_graph(n: int, edges: Iterable[tuple[int, int, float]]) -> WeightedDigraph:
    """Validate and canonicalize a weighted edge list into a WeightedDigraph.

    Rejects self-loops, nonpositive weights, out-of-range node indices,
    duplicate (source, target) pairs and weighted degrees that overflow.
    The first edge in input order that fails a check is reported, its checks
    in the order above (arity and index type first); a duplicate is reported
    at its second occurrence.
    """
    _check_node_count(n)
    edges = list(edges)
    triples = edges
    if not (all(issubclass(t, (tuple, list)) for t in set(map(type, edges)))
            and set(map(len, edges)) <= {3}):
        triples = _unpacked(edges)
    ks, js, ws = _columns(triples)
    # the columns end before the first edge whose indices are not ints or whose weight does not convert
    end = len(ks)
    not_int = {t for t in set(map(type, ks)) | set(map(type, js)) if not issubclass(t, int)}
    if not_int:
        end = next(i for i, (k, j) in enumerate(zip(ks, js)) if type(k) in not_int or type(j) in not_int)
    wts = _weights(ws[:end])
    end = len(wts)
    return _graph_from_columns(n, np.array(ks[:end]), np.array(js[:end]), wts, len(edges),
                               lambda i: (edges[i], triples[i] if i < len(triples) else None))


def _graph_from_columns(n: int, src: np.ndarray, dst: np.ndarray, wts: np.ndarray, m: int,
                        edge_at: Callable[[int], tuple]) -> WeightedDigraph:
    """build_graph's checks, run on the edges as arrays.

    The arrays hold the leading edges of m whose indices are integers and
    whose weights convert: the node labels as numpy stores them (int64, or
    float64 or object dtype beyond the int64 range, which the range check
    rejects) and the weights as float64. The caller has scanned the types,
    so no check here looks at one edge at a time. For the error message,
    edge_at(i) gives edge i as passed and unpacked (None when it does not
    unpack), in Python values, as _check_edge reports them.
    """
    # Each check runs on the edges before the first failure found so far,
    # so `end` ends at the first edge that fails any check.
    end = _first((src < 1) | (src > n) | (dst < 1) | (dst > n) | (src == dst), len(wts))
    end = _first(~(wts[:end] > 0) | ~np.isfinite(wts[:end]), end)
    src, dst, wts = src[:end].astype(np.int64), dst[:end].astype(np.int64), wts[:end]
    # labels in 1..n <= 2^15 make src (n + 1) + dst an exact key in (src, dst) order;
    # a stable sort keeps a repeated pair in input order
    order = np.argsort(src * (n + 1) + dst, kind="stable")
    src, dst = src[order], dst[order]
    repeat = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if repeat.any():
        end = int(order[1:][repeat].min())
    if end < m:
        edge, triple = edge_at(end)
        _check_edge(edge, triple, n)
        raise GraphValidationError(f"duplicate edge ({triple[0]}, {triple[1]})")
    g = WeightedDigraph(n, src, dst, wts[order])
    # no weighted degree exceeds the total weight, so a finite total clears them all;
    # cumsum adds in input order, as the degree sums below do in canonical order
    with np.errstate(over="ignore"):
        total = np.cumsum(wts)[-1] if wts.size else 0.0
    if total == math.inf:
        for label, nodes in (("out", g.src), ("in", g.dst)):
            degree = np.bincount(nodes, weights=g.w, minlength=n + 1)
            bad = np.flatnonzero(~np.isfinite(degree))
            if bad.size:
                raise GraphValidationError(
                    f"node {bad[0]}: weighted {label}-degree is not finite ({degree[bad[0]]})")
    return g


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


def weight_range(lap: np.ndarray) -> str:
    """'edge weights lie in [min, max]' over the arcs of a Laplacian, for overflow messages."""
    weights = -lap[lap < 0.0]
    if not weights.size:
        return "the graph has no edges"
    return f"edge weights lie in [{weights.min():.3g}, {weights.max():.3g}]"


def normality(lap: np.ndarray) -> tuple[float, bool]:
    """(||L L^T - L^T L||_F, normal), where normal means the commutator is at most
    DEFAULT_TOL.normality_rtol * max(1, ||L||_F^2).

    Raises GraphValidationError where the commutator or ||L||_F^2 overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residual = normality_residual(lap)
        lap_norm2 = float(np.linalg.norm(lap, "fro") ** 2)
    if not (math.isfinite(residual) and math.isfinite(lap_norm2)):
        raise GraphValidationError(f"the normality test overflows double precision: {weight_range(lap)}")
    return residual, residual <= DEFAULT_TOL.normality_rtol * max(1.0, lap_norm2)


def _reaches_every_node(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """True if node 0 reaches all of 0..n-1 over the arcs src[i] -> dst[i].

    A level-by-level search: the arcs are sorted by source, so each level
    reads only the out-arcs of its frontier, located by the per-source offsets.
    """
    bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        heads = np.concatenate([dst[bounds[v]:bounds[v + 1]] for v in frontier])
        if len(frontier) > 1:  # several nodes' arcs may share a head
            hit = np.zeros(n, dtype=bool)
            hit[heads] = True
            heads = np.flatnonzero(hit)
        heads = heads[~seen[heads]]
        seen[heads] = True
        frontier = heads.tolist()
    return bool(seen.all())


def strongly_connected(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Strong connectivity of the arcs src[i] -> dst[i] on nodes 0..n-1.

    `src` must be sorted. The graph is strongly connected exactly when
    node 0 reaches every node over the arcs and over the reversed arcs.
    """
    if not _reaches_every_node(n, src, dst):
        return False
    order = np.argsort(dst)
    return _reaches_every_node(n, dst[order], src[order])


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """Strong connectivity of the directed edge pattern (weights ignored)."""
    return strongly_connected(g.n, g.src - 1, g.dst - 1)


def classify(g: WeightedDigraph) -> GraphProfile:
    """Compute degrees and the balance / strong-connectivity / normality flags."""
    return _classify(g, laplacian(g))


def _classify(g: WeightedDigraph, lap: np.ndarray) -> GraphProfile:
    """classify(g) on lap = laplacian(g). The degrees are bit-equal to the
    adjacency's sums: the diagonal of lap is the out-degree (-0.0 for a node
    without out-arcs, hence + 0.0), and -lap off the diagonal is the adjacency."""
    out_deg = np.diag(lap) + 0.0
    adjacency = -lap
    np.fill_diagonal(adjacency, 0.0)
    in_deg = adjacency.sum(axis=0)
    # an infinite degree sum means an infinite ||L||_F^2, which normality reports
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.max(out_deg + in_deg, initial=0.0)))
    residual, normal = normality(lap)
    balanced = bool(np.all(np.abs(out_deg - in_deg) <= DEFAULT_TOL.balance_rtol * scale))
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
    if not g.src.size:
        return g
    lo, hi = np.minimum(g.src, g.dst), np.maximum(g.src, g.dst)
    order = np.lexsort((hi, lo))  # stable: arc (lo, hi) precedes (hi, lo), as in g
    lo, hi, arc_w = lo[order], hi[order], g.w[order]
    start = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
    # (w_kj + w_jk)/2 keeps a subnormal pair's last bit, so mirroring a mirror is the
    # identity; w_kj/2 + w_jk/2 where the sum overflows. Halving a normal float is
    # exact, so the two agree bit for bit everywhere else.
    with np.errstate(over="ignore"):
        w = np.add.reduceat(arc_w, start) / 2.0
    overflow = np.isinf(w)
    if overflow.any():
        w[overflow] = np.add.reduceat(arc_w / 2.0, start)[overflow]
    lo, hi = lo[start], hi[start]
    if not w.all():
        # only a lone arc of the least subnormal weight halves to zero; report the pair met first in g
        first = np.flatnonzero(w == 0.0)[np.argmin(order[start][w == 0.0])]
        raise GraphValidationError(f"edge ({lo[first]}, {hi[first]}): weight must be finite and > 0, got 0.0")
    src, dst, w = np.concatenate([lo, hi]), np.concatenate([hi, lo]), np.concatenate([w, w])
    order = np.lexsort((dst, src))
    return WeightedDigraph(g.n, src[order], dst[order], w[order])


def permute_graph(g: WeightedDigraph, perm: tuple[int, ...]) -> WeightedDigraph:
    """Relabel nodes: node k becomes perm[k-1] (perm is a permutation of 1..n)."""
    if sorted(perm) != list(range(1, g.n + 1)):
        raise GraphValidationError(f"{_show(perm)} is not a permutation of 1..{g.n}")
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


def _check_item(idx: int, item: object) -> None:
    """Raise graph_from_dict's error for the edge item at position idx, its checks in order."""
    if not (isinstance(item, list) and len(item) == 3):
        raise GraphFormatError(f"edge #{idx + 1} {_show(item)}: expected [source, target, weight]")
    k, j, w = item
    if not (isinstance(k, int) and isinstance(j, int)) or isinstance(k, bool) or isinstance(j, bool):
        raise GraphFormatError(f"edge #{idx + 1} {_show(item)}: node indices must be integers")
    if isinstance(w, bool) or not isinstance(w, (int, float)):
        raise GraphFormatError(f"edge #{idx + 1} {_show(item)}: weight {_show(w)} is not a number")
    try:
        float(w)
    except OverflowError:
        raise GraphFormatError(f"edge #{idx + 1} [{k}, {j}, ...]: weight is an integer "
                               "beyond the float range") from None


def graph_from_dict(data: dict) -> WeightedDigraph:
    """Build a graph from the JSON-schema dict, with field-level diagnostics.

    The item types are scanned column by column; the labels and weights are
    then converted to arrays once. An undirected item (k, j, w) becomes the
    arcs (k, j, w), (j, k, w), laid out by strided assignment into arrays
    of the wider label dtype, so that a label beyond int64 stays an object
    and fails the range check.
    """
    if not isinstance(data, dict):
        raise GraphFormatError(f"expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"n", "edges", "undirected"}
    if unknown:
        raise GraphFormatError(f"unknown fields: {sorted(unknown)}")
    if "n" not in data or "edges" not in data:
        raise GraphFormatError('both "n" and "edges" fields are required')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphFormatError(f'"n" must be an integer, got {_show(n)}')
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise GraphFormatError('"edges" must be a list of [source, target, weight] triples')
    undirected = data.get("undirected", False)
    if not isinstance(undirected, bool):
        raise GraphFormatError(f'"undirected" must be a boolean, got {_show(undirected)}')
    end = len(raw_edges)
    if not (all(issubclass(t, list) for t in set(map(type, raw_edges)))
            and set(map(len, raw_edges)) <= {3}):
        end = next(i for i, item in enumerate(raw_edges) if not (isinstance(item, list) and len(item) == 3))
    ks, js, ws = _columns(raw_edges[:end])
    not_index = {t for t in set(map(type, ks)) | set(map(type, js))
                 if not issubclass(t, int) or issubclass(t, bool)}
    not_weight = {t for t in set(map(type, ws)) if issubclass(t, bool) or not issubclass(t, (int, float))}
    if not_index or not_weight:
        end = next(i for i, (k, j, w) in enumerate(zip(ks, js, ws))
                   if type(k) in not_index or type(j) in not_index or type(w) in not_weight)
    try:
        weights = np.array(ws[:end], dtype=float)
    except OverflowError:  # an int beyond the float range: _check_item reports the first
        weights = _weights(ws[:end])
        end = len(weights)
    if end < len(raw_edges):
        _check_item(end, raw_edges[end])
    src, dst = np.array(ks), np.array(js)
    if undirected:  # item (k, j, w) stands for the arc (k, j, w) followed by (j, k, w)
        k, j = src, dst
        # the wider of the two dtypes, so a label beyond int64 stays an object
        src = np.empty(2 * k.size, dtype=np.result_type(k, j))
        dst = np.empty_like(src)
        src[0::2], src[1::2], dst[0::2], dst[1::2] = k, j, j, k
        weights = np.repeat(weights, 2)

    def arc(i: int) -> tuple:  # arc i in Python values, for the error message
        item, back = divmod(i, 2) if undirected else (i, 0)
        k, j = (js[item], ks[item]) if back else (ks[item], js[item])
        return ((k, j, float(weights[i])),) * 2

    try:
        _check_node_count(n)
        return _graph_from_columns(n, src, dst, weights, weights.size, arc)
    except GraphValidationError as exc:
        raise GraphFormatError(str(exc)) from exc


def graph_to_dict(g: WeightedDigraph) -> dict:
    """Canonical JSON-schema dict for a graph (always explicit, "undirected": false)."""
    edges = list(map(list, zip(g.src.tolist(), g.dst.tolist(), g.w.tolist())))
    return {"n": g.n, "edges": edges, "undirected": False}


def load_graph(path: str) -> WeightedDigraph:
    """Load and validate a graph file, with parse diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # json.load's int() of a literal longer than the conversion limit
        raise GraphFormatError(f"{path}: a number literal exceeds Python's integer conversion limit "
                               f"({sys.get_int_max_str_digits()} digits)") from exc
    return graph_from_dict(data)
