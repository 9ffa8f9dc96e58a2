"""The array-backed graph routines against the per-edge loops they replaced.

The reference functions below are the earlier implementations, kept verbatim
in logic: a per-edge validation loop, a dict-based mirror and a dict-based
symmetry test. Over random edge lists with injected faults, the library must
raise the same exception class with the same message, and on valid lists
give the same arcs, bit-equal mirror weights and the same symmetry verdict.
The references echo edges with the library's `_show`, which is `repr` except
for an int too long to convert to a string. The numpy strong-connectivity
search is held to scipy's strongly connected components the same way.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ddmnet import GraphFormatError, GraphValidationError, build_graph, graph_from_dict, mirror_graph
from ddmnet.graph import _show, is_strongly_connected, strongly_connected

# --- reference implementations ------------------------------------------------


def ref_build_graph(n, edges):
    if not isinstance(n, int) or n < 1:
        raise GraphValidationError(f"node count must be a positive integer, got {_show(n)}")
    seen = set()
    canon = []
    total = 0.0
    for edge in edges:
        try:
            k, j, w = edge
        except (TypeError, ValueError) as exc:
            raise GraphValidationError(f"edge {_show(edge)} is not a (source, target, weight) triple") from exc
        if not (isinstance(k, int) and isinstance(j, int)):
            raise GraphValidationError(f"edge {_show(edge)}: node indices must be integers")
        if not (1 <= k <= n and 1 <= j <= n):
            raise GraphValidationError(f"edge {_show(edge)}: node index out of range 1..{n}")
        if k == j:
            raise GraphValidationError(f"edge {_show(edge)}: self-loops are not allowed")
        try:
            w = float(w)
        except OverflowError:
            raise GraphValidationError(f"edge ({k}, {j}): weight is an integer beyond the float range") from None
        if not w > 0 or not np.isfinite(w):
            raise GraphValidationError(f"edge ({k}, {j}): weight must be finite and > 0, got {w}")
        if (k, j) in seen:
            raise GraphValidationError(f"duplicate edge ({k}, {j})")
        seen.add((k, j))
        canon.append((k, j, w))
        total += w
    canon.sort()
    if total == math.inf:
        src, dst, wts = (np.array(col) for col in zip(*canon))
        for label, nodes in (("out", src), ("in", dst)):
            degree = np.bincount(nodes, weights=wts, minlength=n + 1)
            bad = np.flatnonzero(~np.isfinite(degree))
            if bad.size:
                raise GraphValidationError(
                    f"node {bad[0]}: weighted {label}-degree is not finite ({degree[bad[0]]})")
    return tuple(canon)


def ref_graph_from_dict(data):
    n = data["n"]
    edges = []
    for idx, item in enumerate(data["edges"]):
        if not (isinstance(item, list) and len(item) == 3):
            raise GraphFormatError(f"edge #{idx + 1} {_show(item)}: expected [source, target, weight]")
        k, j, w = item
        if not (isinstance(k, int) and isinstance(j, int)) or isinstance(k, bool) or isinstance(j, bool):
            raise GraphFormatError(f"edge #{idx + 1} {_show(item)}: node indices must be integers")
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise GraphFormatError(f"edge #{idx + 1} {_show(item)}: weight {_show(w)} is not a number")
        try:
            w = float(w)
        except OverflowError:
            raise GraphFormatError(f"edge #{idx + 1} [{k}, {j}, ...]: weight is an integer "
                                   "beyond the float range") from None
        edges.append((k, j, w))
        if data["undirected"]:
            edges.append((j, k, w))
    try:
        return ref_build_graph(n, edges)
    except GraphValidationError as exc:
        raise GraphFormatError(str(exc)) from exc


def ref_mirror(n, edges):
    half = {}
    for k, j, w in edges:
        key = (min(k, j), max(k, j))
        half[key] = half.get(key, 0.0) + w / 2.0
    mirrored = []
    for (a, b), w in half.items():
        mirrored.append((a, b, w))
        mirrored.append((b, a, w))
    return ref_build_graph(n, mirrored)


def ref_is_undirected(edges, rtol=1e-12):
    weights = {(k, j): w for k, j, w in edges}
    for (k, j), w in weights.items():
        wr = weights.get((j, k))
        if wr is None or abs(wr - w) > rtol * max(1.0, abs(w)):
            return False
    return True


def outcome(fn, *args):
    """("ok", arcs with weights as hex) or (exception class, message)."""
    try:
        result = fn(*args)
    except Exception as exc:  # the class is part of what is compared
        return type(exc), str(exc)
    arcs = result if isinstance(result, tuple) else result.edges
    return "ok", tuple((k, j, float(w).hex()) for k, j, w in arcs)


# --- strategies -------------------------------------------------------------------

WEIGHTS = st.one_of(st.floats(min_value=1e-3, max_value=1e3), st.just(5e-324),
                    st.floats(min_value=5e-324, max_value=1e-300), st.just(1e308))


def _bad_arity(draw, n, edges):
    return draw(st.sampled_from([[1, 2], [1, 2, 1.0, 4.0], (), 7, None, "ab", (1,), [1, 2, 10**5000, 4]]))


def _bad_index_type(draw, n, edges):
    bad = draw(st.sampled_from([1.0, "1", None, True, np.int64(1), 2.5]))
    return draw(st.sampled_from([[bad, n, 1.0], [1, bad, 1.0]]))


def _out_of_range(draw, n, edges):
    bad = draw(st.sampled_from([0, -1, n + 1, 2**70, -(2**70), 10**5000]))
    return draw(st.sampled_from([[bad, 1, 1.0], [1, bad, 1.0]]))


def _self_loop(draw, n, edges):
    k = draw(st.integers(1, n))
    return [k, k, 1.0]


def _bad_weight(draw, n, edges):
    k = draw(st.integers(1, n))
    j = draw(st.integers(1, n))
    bad = draw(st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 0, -2,
                                "x", "2.5", None, 10**400, 10**5000, True]))
    return [k, j, bad]


def _duplicate(draw, n, edges):
    pairs = [e for e in edges if isinstance(e, list) and len(e) == 3]
    if not pairs:
        return [1, min(2, n), 1.0]
    k, j, _ = draw(st.sampled_from(pairs))
    return [k, j, draw(WEIGHTS)]


def _heavy(draw, n, edges):
    return [draw(st.integers(1, n)), draw(st.integers(1, n)), 1e308]


FAULTS = (_bad_arity, _bad_index_type, _out_of_range, _self_loop, _bad_weight, _duplicate, _heavy)


@st.composite
def edge_lists(draw, faults=True):
    """(n, edges) with unique off-diagonal pairs, then up to three injected faults."""
    n = draw(st.integers(1, 6))
    pairs = [(k, j) for k in range(1, n + 1) for j in range(1, n + 1) if k != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    edges = [[k, j, draw(WEIGHTS)] for k, j in chosen]
    for _ in range(draw(st.integers(0, 3)) if faults else 0):
        fault = draw(st.sampled_from(FAULTS))
        edges.insert(draw(st.integers(0, len(edges))), fault(draw, n, edges))
    return n, edges


@st.composite
def symmetric_graphs(draw):
    """Valid edge lists that are undirected, or nearly so within and beyond rtol."""
    n = draw(st.integers(2, 6))
    pairs = [(k, j) for k in range(1, n + 1) for j in range(k + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    edges = []
    for k, j in chosen:
        w = draw(st.floats(min_value=1e-3, max_value=1e3))
        edges.append((k, j, w))
        if draw(st.integers(0, 5)):
            rel = draw(st.sampled_from([0.0, 0.0, 5e-13, -5e-13, 2e-12, 1e-9]))
            edges.append((j, k, w * (1.0 + rel)))
    return n, edges


@st.composite
def arc_patterns(draw):
    """(n, arcs) on nodes 1..n: a ring, a one-way chain or nothing over some of the
    nodes (the rest isolated), plus random extra arcs, possibly none."""
    n = draw(st.integers(1, 30))
    order = draw(st.permutations(range(1, n + 1)))[:draw(st.integers(1, n))]
    shape = draw(st.sampled_from(["ring", "chain", "none"]))
    arcs = set(zip(order, order[1:])) if shape != "none" else set()
    if shape == "ring" and len(order) > 1:
        arcs.add((order[-1], order[0]))
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    arcs |= {(k, j) for k, j in extra if k != j}
    return n, sorted(arcs)


def scipy_strongly_connected(n, arcs):
    k, j = (np.array(c, dtype=int) - 1 for c in zip(*arcs)) if arcs else (np.zeros(0, int),) * 2
    pattern = csr_matrix((np.ones(len(arcs)), (k, j)), shape=(n, n))
    return connected_components(pattern, directed=True, connection="strong")[0] == 1


# --- properties ---------------------------------------------------------------------


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(edge_lists(), st.booleans())
    def test_build_graph(self, case, as_tuples):
        n, edges = case
        if as_tuples:
            edges = [tuple(e) if isinstance(e, list) else e for e in edges]
        assert outcome(build_graph, n, edges) == outcome(ref_build_graph, n, edges)

    @settings(max_examples=400, deadline=None)
    @given(edge_lists(), st.booleans())
    def test_graph_from_dict(self, case, undirected):
        n, edges = case
        data = {"n": n, "edges": edges, "undirected": undirected}
        assert outcome(graph_from_dict, data) == outcome(ref_graph_from_dict, data)

    @settings(max_examples=200, deadline=None)
    @given(edge_lists(faults=False))
    def test_mirror_weights_bit_equal(self, case):
        n, edges = case
        assume(outcome(build_graph, n, edges)[0] == "ok")  # 1e308 weights can overflow a degree
        g = build_graph(n, edges)
        assert outcome(mirror_graph, g) == outcome(ref_mirror, n, g.edges)

    @settings(max_examples=200, deadline=None)
    @given(symmetric_graphs(), st.sampled_from([1e-12, 1e-9, 0.0]))
    def test_is_undirected(self, case, rtol):
        n, edges = case
        g = build_graph(n, edges)
        assert g.is_undirected(rtol) == ref_is_undirected(g.edges, rtol)


class TestStrongConnectivity:
    """The numpy reachability against scipy's strongly connected components."""

    @settings(max_examples=400, deadline=None)
    @given(arc_patterns())
    def test_matches_scipy(self, case):
        n, arcs = case
        expected = scipy_strongly_connected(n, arcs)
        assert is_strongly_connected(build_graph(n, [(k, j, 1.0) for k, j in arcs])) == expected
        pattern = np.zeros((n, n))
        for k, j in arcs:
            pattern[k - 1, j - 1] = -1.0
        assert strongly_connected(n, *np.nonzero(pattern)) == expected  # as spectral_decompose calls it

    @pytest.mark.parametrize("closed", [True, False], ids=["ring", "chain"])
    def test_directed_ring_of_2000(self, closed):
        n = 2000
        arcs = [(k, k + 1) for k in range(1, n)] + [(n, 1)] * closed
        g = build_graph(n, [(k, j, 1.0) for k, j in arcs])
        assert is_strongly_connected(g) == closed == scipy_strongly_connected(n, arcs)


class TestStorage:
    def test_arrays_are_read_only_and_canonical(self):
        g = build_graph(3, [(3, 1, 1.0), (1, 3, 2.0), (1, 2, 0.5)])
        assert g.src.tolist() == [1, 1, 3] and g.dst.tolist() == [2, 3, 1]
        assert g.w.tolist() == [0.5, 2.0, 1.0]
        for arr in (g.src, g.dst, g.w):
            assert not arr.flags.writeable

    def test_equality_and_hash_follow_the_arcs(self):
        a = build_graph(3, [(1, 2, 1.0), (2, 3, 2.0)])
        b = build_graph(3, [(2, 3, 2.0), (1, 2, 1.0)])
        assert a == b and hash(a) == hash(b)
        assert a != build_graph(4, [(1, 2, 1.0), (2, 3, 2.0)])
        assert a != build_graph(3, [(1, 2, 1.0), (2, 3, 2.5)])
