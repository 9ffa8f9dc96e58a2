"""The request path end to end: relabelling a graph's nodes permutes every
per-node row of analyze and centrality and keeps every verify status, and
the profile the request builds from the Laplacian matches the adjacency's.
A graph whose Laplacian is exactly symmetric serves as its own mirror, and
is bit for bit what mirror_graph makes of it.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddmnet import DEFAULT_TOL, build_graph, classify, graph_to_dict, laplacian, mirror_graph, permute_graph
from ddmnet.cli import main
from ddmnet.request import Request

WEIGHTS = st.floats(0.1, 10.0)


@st.composite
def undirected_graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = {(draw(st.integers(1, b - 1)), b) for b in range(2, n + 1)}  # a spanning tree
    pairs |= set(draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                               .filter(lambda p: p[0] < p[1]), max_size=n)))
    edges = []
    for k, j in sorted(pairs):
        w = draw(WEIGHTS)
        edges += [(k, j, w), (j, k, w)]
    return build_graph(n, edges)


@st.composite
def directed_rings(draw):
    n = draw(st.integers(3, 7))
    forward, backward = draw(WEIGHTS), draw(st.none() | WEIGHTS)
    edges = [(k, k % n + 1, forward) for k in range(1, n + 1)]
    if backward is not None:
        edges += [(k % n + 1, k, backward) for k in range(1, n + 1)]
    return build_graph(n, edges)


@st.composite
def unbalanced_digraphs(draw):
    # a spanning tree of single arcs in drawn directions keeps the mirror connected
    n = draw(st.integers(2, 7))
    arcs = {}
    for b in range(2, n + 1):
        a = draw(st.integers(1, b - 1))
        arcs[(a, b) if draw(st.booleans()) else (b, a)] = draw(WEIGHTS)
    for k, j in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1]),
                              max_size=2 * n)):
        arcs[(k, j)] = draw(WEIGHTS)
    return build_graph(n, [(k, j, w) for (k, j), w in arcs.items()])


def run(command, g):
    """Exit code and JSON report of `ddmnet command` on g (report None when nothing was written)."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, report = os.path.join(tmp, "g.json"), os.path.join(tmp, "report.json")
        with open(graph, "w", encoding="utf-8") as fh:
            json.dump(graph_to_dict(g), fh)
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, graph, "--output", report])
        if not os.path.exists(report):
            return code, None
        with open(report, encoding="utf-8") as fh:
            return code, json.load(fh)


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= DEFAULT_TOL.route_agreement_rtol * max(abs(a), abs(b))


def assert_rows_permuted(rows, permuted_rows, perm, fields):
    assert len(rows) == len(permuted_rows) == len(perm)
    for row in rows:
        image = permuted_rows[perm[row["node"] - 1] - 1]
        assert image["node"] == perm[row["node"] - 1]
        for field in fields:
            assert close(row[field], image[field]), (field, row, image)


@settings(max_examples=40, deadline=None)
@given(st.one_of(undirected_graphs(), directed_rings(), unbalanced_digraphs()), st.data())
def test_relabelling_permutes_every_report(g, data):
    perm = tuple(data.draw(st.permutations(range(1, g.n + 1))))
    h = permute_graph(g, perm)

    (code, report), (code_h, report_h) = run("analyze", g), run("analyze", h)
    assert code == code_h == 0
    assert report["routes"].keys() == report_h["routes"].keys()
    for name, route in report["routes"].items():
        assert route["applicable"] == report_h["routes"][name]["applicable"]
        if route["applicable"]:
            assert_rows_permuted(route["rows"], report_h["routes"][name]["rows"], perm, ("mu", "inv_mu"))

    (code, report), (code_h, report_h) = run("centrality", g), run("centrality", h)
    assert code == code_h == 0
    assert_rows_permuted(report["centrality"]["rows"], report_h["centrality"]["rows"], perm,
                         ("closeness", "info_harmonic", "info_arithmetic"))

    (code, report), (code_h, report_h) = run("verify", g), run("verify", h)
    assert code == code_h
    assert ([(c["name"], c["status"]) for c in report["checks"]]
            == [(c["name"], c["status"]) for c in report_h["checks"]])


@settings(max_examples=60, deadline=None)
@given(st.one_of(undirected_graphs(), directed_rings(), unbalanced_digraphs()))
def test_profile_degrees_are_the_adjacency_sums(g):
    # bit for bit, with 0.0 (never -0.0) for a node without out- or in-arcs
    a = g.adjacency()
    profile = classify(g)
    for got, want in ((profile.out_degree, a.sum(axis=1)), (profile.in_degree, a.sum(axis=0))):
        assert np.asarray(got).tobytes() == want.tobytes()
        assert not any(math.copysign(1.0, d) < 0 for d in got)


@st.composite
def exactly_symmetric_graphs(draw):
    """Graphs whose every arc has its reverse at the same weight, from subnormal to 1e300."""
    n = draw(st.integers(2, 7))
    pairs = [(k, j) for k in range(1, n + 1) for j in range(k + 1, n + 1)]
    edges = []
    for k, j in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)):
        w = draw(st.floats(min_value=5e-324, max_value=1e300))
        edges += [(k, j, w), (j, k, w)]
    return build_graph(n, edges)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(exactly_symmetric_graphs())
@example(build_graph(2, [(1, 2, 1e308), (2, 1, 1e308)]))  # w + w overflows; w/2 + w/2 does not
def test_a_symmetric_graph_is_its_own_mirror(g):
    mirrored = mirror_graph(g)
    for got, want in ((mirrored.src, g.src), (mirrored.dst, g.dst), (mirrored.w, g.w)):
        assert same_bits(got, want)
    req = Request(g)
    assert req.mirror is g
    assert same_bits(req.lap_mirror, laplacian(mirrored))


def test_reverse_weights_one_ulp_apart_take_the_real_mirror():
    # within is_undirected's tolerance, yet not exactly symmetric: the mirror averages
    w, w_back = 3.0, float(np.nextafter(3.0, 4.0))
    g = build_graph(3, [(1, 2, w), (2, 1, w_back), (2, 3, 1.0), (3, 2, 1.0)])
    assert g.is_undirected()
    req = Request(g)
    assert req.mirror is not g and req.mirror != g
    assert req.mirror == mirror_graph(g)
    assert req.mirror.w.tolist() == [(w + w_back) / 2.0, (w + w_back) / 2.0, 1.0, 1.0]
    assert same_bits(req.lap_mirror, laplacian(mirror_graph(g)))


def test_the_shared_laplacian_is_read_only():
    req = Request(build_graph(2, [(1, 2, 1.0), (2, 1, 1.0)]))
    assert req.lap_mirror is req.lap
    with pytest.raises(ValueError, match="read-only"):
        req.lap[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        req.lap_mirror += 1.0
