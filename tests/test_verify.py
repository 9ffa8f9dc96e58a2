from pathlib import Path

import numpy as np
import pytest

from conftest import random_connected_graph
from ddmnet import (DdmnetError, FamilySpec, Request, all_passed, build_graph, laplacian, load_graph,
                    make_family, mirror_graph, run_checks)
from ddmnet.certainty import _covariance_step
from ddmnet.verify import _row_sum_deviations

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_suite_all_pass(benchmark_graph):
    results = run_checks(Request(benchmark_graph))
    assert all_passed(results)
    assert all(r.status == "PASS" for r in results if r.name.startswith("route-"))


def test_directed_ring_routes_apply():
    g = build_graph(5, [(k, k % 5 + 1, 1.0) for k in range(1, 6)])
    results = run_checks(Request(g))
    assert all_passed(results)
    statuses = {r.name: r.status for r in results}
    assert statuses["route-spectral-vs-group-inverse"] == "PASS"
    # the dispersion identity is asserted for undirected graphs only
    assert statuses["dispersion-kirchhoff-identity"] == "SKIP"


def test_random_undirected_graphs_pass():
    rng = np.random.default_rng(55)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 8)))
        assert all_passed(run_checks(Request(g)))


def test_path_oracle_passes_where_path_lengths_lie_far_apart():
    # the 1e-300 edge makes the paths through it 1e300 long; the oracle's
    # pseudoinverse must not cut the unit-length path away with them
    g = build_graph(3, [(1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0), (1, 3, 1e-300), (3, 1, 1e-300)])
    results = run_checks(Request(g))
    assert all_passed(results)
    oracle = next(r for r in results if r.name == "path-oracle-vs-matrix-information")
    assert oracle.status == "PASS"


def test_imploding_star_skips_and_passes():
    g = build_graph(4, [(k, 1, 1.0) for k in (2, 3, 4)])
    results = run_checks(Request(g))
    assert all_passed(results)
    statuses = {r.name: r.status for r in results}
    assert statuses["spectral-route"] == "SKIP"
    assert statuses["mirror-symmetric-part"] == "SKIP"
    assert statuses["covariance-small-time"] == "PASS"


def test_two_exponentials_per_run(benchmark_graph, exponential_calls):
    # one Van Loan block at t = 1e-6 and one at the walk's step 0.5; the
    # row-stochastic check reuses their propagators
    results = run_checks(Request(benchmark_graph))
    assert all_passed(results)
    assert exponential_calls == [(5, 5), (5, 5)]


@pytest.mark.parametrize("path", ["fixtures/five_node_benchmark.json", "tests/data/undirected60.json"])
def test_mirror_symmetric_part_reads_a_mirror_built_afresh(path, monkeypatch):
    # an undirected graph is its own mirror, so the request's mirror Laplacian is
    # lap itself; the check compares (L + L^T) / 2 with the Laplacian of a mirror
    # built by mirror_graph, and a mirror that is off by 1e-6 must fail it
    g = load_graph(str(ROOT / path))
    assert {r.name: r.status for r in run_checks(Request(g))}["mirror-symmetric-part"] == "PASS"

    def off(h):
        mirror = mirror_graph(h)
        return build_graph(mirror.n, [(k, j, w + 1e-6) for k, j, w in mirror.edges])

    monkeypatch.setattr("ddmnet.verify.mirror_graph", off)
    statuses = {r.name: r.status for r in run_checks(Request(g))}
    assert statuses["mirror-symmetric-part"] == "FAIL"


def test_no_geodesic_closeness(closeness_calls):
    # the centrality route needs only the information scores
    rng = np.random.default_rng(56)
    for g in (build_graph(5, [(k, k % 5 + 1, 1.0) for k in range(1, 6)]), random_connected_graph(rng, 7)):
        assert all_passed(run_checks(Request(g)))
    assert closeness_calls == []


@pytest.mark.filterwarnings("error")
def test_plateau_time_beyond_the_float_range_is_an_error():
    # Re lambda_2 = 9e-308 puts the plateau at 0.5 * 2^1025, which no double holds
    g = build_graph(3, [(k, j, 3e-308) for k in (1, 2, 3) for j in (1, 2, 3) if k != j])
    with pytest.raises(DdmnetError, match=r"^the covariance at t = 0\.5 \* 2\^1025 overflows double "
                                          r"precision: edge weights lie in \[3e-308, 3e-308\]$"):
        run_checks(Request(g))


@pytest.mark.parametrize("g", [load_graph(str(ROOT / "fixtures/five_node_benchmark.json")),
                               load_graph(str(ROOT / "tests/data/digraph6.json")),
                               make_family(FamilySpec("exploding_star", 6)),
                               make_family(FamilySpec("imploding_star", 6))],
                         ids=["fixture", "digraph6", "exploding_star", "imploding_star"])
def test_row_sum_recurrence_matches_matrix_powers(g):
    # the reference forms Phi^k itself, by repeated squaring
    e, _ = _covariance_step(laplacian(g), 0.5)
    deviations = _row_sum_deviations(e, 10)
    eye = np.eye(g.n)
    for k in (4, 10):
        reference = (np.linalg.matrix_power(eye + e, k) - eye).sum(axis=1)
        assert np.abs(deviations[k - 1] - reference).max() <= 1e-14, k
