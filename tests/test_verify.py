import numpy as np

from conftest import random_connected_graph
from ddmnet import all_passed, build_graph, run_checks


def test_benchmark_suite_all_pass(benchmark_graph):
    results = run_checks(benchmark_graph)
    assert all_passed(results)
    assert all(r.status == "PASS" for r in results if r.name.startswith("route-"))


def test_directed_ring_routes_apply():
    g = build_graph(5, [(k, k % 5 + 1, 1.0) for k in range(1, 6)])
    results = run_checks(g)
    assert all_passed(results)
    statuses = {r.name: r.status for r in results}
    assert statuses["route-spectral-vs-group-inverse"] == "PASS"
    # the dispersion identity is asserted for undirected graphs only
    assert statuses["dispersion-kirchhoff-identity"] == "SKIP"


def test_random_undirected_graphs_pass():
    rng = np.random.default_rng(55)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 8)))
        assert all_passed(run_checks(g))


def test_imploding_star_skips_and_passes():
    g = build_graph(4, [(k, 1, 1.0) for k in (2, 3, 4)])
    results = run_checks(g)
    assert all_passed(results)
    statuses = {r.name: r.status for r in results}
    assert statuses["spectral-route"] == "SKIP"
    assert statuses["mirror-symmetric-part"] == "SKIP"
    assert statuses["covariance-small-time"] == "PASS"


def test_two_exponentials_per_run(benchmark_graph, expm_calls):
    # one Van Loan block at t = 1e-6 and one at the walk's step 0.5; the
    # row-stochastic check reuses their propagators
    results = run_checks(benchmark_graph)
    assert all_passed(results)
    assert expm_calls == [(10, 10), (10, 10)]


def test_no_geodesic_closeness(closeness_calls):
    # the centrality route needs only the information scores
    rng = np.random.default_rng(56)
    for g in (build_graph(5, [(k, k % 5 + 1, 1.0) for k in range(1, 6)]), random_connected_graph(rng, 7)):
        assert all_passed(run_checks(g))
    assert closeness_calls == []
