from pathlib import Path

import numpy as np
import pytest

from conftest import random_connected_graph
import ddmnet.simulate as simulate_module
from ddmnet import (DdmnetError, FamilySpec, ModelParams, Request, all_passed, build_graph, laplacian,
                    load_graph, make_family, mirror_graph, run_checks)
from ddmnet.certainty import _covariance_step
from ddmnet.cli import main
from ddmnet.verify import _panel_vs_steps, _row_sum_deviations

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_suite_all_pass(benchmark_graph):
    results = run_checks(Request(benchmark_graph))
    assert all_passed(results)
    assert all(r.status == "PASS" for r in results if r.name.startswith(("route-", "bridge-")))


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


@pytest.mark.parametrize("sigma", [1e-160, 1e-170, 5e-324])
def test_plateau_passes_where_sigma_squared_leaves_the_normal_range(benchmark_graph, sigma):
    # the plateau check reads the unit-noise 1/mu: the report's 1/mu divided by a
    # subnormal sigma^2 lost its digits, and by an underflowed one gave nan
    results = run_checks(Request(benchmark_graph, ModelParams(sigma=sigma)))
    assert all_passed(results)


def test_path_oracle_skips_a_length_that_overflows():
    # the 1/w of a subnormal weight is inf: the oracle's scaling gave nan, and a FAIL
    g = build_graph(3, [(1, 2, 5e-324), (2, 1, 5e-324), (1, 3, 1.0), (3, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
    results = run_checks(Request(g))
    assert all_passed(results)
    oracle = next(r for r in results if r.name == "path-oracle-vs-matrix-information")
    assert oracle.status == "SKIP" and "overflow" in oracle.detail


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


def reversed_blocks(step_matrix_t, span, noise_scale):
    """`_panel_operator` with the blocks of K in reverse order: block s is M^s."""
    stack, power = simulate_module._panel_operator(step_matrix_t, span, noise_scale)
    n = power.shape[0]
    return stack.reshape(span, n, n)[::-1].reshape(span * n, n), power


def no_drift(x, noise, operator, drift, span):
    return simulate_module._advance_panel(x, noise, operator, 0.0, span)


@pytest.mark.parametrize("attr,mutant", [("_panel_operator", reversed_blocks), ("_advance_panel", no_drift)],
                         ids=["reversed-blocks", "no-drift"])
def test_a_broken_panel_fails_the_simulator_check(attr, mutant, monkeypatch, capsys):
    # both advances read one draw, so the check fails wherever the panel algebra is wrong
    assert main(["verify", str(ROOT / "fixtures/five_node_benchmark.json")]) == 0
    assert "PASS simulation-panel-vs-steps" in capsys.readouterr().err
    monkeypatch.setattr(f"ddmnet.verify.{attr}", mutant)
    assert main(["verify", str(ROOT / "fixtures/five_node_benchmark.json")]) == 1
    assert "FAIL simulation-panel-vs-steps" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e-6, 1e-12, 1e-300])
@pytest.mark.filterwarnings("error")
def test_the_simulator_check_keeps_its_power_on_small_weights(scale, monkeypatch):
    # M takes h ||L||_inf = 0.05 at every weight scale, and the drift does not outgrow
    # the noise, so reversed blocks of K fail far above the 1e-12 gate
    base = load_graph(str(ROOT / "tests/data/undirected60.json"))
    lap = laplacian(build_graph(base.n, [(k, j, w * scale) for k, j, w in base.edges]))
    for params in (ModelParams(), ModelParams(beta=1e300)):
        assert _panel_vs_steps(lap, params)[0] == "PASS"
    monkeypatch.setattr("ddmnet.verify._panel_operator", reversed_blocks)
    status, detail = _panel_vs_steps(lap, ModelParams())
    assert status == "FAIL"
    assert float(detail.split("= ")[1].split(";")[0]) > 1e-3


@pytest.mark.filterwarnings("error")
def test_simulator_states_that_overflow_name_beta(monkeypatch):
    # 2 panels of 200 steps of drift beta h = 1e306 pass the largest double; the
    # check raises, never a FAIL on inf or nan
    monkeypatch.setattr("ddmnet.verify.PANEL_CHECK_SPAN", 200)
    with pytest.raises(DdmnetError, match=r"^the simulated states at t = 4 overflow double precision: "
                                          r"beta = 1e\+308 is too large$"):
        run_checks(Request(build_graph(1, []), ModelParams(beta=1e308)))
