import contextlib
import csv
import ctypes
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddmnet import (GraphFormatError, GraphValidationError, build_graph, cli, families, graph_from_dict,
                    graph_to_dict, load_graph)
from ddmnet.cli import main
from ddmnet.config import DEFAULT_TOL
from ddmnet.graph import MAX_NODES

BENCHMARK = "fixtures/five_node_benchmark.json"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


def write_graph(tmp_path, data, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestAnalyze:
    def test_benchmark_json_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _ = run_cli("analyze", BENCHMARK, "--sigma", "1", "--output", str(out_file),
                          capsys=capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["command"] == "analyze"
        assert report["profile"]["out_degree"] == [3.0, 3.0, 2.0, 2.0, 2.0]
        spectral = report["routes"]["spectral"]
        assert spectral["applicable"]
        mus = [row["mu"] for row in spectral["rows"]]
        assert np.round(mus, 2).tolist() == [8.46, 8.46, 5.24, 5.24, 5.0]
        for route in ("group-inverse", "info-centrality"):
            other = [row["mu"] for row in report["routes"][route]["rows"]]
            assert np.allclose(other, mus, rtol=1e-9)
        assert report["dispersion"]["identity_residual"] < 1e-9

    def test_csv_rows(self, capsys):
        code, out = run_cli("analyze", BENCHMARK, "--format", "csv", capsys=capsys)
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0] == "node,mu,inv_mu,route"
        assert len(lines) == 1 + 3 * 5  # three routes, five nodes

    def test_non_normal_graph_reports_inapplicable_routes(self, tmp_path, capsys):
        path = write_graph(tmp_path, {"n": 3, "edges": [[1, 2, 1.0], [1, 3, 1.0]],
                                      "undirected": False})
        out_file = tmp_path / "r.json"
        code, _ = run_cli("analyze", path, "--output", str(out_file), capsys=capsys)
        assert code == 0  # inapplicable routes are reported, not fatal
        report = json.loads(out_file.read_text())
        for route in report["routes"].values():
            assert not route["applicable"]
            assert "reason" in route

    def test_analyze_csv_header_only_when_no_route_applies(self, tmp_path, capsys):
        path = write_graph(tmp_path, {"n": 3, "edges": [[1, 2, 1.0], [1, 3, 1.0]],
                                      "undirected": False}, name="expl.json")
        code, out = run_cli("analyze", path, "--format", "csv", capsys=capsys)
        assert code == 0
        assert out.out == "node,mu,inv_mu,route\n"

    def test_json_report_has_no_presentation_payload(self, tmp_path, capsys):
        out_file = tmp_path / "r.json"
        run_cli("analyze", BENCHMARK, "--output", str(out_file), capsys=capsys)
        report = json.loads(out_file.read_text())
        assert "csv_rows" not in report and "csv_fields" not in report and "curves" not in report

    @pytest.mark.parametrize("command", ["analyze", "family"])
    @pytest.mark.parametrize("flag,value", [("--t-step", "0"), ("--t-step", "-1"),
                                            ("--t-step", "nan"), ("--t-step", "inf"),
                                            ("--t-max", "-1"), ("--t-max", "nan"),
                                            ("--t-max", "inf")])
    def test_bad_curve_grid_is_usage_error(self, command, flag, value, capsys):
        target = BENCHMARK if command == "analyze" else "complete:4:1"
        code, out = run_cli(command, target, "--format", "curves", flag, value, capsys=capsys)
        assert code == 2
        assert out.err.startswith(f"error: {flag} must be finite")

    def test_curves_between_envelopes(self, capsys):
        code, out = run_cli("analyze", BENCHMARK, "--format", "curves",
                            "--t-max", "5", "--t-step", "0.05", capsys=capsys)
        assert code == 0
        lines = out.out.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "var_node_1", "var_node_2", "var_node_3", "var_node_4",
                          "var_node_5", "envelope_lower", "envelope_upper"]
        assert len(lines) == 2 + 100  # t = 0, 0.05, ..., 5
        for line in lines[1:]:
            vals = [float(tok) for tok in line.split(",")]
            lower, upper = vals[-2], vals[-1]
            for v in vals[1:6]:
                assert v >= lower - 1e-9
                assert v <= upper + 1e-9


class TestCentrality:
    def test_benchmark_report(self, tmp_path, capsys):
        out_file = tmp_path / "cent.json"
        code, _ = run_cli("centrality", BENCHMARK, "--output", str(out_file), capsys=capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        rows = report["centrality"]["rows"]
        closeness = [round(r["closeness"], 2) for r in rows]
        assert closeness == [1.0, 1.0, 0.83, 0.83, 0.83]
        assert report["centrality"]["ranking"] == [1, 2, 3, 4, 5]
        pairs = {tuple(p["pair"]): p for p in report["path_oracle"]["pairs"]}
        assert len(pairs) == 10
        for p in pairs.values():
            assert p["information_paths"] == pytest.approx(p["information_matrix"], abs=1e-6)
        # orientation-blind combination deviates exactly on the two opposite-orientation pairs
        assert pairs[(3, 5)]["information_paths_orientation_blind"] == pytest.approx(6 / 7)
        assert pairs[(3, 5)]["information_matrix"] == pytest.approx(11 / 13)

    def test_arithmetic_variant_ranking(self, tmp_path, capsys):
        out_file = tmp_path / "cent.json"
        code, _ = run_cli("centrality", BENCHMARK, "--variant", "arithmetic",
                          "--output", str(out_file), capsys=capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["centrality"]["ranking"] == [1, 2, 5, 3, 4]

    def test_csv_format(self, capsys):
        code, out = run_cli("centrality", BENCHMARK, "--format", "csv", capsys=capsys)
        assert code == 0
        assert out.out.splitlines()[0] == "node,closeness,info_harmonic,info_arithmetic,rank"


    def test_only_centrality_computes_closeness(self, closeness_calls, capsys):
        for command in ("analyze", "verify"):
            assert run_cli(command, BENCHMARK, capsys=capsys)[0] == 0
        assert closeness_calls == []
        assert run_cli("centrality", BENCHMARK, capsys=capsys)[0] == 0
        assert closeness_calls == [5]


class TestFamily:
    def test_complete_nine(self, tmp_path, capsys):
        out_file = tmp_path / "fam.json"
        code, _ = run_cli("family", "complete:9:1", "--sigma", "1",
                          "--output", str(out_file), capsys=capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        assert np.allclose(report["closed_form"]["mu"], 20.25)
        assert report["cross_check"]["inv_mu_spectral_gap"] < 1e-9
        for gap in report["cross_check"]["covariance_integration_gap"].values():
            assert gap < 1e-6

    def test_exploding_star_not_defined(self, tmp_path, capsys):
        out_file = tmp_path / "fam.json"
        code, _ = run_cli("family", "exploding_star:5:1", "--output", str(out_file),
                          capsys=capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        assert "reason" in report["closed_form"]
        for gap in report["cross_check"]["covariance_integration_gap"].values():
            assert gap < 1e-6

    def test_star_center_curve_coincides_with_complete(self, tmp_path, capsys):
        star_file = tmp_path / "star.csv"
        comp_file = tmp_path / "comp.csv"
        run_cli("family", "undirected_star:9:1", "--format", "curves",
                "--t-max", "3", "--t-step", "0.1", "--output", str(star_file), capsys=capsys)
        run_cli("family", "complete:9:1", "--format", "curves",
                "--t-max", "3", "--t-step", "0.1", "--output", str(comp_file), capsys=capsys)
        star = np.loadtxt(str(star_file), delimiter=",", skiprows=1)
        comp = np.loadtxt(str(comp_file), delimiter=",", skiprows=1)
        assert np.abs(star[:, 1] - comp[:, 1]).max() < 1e-9

    def test_long_horizon(self, tmp_path, capsys):
        out_file = tmp_path / "fam.json"
        code, _ = run_cli("family", "exploding_star:4:1", "--times", "1e9",
                          "--output", str(out_file), capsys=capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        gap = report["cross_check"]["covariance_integration_gap"]["1000000000.0"]
        assert gap <= DEFAULT_TOL.covariance_cross_atol

    @pytest.mark.parametrize("times", ["inf", "nan", "-1"])
    def test_bad_time_is_usage_error(self, times, capsys):
        code, out = run_cli("family", "complete:4:1", "--times", times, capsys=capsys)
        assert code == 2
        assert out.err.startswith("error: --times must be finite")

    def test_time_overflowing_the_propagator_is_usage_error(self, capsys):
        # finite, but ||L||_inf * t overflows in the Van Loan step count
        code, out = run_cli("family", "complete:4:1", "--times", "1e308", capsys=capsys)
        assert code == 2
        assert out.err.startswith("error: --times 1e+308:")
        assert "Traceback" not in out.err and out.out == ""

    def test_bad_spec_exits_with_usage_error(self, capsys):
        code, _ = run_cli("family", "heptagon:9:1", capsys=capsys)
        assert code == 2


class TestSimulate:
    def test_report_passes_and_is_reproducible(self, tmp_path, capsys):
        args = ("simulate", BENCHMARK, "--t-max", "0.5", "--step", "0.01",
                "--trajectories", "3000", "--seed", "12", "--sample-times", "0.25,0.5")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        code_a, _ = run_cli(*args, "--output", str(out_a), capsys=capsys)
        code_b, _ = run_cli(*args, "--workers", "2", "--output", str(out_b), capsys=capsys)
        assert code_a == code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        report = json.loads(out_a.read_text())
        assert report["passed"]
        for entry in report["moments"]:
            assert entry["passed"], entry["failures"]

    def test_off_grid_sample_time_is_usage_error(self, capsys):
        code, _ = run_cli("simulate", BENCHMARK, "--step", "0.01",
                          "--sample-times", "0.305", capsys=capsys)
        assert code == 2

    def test_too_many_steps_is_usage_error(self, capsys):
        # 1e12 steps per trajectory: refused before anything runs
        code, out = run_cli("simulate", BENCHMARK, "--t-max", "1e9", "--sample-times", "1e9",
                            capsys=capsys)
        assert code == 2
        assert out.err.startswith("error: --sample-times and --step:")
        assert "cap" in out.err and out.out == ""

    def test_unstable_step_is_usage_error(self, capsys):
        code, _ = run_cli("simulate", BENCHMARK, "--step", "0.05",
                          "--sample-times", "0.5", "--t-max", "0.5", capsys=capsys)
        assert code == 2


class TestInputContract:
    @pytest.mark.parametrize("argv,field", [
        (("analyze", BENCHMARK, "--sigma", "inf"), "sigma"),
        (("analyze", BENCHMARK, "--beta", "nan"), "beta"),
        (("family", "complete:4:1", "--beta=-inf"), "beta"),
        (("verify", BENCHMARK, "--sigma", "nan"), "sigma"),
        (("simulate", BENCHMARK, "--sigma", "inf"), "sigma"),
        (("simulate", BENCHMARK, "--t-max", "nan"), "t_max"),
        (("simulate", BENCHMARK, "--step", "inf"), "step"),
    ])
    def test_non_finite_value_is_usage_error(self, argv, field, capsys):
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 2
        assert out.err.startswith(f"error: {field} must be finite")
        assert out.out == ""


class TestVerify:
    def test_benchmark_all_checks_pass(self, tmp_path, capsys):
        out_file = tmp_path / "verify.json"
        code, out = run_cli("verify", BENCHMARK, "--output", str(out_file), capsys=capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["passed"]
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["route-spectral-vs-group-inverse"] == "PASS"
        assert statuses["ranking-certainty-vs-info-centrality"] == "PASS"
        assert statuses["path-oracle-vs-matrix-information"] == "PASS"
        assert "PASS" in out.err

    def test_exploding_star_skips_certainty_routes(self, tmp_path, capsys):
        path = write_graph(tmp_path, {"n": 4, "edges": [[1, k, 1.0] for k in (2, 3, 4)],
                                      "undirected": False})
        out_file = tmp_path / "verify.json"
        code, _ = run_cli("verify", path, "--output", str(out_file), capsys=capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["spectral-route"] == "SKIP"
        assert statuses["covariance-envelope-bounds"] == "SKIP"
        assert statuses["row-stochastic-propagator"] == "PASS"

    @pytest.mark.parametrize("sigma", ["9.5367431640625e-07", "20", "1e3", "1e150"])
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_checks_do_not_depend_on_sigma(self, sigma, tmp_path, capsys):
        # sigma^2 only scales the covariance, so every check reads the same status as at sigma = 1
        statuses = []
        for value in ("1", sigma):
            out_file = tmp_path / f"verify_{value}.json"
            code, out = run_cli("verify", BENCHMARK, "--sigma", value, "--output", str(out_file),
                                capsys=capsys)
            assert code == 0, out.err
            statuses.append({c["name"]: c["status"] for c in json.loads(out_file.read_text())["checks"]})
        assert statuses[1] == statuses[0]
        assert "FAIL" not in statuses[1].values()

    def test_tiny_weights_pass(self, tmp_path, capsys):
        # every check is scale-free at 1e-9: the solve basis is shifted by
        # the mean degree and rank_nodes rounds relative to the largest score
        data = json.loads((ROOT / "tests/data/undirected60.json").read_text())
        data["edges"] = [[k, j, w * 1e-9] for k, j, w in data["edges"]]
        code, out = run_cli("verify", write_graph(tmp_path, data), capsys=capsys)
        assert code == 0, out.err
        assert "FAIL" not in out.err

    def test_disconnected_graph_records_every_check(self, tmp_path, capsys):
        out_ref = tmp_path / "ref.json"
        assert run_cli("verify", BENCHMARK, "--output", str(out_ref), capsys=capsys)[0] == 0
        names = [c["name"] for c in json.loads(out_ref.read_text())["checks"]]
        path = write_graph(tmp_path, {"n": 4, "edges": [[1, 2, 1], [3, 4, 1]], "undirected": True})
        out_file = tmp_path / "verify.json"
        code, out = run_cli("verify", path, "--output", str(out_file), capsys=capsys)
        assert code in (0, 1)
        assert "Traceback" not in out.err
        report = json.loads(out_file.read_text())
        assert [c["name"] for c in report["checks"]] == names
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["path-oracle-vs-matrix-information"] == "SKIP"
        assert statuses["spectral-route"] == "SKIP"


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        g = load_graph(BENCHMARK)
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(graph_to_dict(g)))
        assert load_graph(str(path)) == g
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run_cli("analyze", "nope.json", capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["analyze", "centrality", "verify"])
    def test_overflowing_degree_is_usage_error(self, command, tmp_path, capsys):
        path = write_graph(tmp_path, {"n": 3, "edges": [[1, 2, 1e308], [1, 3, 1e308], [2, 3, 1e308]],
                                      "undirected": True})
        code, out = run_cli(command, path, capsys=capsys)
        assert code == 2
        assert out.err.startswith("error: node 1: weighted out-degree is not finite")
        assert out.out == ""

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_subnormal_weight_is_usage_error(self, command, tmp_path, capsys):
        # the mirror Laplacian's inverse overflows; the error names the weight range
        path = write_graph(tmp_path, {"n": 2, "edges": [[1, 2, 2.2250738585e-313]], "undirected": True})
        code, out = run_cli(command, path, capsys=capsys)
        assert code == 2
        assert out.err.startswith("error: cannot factor the mirror Laplacian in double precision: "
                                  "edge weights lie in [2.23e-313, 2.23e-313]")
        assert out.out == ""

    @pytest.mark.filterwarnings("error")
    def test_least_subnormal_edge_is_usage_error(self, tmp_path, capsys):
        # (w + w)/2 keeps an undirected edge of weight 5e-324 in the mirror; the solve basis rejects it
        path = write_graph(tmp_path, {"n": 2, "edges": [[1, 2, 5e-324]], "undirected": True})
        code, out = run_cli("analyze", path, capsys=capsys)
        assert code == 2
        assert out.err == ("error: cannot factor the mirror Laplacian in double precision: "
                           "edge weights lie in [4.94e-324, 4.94e-324]\n")
        assert out.out == ""

    @pytest.mark.parametrize("command", ["analyze", "centrality", "simulate", "verify"])
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_weights_beyond_the_normality_test_are_usage_error(self, command, tmp_path, capsys):
        # ||L||_F^2 and the commutator overflow although every degree is finite
        path = write_graph(tmp_path, {"n": 3, "edges": [[1, 2, 1e200], [2, 3, 1e200], [1, 3, 1e200]],
                                      "undirected": True})
        code, out = run_cli(command, path, capsys=capsys)
        assert code == 2
        assert out.err == ("error: the normality test overflows double precision: "
                           "edge weights lie in [1e+200, 1e+200]\n")
        assert out.out == ""

    @pytest.mark.parametrize("argv", [["analyze", "{path}", "--format", "curves"], ["verify", "{path}"],
                                      ["family", "complete:3:1e150"]])
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_weights_beyond_the_covariance_propagator_are_usage_error(self, argv, tmp_path, capsys):
        # the normality test passes, but ||L||_inf t lies far beyond 1/eps, where the
        # Van Loan doublings keep no digit
        path = write_graph(tmp_path, {"n": 3, "edges": [[1, 2, 1e150], [2, 3, 1e150], [1, 3, 1e150]],
                                      "undirected": True})
        code, out = run_cli(*(arg.format(path=path) for arg in argv), capsys=capsys)
        assert code == 2
        assert re.fullmatch(r"error: the covariance at t = \S+ cannot be computed in double precision: "
                            r"\|\|L\|\|_inf \* t = \S+ reaches 1/eps = 4\.5e\+15; "
                            r"edge weights lie in \[1e\+150, 1e\+150\]\n", out.err)
        assert out.out == ""

    # complete:4:1 has ||L||_inf = 6, so ||L||_inf t crosses 1/eps = 4.5e15 between these times
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_covariance_below_the_precision_limit_is_computed(self, capsys):
        code, out = run_cli("family", "complete:4:1", "--times", "1e14", capsys=capsys)
        assert code == 0
        assert out.err == ""
        assert json.loads(out.out)["config"]["times"] == [1e14]

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_covariance_beyond_the_precision_limit_is_usage_error(self, capsys):
        code, out = run_cli("family", "complete:4:1", "--times", "1e15", capsys=capsys)
        assert code == 2
        assert out.err == ("error: the covariance at t = 1e+15 cannot be computed in double precision: "
                           "||L||_inf * t = 6e+15 reaches 1/eps = 4.5e+15; edge weights lie in [1, 1]\n")
        assert out.out == ""

    @pytest.mark.parametrize("argv", [["analyze", BENCHMARK], ["family", "complete:3:1"],
                                      ["simulate", BENCHMARK], ["verify", BENCHMARK]],
                             ids=["analyze", "family", "simulate", "verify"])
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_sigma_whose_square_overflows_is_usage_error(self, argv, capsys):
        # sigma**2 of a float above sqrt(max double) ~ 1.34e154 raises OverflowError
        code, out = run_cli(*argv, "--sigma", "1e200", capsys=capsys)
        assert code == 2
        assert out.err == ("error: sigma^2 overflows double precision: sigma must be at most "
                           "1.34078e+154, got 1e+200\n")
        assert out.out == ""

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_largest_sigma_gives_a_finite_report(self, capsys):
        # the largest sigma ModelParams accepts: sigma^2 is one ulp below the largest double,
        # so the dispersion identity scales K_f / (2n) by it, not K_f
        code, out = run_cli("analyze", BENCHMARK, "--sigma", "1.3407807929942596e154", capsys=capsys)
        assert code == 0
        report = json.loads(out.out, parse_constant=lambda name: pytest.fail(f"report holds {name}"))
        assert all(math.isfinite(v) for v in report["dispersion"].values())
        for route in report["routes"].values():
            assert math.isfinite(route["total_dispersion"])
            assert all(math.isfinite(row["inv_mu"]) for row in route["rows"])

    @pytest.mark.parametrize("sigma", ["1e154", "1.3407807929942596e154"])
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_sigma_overflowing_the_certainty_is_usage_error(self, sigma, tmp_path, capsys):
        # on the unit 10-path 1/mu reaches 1.425 sigma^2, and the sum of the 1/mu 8.25 sigma^2
        path = write_graph(tmp_path, {"n": 10, "edges": [[k, k + 1, 1.0] for k in range(1, 10)],
                                      "undirected": True})
        code, out = run_cli("analyze", path, "--sigma", sigma, capsys=capsys)
        assert code == 2
        assert out.err == (f"error: the spectral certainty overflows double precision: "
                           f"sigma = {float(sigma):.6g} is too large for this graph\n")
        assert out.out == ""

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_large_sigma_gives_a_finite_family_report(self, capsys):
        # sigma^2 = 1e300 scales a unit-noise covariance of at most t = 5
        code, out = run_cli("family", "complete:3:1", "--sigma", "1e150", capsys=capsys)
        assert code == 0, out.err
        report = json.loads(out.out, parse_constant=lambda name: pytest.fail(f"report holds {name}"))
        assert report["closed_form"]["inv_mu"][0] == pytest.approx(1e300 / 9, rel=1e-12)

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_large_sigma_gives_a_finite_simulate_report(self, capsys):
        # the sample variances reach 1e300, whose squares the standard errors scale away
        code, out = run_cli("simulate", BENCHMARK, "--sigma", "1e150", "--trajectories", "64",
                            "--t-max", "1", "--sample-times", "1", capsys=capsys)
        assert code == 0
        assert out.err == ""
        report = json.loads(out.out, parse_constant=lambda name: pytest.fail(f"report holds {name}"))
        assert report["moments"][0]["passed"]

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_two_trajectories_near_the_float_range_give_a_finite_report(self, capsys):
        # with two trajectories the sample covariance equals the outer-product sum, near 1e308
        # here, so its symmetrized sum cov + cov^T would overflow
        code, out = run_cli("simulate", BENCHMARK, "--sigma", "1.3e154", "--trajectories", "2",
                            "--t-max", "0.5", "--sample-times", "0.5", "--seed", "1", capsys=capsys)
        assert code == 0, out.err
        json.loads(out.out, parse_constant=lambda name: pytest.fail(f"report holds {name}"))

    @pytest.mark.parametrize("workers,trajectories", [("1", "64"), ("2", "2100")], ids=["in-process", "pool"])
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_sigma_overflowing_the_simulation_is_usage_error(self, workers, trajectories, capsys):
        # each x^2 is near 1e308 at t = 0.5, so every chunk's outer-product sum overflows
        code, out = run_cli("simulate", BENCHMARK, "--sigma", "1.3e154", "--t-max", "5",
                            "--sample-times", "5,0.5", "--trajectories", trajectories,
                            "--workers", workers, capsys=capsys)
        assert code == 2
        assert out.err == ("error: the simulated moments at t = 0.5 overflow double precision: "
                           "sigma = 1.3e+154 is too large\n")
        assert out.out == ""

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_beta_overflowing_the_simulation_is_usage_error(self, capsys):
        # the drift beta t = 5e200 outgrows the noise, and its square overflows
        code, out = run_cli("simulate", BENCHMARK, "--beta", "1e200", "--t-max", "5",
                            "--sample-times", "5", "--trajectories", "64", capsys=capsys)
        assert code == 2
        assert out.err == ("error: the simulated moments at t = 5 overflow double precision: "
                           "beta = 1e+200 is too large\n")
        assert out.out == ""

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_large_beta_passes_verify(self, capsys):
        # verify forms no moment sums: its simulator check compares two advances of
        # one draw, whose states reach 1.7e299 at beta = 1e300
        code, out = run_cli("verify", BENCHMARK, "--beta", "1e300", capsys=capsys)
        assert code == 0, out.err
        assert "PASS simulation-panel-vs-steps" in out.err

    @pytest.mark.parametrize("beta", ["1e8", "1e20", "1e50"])
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_beta_cancelling_the_spread_is_usage_error(self, beta, capsys):
        # the mean beta t dwarfs the spread, so the sums about zero leave variances of
        # zero or less: no square overflows, every digit cancels
        code, out = run_cli("simulate", BENCHMARK, "--beta", beta, "--trajectories", "64", "--t-max", "1",
                            "--sample-times", "0.5,1", "--seed", "3", capsys=capsys)
        assert code == 2
        assert out.err == ("error: the simulated moments at t = 0.5 lose their spread to cancellation "
                           f"in double precision: beta = {float(beta):.6g} is too large\n")
        assert out.out == ""

    @pytest.mark.parametrize("argv,t", [(["family", "complete:3:1", "--times", "5"], "5"),
                                        (["analyze", "tests/data/digraph6.json", "--format", "curves"],
                                         "2.35")],
                             ids=["family", "curves"])
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_sigma_overflowing_the_covariance_is_usage_error(self, argv, t, capsys):
        # sigma^2 = 1.69e308 times a unit-noise variance above 1.06 overflows; the
        # curves grid reports its first such time
        code, out = run_cli(*argv, "--sigma", "1.3e154", capsys=capsys)
        assert code == 2
        assert out.err == (f"error: the covariance at t = {t} overflows double precision: "
                           "sigma = 1.3e+154 is too large\n")
        assert out.out == ""

    @pytest.mark.parametrize("command", ["analyze", "centrality", "verify"])
    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_kirchhoff_overflow_at_unit_sigma_names_the_weights(self, command, tmp_path, capsys):
        # a star of 40 leaves of weight 1e-307: every 1/Re lambda is finite, K_f is not,
        # and at sigma = 1 the weights are the cause, not sigma
        path = write_graph(tmp_path, {"n": 41, "edges": [[1, j, 1e-307] for j in range(2, 42)],
                                      "undirected": True})
        code, out = run_cli(command, path, capsys=capsys)
        assert code == 2
        assert out.err == ("error: the mirror's Kirchhoff index overflows double precision: "
                           "edge weights lie in [1e-307, 1e-307]\n")
        assert out.out == ""

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning on the way would exit 3
    def test_closeness_length_overflow_is_usage_error(self, tmp_path, capsys):
        # the mirror's weight (3e-320 + 5e-324)/2 is subnormal, and its length 1/w overflows
        path = write_graph(tmp_path, {"n": 3, "edges": [[1, 2, 3e-320], [2, 1, 5e-324], [2, 3, 1.0],
                                                        [3, 1, 1.0]]})
        code, out = run_cli("centrality", path, capsys=capsys)
        assert code == 2
        assert out.err == "error: edge (1, 2): length 1/w overflows double precision (w = 1.5e-320)\n"
        assert out.out == ""

    def test_malformed_weight_is_usage_error(self, tmp_path, capsys):
        path = write_graph(tmp_path, {"n": 2, "edges": [[1, 2, "x"]]})
        code, out = run_cli("analyze", path, capsys=capsys)
        assert code == 2
        assert "edge #1" in out.err

    def test_integer_weight_beyond_float_range_is_usage_error(self, tmp_path, capsys):
        path = write_graph(tmp_path, {"n": 3, "edges": [[1, 2, 1], [2, 3, 10**400]],
                                      "undirected": True})
        code, out = run_cli("analyze", path, capsys=capsys)
        assert code == 2
        assert out.err == "error: edge #2 [2, 3, ...]: weight is an integer beyond the float range\n"
        assert out.out == ""

    def test_integer_literal_beyond_conversion_limit_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"n": 2, "edges": [[1, 2, 1' + "0" * 5000 + ']], "undirected": true}')
        code, out = run_cli("analyze", str(path), capsys=capsys)
        assert code == 2
        assert out.err == (f"error: {path}: a number literal exceeds Python's integer conversion "
                           f"limit ({sys.get_int_max_str_digits()} digits)\n")
        assert out.out == ""

    @pytest.mark.parametrize("n,edges", [
        ("1" + "0" * 400, "[]"),
        ("1" + "0" * 400, "[[1, 2, 1.0]]"),
        (str(2**63), "[[1, 2, 1.0]]"),
    ])
    def test_node_count_beyond_int64_is_usage_error(self, n, edges, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(f'{{"n": {n}, "edges": {edges}}}')
        code, out = run_cli("analyze", str(path), capsys=capsys)
        assert code == 2
        assert out.err == f"error: node count n exceeds the 64-bit index range ({2**63 - 1}), got {n}\n"
        assert out.out == ""

    @pytest.mark.parametrize("n", [MAX_NODES + 1, 2**63 - 1])
    def test_node_count_beyond_dense_cap_is_usage_error(self, n, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(f'{{"n": {n}, "edges": []}}')
        code, out = run_cli("analyze", str(path), capsys=capsys)
        assert code == 2
        assert out.err == (f"error: node count n exceeds the cap of {MAX_NODES} nodes "
                           f"for dense n x n matrices, got {n}\n")
        assert out.out == ""

    def test_file_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_bytes(b'{"n": 2, "edges": [], \xff}')
        code, out = run_cli("analyze", str(path), capsys=capsys)
        assert code == 2
        assert out.err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS copy mapped into this process, by path."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads[path] = fn()
                break
    return threads


def run_python(code: str) -> str:
    """Run code in a fresh interpreter with ddmnet importable; return its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


# prints the thread count of each OpenBLAS copy in the process, as JSON
PRINT_BLAS_THREADS = (f"import ctypes, json\n{inspect.getsource(openblas_threads)}\n"
                      "print(json.dumps(openblas_threads()))\n")


class TestBlasThreads:
    """numpy's BLAS keeps its default pool: commands and library calls leave
    every OpenBLAS copy's thread count as they found it."""

    def test_commands_keep_every_pool(self, capsys):
        before = openblas_threads()
        for argv in (["family", "complete:4:1"], ["verify", BENCHMARK]):
            assert run_cli(*argv, capsys=capsys)[0] == 0
        assert openblas_threads() == before

    def test_cold_verify_keeps_numpy_pool(self):
        threads = json.loads(run_python(
            "import os\n"
            "from ddmnet.cli import main\n"
            f"assert main(['verify', {BENCHMARK!r}, '--output', os.devnull]) == 0\n"
            + PRINT_BLAS_THREADS))
        assert threads == json.loads(run_python("import numpy\n" + PRINT_BLAS_THREADS))

    def test_library_use_keeps_the_default_pools(self):
        threads = json.loads(run_python(
            "import ddmnet\n"
            "lap = ddmnet.laplacian(ddmnet.five_node_benchmark())\n"
            "ddmnet.analytic_covariance(lap, ddmnet.ModelParams(), 1.0)\n"
            + PRINT_BLAS_THREADS))
        assert threads == json.loads(run_python("import numpy\n" + PRINT_BLAS_THREADS))


def scipy_modules_after(*argvs: list[str]) -> list[str]:
    """The scipy modules loaded once main() has run each argv in a fresh interpreter."""
    return json.loads(run_python(
        "import json, os, sys\n"
        "import ddmnet.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        f"for argv in {list(argvs)!r}:\n"
        "    assert ddmnet.cli.main(argv + ['--output', os.devnull]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"))


def modules_loaded_after(prefixes: tuple[str, ...], *argvs: list[str]) -> list[str]:
    """The modules named by `prefixes` that importing ddmnet.cli and running main()
    on each argv load in a fresh interpreter, beyond those `import numpy` loads."""
    return json.loads(run_python(
        "import json, os, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import ddmnet.cli\n"
        f"prefixes = {prefixes!r}\n"
        "loaded = [m for m in sys.modules if m.startswith(prefixes) and m not in before]\n"
        f"for argv in {list(argvs)!r}:\n"
        "    assert ddmnet.cli.main(argv + ['--output', os.devnull]) == 0\n"
        "loaded += [m for m in sys.modules if m.startswith(prefixes) and m not in before]\n"
        "print(json.dumps(sorted(set(loaded))))\n"))


class TestImportBoundary:
    def test_analyze_loads_no_scipy(self):
        # eigh of the symmetric part serves every normal Laplacian, symmetric or not
        assert scipy_modules_after(["analyze", BENCHMARK], ["analyze", "tests/data/undirected60.json"],
                                   ["analyze", BENCHMARK, "--format", "csv"],
                                   ["analyze", "tests/data/ring3_path3.json"]) == []

    def test_commands_without_closeness_load_no_scipy(self):
        # the Van Loan exponential runs on numpy too
        assert scipy_modules_after(["analyze", "tests/data/digraph6.json", "--format", "curves"],
                                   ["family", "complete:9:1"],
                                   ["simulate", BENCHMARK, "--trajectories", "200", "--t-max", "0.1",
                                    "--sample-times", "0.1"],
                                   ["verify", BENCHMARK]) == []

    @pytest.mark.parametrize("argv", [["centrality", BENCHMARK]], ids=["centrality"])
    def test_commands_that_run_scipy_routines_load_it(self, argv):
        # closeness runs scipy's Dijkstra
        assert "scipy.sparse.csgraph" in scipy_modules_after(argv)

    def test_import_and_symmetric_analyze_load_no_numpy_random(self):
        # the simulator imports numpy.random on first use
        assert modules_loaded_after(("numpy.random",)) == []
        assert modules_loaded_after(("numpy.random",), ["analyze", "tests/data/undirected60.json"]) == []
        assert "numpy.random" in modules_loaded_after(
            ("numpy.random",),
            ["simulate", BENCHMARK, "--trajectories", "200", "--t-max", "0.1", "--sample-times", "0.1"])

    def test_commands_without_a_pool_load_no_process_machinery(self):
        # the simulator imports concurrent.futures where it starts a pool, and one chunk runs in-process
        assert modules_loaded_after(("concurrent", "multiprocessing"),
                                    ["analyze", BENCHMARK], ["verify", BENCHMARK],
                                    ["simulate", BENCHMARK, "--trajectories", "200", "--t-max", "0.1",
                                     "--sample-times", "0.1"]) == []


class TestInternalError:
    def test_unexpected_exception_exits_3_with_one_line(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_analyze", broken)
        code, out = run_cli("analyze", BENCHMARK, capsys=capsys)
        assert code == 3
        assert out.err == "internal error: RuntimeError: boom second line\n"
        assert out.out == ""


# graph files: ordinary weights, and one defect at a time from the lists below
FUZZ_EXTREME_WEIGHTS = st.sampled_from([1, 0.0, -1.0, 5e-324, 1e-300, 1e300, 1e308])
FUZZ_BAD_LABELS = st.sampled_from([True, False, "1", 1.0, 2.5, -1, 0, 9])
FUZZ_BAD_ITEMS = st.one_of(
    st.lists(st.integers(1, 8), max_size=5).filter(lambda item: len(item) != 3),
    st.tuples(FUZZ_BAD_LABELS, st.integers(1, 8), st.just(1.0)).map(list),
    st.tuples(st.integers(1, 8), FUZZ_BAD_LABELS, st.just(1.0)).map(list),
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.sampled_from([True, "1", None, [1.0]])).map(list),
)
FUZZ_DEFECTS = ["none"] * 5 + ["odd item", "undirected", "duplicate", "self-loop", "weight"]
# sigma, beta and alpha: ordinary values, or zero, negative, subnormal, huge and non-finite ones
FUZZ_SCALES = st.one_of(st.just("1"), st.floats(0.1, 10.0).map(repr),
                        st.sampled_from(["0", "-1", "5e-324", "1e-300", "1e150", "1e308", "inf", "-inf", "nan"]))
FUZZ_GRAPH = "<graph file>"
FUZZ_FORMATS = {"analyze": ["json", "csv", "curves"], "centrality": ["json", "csv"],
                "family": ["json", "csv", "curves"], "simulate": ["json", "csv"], "verify": ["json"]}


@st.composite
def fuzz_graph_files(draw):
    """A graph file's JSON: n <= 8 and distinct arcs, often on a ring that connects them,
    with at most one defect."""
    n = draw(st.integers(1, 8))
    undirected = draw(st.booleans())
    pairs = {(k, j) for k in range(1, n + 1) for j in range(1, n + 1) if k != j}
    chosen = set(draw(st.lists(st.sampled_from(sorted(pairs)), max_size=12))) if pairs else set()
    if n > 1 and draw(st.booleans()):
        chosen |= {(k, k % n + 1) for k in range(1, n + 1)}
    if undirected:  # one item per edge
        chosen = {(min(p), max(p)) for p in chosen}
    edges = [[k, j, draw(st.floats(0.1, 2.0))] for k, j in sorted(chosen)]
    defect = draw(st.sampled_from(FUZZ_DEFECTS))
    if defect == "odd item":
        edges.insert(draw(st.integers(0, len(edges))), draw(FUZZ_BAD_ITEMS))
    elif defect == "duplicate" and edges:
        edges.append(list(draw(st.sampled_from(edges))))
    elif defect == "self-loop":
        edges.append([draw(st.integers(1, n))] * 2 + [1.0])
    elif defect == "weight" and edges:
        for item in draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3)):
            item[2] = draw(FUZZ_EXTREME_WEIGHTS)
    data = {"n": n, "edges": edges, "undirected": undirected}
    if defect == "undirected":
        data["undirected"] = draw(st.sampled_from(["yes", 1, 0.0, None]))
    return data


@st.composite
def fuzz_grid(draw):
    """--t-max and --t-step of a curves grid of at most 10^3 points."""
    t_step = draw(st.sampled_from([1e-3, 0.05, 0.5, 2.0, 0.0, -0.1]))
    points = draw(st.integers(0, 999))
    return [f"--t-step={t_step!r}", f"--t-max={points * abs(t_step)!r}"]


@st.composite
def fuzz_argvs(draw):
    """One CLI call: a command and its flags; FUZZ_GRAPH stands for the graph file."""
    command = draw(st.sampled_from(sorted(FUZZ_FORMATS)))
    fmt = draw(st.sampled_from(FUZZ_FORMATS[command]))
    if command == "family":
        kind = draw(st.sampled_from(families.KINDS))
        if kind == "circulant":
            kind += "(" + ",".join(map(str, draw(st.lists(st.integers(-2, 9), max_size=3)))) + ")"
        argv = ["family", f"{kind}:{draw(st.integers(0, 8))}:{draw(FUZZ_SCALES)}",
                "--times=" + ",".join(draw(st.lists(st.sampled_from(["0", "0.1", "1", "5", "-1"]),
                                                    min_size=1, max_size=3)))]
    else:
        argv = [command, FUZZ_GRAPH]
    argv += [f"--format={fmt}", f"--sigma={draw(FUZZ_SCALES)}", f"--beta={draw(FUZZ_SCALES)}"]
    if fmt == "curves":
        argv += draw(fuzz_grid())
    if command in ("centrality", "verify"):
        argv.append(f"--oracle-cap={draw(st.integers(0, 8))}")
    if command == "centrality":
        argv.append(f"--variant={draw(st.sampled_from(['harmonic', 'arithmetic']))}")
    if command == "simulate":
        step = draw(st.sampled_from([1e-4, 1e-3, 2.5e-3, 0.01, 0.1]))
        grid = [round(k * step, 12) for k in range(int(round(0.1 / step)) + 1)]
        times = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3))
        argv += ["--workers=1", f"--step={step!r}", f"--trajectories={draw(st.integers(0, 8))}",
                 f"--seed={draw(st.integers(0, 2**64))}", f"--t-max={max(times)!r}",
                 "--sample-times=" + ",".join(map(repr, times))]
    return argv


class TestCliFuzz:
    @settings(max_examples=400, deadline=None)
    @given(graph=fuzz_graph_files(), argv=fuzz_argvs())
    # a subnormal alpha: the closed form's 1/mu overflowed with a RuntimeWarning
    @example(graph={"n": 1, "edges": []}, argv=["family", "undirected_ring:3:5e-324", "--times=0"])
    # a subnormal weight: the path oracle multiplied 0 by inf, and reported a FAIL
    @example(graph={"n": 3, "edges": [[1, 2, 5e-324], [1, 3, 1.0], [2, 3, 1.0]], "undirected": True},
             argv=["verify", FUZZ_GRAPH, "--oracle-cap=3"])
    # paths of lengths near 1e300 and near 1: an orientation-blind combination was nan,
    # which the report writer refused
    @example(graph={"n": 7, "edges": [[1, 2, 1e-300], [1, 3, 1.0], [2, 3, 1.0], [2, 4, 1.0], [3, 4, 1.0],
                                      [4, 5, 1.0], [4, 6, 1.0], [5, 6, 1.0], [6, 7, 1.0], [7, 1, 0.5]],
                    "undirected": True},
             argv=["centrality", FUZZ_GRAPH])
    def test_every_input_exits_0_1_or_2(self, graph, argv, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz_graph.json"
        path.write_text(json.dumps(graph))
        argv = [str(path) if arg == FUZZ_GRAPH else arg for arg in argv]
        err = io.StringIO()
        # a RuntimeWarning is an error, as in CI's runs of the installed commands
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        assert code in (0, 1, 2), err.getvalue()
        # exit 1 is a failed verification, which only verify and simulate report
        assert code != 1 or argv[0] in ("verify", "simulate"), err.getvalue()


class TestParserReuse:
    def test_one_parser_serves_a_request_sequence(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()

        def rebuilt():
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        for argv, golden in [(["analyze", BENCHMARK, "--format", "csv"], "analyze_five_node.csv"),
                             (["centrality", BENCHMARK], "centrality_five_node.json"),
                             (["analyze", BENCHMARK], "analyze_five_node.json")]:
            code, out = run_cli(*argv, capsys=capsys)
            assert code == 0
            assert out.out == (ROOT / "tests/data" / golden).read_text()

        # the command is looked up when main is called, not when the parser was built
        seen = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.graph) or 0)
        assert main(["analyze", BENCHMARK]) == 0
        assert seen == [BENCHMARK]


# every float class csv.writer formats: signed zeros, subnormals, near-overflow, inf and nan
CURVE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]),
                         st.floats())


@st.composite
def curve_tables(draw):
    n = draw(st.integers(0, 4))
    header = ["t"] + [f"var_node_{k}" for k in range(1, n + 1)] + ["envelope_lower", "envelope_upper"]
    rows = draw(st.lists(st.lists(CURVE_VALUES, min_size=n + 3, max_size=n + 3), max_size=6))
    return header, rows


class TestCurvesWriter:
    @settings(deadline=None)
    @given(curve_tables())
    def test_matches_csv_writer(self, table):
        header, rows = table
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.emit_report({"command": "analyze", "curves": {"header": header, "rows": rows}}, "curves", None)
        assert out.getvalue() == expected.getvalue()


# repeated, integer-valued, subnormal and near-overflow weights
ECHO_WEIGHTS = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 0.1, 5e-324, 1e308]),
                         st.floats(min_value=5e-324, max_value=1e308))


@st.composite
def echo_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(k, j) for k in range(1, n + 1) for j in range(1, n + 1) if k != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    try:
        return build_graph(n, [(k, j, draw(ECHO_WEIGHTS)) for k, j in chosen])
    except GraphValidationError:  # a weighted degree overflowed
        assume(False)


@st.composite
def undirected_echo_graphs(draw):
    """Undirected graph files as graph_from_dict reads them: each edge becomes two arcs."""
    n = draw(st.integers(1, 60))
    pairs = [(k, j) for k in range(1, n + 1) for j in range(k + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=100) if pairs else st.just([]))
    try:
        return graph_from_dict({"n": n, "edges": [[k, j, draw(ECHO_WEIGHTS)] for k, j in chosen],
                                "undirected": True})
    except GraphFormatError:  # a weighted degree overflowed
        assume(False)


class TestJsonEcho:
    @settings(deadline=None)
    @given(g=st.one_of(echo_graphs(), undirected_echo_graphs()), graph_file=st.text())
    @example(g=build_graph(1, []), graph_file="")
    @example(g=build_graph(2, [(2, 1, 0.1)]), graph_file="")
    # the labels that occur are formatted, not all 2^15 of them
    @example(g=build_graph(MAX_NODES, [(1, MAX_NODES, 1.5), (MAX_NODES, 1, 5e-324)]), graph_file="")
    # JSON escapes the newlines, so the text can never pass for the echo's edge list
    @example(g=build_graph(2, [(1, 2, 3.0)]), graph_file='\n  "graph": {\n    "edges": [],')
    @example(g=build_graph(2, [(1, 2, 3.0)]), graph_file='"edges": [],')
    def test_matches_json_dumps(self, g, graph_file):
        body = {"command": "analyze", "config": {"graph_file": graph_file, "sigma": 1.0}, "graph": g,
                "passed": True}
        expected = json.dumps({**body, "graph": graph_to_dict(g)}, indent=2, sort_keys=True, allow_nan=False)
        assert cli._json_text(body) == expected + "\n"

    def test_output_file_holds_the_stdout_bytes(self, tmp_path, capsys):
        path, report = "tests/data/undirected60.json", tmp_path / "report.json"
        code, out = run_cli("analyze", path, capsys=capsys)
        assert code == 0
        assert run_cli("analyze", path, "--output", str(report), capsys=capsys)[0] == 0
        golden = (ROOT / "tests/data/analyze_undirected60.json").read_bytes()
        assert report.read_bytes() == out.out.encode() == golden


# leaves json writes in more than one way: signed zeros, the extreme finite
# floats, big ints, and strings it escapes (quotes, backslashes, controls, non-ASCII)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "é", "\u2028", '"\\\n\t', "\x00\x1f", "😀"]), st.text(max_size=8))


def report_values():
    """Nested dicts, lists and tuples of scalars and graph echoes."""
    return st.recursive(
        st.one_of(JSON_SCALARS, echo_graphs()),
        lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                                st.dictionaries(st.text(max_size=6), inner, max_size=4)),
        max_leaves=24)


def written(value) -> str:
    out = []
    cli._write_json(value, 0, out)
    return "".join(out)


class TestJsonWriter:
    @settings(deadline=None, max_examples=300)
    @given(report_values())
    @example(())
    @example({"a": [], "b": {}, "c": ((), [[]], {"d": ()})})
    @example({"graph": build_graph(3, [(1, 2, 0.5), (2, 1, 0.5)]), "rows": [{"mu": -0.0, "node": 1}]})
    # table rows in one call: a row's text cannot pass for the boundary between two rows
    @example({"rows": [{"a": "},\n      {", "b": 1}, {"a": "}, {"}, {"c": None}]})
    @example({"rows": ({"a": 1}, {}), "table": [[{"a": 1}], {"b": 2}]})
    def test_matches_json_dumps(self, value):
        expected = json.dumps(value, indent=2, sort_keys=True, allow_nan=False, default=graph_to_dict)
        assert written(value) == expected

    @pytest.mark.parametrize("value", [
        {"rows": [1.0, math.inf]},  # one C encoder call for the list
        {"a": {"b": [1]}, "z": -math.inf},  # a scalar written on its own
        [{"x": 1.0}, {"y": math.nan}],
        math.inf,
    ], ids=["scalar-list", "mixed-dict", "row-dicts", "bare"])
    def test_non_finite_float_raises_json_dumps_message(self, value):
        with pytest.raises(ValueError) as expected:
            json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
        assert str(expected.value).endswith(("inf", "nan"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            written(value)


class TestReproducibility:
    def test_analyze_rerun_is_byte_identical(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run_cli("analyze", BENCHMARK, "--output", str(out_a), capsys=capsys)
        run_cli("analyze", BENCHMARK, "--output", str(out_b), capsys=capsys)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_simulate_empty_sample_times_gives_header_only_csv(self, capsys):
        code, out = run_cli("simulate", BENCHMARK, "--step", "0.01", "--trajectories", "10",
                            "--sample-times", "", "--format", "csv", capsys=capsys)
        assert code == 0
        assert out.out == "t,node,mean,variance,se_variance,target_variance,z_variance\n"
