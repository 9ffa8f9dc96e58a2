import ctypes
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddmnet import GraphValidationError, build_graph, cli, graph_from_dict, graph_to_dict, load_graph
from ddmnet import lazyscipy
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
    def test_subnormal_weight_is_usage_error(self, command, tmp_path, capsys):
        # the mirror Laplacian's inverse overflows; the error names the weight range
        path = write_graph(tmp_path, {"n": 2, "edges": [[1, 2, 2.2250738585e-313]], "undirected": True})
        code, out = run_cli(command, path, capsys=capsys)
        assert code == 2
        assert out.err.startswith("error: cannot factor the mirror Laplacian in double precision: "
                                  "edge weights lie in [2.23e-313, 2.23e-313]")
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


@pytest.fixture
def fresh_blas_setting(monkeypatch):
    """main() requests scipy's BLAS on one thread once per process; let a test see it happen again."""
    monkeypatch.setattr(lazyscipy, "_single_thread_requested", False)
    lazyscipy._single_thread_scipy_blas.cache_clear()
    yield
    lazyscipy._single_thread_scipy_blas.cache_clear()


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


def scipy_blas_path(threads: dict[str, int]) -> str:
    """The OpenBLAS copy from scipy's wheel among those in `threads`."""
    package = Path(scipy.__file__).resolve().parent
    wheel = tuple(f"{d}{os.sep}" for d in (package, package.with_name("scipy.libs")))
    (path,) = [p for p in threads if p.startswith(wheel)]
    return path


class TestBlasThreads:
    def test_scipy_copy_runs_one_thread_and_numpy_keeps_its_pool(self, fresh_blas_setting, capsys):
        before = openblas_threads()
        if len(before) < 2:
            pytest.skip("numpy and scipy share one BLAS here")
        scipy_path = lazyscipy._wheel_openblas("scipy")._name
        assert run_cli("family", "complete:4:1", capsys=capsys)[0] == 0
        after = openblas_threads()
        assert after.pop(scipy_path) == 1
        assert after == {path: n for path, n in before.items() if path != scipy_path}

    def test_does_nothing_when_no_scipy_copy_is_found(self, fresh_blas_setting, monkeypatch, capsys):
        setter = getattr(lazyscipy._wheel_openblas("scipy"), "scipy_openblas_set_num_threads", None)
        if setter is not None:  # undo an earlier main(), so that a setting made now would show
            setter(2)
        monkeypatch.setattr(lazyscipy, "_wheel_openblas", lambda package: None)
        before = openblas_threads()
        assert run_cli("family", "complete:4:1", capsys=capsys)[0] == 0
        assert openblas_threads() == before

    def test_cold_verify_runs_scipy_copy_on_one_thread(self):
        # scipy is not loaded when main() starts, so the setting must wait for scipy.linalg
        threads = json.loads(run_python(
            "import os, sys\n"
            "from ddmnet.cli import main\n"
            "assert 'scipy' not in sys.modules\n"
            f"assert main(['verify', {BENCHMARK!r}, '--output', os.devnull]) == 0\n"
            + PRINT_BLAS_THREADS))
        if len(threads) < 2:
            pytest.skip("numpy and scipy share one BLAS here")
        assert threads.pop(scipy_blas_path(threads)) == 1
        assert threads == json.loads(run_python("import numpy\n" + PRINT_BLAS_THREADS))

    def test_library_use_keeps_the_default_pools(self):
        default = json.loads(run_python("import scipy.linalg\n" + PRINT_BLAS_THREADS))
        if len(default) < 2:
            pytest.skip("numpy and scipy share one BLAS here")
        threads = json.loads(run_python(
            "import ddmnet\n"
            "lap = ddmnet.laplacian(ddmnet.five_node_benchmark())\n"
            "ddmnet.analytic_covariance(lap, ddmnet.ModelParams(), 1.0, 'general')\n"
            + PRINT_BLAS_THREADS))
        assert threads == default


def scipy_modules_after(*argvs: list[str]) -> list[str]:
    """The scipy modules loaded once main() has run each argv in a fresh interpreter."""
    return json.loads(run_python(
        "import json, os, sys\n"
        "import ddmnet.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        f"for argv in {list(argvs)!r}:\n"
        "    assert ddmnet.cli.main(argv + ['--output', os.devnull]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"))


class TestImportBoundary:
    def test_symmetric_analyze_loads_no_scipy(self):
        assert scipy_modules_after(["analyze", BENCHMARK], ["analyze", "tests/data/undirected60.json"],
                                   ["analyze", BENCHMARK, "--format", "csv"]) == []

    @pytest.mark.parametrize("argv", [["centrality", BENCHMARK], ["verify", BENCHMARK]],
                             ids=["centrality", "verify"])
    def test_commands_that_run_scipy_routines_load_it(self, argv):
        assert "scipy.linalg" in scipy_modules_after(argv)


class TestInternalError:
    def test_unexpected_exception_exits_3_with_one_line(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_analyze", broken)
        code, out = run_cli("analyze", BENCHMARK, capsys=capsys)
        assert code == 3
        assert out.err == "internal error: RuntimeError: boom second line\n"
        assert out.out == ""


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


class TestJsonEcho:
    @settings(deadline=None)
    @given(echo_graphs())
    def test_matches_json_dumps(self, g):
        body = {"command": "analyze", "config": {"sigma": 1.0}, "graph": g, "passed": True}
        expected = json.dumps({**body, "graph": graph_to_dict(g)}, indent=2, sort_keys=True, allow_nan=False)
        assert cli._json_text(body) == expected + "\n"


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
