"""Self-check of the benchmark on tiny inputs; run from the repository root:

    python3 bench/selfcheck.py

It checks that both modes emit exactly the metrics BENCHMARK.json names, each
with its unit, that a corrupted output counts toward error_rate, and that the
benchmark exits nonzero without a result where the program is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run
from run import OUT, ROOT

sys.path.insert(0, str(ROOT / "src"))

import ddmnet.cli  # noqa: E402
from workloads import tiny_requests  # noqa: E402


def tiny_run(trace: int) -> dict:
    args = argparse.Namespace(workload="selfcheck", seed=0, seconds=0.0, trace=trace)
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run_workload(args, tiny_requests(OUT / "inputs" / "tiny"))


def expect_metrics(results: dict, declared: list[dict], positive: bool) -> None:
    got = {name: m["unit"] for name, m in results["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"metrics differ from BENCHMARK.json: emitted only {sorted(set(got) - set(want))}, "
                             f"missing {sorted(set(want) - set(got))}, units {got} vs {want}")
    for name, m in results["metrics"].items():
        if not math.isfinite(m["value"]) or (positive and m["value"] <= 0):
            raise AssertionError(f"{name} = {m['value']}")
    if not results["correct"] or results["failed"]:
        raise AssertionError(f"tiny run failed its output checks: {results['samples']}")


def corrupting(real):
    """A CLI main whose analyze reports move one route's 1/mu by a part in a
    million and whose other outputs lose their last bytes."""
    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real(argv)
        text = buf.getvalue()
        if argv[0] == "analyze" and "--format" not in argv:
            report = json.loads(text)
            report["routes"]["group-inverse"]["rows"][0]["inv_mu"] *= 1 + 1e-6
            text = json.dumps(report)
        else:
            text = text[:-8]
        sys.stdout.write(text)
        return code
    return main


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.SETUP_REPEATS = 1
    expect_metrics(tiny_run(0), bench["end_to_end"], positive=True)
    expect_metrics(tiny_run(1), bench["per_layer"], positive=False)

    real = ddmnet.cli.main
    ddmnet.cli.main = corrupting(real)
    try:
        corrupted = tiny_run(0)
    finally:
        ddmnet.cli.main = real
    if corrupted["failed"] != corrupted["attempted"] or corrupted["summary"]["error_rate"] != 1.0:
        raise AssertionError(f"corrupted outputs passed the checks: {corrupted['samples']}")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "montecarlo", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("the benchmark printed a result without the program")
    print("selfcheck passed: metrics and units match BENCHMARK.json, corrupted outputs count "
          "toward error_rate, no result without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
