"""ddmnet benchmark: CLI requests end to end, layer self time from a traced run.

Run from the repository root:

    python3 bench/run.py --workload analyze-dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One single-threaded client calls ddmnet.cli.main(argv) in-process in a closed
loop: the next request starts when the previous one returns. The workload's
request list runs in whole passes for at most --seconds. Every output is
checked after its request returns, outside the timed region.

--trace 0 reports the end-to-end metrics with no tracing installed:
  setup_s            median wall time of a fresh interpreter importing
                     ddmnet.cli
  requests_per_s     requests completed per second of request wall time
  latency_geomean_s  geometric mean over the workload's request list of each
                     request's median latency; requests_per_s is dominated by
                     the longest requests, this weighs every request alike
  peak_rss_mb        peak resident memory of the process running the workload
It also prints, outside the last line, each command's median latency with its
sample count, sim_steps_per_s and error_rate. Those are per-command or zero on
some workloads, so the last line carries them only under --trace 1.

--trace 1 runs every request twice, once plain and once traced, and reports
per-layer calls and self time, per-command latency medians and the tracing
overhead.

Prints every metric with its unit, then as the last line one JSON object with
the keys correct, attempted, failed and metrics. The full record (machine,
request shapes, samples, spans) goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
COMMANDS = ("analyze", "centrality", "verify", "family", "curves", "simulate")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99, 90)


def run_request(main, req) -> dict:
    """Call the CLI once; the clock covers main() only."""
    out, err = io.StringIO(), io.StringIO()
    crash = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(list(req.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed request, not a benchmark crash
            code, crash = None, traceback.format_exc()
        seconds = perf_counter() - start
    return {"code": code, "stdout": out.getvalue(), "seconds": seconds, "crash": crash}


def run_passes(requests: list, budget: float, run_one) -> int:
    """Whole passes over the request list while the next one fits the budget."""
    start = perf_counter()
    passes = 0
    while True:
        for req in requests:
            run_one(req)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > budget:
            return passes


def tail(values: list[float]) -> dict:
    """Highest percentile of TAIL_PERCENTILES with at least ten samples beyond it."""
    for q in TAIL_PERCENTILES:
        if len(values) * (100 - q) / 100 >= 10:
            return {f"p{q}": statistics.quantiles(values, n=100)[q - 1]}
    return {}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(requests: list, seconds: float, trace: bool, tol) -> dict:
    """Run the workload and return its samples, and the tracer when tracing."""
    import ddmnet.cli
    from checks import check, prepare
    from layertrace import REQUEST_SPAN, Tracer

    tracer = Tracer() if trace else None
    samples: list[dict] = []

    def record(req, result: dict, traced: bool) -> None:
        reason = result["crash"] or check(req, result["code"], result["stdout"], tol)
        samples.append({"command": req.command, "request": requests.index(req),
                        "seconds": result["seconds"], "traced": traced,
                        "bytes": len(result["stdout"].encode()), "sim_steps": req.sim_steps,
                        "code": result["code"], "error": reason})

    def plain(req) -> None:
        record(req, run_request(ddmnet.cli.main, req), False)

    def traced(req) -> None:
        request_id = len(samples)

        def main(argv):
            return tracer.call(REQUEST_SPAN, request_id, ddmnet.cli.main, argv)

        with tracer:
            result = run_request(main, req)
        record(req, result, True)

    def pair(req) -> None:
        # alternate which runs first so neither side always meets a warmer cache
        first, second = (plain, traced) if len(samples) % 4 == 0 else (traced, plain)
        first(req)
        second(req)

    prepare(requests)
    passes = run_passes(requests, seconds, pair if trace else plain)
    return {"samples": samples, "passes": passes, "tracer": tracer}


def summarize(samples: list[dict]) -> dict:
    """Per-command medians with sample counts, throughput and error rate, from
    the untraced samples; the error rate counts every request run."""
    plain = [s for s in samples if not s["traced"]]
    by_command = {c: [s["seconds"] for s in plain if s["command"] == c] for c in COMMANDS}
    by_request = defaultdict(list)
    for s in plain:
        by_request[s["request"]].append(s["seconds"])
    latency = {c: {"median_s": statistics.median(v), "samples": len(v), **tail(v)}
               for c, v in by_command.items() if v}
    sim = [s for s in plain if s["sim_steps"]]
    return {
        "latency": latency,
        "requests_per_s": len(plain) / sum(s["seconds"] for s in plain),
        "latency_geomean_s": statistics.geometric_mean(
            [statistics.median(v) for v in by_request.values()]),
        "sim_steps_per_s": (sum(s["sim_steps"] for s in sim) / sum(s["seconds"] for s in sim)
                            if sim else 0.0),
        "error_rate": sum(1 for s in samples if s["error"]) / len(samples),
    }


def end_to_end_metrics(summary: dict, setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": (summary["requests_per_s"], "1/s"),
        "latency_geomean_s": (summary["latency_geomean_s"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(summary: dict, samples: list[dict], tracer, ceiling: float) -> dict:
    traced = [s for s in samples if s["traced"]]
    plain_s = sum(s["seconds"] for s in samples if not s["traced"])
    metrics = tracer.layer_metrics(len(traced))
    normals_s = tracer.span_seconds("simulate.simulate_ensemble")
    normals_per_s = tracer.normals / normals_s if normals_s else 0.0
    metrics.update({
        "cli.report_bytes": (sum(s["bytes"] for s in traced) / len(traced), "bytes"),
        "simulate.normals_per_s": (normals_per_s, "1/s"),
        "simulate.rng_ceiling_normals_per_s": (ceiling, "1/s"),
        "simulate.rng_ceiling_frac": (normals_per_s / ceiling, "fraction"),
        "trace.overhead_frac": (sum(s["seconds"] for s in traced) / plain_s - 1.0, "fraction"),
    })
    for command in COMMANDS:
        entry = summary["latency"].get(command)
        metrics[f"{command}_s"] = (entry["median_s"] if entry else 0.0, "s")
    metrics["sim_steps_per_s"] = (summary["sim_steps_per_s"], "1/s")
    metrics["error_rate"] = (summary["error_rate"], "fraction")
    return metrics


def run_workload(args: argparse.Namespace, requests: list) -> dict:
    """Measure one workload, write its results file and print its metrics."""
    import machine
    from workloads import tiny_requests

    from ddmnet.config import Tolerances

    tol = Tolerances()
    measure(tiny_requests(OUT / "inputs" / "tiny"), 0.0, False, tol)  # warm-up, discarded
    setup = [] if args.trace else machine.import_seconds(ROOT, SETUP_REPEATS)
    bit_generator = machine.simulator_bit_generator()
    ceiling = machine.rng_ceiling(bit_generator)

    run = measure(requests, args.seconds, bool(args.trace), tol)
    samples = run["samples"]
    summary = summarize(samples)
    if args.trace:
        metrics = per_layer_metrics(summary, samples, run["tracer"], ceiling)
    else:
        metrics = end_to_end_metrics(summary, setup)
    failed = sum(1 for s in samples if s["error"])
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine.record(bit_generator, ceiling),
        "requests": [{"command": r.command, "argv": list(r.argv), "shape": r.shape}
                     for r in requests],
        "passes": run["passes"], "setup_s_samples": setup, "summary": summary,
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
    }
    if args.trace:
        results["absent_functions"] = run["tracer"].absent
        results["spans"] = run["tracer"].records()
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1))

    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  passes {run['passes']}  "
          f"requests {len(samples)}  failed {failed}  -> {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if not args.trace:
        for command in COMMANDS:
            entry = summary["latency"].get(command)
            if entry is None:
                print(f"{command + '_s':48s} {'-':>14s} s   (no {command} requests here)")
                continue
            extra = "".join(f"  {k} {v:.6g}" for k, v in entry.items() if k.startswith("p"))
            print(f"{command + '_s':48s} {entry['median_s']:14.6g} s   "
                  f"(median of {entry['samples']}{extra})")
        steps = f"{summary['sim_steps_per_s']:14.6g}" if summary["sim_steps_per_s"] else f"{'-':>14s}"
        print(f"{'sim_steps_per_s':48s} {steps} 1/s")
        print(f"{'error_rate':48s} {summary['error_rate']:14.6g} fraction")
    for s in samples:
        if s["error"]:
            print(f"FAILED {s['command']}: {s['error'].strip().splitlines()[-1]}")
    return results


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ddmnet" / "cli.py").is_file():
        print(f"error: no ddmnet sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":  # one process per workload keeps peak_rss_mb separate
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for w in WORKLOADS]
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import build_requests

    requests = build_requests(args.workload, args.seed,
                              OUT / "inputs" / f"{args.workload}-seed{args.seed}")
    results = run_workload(args, requests)
    print(json.dumps({k: results[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
