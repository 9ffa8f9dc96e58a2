"""Command-line front end.

Subcommands: analyze, centrality, family, simulate, verify. Reports are
emitted as JSON (default), CSV tables, or plot-ready variance curves, and
embed the full configuration so a run can be reproduced byte-for-byte.
Exit codes: 0 ok, 1 verification failure, 2 usage or input errors, 3 an
internal error (an unexpected exception, reported in one line on stderr).

Importing this module loads numpy and no scipy. A command loads scipy only
where it runs a scipy routine: the complex Schur factorization (a normal,
non-symmetric Laplacian), the matrix exponential (curves, family, simulate,
verify) or Dijkstra (centrality). analyze on a symmetric graph, in JSON or
CSV, runs on numpy alone. `main` runs scipy's bundled OpenBLAS on one thread
from the moment scipy.linalg is loaded (README, "Threading").
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from itertools import chain, repeat

import numpy as np

from . import __version__
from .centrality import (
    certainty_via_centrality,
    enumerate_combined_paths,
    information_centrality,
    information_matrix,
    information_scores,
    naive_combined_information,
)
from .certainty import (
    CertaintyReport,
    ModelParams,
    analytic_covariance,
    certainty_group_inverse,
    certainty_spectral,
    covariance_curves,
    dispersion_summary,
    spectral_decompose,
    variance_envelope,
)
from .errors import DdmnetError, PathCapExceededError, StepCapError
from .families import closed_form_covariance, closed_form_mu, make_family, parse_family_spec
from .graph import GraphProfile, WeightedDigraph, classify, laplacian, load_graph, mirror_graph
from .lazyscipy import single_thread_blas_on_load
from .simulate import SimConfig, empirical_moments, simulate_ensemble, validate_moments
from .verify import FAIL, run_checks

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _profile_dict(p: GraphProfile) -> dict:
    return {
        "out_degree": list(p.out_degree),
        "in_degree": list(p.in_degree),
        "balanced": p.balanced,
        "strongly_connected": p.strongly_connected,
        "normal_laplacian": p.normal_laplacian,
        "normality_residual": p.normality_residual,
    }


def _base_report(command: str, config: dict, g: WeightedDigraph,
                 profile: GraphProfile | None = None) -> dict:
    return {"command": command, "version": __version__, "config": config,
            "graph": g, "profile": _profile_dict(profile or classify(g))}


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DdmnetError(f"cannot write {path}: {exc}") from exc


# Where json.dumps(indent=2, sort_keys=True) puts the graph echo's empty edge
# list. JSON strings hold no raw newline, so no user text can match this.
_EMPTY_EDGES = '\n  "graph": {\n    "edges": [],'


def _json_text(body: dict) -> str:
    """json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n", where
    body["graph"] is a WeightedDigraph echoed as graph_to_dict would give it.

    The edge list is rendered with one join over the arc arrays and spliced
    in; it holds ints and finite floats, written as json writes them (repr).
    repr depends only on the value, so each distinct weight is formatted once.
    """
    g = body["graph"]
    text = json.dumps({**body, "graph": {"n": g.n, "edges": [], "undirected": False}},
                      indent=2, sort_keys=True, allow_nan=False)
    if not g.src.size:
        return text + "\n"
    ks, js = g.src.tolist(), g.dst.tolist()
    nodes = {*ks, *js}  # each node label is formatted once, not once per arc
    head = {k: f",\n      [\n        {k},\n        " for k in nodes}
    tail = {j: f"{j},\n        " for j in nodes}
    weights, which = np.unique(g.w, return_inverse=True)
    shown = list(map(repr, weights.tolist()))
    block = "".join(chain.from_iterable(zip(
        map(head.__getitem__, ks), map(tail.__getitem__, js), map(shown.__getitem__, which.tolist()),
        repeat("\n      ]"))))
    return text.replace(_EMPTY_EDGES, _EMPTY_EDGES[:-2] + "\n" + block[2:] + "\n    ],", 1) + "\n"


def emit_report(report: dict, fmt: str, path: str | None) -> None:
    """Serialize a report deterministically (sorted keys, repr floats).

    The csv_rows / csv_fields / curves entries are presentation payloads for
    the respective formats and are stripped from JSON output.
    """
    if fmt == "json":
        body = {k: v for k, v in report.items() if k not in ("csv_rows", "csv_fields", "curves")}
        _emit(_json_text(body), path)
        return
    if fmt == "csv":
        rows = report.get("csv_rows")
        if rows is None:
            raise DdmnetError(f"command {report['command']!r} has no CSV representation")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else
                                report.get("csv_fields", []), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), path)
        return
    if fmt == "curves":
        curves = report.get("curves")
        if curves is None:
            raise DdmnetError(f"command {report['command']!r} does not produce curves")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(curves["header"])
        writer.writerows(curves["rows"])
        _emit(buf.getvalue(), path)
        return
    raise DdmnetError(f"unknown output format {fmt!r}")


def _check_grid(args: argparse.Namespace) -> None:
    if not 0.0 <= args.t_max < math.inf:
        raise ValueError(f"--t-max must be finite and >= 0, got {args.t_max}")
    if not 0.0 < args.t_step < math.inf:
        raise ValueError(f"--t-step must be finite and > 0, got {args.t_step}")


def _attach_curves(report: dict, g: WeightedDigraph, params: ModelParams,
                   t_max: float, t_step: float) -> None:
    times = np.arange(0.0, t_max + 1e-12, t_step)
    variances = covariance_curves(laplacian(g), params, t_step, times.size)
    header = ["t"] + [f"var_node_{k}" for k in range(1, g.n + 1)] + ["envelope_lower", "envelope_upper"]
    rows = []
    for i, t in enumerate(times):
        _, lower, upper = variance_envelope(params, g.n, float(t))
        rows.append([float(t)] + [float(v) for v in variances[i]] + [lower, upper])
    report["curves"] = {"header": header, "rows": rows}


def _route_entry(report_or_error: CertaintyReport | str) -> dict:
    if isinstance(report_or_error, str):
        return {"applicable": False, "reason": report_or_error}
    rep = report_or_error
    return {
        "applicable": True,
        "rows": rep.to_rows(),
        "kirchhoff_index": rep.kirchhoff_index,
        "total_dispersion": rep.total_dispersion,
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_grid(args)
    g = load_graph(args.graph)
    params = ModelParams(beta=args.beta, sigma=args.sigma)
    profile = classify(g)
    config = {"graph_file": args.graph, "sigma": args.sigma, "beta": args.beta,
              "format": args.format, "t_max": args.t_max, "t_step": args.t_step}
    report = _base_report("analyze", config, g, profile)

    routes: dict[str, dict] = {}
    csv_rows: list[dict] = []
    if profile.normal_laplacian and profile.strongly_connected:
        # two factorizations: L's eigenvectors, and the mirror's solve basis for the rest
        spectral = certainty_spectral(spectral_decompose(laplacian(g)), params)
        info = information_matrix(laplacian(mirror_graph(g)))
        group = certainty_group_inverse(info.x, params)
        info_harmonic, _ = information_scores(info)
        bridge = certainty_via_centrality(info_harmonic, info.kirchhoff_index, params, g.n)
        for rep in (spectral, group, bridge):
            routes[rep.route] = _route_entry(rep)
            csv_rows.extend(rep.to_rows())
        report["dispersion"] = asdict(dispersion_summary(spectral, info.kirchhoff_index))
    else:
        why_not = ("Laplacian is not normal" if not profile.normal_laplacian
                   else "graph is not strongly connected")
        msg = f"certainty index undefined: {why_not}"
        for name in ("spectral", "group-inverse", "info-centrality"):
            routes[name] = _route_entry(msg)
    report["routes"] = routes
    report["csv_rows"] = csv_rows
    report["csv_fields"] = ["node", "mu", "inv_mu", "route"]
    if args.format == "curves":
        _attach_curves(report, g, params, args.t_max, args.t_step)
    emit_report(report, args.format, args.output)
    return EXIT_OK


def cmd_centrality(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    mirror = mirror_graph(g)
    config = {"graph_file": args.graph, "variant": args.variant, "oracle_cap": args.oracle_cap,
              "format": args.format}
    report = _base_report("centrality", config, g)
    info = information_matrix(laplacian(mirror))
    cent = information_centrality(mirror, info, args.variant)
    report["centrality"] = {
        "rows": cent.to_rows(),
        "ranking": list(cent.ranking),
        "ranked_by": cent.ranked_by,
    }
    report["csv_rows"] = cent.to_rows()
    report["csv_fields"] = ["node", "closeness", "info_harmonic", "info_arithmetic", "rank"]
    if mirror.n <= args.oracle_cap and mirror.n > 1:
        pairs = []
        try:
            for k in range(1, mirror.n + 1):
                for j in range(k + 1, mirror.n + 1):
                    bundle, oracle = enumerate_combined_paths(mirror, k, j, max_nodes=args.oracle_cap)
                    entry = {
                        "pair": [k, j],
                        "paths": len(bundle.paths),
                        "information_matrix": float(info.information[k - 1, j - 1]),
                        "information_paths": oracle,
                    }
                    try:
                        entry["information_paths_orientation_blind"] = naive_combined_information(bundle)
                    except DdmnetError as exc:
                        entry["information_paths_orientation_blind"] = None
                        entry["note"] = str(exc)
                    pairs.append(entry)
            report["path_oracle"] = {"pairs": pairs}
        except PathCapExceededError as exc:
            report["path_oracle"] = {"skipped": str(exc)}
    emit_report(report, args.format, args.output)
    return EXIT_OK


def cmd_family(args: argparse.Namespace) -> int:
    _check_grid(args)
    spec = parse_family_spec(args.spec)
    g = make_family(spec)
    params = ModelParams(beta=args.beta, sigma=args.sigma)
    check_times = [float(tok) for tok in args.times.split(",") if tok.strip()]
    if not all(0.0 <= t < math.inf for t in check_times):
        raise ValueError(f"--times must be finite and >= 0, got {args.times}")
    config = {"family": args.spec, "sigma": args.sigma, "beta": args.beta,
              "times": check_times, "format": args.format}
    report = _base_report("family", config, g)
    closed = closed_form_mu(spec, args.sigma)
    closed_entry: dict = {
        "normal": closed.normal,
        "strongly_connected": closed.strongly_connected,
    }
    csv_rows: list[dict] = []
    if closed.mu is None:
        closed_entry["reason"] = closed.reason
    else:
        closed_entry["mu"] = [None if math.isinf(v) else v for v in closed.mu]
        closed_entry["inv_mu"] = list(closed.inv_mu)
        csv_rows = [
            {"node": k + 1, "mu": None if math.isinf(closed.mu[k]) else closed.mu[k],
             "inv_mu": closed.inv_mu[k], "route": "closed-form"}
            for k in range(g.n)
        ]
    report["closed_form"] = closed_entry
    report["csv_fields"] = ["node", "mu", "inv_mu", "route"]
    report["csv_rows"] = csv_rows

    lap = laplacian(g)
    cross: dict = {}
    if closed.mu is not None:
        spectral = certainty_spectral(spectral_decompose(lap), params)
        gap = max(abs(a - b) for a, b in zip(spectral.inv_mu, closed.inv_mu))
        cross["inv_mu_spectral_gap"] = gap
    cov_gaps = {}
    for t in check_times:
        try:
            general = analytic_covariance(lap, params, t, "general")
        except ValueError as exc:
            raise ValueError(f"--times {t}: {exc}") from exc
        gap = float(np.abs(closed_form_covariance(spec, params, t) - general).max())
        cov_gaps[str(t)] = gap
    cross["covariance_integration_gap"] = cov_gaps
    report["cross_check"] = cross
    if args.format == "curves":
        _attach_curves(report, g, params, args.t_max, args.t_step)
    emit_report(report, args.format, args.output)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    params = ModelParams(beta=args.beta, sigma=args.sigma)
    sample_times = tuple(float(tok) for tok in args.sample_times.split(",") if tok.strip())
    try:
        cfg = SimConfig(params=params, t_max=args.t_max, step=args.step,
                        trajectories=args.trajectories, seed=args.seed, sample_times=sample_times)
    except StepCapError as exc:
        raise ValueError(f"--sample-times and --step: {exc}") from exc
    # workers deliberately left out of the config echo: results are identical
    config = {"graph_file": args.graph, "sigma": args.sigma, "beta": args.beta,
              "t_max": args.t_max, "step": args.step, "trajectories": args.trajectories,
              "seed": args.seed, "sample_times": list(sample_times), "gate": args.gate,
              "format": args.format}
    report = _base_report("simulate", config, g)
    ensemble = simulate_ensemble(g, cfg, workers=args.workers)
    lap = laplacian(g)
    overall_pass = True
    entries = []
    csv_rows = []
    for t in sample_times:
        moments = empirical_moments(ensemble, t)
        target = analytic_covariance(lap, params, t, "general")
        target_mean = np.full(g.n, params.beta * t)
        validation = validate_moments(moments, target, gate=args.gate,
                                      target_mean=target_mean)
        overall_pass = overall_pass and validation.passed
        entries.append({
            "t": t,
            "mean": [float(v) for v in moments.mean],
            "variance": [float(v) for v in np.diag(moments.covariance)],
            "se_mean": [float(v) for v in moments.se_mean],
            "se_variance": [float(v) for v in np.diag(moments.se_covariance)],
            "target_variance": [float(v) for v in np.diag(target)],
            "z_variance": [float(v) for v in np.diag(validation.z_covariance)],
            "z_mean": [float(v) for v in validation.z_mean],
            "passed": validation.passed,
            "failures": list(validation.failures),
            "warnings": list(validation.warnings),
        })
        for k in range(g.n):
            csv_rows.append({
                "t": t, "node": k + 1,
                "mean": float(moments.mean[k]),
                "variance": float(moments.covariance[k, k]),
                "se_variance": float(moments.se_covariance[k, k]),
                "target_variance": float(target[k, k]),
                "z_variance": float(validation.z_covariance[k, k]),
            })
    report["moments"] = entries
    report["passed"] = overall_pass
    report["csv_rows"] = csv_rows
    report["csv_fields"] = ["t", "node", "mean", "variance", "se_variance",
                            "target_variance", "z_variance"]
    emit_report(report, args.format, args.output)
    return EXIT_OK if overall_pass else EXIT_VERIFICATION


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    params = ModelParams(beta=args.beta, sigma=args.sigma)
    profile = classify(g)
    results = run_checks(g, params, oracle_cap=args.oracle_cap, profile=profile)
    config = {"graph_file": args.graph, "sigma": args.sigma, "beta": args.beta,
              "oracle_cap": args.oracle_cap, "format": args.format}
    report = _base_report("verify", config, g, profile)
    report["checks"] = [{"name": r.name, "status": r.status, "detail": r.detail} for r in results]
    failed = [r for r in results if r.status == FAIL]
    report["passed"] = not failed
    for r in results:
        line = f"{r.status:4s} {r.name}"
        if r.detail:
            line += f" - {r.detail}"
        print(line, file=sys.stderr)
    emit_report(report, args.format, args.output)
    return EXIT_OK if not failed else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddmnet",
        description="Certainty analysis for networks of coupled drift-diffusion accumulators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--sigma", type=float, default=1.0, help="diffusion standard deviation (default 1)")
        p.add_argument("--beta", type=float, default=1.0, help="drift rate (default 1)")
        p.add_argument("--format", choices=formats, default="json", help="output format")
        p.add_argument("--output", default=None, help="output file (default: stdout)")

    p_analyze = sub.add_parser("analyze", help="certainty report via every applicable route")
    p_analyze.add_argument("graph", help="graph JSON file")
    common(p_analyze, ("json", "csv", "curves"))
    p_analyze.add_argument("--t-max", type=float, default=5.0, help="curves: final time")
    p_analyze.add_argument("--t-step", type=float, default=0.05, help="curves: grid step")
    p_analyze.set_defaults(func=cmd_analyze)

    p_cent = sub.add_parser("centrality", help="closeness and information centrality of the mirror")
    p_cent.add_argument("graph", help="graph JSON file")
    common(p_cent, ("json", "csv"))
    p_cent.add_argument("--variant", choices=("harmonic", "arithmetic"), default="harmonic",
                        help="which information-centrality variant drives the ranking")
    p_cent.add_argument("--oracle-cap", type=int, default=8,
                        help="run the path-enumeration oracle when n does not exceed this")
    p_cent.set_defaults(func=cmd_centrality)

    p_family = sub.add_parser("family", help="generate a canonical family and cross-check closed forms")
    p_family.add_argument("spec", help="family spec kind:n:alpha, e.g. complete:9:1 or circulant(1,3):8:1")
    common(p_family, ("json", "csv", "curves"))
    p_family.add_argument("--times", default="0.1,1,5", help="times for the covariance cross-check")
    p_family.add_argument("--t-max", type=float, default=5.0, help="curves: final time")
    p_family.add_argument("--t-step", type=float, default=0.05, help="curves: grid step")
    p_family.set_defaults(func=cmd_family)

    p_sim = sub.add_parser("simulate", help="Monte Carlo moments vs the analytic covariance")
    p_sim.add_argument("graph", help="graph JSON file")
    common(p_sim, ("json", "csv"))
    p_sim.add_argument("--t-max", type=float, default=5.0)
    p_sim.add_argument("--step", type=float, default=1e-3, help="Euler-Maruyama step")
    p_sim.add_argument("--trajectories", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--sample-times", default="1,5", help="comma-separated, must lie on the step grid")
    p_sim.add_argument("--workers", type=int, default=None,
                       help="process count, capped at one per 1024-trajectory chunk "
                            "(default: every usable CPU; result is identical)")
    p_sim.add_argument("--gate", type=float, default=4.0, help="z-score gate for diagonal entries")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the invariant suite against a graph")
    p_verify.add_argument("graph", help="graph JSON file")
    common(p_verify, ("json",))
    p_verify.add_argument("--oracle-cap", type=int, default=8)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    single_thread_blas_on_load()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DdmnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not a verdict on the input: never exit 0 or 1
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
