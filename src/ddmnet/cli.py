"""Command-line front end.

Subcommands: analyze, centrality, family, simulate, verify. Reports are
emitted as JSON (default), CSV tables, or plot-ready variance curves, and
embed the full configuration so a run can be reproduced byte-for-byte.
Exit codes: 0 ok, 1 verification failure, 2 usage or input errors, 3 an
internal error (an unexpected exception, reported in one line on stderr).

Every command but `centrality`, whose closeness runs scipy's shortest
paths, runs on numpy alone. numpy's BLAS keeps its default thread pool
outside Monte Carlo chunks (README, "Threading").
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import cache
from typing import Callable

import numpy as np

from . import __version__
from .centrality import information_centrality, path_oracle_pairs
from .certainty import (
    ModelParams,
    analytic_covariance,
    certainty_spectral,
    covariance_curves,
    dispersion_summary,
)
from .errors import DdmnetError, PathCapExceededError, StepCapError
from .families import closed_form_covariance, closed_form_mu, make_family, parse_family_spec
from .graph import WeightedDigraph, load_graph
from .request import Request
from .simulate import SimConfig, empirical_moments, simulate_ensemble, validate_moments
from .verify import FAIL, run_checks

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _base_report(command: str, config: dict, req: Request) -> dict:
    # a shallow copy of the profile's fields: json writes its degree tuples as arrays
    return {"command": command, "version": __version__, "config": config,
            "graph": req.g, "profile": dict(vars(req.profile))}


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DdmnetError(f"cannot write {path}: {exc}") from exc


@cache
def _layout(level: int) -> tuple[Callable[[object], str], str, str]:
    """For a container nested `level` deep: json's C encoder writing one item
    per line at the indentation of level + 1, that line break with its
    indentation, and the one before the closing bracket. The encoder writes
    floats by repr and refuses inf and nan, as json.dumps does."""
    pad, end = "\n" + "  " * (level + 1), "\n" + "  " * level
    return json.JSONEncoder(separators=("," + pad, ": "), sort_keys=True, allow_nan=False).encode, pad, end


def _scalar_text(value: object, level: int) -> str:
    """_layout(level)'s encoding of value, where every item of value, if a container,
    is a scalar. The C encoder's ValueError omits the value it refuses; json.dumps names it."""
    try:
        return _layout(level)[0](value)
    except ValueError:
        json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
        raise


_CONTAINERS = (dict, list, tuple, WeightedDigraph)


def _scalar_dict(value: object) -> bool:
    """True for a table row: a nonempty dict whose values are all scalars."""
    return (isinstance(value, dict) and bool(value)
            and not any(isinstance(v, _CONTAINERS) for v in value.values()))


def _write_json(value: object, level: int, out: list[str]) -> None:
    """Append to `out` the text of json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False) for value nested `level` deep. A WeightedDigraph is
    written as graph_to_dict would give it; dict keys are strings.

    A container whose items are all scalars is one call of the C encoder,
    whose items, one per line, need only the brackets moved onto lines of
    their own. So is a list of table rows, nonempty dicts of scalars: the
    encoder writes it with the rows' own item separator, and each boundary
    "},<separator>{" between two rows is rewritten with the list's. No
    row's text can hold that boundary, since JSON strings hold no raw line
    break. Any other container writes its items here.
    """
    if isinstance(value, WeightedDigraph):
        _write_graph(value, level, out)
        return
    if not isinstance(value, (dict, list, tuple)):
        out.append(_scalar_text(value, level))
        return
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    encode, pad, end = _layout(level)
    items = value.values() if isinstance(value, dict) else value
    if not any(isinstance(v, _CONTAINERS) for v in items):
        text = _scalar_text(value, level)
        out += (text[0], pad, text[1:-1], end, text[-1])
    elif not isinstance(value, dict) and all(map(_scalar_dict, value)):
        row_pad = _layout(level + 1)[1]
        text = _scalar_text(value, level + 1)[2:-2].replace("}," + row_pad + "{", f"{pad}}},{pad}{{{row_pad}")
        out += ("[", pad, "{", row_pad, text, pad, "}", end, "]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            out += ("," + pad if i else pad, encode(key), ": ")
            _write_json(value[key], level + 1, out)
        out += (end, "}")
    else:
        out.append("[")
        for i, v in enumerate(value):
            out.append("," + pad if i else pad)
            _write_json(v, level + 1, out)
        out += (end, "]")


def _write_graph(g: WeightedDigraph, level: int, out: list[str]) -> None:
    """Append graph_to_dict(g)'s text for g nested `level` deep.

    Arcs hold ints and finite floats, written as json writes them (repr).
    repr depends only on the value, so each distinct weight, and each node
    label that occurs, is formatted once; indexing object arrays by g.src,
    g.dst and the unique inverse gathers each arc's three pieces, appended
    to `out` in place. An arc's opening piece also closes the arc before it.
    repr of the distinct weights is most of the time, and the floor: numpy
    has no faster formatter that writes the same digits.
    """
    pads = ["\n" + "  " * (level + d) for d in range(4)]
    out += ("{", pads[1], '"edges": ')
    m = g.src.size
    if not m:
        out.append("[]")
    else:
        close_arc = pads[2] + "]"
        occurs = np.zeros(g.n + 1, dtype=bool)
        occurs[g.src] = occurs[g.dst] = True
        labels = np.flatnonzero(occurs).tolist()
        opening, middle = np.empty((2, g.n + 1), dtype=object)
        opening[labels] = [f"{close_arc},{pads[2]}[{pads[3]}{k},{pads[3]}" for k in labels]
        middle[labels] = [f"{k},{pads[3]}" for k in labels]
        weights, which = np.unique(g.w, return_inverse=True)
        shown = np.array(list(map(repr, weights.tolist())), dtype=object)
        arcs = np.empty((m, 3), dtype=object)
        arcs[:, 0], arcs[:, 1], arcs[:, 2] = opening[g.src], middle[g.dst], shown[which]
        arcs[0, 0] = arcs[0, 0][len(close_arc) + 1:]  # nothing to close before the first arc
        out.append("[")
        out += arcs.ravel().tolist()
        out += (close_arc, pads[1], "]")
    out += (",", pads[1], f'"n": {g.n},', pads[1], '"undirected": false', pads[0], "}")


def _json_text(body: dict) -> str:
    """json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n", where
    body["graph"] is a WeightedDigraph echoed as graph_to_dict would give it.
    The pieces of _write_json go through one "".join, so the long text is
    built once."""
    out: list[str] = []
    _write_json(body, 0, out)
    out.append("\n")
    return "".join(out)


def emit_report(report: dict, fmt: str, path: str | None) -> None:
    """Serialize a report deterministically (sorted keys, repr floats).

    The csv_rows / csv_fields / curves entries are presentation payloads for
    the respective formats and are stripped from JSON output. The JSON text
    comes from _json_text, which lays out the graph echo's arcs from gathered
    pieces and the other containers through json's C encoder, in one join;
    formatting the distinct weights by repr is most of its cost on a large
    graph. The curves header holds plain column names and its rows hold
    floats, so each line is the comma join of their repr, as csv.writer
    would write it.
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
        lines = [",".join(curves["header"]), *(",".join(map(str, row)) for row in curves["rows"])]
        _emit("\n".join(lines) + "\n", path)
        return
    raise DdmnetError(f"unknown output format {fmt!r}")


def _check_grid(args: argparse.Namespace) -> None:
    if not 0.0 <= args.t_max < math.inf:
        raise ValueError(f"--t-max must be finite and >= 0, got {args.t_max}")
    if not 0.0 < args.t_step < math.inf:
        raise ValueError(f"--t-step must be finite and > 0, got {args.t_step}")


def _attach_curves(report: dict, req: Request, t_max: float, t_step: float) -> None:
    n, params = req.g.n, req.params
    times = np.arange(0.0, t_max + 1e-12, t_step)
    variances = covariance_curves(req.lap, params, t_step, times.size)
    header = ["t"] + [f"var_node_{k}" for k in range(1, n + 1)] + ["envelope_lower", "envelope_upper"]
    # variance_envelope's (sigma^2 t / n, sigma^2 t), by the same IEEE operations
    # (inf, as for Python floats, where the product overflows)
    with np.errstate(over="ignore"):
        upper = params.sigma**2 * times
        lower = upper / n
    rows = np.column_stack([times, variances, lower, upper]).tolist()
    report["curves"] = {"header": header, "rows": rows}


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_grid(args)
    req = Request(load_graph(args.graph), ModelParams(beta=args.beta, sigma=args.sigma))
    config = {"graph_file": args.graph, "sigma": args.sigma, "beta": args.beta,
              "format": args.format, "t_max": args.t_max, "t_step": args.t_step}
    report = _base_report("analyze", config, req)

    if req.routes:
        report["routes"] = {rep.route: {"applicable": True, "rows": rep.to_rows(),
                                        "kirchhoff_index": rep.kirchhoff_index,
                                        "total_dispersion": rep.total_dispersion} for rep in req.routes}
        report["csv_rows"] = [row for rep in req.routes for row in rep.to_rows()]
        report["dispersion"] = vars(dispersion_summary(req.routes[0], req.info.kirchhoff_index))
    else:
        why_not = ("Laplacian is not normal" if not req.profile.normal_laplacian
                   else "graph is not strongly connected")
        undefined = {"applicable": False, "reason": f"certainty index undefined: {why_not}"}
        report["routes"] = dict.fromkeys(("spectral", "group-inverse", "info-centrality"), undefined)
        report["csv_rows"] = []
    report["csv_fields"] = ["node", "mu", "inv_mu", "route"]
    if args.format == "curves":
        _attach_curves(report, req, args.t_max, args.t_step)
    emit_report(report, args.format, args.output)
    return EXIT_OK


def cmd_centrality(args: argparse.Namespace) -> int:
    req = Request(load_graph(args.graph))
    config = {"graph_file": args.graph, "variant": args.variant, "oracle_cap": args.oracle_cap,
              "format": args.format}
    report = _base_report("centrality", config, req)
    cent = information_centrality(req.mirror, req.info, args.variant)
    report["centrality"] = {
        "rows": cent.to_rows(),
        "ranking": list(cent.ranking),
        "ranked_by": cent.ranked_by,
    }
    report["csv_rows"] = cent.to_rows()
    report["csv_fields"] = ["node", "closeness", "info_harmonic", "info_arithmetic", "rank"]
    if 1 < req.g.n <= args.oracle_cap:
        try:
            report["path_oracle"] = {"pairs": path_oracle_pairs(req.mirror, req.info)}
        except PathCapExceededError as exc:
            report["path_oracle"] = {"skipped": str(exc)}
    emit_report(report, args.format, args.output)
    return EXIT_OK


def cmd_family(args: argparse.Namespace) -> int:
    _check_grid(args)
    spec = parse_family_spec(args.spec)
    req = Request(make_family(spec), ModelParams(beta=args.beta, sigma=args.sigma))
    params = req.params
    check_times = [float(tok) for tok in args.times.split(",") if tok.strip()]
    if not all(0.0 <= t < math.inf for t in check_times):
        raise ValueError(f"--times must be finite and >= 0, got {args.times}")
    config = {"family": args.spec, "sigma": args.sigma, "beta": args.beta,
              "times": check_times, "format": args.format}
    report = _base_report("family", config, req)
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
            for k in range(req.g.n)
        ]
    report["closed_form"] = closed_entry
    report["csv_fields"] = ["node", "mu", "inv_mu", "route"]
    report["csv_rows"] = csv_rows

    cross: dict = {}
    if closed.mu is not None:
        spectral = certainty_spectral(req.spectral, params)
        gap = max(abs(a - b) for a, b in zip(spectral.inv_mu, closed.inv_mu))
        cross["inv_mu_spectral_gap"] = gap
    cov_gaps = {}
    for t in check_times:
        try:
            general = analytic_covariance(req.lap, params, t)
        except ValueError as exc:
            raise ValueError(f"--times {t}: {exc}") from exc
        gap = float(np.abs(closed_form_covariance(spec, params, t) - general).max())
        cov_gaps[str(t)] = gap
    cross["covariance_integration_gap"] = cov_gaps
    report["cross_check"] = cross
    if args.format == "curves":
        _attach_curves(report, req, args.t_max, args.t_step)
    emit_report(report, args.format, args.output)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    req = Request(load_graph(args.graph), ModelParams(beta=args.beta, sigma=args.sigma))
    g, params = req.g, req.params
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
    report = _base_report("simulate", config, req)
    ensemble = simulate_ensemble(g, cfg, workers=args.workers, lap=req.lap)
    overall_pass = True
    entries = []
    csv_rows = []
    for t in sample_times:
        moments = empirical_moments(ensemble, t)
        target = analytic_covariance(req.lap, params, t)
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
    req = Request(load_graph(args.graph), ModelParams(beta=args.beta, sigma=args.sigma))
    results = run_checks(req, oracle_cap=args.oracle_cap)
    config = {"graph_file": args.graph, "sigma": args.sigma, "beta": args.beta,
              "oracle_cap": args.oracle_cap, "format": args.format}
    report = _base_report("verify", config, req)
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

    p_cent = sub.add_parser("centrality", help="closeness and information centrality of the mirror")
    p_cent.add_argument("graph", help="graph JSON file")
    common(p_cent, ("json", "csv"))
    p_cent.add_argument("--variant", choices=("harmonic", "arithmetic"), default="harmonic",
                        help="which information-centrality variant drives the ranking")
    p_cent.add_argument("--oracle-cap", type=int, default=8,
                        help="run the path-enumeration oracle when n does not exceed this")

    p_family = sub.add_parser("family", help="generate a canonical family and cross-check closed forms")
    p_family.add_argument("spec", help="family spec kind:n:alpha, e.g. complete:9:1 or circulant(1,3):8:1")
    common(p_family, ("json", "csv", "curves"))
    p_family.add_argument("--times", default="0.1,1,5", help="times for the covariance cross-check")
    p_family.add_argument("--t-max", type=float, default=5.0, help="curves: final time")
    p_family.add_argument("--t-step", type=float, default=0.05, help="curves: grid step")

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

    p_verify = sub.add_parser("verify", help="run the invariant suite against a graph")
    p_verify.add_argument("graph", help="graph JSON file")
    common(p_verify, ("json",))
    p_verify.add_argument("--oracle-cap", type=int, default=8)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use: building one costs more
    than a small request's computation."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command. The command function is looked up by name on each call,
    so replacing a module's cmd_<name> takes effect on the next call."""
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
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
