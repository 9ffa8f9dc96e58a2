"""Seeded request lists for the benchmark workloads.

A workload is a fixed list of CLI requests built from the workload seed.
The program sees only the graph JSON files written here and the argv of each
request. Graph shape (order, edge density, weighted-degree scale) is fixed per
workload, so two seeds cost the same and differ only in the random draws:
edge placement, weights, sigma, beta and the simulator seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

WEIGHT_RANGE = (0.5, 2.0)
CURVES_T_MAX = 5.0
CURVES_T_STEP = 0.05
FIVE_NODE_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "five_node_benchmark.json"
WORKLOADS = ("analyze-dense", "crosscheck", "montecarlo")


@dataclass(frozen=True, eq=False)
class Graph:
    """A generated graph: its file, its directed arcs (0-based) and its shape."""

    path: Path
    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    undirected: bool

    def laplacian(self) -> np.ndarray:
        lap = np.zeros((self.n, self.n))
        lap[self.rows, self.cols] = -self.weights
        lap[np.diag_indices(self.n)] = -lap.sum(axis=1)
        return lap

    def shape(self) -> dict:
        """n, directed arc count (an undirected edge counts both ways), density
        and whether the Laplacian is normal."""
        lap = self.laplacian()
        commutator = float(np.linalg.norm(lap @ lap.T - lap.T @ lap))
        normal = commutator <= 1e-10 * max(1.0, float(np.linalg.norm(lap)) ** 2)
        return {"n": self.n, "edges": int(self.rows.size),
                "density": self.rows.size / max(1, self.n * (self.n - 1)), "normal": normal}


@dataclass(frozen=True, eq=False)
class Request:
    """One CLI invocation and what its output check needs to know."""

    command: str  # analyze | centrality | verify | family | curves | simulate
    argv: tuple[str, ...]
    shape: dict
    sigma: float
    graph: Graph | None = None
    sim_steps: int = 0  # trajectories x Euler-Maruyama steps, simulate only


def _write(path: Path, n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
           undirected: bool) -> Graph:
    edges = [[int(k) + 1, int(j) + 1, float(w)] for k, j, w in zip(rows, cols, weights)]
    if undirected:  # the file lists each edge once; the arrays hold both arcs
        rows, cols, weights = (np.concatenate([rows, cols]), np.concatenate([cols, rows]),
                               np.concatenate([weights, weights]))
    path.write_text(json.dumps({"n": n, "edges": edges, "undirected": undirected}))
    return Graph(path=path, n=n, rows=rows, cols=cols, weights=weights, undirected=undirected)


def _scaled(weights: np.ndarray, rows: np.ndarray, n: int, max_degree: float | None,
            undirected: bool, cols: np.ndarray) -> np.ndarray:
    """Rescale all weights by one factor so the largest weighted out-degree is
    `max_degree`; this pins ||L||_inf and with it the integrator's step count."""
    if max_degree is None:
        return weights
    degree = np.bincount(rows, weights, minlength=n)
    if undirected:
        degree += np.bincount(cols, weights, minlength=n)
    return weights * (max_degree / degree.max())


def undirected_graph(rng: np.random.Generator, path: Path, n: int, p: float,
                     max_degree: float | None = None) -> Graph:
    """Connected undirected graph: a random recursive tree plus each other pair
    with probability `p`."""
    adj = np.zeros((n, n), dtype=bool)
    child = np.arange(1, n)
    adj[(rng.random(n - 1) * child).astype(int), child] = True
    iu, ju = np.triu_indices(n, 1)
    extra = rng.random(iu.size) < p
    adj[iu[extra], ju[extra]] = True
    rows, cols = np.nonzero(adj)
    weights = rng.uniform(*WEIGHT_RANGE, size=rows.size)
    return _write(path, n, rows, cols, _scaled(weights, rows, n, max_degree, True, cols), True)


def nonnormal_digraph(rng: np.random.Generator, path: Path, n: int, out_degree: int,
                      max_degree: float) -> Graph:
    """Strongly connected digraph: a directed ring (node k observes k + 1) plus
    `out_degree - 1` random extra arcs per node. In-degrees differ, so the
    Laplacian is unbalanced and hence not normal."""
    rows, cols = [], []
    for k in range(n):
        ring = (k + 1) % n
        others = np.array([j for j in range(n) if j not in (k, ring)])
        for j in [ring, *rng.choice(others, out_degree - 1, replace=False).tolist()]:
            rows.append(k)
            cols.append(int(j))
    rows_a, cols_a = np.array(rows), np.array(cols)
    weights = rng.uniform(*WEIGHT_RANGE, size=rows_a.size)
    return _write(path, n, rows_a, cols_a, _scaled(weights, rows_a, n, max_degree, False, cols_a),
                  False)


def five_node_fixture(path: Path) -> Graph:
    """The repository's five-node benchmark graph, copied into the input directory."""
    data = json.loads(FIVE_NODE_FIXTURE.read_text())
    rows = np.array([k - 1 for k, _, _ in data["edges"]])
    cols = np.array([j - 1 for _, j, _ in data["edges"]])
    weights = np.array([float(w) for _, _, w in data["edges"]])
    return _write(path, data["n"], rows, cols, weights, data["undirected"])


def _params(rng: np.random.Generator) -> tuple[float, list[str]]:
    sigma = float(rng.uniform(0.5, 2.0))
    beta = float(rng.uniform(-1.0, 1.0))
    return sigma, ["--sigma", repr(sigma), "--beta", repr(beta)]


def _graph_request(command: str, g: Graph, rng: np.random.Generator, *extra: str) -> Request:
    sigma, params = _params(rng)
    sub = "analyze" if command == "curves" else command
    return Request(command=command, argv=(sub, str(g.path), *params, *extra),
                   shape=g.shape(), sigma=sigma, graph=g)


def _family_request(spec: str, rng: np.random.Generator) -> Request:
    from ddmnet.families import make_family, parse_family_spec

    sigma, params = _params(rng)
    g = make_family(parse_family_spec(spec))
    arcs = np.array([(k - 1, j - 1, w) for k, j, w in g.edges])
    shape = Graph(path=Path(), n=g.n, rows=arcs[:, 0].astype(int), cols=arcs[:, 1].astype(int),
                  weights=arcs[:, 2], undirected=False).shape()
    return Request(command="family", argv=("family", spec, *params), shape=shape, sigma=sigma)


def _simulate_request(g: Graph, rng: np.random.Generator, t_end: int, trajectories: int) -> Request:
    """simulate at the acceptance step h = 1e-3, sampled at t = 1 and t = t_end."""
    req = _graph_request("simulate", g, rng, "--t-max", str(t_end), "--step", "1e-3",
                         "--sample-times", ",".join(sorted({"1", str(t_end)})),
                         "--trajectories", str(trajectories),
                         "--seed", str(int(rng.integers(0, 2**31))))
    return replace(req, sim_steps=trajectories * t_end * 1000)


def build_requests(workload: str, seed: int, out_dir: Path) -> list[Request]:
    """The workload's fixed request list for `seed`; graph files go to `out_dir`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "analyze-dense":
        # Per-edge Python work dominates (JSON parse, build_graph, mirror_graph,
        # is_undirected, heap Dijkstra, JSON echo of ~20k arcs); dense linear
        # algebra at n = 200 is a few percent of a request.
        requests = []
        for i in range(2):
            g = undirected_graph(rng, out_dir / f"dense{i}.json", 200, p=0.5)
            requests += [_graph_request("analyze", g, rng), _graph_request("centrality", g, rng)]
        return requests
    if workload == "crosscheck":
        # The fixed-step RK4 covariance integrator is most of the time: verify
        # and family evaluate it at points, curves along a time grid, so a
        # change that helps one use and hurts the other shows.
        big = nonnormal_digraph(rng, out_dir / "digraph100.json", 100, 6, 20.0)
        mid = nonnormal_digraph(rng, out_dir / "digraph60.json", 60, 5, 20.0)
        normal = undirected_graph(rng, out_dir / "undirected50.json", 50, p=0.2, max_degree=20.0)
        fixture = five_node_fixture(out_dir / "five_node.json")
        curve_args = ("--format", "curves", "--t-max", repr(CURVES_T_MAX),
                      "--t-step", repr(CURVES_T_STEP))
        return [
            _graph_request("verify", big, rng),
            _family_request("exploding_star:40:1", rng),
            _graph_request("curves", big, rng, *curve_args),
            _graph_request("verify", mid, rng),
            _family_request("imploding_star:40:1", rng),
            _graph_request("curves", mid, rng, *curve_args),
            _graph_request("verify", normal, rng),
            _family_request("complete:20:1", rng),
            _graph_request("verify", fixture, rng),
        ]
    if workload == "montecarlo":
        # Noise generation plus the Euler-Maruyama step loop is nearly all of
        # the time; the analysis layers barely run. --workers stays at the CLI
        # default, so a change of that default shows here.
        fixture = five_node_fixture(out_dir / "five_node.json")
        return [_simulate_request(fixture, rng, 5, 2048) for _ in range(2)]
    raise ValueError(f"unknown workload {workload!r}")


def tiny_requests(out_dir: Path) -> list[Request]:
    """One small request of every command: the warm-up before timing and the
    self-check's inputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    g = undirected_graph(rng, out_dir / "tiny_undirected.json", 8, p=0.5)
    d = nonnormal_digraph(rng, out_dir / "tiny_digraph.json", 6, 2, 4.0)
    fixture = five_node_fixture(out_dir / "five_node.json")
    return [
        _graph_request("analyze", g, rng),
        _graph_request("centrality", g, rng),
        _graph_request("verify", d, rng),
        _family_request("complete:4:1", rng),
        _graph_request("curves", d, rng, "--format", "curves", "--t-max", repr(CURVES_T_MAX),
                       "--t-step", repr(CURVES_T_STEP)),
        _simulate_request(fixture, rng, 1, 64),
    ]
