"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own computation paths:
covariance by adaptive quadrature of the matrix-exponential integral,
effective resistance by a grounded linear solve, moments by brute force.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from ddmnet import (
    WeightedDigraph,
    build_graph,
    five_node_benchmark,
    information_centrality,
    information_matrix,
    laplacian,
)

# --- acceptance summary -------------------------------------------------

ACCEPTANCE_RESULTS: list[tuple[str, str, float, str]] = []


def record_acceptance(name: str, passed: bool, seconds: float, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, "PASS" if passed else "FAIL", seconds, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status, seconds, detail in ACCEPTANCE_RESULTS:
        line = f"{status}  {name} ({seconds:.2f} s)"
        if detail:
            line += f" - {detail}"
        terminalreporter.write_line(line)


# --- fixtures -------------------------------------------------------------


@pytest.fixture(scope="session")
def benchmark_graph() -> WeightedDigraph:
    return five_node_benchmark()


@pytest.fixture
def expm_calls(monkeypatch) -> list:
    """Count scipy.linalg.expm calls made through ddmnet's scipy accessor; one entry per call."""
    from ddmnet.lazyscipy import scipy_linalg

    linalg = scipy_linalg()
    calls = []
    real = linalg.expm

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "expm", counting)
    return calls


@pytest.fixture
def closeness_calls(monkeypatch) -> list:
    """Count geodesic_closeness calls made through ddmnet.centrality; one graph order per call."""
    import ddmnet.centrality

    calls = []
    real = ddmnet.centrality.geodesic_closeness

    def counting(g, *args, **kwargs):
        calls.append(g.n)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(ddmnet.centrality, "geodesic_closeness", counting)
    return calls


def centrality_report(g: WeightedDigraph, variant: str = "harmonic"):
    """information_centrality of g on the solve basis of g's own Laplacian."""
    return information_centrality(g, information_matrix(laplacian(g)), variant)


# --- independent oracles ---------------------------------------------------


def covariance_by_quadrature(lap: np.ndarray, sigma: float, t: float) -> np.ndarray:
    """sigma^2 * integral_0^t expm(-L s) expm(-L s)^T ds by adaptive quadrature."""
    if t == 0.0:
        return np.zeros_like(lap)

    def integrand(s: float) -> np.ndarray:
        e = expm(-lap * s)
        return e @ e.T

    val, _ = quad_vec(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12)
    return sigma**2 * val


def effective_resistance_by_solve(lap_mirror: np.ndarray, a: int, b: int) -> float:
    """Resistance between nodes a, b (0-based) by grounding b and solving the
    reduced system; independent of eigendecompositions and pseudoinverses."""
    n = lap_mirror.shape[0]
    keep = [i for i in range(n) if i != b]
    reduced = lap_mirror[np.ix_(keep, keep)]
    rhs = np.zeros(n - 1)
    rhs[keep.index(a)] = 1.0
    potential = np.linalg.solve(reduced, rhs)
    return float(potential[keep.index(a)])


def random_connected_graph(rng: np.random.Generator, n: int, p: float = 0.5,
                           w_lo: float = 0.5, w_hi: float = 2.0) -> WeightedDigraph:
    """Random undirected connected weighted graph (a spanning tree plus extras)."""
    edges: dict[tuple[int, int], float] = {}
    for b in range(2, n + 1):
        a = int(rng.integers(1, b))
        edges[(a, b)] = float(rng.uniform(w_lo, w_hi))
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if (a, b) not in edges and rng.random() < p:
                edges[(a, b)] = float(rng.uniform(w_lo, w_hi))
    both = [(a, b, w) for (a, b), w in edges.items()]
    both += [(b, a, w) for (a, b), w in edges.items()]
    return build_graph(n, both)


def random_tree(rng: np.random.Generator, n: int,
                w_lo: float = 0.5, w_hi: float = 2.0) -> WeightedDigraph:
    """Random undirected weighted tree on n nodes."""
    edges = []
    for b in range(2, n + 1):
        a = int(rng.integers(1, b))
        w = float(rng.uniform(w_lo, w_hi))
        edges.append((a, b, w))
        edges.append((b, a, w))
    return build_graph(n, edges)
