"""Canonical graph families and their closed-form certainty and covariance.

The closed forms are a deliberately independent code path (explicit block,
tridiagonal and discrete-Fourier expressions, no shared helpers with the
generic eigensolver route) so they can cross-validate the generic machinery
and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certainty import ModelParams
from .errors import GraphValidationError
from .graph import WeightedDigraph, _check_node_count, build_graph

KINDS = (
    "complete",
    "undirected_ring",
    "directed_ring",
    "circulant",
    "undirected_star",
    "undirected_path",
    "exploding_star",
    "imploding_star",
)

# families whose Laplacian is normal and strongly connected for n >= 2
_NORMAL_KINDS = ("complete", "undirected_ring", "directed_ring", "circulant",
                 "undirected_star", "undirected_path")


@dataclass(frozen=True)
class FamilySpec:
    """A canonical family instance: kind, order n, uniform weight alpha.

    `offsets` applies to circulant graphs only: node k observes node
    k + o (mod n) for each offset o.
    """

    kind: str
    n: int
    alpha: float = 1.0
    offsets: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise GraphValidationError(f"unknown family kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.n, int) or self.n < 1:
            raise GraphValidationError(f"family order must be a positive integer, got {self.n!r}")
        _check_node_count(self.n)  # before make_family builds the edge list
        if self.kind in ("undirected_ring", "directed_ring") and self.n < 3:
            raise GraphValidationError(f"rings need n >= 3, got n={self.n}")
        if not self.alpha > 0:
            raise GraphValidationError(f"alpha must be > 0, got {self.alpha}")
        if self.kind == "circulant":
            if not self.offsets:
                raise GraphValidationError("circulant family needs at least one offset")
            reduced = [o % self.n for o in self.offsets]
            if any(r == 0 for r in reduced):
                raise GraphValidationError("circulant offsets must be nonzero mod n")
            if len(set(reduced)) != len(reduced):
                raise GraphValidationError("circulant offsets must be distinct mod n")
        elif self.offsets:
            raise GraphValidationError(f"offsets apply only to circulant graphs, not {self.kind!r}")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the CLI form 'kind:n:alpha', e.g. 'complete:9:1' or 'circulant(1,3):8:1.5'."""
    parts = text.split(":")
    if len(parts) != 3:
        raise GraphValidationError(f"family spec {text!r} is not of the form kind:n:alpha")
    kind_part, n_part, alpha_part = parts
    offsets: tuple[int, ...] = ()
    kind = kind_part
    if "(" in kind_part:
        if not kind_part.endswith(")"):
            raise GraphValidationError(f"unbalanced parentheses in family kind {kind_part!r}")
        kind, inner = kind_part[:-1].split("(", 1)
        try:
            offsets = tuple(int(tok) for tok in inner.split(",") if tok.strip())
        except ValueError as exc:
            raise GraphValidationError(f"bad circulant offsets in {kind_part!r}") from exc
    try:
        n = int(n_part)
        alpha = float(alpha_part)
    except ValueError as exc:
        raise GraphValidationError(f"family spec {text!r}: n must be int, alpha a number") from exc
    return FamilySpec(kind=kind, n=n, alpha=alpha, offsets=offsets)


def _circulant_offsets(spec: FamilySpec) -> tuple[int, ...]:
    if spec.kind == "complete":
        return tuple(range(1, spec.n))
    if spec.kind == "undirected_ring":
        return (1, spec.n - 1)
    if spec.kind == "directed_ring":
        return (1,)
    return tuple(o % spec.n for o in spec.offsets)


def make_family(spec: FamilySpec) -> WeightedDigraph:
    """Instantiate the family as an ordinary weighted digraph."""
    n, a = spec.n, spec.alpha
    edges: list[tuple[int, int, float]] = []
    if n == 1:
        return build_graph(1, [])
    if spec.kind in ("complete", "undirected_ring", "directed_ring", "circulant"):
        for k in range(n):
            for o in _circulant_offsets(spec):
                edges.append((k + 1, (k + o) % n + 1, a))
    elif spec.kind == "undirected_star":
        for leaf in range(2, n + 1):
            edges.append((1, leaf, a))
            edges.append((leaf, 1, a))
    elif spec.kind == "undirected_path":
        for k in range(1, n):
            edges.append((k, k + 1, a))
            edges.append((k + 1, k, a))
    elif spec.kind == "exploding_star":
        # the center observes every leaf; evidence flows leaves -> center
        for leaf in range(2, n + 1):
            edges.append((1, leaf, a))
    elif spec.kind == "imploding_star":
        # every leaf observes the center; evidence flows center -> leaves
        for leaf in range(2, n + 1):
            edges.append((leaf, 1, a))
    return build_graph(n, edges)


@dataclass(frozen=True)
class ClosedFormResult:
    """Closed-form per-node certainty, or the reason it is undefined."""

    spec: FamilySpec
    sigma: float
    normal: bool
    strongly_connected: bool
    mu: tuple[float, ...] | None
    inv_mu: tuple[float, ...] | None
    reason: str | None = None


def _circulant_rates(spec: FamilySpec) -> np.ndarray:
    """Real parts Re lambda_m = sum_q r_q cos(2 pi q m / n) of a circulant
    Laplacian's eigenvalues, from the discrete Fourier transform of its real
    first row r; index m = 0 is the zero eigenvalue."""
    n, a = spec.n, spec.alpha
    offsets = _circulant_offsets(spec)
    first_row = np.zeros(n)
    first_row[0] = a * len(offsets)
    for o in offsets:
        first_row[o] -= a
    m = np.arange(n)
    return first_row @ np.cos(2.0 * np.pi * np.outer(m, m) / n)


def closed_form_mu(spec: FamilySpec, sigma: float = 1.0) -> ClosedFormResult:
    """Exact per-node certainty for families with a normal Laplacian.

    Exploding and imploding stars are flagged "not defined": their variance
    gap over sigma^2 t / n diverges, so no finite certainty index exists.
    """
    n, a = spec.n, spec.alpha
    if spec.kind not in _NORMAL_KINDS:
        return ClosedFormResult(
            spec=spec, sigma=sigma, normal=False, strongly_connected=False,
            mu=None, inv_mu=None,
            reason=f"{spec.kind} has a non-normal Laplacian and is not strongly connected; "
                   "the certainty index is not defined",
        )
    if n == 1:
        return ClosedFormResult(spec=spec, sigma=sigma, normal=True, strongly_connected=True,
                                mu=(math.inf,), inv_mu=(0.0,))
    if spec.kind == "complete":
        inv = sigma**2 * (n - 1) / (2.0 * a * n**2)
        inv_mu = np.full(n, inv)
    elif spec.kind in ("undirected_ring", "directed_ring", "circulant"):
        re = _circulant_rates(spec)
        inv = sigma**2 / n * float((1.0 / (2.0 * re[1:])).sum())
        inv_mu = np.full(n, inv)
    elif spec.kind == "undirected_star":
        center = sigma**2 * (n - 1) / (2.0 * a * n**2)
        leaf = sigma**2 * (n**3 - 2 * n**2 + 1) / (2.0 * a * (n - 1) * n**2)
        inv_mu = np.full(n, leaf)
        inv_mu[0] = center
    else:  # undirected_path
        k = np.arange(1, n + 1)
        inv_mu = np.zeros(n)
        for p in range(2, n + 1):
            theta = np.pi * (p - 1) / n
            inv_mu += np.cos(theta * (k - 0.5)) ** 2 / (1.0 - np.cos(theta))
        inv_mu *= sigma**2 / (2.0 * a * n)
    inv = tuple(float(v) for v in inv_mu)
    mu = tuple(math.inf if v == 0.0 else 1.0 / v for v in inv)
    return ClosedFormResult(spec=spec, sigma=sigma, normal=True, strongly_connected=True,
                            mu=mu, inv_mu=inv)


def closed_form_covariance(spec: FamilySpec, params: ModelParams, t: float) -> np.ndarray:
    """Exact covariance matrix at time t for every family, any finite t >= 0."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    n, a, s2 = spec.n, spec.alpha, params.sigma**2
    if n == 1:
        return np.array([[s2 * t]])
    if spec.kind == "complete":
        decay = -math.expm1(-2.0 * n * a * t)
        return s2 * (decay / (2 * n * a) * np.eye(n)
                     + (t / n - decay / (2 * n**2 * a)) * np.ones((n, n)))
    if spec.kind in ("undirected_ring", "directed_ring", "circulant"):
        # the real part of the Fourier modes' sum: entry (k, j) is
        # (t + sum_{m >= 1} g_m cos(2 pi m (k - j) / n)) / n
        re = _circulant_rates(spec)[1:]
        gain = -np.expm1(-2.0 * re * t) / (2.0 * re)
        lag = np.arange(n)
        column = (t + np.cos(2.0 * np.pi * np.outer(lag, np.arange(1, n)) / n) @ gain) / n
        return s2 * column[np.abs(np.subtract.outer(lag, lag))]
    if spec.kind == "undirected_star":
        d_fast = -math.expm1(-2.0 * n * a * t)
        d_slow = -math.expm1(-2.0 * a * t)
        c1 = t / n + (n - 1) * d_fast / (2 * a * n**2)
        c2 = t / n - d_fast / (2 * n**2 * a)
        c3 = d_slow / (2 * a)
        c4 = t / n - d_slow / (2 * (n - 1) * a) + d_fast / (2 * n**2 * (n - 1) * a)
        cov = np.empty((n, n))
        cov[0, 0] = c1
        cov[0, 1:] = c2
        cov[1:, 0] = c2
        cov[1:, 1:] = c3 * np.eye(n - 1) + c4
        return s2 * cov
    if spec.kind == "undirected_path":
        k = np.arange(1, n + 1)
        cov = np.full((n, n), t / n)
        for p in range(2, n + 1):
            theta = np.pi * (p - 1) / n
            lam = 2.0 * a * (1.0 - math.cos(theta))
            mode = math.sqrt(2.0 / n) * np.cos(theta * (k - 0.5))
            cov += -math.expm1(-2.0 * lam * t) / (2.0 * lam) * np.outer(mode, mode)
        return s2 * cov
    if spec.kind == "exploding_star":
        b = (n - 1) * a
        # expm1 keeps the O(bt) terms exact where the constants cancel (bt << 1)
        c1 = (b * t + 2.0 * math.expm1(-b * t) - n * math.expm1(-2.0 * b * t) / 2.0) / (b * (n - 1))
        c2 = (b * t + math.expm1(-b * t)) / (b * (n - 1))
        cov = np.zeros((n, n))
        cov[0, 0] = c1
        cov[0, 1:] = c2
        cov[1:, 0] = c2
        cov[1:, 1:] = t * np.eye(n - 1)
        return s2 * cov
    # imploding_star
    c1 = t + math.expm1(-a * t) / a
    c2 = t + 2.0 * math.expm1(-a * t) / a - math.expm1(-2.0 * a * t) / (2 * a)
    c3 = -math.expm1(-2.0 * a * t) / (2 * a)
    cov = np.empty((n, n))
    cov[0, 0] = t
    cov[0, 1:] = c1
    cov[1:, 0] = c1
    cov[1:, 1:] = c2 + c3 * np.eye(n - 1)
    return s2 * cov

