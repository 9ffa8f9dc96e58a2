"""Per-layer spans recorded from outside the program.

`Tracer` wraps the public functions of each ddmnet module and rebinds every
name in every `ddmnet.*` namespace that refers to them, so a call between
modules (cli -> verify.run_checks) or inside one (covariance_curves ->
spectral_decompose) opens a child span of its caller. It also counts calls
into the dense factorizations of numpy.linalg and scipy.linalg. Nothing under
src/ is edited; `uninstall` puts every original name back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy.linalg
import scipy.linalg

LAYERS = {
    "graph": ("load_graph", "build_graph", "classify", "laplacian", "mirror_graph", "is_normal",
              "is_strongly_connected"),
    "certainty": ("spectral_decompose", "mirror_group_inverse", "certainty_spectral",
                  "certainty_group_inverse", "dispersion_summary", "covariance_curves",
                  "propagator", "analytic_covariance"),
    "centrality": ("information_centrality", "geodesic_closeness", "information_matrix",
                   "certainty_via_centrality", "enumerate_combined_paths",
                   "naive_combined_information"),
    "families": ("make_family", "closed_form_mu", "closed_form_covariance"),
    "simulate": ("simulate_ensemble", "empirical_moments", "validate_moments"),
    "verify": ("run_checks",),
    "cli": ("emit_report",),
}
LINALG = ("eigh", "eigvalsh", "eig", "inv", "solve", "pinv", "cholesky", "schur", "expm",
          "cho_factor", "lu_factor")
REQUEST_SPAN = "cli.request"


def span_names() -> list[str]:
    """Every span name a trace can hold; analytic_covariance is split by mode."""
    names = [REQUEST_SPAN]
    for layer, functions in LAYERS.items():
        for fn in functions:
            if fn == "analytic_covariance":
                names += [f"{layer}.{fn}.general", f"{layer}.{fn}.normal"]
            else:
                names.append(f"{layer}.{fn}")
    return names


def _covariance_mode(args: tuple, kwargs: dict) -> str:
    return kwargs.get("mode", args[3] if len(args) > 3 else "general")


class Tracer:
    """Spans kept in memory as [name, parent index, start, end, request id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.linalg_calls: Counter[str] = Counter()
        self.normals = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, request: int | None, fn, *args, **kwargs):
        """Run fn inside a span named `name`, child of the innermost open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if request is None:
            request = self.spans[parent][4]
        self.spans.append([name, parent, 0.0, 0.0, request])
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index][2:4] = [start, end]

    def _traced(self, layer: str, name: str, fn):
        if name == "analytic_covariance":
            def span_name(args, kwargs):
                return f"{layer}.{name}.{_covariance_mode(args, kwargs)}"
        else:
            def span_name(args, kwargs):
                return f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # called outside a request: not part of the trace
                return fn(*args, **kwargs)
            if name == "simulate_ensemble":
                g, cfg = args[0], args[1]
                self.normals += g.n * cfg.trajectories * cfg.total_steps
            return self.call(span_name(args, kwargs), None, fn, *args, **kwargs)
        return traced

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.linalg_calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _rebind(self, modules: list, original, wrapper) -> None:
        """Point every name in `modules` that refers to `original` at `wrapper`."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        self.absent = []
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "ddmnet" or name.startswith("ddmnet.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"ddmnet.{layer}"]
            for name in functions:
                original = getattr(home, name, None)
                if original is None:
                    self.absent.append(f"{layer}.{name}")
                    continue
                self._rebind(namespaces, original, self._traced(layer, name, original))
        # a module that imports a factorization by name is counted as well
        for lib in (numpy.linalg, scipy.linalg):
            for name in LINALG:
                original = getattr(lib, name, None)
                if original is not None:
                    self._rebind([lib, *namespaces], original, self._counted(name, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover.

        Calls are synchronous and single-threaded, so children are disjoint
        intervals inside their parent and the covered time is their sum.
        """
        covered = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        own = [end - start - covered[i] for i, (_, _, start, end, _) in enumerate(self.spans)]
        worst = min(own, default=0.0)
        if worst < -1e-9:
            raise AssertionError(f"child spans cover more than their parent by {-worst:.3g} s")
        return own

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Calls and self time per request for every span name, linalg call counts."""
        calls: Counter[str] = Counter()
        own: defaultdict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            own[span[0]] += self_s
        metrics: dict[str, tuple[float, str]] = {}
        for name in span_names():
            metrics[f"{name}.calls"] = (calls[name] / requests, "count")
            metrics[f"{name}.self_s"] = (own[name] / requests, "s")
        for name in LINALG:
            metrics[f"linalg.{name}.calls"] = (self.linalg_calls[name] / requests, "count")
        metrics["linalg.factorizations_per_request"] = (
            sum(self.linalg_calls.values()) / requests, "count")
        return metrics

    def span_seconds(self, name: str) -> float:
        return sum(end - start for n, _, start, end, _ in self.spans if n == name)

    def records(self) -> list[dict]:
        return [{"name": n, "parent": p, "start": s, "end": e, "request": r}
                for n, p, s, e, r in self.spans]
