"""One request: a graph, its parameters, and each stage a command
or the verify suite reads from them, built on first use and at most once.

A graph whose Laplacian is exactly symmetric is its own mirror: every
mirror weight (w_kj + w_jk) / 2 is then (w + w) / 2, or w/2 + w/2 where
w + w overflows, and doubling and halving a float are exact, so
mirror_graph(g) == g bit for bit. The request then uses g and its Laplacian
for the mirror and builds neither again; the Laplacian is read-only, since
both stages share it. The profile's strong-connectivity verdict is then the
mirror's too, so the solve basis does not search the same arcs again.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .centrality import InformationMatrix, certainty_via_centrality, information_matrix, information_scores
from .certainty import (
    CertaintyReport,
    ModelParams,
    SpectralData,
    _eigensystem,
    certainty_group_inverse,
    certainty_spectral,
    spectral_decompose,
)
from .graph import GraphProfile, WeightedDigraph, _classify, laplacian, mirror_graph


class Request:
    """The stages of one analysis of `g`, each a cached property."""

    def __init__(self, g: WeightedDigraph, params: ModelParams = ModelParams()) -> None:
        self.g, self.params = g, params

    @cached_property
    def lap(self) -> np.ndarray:
        lap = laplacian(self.g)
        lap.flags.writeable = False  # shared with lap_mirror where g is its own mirror
        return lap

    @cached_property
    def profile(self) -> GraphProfile:
        return _classify(self.g, self.lap)

    @cached_property
    def mirror(self) -> WeightedDigraph:
        """g itself where its Laplacian is exactly symmetric (no tolerance), else mirror_graph(g)."""
        return self.g if np.array_equal(self.lap, self.lap.T) else mirror_graph(self.g)

    @cached_property
    def lap_mirror(self) -> np.ndarray:
        return self.lap if self.mirror is self.g else laplacian(self.mirror)

    @cached_property
    def spectral(self) -> SpectralData:
        """spectral_decompose(lap), whose premises the profile decides by the same criteria."""
        if not (self.profile.normal_laplacian and self.profile.strongly_connected):
            return spectral_decompose(self.lap)  # raises the premise that fails
        return _eigensystem(self.lap)

    @cached_property
    def info(self) -> InformationMatrix:
        """The mirror's solve basis; DisconnectedGraphError on a disconnected mirror.
        Where g is its own mirror, the profile has searched the same arcs already."""
        connected = self.profile.strongly_connected if self.mirror is self.g else None
        return information_matrix(self.lap_mirror, connected)

    @cached_property
    def harmonic(self) -> tuple[float, ...]:
        """Harmonic information centrality of the mirror."""
        return information_scores(self.info)[0]

    @cached_property
    def routes(self) -> tuple[CertaintyReport, CertaintyReport, CertaintyReport] | None:
        """The spectral, group-inverse and info-centrality reports, or None where L is
        not normal or g not strongly connected. The routes share these inputs only.
        The solve basis is built first, so that a weight range beyond double
        precision is named before the spectrum overflows."""
        if not (self.profile.normal_laplacian and self.profile.strongly_connected):
            return None
        info, params = self.info, self.params
        return (certainty_spectral(self.spectral, params), certainty_group_inverse(info.x, params),
                certainty_via_centrality(self.harmonic, info.kirchhoff_index, params, self.g.n))
