"""Certainty analysis and Monte Carlo validation for networks of coupled
drift-diffusion evidence accumulators."""

__version__ = "0.1.0"

from .centrality import (
    CentralityReport,
    InformationMatrix,
    PathBundle,
    certainty_via_centrality,
    enumerate_combined_paths,
    geodesic_closeness,
    information_centrality,
    information_matrix,
    information_scores,
    naive_combined_information,
    rank_nodes,
)
from .certainty import (
    CertaintyReport,
    DispersionSummary,
    ModelParams,
    SpectralData,
    analytic_covariance,
    certainty_group_inverse,
    certainty_spectral,
    covariance_curves,
    dispersion_summary,
    spectral_covariance,
    spectral_decompose,
    variance_envelope,
)
from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DdmnetError,
    DisconnectedGraphError,
    GraphFormatError,
    GraphValidationError,
    NotNormalError,
    NotStronglyConnectedError,
    OverlapMatrixSingularError,
    PathCapExceededError,
    StepCapError,
    UnstableStepError,
)
from .families import (
    ClosedFormResult,
    FamilySpec,
    closed_form_covariance,
    closed_form_mu,
    make_family,
    parse_family_spec,
)
from .graph import (
    GraphProfile,
    WeightedDigraph,
    build_graph,
    classify,
    five_node_benchmark,
    graph_from_dict,
    graph_to_dict,
    laplacian,
    laplacian_row_residual,
    load_graph,
    mirror_graph,
    permute_graph,
)
from .request import Request
from .simulate import (
    Ensemble,
    MomentReport,
    MomentValidation,
    SimConfig,
    empirical_moments,
    simulate_ensemble,
    validate_moments,
)
from .verify import CheckResult, all_passed, run_checks

__all__ = [name for name in dir() if not name.startswith("_")]
