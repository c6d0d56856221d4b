"""siglap: definiteness analysis of weighted graph Laplacians with negative
edge weights, and the clustering consensus dynamics they induce."""

from .consensus import (
    ClusterAssignment,
    ClusterPrediction,
    Trajectory,
    detect_clusters,
    predict_clusters,
    simulate,
)
from .definiteness import (
    Classification,
    Corollary6Result,
    DefinitenessVerdict,
    EdgeThreshold,
    corollary6_check,
    multi_edge_verdict,
    single_edge_verdict,
)
from .errors import (
    CrossCheckError,
    DisconnectedError,
    FactorNotPDError,
    GraphParseError,
    HypothesisViolatedError,
    InvalidParameterError,
    InvalidToleranceError,
    NodeOutOfRangeError,
    NodesDisconnectedError,
    NonFiniteWeightError,
    NotSymmetricError,
    SelfLoopError,
    SiglapError,
    SingularCutGramError,
    UnboundedError,
    ZeroWeightError,
)
from .graph_core import (
    ForestDecomposition,
    SignedGraph,
    build_graph,
    components_after_edge_removal,
    component_labels,
    decompose,
    decompose_with_forest,
    incidence_matrix,
    path_edge_sets,
)
from .graphfile import format_graph, parse_graph, read_graph_file, write_graph_file
from .laplacians import (
    EdgeLaplacian,
    LaplacianBundle,
    build_bundle,
    laplacian_matrix,
    laplacian_pseudo_inverse,
    weighted_edge_laplacian,
)
from .resistance import (
    ResistanceReport,
    effective_resistance,
    negative_edge_report,
    parallel_combination,
    resistance_matrix_for_negatives,
    total_resistance,
)
from .spectra import (
    Signature,
    default_zero_tolerance,
    pseudo_inverse_eig,
    signature,
    signature_of_similar_nonsymmetric,
)

__version__ = "0.1.0"
