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
    UnboundedError,
    ZeroWeightError,
)
from .graph_core import (
    SignedGraph,
    build_graph,
    component_labels,
    path_edge_sets,
)
from .graphfile import format_graph, parse_graph, read_graph_file, write_graph_file
from .laplacians import laplacian_matrix
from .resistance import (
    ResistanceReport,
    effective_resistance,
    negative_edge_report,
    resistance_matrix_for_negatives,
    total_resistance,
)
from .spectra import (
    Signature,
    default_zero_tolerance,
    pseudo_inverse_eig,
    signature,
)

__version__ = "0.1.0"
