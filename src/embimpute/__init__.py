"""Recover missing embedding vectors from a domain affinity matrix.

Entities with known vectors act as anchors on a connectivity-guaranteed
neighbor graph; a row-stochastic diffusion then fills in the unknown block
with a result that does not depend on initialization.
"""

from .errors import ConvergenceError, ValidationError
from .domain_geometry import (
    DomainMatrix,
    correlation_domain_matrix,
    euclidean_distance_matrix,
)
from .manifold_graph import (
    NeighborGraph,
    augment_to_min_degree,
    build_graph,
    build_mst,
    graph_stats,
    is_connected,
)
from .weight_solver import (
    WeightMatrix,
    assemble_weight_matrix,
    solve_row_weights,
    write_coordinate_text,
)
from .imputation_engine import (
    ImputationConfig,
    ImputationResult,
    SpectralReport,
    closed_form_solve,
    fix_known_block,
    power_iterate,
    spectral_diagnostics,
)
from .embedding_io import (
    AlignedProblem,
    EmbeddingTable,
    align,
    load_domain_csv,
    load_embeddings,
    load_labels_csv,
    load_returns_csv,
    merge_imputed,
    save_embeddings,
)
from .evaluation import (
    LabeledEmbeddings,
    SyntheticTransferSpec,
    TransferReport,
    knn_accuracy,
    make_transfer_data,
    run_synthetic_transfer,
    sensitivity_sweep,
)
from .pipeline import PipelineRun, impute_aligned, impute_embeddings

__version__ = "0.1.0"

__all__ = [
    "AlignedProblem",
    "ConvergenceError",
    "DomainMatrix",
    "EmbeddingTable",
    "ImputationConfig",
    "ImputationResult",
    "LabeledEmbeddings",
    "NeighborGraph",
    "PipelineRun",
    "SpectralReport",
    "SyntheticTransferSpec",
    "TransferReport",
    "ValidationError",
    "WeightMatrix",
    "align",
    "assemble_weight_matrix",
    "augment_to_min_degree",
    "build_graph",
    "build_mst",
    "closed_form_solve",
    "correlation_domain_matrix",
    "euclidean_distance_matrix",
    "fix_known_block",
    "graph_stats",
    "impute_aligned",
    "impute_embeddings",
    "is_connected",
    "knn_accuracy",
    "load_domain_csv",
    "load_embeddings",
    "load_labels_csv",
    "load_returns_csv",
    "make_transfer_data",
    "merge_imputed",
    "power_iterate",
    "run_synthetic_transfer",
    "save_embeddings",
    "sensitivity_sweep",
    "solve_row_weights",
    "spectral_diagnostics",
    "write_coordinate_text",
]
