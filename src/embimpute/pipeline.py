"""End-to-end imputation shared by the library API and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .domain_geometry import DomainMatrix, euclidean_distance_matrix
from .embedding_io import AlignedProblem, EmbeddingTable, align, merge_imputed
from .imputation_engine import ImputationConfig, ImputationResult, fix_known_block, power_iterate
from .manifold_graph import NeighborGraph, build_graph
from .weight_solver import WeightMatrix, assemble_weight_matrix

_STAGES = ("align", "distance", "graph", "weights", "iterate", "merge")


@dataclass
class PipelineRun:
    problem: AlignedProblem
    result: ImputationResult
    table: EmbeddingTable
    graph: NeighborGraph | None
    weights: WeightMatrix | None
    timings: dict[str, float]


def impute_aligned(
    domain: DomainMatrix,
    known: np.ndarray,
    delta: int = 8,
    config: ImputationConfig | None = None,
) -> tuple[NeighborGraph, WeightMatrix, ImputationResult, dict[str, float]]:
    """Impute the rows of ``domain`` past the ``len(known)`` known ones.

    The first rows of ``domain`` must be the entities whose vectors are
    ``known``, in the same order. Builds the minimum-degree neighbor graph
    over affinity distances, solves the reconstruction weights, freezes the
    known block, and diffuses. Returns the graph, the weights, the result
    and the ``distance``, ``graph``, ``weights`` and ``iterate`` timings.
    """
    timings = {}

    start = time.perf_counter()
    distances = euclidean_distance_matrix(domain)
    timings["distance"] = time.perf_counter() - start

    start = time.perf_counter()
    graph = build_graph(distances, delta)
    timings["graph"] = time.perf_counter() - start

    start = time.perf_counter()
    weights = assemble_weight_matrix(graph, domain)
    timings["weights"] = time.perf_counter() - start

    start = time.perf_counter()
    fixed = fix_known_block(weights, len(known))
    result = power_iterate(fixed, known, config)
    timings["iterate"] = time.perf_counter() - start
    return graph, weights, result, timings


def impute_embeddings(
    domain: DomainMatrix,
    table: EmbeddingTable,
    delta: int = 8,
    config: ImputationConfig | None = None,
) -> PipelineRun:
    """Recover embedding vectors for domain entities missing from ``table``.

    Aligns entities (known first), runs ``impute_aligned`` and merges the
    imputed rows into a copy of the table. When every entity already has a
    vector the heavy stages are skipped and the table passes through
    unchanged.
    """
    timings = dict.fromkeys(_STAGES, 0.0)

    start = time.perf_counter()
    problem = align(domain, table)
    timings["align"] = time.perf_counter() - start

    graph = weights = None
    if problem.q == 0:
        result = ImputationResult(problem.known.copy(), 0, 0.0, True)
    else:
        graph, weights, result, stage_times = impute_aligned(
            problem.domain, problem.known, delta, config
        )
        timings.update(stage_times)

    start = time.perf_counter()
    merged = merge_imputed(table, problem, result)
    timings["merge"] = time.perf_counter() - start
    return PipelineRun(problem, result, merged, graph, weights, timings)
