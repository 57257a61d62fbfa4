"""End-to-end imputation shared by the library API and the CLI.

Every domain reaches the graph through ``_neighbor_graph``, which first
multiplies its rows by the power of two that puts their largest |value|
in [1, 2) (``domain_geometry._unit_scaled``). The graph and the simplex
weights both read those rows: distances keep their ranks and the weights
are scale-free, so nothing is scaled back, and a domain multiplied by
2^k gives the same graph, weights and vectors, bit for bit, unless one
of its values is subnormal at either scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .domain_geometry import DomainMatrix, _key_rows, _unit_scaled
from .embedding_io import AlignedProblem, EmbeddingTable, align, merge_imputed
from .errors import _check_integer
from .imputation_engine import ImputationConfig, ImputationResult, _validated_known, power_iterate
from .manifold_graph import _DELTA, NeighborGraph, _cut, _graph
from .weight_solver import WeightMatrix, assemble_weight_matrix

_STAGES = ("align", "distance", "graph", "weights", "iterate", "merge")


@dataclass(frozen=True)
class PipelineRun:
    problem: AlignedProblem
    result: ImputationResult
    table: EmbeddingTable
    graph: NeighborGraph | None
    weights: WeightMatrix | None
    timings: dict[str, float]


def _timed(timings: dict[str, float], stage: str, fn, *args):
    """Call ``fn(*args)``, add its seconds to ``timings[stage]`` and return its value."""
    start = time.perf_counter()
    value = fn(*args)
    timings[stage] = timings.get(stage, 0.0) + (time.perf_counter() - start)
    return value


def _neighbor_graph(domain: DomainMatrix, delta: int, timings: dict[str, float]) -> tuple[NeighborGraph, DomainMatrix]:
    """Unit-scale the domain, then time the ``distance`` and ``graph``
    stages into ``timings``; ``delta`` is already checked against
    ``domain.n``. The ``distance`` stage makes the key rows a block at a
    time and cuts each row's nearest columns; the ``graph``
    stage builds the tree and the augmentation from that cut. Returns the
    graph and the unit-scaled domain, ``domain`` itself when its rows need
    no scaling."""
    data = _unit_scaled(domain.data)
    if data is not domain.data:
        domain = DomainMatrix(domain.entities, data)
    # valid by construction, so none of the public build_graph's checks
    keys = _key_rows(data)
    cut = _timed(timings, "distance", _cut, keys, delta)
    return _timed(timings, "graph", _graph, keys, cut, delta), domain


def impute_aligned(
    domain: DomainMatrix,
    known: np.ndarray,
    delta: int = _DELTA,
    config: ImputationConfig | None = None,
) -> tuple[NeighborGraph, WeightMatrix, ImputationResult, dict[str, float]]:
    """Impute the rows of ``domain`` past the ``len(known)`` known ones.

    The first rows of ``domain`` must be the entities whose vectors are
    ``known``, in the same order. Builds the minimum-degree neighbor graph
    over affinity distances, solves the reconstruction weights of the
    unknown rows, and diffuses from the frozen known vectors. Returns the
    graph, the frozen weights (the known rows are identity rows), the
    result and the ``distance``, ``graph``, ``weights`` and ``iterate``
    timings. ``delta`` and then ``known`` are checked before any stage.
    """
    timings = {}
    delta = _check_integer(delta, "minimum degree", 1, domain.n - 1)
    # power_iterate checks known again; checking here too reports a bad
    # known before the distance stage rather than after the weights
    known = _validated_known(known)
    _check_integer(len(known), "known-row count", 1, domain.n)
    graph, domain = _neighbor_graph(domain, delta, timings)
    # by their public names, so a tracer that wraps them sees the stages
    weights = _timed(timings, "weights", assemble_weight_matrix, graph, domain, len(known))
    result = _timed(timings, "iterate", power_iterate, weights, known, config)
    return graph, weights, result, timings


def impute_embeddings(
    domain: DomainMatrix,
    table: EmbeddingTable,
    delta: int = _DELTA,
    config: ImputationConfig | None = None,
) -> PipelineRun:
    """Recover embedding vectors for domain entities missing from ``table``.

    Aligns entities (known first), runs ``impute_aligned`` and merges the
    imputed rows into a copy of the table. When every entity already has a
    vector the heavy stages are skipped and the table passes through
    unchanged.
    """
    timings = dict.fromkeys(_STAGES, 0.0)
    problem = _timed(timings, "align", align, domain, table)
    graph = weights = None
    if problem.q == 0:
        result = ImputationResult(problem.known.copy(), True)
    else:
        graph, weights, result, stage_times = impute_aligned(
            problem.domain, problem.known, delta, config
        )
        timings.update(stage_times)
    merged = _timed(timings, "merge", merge_imputed, table, problem, result)
    return PipelineRun(problem, result, merged, graph, weights, timings)
