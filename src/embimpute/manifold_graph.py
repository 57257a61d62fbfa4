"""Connectivity-guaranteed nearest-neighbor graph over a distance matrix.

A minimum spanning tree (symmetrized into directed edge pairs) keeps the
graph connected; additional directed edges from nearest non-neighbors then
raise every vertex's in-degree to the configured minimum. Tie-breaking is
always by smaller vertex index so identical inputs yield identical graphs.

The tree comes from a dense Prim over the rows of ``D`` that compares
edges by the strict total order (weight, smaller index, larger index).
Under a strict total order the spanning tree is unique, so it is the tree
Kruskal's algorithm yields when it scans edges in that order. Inside the
package the tree passes as two endpoint arrays; only ``build_mst`` sorts
it and reads its weights into tuples. The augmentation takes each short
vertex's delta + 1 nearest columns by (distance, index) from one blocked
cut (``_nearest_columns``) over the 1 MiB row blocks of ``D`` that hold
such a vertex, on the distance stage's threads. The whole stage takes
O(n^2) time and allocates nothing n x n beyond ``D`` itself.
``build_graph`` validates ``D`` once; ``build_mst`` and
``augment_to_min_degree`` each validate their own input. The pipeline and
the CLI hand the output of ``euclidean_distance_matrix``, which is valid by
construction, to ``_build_unchecked``. ``delta`` is checked before Prim
runs, and the pipeline and the CLI check it before the distance stage.

The graph is stored in the CSR layout of ``WeightMatrix``: row i lists the
sources of the edges into vertex i, ascending. It holds only this
support, which is all the weight solver and the csgraph reachability
checks read; edge lengths stay in ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .domain_geometry import _BLOCK_BYTES, _nearest_columns, _run_blocks
from .errors import ValidationError, _check_integer

# side of the square tiles the symmetry check compares
_SYMMETRY_TILE = 256
# the minimum in-degree every entry point defaults to, the CLI's included
_DELTA = 8


def _validated_distances(D) -> np.ndarray:
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValidationError("distance matrix must be square")
    # reductions instead of elementwise masks: NaN and infinities reach
    # the extremes, and no n x n temporary is made
    lo, hi = np.min(D, initial=0.0), np.max(D, initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError("distance matrix contains non-finite values")
    if lo < 0:
        raise ValidationError("distance matrix contains negative values")
    if np.diagonal(D).any():
        raise ValidationError("distance matrix must have a zero diagonal")
    # tile by tile, so the transpose is read in cache-sized blocks
    n, b = D.shape[0], _SYMMETRY_TILE
    for i in range(0, n, b):
        for j in range(i, n, b):
            if not np.array_equal(D[i : i + b, j : j + b], D[j : j + b, i : i + b].T):
                raise ValidationError("distance matrix must be symmetric")
    return D


@dataclass(frozen=True)
class NeighborGraph:
    """Directed graph in CSR layout, like ``WeightMatrix``.

    ``indices[indptr[i]:indptr[i + 1]]`` are the sources of the edges into
    vertex i, strictly ascending. The arrays are stored as int64; a
    malformed layout raises ``ValidationError``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        n = self.n
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        if (
            indices.ndim != 1
            or indptr.shape != (n + 1,)
            or indptr[0] != 0
            or indptr[-1] != indices.size
            or (np.diff(indptr) < 0).any()
        ):
            raise ValidationError(
                f"graph indptr must have {n + 1} entries rising from 0 "
                f"to the number of sources, {indices.size}"
            )
        owner = np.repeat(np.arange(n), np.diff(indptr))
        if ((indices < 0) | (indices >= n) | (indices == owner)).any():
            raise ValidationError(f"graph sources must lie in [0, {n}) and differ from their row")
        if ((np.diff(indices) <= 0) & (owner[1:] == owner[:-1])).any():
            raise ValidationError("graph sources must be strictly ascending within each row")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_count(self) -> int:
        return self.indices.size


def _mst(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (src, dst) of the n - 1 tree edges, in the order they join."""
    n = D.shape[0]
    if n < 2:
        raise ValidationError("spanning tree needs at least 2 vertices")
    # best_w[v] / best_u[v]: least edge from the tree to v under the order;
    # tree vertices hold NaN, which fails every comparison and which fmin
    # skips, so they are never picked or updated again
    best_w = D[0].copy()
    best_w[0] = np.nan
    best_u = np.zeros(n, dtype=np.int64)
    src = np.empty(n - 1, dtype=np.int64)
    dst = np.empty(n - 1, dtype=np.int64)
    for step in range(n - 1):
        cand = (best_w == np.fmin.reduce(best_w)).nonzero()[0]
        if cand.size > 1:
            lo = np.minimum(best_u[cand], cand)
            hi = np.maximum(best_u[cand], cand)
            cand = cand[np.lexsort((hi, lo))]
        v = cand[0]
        src[step], dst[step] = best_u[v], v
        best_w[v] = np.nan

        row = D[v]
        take = row < best_w
        # an equal weight replaces the stored edge only if (v, t) is smaller
        tie = (row == best_w).nonzero()[0]
        if tie.size:
            lo_old = np.minimum(best_u[tie], tie)
            hi_old = np.maximum(best_u[tie], tie)
            lo_new = np.minimum(v, tie)
            hi_new = np.maximum(v, tie)
            take[tie] = (lo_new < lo_old) | ((lo_new == lo_old) & (hi_new < hi_old))
        np.copyto(best_w, row, where=take)
        best_u[take] = v
    return src, dst


def build_mst(D) -> list[tuple[int, int, float]]:
    """Minimum spanning tree of the complete graph implied by ``D``.

    Dense Prim in O(n^2) time: edges compare by the strict total order
    (weight, smaller index, larger index), both when the next vertex is
    picked and when an equal weight would replace a stored edge, so the
    tree is the unique minimum under that order. Returns n-1 undirected
    edges as (u, v, weight) tuples with u < v, sorted by the same order;
    the graph constructor materializes each as two directed edges.
    """
    D = _validated_distances(D)
    src, dst = _mst(D)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    w = D[lo, hi]
    order = np.lexsort((hi, lo, w))
    return list(zip(lo[order].tolist(), hi[order].tolist(), w[order].tolist()))


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The entries of a sorted array that differ from their predecessor:
    ``np.unique`` by one comparison, where numpy's hash-based path for
    integers is many times slower than a sort."""
    keep = np.ones(ascending.size, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=keep[1:])
    return ascending[keep]


def _augment(u: np.ndarray, v: np.ndarray, D: np.ndarray, delta: int) -> NeighborGraph:
    # u[e] and v[e] are the endpoints of tree edge e, in [0, n); delta is
    # an int in [1, n - 1]
    n = D.shape[0]

    # an edge dst <- src is the key dst * n + src, so sorted keys are the
    # CSR order
    tree = _distinct(np.sort(np.concatenate([u * n + v, v * n + u])))
    need = delta - np.bincount(tree // n, minlength=n)
    short = np.flatnonzero(need > 0)

    # at most 1 + (tree degree) of the delta + 1 nearest columns are i or a
    # tree neighbor, so they still hold the need sources; the cut keeps
    # equal distances in ascending column order. It runs over row blocks
    # of D that hold a short row, so delta = 1 costs no pass.
    nearest = np.empty((n, delta + 1), dtype=np.int64)
    rows = max(1, _BLOCK_BYTES // (8 * n))

    def cut(lo, buf):
        nearest[lo : lo + rows] = _nearest_columns(D[lo : lo + rows], delta + 1, buf)

    _run_blocks(cut, (_distinct(short // rows) * rows).tolist(), rows * n)
    nearest = nearest[short]
    added = short[:, None] * n + nearest
    # added keys are distinct (distinct columns of distinct rows), and
    # the fresh ones are disjoint from the tree
    fresh = (nearest != short[:, None]) & ~np.isin(added, tree, assume_unique=True)
    added = added[fresh & (np.cumsum(fresh, axis=1) <= need[short, None])]

    dst, src = np.divmod(np.sort(np.concatenate([tree, added])), n)
    indptr = np.searchsorted(dst, np.arange(n + 1))
    return NeighborGraph(n, indptr, src)


def augment_to_min_degree(mst_edges, D, delta: int) -> NeighborGraph:
    """Raise every in-degree to ``delta`` by adding directed edges.

    The spanning tree edges are symmetrized first. Each vertex below the
    minimum then repeatedly gains an in-edge from its nearest vertex that
    has no edge into it yet (self excluded); these extra edges stay
    one-directional. Vertices already at ``delta`` or above are untouched.
    """
    D = _validated_distances(D)
    n = D.shape[0]
    delta = _check_integer(delta, "minimum degree", 1, n - 1)
    ends = np.array([e[:2] for e in mst_edges], dtype=np.int64).reshape(-1, 2)
    if ((ends < 0) | (ends >= n)).any():
        raise ValidationError(f"tree edge endpoints must lie in [0, {n})")
    return _augment(ends[:, 0], ends[:, 1], D, delta)


def _build_unchecked(D: np.ndarray, delta: int) -> NeighborGraph:
    # D must be square, finite, non-negative, symmetric and zero on the
    # diagonal: checked by build_graph, or true by construction
    delta = _check_integer(delta, "minimum degree", 1, D.shape[0] - 1)
    return _augment(*_mst(D), D, delta)


def build_graph(D, delta: int = _DELTA) -> NeighborGraph:
    """Spanning-tree construction followed by minimum-degree augmentation.

    ``D`` is validated once, then shared by both steps.
    """
    return _build_unchecked(_validated_distances(D), delta)


def in_neighbors(graph: NeighborGraph, i: int) -> np.ndarray:
    """Sorted source vertices of edges into vertex ``i``."""
    i = _check_integer(i, "vertex index", 0, graph.n - 1)
    return graph.indices[graph.indptr[i] : graph.indptr[i + 1]]


def reached_from_anchors(sources: sparse.csr_matrix, n_known: int) -> bool:
    """True iff every row past ``n_known`` is reached from rows below it.

    Row i of ``sources`` stores the sources of i, so a stored entry (i, j)
    lets information flow from j to i; stored zeros count as edges.
    """
    hops = csgraph.dijkstra(
        sources.T, indices=np.arange(n_known), min_only=True, unweighted=True
    )
    return bool(np.isfinite(hops[n_known:]).all())


def _adjacency(graph: NeighborGraph) -> sparse.csr_matrix:
    """CSR matrix whose row i holds the in-neighbors of vertex i."""
    return sparse.csr_matrix(
        (np.ones(graph.indices.size), graph.indices, graph.indptr),
        shape=(graph.n, graph.n),
    )


def is_connected(graph: NeighborGraph) -> bool:
    """Whether the mutual (bidirectional) edges span all vertices."""
    adjacency = _adjacency(graph)
    mutual = adjacency.minimum(adjacency.T)
    components, _ = csgraph.connected_components(mutual, connection="weak")
    return components == 1


def graph_stats(graph: NeighborGraph) -> dict:
    """Summary counters used by the command-line ``graph-stats`` output."""
    degrees = graph.in_degrees()
    return {
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "min_in_degree": int(degrees.min()),
        "max_in_degree": int(degrees.max()),
        "connected": is_connected(graph),
    }
