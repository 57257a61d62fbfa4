"""Connectivity-guaranteed nearest-neighbor graph over a distance matrix.

A minimum spanning tree (symmetrized into directed edge pairs) keeps the
graph connected; additional directed edges from nearest non-neighbors then
raise every vertex's in-degree to the configured minimum. Tie-breaking is
always by smaller vertex index so identical inputs yield identical graphs.

The tree comes from a dense Prim over the rows of ``D`` that compares
edges by the strict total order (weight, smaller index, larger index).
Under a strict total order the spanning tree is unique, so it is the tree
Kruskal's algorithm yields when it scans edges in that order. The whole
stage takes O(n^2) time and allocates nothing n x n beyond ``D`` itself.
``build_graph`` validates ``D`` once; ``build_mst`` and
``augment_to_min_degree`` each validate their own input.

The graph is stored in the CSR layout of ``WeightMatrix``: row i lists the
sources of the edges into vertex i, ascending. The weight solver and the
csgraph reachability checks read these arrays as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import ValidationError

# side of the square tiles the symmetry check compares
_SYMMETRY_TILE = 256


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
    """Directed weighted graph in CSR layout, like ``WeightMatrix``.

    ``indices[indptr[i]:indptr[i + 1]]`` are the sources of the edges into
    vertex i, strictly ascending, and ``distances`` holds the matching edge
    lengths. The arrays are stored as int64 / float64; a malformed layout
    raises ``ValidationError``.
    """

    n: int
    delta: int
    indptr: np.ndarray
    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        n = self.n
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        distances = np.asarray(self.distances, dtype=np.float64)
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
        if distances.shape != indices.shape or not np.isfinite(distances).all() or (distances < 0).any():
            raise ValidationError("graph distances must be finite, non-negative and one per source")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "distances", distances)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_count(self) -> int:
        return self.indices.size


def _mst(D: np.ndarray) -> list[tuple[int, int, float]]:
    n = D.shape[0]
    if n < 2:
        raise ValidationError("spanning tree needs at least 2 vertices")
    # best_w[v] / best_u[v]: least edge from the tree to v under the order;
    # tree vertices hold an infinite weight so they are never picked again
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    best_w = D[0].copy()
    best_w[0] = np.inf
    best_u = np.zeros(n, dtype=np.int64)
    src = np.empty(n - 1, dtype=np.int64)
    dst = np.empty(n - 1, dtype=np.int64)
    for step in range(n - 1):
        cand = np.flatnonzero(best_w == best_w.min())
        if cand.size > 1:
            lo = np.minimum(best_u[cand], cand)
            hi = np.maximum(best_u[cand], cand)
            cand = cand[np.lexsort((hi, lo))]
        v = cand[0]
        src[step], dst[step] = best_u[v], v
        outside[v] = False
        best_w[v] = np.inf

        row = D[v]
        take = (row < best_w) & outside
        # an equal weight replaces the stored edge only if (v, t) is smaller
        tie = np.flatnonzero(row == best_w)
        if tie.size:
            lo_old = np.minimum(best_u[tie], tie)
            hi_old = np.maximum(best_u[tie], tie)
            lo_new = np.minimum(v, tie)
            hi_new = np.maximum(v, tie)
            take[tie] = (lo_new < lo_old) | ((lo_new == lo_old) & (hi_new < hi_old))
        np.copyto(best_w, row, where=take)
        best_u[take] = v

    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    w = D[lo, hi]
    order = np.lexsort((hi, lo, w))
    return list(zip(lo[order].tolist(), hi[order].tolist(), w[order].tolist()))


def build_mst(D) -> list[tuple[int, int, float]]:
    """Minimum spanning tree of the complete graph implied by ``D``.

    Dense Prim in O(n^2) time: edges compare by the strict total order
    (weight, smaller index, larger index), both when the next vertex is
    picked and when an equal weight would replace a stored edge, so the
    tree is the unique minimum under that order. Returns n-1 undirected
    edges as (u, v, weight) tuples with u < v, sorted by the same order;
    the graph constructor materializes each as two directed edges.
    """
    return _mst(_validated_distances(D))


def _augment(mst_edges, D: np.ndarray, delta: int) -> NeighborGraph:
    n = D.shape[0]
    if delta < 1:
        raise ValidationError("minimum degree must be at least 1")
    if delta >= n:
        raise ValidationError(
            f"minimum degree {delta} needs {delta} distinct neighbors; "
            f"only {n - 1} exist"
        )

    # an edge dst <- src is the key dst * n + src, so sorted keys are the
    # CSR order
    ends = np.array([e[:2] for e in mst_edges], dtype=np.int64).reshape(-1, 2)
    if ((ends < 0) | (ends >= n)).any():
        raise ValidationError(f"tree edge endpoints must lie in [0, {n})")
    u, v = ends.T
    tree = np.unique(np.concatenate([u * n + v, v * n + u]))
    need = delta - np.bincount(tree // n, minlength=n)
    short = np.flatnonzero(need > 0)

    # at most 1 + (tree degree) of the delta + 1 nearest columns are i or a
    # tree neighbor, so they still hold the need sources; keeping every
    # column up to that distance keeps all columns tied at it, and the
    # stable sort resolves equal distances to the smaller vertex index
    nearest = np.empty((short.size, delta + 1), dtype=np.int64)
    for t, i in enumerate(short.tolist()):
        row = D[i]
        cols = np.flatnonzero(row <= np.partition(row, delta)[delta])
        nearest[t] = cols[np.argsort(row[cols], kind="stable")[: delta + 1]]
    added = short[:, None] * n + nearest
    fresh = (nearest != short[:, None]) & ~np.isin(added, tree)
    added = added[fresh & (np.cumsum(fresh, axis=1) <= need[short, None])]

    dst, src = np.divmod(np.union1d(tree, added), n)
    indptr = np.searchsorted(dst, np.arange(n + 1))
    return NeighborGraph(n, delta, indptr, src, D[dst, src])


def augment_to_min_degree(mst_edges, D, delta: int) -> NeighborGraph:
    """Raise every in-degree to ``delta`` by adding directed edges.

    The spanning tree edges are symmetrized first. Each vertex below the
    minimum then repeatedly gains an in-edge from its nearest vertex that
    has no edge into it yet (self excluded); these extra edges stay
    one-directional. Vertices already at ``delta`` or above are untouched.
    """
    return _augment(mst_edges, _validated_distances(D), delta)


def build_graph(D, delta: int = 8) -> NeighborGraph:
    """Spanning-tree construction followed by minimum-degree augmentation.

    ``D`` is validated once, then shared by both steps.
    """
    D = _validated_distances(D)
    return _augment(_mst(D), D, delta)


def in_neighbors(graph: NeighborGraph, i: int) -> np.ndarray:
    """Sorted source vertices of edges into vertex ``i``."""
    if not 0 <= i < graph.n:
        raise ValidationError(f"vertex index {i} out of range for n={graph.n}")
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


def assert_anchor_reachability(graph: NeighborGraph, n_known: int) -> bool:
    """True iff every unknown vertex is reachable from the known block.

    Vertices 0..n_known-1 are the anchors; reachability follows directed
    edges (an edge j -> i lets information flow from j to i).
    """
    if n_known == 0:
        raise ValidationError("at least one anchor is required")
    if not 0 < n_known <= graph.n:
        raise ValidationError(f"anchor count {n_known} out of range for n={graph.n}")
    return reached_from_anchors(_adjacency(graph), n_known)


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
