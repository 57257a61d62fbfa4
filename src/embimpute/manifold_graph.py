"""Connectivity-guaranteed nearest-neighbor graph over pairwise distances.

A minimum spanning tree (symmetrized into directed edge pairs) keeps the
graph connected; additional directed edges from nearest non-neighbors then
raise every vertex's in-degree to the configured minimum. Tie-breaking is
always by smaller vertex index so identical inputs yield identical graphs.

One builder (``_build``) reads three things: an n x n matrix of keys
that rank the distances, a margin M, and ``exact(rows, cols)``, the exact
distances of those pairs. Each key f lies within rho f + M of the
square of its pair's exact distance, with rho the relative rounding of
the keys' dtype (M = 0 and float64: the keys are the exact distances),
so a key orders its pair after another's for certain only past that
key's ``_limit``, f (1 + rho) + 2M computed in float64; every decision
closer than that is made on exact distances. The pipeline and the CLI's
``graph-stats`` always pass the float32 Gram keys of
``domain_geometry._squared_distance_keys`` over the unit-scaled domain
rows, its margin and ``cdist`` reads of those rows. ``build_graph(D)``,
``build_mst`` and ``augment_to_min_degree`` are the M = 0 case: the keys
are ``D`` and the exact values are read from it. Either way the graph is
the one the exact distances define.

One blocked cut (``_nearest_columns``) over the 1 MiB row blocks of the
keys, on a thread per CPU (``_nearest``), takes every row's delta + 1
nearest columns by (distance, index), and both steps read it; a row
whose keys near its (delta + 1)-th lie within each other's limits is
ranked on exact distances. The tree is the unique minimum under the strict
total order (weight, smaller index, larger index), so it is the tree
Kruskal's algorithm yields when it scans edges in that order. For a
fixed vertex that order ranks its edges by (weight, other end), so a
vertex's first column in the cut other than itself is its least edge,
and that edge is a tree edge (Borůvka's first round). A dense Prim over
the components these edges leave adds the rest: each joining vertex's
row of keys updates the frontier's least keys, kept in the keys' dtype,
once. The frontier vertices within the limit of the least key are the
candidates. When one candidate has one tree end within it, that edge is
next, read from the candidate's own row. Otherwise each candidate is
watched: its least edge by (exact distance, tree end) is read once, by
one ``exact`` call per 1 MiB of keys near it, and folded with each later
joining component, and the order picks among the candidates' least
edges. Inside the package the tree passes as two endpoint arrays in no
set order; only ``build_mst`` sorts it and reads its weights into
tuples. The augmentation takes each short vertex's new sources from the
same cut.

The stage takes O(n^2) time, plus the exact reads: none where no two
keys are that close, at most one of about ten pairs per benchmark
input, and a few per row or step on tie-heavy inputs (lattices,
duplicate rows) and where float32 keys lie an ulp or two apart; it
allocates nothing n x n beyond the keys. ``build_graph`` validates ``D``
once; ``build_mst`` and ``augment_to_min_degree`` each validate their
own input; the key stage's output is valid by construction. ``delta`` is
checked before the cut, and the pipeline and the CLI check it before the
distance stage.

The graph is stored in the CSR layout of ``WeightMatrix``: row i lists the
sources of the edges into vertex i, ascending. It holds only this
support, which is all the weight solver and ``is_connected`` read.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .domain_geometry import _BLOCK_BYTES, _STORAGE_ROUNDING, _limit, _nearest_columns
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


def _entries(D: np.ndarray):
    """Exact values read from a matrix: ``exact(rows, cols)`` is ``D[rows][:, cols]``."""
    return lambda rows, cols: D[np.ix_(rows, cols)]


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


def _nearest(keys: np.ndarray, r: int, margin: float, exact) -> np.ndarray:
    """Each row's ``r`` nearest columns in (exact value, column) order:
    one ``_nearest_columns`` cut over the 1 MiB row blocks of ``keys``.

    The cut's numpy partitions and sorts release the GIL, so the blocks
    run on one thread per CPU in the process's affinity mask (per CPU
    where the platform has none; at most one per block), or inline when
    one block covers the keys. Each thread cuts its blocks in one scratch
    block of its own, of the keys' dtype. A block's exception is raised
    here, and the blocks not yet started are cancelled.
    """
    n = keys.shape[0]
    nearest = np.empty((n, r), dtype=np.int64)
    rows = max(1, _BLOCK_BYTES // (keys.itemsize * n))
    starts = range(0, n, rows)
    # the affinity mask is Linux-only; elsewhere every CPU counts
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(starts))
    # made by this thread before any block is cut, one per worker, which
    # each worker takes once as it starts: a block made and freed in a
    # worker would stay resident in that worker's malloc arena after the
    # call, and the pool starts at most ``workers`` threads
    blocks = [np.empty(rows * n, dtype=keys.dtype) for _ in range(workers)]
    scratch = threading.local()

    def lend():
        scratch.buf = blocks.pop()

    def cut(lo):
        def block_exact(block_rows, cols):
            return exact(lo + block_rows, cols)

        nearest[lo : lo + rows] = _nearest_columns(keys[lo : lo + rows], r, scratch.buf, margin, block_exact)

    if len(starts) == 1:
        lend()
        cut(0)
    else:
        with ThreadPoolExecutor(workers, initializer=lend) as pool:
            # map re-raises a worker's exception here and cancels the
            # blocks not yet started
            for _ in pool.map(cut, starts):
                pass
    return nearest


def _mst(keys: np.ndarray, nearest: np.ndarray, margin: float, exact) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (src, dst) of the n - 1 tree edges, in no set order.

    ``nearest`` holds at least each row's 2 nearest columns, as
    ``_nearest`` cuts them.
    """
    n = keys.shape[0]
    every = np.arange(n)
    # Borůvka's first round: for a fixed vertex the order ranks its edges
    # by (weight, other end), so its least edge goes to its first column
    # other than itself; a twin of smaller index ranks before the vertex
    seed = np.where(nearest[:, 0] == every, nearest[:, 1], nearest[:, 0])
    once = (seed[seed] != every) | (every < seed)  # a mutual pair is one edge
    count, label = csgraph.connected_components(
        sparse.csr_matrix((np.ones(n), seed, np.arange(n + 1)), shape=(n, n)), directed=False
    )
    order = np.argsort(label, kind="stable")
    bounds = np.searchsorted(label[order], np.arange(count + 1)).tolist()

    # Prim over the components. best_w[v]: least key from the tree to v,
    # in the keys' dtype; tree vertices hold NaN, which fails every
    # comparison and which fmin skips, so they are never picked or updated
    # again
    best_w = np.full(n, np.inf, dtype=keys.dtype)
    in_tree = np.zeros(n, dtype=bool)
    # a frontier vertex that has been a candidate among several is
    # watched: its least edge by (exact weight, tree end) is kept in
    # least_w, least_u, and each joining component is folded into it
    watched = np.zeros(n, dtype=bool)
    least_w = np.empty(n)
    least_u = np.empty(n, dtype=np.int64)
    src = np.empty(count - 1, dtype=np.int64)
    dst = np.empty(count - 1, dtype=np.int64)
    rho = _STORAGE_ROUNDING[keys.dtype]
    joining = label[0]
    for step in range(count - 1):
        members = order[bounds[joining] : bounds[joining + 1]]
        for m in members.tolist():
            np.minimum(best_w, keys[m], out=best_w)
        best_w[members] = np.nan
        in_tree[members] = True
        watched[members] = False
        if watched.any():
            _fold_edges(keys, watched.nonzero()[0], np.sort(members), best_w, least_w, least_u, margin, exact)

        # only frontier vertices within the limit of the least key can
        # hold the least edge, and only through tree ends within it. The
        # limit is a Python float, which a comparison with float32 keys
        # rounds to the nearest float32 (see _limit)
        limit = _limit(float(np.fmin.reduce(best_w)), rho, margin)
        cand = (best_w <= limit).nonzero()[0]
        v = cand[0]
        if cand.size == 1:
            ends = keys[v] <= limit
            ends &= in_tree
            u = ends.argmax()
            if np.count_nonzero(ends) > 1:
                u = _least_edges(np.array([v]), ends.nonzero()[0], exact)[1][0]
        else:
            fresh = cand[~watched[cand]]
            if fresh.size:
                least_w[fresh] = np.inf
                _fold_edges(keys, fresh, in_tree.nonzero()[0], best_w, least_w, least_u, margin, exact)
                watched[fresh] = True
            # a vertex's least edge by (weight, tree end) is its least by
            # (weight, lo, hi) too, so the least of the candidates' least
            # edges by (weight, lo, hi) is the next tree edge
            ends = least_u[cand]
            v = cand[np.lexsort((np.maximum(ends, cand), np.minimum(ends, cand), least_w[cand]))[0]]
            u = least_u[v]
        src[step], dst[step] = u, v
        joining = label[v]
    return np.concatenate([every[once], src]), np.concatenate([seed[once], dst])


def _least_edges(frontier: np.ndarray, ends: np.ndarray, exact) -> tuple[np.ndarray, np.ndarray]:
    """Each ``frontier`` vertex's least edge to the ascending tree vertices
    ``ends`` by (exact weight, tree end): its weights and tree ends."""
    weights = exact(frontier, ends)
    # argmin takes the first, so the least tree end of the least weight
    first = weights.argmin(axis=1)
    return weights[np.arange(frontier.size), first], ends[first]


def _fold_edges(keys, frontier, tree, best_w, least_w, least_u, margin, exact) -> None:
    """Fold the edges from the ascending ``tree`` vertices into the least
    edges of the ``frontier`` vertices, in 1 MiB chunks of tree columns.
    A tree vertex past the ``_limit`` of a frontier vertex's least key is
    never its least edge, so only the others are read exactly."""
    low = best_w[frontier, None].astype(float)
    limits = _limit(low, _STORAGE_ROUNDING[keys.dtype], margin).astype(keys.dtype)
    span = max(1, _BLOCK_BYTES // (keys.itemsize * frontier.size))
    for lo in range(0, tree.size, span):
        ends = tree[lo : lo + span]
        near = keys[np.ix_(frontier, ends)] <= limits
        rows = frontier[near.any(axis=1)]
        if rows.size:
            w, u = _least_edges(rows, ends[near.any(axis=0)], exact)
            better = (w < least_w[rows]) | ((w == least_w[rows]) & (u < least_u[rows]))
            least_w[rows[better]] = w[better]
            least_u[rows[better]] = u[better]


def build_mst(D) -> list[tuple[int, int, float]]:
    """Minimum spanning tree of the complete graph implied by ``D``.

    Edges compare by the strict total order (weight, smaller index,
    larger index), so the tree is the unique minimum under that order.
    Every vertex's least edge is a tree edge (Borůvka's first round);
    a dense Prim over the components those edges leave adds the rest.
    Returns n-1 undirected edges as (u, v, weight) tuples with u < v,
    sorted by the same order; the graph constructor materializes each as
    two directed edges.
    """
    D = _validated_distances(D)
    if D.shape[0] < 2:
        raise ValidationError("spanning tree needs at least 2 vertices")
    exact = _entries(D)
    src, dst = _mst(D, _nearest(D, 2, 0.0, exact), 0.0, exact)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    w = D[lo, hi]
    order = np.lexsort((hi, lo, w))
    return list(zip(lo[order].tolist(), hi[order].tolist(), w[order].tolist()))


def _augment(u: np.ndarray, v: np.ndarray, nearest: np.ndarray, delta: int) -> NeighborGraph:
    # u[e] and v[e] are the endpoints of distinct tree edges, in [0, n);
    # nearest holds each row's delta + 1 nearest columns; delta is an int
    # in [1, n - 1]
    n = nearest.shape[0]

    # an edge dst <- src is the key dst * n + src, so sorted keys are the
    # CSR order
    tree = np.sort(np.concatenate([u * n + v, v * n + u]))
    need = delta - np.bincount(tree // n, minlength=n)
    short = np.flatnonzero(need > 0)

    # at most 1 + (tree degree) of the delta + 1 nearest columns are i or a
    # tree neighbor, so they still hold the need sources; the cut keeps
    # equal distances in ascending column order
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
    # an edge listed twice, in either direction, counts once
    ends = np.unique(np.sort(ends, axis=1), axis=0)
    return _augment(ends[:, 0], ends[:, 1], _nearest(D, delta + 1, 0.0, _entries(D)), delta)


def _build(keys: np.ndarray, margin: float, exact, delta: int) -> NeighborGraph:
    # keys must be square with a zero diagonal, each within margin of the
    # square of its pair's exact value (equal to it when margin is 0), and
    # the exact values finite, non-negative and symmetric: checked by
    # build_graph, or true by construction
    delta = _check_integer(delta, "minimum degree", 1, keys.shape[0] - 1)
    # one cut serves both steps: the tree reads each row's first two
    # columns, the augmentation all delta + 1
    nearest = _nearest(keys, delta + 1, margin, exact)
    return _augment(*_mst(keys, nearest, margin, exact), nearest, delta)


def build_graph(D, delta: int = _DELTA) -> NeighborGraph:
    """Spanning-tree construction followed by minimum-degree augmentation.

    ``D`` is validated once, then shared by both steps.
    """
    D = _validated_distances(D)
    return _build(D, 0.0, _entries(D), delta)


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
