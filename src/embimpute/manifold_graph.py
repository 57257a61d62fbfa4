"""Connectivity-guaranteed nearest-neighbor graph over pairwise distances.

A minimum spanning tree (symmetrized into directed edge pairs) keeps the
graph connected; additional directed edges from nearest non-neighbors then
raise every vertex's in-degree to the configured minimum. Tie-breaking is
always by smaller vertex index so identical inputs yield identical graphs.

One builder (``_build``) reads a ``domain_geometry._KeyRows``: rows of
keys that rank the distances, made a set of rows at a time, a margin M,
and ``exact(rows, cols)``, the exact distances of those pairs. Each key
f lies within rho f + M of the square of its pair's exact distance, with
rho the relative rounding of the keys' dtype (M = 0 and float64: the
keys are the exact distances), so a key orders its pair after another's
for certain only past that key's ``_limit``, f (1 + rho) + 2M computed
in float64 and rounded to the keys' dtype; every decision closer than
that is made on exact distances. The pipeline and the CLI's
``graph-stats`` always pass the float32 Gram key rows of
``domain_geometry._key_rows`` over the unit-scaled domain rows, its
margin and ``cdist`` reads of those rows. ``build_graph(D)``,
``build_mst`` and ``augment_to_min_degree`` are the M = 0 case
(``_distance_rows``): the key rows are rows of ``D`` and the exact
values are read from it. Either way the graph is the one the exact
distances define.

One blocked cut (``_cut``: each block of ``_block_rows(n)`` key rows,
whole slices and at least 128 rows, n at most, is made and then cut by
``_nearest_columns`` one slice of 1 MiB of float64 rows at a time)
takes every row's r nearest columns by (distance, index) and their
keys, r = delta + 1 or,
where that is more, ``_CUT_COLUMNS`` (n at most), and both steps read
it; a row whose keys near its r-th lie within each other's limits is
ranked on exact distances. The tree is the unique
minimum under the strict total order (weight, smaller index, larger
index), so it is the tree Kruskal's algorithm yields when it scans edges
in that order. For a fixed vertex that order ranks its edges by
(weight, other end), so a vertex's first column in the cut outside its
component is its least edge out of it. Borůvka rounds grow the tree from
the single vertices: each component's least edge, the least of its
members' least edges, is a tree edge, and ``csgraph.connected_components``
merges the components those edges join, at least halving them. Keys pick
a component's edge; where several members' keys lie within the limit of
the least, their edges' exact distances and the order do. A member with
every cut column inside its own component has no edge in the cut; its
outside edges are at least as long as its last cut column's, so its row
of keys is made again, its component's columns left out, and cut for its
least outside edge only when its last cut key lies within the limit of
its component's least key; the wider the cut, the fewer such rows.
Inside the package the tree passes as two
endpoint arrays in no set order; only ``build_mst`` sorts it and reads
its weights into tuples. The augmentation takes each short vertex's new
sources from the first delta + 1 columns of the same cut.

The stage makes every key row once for the cut, and again for the
members read in full (54 rows at seed 3 and 694 at seed 2027 on the
clustered 8192 x 64 domain of the ``cli_lowdim_8k`` benchmark), plus
the exact reads: none where no two keys are that close, at most four
of about 32 pairs per benchmark pass, and a few per row or round on
tie-heavy inputs (lattices, duplicate rows) and where float32 keys lie
an ulp or two apart. Beyond its input it holds the cut, n r columns and
keys; the Gram key rows' n x (d + 2) right operand and their float64
and float32 buffers of one block; and the cut's copy of one slice:
O(n (r + d + b)) memory for blocks of b rows, nothing n x n. At
n = 8192, d = 64 that is about 20 MiB: 3 MiB of cut, 4 MiB of operand,
8 MiB of float64 and 4 MiB of float32 key rows, and a 0.5 MiB copy.
``build_graph`` validates ``D`` once;
``build_mst`` and ``augment_to_min_degree`` each validate their own
input; the key rows are valid by construction. ``delta`` is checked
before the cut, and the pipeline and the CLI check it before the
distance stage.

The graph is stored in the CSR layout of ``WeightMatrix``: row i lists the
sources of the edges into vertex i, ascending. It holds only this
support, which is all the weight solver and ``is_connected`` read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .domain_geometry import _KeyRows, _block_rows, _limit, _nearest_columns, _slice_rows, _tile_side
from .errors import ValidationError, _check_integer

# the minimum in-degree every entry point defaults to, the CLI's included
_DELTA = 8
# the fewest columns the graph's cut takes (n at most): where a vertex's
# columns leave its component the tree needs no more of its row
_CUT_COLUMNS = 32


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
    n, b = D.shape[0], _tile_side()
    for i in range(0, n, b):
        for j in range(i, n, b):
            if not np.array_equal(D[i : i + b, j : j + b], D[j : j + b, i : i + b].T):
                raise ValidationError("distance matrix must be symmetric")
    return D


def _distance_rows(D: np.ndarray) -> _KeyRows:
    """The M = 0 key rows of a checked distance matrix: ``rows(index)`` is
    a copy of ``D[index]``, and ``exact(rows, cols)`` is
    ``D[rows][:, cols]``."""
    return _KeyRows(D.shape[0], lambda index: D[index], 0.0, lambda rows, cols: D[np.ix_(rows, cols)])


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


def _nearest(keys: _KeyRows, r: int, rows=None, label=None) -> tuple[np.ndarray, np.ndarray]:
    """The ``r`` nearest columns of each of ``rows`` (int64; every row by
    default) in (exact value, column) order, and their keys: each block of
    ``_block_rows(n)`` key rows (one GEMM, for the Gram key rows) is made
    and then cut by ``_nearest_columns``, one slice of ``_slice_rows(n)``
    rows at a time. With ``label``, the columns of a row's own label are
    left out: each needs one other label."""
    if rows is None:
        rows = np.arange(keys.n)
    nearest = np.empty((rows.size, r), dtype=np.int64)
    near = []
    step, width = _block_rows(keys.n), _slice_rows(keys.n)
    for lo in range(0, rows.size, step):
        block = keys.rows(rows[lo : lo + step])
        # cut a slice at a time: the cut copies what it is given, and a
        # copy of a whole block, 4 MiB at n = 8192, would take the malloc
        # heap, where numpy's huge-page advice outlives it (see _off_heap)
        end = min(lo + step, rows.size)
        for a in range(lo, end, width):
            index = rows[a : min(a + width, end)]
            part = block[a - lo : a - lo + index.size]
            if label is not None:
                part[label[index, None] == label] = np.inf

            # the cut numbers its rows from the slice's first, and reads
            # exact values of columns within the limit of any of its rows
            def part_exact(part_rows, cols, index=index):
                values = keys.exact(index[part_rows], cols)
                if label is not None:
                    values[label[index[part_rows], None] == label[cols]] = np.inf
                return values

            head = _nearest_columns(part, r, keys.margin, part_exact)
            nearest[a : a + index.size] = head
            near.append(np.take_along_axis(part, head, axis=1))
    return nearest, np.concatenate(near)


def _limits(low: np.ndarray, margin: float) -> np.ndarray:
    """``_limit`` of each key of ``low``; inf, the key of no edge, has
    limit inf."""
    limit = np.full_like(low, np.inf)
    finite = low < np.inf
    limit[finite] = _limit(low[finite], low.dtype, margin)
    return limit


def _paired(exact, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``exact`` of the pairs (a[i], b[i]): the diagonals of square reads
    of 1 MiB at most."""
    side = _tile_side()
    return np.concatenate([np.diagonal(exact(a[i : i + side], b[i : i + side])) for i in range(0, a.size, side)])


def _mst(keys: _KeyRows, nearest: np.ndarray, near: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (src, dst) of the n - 1 tree edges, in no set order.

    ``nearest`` holds at least each row's 2 nearest columns and ``near``
    their keys, as ``_nearest`` cuts them.
    """
    n = keys.n
    every = np.arange(n)
    count, label = n, every
    src, dst = [], []
    while count > 1:
        # each vertex's first cut column outside its component is its
        # least edge out of it; the key inf marks a vertex with none
        outside = label[nearest] != label[:, None]
        first = outside.argmax(axis=1)
        end = nearest[every, first]
        key = near[every, first]  # in the keys' dtype, which sets their limits
        key[~outside[every, first]] = np.inf
        low = np.full(count, np.inf, dtype=key.dtype)
        np.minimum.at(low, label, key)
        # a vertex with no edge in the cut has none shorter than its last
        # cut column's: it is read in full only within its component's limit
        scan = np.flatnonzero((key == np.inf) & (near[:, -1] <= _limits(low, keys.margin)[label]))
        if scan.size:
            cut, cut_keys = _nearest(keys, 1, scan, label)
            end[scan] = cut[:, 0]
            key[scan] = cut_keys[:, 0]
            np.minimum.at(low, label[scan], key[scan])
        # only the edges within the limit of a component's least key can
        # be its least edge; where there are several, exact distances decide
        cand = np.flatnonzero(key <= _limits(low, keys.margin)[label])
        comp = label[cand]
        weight = key[cand].astype(float)
        several = np.bincount(comp, minlength=count)[comp] > 1
        if several.any():
            weight[several] = _paired(keys.exact, cand[several], end[cand[several]])
        lo = np.minimum(cand, end[cand])
        hi = np.maximum(cand, end[cand])
        order = np.lexsort((hi, lo, weight, comp))
        pick = cand[order[np.searchsorted(comp[order], np.arange(count))]]
        # each component's edge reaches another; two components that pick
        # each other pick one edge, kept once
        other = label[end[pick]]
        ids = np.arange(count)
        once = (other[other] != ids) | (ids < other)
        src.append(pick[once])
        dst.append(end[pick[once]])
        joined = sparse.csr_matrix((np.ones(count), other, np.arange(count + 1)), shape=(count, count))
        count, merged = csgraph.connected_components(joined, directed=False)
        label = merged[label]
    return np.concatenate(src), np.concatenate(dst)


def build_mst(D) -> list[tuple[int, int, float]]:
    """Minimum spanning tree of the complete graph implied by ``D``.

    Edges compare by the strict total order (weight, smaller index,
    larger index), so the tree is the unique minimum under that order.
    Borůvka rounds find it: each component's least edge is a tree edge.
    Returns n-1 undirected edges as (u, v, weight) tuples with u < v,
    sorted by the same order; the graph constructor materializes each as
    two directed edges.
    """
    D = _validated_distances(D)
    if D.shape[0] < 2:
        raise ValidationError("spanning tree needs at least 2 vertices")
    keys = _distance_rows(D)
    src, dst = _mst(keys, *_cut(keys, 1))
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
    return _augment(ends[:, 0], ends[:, 1], _nearest(_distance_rows(D), delta + 1)[0], delta)


def _cut(keys: _KeyRows, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """The one cut both steps read: each row's delta + 1 nearest columns,
    or ``_CUT_COLUMNS`` where that is more (n at most), and their keys."""
    return _nearest(keys, min(keys.n, max(delta + 1, _CUT_COLUMNS)))


def _graph(keys: _KeyRows, cut: tuple[np.ndarray, np.ndarray], delta: int) -> NeighborGraph:
    """The tree and the augmentation from ``_cut(keys, delta)``; ``delta``
    is already checked."""
    nearest, near = cut
    return _augment(*_mst(keys, nearest, near), nearest[:, : delta + 1], delta)


def _build(keys: _KeyRows, delta: int) -> NeighborGraph:
    # the key rows must be zero where a row meets its own column, each key
    # within margin of the square of its pair's exact value (equal to it
    # when margin is 0), and the exact values finite, non-negative and
    # symmetric: checked by build_graph, or true by construction
    delta = _check_integer(delta, "minimum degree", 1, keys.n - 1)
    # one cut serves both steps: the tree reads each row's columns until
    # one leaves its component, the augmentation the first delta + 1
    return _graph(keys, _cut(keys, delta), delta)


def build_graph(D, delta: int = _DELTA) -> NeighborGraph:
    """Spanning-tree construction followed by minimum-degree augmentation.

    ``D`` is validated once, then shared by both steps.
    """
    return _build(_distance_rows(_validated_distances(D)), delta)


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
