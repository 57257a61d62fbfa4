"""Distance and affinity structure over entity feature matrices.

The feature matrix describes each entity in the affinity space; pairwise
Euclidean distances over its rows drive the neighbor-graph construction,
ranked by Gram keys with exact ``cdist`` values wherever the keys are
too close to decide. ``_unit_scaled`` first multiplies the rows by the
one power of two that puts their largest |value| in [1, 2); the graph,
the simplex weights and the k-NN score all read rows scaled so. That
changes no distance's rank and no weight (but where a value is
subnormal), and no square overflows or underflows merely because the
rows are very large or very small.
The keys are computed in float64 and stored as float32: each lies within
a relative rho and an absolute M of the square of its pair's distance,
and ``_limit`` says how far apart two keys must be to order their pairs
for certain.
``scipy.spatial`` is imported on the first ``cdist`` call, not with the
package.
A small preprocessing helper turns raw return series into a correlation
matrix usable as such a feature matrix.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_BLOCK_BYTES = 1 << 20  # bytes in one block: the key tiles, the graph and k-NN cuts and the weight gathers share it
_MAX_MISSING_FRACTION = 0.20  # return rows missing more of their cells are dropped
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_FLOAT32_UNIT_ROUNDOFF = 2.0**-24
_FLOAT32_SUBNORMAL = 2.0**-149
# rho, the relative rounding of keys stored as each dtype: float32 keys
# are rounded once more after M is counted, float64 keys never
_STORAGE_ROUNDING = {
    np.dtype(np.float32): 2 * _FLOAT32_UNIT_ROUNDOFF / (1 - _FLOAT32_UNIT_ROUNDOFF),
    np.dtype(np.float64): 0.0,
}
_HUGE_PAGE_BYTES = 1 << 22  # numpy advises huge pages from this size


@dataclass(frozen=True)
class DomainMatrix:
    """Feature matrix over named entities; row i describes ``entities[i]``.

    Arrays are not defensively copied. Requires at least two entities, one
    feature column, unique identifiers, and finite values throughout.
    """

    entities: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entities", tuple(str(e) for e in self.entities))
        object.__setattr__(self, "data", np.ascontiguousarray(self.data, dtype=float))
        if self.data.ndim != 2:
            raise ValidationError("domain data must be a 2-D matrix")
        n, d = self.data.shape
        if n < 2:
            raise ValidationError(f"domain matrix needs at least 2 entities, got {n}")
        if d < 1:
            raise ValidationError("domain matrix needs at least 1 feature column")
        if len(self.entities) != n:
            raise ValidationError(
                f"got {len(self.entities)} entity identifiers for {n} data rows"
            )
        if len(set(self.entities)) != n:
            raise ValidationError("entity identifiers must be unique")
        bad_rows = np.flatnonzero(~np.isfinite(self.data).all(axis=1))
        if bad_rows.size:
            i = int(bad_rows[0])
            raise ValidationError(
                f"non-finite value in row {i} ({self.entities[i]})"
            )

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def cdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.spatial.distance.cdist(a, b)``; ``scipy.spatial`` is
    imported on the first call, so importing the package does not load it."""
    from scipy.spatial.distance import cdist

    return cdist(a, b)


def _unit_scaled(data: np.ndarray) -> np.ndarray:
    """``data`` times the power of two that puts its largest |value| in
    [1, 2); ``data`` itself, not a copy, when that value already lies
    there or is 0. A correlation matrix, whose diagonal is exactly 1,
    comes back as it is.

    The scaling is exact but where a value is or becomes subnormal, so
    distances keep their ranks and the simplex weights their bits. After
    it no square overflows, and the square of an offset underflows only
    below about 2^-511, where distinct rows read as equal.
    """
    # no |data| temporary: max and min allocate nothing n x d; with no
    # columns the top is 0
    top = max(data.max(initial=0.0), -data.min(initial=0.0))
    e = math.frexp(top)[1]  # top = m 2^e with m in [1/2, 1)
    return data if top == 0 or e == 1 else np.ldexp(data, 1 - e)


def _limit(low, rho: float, margin: float):
    """The key past which a pair ranks after the pair whose key is ``low``,
    for certain: ``low (1 + rho) + 2 margin`` in float64, for a float or a
    float64 array ``low``.

    A key f stored with relative rounding u (rho = 2u / (1 - u)) lies
    within u f + M of its pair's exact square, M the margin, so f2
    orders its pair after f1's when f2 (1 - u) - M > f1 (1 + u) + M. That
    asks for 2 M u / (1 - u) more than this limit; the margin's slack
    covers it and the rounding of this float64 sum.

    Compare float32 keys with the limit rounded to the nearest float32: a
    float32 lies at or below that exactly when it lies at or below the
    limit or is that nearest value, one key more at most. Never compute
    the limit from a float32 ``low``: float32 arithmetic (which a float32
    array keeps with a Python float, under value-based casting and NEP 50
    alike) rounds ``low + low rho`` back down to ``low``.
    """
    return low + (low * rho + 2 * margin)


def _nearest_columns(block: np.ndarray, r: int, buf: np.ndarray, margin: float = 0.0, exact=None) -> np.ndarray:
    """Per row of ``block``, the columns of its ``r`` smallest values in
    (value, column) order: the first ``r`` of a stable argsort, without
    sorting whole rows. ``buf`` is scratch of ``block``'s dtype (float32
    keys or float64 values) with at least ``block.size`` entries;
    ``block`` is left as it is.

    With a positive ``margin`` the values are keys, each within the
    relative rounding of ``block``'s dtype and the absolute ``margin`` of
    the square of its pair's exact value (with 0, the exact
    values), so a key orders its pair after another's only when it lies
    past that key's ``_limit``. A row whose first ``r + 1`` keys hold two
    closer than that is ranked by (exact value, column) over its columns
    within the limit of its r-th key, where ``exact(rows, cols)`` gives
    the float64 exact values of ``block[rows][:, cols]``; that cut gets a
    float64 scratch block of its own.
    """
    m, w = block.shape
    part = buf[: m * w].reshape(m, w)
    np.copyto(part, block)
    part.partition(r - 1, axis=1)
    limit = part[:, r - 1 : r]
    if margin:
        rho = _STORAGE_ROUNDING[block.dtype]
        limit = _limit(limit.astype(float), rho, margin).astype(block.dtype)
    # every column up to the limit of a row's r-th smallest value, ties at
    # it included, in row-major order
    flat = np.flatnonzero(block <= limit)
    rows, cols = np.divmod(flat, w)
    first = np.searchsorted(rows, np.arange(m + 1))
    if not margin:
        # sorted by row, then value; the sort is stable, so equal values
        # keep ascending columns, and each row's entries stay where they were
        cols = cols[np.lexsort((np.take(block, flat), rows))]
        return cols[first[:-1, None] + np.arange(r)]

    # a row is in doubt when a column past its r-th lies within the limit
    # of it; the others hold exactly r columns, ascending, and are in
    # doubt when one of their keys lies within the limit of the one before
    doubt = np.diff(first) > r
    sure = np.flatnonzero(~doubt)
    picked = ~doubt[rows]
    values = np.take(block, flat[picked]).reshape(-1, r)
    order = np.argsort(values, axis=1, kind="stable")
    head = np.empty((m, r), dtype=np.int64)
    head[sure] = np.take_along_axis(cols[picked].reshape(-1, r), order, axis=1)
    ranked = np.take_along_axis(values, order, axis=1).astype(float)
    doubt[sure[(ranked[:, 1:] <= _limit(ranked[:, :-1], rho, margin)).any(axis=1)]] = True
    if doubt.any():
        # one exact read, no larger than the block: the rows in doubt
        # over every column within the limit of one of them. A column past
        # a row's own limit has an exact value above r others of that
        # row, so the cut of these exact values is the answer
        wanted = np.flatnonzero(np.bincount(cols[doubt[rows]], minlength=w))
        doubt = np.flatnonzero(doubt)
        values = exact(doubt, wanted)
        head[doubt] = wanted[_nearest_columns(values, r, np.empty(values.size))]
    return head


def euclidean_distance_matrix(domain: DomainMatrix | np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distance matrix over entity rows.

    Accepts a DomainMatrix or a bare (n, d) array. The result is
    ``scipy.spatial.distance.cdist(X, X)``, bit for bit: finite and
    symmetric with an exactly zero diagonal, with no squared-distance
    shortcut. Distances that overflow raise ``ValidationError``, and
    offsets below about 1e-154 square to 0, so such rows read as equal.

    The pipeline does not call it: it ranks its graph by
    ``_squared_distance_keys`` over ``_unit_scaled`` rows, whose
    distances neither overflow nor underflow merely because of the
    domain's scale.
    """
    if isinstance(domain, DomainMatrix):
        data = domain.data
    else:
        data = np.asarray(domain, dtype=float)
        if data.ndim != 2:
            raise ValidationError("expected a 2-D matrix of entity rows")
        bad_rows = np.flatnonzero(~np.isfinite(data).all(axis=1))
        if bad_rows.size:
            raise ValidationError(f"non-finite value in row {int(bad_rows[0])}")
    if data.shape[0] < 2:
        raise ValidationError("distance matrix needs at least 2 rows")
    D = cdist(data, data)
    # distances are non-negative, so NaN and overflow both reach the maximum
    if not np.isfinite(D.max()):
        raise ValidationError("distance matrix contains non-finite values")
    return D


def _off_heap(shape, dtype) -> np.ndarray:
    """An uninitialized array of ``shape`` and ``dtype``; from 4 MiB, on
    an anonymous mapping of its own.

    A large matrix is kept off the malloc heap: once glibc's mmap
    threshold has risen past its size, the heap would place it wherever
    earlier calls left room, and numpy's huge-page advice would stay on
    that stretch of heap after it is freed, so the peak resident size
    would vary from call to call. Its own mapping adds exactly its pages,
    asks for huge pages as numpy does from 4 MiB, and returns them when
    the matrix is freed. A smaller one comes from the heap, where it
    reuses resident pages instead of faulting in fresh ones.
    """
    size = np.dtype(dtype).itemsize * math.prod(shape)
    if size < _HUGE_PAGE_BYTES:
        return np.empty(shape, dtype)
    if hasattr(mmap, "MAP_PRIVATE"):
        # private, as malloc maps: shared anonymous memory takes no huge pages
        area = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:
        area = mmap.mmap(-1, size)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        area.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(area, dtype=dtype).reshape(shape)


def _squared_distance_keys(data: np.ndarray):
    """Keys that rank the pairwise distances of the rows of ``data``, a
    C-contiguous float64 matrix such as ``DomainMatrix.data``.

    Requires every |value| below 2, as ``_unit_scaled`` leaves it: then
    8 max|x|^2 < 32 d, so no Gram product, norm or sum overflows, and
    every key, at most 4 max|x|^2 < 16 d, fits in float32.

    Returns ``(keys, margin, exact)``. ``keys`` is an n x n float32 matrix
    of |x|^2 + |y|^2 - 2 x.y, clipped at 0, with an exactly zero
    diagonal, made by ``_off_heap`` (from 4 MiB, that is 1024 rows,
    off the malloc heap, so the peak resident size does not depend on what
    earlier calls left there). The upper triangle is computed in float64,
    in 1 MiB square tiles of ``X[a] @ X[b].T`` on BLAS's threads in one
    Python loop; each tile is finished in place, rounded to float32, and
    stored and mirrored while it is in cache. (Square tiles, not row
    blocks: the mirrored write of a row block touches every row of the
    matrix, that of a tile only a few hundred.)

    ``margin`` is M, and each key f lies within u f + M of
    cdist(x, y)^2, with u = 2^-24 the float32 rounding
    (``_STORAGE_ROUNDING`` holds rho = 2u / (1 - u); see ``_limit``).
    Before rounding, the float64 key lies within
    8 gamma_{d+4} max|x|^2 of cdist(x, y)^2 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3): the inner products, norms
    and sums err by at most gamma_{d+2} (|x| + |y|)^2, and ``cdist`` by
    gamma_{d+4} |x - y|^2, both under 4 gamma_{d+4} max|x|^2 with
    gamma_m = m u / (1 - m u). M is that bound plus one more
    gamma_{d+4} max|x|^2, which covers the rounding of the float64
    limits, an absolute term for float64 subnormal products, and the
    float32 subnormal spacing, which covers the absolute rounding of keys
    stored below float32's normal range. ``exact(rows, cols)`` is
    ``cdist(X[rows], X[cols])``, which gives every pair the bits of
    ``cdist(X, X)``.
    """
    n, d = data.shape
    sq = np.einsum("ij,ij->i", data, data)
    keys = _off_heap((n, n), np.float32)
    side = min(n, math.isqrt(_BLOCK_BYTES // 8))
    buf = np.empty(side * side)
    # a tile that covers the keys is stored straight into them; the others
    # through a contiguous float32 tile, as a transposed copy within the
    # keys is slow
    stored = keys.reshape(-1) if side == n else np.empty(side * side, dtype=np.float32)
    for lo in range(0, n, side):
        for left in range(lo, n, side):
            rows, cols = slice(lo, lo + side), slice(left, left + side)
            m, w = min(side, n - lo), min(side, n - left)
            tile = buf[: m * w].reshape(m, w)
            np.matmul(data[rows], data[cols].T, out=tile)
            # finished in float64, then rounded once to float32 as it is
            # clipped
            tile *= -2.0
            tile += sq[rows, None]
            tile += sq[cols]
            key_tile = stored[: m * w].reshape(m, w)
            np.maximum(tile, 0.0, out=key_tile, casting="same_kind")
            if side < n:
                keys[rows, cols] = key_tile
                if left > lo:  # a diagonal tile holds both triangles
                    keys[cols, rows] = key_tile.T
    np.fill_diagonal(keys, 0.0)
    gamma = (d + 4) * _UNIT_ROUNDOFF / (1 - (d + 4) * _UNIT_ROUNDOFF)
    margin = 9 * gamma * sq.max() + 8 * (d + 4) * _SMALLEST_SUBNORMAL + _FLOAT32_SUBNORMAL
    return keys, margin, lambda rows, cols: cdist(data[rows], data[cols])


def correlation_domain_matrix(entities, returns: np.ndarray) -> DomainMatrix:
    """Build a correlation-row feature matrix from per-entity return series.

    ``returns`` is (n, T) with NaN marking missing observations. Rows with
    more than 20% of their cells missing are dropped; remaining missing
    cells are filled with the per-column mean of observed values.
    Row i of the result is row i of the Pearson correlation matrix of the
    filled series, so the output is square over the retained entities.
    """
    entities = [str(e) for e in entities]
    R = np.array(returns, dtype=float)
    if R.ndim != 2:
        raise ValidationError("returns must be a 2-D matrix")
    if len(entities) != R.shape[0]:
        raise ValidationError(
            f"got {len(entities)} entity identifiers for {R.shape[0]} return rows"
        )
    if R.shape[1] < 2:
        raise ValidationError("correlation needs at least 2 observations per entity")
    if np.isinf(R).any():
        raise ValidationError("returns contain infinite values")

    missing = np.isnan(R)
    keep = missing.mean(axis=1) <= _MAX_MISSING_FRACTION
    if int(keep.sum()) < 2:
        raise ValidationError(
            "fewer than 2 entities remain after dropping rows with too many missing values"
        )
    R = R[keep]
    missing = missing[keep]
    kept_entities = [e for e, k in zip(entities, keep) if k]

    dead_cols = np.flatnonzero(missing.all(axis=0))
    if dead_cols.size:
        raise ValidationError(
            f"column {int(dead_cols[0])} has no observed values; cannot fill"
        )
    col_means = np.nanmean(R, axis=0)
    filled = np.where(missing, col_means[None, :], R)

    constant = np.flatnonzero((filled == filled[:, :1]).all(axis=1))
    if constant.size:
        i = int(constant[0])
        raise ValidationError(
            f"zero-variance return series for entity '{kept_entities[i]}'; "
            "correlation is undefined"
        )

    corr = np.corrcoef(filled)
    np.fill_diagonal(corr, 1.0)
    np.clip(corr, -1.0, 1.0, out=corr)
    return DomainMatrix(kept_entities, corr)
