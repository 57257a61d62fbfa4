"""Per-row reconstruction weights on graph in-edges.

Each row solves a least-squares reconstruction of the entity's feature
vector from its in-neighbors' vectors under a standard simplex constraint
(non-negative weights summing to one), via an active-set method. Stacking
the rows yields a sparse row-stochastic matrix supported on graph in-edges.

Rows are solved in lockstep. ``assemble_weight_matrix`` takes the rows of
one in-degree k at a time, forms their Gram matrices G = M Mᵀ and targets
c = M x in blocks of rows, and advances every row of a block through the
same active-set sweep: at most 3k sweeps, each one KKT solve per row
followed by a masked step. Within a sweep the rows are grouped by the
size f of their free set, and each group's (f + 1) × (f + 1) KKT systems go
to LAPACK in one stacked ``np.linalg.solve`` call. Grouping by f instead of
padding every system to size k + 1 means each LAPACK and BLAS call sees
exactly the operands that a row solved on its own would, so the weights
are bit-identical to solving the rows one at a time; ``solve_row_weights``
is that one-row call into the same code. The Gram gather (k·d values per
row) and the lockstep state (k·k per row) are blocked separately so the
extra memory stays near a megabyte whatever n and d are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .domain_geometry import DomainMatrix
from .errors import ValidationError
from .manifold_graph import NeighborGraph

_DUAL_TOL = 1e-10  # optimality threshold on the reduced gradient
_FEAS_TOL = 1e-12
_ROW_SUM_TOL = 1e-12
_GATHER_BYTES = 1 << 20  # neighbor vectors gathered per Gram block (k·d per row)
_STATE_BYTES = 1 << 18  # Gram matrices advanced together (k·k per row)
_OVERFLOW = "weight problem overflows: neighbor products are not finite"


@dataclass(frozen=True)
class WeightMatrix:
    """Sparse row-stochastic matrix; row i holds vertex i's neighbor weights.

    The counters record how many rows the solver could not finish by its
    main path: rows that needed ``lstsq`` for a singular or non-finite KKT
    system, rows that fell back to uniform weights, and rows stopped by
    the 3k sweep cap. They are zero for a matrix built by hand.
    """

    matrix: sparse.csr_matrix
    lstsq_fallbacks: int = 0
    uniform_fallbacks: int = 0
    capped_rows: int = 0

    def __post_init__(self):
        m = sparse.csr_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValidationError("weight matrix must be square")
        m.sort_indices()
        m.eliminate_zeros()
        if m.nnz and m.data.min() < 0:
            raise ValidationError("weight matrix entries must be non-negative")
        sums = np.asarray(m.sum(axis=1)).ravel()
        drift = np.abs(sums - 1.0)
        if drift.max(initial=0.0) > _ROW_SUM_TOL:
            i = int(np.argmax(drift))
            raise ValidationError(
                f"row {i} sums to {sums[i]!r}; rows must sum to 1"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def zero_weight_columns(self) -> int:
        """Columns with no weight in any row.

        Such vertices do not break the diffusion, but their vectors
        influence no other row.
        """
        return self.n - np.unique(self.matrix.indices).size

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and weights of row ``i``."""
        if not 0 <= i < self.n:
            raise ValidationError(f"row index {i} out of range for n={self.n}")
        m = self.matrix
        lo, hi = m.indptr[i], m.indptr[i + 1]
        return m.indices[lo:hi], m.data[lo:hi]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _stacked_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` over a stack, with NaN for each singular system.

    A singular system makes the stacked call raise; halving the stack until
    it stands alone keeps the other systems batched.
    """
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full(b.shape, np.nan)
        h = len(A) // 2
        return np.concatenate([_stacked_solve(A[:h], b[:h]), _stacked_solve(A[h:], b[h:])])


def _posed(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Which stacked rows have a finite Gram matrix and finite targets."""
    return np.isfinite(G).all(axis=(1, 2)) & np.isfinite(c).all(axis=1)


def _kkt_solutions(G, c, rows, free_idx):
    """Solve the equality-constrained KKT system of every listed row.

    Row ``rows[t]`` keeps ``free_idx[t]`` (f coordinates, ascending) free and
    minimizes its quadratic over them subject to their sum being one. All
    systems share the size f + 1, so one stacked LAPACK call solves them;
    a singular or non-finite system falls back to ``lstsq`` on its own.
    Returns the (g, f + 1) solutions (weights, then multiplier) and the
    positions that needed the fallback.
    """
    g, f = free_idx.shape
    A = np.zeros((g, f + 1, f + 1))
    A[:, :f, :f] = G[rows[:, None, None], free_idx[:, :, None], free_idx[:, None, :]]
    A[:, :f, f] = 1.0
    A[:, f, :f] = 1.0
    b = np.empty((g, f + 1, 1))
    b[:, :f, 0] = c[rows[:, None], free_idx]
    b[:, f, 0] = 1.0
    sol = _stacked_solve(A, b)[:, :, 0]
    retry = np.flatnonzero(~np.isfinite(sol).all(axis=1))
    for t in retry:
        sol[t] = np.linalg.lstsq(A[t], b[t, :, 0], rcond=None)[0]
    return sol, retry


def _simplex_rows(G: np.ndarray, c: np.ndarray):
    """Active-set solve of min wᵀGw/2 - cᵀw over the standard simplex for
    every stacked row problem at once, normalized to sum one.

    ``G`` is (r, k, k) and ``c`` is (r, k). Each row starts from the
    uniform point; each sweep either drops the first coordinate blocked at
    zero or frees the most negative reduced gradient, for at most 3k
    sweeps. Equal candidates resolve to the smaller index. Returns the
    (r, k) weights and the counts of rows that needed ``lstsq``, fell back
    to uniform weights, and hit the sweep cap.
    """
    r, k = c.shape
    W = np.full((r, k), 1.0 / k)
    if k == 1:
        return W, (0, 0, 0)
    free = np.ones((r, k), dtype=bool)
    used_lstsq = np.zeros(r, dtype=bool)
    live = np.arange(r)
    for _ in range(3 * k):
        if not live.size:
            break
        # KKT solutions scattered back to full length; fixed coordinates
        # hold 0 here and in W, so the updates below keep them at 0
        wf = np.zeros((live.size, k))
        mu = np.empty(live.size)
        nfree = free[live].sum(axis=1)
        for f in np.unique(nfree):
            pos = np.flatnonzero(nfree == f)
            rows = live[pos]
            idx = np.nonzero(free[rows])[1].reshape(pos.size, f)
            sol, retry = _kkt_solutions(G, c, rows, idx)
            used_lstsq[rows[retry]] = True
            wf[pos[:, None], idx] = sol[:, :f]
            mu[pos] = sol[:, f]
        fr = free[live]
        feasible = np.where(fr, wf, 0.0).min(axis=1) >= -_FEAS_TOL

        # feasible: take the solution, then free the most negative reduced
        # gradient among the fixed coordinates if it beats the tolerance
        at = live[feasible]
        W[at] = np.clip(wf[feasible], 0.0, None)
        # G @ w over the whole block reads G in place instead of copying
        # the rows taken; only those rows' products are used
        grad = (G @ W[:, :, None])[at, :, 0] - c[at]
        lam = np.where(fr[feasible], np.inf, grad + mu[feasible][:, None])
        j = np.argmin(lam, axis=1)
        enter = lam[np.arange(at.size), j] < -_DUAL_TOL
        free[at[enter], j[enter]] = True

        # infeasible: partial step to the first coordinate that hits zero
        at_step = live[~feasible]
        w_old = W[at_step]
        w_sol = wf[~feasible]
        blocked = fr[~feasible] & (w_sol < -_FEAS_TOL)
        ratios = np.full(blocked.shape, np.inf)
        np.divide(w_old, w_old - w_sol, out=ratios, where=blocked)
        pick = np.argmin(ratios, axis=1)
        ratio = ratios[np.arange(at_step.size), pick]
        alpha = np.where(ratio < 0.0, 0.0, ratio)[:, None]
        W[at_step] = np.clip(w_old + alpha * (w_sol - w_old), 0.0, None)
        W[at_step, pick] = 0.0
        free[at_step, pick] = False

        live = np.union1d(at[enter], at_step)
    capped = live.size

    total = W.sum(axis=1)
    usable = np.isfinite(total) & (total > 0.0)
    W[usable] /= total[usable, None]
    W[~usable] = 1.0 / k
    counts = (int(used_lstsq.sum()), int((~usable).sum()), capped)
    return W, counts


def solve_row_weights(x: np.ndarray, neighbor_matrix: np.ndarray) -> np.ndarray:
    """Simplex-constrained reconstruction weights for one entity.

    ``neighbor_matrix`` rows are the in-neighbors' feature vectors. The
    result is non-negative, sums to one, and no feasible reweighting can
    lower the reconstruction residual. Falls back to uniform weights only
    if the solver yields an unusable (non-finite or zero-sum) vector. A
    problem whose Gram matrix or target products overflow is rejected.
    """
    x = np.asarray(x, dtype=float)
    M = np.asarray(neighbor_matrix, dtype=float)
    if x.ndim != 1:
        raise ValidationError("target vector must be 1-D")
    if M.ndim != 2:
        raise ValidationError("neighbor matrix must be 2-D")
    k = M.shape[0]
    if k < 1:
        raise ValidationError("at least one neighbor is required")
    if M.shape[1] != x.size:
        raise ValidationError(
            f"dimension mismatch: target has {x.size} features, neighbors have {M.shape[1]}"
        )
    if not np.isfinite(x).all() or not np.isfinite(M).all():
        raise ValidationError("non-finite value in weight problem")
    with np.errstate(over="ignore", invalid="ignore"):
        G, c = (M @ M.T)[None], (M @ x)[None]
    if not _posed(G, c)[0]:
        raise ValidationError(_OVERFLOW)
    W, _ = _simplex_rows(G, c)
    return W[0]


def _first_bad_row(graph: NeighborGraph, X: np.ndarray, degrees: np.ndarray):
    """(row, message) of the first row whose problem cannot be posed, or None."""
    bad_vertex = ~np.isfinite(X).all(axis=1)
    bad = (degrees == 0) | bad_vertex
    owner = np.repeat(np.arange(graph.n), degrees)
    bad[owner[bad_vertex[graph.indices]]] = True
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if degrees[i] == 0:
        return i, "at least one neighbor is required"
    return i, "non-finite value in weight problem"


def assemble_weight_matrix(graph: NeighborGraph, domain: DomainMatrix) -> WeightMatrix:
    """Solve every row problem over the graph's in-neighbors.

    Rows of equal in-degree are solved together in blocks (see the module
    docstring); a row's zero weights are left out of the sparse support,
    so a vertex may end up with no weight anywhere (see
    ``WeightMatrix.zero_weight_columns``). A row whose products overflow is
    rejected; the error names the first such row.
    """
    if graph.n != domain.n:
        raise ValidationError(
            f"graph has {graph.n} vertices but domain matrix has {domain.n} rows"
        )
    X = domain.data
    n, d = X.shape
    degrees = graph.in_degrees()
    failure = _first_bad_row(graph, X, degrees)
    if failure is not None:
        i, message = failure
        raise ValidationError(f"row {i} ({domain.entities[i]}): {message}")

    # candidate weights laid out like the graph: row i owns [start[i], start[i+1])
    start, sources = graph.indptr, graph.indices
    values = np.empty(sources.size)
    counts = np.zeros(3, dtype=np.int64)
    overflow = n  # first row whose products overflow; n while there is none
    for k in np.unique(degrees).tolist():
        rows_k = np.flatnonzero(degrees == k)
        slots_k = start[rows_k][:, None] + np.arange(k)
        state_rows = max(1, _STATE_BYTES // (8 * k * k))
        gather_rows = max(1, _GATHER_BYTES // (8 * k * d))
        for lo in range(0, rows_k.size, state_rows):
            slots = slots_k[lo : lo + state_rows]
            rows = rows_k[lo : lo + state_rows]
            G = np.empty((rows.size, k, k))
            c = np.empty((rows.size, k))
            with np.errstate(over="ignore", invalid="ignore"):
                for a in range(0, rows.size, gather_rows):
                    part = slice(a, a + gather_rows)
                    M = X[sources[slots[part]]]
                    np.matmul(M, M.transpose(0, 2, 1), out=G[part])
                    np.matmul(M, X[rows[part], :, None], out=c[part, :, None])
            del M  # free the gathered vectors before the block solves
            posed = _posed(G, c)
            if not posed.all():
                overflow = min(overflow, int(rows[~posed][0]))
                continue
            W, block_counts = _simplex_rows(G, c)
            values[slots] = W
            counts += block_counts

    if overflow < n:
        raise ValidationError(f"row {overflow} ({domain.entities[overflow]}): {_OVERFLOW}")

    # the graph's layout; WeightMatrix drops the zero weights in place, so
    # the graph's arrays are copied
    matrix = sparse.csr_matrix((values, sources, start), shape=(n, n), copy=True)
    return WeightMatrix(matrix, *counts.tolist())


def write_coordinate_text(weights: WeightMatrix, path) -> None:
    """Dump the matrix as ``i j w`` lines, row-major, full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(weights.n):
            cols, vals = weights.row(i)
            for j, v in zip(cols.tolist(), vals.tolist()):
                fh.write(f"{i} {j} {v:.17g}\n")
