"""Per-row reconstruction weights on graph in-edges.

Each row solves a least-squares reconstruction of the entity's feature
vector from its in-neighbors' vectors under a standard simplex
constraint (non-negative weights summing to one), via an active-set
method. Stacking the rows yields a sparse row-stochastic matrix
supported on graph in-edges.

A row's problem is posed on the neighbors' offsets m_j − x from the
target: for weights summing to one the residual is wᵀGw with
G = (M − x)(M − x)ᵀ, which no common shift of the domain changes. Each
row starts at its best vertex, the e_j of least G_jj, with only j free,
and grows its support the way Lawson and Hanson's NNLS and Wolfe's
minimum-norm-point method do: a coordinate enters while its reduced
gradient is below -1e-10 times the row's largest diagonal entry of G, so
the path depends neither on the domain's scale nor on its offset. The
rows are read as ``_unit_scaled`` leaves them, every |value| below 2, so
no offset product overflows. Each row's G is then scaled by the power of
two that puts its largest diagonal entry in [1/2, 1): its KKT systems
border G with ones, so this puts G on their scale and gives a row the
same bits whatever power of two scales its vectors. Optimal supports are
small (a few of k), so this takes few sweeps on small systems, and a
support grown this way stays affinely independent, so its KKT systems
are not singular in exact arithmetic. The weights are an optimum, but
where k exceeds the affine rank of the neighbors' vectors the optimum
need not be unique; they are the one this path reaches.

Only the rows the diffusion reads are solved. Given ``n_known``,
``assemble_weight_matrix`` writes the first ``n_known`` rows, the known
entities, as identity rows without posing their problems, so it returns
the frozen matrix [[I, 0], [W_qp, W_qq]] directly; the default 0 solves
every row. A row's bits do not depend on which rows share its block
(below), so leaving the known rows out changes no solved row.

Rows are solved in lockstep. ``assemble_weight_matrix`` takes the solved
rows of one in-degree k at a time, forms their Gram matrices in blocks of
rows, and advances every row of a block through the same active-set
sweep: at most 3k sweeps, each one KKT solve per row followed by a
masked step. Within a sweep the rows are grouped by the size f of their
free set, and each group's (f + 1) × (f + 1) KKT systems go to LAPACK in
one stacked ``np.linalg.solve`` call. Grouping by f instead of padding
every system to size k + 1 means each LAPACK and BLAS call sees exactly
the operands that a row solved on its own would, so the weights are
bit-identical to solving the rows one at a time; ``solve_row_weights``
is that one-row call into the same code. A singular system makes the
stacked call raise; the group's systems are then solved one at a time,
and each singular one goes to ``lstsq``. The Gram gather (k·d values per
row) and the lockstep state (k·k per row) are blocked separately, each
in blocks of ``_BLOCK_BYTES``, 1 MiB, so the extra memory stays near
2 MiB whatever n and d are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .domain_geometry import _BLOCK_BYTES, DomainMatrix, _unit_scaled
from .errors import ValidationError, _check_integer
from .manifold_graph import NeighborGraph

_DUAL_TOL = 1e-10  # reduced-gradient threshold, relative to the row's max diag(G)
_FEAS_TOL = 1e-12  # absolute: weights lie in [0, 1] whatever the scale
_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightMatrix:
    """Sparse row-stochastic matrix; row i holds vertex i's neighbor weights.

    The counters record how many solved rows the solver could not finish
    by its main path: rows that needed ``lstsq`` for a singular or
    non-finite KKT system, rows that fell back to uniform weights, and
    rows stopped by the 3k sweep cap. They are zero for a matrix built by
    hand and never count the identity rows of a known block.
    """

    matrix: sparse.csr_matrix
    lstsq_fallbacks: int = 0
    uniform_fallbacks: int = 0
    capped_rows: int = 0

    def __post_init__(self):
        # a copy: the normalization below sorts and drops zeros in place
        m = sparse.csr_matrix(self.matrix, copy=True)
        if m.shape[0] != m.shape[1]:
            raise ValidationError("weight matrix must be square")
        m.sort_indices()
        m.eliminate_zeros()
        # a NaN fails both comparisons below, so it is caught first
        if not np.isfinite(m.data).all():
            raise ValidationError("weight matrix entries must be finite")
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
        """Columns with no off-diagonal weight.

        Such vertices do not break the diffusion, but their vectors
        influence no other entity. A solved row never weighs its own
        entity, so only the identity rows of a known block hold diagonal
        entries, and they count for nothing.
        """
        m = self.matrix
        rows = np.repeat(np.arange(self.n), np.diff(m.indptr))
        weighted = np.bincount(m.indices[m.indices != rows], minlength=self.n)
        return int(np.count_nonzero(weighted == 0))

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and weights of row ``i``."""
        i = _check_integer(i, "row index", 0, self.n - 1)
        m = self.matrix
        lo, hi = m.indptr[i], m.indptr[i + 1]
        return m.indices[lo:hi], m.data[lo:hi]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _stacked_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` over a stack, with NaN for each singular system.

    A singular system makes the stacked call raise; the systems are then
    solved one at a time. Each system is factored on its own either way,
    so its bits do not depend on the rest of the stack.
    """
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        pass
    x = np.full(b.shape, np.nan)
    for t in range(len(A)):
        try:
            x[t] = np.linalg.solve(A[t], b[t])
        except np.linalg.LinAlgError:
            pass
    return x


def _kkt_solutions(G, rows, free_idx):
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
    b = np.zeros((g, f + 1, 1))
    b[:, f, 0] = 1.0
    sol = _stacked_solve(A, b)[:, :, 0]
    retry = np.flatnonzero(~np.isfinite(sol).all(axis=1))
    for t in retry:
        sol[t] = np.linalg.lstsq(A[t], b[t, :, 0], rcond=None)[0]
    return sol, retry


def _simplex_rows(G: np.ndarray):
    """Active-set solve of min wᵀGw/2 over the standard simplex for every
    stacked row problem at once, normalized to sum one.

    ``G`` is (r, k, k) and is scaled in place. Each row starts at its best
    vertex with one coordinate free; each sweep either drops the first
    coordinate blocked at zero or frees the most negative reduced
    gradient, for at most 3k sweeps. Equal candidates resolve to the
    smaller index. Returns the (r, k) weights and the counts of rows that
    needed ``lstsq``, fell back to uniform weights, and hit the sweep cap.
    """
    r, k = G.shape[:2]
    diag = np.diagonal(G, axis1=1, axis2=2)  # a view, so it is scaled too
    # exact scaling to a largest diagonal entry in [1/2, 1)
    np.ldexp(G, -np.frexp(diag.max(axis=1))[1][:, None, None], out=G)
    # the vertex e_j of least objective G_jj/2, smaller j on ties
    best = np.argmin(diag, axis=1)
    W = np.zeros((r, k))
    W[np.arange(r), best] = 1.0
    free = W > 0.0
    # the reduced gradient scales with G, so its threshold does too
    dual_tol = _DUAL_TOL * diag.max(axis=1)
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
        for f in np.flatnonzero(np.bincount(nfree)):
            pos = np.flatnonzero(nfree == f)
            rows = live[pos]
            idx = np.nonzero(free[rows])[1].reshape(pos.size, f)
            sol, retry = _kkt_solutions(G, rows, idx)
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
        grad = (G @ W[:, :, None])[at, :, 0]
        lam = np.where(fr[feasible], np.inf, grad + mu[feasible][:, None])
        j = np.argmin(lam, axis=1)
        enter = lam[np.arange(at.size), j] < -dual_tol[at]
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

        going = np.zeros(r, dtype=bool)
        going[at[enter]] = True
        going[at_step] = True
        live = np.flatnonzero(going)
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
    non-finite input is rejected; otherwise the vectors are read
    unit-scaled, so any power of two on them gives the same weights,
    but where a value is subnormal.
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
    rows = np.vstack([M, x])
    if not np.isfinite(rows).all():
        raise ValidationError("non-finite value in the target or neighbor vectors")
    rows = _unit_scaled(rows)
    offsets = rows[:k] - rows[k]
    W, _ = _simplex_rows((offsets @ offsets.T)[None])
    return W[0]


def _identity_above(free: sparse.csr_matrix, n_known: int) -> sparse.csr_matrix:
    """``n_known`` identity rows stacked above the CSR rows ``free``, kept entry for entry."""
    n = free.shape[1]
    data = np.concatenate([np.ones(n_known), free.data])
    indices = np.concatenate([np.arange(n_known), free.indices])
    indptr = np.concatenate([np.arange(n_known), free.indptr + n_known])
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_weight_matrix(
    graph: NeighborGraph, domain: DomainMatrix, n_known: int = 0
) -> WeightMatrix:
    """Solve the row problem of every entity past the first ``n_known``.

    Rows below ``n_known`` are the known entities: they become identity
    rows, the frozen block [[I, 0], [W_qp, W_qq]] the diffusion iterates
    on, and are never gathered or solved, so they need no in-neighbor.
    The result equals ``fix_known_block(assemble_weight_matrix(graph,
    domain), n_known)`` bit for bit, and its counters count the solved
    rows only. Rows of equal in-degree are solved together in blocks (see
    the module docstring); a row's zero weights are left out of the sparse
    support, so a vertex may end up with no weight in any other row (see
    ``WeightMatrix.zero_weight_columns``). A solved row with no
    in-neighbor, then a domain row with a non-finite value, is rejected
    by its first index. The rows are read unit-scaled, as the pipeline
    passes them, so any power of two on the domain gives the same bits,
    but where a value is subnormal.
    """
    if graph.n != domain.n:
        raise ValidationError(
            f"graph has {graph.n} vertices but domain matrix has {domain.n} rows"
        )
    X = domain.data
    n, d = X.shape
    n_known = _check_integer(n_known, "known-row count", 0, n)
    degrees = graph.in_degrees()[n_known:]
    if not degrees.all():
        i = n_known + int(np.argmin(degrees))  # the first zero
        raise ValidationError(f"row {i} ({domain.entities[i]}): at least one neighbor is required")
    # the data is not copied, so it may have changed since it was validated
    if not np.isfinite(X).all():
        i = int(np.argmin(np.isfinite(X).all(axis=1)))  # the first non-finite row
        raise ValidationError(f"row {i} ({domain.entities[i]}): non-finite value")
    X = _unit_scaled(X)

    # candidate weights laid out like the graph: row i owns [start[i], start[i+1])
    start, sources = graph.indptr, graph.indices
    values = np.empty(sources.size)
    counts = np.zeros(3, dtype=np.int64)
    for k in np.flatnonzero(np.bincount(degrees)).tolist():
        rows_k = n_known + np.flatnonzero(degrees == k)
        slots_k = start[rows_k][:, None] + np.arange(k)
        state_rows = max(1, _BLOCK_BYTES // (8 * k * k))
        gather_rows = max(1, _BLOCK_BYTES // (8 * k * d))
        for lo in range(0, rows_k.size, state_rows):
            slots = slots_k[lo : lo + state_rows]
            rows = rows_k[lo : lo + state_rows]
            G = np.empty((rows.size, k, k))
            for a in range(0, rows.size, gather_rows):
                part = slice(a, a + gather_rows)
                M = X[sources[slots[part]]]
                M -= X[rows[part], None, :]
                np.matmul(M, M.transpose(0, 2, 1), out=G[part])
            del M  # free the gathered vectors before the block solves
            W, block_counts = _simplex_rows(G)
            values[slots] = W
            counts += block_counts

    # the solved rows in the graph's layout (known slots unwritten) under identity rows
    free = sparse.csr_matrix((values, sources, start), shape=(n, n))[n_known:]
    return WeightMatrix(_identity_above(free, n_known), *counts.tolist())


def write_coordinate_text(weights: WeightMatrix, path) -> None:
    """Dump the matrix as ``i j w`` lines, row-major, full precision."""
    m = weights.matrix
    rows = np.repeat(np.arange(weights.n), np.diff(m.indptr))
    entries = zip(rows.tolist(), m.indices.tolist(), m.data.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("%d %d %.17g\n" % entry for entry in entries)
