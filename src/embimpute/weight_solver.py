"""Per-row reconstruction weights on graph in-edges.

Each row solves a least-squares reconstruction of the entity's feature
vector from its in-neighbors' vectors under a standard simplex constraint
(non-negative weights summing to one), via an active-set method. Stacking
the rows yields a sparse row-stochastic matrix supported on graph in-edges.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .domain_geometry import DomainMatrix
from .errors import ValidationError
from .manifold_graph import NeighborGraph

logger = logging.getLogger(__name__)

_DUAL_TOL = 1e-10  # optimality threshold on the reduced gradient
_FEAS_TOL = 1e-12
_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightMatrix:
    """Sparse row-stochastic matrix; row i holds vertex i's neighbor weights."""

    matrix: sparse.csr_matrix

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

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and weights of row ``i``."""
        if not 0 <= i < self.n:
            raise ValidationError(f"row index {i} out of range for n={self.n}")
        m = self.matrix
        lo, hi = m.indptr[i], m.indptr[i + 1]
        return m.indices[lo:hi], m.data[lo:hi]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _kkt_solve(G: np.ndarray, c: np.ndarray, free_idx: np.ndarray):
    """Minimize the reconstruction quadratic over the free coordinates
    subject to their sum being one; returns (weights, multiplier)."""
    f = free_idx.size
    A = np.zeros((f + 1, f + 1))
    A[:f, :f] = G[np.ix_(free_idx, free_idx)]
    A[:f, f] = 1.0
    A[f, :f] = 1.0
    b = np.empty(f + 1)
    b[:f] = c[free_idx]
    b[f] = 1.0
    try:
        sol = np.linalg.solve(A, b)
        if not np.isfinite(sol).all():
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(A, b, rcond=None)[0]
    return sol[:f], sol[f]


def _simplex_lsq(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Active-set solve of min wᵀGw/2 - cᵀw over the standard simplex.

    Starts from the uniform point; each iteration either drops the first
    coordinate blocked at zero or frees the most negative reduced gradient.
    Equal candidates resolve to the smaller index for determinism.
    """
    k = c.size
    w = np.full(k, 1.0 / k)
    free = np.ones(k, dtype=bool)
    for _ in range(3 * k):
        idx = np.flatnonzero(free)
        wf, mu = _kkt_solve(G, c, idx)
        if wf.min(initial=0.0) >= -_FEAS_TOL:
            w = np.zeros(k)
            w[idx] = np.clip(wf, 0.0, None)
            grad = G @ w - c
            lam = grad + mu
            zero_idx = np.flatnonzero(~free)
            if zero_idx.size:
                j = zero_idx[np.argmin(lam[zero_idx])]
                if lam[j] < -_DUAL_TOL:
                    free[j] = True
                    continue
            return w
        # partial step to the first coordinate that hits zero
        w_old = w[idx]
        step = wf - w_old
        blocked = np.flatnonzero(wf < -_FEAS_TOL)
        ratios = w_old[blocked] / (w_old[blocked] - wf[blocked])
        pick = int(np.argmin(ratios))
        alpha = max(ratios[pick], 0.0)
        w[idx] = np.clip(w_old + alpha * step, 0.0, None)
        drop = idx[blocked[pick]]
        w[drop] = 0.0
        free[drop] = False
    return w


def solve_row_weights(x: np.ndarray, neighbor_matrix: np.ndarray) -> np.ndarray:
    """Simplex-constrained reconstruction weights for one entity.

    ``neighbor_matrix`` rows are the in-neighbors' feature vectors. The
    result is non-negative, sums to one, and no feasible reweighting can
    lower the reconstruction residual. Falls back to uniform weights only
    if the solver yields an unusable (non-finite or zero-sum) vector.
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
    if k == 1:
        return np.ones(1)

    w = _simplex_lsq(M @ M.T, M @ x)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        return np.full(k, 1.0 / k)
    return w / total


def assemble_weight_matrix(graph: NeighborGraph, domain: DomainMatrix) -> WeightMatrix:
    """Solve every row problem over the graph's in-neighbors.

    Rows are solved in index order; a row's zero weights are left out of
    the sparse support. Columns that end up with no weight anywhere are
    reported as a diagnostic; they do not break the diffusion, only its
    symmetry of influence.
    """
    if graph.n != domain.n:
        raise ValidationError(
            f"graph has {graph.n} vertices but domain matrix has {domain.n} rows"
        )
    X = domain.data
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    index_parts = []
    data_parts = []
    for i, srcs in enumerate(graph.incoming):
        try:
            w = solve_row_weights(X[i], X[srcs])
        except ValidationError as exc:
            raise ValidationError(f"row {i} ({domain.entities[i]}): {exc}") from exc
        keep = w > 0.0
        index_parts.append(srcs[keep])
        data_parts.append(w[keep])
        indptr[i + 1] = indptr[i] + int(keep.sum())
    indices = np.concatenate(index_parts)
    data = np.concatenate(data_parts)
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(graph.n, graph.n))

    empty_cols = np.flatnonzero(np.bincount(indices, minlength=graph.n) == 0)
    if empty_cols.size:
        shown = ", ".join(str(v) for v in empty_cols[:8])
        logger.warning(
            "%d vertices carry no weight in any row (e.g. %s); "
            "their vectors will not influence the imputation",
            empty_cols.size,
            shown,
        )
    return WeightMatrix(matrix)


def write_coordinate_text(weights: WeightMatrix, path) -> None:
    """Dump the matrix as ``i j w`` lines, row-major, full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(weights.n):
            cols, vals = weights.row(i)
            for j, v in zip(cols.tolist(), vals.tolist()):
                fh.write(f"{i} {j} {v:.17g}\n")
