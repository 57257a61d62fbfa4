"""Anchored diffusion that fills in unknown embedding rows.

Rows for known entities are rewritten to identity so their vectors stay
frozen; repeated multiplication by the resulting matrix drives the unknown
block to a fixed point that does not depend on its initialization. A sparse
LU solve of the same fixed point and an eigenvalue report are provided for
verification and diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, ValidationError
from .manifold_graph import reached_from_anchors
from .weight_solver import WeightMatrix

_UNIT_EIGENVALUE_TOL = 1e-6
_DIAGNOSTIC_SIZE_CAP = 2000


@dataclass
class ImputationConfig:
    """Knobs for the diffusion: stopping threshold, cap, and seeded init."""

    eta: float = 1e-2
    max_iter: int = 1000
    seed: int = 0
    init_sigma: float = 0.1

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ValidationError("eta must be positive and finite")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if not 0 <= self.init_sigma < math.inf:
            raise ValidationError("init_sigma must be non-negative and finite")


@dataclass
class ImputationResult:
    """Full vector matrix with the known block preserved bit-for-bit.

    ``trace`` holds the relative change after each sweep, so it has
    ``iterations`` entries and ends with ``final_relative_change``.
    ``converged`` means that change fell below eta; it bounds the last
    step, not the distance to the fixed point.
    """

    Y: np.ndarray
    iterations: int
    final_relative_change: float
    converged: bool
    trace: tuple[float, ...] = ()


@dataclass(frozen=True)
class SpectralReport:
    n: int
    n_known: int
    spectral_radius: float
    unit_eigenvalue_count: int
    free_block_spectral_radius: float


def _check_range(n_known: int, n: int) -> None:
    if not 0 < n_known <= n:
        raise ValidationError(f"known-row count {n_known} out of range for n={n}")


def fix_known_block(weights: WeightMatrix, n_known: int) -> WeightMatrix:
    """Replace the first ``n_known`` rows with identity rows.

    The remaining rows are unchanged, so the result is still row-stochastic
    while the known block no longer reacts to anything.
    """
    _check_range(n_known, weights.n)
    top = sparse.eye(n_known, weights.n, format="csr")
    bottom = weights.matrix[n_known:, :]
    return WeightMatrix(sparse.vstack([top, bottom], format="csr"))


def _has_identity_block(m: sparse.csr_matrix, p: int) -> bool:
    head = m[:p, :]
    return (
        head.nnz == p
        and np.array_equal(head.indices, np.arange(p))
        and bool((head.data == 1.0).all())
    )


def _validated_known(known: np.ndarray) -> np.ndarray:
    known = np.ascontiguousarray(known, dtype=float)
    if known.ndim != 2 or known.shape[1] < 1:
        raise ValidationError("known vectors must form a (p, s) matrix")
    if not np.isfinite(known).all():
        raise ValidationError("known vectors contain non-finite values")
    return known


def _fixed_system(weights: WeightMatrix, known: np.ndarray):
    """Validated (known, matrix, p, q) of a system whose known block is fixed."""
    known = _validated_known(known)
    p = known.shape[0]
    _check_range(p, weights.n)
    m = weights.matrix
    if not _has_identity_block(m, p):
        raise ValidationError(
            "weight rows for known entities must be identity; call fix_known_block first"
        )
    return known, m, p, weights.n - p


def power_iterate(
    weights: WeightMatrix,
    known: np.ndarray,
    config: ImputationConfig | None = None,
) -> ImputationResult:
    """Diffuse the known vectors into the unknown block.

    ``weights`` must already have its known block fixed to identity. The
    unknown block starts from seeded Gaussian noise and is multiplied
    forward until the relative L1 change between sweeps drops below
    ``config.eta`` or the iteration cap is reached. A zero-norm iterate
    counts as infinite change rather than a division error. Every sweep's
    relative change is kept in the result's ``trace``.

    Raises ConvergenceError if some unknown row cannot be reached from the
    known block through the weight support, since the fixed point would
    then depend on the initialization.
    """
    config = config or ImputationConfig()
    known, m, p, q = _fixed_system(weights, known)
    if q == 0:
        return ImputationResult(known.copy(), 0, 0.0, True)
    if not reached_from_anchors(m, p):
        raise ConvergenceError(
            "some unknown rows are unreachable from the known block; "
            "the diffusion would not converge deterministically"
        )

    anchor_part = m[p:, :p] @ known
    free_block = m[p:, p:].tocsr()
    rng = np.random.default_rng(config.seed)
    yq = rng.normal(0.0, config.init_sigma, size=(q, known.shape[1]))

    trace = []
    converged = False
    for t in range(1, config.max_iter + 1):
        new = anchor_part + free_block @ yq
        if not np.isfinite(new).all():
            raise ConvergenceError(f"non-finite values produced at iteration {t}")
        num = float(np.abs(new - yq).sum())
        den = float(np.abs(yq).sum())
        rel = math.inf if den == 0.0 else num / den
        yq = new
        trace.append(rel)
        if rel < config.eta:
            converged = True
            break

    Y = np.empty((p + q, known.shape[1]))
    Y[:p] = known
    Y[p:] = yq
    return ImputationResult(Y, len(trace), trace[-1], converged, tuple(trace))


def closed_form_solve(weights: WeightMatrix, known: np.ndarray) -> np.ndarray:
    """Fixed point of the diffusion by sparse LU.

    Solves (I - W_qq) Y_q = W_qp Y_p and returns the unknown block
    directly. Exact up to rounding, at any size the factor fits in memory.
    """
    known, m, p, q = _fixed_system(weights, known)
    if q == 0:
        return np.zeros((0, known.shape[1]))
    system = sparse.eye(q, format="csc") - m[p:, p:].tocsc()
    rhs = m[p:, :p] @ known
    try:
        solution = splu(system).solve(rhs)
    except RuntimeError as exc:
        raise ConvergenceError(
            f"fixed-point system is singular ({exc}); the free block does not contract"
        ) from exc
    if not np.isfinite(solution).all():
        raise ConvergenceError("fixed-point solve produced non-finite values")
    return solution


def spectral_diagnostics(weights: WeightMatrix, n_known: int) -> SpectralReport:
    """Dense eigenvalue report for moderate-size systems.

    Reports the spectral radius of the raw matrix, how many eigenvalues sit
    at one after fixing the known block (expected: exactly ``n_known``),
    and the spectral radius of the free-block submatrix (expected below
    one, which is what guarantees initialization-independent convergence).
    """
    n = weights.n
    if n > _DIAGNOSTIC_SIZE_CAP:
        raise ValidationError(
            f"spectral diagnostics capped at n={_DIAGNOSTIC_SIZE_CAP}; "
            "this is a diagnostic, not a production path"
        )
    _check_range(n_known, n)
    dense = weights.matrix.toarray()
    radius = float(np.abs(np.linalg.eigvals(dense)).max())

    fixed = dense.copy()
    fixed[:n_known, :] = 0.0
    fixed[np.arange(n_known), np.arange(n_known)] = 1.0
    eig_fixed = np.linalg.eigvals(fixed)
    unit_count = int((np.abs(eig_fixed - 1.0) < _UNIT_EIGENVALUE_TOL).sum())

    q = n - n_known
    if q:
        free_radius = float(
            np.abs(np.linalg.eigvals(dense[n_known:, n_known:])).max()
        )
    else:
        free_radius = 0.0
    return SpectralReport(n, n_known, radius, unit_count, free_radius)
