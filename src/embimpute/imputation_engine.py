"""Anchored diffusion that fills in unknown embedding rows.

The vectors of the known entities stay frozen: the diffusion reads only
the weight rows of the unknown entities, so the rows of the known ones
never matter. Repeated multiplication by those rows drives the unknown
block to a fixed point that does not depend on its initialization,
exactly when the free block W_qq of those rows has no closed class
(``_closed_classes``); both solvers refuse a system with one. A sparse LU
solve of the same fixed point and an eigenvalue report, which reads only
the free block of the weights, serve verification and diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, ValidationError, _check_integer, _check_real
from .weight_solver import WeightMatrix, _identity_above

_DIAGNOSTIC_SIZE_CAP = 2000
# start noise per unit of the known block's mean |value|: scaling the known
# block by 2**k then scales every iterate by 2**k exactly
_INIT_SCALE = 0.1


@dataclass(frozen=True)
class ImputationConfig:
    """Knobs for the diffusion: stopping threshold, cap, and seeded init."""

    eta: float = 1e-2
    max_iter: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_real(self.eta, "eta")
        if not 0 < self.eta < math.inf:
            raise ValidationError("eta must be positive and finite")
        # stored as ints, so max_iter + 1 cannot wrap in a small numpy type
        object.__setattr__(self, "max_iter", _check_integer(self.max_iter, "max_iter", 1))
        object.__setattr__(self, "seed", _check_integer(self.seed, "seed", 0))


@dataclass(frozen=True)
class ImputationResult:
    """Full vector matrix with the known block preserved bit-for-bit.

    ``trace`` holds the relative change after each sweep; ``iterations``
    and ``final_relative_change`` are read from it (its length and its
    last entry, 0 and 0.0 when no sweep ran). ``converged`` means that
    change fell below eta; it bounds the last step, not the distance to
    the fixed point.
    """

    Y: np.ndarray
    converged: bool
    trace: tuple[float, ...] = ()

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def final_relative_change(self) -> float:
        return self.trace[-1] if self.trace else 0.0


@dataclass(frozen=True)
class SpectralReport:
    n: int
    n_known: int
    spectral_radius: float
    unit_eigenvalue_count: int
    free_block_spectral_radius: float


def fix_known_block(weights: WeightMatrix, n_known: int) -> WeightMatrix:
    """Replace the first ``n_known`` rows with identity rows.

    The remaining rows are unchanged, so the result is still row-stochastic
    while the known block no longer reacts to anything. Nothing in the
    package needs it: the solvers never read the known rows, the spectral
    report reads the free block alone, and ``assemble_weight_matrix``
    builds the same matrix given ``n_known`` without solving those rows.
    """
    n_known = _check_integer(n_known, "known-row count", 1, weights.n)
    return WeightMatrix(_identity_above(weights.matrix[n_known:], n_known))


def _validated_known(known: np.ndarray) -> np.ndarray:
    known = np.ascontiguousarray(known, dtype=float)
    if known.ndim != 2 or known.shape[1] < 1:
        raise ValidationError("known vectors must form a (p, s) matrix")
    if not np.isfinite(known).all():
        raise ValidationError("known vectors contain non-finite values")
    return known


def _closed_classes(m: sparse.csr_matrix, p: int) -> tuple[np.ndarray, int]:
    """Which free rows (past ``p``) lie in a closed class of W_qq, and how
    many closed classes W_qq has.

    A row's stored entries, explicit zeros included, are the rows it
    reads. A strongly connected class is closed when no row of it reads a
    row outside it. Its rows then reach no known row, and with unit row
    sums it is one eigenvalue 1 of W_qq, so W_qq contracts iff none is.
    """
    n, start = m.shape[0], m.indptr[p]
    # the free rows' entries over all n rows; a known row stores none, so
    # it is a closed class of its own
    indptr = np.maximum(m.indptr - start, 0)
    free = sparse.csr_matrix((m.data[start:], m.indices[start:], indptr), shape=(n, n))
    count, label = csgraph.connected_components(free, connection="strong")
    owner = np.repeat(label, np.diff(free.indptr))
    closed = np.ones(count, dtype=bool)
    closed[owner[owner != label[free.indices]]] = False
    return closed[label[p:]], int(closed.sum()) - p


def _fixed_system(weights: WeightMatrix, known: np.ndarray):
    """Validated (known, matrix, p, q); refuses a free row in a closed class."""
    known = _validated_known(known)
    p = known.shape[0]
    _check_integer(p, "known-row count", 1, weights.n)
    stuck = _closed_classes(weights.matrix, p)[0]
    if stuck.any():
        raise ConvergenceError(
            "some unknown rows are unreachable from the known block, "
            f"row {p + int(stuck.argmax())} among them; the fixed point is not unique"
        )
    return known, weights.matrix, p, weights.n - p


def power_iterate(
    weights: WeightMatrix,
    known: np.ndarray,
    config: ImputationConfig | None = None,
) -> ImputationResult:
    """Diffuse the known vectors into the unknown block.

    The first ``len(known)`` rows are the known entities; their weight
    rows are never read, so raw and ``fix_known_block`` weights give the
    same result. The unknown block starts from seeded Gaussian noise at
    ``_INIT_SCALE`` times the known block's mean |value| and is multiplied
    forward until the relative L1 change between sweeps drops below
    ``config.eta`` or the iteration cap is reached. A known block with
    some |value| of at least 1 is first scaled by the power of two that
    brings its largest below 1 and the unknown block is scaled back, so
    the result is the same bits wherever nothing overflows and is finite
    up to the largest doubles. A zero-norm iterate counts as infinite
    change rather than a division error. Every sweep's relative change is
    kept in the result's ``trace``. When W_qp Y_p is
    all zero (nothing to impute included), the free block's contraction
    makes zero the unique fixed point, returned exactly after no sweep.

    Raises ConvergenceError if some unknown row cannot be reached from the
    known block through the weight support, since the fixed point would
    then depend on the initialization.
    """
    config = config or ImputationConfig()
    known, m, p, q = _fixed_system(weights, known)
    # largest |value| below 1, so no sum of the stop rule overflows
    e = max(0, int(np.frexp(np.abs(known).max())[1]))
    unit = np.ldexp(known, -e)
    anchor_part = m[p:, :p] @ unit
    Y = np.concatenate([known, np.zeros_like(anchor_part)])
    if not anchor_part.any():
        return ImputationResult(Y, True)
    free_block = m[p:, p:].tocsr()
    rng = np.random.default_rng(config.seed)
    sigma = _INIT_SCALE * float(np.abs(unit).mean())
    yq = rng.normal(0.0, sigma, size=(q, known.shape[1]))

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

    Y[p:] = np.ldexp(yq, e)
    return ImputationResult(Y, converged, tuple(trace))


def closed_form_solve(weights: WeightMatrix, known: np.ndarray) -> np.ndarray:
    """Fixed point of the diffusion by sparse LU.

    Solves (I - W_qq) Y_q = W_qp Y_p and returns the unknown block
    directly. Like ``power_iterate`` it never reads the weight rows of the
    ``len(known)`` known entities, and refuses the systems it refuses.
    Exact up to rounding, at any size the factor fits in memory.
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
    """Eigenvalue report from the free block alone, for q <= 2000 free rows.

    With the known block fixed the matrix is [[I, 0], [W_qp, W_qq]], block
    lower-triangular, so its eigenvalues are ``n_known`` ones and those of
    W_qq. One dense eigensolve of W_qq gives its spectral radius (expected
    below one, which guarantees initialization-independent convergence).
    The unit eigenvalue count (expected: exactly ``n_known``) adds one per
    closed class of W_qq, counted exactly by ``_closed_classes``. The raw
    matrix's spectral radius is its largest row sum: for a non-negative
    matrix it lies between the smallest and largest row sum, and
    ``WeightMatrix`` holds every row sum within 1e-12 of one.
    """
    n = weights.n
    n_known = _check_integer(n_known, "known-row count", 1, n)
    if n - n_known > _DIAGNOSTIC_SIZE_CAP:
        raise ValidationError(
            f"spectral diagnostics capped at q={_DIAGNOSTIC_SIZE_CAP} free rows; "
            "this is a diagnostic, not a production path"
        )
    m = weights.matrix
    radius = float(m.sum(axis=1).max())
    eig = np.linalg.eigvals(m[n_known:, n_known:].toarray())
    unit_count = n_known + _closed_classes(m, n_known)[1]
    free_radius = float(np.abs(eig).max(initial=0.0))
    return SpectralReport(n, n_known, radius, unit_count, free_radius)
