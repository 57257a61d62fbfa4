"""Intrinsic evaluation at desk scale.

Leave-one-out k-NN categorization over labeled vectors, plus a synthetic
two-space experiment: points on a shared latent manifold are mapped into
an affinity space and a semantic space by independent linear maps, part of
the semantic side is hidden, and the pipeline's recovery is scored against
the ground truth and against a random-vector baseline.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .domain_geometry import _BLOCK_BYTES, DomainMatrix, _nearest_columns, _unit_scaled, cdist
from .errors import ValidationError, _check_integer, _check_real
from .imputation_engine import ImputationConfig, power_iterate
from .manifold_graph import _DELTA
from .pipeline import impute_aligned

_CENTER_SPREAD = 3.0
_KNN_K = 5  # neighbors per vote in the transfer experiments and the CLI


@dataclass(frozen=True)
class LabeledEmbeddings:
    """Vectors with integer label codes and their display names."""

    vectors: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))
        labels = np.asarray(self.labels)
        if self.vectors.ndim != 2:
            raise ValidationError("vectors must form a 2-D matrix")
        if labels.shape != (self.vectors.shape[0],):
            raise ValidationError("labels and vectors must have matching length")
        if labels.size == 0:
            raise ValidationError("at least one labeled vector is required")
        if labels.dtype.kind not in "iu":
            raise ValidationError(f"label codes must be integers, got dtype {labels.dtype}")
        object.__setattr__(self, "labels", labels.astype(int, copy=False))
        bad_rows = np.flatnonzero(~np.isfinite(self.vectors).all(axis=1))
        if bad_rows.size:
            raise ValidationError(f"non-finite value in vector row {int(bad_rows[0])}")
        if self.labels.min() < 0 or self.labels.max() >= len(self.label_names):
            raise ValidationError("label codes must index into label_names")


@dataclass(frozen=True)
class SyntheticTransferSpec:
    """Shape of a synthetic two-space instance."""

    n: int = 300
    p: int = 200
    manifold_dim: int = 4
    affinity_dim: int = 16
    semantic_dim: int = 12
    noise_sigma: float = 0.0
    n_labels: int = 5
    seed: int = 0

    def __post_init__(self):
        # stored as ints, so arithmetic on them cannot wrap in a small numpy type
        for name in ("n", "p", "manifold_dim", "affinity_dim", "semantic_dim", "n_labels"):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name, 1))
        if not 1 <= self.p < self.n:
            raise ValidationError("need 1 <= p < n")
        if self.manifold_dim < 1 or self.manifold_dim > min(
            self.affinity_dim, self.semantic_dim
        ):
            raise ValidationError(
                "manifold_dim must be between 1 and min(affinity_dim, semantic_dim)"
            )
        if self.n_labels < 2:
            raise ValidationError("need at least 2 labels")
        _check_real(self.noise_sigma, "noise_sigma")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValidationError("noise_sigma must be non-negative and finite")
        object.__setattr__(self, "seed", _check_integer(self.seed, "seed", 0))


@dataclass(frozen=True)
class TransferReport:
    n: int
    p: int
    k: int
    imputed_accuracy: float
    truth_accuracy: float
    baseline_accuracy: float
    iterations: int
    converged: bool

    @property
    def q(self) -> int:
        return self.n - self.p


def knn_accuracy(data: LabeledEmbeddings, k: int, subset=None) -> float:
    """Leave-one-out k-NN accuracy over the integer point indices ``subset``
    (default: all points).

    Each point is classified by majority vote of its k nearest other
    points in the full set, by Euclidean distance. Vote ties resolve to
    the label with the closest neighbor, then to the smaller label code;
    equal distances resolve to the smaller point index. The distances
    are taken between the vectors scaled by the power of two that puts
    their largest |value| in [1, 2) (``_unit_scaled``), so no square
    overflows, and vectors multiplied by 2^k score the same unless one
    of their values is subnormal. The subset is scored in row blocks of
    about ``_BLOCK_BYTES`` of distances.
    """
    m = data.vectors.shape[0]
    k = _check_integer(k, "k", 1, m - 1)  # each point needs k others
    if subset is None:
        subset = np.arange(m)
    else:
        subset = np.asarray(subset)
        if subset.size == 0:
            raise ValidationError("subset must not be empty")
        # a boolean mask or floats would be read as (truncated) indices
        if subset.ndim != 1 or subset.dtype.kind not in "iu":
            raise ValidationError(
                f"subset must be a 1-D array of integer indices, got {subset.ndim}-D {subset.dtype}"
            )
        subset = subset.astype(int, copy=False)
        if subset.min() < 0 or subset.max() >= m:
            raise ValidationError("subset index out of range")

    vectors = _unit_scaled(data.vectors)
    n_labels = len(data.label_names)
    rows = max(1, _BLOCK_BYTES // (8 * m))
    buf = np.empty(min(rows, subset.size) * m)
    correct = 0
    for lo in range(0, subset.size, rows):
        points = subset[lo : lo + rows]
        b = points.size
        dists = cdist(vectors[points], vectors)
        head = _nearest_columns(dists, k + 1, buf)
        # each row holds its own point once: drop it from the first k + 1
        # ranks, or drop rank k when a tie at distance 0 ranked it later
        keep = head != points[:, None]
        keep[keep.all(axis=1), k] = False
        neighbors = head[keep].reshape(b, k)
        votes = data.labels[neighbors]
        row = np.arange(b)[:, None]
        counts = np.bincount((row * n_labels + votes).ravel(), minlength=b * n_labels)
        counts = counts.reshape(b, n_labels)
        closest = np.full((b, n_labels), np.inf)
        np.minimum.at(closest, (row, votes), np.take_along_axis(dists, neighbors, axis=1))
        # among the labels with the most votes, the first (smallest code)
        # whose closest neighbor is nearest
        tied = counts == counts.max(axis=1, keepdims=True)
        nearest = np.where(tied, closest, np.inf).min(axis=1, keepdims=True)
        predicted = np.argmax(tied & (closest == nearest), axis=1)
        correct += int(np.count_nonzero(predicted == data.labels[points]))
    return correct / subset.size


@dataclass(frozen=True)
class TransferData:
    domain: DomainMatrix
    semantic: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]


def make_transfer_data(spec: SyntheticTransferSpec) -> TransferData:
    """Sample a latent clustered manifold and project it into both spaces.

    Labels are the Voronoi cells of the latent cluster centers. The same
    noise draws are consumed regardless of ``noise_sigma`` so instances
    with different noise levels stay aligned point-for-point.
    """
    rng = np.random.default_rng(spec.seed)
    centers = _CENTER_SPREAD * rng.normal(size=(spec.n_labels, spec.manifold_dim))
    assignment = rng.integers(spec.n_labels, size=spec.n)
    latent = centers[assignment] + rng.normal(size=(spec.n, spec.manifold_dim))
    labels = np.argmin(cdist(latent, centers), axis=1)

    scale = 1.0 / math.sqrt(spec.manifold_dim)
    to_affinity = scale * rng.normal(size=(spec.manifold_dim, spec.affinity_dim))
    to_semantic = scale * rng.normal(size=(spec.manifold_dim, spec.semantic_dim))
    affinity = latent @ to_affinity + spec.noise_sigma * rng.normal(
        size=(spec.n, spec.affinity_dim)
    )
    semantic = latent @ to_semantic + spec.noise_sigma * rng.normal(
        size=(spec.n, spec.semantic_dim)
    )
    entities = tuple(f"e{i:05d}" for i in range(spec.n))
    names = tuple(f"c{j}" for j in range(spec.n_labels))
    return TransferData(DomainMatrix(entities, affinity), semantic, labels, names)


def _hidden_accuracy(data: TransferData, vectors: np.ndarray, p: int, k: int) -> float:
    """k-NN accuracy over the points past the first ``p``."""
    hidden = np.arange(p, data.labels.size)
    return knn_accuracy(LabeledEmbeddings(vectors, data.labels, data.label_names), k, hidden)


def run_synthetic_transfer(
    spec: SyntheticTransferSpec,
    config: ImputationConfig | None = None,
    delta: int = _DELTA,
    k: int = _KNN_K,
) -> TransferReport:
    """Hide the last q semantic vectors, recover them, and score everything.

    Reports leave-one-out k-NN accuracy over the hidden points using the
    imputed vectors, the ground-truth vectors, and a Gaussian baseline
    drawn at the known block's scale.
    """
    # before any data is built
    delta = _check_integer(delta, "minimum degree", 1, spec.n - 1)
    k = _check_integer(k, "k", 1, spec.n - 1)
    data = make_transfer_data(spec)
    p, q = spec.p, spec.n - spec.p
    _, _, result, _ = impute_aligned(data.domain, data.semantic[:p], delta, config)

    baseline_rng = np.random.default_rng(spec.seed + 0x9E3779B9)
    baseline = data.semantic.copy()
    baseline[p:] = baseline_rng.normal(
        0.0, data.semantic[:p].std(), size=(q, spec.semantic_dim)
    )

    return TransferReport(
        n=spec.n,
        p=p,
        k=k,
        imputed_accuracy=_hidden_accuracy(data, result.Y, p, k),
        truth_accuracy=_hidden_accuracy(data, data.semantic, p, k),
        baseline_accuracy=_hidden_accuracy(data, baseline, p, k),
        iterations=result.iterations,
        converged=result.converged,
    )


def sensitivity_sweep(
    parameter: str,
    values,
    spec: SyntheticTransferSpec,
    config: ImputationConfig | None = None,
    delta: int = _DELTA,
    k: int = _KNN_K,
) -> list[tuple[float, float]]:
    """Re-run the transfer experiment varying one knob, all else fixed.

    ``parameter`` is ``"delta"`` or ``"eta"``; returns (value, imputed
    accuracy) pairs in input order. Before any data is built, each value
    is checked by the rule of its setting: a delta must be an integer from
    1 to ``spec.n - 1``, as the graph requires, and an eta must pass
    ``ImputationConfig``; the fixed ``delta`` of an eta sweep is checked as
    a swept one, and ``k`` as ``knn_accuracy`` checks it.
    The transfer data is built once; a delta sweep re-runs the imputation
    per value, an eta sweep solves the graph and weights once and re-runs
    only the diffusion. Only the imputed vectors are scored.
    """
    if parameter not in ("delta", "eta"):
        raise ValidationError(f"unknown sweep parameter '{parameter}'")
    values = list(values)
    if not values:
        raise ValidationError("sweep needs at least one value")
    config = config or ImputationConfig()
    if parameter == "delta":
        deltas = [_check_integer(value, "delta sweep value", 1, spec.n - 1) for value in values]
        configs = [config] * len(values)
    else:
        deltas = [_check_integer(delta, "minimum degree", 1, spec.n - 1)] * len(values)
        configs = [dataclasses.replace(config, eta=value) for value in values]
    k = _check_integer(k, "k", 1, spec.n - 1)
    data = make_transfer_data(spec)
    known = data.semantic[: spec.p]
    table, weights = [], None
    for value, run_delta, run_config in zip(values, deltas, configs):
        if parameter == "eta" and weights is not None:
            # eta only moves the diffusion: the graph and weights are solved once
            result = power_iterate(weights, known, run_config)
        else:
            _, weights, result, _ = impute_aligned(data.domain, known, run_delta, run_config)
        table.append((float(value), _hidden_accuracy(data, result.Y, spec.p, k)))
    return table
