import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from embimpute import (
    DomainMatrix,
    EmbeddingTable,
    ValidationError,
    correlation_domain_matrix,
    domain_geometry,
    euclidean_distance_matrix,
    impute_embeddings,
)
from test_manifold_graph import lattice

OVERFLOW = "distance matrix contains non-finite values"


def overflowing_rows(n=6, d=3):
    # rows near 1e160: every squared difference overflows to infinity
    return 1e160 * np.random.default_rng(12).normal(size=(n, d))


def overflow_at(n, first):
    """Rows near 0 plus rows ``first`` and ``first + 1`` at +-1e154: only
    their own pair overflows, (2e154)^2 > 1.8e308."""
    data = np.random.default_rng(13).normal(size=(n, 3))
    data[first : first + 2, 0] = [1e154, -1e154]
    bad = np.argwhere(~np.isfinite(cdist(data, data)))
    assert sorted(map(tuple, bad.tolist())) == [(first, first + 1), (first + 1, first)]
    return data


def naive_distance_matrix(data):
    """Element-by-element double loop, the independent oracle."""
    n = data.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(data.shape[1]):
                acc += (data[i, k] - data[j, k]) ** 2
            out[i, j] = acc ** 0.5
    return out


def textbook_pearson(filled):
    """Two-pass mean/covariance Pearson formula, the independent oracle."""
    n, T = filled.shape
    out = np.empty((n, n))
    means = [sum(row) / T for row in filled]
    for i in range(n):
        for j in range(n):
            cov = sxx = syy = 0.0
            for t in range(T):
                a = filled[i, t] - means[i]
                b = filled[j, t] - means[j]
                cov += a * b
                sxx += a * a
                syy += b * b
            out[i, j] = cov / (sxx ** 0.5 * syy ** 0.5)
    return out


class TestDomainMatrix:
    def test_rejects_single_entity(self):
        with pytest.raises(ValidationError):
            DomainMatrix(("a",), [[1.0, 2.0]])

    def test_rejects_duplicate_entities(self):
        with pytest.raises(ValidationError, match="unique"):
            DomainMatrix(("a", "a"), [[1.0], [2.0]])

    def test_rejects_nonfinite_naming_row(self):
        with pytest.raises(ValidationError, match=r"row 1 \(b\)"):
            DomainMatrix(("a", "b"), [[1.0], [np.nan]])


class TestEuclideanDistanceMatrix:
    def test_right_triangle(self):
        dm = DomainMatrix(("a", "b", "c"), [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        D = euclidean_distance_matrix(dm)
        assert np.array_equal(D, [[0, 3, 4], [3, 0, 5], [4, 5, 0]])

    def test_coincident_points(self):
        dm = DomainMatrix(("a", "b"), [[1.5, -2.0], [1.5, -2.0]])
        assert euclidean_distance_matrix(dm)[0, 1] == 0.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(10, 5))
        D = euclidean_distance_matrix(data)
        assert np.abs(D - naive_distance_matrix(data)).max() < 1e-12

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(4)
        D = euclidean_distance_matrix(rng.normal(size=(30, 7)))
        assert np.array_equal(D, D.T)
        assert not np.diagonal(D).any()
        assert D.min() >= 0

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(5)
        D = euclidean_distance_matrix(rng.normal(size=(40, 6)))
        for _ in range(500):
            i, j, k = rng.integers(40, size=3)
            assert D[i, j] <= D[i, k] + D[k, j] + 1e-9

    def test_permutation_conjugation(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(12, 4))
        perm = rng.permutation(12)
        D = euclidean_distance_matrix(data)
        assert np.array_equal(
            euclidean_distance_matrix(data[perm]), D[np.ix_(perm, perm)]
        )

    def test_rejects_nonfinite_bare_array(self):
        data = np.ones((3, 2))
        data[2, 0] = np.inf
        with pytest.raises(ValidationError, match="row 2"):
            euclidean_distance_matrix(data)


DISTANCE_INPUTS = {
    "two_rows": lambda: np.array([[0.0, 1.0], [3.0, -4.0]]),
    "random_37x5": lambda: np.random.default_rng(14).normal(size=(37, 5)),
    "random_10x4": lambda: np.random.default_rng(15).normal(size=(10, 4)),
    "duplicate_rows": lambda: np.tile(np.random.default_rng(16).normal(size=(15, 3)), (3, 1)),
    "lattice_ties": lambda: lattice(7, 7),
    "random_2048x16": lambda: np.random.default_rng(17).normal(size=(2048, 16)),
}


class TestCdistImport:
    def test_scipy_spatial_loads_on_the_first_cdist_call(self):
        code = (
            "import sys, embimpute, embimpute.cli\n"
            "assert not [m for m in sys.modules if m.startswith('scipy.spatial')]\n"
            "assert embimpute.domain_geometry.cdist([[0.0]], [[3.0]]).tolist() == [[3.0]]\n"
            "assert 'scipy.spatial.distance' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestBitsEqualCdist:
    @pytest.mark.parametrize("name", sorted(DISTANCE_INPUTS))
    def test_bits_equal_cdist(self, name):
        data = DISTANCE_INPUTS[name]()
        assert np.array_equal(euclidean_distance_matrix(data), cdist(data, data))


class TestSquaredDistanceKeys:
    # 1023 rows: float32 keys just under 4 MiB, from the heap; 1024:
    # exactly 4 MiB, on a mapping of their own
    @pytest.mark.parametrize("n, owned", [(1023, False), (1024, True)])
    def test_keys_within_margin_of_cdist_squared(self, n, owned):
        data = np.random.default_rng(n).normal(size=(n, 5))
        keys, margin, exact = domain_geometry._squared_distance_keys(DomainMatrix(range(n), data))
        assert keys.dtype == np.float32 and keys.nbytes == 4 * n * n
        assert (keys.base is not None) == owned  # np.empty owns its data
        assert keys.flags.writeable and keys.shape == (n, n)
        assert not np.diagonal(keys).any()
        # 2^-e puts 4 max|x|^2 in [1/2, 1)
        scale = 2.0 ** -math.frexp(4 * np.einsum("ij,ij->i", data, data).max())[1]
        D = cdist(data, data)
        # stored with relative rounding u = rho / 2 (1 - u) <= rho / 2
        rho = domain_geometry._STORAGE_ROUNDING[keys.dtype]
        assert np.all(np.abs(keys - D**2 * scale) <= rho / 2 * keys + margin)
        rows, cols = np.array([0, n - 1]), np.arange(0, n, 7)
        assert np.array_equal(exact(rows, cols), D[np.ix_(rows, cols)])


class TestDistanceOverflow:
    @pytest.mark.parametrize("n", [2, 6])
    def test_bare_array(self, n):
        data = overflowing_rows(n)
        with pytest.raises(ValidationError) as info:
            euclidean_distance_matrix(data)
        assert str(info.value) == OVERFLOW

    def test_domain_matrix(self):
        domain = DomainMatrix(tuple("abcdef"), overflowing_rows())
        with pytest.raises(ValidationError) as info:
            euclidean_distance_matrix(domain)
        assert str(info.value) == OVERFLOW

    @pytest.mark.parametrize("first", [20, 35])  # middle rows, the last two
    def test_one_overflowing_pair(self, first):
        data = overflow_at(37, first)
        with pytest.raises(ValidationError) as info:
            euclidean_distance_matrix(data)
        assert str(info.value) == OVERFLOW

    def test_impute_embeddings(self):
        entities = tuple(f"e{i}" for i in range(6))
        domain = DomainMatrix(entities, overflowing_rows())
        table = EmbeddingTable(2, {e: [1.0, 2.0] for e in entities[:3]})
        with pytest.raises(ValidationError) as info:
            impute_embeddings(domain, table, delta=2)
        assert str(info.value) == OVERFLOW


class TestCorrelationDomainMatrix:
    def test_perfectly_correlated_pair(self):
        a = np.linspace(0.0, 1.0, 20)
        dm = correlation_domain_matrix(["x", "y"], np.vstack([a, 2 * a + 1]))
        assert np.allclose(dm.data, 1.0)
        assert euclidean_distance_matrix(dm)[0, 1] < 1e-12

    def test_anticorrelated_pair(self):
        a = np.sin(np.arange(30.0))
        dm = correlation_domain_matrix(["x", "y"], np.vstack([a, -a]))
        assert np.allclose(dm.data, [[1, -1], [-1, 1]], atol=1e-12)

    def test_matches_twopass_oracle_with_missing(self):
        rng = np.random.default_rng(7)
        returns = rng.normal(size=(5, 50))
        mask = rng.random((5, 50)) < 0.10
        masked = returns.copy()
        masked[mask] = np.nan

        # spreadsheet-style fill: per-column mean of observed values
        filled = masked.copy()
        for t in range(50):
            col = filled[:, t]
            observed = col[~np.isnan(col)]
            col[np.isnan(col)] = observed.mean()

        dm = correlation_domain_matrix(["a", "b", "c", "d", "e"], masked)
        assert np.abs(dm.data - textbook_pearson(filled)).max() < 1e-10

    def test_drops_rows_over_missing_threshold(self):
        rng = np.random.default_rng(8)
        returns = rng.normal(size=(4, 10))
        returns[1, :3] = np.nan  # 30% missing: dropped at the 0.2 threshold
        returns[2, :2] = np.nan  # exactly 20%: retained
        dm = correlation_domain_matrix(["a", "b", "c", "d"], returns)
        assert dm.entities == ("a", "c", "d")
        assert dm.data.shape == (3, 3)

    def test_all_missing_column_rejected(self):
        rng = np.random.default_rng(11)
        returns = rng.normal(size=(2, 10))
        returns[:, 2] = np.nan  # 10% per row: under the drop threshold
        with pytest.raises(ValidationError, match="column 2"):
            correlation_domain_matrix(["a", "b"], returns)

    def test_zero_variance_row_rejected_with_entity(self):
        returns = np.vstack([np.ones(10), np.arange(10.0)])
        with pytest.raises(ValidationError, match="'flat'"):
            correlation_domain_matrix(["flat", "ok"], returns)

    def test_unit_diagonal_and_range(self):
        rng = np.random.default_rng(9)
        returns = rng.normal(size=(8, 40))
        returns[rng.random((8, 40)) < 0.05] = np.nan
        dm = correlation_domain_matrix([f"e{i}" for i in range(8)], returns)
        assert np.array_equal(np.diagonal(dm.data), np.ones(8))
        assert dm.data.min() >= -1.0 and dm.data.max() <= 1.0

    def test_missing_threshold_is_not_a_parameter(self):
        returns = np.random.default_rng(12).normal(size=(3, 10))
        with pytest.raises(TypeError, match="max_missing_fraction"):
            correlation_domain_matrix(["a", "b", "c"], returns, max_missing_fraction=0.2)

    def test_too_few_observations(self):
        with pytest.raises(ValidationError, match="observations"):
            correlation_domain_matrix(["a", "b"], np.ones((2, 1)))
