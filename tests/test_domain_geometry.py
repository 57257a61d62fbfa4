import math
import subprocess
import sys
import warnings

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


def spreadsheet_fill(returns):
    """The rows kept at the 20% missing threshold, as a mask, and their
    series with each missing cell filled by the mean of its column's
    observed values over those rows."""
    keep = np.isnan(returns).mean(axis=1) <= 0.2
    filled = returns[keep].copy()
    for t in range(filled.shape[1]):
        col = filled[:, t]
        observed = col[~np.isnan(col)]
        col[np.isnan(col)] = observed.mean()
    return keep, filled


def squared_distance_bound(n, T):
    """``correlation_domain_matrix``'s bound, 16 (n + T) n u, on how far a
    squared distance of its rows, over 4^s, lies from that of the rows of
    the correlation matrix C."""
    return 16 * (n + T) * n * 2.0**-53


def assert_pearson_geometry(data, filled):
    """The rows of ``data`` lie in [1, 2) in |value| and are 2^s times rows
    with the pairwise distances of the rows of the two-pass Pearson matrix
    of ``filled``, within the bound on squared distances."""
    assert 1.0 <= np.abs(data).max() < 2.0
    C = textbook_pearson(filled)
    # the row norms are C's times 2^s, up to rounding
    s = round(math.log2(np.linalg.norm(data, axis=1).max() / np.linalg.norm(C, axis=1).max()))
    gap = np.abs(np.ldexp(cdist(data, data), -s) ** 2 - cdist(C, C) ** 2).max()
    assert gap <= squared_distance_bound(*filled.shape), (gap, s)


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


class TestUnitScaled:
    @pytest.mark.parametrize("top", [1.0, 1.5, -1.0, -2.0 + 2.0**-52])
    def test_rows_in_range_are_not_copied(self, top):
        data = np.array([[0.25, top], [-0.5, 0.0]])
        assert domain_geometry._unit_scaled(data) is data

    def test_zero_and_empty_matrices_are_not_copied(self):
        for data in (np.zeros((3, 2)), np.zeros((3, 0))):
            assert domain_geometry._unit_scaled(data) is data

    def test_correlation_domain_is_not_copied(self):
        for shape in ((6, 40), (40, 6)):  # C's rows, then the factor
            returns = np.random.default_rng(10).normal(size=shape)
            domain = correlation_domain_matrix([f"e{i}" for i in range(shape[0])], returns)
            assert domain_geometry._unit_scaled(domain.data) is domain.data, shape

    @pytest.mark.parametrize("k", [-1074, -1000, -520, -1, 1, 5, 520, 1023])
    def test_largest_value_lands_in_one_to_two(self, k):
        # 1.5 * 2^k, or the smallest subnormal: scaled by 2^(1 - e) exactly
        data = np.ldexp(np.array([[1.5, -0.75], [0.0, 1.25]]), k)
        scaled = domain_geometry._unit_scaled(data)
        assert scaled is not data
        top = np.abs(scaled).max()
        assert 1.0 <= top < 2.0
        if k > -1022:
            assert np.array_equal(scaled, [[1.5, -0.75], [0.0, 1.25]])
        assert np.array_equal(np.ldexp(scaled, math.frexp(np.abs(data).max())[1] - 1), data)

    def test_negative_extreme_sets_the_scale(self):
        data = np.array([[3.0, -12.0]])
        assert np.array_equal(domain_geometry._unit_scaled(data), [[0.375, -1.5]])


def spread_norm_rows():
    """300 rows whose norms span 2^-30 to 1: the norms of the augmented
    GEMM's operands set its error, and the largest sets M."""
    rng = np.random.default_rng(35)
    return rng.normal(size=(300, 5)) * 2.0 ** rng.integers(-30, 1, size=(300, 1))


def near_duplicate_rows():
    """150 rows, each twice, 1e-9 apart: keys near 0 and clipped there."""
    rng = np.random.default_rng(36)
    return np.repeat(rng.normal(size=(150, 5)), 2, axis=0) + 1e-9 * rng.normal(size=(300, 5))


KEY_ROW_INPUTS = {
    **{str(n): lambda n=n: np.random.default_rng(n).normal(size=(n, 5)) for n in (2, 300, 1024)},
    # the GEMM's terms cancel to a few bits of |x|^2
    "offset_1e6": lambda: np.random.default_rng(5).normal(size=(300, 8)) + 1e6,
    "spread_norm": spread_norm_rows,
    "near_duplicate": near_duplicate_rows,
}


class TestKeyRows:
    @pytest.mark.parametrize("name", sorted(KEY_ROW_INPUTS))
    def test_key_rows_within_margin_of_cdist_squared(self, name):
        # the key rows' precondition: every |value| below 2
        data = domain_geometry._unit_scaled(KEY_ROW_INPUTS[name]())
        n = len(data)
        assert np.abs(data).max() < 2.0
        keys = domain_geometry._key_rows(data)
        assert keys.n == n
        D = cdist(data, data)
        # stored with relative rounding u = rho / 2 (1 - u) <= rho / 2
        rho = domain_geometry._STORAGE_ROUNDING[np.dtype(np.float32)]
        # every row once, in blocks of up to a block's rows in any order,
        # and one row twice
        every = np.random.default_rng(0).permutation(n)
        blocks = np.array_split(every, -(-n // domain_geometry._block_rows(n)))
        for index in (*blocks, np.array([n - 1, n - 1])):
            rows = keys.rows(index)
            assert rows.dtype == np.float32 and rows.shape == (index.size, n)
            assert not rows[np.arange(index.size), index].any()
            assert np.all(np.abs(rows - D[index] ** 2) <= rho / 2 * rows + keys.margin)
        rows, cols = np.array([0, n - 1]), np.arange(0, n, 7)
        assert np.array_equal(keys.exact(rows, cols), D[np.ix_(rows, cols)])


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

    def test_impute_embeddings_runs_on_unit_scaled_rows(self):
        # the distance matrix of these rows overflows (above); the
        # pipeline ranks the unit-scaled rows, whose distances do not
        entities = tuple(f"e{i}" for i in range(6))
        table = EmbeddingTable(2, {e: [1.0, 2.0 * i] for i, e in enumerate(entities[:3])})
        data = overflowing_rows()
        runs = [
            impute_embeddings(DomainMatrix(entities, rows), table, delta=2)
            for rows in (data, domain_geometry._unit_scaled(data))
        ]
        assert runs[0].result.Y.tobytes() == runs[1].result.Y.tobytes()
        assert (runs[0].weights.matrix != runs[1].weights.matrix).nnz == 0
        assert np.array_equal(runs[0].graph.indptr, runs[1].graph.indptr)
        assert np.array_equal(runs[0].graph.indices, runs[1].graph.indices)


def correlated_returns(n, T, kind, seed=7):
    """(n, T) returns: independent series, or one common factor plus a
    third as much noise, whose correlation rows reach |C_i| near sqrt(n), so
    that the factor's 2^s is below 1. Every third row misses one cell, at
    most 1/T of it, so no row is dropped."""
    rng = np.random.default_rng(seed)
    returns = rng.normal(size=(n, T))
    if kind == "one_factor":
        returns = rng.normal(size=T) + returns / 3
    rows = np.arange(0, n, 3)
    returns[rows, rows % T] = np.nan
    return returns


class TestCorrelationDomainMatrix:
    def test_perfectly_correlated_pair(self):
        a = np.linspace(0.0, 1.0, 20)
        returns = np.vstack([a, 2 * a + 1])
        dm = correlation_domain_matrix(["x", "y"], returns)
        assert_pearson_geometry(dm.data, returns)
        assert euclidean_distance_matrix(dm)[0, 1] ** 2 <= squared_distance_bound(2, 20)

    def test_anticorrelated_pair(self):
        a = np.sin(np.arange(30.0))
        returns = np.vstack([a, -a])
        dm = correlation_domain_matrix(["x", "y"], returns)
        assert_pearson_geometry(dm.data, returns)

    # the factor at T < n / 2 and at T = n / 2, its widest; C's rows at
    # T = n / 2 + 1, T = n - 1, T = n and T = n + 1
    @pytest.mark.parametrize("T", [10, 12, 13, 23, 24, 25])
    @pytest.mark.parametrize("kind", ["independent", "one_factor"])
    def test_distances_match_twopass_oracle_with_missing(self, kind, T):
        returns = correlated_returns(24, T, kind)
        keep, filled = spreadsheet_fill(returns)
        assert keep.all()
        dm = correlation_domain_matrix([f"e{i}" for i in range(24)], returns)
        assert_pearson_geometry(dm.data, filled)
        # the factor where 2T <= n: r <= T - 1, the centering's zero
        # eigenvalue cut; C's n columns, unit diagonal, where 2T > n
        assert dm.data.shape == (24, T - 1 if 2 * T <= 24 else 24)
        if 2 * T > 24:
            assert np.array_equal(np.diagonal(dm.data), np.ones(24))

    def test_cut_drops_the_rounding_of_a_low_rank_factor(self):
        # 60 series spanned by 5 factors over 30 days: Z^T Z has rank 5,
        # and its 25 other eigenvalues are rounding, well under the cut
        rng = np.random.default_rng(13)
        returns = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 30))
        dm = correlation_domain_matrix([f"e{i}" for i in range(60)], returns)
        assert dm.data.shape == (60, 5)
        assert_pearson_geometry(dm.data, returns)

    def test_tiny_series_keeps_its_correlations(self):
        # one series 2^-700 times the others: its centered squares would
        # underflow at the common scale, so each row takes its own first
        returns = correlated_returns(16, 8, "one_factor", seed=14)
        returns[5] *= 2.0**-700
        dm = correlation_domain_matrix([f"e{i}" for i in range(16)], returns)
        _, filled = spreadsheet_fill(returns)
        filled[5] *= 2.0**700  # correlation ignores a row's own scale
        assert_pearson_geometry(dm.data, filled)

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

    @pytest.mark.parametrize("k", [-1000, -600, -520, -300, 300, 520, 600, 1000])
    def test_returns_times_a_power_of_two_give_the_same_bits(self, k):
        returns = 0.01 * np.random.default_rng(0).normal(size=(50, 200))
        entities = [f"e{i}" for i in range(50)]
        for T in (20, 200):  # the factor, then C's rows
            expected = correlation_domain_matrix(entities, returns[:, :T]).data
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow in dot, no 0/0
                scaled = correlation_domain_matrix(entities, returns[:, :T] * 2.0**k).data
            assert scaled.tobytes() == expected.tobytes(), T

    def test_missing_threshold_is_not_a_parameter(self):
        returns = np.random.default_rng(12).normal(size=(3, 10))
        with pytest.raises(TypeError, match="max_missing_fraction"):
            correlation_domain_matrix(["a", "b", "c"], returns, max_missing_fraction=0.2)

    def test_too_few_observations(self):
        with pytest.raises(ValidationError, match="observations"):
            correlation_domain_matrix(["a", "b"], np.ones((2, 1)))
