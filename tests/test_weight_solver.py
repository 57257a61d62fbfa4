import itertools
import logging

import numpy as np
import pytest

from embimpute import (
    DomainMatrix,
    ValidationError,
    WeightMatrix,
    assemble_weight_matrix,
    build_graph,
    euclidean_distance_matrix,
    solve_row_weights,
    write_coordinate_text,
)


def residual(x, M, w):
    return float(np.sum((x - M.T @ w) ** 2))


def simplex_qp_oracle(x, M):
    """Optimal simplex-constrained reconstruction value by support enumeration.

    Solves the equality-constrained stationary system on every support and
    keeps the best feasible candidate; the true optimum's support is among
    them, so the minimum is exact.
    """
    k = M.shape[0]
    best = None
    for r in range(1, k + 1):
        for support in itertools.combinations(range(k), r):
            S = list(support)
            G = M[S] @ M[S].T
            A = np.zeros((r + 1, r + 1))
            A[:r, :r] = G
            A[:r, r] = 1.0
            A[r, :r] = 1.0
            b = np.concatenate([M[S] @ x, [1.0]])
            sol = np.linalg.lstsq(A, b, rcond=None)[0][:r]
            if sol.min() < -1e-9:
                continue
            w = np.zeros(k)
            w[S] = np.clip(sol, 0.0, None)
            total = w.sum()
            if total <= 0:
                continue
            w /= total
            value = residual(x, M, w)
            if best is None or value < best[0]:
                best = (value, w)
    assert best is not None
    return best


def orthant_qp_oracle(x, M):
    """Optimal non-negative (unconstrained-sum) reconstruction value."""
    k = M.shape[0]
    best = None
    for r in range(0, k + 1):
        for support in itertools.combinations(range(k), r):
            S = list(support)
            w = np.zeros(k)
            if S:
                sol = np.linalg.lstsq(M[S].T, x, rcond=None)[0]
                if sol.min() < -1e-9:
                    continue
                w[S] = np.clip(sol, 0.0, None)
            value = residual(x, M, w)
            if best is None or value < best[0]:
                best = (value, w)
    return best


def feasible_perturbations_never_improve(x, M, w, rng, step=1e-3, tol=1e-9, trials=32):
    base = residual(x, M, w)
    for _ in range(trials):
        target = rng.exponential(size=w.size)
        target /= target.sum()
        candidate = w + step * (target - w)
        if residual(x, M, candidate) < base - tol:
            return False
    return True


class TestSolveRowWeights:
    def test_exact_neighbor_match(self):
        M = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, -1.0]])
        w = solve_row_weights(M[1], M)
        assert np.allclose(w, [0.0, 1.0, 0.0], atol=1e-12)

    def test_midpoint_symmetry(self):
        w = solve_row_weights(
            np.array([1.0, 0.0]), np.array([[0.0, 0.0], [2.0, 0.0]])
        )
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_one_dimensional_overshoot(self):
        x = np.array([3.0])
        M = np.array([[1.0], [2.0]])
        # off the simplex, (0, 1.5) reconstructs x exactly: it attains the
        # optimal non-negative value found by the orthant oracle
        raw_value, _ = orthant_qp_oracle(x, M)
        assert raw_value < 1e-20
        assert residual(x, M, np.array([0.0, 1.5])) <= raw_value + 1e-20
        # the returned weights match the simplex optimum computed by the oracle
        w = solve_row_weights(x, M)
        value, oracle_w = simplex_qp_oracle(x, M)
        assert np.allclose(w, oracle_w, atol=1e-10)
        assert np.allclose(w, [0.0, 1.0], atol=1e-12)

    def test_matches_simplex_oracle_on_random_problems(self):
        rng = np.random.default_rng(20)
        for _ in range(120):
            k = int(rng.integers(1, 9))
            d = int(rng.integers(1, 7))
            M = rng.normal(size=(k, d))
            x = rng.normal(size=d)
            w = solve_row_weights(x, M)
            assert w.min() >= 0
            assert abs(w.sum() - 1.0) < 1e-12
            value, _ = simplex_qp_oracle(x, M)
            assert residual(x, M, w) <= value + 1e-10

    def test_first_order_optimality_spot_checks(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            k = int(rng.integers(2, 10))
            d = int(rng.integers(1, 8))
            M = rng.normal(size=(k, d))
            x = rng.normal(size=d)
            w = solve_row_weights(x, M)
            assert feasible_perturbations_never_improve(x, M, w, rng)

    def test_interior_point_reconstructed_exactly(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            d = int(rng.integers(1, 6))
            k = d + 1 + int(rng.integers(0, 3))
            M = rng.normal(size=(k, d))
            mix = rng.dirichlet(np.ones(k))
            x = M.T @ mix
            w = solve_row_weights(x, M)
            assert residual(x, M, w) < 1e-16

    def test_single_neighbor(self):
        w = solve_row_weights(np.array([4.0, 4.0]), np.array([[1.0, 0.0]]))
        assert w.tolist() == [1.0]

    def test_duplicate_neighbors_stay_feasible(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 2.0]])
        x = np.array([0.5, 1.5])
        w = solve_row_weights(x, M)
        assert w.min() >= 0
        assert abs(w.sum() - 1.0) < 1e-12
        value, _ = simplex_qp_oracle(x, M)
        assert residual(x, M, w) <= value + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            solve_row_weights(np.ones(3), np.ones((2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            solve_row_weights(np.array([np.nan]), np.ones((2, 1)))

    def test_no_neighbors_rejected(self):
        with pytest.raises(ValidationError):
            solve_row_weights(np.ones(2), np.empty((0, 2)))


class TestAssembleWeightMatrix:
    def test_collinear_row_support_and_reconstruction(self):
        domain = DomainMatrix(("a", "b", "c"), [[0.0], [1.0], [3.0]])
        D = euclidean_distance_matrix(domain)
        W = assemble_weight_matrix(build_graph(D, 2), domain)
        cols, vals = W.row(1)
        assert cols.tolist() == [0, 2]
        assert abs(vals @ np.array([0.0, 3.0]) - 1.0) < 1e-12
        # per-row dense oracle agreement
        value, _ = simplex_qp_oracle(np.array([1.0]), np.array([[0.0], [3.0]]))
        assert residual(np.array([1.0]), np.array([[0.0], [3.0]]), np.array([vals[0], vals[1]])) <= value + 1e-12

    def test_two_entities(self):
        domain = DomainMatrix(("a", "b"), [[0.0, 1.0], [1.0, 0.0]])
        W = assemble_weight_matrix(build_graph(euclidean_distance_matrix(domain), 1), domain)
        assert np.array_equal(W.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_rows_sum_to_one_on_random_points(self):
        rng = np.random.default_rng(23)
        domain = DomainMatrix(
            tuple(f"e{i}" for i in range(100)), rng.normal(size=(100, 6))
        )
        W = assemble_weight_matrix(build_graph(euclidean_distance_matrix(domain), 8), domain)
        sums = np.asarray(W.matrix.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-12
        assert W.matrix.data.min() >= 0
        assert not W.matrix.diagonal().any()

    def test_support_subset_of_in_neighbors(self):
        rng = np.random.default_rng(24)
        domain = DomainMatrix(
            tuple(f"e{i}" for i in range(30)), rng.normal(size=(30, 4))
        )
        g = build_graph(euclidean_distance_matrix(domain), 5)
        W = assemble_weight_matrix(g, domain)
        for i in range(30):
            cols, _ = W.row(i)
            assert set(cols.tolist()) <= set(g.incoming[i].tolist())

    def test_zero_column_diagnostic(self, caplog):
        # the far point is nobody's useful neighbor: its sole dependent row
        # reconstructs exactly without it
        domain = DomainMatrix(
            ("o", "a", "r", "far"),
            [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 50.0]],
        )
        g = build_graph(euclidean_distance_matrix(domain), 1)
        with caplog.at_level(logging.WARNING, logger="embimpute.weight_solver"):
            W = assemble_weight_matrix(g, domain)
        assert "no weight" in caplog.text
        assert W.toarray()[:, 3].max() == 0.0

    def test_row_error_names_entity(self):
        domain = DomainMatrix(("a", "b", "c"), [[0.0], [1.0], [3.0]])
        g = build_graph(euclidean_distance_matrix(domain), 2)
        domain.data[1, 0] = np.nan  # corrupt after validation
        with pytest.raises(ValidationError, match=r"row \d+ \([abc]\): "):
            assemble_weight_matrix(g, domain)


class TestWeightMatrixType:
    def test_rejects_negative_entries(self):
        from scipy import sparse

        m = sparse.csr_matrix(np.array([[1.5, -0.5], [0.5, 0.5]]))
        with pytest.raises(ValidationError, match="non-negative"):
            WeightMatrix(m)

    def test_rejects_bad_row_sum(self):
        from scipy import sparse

        m = sparse.csr_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValidationError, match="sums"):
            WeightMatrix(m)

    def test_coordinate_dump_roundtrips(self, tmp_path):
        rng = np.random.default_rng(26)
        domain = DomainMatrix(
            tuple(f"e{i}" for i in range(12)), rng.normal(size=(12, 3))
        )
        W = assemble_weight_matrix(build_graph(euclidean_distance_matrix(domain), 3), domain)
        path = tmp_path / "w.txt"
        write_coordinate_text(W, path)
        dense = np.zeros((12, 12))
        previous = -1
        for line in path.read_text().splitlines():
            i, j, v = line.split()
            assert int(i) >= previous  # row-major order
            previous = int(i)
            dense[int(i), int(j)] = float(v)
        assert np.array_equal(dense, W.toarray())
