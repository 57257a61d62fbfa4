import math

import numpy as np
import pytest
from scipy import sparse

from embimpute import (
    ConvergenceError,
    ImputationConfig,
    ValidationError,
    WeightMatrix,
    closed_form_solve,
    fix_known_block,
    power_iterate,
    spectral_diagnostics,
)
from embimpute.manifold_graph import reached_from_anchors


def weight_matrix(rows):
    return WeightMatrix(sparse.csr_matrix(np.asarray(rows, dtype=float)))


def dense_fixed_point(fixed: WeightMatrix, known: np.ndarray) -> np.ndarray:
    """Reference: solve (I - W_qq) Y_q = W_qp Y_p densely."""
    m = fixed.toarray()
    p = known.shape[0]
    return np.linalg.solve(np.eye(m.shape[0] - p) - m[p:, p:], m[p:, :p] @ known)


def free_rows_reachable(m: sparse.csr_matrix, p: int) -> bool:
    """Reference: depth-first search from the anchor columns."""
    n = m.shape[0]
    csc = m[p:, :].tocsc()
    indptr, indices = csc.indptr, csc.indices
    seen = bytearray(n - p)
    stack = list(range(p))
    while stack:
        col = stack.pop()
        for r in indices[indptr[col] : indptr[col + 1]].tolist():
            if not seen[r]:
                seen[r] = 1
                stack.append(p + r)
    return all(seen)


class TestReachedFromAnchors:
    def test_agrees_with_depth_first_search(self):
        rng = np.random.default_rng(90)
        outcomes = []
        for _ in range(400):
            n = int(rng.integers(2, 40))
            p = int(rng.integers(1, n + 1))
            m = sparse.random(
                n, n, density=float(rng.uniform(0.0, 0.15)), format="csr", random_state=rng
            )
            expected = free_rows_reachable(m, p)
            assert reached_from_anchors(m, p) == expected
            outcomes.append(expected)
        assert any(outcomes) and not all(outcomes)

    def test_stored_zero_counts_as_edge(self):
        m = sparse.csr_matrix((np.array([0.0]), np.array([0]), np.array([0, 0, 1])), shape=(2, 2))
        assert m.nnz == 1
        assert reached_from_anchors(m, 1) == free_rows_reachable(m, 1) is True


class TestImputationConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            ImputationConfig(eta=0.0)
        with pytest.raises(ValidationError):
            ImputationConfig(max_iter=0)
        with pytest.raises(ValidationError):
            ImputationConfig(init_sigma=-1.0)

    @pytest.mark.parametrize(
        "bad", [{"eta": math.inf}, {"init_sigma": math.nan}, {"init_sigma": math.inf}]
    )
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            ImputationConfig(**bad)


class TestFixKnownBlock:
    def test_all_rows_fixed_gives_identity(self, random_system):
        sys = random_system(n=8, p=8, d=3, s=4, delta=3, seed=30)
        fixed = fix_known_block(sys.weights, 8)
        assert np.array_equal(fixed.toarray(), np.eye(8))

    def test_two_by_two(self):
        W = weight_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(fix_known_block(W, 1).toarray(), [[1.0, 0.0], [1.0, 0.0]])

    def test_block_structure_scan(self, random_system):
        sys = random_system(n=10, p=4, d=3, s=4, delta=3, seed=31)
        original = sys.weights.toarray()
        fixed = fix_known_block(sys.weights, 4).toarray()
        assert np.array_equal(fixed[:4, :4], np.eye(4))
        assert not fixed[:4, 4:].any()
        assert np.array_equal(fixed[4:], original[4:])
        assert np.abs(fixed.sum(axis=1) - 1.0).max() < 1e-12

    def test_out_of_range(self, random_system):
        sys = random_system(n=6, p=2, d=2, s=2, delta=2, seed=32)
        for bad in (0, 7):
            with pytest.raises(ValidationError):
                fix_known_block(sys.weights, bad)


class TestPowerIterate:
    def test_nothing_to_impute(self):
        W = weight_matrix(np.eye(3))
        known = np.arange(6.0).reshape(3, 2)
        result = power_iterate(W, known, ImputationConfig())
        assert result.iterations == 0
        assert result.converged
        assert result.final_relative_change == 0.0
        assert np.array_equal(result.Y, known)

    def test_single_step_fixed_point(self):
        # the unknown row depends only on anchors, so one sweep lands exactly
        W = weight_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        known = np.array([[1.0, 0.0], [0.0, 1.0]])
        for seed in (0, 1, 12345):
            result = power_iterate(W, known, ImputationConfig(eta=1e-12, seed=seed))
            assert result.converged
            assert result.iterations <= 2
            assert np.array_equal(result.Y[2], [0.5, 0.5])

    def test_matches_closed_form(self, random_system):
        sys = random_system(n=6, p=3, d=4, s=5, delta=2, seed=33)
        result = power_iterate(
            sys.fixed, sys.known, ImputationConfig(eta=1e-12, max_iter=20000)
        )
        target = closed_form_solve(sys.fixed, sys.known)
        err = np.linalg.norm(result.Y[3:] - target) / np.linalg.norm(target)
        assert err < 1e-8

    def test_initialization_independent(self, random_system):
        sys = random_system(n=40, p=15, d=5, s=6, delta=4, seed=34)
        a = power_iterate(sys.fixed, sys.known, ImputationConfig(eta=1e-12, max_iter=20000, seed=7))
        b = power_iterate(sys.fixed, sys.known, ImputationConfig(eta=1e-12, max_iter=20000, seed=1234))
        diff = np.linalg.norm(a.Y[15:] - b.Y[15:]) / np.linalg.norm(b.Y[15:])
        assert diff < 1e-8

    def test_anchor_rows_bit_identical(self, random_system):
        sys = random_system(n=20, p=9, d=4, s=3, delta=3, seed=35)
        result = power_iterate(sys.fixed, sys.known, ImputationConfig())
        assert result.Y[:9].tobytes() == sys.known.tobytes()

    def test_unreachable_rows_rejected(self):
        W = weight_matrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConvergenceError, match="unreachable"):
            power_iterate(W, np.array([[1.0]]), ImputationConfig())

    def test_detached_free_cycle_rejected(self):
        # rows 2 and 3 feed only each other, so no anchor ever reaches them
        W = weight_matrix(
            [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0], [0, 0, 1.0, 0]]
        )
        with pytest.raises(ConvergenceError, match="unreachable"):
            power_iterate(W, np.eye(2), ImputationConfig())

    def test_multi_hop_chain_accepted(self):
        # the anchor reaches 4, 4 reaches 1, 1 reaches 3, 3 reaches 2:
        # every free row is several hops out, in no index order
        W = weight_matrix(
            [
                [1.0, 0, 0, 0, 0],
                [0, 0, 0, 0, 1.0],
                [0, 0, 0, 1.0, 0],
                [0, 1.0, 0, 0, 0],
                [1.0, 0, 0, 0, 0],
            ]
        )
        known = np.array([[2.0, -1.0]])
        result = power_iterate(W, known, ImputationConfig(eta=1e-12))
        assert result.converged
        assert np.array_equal(result.Y, np.repeat(known, 5, axis=0))

    def test_requires_fixed_block(self, random_system):
        sys = random_system(n=10, p=4, d=3, s=2, delta=3, seed=36)
        with pytest.raises(ValidationError, match="identity"):
            power_iterate(sys.weights, sys.known, ImputationConfig())

    def test_iteration_cap_reported(self, random_system):
        sys = random_system(n=20, p=5, d=4, s=3, delta=3, seed=37)
        result = power_iterate(
            sys.fixed, sys.known, ImputationConfig(eta=1e-300, max_iter=5)
        )
        assert not result.converged
        assert result.iterations == 5

    def test_zero_norm_iterate_counts_as_infinite_change(self):
        W = weight_matrix([[1.0, 0.0], [1.0, 0.0]])
        known = np.zeros((1, 3))
        result = power_iterate(
            W, known, ImputationConfig(eta=1e-6, max_iter=4, init_sigma=0.0)
        )
        assert not result.converged
        assert result.final_relative_change == np.inf
        assert not result.Y.any()

    def test_trace_records_every_sweep(self, random_system):
        sys = random_system(n=30, p=12, d=4, s=3, delta=4, seed=37)
        converged = power_iterate(sys.fixed, sys.known, ImputationConfig())
        capped = power_iterate(sys.fixed, sys.known, ImputationConfig(eta=1e-300, max_iter=7))
        assert converged.converged and converged.trace[-1] < 1e-2 <= min(converged.trace[:-1])
        assert not capped.converged and capped.iterations == 7
        for result in (converged, capped):
            assert len(result.trace) == result.iterations
            assert result.trace[-1] == result.final_relative_change

    def test_hull_containment_after_convergence(self, random_system):
        sys = random_system(n=50, p=20, d=5, s=4, delta=5, seed=38)
        result = power_iterate(
            sys.fixed, sys.known, ImputationConfig(eta=1e-12, max_iter=20000)
        )
        lo = sys.known.min(axis=0) - 1e-8
        hi = sys.known.max(axis=0) + 1e-8
        assert (result.Y[20:] >= lo).all()
        assert (result.Y[20:] <= hi).all()

    def test_reentrant_across_threads(self, random_system):
        from concurrent.futures import ThreadPoolExecutor

        systems = [random_system(n=30, p=12, d=4, s=5, delta=4, seed=80 + i) for i in range(4)]
        config = ImputationConfig(eta=1e-10, max_iter=10000)
        sequential = [power_iterate(s.fixed, s.known, config).Y for s in systems]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(lambda s: power_iterate(s.fixed, s.known, config).Y, systems)
            )
        for a, b in zip(sequential, threaded):
            assert a.tobytes() == b.tobytes()

    def test_geometric_decay_beyond_burn_in(self, random_system):
        sys = random_system(n=60, p=24, d=5, s=6, delta=5, seed=39)
        result = power_iterate(
            sys.fixed, sys.known, ImputationConfig(eta=1e-300, max_iter=120)
        )
        rates = result.trace
        assert len(rates) == result.iterations == 120
        assert rates[-1] == result.final_relative_change
        rho = spectral_diagnostics(sys.weights, 24).free_block_spectral_radius
        fit_window = range(10, 40)
        c = max(rates[t] / rho ** (t + 1) for t in fit_window)
        for t in range(40, 120):
            assert rates[t] <= 10.0 * c * rho ** (t + 1) + 1e-14


class TestClosedFormSolve:
    def test_no_internal_coupling(self):
        W = weight_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.25, 0.75, 0.0]])
        known = np.array([[2.0], [4.0]])
        assert np.allclose(closed_form_solve(W, known), [[3.5]])

    def test_scalar_geometric_sum(self):
        W = weight_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.2, 0.5]])
        known = np.array([[1.0], [1.0]])
        # unknown row: y = 0.5*(anchor mix) / (1 - 0.5) = 2 * 0.5 = 1
        assert np.allclose(closed_form_solve(W, known), [[1.0]])

    def test_fixed_point_residual(self, random_system):
        sys = random_system(n=8, p=3, d=3, s=4, delta=3, seed=40)
        solution = closed_form_solve(sys.fixed, sys.known)
        m = sys.fixed.matrix
        reconstructed = m[3:, :3] @ sys.known + m[3:, 3:] @ solution
        assert np.linalg.norm(solution - reconstructed) < 1e-10

    def test_singular_system_rejected(self):
        W = weight_matrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConvergenceError):
            closed_form_solve(W, np.array([[1.0]]))

    def test_matches_dense_reference(self, random_system):
        # the C2 acceptance systems
        for seed in range(20):
            sys = random_system(n=100, p=40, d=8, s=16, delta=8, seed=seed)
            np.testing.assert_allclose(
                closed_form_solve(sys.fixed, sys.known),
                dense_fixed_point(sys.fixed, sys.known),
                rtol=1e-10,
            )

    def test_beyond_former_dense_size(self):
        # q = 5000 unknown rows, past the 4096 the dense solve allowed; each
        # unknown row draws on the row before it, so all are reached, and on
        # rows up to 20 away, which keeps the LU factor narrow
        rng = np.random.default_rng(46)
        p, q = 3, 5000
        n = p + q
        near = np.arange(p, n)[:, None] + rng.integers(-20, 21, size=(q, 3))
        cols = np.column_stack([np.arange(p - 1, n - 1), np.clip(near, 0, n - 1)])
        vals = rng.random((q, 4)) + 0.1
        vals /= vals.sum(axis=1, keepdims=True)
        rows = np.repeat(np.arange(q), 4)
        free = sparse.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(q, n))
        W = WeightMatrix(sparse.vstack([sparse.eye(p, n), free]))
        known = rng.normal(size=(p, 2))
        solution = closed_form_solve(W, known)
        m = W.matrix
        residual = m[p:, :p] @ known + m[p:, p:] @ solution - solution
        assert np.abs(residual).max() < 1e-12 * np.abs(solution).max()


class TestSpectralDiagnostics:
    def test_row_stochastic_radius_is_one(self, random_system):
        sys = random_system(n=50, p=20, d=4, s=3, delta=4, seed=41)
        report = spectral_diagnostics(sys.weights, 20)
        assert abs(report.spectral_radius - 1.0) < 1e-8

    def test_unit_eigenvalue_count_equals_anchors(self, random_system):
        for seed in range(3):
            n, p = 40 + 10 * seed, 16 + 4 * seed
            sys = random_system(n=n, p=p, d=5, s=3, delta=5, seed=42 + seed)
            report = spectral_diagnostics(sys.weights, p)
            assert report.unit_eigenvalue_count == p
            assert report.free_block_spectral_radius < 1.0 - 1e-6

    def test_all_known_block(self, random_system):
        sys = random_system(n=10, p=10, d=3, s=2, delta=3, seed=45)
        report = spectral_diagnostics(sys.weights, 10)
        assert report.free_block_spectral_radius == 0.0
        assert report.unit_eigenvalue_count == 10

    def test_size_cap(self):
        W = WeightMatrix(sparse.eye(2001, format="csr"))
        with pytest.raises(ValidationError, match="diagnostic"):
            spectral_diagnostics(W, 5)
