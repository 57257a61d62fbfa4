import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import sparse

from embimpute import (
    ConvergenceError,
    ImputationConfig,
    ImputationResult,
    ValidationError,
    WeightMatrix,
    closed_form_solve,
    fix_known_block,
    power_iterate,
    spectral_diagnostics,
)
from embimpute import imputation_engine


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


def reaches_known(m: sparse.csr_matrix, p: int) -> bool:
    """No free row of ``m`` in a closed class: the solvers' test."""
    return not imputation_engine._closed_classes(m, p)[0].any()


def random_stochastic_system(rng):
    """p identity rows over q free rows of random support, some closed."""
    n = int(rng.integers(2, 41))
    p = int(rng.integers(1, n))
    support = rng.random((n - p, n)) < rng.uniform(0.0, 0.15)
    empty = np.flatnonzero(~support.any(axis=1))
    support[empty, rng.integers(0, n, size=empty.size)] = True
    free = np.where(support, rng.random(support.shape) + 0.01, 0.0)
    free /= free.sum(axis=1, keepdims=True)
    return WeightMatrix(sparse.csr_matrix(np.vstack([np.eye(p, n), free]))), p


# free row 3 weighs itself 0.7000000000001 and row 4 0.3, row 4 weighs
# row 3: a closed class whose row sums stay within 1e-12 of one, so
# I - W_qq is not singular in floating point
TIGHT_PAIR = [
    [1.0, 0, 0, 0, 0],
    [0, 1.0, 0, 0, 0],
    [1.0, 0, 0, 0, 0],
    [0, 0, 0, 0.7000000000001, 0.3],
    [0, 0, 0, 1.0, 0],
]


class TestClosedClasses:
    def test_agrees_with_depth_first_search(self):
        rng = np.random.default_rng(90)
        outcomes = []
        for _ in range(3000):
            n = int(rng.integers(2, 40))
            p = int(rng.integers(1, n + 1))
            m = sparse.random(
                n, n, density=float(rng.uniform(0.0, 0.15)), format="csr", random_state=rng
            )
            expected = free_rows_reachable(m, p)
            assert reaches_known(m, p) == expected
            outcomes.append(expected)
        assert 300 < sum(outcomes) < 2700

    def test_stored_zero_counts_as_edge(self):
        m = sparse.csr_matrix((np.array([0.0]), np.array([0]), np.array([0, 0, 1])), shape=(2, 2))
        assert m.nnz == 1
        assert reaches_known(m, 1) == free_rows_reachable(m, 1) is True

    def test_stored_zeros_join_a_class(self):
        # rows 1 and 2 read each other through stored zeros only; row 2
        # also reads known row 0, so the class they form leaks
        m = sparse.csr_matrix(
            (np.array([0.0, 1.0, 0.0]), np.array([2, 0, 1]), np.array([0, 0, 1, 3])), shape=(3, 3)
        )
        stuck, count = imputation_engine._closed_classes(m, 1)
        assert (stuck.tolist(), count) == ([False, False], 0)
        assert reaches_known(m, 1) == free_rows_reachable(m, 1) is True

    def test_free_row_without_entries_is_a_closed_class(self):
        m = sparse.csr_matrix((np.array([1.0]), np.array([0]), np.array([0, 1, 1, 1])), shape=(3, 3))
        stuck, count = imputation_engine._closed_classes(m, 1)
        assert (stuck.tolist(), count) == ([True, True], 2)
        assert reaches_known(m, 1) == free_rows_reachable(m, 1) is False

    def test_solvers_and_report_agree_with_the_oracles(self):
        rng = np.random.default_rng(91)
        refused = 0
        for _ in range(3000):
            W, p = random_stochastic_system(rng)
            reachable = free_rows_reachable(W.matrix, p)
            known = rng.normal(size=(p, 2))
            for solve in (
                lambda: power_iterate(W, known, ImputationConfig(max_iter=1)),
                lambda: closed_form_solve(W, known),
            ):
                if reachable:
                    solve()
                else:
                    with pytest.raises(ConvergenceError, match="unreachable"):
                        solve()
            eig = np.linalg.eigvals(W.toarray()[p:, p:])
            dense_count = p + int((np.abs(eig - 1.0) < 1e-6).sum())
            count = imputation_engine._closed_classes(W.matrix, p)[1]
            report = spectral_diagnostics(W, p)
            assert report.unit_eigenvalue_count == p + count == dense_count
            refused += not reachable
        assert 100 < refused < 2900


class TestImputationConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            ImputationConfig(eta=0.0)
        with pytest.raises(ValidationError):
            ImputationConfig(max_iter=0)
        for bad in (
            {"max_iter": 2.5}, {"max_iter": "10"}, {"seed": -1}, {"seed": 1.5}, {"seed": None}
        ):
            with pytest.raises(ValidationError, match="must be an integer"):
                ImputationConfig(**bad)

    def test_init_sigma_is_gone(self):
        # the start scale follows the known block; there is no knob for it
        with pytest.raises(TypeError):
            ImputationConfig(init_sigma=0.1)

    def test_accepts_numpy_integers(self):
        config = ImputationConfig(max_iter=np.int64(3), seed=np.uint32(7))
        assert (config.max_iter, config.seed) == (3, 7)
        # kept as an int: max_iter + 1 used to wrap to 0 in uint8
        config = ImputationConfig(max_iter=np.uint8(255))
        assert type(config.max_iter) is int
        W = weight_matrix([[1.0, 0.0], [1.0, 0.0]])
        assert power_iterate(W, np.ones((1, 2)), config).converged

    @pytest.mark.parametrize("bad", [{"eta": math.inf}])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            ImputationConfig(**bad)

    @pytest.mark.parametrize("bad", [{"eta": "0.1"}, {"eta": None}])
    def test_rejects_non_real_values(self, bad):
        (name, value), = bad.items()
        with pytest.raises(ValidationError, match=f"^{name} must be a real number, got ") as info:
            ImputationConfig(**bad)
        assert "\n" not in str(info.value)


    def test_replace_is_the_checked_way_to_vary_a_setting(self):
        config = ImputationConfig(max_iter=50)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.eta = math.nan
        with pytest.raises(ValidationError, match="^eta must be positive and finite$"):
            dataclasses.replace(config, eta=math.nan)
        assert dataclasses.replace(config, eta=1e-3) == ImputationConfig(eta=1e-3, max_iter=50)


class TestImputationResult:
    def test_counts_are_read_from_the_trace(self):
        Y = np.zeros((3, 2))
        result = ImputationResult(Y, False, (0.5, 0.25))
        assert (result.iterations, result.final_relative_change) == (2, 0.25)
        empty = ImputationResult(Y, True)
        assert (empty.iterations, empty.final_relative_change, empty.trace) == (0, 0.0, ())

    def test_counts_are_not_fields(self):
        Y = np.zeros((3, 2))
        with pytest.raises(TypeError):
            ImputationResult(Y, 5, 0.5, True)
        with pytest.raises(TypeError):
            dataclasses.replace(ImputationResult(Y, True), iterations=5)


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
        for call in (fix_known_block, spectral_diagnostics):
            for bad in (0, 7, 1.5, "2", None):
                with pytest.raises(ValidationError, match="^known-row count must be an integer"):
                    call(sys.weights, bad)


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

    def test_error_names_the_smallest_row_of_a_closed_class(self):
        # rows 3 and 5 read only each other; row 4 reads them, so it is
        # unreachable too, but only a closed class's rows are named
        W = weight_matrix(
            [
                [1.0, 0, 0, 0, 0, 0],
                [0, 1.0, 0, 0, 0, 0],
                [1.0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 1.0],
                [0, 0, 0, 1.0, 0, 0],
                [0, 0, 0, 1.0, 0, 0],
            ]
        )
        with pytest.raises(ConvergenceError) as info:
            power_iterate(W, np.eye(2))
        assert str(info.value) == (
            "some unknown rows are unreachable from the known block, "
            "row 3 among them; the fixed point is not unique"
        )

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

    def test_iteration_cap_reported(self, random_system):
        sys = random_system(n=20, p=5, d=4, s=3, delta=3, seed=37)
        result = power_iterate(
            sys.fixed, sys.known, ImputationConfig(eta=1e-300, max_iter=5)
        )
        assert not result.converged
        assert result.iterations == 5

    def test_zero_norm_iterate_counts_as_infinite_change(self):
        # 0.1 x the subnormal mean rounds to 0: the start is zero, the anchor is not
        W = weight_matrix([[1.0, 0.0], [1.0, 0.0]])
        known = np.full((1, 3), 5e-324)
        result = power_iterate(W, known, ImputationConfig(eta=1e-6, max_iter=4))
        assert result.trace == (np.inf, 0.0)
        assert result.converged
        assert np.array_equal(result.Y, np.full((2, 3), 5e-324))

    def test_zero_known_block_is_the_exact_fixed_point(self, random_system):
        sys = random_system(n=40, p=15, d=5, s=6, delta=4, seed=34)
        result = power_iterate(sys.fixed, np.zeros_like(sys.known), ImputationConfig())
        assert result.iterations == 0 and result.converged
        assert result.final_relative_change == 0.0 and result.trace == ()
        assert result.Y.shape == (40, 6) and not result.Y.any()

    # at 2**1019 the stop rule's L1 sums over the unscaled free block overflow
    @pytest.mark.parametrize("k", [-900, 500, 1019])
    def test_scaling_the_known_block_by_a_power_of_two_scales_every_bit(self, random_system, k):
        sys = random_system(n=40, p=15, d=5, s=6, delta=4, seed=34)
        unit = power_iterate(sys.fixed, sys.known, ImputationConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = power_iterate(sys.fixed, 2.0**k * sys.known, ImputationConfig())
        assert unit.converged and scaled.iterations == unit.iterations
        assert scaled.trace == unit.trace
        assert np.array_equal(scaled.Y, 2.0**k * unit.Y)

    def test_known_block_at_1e307(self, random_system):
        sys = random_system(n=40, p=15, d=5, s=6, delta=4, seed=34)
        known = 1e307 * sys.known
        known[0, 0] = 5e-324  # lost to the internal scaling, kept in the result
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = power_iterate(sys.fixed, known, ImputationConfig(eta=1e-12, max_iter=20000))
        assert result.converged and np.isfinite(result.Y).all()
        assert result.Y[:15].tobytes() == known.tobytes()
        target = closed_form_solve(sys.fixed, known / 1e307)
        assert np.allclose(result.Y[15:] / 1e307, target, rtol=1e-9, atol=1e-9)

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
        # p = n: no free row, the (0, s) block power_iterate returns after no sweep
        full = random_system(n=8, p=8, d=3, s=4, delta=3, seed=40)
        empty = closed_form_solve(full.fixed, full.known)
        assert empty.shape == (0, 4)
        zero_sweeps = power_iterate(full.fixed, full.known)
        assert zero_sweeps.iterations == 0
        assert np.array_equal(empty, zero_sweeps.Y[8:])

    def test_singular_system_rejected(self):
        W = weight_matrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConvergenceError, match="unreachable"):
            closed_form_solve(W, np.array([[1.0]]))
        # a leak of 1e-17 opens the class, but I - W_qq rounds to exactly 0
        W = weight_matrix([[1.0, 0.0], [1e-17, 1.0]])
        with pytest.raises(ConvergenceError, match="singular"):
            closed_form_solve(W, np.array([[1.0]]))

    def test_closed_class_rejected_like_power_iterate(self):
        # splu factors I - W_qq here, and the solve used to return
        # [1, -0, -0]: a silent answer where power_iterate refuses
        W = weight_matrix(TIGHT_PAIR)
        known = np.array([[1.0], [0.0]])
        with pytest.raises(ConvergenceError) as refused:
            power_iterate(W, known)
        with pytest.raises(ConvergenceError) as info:
            closed_form_solve(W, known)
        assert str(info.value) == str(refused.value)
        assert "unreachable" in str(info.value) and "row 3" in str(info.value)

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


class TestKnownRowsNotRead:
    """The weight rows of the known entities never enter a solve."""

    def test_raw_and_fixed_weights_agree(self, random_system):
        # the C2 acceptance systems
        for seed in range(20):
            sys = random_system(n=100, p=40, d=8, s=16, delta=8, seed=seed)
            raw = power_iterate(sys.weights, sys.known, ImputationConfig())
            fixed = power_iterate(sys.fixed, sys.known, ImputationConfig())
            assert np.array_equal(raw.Y, fixed.Y)
            assert raw.trace == fixed.trace
            assert np.array_equal(
                closed_form_solve(sys.weights, sys.known),
                closed_form_solve(sys.fixed, sys.known),
            )

    def test_known_rows_changed_change_nothing(self, random_system):
        sys = random_system(n=60, p=25, d=5, s=4, delta=5, seed=36)
        free = sys.weights.matrix[25:, :]
        dense = np.random.default_rng(36).random((25, 60))
        dense /= dense.sum(axis=1, keepdims=True)
        # each known row drawing on one unknown row only
        onto_free = sparse.csr_matrix((np.ones(25), (np.arange(25), np.arange(25, 50))), (25, 60))
        config = ImputationConfig(eta=1e-6)
        expected = power_iterate(sys.weights, sys.known, config)
        expected_solution = closed_form_solve(sys.weights, sys.known)
        for head in (sparse.csr_matrix(dense), onto_free):
            W = WeightMatrix(sparse.vstack([head, free], format="csr"))
            result = power_iterate(W, sys.known, config)
            assert np.array_equal(result.Y, expected.Y)
            assert result.trace == expected.trace
            assert np.array_equal(closed_form_solve(W, sys.known), expected_solution)


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

    def test_unit_count_is_exact(self):
        # the tight pair is a closed class: one unit eigenvalue beyond the
        # known rows; a leak of 1e-15 to a known row opens it, though the
        # free block's eigenvalue stays within 1e-6 of one
        closed = spectral_diagnostics(weight_matrix(TIGHT_PAIR), 2)
        leaky = np.array(TIGHT_PAIR)
        leaky[3, 0] = 1e-15
        report = spectral_diagnostics(weight_matrix(leaky), 2)
        assert (closed.unit_eigenvalue_count, report.unit_eigenvalue_count) == (3, 2)
        assert abs(report.free_block_spectral_radius - 1.0) < 1e-6

    def test_all_known_block(self, random_system):
        sys = random_system(n=10, p=10, d=3, s=2, delta=3, seed=45)
        report = spectral_diagnostics(sys.weights, 10)
        assert report.free_block_spectral_radius == 0.0
        assert report.unit_eigenvalue_count == 10

    @pytest.mark.parametrize(
        "n, p, seed", [(50, 20, 41), (40, 16, 42), (60, 24, 44), (120, 48, 46), (10, 10, 45)]
    )
    def test_matches_dense_reference_from_the_free_block(self, random_system, monkeypatch, n, p, seed):
        sys = random_system(n=n, p=p, d=5, s=3, delta=5 if n > 10 else 3, seed=seed)
        dense = sys.weights.toarray()
        fixed_eigs = np.linalg.eigvals(fix_known_block(sys.weights, p).toarray())
        expected_unit = int((np.abs(fixed_eigs - 1.0) < 1e-6).sum())
        expected_free = float(np.abs(np.linalg.eigvals(dense[p:, p:])).max()) if p < n else 0.0
        expected_radius = float(np.abs(np.linalg.eigvals(dense)).max())

        # no n x n array and no fixed matrix: the report reads W_qq alone
        shapes = []
        to_array = type(sys.weights.matrix).toarray

        def recording(self, *args, **kwargs):
            shapes.append(self.shape)
            return to_array(self, *args, **kwargs)

        monkeypatch.setattr(type(sys.weights.matrix), "toarray", recording)
        monkeypatch.setattr(imputation_engine, "fix_known_block", None)
        report = spectral_diagnostics(sys.weights, p)
        assert (n, n) not in shapes
        assert report.unit_eigenvalue_count == expected_unit == p
        assert report.free_block_spectral_radius == expected_free
        assert abs(report.spectral_radius - expected_radius) < 1e-12

    def test_size_cap(self):
        W = WeightMatrix(sparse.eye(2006, format="csr"))
        with pytest.raises(ValidationError, match="diagnostic"):
            spectral_diagnostics(W, 5)

    def test_cap_counts_free_rows_only(self):
        # n = 2500 but q = 50: each free row weighs known row 0 alone
        n, p = 2500, 2450
        rows = np.arange(n)
        cols = np.where(rows < p, rows, 0)
        W = WeightMatrix(sparse.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n)))
        report = spectral_diagnostics(W, p)
        assert (report.n, report.n_known, report.unit_eigenvalue_count) == (n, p, p)
        assert report.free_block_spectral_radius == 0.0
        assert report.spectral_radius == 1.0
