import itertools

import numpy as np
import pytest

from embimpute import (
    DomainMatrix,
    NeighborGraph,
    SyntheticTransferSpec,
    ValidationError,
    WeightMatrix,
    assemble_weight_matrix,
    build_graph,
    euclidean_distance_matrix,
    fix_known_block,
    in_neighbors,
    make_transfer_data,
    solve_row_weights,
    write_coordinate_text,
)
from embimpute import weight_solver

_DUAL_TOL = 1e-10
_FEAS_TOL = 1e-12


# --- per-row reference: the active-set loop, one row and one solve at a time --


def _kkt_solve(G, c, free_idx):
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


def _simplex_lsq(G, c):
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


def reference_row_weights(x, M):
    k = M.shape[0]
    if k == 1:
        return np.ones(1)
    w = _simplex_lsq(M @ M.T, M @ x)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        return np.full(k, 1.0 / k)
    return w / total


def assert_rows_match_reference(graph, domain, W):
    """Every row of ``W`` holds exactly the reference solver's weights."""
    X = domain.data
    for i in range(graph.n):
        srcs = in_neighbors(graph, i)
        w = reference_row_weights(X[i], X[srcs])
        cols, vals = W.row(i)
        assert np.array_equal(cols, srcs[w > 0.0]), i
        assert np.array_equal(vals, w[w > 0.0]), i


def assembled(X, delta):
    domain = DomainMatrix(tuple(f"e{i}" for i in range(len(X))), X)
    graph = build_graph(euclidean_distance_matrix(domain), delta)
    return graph, domain, assemble_weight_matrix(graph, domain)


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
            assert set(cols.tolist()) <= set(in_neighbors(g, i).tolist())

    def test_zero_column_diagnostic(self):
        # the far point is nobody's useful neighbor: its sole dependent row
        # reconstructs exactly without it
        domain = DomainMatrix(
            ("o", "a", "r", "far"),
            [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 50.0]],
        )
        g = build_graph(euclidean_distance_matrix(domain), 1)
        W = assemble_weight_matrix(g, domain)
        assert W.zero_weight_columns == 1
        assert W.toarray()[:, 3].max() == 0.0

    def test_row_error_names_entity(self):
        domain = DomainMatrix(("a", "b", "c"), [[0.0], [1.0], [3.0]])
        g = build_graph(euclidean_distance_matrix(domain), 2)
        domain.data[1, 0] = np.nan  # corrupt after validation
        with pytest.raises(ValidationError, match=r"row \d+ \([abc]\): "):
            assemble_weight_matrix(g, domain)

    def test_row_error_names_first_bad_row(self):
        rng = np.random.default_rng(27)
        domain = DomainMatrix(tuple(f"e{i}" for i in range(20)), rng.normal(size=(20, 2)))
        g = build_graph(euclidean_distance_matrix(domain), 3)
        domain.data[[7, 15], 0] = np.nan  # corrupt after validation
        first = min(i for i in range(20) if {7, 15} & {i, *in_neighbors(g, i).tolist()})
        with pytest.raises(ValidationError, match=rf"^row {first} \(e{first}\): non-finite"):
            assemble_weight_matrix(g, domain)

    def test_row_without_neighbors_named(self):
        domain = DomainMatrix(("a", "b", "c"), [[0.0], [1.0], [3.0]])
        g = build_graph(euclidean_distance_matrix(domain), 1)
        # g with the edges into b left out
        keep = np.r_[g.indptr[0] : g.indptr[1], g.indptr[2] : g.indptr[3]]
        empty = NeighborGraph(3, 1, [0, 1, 1, 2], g.indices[keep], g.distances[keep])
        domain.data[2, 0] = np.nan
        with pytest.raises(ValidationError, match=r"^row 1 \(b\): at least one neighbor"):
            assemble_weight_matrix(empty, domain)


class TestOverflow:
    def test_overflowing_row_is_a_one_line_error(self, capfd):
        with pytest.raises(ValidationError, match="^weight problem overflows"):
            solve_row_weights([1e200, 0], [[1e200, 1], [2e200, 0], [3e200, 5]])
        # nothing reaches LAPACK, so it prints nothing
        assert capfd.readouterr().err == ""

    def test_scale_limit(self):
        rng = np.random.default_rng(36)
        x, M = rng.normal(size=3), rng.normal(size=(5, 3))
        w = solve_row_weights(1e153 * x, 1e153 * M)
        assert np.array_equal(w, reference_row_weights(1e153 * x, 1e153 * M))
        assert w.min() >= 0.0 and abs(w.sum() - 1.0) < 1e-12
        with pytest.raises(ValidationError, match="overflows"):
            solve_row_weights(1e154 * x, 1e154 * M)

    def test_assembly_names_the_first_overflowing_row(self, capfd):
        rng = np.random.default_rng(37)
        domain = DomainMatrix(tuple(f"e{i}" for i in range(30)), rng.normal(size=(30, 3)))
        g = build_graph(euclidean_distance_matrix(domain), 4)
        domain.data[[9, 21]] *= 1e160  # scale after the graph is built
        first = min(i for i in range(30) if {9, 21} & set(in_neighbors(g, i).tolist()))
        with pytest.raises(ValidationError, match=rf"^row {first} \(e{first}\): weight problem overflows"):
            assemble_weight_matrix(g, domain)
        assert capfd.readouterr().err == ""


class TestLockstepMatchesPerRowReference:
    @pytest.mark.parametrize("delta", [4, 8, 16, 32])
    def test_random_problems(self, delta):
        X = np.random.default_rng(delta).normal(size=(300, 6))
        graph, domain, W = assembled(X, delta)
        assert_rows_match_reference(graph, domain, W)

    @pytest.mark.parametrize("delta", [8, 16, 32])
    def test_low_rank_transfer_problems(self, delta):
        # the affinity rows span 4 of 16 dimensions, so once more than five
        # neighbors are free the KKT systems can be singular (lstsq path)
        data = make_transfer_data(SyntheticTransferSpec(n=300, p=200, seed=delta))
        graph = build_graph(euclidean_distance_matrix(data.domain), delta)
        W = assemble_weight_matrix(graph, data.domain)
        assert W.lstsq_fallbacks > 0
        assert_rows_match_reference(graph, data.domain, W)

    def test_duplicate_neighbor_rows(self):
        rng = np.random.default_rng(30)
        base = rng.normal(size=(60, 3))
        graph, domain, W = assembled(np.vstack([base, base[:30], base[:10]]), 6)
        assert W.lstsq_fallbacks > 0
        assert_rows_match_reference(graph, domain, W)

    def test_collinear_neighbors(self):
        rng = np.random.default_rng(31)
        t = rng.normal(size=(80, 1))
        graph, domain, W = assembled(t @ np.array([[1.0, -2.0, 0.5]]), 5)
        assert_rows_match_reference(graph, domain, W)

    def test_tied_reduced_gradients(self):
        # integer lattice: many rows have symmetric neighbors at equal
        # distances, so reduced gradients and ratios tie exactly
        grid = np.array([(a, b) for a in range(9) for b in range(9)], dtype=float)
        graph, domain, W = assembled(grid, 8)
        assert_rows_match_reference(graph, domain, W)

    def test_tie_breaks_prefer_smaller_index(self):
        # neighbors 0 and 3 coincide: their reduced gradients tie when one
        # of them is freed again, and the smaller index must win
        M = np.array([[-2.0, -1, 2], [-3, -3, -3], [-2, -1, 1], [-2, -1, 2], [-3, 1, -3]])
        w = solve_row_weights(np.array([-2.0, 1, 0]), M)
        assert np.flatnonzero(w).tolist() == [0, 4]
        assert np.array_equal(w, reference_row_weights(np.array([-2.0, 1, 0]), M))
        # two coordinates reach zero at the same step: the first one drops
        M = np.array([[0.0, -2], [-1, -3], [-1, 2], [-2, -2]])
        w = solve_row_weights(np.array([-1.0, 1]), M)
        assert np.flatnonzero(w).tolist() == [1, 2, 3]
        assert np.array_equal(w, reference_row_weights(np.array([-1.0, 1]), M))

    def test_single_neighbor_rows(self):
        rng = np.random.default_rng(32)
        graph, domain, W = assembled(rng.normal(size=(50, 2)), 1)
        assert 1 in graph.in_degrees().tolist()
        assert_rows_match_reference(graph, domain, W)

    def test_mixed_in_degrees(self):
        rng = np.random.default_rng(33)
        X = np.vstack([rng.normal(size=(120, 3)), 0.01 * rng.normal(size=(40, 3)) + 6.0])
        graph, domain, W = assembled(X, 3)
        assert len(set(graph.in_degrees().tolist())) > 2
        assert_rows_match_reference(graph, domain, W)

    def test_target_equals_a_neighbor(self):
        rng = np.random.default_rng(34)
        base = rng.normal(size=(40, 4))
        graph, domain, W = assembled(np.vstack([base, base[:5]]), 6)
        for i in range(5):
            assert 40 + i in in_neighbors(graph, i).tolist()
        assert_rows_match_reference(graph, domain, W)

    @pytest.mark.parametrize("gather_bytes, state_bytes", [(1, 1), (100_000, 8_000)])
    def test_blocking_does_not_change_results(self, monkeypatch, gather_bytes, state_bytes):
        # rows wide enough to need several default gathers, against one row
        # per block, and against blocks of about 6 rows gathered 3 at a time
        rng = np.random.default_rng(35)
        X = rng.normal(size=(120, 300))
        graph, domain, W = assembled(X, 12)
        assert_rows_match_reference(graph, domain, W)
        monkeypatch.setattr(weight_solver, "_GATHER_BYTES", gather_bytes)
        monkeypatch.setattr(weight_solver, "_STATE_BYTES", state_bytes)
        blocked = assemble_weight_matrix(graph, domain)
        assert np.array_equal(blocked.matrix.indptr, W.matrix.indptr)
        assert np.array_equal(blocked.matrix.indices, W.matrix.indices)
        assert np.array_equal(blocked.matrix.data, W.matrix.data)

    def test_solve_row_weights_matches_reference(self):
        rng = np.random.default_rng(36)
        for _ in range(300):
            k = int(rng.integers(1, 12))
            d = int(rng.integers(1, 8))
            M = rng.integers(-2, 3, size=(k, d)).astype(float) if _ % 3 == 0 else rng.normal(size=(k, d))
            x = rng.normal(size=d)
            assert np.array_equal(solve_row_weights(x, M), reference_row_weights(x, M))


class TestFallbackCounters:
    def test_lstsq_fallback_counted(self):
        # rows 1 and 2 coincide, so row 0's KKT system is singular
        X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        graph, domain, W = assembled(X, 2)
        assert (W.lstsq_fallbacks, W.uniform_fallbacks, W.capped_rows) == (1, 0, 0)
        assert_rows_match_reference(graph, domain, W)

    def test_uniform_fallback_counted(self):
        # a target at 1e140 next to neighbors at 1e116: the weights overflow
        X = np.array([
            [-3.3560803332769042e140, -5.426894624359061e139, 4.942150948314312e140],
            [-3.39531008698164e116, -3.50530218612727e116, -3.2944995746108044e116],
            [2.8390511348310316e116, 2.9444772495280114e116, 9.621285502204014e116],
            [9.284215804413864e116, 1.3320930804934343e117, 8.063630567820633e116],
        ])
        with np.errstate(all="ignore"):
            graph, domain, W = assembled(X, 3)
        assert (W.lstsq_fallbacks, W.uniform_fallbacks, W.capped_rows) == (0, 1, 0)
        assert np.array_equal(W.row(0)[1], np.full(3, 1.0 / 3.0))
        with np.errstate(all="ignore"):
            assert_rows_match_reference(graph, domain, W)

    def test_capped_rows_counted(self):
        # neighbors at 1e19 around a zero target: rounding in the 1e38 Gram
        # dwarfs the dual tolerance and the active set cycles to the cap
        rng = np.random.default_rng(0)
        X = np.vstack([np.zeros(4), 1e19 * rng.normal(size=(10, 4))])
        graph, domain, W = assembled(X, 10)
        assert (W.lstsq_fallbacks, W.uniform_fallbacks, W.capped_rows) == (2, 0, 3)
        assert_rows_match_reference(graph, domain, W)

    def test_counters_default_to_zero(self):
        rng = np.random.default_rng(37)
        _, _, W = assembled(rng.normal(size=(30, 3)), 4)
        assert (W.lstsq_fallbacks, W.uniform_fallbacks, W.capped_rows) == (0, 0, 0)
        fixed = fix_known_block(W, 10)
        assert (fixed.lstsq_fallbacks, fixed.uniform_fallbacks, fixed.capped_rows) == (0, 0, 0)


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
