import itertools
import warnings

import numpy as np
import pytest
from scipy import sparse

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
    impute_aligned,
    make_transfer_data,
    solve_row_weights,
    write_coordinate_text,
)
from embimpute import weight_solver
from test_manifold_graph import in_neighbors

_DUAL_TOL = 1e-10
_FEAS_TOL = 1e-12


# --- per-row reference: the active-set loop, one row and one solve at a time --


def _kkt_solve(G, free_idx):
    f = free_idx.size
    A = np.zeros((f + 1, f + 1))
    A[:f, :f] = G[np.ix_(free_idx, free_idx)]
    A[:f, f] = 1.0
    A[f, :f] = 1.0
    b = np.zeros(f + 1)
    b[f] = 1.0
    try:
        sol = np.linalg.solve(A, b)
        if not np.isfinite(sol).all():
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(A, b, rcond=None)[0]
    return sol[:f], sol[f]


def _active_set(G, w, free, dual_tol):
    k = w.size
    for _ in range(3 * k):
        idx = np.flatnonzero(free)
        wf, mu = _kkt_solve(G, idx)
        if wf.min(initial=0.0) >= -_FEAS_TOL:
            w = np.zeros(k)
            w[idx] = np.clip(wf, 0.0, None)
            lam = G @ w + mu
            zero_idx = np.flatnonzero(~free)
            if zero_idx.size:
                j = zero_idx[np.argmin(lam[zero_idx])]
                if lam[j] < -dual_tol:
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


def _scaled(G):
    """G times the power of two that puts its largest diagonal entry in
    [1/2, 1), as the solver scales each row."""
    return np.ldexp(G, -np.frexp(np.diag(G).max())[1])


def _simplex_lsq(G):
    """The solver's path on wᵀGw/2: start at the best vertex (least G_jj)
    with only it free; the dual tolerance is relative to the largest
    diagonal entry of G."""
    G = _scaled(G)
    diag = np.diag(G)
    w = np.zeros(diag.size)
    w[np.argmin(diag)] = 1.0
    return _active_set(G, w, w > 0.0, _DUAL_TOL * diag.max())


def _uniform_start_lsq(G):
    """Oracle for the optimum only: the same loop started at the uniform
    point with every coordinate free and an absolute dual tolerance."""
    k = G.shape[0]
    return _active_set(_scaled(G), np.full(k, 1.0 / k), np.ones(k, dtype=bool), _DUAL_TOL)


def reference_row_weights(x, M, simplex_lsq=_simplex_lsq):
    """The solver's row problem: the Gram matrix of the neighbors' offsets
    from the target."""
    k = M.shape[0]
    if k == 1:
        return np.ones(1)
    offsets = M - x
    w = simplex_lsq(offsets @ offsets.T)
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
        domain.data[[15, 7], [0, 1]] = np.nan  # corrupt after validation
        with pytest.raises(ValidationError, match=r"^row 7 \(e7\): non-finite value$"):
            assemble_weight_matrix(g, domain)

    def test_known_row_no_solved_row_reads_is_refused(self):
        rng = np.random.default_rng(28)
        domain = DomainMatrix(tuple(f"e{i}" for i in range(20)), rng.normal(size=(20, 2)))
        g = build_graph(euclidean_distance_matrix(domain), 3)
        read = set(np.concatenate([in_neighbors(g, i) for i in range(10, 20)]).tolist())
        unread = min(set(range(10)) - read)
        domain.data[unread, 1] = np.inf  # corrupt after validation
        with pytest.raises(ValidationError, match=rf"^row {unread} \(e{unread}\): non-finite value$"):
            assemble_weight_matrix(g, domain, 10)

    def test_row_without_neighbors_named(self):
        domain = DomainMatrix(("a", "b", "c"), [[0.0], [1.0], [3.0]])
        g = build_graph(euclidean_distance_matrix(domain), 1)
        # g with the edges into b left out
        keep = np.r_[g.indptr[0] : g.indptr[1], g.indptr[2] : g.indptr[3]]
        empty = NeighborGraph(3, [0, 1, 1, 2], g.indices[keep])
        domain.data[2, 0] = np.nan
        with pytest.raises(ValidationError, match=r"^row 1 \(b\): at least one neighbor"):
            assemble_weight_matrix(empty, domain)


def assert_same_bits(a: WeightMatrix, b: WeightMatrix):
    assert np.array_equal(a.matrix.indptr, b.matrix.indptr)
    assert np.array_equal(a.matrix.indices, b.matrix.indices)
    assert a.matrix.data.tobytes() == b.matrix.data.tobytes()


class TestKnownRowsAreIdentity:
    """Rows below ``n_known`` are identity rows and are never solved."""

    def test_equals_the_fixed_raw_matrix_on_the_c2_systems(self, random_system):
        for seed in range(20):
            sys = random_system(n=100, p=40, d=8, s=16, delta=8, seed=seed)
            assert_same_bits(assemble_weight_matrix(sys.graph, sys.domain, 40), sys.fixed)

    @pytest.mark.parametrize("n_known", [1, 37, 150, 299, 300])
    def test_equals_the_fixed_raw_matrix_over_several_in_degrees(self, n_known):
        rng = np.random.default_rng(40)
        graph, domain, raw = assembled(rng.normal(size=(300, 4)), 3)
        assert np.unique(graph.in_degrees()[n_known:]).size >= min(3, 300 - n_known)
        frozen = assemble_weight_matrix(graph, domain, n_known)
        assert_same_bits(frozen, fix_known_block(raw, n_known))

    def test_known_rows_need_no_neighbor(self):
        domain = DomainMatrix(("a", "b", "c"), [[0.0], [1.0], [3.0]])
        g = build_graph(euclidean_distance_matrix(domain), 1)
        # g with the edges into a left out; a's own vector stays finite
        keep = np.r_[g.indptr[1] : g.indptr[3]]
        graph = NeighborGraph(3, [0, 0, *(g.indptr[2:] - g.indptr[1])], g.indices[keep])
        with pytest.raises(ValidationError, match=r"^row 0 \(a\): at least one neighbor"):
            assemble_weight_matrix(graph, domain)
        # rows b and c keep their in-edges, so they keep their weights
        expected = fix_known_block(assemble_weight_matrix(g, domain), 1)
        assert_same_bits(assemble_weight_matrix(graph, domain, 1), expected)

    def test_only_the_free_rows_are_solved(self, monkeypatch):
        solved = []
        simplex_rows = weight_solver._simplex_rows

        def counting(G):
            solved.append(G.shape[0])
            return simplex_rows(G)

        monkeypatch.setattr(weight_solver, "_simplex_rows", counting)
        rng = np.random.default_rng(41)
        n, p = 120, 70
        domain = DomainMatrix(tuple(f"e{i}" for i in range(n)), rng.normal(size=(n, 5)))
        _, weights, result, _ = impute_aligned(domain, rng.normal(size=(p, 3)), 4)
        assert sum(solved) == n - p
        assert result.converged
        assert weights.toarray()[:p].tolist() == np.eye(p, n).tolist()

    @pytest.mark.parametrize("bad", [-1, 31, 2.5, "3", None])
    def test_bad_known_count_is_one_line_error(self, bad):
        graph, domain, _ = assembled(np.random.default_rng(42).normal(size=(30, 3)), 4)
        with pytest.raises(ValidationError, match="^known-row count must be an integer") as info:
            assemble_weight_matrix(graph, domain, bad)
        assert "\n" not in str(info.value)


class TestZeroWeightColumns:
    """Columns with no off-diagonal weight: entities that influence no other."""

    @staticmethod
    def reference(W: WeightMatrix) -> int:
        dense = W.toarray()
        np.fill_diagonal(dense, 0.0)
        return int((dense.sum(axis=0) == 0.0).sum())

    def test_raw_matrices_count_columns_with_no_weight(self, random_system):
        for seed in range(5):
            sys = random_system(n=100, p=40, d=2, s=4, delta=3, seed=seed)
            m = sys.weights.matrix
            assert sys.weights.zero_weight_columns == m.shape[0] - np.unique(m.indices).size
            assert sys.weights.zero_weight_columns == self.reference(sys.weights)

    def test_identity_rows_count_for_nothing(self, random_system):
        sys = random_system(n=100, p=40, d=2, s=4, delta=3, seed=0)
        frozen = assemble_weight_matrix(sys.graph, sys.domain, 40)
        free_weight = sys.weights.toarray()[40:].sum(axis=0)
        unread = int((free_weight == 0.0).sum())
        # some known entity is nobody's weighted neighbor among the free rows
        assert (free_weight[:40] == 0.0).any()
        assert frozen.zero_weight_columns == sys.fixed.zero_weight_columns == unread
        assert unread == self.reference(frozen)

    def test_hand_built_diagonal_weight_counts_for_nothing(self):
        W = WeightMatrix(sparse.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])))
        assert W.zero_weight_columns == 2


class TestScaleGrid:
    """Rows times any power of two give the unscaled rows' weights, bit
    for bit: the rows are read unit-scaled. Past 2^±512 their offset
    products would overflow, or underflow, if read as given."""

    @pytest.mark.parametrize("k", [-1000, -600, -520, 520, 600, 1000])
    def test_assembly(self, k, capfd):
        X = np.random.default_rng(36).normal(size=(200, 6))
        # no value is subnormal or overflows at either scale
        assert np.abs(X).min() * 2.0**-1000 > np.finfo(float).tiny and np.abs(X).max() < 4
        domain = DomainMatrix(tuple(f"e{i}" for i in range(200)), X)
        graph = build_graph(euclidean_distance_matrix(domain), 8)
        expected = assemble_weight_matrix(graph, domain, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = assemble_weight_matrix(graph, DomainMatrix(domain.entities, np.ldexp(X, k)), 100)
        assert_same_bits(W, expected)
        assert (W.lstsq_fallbacks, W.uniform_fallbacks, W.capped_rows) == (
            expected.lstsq_fallbacks, expected.uniform_fallbacks, expected.capped_rows
        )
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_one_row(self, k):
        rng = np.random.default_rng(37)
        x, M = rng.normal(size=3), rng.normal(size=(5, 3))
        expected = solve_row_weights(x, M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = solve_row_weights(np.ldexp(x, k), np.ldexp(M, k))
        assert w.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["target", "neighbor"])
    def test_non_finite_input_is_a_one_line_error(self, bad, where, capfd):
        x, M = np.array([0.5, 1.5]), np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
        if where == "target":
            x[1] = bad
        else:
            M[2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^non-finite value in the target or neighbor vectors$"):
                solve_row_weights(x, M)
        assert capfd.readouterr().err == ""


class TestLockstepMatchesPerRowReference:
    @pytest.mark.parametrize("delta", [4, 8, 16, 32])
    def test_random_problems(self, delta):
        X = np.random.default_rng(delta).normal(size=(300, 6))
        graph, domain, W = assembled(X, delta)
        assert_rows_match_reference(graph, domain, W)

    @pytest.mark.parametrize("delta", [8, 16, 32])
    def test_low_rank_transfer_problems(self, delta):
        # the affinity rows span 4 of 16 dimensions, so a KKT system with
        # more than five free neighbors is singular; a support grown from
        # one vertex stays affinely independent, so no row needs lstsq
        data = make_transfer_data(SyntheticTransferSpec(n=300, p=200, seed=delta))
        graph = build_graph(euclidean_distance_matrix(data.domain), delta)
        W = assemble_weight_matrix(graph, data.domain)
        assert W.lstsq_fallbacks == 0
        assert_rows_match_reference(graph, data.domain, W)

    def test_duplicate_neighbor_rows(self):
        rng = np.random.default_rng(30)
        base = rng.normal(size=(60, 3))
        graph, domain, W = assembled(np.vstack([base, base[:30], base[:10]]), 6)
        # a copy of a free neighbor has a zero reduced gradient, so it never
        # enters and no KKT system is singular
        assert W.lstsq_fallbacks == 0
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
        # neighbors 0 and 2 coincide and are both the best vertex: the
        # start takes 0
        w = solve_row_weights(np.array([2.0]), np.array([[0.0], [-1.0], [0.0]]))
        assert w.tolist() == [1.0, 0.0, 0.0]
        # neighbors 0 and 5 coincide: their reduced gradients tie when the
        # second coordinate enters, and the smaller index must win
        M = np.array([[-3.0, -1, 1], [0, 1, 1], [1, -3, 3], [0, 3, -2], [-1, 3, -2], [-3, -1, 1]])
        x = np.array([-2.0, 2, -1])
        w = solve_row_weights(x, M)
        assert np.flatnonzero(w).tolist() == [0, 4]
        assert np.array_equal(w, reference_row_weights(x, M))
        # two coordinates reach zero at the same step: the first one drops
        M = np.array([[0.0, -2], [-1, -3], [-1, 2], [-2, -2]])
        w = solve_row_weights(np.array([-1.0, 1]), M)
        assert np.flatnonzero(w).tolist() == [1, 2]
        assert np.array_equal(w, reference_row_weights(np.array([-1.0, 1]), M))
        # a drop tie whose choice shows in the support: dropping the first
        # gives (13/34, 21/34) on neighbors 0 and 1, dropping the last
        # leaves a weight of about 7e-20 on neighbor 2 as well
        M = np.array([[-1.0, 3, -2], [-1, -2, 1], [1, -2, 1], [1, -1, 0], [1, -3, 0], [-2, 1, -1]])
        x = np.array([-1.0, 0, 0])
        w = solve_row_weights(x, M)
        assert np.flatnonzero(w).tolist() == [0, 1]
        assert np.allclose(w[:2], [13 / 34, 21 / 34], rtol=0.0, atol=1e-15)
        assert np.array_equal(w, reference_row_weights(x, M))

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

    @pytest.mark.parametrize("block_bytes", [1, 8_000, 100_000])
    def test_blocking_does_not_change_results(self, monkeypatch, block_bytes):
        # rows wide enough to need several default gathers, against
        # smaller blocks: one row per block at 1 byte, about 6 rows gathered
        # one at a time at 8 000, tens of rows gathered 3 at a time at 100 000
        rng = np.random.default_rng(35)
        X = rng.normal(size=(120, 300))
        graph, domain, W = assembled(X, 12)
        assert_rows_match_reference(graph, domain, W)
        monkeypatch.setattr(weight_solver, "_BLOCK_BYTES", block_bytes)
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


def objective(G, c, w):
    return w @ G @ w / 2 - c @ w


def kkt_violation(G, c, w):
    """Largest violation of the simplex KKT conditions at ``w``: the
    gradient is level on the support and no lower off it."""
    grad = G @ w - c
    on = w > 0.0
    level = grad[on].mean()
    return max(np.abs(grad[on] - level).max(), (level - grad[~on]).max(initial=0.0))


class TestOptimality:
    @pytest.mark.parametrize("delta", [4, 8, 16, 32])
    def test_grid_problems_no_worse_than_uniform_start(self, delta):
        # where k exceeds the neighbors' affine rank the optimum is not
        # unique, so the weights may differ from the uniform start's; the
        # objective may not, and the KKT conditions must hold
        for seed in range(4):
            data = make_transfer_data(SyntheticTransferSpec(n=300, p=200, seed=seed))
            X = data.domain.data
            graph = build_graph(euclidean_distance_matrix(data.domain), delta)
            W = assemble_weight_matrix(graph, data.domain).toarray()
            for i in range(graph.n):
                srcs = in_neighbors(graph, i)
                M = X[srcs]
                G, c = M @ M.T, M @ X[i]
                w = W[i, srcs]
                old = reference_row_weights(X[i], M, _uniform_start_lsq)
                scale = max(np.abs(G).max(), np.abs(c).max())
                assert objective(G, c, w) <= objective(G, c, old) + 1e-12 * scale, (seed, i)
                assert kkt_violation(G, c, w) <= 1e-8 * np.abs(G).max(), (seed, i)


def kkt_matrix(G):
    f = G.shape[0]
    A = np.zeros((f + 1, f + 1))
    A[:f, :f] = G
    A[:f, f] = 1.0
    A[f, :f] = 1.0
    return A


def mixed_stack(rng, size, n):
    """``size`` n × n systems: exactly singular integer matrices, KKT
    matrices of duplicated neighbor rows, and well-posed matrices."""
    A = np.empty((size, n, n))
    for t in range(size):
        kind = t % 3
        if kind == 0:
            M = rng.integers(-3, 4, size=(n, n - 1)).astype(float)
            A[t] = M @ rng.integers(-3, 4, size=(n - 1, n))  # rank n - 1
        elif kind == 1:
            M = rng.normal(size=(n - 1, 4))
            M[1] = M[0]
            A[t] = kkt_matrix(M @ M.T)
        else:
            A[t] = rng.normal(size=(n, n))
    return A, rng.normal(size=(size, n, 1))


def per_matrix_solve(A, b):
    """Each system solved on its own; None where ``solve`` raises."""
    out = []
    for At, bt in zip(A, b):
        try:
            out.append(np.linalg.solve(At, bt))
        except np.linalg.LinAlgError:
            out.append(None)
    return out


class TestStackedSolve:
    def assert_matches_per_matrix(self, A, b):
        x = weight_solver._stacked_solve(A, b)
        expected = per_matrix_solve(A, b)
        assert any(e is None for e in expected) and any(e is not None for e in expected)
        for t, e in enumerate(expected):
            if e is None:
                assert np.isnan(x[t]).all(), t
            else:
                assert x[t].tobytes() == e.tobytes(), t

    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_nan_exactly_where_solve_raises(self, n):
        self.assert_matches_per_matrix(*mixed_stack(np.random.default_rng(n), 48, n))

    def test_stack_of_only_singular_systems(self):
        A, b = mixed_stack(np.random.default_rng(40), 12, 4)
        singular = [e is None for e in per_matrix_solve(A, b)]
        x = weight_solver._stacked_solve(A[singular], b[singular])
        assert np.isnan(x).all()

    @pytest.mark.parametrize("singular", [[0, 2], [0, 1, 2, 3]])
    def test_exactly_singular_systems_in_the_lockstep(self, singular):
        # G = -J has a negative diagonal, which no Gram matrix has, so the
        # dual tolerance is negative and the second coordinate enters with
        # a zero reduced gradient; its KKT system has two equal rows, so
        # every LU meets an exact zero pivot whatever the LAPACK build.
        # The other rows are well-posed Gram problems in the same stack.
        rng = np.random.default_rng(43)
        G = np.empty((4, 2, 2))
        for t in range(4):
            if t in singular:
                G[t] = -np.ones((2, 2))
            else:
                offsets = rng.normal(size=(2, 3))
                G[t] = offsets @ offsets.T
        W, counts = weight_solver._simplex_rows(G.copy())
        assert counts == (len(singular), 0, 0)
        for t in range(4):
            w = _simplex_lsq(G[t])
            assert W[t].tobytes() == (w / w.sum()).tobytes(), t
        assert np.allclose(W[singular], 0.5, rtol=0.0, atol=1e-12)


class TestFallbackCounters:
    def test_singular_kkt_systems_go_to_lstsq(self):
        # rows 1 and 3 have G = 0 on both free coordinates, so the first
        # two rows of their KKT matrix are equal and its LU meets an exact
        # zero pivot whatever the LAPACK build; rows 0 and 2 are well posed
        G = np.array([[[2.0, 1, 0], [1, 3, 0], [0, 0, 1]], np.zeros((3, 3))] * 2)
        rows = np.arange(4)
        sol, retry = weight_solver._kkt_solutions(G, rows, np.tile([0, 1], (4, 1)))
        assert retry.tolist() == [1, 3]
        for t in rows:
            A = kkt_matrix(G[t, :2, :2])
            b = np.array([0.0, 0.0, 1.0])
            expected = np.linalg.lstsq(A, b, rcond=None)[0] if t in (1, 3) else np.linalg.solve(A, b)
            assert sol[t].tobytes() == expected.tobytes(), t

    def test_lstsq_fallback_counted(self, monkeypatch):
        # every stacked solve reports the row's system as singular, in each
        # of its sweeps: each system then goes to lstsq and the row counts once
        rng = np.random.default_rng(2)
        offsets = rng.normal(size=(6, 3)) - rng.normal(size=3)
        G = (offsets @ offsets.T)[None]
        expected, counts = weight_solver._simplex_rows(G.copy())
        assert counts == (0, 0, 0)
        monkeypatch.setattr(weight_solver, "_stacked_solve", lambda A, b: np.full(b.shape, np.nan))
        W, counts = weight_solver._simplex_rows(G)
        assert counts == (1, 0, 0)
        assert np.flatnonzero(W[0]).tolist() == np.flatnonzero(expected[0]).tolist()
        assert np.allclose(W, expected, rtol=0.0, atol=1e-12)

    def test_largest_scale_needs_no_fallback(self, capfd):
        # a domain near the largest scale the distance stage accepts: its
        # rows are read unit-scaled, and each row's G is scaled by a power
        # of two before its KKT solves, so no row needs lstsq, whatever
        # the LAPACK build
        X = 5e153 * np.random.default_rng(1).normal(size=(8, 2))
        graph, domain, W = assembled(X, 4)
        assert (W.lstsq_fallbacks, W.uniform_fallbacks, W.capped_rows) == (0, 0, 0)
        assert_rows_match_reference(graph, domain, W)
        assert capfd.readouterr().err == ""

    def test_uniform_fallback_counted(self, monkeypatch):
        # a solve that returns zero weights and a zero multiplier: the row
        # takes them, nothing enters, and its weights sum to zero
        offsets = np.random.default_rng(3).normal(size=(5, 3))
        G = (offsets @ offsets.T)[None]
        monkeypatch.setattr(weight_solver, "_stacked_solve", lambda A, b: np.zeros(b.shape))
        W, counts = weight_solver._simplex_rows(G)
        assert counts == (0, 1, 0)
        assert np.array_equal(W, np.full((1, 5), 0.2))

    def test_capped_rows_counted(self):
        # row 1 sits 2.2e11 from its neighbors 2, 4 and 5, which lie within
        # 1.3e3 of each other: their offsets agree to 6e-9, and the active
        # set cycles among them to the cap. The weights it keeps still meet
        # the KKT conditions to 1e-9 of the largest Gram entry.
        X = np.array([
            [-59064729053.04867, -127835314529.31041],
            [-222578258445.13235, 32614276257.873882],
            [289.80016348355514, 1222.2096467533988],
            [1153769429155935.8, -142305343369880.75],
            [0.0007912771250696313, 0.0004090277669274618],
            [-0.00010294273379515029, 0.001396296309702924],
        ])
        graph, domain, W = assembled(X, 4)
        assert (W.lstsq_fallbacks, W.uniform_fallbacks, W.capped_rows) == (0, 0, 1)
        assert_rows_match_reference(graph, domain, W)
        srcs = in_neighbors(graph, 1)
        offsets = X[srcs] - X[1]
        G = offsets @ offsets.T
        assert kkt_violation(G, np.zeros(4), W.toarray()[1, srcs]) <= 1e-8 * np.abs(G).max()

    @pytest.mark.parametrize("offset", [1e2, 1e4, 1e5, 1e6])
    def test_shifted_domain_gives_the_same_supports(self, offset):
        # the row problems are posed on the neighbors' offsets from the
        # target, so a common shift moves neither the path nor the dual
        # tolerance; posed on the vectors themselves, this input's mean
        # support fell from 3.825 to 3.315 at 1e4 and 1.0 at 1e5
        base = np.random.default_rng(0).normal(size=(200, 4))
        graph, _, unit = assembled(base, 8)
        shifted_graph, _, W = assembled(base + offset, 8)
        assert np.array_equal(shifted_graph.indices, graph.indices)
        assert (W.lstsq_fallbacks, W.uniform_fallbacks, W.capped_rows) == (0, 0, 0)
        assert W.matrix.nnz == unit.matrix.nnz == 765
        assert np.array_equal(W.matrix.indices, unit.matrix.indices)
        # the shift itself rounds the inputs by up to 1.2e-10
        assert np.abs(W.matrix.data - unit.matrix.data).max() < 1e-8

    @pytest.mark.parametrize("scale", [1e-100, 1e-8, 1.0, 1e8, 1e19, 1e100])
    def test_scaled_domain_gives_the_same_supports(self, scale):
        # the dual tolerance follows the scale of each row's Gram matrix;
        # with an absolute one this input gave 0 to 3 capped rows and
        # supports that changed with the scale
        rng = np.random.default_rng(0)
        base = np.vstack([np.zeros(4), rng.normal(size=(10, 4))])
        _, _, unit = assembled(base, 10)
        graph, domain, W = assembled(scale * base, 10)
        assert (W.lstsq_fallbacks, W.uniform_fallbacks, W.capped_rows) == (0, 0, 0)
        assert np.array_equal(W.matrix.indptr, unit.matrix.indptr)
        assert np.array_equal(W.matrix.indices, unit.matrix.indices)
        assert_rows_match_reference(graph, domain, W)

    def test_counters_default_to_zero(self):
        rng = np.random.default_rng(37)
        _, _, W = assembled(rng.normal(size=(30, 3)), 4)
        assert (W.lstsq_fallbacks, W.uniform_fallbacks, W.capped_rows) == (0, 0, 0)
        fixed = fix_known_block(W, 10)
        assert (fixed.lstsq_fallbacks, fixed.uniform_fallbacks, fixed.capped_rows) == (0, 0, 0)


class TestWeightMatrixType:
    def test_rejects_negative_entries(self):
        m = sparse.csr_matrix(np.array([[1.5, -0.5], [0.5, 0.5]]))
        with pytest.raises(ValidationError, match="non-negative"):
            WeightMatrix(m)

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([[np.nan, 1.0], [0.5, 0.5]], id="nan"),
            pytest.param([[np.nan, -1.0], [0.5, 0.5]], id="nan-and-negative"),
            pytest.param([[np.inf, 1.0], [0.5, 0.5]], id="inf"),
        ],
    )
    def test_rejects_non_finite_entries(self, rows):
        # a NaN fails both the sign and the row-sum comparison, so it used
        # to switch off both checks
        with pytest.raises(ValidationError, match="entries must be finite") as info:
            WeightMatrix(sparse.csr_matrix(np.array(rows)))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("bad", [1.5, "1", None, -1, 2])
    def test_row_index_must_be_an_integer_in_range(self, bad):
        W = WeightMatrix(sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        with pytest.raises(ValidationError, match="^row index") as info:
            W.row(bad)
        assert "\n" not in str(info.value)
        assert W.row(np.int64(1))[0].tolist() == [0]

    def test_normalizes_a_copy_of_the_callers_matrix(self):
        # row 0 stores an explicit zero and its columns out of order
        m = sparse.csr_matrix(([0.0, 1.0, 1.0], [1, 0, 1], [0, 2, 3]), shape=(2, 2))
        before = [a.copy() for a in (m.data, m.indices, m.indptr)]
        W = WeightMatrix(m)
        assert m.nnz == 3
        for got, want in zip((m.data, m.indices, m.indptr), before):
            assert np.array_equal(got, want)
        assert W.matrix.nnz == 2 and W.matrix.has_sorted_indices
        assert W.matrix.indices.tolist() == [0, 1]
        assert np.array_equal(W.toarray(), [[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_bad_row_sum(self):
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

    def test_coordinate_dump_matches_per_row_writer(self, tmp_path):
        m = sparse.csr_matrix(
            (
                [1.0, 1e-300, 1.0, 5e-324, 1.0, 0.25, 0.75, 1.0 / 3.0, 2.0 / 3.0],
                [2, 0, 4, 1, 3, 0, 5, 1, 6],
                [0, 1, 3, 5, 7, 9, 9, 9],
            ),
            shape=(7, 7),
        )
        W = WeightMatrix(sparse.eye(7, format="csr"))
        # rows 5 and 6 store nothing: the dump must not lean on row sums
        object.__setattr__(W, "matrix", m)
        expected = "".join(
            f"{i} {j} {v:.17g}\n"
            for i in range(W.n)
            for j, v in zip(*(a.tolist() for a in W.row(i)))
        )
        path = tmp_path / "w.txt"
        write_coordinate_text(W, path)
        assert path.read_bytes() == expected.encode()
        assert "e-324" in expected and "1e-300" in expected
