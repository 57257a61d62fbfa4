import dataclasses
import importlib
import math
import pickle
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import embimpute as ei
from embimpute import domain_geometry, manifold_graph, pipeline
from embimpute.pipeline import _STAGES
from test_domain_geometry import spreadsheet_fill, squared_distance_bound
from test_manifold_graph import EXACT_READ_INPUTS, ORACLE_INPUTS, blocks_of, collinear, directed_edges, lattice


def random_problem(seed, n=40, p=25, d=5, s=6):
    rng = np.random.default_rng(seed)
    entities = tuple(f"e{i:03d}" for i in range(n))
    domain = ei.DomainMatrix(entities, rng.normal(size=(n, d)))
    table = ei.EmbeddingTable(s, {e: rng.normal(size=s) for e in entities[:p]})
    return domain, table


def _gram_overflow(rng):
    # |x|^2 would overflow near 2^1022 d, while the offsets, near 2^491,
    # keep every distance finite; unit-scaled, the offsets are near 2^-20
    # of rows near 1, so the keys cancel to a few bits and decisions are
    # often made on exact distances
    n, d = int(rng.integers(2, 31)), int(rng.integers(1, 5))
    return 2.0**511 * (1.0 + 2.0**-20 * rng.normal(size=(n, d)))


def _lattice(rng):
    sides = rng.integers(2, 6, size=rng.integers(1, 4))
    if np.prod(sides) < 3:
        sides = np.append(sides, 2)
    return rng.permutation(lattice(*sides)) * rng.choice([1.0, 0.1, 3.0])


def _rows(rng, scale=1.0, offset=0.0):
    n, d = int(rng.integers(2, 31)), int(rng.integers(1, 5))
    return scale * rng.normal(size=(n, d)) + offset


def _duplicated(rng):
    base = _rows(rng)
    return base[rng.integers(0, len(base), size=len(base) + int(rng.integers(1, 10)))]


# randomized domains, 2 to 125 rows each, by kind
GRAPH_INPUTS = {
    "random": _rows,
    "rounded": lambda rng: np.round(_rows(rng, 2.0)) / rng.choice([1.0, 4.0, 10.0]),
    "lattice": _lattice,
    "duplicated": _duplicated,
    "identical": lambda rng: np.full((int(rng.integers(2, 31)), 3), rng.normal()),
    "offset_1e6": lambda rng: _rows(rng, offset=1e6),
    "scale_2^400": lambda rng: _rows(rng, 2.0**400),
    "scale_2^-400": lambda rng: _rows(rng, 2.0**-400),
    "gram_overflow": _gram_overflow,
    # every distance of the rows as given underflows to 0; unit-scaled,
    # none does
    "collinear_1e-300": lambda rng: collinear(int(rng.integers(2, 31)), 1e-300),
}
RANDOMIZED_COUNT = 160  # inputs per kind; 1600 in all


class TestImputeAligned:
    def test_matches_staged_public_calls(self, random_system):
        sys = random_system(n=45, p=20, d=4, s=5, delta=5, seed=60)
        config = ei.ImputationConfig(eta=1e-4, seed=3)
        graph, weights, result, timings = ei.impute_aligned(sys.domain, sys.known, 5, config)

        expected = ei.power_iterate(sys.fixed, sys.known, config)
        assert directed_edges(graph) == directed_edges(sys.graph)
        assert (weights.matrix != sys.fixed.matrix).nnz == 0
        assert result.Y.tobytes() == expected.Y.tobytes()
        assert result.iterations == expected.iterations
        assert list(timings) == ["distance", "graph", "weights", "iterate"]

    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    @pytest.mark.parametrize("rows", [None, 3])
    def test_graph_equals_build_graph_on_cdist(self, name, rows, monkeypatch):
        make, deltas = ORACLE_INPUTS[name]
        data = make()
        n = len(data)
        # the oracle on the rows the pipeline ranks, at the real block
        # size, before any shrinking; only collinear_1e-300 has distances
        # that unit scaling changes the ranks of
        unit = domain_geometry._unit_scaled(data)
        expected = {delta: ei.build_graph(cdist(unit, unit), delta) for delta in deltas}
        reads = []

        def counting_cdist(a, b):
            reads.append(1)
            return cdist(a, b)

        monkeypatch.setattr(domain_geometry, "cdist", counting_cdist)
        blocks = []
        if rows:
            # 3-row blocks of key rows split every input but two_points,
            # so the cut runs block by block and the tree reads its full
            # rows in blocks too
            blocks_of(monkeypatch, rows, n)
            cut = manifold_graph._nearest_columns

            def counting_cut(block, r, *args, **kwargs):
                if r > 1:  # the tree's full rows are cut for one column
                    blocks.append(1)
                return cut(block, r, *args, **kwargs)

            monkeypatch.setattr(manifold_graph, "_nearest_columns", counting_cut)
        domain = ei.DomainMatrix(tuple(f"e{i}" for i in range(n)), data)
        # one free row, whose in-neighbors are all known: every graph,
        # delta 1 on a lattice included, leaves it reachable
        known = np.random.default_rng(64).normal(size=(n - 1, 3))
        for delta in deltas:
            blocks.clear()
            reads.clear()
            graph, *_ = ei.impute_aligned(domain, known, delta)
            if rows:
                assert len(blocks) == math.ceil(n / rows)
            if name in EXACT_READ_INPUTS:
                assert reads, delta
            assert np.array_equal(graph.indptr, expected[delta].indptr)
            assert np.array_equal(graph.indices, expected[delta].indices)

    @pytest.mark.parametrize("kind", sorted(GRAPH_INPUTS))
    def test_graph_equals_build_graph_on_cdist_randomized(self, kind, monkeypatch):
        # the graph ranks Gram keys of the unit-scaled rows and reads cdist
        # of those rows only where two keys are within the error margin;
        # count those reads
        reads = []

        def counting_cdist(a, b, *args, **kwargs):
            assert max(np.abs(a).max(), np.abs(b).max()) < 2.0
            reads.append(len(a) * len(b))
            return cdist(a, b, *args, **kwargs)

        def never(*args):
            raise AssertionError("the pipeline called the distance matrix")

        monkeypatch.setattr(domain_geometry, "cdist", counting_cdist)
        monkeypatch.setattr(domain_geometry, "euclidean_distance_matrix", never)
        rng = np.random.default_rng(sorted(GRAPH_INPUTS).index(kind) + 80)
        for i in range(RANDOMIZED_COUNT):
            data = GRAPH_INPUTS[kind](rng)
            n = len(data)
            # delta 1, n - 1 and one between, in turn
            delta = (1, n - 1, int(rng.integers(1, n)))[i % 3]
            domain = ei.DomainMatrix(tuple(f"e{j}" for j in range(n)), data)
            known = rng.normal(size=(n - 1, 2))
            reads.clear()
            graph, *_ = ei.impute_aligned(domain, known, delta)
            unit = domain_geometry._unit_scaled(data)
            expected = ei.build_graph(cdist(unit, unit), delta)
            assert np.array_equal(graph.indptr, expected.indptr), (kind, i)
            assert np.array_equal(graph.indices, expected.indices), (kind, i)
            if kind == "random":
                assert not reads, i
            if kind == "lattice":
                assert reads, i

    @pytest.mark.parametrize(
        "known, message",
        [
            (np.empty((0, 3)), "known-row count must be an integer >= 1, got 0"),
            (np.ones(3), "known vectors must form a (p, s) matrix"),
            (np.full((5, 3), np.nan), "known vectors contain non-finite values"),
            (np.ones((41, 3)), "known-row count must be an integer in [1, 40], got 41"),
        ],
        ids=["no_rows", "one_d", "nan", "more_rows_than_domain"],
    )
    def test_known_checked_before_the_distance_stage(self, known, message, monkeypatch):
        def never(*args):
            raise AssertionError("the distance stage ran before known was checked")

        monkeypatch.setattr(pipeline, "_key_rows", never)
        domain, _ = random_problem(66)  # n = 40
        with pytest.raises(ei.ValidationError) as info:
            ei.impute_aligned(domain, known, 4)
        assert str(info.value) == message

    def test_impute_embeddings_is_align_then_impute_aligned(self):
        domain, table = random_problem(61)
        run = ei.impute_embeddings(domain, table, delta=4)
        _, weights, result, _ = ei.impute_aligned(
            run.problem.domain, run.problem.known, delta=4
        )
        assert (weights.matrix != run.weights.matrix).nnz == 0
        assert result.Y.tobytes() == run.result.Y.tobytes()


GRAPH_PEAK_CODE = """
import resource
import numpy as np
from embimpute import DomainMatrix, domain_geometry
from embimpute.pipeline import _neighbor_graph
n = 8192
domain = DomainMatrix([f"e{i}" for i in range(n)], np.random.default_rng(0).normal(size=(n, 4)))
# imports, BLAS threads and the first mappings, on a small graph first
domain_geometry.cdist(domain.data[:2], domain.data[:2])
_neighbor_graph(DomainMatrix(domain.entities[:300], domain.data[:300]), 8, {})
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
graph, _ = _neighbor_graph(domain, 8, {})
assert graph.in_degrees().min() >= 8
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
def test_graph_of_8192_rows_keeps_no_n_by_n_array():
    # a fresh process, whose peak resident size is this graph's: n x n
    # float32 keys alone would take 256 MiB, and one block of key rows
    # with the cut takes a few
    child = subprocess.run([sys.executable, "-c", GRAPH_PEAK_CODE], capture_output=True, text=True, check=True)
    assert int(child.stdout) < 64 * 1024


class TestImputeEmbeddings:
    def test_timings_keep_the_six_stages(self):
        domain, table = random_problem(62)
        run = ei.impute_embeddings(domain, table, delta=4)
        assert list(run.timings) == list(_STAGES)
        assert _STAGES == ("align", "distance", "graph", "weights", "iterate", "merge")
        assert all(t > 0.0 for t in run.timings.values())

    def test_timings_when_nothing_is_missing(self):
        domain, table = random_problem(63, n=10, p=10)
        run = ei.impute_embeddings(domain, table)
        assert list(run.timings) == list(_STAGES)
        assert run.graph is None and run.weights is None
        assert all(run.timings[k] == 0.0 for k in ("distance", "graph", "weights", "iterate"))

    @pytest.mark.parametrize("delta", [2.5, "3", None])
    def test_non_integer_delta_is_one_line_error(self, delta):
        domain, table = random_problem(64)
        with pytest.raises(ei.ValidationError, match="minimum degree must be an integer") as info:
            ei.impute_embeddings(domain, table, delta=delta)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("delta", [0, 40, 2.5])
    def test_delta_checked_before_the_quadratic_stages(self, delta, monkeypatch):
        def never(*args):
            raise AssertionError("an O(n^2) stage ran before delta was checked")

        # the pipeline calls the key stage, and never the distance matrix
        monkeypatch.setattr(domain_geometry, "euclidean_distance_matrix", never)
        monkeypatch.setattr(pipeline, "_key_rows", never)
        monkeypatch.setattr(pipeline, "_cut", never)
        monkeypatch.setattr(manifold_graph, "_mst", never)
        domain, table = random_problem(65)  # n = 40
        with pytest.raises(ei.ValidationError, match="^minimum degree"):
            ei.impute_embeddings(domain, table, delta=delta)


def _random_rows(seed, n, d, scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=(n, d))


# (rows, known count p, delta); the known entities are the first p rows
DEGENERATE_INPUTS = {
    "one_feature": (lambda: _random_rows(70, 30, 1), 15, 8),
    "one_known": (lambda: _random_rows(71, 30, 3), 1, 8),
    "rows_tripled": (lambda: np.tile(_random_rows(72, 10, 3), (3, 1)), 15, 8),
    "all_rows_identical": (lambda: np.ones((20, 3)), 10, 8),
    "all_tie_grid_6x6": (lambda: lattice(6, 6), 18, 8),
    "collinear": (lambda: np.linspace(0.0, 1.0, 25)[:, None] * [1.0, -2.0, 0.5], 12, 8),
    "scale_1e-150": (lambda: _random_rows(73, 30, 3, 1e-150), 15, 8),
    "scale_1e150": (lambda: _random_rows(73, 30, 3, 1e150), 15, 8),
    "two_entities": (lambda: np.array([[0.0, 1.0], [2.0, -1.0]]), 1, 1),
}


def _degenerate_problem(rows, p, seed=74):
    entities = tuple(f"e{i:03d}" for i in range(len(rows)))
    rng = np.random.default_rng(seed)
    table = ei.EmbeddingTable(4, {e: rng.normal(size=4) for e in entities[:p]})
    return ei.DomainMatrix(entities, rows), table


def unknown_twins():
    """n = 300, d = 16, p = 150: the last two entities, both unknown, share
    one domain row. Each twin's whole weight goes to the other, so the
    pair reads only itself and no known row reaches it."""
    rows = _random_rows(75, 300, 16)
    rows[299] = rows[298]
    return _degenerate_problem(rows, 150)


class TestDegenerateInputs:
    """Inputs at the edges of the method, run end to end."""

    @pytest.mark.parametrize("name", sorted(DEGENERATE_INPUTS))
    def test_converges_with_no_fallback(self, name):
        make, p, delta = DEGENERATE_INPUTS[name]
        domain, table = _degenerate_problem(make(), p)
        run = ei.impute_embeddings(domain, table, delta=delta)
        assert run.result.converged
        assert all(np.isfinite(v).all() for v in run.table.entries.values())
        assert len(run.table) == domain.n
        for token, vector in table.entries.items():
            assert run.table.entries[token].tobytes() == vector.tobytes()
        w = run.weights
        assert (w.lstsq_fallbacks, w.uniform_fallbacks, w.capped_rows) == (0, 0, 0)

    def test_overflowing_distances_impute_as_unit_scaled_rows(self):
        rows = _random_rows(73, 30, 3, 1e154)
        assert not np.isfinite(cdist(rows, rows)).all()
        runs = [
            ei.impute_embeddings(*_degenerate_problem(r, 15))
            for r in (rows, domain_geometry._unit_scaled(rows))
        ]
        assert_same_run(*runs)
        w = runs[0].weights
        assert (w.lstsq_fallbacks, w.uniform_fallbacks, w.capped_rows) == (0, 0, 0)

    def test_unknown_twins_are_named(self):
        domain, table = unknown_twins()
        with pytest.raises(ei.ConvergenceError) as info:
            ei.impute_embeddings(domain, table, delta=8)
        message = str(info.value)
        assert message.startswith("some unknown rows are unreachable from the known block")
        assert "row 298 among them" in message and "\n" not in message

    def test_interior_lone_anchor_is_unreachable(self):
        # with every other entity as a neighbor, each grid point on the
        # boundary is rebuilt from boundary points, so no weight chain
        # reaches the one known entity at interior point (2, 2)
        rows = lattice(6, 6)
        rows[[0, 14]] = rows[[14, 0]]
        domain, table = _degenerate_problem(rows, 1)
        with pytest.raises(ei.ConvergenceError, match="unreachable") as info:
            ei.impute_embeddings(domain, table, delta=domain.n - 1)
        assert "\n" not in str(info.value)


def assert_same_run(run, expected):
    """Two ``PipelineRun``s with the same graph, weights and vectors, bit for bit."""
    assert np.array_equal(run.graph.indptr, expected.graph.indptr)
    assert np.array_equal(run.graph.indices, expected.graph.indices)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(run.weights.matrix, name), getattr(expected.weights.matrix, name)
        assert got.tobytes() == want.tobytes(), name
    assert run.result.Y.tobytes() == expected.result.Y.tobytes()


# domains for the power-of-two tests: rounded rows hold exact ties, and a
# 1-feature domain orders its rows on a line
SCALE_INPUTS = {
    "random_60x5": lambda: _random_rows(76, 60, 5),
    "rounded_60x3": lambda: np.round(_random_rows(77, 60, 3, 4.0)) / 4,
    "one_feature_40": lambda: _random_rows(78, 40, 1),
}
# every exponent keeps these rows normal and finite, and the outer ones
# lie past both ends (about +-511) of where their squares stay normal
SCALE_EXPONENTS = (-1000, -997, -520, -300, -3, 5, 300, 520, 1000)


class TestScaleExact:
    """A domain multiplied by 2^k gives the unscaled run, bit for bit."""

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    @pytest.mark.parametrize("name", sorted(SCALE_INPUTS))
    def test_power_of_two_changes_no_bit(self, name, k, tmp_path):
        rows = SCALE_INPUTS[name]()
        p = len(rows) // 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = [
                ei.impute_embeddings(*_degenerate_problem(r, p), delta=4)
                for r in (rows, np.ldexp(rows, k))
            ]
        assert_same_run(*runs)
        files = [tmp_path / "unscaled.vec", tmp_path / "scaled.vec"]
        for run, path in zip(runs, files):
            ei.save_embeddings(run.table, path)
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_collinear_rows_at_1e_300(self):
        # every squared offset of these rows underflows to 0: ranked as
        # given, by index order alone, every imputed entity gets (0, 1)
        k = np.arange(12.0)
        rows = k[:, None] * np.array([1.0, 2.0]) * 1e-300
        table = ei.EmbeddingTable(2, {f"e{i:03d}": [i, 1.0] for i in range(6)})
        runs = [
            ei.impute_embeddings(ei.DomainMatrix(tuple(f"e{i:03d}" for i in range(12)), r), table)
            for r in (rows, domain_geometry._unit_scaled(rows))
        ]
        assert_same_run(*runs)
        assert len({tuple(runs[0].result.Y[i]) for i in range(6, 12)}) == 6

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 2.0**-520], ids=["1e-170", "1e-160", "2^-520"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_domains(self, seed, scale):
        # the squared offsets underflow at 1e-170, and the weight gather's
        # products are subnormal at 1e-160 and 2^-520
        rng = np.random.default_rng(seed)
        rows, known = rng.normal(size=(20, 3)), rng.normal(size=(10, 4))
        entities = tuple(f"e{i}" for i in range(20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want, unscaled = (
                ei.impute_aligned(ei.DomainMatrix(entities, r), known, 2)
                for r in (rows * scale, domain_geometry._unit_scaled(rows * scale), rows)
            )
        assert np.array_equal(got[0].indptr, want[0].indptr)
        assert np.array_equal(got[0].indices, want[0].indices)
        assert (got[1].matrix != want[1].matrix).nnz == 0
        assert got[2].Y.tobytes() == want[2].Y.tobytes()
        # 1e-170 and 1e-160 round the rows: the answer moves by rounding only
        assert np.abs(got[2].Y - unscaled[2].Y).max() < 1e-12


def corr_files_inputs(seed, n=1200, T=500, sectors=12, dim=300):
    """The returns and known table of the benchmark's ``corr_files``
    workload at ``seed``, drawn in its order from its stream: a market and
    12 sector factors plus noise, 2% empty cells, 8 rows pushed over the
    20% drop threshold, and known vectors around sector centers for 60% of
    the kept entities. The returns are printed to 8 significant digits, as
    its CSV holds them."""
    rng = np.random.default_rng([seed, 1])
    sector = rng.integers(sectors, size=n)
    market = rng.normal(0.0, 0.01, T)
    factors = rng.normal(0.0, 0.01, (sectors, T))
    beta = rng.uniform(0.5, 1.5, n)
    loading = rng.uniform(0.3, 1.0, n)
    returns = (
        beta[:, None] * market
        + loading[:, None] * factors[sector]
        + rng.normal(0.0, 0.015, (n, T))
    )
    missing = rng.random((n, T)) < 0.02
    sparse_rows = rng.choice(n, 8, replace=False)
    missing[sparse_rows] |= rng.random((8, T)) < 0.3
    returns = np.array([float(f"{v:.8g}") for v in returns.ravel().tolist()]).reshape(n, T)
    returns[missing] = np.nan
    kept = np.flatnonzero(missing.mean(axis=1) <= 0.20)
    pick = kept[np.sort(rng.permutation(len(kept))[: int(0.6 * len(kept))])]
    centers = rng.normal(0.0, 1.0, (sectors, dim))
    vectors = centers[sector[pick]] + rng.normal(0.0, 1.5, (len(pick), dim))
    entities = [f"S{i:05d}" for i in range(n)]
    return entities, returns, ei.EmbeddingTable(dim, {entities[i]: v for i, v in zip(pick, vectors)})


def random_returns(rng, n, T):
    """(n, T) independent returns with 3% empty cells, and known vectors
    for the first half of the entities."""
    returns = rng.normal(size=(n, T))
    returns[rng.random((n, T)) < 0.03] = np.nan
    entities = [f"e{i:03d}" for i in range(n)]
    return entities, returns, ei.EmbeddingTable(5, {e: rng.normal(size=5) for e in entities[: n // 2]})


def repeated_series(rng):
    """40 entities over 12 days, the first 20 known. Entities 30-34 repeat
    the series of 5-9 as 2x + 1, and 35-39 repeat those of 0-4, so each of
    the ten pairs has C rows equal up to rounding."""
    entities, returns, table = random_returns(rng, 40, 12)
    returns[30:35] = 2 * returns[5:10] + 1
    returns[35:] = returns[:5]
    return entities, returns, table


# (entities, returns, table) by name: random sets whose domain is the
# factor (2T <= n) or C's rows (2T > n: T = n / 2 + 1, n - 1, n and
# above n), each drawn four times, and the corr_files inputs (the factor)
RETURN_SETS = {
    **{
        f"random_{n}x{T}": (lambda n=n, T=T: [random_returns(np.random.default_rng([n, T, k]), n, T) for k in range(4)])
        for n, T in [(60, 20), (150, 40), (60, 30), (60, 31), (60, 59), (60, 60), (60, 90)]
    },
    "corr_files_seed_3": lambda: [corr_files_inputs(3)],
    "corr_files_seed_2027": lambda: [corr_files_inputs(2027)],
    "repeated_series": lambda: [repeated_series(np.random.default_rng([40, 12, k])) for k in range(4)],
}
# Inputs whose graphs may differ, by name. A repeated series makes the
# distances of its two entities to every third one tie in C up to
# rounding; the factor and np.corrcoef round them apart, each its own way,
# so such ties break either way, and a twin's weights are not unique.
TIED_SETS = {"repeated_series"}
WEIGHT_TOL = 1e-12  # max |W_F - W_C| over the graph's edges
VECTOR_TOL = 1e-12  # max |Y_F - Y_C|, relative to max |Y_C|


class TestCorrelationFactor:
    """``impute_embeddings`` on ``correlation_domain_matrix`` gives the run
    on the np.corrcoef rows of the same filled series."""

    @pytest.mark.parametrize("name", sorted(RETURN_SETS))
    def test_run_matches_the_corrcoef_run(self, name):
        config = ei.ImputationConfig(eta=1e-2)
        for entities, returns, table in RETURN_SETS[name]():
            keep, filled = spreadsheet_fill(returns)
            kept = [e for e, k in zip(entities, keep) if k]
            factor = ei.impute_embeddings(ei.correlation_domain_matrix(entities, returns), table, 8, config)
            corr = ei.impute_embeddings(ei.DomainMatrix(kept, np.corrcoef(filled)), table, 8, config)
            assert factor.problem.order == corr.problem.order
            gained = directed_edges(factor.graph) - directed_edges(corr.graph)
            lost = directed_edges(corr.graph) - directed_edges(factor.graph)
            if name in TIED_SETS:
                # the graphs differ only by edges swapped for edges of the
                # same squared length in C, within the bound
                C = corr.problem.domain.data
                D2 = cdist(C, C) ** 2
                assert len(gained) == len(lost)
                gap = np.subtract(sorted(D2[e] for e in gained), sorted(D2[e] for e in lost))
                assert np.all(np.abs(gap) <= 2 * squared_distance_bound(*filled.shape))
                assert factor.result.converged
                continue
            assert not gained and not lost
            assert factor.result.iterations == corr.result.iterations
            W, V = factor.weights.matrix, corr.weights.matrix
            assert np.array_equal(W.indptr, V.indptr) and np.array_equal(W.indices, V.indices)
            assert np.abs(W.data - V.data).max() <= WEIGHT_TOL
            Y, X = factor.result.Y, corr.result.Y
            assert np.abs(Y - X).max() <= VECTOR_TOL * np.abs(X).max()


# a field of each of the package's 13 dataclasses, with a value that got
# past its __post_init__ check when assigned after construction
FROZEN_FIELDS = [
    ("DomainMatrix", "data", np.zeros((1, 1))),
    ("EmbeddingTable", "dim", 3),
    ("AlignedProblem", "known", np.zeros((9, 4))),
    ("LabeledEmbeddings", "labels", np.zeros(40)),
    ("ImputationConfig", "max_iter", 0),
    ("ImputationConfig", "eta", math.nan),
    ("SyntheticTransferSpec", "manifold_dim", 0),
    ("ImputationResult", "trace", (0.5,)),
    ("SpectralReport", "n_known", 0),
    ("WeightMatrix", "capped_rows", -1),
    ("NeighborGraph", "n", 0),
    ("PipelineRun", "weights", None),
    ("TransferReport", "iterations", -1),
    ("TransferData", "label_names", ()),
]


@pytest.fixture(scope="module")
def frozen_values():
    """One instance of every dataclass in the package, by class name."""
    domain, table = random_problem(66, n=12, p=8, s=4)
    run = ei.impute_embeddings(domain, table, delta=3)
    spec = ei.SyntheticTransferSpec(n=40, p=30)
    data = ei.make_transfer_data(spec)
    values = [
        domain,
        table,
        run.problem,
        ei.LabeledEmbeddings(data.semantic, data.labels, data.label_names),
        ei.ImputationConfig(),
        spec,
        run.result,
        ei.spectral_diagnostics(run.weights, run.problem.p),
        run.weights,
        run.graph,
        run,
        ei.run_synthetic_transfer(spec, delta=4, k=3),
        data,
    ]
    return {type(value).__name__: value for value in values}


class TestFrozenValues:
    def test_every_dataclass_is_listed(self, frozen_values):
        modules = [
            importlib.import_module(f"embimpute.{info.name}")
            for info in pkgutil.iter_modules(ei.__path__)
            if info.name != "__main__"
        ]
        classes = {
            name
            for module in modules
            for name, value in vars(module).items()
            if isinstance(value, type)
            and dataclasses.is_dataclass(value)
            and value.__module__ == module.__name__
        }
        assert len(classes) == 13
        assert classes == set(frozen_values) == {name for name, _, _ in FROZEN_FIELDS}

    @pytest.mark.parametrize(
        "name, field, value", FROZEN_FIELDS, ids=[f"{n}.{f}" for n, f, _ in FROZEN_FIELDS]
    )
    def test_assigning_a_field_raises(self, frozen_values, name, field, value):
        instance = frozen_values[name]
        before = getattr(instance, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field, value)
        assert getattr(instance, field) is before

    def test_every_value_pickles(self, frozen_values):
        for name, value in frozen_values.items():
            assert type(pickle.loads(pickle.dumps(value))).__name__ == name


def test_public_names():
    assert sorted(ei.__all__) == [
        "AlignedProblem",
        "ConvergenceError",
        "DomainMatrix",
        "EmbeddingTable",
        "ImputationConfig",
        "ImputationResult",
        "LabeledEmbeddings",
        "NeighborGraph",
        "PipelineRun",
        "SpectralReport",
        "SyntheticTransferSpec",
        "TransferReport",
        "ValidationError",
        "WeightMatrix",
        "align",
        "assemble_weight_matrix",
        "augment_to_min_degree",
        "build_graph",
        "build_mst",
        "closed_form_solve",
        "correlation_domain_matrix",
        "euclidean_distance_matrix",
        "fix_known_block",
        "graph_stats",
        "impute_aligned",
        "impute_embeddings",
        "is_connected",
        "knn_accuracy",
        "load_domain_csv",
        "load_embeddings",
        "load_labels_csv",
        "load_returns_csv",
        "make_transfer_data",
        "merge_imputed",
        "power_iterate",
        "run_synthetic_transfer",
        "save_embeddings",
        "sensitivity_sweep",
        "solve_row_weights",
        "spectral_diagnostics",
        "write_coordinate_text",
    ]
    assert all(hasattr(ei, name) for name in ei.__all__)
