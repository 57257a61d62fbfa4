import heapq
import itertools
import threading
from math import fsum

import networkx as nx
import numpy as np
import pytest
from scipy import sparse

from embimpute import domain_geometry, imputation_engine, manifold_graph
from embimpute import (
    NeighborGraph,
    ValidationError,
    augment_to_min_degree,
    build_graph,
    build_mst,
    euclidean_distance_matrix,
    graph_stats,
    is_connected,
)


def decode_prufer(seq, n):
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def exhaustive_min_tree_weight(D):
    """Minimum spanning-tree weight by enumerating every tree (n <= 6)."""
    n = D.shape[0]
    if n == 2:
        return D[0, 1]
    best = None
    for seq in itertools.product(range(n), repeat=n - 2):
        weight = fsum(D[u, v] for u, v in decode_prufer(seq, n))
        if best is None or weight < best:
            best = weight
    return best


def in_neighbors(graph, i):
    """Sorted sources of the edges into vertex ``i``: a slice of the CSR layout."""
    return graph.indices[graph.indptr[i] : graph.indptr[i + 1]]


def directed_edges(graph):
    """All edges of ``graph`` as (src, dst) pairs."""
    return {(int(j), i) for i in range(graph.n) for j in in_neighbors(graph, i)}


def reference_kruskal(D):
    """Kruskal over every edge in (weight, smaller index, larger index) order."""
    n = D.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    w = D[iu, ju]
    order = np.argsort(w, kind="stable")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for u, v, wt in zip(iu[order].tolist(), ju[order].tolist(), w[order].tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            edges.append((u, v, wt))
            if len(edges) == n - 1:
                break
    return edges


def reference_augment(mst_edges, D, delta):
    """Min-degree augmentation scanning a full stable argsort of each row."""
    n = D.shape[0]
    in_sets = [set() for _ in range(n)]
    for u, v, _ in mst_edges:
        in_sets[u].add(v)
        in_sets[v].add(u)
    for i in range(n):
        need = delta - len(in_sets[i])
        for j in np.argsort(D[i], kind="stable").tolist():
            if need <= 0:
                break
            if j != i and j not in in_sets[i]:
                in_sets[i].add(j)
                need -= 1
    return [np.array(sorted(s), dtype=np.int64) for s in in_sets]


def ring_around_centre():
    # 12 integer points at distance exactly 5 from the centre, listed out
    # of angular order; the centre (index 6) gets one tree edge and then
    # needs more sources, all tied at the partition threshold
    ring = [(5, 0), (0, -5), (3, 4), (-4, -3), (-5, 0), (4, -3),
            (-3, 4), (0, 5), (-3, -4), (4, 3), (3, -4), (-4, 3)]
    return np.array(ring[:6] + [(0, 0)] + ring[6:], dtype=float)


def lattice(*sides):
    return np.array(list(itertools.product(*map(range, sides))), dtype=float)


def collinear(n, scale):
    """n points on a line through the origin, in shuffled order."""
    steps = np.random.default_rng(28).permutation(n).astype(float)
    return scale * steps[:, None] * np.array([1.0, 2.0])


def ulp_chain(n):
    """n points on a line, shuffled, whose k-th gap is (1 + 2^-23)^(k/2):
    a point's squared distances to its two neighbors, 1 + (k - 1) 2^-23
    and 1 + k 2^-23 or so, are one float32 ulp apart as keys and some
    10^4 float64 margins, with no two equal."""
    gaps = (1 + 2.0**-23) ** (np.arange(n - 1) / 2)
    return np.random.default_rng(32).permutation(np.concatenate([[0.0], np.cumsum(gaps)]))[:, None]


def tiny_clusters():
    """Unit-scale points around two clusters at the origin, of spread
    1e-25 and 3e-20: their scaled squared distances fall to zero and into
    float32's subnormal range."""
    rng = np.random.default_rng(33)
    return rng.permutation(
        np.vstack([rng.normal(size=(16, 3)), 1e-25 * rng.normal(size=(8, 3)), 3e-20 * rng.normal(size=(8, 3))])
    )


ORACLE_INPUTS = {
    "random_300_d4": (lambda: np.random.default_rng(19).normal(size=(300, 4)), (1, 4, 8)),
    "lattice_2d": (lambda: lattice(15, 15), (4, 8)),
    "lattice_3d": (lambda: lattice(6, 6, 6), (4, 8)),
    # shuffled rows: equal-weight edges reach the tree from vertices whose
    # indices do not grow with the order they join it
    "lattice_2d_shuffled": (
        lambda: np.random.default_rng(22).permutation(lattice(12, 12)),
        (4, 8),
    ),
    "tripled_rows": (
        lambda: np.tile(np.random.default_rng(20).normal(size=(40, 3)), (3, 1)),
        (2, 4, 8),
    ),
    # the next two span two 1 MiB row blocks of D: 400 rows, and 363 rows
    # of which the second block holds two
    "lattice_2d_shuffled_20": (
        lambda: np.random.default_rng(24).permutation(lattice(20, 20)),
        (1, 4, 8),
    ),
    "tripled_rows_363": (
        lambda: np.tile(np.random.default_rng(25).normal(size=(121, 3)), (3, 1)),
        (1, 4, 8),
    ),
    "two_points": (lambda: np.array([[0.0, 0.0], [1.0, 2.0]]), (1,)),
    "ring_ties_at_threshold": (ring_around_centre, (4, 8)),
    # every distance 0: one seed component, and every tie at every rank
    "identical_rows": (lambda: np.full((30, 3), 1.5), (1, 2, 15, 29)),
    # at 1e-300 the squared offsets underflow, so every distance is 0 too
    "collinear_1e-300": (lambda: collinear(30, 1e-300), (1, 2, 15, 29)),
    "collinear_1e150": (lambda: collinear(30, 1e150), (1, 2, 15, 29)),
    # seven 1 MiB row blocks, cut in turn at delta 1, where the cut
    # takes its fewest columns, two
    "lattice_2d_shuffled_30": (
        lambda: np.random.default_rng(27).permutation(lattice(30, 30)),
        (1,),
    ),
    # the next two read exact distances where float32 keys cannot decide
    "float32_ulp_apart": (lambda: ulp_chain(30), (1, 4, 8)),
    "tiny_clusters": (tiny_clusters, (1, 4, 8)),
    # |x|^2 near 1e40, past float32's range before the keys are scaled
    "entries_1e20": (lambda: 1e20 * np.random.default_rng(34).normal(size=(40, 3)), (1, 4, 8)),
}
# inputs whose float32 keys must send some decision to exact distances
EXACT_READ_INPUTS = ("float32_ulp_apart", "tiny_clusters")


BASE_20 = np.random.default_rng(31).normal(size=(20, 3))


def points(coords):
    data = np.asarray(coords, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    return euclidean_distance_matrix(data)


class TestBuildMst:
    def test_collinear_path(self):
        edges = build_mst(points([0.0, 1.0, 3.0]))
        assert edges == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_two_vertices(self):
        edges = build_mst(points([[0.0, 0.0], [1.0, 1.0]]))
        assert len(edges) == 1
        assert edges[0][:2] == (0, 1)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(10)
        D = euclidean_distance_matrix(rng.normal(size=(6, 3)))
        tree = build_mst(D)
        assert fsum(D[u, v] for u, v, _ in tree) == exhaustive_min_tree_weight(D)

    def test_rejects_tiny_input(self):
        with pytest.raises(ValidationError):
            build_mst(np.zeros((1, 1)))

    def test_rejects_asymmetric(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            build_mst(D)

    @pytest.mark.parametrize(
        "make",
        [
            # every row past 20 has a twin of smaller index, which ranks
            # before the row itself in its own distances
            lambda: np.vstack([BASE_20, BASE_20[np.random.default_rng(29).permutation(20)]]),
            lambda: np.full((25, 3), -2.0),
            lambda: np.random.default_rng(30).permutation(lattice(9, 9)),
            lambda: collinear(30, 1e-300),
            lambda: collinear(30, 1e150),
        ],
        ids=["twins_before", "identical", "lattice_shuffled", "collinear_1e-300", "collinear_1e150"],
    )
    def test_every_vertex_nearest_other_vertex_is_a_tree_neighbor(self, make):
        # the invariant that seeds the tree with Borůvka's first round
        D = euclidean_distance_matrix(make())
        n = D.shape[0]
        neighbors = [set() for _ in range(n)]
        for u, v, _ in build_mst(D):
            neighbors[u].add(v)
            neighbors[v].add(u)
        for i in range(n):
            _, nearest = min((D[i, j], j) for j in range(n) if j != i)
            assert nearest in neighbors[i], i

    def test_zero_weight_edges_allowed(self):
        # duplicate points produce legal zero-weight tree edges
        edges = build_mst(points([[0.0], [0.0], [5.0]]))
        assert sorted(w for _, _, w in edges) == [0.0, 5.0]


class TestAugmentToMinDegree:
    def test_collinear_delta_two(self):
        D = points([0.0, 1.0, 3.0])
        g = augment_to_min_degree(build_mst(D), D, 2)
        assert in_neighbors(g, 0).tolist() == [1, 2]
        assert in_neighbors(g, 1).tolist() == [0, 2]
        assert in_neighbors(g, 2).tolist() == [0, 1]

    def test_delta_one_keeps_tree(self):
        rng = np.random.default_rng(11)
        D = euclidean_distance_matrix(rng.normal(size=(9, 2)))
        mst = build_mst(D)
        g = augment_to_min_degree(mst, D, 1)
        expected = set()
        for u, v, _ in mst:
            expected.add((u, v))
            expected.add((v, u))
        assert directed_edges(g) == expected

    def test_added_sources_are_nearest_nonneighbors(self):
        rng = np.random.default_rng(12)
        D = euclidean_distance_matrix(rng.normal(size=(20, 3)))
        mst = build_mst(D)
        delta = 4
        g = augment_to_min_degree(mst, D, delta)
        assert g.in_degrees().min() >= delta

        tree_in = [set() for _ in range(20)]
        for u, v, _ in mst:
            tree_in[u].add(v)
            tree_in[v].add(u)
        for i in range(20):
            need = delta - len(tree_in[i])
            added = set(in_neighbors(g, i).tolist()) - tree_in[i]
            if need <= 0:
                assert not added
                continue
            # brute-force scan: expected sources in (distance, index) order
            candidates = sorted(
                (D[i, j], j) for j in range(20) if j != i and j not in tree_in[i]
            )
            assert added == {j for _, j in candidates[:need]}

    @pytest.mark.parametrize("bad", [2.5, "3", None, 0])
    def test_delta_must_be_an_integer_at_least_one(self, bad):
        D = points([0.0, 1.0, 3.0, 7.0])
        for build in (lambda: build_graph(D, bad), lambda: augment_to_min_degree(build_mst(D), D, bad)):
            with pytest.raises(ValidationError, match="minimum degree must be an integer >= 1") as info:
                build()
            assert "\n" not in str(info.value)

    @pytest.mark.parametrize("bad", [0, 4, 2.5])
    def test_delta_checked_before_the_cut_and_the_tree(self, bad, monkeypatch):
        def never(*args):
            raise AssertionError("the cut or the tree ran before delta was checked")

        D = points([0.0, 1.0, 3.0, 7.0])
        monkeypatch.setattr(manifold_graph, "_nearest", never)
        monkeypatch.setattr(manifold_graph, "_mst", never)
        with pytest.raises(ValidationError, match="^minimum degree"):
            build_graph(D, bad)

    def test_numpy_integer_delta_accepted(self):
        D = points([0.0, 1.0, 3.0, 7.0])
        assert directed_edges(build_graph(D, np.int64(2))) == directed_edges(build_graph(D, 2))

    def test_delta_at_vertex_count_rejected(self):
        D = points([0.0, 1.0, 3.0])
        with pytest.raises(ValidationError):
            augment_to_min_degree(build_mst(D), D, 3)

    def test_tree_edge_listed_twice_counts_once(self):
        D = euclidean_distance_matrix(np.random.default_rng(32).normal(size=(12, 2)))
        mst = build_mst(D)
        twice = mst + [(v, u, w) for u, v, w in mst[::2]] + mst[1::3]
        for delta in (1, 3):
            expected, got = augment_to_min_degree(mst, D, delta), augment_to_min_degree(twice, D, delta)
            assert np.array_equal(got.indptr, expected.indptr)
            assert np.array_equal(got.indices, expected.indices)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_tree_endpoint_out_of_range_rejected(self, bad):
        D = points([0.0, 1.0, 3.0])
        with pytest.raises(ValidationError, match=r"endpoints must lie in \[0, 3\)"):
            augment_to_min_degree([(0, 1, 1.0), (1, bad, 2.0)], D, 1)

    def test_no_self_loops(self):
        rng = np.random.default_rng(13)
        D = euclidean_distance_matrix(rng.normal(size=(15, 2)))
        g = build_graph(D, 5)
        assert all((j, j) not in directed_edges(g) for j in range(15))


class TestGraphQueries:
    def test_in_neighbors_path_middle(self):
        D = points([0.0, 1.0, 2.5])
        g = augment_to_min_degree(build_mst(D), D, 1)
        assert in_neighbors(g, 1).tolist() == [0, 2]
        assert in_neighbors(g, np.int64(1)).tolist() == [0, 2]

    def test_in_neighbors_matches_edge_scan(self):
        rng = np.random.default_rng(14)
        D = euclidean_distance_matrix(rng.normal(size=(25, 4)))
        g = build_graph(D, 6)
        edges = directed_edges(g)
        for i in range(25):
            assert in_neighbors(g, i).tolist() == sorted(
                j for j, dst in edges if dst == i
            )


def reached(graph, n_known):
    """No free vertex in a closed class of the graph's CSR arrays, the test
    the diffusion makes on the weight matrix."""
    sources = sparse.csr_matrix(
        (np.ones(graph.indices.size), graph.indices, graph.indptr), shape=(graph.n, graph.n)
    )
    return not imputation_engine._closed_classes(sources, n_known)[0].any()


class TestAnchorReachability:
    def test_constructed_graphs_always_reachable(self):
        rng = np.random.default_rng(15)
        D = euclidean_distance_matrix(rng.normal(size=(30, 3)))
        g = build_graph(D, 4)
        for p in (1, 3, 29):
            assert reached(g, p)

    def test_handbuilt_disconnected_graph(self):
        g = NeighborGraph(4, [0, 1, 2, 3, 4], [1, 0, 3, 2])
        assert not reached(g, 2)
        assert not is_connected(g)

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(16)
        D = euclidean_distance_matrix(rng.normal(size=(50, 5)))
        g = build_graph(D, 3)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(50))
        nxg.add_edges_from(directed_edges(g))
        reachable = set()
        for a in range(5):
            reachable |= nx.descendants(nxg, a) | {a}
        assert reached(g, 5) == (reachable >= set(range(5, 50)))


class TestGraphLayout:
    """``NeighborGraph`` checks its CSR arrays; each rule has its own test."""

    # 4 vertices, edges into 0 from 1; into 1 from 0 and 2; into 3 from 2
    INDPTR, INDICES = [0, 1, 3, 3, 4], [1, 0, 2, 2]

    def test_valid_layout_is_stored_as_int64(self):
        g = NeighborGraph(4, self.INDPTR, np.array(self.INDICES, dtype=np.int32))
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
        assert in_neighbors(g, 1).tolist() == [0, 2]
        assert in_neighbors(g, 2).tolist() == []

    @pytest.mark.parametrize(
        "indptr",
        [[0, 1, 3, 4], [0, 1, 3, 3, 4, 4], [1, 1, 3, 3, 4], [0, 3, 1, 3, 4], [0, 1, 3, 3, 3]],
    )
    def test_indptr_must_run_from_zero_to_the_source_count(self, indptr):
        with pytest.raises(ValidationError, match="indptr"):
            NeighborGraph(4, indptr, self.INDICES)

    @pytest.mark.parametrize("bad", [7, 4, -1, 1])
    def test_sources_must_be_other_vertices(self, bad):
        # source 7 in row 1 used to reach csgraph unchecked and abort the
        # interpreter; -1 silently read as unreachable; 1 is row 1 itself
        indices = [1, 0, bad, 2]
        with pytest.raises(ValidationError, match=r"sources must lie in \[0, 4\)"):
            NeighborGraph(4, self.INDPTR, indices)

    @pytest.mark.parametrize("indices", [[1, 2, 0, 2], [1, 2, 2, 2]])
    def test_sources_must_ascend_strictly_within_a_row(self, indices):
        with pytest.raises(ValidationError, match="strictly ascending"):
            NeighborGraph(4, self.INDPTR, indices)
        # a drop between rows is allowed
        NeighborGraph(4, self.INDPTR, [2, 0, 2, 0])

    def test_counters_read_by_the_benchmark_tracer(self):
        g = build_graph(euclidean_distance_matrix(np.random.default_rng(23).normal(size=(40, 3))), 5)
        degrees = g.in_degrees()
        assert degrees.dtype.kind == "i"
        assert degrees.tolist() == [in_neighbors(g, i).size for i in range(g.n)]
        assert type(g.edge_count()) is int
        assert g.edge_count() == g.indices.size


class TestGraphInvariants:
    def test_connected_and_min_degree(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            data = np.random.default_rng(seed).normal(size=(40, 4))
            g = build_graph(euclidean_distance_matrix(data), 8)
            assert is_connected(g)
            assert g.in_degrees().min() >= 8

    def test_deterministic_construction(self):
        rng = np.random.default_rng(18)
        D = euclidean_distance_matrix(rng.normal(size=(35, 3)))
        a = build_graph(D, 5)
        b = build_graph(D, 5)
        assert directed_edges(a) == directed_edges(b)

    def test_determinism_under_distance_ties(self):
        # grid points create many equal distances
        coords = [(float(i), float(j)) for i in range(4) for j in range(4)]
        D = euclidean_distance_matrix(np.array(coords))
        a = build_graph(D, 4)
        b = build_graph(D, 4)
        assert directed_edges(a) == directed_edges(b)

    def test_stats_keys(self):
        D = points([0.0, 1.0, 3.0])
        stats = graph_stats(build_graph(D, 2))
        assert stats == {
            "vertices": 3,
            "edges": 6,
            "min_in_degree": 2,
            "max_in_degree": 2,
            "connected": True,
        }


class TestReferenceOracle:
    def test_two_inputs_span_several_row_blocks(self):
        for name in ("lattice_2d_shuffled_20", "tripled_rows_363"):
            n = len(ORACLE_INPUTS[name][0]())
            assert 8 * n * n > manifold_graph._BLOCK_BYTES, name

    def test_a_delta_one_input_spans_several_row_blocks(self):
        n = len(ORACLE_INPUTS["lattice_2d_shuffled_30"][0]())
        assert 8 * n * n > 4 * manifold_graph._BLOCK_BYTES
        assert ORACLE_INPUTS["lattice_2d_shuffled_30"][1] == (1,)

    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_graph_equals_kruskal_and_full_sort(self, name, rows, monkeypatch):
        make, deltas = ORACLE_INPUTS[name]
        D = euclidean_distance_matrix(make())
        if rows:
            # 3-row blocks: the cut takes every input but two_points block
            # by block, and the tree re-makes rows block by block
            blocks_of(monkeypatch, rows, len(D))
        mst = build_mst(D)
        reference_mst = reference_kruskal(D)
        assert mst == reference_mst
        for delta in deltas:
            incoming = reference_augment(reference_mst, D, delta)
            indptr = np.cumsum([0] + [a.size for a in incoming])
            for graph in (build_graph(D, delta), augment_to_min_degree(mst, D, delta)):
                assert np.array_equal(graph.indptr, indptr)
                assert np.array_equal(graph.indices, np.concatenate(incoming))

    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_narrowest_cut_gives_the_same_graph(self, name, monkeypatch):
        # the cut at delta + 1 columns and 3-row blocks: the tree re-makes
        # many rows in full, its component masked, in blocks of their own,
        # on the distances and on the Gram keys of the same rows
        make, deltas = ORACLE_INPUTS[name]
        unit = domain_geometry._unit_scaled(make())
        D = euclidean_distance_matrix(unit)
        reference_mst = reference_kruskal(D)
        monkeypatch.setattr(manifold_graph, "_CUT_COLUMNS", 2)
        blocks_of(monkeypatch, 3, len(D))
        assert build_mst(D) == reference_mst
        keys = domain_geometry._key_rows(unit)
        for delta in deltas:
            incoming = reference_augment(reference_mst, D, delta)
            indptr = np.cumsum([0] + [a.size for a in incoming])
            for graph in (build_graph(D, delta), manifold_graph._build(keys, delta)):
                assert np.array_equal(graph.indptr, indptr)
                assert np.array_equal(graph.indices, np.concatenate(incoming))

    def test_three_row_blocks_of_a_tie_heavy_lattice(self, monkeypatch):
        # 40 blocks: a block written to the wrong rows, or not at all,
        # changes the graph
        D = euclidean_distance_matrix(np.random.default_rng(26).permutation(lattice(10, 12)))
        monkeypatch.setattr(manifold_graph, "_BLOCK_BYTES", 8 * 120 * 3)
        expected = reference_augment(reference_kruskal(D), D, 8)
        assert np.array_equal(build_graph(D, 8).indices, np.concatenate(expected))

    def test_ring_centre_ties_resolve_to_smaller_indices(self):
        D = euclidean_distance_matrix(ring_around_centre())
        assert np.count_nonzero(D[6] == 5.0) == 12
        # tree edge (0, 6) wins the tie at weight 5; then the two smallest
        # other ring indices
        assert in_neighbors(build_graph(D, 3), 6).tolist() == [0, 1, 2]


def symmetric_distances(n):
    return euclidean_distance_matrix(np.random.default_rng(21).normal(size=(n, 3)))


def blocks_of(monkeypatch, rows, n):
    """Shrink the block bound so that the graph's cut splits an n-row
    input into blocks of ``rows`` rows: a block is 1 MiB of float64 key
    rows, rows of a distance matrix or of Gram products alike."""
    monkeypatch.setattr(manifold_graph, "_BLOCK_BYTES", 8 * n * rows)


def cut_failing_past_the_first_block(monkeypatch, error):
    """Make the graph's cut raise ``error`` in every row block but the
    first; returns the threads it raised in."""
    raised_in = []
    cuts = []
    cut = manifold_graph._nearest_columns

    def failing_cut(block, *args, **kwargs):
        cuts.append(block)
        if len(cuts) > 1:  # not the block of row 0
            raised_in.append(threading.current_thread())
            raise error
        return cut(block, *args, **kwargs)

    monkeypatch.setattr(manifold_graph, "_nearest_columns", failing_cut)
    return raised_in


class TestBlockedCut:
    """The cut's 3-row blocks of 40 points, cut in turn by ``_nearest``."""

    def test_three_row_blocks_give_the_one_block_graph(self, monkeypatch):
        D = symmetric_distances(40)
        expected = build_graph(D, 4)  # one block
        blocks_of(monkeypatch, 3, 40)
        assert directed_edges(build_graph(D, 4)) == directed_edges(expected)

    def test_block_error_reaches_the_caller_unchanged(self, monkeypatch):
        D = symmetric_distances(40)
        blocks_of(monkeypatch, 3, 40)
        error = ValidationError("raised in the second block")
        raised_in = cut_failing_past_the_first_block(monkeypatch, error)
        with pytest.raises(ValidationError) as info:
            build_graph(D, 4)
        assert info.value is error
        # raised once, on the calling thread: no later block is cut
        assert raised_in == [threading.current_thread()]


class TestDistanceValidation:
    TILE = domain_geometry._tile_side()
    N = 2 * TILE + TILE // 3  # not a multiple of the tile size

    @pytest.mark.parametrize(
        "row, col",
        [
            (TILE + 44, 17),  # off-diagonal tile
            (5, TILE // 2),  # inside the first diagonal tile
            (2 * TILE + 10, 2 * TILE + 40),  # last, partial diagonal tile
            (N - 1, 3),  # partial off-diagonal tile
        ],
    )
    def test_single_asymmetric_entry_rejected(self, row, col):
        D = symmetric_distances(self.N)
        build_graph(D, 4)
        D[row, col] += 0.5
        with pytest.raises(ValidationError, match="symmetric"):
            build_graph(D, 4)
        with pytest.raises(ValidationError, match="symmetric"):
            build_mst(D)

    @pytest.mark.parametrize(
        "value, where, message",
        [
            (np.nan, (3, 7), "non-finite"),
            (np.inf, (7, 3), "non-finite"),
            (-np.inf, (3, 7), "non-finite"),
            (-1.0, (3, 7), "negative"),
            (0.25, (9, 9), "zero diagonal"),
        ],
    )
    def test_bad_entries_rejected_by_build_graph(self, value, where, message):
        D = symmetric_distances(12)
        D[where] = value
        with pytest.raises(ValidationError, match=message):
            build_graph(D, 2)


class TestFloat32KeyLimits:
    """The limits of float32 keys, computed in float64: the largest
    float32 within a key's limit is in doubt, and the next one is not.
    Here float32 arithmetic would compute a limit one float32 short."""

    RHO = domain_geometry._STORAGE_ROUNDING[np.dtype(np.float32)]
    MARGIN = 1e-14
    LOW = np.float32(4.18e-15)

    def boundary(self):
        """The largest float32 within the limit of ``LOW``, and the next."""
        limit = float(self.LOW) + (float(self.LOW) * self.RHO + 2 * self.MARGIN)
        last = np.float32(limit)
        assert float(last) <= limit  # rounded down: the next is past the limit
        low = np.array([self.LOW])
        # a float32 array keeps float32 arithmetic with Python floats, under
        # value-based casting and NEP 50 alike
        assert (low + (low * self.RHO + 2 * self.MARGIN))[0] < last
        return last, np.nextafter(last, np.float32(1))

    @pytest.mark.parametrize("r", [1, 2])  # the r-th key's limit; the gap after the first
    @pytest.mark.parametrize("past", [False, True])
    def test_cut_doubts_the_last_key_within_the_limit(self, r, past):
        later = self.boundary()[past]
        block = np.array([[self.LOW, later, 0.5, 0.5]], dtype=np.float32)
        distances = np.array([[0.2, 0.1, 0.9, 0.9]])  # the later column is nearer
        reads = []

        def exact(rows, cols):
            reads.append(cols.tolist())
            return distances[np.ix_(rows, cols)]

        head = domain_geometry._nearest_columns(block, r, self.MARGIN, exact)
        if past:
            assert not reads
            assert head.tolist() == [[0, 1][:r]]
        else:
            assert reads == [[0, 1]]
            assert head.tolist() == [[1, 0][:r]]

    def tree(self, n, edges, nearest):
        """``_mst`` over n vertices whose listed edges have the given
        (key, exact distance) and all others (0.5, 0.9), from a hand-made
        cut; returns the tree's edges, the rows made in full and the
        number of exact reads."""
        keys = np.full((n, n), 0.5, dtype=np.float32)
        distances = np.full((n, n), 0.9)
        for (u, v), (key, distance) in edges.items():
            keys[u, v] = keys[v, u] = key
            distances[u, v] = distances[v, u] = distance
        np.fill_diagonal(keys, 0.0)
        np.fill_diagonal(distances, 0.0)
        made, reads = [], []

        def rows(index):
            made.extend(index.tolist())
            return keys[index]

        def exact(rows, cols):
            reads.append(1)
            return distances[np.ix_(rows, cols)]

        nearest = np.array(nearest)
        near = np.take_along_axis(keys, nearest, axis=1)
        src, dst = manifold_graph._mst(domain_geometry._KeyRows(n, rows, self.MARGIN, exact), nearest, near)
        assert src.size == n - 1
        return {tuple(sorted(edge)) for edge in zip(src.tolist(), dst.tolist())}, made, len(reads)

    @pytest.mark.parametrize("past", [False, True])
    def test_component_edge_within_the_limit_is_read_exactly(self, past):
        # the first round joins (0, 1) and (2, 3); the second picks (0, 2)
        # of the least key or, within its limit, the boundary edge (1, 3)
        # of smaller exact distance: both components read the two in one
        # exact read
        later = self.boundary()[past]
        edges = {(0, 1): (0.0, 0.01), (2, 3): (0.0, 0.01), (0, 2): (self.LOW, 0.2), (1, 3): (later, 0.1)}
        tree, made, reads = self.tree(4, edges, [[0, 1, 2], [1, 0, 3], [2, 3, 0], [3, 2, 1]])
        assert tree == {(0, 1), (2, 3), (0, 2) if past else (1, 3)}
        assert not made
        assert reads == (0 if past else 1)

    @pytest.mark.parametrize("past", [False, True])
    def test_member_without_outside_column_is_read_in_full_within_the_limit(self, past):
        # the first round joins {0, 1, 2} and {3, 4}. Vertex 1 has every
        # cut column inside its component; its last cut key, that of
        # (1, 2), is the boundary key. Within the limit of the least key,
        # (0, 3)'s, its row is made and cut, and its edge (1, 4), of
        # smaller exact distance, joins the components; past it, it is not
        later = self.boundary()[past]
        edges = {
            (0, 1): (0.0, 0.01),
            (1, 2): (later, 0.02),
            (3, 4): (0.0, 0.01),
            (0, 3): (self.LOW, 0.2),
            (1, 4): (later, 0.1),
            (2, 4): (0.5, 0.8),
        }
        nearest = [[0, 1, 3], [1, 0, 2], [2, 1, 4], [3, 4, 0], [4, 3, 1]]
        tree, made, reads = self.tree(5, edges, nearest)
        assert tree == {(0, 1), (1, 2), (3, 4), (0, 3) if past else (1, 4)}
        assert made == ([] if past else [1])
        assert reads == (0 if past else 1)
