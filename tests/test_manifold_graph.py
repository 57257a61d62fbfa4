import heapq
import itertools
from math import fsum

import networkx as nx
import numpy as np
import pytest

from embimpute import manifold_graph
from embimpute import (
    NeighborGraph,
    ValidationError,
    assert_anchor_reachability,
    augment_to_min_degree,
    build_graph,
    build_mst,
    euclidean_distance_matrix,
    graph_stats,
    in_neighbors,
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
    incoming = [np.array(sorted(s), dtype=np.int64) for s in in_sets]
    return incoming, [D[i, srcs] for i, srcs in enumerate(incoming)]


def ring_around_centre():
    # 12 integer points at distance exactly 5 from the centre, listed out
    # of angular order; the centre (index 6) gets one tree edge and then
    # needs more sources, all tied at the partition threshold
    ring = [(5, 0), (0, -5), (3, 4), (-4, -3), (-5, 0), (4, -3),
            (-3, 4), (0, 5), (-3, -4), (4, 3), (3, -4), (-4, 3)]
    return np.array(ring[:6] + [(0, 0)] + ring[6:], dtype=float)


def lattice(*sides):
    return np.array(list(itertools.product(*map(range, sides))), dtype=float)


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
    "two_points": (lambda: np.array([[0.0, 0.0], [1.0, 2.0]]), (1,)),
    "ring_ties_at_threshold": (ring_around_centre, (4, 8)),
}


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

    def test_delta_at_vertex_count_rejected(self):
        D = points([0.0, 1.0, 3.0])
        with pytest.raises(ValidationError):
            augment_to_min_degree(build_mst(D), D, 3)

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

    def test_in_neighbors_invalid_index(self):
        D = points([0.0, 1.0])
        g = build_graph(D, 1)
        with pytest.raises(ValidationError):
            in_neighbors(g, 7)

    def test_in_neighbors_matches_edge_scan(self):
        rng = np.random.default_rng(14)
        D = euclidean_distance_matrix(rng.normal(size=(25, 4)))
        g = build_graph(D, 6)
        edges = directed_edges(g)
        for i in range(25):
            assert in_neighbors(g, i).tolist() == sorted(
                j for j, dst in edges if dst == i
            )


class TestAnchorReachability:
    def test_constructed_graphs_always_reachable(self):
        rng = np.random.default_rng(15)
        D = euclidean_distance_matrix(rng.normal(size=(30, 3)))
        g = build_graph(D, 4)
        for p in (1, 3, 29):
            assert assert_anchor_reachability(g, p)

    def test_handbuilt_disconnected_graph(self):
        g = NeighborGraph(4, 1, [0, 1, 2, 3, 4], [1, 0, 3, 2], np.ones(4))
        assert not assert_anchor_reachability(g, 2)
        assert not is_connected(g)

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(16)
        D = euclidean_distance_matrix(rng.normal(size=(50, 5)))
        g = build_graph(D, 3)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(50))
        nxg.add_edges_from(directed_edges(g))
        reached = set()
        for a in range(5):
            reached |= nx.descendants(nxg, a) | {a}
        assert assert_anchor_reachability(g, 5) == (reached >= set(range(5, 50)))

    def test_zero_anchors_rejected(self):
        D = points([0.0, 1.0])
        g = build_graph(D, 1)
        with pytest.raises(ValidationError):
            assert_anchor_reachability(g, 0)


class TestGraphLayout:
    """``NeighborGraph`` checks its CSR arrays; each rule has its own test."""

    # 4 vertices, edges into 0 from 1; into 1 from 0 and 2; into 3 from 2
    INDPTR, INDICES, DISTANCES = [0, 1, 3, 3, 4], [1, 0, 2, 2], [1.0, 1.0, 2.0, 3.0]

    def test_valid_layout_is_stored_as_int64_and_float64(self):
        g = NeighborGraph(4, 1, self.INDPTR, np.array(self.INDICES, dtype=np.int32), self.DISTANCES)
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
        assert g.distances.dtype == np.float64
        assert in_neighbors(g, 1).tolist() == [0, 2]
        assert in_neighbors(g, 2).tolist() == []

    @pytest.mark.parametrize(
        "indptr",
        [[0, 1, 3, 4], [0, 1, 3, 3, 4, 4], [1, 1, 3, 3, 4], [0, 3, 1, 3, 4], [0, 1, 3, 3, 3]],
    )
    def test_indptr_must_run_from_zero_to_the_source_count(self, indptr):
        with pytest.raises(ValidationError, match="indptr"):
            NeighborGraph(4, 1, indptr, self.INDICES, self.DISTANCES)

    @pytest.mark.parametrize("bad", [7, 4, -1, 1])
    def test_sources_must_be_other_vertices(self, bad):
        # source 7 in row 1 used to reach csgraph unchecked and abort the
        # interpreter; -1 silently read as unreachable; 1 is row 1 itself
        indices = [1, 0, bad, 2]
        with pytest.raises(ValidationError, match=r"sources must lie in \[0, 4\)"):
            NeighborGraph(4, 1, self.INDPTR, indices, self.DISTANCES)

    @pytest.mark.parametrize("indices", [[1, 2, 0, 2], [1, 2, 2, 2]])
    def test_sources_must_ascend_strictly_within_a_row(self, indices):
        with pytest.raises(ValidationError, match="strictly ascending"):
            NeighborGraph(4, 1, self.INDPTR, indices, self.DISTANCES)
        # a drop between rows is allowed
        NeighborGraph(4, 1, self.INDPTR, [2, 0, 2, 0], self.DISTANCES)

    @pytest.mark.parametrize(
        "distances",
        [[1.0, 1.0, 2.0], [[1.0, 1.0, 2.0, 3.0]], [1.0, np.nan, 2.0, 3.0], [1.0, 1.0, np.inf, 3.0], [1.0, 1.0, 2.0, -3.0]],
    )
    def test_distances_must_be_finite_non_negative_and_one_per_source(self, distances):
        with pytest.raises(ValidationError, match="distances"):
            NeighborGraph(4, 1, self.INDPTR, self.INDICES, distances)

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
    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_graph_equals_kruskal_and_full_sort(self, name):
        make, deltas = ORACLE_INPUTS[name]
        D = euclidean_distance_matrix(make())
        mst = build_mst(D)
        reference_mst = reference_kruskal(D)
        assert mst == reference_mst
        for delta in deltas:
            incoming, in_weights = reference_augment(reference_mst, D, delta)
            indptr = np.cumsum([0] + [a.size for a in incoming])
            for graph in (build_graph(D, delta), augment_to_min_degree(mst, D, delta)):
                assert np.array_equal(graph.indptr, indptr)
                assert np.array_equal(graph.indices, np.concatenate(incoming))
                assert np.array_equal(graph.distances, np.concatenate(in_weights))

    def test_ring_centre_ties_resolve_to_smaller_indices(self):
        D = euclidean_distance_matrix(ring_around_centre())
        assert np.count_nonzero(D[6] == 5.0) == 12
        # tree edge (0, 6) wins the tie at weight 5; then the two smallest
        # other ring indices
        assert in_neighbors(build_graph(D, 3), 6).tolist() == [0, 1, 2]


def symmetric_distances(n):
    return euclidean_distance_matrix(np.random.default_rng(21).normal(size=(n, 3)))


class TestDistanceValidation:
    TILE = manifold_graph._SYMMETRY_TILE
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
