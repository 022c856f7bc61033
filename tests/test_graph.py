import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spregimes import (
    DisconnectedGraphError,
    DuplicatePointsError,
    Partition,
    build_edge_list_graph,
    build_grid_graph,
    build_knn_graph,
    connected_components,
    is_connected_subset,
    read_edge_list,
)

try:
    import networkx as nx  # test oracle only
except ImportError:
    nx = None


def edge_set(graph):
    """Unordered unit pairs ``(i, j)``, ``i < j``, read off the neighbor lists."""
    return frozenset((i, j) for i, nbrs in enumerate(graph.neighbors) for j in nbrs if i < j)


class TestGridGraph:
    def test_single_cell(self):
        g = build_grid_graph(1, 1)
        assert g.n == 1
        assert len(edge_set(g)) == 0

    def test_two_by_two(self):
        g = build_grid_graph(2, 2)
        assert g.n == 4
        assert len(edge_set(g)) == 4
        assert g.neighbors[0] == (1, 2)

    def test_25_by_25_edge_count_matches_enumeration(self):
        g = build_grid_graph(25, 25)
        assert g.n == 625
        # independent count: pairs of cells at Manhattan distance one
        expected = sum(
            1
            for r1 in range(25)
            for c1 in range(25)
            for r2 in range(25)
            for c2 in range(25)
            if (r1, c1) < (r2, c2) and abs(r1 - r2) + abs(c1 - c2) == 1
        )
        assert expected == 25 * 24 * 2
        assert len(edge_set(g)) == expected

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            build_grid_graph(0, 3)


class TestEdgeListGraph:
    def test_path_graph(self):
        g = build_edge_list_graph(3, [(0, 1), (1, 2)])
        assert len(edge_set(g)) == 2
        assert is_connected_subset(g, range(3))

    def test_isolated_node_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            build_edge_list_graph(3, [(0, 1)])

    def test_symmetrize_then_dedup(self):
        g = build_edge_list_graph(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
        assert len(edge_set(g)) == 3

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_edge_list_graph(2, [(0, 0), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            build_edge_list_graph(2, [(0, 2)])

    def test_equal_graphs_compare_and_hash_alike(self):
        graph = build_edge_list_graph(4, [(0, 1), (1, 2), (1, 3)])
        assert graph.neighbors == ((1,), (0, 2, 3), (1,), (1,))
        fresh = build_edge_list_graph(4, [(3, 1), (2, 1), (1, 0)])
        assert graph == fresh and hash(graph) == hash(fresh)
        assert graph != build_edge_list_graph(4, [(0, 1), (1, 2), (2, 3)])


class TestKnnGraph:
    def test_collinear_points(self):
        g = build_knn_graph([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], k=1)
        assert edge_set(g) == frozenset({(0, 1), (1, 2)})

    def test_k_equals_n_minus_one_gives_complete_graph(self, rng):
        pts = rng.random((6, 2))
        g = build_knn_graph(pts, k=5)
        assert len(edge_set(g)) == 15

    def test_unit_square_k2_is_a_cycle_without_diagonals(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        g = build_knn_graph(pts, k=2)
        assert edge_set(g) == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePointsError):
            build_knn_graph([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)], k=1)

    @pytest.mark.parametrize("points, k", [
        # the repeated point sorts last, so only the last adjacent pair shows it
        ([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (2.0, 2.0)], 2),
        # 0.0 and -0.0 are the same coordinate
        ([(0.0, 1.0), (3.0, 3.0), (-0.0, 1.0)], 1),
        ([(1.0, -0.0), (5.0, 1.0), (1.0, 0.0)], 1),
        # more copies of one point than k neighbors
        ([(0.5, 0.5)] * 5 + [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)], 2),
    ])
    def test_repeated_coordinates_rejected(self, points, k):
        with pytest.raises(DuplicatePointsError, match="^coordinate list contains repeated points$"):
            build_knn_graph(points, k)

    def test_points_one_ulp_apart_are_distinct(self):
        x = np.nextafter(1.0, 2.0)
        g = build_knn_graph([(1.0, 1.0), (x, 1.0), (1.0, x), (3.0, 3.0)], k=2)
        assert g.n == 4

    @pytest.mark.parametrize("build, error, message", [
        (lambda: build_grid_graph(0, 3), ValueError, "rows and cols must be >= 1"),
        (lambda: build_edge_list_graph(0, []), ValueError, "n must be >= 1"),
        (lambda: build_edge_list_graph(3, [(0, 1), (2, 3)]), IndexError,
         "edge (2, 3) out of range for n=3"),
        (lambda: build_edge_list_graph(3, [(0, 1), (2, 2)]), ValueError, "self-loop on unit 2"),
        (lambda: build_edge_list_graph(3, [(0, 1)]), DisconnectedGraphError,
         "adjacency input does not form a single connected component"),
        (lambda: build_knn_graph(np.zeros((3, 3)), 1), ValueError,
         "points must be an (n, 2) array of coordinates"),
        (lambda: build_knn_graph([(0.0, 0.0), (np.inf, 1.0)], 1), ValueError,
         "points must have finite coordinates"),
        (lambda: build_knn_graph([(0.0, 0.0), (1.0, 1.0)], 2), ValueError,
         "k must satisfy 1 <= k < n, got k=2, n=2"),
        (lambda: build_knn_graph([(0.0, 0.0), (0.1, 0.0), (9.0, 0.0), (9.1, 0.0)], 1),
         DisconnectedGraphError, "k=1 nearest neighbors leave the graph disconnected; increase k"),
    ])
    def test_builder_errors_and_messages(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            build_knn_graph([(0.0, 0.0), (np.nan, 1.0), (1.0, 1.0)], k=1)

    def test_disconnected_clusters_suggest_larger_k(self):
        pts = [(0.0, 0.0), (0.1, 0.0), (100.0, 0.0), (100.1, 0.0)]
        with pytest.raises(DisconnectedGraphError, match="increase k"):
            build_knn_graph(pts, k=1)

    def test_tie_break_prefers_lower_index(self):
        # units 1 and 2 sit at the same distance from unit 0 and unit 0 has
        # room for only one of them; nothing else links 0 to either side
        pts = [(0.0, 0.0), (3.0, 4.0), (5.0, 0.0),
               (3.0, 5.0), (5.0, 1.0), (1.0, 0.0)]
        g = build_knn_graph(pts, k=2)
        assert (0, 1) in edge_set(g)
        assert (0, 2) not in edge_set(g)


def reference_knn_graph(points, k):
    """Brute-force knn graph: ``(neighbors, edges)`` from full distance rows.

    The row-by-row search this package used before tiling, with squared
    distances taken from coordinate differences: each unit keeps the
    ``k`` smallest entries of its full row, ties at the cutoff going to
    the lower unit index.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    neighbor_sets = [set() for _ in range(n)]
    for i in range(n):
        row = (pts[i, 0] - pts[:, 0]) ** 2 + (pts[i, 1] - pts[:, 1]) ** 2
        row[i] = np.inf
        part = np.argpartition(row, k - 1)[:k]
        cutoff = row[part].max()
        cand = np.flatnonzero(row <= cutoff)
        if len(cand) > k:
            order = np.lexsort((cand, row[cand]))
            cand = cand[order[:k]]
        for j in cand:
            neighbor_sets[i].add(int(j))
            neighbor_sets[int(j)].add(i)
    neighbors = tuple(tuple(sorted(s)) for s in neighbor_sets)
    edges = frozenset((i, j) for i in range(n) for j in neighbor_sets[i] if i < j)
    return neighbors, edges


def assert_knn_matches_reference(points, k):
    neighbors, edges = reference_knn_graph(points, k)
    try:
        g = build_knn_graph(points, k)
    except DisconnectedGraphError:
        with pytest.raises(DisconnectedGraphError):
            build_edge_list_graph(len(neighbors), edges)
        return
    assert g.neighbors == neighbors
    assert edge_set(g) == edges


@st.composite
def knn_cases(draw):
    """Points and k from one of five families, most spanning several tiles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(
        ["uniform", "lattice", "clusters", "collinear", "complete"]))
    if family == "uniform":
        n = draw(st.integers(2, 1500))
        pts = rng.random((n, 2)) * draw(st.sampled_from([1e-3, 1.0, 1e4]))
        k = draw(st.integers(1, min(n - 1, 20)))
    elif family == "lattice":
        # exact distance ties everywhere test the lower-index rule
        rows, cols = draw(st.integers(1, 45)), draw(st.integers(2, 45))
        grid = np.indices((rows, cols)).reshape(2, -1).T.astype(float)
        pts = grid[rng.permutation(len(grid))]
        k = min(len(pts) - 1, draw(st.sampled_from([3, 4, 5, 8, 12])))
    elif family == "clusters":
        # tight clusters over a sparse background and a far outlier: sparse
        # rows fail the tile certificate and are searched in full
        sizes = draw(st.lists(st.integers(20, 1500), min_size=1, max_size=3))
        parts = [rng.normal(rng.random(2) * 100.0, 0.05, (size, 2)) for size in sizes]
        parts.append(rng.random((draw(st.integers(50, 400)), 2)) * 100.0)
        parts.append(np.array([[1e4, -1e4]]) * draw(st.sampled_from([0.01, 1.0])))
        pts = np.concatenate(parts)
        k = draw(st.integers(6, 16))
    elif family == "collinear":
        # a bounding box of zero height (or width) is cut into strips
        n = draw(st.integers(2, 1200))
        along = rng.permutation(n) * draw(st.sampled_from([1.0, 0.37]))
        pts = np.column_stack([along, np.full(n, 2.5)])
        if draw(st.booleans()):
            pts = pts[:, ::-1]
        k = draw(st.integers(1, min(n - 1, 10)))
    else:
        n = draw(st.integers(2, 60))
        pts = rng.random((n, 2))
        k = n - 1
    return pts, k


class TestKnnReference:
    @settings(max_examples=120, deadline=None)
    @given(knn_cases())
    def test_matches_brute_force_reference(self, case):
        points, k = case
        assert_knn_matches_reference(points, k)

    def test_shifted_points_give_the_same_graph(self):
        # coordinates on a 2**-20 grid, so every shifted point is exact and
        # the shifted set is an exact translate of the original
        rng = np.random.default_rng(2024)
        pts = np.round(rng.random((3000, 2)) * 100.0 * 2**20) / 2**20
        base = build_knn_graph(pts, 10)
        for shift in (5e6, 1e7):
            moved = build_knn_graph(pts + shift, 10)
            assert moved.neighbors == base.neighbors
            assert edge_set(moved) == edge_set(base)

    @pytest.mark.slow
    def test_criterion_9_graph_matches_reference(self):
        points = np.random.default_rng(909).random((20_000, 2)) * 100.0
        assert_knn_matches_reference(points, 18)


def reference_neighbors(n, pairs):
    """``neighbors`` built the way the graph built it before it stored CSR
    arrays: a neighbor set per unit, sorted into tuples."""
    sets = [set() for _ in range(n)]
    for i, j in pairs:
        sets[i].add(j)
        sets[j].add(i)
    return tuple(tuple(sorted(s)) for s in sets)


@st.composite
def builder_cases(draw):
    """One builder call and the edges it must produce, connected or not.

    Returns ``(n, pairs, build, message)``: ``build()`` calls a builder
    over ``n`` units whose undirected edges are ``pairs``, and
    ``message`` is the DisconnectedGraphError text it must raise when
    those edges leave the units disconnected. Families: grids with holes
    (a full grid through ``build_grid_graph``), knn graphs over clustered
    points, and random edge lists with repeats and both directions.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["grid", "knn", "edges"]))
    disconnected = "adjacency input does not form a single connected component"
    if family == "grid":
        rows, cols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
        holes = set(rng.choice(rows * cols, size=draw(st.integers(0, rows * cols // 3)),
                               replace=False).tolist())
        index = {c: i for i, c in enumerate(c for c in range(rows * cols) if c not in holes)}
        pairs = [(index[c], index[d]) for c in index
                 for d in (c + 1 if (c + 1) % cols else -1, c + cols) if d in index]
        n = len(index)
        if not holes:
            return n, pairs, lambda: build_grid_graph(rows, cols), disconnected
        return n, pairs, lambda: build_edge_list_graph(n, pairs), disconnected
    if family == "knn":
        n = draw(st.integers(2, 300))
        centers = rng.random((draw(st.integers(1, 4)), 2)) * 100.0
        pts = centers[rng.integers(len(centers), size=n)] + rng.normal(0.0, 1.0, (n, 2))
        k = draw(st.integers(1, min(n - 1, 8)))
        _, edges = reference_knn_graph(pts, k)
        return (n, sorted(edges), lambda: build_knn_graph(pts, k),
                f"k={k} nearest neighbors leave the graph disconnected; increase k")
    n = draw(st.integers(1, 40))
    ends = rng.integers(n, size=(draw(st.integers(0, 3 * n)), 2))
    pairs = [(i, j) for i, j in ends.tolist() if i != j]
    return n, pairs, lambda: build_edge_list_graph(n, pairs), disconnected


@pytest.mark.skipif(nx is None, reason="networkx is a test-only oracle")
class TestCsrGraphOracles:
    @settings(max_examples=200, deadline=None)
    @given(builder_cases(), st.integers(0, 2**32 - 1))
    def test_builders_match_oracles(self, case, seed):
        n, pairs, build, message = case
        oracle = nx.Graph()
        oracle.add_nodes_from(range(n))
        oracle.add_edges_from(pairs)
        if not nx.is_connected(oracle):
            with pytest.raises(DisconnectedGraphError) as info:
                build()
            assert str(info.value) == message
            return
        g = build()
        assert g.n == n
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert g.indptr[0] == 0 and g.indptr[-1] == len(g.indices)
        rows = np.repeat(np.arange(n), np.diff(g.indptr))
        same_row = rows[1:] == rows[:-1]
        assert (g.indices[1:][same_row] > g.indices[:-1][same_row]).all()
        assert (g.indices != rows).all()
        arcs = set(zip(rows.tolist(), g.indices.tolist()))
        assert arcs == {(j, i) for i, j in arcs}
        assert g.neighbors == reference_neighbors(n, pairs)

        rng = np.random.default_rng(seed)
        subsets = [range(n), [int(rng.integers(n))], []]
        subsets += [np.flatnonzero(rng.random(n) < density) for density in (0.3, 0.6, 0.9)]
        for subset in subsets:
            expected = sorted(sorted(c) for c in nx.connected_components(oracle.subgraph(subset)))
            assert connected_components(g, subset) == expected
            if len(subset):
                assert is_connected_subset(g, set(subset)) == (len(expected) == 1)

    def test_stored_arrays_are_read_only(self, rng):
        for g in (build_grid_graph(4, 5), build_edge_list_graph(3, [(0, 1), (1, 2)]),
                  build_knn_graph(rng.random((30, 2)), 4)):
            for array in (g.indptr, g.indices):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1


class TestEdgeListFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "toy.edges"
        path.write_text("# header\n0 1\n1 2  # trailing\n\n 2 3 \n")
        assert read_edge_list(path) == [(0, 1), (1, 2), (2, 3)]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="expected"):
            read_edge_list(path)

    @pytest.mark.parametrize("line", ["1 x", "0.5 1"])
    def test_non_integer_token_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "bad.edges"
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(ValueError, match=f"bad.edges:2: expected 'i j', got '{line}'"):
            read_edge_list(path)


class TestConnectivity:
    def test_singleton_is_connected(self, grid25):
        assert is_connected_subset(grid25, {17})

    def test_two_separated_units(self, grid25):
        assert not is_connected_subset(grid25, {0, 624})

    def test_l_shaped_subset(self, grid25):
        # cells (0,0),(1,0),(2,0),(2,1),(2,2)
        subset = {0, 25, 50, 51, 52}
        assert is_connected_subset(grid25, subset)

    def test_empty_subset_rejected(self, grid25):
        with pytest.raises(ValueError):
            is_connected_subset(grid25, set())

    def test_whole_graph_connected(self, grid25):
        assert is_connected_subset(grid25, range(grid25.n))

    def test_removing_cut_vertex_disconnects_random_paths(self, grid25, rng):
        # random induced paths: each step may touch only the current tail
        # among chosen cells, so every interior vertex is a cut vertex
        for _ in range(25):
            start = int(rng.integers(grid25.n))
            path = [start]
            seen = {start}
            while len(path) < 8:
                options = [
                    v
                    for v in grid25.neighbors[path[-1]]
                    if v not in seen
                    and sum(w in seen for w in grid25.neighbors[v]) == 1
                ]
                if not options:
                    break
                nxt = options[int(rng.integers(len(options)))]
                path.append(nxt)
                seen.add(nxt)
            if len(path) < 3:
                continue
            assert is_connected_subset(grid25, set(path))
            cut = path[len(path) // 2]
            assert not is_connected_subset(grid25, set(path) - {cut})

    def test_components_split(self, grid25):
        comps = connected_components(grid25, {0, 1, 2, 100, 101})
        assert comps == [[0, 1, 2], [100, 101]]


class TestPartition:
    def test_labels_must_be_dense(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2, 2]), 3)

    def test_members_and_sizes(self):
        part = Partition(np.array([0, 1, 0, 1, 1]), 2)
        assert list(part.members(0)) == [0, 2]
        assert list(part.sizes()) == [2, 3]
        with pytest.raises(ValueError, match="unknown region"):
            part.members(2)


class TestGraphInvariants:
    def test_neighbor_lists_are_symmetric(self, grid25, rng):
        pts = rng.random((40, 2))
        for g in (grid25, build_knn_graph(pts, 4)):
            for i in range(g.n):
                for j in g.neighbors[i]:
                    assert i in g.neighbors[j]
