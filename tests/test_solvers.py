import heapq
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spregimes import (
    Dataset,
    DisconnectedGraphError,
    InitializationFailedError,
    MergeInfeasibleError,
    NumericalBreakdownError,
    Partition,
    SolverConfig,
    build_edge_list_graph,
    build_grid_graph,
    build_knn_graph,
    connected_components,
    evaluate,
    fit_ols,
    generate_suite,
    grow_initial_partition,
    is_connected_subset,
    kmodels_merge_stage,
    kmodels_partition_stage,
    region_ssr,
    solve_azp,
    solve_kmodels,
    solve_regional_kmodels,
    solve_with_restarts,
    ssr_decrease_if_removed,
    ssr_increase_if_added,
)
from spregimes import linreg, solvers
from spregimes.solvers import (
    SSR_TOLERANCE,
    _articulation_points,
    _azp_candidates,
    _azp_pass,
    _fit,
    _LocalSearch,
    _partition_sweep,
    _RegionPool,
    _rkm_candidates,
)
from spregimes.synthgen import SimulationSpec

from conftest import rank_one_rounding

try:
    import networkx as nx  # test oracle only
except ImportError:
    nx = None


def assert_feasible(graph, result, p, min_obs):
    assert result.partition.p == p
    sizes = result.partition.sizes()
    assert sizes.min() >= min_obs
    for j in range(p):
        assert is_connected_subset(graph, result.partition.members(j))


def assert_monotone(trace, tol=1e-9):
    for t in range(len(trace) - 1):
        assert trace[t + 1] <= trace[t] + tol


def star_graph():
    """Hub-and-leaves graph: no connected 2-partition has two regions of >= 2."""
    return build_edge_list_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


class TestGrowInitialPartition:
    def test_single_region_covers_everything(self, grid25, rng):
        part = grow_initial_partition(grid25, 1, 1, rng)
        assert part.p == 1
        assert part.sizes()[0] == grid25.n

    def test_one_region_per_unit(self, rng):
        g = build_grid_graph(3, 3)
        part = grow_initial_partition(g, 9, 1, rng)
        assert sorted(part.sizes()) == [1] * 9

    def test_grid_growth_yields_connected_sized_regions(self, grid25):
        rng = np.random.default_rng(2024)
        part = grow_initial_partition(grid25, 5, 10, rng)
        assert part.p == 5
        assert part.sizes().min() >= 10
        for j in range(5):
            assert is_connected_subset(grid25, part.members(j))

    def test_impossible_budget_fails_fast(self, rng):
        g = build_grid_graph(2, 2)
        with pytest.raises(InitializationFailedError):
            grow_initial_partition(g, 2, 3, rng)

    def test_structurally_impossible_layout_exhausts_restarts(self, rng):
        with pytest.raises(InitializationFailedError, match="attempts"):
            grow_initial_partition(star_graph(), 2, 2, rng, restart_limit=20)

    def test_deterministic_for_fixed_seed(self, grid25):
        a = grow_initial_partition(grid25, 5, 10, np.random.default_rng(3))
        b = grow_initial_partition(grid25, 5, 10, np.random.default_rng(3))
        assert np.array_equal(a.assignment, b.assignment)


class TestPartitionStage:
    def test_separable_noiseless_mixture_reaches_zero_ssr(self):
        g = build_grid_graph(10, 10)
        x = np.linspace(0.0, 1.0, 100)[:, None]
        y = np.where(x[:, 0] >= 0.5, 10.0 * x[:, 0] - 5.0, -10.0 * x[:, 0] + 5.0)
        ds = Dataset(X=x, y=y)
        cfg = SolverConfig(p=1, min_obs=2, K=2, seed=0)
        _, _, trace, _ = kmodels_partition_stage(ds, g, cfg, np.random.default_rng(0))
        assert trace[-1] == pytest.approx(0.0, abs=1e-16)
        assert_monotone(trace)

    def test_homogeneous_process_gives_two_near_global_models(self, rng):
        g = build_grid_graph(10, 10)
        x = rng.random((100, 2))
        y = 1.0 + 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.1 * rng.normal(size=100)
        ds = Dataset(X=x, y=y)
        cfg = SolverConfig(p=1, min_obs=3, K=2, seed=4)
        _, models, _, _ = kmodels_partition_stage(ds, g, cfg, np.random.default_rng(4))
        global_beta = fit_ols(ds, range(100)).beta
        for model in models:
            assert np.allclose(model.beta, global_beta, atol=0.35)

    def test_micro_clusters_that_do_not_fit_are_refused(self, rng):
        ds = Dataset(X=rng.random((100, 2)), y=rng.random(100))
        cfg = SolverConfig(p=5, min_obs=3, K=40)
        with pytest.raises(ValueError, match="K=40 micro-clusters"):
            kmodels_partition_stage(ds, build_grid_graph(10, 10), cfg, rng)

    def test_trace_non_increasing_on_simulation(self, rect_sim, grid25):
        cfg = SolverConfig(p=5, min_obs=10, K=20, seed=9)
        _, _, trace, _ = kmodels_partition_stage(
            rect_sim.dataset, grid25, cfg, np.random.default_rng(9)
        )
        assert_monotone(trace)


def partition_sweep_loop(assign, best, k, stage_min):
    """Reference sweep: the per-unit loop that ``_partition_sweep`` replaced."""
    sizes = np.bincount(assign, minlength=k).tolist()
    labels, best = assign.tolist(), best.tolist()
    for i in range(len(labels)):
        d = labels[i]
        if sizes[d] > stage_min:
            r = best[i]
            if r != d:
                labels[i] = r
                sizes[d] -= 1
                sizes[r] += 1
    return labels


@st.composite
def sweep_cases(draw):
    """Labels with region sizes near ``stage_min`` and a best region per unit.

    Sizes start one below ``stage_min`` and reach three above it, and up to
    every unit prefers another region, so many regions are tight: their
    leavers outnumber ``size - stage_min`` and some are refused, while
    arrivals raise the room a tight region has for later leavers.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, stage_min = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    sizes = rng.integers(stage_min - 1, stage_min + 4, size=k)
    assign = rng.permutation(np.repeat(np.arange(k), sizes)).astype(np.int64)
    stay = rng.random(len(assign)) < draw(st.floats(0.0, 1.0))
    best = np.where(stay, assign, rng.integers(k, size=len(assign)))
    return assign, best, k, stage_min


class TestPartitionSweep:
    @settings(max_examples=300, deadline=None)
    @given(sweep_cases())
    def test_matches_per_unit_loop(self, case):
        assign, best, k, stage_min = case
        before = assign.copy()
        new = _partition_sweep(assign, best, k, stage_min)
        assert new.dtype == np.int64
        assert new.tolist() == partition_sweep_loop(assign, best, k, stage_min)
        assert np.array_equal(assign, before)

    def test_arrival_makes_room_in_tight_region(self):
        # region 1 is tight (three leavers, room for one), but unit 0
        # arrives first and lets a second leaver go
        assign, best = np.array([0, 0, 0, 1, 1, 1]), np.array([1, 1, 1, 0, 0, 0])
        assert _partition_sweep(assign, best, 2, 2).tolist() == [1, 0, 0, 0, 0, 1]


class TestMergeStage:
    def test_already_feasible_partition_kept(self, rect_sim, grid25):
        cfg = SolverConfig(p=5, min_obs=10, seed=0)
        part, models = kmodels_merge_stage(
            rect_sim.dataset, grid25, rect_sim.true_partition, cfg
        )
        assert np.array_equal(part.assignment, rect_sim.true_partition.assignment)
        assert len(models) == 5
        for j in range(5):
            members = part.members(j)
            refit = fit_ols(rect_sim.dataset, members)
            assert np.allclose(models[j].beta, refit.beta)

    def test_disconnected_micro_cluster_is_split(self, rng):
        g = build_grid_graph(4, 4)
        ds = Dataset(X=rng.random((16, 1)), y=rng.random(16))
        labels = np.ones(16, dtype=int)
        labels[[0, 1]] = 0
        labels[[14, 15]] = 0  # same label, two far-apart blobs
        micro = Partition(labels, 2)
        cfg = SolverConfig(p=3, min_obs=2, seed=0)
        part, _ = kmodels_merge_stage(ds, g, micro, cfg)
        assert part.p == 3
        blob_labels = {int(part.assignment[0]), int(part.assignment[14])}
        assert len(blob_labels) == 2
        for j in range(3):
            assert is_connected_subset(g, part.members(j))

    def test_rectangular_simulation_end_state(self, rect_sim, grid25):
        cfg = SolverConfig(p=5, min_obs=10, K=20, seed=2)
        micro, _, _, _ = kmodels_partition_stage(
            rect_sim.dataset, grid25, cfg, np.random.default_rng(2)
        )
        part, models = kmodels_merge_stage(rect_sim.dataset, grid25, micro, cfg)
        assert part.p == 5
        assert part.sizes().min() >= 10
        for j in range(5):
            assert is_connected_subset(grid25, part.members(j))

    def test_region_without_finite_merge_raises_named_error(self, rng, monkeypatch):
        monkeypatch.setattr(
            solvers._RegionPool, "union_fit",
            lambda pool, a, b: solvers._Fit(pool.regions[a].units, None, float("nan")))
        bounded = []
        lower_bounds = solvers._RegionPool.lower_bounds

        def recording(pool, pairs):
            bounded.append(lower_bounds(pool, pairs))
            return bounded[-1]

        monkeypatch.setattr(solvers._RegionPool, "lower_bounds", recording)
        # at either size the size repair bounds the one union first and
        # only then finds that its fit is nan
        for side in (4, 33):
            n = side * side
            g = build_grid_graph(side, side)
            ds = Dataset(X=rng.random((n, 1)), y=rng.random(n))
            labels = np.ones(n, dtype=int)
            labels[5] = 0  # an undersized region of one unit
            bounded.clear()
            with pytest.raises(MergeInfeasibleError, match=r"size 1, smallest member 5"):
                kmodels_merge_stage(ds, g, Partition(labels, 2), SolverConfig(p=2, min_obs=2))
            assert [len(b) for b in bounded] == [1]

    @pytest.mark.parametrize("screen_units", [0, 1024])
    def test_fusion_without_a_finite_change_raises(self, rng, screen_units):
        # four 4-unit rows, each already at min_obs, so only fusion merges;
        # with every union fit nan, no pair may be fused. With 0 every
        # union enters keyed by its lower bound, as the solver does; with
        # 1024 this 16-unit graph's batches get no bounds, so every union
        # enters keyed by -inf and is fitted when it pops, as an
        # uncertified one is
        graph = build_grid_graph(4, 4)
        dataset = Dataset(X=rng.random((16, 1)), y=rng.random(16))
        nan_fit = lambda pool, a, b: solvers._Fit(pool.regions[a].units, None, float("nan"))
        bounded = []
        lower_bounds = _RegionPool.lower_bounds

        def screened(pool, pairs):
            bounded.append(lower_bounds(pool, pairs) if len(pool.region_of) > screen_units
                           else {})
            return bounded[-1]

        with mock.patch.object(_RegionPool, "union_fit", nan_fit), \
                mock.patch.object(_RegionPool, "lower_bounds", screened), \
                pytest.raises(MergeInfeasibleError, match="4 regions remain"):
            kmodels_merge_stage(dataset, graph, Partition(np.repeat(np.arange(4), 4), 4),
                                SolverConfig(p=2, min_obs=4))
        assert any(bounded) == (screen_units == 0)

    def test_unbounded_unions_are_fitted_only_when_they_pop(self, rng):
        # four 4-unit rows, each already at min_obs, and no union bounded:
        # the three row pairs enter keyed by -inf and are fitted as they
        # pop. The one fusion then reaches p=3, so the unions it pushes
        # for the new region 4 never pop and are never fitted
        graph = build_grid_graph(4, 4)
        dataset = Dataset(X=rng.random((16, 1)), y=rng.random(16))
        fitted = []
        union_fit = _RegionPool.union_fit

        def recording(pool, a, b):
            fitted.append((a, b))
            return union_fit(pool, a, b)

        with mock.patch.object(_RegionPool, "union_fit", recording), \
                mock.patch.object(_RegionPool, "lower_bounds", lambda pool, pairs: {}):
            part, _ = kmodels_merge_stage(dataset, graph, Partition(np.repeat(np.arange(4), 4), 4),
                                          SolverConfig(p=3, min_obs=4))
        assert part.p == 3
        assert fitted == [(0, 1), (1, 2), (2, 3)]

    def test_too_few_components_is_infeasible(self, rng):
        g = build_grid_graph(4, 4)
        ds = Dataset(X=rng.random((16, 1)), y=rng.random(16))
        labels = (np.arange(16) >= 8).astype(int)  # two connected halves
        micro = Partition(labels, 2)
        cfg = SolverConfig(p=3, min_obs=2, seed=0)
        with pytest.raises(MergeInfeasibleError, match="min_obs"):
            kmodels_merge_stage(ds, g, micro, cfg)


def holey_grid(rows, cols, holes):
    """Largest connected piece of a grid with the ``holes`` cells removed."""
    grid = build_grid_graph(rows, cols)
    kept = max(connected_components(grid, set(range(rows * cols)) - set(holes)), key=len)
    index = {cell: i for i, cell in enumerate(kept)}
    edges = [(index[u], index[v]) for u in kept for v in grid.neighbors[u] if v in index]
    return build_edge_list_graph(len(kept), edges)


def draw_graph(draw, rng, sides, points, k):
    """A grid with up to a fifth of its cells removed, or a knn graph."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(*sides)), draw(st.integers(*sides))
        holes = rng.choice(rows * cols, size=draw(st.integers(0, rows * cols // 5)),
                           replace=False)
        return holey_grid(rows, cols, holes.tolist())
    try:
        return build_knn_graph(rng.random((draw(st.integers(*points)), 2)), k)
    except DisconnectedGraphError:
        assume(False)


@st.composite
def merge_cases(draw):
    """Graph, data and a scattered micro partition with many tiny components.

    The micro partition grows K connected clusters and then relabels a
    random share of units at random, which splits most clusters into
    undersized pieces. With two covariates the second is sometimes a copy
    of the first, so that every union Gram is singular. ``min_obs`` is
    drawn up to n / 2p, and the case is kept only when at least p split
    components already reach it, since the size repair never merges two
    such components and so cannot leave fewer than p regions.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = draw_graph(draw, rng, (5, 10), (30, 120), 5)
    n, m = graph.n, draw(st.integers(1, 2))
    p = draw(st.integers(1, 3))
    k = draw(st.integers(p + 1, 4 * p + 4))
    assume(n >= 2 * p * (m + 1) and n >= k)
    labels = grow_initial_partition(graph, k, 1, rng).assignment
    scattered = rng.random(n) < draw(st.floats(0.2, 0.6))
    labels[scattered] = rng.integers(k, size=int(scattered.sum()))
    _, labels = np.unique(labels, return_inverse=True)
    micro = Partition(labels, int(labels.max()) + 1)
    min_obs = draw(st.integers(m + 1, n // (2 * p)))
    big = sum(
        len(comp) >= min_obs
        for j in range(micro.p)
        for comp in connected_components(graph, micro.members(j))
    )
    assume(big >= p)
    x = rng.random((n, m))
    if m == 2 and draw(st.booleans()):
        x[:, 1] = x[:, 0]  # every Gram is singular, so every fit is degenerate
    dataset = Dataset(X=x, y=rng.normal(size=n))
    return dataset, graph, micro, SolverConfig(p=p, min_obs=min_obs)


def neighbor_regions_loop(pool, graph, rid):
    """Reference scan: the per-neighbor loop that ``neighbor_regions`` replaced."""
    out = set()
    for u in pool.regions[rid].units.tolist():
        for v in graph.neighbors[u]:
            w = int(pool.region_of[v])
            if w != rid:
                out.add(w)
    return out


@st.composite
def pool_cases(draw):
    """A drawn graph, scattered labels and a seed for a random merge order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = draw_graph(draw, rng, (1, 8), (5, 60), 3)
    n = graph.n
    p = draw(st.integers(1, min(8, n)))
    labels = rng.integers(p, size=n)
    labels[rng.choice(n, size=p, replace=False)] = np.arange(p)
    dataset = Dataset(X=rng.random((n, 1)), y=rng.normal(size=n))
    return dataset, graph, labels, p, rng


class TestRegionPool:
    @settings(max_examples=100, deadline=None)
    @given(pool_cases())
    def test_neighbor_regions_match_loop_through_merges(self, case):
        dataset, graph, labels, p, rng = case
        pool = _RegionPool(dataset, graph.n)
        for j in rng.permutation(p).tolist():
            pool.add(_fit(dataset, np.flatnonzero(labels == j)))
        while True:
            touching = {rid: pool.neighbor_regions(graph, rid) for rid in pool.regions}
            for rid, found in touching.items():
                assert found == neighbor_regions_loop(pool, graph, rid)
            pairs = sorted((a, b) for a, nbs in touching.items() for b in nbs if a < b)
            if not pairs:
                break
            a, b = pairs[rng.integers(len(pairs))]
            union = pool.union_fit(a, b)
            expected = np.sort(np.concatenate((pool.regions[a].units, pool.regions[b].units)))
            assert np.array_equal(union.units, expected)
            pool.merge(a, b, union)


    def test_cross_products_follow_merges_and_bound_every_union_above_m(self, rng):
        # m = 2 and single-unit regions: no region has a model, and each
        # union of three or more units is bounded from its summed Z'Z
        graph = build_grid_graph(3, 4)
        dataset = Dataset(X=rng.random((12, 2)), y=rng.normal(size=12))
        pool = _RegionPool(dataset, 12)
        for u in range(12):
            pool.add(_fit(dataset, np.array([u])))
        assert pool.lower_bounds([(0, 1)]) == {}
        first = pool.merge(0, 1, pool.union_fit(0, 1))
        second = pool.merge(2, 3, pool.union_fit(2, 3))
        pairs = [(first, 4), (first, second), (5, 6)]
        lower = pool.lower_bounds(pairs)
        assert sorted(lower) == pairs[:2]
        for a, b in pairs[:2]:
            assert lower[a, b] <= pool.delta(a, b, pool.union_fit(a, b))
        rows = np.column_stack((dataset.augmented, dataset.y))
        for rid, f in pool.regions.items():
            z = rows[f.units]
            assert np.allclose(pool.cross[rid], z.T @ z, rtol=1e-14, atol=1e-14)


def merge_stage_oracle(dataset, graph, micro_partition, config):
    """Reference merge stage that fits every candidate union and bounds none."""
    pool = _RegionPool(dataset, graph.n)
    for j in range(micro_partition.p):
        for comp in connected_components(graph, micro_partition.members(j)):
            pool.add(_fit(dataset, np.asarray(comp, dtype=np.int64)))
    repair = [(len(f.units), pool.smallest(rid), rid) for rid, f in pool.regions.items()
              if len(f.units) < config.min_obs]
    heapq.heapify(repair)
    while repair:
        rid = heapq.heappop(repair)[2]
        if rid not in pool.regions:
            continue
        best_nb, best_fit, best_delta = -1, None, np.inf
        for nb in sorted(pool.neighbor_regions(graph, rid), key=pool.smallest):
            fitted = pool.union_fit(rid, nb)
            delta = pool.delta(rid, nb, fitted)
            if delta < best_delta:
                best_nb, best_fit, best_delta = nb, fitted, delta
        if best_fit is None:
            raise MergeInfeasibleError("no finite merge")
        new = pool.merge(rid, best_nb, best_fit)
        if len(best_fit.units) < config.min_obs:
            heapq.heappush(repair, (len(best_fit.units), pool.smallest(new), new))
    if len(pool.regions) < config.p:
        raise MergeInfeasibleError("too few regions")
    adjacency = {rid: pool.neighbor_regions(graph, rid) for rid in pool.regions}
    heap = []
    for a in sorted(pool.regions):
        for b in sorted(adjacency[a]):
            if a < b:
                heapq.heappush(heap, (pool.delta(a, b, pool.union_fit(a, b)), a, b))
    while len(pool.regions) > config.p:
        _, a, b = heapq.heappop(heap)
        if a not in pool.regions or b not in pool.regions:
            continue
        new = pool.merge(a, b, pool.union_fit(a, b))
        adjacency[new] = (adjacency.pop(a) | adjacency.pop(b)) - {a, b}
        for x in sorted(adjacency[new]):
            adjacency[x].discard(a)
            adjacency[x].discard(b)
            adjacency[x].add(new)
            lo, hi = min(new, x), max(new, x)
            heapq.heappush(heap, (pool.delta(lo, hi, pool.union_fit(lo, hi)), lo, hi))
    ordered = [pool.regions[rid] for rid in sorted(pool.regions, key=pool.smallest)]
    assignment = np.empty(graph.n, dtype=np.int64)
    for label, f in enumerate(ordered):
        assignment[f.units] = label
    return Partition(assignment, len(ordered)), [f.model for f in ordered]


def assert_same_merge(dataset, graph, micro, cfg):
    """The merge stage, which bounds every batch, equals the oracle bit for bit.

    The screened run must fit no union twice, since each merge installs
    the fit that scored it. Returns how many union fits the screened run
    made and the oracle made.
    """
    fits = {"screened": [], "oracle": []}
    union_fit = _RegionPool.union_fit

    def counting(key):
        def wrapper(pool, a, b):
            fits[key].append(frozenset((a, b)))
            return union_fit(pool, a, b)
        return wrapper

    with mock.patch.object(_RegionPool, "union_fit", counting("oracle")):
        expected, expected_models = merge_stage_oracle(dataset, graph, micro, cfg)
    with mock.patch.object(_RegionPool, "union_fit", counting("screened")):
        part, models = kmodels_merge_stage(dataset, graph, micro, cfg)
    assert np.array_equal(part.assignment, expected.assignment)
    for got, want in zip(models, expected_models, strict=True):
        assert got.beta.tobytes() == want.beta.tobytes()
        assert repr(got.ssr) == repr(want.ssr)
    assert len(fits["screened"]) == len(set(fits["screened"]))
    return len(fits["screened"]), len(fits["oracle"])


class TestMergeScreen:
    """Bounding candidate unions first changes no merge, ties included."""

    @settings(max_examples=80, deadline=None)
    @given(merge_cases())
    def test_matches_oracle_with_every_batch_bounded(self, case):
        screened, oracle = assert_same_merge(*case)
        assert screened <= oracle

    @settings(max_examples=40, deadline=None)
    @given(merge_cases())
    def test_matches_oracle_with_loose_bounds(self, case):
        # a wider interval still holds every change; it only rules out
        # fewer unions, and the order of the lower bounds no longer
        # follows the order of the changes
        with mock.patch.object(linreg, "MERGE_ERROR_FACTOR", 1e12):
            assert_same_merge(*case)

    def test_bounds_skip_union_fits(self):
        rng = np.random.default_rng(5)
        graph = build_grid_graph(12, 12)
        labels = grow_initial_partition(graph, 12, 1, rng).assignment
        scattered = rng.random(144) < 0.4
        labels[scattered] = rng.integers(12, size=int(scattered.sum()))
        x = rng.random((144, 1))
        dataset = Dataset(X=x, y=np.where(labels % 2, 1.0, -1.0) * x[:, 0]
                          + 0.1 * rng.normal(size=144))
        screened, oracle = assert_same_merge(dataset, graph, Partition(labels, 12),
                                             SolverConfig(p=3, min_obs=8))
        assert screened < oracle / 2

    @pytest.mark.parametrize("m, min_obs", [(2, 3), (1, 5)])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_zero_response_ties_every_merge(self, p, m, min_obs):
        # every SSR, change and bound is exactly 0.0, so each size-repair
        # choice is a tie broken by smallest member, each bound meets the
        # cut exactly, and fusion pops pairs by id; with min_obs above m+1
        # fitted undersized regions are repaired too
        rng = np.random.default_rng(3)
        graph = build_grid_graph(6, 6)
        labels = rng.integers(6, size=36)
        labels[:6] = np.arange(6)
        dataset = Dataset(X=rng.random((36, m)), y=np.zeros(36))
        assert_same_merge(dataset, graph, Partition(labels, 6),
                          SolverConfig(p=p, min_obs=min_obs))

    def test_fusion_tie_goes_to_the_smaller_ids(self):
        # four 5-unit blocks along a path; blocks 0 and 2 hold the same
        # rows, as do blocks 1 and 3, so merging 0 with 1 and 2 with 3 fit
        # identical rows and tie bit for bit, below the 1-2 merge
        graph = build_grid_graph(1, 20)
        rng = np.random.default_rng(8)
        x = np.tile(rng.random((10, 1)), (2, 1))
        y = np.tile(np.concatenate([x[:5, 0], 1.1 * x[5:10, 0]]), 2) + np.tile(
            0.01 * rng.normal(size=10), 2)
        labels = np.repeat(np.arange(4), 5)
        dataset = Dataset(X=x, y=y)
        pool = _RegionPool(dataset, 20)
        for j in range(4):
            pool.add(_fit(dataset, np.flatnonzero(labels == j)))
        first, second = (pool.delta(a, b, pool.union_fit(a, b)) for a, b in [(0, 1), (2, 3)])
        assert first == second < pool.delta(1, 2, pool.union_fit(1, 2))
        assert_same_merge(dataset, graph, Partition(labels, 4), SolverConfig(p=3, min_obs=5))
        part, _ = kmodels_merge_stage(dataset, graph, Partition(labels, 4),
                                      SolverConfig(p=3, min_obs=5))
        assert part.assignment.tolist() == [0] * 10 + [1] * 5 + [2] * 5


class TestMergeStageProperties:
    @settings(max_examples=60, deadline=None)
    @given(merge_cases())
    def test_merge_stage_invariants(self, case):
        dataset, graph, micro, cfg = case
        part, models = kmodels_merge_stage(dataset, graph, micro, cfg)
        assert part.p == cfg.p and len(models) == cfg.p
        assert part.sizes().min() >= cfg.min_obs
        for j in range(cfg.p):
            members = part.members(j)
            assert is_connected_subset(graph, members)
            assert np.array_equal(models[j].beta, fit_ols(dataset, members).beta)
        again, again_models = kmodels_merge_stage(dataset, graph, micro, cfg)
        assert np.array_equal(again.assignment, part.assignment)
        for a, b in zip(models, again_models):
            assert np.array_equal(a.beta, b.beta)


@st.composite
def kmodels_cases(draw):
    """Holey grid or knn graph, random data and a small K-Models config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = draw_graph(draw, rng, (4, 9), (20, 80), 4)
    n, m = graph.n, draw(st.integers(1, 2))
    p = draw(st.integers(1, 3))
    assume(n >= 2 * p * (m + 1))
    min_obs = draw(st.integers(m + 1, n // (2 * p)))
    k = draw(st.integers(p + 1, min(4 * p + 4, n // (m + 1))))
    dataset = Dataset(X=rng.random((n, m)), y=rng.normal(size=n))
    # about half the cases stop the partition stage at a small cap
    max_iter = draw(st.one_of(st.just(1000), st.integers(1, 5)))
    return dataset, graph, SolverConfig(p=p, min_obs=min_obs, K=k, max_iter=max_iter,
                                        seed=draw(st.integers(0, 999)))


class TestKModelsProperties:
    @settings(max_examples=40, deadline=None)
    @given(case=kmodels_cases())
    def test_invariants_and_reproducibility(self, case):
        dataset, graph, cfg = case
        try:
            res = solve_kmodels(dataset, graph, cfg)
        except (MergeInfeasibleError, InitializationFailedError):
            assume(False)
        assert np.array_equal(np.unique(res.partition.assignment), np.arange(cfg.p))
        assert_feasible(graph, res, p=cfg.p, min_obs=cfg.min_obs)
        assert_monotone(res.trace)
        again = solve_kmodels(dataset, graph, cfg)
        assert np.array_equal(again.partition.assignment, res.partition.assignment)
        assert again.total_ssr == res.total_ssr
        assert again.trace == res.trace


def grown_subset(graph, size, rng):
    """Connected set of up to ``size`` units grown from a random unit."""
    start = int(rng.integers(graph.n))
    members, frontier = {start}, set(graph.neighbors[start])
    while len(members) < size and frontier:
        v = sorted(frontier)[int(rng.integers(len(frontier)))]
        members.add(v)
        frontier |= set(graph.neighbors[v])
        frontier -= members
    return members


@st.composite
def cut_cases(draw):
    """A holey grid, knn or path graph and a connected subset of 1 to n units."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(2, 40))
        graph = build_edge_list_graph(n, [(i, i + 1) for i in range(n - 1)])
    else:
        graph = draw_graph(draw, rng, (1, 9), (5, 60), 3)
    size = draw(st.one_of(st.integers(1, 2), st.integers(1, graph.n)))
    return graph, grown_subset(graph, size, rng)


def region_labels(n, members):
    """Label list with ``members`` in region 0 and every other unit in region 1."""
    labels = [1] * n
    for v in members:
        labels[v] = 0
    return labels


@st.composite
def labelled_cut_cases(draw):
    """A cut case inside a label list of several regions.

    The subset is region ``d`` and every other unit gets a random label of
    another region, so the search must leave out units next to the subset.
    """
    graph, members = draw(cut_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(2, 5))
    d = draw(st.integers(0, p - 1))
    labels = rng.choice([r for r in range(p) if r != d], size=graph.n).tolist()
    for v in members:
        labels[v] = d
    return graph, labels, members, draw(st.sampled_from(sorted(members)))


class TestArticulationPoints:
    @settings(max_examples=200, deadline=None)
    @given(cut_cases())
    def test_matches_brute_force_connectivity(self, case):
        graph, members = case
        expected = {v for v in members
                    if len(members) > 1 and not is_connected_subset(graph, members - {v})}
        labels = region_labels(graph.n, members)
        assert _articulation_points(graph, labels, min(members)) == expected

    @pytest.mark.skipif(nx is None, reason="networkx is the oracle of this test")
    @settings(max_examples=200, deadline=None)
    @given(labelled_cut_cases())
    def test_matches_networkx_within_labelled_regions(self, case):
        graph, labels, members, root = case
        sub = nx.Graph()
        sub.add_nodes_from(members)
        sub.add_edges_from((u, v) for u in members for v in graph.neighbors[u] if v in members)
        assert _articulation_points(graph, labels, root) == set(nx.articulation_points(sub))

    def test_60x60_regions_need_no_recursion(self):
        grid = build_grid_graph(60, 60)
        assert _articulation_points(grid, [0] * 3600, 0) == set()
        # a serpentine path over every other row, far deeper than the
        # recursion limit: every unit but its two ends is a cut vertex
        snake = {r * 60 + c for r in range(0, 60, 2) for c in range(60)}
        snake |= {r * 60 + (59 if r % 4 == 1 else 0) for r in range(1, 59, 2)}
        assert _articulation_points(grid, region_labels(3600, snake), 0) == snake - {0, 58 * 60}


@st.composite
def local_search_cases(draw):
    """Holey grid or knn graph, random data and a small feasible config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = draw_graph(draw, rng, (4, 9), (20, 80), 4)
    n, m = graph.n, draw(st.integers(1, 2))
    p = draw(st.integers(1, 3))
    assume(n >= 2 * p * (m + 1))
    min_obs = draw(st.integers(m + 1, n // (2 * p)))
    dataset = Dataset(X=rng.random((n, m)), y=rng.normal(size=n))
    # about half the cases stop at a small iteration cap
    max_iter = draw(st.one_of(st.just(1000), st.integers(1, 5)))
    return dataset, graph, SolverConfig(p=p, min_obs=min_obs, max_iter=max_iter,
                                        seed=draw(st.integers(0, 999)))


class TestLocalSearchProperties:
    @pytest.mark.parametrize("solver", [solve_azp, solve_regional_kmodels])
    @settings(max_examples=60, deadline=None)
    @given(case=local_search_cases())
    def test_invariants_and_reproducibility(self, solver, case):
        dataset, graph, cfg = case
        try:
            res = solver(dataset, graph, cfg, check_invariants=True)
        except InitializationFailedError:
            assume(False)
        assert np.array_equal(np.unique(res.partition.assignment), np.arange(cfg.p))
        assert_feasible(graph, res, p=cfg.p, min_obs=cfg.min_obs)
        assert_monotone(res.trace)
        assert res.iterations_used == len(res.trace) - 1 <= cfg.max_iter
        again = solver(dataset, graph, cfg, check_invariants=True)
        assert np.array_equal(again.partition.assignment, res.partition.assignment)
        assert again.total_ssr == res.total_ssr
        assert again.trace == res.trace


def rkm_candidates_loop(graph, assign, resid, sizes, min_obs):
    """Reference RKM scan: the per-unit loop that ``_rkm_candidates`` replaced."""
    labels = assign.tolist()
    candidates, targets = [], []
    for i in range(graph.n):
        d = labels[i]
        if sizes[d] <= min_obs:
            continue
        row = resid[i]
        best_r, best_val = d, row[d]
        for w in graph.neighbors[i]:
            r = labels[w]
            if r != best_r and (row[r] < best_val or (row[r] == best_val and r < best_r)):
                best_r, best_val = r, row[r]
        if best_r != d:
            candidates.append(i)
            targets.append(best_r)
    return candidates, targets


def csr_rows(graph):
    """The unit whose CSR row holds each entry of ``graph.indices``."""
    return np.repeat(np.arange(graph.n), np.diff(graph.indptr))


def azp_candidates_loop(graph, assign, j):
    """Reference AZP candidate set: the comprehension ``_azp_candidates`` replaced."""
    members = np.flatnonzero(assign == j).tolist()
    return sorted({v for u in members for v in graph.neighbors[u] if assign[v] != j})


def move_delta_oracle(search, v, d, j, offered):
    """The scalar rank-one tests, with the per-donor rule of ``_LocalSearch.screen``.

    Returns the SSR increase of region ``j`` and decrease of region ``d``
    from moving unit ``v``, or None where the full refit decides: when
    either model is degenerate, or when the stacked removal test over
    ``offered``, every candidate unit donor ``d`` offers region ``j``,
    breaks down.
    """
    dataset, fj, fd = search.dataset, search.regions[j], search.regions[d]
    x, yv = dataset.X[v], float(dataset.y[v])
    if fj.model.degenerate or fd.model.degenerate:
        return None
    try:
        ssr_decrease_if_removed(fd.model, dataset.X[offered], dataset.y[offered])
    except NumericalBreakdownError:
        return None
    return ssr_increase_if_added(fj.model, x, yv), ssr_decrease_if_removed(fd.model, x, yv)


def search_state(dataset, graph, labels, p):
    """A ``_LocalSearch`` holding the given labels and their fits, grown by no one."""
    search = object.__new__(_LocalSearch)
    search.dataset, search.graph, search.assign = dataset, graph, labels
    search.regions = solvers._fit_labels(dataset, labels, p)
    return search


@st.composite
def screen_cases(draw):
    """Random labels on a drawn graph, with degenerate or duplicated columns.

    Every region gets at least m+1 units, so every region has a model;
    regions of exactly m+1 units give leverage-1 rows whose removal breaks
    down. A 0/1 column is constant, so degenerate, in some small regions
    only; a constant or duplicated column makes every model degenerate.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = draw_graph(draw, rng, (3, 8), (10, 60), 3)
    n, m = graph.n, draw(st.integers(1, 3))
    p = draw(st.integers(2, 4))
    assume(n >= p * (m + 1))
    labels = np.concatenate((np.repeat(np.arange(p), m + 1),
                             rng.integers(p, size=n - p * (m + 1))))
    labels = rng.permutation(labels).astype(np.int64)
    x = rng.normal(size=(n, m))
    for c in range(m):
        kind = draw(st.sampled_from(["normal", "binary", "constant", "duplicate"]))
        if kind == "binary":
            x[:, c] = rng.integers(2, size=n)
        elif kind == "constant":
            x[:, c] = 1.5
        elif kind == "duplicate" and c > 0:
            x[:, c] = x[:, c - 1]
    return Dataset(X=x, y=rng.normal(size=n)), graph, labels, p


class TestSsrScreen:
    @settings(max_examples=150, deadline=None)
    @given(screen_cases())
    def test_screen_matches_scalar_oracle(self, case):
        dataset, graph, labels, p = case
        search = search_state(dataset, graph, labels, p)
        for j in range(p):
            candidates = _azp_candidates(graph, csr_rows(graph), labels, j)
            donors = labels[candidates]
            delta, refit = search.screen(candidates, donors, j)
            for pos, v in enumerate(candidates.tolist()):
                d = int(donors[pos])
                expected = move_delta_oracle(search, v, d, j, candidates[donors == d])
                assert refit[pos] == (expected is None)
                if expected is None:
                    assert np.isnan(delta[pos])
                else:
                    gain, loss = expected
                    v_x, v_y = dataset.X[v], float(dataset.y[v])
                    bound = (rank_one_rounding(search.regions[j].model, v_x, v_y, 1.0)
                             + rank_one_rounding(search.regions[d].model, v_x, v_y, -1.0))
                    assert abs(delta[pos] - (gain - loss)) <= bound[0]

    def test_donor_breakdown_sends_all_its_candidates_to_refits(self, rng):
        # m = 1 on a 2x4 grid: region 0 is the left half, donor 1 the right
        # half. Only donor unit 2 has x = 1, so its leverage in the donor's
        # fit is 1 and the donor's stacked removal test breaks down. The
        # donor offers region 0 units 2 and 6; unit 6 alone would be
        # decided, but both go to refits with the donor
        graph = build_grid_graph(2, 4)
        x = np.zeros((8, 1))
        x[[0, 1, 4, 5], 0] = [0.1, 0.5, 0.3, 0.9]
        x[2, 0] = 1.0
        dataset = Dataset(X=x, y=rng.normal(size=8))
        labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        search = search_state(dataset, graph, labels, 2)
        candidates = _azp_candidates(graph, csr_rows(graph), labels, 0)
        assert candidates.tolist() == [2, 6]
        with pytest.raises(NumericalBreakdownError):
            ssr_decrease_if_removed(search.regions[1].model, x[[2, 6]], dataset.y[[2, 6]])
        ssr_decrease_if_removed(search.regions[1].model, x[6], float(dataset.y[6]))
        delta, refit = search.screen(candidates, labels[candidates], 0)
        assert refit.tolist() == [True, True]
        assert np.isnan(delta).all()

    def test_converged_pass_builds_no_cut_set(self, monkeypatch):
        # a noiseless two-regime chain converges at SSR 0, so no unit can
        # lower the SSR and no donor needs its cut vertices
        n = 20
        graph = build_grid_graph(1, n)
        x = np.random.default_rng(0).random((n, 1))
        y = np.where(np.arange(n) < 10, 1.0 + 2.0 * x[:, 0], 3.0 - 1.0 * x[:, 0])
        search = _LocalSearch(Dataset(X=x, y=y), graph, SolverConfig(p=2, min_obs=3, seed=1),
                              check_invariants=False)
        search.run(_azp_pass)
        assert search.trace[-1] == pytest.approx(0.0, abs=1e-12)
        search.cuts = [None, None]
        built = count_cut_builds(monkeypatch)
        assert not _azp_pass(search)
        assert built == []

    def test_cut_sets_only_for_donors_with_an_improving_unit(self, rect_sim, grid25,
                                                             monkeypatch):
        cfg = SolverConfig(p=5, min_obs=10, seed=7)
        search = _LocalSearch(rect_sim.dataset, grid25, cfg, check_invariants=False)
        search.run(_azp_pass)
        sizes = np.array([len(f.units) for f in search.regions])
        improving = set()
        for j in range(cfg.p):
            candidates = _azp_candidates(grid25, search.rows, search.assign, j)
            donors = search.assign[candidates]
            delta, refit = search.screen(candidates, donors, j)
            viable = (sizes[donors] > cfg.min_obs) & (refit | (delta < -SSR_TOLERANCE))
            improving |= set(donors[viable].tolist())
        search.cuts = [None] * cfg.p
        built = count_cut_builds(monkeypatch)
        assert not _azp_pass(search)
        assert set(built) <= improving

    def test_breakdown_sends_screened_candidates_to_refits(self, monkeypatch):
        spec = SimulationSpec(rows=15, cols=15, sigma=0.1, seed=101)
        dataset = generate_suite(spec, 1)[0].dataset
        graph, cfg = build_grid_graph(15, 15), SolverConfig(p=5, min_obs=10, seed=7)
        calls = {"move": 0, "moved_fits": 0, "refit_delta": 0}
        for name in calls:
            real = getattr(_LocalSearch, name)
            monkeypatch.setattr(_LocalSearch, name, counted(real, calls, name))
        plain = solve_azp(dataset, graph, cfg)
        # without breakdowns or degenerate models only accepted moves refit
        assert calls["moved_fits"] == calls["move"] > 0
        assert calls["refit_delta"] == 0
        calls.update(move=0, moved_fits=0, refit_delta=0)

        def breakdown(*args):
            raise NumericalBreakdownError("forced rank-one breakdown")

        monkeypatch.setattr(solvers, "ssr_increase_if_added", breakdown)
        forced = solve_azp(dataset, graph, cfg)
        # every move is decided by refits, and installs the fits that scored it
        assert calls["moved_fits"] == calls["refit_delta"] > calls["move"] > 0
        assert forced.total_ssr == plain.total_ssr
        assert np.array_equal(forced.partition.assignment, plain.partition.assignment)


def counted(fn, calls, name):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_cut_builds(monkeypatch):
    """Record the region of every ``_articulation_points`` call from now on."""
    built = []
    real = solvers._articulation_points

    def recording(graph, labels, root):
        built.append(labels[root])
        return real(graph, labels, root)

    monkeypatch.setattr(solvers, "_articulation_points", recording)
    return built


@st.composite
def scan_cases(draw):
    """Graph, random dense labels, tie-heavy residuals and a biting ``min_obs``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = draw_graph(draw, rng, (1, 9), (5, 60), 3)
    n = graph.n
    p = draw(st.integers(1, min(6, n)))
    assign = rng.integers(p, size=n)
    assign[rng.choice(n, size=p, replace=False)] = np.arange(p)
    # residuals from {0, 1, 2} make ties between regions common
    resid = rng.integers(0, 3, size=(n, p)).astype(float)
    sizes = np.bincount(assign, minlength=p)
    min_obs = draw(st.integers(0, int(sizes.max())))
    return graph, assign, resid, sizes, min_obs


class TestCandidateScans:
    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    def test_rkm_scan_matches_loop(self, case):
        graph, assign, resid, sizes, min_obs = case
        candidates, targets = _rkm_candidates(graph, csr_rows(graph), assign, resid,
                                              sizes, min_obs)
        assert (candidates.tolist(), targets.tolist()) == rkm_candidates_loop(
            graph, assign, resid, sizes, min_obs)

    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    def test_azp_scan_matches_loop(self, case):
        graph, assign = case[:2]
        rows = csr_rows(graph)
        for j in range(int(assign.max()) + 1):
            assert (_azp_candidates(graph, rows, assign, j).tolist()
                    == azp_candidates_loop(graph, assign, j))


class TestSolveKmodels:
    def test_single_region_equals_global_fit(self, rect_sim, grid25):
        res = solve_kmodels(rect_sim.dataset, grid25, SolverConfig(p=1, min_obs=10, K=4, seed=1))
        global_model = fit_ols(rect_sim.dataset, range(625))
        assert res.partition.p == 1
        assert res.total_ssr == pytest.approx(
            region_ssr(global_model, rect_sim.dataset, range(625)), rel=1e-9
        )

    def test_merge_stage_cannot_lower_ssr_below_trace(self, rect_sim, grid25):
        res = solve_kmodels(rect_sim.dataset, grid25, SolverConfig(p=5, min_obs=10, K=20, seed=5))
        assert res.total_ssr >= res.trace[-1] - 1e-9
        assert_monotone(res.trace)
        assert_feasible(grid25, res, p=5, min_obs=10)

    def test_k_defaults_to_four_p(self, rect_sim, grid25):
        res = solve_kmodels(rect_sim.dataset, grid25, SolverConfig(p=5, min_obs=10, seed=5))
        assert_feasible(grid25, res, p=5, min_obs=10)

    def test_knn_solve_builds_neighbor_tuples_only_for_local_search(self):
        rng = np.random.default_rng(3)
        graph = build_knn_graph(rng.random((300, 2)), 6)
        dataset = Dataset(X=rng.random((300, 2)), y=rng.normal(size=300))
        solve_kmodels(dataset, graph, SolverConfig(p=3, min_obs=20, K=9, seed=0))
        assert "neighbors" not in vars(graph)
        solve_regional_kmodels(dataset, graph, SolverConfig(p=3, min_obs=20, seed=0))
        assert "neighbors" in vars(graph)

    def test_k_not_exceeding_p_rejected(self, rect_sim, grid25):
        with pytest.raises(ValueError, match="exceed"):
            solve_kmodels(rect_sim.dataset, grid25, SolverConfig(p=5, min_obs=10, K=5))


class TestSolveAzp:
    def test_single_region_returns_global_fit(self, rect_sim, grid25):
        res = solve_azp(rect_sim.dataset, grid25, SolverConfig(p=1, min_obs=10, seed=0))
        global_model = fit_ols(rect_sim.dataset, range(625))
        assert np.allclose(res.models[0].beta, global_model.beta)
        assert res.iterations_used == 1

    def test_chain_breakpoint_recovered_exactly(self):
        n = 20
        g = build_grid_graph(1, n)
        x = np.random.default_rng(0).random((n, 1))
        y = np.where(np.arange(n) < 10, 1.0 + 2.0 * x[:, 0], 3.0 - 1.0 * x[:, 0])
        ds = Dataset(X=x, y=y)
        # oracle: exhaustive scan of every contiguous two-way split
        oracle = min(
            region_ssr(fit_ols(ds, range(b)), ds, range(b))
            + region_ssr(fit_ols(ds, range(b, n)), ds, range(b, n))
            for b in range(3, n - 2)
        )
        res = solve_azp(ds, g, SolverConfig(p=2, min_obs=3, seed=1))
        assert oracle == pytest.approx(0.0, abs=1e-18)
        assert res.total_ssr == pytest.approx(oracle, abs=1e-12)
        assert sorted(res.partition.sizes()) == [10, 10]

    def test_instrumented_run_keeps_regions_connected(self, rect_sim, grid25):
        res = solve_azp(
            rect_sim.dataset, grid25,
            SolverConfig(p=5, min_obs=10, seed=3, max_iter=30),
            check_invariants=True,
        )
        assert_monotone(res.trace)
        assert_feasible(grid25, res, p=5, min_obs=10)


class TestSolveRegionalKmodels:
    def test_single_region_returns_global_fit(self, rect_sim, grid25):
        res = solve_regional_kmodels(rect_sim.dataset, grid25,
                                     SolverConfig(p=1, min_obs=10, seed=0))
        global_model = fit_ols(rect_sim.dataset, range(625))
        assert np.allclose(res.models[0].beta, global_model.beta)

    def test_two_stripe_grid_recovered_from_some_seed(self):
        g = build_grid_graph(10, 10)
        x = np.random.default_rng(1).random((100, 2))
        stripe = np.arange(100) // 10 >= 5
        y = np.where(stripe, 2.0 * x[:, 0] - x[:, 1], -2.0 * x[:, 0] + x[:, 1])
        ds = Dataset(X=x, y=y)
        ssrs = [
            solve_regional_kmodels(ds, g, SolverConfig(p=2, min_obs=10, seed=s)).total_ssr
            for s in range(10)
        ]
        assert min(ssrs) < 1e-6

    def test_instrumented_run_keeps_regions_connected(self, rect_sim, grid25):
        res = solve_regional_kmodels(
            rect_sim.dataset, grid25,
            SolverConfig(p=5, min_obs=10, seed=3, max_iter=200),
            check_invariants=True,
        )
        assert_monotone(res.trace)
        assert_feasible(grid25, res, p=5, min_obs=10)


class TestDeterminismAndRestarts:
    @pytest.mark.parametrize("solver", [solve_kmodels, solve_azp, solve_regional_kmodels])
    def test_identical_inputs_give_identical_results(self, solver, rect_sim, grid25):
        cfg = SolverConfig(p=5, min_obs=10, K=20, seed=17, max_iter=60)
        a = solver(rect_sim.dataset, grid25, cfg)
        b = solver(rect_sim.dataset, grid25, cfg)
        assert np.array_equal(a.partition.assignment, b.partition.assignment)
        assert a.total_ssr == b.total_ssr
        assert a.trace == b.trace

    def test_restarts_keep_lowest_ssr(self, rect_sim, grid25):
        cfg = SolverConfig(p=5, min_obs=10, K=20, seed=100)
        best, runs = solve_with_restarts("kmodels", rect_sim.dataset, grid25, cfg, repeats=3)
        assert [run.seed for run in runs] == [100, 101, 102]
        assert best.total_ssr == min(run.total_ssr for run in runs)

    def test_unknown_algorithm_rejected(self, rect_sim, grid25):
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve_with_restarts("kmedoids", rect_sim.dataset, grid25,
                                SolverConfig(p=2, min_obs=10))

    @pytest.mark.parametrize("fields, message", [
        ({"p": 0, "min_obs": 3}, "p must be >= 1, got 0"),
        ({"p": 2, "min_obs": 3, "max_iter": 0}, "max_iter must be >= 1"),
        ({"p": 5, "min_obs": 3, "K": 5}, "K must exceed p, got K=5, p=5"),
    ])
    def test_invalid_settings_refused_when_built(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**fields)

    def test_config_validation(self, rect_sim, grid25):
        with pytest.raises(ValueError, match="min_obs"):
            solve_azp(rect_sim.dataset, grid25, SolverConfig(p=5, min_obs=2))
        with pytest.raises(ValueError, match="do not fit"):
            solve_azp(rect_sim.dataset, grid25, SolverConfig(p=5, min_obs=200))


@pytest.mark.slow
class TestNoiseSweep:
    def test_rand_index_never_improves_with_more_noise(self, grid25):
        means = []
        for sigma in (0.1, 0.2, 0.3):
            suite = generate_suite(SimulationSpec(sigma=sigma, seed=101), 10)
            scores = [
                evaluate(
                    truth,
                    solve_kmodels(truth.dataset, grid25,
                                  SolverConfig(p=5, min_obs=10, K=20, seed=7 + i)),
                ).rand_index
                for i, truth in enumerate(suite)
            ]
            means.append(float(np.mean(scores)))
        assert means[0] >= means[1] >= means[2]
        assert means[2] > 0.85


@pytest.mark.slow
class TestMicroClusterCountInsensitivity:
    def test_mean_rand_index_stable_across_k(self, grid25):
        suite = generate_suite(SimulationSpec(seed=55, sigma=0.1), 10)
        means = []
        for k in (10, 15, 20):
            scores = []
            for i, truth in enumerate(suite):
                res = solve_kmodels(
                    truth.dataset, grid25,
                    SolverConfig(p=5, min_obs=10, K=k, seed=900 + i),
                )
                scores.append(evaluate(truth, res).rand_index)
            means.append(float(np.mean(scores)))
        assert max(means) - min(means) < 0.05
