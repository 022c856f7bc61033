import heapq
import math
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
from spregimes.linreg import union_ssr
from spregimes.solvers import (
    SSR_TOLERANCE,
    _abs_residuals,
    _articulation_points,
    _azp_candidates,
    _azp_pass,
    _fit,
    _LocalSearch,
    _partition_sweep,
    _region_counts,
    _RegionPool,
    _rkm_candidates,
    _RkmStep,
)
from spregimes.synthgen import SimulationSpec

from conftest import rank_one_rounding
from test_golden import CAPPED, DEGENERATE, GOLDEN, fingerprint, grid_case

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
        # a constant covariate makes every summed Gram exactly singular,
        # so the size repair scores no union: it fits the one candidate
        # when it is proposed and finds its change nan
        monkeypatch.setattr(
            solvers._RegionPool, "union_fit",
            lambda pool, a, b: solvers._Fit(pool.regions[a].units, None, float("nan")))
        scored = []
        scores = solvers._RegionPool.scores

        def recording(pool, pairs):
            scored.append(scores(pool, pairs))
            return scored[-1]

        monkeypatch.setattr(solvers._RegionPool, "scores", recording)
        for side in (4, 33):
            n = side * side
            g = build_grid_graph(side, side)
            ds = Dataset(X=np.ones((n, 1)), y=rng.random(n))
            labels = np.ones(n, dtype=int)
            labels[5] = 0  # an undersized region of one unit
            scored.clear()
            with pytest.raises(MergeInfeasibleError, match=r"size 1, smallest member 5"):
                kmodels_merge_stage(ds, g, Partition(labels, 2), SolverConfig(p=2, min_obs=2))
            assert scored == [{}]

    @pytest.mark.parametrize("spread", [0.0, 1e-6])
    def test_fusion_without_a_finite_change_raises(self, rng, spread):
        # four 4-unit rows, each already at min_obs, so only fusion merges;
        # with every union fit nan, no pair may be fused. A constant
        # covariate (spread 0) makes every batch hold an exactly singular
        # Gram; a nearly constant one makes every Gram fail the Frobenius
        # screen. Either way no union is scored, so every union is fitted
        # when it is proposed
        graph = build_grid_graph(4, 4)
        dataset = Dataset(X=1.0 + spread * rng.random((16, 1)), y=rng.random(16))
        nan_fit = lambda pool, a, b: solvers._Fit(pool.regions[a].units, None, float("nan"))
        scored = []
        scores = _RegionPool.scores

        def recording(pool, pairs):
            scored.append(scores(pool, pairs))
            return scored[-1]

        with mock.patch.object(_RegionPool, "union_fit", nan_fit), \
                mock.patch.object(_RegionPool, "scores", recording), \
                pytest.raises(MergeInfeasibleError, match="4 regions remain"):
            kmodels_merge_stage(dataset, graph, Partition(np.repeat(np.arange(4), 4), 4),
                                SolverConfig(p=2, min_obs=4))
        assert scored == [{}]

    def test_unscored_unions_are_fitted_once_when_proposed(self, rng):
        # four 4-unit rows, each already at min_obs, and no union scored:
        # each batch's unions are fitted once, right after it is proposed.
        # The three row pairs come first; rows 1 and 2 fuse into region 4
        # and reach p=3, and its pairs with rows 0 and 3 are still fitted
        graph = build_grid_graph(4, 4)
        dataset = Dataset(X=rng.random((16, 1)), y=rng.random(16))
        events = []
        union_fit = _RegionPool.union_fit

        def proposing(pool, pairs):
            events.append(list(pairs))
            return {}

        def recording(pool, a, b):
            events.append((a, b))
            return union_fit(pool, a, b)

        with mock.patch.object(_RegionPool, "union_fit", recording), \
                mock.patch.object(_RegionPool, "scores", proposing):
            part, _ = kmodels_merge_stage(dataset, graph, Partition(np.repeat(np.arange(4), 4), 4),
                                          SolverConfig(p=3, min_obs=4))
        assert part.assignment.tolist() == [0] * 4 + [1] * 8 + [2] * 4
        assert events == [[(0, 1), (1, 2), (2, 3)], (0, 1), (1, 2), (2, 3),
                          [(0, 4), (3, 4)], (0, 4), (3, 4)]

    def test_scored_unions_are_never_fitted(self):
        # m = 2 on a scattered 12x12 partition, so both unions of at most
        # three units and larger ones are candidates
        rng = np.random.default_rng(5)
        graph = build_grid_graph(12, 12)
        labels = grow_initial_partition(graph, 12, 1, rng).assignment
        scattered = rng.random(144) < 0.4
        labels[scattered] = rng.integers(12, size=int(scattered.sum()))
        x = rng.random((144, 2))
        dataset = Dataset(X=x, y=np.where(labels % 2, 1.0, -1.0) * x[:, 0]
                          + 0.1 * rng.normal(size=144))
        batches, fitted, fits, small = [], [], [], set()
        scores, union_fit = _RegionPool.scores, _RegionPool.union_fit

        def scoring(pool, pairs):
            small.update(pair for pair in pairs
                         if len(pool.union_units(*pair)) <= dataset.m + 1)
            batches.append((list(pairs), scores(pool, pairs)))
            return batches[-1][1]

        def fitting(pool, a, b):
            fitted.append((a, b))
            return union_fit(pool, a, b)

        def fit_recording(ds, members):
            fits.append(fit_ols(ds, members))
            return fits[-1]

        cfg = SolverConfig(p=3, min_obs=8)
        with mock.patch.object(_RegionPool, "scores", scoring), \
                mock.patch.object(_RegionPool, "union_fit", fitting), \
                mock.patch.object(solvers, "fit_ols", fit_recording):
            part, models = kmodels_merge_stage(dataset, graph, Partition(labels, 12), cfg)
        scored = {pair for _, found in batches for pair in found}
        unscored = [pair for pairs, found in batches for pair in pairs if pair not in found]
        assert scored and small & set(fitted)
        assert not scored & (set(fitted) | small)
        # every unscored union is fitted once, the last fusion's included
        assert sorted(fitted) == sorted(unscored)
        # the final regions are fitted last, once each, and returned as fitted
        for j, (fit, model) in enumerate(zip(fits[-cfg.p:], models, strict=True)):
            assert fit is model and fit.n_obs == len(part.members(j))

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
            pool.merge(a, b, union.ssr)


    def test_cross_products_follow_merges_and_score_unions_above_m_plus_one(self, rng):
        # m = 2 and single-unit regions: no region has a model, and each
        # union of four or more units is scored from its summed Z'Z
        graph = build_grid_graph(3, 4)
        dataset = Dataset(X=rng.random((12, 2)), y=rng.normal(size=12))
        pool = _RegionPool(dataset, 12)
        for u in range(12):
            pool.add(_fit(dataset, np.array([u])))
        assert pool.scores([(0, 1)]) == {}
        first = pool.merge(0, 1, pool.union_fit(0, 1).ssr)
        second = pool.merge(2, 3, pool.union_fit(2, 3).ssr)
        pairs = [(first, 4), (first, second), (5, 6)]
        scores = pool.scores(pairs)
        assert list(scores) == [(first, second)]
        union = pool.union_fit(first, second)
        assert scores[first, second] == pytest.approx(union.ssr, rel=1e-9, abs=1e-12)
        # a scored union is installed with its score and no model
        third = pool.merge(first, second, scores[first, second])
        assert pool.regions[third].ssr == scores[first, second]
        assert pool.regions[third].model is None
        assert np.array_equal(pool.regions[third].units, union.units)
        rows = np.column_stack((dataset.augmented, dataset.y))
        for rid, f in pool.regions.items():
            z = rows[f.units]
            assert np.allclose(pool.cross[rid], z.T @ z, rtol=1e-14, atol=1e-14)


def fit_every_union(pool, pairs):
    """Each union's SSR change and ``_Fit``, every union fitted."""
    out = {}
    for a, b in pairs:
        fitted = pool.union_fit(a, b)
        out[a, b] = (pool.delta(a, b, fitted.ssr), fitted)
    return out


def score_by_rule(pool, pairs):
    """Each union's SSR change and ``_Fit`` by the merge stage's rule, one union at a time.

    A union of more than m+1 units is scored from its sides' summed
    ``Z'Z`` and taken as its members with that score and no model,
    unless its score is not finite or any union of the batch has an
    exactly singular Gram; every other union is fitted.
    """
    try:
        scores = {(a, b): float(union_ssr((pool.cross[a] + pool.cross[b])[None])[0])
                  for a, b in pairs if len(pool.union_units(a, b)) > pool.dataset.m + 1}
    except np.linalg.LinAlgError:
        scores = {}
    out = {}
    for a, b in pairs:
        score = scores.get((a, b), math.nan)
        if math.isfinite(score):
            fitted = solvers._Fit(pool.union_units(a, b), None, score)
        else:
            fitted = pool.union_fit(a, b)
        out[a, b] = (pool.delta(a, b, fitted.ssr), fitted)
    return out


def reference_merge_stage(dataset, graph, micro_partition, config, changes):
    """Reference merge stage: a plain loop that settles every candidate union up front.

    ``changes(pool, pairs)`` gives each union of a batch its SSR change
    and the ``_Fit`` a merge installs. The batches are the merge stage's:
    the neighbors of each undersized region, then every neighboring pair,
    then the pairs of each fused region. The final regions are fitted.
    """
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
        found = changes(pool, [(rid, nb) for nb in pool.neighbor_regions(graph, rid)])
        live = [(delta, pool.smallest(nb), nb, fitted)
                for (_, nb), (delta, fitted) in found.items() if math.isfinite(delta)]
        if not live:
            raise MergeInfeasibleError("no finite merge")
        _, _, nb, fitted = min(live, key=lambda entry: entry[:2])
        new = pool.merge(rid, nb, fitted.ssr)
        if len(fitted.units) < config.min_obs:
            heapq.heappush(repair, (len(fitted.units), pool.smallest(new), new))
    if len(pool.regions) < config.p:
        raise MergeInfeasibleError("too few regions")
    adjacency = {rid: pool.neighbor_regions(graph, rid) for rid in pool.regions}
    heap = []

    def push(pairs):
        for (a, b), (delta, fitted) in changes(pool, pairs).items():
            if math.isfinite(delta):
                heapq.heappush(heap, (delta, a, b, fitted))

    push([(a, b) for a in sorted(pool.regions) for b in sorted(adjacency[a]) if a < b])
    while len(pool.regions) > config.p:
        if not heap:
            raise MergeInfeasibleError("no finite fusion")
        _, a, b, fitted = heapq.heappop(heap)
        if a not in pool.regions or b not in pool.regions:
            continue
        new = pool.merge(a, b, fitted.ssr)
        adjacency[new] = (adjacency.pop(a) | adjacency.pop(b)) - {a, b}
        for x in sorted(adjacency[new]):
            adjacency[x].discard(a)
            adjacency[x].discard(b)
            adjacency[x].add(new)
        push([(x, new) for x in sorted(adjacency[new])])
    ordered = [_fit(dataset, pool.regions[rid].units)
               for rid in sorted(pool.regions, key=pool.smallest)]
    assignment = np.empty(graph.n, dtype=np.int64)
    for label, f in enumerate(ordered):
        assignment[f.units] = label
    return Partition(assignment, len(ordered)), [f.model for f in ordered]


def assert_same_merge(dataset, graph, micro, cfg, changes, same_fits=True):
    """The merge stage equals the reference with ``changes`` bit for bit.

    The stage must fit no union twice. It must fit the same unions as the
    reference when ``same_fits``, and otherwise no union that the
    reference did not fit (``fit_every_union`` fits scored unions too).
    """
    fits = {"stage": [], "reference": []}
    union_fit = _RegionPool.union_fit

    def counting(key):
        def wrapper(pool, a, b):
            fits[key].append(frozenset((a, b)))
            return union_fit(pool, a, b)
        return wrapper

    with mock.patch.object(_RegionPool, "union_fit", counting("reference")):
        expected, expected_models = reference_merge_stage(dataset, graph, micro, cfg, changes)
    with mock.patch.object(_RegionPool, "union_fit", counting("stage")):
        part, models = kmodels_merge_stage(dataset, graph, micro, cfg)
    assert np.array_equal(part.assignment, expected.assignment)
    for got, want in zip(models, expected_models, strict=True):
        assert got.beta.tobytes() == want.beta.tobytes()
        assert repr(got.ssr) == repr(want.ssr)
    assert len(fits["stage"]) == len(set(fits["stage"]))
    if same_fits:
        assert set(fits["stage"]) == set(fits["reference"])
    else:
        assert set(fits["stage"]) <= set(fits["reference"])


class TestMergeScreen:
    """The merge stage picks every merge as a plain loop over all candidates does."""

    @settings(max_examples=80, deadline=None)
    @given(merge_cases())
    def test_matches_reference_loop_bit_for_bit(self, case):
        assert_same_merge(*case, score_by_rule)

    @settings(max_examples=40, deadline=None)
    @given(merge_cases())
    def test_matches_fit_every_union_oracle_without_scores(self, case):
        # with no union scored, every union is fitted when it is proposed,
        # and the stage is the one of fitting every union
        with mock.patch.object(_RegionPool, "scores", lambda pool, pairs: {}):
            assert_same_merge(*case, fit_every_union)

    @pytest.mark.parametrize("m, min_obs", [(2, 3), (1, 5)])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_zero_response_ties_every_merge(self, p, m, min_obs):
        # every SSR, score and change is exactly 0.0, so each size-repair
        # choice is a tie broken by smallest member and fusion pops pairs
        # by id, as when every union is fitted; with min_obs above m+1
        # fitted undersized regions are repaired too
        rng = np.random.default_rng(3)
        graph = build_grid_graph(6, 6)
        labels = rng.integers(6, size=36)
        labels[:6] = np.arange(6)
        dataset = Dataset(X=rng.random((36, m)), y=np.zeros(36))
        assert_same_merge(dataset, graph, Partition(labels, 6),
                          SolverConfig(p=p, min_obs=min_obs), fit_every_union, same_fits=False)

    def test_fusion_tie_goes_to_the_smaller_ids(self):
        # four 5-unit blocks along a path; blocks 0 and 2 hold the same
        # rows, as do blocks 1 and 3, so every merge unites the same rows.
        # Fitted, merging 0 with 1 and 2 with 3 gathers them in the same
        # order and ties bit for bit, below the 1-2 merge; scored, all
        # three sum the same cross-products and tie
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
        fitted, scored = ([changes(pool, [pair])[pair][0] for pair in [(0, 1), (2, 3), (1, 2)]]
                          for changes in (fit_every_union, score_by_rule))
        assert fitted[0] == fitted[1] < fitted[2]
        assert scored[0] == scored[1] == scored[2]
        assert_same_merge(dataset, graph, Partition(labels, 4), SolverConfig(p=3, min_obs=5),
                          fit_every_union, same_fits=False)
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


def graph_of(graph, members):
    """The networkx subgraph induced by ``members``."""
    inside = set(members)
    sub = nx.Graph()
    sub.add_nodes_from(inside)
    sub.add_edges_from((u, w) for u in inside for w in graph.neighbors[u] if w in inside)
    return sub


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
        assert (_articulation_points(graph, labels, root)
                == set(nx.articulation_points(graph_of(graph, members))))

    def test_60x60_regions_need_no_recursion(self):
        grid = build_grid_graph(60, 60)
        assert _articulation_points(grid, [0] * 3600, 0) == set()
        # a serpentine path over every other row, far deeper than the
        # recursion limit: every unit but its two ends is a cut vertex
        snake = {r * 60 + c for r in range(0, 60, 2) for c in range(60)}
        snake |= {r * 60 + (59 if r % 4 == 1 else 0) for r in range(1, 59, 2)}
        assert _articulation_points(grid, region_labels(3600, snake), 0) == snake - {0, 58 * 60}


@st.composite
def move_cases(draw):
    """A grown search on a drawn graph and a seed for a sequence of moves."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = draw_graph(draw, rng, (3, 8), (10, 60), 4)
    p = draw(st.integers(1, 4))
    assume(graph.n >= 2 * p)
    dataset = Dataset(X=rng.random((graph.n, 1)), y=rng.normal(size=graph.n))
    config = SolverConfig(p=p, min_obs=2, seed=draw(st.integers(0, 999)))
    try:
        search = _LocalSearch(dataset, graph, config, check_invariants=True)
    except InitializationFailedError:
        assume(False)
    return search, rng, draw(st.integers(1, 12))


def random_move(search, rng):
    """Move a random unit into an adjacent region, keeping every region feasible.

    Feasibility is decided by brute force, not by ``is_cut``. Returns
    False when no unit can move.
    """
    graph, labels = search.graph, search.labels
    for v in rng.permutation(graph.n).tolist():
        src = labels[v]
        members = set(search.regions[src].units.tolist())
        if len(members) <= search.config.min_obs:
            continue
        if not is_connected_subset(graph, members - {v}):
            continue
        targets = sorted({labels[w] for w in graph.neighbors[v]} - {src})
        if targets:
            search.move(v, src, targets[rng.integers(len(targets))])
            return True
    return False


class TestCutQueries:
    """``is_cut`` against ``_articulation_points`` and networkx as regions change.

    Every unit is asked about, in random order, after every move, so the
    answers come from the cache, from the single-neighbor rule and from
    local searches in turn. A share of 0 walks every region on its first
    search; an unbounded share never walks.
    """

    @pytest.mark.parametrize("share", [0.0, solvers.CUT_SEARCH_SHARE, math.inf])
    @settings(max_examples=60, deadline=None)
    @given(case=move_cases())
    def test_matches_walk_and_networkx_after_every_move(self, share, case):
        search, rng, moves = case
        graph, p = search.graph, search.config.p
        searched = []
        real = solvers._separates

        def counting(*args):
            searched.append(args[2])
            return real(*args)

        with mock.patch.object(solvers, "CUT_SEARCH_SHARE", share), \
                mock.patch.object(solvers, "_separates", counting):
            for _ in range(moves):
                for v in rng.permutation(graph.n).tolist():
                    d = search.labels[v]
                    members = search.regions[d].units.tolist()
                    walked = _articulation_points(graph, search.labels, members[0])
                    if nx is not None:
                        assert walked == set(nx.articulation_points(graph_of(graph, members)))
                    assert search.is_cut(v, d) == (v in walked)
                if not random_move(search, rng):
                    break
        if share == 0.0:
            assert searched == []
        if share == math.inf:
            assert search.cuts == [None] * p


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


def azp_candidates_loop(graph, assign, j):
    """Reference AZP candidate set: the comprehension ``_azp_candidates`` replaced."""
    members = np.flatnonzero(assign == j).tolist()
    return sorted({v for u in members for v in graph.neighbors[u] if assign[v] != j})


def move_delta_oracle(search, v, d, j, offered):
    """The scalar rank-one tests, with the refit rule of ``_LocalSearch.screen``.

    Returns the SSR increase of region ``j`` and decrease of region ``d``
    from moving unit ``v``, or None where the full refit decides: when
    either model is degenerate, or when the scalar removal test of any
    unit in ``offered``, every candidate unit of region ``j``, from its
    own donor breaks down, unless that donor is degenerate.
    """
    dataset, fj, fd = search.dataset, search.regions[j], search.regions[d]
    x, yv = dataset.X[v], float(dataset.y[v])
    if fj.model.degenerate or fd.model.degenerate:
        return None
    for u in offered.tolist():
        donor = search.regions[search.assign[u]].model
        if donor.degenerate:
            continue
        try:
            ssr_decrease_if_removed(donor, dataset.X[u], float(dataset.y[u]))
        except NumericalBreakdownError:
            return None
    return ssr_increase_if_added(fj.model, x, yv), ssr_decrease_if_removed(fd.model, x, yv)


def search_state(dataset, graph, labels, p):
    """A ``_LocalSearch`` holding the given labels and their fits, grown by no one."""
    search = object.__new__(_LocalSearch)
    search.dataset, search.graph, search.assign = dataset, graph, labels
    search.regions = solvers._fit_labels(dataset, labels, p)
    search.index_regions()
    search.touch = _region_counts(graph, labels, p)
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
            candidates = _azp_candidates(search.touch, labels, j)
            donors = labels[candidates]
            delta, refit = search.screen(candidates, donors, j)
            for pos, v in enumerate(candidates.tolist()):
                d = int(donors[pos])
                expected = move_delta_oracle(search, v, d, j, candidates)
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
        candidates = _azp_candidates(search.touch, labels, 0)
        assert candidates.tolist() == [2, 6]
        with pytest.raises(NumericalBreakdownError):
            ssr_decrease_if_removed(search.regions[1].model, x[[2, 6]], dataset.y[[2, 6]])
        ssr_decrease_if_removed(search.regions[1].model, x[6], float(dataset.y[6]))
        delta, refit = search.screen(candidates, labels[candidates], 0)
        assert refit.tolist() == [True, True]
        assert np.isnan(delta).all()

    @settings(max_examples=150, deadline=None)
    @given(screen_cases(), st.integers(0, 2**32 - 1))
    def test_a_candidates_change_does_not_depend_on_its_stack(self, case, seed):
        dataset, graph, labels, p = case
        search = search_state(dataset, graph, labels, p)
        rng = np.random.default_rng(seed)
        for j in range(p):
            candidates = _azp_candidates(search.touch, labels, j)
            donors = labels[candidates]
            delta, refit = search.screen(candidates, donors, j)
            # a shuffled stack holds the same rows, so the refit rule decides alike
            order = rng.permutation(len(candidates))
            shuffled_delta, shuffled_refit = search.screen(candidates[order], donors[order], j)
            assert np.array_equal(shuffled_refit, refit[order])
            assert np.array_equal(shuffled_delta, delta[order], equal_nan=True)
            # alone, a row is not sent to refits by another row's breakdown
            for pos in np.flatnonzero(~refit).tolist():
                alone_delta, alone_refit = search.screen(candidates[[pos]], donors[[pos]], j)
                assert alone_refit.tolist() == [False]
                assert alone_delta[0] == delta[pos]

    def test_degenerate_and_breakdown_donors_send_every_candidate_to_refits(self, rng):
        # region 0 is columns 0-1 of a 6x6 grid; rows 0 and 3 of columns
        # 2-5 are donor 1, rows 1 and 4 donor 2, rows 2 and 5 donor 3, so
        # the candidates in column 2 alternate between the donors. Donor 2
        # has one x value, so its fit is degenerate; in donor 3 only
        # candidate 14 has x = 1, so its leverage is 1 and the stacked
        # removal breaks down
        graph = build_grid_graph(6, 6)
        labels = np.array([0 if c < 2 else 1 + r % 3 for r in range(6) for c in range(6)])
        x = rng.random((36, 1))
        x[labels == 2] = 0.5
        x[labels == 3] = 0.0
        x[14] = 1.0
        dataset = Dataset(X=x, y=rng.normal(size=36))
        search = search_state(dataset, graph, labels, 4)
        candidates = _azp_candidates(search.touch, labels, 0)
        donors = labels[candidates]
        assert candidates.tolist() == [2, 8, 14, 20, 26, 32]
        assert donors.tolist() == [1, 2, 3, 1, 2, 3]
        assert search.regions[2].model.degenerate
        assert search.usable.tolist() == [True, True, False, True]
        with pytest.raises(NumericalBreakdownError):
            ssr_decrease_if_removed(search.regions[3].model, x[[14, 32]], dataset.y[[14, 32]])
        delta, refit = search.screen(candidates, donors, 0)
        assert refit.all() and np.isnan(delta).all()
        # without donor 3's candidates, only the degenerate donor's go to refits
        kept = donors != 3
        delta, refit = search.screen(candidates[kept], donors[kept], 0)
        assert refit.tolist() == [False, True, False, True]
        assert np.isfinite(delta[~refit]).all() and np.isnan(delta[refit]).all()

    def test_move_checks_the_region_arrays(self, rect_sim, grid25):
        search = _LocalSearch(rect_sim.dataset, grid25, SolverConfig(p=5, min_obs=10, seed=7),
                              check_invariants=True)
        assert search.sizes.tolist() == [len(f.units) for f in search.regions]
        assert np.array_equal(search.beta, [f.model.beta for f in search.regions])
        assert np.array_equal(search.gram_inv, [f.model.gram_inv for f in search.regions])
        assert search.usable.all()
        # a move rewrites its two regions, so the other three stay stale
        search.beta += 1.0
        with pytest.raises(AssertionError, match="beta array"):
            random_move(search, np.random.default_rng(0))

    def test_move_checks_the_region_counts(self, rect_sim, grid25):
        search = _LocalSearch(rect_sim.dataset, grid25, SolverConfig(p=5, min_obs=10, seed=7),
                              check_invariants=True)
        assert np.array_equal(search.touch, _region_counts(grid25, search.assign, 5))
        # a move shifts counts by one, so a stale entry stays stale
        far = grid25.n - 1
        search.touch[far, search.assign[far]] += 1
        with pytest.raises(AssertionError, match="region-count table"):
            random_move(search, np.random.default_rng(0))

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
            candidates = _azp_candidates(search.touch, search.assign, j)
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
        touch = _region_counts(graph, assign, resid.shape[1])
        candidates, targets = _rkm_candidates(touch, assign, resid, sizes, min_obs)
        assert (candidates.tolist(), targets.tolist()) == rkm_candidates_loop(
            graph, assign, resid, sizes, min_obs)

    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    def test_azp_scan_matches_loop(self, case):
        graph, assign, resid = case[:3]
        touch = _region_counts(graph, assign, resid.shape[1])
        for j in range(resid.shape[1]):
            assert (_azp_candidates(touch, assign, j).tolist()
                    == azp_candidates_loop(graph, assign, j))

    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    def test_region_counts_match_loop(self, case):
        graph, assign, resid = case[:3]
        expected = np.zeros(resid.shape, dtype=np.int64)
        for u in range(graph.n):
            for w in (*graph.neighbors[u], u):
                expected[u, assign[w]] += 1
        assert np.array_equal(_region_counts(graph, assign, resid.shape[1]), expected)

    @settings(max_examples=60, deadline=None)
    @given(case=move_cases())
    def test_moves_keep_region_counts(self, case):
        search, rng, moves = case
        # the table is checked here, not by the assert inside ``move``
        search.check_invariants = False
        for _ in range(moves):
            if not random_move(search, rng):
                break
        rebuilt = _region_counts(search.graph, search.assign, search.config.p)
        assert np.array_equal(search.touch, rebuilt)


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


def rkm_golden_case(name):
    """Data, graph, config and fingerprint of a golden RKM case."""
    if name in DEGENERATE:
        _, config, *pins = DEGENERATE[name]
        dataset, graph = grid_case(15, 15, "rectangular", 101)
        x1 = dataset.X[:, 0]
        return Dataset(X=np.column_stack((x1, x1)), y=dataset.y), graph, config, tuple(pins)
    _, build, config, *pins = {**GOLDEN, **CAPPED}[name]
    return *build(), config, tuple(pins)


class TestRkmResiduals:
    @pytest.mark.parametrize("name", ["rkm-rect15", "rkm-voronoi12", "rkm-rect25-cap3",
                                      "rkm-rect15-dup"])
    def test_kept_matrix_equals_a_full_rebuild_after_every_step(self, name):
        dataset, graph, config, pins = rkm_golden_case(name)
        search = _LocalSearch(dataset, graph, config, check_invariants=False)
        step = _RkmStep(search)

        def checked(state):
            moved = step(state)
            betas = np.array([f.model.beta for f in state.regions])
            assert np.array_equal(step.resid, _abs_residuals(dataset, betas))
            return moved

        assert fingerprint(search.run(checked)) == pins


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
