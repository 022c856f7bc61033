import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spregimes import (
    Dataset,
    DisconnectedGraphError,
    InitializationFailedError,
    MergeInfeasibleError,
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
)
from spregimes.synthgen import SimulationSpec


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
        _, _, trace = kmodels_partition_stage(ds, g, cfg, np.random.default_rng(0))
        assert trace[-1] == pytest.approx(0.0, abs=1e-16)
        assert_monotone(trace)

    def test_homogeneous_process_gives_two_near_global_models(self, rng):
        g = build_grid_graph(10, 10)
        x = rng.random((100, 2))
        y = 1.0 + 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.1 * rng.normal(size=100)
        ds = Dataset(X=x, y=y)
        cfg = SolverConfig(p=1, min_obs=3, K=2, seed=4)
        _, models, _ = kmodels_partition_stage(ds, g, cfg, np.random.default_rng(4))
        global_beta = fit_ols(ds, range(100)).beta
        for model in models:
            assert np.allclose(model.beta, global_beta, atol=0.35)

    def test_trace_non_increasing_on_simulation(self, rect_sim, grid25):
        cfg = SolverConfig(p=5, min_obs=10, K=20, seed=9)
        _, _, trace = kmodels_partition_stage(
            rect_sim.dataset, grid25, cfg, np.random.default_rng(9)
        )
        assert_monotone(trace)


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
        micro, _, _ = kmodels_partition_stage(
            rect_sim.dataset, grid25, cfg, np.random.default_rng(2)
        )
        part, models = kmodels_merge_stage(rect_sim.dataset, grid25, micro, cfg)
        assert part.p == 5
        assert part.sizes().min() >= 10
        for j in range(5):
            assert is_connected_subset(grid25, part.members(j))

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


@st.composite
def merge_cases(draw):
    """Graph, data and a scattered micro partition with many tiny components.

    The micro partition grows K connected clusters and then relabels a
    random share of units at random, which splits most clusters into
    undersized pieces. ``min_obs`` is drawn up to n / 2p, and the case is
    kept only when at least p split components already reach it, since
    the size repair never merges two such components and so cannot leave
    fewer than p regions.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows, cols = draw(st.integers(5, 10)), draw(st.integers(5, 10))
        holes = rng.choice(rows * cols, size=draw(st.integers(0, rows * cols // 5)),
                           replace=False)
        graph = holey_grid(rows, cols, holes.tolist())
    else:
        try:
            graph = build_knn_graph(rng.random((draw(st.integers(30, 120)), 2)), 5)
        except DisconnectedGraphError:
            assume(False)
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
    dataset = Dataset(X=rng.random((n, m)), y=rng.normal(size=n))
    return dataset, graph, micro, SolverConfig(p=p, min_obs=min_obs)


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
