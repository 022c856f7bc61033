import ast
from pathlib import Path

import numpy as np
import pytest

from spregimes import (
    SchemeInfeasibleError,
    build_edge_list_graph,
    build_grid_graph,
    fit_ols,
    generate_suite,
    io,
    is_connected_subset,
    metrics,
    result,
    solvers,
    synthgen,
)
from spregimes.synthgen import (
    SimulationSpec,
    assign_coefficients,
    generate_ground_truth,
    generate_scheme,
)


class FixedSeedRng:
    """Generator stand-in that pins the seed cells of a random scheme."""

    def __init__(self, seeds):
        self.seeds = np.asarray(seeds)

    def choice(self, n, size, replace):
        return self.seeds


class TestSpecValidation:
    def test_pool_must_match_region_count(self):
        with pytest.raises(ValueError, match="pool"):
            SimulationSpec(region_count=4, coefficient_pool=(-1.0, 0.0, 1.0))

    def test_default_pool_derived_from_region_count(self):
        assert SimulationSpec(seed=0).coefficient_pool == (-2.0, -1.0, 0.0, 1.0, 2.0)
        assert SimulationSpec(region_count=3, min_region_units=10,
                              seed=0).coefficient_pool == (-2.0, 0.0, 2.0)

    def test_min_units_cannot_exceed_grid(self):
        with pytest.raises(ValueError, match="exceeds"):
            SimulationSpec(rows=5, cols=5, min_region_units=10)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            SimulationSpec(scheme="hexagons")

    def test_min_units_must_be_positive(self):
        with pytest.raises(ValueError, match="min_region_units"):
            SimulationSpec(rows=2, cols=2, region_count=5, min_region_units=0)


class TestSchemes:
    def test_rectangular_is_five_equal_stripes(self, rng):
        spec = SimulationSpec(seed=0)
        part = generate_scheme(spec, rng)
        assert list(part.sizes()) == [125] * 5
        # region label increases with the row band
        assert int(part.assignment[0]) == 0
        assert int(part.assignment[5 * 25]) == 1
        assert int(part.assignment[624]) == 4

    def test_voronoi_with_opposite_corner_seeds_splits_on_bisector(self):
        spec = SimulationSpec(rows=6, cols=6, scheme="voronoi", region_count=2,
                              min_region_units=4, coefficient_pool=(-1.0, 1.0))
        part = generate_scheme(spec, FixedSeedRng([0, 35]))
        centers = spec.cell_centers()
        d_first = ((centers - centers[0]) ** 2).sum(axis=1)
        d_last = ((centers - centers[35]) ** 2).sum(axis=1)
        expected = np.where(d_first <= d_last, 0, 1)  # ties to the lower seed
        assert np.array_equal(part.assignment, expected)

    def test_arbitrary_growth_failure_is_scheme_infeasible(self, rng):
        star = build_edge_list_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        spec = SimulationSpec(rows=1, cols=5, scheme="arbitrary", region_count=2,
                              min_region_units=2, coefficient_pool=(-1.0, 1.0))
        with pytest.raises(SchemeInfeasibleError, match="attempts"):
            generate_scheme(spec, rng, star)

    @pytest.mark.parametrize("kind", ["rectangular", "voronoi", "arbitrary"])
    def test_every_region_connected_and_large_enough(self, kind):
        spec = SimulationSpec(scheme=kind, seed=8)
        graph = build_grid_graph(25, 25)
        part = generate_scheme(spec, np.random.default_rng(8), graph)
        assert part.sizes().min() >= 10
        for j in range(part.p):
            assert is_connected_subset(graph, part.members(j))


class TestCoefficients:
    def test_each_pool_value_used_once_per_coefficient(self, rng):
        spec = SimulationSpec(seed=0)
        rows = assign_coefficients(spec, rng)
        assert sorted(rows[:, 1]) == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert sorted(rows[:, 2]) == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_intercepts_all_zero(self, rng):
        rows = assign_coefficients(SimulationSpec(seed=0), rng)
        assert np.array_equal(rows[:, 0], np.zeros(5))

    def test_reproducible_for_fixed_seed(self):
        spec = SimulationSpec(seed=0)
        a = assign_coefficients(spec, np.random.default_rng(7))
        b = assign_coefficients(spec, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestDataGeneration:
    def test_noiseless_data_identifies_true_coefficients(self):
        spec = SimulationSpec(sigma=0.0, seed=5)
        truth = generate_ground_truth(spec)
        for j in range(truth.true_partition.p):
            members = truth.true_partition.members(j)
            model = fit_ols(truth.dataset, members)
            assert np.allclose(model.beta, truth.true_coefficients[j], atol=1e-8)

    def test_covariate_sample_mean_concentrates(self):
        for seed in range(20):
            truth = generate_ground_truth(SimulationSpec(seed=seed))
            assert 0.45 <= truth.dataset.X[:, 0].mean() <= 0.55

    def test_low_noise_regional_fits_track_truth(self):
        hits = total = 0
        for seed in range(50):
            truth = generate_ground_truth(SimulationSpec(sigma=0.1, seed=seed))
            for j in range(truth.true_partition.p):
                model = fit_ols(truth.dataset, truth.true_partition.members(j))
                total += 1
                if np.abs(model.beta - truth.true_coefficients[j]).max() < 0.1:
                    hits += 1
        assert hits / total >= 0.95

    def test_true_model_ssr_matches_noise_energy(self):
        suite = generate_suite(SimulationSpec(sigma=0.2, seed=31), 50)
        ssrs = []
        for truth in suite:
            rows = truth.true_coefficients[truth.true_partition.assignment]
            signal = (
                rows[:, 0]
                + rows[:, 1] * truth.dataset.X[:, 0]
                + rows[:, 2] * truth.dataset.X[:, 1]
            )
            ssrs.append(float(((truth.dataset.y - signal) ** 2).sum()))
        expected = 625 * 0.2 ** 2
        assert abs(np.mean(ssrs) - expected) / expected < 0.2


class TestSuites:
    def test_rectangular_suite_shares_one_scheme(self):
        suite = generate_suite(SimulationSpec(seed=1), 10)
        first = suite[0].true_partition.assignment
        assert all(
            np.array_equal(truth.true_partition.assignment, first) for truth in suite
        )

    def test_voronoi_suite_varies_schemes(self):
        spec = SimulationSpec(scheme="voronoi", seed=1)
        suite = generate_suite(spec, 10)
        signatures = {tuple(truth.true_partition.assignment) for truth in suite}
        assert len(signatures) >= 2

    def test_adjacent_seeds_give_different_coefficients(self):
        a = generate_suite(SimulationSpec(seed=6), 3)
        b = generate_suite(SimulationSpec(seed=7), 3)
        assert any(
            not np.array_equal(x.true_coefficients, y.true_coefficients)
            for x, y in zip(a, b)
        )

    def test_suite_fully_reproducible(self):
        spec = SimulationSpec(scheme="arbitrary", seed=13)
        a = generate_suite(spec, 4)
        b = generate_suite(spec, 4)
        for x, y in zip(a, b):
            assert np.array_equal(x.true_partition.assignment, y.true_partition.assignment)
            assert np.array_equal(x.true_coefficients, y.true_coefficients)
            assert np.array_equal(x.dataset.X, y.dataset.X)
            assert np.array_equal(x.dataset.y, y.dataset.y)

    def test_simulation_count_validated(self):
        with pytest.raises(ValueError):
            generate_suite(SimulationSpec(seed=0), 0)


def imported_name_parts(module):
    """Every dotted part of every name that ``module`` imports."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {part for name in names for part in name.split(".")}


def test_synthgen_imports_neither_solvers_nor_metrics():
    # the generator sits below the solvers and metrics in the layering
    assert not imported_name_parts(synthgen) & {"solvers", "metrics"}


@pytest.mark.parametrize("module", [metrics, io], ids=["metrics", "io"])
def test_metrics_and_io_do_not_import_solvers(module):
    # they read SolveResult from the leaf module that solvers re-export it from
    assert "solvers" not in imported_name_parts(module)
    assert solvers.SolveResult is result.SolveResult
