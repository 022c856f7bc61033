import json
from dataclasses import replace

import numpy as np
import pytest

from spregimes import Dataset, Partition, build_grid_graph, evaluate, generate_suite, solve_kmodels
from spregimes import benchmark
from spregimes.io import (
    list_simulations,
    load_dataset_csv,
    load_simulation,
    load_solve_result,
    read_csv,
    write_assignments_csv,
    write_dataset_csv,
    write_solve_result,
    write_suite,
)
from spregimes.solvers import SolverConfig
from spregimes.synthgen import SimulationSpec


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    spec = SimulationSpec(rows=10, cols=10, region_count=2, min_region_units=10,
                          sigma=0.05, seed=21)
    truths = generate_suite(spec, 2)
    suite_dir = tmp_path_factory.mktemp("suite")
    write_suite(suite_dir, spec, truths)
    return spec, truths, suite_dir


@pytest.fixture(scope="module")
def suite_m3(small_suite, tmp_path_factory):
    """The small suite with a third covariate and a third slope per region."""
    spec, truths, _ = small_suite
    rng = np.random.default_rng(5)
    wider = []
    for truth in truths:
        x3 = rng.random(truth.dataset.n)
        b3 = rng.random(len(truth.true_coefficients))
        wider.append(replace(
            truth,
            true_coefficients=np.column_stack((truth.true_coefficients, b3)),
            dataset=replace(truth.dataset, X=np.column_stack((truth.dataset.X, x3))),
        ))
    suite_dir = tmp_path_factory.mktemp("suite_m3")
    write_suite(suite_dir, spec, wider)
    return spec, wider, suite_dir


class TestDatasetCsv:
    def test_round_trip_with_ids_and_coords(self, tmp_path, rng):
        ds = Dataset(
            X=rng.random((6, 2)),
            y=rng.random(6),
            ids=[f"unit-{i}" for i in range(4)] + ["tract 3, county A", 'the "old" mill'],
            coords=rng.random((6, 2)),
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(path, ds)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.y, ds.y)
        assert np.array_equal(loaded.coords, ds.coords)
        assert loaded.ids == ds.ids

    def test_missing_response_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n1.0,2.0\n")
        with pytest.raises(ValueError, match="'y' column"):
            load_dataset_csv(path)

    def test_malformed_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        for content, message in (("x1,y\n1.0,2.0\noops,3.0\n", "malformed"),
                                 ("x1,y\n1.0,2.0,99\n", "line 2 has 3 fields"),
                                 ("x1,y\n\n1.0,2.0\n3.0\n", "line 4 has 1 fields")):
            path.write_text(content)
            with pytest.raises(ValueError, match=message):
                load_dataset_csv(path)

    @pytest.mark.parametrize("header, message", [
        ("id,x1,x1,y", r"repeated column names \['x1'\]"),
        ("id,x_coord,x1,y", "'x_coord' and 'y_coord' must appear together"),
        ("id,y_coord,x1,y", "'x_coord' and 'y_coord' must appear together"),
    ])
    def test_ambiguous_header_rejected(self, tmp_path, header, message):
        # a repeated covariate would be read twice from its first column,
        # and a lone coordinate would be neither a covariate nor a coordinate
        path = tmp_path / "data.csv"
        path.write_text(header + "\nu0,1.0,2.0,3.0\nu1,4.0,5.0,6.0\n")
        with pytest.raises(ValueError, match=message) as info:
            load_dataset_csv(path)
        assert str(path) in str(info.value)

    def test_covariate_order_follows_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,b,y,a\nu0,1.0,9.0,2.0\nu1,3.0,8.0,4.0\n")
        ds = load_dataset_csv(path)
        assert np.array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ds.y, [9.0, 8.0])


class TestCsvQuoting:
    def test_carriage_return_in_unit_id_round_trips(self, tmp_path):
        path = tmp_path / "assignments.csv"
        write_assignments_csv(path, Partition(np.array([0, 1]), 2), ["a\rb", "c"])
        assert path.read_bytes() == b'unit,region\n"a\rb",0\nc,1\n'
        assert read_csv(path) == (["unit", "region"], [["a\rb", "0"], ["c", "1"]])


class TestSuiteLayout:
    def test_benchmark_loads_each_simulation_once(self, small_suite, monkeypatch):
        _, _, suite_dir = small_suite
        loaded = []

        def counting(sim_dir):
            loaded.append(sim_dir)
            return load_simulation(sim_dir)

        monkeypatch.setattr(benchmark, "load_simulation", counting)
        report = benchmark.run_benchmark(suite_dir, ["kmodels", "azp", "rkm"],
                                         SolverConfig(p=2, min_obs=10, K=4))
        assert loaded == list_simulations(suite_dir)
        assert [(c.algorithm, c.simulation) for c in report.cells] == [
            (a, i) for a in ("kmodels", "azp", "rkm") for i in range(2)]
        assert not report.failures()

    def test_benchmark_refuses_more_than_one_job_before_loading(self, small_suite, monkeypatch):
        _, _, suite_dir = small_suite
        loaded = []
        monkeypatch.setattr(benchmark, "load_simulation", loaded.append)
        with pytest.raises(ValueError, match="jobs must be 1"):
            benchmark.run_benchmark(suite_dir, ["kmodels"], SolverConfig(p=2, min_obs=10, K=4),
                                    jobs=2)
        assert loaded == []

    def test_simulations_list_in_numeric_order(self, tmp_path):
        names = [f"sim_{i:03d}" for i in range(1001)]
        for name in names:
            (tmp_path / name).mkdir()
        assert [path.name for path in list_simulations(tmp_path)] == names

    def test_entry_not_named_by_a_number_rejected(self, tmp_path):
        for name in ("sim_000", "sim_notes"):
            (tmp_path / name).mkdir()
        with pytest.raises(ValueError, match="sim_notes"):
            list_simulations(tmp_path)

    def test_directory_contents(self, small_suite):
        _, _, suite_dir = small_suite
        sims = list_simulations(suite_dir)
        assert len(sims) == 2
        for sim in sims:
            for name in ("data.csv", "true_partition.csv", "true_coefficients.csv",
                         "manifest.json"):
                assert (sim / name).exists()
        manifest = json.loads((suite_dir / "manifest.json").read_text())
        assert manifest["count"] == 2
        assert manifest["spec"]["scheme"] == "rectangular"

    def test_round_trip_preserves_truth(self, small_suite, suite_m3):
        for spec, truths, suite_dir in (small_suite, suite_m3):
            for i, sim_dir in enumerate(list_simulations(suite_dir)):
                loaded, info = load_simulation(sim_dir)
                assert np.array_equal(
                    loaded.true_partition.assignment, truths[i].true_partition.assignment
                )
                assert np.array_equal(loaded.true_coefficients, truths[i].true_coefficients)
                assert np.array_equal(loaded.dataset.X, truths[i].dataset.X)
                assert np.array_equal(loaded.dataset.y, truths[i].dataset.y)
                assert info["spec"] == spec
                assert info["manifest"]["adjacency"] == {"type": "grid", "rows": 10, "cols": 10}


class TestResultRoundTrip:
    def test_reloaded_result_evaluates_identically(self, small_suite, tmp_path):
        spec, truths, suite_dir = small_suite
        graph = build_grid_graph(spec.rows, spec.cols)
        truth = truths[0]
        result = solve_kmodels(truth.dataset, graph,
                               SolverConfig(p=2, min_obs=10, K=6, seed=2))
        path = tmp_path / "result.json"
        write_solve_result(path, result, truth.dataset.unit_ids(), standardized=False)
        reloaded, standardized = load_solve_result(path, truth.dataset.unit_ids())
        assert not standardized
        assert all(model.ssr is None for model in reloaded.models)
        direct = evaluate(truth, result)
        via_file = evaluate(truth, reloaded)
        assert via_file.total_ssr == pytest.approx(direct.total_ssr, rel=1e-12)
        assert via_file.rand_index == direct.rand_index
        assert via_file.nmi == pytest.approx(direct.nmi)
        assert np.allclose(via_file.mae_per_coefficient, direct.mae_per_coefficient)

    def test_unit_id_mismatch_rejected(self, small_suite, tmp_path):
        spec, truths, _ = small_suite
        graph = build_grid_graph(spec.rows, spec.cols)
        truth = truths[0]
        result = solve_kmodels(truth.dataset, graph,
                               SolverConfig(p=2, min_obs=10, K=6, seed=2))
        path = tmp_path / "result.json"
        write_solve_result(path, result, truth.dataset.unit_ids(), standardized=False)
        with pytest.raises(ValueError, match="unit ids"):
            load_solve_result(path, [f"other-{i}" for i in range(truth.dataset.n)])
