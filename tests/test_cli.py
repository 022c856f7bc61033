import csv
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from spregimes import SolverConfig, build_grid_graph, fit_ols, region_ssr
from spregimes.cli import main
from spregimes.io import load_dataset_csv, load_simulation, load_solve_result
from spregimes.metrics import evaluate
from spregimes.linreg import Scaler
from spregimes.solvers import SOLVERS


SYNTH_ARGS = ["synth", "--scheme", "rectangular", "--count", "2", "--sigma", "0.05",
              "--seed", "21", "--rows", "10", "--cols", "10", "--regions", "2",
              "--min-region-units", "10"]


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_suite")
    assert main(SYNTH_ARGS + ["--output", str(out)]) == 0
    return out


def read_bytes_map(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


class TestSynthCommand:
    def test_creates_simulation_dirs(self, suite_dir):
        assert (suite_dir / "sim_000" / "data.csv").exists()
        assert (suite_dir / "sim_001" / "manifest.json").exists()

    def test_rerun_is_byte_identical(self, suite_dir, tmp_path):
        again = tmp_path / "again"
        assert main(SYNTH_ARGS + ["--output", str(again)]) == 0
        for sim in ("sim_000", "sim_001"):
            for name in ("data.csv", "true_partition.csv", "true_coefficients.csv"):
                assert (again / sim / name).read_bytes() == (
                    suite_dir / sim / name
                ).read_bytes()

    def test_smaller_suite_over_a_larger_one_exits_two(self, tmp_path):
        # a 1-simulation suite over a 3-simulation one would leave sim_001
        # and sim_002 behind for the benchmark to read as part of it
        out = tmp_path / "suite"
        three = SYNTH_ARGS[:4] + ["3"] + SYNTH_ARGS[5:] + ["--output", str(out)]
        assert main(three) == 0
        assert main(three) == 0
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        one = ["synth", "--scheme", "voronoi", "--count", "1", "--rows", "10", "--cols", "10",
               "--regions", "2", "--min-region-units", "10", "--output", str(out)]
        assert main(one) == 2
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    def test_stale_directory_refused_before_generating(self, tmp_path, monkeypatch):
        out = tmp_path / "suite"
        three = SYNTH_ARGS[:4] + ["3"] + SYNTH_ARGS[5:] + ["--output", str(out)]
        assert main(three) == 0

        def generate_suite(*args, **kwargs):
            raise AssertionError("suite generated before the output directory was checked")

        monkeypatch.setattr("spregimes.cli.generate_suite", generate_suite)
        one = SYNTH_ARGS[:4] + ["1"] + SYNTH_ARGS[5:] + ["--output", str(out)]
        assert main(one) == 2

    def test_invalid_spec_exits_two(self, tmp_path):
        code = main(["synth", "--scheme", "rectangular", "--count", "1",
                     "--rows", "3", "--cols", "3", "--regions", "5",
                     "--output", str(tmp_path / "x")])
        assert code == 2


class TestSolveCommand:
    def test_solve_writes_result_and_assignments(self, suite_dir, tmp_path):
        out = tmp_path / "run"
        code = main([
            "solve", "--data", str(suite_dir / "sim_000" / "data.csv"),
            "--adjacency", "grid", "10x10", "--algorithm", "kmodels",
            "--p", "2", "--min-obs", "10", "--K", "6", "--seed", "4",
            "--output", str(out), "--assignments-csv",
        ])
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["regions"]) == 2
        assert len(payload["assignments"]) == 100
        assert payload["manifest"]["dataset"]["adjacency"] == "grid:10x10"
        lines = (out / "assignments.csv").read_text().strip().splitlines()
        assert lines[0] == "unit,region"
        assert len(lines) == 101

    def test_single_region_matches_global_ols(self, suite_dir, tmp_path):
        out = tmp_path / "p1"
        code = main([
            "solve", "--data", str(suite_dir / "sim_000" / "data.csv"),
            "--adjacency", "grid", "10x10", "--algorithm", "azp",
            "--p", "1", "--min-obs", "10", "--seed", "0", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        ds = load_dataset_csv(suite_dir / "sim_000" / "data.csv")
        global_ssr = region_ssr(fit_ols(ds, range(ds.n)), ds, range(ds.n))
        assert payload["total_ssr"] == pytest.approx(global_ssr, rel=1e-12)

    # uncapped, this run converges in 5 passes, so a cap of 5 does not end it
    @pytest.mark.parametrize("cap", ["1", "5", "1000"])
    def test_capped_solve_warns(self, suite_dir, tmp_path, capsys, cap):
        code = main([
            "solve", "--data", str(suite_dir / "sim_000" / "data.csv"),
            "--adjacency", "grid", "10x10", "--algorithm", "azp",
            "--p", "2", "--min-obs", "10", "--seed", "3", "--max-iter", cap,
            "--output", str(tmp_path / "run"),
        ])
        assert code == 0
        warned = f"azp stopped at the --max-iter cap of {cap} iterations"
        assert (warned in capsys.readouterr().err) == (cap == "1")

    @pytest.mark.parametrize("algorithm", sorted(SOLVERS))
    def test_stop_reason_tells_convergence_from_the_cap(self, suite_dir, algorithm):
        dataset = load_dataset_csv(suite_dir / "sim_000" / "data.csv")
        graph = build_grid_graph(10, 10)
        config = SolverConfig(p=2, min_obs=10, seed=3)
        solve = SOLVERS[algorithm]
        free = solve(dataset, graph, config)
        assert free.stop_reason == "converged"
        exact = solve(dataset, graph, replace(config, max_iter=free.iterations_used))
        assert exact.stop_reason == "converged"
        assert np.array_equal(exact.partition.assignment, free.partition.assignment)
        short = solve(dataset, graph, replace(config, max_iter=free.iterations_used - 1))
        assert short.stop_reason == "max_iter"

    def test_repeats_keep_minimum_and_log_all(self, suite_dir, tmp_path):
        out = tmp_path / "rep"
        code = main([
            "solve", "--data", str(suite_dir / "sim_000" / "data.csv"),
            "--adjacency", "grid", "10x10", "--algorithm", "rkm",
            "--p", "2", "--min-obs", "10", "--seed", "5", "--repeats", "4",
            "--output", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        assert len(payload["runs"]) == 4
        assert payload["total_ssr"] == min(r["total_ssr"] for r in payload["runs"])
        assert [r["seed"] for r in payload["runs"]] == [5, 6, 7, 8]

    def test_knn_adjacency_works_with_coordinates(self, suite_dir, tmp_path):
        out = tmp_path / "knn"
        code = main([
            "solve", "--data", str(suite_dir / "sim_000" / "data.csv"),
            "--adjacency", "knn", "4", "--algorithm", "kmodels",
            "--p", "2", "--min-obs", "10", "--K", "6", "--seed", "1",
            "--output", str(out),
        ])
        assert code == 0

    def test_standardize_flag_scales_before_solving(self, suite_dir, tmp_path):
        out = tmp_path / "std"
        code = main([
            "solve", "--data", str(suite_dir / "sim_000" / "data.csv"),
            "--adjacency", "grid", "10x10", "--algorithm", "kmodels",
            "--p", "2", "--min-obs", "10", "--K", "6", "--seed", "4",
            "--standardize", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["standardized"] is True

    def test_grid_size_mismatch_exits_two(self, suite_dir, tmp_path):
        code = main([
            "solve", "--data", str(suite_dir / "sim_000" / "data.csv"),
            "--adjacency", "grid", "9x9", "--algorithm", "kmodels",
            "--p", "2", "--output", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_bad_csv_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n0.5,0.5\n")
        code = main(["solve", "--data", str(bad), "--adjacency", "grid", "1x1",
                     "--algorithm", "kmodels", "--p", "1",
                     "--output", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("header", ["id,x1,x1,y", "id,x_coord,x1,y"])
    def test_ambiguous_csv_header_exits_two(self, tmp_path, header):
        data = tmp_path / "data.csv"
        data.write_text(header + "\n" + "".join(
            f"u{i},{0.1 * i},{0.7 * (i % 3)},{0.3 * i}\n" for i in range(6)))
        code = main(["solve", "--data", str(data), "--adjacency", "grid", "2x3",
                     "--algorithm", "azp", "--p", "1", "--output", str(tmp_path / "x")])
        assert code == 2

    def test_assignments_csv_quotes_ids(self, tmp_path):
        ids = ["tract 3, county A", 'the "old" mill'] + [f"u{i}" for i in range(2, 9)]
        data = tmp_path / "data.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["id", "x1", "y"]]
                                     + [[uid, 0.1 * i, 0.3 * i] for i, uid in enumerate(ids)])
        out = tmp_path / "run"
        assert main(["solve", "--data", str(data), "--adjacency", "grid", "3x3",
                     "--algorithm", "azp", "--p", "2", "--min-obs", "2", "--seed", "1",
                     "--output", str(out), "--assignments-csv"]) == 0
        assignments = json.loads((out / "result.json").read_text())["assignments"]
        with open(out / "assignments.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["unit", "region"]] + [[uid, str(assignments[uid])] for uid in ids]

    def test_infeasible_layout_exits_three(self, tmp_path):
        # hub-and-leaves adjacency: no connected 2-partition has two regions
        # of two or more units, so initialization must give up
        data = tmp_path / "star.csv"
        data.write_text(
            "id,x1,y\n" + "".join(f"u{i},{0.1 * i},{0.2 * i}\n" for i in range(5))
        )
        edges = tmp_path / "star.edges"
        edges.write_text("0 1\n0 2\n0 3\n0 4\n")
        code = main([
            "solve", "--data", str(data), "--adjacency", "edgelist", str(edges),
            "--algorithm", "azp", "--p", "2", "--min-obs", "2",
            "--output", str(tmp_path / "x"),
        ])
        assert code == 3


class TestEvalCommand:
    def test_eval_matches_library_evaluation(self, suite_dir, tmp_path):
        run_dir = tmp_path / "run"
        assert main([
            "solve", "--data", str(suite_dir / "sim_000" / "data.csv"),
            "--adjacency", "grid", "10x10", "--algorithm", "kmodels",
            "--p", "2", "--min-obs", "10", "--K", "6", "--seed", "4",
            "--output", str(run_dir),
        ]) == 0
        out = tmp_path / "eval"
        assert main([
            "eval", "--truth", str(suite_dir / "sim_000"),
            "--result", str(run_dir / "result.json"), "--output", str(out),
        ]) == 0
        payload = json.loads((out / "evaluation.json").read_text())
        truth, _ = load_simulation(suite_dir / "sim_000")
        result, standardized = load_solve_result(
            run_dir / "result.json", truth.dataset.unit_ids()
        )
        report = evaluate(truth, result,
                          scaler=Scaler.fit(truth.dataset) if standardized else None)
        assert payload["rand_index"] == pytest.approx(report.rand_index)
        assert payload["nmi"] == pytest.approx(report.nmi)
        assert payload["total_ssr"] == pytest.approx(report.total_ssr)

    def test_missing_result_file_exits_two(self, suite_dir, tmp_path):
        code = main(["eval", "--truth", str(suite_dir / "sim_000"),
                     "--result", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path)])
        assert code == 2

    @pytest.fixture(scope="class")
    def result_path(self, suite_dir, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("eval_run")
        assert main([
            "solve", "--data", str(suite_dir / "sim_000" / "data.csv"),
            "--adjacency", "grid", "10x10", "--algorithm", "kmodels",
            "--p", "2", "--min-obs", "10", "--K", "6", "--seed", "4",
            "--output", str(run_dir),
        ]) == 0
        return run_dir / "result.json"

    @pytest.mark.parametrize("name, content", [
        ("true_coefficients.csv", ""),
        ("true_coefficients.csv", "region,b0,b1\n"),
        ("true_coefficients.csv", "region,b0,b1\n0,1.0\n"),
        ("true_partition.csv", "unit,label\n0,0\n"),
        ("manifest.json", "{}"),
        ("manifest.json", '{"spec": {"rows": 10, "cols": 10}}'),
        ("data.csv", "x1,x2,y\n1.0,2.0,3.0,99\n" + "1.0,2.0,3.0\n" * 99),
        ("true_partition.csv",
         "unit,region\n0,0,99\n" + "".join(f"{i},0\n" for i in range(1, 100))),
        ("true_partition.csv",
         "unit,region\n0,-1\n" + "".join(f"{i},0\n" for i in range(1, 100))),
        ("true_partition.csv",
         "unit,region\n0,2\n" + "".join(f"{i},0\n" for i in range(1, 100))),
    ], ids=["empty", "header-only", "short-row", "no-region-column", "no-spec", "partial-spec",
            "data-extra-field", "partition-extra-field", "negative-label", "label-gap"])
    def test_malformed_truth_exits_two_naming_the_file(self, suite_dir, result_path, tmp_path,
                                                       capsys, name, content):
        truth = tmp_path / "truth"
        shutil.copytree(suite_dir / "sim_000", truth)
        (truth / name).write_text(content)
        code = main(["eval", "--truth", str(truth), "--result", str(result_path),
                     "--output", str(tmp_path / "eval")])
        assert code == 2
        assert str(truth / name) in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda payload: payload.pop("trace"),
        lambda payload: payload.update(trace=5),
        lambda payload: payload.update(regions=[{"size": 10}]),
        lambda payload: payload.update(total_ssr="low"),
    ], ids=["no-trace", "trace-not-a-list", "region-without-coefficients", "text-ssr"])
    def test_malformed_result_exits_two_naming_the_file(self, suite_dir, result_path, tmp_path,
                                                        capsys, edit):
        payload = json.loads(result_path.read_text())
        edit(payload)
        broken = tmp_path / "result.json"
        broken.write_text(json.dumps(payload))
        code = main(["eval", "--truth", str(suite_dir / "sim_000"), "--result", str(broken),
                     "--output", str(tmp_path / "eval")])
        assert code == 2
        assert str(broken) in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_benchmark_writes_deterministic_csvs(self, suite_dir, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        args = ["benchmark", "--suite", str(suite_dir), "--algorithms", "kmodels,rkm",
                "--p", "2", "--min-obs", "10", "--K", "6", "--seed", "3",
                "--repeats", "2"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        deterministic = ("benchmark_runs.csv", "benchmark_summary.csv")
        assert read_bytes_map(out1, deterministic) == read_bytes_map(out2, deterministic)
        runs = (out1 / "benchmark_runs.csv").read_text().strip().splitlines()
        assert runs[0] == "dataset,algorithm,simulation,metric,value"
        # 2 algorithms x 2 simulations x 8 metric rows
        assert len(runs) == 1 + 2 * 2 * 8
        assert (out1 / "benchmark_timings.csv").exists()

    def test_jobs_option_is_gone(self, suite_dir, tmp_path):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as info:
            main(["benchmark", "--suite", str(suite_dir), "--algorithms", "kmodels",
                  "--p", "2", "--min-obs", "10", "--jobs", "2", "--output", str(out)])
        assert info.value.code == 2
        assert not out.exists()

    def test_empty_algorithm_list_exits_two(self, suite_dir, tmp_path):
        code = main(["benchmark", "--suite", str(suite_dir), "--algorithms", "",
                     "--p", "2", "--output", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("option, message", [
        (["--max-iter", "0"], ">= 1"), (["--repeats", "0"], ">= 1"), (["--p", "0"], ">= 1"),
        (["--K", "2"], "K must exceed p"),
    ], ids=[f"option{i}" for i in range(4)])
    def test_invalid_solver_options_exit_two_without_csvs(self, suite_dir, tmp_path, option,
                                                          message, capsys):
        out = tmp_path / "x"
        code = main(["benchmark", "--suite", str(suite_dir), "--algorithms", "azp",
                     "--p", "2", "--min-obs", "10", "--seed", "3", "--output", str(out)]
                    + option)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_algorithm_exits_two_before_any_cell(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["benchmark", "--suite", str(suite_dir), "--algorithms", "rkm,azp,rkm",
                     "--p", "2", "--min-obs", "10", "--output", str(out)])
        assert code == 2
        assert "['rkm']" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_cells_exit_four(self, suite_dir, tmp_path):
        # two regions of 51 units cannot fit in a 100-cell grid
        code = main(["benchmark", "--suite", str(suite_dir), "--algorithms", "azp",
                     "--p", "2", "--min-obs", "51", "--seed", "3",
                     "--output", str(tmp_path / "x")])
        assert code == 4


class TestDatasetFromScratch:
    def test_plain_csv_without_ids(self, tmp_path, rng):
        # indices become unit ids when no id column is present
        data = tmp_path / "plain.csv"
        rows = ["x1,y"] + [f"{v:.3f},{2 * v:.3f}" for v in rng.random(9)]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "run"
        code = main(["solve", "--data", str(data), "--adjacency", "grid", "3x3",
                     "--algorithm", "azp", "--p", "2", "--min-obs", "2",
                     "--seed", "1", "--output", str(out)])
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        assert set(payload["assignments"]) == {str(i) for i in range(9)}
