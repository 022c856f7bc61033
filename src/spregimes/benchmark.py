"""Benchmark sweeps: every algorithm against every simulation of a suite.

Per-run seeds are derived as ``seed + simulation_index`` (restarts within
a run add the restart index), so results do not depend on scheduling
order and any row can be reproduced in isolation. Metric CSVs contain no
timing and are byte-identical across reruns; wall-clock times go to a
separate file.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .exceptions import SpatialRegimesError
from .graph import build_grid_graph
from .io import list_simulations, load_simulation, write_csv
from .linreg import Scaler
from .metrics import EvaluationReport, evaluate
from .solvers import SOLVERS, SolveResult, SolverConfig, solve_with_restarts
from .synthgen import GroundTruth, SimulationSpec

__all__ = ["BenchmarkRun", "BenchmarkReport", "run_benchmark", "write_benchmark_csvs"]


@dataclass
class BenchmarkRun:
    """Outcome of one (simulation, algorithm) cell."""

    dataset_kind: str
    algorithm: str
    simulation: int
    best: SolveResult | None = None
    report: EvaluationReport | None = None
    runs: list[SolveResult] = field(default_factory=list)
    error: str | None = None


@dataclass
class BenchmarkReport:
    """All cells of one sweep plus aggregation helpers."""

    cells: list[BenchmarkRun]

    def failures(self) -> list[BenchmarkRun]:
        return [cell for cell in self.cells if cell.error is not None]

    def metric_rows(self) -> list[tuple[str, str, int, str, float]]:
        rows = []
        for cell in self.cells:
            if cell.report is None:
                continue
            rows.extend(
                (cell.dataset_kind, cell.algorithm, cell.simulation, metric, value)
                for metric, value in _cell_metrics(cell)
            )
        return rows

    def summary(self) -> dict[tuple[str, str, str], float]:
        """Mean of each metric per (dataset kind, algorithm)."""
        sums: dict[tuple[str, str, str], list[float]] = {}
        for kind, algorithm, _, metric, value in self.metric_rows():
            sums.setdefault((kind, algorithm, metric), []).append(value)
        return {key: sum(vals) / len(vals) for key, vals in sums.items()}

    def mean_wall_time(self) -> dict[tuple[str, str], float]:
        sums: dict[tuple[str, str], list[float]] = {}
        for cell in self.cells:
            if cell.best is not None:
                sums.setdefault((cell.dataset_kind, cell.algorithm), []).append(_wall_time(cell))
        return {key: sum(vals) / len(vals) for key, vals in sums.items()}


def _wall_time(cell: BenchmarkRun) -> float:
    """Wall time of every restart of one cell."""
    return sum(run.wall_time for run in cell.runs)


def _cell_metrics(cell: BenchmarkRun) -> list[tuple[str, float]]:
    report = cell.report
    rows = [
        ("ssr", report.total_ssr),
        ("rand_index", report.rand_index),
        ("nmi", report.nmi),
    ]
    rows += [
        (f"mae_b{c}", float(v)) for c, v in enumerate(report.mae_per_coefficient)
    ]
    rows += [
        ("region_count", float(report.region_count)),
        ("iterations", float(cell.best.iterations_used)),
    ]
    return rows


def _run_cell(truth: GroundTruth, spec: SimulationSpec, sim_index: int, algorithm: str,
              config: SolverConfig, repeats: int, standardize: bool) -> BenchmarkRun:
    cell = BenchmarkRun(dataset_kind=spec.scheme, algorithm=algorithm, simulation=sim_index)
    try:
        graph = build_grid_graph(spec.rows, spec.cols)
        dataset = truth.dataset
        scaler = None
        if standardize:
            scaler = Scaler.fit(dataset)
            dataset = scaler.transform(dataset)
        cfg = replace(config, seed=config.seed + sim_index)
        best, runs = solve_with_restarts(algorithm, dataset, graph, cfg, repeats)
        cell.best = best
        cell.runs = runs
        cell.report = evaluate(truth, best, scaler=scaler)
    except (SpatialRegimesError, ValueError) as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def run_benchmark(suite_dir, algorithms: list[str], config: SolverConfig,
                  repeats: int = 1, standardize: bool = False,
                  jobs: int = 1) -> BenchmarkReport:
    """Run every algorithm on every simulation of the suite.

    Per-cell failures are recorded, not raised; callers decide how to
    surface them. Before any cell runs, ValueError is raised for an empty,
    unknown or repeated algorithm name and for ``repeats`` below 1; a
    ``SolverConfig`` has already refused an invalid p, max_iter or K when
    it was built. Each simulation is loaded once, before any cell runs,
    and shared by every algorithm's cell. With ``jobs > 1`` cells run in
    separate processes; outputs are identical to a serial run.
    """
    if not algorithms:
        raise ValueError("at least one algorithm is required")
    unknown = [a for a in algorithms if a not in SOLVERS]
    if unknown:
        raise ValueError(f"unknown algorithms: {unknown}; expected from {sorted(SOLVERS)}")
    repeated = sorted({a for a in algorithms if algorithms.count(a) > 1})
    if repeated:
        raise ValueError(f"algorithms listed more than once: {repeated}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    simulations = [load_simulation(sim_dir) for sim_dir in list_simulations(suite_dir)]
    tasks = [
        (truth, info["spec"], sim_index, algorithm, config, repeats, standardize)
        for algorithm in algorithms
        for sim_index, (truth, info) in enumerate(simulations)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_run_cell_star, tasks))
    else:
        cells = [_run_cell(*task) for task in tasks]
    return BenchmarkReport(cells)


def _run_cell_star(task) -> BenchmarkRun:
    return _run_cell(*task)


def write_benchmark_csvs(out_dir, report: BenchmarkReport) -> dict[str, Path]:
    """Write runs, summary, and timing CSVs; returns their paths.

    runs.csv and summary.csv are deterministic for a given suite and
    seed; timings.csv is informational and varies between reruns.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "runs": out_dir / "benchmark_runs.csv",
        "summary": out_dir / "benchmark_summary.csv",
        "timings": out_dir / "benchmark_timings.csv",
    }
    write_csv(paths["runs"], ("dataset", "algorithm", "simulation", "metric", "value"),
              report.metric_rows())
    write_csv(paths["summary"], ("dataset", "algorithm", "metric", "mean"),
              [(*key, mean) for key, mean in sorted(report.summary().items())])
    write_csv(paths["timings"], ("dataset", "algorithm", "simulation", "wall_time_sec"),
              [(cell.dataset_kind, cell.algorithm, cell.simulation, _wall_time(cell))
               for cell in report.cells if cell.best is not None]
              + [(*key, "mean", mean) for key, mean in sorted(report.mean_wall_time().items())])
    return paths
