"""The benchmark's three workloads.

Each workload has a set-up (the inputs a user prepares before solving), a
round (the solves, evaluation and files the user waits for) and a probe: a
small instance drawn from the run's ``--seed`` and checked by the same
oracles, outside the timed work.

The timed instances are fixed by ``data_seed`` and ``solver_seed``, whose
defaults are the paper's and criterion 9's instances. They are not drawn from
``--seed``: a local-search solve takes 3 s on one 40x40 instance and 30 s on
the next, so timings over seed-drawn instances would spread far more than any
regression worth catching.

Calls into spregimes go through module attributes (``solvers.SOLVERS``,
``metrics.evaluate``, ...) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spregimes import benchmark, graph, io, metrics, solvers, synthgen
from spregimes.graph import Partition
from spregimes.linreg import Dataset

from oracles import Instance, file_sha1, grid_adjacency, knn_adjacency
from spans import clock

# the evaluation fields the oracles compare against, as the CSV names them
REPORTED = ("ssr", "rand_index", "nmi")


@dataclass
class Solve:
    """One solver call as the user saw it."""

    label: str
    algorithm: str
    result: solvers.SolveResult | None
    error: str | None
    reported: dict[str, float] | None


@dataclass
class Round:
    """One pass over a workload's timed work: its CPU and wall seconds."""

    run_s: float
    wall_s: float
    solve_s: dict[str, float]
    solves: list[Solve]
    files: dict[str, str] = field(default_factory=dict)


def _reported(report) -> dict[str, float]:
    return {"ssr": report.total_ssr, "rand_index": report.rand_index, "nmi": report.nmi}


def _solve_and_evaluate(label, algorithm, truth, adjacency_graph, config, solve_s):
    """Solve one instance, time the solver call alone, then evaluate it."""
    start = clock()
    try:
        result = solvers.SOLVERS[algorithm](truth.dataset, adjacency_graph, config)
    except Exception as exc:  # a raising solve is a failed solve, not a crash
        solve_s[algorithm] += clock() - start
        return Solve(label, algorithm, None, f"{type(exc).__name__}: {exc}", None)
    solve_s[algorithm] += clock() - start
    return Solve(label, algorithm, result, None, _reported(metrics.evaluate(truth, result)))


def _instance(truth, adjacency, p, min_obs) -> Instance:
    return Instance(truth.dataset.X, truth.dataset.y, truth.true_partition.assignment,
                    adjacency, p, min_obs)


def _grid_probe(seed: int, algorithms):
    """12x12 voronoi instance, three regions, every solver of the workload."""
    spec = synthgen.SimulationSpec(rows=12, cols=12, scheme="voronoi", region_count=3,
                                   min_region_units=10, sigma=0.2, seed=seed)
    truth = synthgen.generate_suite(spec, 1)[0]
    grid = graph.build_grid_graph(12, 12)
    config = solvers.SolverConfig(p=3, min_obs=10, K=9, seed=seed)
    times = dict.fromkeys(algorithms, 0.0)
    solves = [_solve_and_evaluate("probe", a, truth, grid, config, times) for a in algorithms]
    return {"probe": _instance(truth, grid_adjacency(12, 12), 3, 10)}, solves


def knn_truth(seed: int, n: int, regions: int) -> synthgen.GroundTruth:
    """Criterion 9's data: uniform points, nearest-centre regions, sigma 0.1."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2)) * 100.0
    centers = points[rng.choice(n, regions, replace=False)]
    region = np.argmin(((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
    pool = np.linspace(-2.0, 2.0, regions)
    b1, b2 = rng.permutation(pool), rng.permutation(pool)
    x = rng.random((n, 2))
    y = b1[region] * x[:, 0] + b2[region] * x[:, 1] + rng.normal(0.0, 0.1, n)
    return synthgen.GroundTruth(Partition(region, regions),
                                np.column_stack([np.zeros(regions), b1, b2]),
                                Dataset(X=x, y=y, coords=points))


class Sweep25:
    """The paper's experiment: 25x25 suites on disk, every solver, the CSVs.

    Small regions, so per-call fit overhead, io, metrics and the CSV path
    show, and every solver runs.
    """

    name = "sweep25"
    default_data_seed = 101
    algorithms = ("kmodels", "azp", "rkm")
    suites = (("rectangular", 0.1), ("voronoi", 0.3))
    simulations = 3

    def __init__(self, work_dir: Path, data_seed: int, solver_seed: int):
        self.work_dir = work_dir
        self.data_seed = data_seed
        self.config = solvers.SolverConfig(p=5, min_obs=10, K=20, seed=solver_seed)

    def setup(self):
        state = []
        for scheme, sigma in self.suites:
            spec = synthgen.SimulationSpec(rows=25, cols=25, scheme=scheme, sigma=sigma,
                                           seed=self.data_seed)
            truths = synthgen.generate_suite(spec, self.simulations)
            io.write_suite(self.work_dir / "suites" / scheme, spec, truths)
            state.append((scheme, truths))
        return state

    def instances(self, state) -> dict[str, Instance]:
        adjacency = grid_adjacency(25, 25)
        return {f"{scheme}/{i}": _instance(truth, adjacency, 5, 10)
                for scheme, truths in state for i, truth in enumerate(truths)}

    def run(self, state) -> Round:
        solve_s = dict.fromkeys(self.algorithms, 0.0)
        cells = {}
        start, wall = clock(), perf_counter()
        for scheme, _ in state:
            cells[scheme] = []
            for algorithm in self.algorithms:
                t = clock()
                report = benchmark.run_benchmark(self.work_dir / "suites" / scheme,
                                                 [algorithm], self.config, jobs=1)
                solve_s[algorithm] += clock() - t
                cells[scheme].extend(report.cells)
            benchmark.write_benchmark_csvs(self.work_dir / "out" / scheme,
                                           benchmark.BenchmarkReport(cells[scheme]))
        run_s, wall_s = clock() - start, perf_counter() - wall

        solves, files = [], {}
        for scheme, scheme_cells in cells.items():
            path = self.work_dir / "out" / scheme / "benchmark_runs.csv"
            files[f"{scheme}/benchmark_runs.csv"] = file_sha1(path)
            rows: dict[tuple[str, int], dict[str, float]] = {}
            with open(path, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    if row["metric"] in REPORTED:
                        key = (row["algorithm"], int(row["simulation"]))
                        rows.setdefault(key, {})[row["metric"]] = float(row["value"])
            for cell in scheme_cells:
                solves.append(Solve(f"{scheme}/{cell.simulation}", cell.algorithm, cell.best,
                                    cell.error, rows.get((cell.algorithm, cell.simulation))))
        return Round(run_s, wall_s, solve_s, solves, files)

    def probe(self, seed: int):
        return _grid_probe(seed, self.algorithms)


class Search40:
    """AZP and RKM on a 40x40 voronoi grid built in memory.

    The local-search move loop dominates: the connectivity test, the
    rank-one SSR test and the RKM rescan. No K-Models and no io, so a
    merge-stage change should show no gain here.
    """

    name = "search40"
    default_data_seed = 101
    algorithms = ("azp", "rkm")
    simulations = 1

    def __init__(self, work_dir: Path, data_seed: int, solver_seed: int):
        self.data_seed = data_seed
        self.solver_seed = solver_seed

    def setup(self):
        spec = synthgen.SimulationSpec(rows=40, cols=40, scheme="voronoi", sigma=0.1,
                                       seed=self.data_seed)
        return synthgen.generate_suite(spec, self.simulations), graph.build_grid_graph(40, 40)

    def instances(self, state) -> dict[str, Instance]:
        adjacency = grid_adjacency(40, 40)
        return {f"voronoi/{i}": _instance(truth, adjacency, 5, 10)
                for i, truth in enumerate(state[0])}

    def run(self, state) -> Round:
        truths, grid = state
        solve_s = dict.fromkeys(self.algorithms, 0.0)
        solves = []
        start, wall = clock(), perf_counter()
        for i, truth in enumerate(truths):
            # per-simulation seeds as run_benchmark derives them
            config = solvers.SolverConfig(p=5, min_obs=10, seed=self.solver_seed + i)
            for algorithm in self.algorithms:
                solves.append(_solve_and_evaluate(f"voronoi/{i}", algorithm, truth, grid,
                                                  config, solve_s))
        return Round(clock() - start, perf_counter() - wall, solve_s, solves)

    def probe(self, seed: int):
        return _grid_probe(seed, self.algorithms)


class Knn20k:
    """Criterion 9: 20,000 points, knn k=18, K-Models with p=5, min_obs=20, K=10.

    Large regions and thousands of merge components, so the merge stage's
    size repair and union refits dominate the solve and the knn build
    dominates set-up. No AZP or RKM.
    """

    name = "knn20k"
    default_data_seed = 909
    algorithms = ("kmodels",)
    n, k = 20_000, 18

    def __init__(self, work_dir: Path, data_seed: int, solver_seed: int):
        self.data_seed = data_seed
        self.config = solvers.SolverConfig(p=5, min_obs=20, K=10, seed=solver_seed)

    def setup(self):
        truth = knn_truth(self.data_seed, self.n, 5)
        return truth, graph.build_knn_graph(truth.dataset.coords, self.k)

    def instances(self, state) -> dict[str, Instance]:
        truth = state[0]
        return {"knn": _instance(truth, knn_adjacency(truth.dataset.coords, self.k), 5, 20)}

    def run(self, state) -> Round:
        truth, knn = state
        solve_s = dict.fromkeys(self.algorithms, 0.0)
        start, wall = clock(), perf_counter()
        solve = _solve_and_evaluate("knn", "kmodels", truth, knn, self.config, solve_s)
        return Round(clock() - start, perf_counter() - wall, solve_s, [solve])

    def probe(self, seed: int):
        """400 points, three regions, knn k=10."""
        truth = knn_truth(seed, 400, 3)
        knn = graph.build_knn_graph(truth.dataset.coords, 10)
        config = solvers.SolverConfig(p=3, min_obs=20, K=6, seed=seed)
        solve = _solve_and_evaluate("probe", "kmodels", truth, knn, config, {"kmodels": 0.0})
        return {"probe": _instance(truth, knn_adjacency(truth.dataset.coords, 10), 3, 20)}, [solve]


WORKLOADS = {w.name: w for w in (Sweep25, Search40, Knn20k)}
