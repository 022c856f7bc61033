"""Command-line interface: solve, synth, eval, and benchmark subcommands.

Exit codes are stable API: 0 success, 2 invalid input, 3 solver
infeasibility, 4 partial benchmark failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .benchmark import run_benchmark, write_benchmark_csvs
from .exceptions import (
    InitializationFailedError,
    MergeInfeasibleError,
    SchemeInfeasibleError,
)
from .graph import build_edge_list_graph, build_grid_graph, build_knn_graph, read_edge_list
from .io import (
    build_manifest,
    check_suite_target,
    file_sha256,
    list_simulations,
    load_dataset_csv,
    load_simulation,
    load_solve_result,
    write_assignments_csv,
    write_eval_report,
    write_solve_result,
    write_suite,
)
from .linreg import Scaler
from .metrics import evaluate
from .solvers import SOLVERS, SolverConfig, solve_with_restarts
from .synthgen import SCHEME_KINDS, SimulationSpec, generate_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_PARTIAL = 4


def _build_graph(dataset, mode: str, arg: str):
    """Build adjacency from exactly one declared source."""
    if mode == "edgelist":
        return build_edge_list_graph(dataset.n, read_edge_list(arg)), f"edgelist:{arg}"
    if mode == "grid":
        try:
            rows, cols = (int(part) for part in arg.lower().split("x"))
        except ValueError:
            raise ValueError(f"grid size must look like 25x25, got {arg!r}") from None
        if rows * cols != dataset.n:
            raise ValueError(f"grid {rows}x{cols} has {rows * cols} cells, dataset has {dataset.n}")
        return build_grid_graph(rows, cols), f"grid:{rows}x{cols}"
    if mode == "knn":
        if dataset.coords is None:
            raise ValueError("knn adjacency needs x_coord and y_coord columns in the data")
        k = int(arg)
        return build_knn_graph(dataset.coords, k), f"knn:{k}"
    raise ValueError(f"adjacency mode must be edgelist, grid, or knn, got {mode!r}")


def _add_solver_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--p", type=int, required=True, help="number of regions")
    parser.add_argument("--min-obs", type=int, default=None,
                        help="minimum units per region (default: one more than "
                             "the covariate count)")
    parser.add_argument("--K", type=int, default=None,
                        help="micro-cluster count for kmodels (default: 4*p)")
    parser.add_argument("--max-iter", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="independent seeded runs; the lowest-SSR one is kept")
    parser.add_argument("--standardize", action="store_true",
                        help="z-score covariates and response before solving")
    parser.add_argument("--output", type=Path, default=Path("."))


def _make_config(args, dataset) -> SolverConfig:
    """The solver settings of ``args``; ``dataset`` gives m when --min-obs is unset."""
    min_obs = args.min_obs if args.min_obs is not None else dataset.m + 1
    return SolverConfig(p=args.p, min_obs=min_obs, K=args.K,
                        max_iter=args.max_iter, seed=args.seed)


def cmd_solve(args, argv) -> int:
    dataset = load_dataset_csv(args.data)
    graph, adjacency_source = _build_graph(dataset, *args.adjacency)
    config = _make_config(args, dataset)
    scaler = Scaler.fit(dataset) if args.standardize else None
    solve_data = scaler.transform(dataset) if scaler else dataset
    best, runs = solve_with_restarts(args.algorithm, solve_data, graph, config,
                                     args.repeats)
    args.output.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(
        argv,
        {**asdict(config), "algorithm": args.algorithm, "repeats": args.repeats,
         "standardize": args.standardize},
        {"n": dataset.n, "m": dataset.m, "adjacency": adjacency_source,
         "data_sha256": file_sha256(args.data)},
    )
    result_path = args.output / "result.json"
    write_solve_result(result_path, best, dataset.unit_ids(), args.standardize,
                       manifest=manifest, runs=runs)
    if args.assignments_csv:
        write_assignments_csv(args.output / "assignments.csv", best.partition, dataset.unit_ids())
    sizes = ", ".join(str(s) for s in best.partition.sizes())
    print(f"algorithm={args.algorithm} regions={best.partition.p} sizes=[{sizes}]")
    print(f"total_ssr={best.total_ssr:.6g} iterations={best.iterations_used} "
          f"seed={best.seed} wall_time={best.wall_time:.2f}s")
    if args.repeats > 1:
        all_ssr = ", ".join(f"{run.total_ssr:.6g}" for run in runs)
        print(f"restart SSRs: [{all_ssr}]")
    if best.stop_reason == "max_iter":
        print(f"warning: {args.algorithm} stopped at the --max-iter cap of {config.max_iter} "
              "iterations and may not have converged", file=sys.stderr)
    print(f"wrote {result_path}")
    return EXIT_OK


def cmd_synth(args, argv) -> int:
    spec = SimulationSpec(rows=args.rows, cols=args.cols, scheme=args.scheme,
                          region_count=args.regions,
                          min_region_units=args.min_region_units,
                          sigma=args.sigma, seed=args.seed)
    check_suite_target(args.output, args.count)
    truths = generate_suite(spec, args.count)
    write_suite(args.output, spec, truths)
    print(f"wrote {args.count} {args.scheme} simulation(s) to {args.output}")
    return EXIT_OK


def cmd_eval(args, argv) -> int:
    truth, _ = load_simulation(args.truth)
    result, standardized = load_solve_result(args.result, truth.dataset.unit_ids())
    scaler = Scaler.fit(truth.dataset) if standardized else None
    report = evaluate(truth, result, scaler=scaler)
    args.output.mkdir(parents=True, exist_ok=True)
    report_path = args.output / "evaluation.json"
    write_eval_report(report_path, report)
    mae = ", ".join(f"{v:.4f}" for v in report.mae_per_coefficient)
    print(f"ssr={report.total_ssr:.6g} rand_index={report.rand_index:.4f} "
          f"nmi={report.nmi:.4f} mae=[{mae}]")
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_benchmark(args, argv) -> int:
    algorithms = [name for name in args.algorithms.split(",") if name]
    first = (load_simulation(list_simulations(args.suite)[0])[0].dataset
             if args.min_obs is None else None)
    config = _make_config(args, first)
    report = run_benchmark(args.suite, algorithms, config, repeats=args.repeats,
                           standardize=args.standardize)
    paths = write_benchmark_csvs(args.output, report)
    summary = report.summary()
    timing = report.mean_wall_time()
    kinds = sorted({key[0] for key in summary})
    for kind in kinds:
        for algorithm in algorithms:
            if (kind, algorithm, "ssr") not in summary:
                continue
            mae = summary[(kind, algorithm, "mae_b1")]
            print(
                f"{kind:12s} {algorithm:8s} "
                f"ssr={summary[(kind, algorithm, 'ssr')]:.4g} "
                f"ri={summary[(kind, algorithm, 'rand_index')]:.4f} "
                f"nmi={summary[(kind, algorithm, 'nmi')]:.4f} "
                f"mae_b1={mae:.4f} "
                f"time={timing.get((kind, algorithm), float('nan')):.2f}s"
            )
    for cell in report.failures():
        print(f"FAILED {cell.dataset_kind}/sim_{cell.simulation:03d}/{cell.algorithm}: "
              f"{cell.error}", file=sys.stderr)
    print(f"wrote {paths['runs']}, {paths['summary']}, {paths['timings']}")
    return EXIT_PARTIAL if report.failures() else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spregimes",
        description="Delineate spatial regimes: connected regions with "
                    "homogeneous linear-regression relationships.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one dataset")
    solve.add_argument("--data", type=Path, required=True, help="dataset CSV")
    solve.add_argument("--adjacency", nargs=2, required=True,
                       metavar=("MODE", "ARG"),
                       help="one of: edgelist PATH | grid ROWSxCOLS | knn K")
    solve.add_argument("--algorithm", choices=sorted(SOLVERS), required=True)
    _add_solver_flags(solve)
    solve.add_argument("--assignments-csv", action="store_true",
                       help="also write assignments.csv")
    solve.set_defaults(func=cmd_solve)

    synth = sub.add_parser("synth", help="generate a synthetic suite")
    synth.add_argument("--scheme", choices=SCHEME_KINDS, required=True)
    synth.add_argument("--count", type=int, required=True, help="number of simulations")
    synth.add_argument("--sigma", type=float, default=0.1)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--rows", type=int, default=25)
    synth.add_argument("--cols", type=int, default=25)
    synth.add_argument("--regions", type=int, default=5)
    synth.add_argument("--min-region-units", type=int, default=10)
    synth.add_argument("--output", type=Path, required=True)
    synth.set_defaults(func=cmd_synth)

    evaluate_cmd = sub.add_parser("eval", help="score a result against ground truth")
    evaluate_cmd.add_argument("--truth", type=Path, required=True,
                              help="simulation directory with data and truth files")
    evaluate_cmd.add_argument("--result", type=Path, required=True,
                              help="result.json from the solve subcommand")
    evaluate_cmd.add_argument("--output", type=Path, default=Path("."))
    evaluate_cmd.set_defaults(func=cmd_eval)

    bench = sub.add_parser("benchmark", help="run algorithms over a whole suite")
    bench.add_argument("--suite", type=Path, required=True)
    bench.add_argument("--algorithms", required=True,
                       help="comma-separated list, e.g. kmodels,azp,rkm")
    _add_solver_flags(bench)
    bench.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (InitializationFailedError, MergeInfeasibleError, SchemeInfeasibleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
