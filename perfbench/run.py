#!/usr/bin/env python3
"""Benchmark of spregimes: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep25 --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py): ``sweep25`` (the paper's 25x25 sweep through
run_benchmark and the CSVs), ``search40`` (AZP and RKM on a 40x40 grid) and
``knn20k`` (criterion 9's 20,000-point K-Models solve). BENCHMARK.json
gates only sweep25 and knn20k: search40's round is one 40x40 AZP solve of
about 10 s, and on a shared 2-vCPU machine whose speed drifts in phases of
30 to 60 s its run-to-run spread passed the 0.25 bound. It stays runnable
for profiling the local-search loop at a larger scale than sweep25's.

One process, BLAS pinned to one thread, no process pool. The package is
imported from ``src/`` next to this directory and from nowhere else.

``--trace 0`` sets up at least three times, and more while the set-ups add
up to under two seconds, and reports the median ``setup_s``; it then repeats
the workload's round while another fits in ``--seconds`` (always at least
one) and reports medians over rounds. ``--trace 1`` sets up once and runs one
untraced and one traced round; spans go to
``.perfbench_out/<workload>-seed<seed>-spans.jsonl``. Times are CPU seconds
(see spans.py), except the ``wall_s`` line printed for reference.

Every solve is checked by oracles outside the package (oracles.py); a solve
that fails a check counts in ``failed``. ``--seed`` draws a small probe
instance that is checked the same way and is not timed. Output fingerprints
are compared with golden.json; ``--update-golden`` records them instead.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 2 means
the package could not be imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these once, when numpy is first imported (by oracles, below)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from oracles import check_solve, fingerprint  # noqa: E402
from spans import Tracer, aggregate, clock, instrument, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
# set up at least this often, and while the set-ups together stay short
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 100
ALGORITHMS = ("kmodels", "azp", "rkm")
SHOWN_PROBLEMS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep25", "search40", "knn20k"))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the untimed probe instance (>= 0)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="time budget for the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int,
                        help="seed of the timed instances (default: the workload's)")
    parser.add_argument("--solver-seed", type=int, default=7)
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's fingerprints in golden.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_package():
    """Import spregimes from this checkout's src/, never an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import spregimes

    if Path(spregimes.__file__).resolve().parent.parent != src:
        raise ImportError(f"spregimes came from {spregimes.__file__}, not from {src}")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _mark(solve):
    r = solve.result
    return None if r is None else fingerprint(r.total_ssr, r.partition.assignment)


def fingerprints(round_) -> dict:
    out = {f"{solve.label} {solve.algorithm}": _mark(solve) for solve in round_.solves}
    out.update(round_.files)
    return out


def judge(rounds, instances, probe_solves, probe_instances):
    """Oracle verdicts on the first round and the probe; later rounds must repeat the first.

    Returns ``(verdicts, problems, attempted)``: the first round's verdicts
    by solve, and ``(attempt, text)`` for each failed check.
    """
    def verdict(solve, pool):
        if solve.error is not None:
            return None, [f"raised {solve.error}"]
        if solve.reported is None:
            return None, ["the program reported no evaluation"]
        r = solve.result
        v = check_solve(pool[solve.label], r.partition.assignment, r.total_ssr, r.trace,
                        solve.reported)
        return v, v.problems

    verdicts, problems, attempted = {}, [], 0
    first = fingerprints(rounds[0])
    for number, round_ in enumerate(rounds, start=1):
        for solve in round_.solves:
            attempted += 1
            key = f"{solve.label} {solve.algorithm}"
            if number == 1:
                verdicts[key], found = verdict(solve, instances)
            elif _mark(solve) is None or _mark(solve) != first[key]:
                found = ["output differs from round 1"]
            else:
                found = []
            problems += [(f"{key} (round {number})", text) for text in found]
    for solve in probe_solves:
        attempted += 1
        _, found = verdict(solve, probe_instances)
        problems += [(f"{solve.label} {solve.algorithm}", text) for text in found]
    return verdicts, problems, attempted


def compare_golden(key: str, current: dict) -> tuple[int, int]:
    """(checked, changed) against the golden entry for these inputs, if any."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(key) if GOLDEN.exists() else None
    if golden is None:
        return 0, 0
    checked = sum(1 for name in current if name in golden)
    changed = sum(1 for name, mark in current.items() if golden.get(name) != mark)
    return checked, changed


def update_golden(key: str, current: dict):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden[key] = current
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def quality(verdicts) -> dict[str, float | None]:
    ok = [v for v in verdicts.values() if v is not None and not v.problems]
    if not ok:
        return {"ssr_sum": None, "rand_index_mean": None, "nmi_mean": None}
    return {
        "ssr_sum": sum(v.ssr for v in ok),
        "rand_index_mean": statistics.fmean(v.rand_index for v in ok),
        "nmi_mean": statistics.fmean(v.nmi for v in ok),
    }


def measure(workload, seconds: float):
    """Set up repeatedly, then run rounds while another fits in ``seconds``."""
    setups = []
    while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_SECONDS
                                          and len(setups) < SETUP_MAX_REPEATS):
        start = clock()
        state = workload.setup()
        setups.append(clock() - start)
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start + rounds[-1].wall_s <= seconds:
        rounds.append(workload.run(state))
    return state, setups, rounds


def measure_traced(workload, tracer):
    """Traced set-up, then one untraced and one traced round."""
    with instrument(tracer):
        start = clock()
        state = workload.setup()
        setup_s = clock() - start
    untraced = workload.run(state)
    with instrument(tracer):
        mark = len(tracer.spans)
        traced = workload.run(state)
    return state, setup_s, untraced, traced, mark


def show(name: str, value, unit: str, note: str = ""):
    text = "missing" if value is None else f"{value:.6g}"
    print(f"  {name:<36} {text:>14} {unit:<6} {note}".rstrip())


def end_to_end(cls, setups, rounds, verdicts) -> dict[str, tuple]:
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(r.run_s for r in rounds), "s"),
        "solve_s": (statistics.median(sum(r.solve_s.values()) for r in rounds), "s"),
    }
    units = {"ssr_sum": "ssr", "rand_index_mean": "ratio", "nmi_mean": "ratio"}
    for name, value in quality(verdicts).items():
        metrics[name] = (value, units[name])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print(f"end-to-end, CPU medians of {len(rounds)} round(s) and {len(setups)} set-ups:")
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    print("also:")
    show("wall_s", statistics.median(r.wall_s for r in rounds), "s", "(wall clock)")
    for algorithm in cls.algorithms:
        show(f"solve_s.{algorithm}", statistics.median(r.solve_s[algorithm] for r in rounds), "s")
    return metrics


def per_layer(tracer, setup_s, untraced, traced, mark) -> dict[str, tuple]:
    metrics = layer_metrics(tracer.spans, tracer.missing)
    for algorithm in ALGORITHMS:
        metrics[f"solve_s.{algorithm}"] = (untraced.solve_s.get(algorithm, 0.0), "s")
    metrics["trace.overhead_s"] = (traced.run_s - untraced.run_s, "s")
    print(f"per-layer, CPU s; traced set-up {setup_s:.3f}, run_s untraced {untraced.run_s:.3f} "
          f"and traced {traced.run_s:.3f}, wall_s untraced {untraced.wall_s:.3f}:")
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    round_spans = aggregate(tracer.spans[mark:])
    print("self time of the traced round by span:")
    for name, e in sorted(round_spans.items(), key=lambda item: -item[1]["self_s"]):
        show(name, e["self_s"], "s", f"{e['calls']} calls")
    show("(outside any span)", traced.run_s - sum(e["self_s"] for e in round_spans.values()), "s")
    if tracer.missing:
        print("missing wrap targets: " + ", ".join(tracer.missing))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"run.py: cannot import spregimes: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    env = environment()
    cls = WORKLOADS[args.workload]
    data_seed = cls.default_data_seed if args.data_seed is None else args.data_seed
    inputs = f"{cls.name} data_seed={data_seed} solver_seed={args.solver_seed}"
    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{cls.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = cls(work_dir, data_seed, args.solver_seed)
        if args.trace:
            tracer = Tracer()
            state, setup_s, untraced, traced, mark = measure_traced(workload, tracer)
            rounds = [untraced, traced]
        else:
            state, setups, rounds = measure(workload, args.seconds)
        instances = workload.instances(state)
        probe_instances, probe_solves = workload.probe(args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    verdicts, problems, attempted = judge(rounds, instances, probe_solves, probe_instances)
    failed = len({key for key, _ in problems})
    if any(round_.files != rounds[0].files for round_ in rounds):
        problems.append(("files", "a later round wrote other files than round 1"))
    current = fingerprints(rounds[0])
    checked, changed = compare_golden(inputs, current)
    if args.update_golden and not problems:
        update_golden(inputs, current)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    print(f"workload {inputs} probe_seed={args.seed} rounds={len(rounds)} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, text in problems[:SHOWN_PROBLEMS]:
        print(f"  FAILED {key}: {text}")
    if args.trace:
        metrics = per_layer(tracer, setup_s, untraced, traced, mark)
        metrics["solvers.fingerprint_changed"] = (changed, "count")
        metrics["solvers.fingerprint_checked"] = (checked, "count")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{cls.name}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path, {"inputs": inputs, "env": env, "missing": tracer.missing,
                                  "traced_from": mark})
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(cls, setups, rounds, verdicts)
    show("failed_frac", failed / attempted, "ratio", f"({failed}/{attempted})")
    show("solvers.fingerprint_changed", changed, "count", f"({checked} checked)")

    def number(value):
        return None if value is None or not np.isfinite(value) else value

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
