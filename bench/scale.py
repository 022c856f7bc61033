#!/usr/bin/env python3
"""Solve times at scale: the working tree against a base commit, solve by solve.

Run from the root of a checkout:

    python3 bench/scale.py --base HEAD --out BENCH.json

Each solver runs on 25x25, 40x40, 60x60 and 80x80 grids (``--sizes``) at
fixed settings: rectangular scheme, sigma 0.1, data seed 101; p=5,
min_obs=10, K=20, solver seed 7. For every (solver, size) both sides run in
their own subprocess, BLAS pinned to one thread, and time ``--repeats``
solves in CPU seconds, one repeat at a time: each repeat runs one solve on
each side, and the side that goes first alternates from one repeat to the
next. Each worker first runs one untimed solve, so that no timed repeat
pays the process's first calls into numpy and the package. A side
reports every time, their median, the iterations and the stop reason.
The base side imports the package from ``git archive <base>``
unpacked into a temporary directory, so no network and no extra worktree
are needed; the change side imports ``src/`` of this checkout.

Both sides must give the same SSR ``repr`` and assignment sha1 in every
repeat; the report marks each case ``identical``. The JSON written to
``--out`` holds the settings, the machine and every time. Each case gives
the change/base ratio of the medians (``ratio``), each repeat's pair ratio
(``pair_ratios``), their median (``pair_ratio_median``), their quartiles
(``pair_ratio_quartiles``, interpolated between the smallest and largest
ratio) and how many pairs the change won, with a ratio below 1
(``pairs_won``); the report prints the last two as well. ``slopes`` gives,
per solver and side, the least-squares slope of log median CPU seconds on
log units. On a shared machine that drifts in speed, compare pair ratios,
not raw times.

``--repeats`` below 1 and sizes below 10 exit with status 2: the data's
five stripes of ``size // 5`` rows hold fewer than the generator's 10 units
each on a smaller grid (and under 8x8 the grid holds neither p * min_obs =
50 units nor K(m+1) = 60).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVERS = ("kmodels", "azp", "rkm")
SETTINGS = {"scheme": "rectangular", "sigma": 0.1, "data_seed": 101,
            "p": 5, "min_obs": 10, "K": 20, "seed": 7}
# the smallest grid side whose five data stripes hold 10 units each
MIN_SIZE = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def serve(src: str, solver: str, size: int):
    """Run one solve per line read from stdin; print its time and fingerprint."""
    import hashlib
    import time

    sys.path.insert(0, src)
    import numpy as np
    from spregimes import SolverConfig, build_grid_graph, generate_suite
    from spregimes.solvers import SOLVERS as table
    from spregimes.synthgen import SimulationSpec

    spec = SimulationSpec(rows=size, cols=size, scheme=SETTINGS["scheme"],
                          sigma=SETTINGS["sigma"], seed=SETTINGS["data_seed"])
    dataset = generate_suite(spec, 1)[0].dataset
    graph = build_grid_graph(size, size)
    config = SolverConfig(p=SETTINGS["p"], min_obs=SETTINGS["min_obs"], K=SETTINGS["K"],
                          seed=SETTINGS["seed"])
    table[solver](dataset, graph, config)  # untimed warm-up
    for _ in sys.stdin:
        start = time.process_time()
        result = table[solver](dataset, graph, config)
        cpu_s = time.process_time() - start
        labels = np.ascontiguousarray(result.partition.assignment, dtype=np.int64)
        print(json.dumps({"cpu_s": cpu_s, "iterations": result.iterations_used,
                          "stop_reason": getattr(result, "stop_reason", None),
                          "ssr": repr(result.total_ssr),
                          "sha1": hashlib.sha1(labels.tobytes()).hexdigest()}), flush=True)


class Side:
    """One worker subprocess that solves on request."""

    def __init__(self, src: Path, solver: str, size: int):
        env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker", str(src),
                                      "--solver", solver, "--sizes", str(size)],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.solves = []

    def solve(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with status {self.proc.wait()}")
        self.solves.append(json.loads(line))
        return self.solves[-1]["cpu_s"]

    def close(self) -> dict:
        self.proc.stdin.close()
        self.proc.wait()
        times = [solve["cpu_s"] for solve in self.solves]
        last = self.solves[-1]
        return {"cpu_s": times, "median_s": statistics.median(times),
                **{key: last[key] for key in ("iterations", "stop_reason", "ssr", "sha1")}}


def run_case(sources: dict, solver: str, size: int, repeats: int, index: int) -> dict:
    """Time both sides repeat by repeat, alternating which side goes first."""
    sides = {name: Side(src, solver, size) for name, src in sources.items()}
    ratios = []
    try:
        for repeat in range(repeats):
            order = ("base", "change") if (index + repeat) % 2 == 0 else ("change", "base")
            times = {name: sides[name].solve() for name in order}
            ratios.append(times["change"] / times["base"])
    except BaseException:
        for side in sides.values():
            side.proc.kill()
        raise
    prints = {(solve["ssr"], solve["sha1"]) for side in sides.values() for solve in side.solves}
    base, change = sides["base"].close(), sides["change"].close()
    return {"solver": solver, "size": size, "first": "base" if index % 2 == 0 else "change",
            "ratio": change["median_s"] / base["median_s"],
            "pair_ratios": ratios, "pair_ratio_median": statistics.median(ratios),
            "pair_ratio_quartiles": quartiles(ratios),
            "pairs_won": sum(ratio < 1.0 for ratio in ratios),
            "identical": len(prints) == 1, "base": base, "change": change}


def quartiles(values: list) -> list:
    """First, second and third quartile of ``values``, all three the value if only one."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def slopes(cases: list) -> dict:
    """Per solver and side, the least-squares slope of log median CPU-s on log units."""
    out = {}
    for solver in dict.fromkeys(case["solver"] for case in cases):
        mine = [case for case in cases if case["solver"] == solver]
        if len({case["size"] for case in mine}) < 2:
            continue
        logs = [2 * math.log(case["size"]) for case in mine]
        out[solver] = {side: statistics.linear_regression(
            logs, [math.log(case[side]["median_s"]) for case in mine]).slope
            for side in ("base", "change")}
    return out


def export(rev: str, into: Path) -> str:
    """Unpack ``git archive rev`` into ``into``; return the full commit id."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = into / "base.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive), sha, "src"],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    return sha


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--solvers", nargs="+", choices=SOLVERS, default=list(SOLVERS))
    parser.add_argument("--sizes", nargs="+", type=int, default=[25, 40, 60, 80])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--solver", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    if min(args.sizes) < MIN_SIZE:
        parser.error(f"--sizes must be at least {MIN_SIZE}, got {min(args.sizes)}")
    if args.worker:
        serve(args.worker, args.solver, args.sizes[0])
        return

    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        base_sha = export(args.base, Path(tmp))
        sources = {"base": Path(tmp) / "src", "change": ROOT / "src"}
        for index, (solver, size) in enumerate((s, n) for s in args.solvers
                                               for n in args.sizes):
            case = run_case(sources, solver, size, args.repeats, index)
            cases.append(case)
            base, change = case["base"], case["change"]
            print(f"{solver:8s} {size}x{size}: base {base['median_s']:.3f} s, change "
                  f"{change['median_s']:.3f} s, ratio {case['ratio']:.2f}, pair-ratio quartiles "
                  f"{'/'.join(f'{q:.2f}' for q in case['pair_ratio_quartiles'])}, change won "
                  f"{case['pairs_won']} of {args.repeats}, iterations "
                  f"{change['iterations']} ({change['stop_reason']}), "
                  f"{'identical' if case['identical'] else 'OUTPUTS DIFFER'}", flush=True)
    fitted = slopes(cases)
    for solver, pair in fitted.items():
        print(f"{solver:8s} log-log slope: base {pair['base']:.2f}, "
              f"change {pair['change']:.2f}")
    import numpy as np

    report = {"settings": SETTINGS, "repeats": args.repeats, "base": base_sha,
              "machine": {"python": platform.python_version(), "numpy": np.__version__,
                          "cpus": os.cpu_count(), "platform": platform.platform()},
              "cases": cases, "slopes": fitted}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if not all(case["identical"] for case in cases):
        sys.exit(1)


if __name__ == "__main__":
    main()
