#!/usr/bin/env python3
"""Solve times at scale: the working tree against a base commit, solve by solve.

Run from the root of a checkout:

    python3 bench/scale.py --base HEAD --out BENCH.json

Each solver runs on 25x25, 40x40 and 60x60 grids (``--sizes``) at fixed
settings: rectangular scheme, sigma 0.1, data seed 101; p=5, min_obs=10,
K=20, solver seed 7. For every (solver, size) both sides run in their own
subprocess, BLAS pinned to one thread, and the side that runs first
alternates from one solve to the next. A side times ``--repeats`` solves in
CPU seconds and reports their median, the iterations and the stop reason.
The base side imports the package from ``git archive <base>`` unpacked into a
temporary directory, so no network and no extra worktree are needed; the
change side imports ``src/`` of this checkout.

Both sides must give the same SSR ``repr`` and assignment sha1; the report
marks each case ``identical``. The JSON written to ``--out`` holds the
settings, the machine, every time and the change/base ratio of the medians.
On a shared machine that drifts in speed, compare ratios, not raw times.
"""

from __future__ import annotations

import argparse
import json
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
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def measure(src: str, solver: str, size: int, repeats: int) -> dict:
    """Median CPU time of ``repeats`` solves, with the fingerprint of the last."""
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
    times = []
    for _ in range(repeats):
        start = time.process_time()
        result = table[solver](dataset, graph, config)
        times.append(time.process_time() - start)
    labels = np.ascontiguousarray(result.partition.assignment, dtype=np.int64)
    return {"cpu_s": times, "median_s": statistics.median(times),
            "iterations": result.iterations_used,
            "stop_reason": getattr(result, "stop_reason", None),
            "ssr": repr(result.total_ssr),
            "sha1": hashlib.sha1(labels.tobytes()).hexdigest()}


def run_side(src: Path, solver: str, size: int, repeats: int) -> dict:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, __file__, "--worker", str(src), "--solver", solver,
                          "--sizes", str(size), "--repeats", str(repeats)],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


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
    parser.add_argument("--sizes", nargs="+", type=int, default=[25, 40, 60])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--solver", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.worker, args.solver, args.sizes[0], args.repeats)))
        return

    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        base_sha = export(args.base, Path(tmp))
        sides = {"base": Path(tmp) / "src", "change": ROOT / "src"}
        for index, (solver, size) in enumerate((s, n) for s in args.solvers
                                               for n in args.sizes):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            runs = {side: run_side(sides[side], solver, size, args.repeats) for side in order}
            base, change = runs["base"], runs["change"]
            case = {"solver": solver, "size": size, "first": order[0],
                    "ratio": change["median_s"] / base["median_s"],
                    "identical": (base["ssr"], base["sha1"]) == (change["ssr"], change["sha1"]),
                    "base": base, "change": change}
            cases.append(case)
            print(f"{solver:8s} {size}x{size}: base {base['median_s']:.3f} s, change "
                  f"{change['median_s']:.3f} s, ratio {case['ratio']:.2f}, iterations "
                  f"{change['iterations']} ({change['stop_reason']}), "
                  f"{'identical' if case['identical'] else 'OUTPUTS DIFFER'}", flush=True)
    import numpy as np

    report = {"settings": SETTINGS, "repeats": args.repeats, "base": base_sha,
              "machine": {"python": platform.python_version(), "numpy": np.__version__,
                          "cpus": os.cpu_count(), "platform": platform.platform()},
              "cases": cases}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if not all(case["identical"] for case in cases):
        sys.exit(1)


if __name__ == "__main__":
    main()
