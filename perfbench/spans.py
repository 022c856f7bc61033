"""Spans around the calls one spregimes layer makes into another.

The wrappers are installed from the benchmark, on the module attributes
through which each call resolves, and removed afterwards; the package is
never edited. A function imported by name into several modules is wrapped in
each of them. A target that no longer exists is reported as missing and the
metrics built on it are left out.

Every time in the benchmark comes from ``clock``: CPU seconds of this process,
user plus system. The work is single threaded and waits on nothing but the
page cache, so on an unshared machine CPU time equals wall time; on a shared
virtual machine it leaves out the time the hypervisor gives the core to
others, which made wall time on knn20k spread three times wider between runs.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import process_time as clock

# (module, attribute, span name)
BOUNDARIES = (
    ("spregimes.synthgen", "generate_suite", "synthgen.generate"),
    ("spregimes.io", "write_suite", "io.write_suite"),
    ("spregimes.benchmark", "load_simulation", "io.load_simulation"),
    ("spregimes.graph", "build_grid_graph", "graph.build"),
    ("spregimes.graph", "build_knn_graph", "graph.build"),
    ("spregimes.synthgen", "build_grid_graph", "graph.build"),
    ("spregimes.benchmark", "build_grid_graph", "graph.build"),
    ("spregimes.solvers", "connected_components", "graph.connected_components"),
    ("spregimes.solvers", "fit_ols", "linreg.fit_ols"),
    ("spregimes.solvers", "region_ssr", "linreg.region_ssr"),
    ("spregimes.metrics", "region_ssr", "linreg.region_ssr"),
    ("spregimes.solvers", "ssr_increase_if_added", "linreg.rank_one"),
    ("spregimes.solvers", "ssr_decrease_if_removed", "linreg.rank_one"),
    ("spregimes.solvers", "grow_initial_partition", "solvers.init"),
    ("spregimes.solvers", "kmodels_partition_stage", "solvers.kmodels.partition"),
    ("spregimes.solvers", "kmodels_merge_stage", "solvers.kmodels.merge"),
    ("spregimes.metrics", "evaluate", "metrics.evaluate"),
    ("spregimes.benchmark", "evaluate", "metrics.evaluate"),
    ("spregimes.benchmark", "run_benchmark", "benchmark.run"),
    ("spregimes.benchmark", "write_benchmark_csvs", "benchmark.write_csvs"),
)
# every solve, from the workload or from run_benchmark, looks its solver up here
SOLVER_TABLE = ("spregimes.solvers", "SOLVERS")

LAYERS = ("synthgen", "graph", "linreg", "solvers", "metrics", "io", "benchmark")


def _solver_note(args, result):
    config = args[2]  # every solver takes (dataset, graph, config)
    return [result.iterations_used, int(result.iterations_used >= config.max_iter)]


def _count_note(args, result):
    return len(result)


NOTES = {"graph.connected_components": _count_note}


class Tracer:
    """Records spans as ``[id, parent, name, start, end, note]`` in memory.

    ``note`` is what the span's metrics need from the call: the exception
    name if it raised, the component count of a components call, and the
    iterations and cap flag of a solve.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                    clock(), 0.0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = clock()
                self._stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result
        return traced

    def note_missing(self, target: str):
        if target not in self.missing:
            self.missing.append(target)

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    restore = []
    for module_name, attr, name in BOUNDARIES:
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            tracer.note_missing(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(name, fn, NOTES.get(name)))
        restore.append(functools.partial(setattr, module, attr, fn))
    try:
        table = getattr(importlib.import_module(SOLVER_TABLE[0]), SOLVER_TABLE[1])
    except (ImportError, AttributeError):
        tracer.note_missing(".".join(SOLVER_TABLE))
        table = {}
    original = dict(table)
    for key, fn in original.items():
        table[key] = tracer.wrap(f"solvers.{key}", fn, _solver_note)
    try:
        yield tracer
    finally:
        table.update(original)
        for undo in reversed(restore):
            undo()


def aggregate(spans) -> dict[str, dict]:
    """Calls, seconds, self seconds and notes per span name.

    Self time is a span's duration minus the durations of its direct
    children, which run nested inside it on the one thread.
    """
    child_s: dict[int, float] = {}
    for _, parent, _, start, end, _ in spans:
        child_s[parent] = child_s.get(parent, 0.0) + end - start
    out: dict[str, dict] = {}
    for sid, _, name, start, end, note in spans:
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_s.get(sid, 0.0)
        if note is not None:
            entry["notes"].append(note)
    return out


def _sum_note(index):
    return lambda e: sum(note[index] for note in e["notes"] if isinstance(note, list))


def _raised(e):
    return sum(1 for note in e["notes"] if note == "NumericalBreakdownError")


# per-layer metric -> (span name, value from the aggregated entry, unit)
LAYER_METRICS = {
    "graph.build.s": ("graph.build", lambda e: e["s"], "s"),
    "graph.connected_components.calls": ("graph.connected_components", lambda e: e["calls"],
                                         "count"),
    "graph.connected_components.s": ("graph.connected_components", lambda e: e["s"], "s"),
    "graph.components": ("graph.connected_components", lambda e: sum(e["notes"]), "count"),
    "synthgen.generate.s": ("synthgen.generate", lambda e: e["s"], "s"),
    "io.write_suite.s": ("io.write_suite", lambda e: e["s"], "s"),
    "io.load_simulation.calls": ("io.load_simulation", lambda e: e["calls"], "count"),
    "io.load_simulation.s": ("io.load_simulation", lambda e: e["s"], "s"),
    "metrics.evaluate.calls": ("metrics.evaluate", lambda e: e["calls"], "count"),
    "metrics.evaluate.s": ("metrics.evaluate", lambda e: e["s"], "s"),
    "benchmark.write_csvs.s": ("benchmark.write_csvs", lambda e: e["s"], "s"),
    "linreg.fit_ols.calls": ("linreg.fit_ols", lambda e: e["calls"], "count"),
    "linreg.fit_ols.s": ("linreg.fit_ols", lambda e: e["s"], "s"),
    "linreg.region_ssr.calls": ("linreg.region_ssr", lambda e: e["calls"], "count"),
    "linreg.region_ssr.s": ("linreg.region_ssr", lambda e: e["s"], "s"),
    "linreg.rank_one.calls": ("linreg.rank_one", lambda e: e["calls"], "count"),
    "linreg.rank_one.s": ("linreg.rank_one", lambda e: e["s"], "s"),
    "linreg.rank_one.fallbacks": ("linreg.rank_one", _raised, "count"),
    "solvers.init.calls": ("solvers.init", lambda e: e["calls"], "count"),
    "solvers.init.s": ("solvers.init", lambda e: e["s"], "s"),
    "solvers.kmodels.partition.s": ("solvers.kmodels.partition", lambda e: e["s"], "s"),
    "solvers.kmodels.iterations": ("solvers.kmodels", _sum_note(0), "count"),
    "solvers.kmodels.merge.s": ("solvers.kmodels.merge", lambda e: e["s"], "s"),
    "solvers.kmodels.merge.self_s": ("solvers.kmodels.merge", lambda e: e["self_s"], "s"),
    "solvers.azp.self_s": ("solvers.azp", lambda e: e["self_s"], "s"),
    "solvers.azp.iterations": ("solvers.azp", _sum_note(0), "count"),
    "solvers.rkm.self_s": ("solvers.rkm", lambda e: e["self_s"], "s"),
    "solvers.rkm.iterations": ("solvers.rkm", _sum_note(0), "count"),
    "solvers.rkm.capped": ("solvers.rkm", _sum_note(1), "count"),
}

_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []}


def layer_metrics(spans, missing: list[str]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric whose span could be recorded, zero where no call happened."""
    agg = aggregate(spans)
    lost = {name for module, attr, name in BOUNDARIES if f"{module}.{attr}" in missing}
    if ".".join(SOLVER_TABLE) in missing:
        lost |= {"solvers.kmodels", "solvers.azp", "solvers.rkm"}
    out = {}
    for metric, (span, value, unit) in LAYER_METRICS.items():
        if span not in lost:
            out[metric] = (value(agg.get(span, _EMPTY)), unit)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(e["self_s"] for name, e in agg.items() if name.split(".")[0] == layer), "s")
    return out
