"""File formats: dataset CSV, suite layout, result JSON, run manifests.

All floats are written with shortest round-trip repr so that reruns with
the same seed produce byte-identical files. Times and timestamps live
only in manifests, which are exempt from that guarantee.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .graph import Partition
from .linreg import Dataset, RegionModel
from .metrics import EvaluationReport
from .result import SolveResult
from .synthgen import GroundTruth, SimulationSpec

__all__ = [
    "SCHEMA_VERSION",
    "load_dataset_csv",
    "write_dataset_csv",
    "write_suite",
    "load_simulation",
    "list_simulations",
    "write_solve_result",
    "load_solve_result",
    "write_eval_report",
    "build_manifest",
]

SCHEMA_VERSION = 1

# column names with fixed meaning in dataset CSVs
ID_COLUMN = "id"
COORD_COLUMNS = ("x_coord", "y_coord")
RESPONSE_COLUMN = "y"


def _fmt(value: float) -> str:
    return repr(float(value))


def load_dataset_csv(path) -> Dataset:
    """Read a dataset CSV: optional ``id``/coordinate columns, covariates,
    and a ``y`` response column."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        rows = [row for row in reader if row]
    if RESPONSE_COLUMN not in header:
        raise ValueError(f"{path}: no '{RESPONSE_COLUMN}' column")
    covariate_cols = [
        name for name in header
        if name not in (ID_COLUMN, RESPONSE_COLUMN) and name not in COORD_COLUMNS
    ]
    if not covariate_cols:
        raise ValueError(f"{path}: no covariate columns")
    index = {name: header.index(name) for name in header}
    n = len(rows)
    if n == 0:
        raise ValueError(f"{path}: no data rows")
    ids = [row[index[ID_COLUMN]] for row in rows] if ID_COLUMN in header else None
    try:
        x = np.array(
            [[float(row[index[c]]) for c in covariate_cols] for row in rows]
        )
        y = np.array([float(row[index[RESPONSE_COLUMN]]) for row in rows])
        coords = None
        if all(c in header for c in COORD_COLUMNS):
            coords = np.array(
                [[float(row[index[c]]) for c in COORD_COLUMNS] for row in rows]
            )
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: malformed data row ({exc})") from exc
    return Dataset(X=x, y=y, ids=ids, coords=coords)


def write_dataset_csv(path, dataset: Dataset, covariate_names: list[str] | None = None):
    names = covariate_names or [f"x{i + 1}" for i in range(dataset.m)]
    if len(names) != dataset.m:
        raise ValueError("one covariate name per column required")
    header = [ID_COLUMN]
    if dataset.coords is not None:
        header += list(COORD_COLUMNS)
    header += names + [RESPONSE_COLUMN]
    ids = dataset.unit_ids()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(dataset.n):
            row = [ids[i]]
            if dataset.coords is not None:
                row += [_fmt(dataset.coords[i, 0]), _fmt(dataset.coords[i, 1])]
            row += [_fmt(v) for v in dataset.X[i]] + [_fmt(dataset.y[i])]
            fh.write(",".join(row) + "\n")


def _spec_to_dict(spec: SimulationSpec) -> dict:
    return {
        "rows": spec.rows,
        "cols": spec.cols,
        "scheme": spec.scheme,
        "region_count": spec.region_count,
        "min_region_units": spec.min_region_units,
        "sigma": spec.sigma,
        "coefficient_pool": list(spec.coefficient_pool),
        "seed": spec.seed,
    }


def _spec_from_dict(payload: dict) -> SimulationSpec:
    return SimulationSpec(
        rows=payload["rows"],
        cols=payload["cols"],
        scheme=payload["scheme"],
        region_count=payload["region_count"],
        min_region_units=payload["min_region_units"],
        sigma=payload["sigma"],
        coefficient_pool=tuple(payload["coefficient_pool"]),
        seed=payload["seed"],
    )


def _write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_suite(suite_dir, spec: SimulationSpec, truths: list[GroundTruth]):
    """Write one directory per simulation plus a suite-level manifest.

    Each simulation directory holds data.csv, true_partition.csv,
    true_coefficients.csv (columns region, b0, ..., bm), and a
    manifest.json recording the spec, the simulation index, and the grid
    adjacency declaration.
    """
    suite_dir = Path(suite_dir)
    suite_dir.mkdir(parents=True, exist_ok=True)
    _write_json(suite_dir / "manifest.json", {
        "schema_version": SCHEMA_VERSION,
        "kind": "suite",
        "spec": _spec_to_dict(spec),
        "count": len(truths),
    })
    for i, truth in enumerate(truths):
        sim_dir = suite_dir / f"sim_{i:03d}"
        sim_dir.mkdir(exist_ok=True)
        write_dataset_csv(sim_dir / "data.csv", truth.dataset)
        with open(sim_dir / "true_partition.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("unit,region\n")
            for unit, region in enumerate(truth.true_partition.assignment):
                fh.write(f"{unit},{int(region)}\n")
        with open(sim_dir / "true_coefficients.csv", "w", encoding="utf-8", newline="\n") as fh:
            width = truth.true_coefficients.shape[1]
            fh.write("region," + ",".join(f"b{c}" for c in range(width)) + "\n")
            for region, row in enumerate(truth.true_coefficients):
                fh.write(f"{region}," + ",".join(_fmt(v) for v in row) + "\n")
        _write_json(sim_dir / "manifest.json", {
            "schema_version": SCHEMA_VERSION,
            "kind": "simulation",
            "spec": _spec_to_dict(spec),
            "simulation_index": i,
            "adjacency": {"type": "grid", "rows": spec.rows, "cols": spec.cols},
        })


def list_simulations(suite_dir) -> list[Path]:
    dirs = sorted(Path(suite_dir).glob("sim_*"))
    if not dirs:
        raise ValueError(f"{suite_dir}: no sim_* directories")
    return dirs


@contextmanager
def _fields_of(path):
    """Raise a missing key or wrongly typed field of ``path`` as a ValueError naming it."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        kind = type(exc).__name__
        raise ValueError(f"{path}: missing or malformed field ({kind}: {exc})") from exc


def _csv_rows(path) -> tuple[list[str], list[dict]]:
    """Header and rows of a CSV with a header line and at least one row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    if header is None:
        raise ValueError(f"{path}: empty file")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, rows


def load_simulation(sim_dir):
    """Load one simulation directory back into (GroundTruth, manifest).

    Raises ValueError naming the file for a missing key, an empty CSV or a
    wrongly typed field.
    """
    sim_dir = Path(sim_dir)
    path = sim_dir / "manifest.json"
    with open(path, "r", encoding="utf-8") as fh, _fields_of(path):
        manifest = json.load(fh)
        spec = _spec_from_dict(manifest["spec"])
    dataset = load_dataset_csv(sim_dir / "data.csv")
    path = sim_dir / "true_partition.csv"
    _, rows = _csv_rows(path)
    with _fields_of(path):
        labels = [int(row["region"]) for row in rows]
    if len(labels) != dataset.n:
        raise ValueError(f"{sim_dir}: partition covers {len(labels)} of {dataset.n} units")
    path = sim_dir / "true_coefficients.csv"
    header, rows = _csv_rows(path)
    with _fields_of(path):
        names = [f"b{c}" for c in range(len(header) - 1)]  # all but "region"
        coefficients = np.array([[float(row[name]) for name in names] for row in rows])
    partition = Partition(np.asarray(labels), int(max(labels)) + 1)
    truth = GroundTruth(partition, coefficients, dataset)
    return truth, {"spec": spec, "manifest": manifest}


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build_manifest(argv: list[str], config_dict: dict, fingerprint: dict) -> dict:
    """Reproducibility record for one CLI invocation."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": list(argv),
        "config": config_dict,
        "dataset": fingerprint,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def solve_result_to_dict(result: SolveResult, unit_ids: list[str],
                         standardized: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "standardized": standardized,
        "seed": result.seed,
        "total_ssr": result.total_ssr,
        "iterations": result.iterations_used,
        "wall_time_sec": result.wall_time,
        "trace": list(result.trace),
        "assignments": {
            unit_ids[i]: int(label) for i, label in enumerate(result.partition.assignment)
        },
        "regions": [
            {
                "label": j,
                "size": int(size),
                "intercept": model.intercept,
                "coefficients": [float(c) for c in model.coefficients],
            }
            for j, (model, size) in enumerate(zip(result.models, result.partition.sizes()))
        ],
    }


def write_solve_result(path, result: SolveResult, unit_ids: list[str],
                       standardized: bool, manifest: dict | None = None,
                       runs: list[SolveResult] | None = None):
    payload = solve_result_to_dict(result, unit_ids, standardized)
    if runs is not None:
        payload["runs"] = [
            {
                "seed": run.seed,
                "total_ssr": run.total_ssr,
                "iterations": run.iterations_used,
                "wall_time_sec": run.wall_time,
            }
            for run in runs
        ]
    if manifest is not None:
        payload["manifest"] = manifest
    _write_json(path, payload)


def load_solve_result(path, unit_ids: list[str]) -> tuple[SolveResult, bool]:
    """Rebuild a result from its JSON for evaluation.

    Reloaded models carry coefficients only (no cached normal-equation
    state). Returns the result and whether the solve ran on standardized
    data. Raises ValueError naming the file for a missing key or a wrongly
    typed field.
    """
    with open(path, "r", encoding="utf-8") as fh, _fields_of(path):
        payload = json.load(fh)
        assignments = dict(payload["assignments"])
    if set(assignments) != set(unit_ids):
        raise ValueError(f"{path}: assignment unit ids do not match the dataset")
    with _fields_of(path):
        labels = np.array([int(assignments[u]) for u in unit_ids], dtype=np.int64)
        models = [
            RegionModel(
                beta=np.array([entry["intercept"], *entry["coefficients"]], dtype=float),
                gram_inv=None,
                xty=None,
                n_obs=int(entry["size"]),
            )
            for entry in payload["regions"]
        ]
        result = SolveResult(
            partition=Partition(labels, len(models)),
            models=models,
            total_ssr=float(payload["total_ssr"]),
            iterations_used=int(payload["iterations"]),
            seed=int(payload["seed"]),
            wall_time=float(payload["wall_time_sec"]),
            trace=[float(v) for v in payload["trace"]],
        )
    return result, bool(payload.get("standardized", False))


def write_eval_report(path, report: EvaluationReport):
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(report.to_dict())
    _write_json(path, payload)


def write_assignments_csv(path, result: SolveResult, unit_ids: list[str]):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("unit,region\n")
        for i, label in enumerate(result.partition.assignment):
            fh.write(f"{unit_ids[i]},{int(label)}\n")
