"""File formats: dataset CSV, suite layout, result JSON, run manifests.

Every CSV goes through ``write_csv`` and ``read_csv``. All floats are
written with shortest round-trip repr so that reruns with the same seed
produce byte-identical files. Times and timestamps live only in
manifests, which are exempt from that guarantee.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, fields
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
    "write_csv",
    "read_csv",
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


class _LineFeedRows:
    """Write end of a ``csv.writer`` that ends each row with ``"\\n"``.

    The writer runs with the terminator ``"\\r\\n"``: before Python 3.13,
    minimal quoting quotes a lone ``"\\r"`` only when the terminator holds
    it. Each row then loses its ``"\\r"`` here, so every Python version
    writes the bytes that 3.13 writes with ``"\\n"``.
    """

    def __init__(self, fh):
        self.fh = fh

    def write(self, row: str):
        return self.fh.write(row[:-2] + "\n")


def write_csv(path, header, rows):
    """Write a header line and rows as RFC 4180 CSV in UTF-8, one line per row.

    A field that holds a comma, a quote, a line feed or a carriage return
    is quoted. Floats are written as their shortest round-trip repr, so
    pass Python floats (``ndarray.tolist()``), never numpy scalars.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(_LineFeedRows(fh), lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV file, skipping blank lines.

    Raises ValueError naming the file when it is empty, has no data rows,
    or has a row whose field count differs from the header's.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = []
        try:
            header = next((row for row in reader if row), None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            for row in reader:
                if len(row) == len(header):
                    rows.append(row)
                elif row:
                    raise ValueError(f"{path}: line {reader.line_num} has {len(row)} "
                                     f"fields but the header has {len(header)}")
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, rows


def load_dataset_csv(path) -> Dataset:
    """Read a dataset CSV: optional ``id``/coordinate columns, covariates,
    and a ``y`` response column."""
    header, rows = read_csv(path)
    if RESPONSE_COLUMN not in header:
        raise ValueError(f"{path}: no '{RESPONSE_COLUMN}' column")
    covariate_cols = [
        name for name in header
        if name not in (ID_COLUMN, RESPONSE_COLUMN) and name not in COORD_COLUMNS
    ]
    if not covariate_cols:
        raise ValueError(f"{path}: no covariate columns")
    index = {name: header.index(name) for name in header}
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
    except ValueError as exc:
        raise ValueError(f"{path}: malformed data row ({exc})") from exc
    return Dataset(X=x, y=y, ids=ids, coords=coords)


def write_dataset_csv(path, dataset: Dataset, covariate_names: list[str] | None = None):
    names = covariate_names or [f"x{i + 1}" for i in range(dataset.m)]
    if len(names) != dataset.m:
        raise ValueError("one covariate name per column required")
    header = [ID_COLUMN]
    columns = [dataset.X, dataset.y[:, None]]
    if dataset.coords is not None:
        header += list(COORD_COLUMNS)
        columns.insert(0, dataset.coords)
    header += names + [RESPONSE_COLUMN]
    values = np.hstack(columns).tolist()
    write_csv(path, header, ([uid, *row] for uid, row in zip(dataset.unit_ids(), values)))


def _spec_from_dict(payload: dict) -> SimulationSpec:
    """Inverse of ``asdict`` on a spec; every field must be present."""
    missing = [f.name for f in fields(SimulationSpec) if f.name not in payload]
    if missing:
        raise KeyError(f"spec lacks {missing}")
    return SimulationSpec(**{**payload, "coefficient_pool": tuple(payload["coefficient_pool"])})


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
        "spec": asdict(spec),
        "count": len(truths),
    })
    for i, truth in enumerate(truths):
        sim_dir = suite_dir / f"sim_{i:03d}"
        sim_dir.mkdir(exist_ok=True)
        write_dataset_csv(sim_dir / "data.csv", truth.dataset)
        partition = truth.true_partition
        write_assignments_csv(sim_dir / "true_partition.csv", partition, range(partition.n))
        coefficients = np.asarray(truth.true_coefficients, dtype=float)
        write_csv(sim_dir / "true_coefficients.csv",
                  ["region"] + [f"b{c}" for c in range(coefficients.shape[1])],
                  ([region, *row] for region, row in enumerate(coefficients.tolist())))
        _write_json(sim_dir / "manifest.json", {
            "schema_version": SCHEMA_VERSION,
            "kind": "simulation",
            "spec": asdict(spec),
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


def load_simulation(sim_dir):
    """Load one simulation directory back into (GroundTruth, manifest).

    Raises ValueError naming the file for a missing key, an empty CSV, a
    ragged row, a wrongly typed field or region labels that are not dense
    in 0..p-1.
    """
    sim_dir = Path(sim_dir)
    path = sim_dir / "manifest.json"
    with open(path, "r", encoding="utf-8") as fh, _fields_of(path):
        manifest = json.load(fh)
        spec = _spec_from_dict(manifest["spec"])
    dataset = load_dataset_csv(sim_dir / "data.csv")
    path = sim_dir / "true_partition.csv"
    header, rows = read_csv(path)
    with _fields_of(path):
        column = header.index("region")
        labels = [int(row[column]) for row in rows]
    if len(labels) != dataset.n:
        raise ValueError(f"{sim_dir}: partition covers {len(labels)} of {dataset.n} units")
    with _fields_of(path):
        partition = Partition(np.asarray(labels))
    path = sim_dir / "true_coefficients.csv"
    header, rows = read_csv(path)
    with _fields_of(path):
        columns = [header.index(f"b{c}") for c in range(len(header) - 1)]  # all but "region"
        coefficients = np.array([[float(row[c]) for c in columns] for row in rows])
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


def _run_summary(result: SolveResult) -> dict:
    return {
        "seed": result.seed,
        "total_ssr": result.total_ssr,
        "iterations": result.iterations_used,
        "wall_time_sec": result.wall_time,
    }


def solve_result_to_dict(result: SolveResult, unit_ids: list[str],
                         standardized: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "standardized": standardized,
        **_run_summary(result),
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
        payload["runs"] = [_run_summary(run) for run in runs]
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


def write_assignments_csv(path, partition: Partition, unit_ids):
    """Write one ``unit,region`` row per unit, in unit order."""
    write_csv(path, ("unit", "region"), zip(unit_ids, partition.assignment.tolist()))
