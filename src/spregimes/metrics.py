"""Evaluation of delineation results against known latent regions.

Region reconstruction is scored with the Rand index and normalized mutual
information, both invariant under region relabeling; coefficient recovery
with the per-unit mean absolute error; model fit with the total SSR.
Entropies use natural logarithms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .linreg import Scaler, region_ssr
from .result import SolveResult
from .synthgen import GroundTruth

__all__ = [
    "EvaluationReport",
    "rand_index",
    "entropy",
    "mutual_information",
    "nmi",
    "coefficient_mae",
    "evaluate",
]


def _labels(partition) -> list:
    """Accept a Partition, a label array, or a plain label sequence."""
    assignment = getattr(partition, "assignment", partition)
    if isinstance(assignment, np.ndarray):
        return assignment.tolist()
    return list(assignment)


def _contingency(truth, estimate) -> tuple[int, dict, dict, dict]:
    """Unit count, cell counts and row and column totals of two partitions.

    Totals are summed from the cells, so each dict keeps its labels in
    first-appearance order and every sum over it runs in that order.
    """
    a, b = _labels(truth), _labels(estimate)
    if len(a) != len(b):
        raise ValueError(f"partitions cover {len(a)} vs {len(b)} units")
    cells = Counter(zip(a, b))
    rows, cols = {}, {}
    for (x, y), c in cells.items():
        rows[x] = rows.get(x, 0) + c
        cols[y] = cols.get(y, 0) + c
    return len(a), cells, rows, cols


def _entropy(n: int, counts) -> float:
    return -sum(c / n * math.log(c / n) for c in counts)


def _mutual_information(n: int, cells: dict, rows: dict, cols: dict) -> float:
    return sum(
        c / n * math.log(n * c / (rows[x] * cols[y]))
        for (x, y), c in cells.items()
    )


def rand_index(truth, estimate) -> float:
    """Fraction of unit pairs grouped consistently by both partitions.

    A pair counts as consistent when it is co-assigned in both partitions
    (true positive) or separated in both (true negative); the index is
    (TP + TN) over all pairs and is invariant under label permutation.
    Pair counts come from the contingency table, so the arithmetic is
    exact integer work.
    """
    n, cells, rows, cols = _contingency(truth, estimate)
    total = n * (n - 1) // 2
    if total == 0:
        return 1.0
    tp = sum(c * (c - 1) for c in cells.values()) // 2
    same_truth = sum(c * (c - 1) for c in rows.values()) // 2
    same_est = sum(c * (c - 1) for c in cols.values()) // 2
    tn = total - same_truth - same_est + tp
    return (tp + tn) / total


def entropy(partition) -> float:
    """Shannon entropy of region sizes, in nats; 0 for a single region."""
    a = _labels(partition)
    return _entropy(len(a), Counter(a).values())


def mutual_information(truth, estimate) -> float:
    """Mutual information between two partitions, in nats.

    Empty intersections contribute nothing; the value is non-negative up
    to floating-point round-off.
    """
    return _mutual_information(*_contingency(truth, estimate))


def nmi(truth, estimate) -> float:
    """Normalized mutual information in [0, 1]; 1 for identical partitions.

    Normalizes by sqrt(H(truth) * H(estimate)), which keeps the value in
    [0, 1] and maps identical partitions to exactly 1. When either
    partition has zero entropy the result is 1 for identical partitions
    and 0 otherwise.
    """
    n, cells, rows, cols = _contingency(truth, estimate)
    h_truth, h_est = _entropy(n, rows.values()), _entropy(n, cols.values())
    if h_truth == 0.0 or h_est == 0.0:
        return 1.0 if h_truth == h_est else 0.0
    mi = _mutual_information(n, cells, rows, cols)
    return min(1.0, max(0.0, mi / math.sqrt(h_truth * h_est)))


def coefficient_mae(truth: GroundTruth, result: SolveResult,
                    true_coefficients: np.ndarray | None = None) -> np.ndarray:
    """Per-coefficient mean absolute error, averaged over units.

    Every unit contributes the absolute difference between the coefficient
    row of its estimated region and that of its true region; the result
    has one entry per coefficient, intercept first. ``true_coefficients``
    overrides the stored truth rows (used when the solve ran on
    standardized data).
    """
    true_part = _labels(truth.true_partition)
    est_part = _labels(result.partition)
    if len(true_part) != len(est_part):
        raise ValueError(f"partitions cover {len(true_part)} vs {len(est_part)} units")
    truth_rows = truth.true_coefficients if true_coefficients is None else true_coefficients
    est_rows = np.stack([model.beta for model in result.models])
    per_unit = np.abs(est_rows[est_part] - np.asarray(truth_rows)[true_part])
    return per_unit.mean(axis=0)


@dataclass
class EvaluationReport:
    """All evaluation metrics for one solve against one ground truth."""

    total_ssr: float
    rand_index: float
    nmi: float
    mae_per_coefficient: np.ndarray
    region_count: int
    runtime: float

    def to_dict(self) -> dict:
        return {
            "total_ssr": self.total_ssr,
            "rand_index": self.rand_index,
            "nmi": self.nmi,
            "mae_per_coefficient": [float(v) for v in self.mae_per_coefficient],
            "region_count": self.region_count,
            "runtime": self.runtime,
        }


def evaluate(truth: GroundTruth, result: SolveResult,
             scaler: Scaler | None = None) -> EvaluationReport:
    """Assemble the full evaluation report for one result.

    The SSR is recomputed on the truth's data. Pass the fitted ``scaler``
    when the solve ran on standardized data so the SSR is recomputed in
    the same space and the truth coefficients are transformed
    consistently.
    """
    dataset, true_rows = truth.dataset, None
    if scaler is not None:
        dataset = scaler.transform(dataset)
        true_rows = scaler.transform_coefficients(truth.true_coefficients)
    partition = result.partition
    total = float(
        sum(
            region_ssr(result.models[j], dataset, partition.members(j))
            for j in range(partition.p)
        )
    )
    return EvaluationReport(
        total_ssr=total,
        rand_index=rand_index(truth.true_partition, partition),
        nmi=nmi(truth.true_partition, partition),
        mae_per_coefficient=coefficient_mae(truth, result, true_coefficients=true_rows),
        region_count=partition.p,
        runtime=result.wall_time,
    )
