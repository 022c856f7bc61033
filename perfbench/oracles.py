"""Checks of solver outputs that use no spregimes code.

Adjacency comes from grid arithmetic or ``scipy.spatial.cKDTree``, SSR from
``np.linalg.lstsq`` per region, and the Rand index and NMI from a numpy
contingency table, so that a change inside the package cannot make these
checks agree with it by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

# The program fits with the normal equations and the oracle with an SVD; on
# these well-conditioned inputs the two SSRs agree to better than 1e-14
# relative, and the margin leaves room for fits that sum in another order.
SSR_RTOL = 1e-8
# The same tolerance the acceptance tests allow a trace step to rise by.
TRACE_ATOL = 1e-9
# Rand index and NMI differ from the oracle only by summation order.
SCORE_ATOL = 1e-9


@dataclass
class Instance:
    """One solver input, with what the oracles need to judge its result."""

    X: np.ndarray
    y: np.ndarray
    truth: np.ndarray
    adjacency: sparse.csr_matrix
    p: int
    min_obs: int


def grid_adjacency(rows: int, cols: int) -> sparse.csr_matrix:
    """Rook adjacency of a rows x cols grid; cell (r, c) is unit r * cols + c."""
    index = np.arange(rows * cols).reshape(rows, cols)
    right = (index[:, :-1].ravel(), index[:, 1:].ravel())
    down = (index[:-1, :].ravel(), index[1:, :].ravel())
    return _symmetric(rows * cols, np.concatenate([right[0], down[0]]),
                      np.concatenate([right[1], down[1]]))


def knn_adjacency(points: np.ndarray, k: int) -> sparse.csr_matrix:
    """Union of every unit's k nearest neighbours (points are distinct)."""
    _, nearest = cKDTree(points).query(points, k=k + 1)
    rows = np.repeat(np.arange(len(points)), k)
    return _symmetric(len(points), rows, nearest[:, 1:].ravel())


def _symmetric(n: int, i: np.ndarray, j: np.ndarray) -> sparse.csr_matrix:
    ones = np.ones(2 * len(i), dtype=np.int8)
    matrix = sparse.coo_matrix((ones, (np.concatenate([i, j]), np.concatenate([j, i]))),
                               shape=(n, n)).tocsr()
    matrix.data[:] = 1
    return matrix


def lstsq_ssr(X: np.ndarray, y: np.ndarray, labels: np.ndarray) -> float:
    """Sum over regions of the least-squares SSR with an intercept."""
    total = 0.0
    for region in np.unique(labels):
        idx = np.flatnonzero(labels == region)
        design = np.column_stack([np.ones(len(idx)), X[idx]])
        beta = np.linalg.lstsq(design, y[idx], rcond=None)[0]
        resid = y[idx] - design @ beta
        total += float(resid @ resid)
    return total


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _pairs(counts: np.ndarray) -> int:
    return int((counts * (counts - 1) // 2).sum())


def rand_index(a: np.ndarray, b: np.ndarray) -> float:
    table = _contingency(a, b)
    n = int(table.sum())
    total = n * (n - 1) // 2
    agree = total - _pairs(table.sum(axis=1)) - _pairs(table.sum(axis=0)) + 2 * _pairs(table)
    return agree / total


def nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Mutual information over the geometric mean of the two entropies."""
    table = _contingency(a, b).astype(float)
    joint = table / table.sum()
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    ha, hb = -(pa * np.log(pa)).sum(), -(pb * np.log(pb)).sum()
    if ha == 0.0 or hb == 0.0:
        return 1.0 if ha == hb else 0.0
    nz = joint > 0
    mi = (joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])).sum()
    return float(min(1.0, max(0.0, mi / np.sqrt(ha * hb))))


def fingerprint(total_ssr: float, labels: np.ndarray) -> list[str]:
    """``repr`` of the SSR and sha1 of the int64 assignment."""
    digest = hashlib.sha1(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
    return [repr(float(total_ssr)), digest.hexdigest()]


def file_sha1(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


@dataclass
class Verdict:
    """Oracle scores of one solve and every check it failed."""

    ssr: float
    rand_index: float
    nmi: float
    problems: list[str]


def check_solve(instance: Instance, labels: np.ndarray, total_ssr: float,
                trace: list[float], reported: dict[str, float]) -> Verdict:
    """Judge one finished solve.

    ``reported`` holds the ``ssr``, ``rand_index`` and ``nmi`` the program's
    own evaluation gave for this solve.
    """
    labels = np.asarray(labels)
    problems = []
    if len(labels) != len(instance.y) or not np.array_equal(np.unique(labels),
                                                             np.arange(instance.p)):
        problems.append(f"labels are not exactly {instance.p} dense regions")
        return Verdict(float("nan"), float("nan"), float("nan"), problems)
    sizes = np.bincount(labels, minlength=instance.p)
    if sizes.min() < instance.min_obs:
        problems.append(f"region of {sizes.min()} units < min_obs={instance.min_obs}")
    for region in range(instance.p):
        idx = np.flatnonzero(labels == region)
        sub = instance.adjacency[idx][:, idx]
        if connected_components(sub, directed=False, return_labels=False) != 1:
            problems.append(f"region {region} is disconnected")
    steps = np.diff(np.asarray(trace, dtype=float))
    if len(steps) and steps.max() > TRACE_ATOL:
        problems.append(f"trace rises by {steps.max()!r}")
    ssr = lstsq_ssr(instance.X, instance.y, labels)
    ri = rand_index(instance.truth, labels)
    score = nmi(instance.truth, labels)
    for name, value in (("total_ssr", total_ssr), ("reported ssr", reported.get("ssr"))):
        if value is None or not abs(value - ssr) <= SSR_RTOL * abs(ssr):
            problems.append(f"{name} {value!r} != lstsq {ssr!r}")
    for name, oracle in (("rand_index", ri), ("nmi", score)):
        value = reported.get(name)
        if value is None or not abs(value - oracle) <= SCORE_ATOL:
            problems.append(f"reported {name} {value!r} != oracle {oracle!r}")
    return Verdict(ssr, ri, score, problems)
