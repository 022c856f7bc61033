"""Golden fingerprints: exact outputs of each solver on small fixed cases.

Every case pins ``repr(total_ssr)`` and the sha1 of the int64 assignment
bytes. A change that claims to leave solver output bit-identical must pass
this file unmodified; a change that alters output on purpose updates the
pins and says why. The K-Models cases start the merge stage from many
undersized split components, so the merge stage performs 60 to 414 merges.
The capped cases stop AZP and Regional-K-Models at ``max_iter`` long before
they converge, which pins the iteration-cap stop path as well. The fallback
cases send every AZP SSR test through the full refits of
``_LocalSearch.refit_delta``, either by a rank-one test that always breaks
down or by degenerate models.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from spregimes import (
    Dataset,
    NumericalBreakdownError,
    SolverConfig,
    build_grid_graph,
    build_knn_graph,
    solve_azp,
    solve_kmodels,
    solve_regional_kmodels,
)
from spregimes import solvers
from spregimes.synthgen import SimulationSpec, generate_suite


def knn_case(seed, n, regions, k):
    """Points in a 100x100 square split into nearest-centre regimes."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2)) * 100.0
    centers = points[rng.choice(n, regions, replace=False)]
    region = np.argmin(((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
    pool = np.linspace(-2.0, 2.0, regions)
    b1, b2 = rng.permutation(pool), rng.permutation(pool)
    x = rng.random((n, 2))
    y = b1[region] * x[:, 0] + b2[region] * x[:, 1] + rng.normal(0.0, 0.1, n)
    return Dataset(X=x, y=y, coords=points), build_knn_graph(points, k)


def grid_case(rows, cols, scheme, sim_seed):
    spec = SimulationSpec(rows=rows, cols=cols, scheme=scheme, sigma=0.1, seed=sim_seed)
    return generate_suite(spec, 1)[0].dataset, build_grid_graph(rows, cols)


# name: (solver, case factory, config, repr(total_ssr), sha1 of int64 assignment)
GOLDEN = {
    "kmodels-rect25": (
        solve_kmodels, lambda: grid_case(25, 25, "rectangular", 101),
        SolverConfig(p=5, min_obs=10, K=20, seed=7),
        "11.11392283884379", "7084c4815c8f2a00ba748948615bf765ad65ee4e",
    ),
    "kmodels-knn400": (
        solve_kmodels, lambda: knn_case(31, 400, 3, 10),
        SolverConfig(p=3, min_obs=20, K=6, seed=5),
        "3.816085588375446", "19f17aaed94613221d2a97289732f7b633b21d3e",
    ),
    "kmodels-voronoi20": (
        solve_kmodels, lambda: grid_case(20, 20, "voronoi", 17),
        SolverConfig(p=4, min_obs=12, K=16, seed=3),
        "17.099463942691848", "715b75ae45d54a73118dba4c78538882f4680d14",
    ),
    "azp-rect15": (
        solve_azp, lambda: grid_case(15, 15, "rectangular", 101),
        SolverConfig(p=5, min_obs=10, seed=7),
        "44.803243409829456", "7f9ed5b7d08a9c0a62dc859d86fe97f6365fb428",
    ),
    "azp-voronoi12": (
        solve_azp, lambda: grid_case(12, 12, "voronoi", 17),
        SolverConfig(p=3, min_obs=8, seed=2),
        "59.07475115485316", "b1a6a9c80d793b0f4556917017d0a898c4fe94f3",
    ),
    "rkm-rect15": (
        solve_regional_kmodels, lambda: grid_case(15, 15, "rectangular", 101),
        SolverConfig(p=5, min_obs=10, seed=7),
        "41.55281704044164", "d85e90c9693e9e44a7d2bb86aec165c60528eaf9",
    ),
    "rkm-voronoi12": (
        solve_regional_kmodels, lambda: grid_case(12, 12, "voronoi", 17),
        SolverConfig(p=3, min_obs=8, seed=2),
        "74.18904734597419", "9f09c033ed61ccf0549f09aa6a351a66ac2c1689",
    ),
}


def fingerprint(result):
    labels = np.ascontiguousarray(result.partition.assignment, dtype=np.int64)
    return repr(result.total_ssr), hashlib.sha1(labels.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name):
    solver, build, config, ssr_repr, labels_sha1 = GOLDEN[name]
    dataset, graph = build()
    assert fingerprint(solver(dataset, graph, config)) == (ssr_repr, labels_sha1)


# capped local searches: the same fields as GOLDEN; each stops at max_iter
CAPPED = {
    "azp-rect25-cap3": (
        solve_azp, lambda: grid_case(25, 25, "rectangular", 101),
        SolverConfig(p=5, min_obs=10, seed=7, max_iter=3),
        "335.0670608701206", "389d68fb9d66c3443bab4a2e3d124076baea38c9",
    ),
    "rkm-rect25-cap3": (
        solve_regional_kmodels, lambda: grid_case(25, 25, "rectangular", 101),
        SolverConfig(p=5, min_obs=10, seed=7, max_iter=3),
        "338.8082077093535", "b7fd92ef34a8ec8b43e2f19c79a5961220420d8d",
    ),
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_capped_golden_fingerprint(name):
    solver, build, config, ssr_repr, labels_sha1 = CAPPED[name]
    dataset, graph = build()
    result = solver(dataset, graph, config)
    assert fingerprint(result) == (ssr_repr, labels_sha1)
    assert result.iterations_used == config.max_iter
    assert len(result.trace) == config.max_iter + 1


def breakdown(*args):
    raise NumericalBreakdownError("forced rank-one breakdown")


def test_refit_fallback_golden_fingerprint(monkeypatch):
    monkeypatch.setattr(solvers, "ssr_increase_if_added", breakdown)
    dataset, graph = grid_case(15, 15, "rectangular", 101)
    result = solve_azp(dataset, graph, SolverConfig(p=5, min_obs=10, seed=7))
    assert fingerprint(result) == ("44.803243409829456",
                                   "7f9ed5b7d08a9c0a62dc859d86fe97f6365fb428")


# name: (solver, config, repr(total_ssr), sha1 of int64 assignment) on the
# 15x15 case with its first covariate in both columns, so every fit is
# degenerate and every K-Models merge-stage union has a singular Gram
LOCAL_DUP = SolverConfig(p=5, min_obs=10, seed=7)
DEGENERATE = {
    "azp-rect15-dup": (partial(solve_azp, check_invariants=True), LOCAL_DUP,
                       "51.4464539545476", "8d3e85c5d470f5ccc19a3f1870e9a0cd3327e394"),
    "rkm-rect15-dup": (partial(solve_regional_kmodels, check_invariants=True), LOCAL_DUP,
                       "56.58431988003274", "b9df37a40300f21d2d0f8b01bda723b48118c052"),
    "kmodels-rect15-dup": (solve_kmodels, SolverConfig(p=5, min_obs=10, K=20, seed=7),
                           "41.91416532534024", "8e1b8856f26e82d4c7ba192d9bf314b470cec424"),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_golden_fingerprint(name):
    solver, config, ssr_repr, labels_sha1 = DEGENERATE[name]
    dataset, graph = grid_case(15, 15, "rectangular", 101)
    x1 = dataset.X[:, 0]
    dataset = Dataset(X=np.column_stack((x1, x1)), y=dataset.y)
    result = solver(dataset, graph, config)
    assert all(model.degenerate for model in result.models)
    assert fingerprint(result) == (ssr_repr, labels_sha1)
