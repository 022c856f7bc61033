"""Golden fingerprints: exact outputs of each solver on small fixed cases.

Every case pins ``repr(total_ssr)`` and the sha1 of the int64 assignment
bytes. A change that claims to leave solver output bit-identical must pass
this file unmodified; a change that alters output on purpose updates the
pins and says why. The K-Models cases start the merge stage from many
undersized split components, so the merge stage performs 60 to 414 merges.
"""

import hashlib

import numpy as np
import pytest

from spregimes import (
    Dataset,
    SolverConfig,
    build_grid_graph,
    build_knn_graph,
    solve_azp,
    solve_kmodels,
    solve_regional_kmodels,
)
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
