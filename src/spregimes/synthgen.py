"""Synthetic lattice benchmarks with strictly stratified process heterogeneity.

Data live on a regular grid partitioned into connected latent regions.
Within a region the response follows one linear model; coefficients
differ across regions, so the relationship between variables is
heterogeneous even though the covariates themselves are i.i.d. uniform
everywhere. Everything is a pure function of (spec, seed).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import InitializationFailedError, SchemeInfeasibleError
from .graph import (
    AdjacencyGraph,
    Partition,
    build_grid_graph,
    grow_initial_partition,
    is_connected_subset,
)
from .linreg import Dataset

__all__ = [
    "SimulationSpec",
    "GroundTruth",
    "generate_scheme",
    "assign_coefficients",
    "generate_data",
    "generate_ground_truth",
    "generate_suite",
]

SCHEME_KINDS = ("rectangular", "voronoi", "arbitrary")

# resample budget for random schemes that violate size or connectivity
SCHEME_RETRY_LIMIT = 1000


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of one synthetic suite.

    ``coefficient_pool`` supplies the distinct slope values; it is
    shuffled once per covariate so each region gets a unique (b1, b2)
    pair. Left unset it spans [-2, 2] evenly, which gives
    (-2, -1, 0, 1, 2) for five regions. The intercept is 0 in every
    region. A non-integer ``rows``, ``cols``, ``region_count``,
    ``min_region_units`` or ``seed`` raises ValueError naming the field;
    those fields are stored as Python ints.
    """

    rows: int = 25
    cols: int = 25
    scheme: str = "rectangular"
    region_count: int = 5
    min_region_units: int = 10
    sigma: float = 0.1
    coefficient_pool: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("rows", "cols", "region_count", "min_region_units", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.scheme not in SCHEME_KINDS:
            raise ValueError(f"scheme must be one of {SCHEME_KINDS}, got {self.scheme!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")
        if self.region_count < 1:
            raise ValueError("region_count must be >= 1")
        if self.min_region_units < 1:
            raise ValueError("min_region_units must be >= 1")
        if self.coefficient_pool is None:
            pool = np.linspace(-2.0, 2.0, self.region_count) if self.region_count > 1 else [2.0]
            object.__setattr__(self, "coefficient_pool", tuple(float(v) for v in pool))
        if len(self.coefficient_pool) != self.region_count:
            raise ValueError(
                "coefficient_pool must have exactly one value per region "
                f"({self.region_count}), got {len(self.coefficient_pool)}"
            )
        if self.min_region_units * self.region_count > self.rows * self.cols:
            raise ValueError("min_region_units * region_count exceeds the grid size")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    @property
    def n(self) -> int:
        return self.rows * self.cols

    def cell_centers(self) -> np.ndarray:
        """(n, 2) array of (col, row) coordinates, one per cell."""
        rows, cols = np.divmod(np.arange(self.n), self.cols)
        return np.column_stack([cols, rows]).astype(float)


@dataclass
class GroundTruth:
    """One simulation: latent regions, their coefficients, and the data.

    ``true_coefficients`` has one row per region: (b0, b1, ..., bm).
    """

    true_partition: Partition
    true_coefficients: np.ndarray
    dataset: Dataset


def _rectangular_scheme(spec: SimulationSpec) -> Partition:
    bands = np.array_split(np.arange(spec.rows), spec.region_count)
    if any(len(band) == 0 for band in bands):
        raise SchemeInfeasibleError(
            f"cannot split {spec.rows} rows into {spec.region_count} stripes"
        )
    row_label = np.empty(spec.rows, dtype=np.int64)
    for label, band in enumerate(bands):
        row_label[band] = label
    assignment = np.repeat(row_label, spec.cols)
    return Partition(assignment, spec.region_count)


def _voronoi_scheme(spec: SimulationSpec, graph: AdjacencyGraph,
                    rng: np.random.Generator) -> Partition:
    centers = spec.cell_centers()
    for _ in range(SCHEME_RETRY_LIMIT):
        seeds = rng.choice(spec.n, size=spec.region_count, replace=False)
        diff = centers[:, None, :] - centers[seeds][None, :, :]
        sq_dist = np.einsum("nkd,nkd->nk", diff, diff)
        assignment = np.argmin(sq_dist, axis=1)  # ties go to the lower seed index
        sizes = np.bincount(assignment, minlength=spec.region_count)
        if sizes.min() < spec.min_region_units:
            continue
        if all(
            is_connected_subset(graph, np.flatnonzero(assignment == j))
            for j in range(spec.region_count)
        ):
            return Partition(assignment, spec.region_count)
    raise SchemeInfeasibleError(
        f"no feasible voronoi scheme in {SCHEME_RETRY_LIMIT} attempts"
    )


def generate_scheme(spec: SimulationSpec, rng: np.random.Generator,
                    graph: AdjacencyGraph | None = None) -> Partition:
    """Latent region scheme of the requested kind.

    Rectangular schemes are deterministic horizontal stripes of (near)
    equal height. Voronoi schemes assign each cell to the nearest of
    ``region_count`` random seed cells and resample until every region is
    connected and large enough. Arbitrary schemes grow regions from random
    seeds exactly like the solvers' initializer.
    """
    if graph is None:
        graph = build_grid_graph(spec.rows, spec.cols)
    if spec.scheme == "rectangular":
        part = _rectangular_scheme(spec)
        sizes = part.sizes()
        if sizes.min() < spec.min_region_units:
            raise SchemeInfeasibleError("stripes fall below min_region_units")
        return part
    if spec.scheme == "voronoi":
        return _voronoi_scheme(spec, graph, rng)
    try:
        return grow_initial_partition(
            graph, spec.region_count, spec.min_region_units, rng,
            restart_limit=SCHEME_RETRY_LIMIT,
        )
    except InitializationFailedError as exc:
        raise SchemeInfeasibleError(str(exc)) from exc


def assign_coefficients(spec: SimulationSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-region coefficient rows (b0, b1, b2).

    The pool is shuffled independently for each covariate, so every pool
    value is used exactly once per coefficient; intercepts are all zero.
    """
    pool = np.asarray(spec.coefficient_pool, dtype=float)
    b1 = rng.permutation(pool)
    b2 = rng.permutation(pool)
    return np.column_stack([np.zeros(spec.region_count), b1, b2])


def generate_data(partition: Partition, coefficients: np.ndarray,
                  spec: SimulationSpec, rng: np.random.Generator) -> Dataset:
    """Draw covariates and responses for one simulation.

    x1, x2 are i.i.d. uniform on [0, 1); the response adds Gaussian noise
    with standard deviation ``spec.sigma`` to the regional linear signal.
    """
    n = partition.n
    x = rng.random((n, 2))
    noise = rng.normal(0.0, spec.sigma, size=n) if spec.sigma > 0 else np.zeros(n)
    per_unit = coefficients[partition.assignment]
    y = per_unit[:, 0] + per_unit[:, 1] * x[:, 0] + per_unit[:, 2] * x[:, 1] + noise
    return Dataset(X=x, y=y, coords=spec.cell_centers())


def generate_ground_truth(spec: SimulationSpec, simulation_index: int = 0,
                          graph: AdjacencyGraph | None = None,
                          shared_partition: Partition | None = None) -> GroundTruth:
    """One reproducible simulation, independent of all other indices."""
    rng = np.random.default_rng([spec.seed, simulation_index])
    if shared_partition is not None:
        partition = shared_partition
    else:
        partition = generate_scheme(spec, rng, graph)
    coefficients = assign_coefficients(spec, rng)
    dataset = generate_data(partition, coefficients, spec, rng)
    return GroundTruth(partition, coefficients, dataset)


def generate_suite(spec: SimulationSpec, n_simulations: int) -> list[GroundTruth]:
    """Independent simulations from one spec.

    Rectangular suites share the single deterministic stripe scheme across
    all simulations; voronoi and arbitrary suites draw a fresh scheme per
    simulation. Coefficients and data are always fresh.
    """
    if n_simulations < 1:
        raise ValueError("n_simulations must be >= 1")
    graph = build_grid_graph(spec.rows, spec.cols)
    shared = None
    if spec.scheme == "rectangular":
        shared = generate_scheme(spec, np.random.default_rng(spec.seed), graph)
    return [
        generate_ground_truth(spec, i, graph=graph, shared_partition=shared)
        for i in range(n_simulations)
    ]
