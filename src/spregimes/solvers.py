"""Spatial-regime solvers: two-stage K-Models, AZP, and Regional-K-Models.

All three jointly optimize region membership and per-region linear models
by minimizing the total sum of squared residuals (SSR). They share a
random-growth initializer and a common result type. Runs are single
threaded, own all mutable state, and are bit-reproducible from the seed.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import (
    InitializationFailedError,
    MergeInfeasibleError,
    NumericalBreakdownError,
)
from .graph import AdjacencyGraph, Partition, connected_components, is_connected_subset
from .linreg import (
    Dataset,
    RegionModel,
    fit_ols,
    region_ssr,
    ssr_decrease_if_removed,
    ssr_increase_if_added,
)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "grow_initial_partition",
    "kmodels_partition_stage",
    "kmodels_merge_stage",
    "solve_kmodels",
    "solve_azp",
    "solve_regional_kmodels",
    "solve_with_restarts",
    "SOLVERS",
]


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver parameters.

    ``K`` (micro-cluster count, K-Models only) defaults to ``4 * p`` when
    left unset. ``min_obs`` applies to final regions everywhere and to
    every intermediate state in AZP and Regional-K-Models; the K-Models
    partition stage always uses m+1 instead. SSR comparisons treat
    changes within ``ssr_tolerance`` as ties to avoid oscillation.
    """

    p: int
    min_obs: int
    K: int | None = None
    max_iter: int = 1000
    seed: int = 0
    restart_limit: int = 100
    ssr_tolerance: float = 1e-9


@dataclass
class SolveResult:
    """Final partition, per-region models, and run diagnostics.

    ``trace`` holds the total SSR after each iteration of the improvement
    loop (starting from the initial solution) and is non-increasing. For
    K-Models it covers the partition stage; the merge stage only enforces
    constraints and can raise the final SSR above ``trace[-1]``.
    """

    partition: Partition
    models: list[RegionModel]
    total_ssr: float
    iterations_used: int
    seed: int
    wall_time: float
    trace: list[float] = field(default_factory=list)


def _resolve_config(dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig,
                    needs_k: bool) -> SolverConfig:
    if dataset.n != graph.n:
        raise ValueError(f"dataset has {dataset.n} units but graph has {graph.n}")
    if config.p < 1 or config.p > graph.n:
        raise ValueError(f"p must be in [1, n], got {config.p}")
    if config.min_obs < dataset.m + 1:
        raise ValueError(
            f"min_obs={config.min_obs} below m+1={dataset.m + 1}; fits would not be unique"
        )
    if config.max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if config.p * config.min_obs > graph.n:
        raise ValueError(
            f"p={config.p} regions of at least {config.min_obs} units do not fit in n={graph.n}"
        )
    if needs_k:
        k = config.K if config.K is not None else 4 * config.p
        if k <= config.p:
            raise ValueError(f"K must exceed p, got K={k}, p={config.p}")
        if k * (dataset.m + 1) > graph.n:
            raise ValueError(f"K={k} micro-clusters of m+1 units do not fit in n={graph.n}")
        config = replace(config, K=k)
    return config


def grow_initial_partition(graph: AdjacencyGraph, count: int, min_obs: int,
                           rng: np.random.Generator, restart_limit: int = 100) -> Partition:
    """Grow ``count`` connected regions from random seed units.

    Each region starts at a distinct random unit; regions then take turns
    absorbing one randomly picked unassigned neighbor until every unit is
    assigned. If any region ends up below ``min_obs`` the whole procedure
    restarts with fresh seeds, up to ``restart_limit`` attempts.
    """
    n = graph.n
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, n], got {count}")
    if count * min_obs > n:
        raise InitializationFailedError(
            f"{count} regions of at least {min_obs} units cannot cover {n} units"
        )
    for _ in range(restart_limit):
        assignment = np.full(n, -1, dtype=np.int64)
        seeds = rng.choice(n, size=count, replace=False)
        assignment[seeds] = np.arange(count)
        frontier_lists: list[list[int]] = []
        frontier_sets: list[set[int]] = []
        for s in seeds:
            fresh = [v for v in graph.neighbors[s] if assignment[v] == -1]
            frontier_lists.append(fresh)
            frontier_sets.append(set(fresh))
        remaining = n - count
        while remaining:
            progressed = False
            for r in range(count):
                flist, fset = frontier_lists[r], frontier_sets[r]
                while flist:
                    pos = int(rng.integers(len(flist)))
                    u = flist[pos]
                    flist[pos] = flist[-1]
                    flist.pop()
                    fset.discard(u)
                    if assignment[u] != -1:
                        continue  # grabbed by another region since queued
                    assignment[u] = r
                    remaining -= 1
                    for w in graph.neighbors[u]:
                        if assignment[w] == -1 and w not in fset:
                            flist.append(w)
                            fset.add(w)
                    progressed = True
                    break
            if not progressed:  # unreachable on a connected graph
                break
        if remaining == 0:
            sizes = np.bincount(assignment, minlength=count)
            if sizes.min() >= min_obs:
                return Partition(assignment, count)
    raise InitializationFailedError(
        f"no initial partition with {count} regions of >= {min_obs} units "
        f"found in {restart_limit} attempts"
    )


def _fit_all(dataset: Dataset, assignment: np.ndarray, count: int) -> list[RegionModel]:
    return [fit_ols(dataset, np.flatnonzero(assignment == j)) for j in range(count)]


def _total_ssr(dataset: Dataset, assignment: np.ndarray, models: list[RegionModel]) -> float:
    return float(
        sum(
            region_ssr(models[j], dataset, np.flatnonzero(assignment == j))
            for j in range(len(models))
        )
    )


def kmodels_partition_stage(dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig,
                            rng: np.random.Generator):
    """First K-Models stage: residual-driven reassignment over K micro-clusters.

    Each iteration moves every unit to the micro-cluster whose current
    model gives it the lowest absolute residual, unless its donor would
    shrink below m+1 units, then refits all K models. Stops when an
    iteration moves nothing or at the iteration cap. The total SSR is
    non-increasing across iterations; the resulting micro-clusters need
    not be spatially connected.

    Returns ``(partition, models, trace)`` where ``trace[0]`` is the SSR
    of the initial solution.
    """
    k = config.K if config.K is not None else 4 * config.p
    stage_min = dataset.m + 1
    initial = grow_initial_partition(graph, k, stage_min, rng, config.restart_limit)
    assign = initial.assignment.copy()
    models = _fit_all(dataset, assign, k)
    trace = [_total_ssr(dataset, assign, models)]
    xa, y = dataset.augmented, dataset.y
    n = dataset.n
    for _ in range(config.max_iter):
        betas = np.column_stack([mo.beta for mo in models])
        best = np.argmin(np.abs(y[:, None] - xa @ betas), axis=1).tolist()
        sizes = np.bincount(assign, minlength=k).tolist()
        labels = assign.tolist()
        moved = False
        for i in range(n):
            d = labels[i]
            if sizes[d] > stage_min:
                r = best[i]
                if r != d:
                    labels[i] = r
                    sizes[d] -= 1
                    sizes[r] += 1
                    moved = True
        assign = np.asarray(labels, dtype=np.int64)
        models = _fit_all(dataset, assign, k)
        trace.append(_total_ssr(dataset, assign, models))
        if not moved:
            break
    return Partition(assign, k), models, trace


class _RegionPool:
    """Mutable region bookkeeping for the merge stage.

    Each region's members are a sorted int64 array, so a union is one
    concatenate-and-sort, its first entry is the region's smallest member,
    and the fits read the member rows in ascending unit order. Regions too
    small for a unique fit carry no model and contribute no residuals to
    merge comparisons; they only ever shrink in number. Region ids are
    never reused: a merge retires both inputs and adds a new id.
    """

    def __init__(self, dataset: Dataset, n: int):
        self.dataset = dataset
        self.min_fit = dataset.m + 1
        self.members: dict[int, np.ndarray] = {}
        self.ssr: dict[int, float] = {}
        self.model: dict[int, RegionModel | None] = {}
        self.region_of = np.empty(n, dtype=np.int64)
        self.next_id = 0

    def add(self, units: np.ndarray) -> int:
        rid = self.next_id
        self.next_id += 1
        self.members[rid] = units
        self.region_of[units] = rid
        if len(units) >= self.min_fit:
            model = fit_ols(self.dataset, units)
            self.model[rid] = model
            self.ssr[rid] = region_ssr(model, self.dataset, units)
        else:
            self.model[rid] = None
            self.ssr[rid] = 0.0
        return rid

    def smallest(self, rid: int) -> int:
        return int(self.members[rid][0])

    def union(self, a: int, b: int) -> np.ndarray:
        return np.sort(np.concatenate((self.members[a], self.members[b])))

    def merge(self, a: int, b: int) -> int:
        units = self.union(a, b)
        for rid in (a, b):
            del self.members[rid], self.ssr[rid], self.model[rid]
        return self.add(units)

    def union_ssr(self, a: int, b: int) -> float:
        units = self.union(a, b)
        if len(units) < self.min_fit:
            return 0.0
        return region_ssr(fit_ols(self.dataset, units), self.dataset, units)

    def neighbor_regions(self, graph: AdjacencyGraph, rid: int) -> set[int]:
        out: set[int] = set()
        for u in self.members[rid].tolist():
            for v in graph.neighbors[u]:
                w = int(self.region_of[v])
                if w != rid:
                    out.add(w)
        return out


def kmodels_merge_stage(dataset: Dataset, graph: AdjacencyGraph,
                        micro_partition: Partition, config: SolverConfig):
    """Second K-Models stage: enforce connectivity, region size, and count.

    Disconnected micro-clusters are split into their connected components.
    Regions below ``min_obs`` are then repaired one at a time, in order of
    (size, smallest member), from a heap: the region is absorbed by the
    neighboring region that minimizes the total SSR after the merge, with
    neighbors tried in order of their smallest member and the first strict
    minimum of the SSR change winning; a merge result still below
    ``min_obs`` re-enters the heap. Finally, while more than ``p`` regions
    remain, the neighboring pair whose merge increases the total SSR the
    least is fused.

    Returns ``(partition, models)`` with regions relabeled 0..p-1 by their
    smallest member. Raises MergeInfeasibleError if fewer than ``p``
    regions remain after the size repair.
    """
    pool = _RegionPool(dataset, graph.n)
    for j in range(micro_partition.p):
        for comp in connected_components(graph, micro_partition.members(j)):
            pool.add(np.asarray(comp, dtype=np.int64))

    # absorb undersized regions, smallest first; smallest members are
    # distinct, so (size, smallest) orders live regions without ties
    repair = [(len(ms), pool.smallest(rid), rid) for rid, ms in pool.members.items()
              if len(ms) < config.min_obs]
    heapq.heapify(repair)
    while repair:
        rid = heapq.heappop(repair)[2]
        if rid not in pool.members:
            continue  # merged away since it was queued
        best_nb, best_delta = -1, np.inf
        for nb in sorted(pool.neighbor_regions(graph, rid), key=pool.smallest):
            delta = pool.union_ssr(rid, nb) - pool.ssr[rid] - pool.ssr[nb]
            if delta < best_delta:
                best_nb, best_delta = nb, delta
        new = pool.merge(rid, best_nb)
        if len(pool.members[new]) < config.min_obs:
            heapq.heappush(repair, (len(pool.members[new]), pool.smallest(new), new))

    if len(pool.members) < config.p:
        raise MergeInfeasibleError(
            f"only {len(pool.members)} regions remain after the size repair but "
            f"p={config.p} were requested; lower min_obs or raise K"
        )

    # fuse neighboring pairs with the smallest SSR increase until p remain
    adjacency = {rid: pool.neighbor_regions(graph, rid) for rid in pool.members}
    heap: list[tuple[float, int, int]] = []
    for a in sorted(pool.members):
        for b in sorted(adjacency[a]):
            if a < b:
                heapq.heappush(heap, (pool.union_ssr(a, b) - pool.ssr[a] - pool.ssr[b], a, b))
    while len(pool.members) > config.p:
        delta, a, b = heapq.heappop(heap)
        if a not in pool.members or b not in pool.members:
            continue  # one side already merged away
        new = pool.merge(a, b)
        adjacency[new] = (adjacency.pop(a) | adjacency.pop(b)) - {a, b}
        for x in sorted(adjacency[new]):
            adjacency[x].discard(a)
            adjacency[x].discard(b)
            adjacency[x].add(new)
            lo, hi = min(new, x), max(new, x)
            heapq.heappush(heap, (pool.union_ssr(lo, hi) - pool.ssr[lo] - pool.ssr[hi], lo, hi))

    ordered = sorted(pool.members, key=pool.smallest)
    assignment = np.empty(graph.n, dtype=np.int64)
    models: list[RegionModel] = []
    for label, rid in enumerate(ordered):
        assignment[pool.members[rid]] = label
        models.append(pool.model[rid])
    return Partition(assignment, len(ordered)), models


def solve_kmodels(dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig) -> SolveResult:
    """Two-stage K-Models: micro-cluster partition stage, then merge stage."""
    start = time.perf_counter()
    config = _resolve_config(dataset, graph, config, needs_k=True)
    rng = np.random.default_rng(config.seed)
    micro, _, trace = kmodels_partition_stage(dataset, graph, config, rng)
    partition, models = kmodels_merge_stage(dataset, graph, micro, config)
    total = _total_ssr(dataset, partition.assignment, models)
    return SolveResult(
        partition=partition,
        models=models,
        total_ssr=total,
        iterations_used=len(trace) - 1,
        seed=config.seed,
        wall_time=time.perf_counter() - start,
        trace=trace,
    )


def _connected_without(graph: AdjacencyGraph, member_set: set[int], v: int) -> bool:
    """Whether ``member_set`` minus ``v`` stays connected (BFS)."""
    inside = [w for w in graph.neighbors[v] if w in member_set]
    if len(inside) <= 1:
        return True  # v is a leaf of the region; the rest is untouched
    seen = {inside[0]}
    queue = deque([inside[0]])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors[u]:
            if w != v and w in member_set and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(member_set) - 1


def _assert_state_feasible(graph: AdjacencyGraph, members: list[set[int]], min_obs: int):
    for ms in members:
        assert len(ms) >= min_obs, "region dropped below the minimum size"
        assert is_connected_subset(graph, ms), "region lost connectivity"


def _move_delta(dataset: Dataset, models: list[RegionModel], ssrs: list[float],
                members: list[set[int]], j: int, d: int, v: int) -> float:
    """Total-SSR change from moving unit v out of region d into region j.

    Rank-one identities give the exact change in O(m^2); degenerate models
    or a vanishing denominator fall back to comparing full refits.
    """
    x, yv = dataset.X[v], float(dataset.y[v])
    if not (models[j].degenerate or models[d].degenerate):
        try:
            return ssr_increase_if_added(models[j], x, yv) - ssr_decrease_if_removed(
                models[d], x, yv
            )
        except NumericalBreakdownError:
            pass
    gain_members = members[j] | {v}
    loss_members = members[d] - {v}
    new_j = region_ssr(fit_ols(dataset, gain_members), dataset, gain_members)
    new_d = region_ssr(fit_ols(dataset, loss_members), dataset, loss_members)
    return (new_j - ssrs[j]) + (new_d - ssrs[d])


def solve_azp(dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig,
              check_invariants: bool = False) -> SolveResult:
    """Zoning-style local search: pull boundary units into adjacent regions.

    Each pass visits regions in fixed index order. For region j, a unit v
    adjacent to it may move in when (a) its donor stays at or above
    ``min_obs``, (b) the donor stays connected without it, and (c) the
    move strictly lowers the total SSR; the checks run in that order,
    cheapest first. One uniformly random valid unit is moved per region
    per pass and both affected models are refit immediately, so later
    regions in the same pass see the updated state. Terminates when a full
    pass moves nothing.

    ``check_invariants`` asserts connectivity and size of every region
    after every accepted move (debug instrumentation).
    """
    start = time.perf_counter()
    config = _resolve_config(dataset, graph, config, needs_k=False)
    rng = np.random.default_rng(config.seed)
    initial = grow_initial_partition(graph, config.p, config.min_obs, rng,
                                     config.restart_limit)
    assign = initial.assignment.copy()
    members = [set(map(int, np.flatnonzero(assign == j))) for j in range(config.p)]
    models = [fit_ols(dataset, members[j]) for j in range(config.p)]
    ssrs = [region_ssr(models[j], dataset, members[j]) for j in range(config.p)]
    trace = [float(sum(ssrs))]
    iterations = 0
    for _ in range(config.max_iter):
        stable = True
        for j in range(config.p):
            candidates = sorted(
                {v for u in members[j] for v in graph.neighbors[u] if assign[v] != j}
            )
            if not candidates:
                continue
            # first valid unit of a uniformly shuffled scan is a uniform
            # draw from the full valid set, without evaluating all of it
            chosen, donor = -1, -1
            for pos in rng.permutation(len(candidates)):
                v = candidates[pos]
                d = int(assign[v])
                if len(members[d]) <= config.min_obs:
                    continue
                if not _connected_without(graph, members[d], v):
                    continue
                if _move_delta(dataset, models, ssrs, members, j, d, v) < -config.ssr_tolerance:
                    chosen, donor = v, d
                    break
            if chosen >= 0:
                stable = False
                members[donor].discard(chosen)
                members[j].add(chosen)
                assign[chosen] = j
                for r in (j, donor):
                    models[r] = fit_ols(dataset, members[r])
                    ssrs[r] = region_ssr(models[r], dataset, members[r])
                if check_invariants:
                    _assert_state_feasible(graph, members, config.min_obs)
        iterations += 1
        trace.append(float(sum(ssrs)))
        if stable:
            break
    return SolveResult(
        partition=Partition(assign, config.p),
        models=models,
        total_ssr=float(sum(ssrs)),
        iterations_used=iterations,
        seed=config.seed,
        wall_time=time.perf_counter() - start,
        trace=trace,
    )


def solve_regional_kmodels(dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig,
                           check_invariants: bool = False) -> SolveResult:
    """Residual-driven reassignment with a contiguity check before each move.

    A unit may only move into an adjacent region, namely the one among
    the regions it touches (its own included) whose model gives it the
    lowest absolute residual, ties to the lower region index. Each
    iteration collects every unit whose best adjacent region differs from
    its current one, whose donor stays above ``min_obs``, and whose donor
    stays connected without it. Exactly one uniformly random candidate is
    moved (simultaneous moves could break donor contiguity) and the two
    affected models are refit. Terminates when no candidate exists.
    """
    start = time.perf_counter()
    config = _resolve_config(dataset, graph, config, needs_k=False)
    rng = np.random.default_rng(config.seed)
    initial = grow_initial_partition(graph, config.p, config.min_obs, rng,
                                     config.restart_limit)
    assign = initial.assignment.copy()
    members = [set(map(int, np.flatnonzero(assign == j))) for j in range(config.p)]
    models = [fit_ols(dataset, members[j]) for j in range(config.p)]
    ssrs = [region_ssr(models[j], dataset, members[j]) for j in range(config.p)]
    trace = [float(sum(ssrs))]
    xa, y = dataset.augmented, dataset.y
    n = dataset.n
    iterations = 0
    for _ in range(config.max_iter):
        betas = np.column_stack([mo.beta for mo in models])
        resid = np.abs(y[:, None] - xa @ betas)
        sizes = np.bincount(assign, minlength=config.p).tolist()
        labels = assign.tolist()
        precandidates: list[int] = []
        targets: dict[int, int] = {}
        for i in range(n):
            d = labels[i]
            if sizes[d] <= config.min_obs:
                continue
            row = resid[i]
            best_r, best_val = d, row[d]
            for w in graph.neighbors[i]:
                r = labels[w]
                if r != best_r and (row[r] < best_val
                                    or (row[r] == best_val and r < best_r)):
                    best_r, best_val = r, row[r]
            if best_r != d:
                precandidates.append(i)
                targets[i] = best_r
        iterations += 1
        chosen = -1
        if precandidates:
            # uniform draw from the valid set via a shuffled first-hit scan
            for pos in rng.permutation(len(precandidates)):
                i = precandidates[pos]
                if _connected_without(graph, members[labels[i]], i):
                    chosen = i
                    break
        if chosen < 0:
            trace.append(float(sum(ssrs)))
            break
        donor, target = labels[chosen], targets[chosen]
        members[donor].discard(chosen)
        members[target].add(chosen)
        assign[chosen] = target
        for r in (donor, target):
            models[r] = fit_ols(dataset, members[r])
            ssrs[r] = region_ssr(models[r], dataset, members[r])
        if check_invariants:
            assert any(
                int(assign[w]) == target for w in graph.neighbors[chosen]
            ), "unit moved into a region it does not touch"
            _assert_state_feasible(graph, members, config.min_obs)
        trace.append(float(sum(ssrs)))
    return SolveResult(
        partition=Partition(assign, config.p),
        models=models,
        total_ssr=float(sum(ssrs)),
        iterations_used=iterations,
        seed=config.seed,
        wall_time=time.perf_counter() - start,
        trace=trace,
    )


SOLVERS = {
    "kmodels": solve_kmodels,
    "azp": solve_azp,
    "rkm": solve_regional_kmodels,
}


def solve_with_restarts(algorithm: str, dataset: Dataset, graph: AdjacencyGraph,
                        config: SolverConfig, repeats: int = 1):
    """Run ``repeats`` independently seeded solves; return (best, all runs).

    Run k uses ``config.seed + k``. The best run is the one with the
    lowest total SSR, ties broken toward the earliest seed.
    """
    if algorithm not in SOLVERS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {sorted(SOLVERS)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results = [
        SOLVERS[algorithm](dataset, graph, replace(config, seed=config.seed + k))
        for k in range(repeats)
    ]
    best = min(results, key=lambda r: (r.total_ssr, r.seed))
    return best, results
