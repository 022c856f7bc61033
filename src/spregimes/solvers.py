"""Spatial-regime solvers: two-stage K-Models, AZP, and Regional-K-Models.

All three jointly optimize region membership and per-region linear models
by minimizing the total sum of squared residuals (SSR). They share a
random-growth initializer and a common result type. Runs are single
threaded, own all mutable state, and are bit-reproducible from the seed.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .exceptions import MergeInfeasibleError, NumericalBreakdownError
from .graph import (
    AdjacencyGraph,
    Partition,
    connected_components,
    grow_initial_partition,
    is_connected_subset,
)
from .linreg import (
    Dataset,
    RegionModel,
    fit_ols,
    region_ssr,
    ssr_decrease_if_removed,
    ssr_increase_if_added,
    union_delta,
)
from .result import SolveResult

__all__ = [
    "SolverConfig",
    "SolveResult",
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
    partition stage always uses m+1 instead. Building a config, also by
    ``dataclasses.replace``, raises ValueError for ``p`` or ``max_iter``
    below 1 or an explicit ``K <= p``, whichever solver reads it.
    """

    p: int
    min_obs: int
    K: int | None = None
    max_iter: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.K is not None and self.K <= self.p:
            raise ValueError(f"K must exceed p, got K={self.K}, p={self.p}")


# Attempts of the initial growth before InitializationFailedError.
RESTART_LIMIT = 100
# AZP treats SSR changes within this tolerance as ties, to avoid oscillation.
SSR_TOLERANCE = 1e-9


def _check_inputs(dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig):
    """Raise ValueError for settings this data and graph cannot meet."""
    if dataset.n != graph.n:
        raise ValueError(f"dataset has {dataset.n} units but graph has {graph.n}")
    if config.min_obs < dataset.m + 1:
        raise ValueError(
            f"min_obs={config.min_obs} below m+1={dataset.m + 1}; fits would not be unique"
        )
    # min_obs >= 2 here, so this also refuses p > n
    if config.p * config.min_obs > graph.n:
        raise ValueError(
            f"p={config.p} regions of at least {config.min_obs} units do not fit in n={graph.n}"
        )


class _Fit(NamedTuple):
    """A region's regression state, shared by every solver.

    ``units`` are the members as an ascending int64 array, ``model`` their
    OLS fit (None when fewer than m+1 units leave it non-unique) and
    ``ssr`` the model's sum of squared residuals over them (0.0 without a
    model).
    """

    units: np.ndarray
    model: RegionModel | None
    ssr: float


def _fit(dataset: Dataset, units: np.ndarray) -> _Fit:
    """Fit the region ``units`` and its SSR; the only place a region is fitted.

    The SSR is the one ``fit_ols`` records from the rows it gathered, so
    the members are read once per fit.
    """
    if len(units) < dataset.m + 1:
        return _Fit(units, None, 0.0)
    model = fit_ols(dataset, units)
    return _Fit(units, model, model.ssr)


def _fit_labels(dataset: Dataset, labels: np.ndarray, count: int) -> list[_Fit]:
    """Fits of regions ``0..count-1`` of a label array, in region order."""
    return [_fit(dataset, np.flatnonzero(labels == j)) for j in range(count)]


def _total(fits: list[_Fit]) -> float:
    return float(sum(f.ssr for f in fits))


def kmodels_partition_stage(dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig,
                            rng: np.random.Generator):
    """First K-Models stage: residual-driven reassignment over K micro-clusters.

    The only reader of ``config.K``, which defaults to ``4 * p``; raises
    ValueError when K micro-clusters of m+1 units do not fit in the graph.
    Each iteration moves every unit to the micro-cluster whose current
    model gives it the lowest absolute residual, unless its donor would
    shrink below m+1 units, then refits all K models. Stops when an
    iteration moves nothing or at the iteration cap. The total SSR is
    non-increasing across iterations; the resulting micro-clusters need
    not be spatially connected.

    Each micro-cluster is fitted and scored from one member array
    (``_fit``), and the trace sums those SSRs in micro-cluster order. The
    reassignment itself is one array sweep (``_partition_sweep``).

    Returns ``(partition, models, trace, stop_reason)``: ``trace[0]`` is
    the SSR of the initial solution, and ``stop_reason`` is as in
    ``SolveResult``.
    """
    k = config.K if config.K is not None else 4 * config.p
    stage_min = dataset.m + 1
    if k * stage_min > graph.n:
        raise ValueError(f"K={k} micro-clusters of m+1 units do not fit in n={graph.n}")
    initial = grow_initial_partition(graph, k, stage_min, rng, RESTART_LIMIT)
    assign = initial.assignment.copy()
    fits = _fit_labels(dataset, assign, k)
    trace = [_total(fits)]
    xa, y = dataset.augmented, dataset.y
    for _ in range(config.max_iter):
        betas = np.column_stack([f.model.beta for f in fits])
        best = np.argmin(np.abs(y[:, None] - xa @ betas), axis=1)
        new = _partition_sweep(assign, best, k, stage_min)
        moved = bool((new != assign).any())
        assign = new
        fits = _fit_labels(dataset, assign, k)
        trace.append(_total(fits))
        if not moved:
            stop_reason = "converged"
            break
    else:
        stop_reason = "max_iter"
    return Partition(assign, k), [f.model for f in fits], trace, stop_reason


def _partition_sweep(assign: np.ndarray, best: np.ndarray, k: int, stage_min: int
                     ) -> np.ndarray:
    """Labels after one partition-stage sweep of the units in index order.

    In index order, unit ``i`` moves from region ``d = assign[i]`` to
    ``best[i]`` unless ``d`` has no more than ``stage_min`` units at that
    point. Arrivals only add units, so a region whose leavers number at
    most ``size - stage_min`` loses all of them; call the others *tight*.
    Only units that leave a tight region or move into one are visited in
    a Python loop, in index order, and usually there are none.
    """
    sizes = np.bincount(assign, minlength=k)
    leave = best != assign
    tight = np.bincount(assign[leave], minlength=k) > sizes - stage_min
    new = np.where(leave & ~tight[assign], best, assign)
    contested = np.flatnonzero(leave & (tight[assign] | tight[best]))
    if len(contested):
        sizes, tight = sizes.tolist(), tight.tolist()
        for i, d, r in zip(contested.tolist(), assign[contested].tolist(),
                           best[contested].tolist()):
            if not tight[d] or sizes[d] > stage_min:
                new[i] = r
                sizes[d] -= 1
                sizes[r] += 1
    return new


class _RegionPool:
    """Mutable region bookkeeping for the merge stage.

    ``regions`` maps a live region id to its ``_Fit`` and ``region_of``
    maps each unit to its region id. Member arrays are ascending, so a
    union is one concatenate and a stable sort, which merges the two
    ascending runs in linear time, and its first entry is the region's
    smallest member. ``neighbor_regions`` reads ``region_of`` with one
    gather over the region's CSR rows. ``union_fit`` is the only
    place a candidate merge is fitted, and ``merge`` installs that
    ``_Fit`` as is. Regions too small for a unique fit carry no model and
    contribute no residuals to merge comparisons; they only ever shrink
    in number. Region ids are never reused: a merge retires both inputs
    and adds a new id.

    ``cross`` maps a live region id to ``Z'Z`` with ``Z = [1 X y]`` over
    its rows. A split fragment's comes from its rows; a merged region's
    is the sum of its two sides', with no gather. ``lower_bounds`` bounds
    the SSR changes of every batch of candidate unions from these sums,
    in one ``linreg.union_delta`` call, without fitting them. One more
    union in a batch costs far less than any fit, so a batch pays for
    itself once it rules out one union that would otherwise be fitted.
    """

    def __init__(self, dataset: Dataset, n: int):
        self.dataset = dataset
        self.rows = np.column_stack((dataset.augmented, dataset.y))
        self.regions: dict[int, _Fit] = {}
        self.cross: dict[int, np.ndarray] = {}
        self.region_of = np.empty(n, dtype=np.int64)
        self.next_id = 0

    def add(self, fitted: _Fit, cross: np.ndarray | None = None) -> int:
        """Add the region ``fitted`` with ``cross`` its ``Z'Z``, computed from its rows if None."""
        if cross is None:
            z = self.rows[fitted.units]
            cross = z.T @ z
        rid = self.next_id
        self.next_id += 1
        self.regions[rid] = fitted
        self.cross[rid] = cross
        self.region_of[fitted.units] = rid
        return rid

    def smallest(self, rid: int) -> int:
        return int(self.regions[rid].units[0])

    def union_fit(self, a: int, b: int) -> _Fit:
        units = np.concatenate((self.regions[a].units, self.regions[b].units))
        return _fit(self.dataset, np.sort(units, kind="stable"))

    def merge(self, a: int, b: int, fitted: _Fit) -> int:
        """Replace regions ``a`` and ``b`` by their union, fitted as ``union_fit(a, b)``."""
        del self.regions[a], self.regions[b]
        return self.add(fitted, self.cross.pop(a) + self.cross.pop(b))

    def delta(self, a: int, b: int, fitted: _Fit) -> float:
        """Total-SSR change of replacing regions ``a`` and ``b`` by ``fitted``."""
        return fitted.ssr - self.regions[a].ssr - self.regions[b].ssr

    def lower_bounds(self, pairs: list[tuple[int, int]]) -> dict[tuple[int, int], float]:
        """Certified lower bounds on ``delta(a, b, union_fit(a, b))``, keyed by pair.

        Every union of more than m units is scored by one ``union_delta``
        call on the sums of its sides' ``cross``, and keeps its bound
        ``delta - err`` when that is finite (so are both terms then).
        Pairs left out have no bound: unions of at most m units, which
        ``_fit`` leaves without a model and without calling ``fit_ols``;
        unions whose Gram fails the Frobenius screen, so ``err`` is nan;
        and the whole batch when a Gram is exactly singular. No bound
        costs more than O(m^3) per pair.
        """
        regions, cross = self.regions, self.cross
        sizes = {pair: len(regions[pair[0]].units) + len(regions[pair[1]].units)
                 for pair in pairs}
        pairs = [pair for pair in pairs if sizes[pair] > self.dataset.m]
        if not pairs:
            return {}
        try:
            delta, err = union_delta(np.array([cross[a] + cross[b] for a, b in pairs]),
                                     np.array([regions[a].ssr + regions[b].ssr
                                               for a, b in pairs]),
                                     np.array([sizes[pair] for pair in pairs]))
        except np.linalg.LinAlgError:
            return {}
        return {pair: lo for pair, lo in zip(pairs, (delta - err).tolist())
                if math.isfinite(lo)}

    def neighbor_regions(self, graph: AdjacencyGraph, rid: int) -> set[int]:
        """Ids of the live regions other than ``rid`` that touch region ``rid``."""
        units = self.regions[rid].units
        indices = graph.indices
        touched = np.concatenate([indices[a:b] for a, b in zip(graph.indptr[units].tolist(),
                                                               graph.indptr[units + 1].tolist())])
        out = set(self.region_of[touched].tolist())
        out.discard(rid)
        return out


def _push_candidates(pool: _RegionPool, heap: list, candidates: list[tuple[int, int, int]]):
    """Push each ``(tie, a, b)`` union keyed by its lower bound, or by -inf without one."""
    lower = pool.lower_bounds([(a, b) for _, a, b in candidates])
    for tie, a, b in candidates:
        heapq.heappush(heap, (lower.get((a, b), -math.inf), tie, a, b, None))


def _pop_cheapest(pool: _RegionPool, heap: list) -> tuple | None:
    """Pop the fitted union of least ``(delta, tie, a, b)`` between live regions.

    Entries are ``(key, tie, a, b, fit)``: a lower bound with ``fit`` None,
    or an exact SSR change with the ``_Fit`` that gave it. A union without
    a certified bound is keyed by the trivial bound -inf. A popped bound
    is fitted and pushed back with its change if that is finite; a
    non-finite change never wins, so that union is dropped. A bound never
    exceeds its change, so the first exact entry to pop is the least over
    every candidate, ties included. Every -inf entry pops, and is fitted,
    before any finite key, so no union is fitted twice. A heap holds at
    most one entry per pair, so no two entries share ``(key, tie, a, b)``
    and the heap never compares two fits. Returns None when no live union
    with a finite change is left.
    """
    while heap:
        entry = heapq.heappop(heap)
        _, tie, a, b, fitted = entry
        if a not in pool.regions or b not in pool.regions:
            continue  # one side already merged away
        if fitted is not None:
            return entry
        fitted = pool.union_fit(a, b)
        delta = pool.delta(a, b, fitted)
        if math.isfinite(delta):
            heapq.heappush(heap, (delta, tie, a, b, fitted))
    return None


def kmodels_merge_stage(dataset: Dataset, graph: AdjacencyGraph,
                        micro_partition: Partition, config: SolverConfig):
    """Second K-Models stage: enforce connectivity, region size, and count.

    Disconnected micro-clusters are split into their connected components.
    Regions below ``min_obs`` are then repaired one at a time, in order of
    (size, smallest member), from a heap: the region is absorbed by the
    neighboring region that minimizes the total SSR after the merge, ties
    going to the neighbor with the smallest member; a merge result still
    below ``min_obs`` re-enters the heap. Finally, while more than ``p``
    regions remain, the neighboring pair whose merge increases the total
    SSR the least is fused, ties going to the smaller ids ``(a, b)``.

    Both phases pick each merge with ``_pop_cheapest`` from a heap of
    candidate unions: a fresh heap per undersized region, whose tie is
    the neighbor's smallest member, and one fusion heap, whose tie is 0.
    A union of more than m units whose Gram, summed from its sides'
    cross-products, passes the Frobenius screen enters keyed by its lower
    bound (``_RegionPool.lower_bounds``); any other union enters keyed by
    the trivial bound -inf. Each union is fitted only when its key
    reaches the top, so the -inf ones are fitted before any bounded one.
    The merge installs the fit its winning entry carries, so no union is
    fitted twice, and the result is the one of fitting every union. A
    non-finite SSR change never wins.

    Returns ``(partition, models)`` with regions relabeled 0..p-1 by their
    smallest member. Raises MergeInfeasibleError if an undersized region
    has no neighboring region with a finite SSR change, if fewer than
    ``p`` regions remain after the size repair, or if fusion runs out of
    neighboring pairs with a finite SSR change before ``p`` remain.
    """
    pool = _RegionPool(dataset, graph.n)
    for j in range(micro_partition.p):
        for comp in connected_components(graph, micro_partition.members(j)):
            pool.add(_fit(dataset, np.asarray(comp, dtype=np.int64)))

    # absorb undersized regions, smallest first; smallest members are
    # distinct, so (size, smallest) orders live regions without ties
    repair = [(len(f.units), pool.smallest(rid), rid) for rid, f in pool.regions.items()
              if len(f.units) < config.min_obs]
    heapq.heapify(repair)
    while repair:
        rid = heapq.heappop(repair)[2]
        if rid not in pool.regions:
            continue  # merged away since it was queued
        heap: list[tuple] = []
        _push_candidates(pool, heap, [(pool.smallest(nb), rid, nb)
                                      for nb in pool.neighbor_regions(graph, rid)])
        best = _pop_cheapest(pool, heap)
        if best is None:
            raise MergeInfeasibleError(
                f"undersized region (size {len(pool.regions[rid].units)}, smallest member "
                f"{pool.smallest(rid)}) has no neighboring region with a finite SSR "
                "change to merge into"
            )
        _, _, _, nb, fitted = best
        new = pool.merge(rid, nb, fitted)
        if len(fitted.units) < config.min_obs:
            heapq.heappush(repair, (len(fitted.units), pool.smallest(new), new))

    if len(pool.regions) < config.p:
        raise MergeInfeasibleError(
            f"only {len(pool.regions)} regions remain after the size repair but "
            f"p={config.p} were requested; lower min_obs or raise K"
        )

    # fuse neighboring pairs with the smallest SSR increase until p remain
    adjacency = {rid: pool.neighbor_regions(graph, rid) for rid in pool.regions}
    heap = []
    _push_candidates(pool, heap, [(0, a, b) for a in sorted(pool.regions)
                                  for b in sorted(adjacency[a]) if a < b])
    while len(pool.regions) > config.p:
        best = _pop_cheapest(pool, heap)
        if best is None:
            raise MergeInfeasibleError(
                f"{len(pool.regions)} regions remain but no neighboring pair has a finite "
                f"SSR change to fuse, and p={config.p} were requested"
            )
        _, _, a, b, fitted = best
        new = pool.merge(a, b, fitted)
        adjacency[new] = (adjacency.pop(a) | adjacency.pop(b)) - {a, b}
        for x in sorted(adjacency[new]):
            adjacency[x].discard(a)
            adjacency[x].discard(b)
            adjacency[x].add(new)
        # ids only grow, so the new region's id is the larger of each pair
        _push_candidates(pool, heap, [(0, x, new) for x in sorted(adjacency[new])])

    ordered = [pool.regions[rid] for rid in sorted(pool.regions, key=pool.smallest)]
    assignment = np.empty(graph.n, dtype=np.int64)
    for label, f in enumerate(ordered):
        assignment[f.units] = label
    return Partition(assignment, len(ordered)), [f.model for f in ordered]


def solve_kmodels(dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig) -> SolveResult:
    """Two-stage K-Models: micro-cluster partition stage, then merge stage."""
    start = time.perf_counter()
    _check_inputs(dataset, graph, config)
    rng = np.random.default_rng(config.seed)
    micro, _, trace, stop_reason = kmodels_partition_stage(dataset, graph, config, rng)
    partition, models = kmodels_merge_stage(dataset, graph, micro, config)
    total = float(sum(region_ssr(models[j], dataset, partition.members(j))
                      for j in range(partition.p)))
    return SolveResult(partition=partition, models=models, total_ssr=total,
                       iterations_used=len(trace) - 1, seed=config.seed,
                       wall_time=time.perf_counter() - start, trace=trace,
                       stop_reason=stop_reason)


def _articulation_points(graph: AdjacencyGraph, labels: list[int], root: int) -> set[int]:
    """Cut vertices of the region ``labels[root]``, walked from ``root``.

    Iterative Hopcroft-Tarjan DFS (Hopcroft & Tarjan 1973, CACM 16(6)), so
    region size is not bounded by the recursion limit. It reads the
    region straight off the label list, so no member set is built. Units
    are numbered in discovery order: ``disc`` is indexed by unit (-1 until
    found), ``low`` and the parent's number are lists indexed by that
    number, and each stack entry carries its unit's number. For a
    connected region of at least two units, the region minus ``v`` is
    connected exactly when ``v`` is not returned.
    """
    neighbors = graph.neighbors
    region = labels[root]
    disc = [-1] * len(labels)
    disc[root] = 0
    low = [0]
    parent = [-1]
    root_children = 0
    cuts: set[int] = set()
    stack = [(root, 0, iter(neighbors[root]))]
    while stack:
        u, du, it = stack[-1]
        for w in it:
            if labels[w] == region:
                dw = disc[w]
                if dw < 0:
                    dw = len(low)
                    disc[w] = dw
                    low.append(dw)
                    parent.append(du)
                    stack.append((w, dw, iter(neighbors[w])))
                    break
                # the tree edge back to the parent lands here too; it
                # lowers low[du] at most to the parent's number, which
                # the cut test below (low >= parent's number) allows
                if dw < low[du]:
                    low[du] = dw
        else:  # u is finished: fold its low into its parent's
            stack.pop()
            dp = parent[du]
            if dp == 0:
                root_children += 1
            elif dp > 0:
                if low[du] < low[dp]:
                    low[dp] = low[du]
                if low[du] >= dp:
                    cuts.add(stack[-1][0])
    if root_children > 1:
        cuts.add(root)
    return cuts


class _LocalSearch:
    """Region state and loop shared by AZP and Regional-K-Models.

    It grows ``p`` connected regions, fits each one, and then keeps the
    unit labels ``assign``, one ``_Fit`` per region in ``regions`` (its
    ascending member array, model and SSR), and the trace of the total
    SSR. A step policy proposes moves and ``move`` applies them; ``run``
    calls the policy until a step moves nothing (``stop_reason``
    ``"converged"``) or ``max_iter`` steps have run (``"max_iter"``), and
    appends the total SSR to the trace after every step, so
    ``iterations_used == len(trace) - 1``. The step policies find their
    candidates with numpy over the graph's CSR arrays and the label array
    (``_azp_candidates``, ``_rkm_candidates``), not with a Python loop
    over units; ``rows`` maps each entry of ``graph.indices`` to the unit
    whose row holds it, and is built once per search.

    A move inserts the unit into one member array and drops it from the
    other, and refits both regions with ``_fit`` (``moved_fits``), unless
    ``refit_delta`` already fitted them to score the move; region sizes
    are the lengths of the member arrays.

    ``screen`` scores moving each of a region's candidates into it with
    the rank-one identities, one stacked call per model, and marks the
    candidates that only a full refit (``refit_delta``) can decide: all
    those a model scores when that model is degenerate or its stacked
    identity breaks down.

    Cache rule: a region's cut vertices (``_articulation_points``, over
    the label list) are computed the first time ``is_cut`` asks about one
    of its units and dropped when a move takes a unit out of it or into
    it. The step policies ask only about units that passed every cheaper
    check (for AZP the size and the SSR screen), so cut sets are built
    only for donors that have such a unit. Regions stay connected, and a
    donor keeps at least ``min_obs >= m+1 >= 2`` units, so the donor minus
    ``v`` is connected exactly when ``v`` is not a cut vertex.

    ``check_invariants`` asserts after every move that the unit touches
    its new region and that every region is connected and at least
    ``min_obs`` units large (debug instrumentation).
    """

    def __init__(self, dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig,
                 check_invariants: bool):
        self.start = time.perf_counter()
        _check_inputs(dataset, graph, config)
        self.config, self.dataset, self.graph = config, dataset, graph
        self.check_invariants = check_invariants
        self.rng = np.random.default_rng(config.seed)
        initial = grow_initial_partition(graph, config.p, config.min_obs, self.rng,
                                         RESTART_LIMIT)
        self.assign = initial.assignment.copy()
        self.rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
        self.regions = _fit_labels(dataset, self.assign, config.p)
        self.trace = [_total(self.regions)]
        self.cuts: list[set[int] | None] = [None] * config.p

    def is_cut(self, v: int, d: int) -> bool:
        """True when region ``d`` without its unit ``v`` is disconnected."""
        if self.cuts[d] is None:
            self.cuts[d] = _articulation_points(self.graph, self.assign.tolist(),
                                                int(self.regions[d].units[0]))
        return v in self.cuts[d]

    def moved_fits(self, v: int, src: int, dst: int) -> tuple[_Fit, _Fit]:
        """Fits of regions ``src`` without unit ``v`` and ``dst`` with it."""
        loss, gain = self.regions[src].units, self.regions[dst].units
        at = int(np.searchsorted(gain, v))
        return (_fit(self.dataset, loss[loss != v]),
                _fit(self.dataset, np.concatenate((gain[:at], [v], gain[at:]))))

    def screen(self, candidates: np.ndarray, donors: np.ndarray, j: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """Total-SSR change of moving each candidate from its donor into region ``j``.

        Rank-one identities give the exact changes in O(m^2) per
        candidate: one stacked ``ssr_increase_if_added`` against region
        ``j`` and one stacked ``ssr_decrease_if_removed`` per donor.
        Returns ``(delta, refit)``; ``refit`` marks the candidates whose
        change only ``refit_delta`` can give, and their ``delta`` is nan.
        One rule decides them: a model that is degenerate, or whose
        stacked call raises NumericalBreakdownError, leaves every
        candidate it scores to refits. For region ``j`` that is every
        candidate; for a donor, the donor's candidates. The removal
        identity raises when any of the donor's rows has leverage ~1; the
        add identity divides by 1 + h >= 1 and does not break down.
        """
        x, y = self.dataset.X[candidates], self.dataset.y[candidates]
        delta = np.full(len(candidates), np.nan)
        refit = np.ones(len(candidates), dtype=bool)
        target = self.regions[j].model
        if target.degenerate:
            return delta, refit
        try:
            gain = ssr_increase_if_added(target, x, y)
        except NumericalBreakdownError:
            return delta, refit
        for d in np.unique(donors).tolist():
            donor = self.regions[d].model
            if donor.degenerate:
                continue
            rows = np.flatnonzero(donors == d)
            try:
                loss = ssr_decrease_if_removed(donor, x[rows], y[rows])
            except NumericalBreakdownError:
                continue
            delta[rows] = gain[rows] - loss
            refit[rows] = False
        return delta, refit

    def refit_delta(self, v: int, d: int, j: int) -> tuple[float, tuple[_Fit, _Fit]]:
        """Total-SSR change from moving unit v out of region d into region j, by refits.

        Also returns the two fits (``moved_fits``), for ``move`` to install.
        """
        fits = new_d, new_j = self.moved_fits(v, d, j)
        return (new_j.ssr - self.regions[j].ssr) + (new_d.ssr - self.regions[d].ssr), fits

    def move(self, v: int, src: int, dst: int, fits: tuple[_Fit, _Fit] | None = None):
        """Move unit ``v`` from region ``src`` into region ``dst`` and refit both.

        ``fits`` are the fits of ``moved_fits(v, src, dst)`` when the caller
        already has them; otherwise both regions are fitted here.
        """
        if fits is None:
            fits = self.moved_fits(v, src, dst)
        self.regions[src], self.regions[dst] = fits
        self.assign[v] = dst
        self.cuts[src] = self.cuts[dst] = None
        if self.check_invariants:
            assert any(
                self.assign[w] == dst for w in self.graph.neighbors[v]
            ), "unit moved into a region it does not touch"
            for units, _, _ in self.regions:
                assert len(units) >= self.config.min_obs, "region dropped below the minimum size"
                assert is_connected_subset(self.graph, units), "region lost connectivity"

    def run(self, step) -> SolveResult:
        """Call ``step(self)`` until it moves nothing or ``max_iter`` times."""
        for _ in range(self.config.max_iter):
            moved = step(self)
            self.trace.append(_total(self.regions))
            if not moved:
                stop_reason = "converged"
                break
        else:
            stop_reason = "max_iter"
        return SolveResult(partition=Partition(self.assign, self.config.p),
                           models=[f.model for f in self.regions], total_ssr=self.trace[-1],
                           iterations_used=len(self.trace) - 1, seed=self.config.seed,
                           wall_time=time.perf_counter() - self.start, trace=self.trace,
                           stop_reason=stop_reason)


def _azp_candidates(graph: AdjacencyGraph, rows: np.ndarray, assign: np.ndarray,
                    j: int) -> np.ndarray:
    """Units outside region ``j`` with a neighbor inside it, ascending.

    ``rows[t]`` is the unit whose CSR row holds ``graph.indices[t]``, so
    the units owning an entry labelled ``j`` are the ones touching ``j``.
    """
    touch = np.zeros(graph.n, dtype=bool)
    touch[rows[assign[graph.indices] == j]] = True
    return np.flatnonzero((assign != j) & touch)


def _rkm_candidates(graph: AdjacencyGraph, rows: np.ndarray, assign: np.ndarray,
                    resid: np.ndarray, sizes: np.ndarray, min_obs: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """RKM candidate units, ascending, and the region each would move to.

    A unit's best adjacent region is the one among its own and its
    neighbors' regions with the lowest ``resid`` entry, ties to the lower
    region index. A unit is a candidate when that region is not its own
    and its own region has more than ``min_obs`` units. ``adjacent`` is
    the ``(n, p)`` mask of each unit's own and neighbors' regions, set
    along the CSR arrays (``rows`` as in ``_azp_candidates``); ``argmin``
    over the masked residuals takes the first minimum, so ties go to the
    lower index, as in the partition stage.
    """
    adjacent = np.zeros(resid.shape, dtype=bool)
    adjacent[rows, assign[graph.indices]] = True
    adjacent[np.arange(graph.n), assign] = True
    best = np.argmin(np.where(adjacent, resid, np.inf), axis=1)
    candidates = np.flatnonzero((best != assign) & (sizes[assign] > min_obs))
    return candidates, best[candidates]


def _azp_pass(search: _LocalSearch) -> bool:
    """One AZP pass: at most one unit moves into each region, in index order."""
    graph, rows, assign, regions = search.graph, search.rows, search.assign, search.regions
    min_obs = search.config.min_obs
    moved = False
    for j in range(search.config.p):
        candidates = _azp_candidates(graph, rows, assign, j)
        donors = assign[candidates]
        delta, refit = search.screen(candidates, donors, j)
        sizes = np.array([len(f.units) for f in regions])
        viable = (sizes[donors] > min_obs) & (refit | (delta < -SSR_TOLERANCE))
        # first valid unit of a uniformly shuffled scan is a uniform
        # draw from the full valid set, without evaluating all of it
        order = search.rng.permutation(len(candidates))
        for pos in order[viable[order]].tolist():
            v, d = int(candidates[pos]), int(donors[pos])
            if search.is_cut(v, d):
                continue
            fits = None
            if refit[pos]:
                change, fits = search.refit_delta(v, d, j)
                if not change < -SSR_TOLERANCE:
                    continue
            search.move(v, d, j, fits)
            moved = True
            break
    return moved


def _rkm_move(search: _LocalSearch) -> bool:
    """One RKM step: move one random candidate unit to its best adjacent region."""
    dataset, assign = search.dataset, search.assign
    betas = np.column_stack([f.model.beta for f in search.regions])
    resid = np.abs(dataset.y[:, None] - dataset.augmented @ betas)
    sizes = np.array([len(f.units) for f in search.regions])
    candidates, targets = _rkm_candidates(search.graph, search.rows, assign, resid,
                                          sizes, search.config.min_obs)
    candidates, targets = candidates.tolist(), targets.tolist()
    # uniform draw from the valid set via a shuffled first-hit scan
    for pos in search.rng.permutation(len(candidates)):
        i = candidates[pos]
        d = int(assign[i])
        if not search.is_cut(i, d):
            search.move(i, d, targets[pos])
            return True
    return False


def solve_azp(dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig,
              check_invariants: bool = False) -> SolveResult:
    """Zoning-style local search: pull boundary units into adjacent regions.

    Each pass visits regions in fixed index order. For region j, a unit v
    adjacent to it may move in when (a) its donor stays at or above
    ``min_obs``, (b) the move strictly lowers the total SSR, and (c) the
    donor stays connected without it. The checks run in the order size,
    SSR, connectivity. Check (b) uses rank-one identities, scored for all
    of region j's candidates at once, one stacked call per model. Where a
    model is degenerate or its stacked call breaks down (a donor row of
    leverage ~1), every candidate that model scores is decided by full
    refits, after check (c). Check (c) is a lookup in the donor's cached
    cut vertices (``_LocalSearch``). Every check is a pure function of the
    current state, so the order does not change which unit moves.
    One uniformly random valid unit is moved per region per pass and both
    affected models are refit immediately, so later regions in the same
    pass see the updated state. Terminates when a full pass moves nothing
    or after ``max_iter`` passes. Region j's candidates are the units
    outside it with a neighbor inside it, in ascending order, found
    afresh from the labels when the pass reaches j (``_azp_candidates``).

    ``check_invariants`` asserts the feasibility of every region after
    every accepted move (debug instrumentation).
    """
    return _LocalSearch(dataset, graph, config, check_invariants).run(_azp_pass)


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
    affected models are refit. Terminates when no candidate exists or
    after ``max_iter`` moves. The candidates come from one vectorised
    scan of the residual matrix along the graph's CSR arrays
    (``_rkm_candidates``), in ascending unit order.

    The connectivity check is a lookup in the donor's cached cut vertices
    (``_LocalSearch``). ``check_invariants`` asserts the feasibility of
    every region after every move (debug instrumentation).
    """
    return _LocalSearch(dataset, graph, config, check_invariants).run(_rkm_move)


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
