"""Spatial-regime solvers: two-stage K-Models, AZP, and Regional-K-Models.

All three jointly optimize region membership and per-region linear models
by minimizing the total sum of squared residuals (SSR). They share a
random-growth initializer and a common result type. Runs are single
threaded, own all mutable state, and are bit-reproducible from the seed.
"""

from __future__ import annotations

import heapq
import math
import operator
import time
from collections import deque
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
    ModelStack,
    RegionModel,
    fit_ols,
    region_ssr,
    ssr_decrease_if_removed,
    ssr_increase_if_added,
    union_ssr,
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
    ``dataclasses.replace``, raises ValueError naming the field for a
    non-integer ``p``, ``min_obs``, ``K`` (when set), ``max_iter`` or
    ``seed``, and for ``p`` or ``max_iter`` below 1 or an explicit
    ``K <= p``, whichever solver reads it. Integer fields are stored as
    Python ints.
    """

    p: int
    min_obs: int
    K: int | None = None
    max_iter: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("p", "min_obs", "K", "max_iter", "seed"):
            value = getattr(self, name)
            if value is not None or name != "K":
                try:
                    object.__setattr__(self, name, operator.index(value))
                except TypeError:
                    raise ValueError(f"{name} must be an integer, got {value!r}") from None
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
# Local cut searches in one region may pop this many units per member
# before its cut vertices are walked once and cached (``_LocalSearch.is_cut``).
CUT_SEARCH_SHARE = 0.5


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
    """What a region fit returns; no region holder stores one.

    ``units`` are the members as an ascending int64 array, ``model`` their
    OLS fit (None when fewer than m+1 units leave it non-unique) and
    ``ssr`` the model's sum of squared residuals over them (0.0 without a
    model). ``_LocalSearch`` and ``_RegionPool`` copy what they keep of a
    fit into tables indexed by region id.
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
    reassignment is one in-order loop over the units whose best
    micro-cluster is not their own (``_partition_sweep``).

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
    for _ in range(config.max_iter):
        best = np.argmin(_abs_residuals(dataset, np.array([f.model.beta for f in fits])), axis=1)
        moved = _partition_sweep(assign, best, k, stage_min)
        fits = _fit_labels(dataset, assign, k)
        trace.append(_total(fits))
        if not moved:
            stop_reason = "converged"
            break
    else:
        stop_reason = "max_iter"
    return Partition(assign, k), [f.model for f in fits], trace, stop_reason


def _partition_sweep(assign: np.ndarray, best: np.ndarray, k: int, stage_min: int) -> bool:
    """One partition-stage sweep of the units in index order, in place; whether a unit moved.

    In index order, unit ``i`` moves from region ``d = assign[i]`` to
    ``best[i]`` unless ``d`` has no more than ``stage_min`` units at that
    point. Only the units with ``best[i] != assign[i]`` are visited, and a
    unit's label changes only when it is visited, so their labels can be
    read before the loop.
    """
    sizes = np.bincount(assign, minlength=k).tolist()
    leavers = np.flatnonzero(best != assign)
    moved = False
    for i, d, r in zip(leavers.tolist(), assign[leavers].tolist(), best[leavers].tolist()):
        if sizes[d] > stage_min:
            assign[i] = r
            sizes[d] -= 1
            sizes[r] += 1
            moved = True
    return moved


class _RegionPool:
    """The merge stage's regions: one table indexed by region id.

    ``units`` maps each live region id to its ascending member array;
    ``ssr`` (a list) and ``cross`` (a ``(2F, m+2, m+2)`` array) hold each
    id's SSR and ``Z'Z`` with ``Z = [1 X y]`` over its rows, for the F
    fragments the pool starts from and every union merged since. A merge
    retires two ids and adds one, so ids stay below 2F and are never
    reused. ``region_of`` maps each unit to its region id, and
    ``neighbor_regions`` reads it with one gather over a region's CSR
    rows. A union of two member arrays is one concatenate and a stable
    sort, which merges the two ascending runs in linear time, and a
    region's first member is its smallest.

    A fragment's SSR comes from its fit and its ``cross`` from its rows.
    ``merge`` installs a union with the SSR it is given (a score or a
    fit's) and the sum of its sides' ``cross``, with no gather and no
    model; ``kmodels_merge_stage`` fits the final regions. Regions too
    small for a unique fit have SSR 0.0; they only ever shrink in number.
    ``union_fit`` is the only place a candidate merge is fitted, and
    ``scores`` computes the SSR of every union of more than m+1 units in a
    batch of candidates from the summed ``cross``, in one
    ``linreg.union_ssr`` call, without gathering its rows.
    """

    def __init__(self, dataset: Dataset, n: int, fragments: list[np.ndarray]):
        self.dataset = dataset
        self.rows = np.column_stack((dataset.augmented, dataset.y))
        self.units: dict[int, np.ndarray] = {}
        self.ssr: list[float] = []
        self.cross = np.empty((2 * len(fragments), dataset.m + 2, dataset.m + 2))
        self.region_of = np.empty(n, dtype=np.int64)
        for units in fragments:
            self.add(units, _fit(dataset, units).ssr)

    def add(self, units: np.ndarray, ssr: float, cross: np.ndarray | None = None) -> int:
        """Add a region of SSR ``ssr`` and ``Z'Z`` ``cross``, computed from its rows if None."""
        if cross is None:
            z = self.rows[units]
            cross = z.T @ z
        rid = len(self.ssr)
        self.units[rid] = units
        self.ssr.append(ssr)
        self.cross[rid] = cross
        self.region_of[units] = rid
        return rid

    def union_units(self, a: int, b: int) -> np.ndarray:
        """Ascending members of the union of regions ``a`` and ``b``."""
        return np.sort(np.concatenate((self.units[a], self.units[b])), kind="stable")

    def union_fit(self, a: int, b: int) -> _Fit:
        return _fit(self.dataset, self.union_units(a, b))

    def merge(self, a: int, b: int, ssr: float) -> int:
        """Replace regions ``a`` and ``b`` by their union of SSR ``ssr``, summing their ``cross``."""
        units = self.union_units(a, b)
        del self.units[a], self.units[b]
        return self.add(units, ssr, self.cross[a] + self.cross[b])

    def scores(self, pairs: list[tuple[int, int]]) -> dict[tuple[int, int], float]:
        """SSR of each union of more than m+1 units, from its sides' ``cross``, keyed by pair.

        One ``union_ssr`` call scores the whole batch, and each union's
        score is the one it would get alone. Pairs left out get no score:
        unions of at most m+1 units, whose fits ``_fit`` computes as
        before, and unions whose summed Gram is exactly singular or fails
        the Frobenius screen of ``fit_ols``, or whose score is not finite.
        No score costs more than O(m^3) per pair.
        """
        units, cross, least = self.units, self.cross, self.dataset.m + 1
        pairs = [(a, b) for a, b in pairs if len(units[a]) + len(units[b]) > least]
        if not pairs:
            return {}
        ssr = union_ssr(np.array([cross[a] + cross[b] for a, b in pairs]))
        return {pair: s for pair, s in zip(pairs, ssr.tolist()) if math.isfinite(s)}

    def neighbor_regions(self, graph: AdjacencyGraph, rid: int) -> set[int]:
        """Ids of the live regions other than ``rid`` that touch region ``rid``."""
        units = self.units[rid]
        indices = graph.indices
        touched = np.concatenate([indices[a:b] for a, b in zip(graph.indptr[units].tolist(),
                                                               graph.indptr[units + 1].tolist())])
        out = set(self.region_of[touched].tolist())
        out.discard(rid)
        return out


def _settle(pool: _RegionPool, candidates: list[tuple[int, int, int]]) -> list[tuple]:
    """``(delta, tie, a, b, ssr)`` for each ``(tie, a, b)`` union whose SSR change is finite.

    A union's SSR is its score when ``pool.scores``, called once for the
    batch, gives one, and otherwise the SSR of ``pool.union_fit(a, b)``;
    ``delta`` is the total-SSR change of merging by it.
    """
    scores = pool.scores([(a, b) for _, a, b in candidates])
    settled = []
    for tie, a, b in candidates:
        ssr = scores.get((a, b))
        if ssr is None:
            ssr = pool.union_fit(a, b).ssr
        delta = ssr - pool.ssr[a] - pool.ssr[b]
        if math.isfinite(delta):
            settled.append((delta, tie, a, b, ssr))
    return settled


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

    Each candidate union is settled when it is proposed (``_settle``):
    it gets its SSR, and its change ``ssr - ssr_a - ssr_b``, by this rule.

    - A union of more than m+1 units whose Gram, summed from its sides'
      cross-products, passes the Frobenius screen of ``fit_ols`` is
      scored from that sum (``_RegionPool.scores``, one call per batch)
      and never fitted.
    - Any other union (at most m+1 units, or an exactly singular or
      uncertified Gram) is fitted by ``fit_ols``. A union's score does
      not depend on the other unions of its batch.

    A union whose change is not finite is dropped, so it never wins. The
    size repair takes the least ``(change, smallest member)`` over the
    undersized region's neighbors. Fusion keeps one heap of
    ``(change, 0, a, b)``: it starts from every neighboring pair, skips
    entries whose side has merged away, and gains the pairs of each new
    region. A winner is installed in the pool's table (``_RegionPool``)
    with its members, its summed cross-products and its SSR, and no
    model.

    A score and a fit of the same rows agree to rounding. The tolerance
    is ``16 u (kappa_F + n) y'y``, with u the machine epsilon, kappa_F
    the Frobenius bound on the union Gram's condition, n the union's
    size and ``y'y`` its sum of squared responses; the largest gap
    measured was 0.32 of ``u (kappa_F + n) y'y``, over 58,735 scored
    unions of random designs and of three 20,000-point knn merge stages.
    So a merge differs from the one fitting every union would pick only
    when two candidates' changes lie within that tolerance of each
    other. Each of the final regions is fitted once, so the returned
    models are fits of their members.

    Returns ``(partition, models)`` with regions relabeled 0..p-1 by their
    smallest member. Raises MergeInfeasibleError if an undersized region
    has no neighboring region with a finite SSR change, if fewer than
    ``p`` regions remain after the size repair, or if fusion runs out of
    neighboring pairs with a finite SSR change before ``p`` remain.
    """
    fragments = [np.asarray(comp, dtype=np.int64) for j in range(micro_partition.p)
                 for comp in connected_components(graph, micro_partition.members(j))]
    pool = _RegionPool(dataset, graph.n, fragments)
    units = pool.units

    # absorb undersized regions, smallest first; smallest members are
    # distinct, so (size, smallest) orders live regions without ties
    repair = [(len(u), int(u[0]), rid) for rid, u in units.items() if len(u) < config.min_obs]
    heapq.heapify(repair)
    while repair:
        rid = heapq.heappop(repair)[2]
        if rid not in units:
            continue  # merged away since it was queued
        settled = _settle(pool, [(int(units[nb][0]), rid, nb)
                                 for nb in pool.neighbor_regions(graph, rid)])
        if not settled:
            raise MergeInfeasibleError(
                f"undersized region (size {len(units[rid])}, smallest member "
                f"{units[rid][0]}) has no neighboring region with a finite SSR "
                "change to merge into"
            )
        _, _, _, nb, ssr = min(settled)
        new = pool.merge(rid, nb, ssr)
        size = len(units[new])
        if size < config.min_obs:
            heapq.heappush(repair, (size, int(units[new][0]), new))

    if len(units) < config.p:
        raise MergeInfeasibleError(
            f"only {len(units)} regions remain after the size repair but "
            f"p={config.p} were requested; lower min_obs or raise K"
        )

    # fuse neighboring pairs with the smallest SSR increase until p remain
    adjacency = {rid: pool.neighbor_regions(graph, rid) for rid in units}
    heap = _settle(pool, [(0, a, b) for a in sorted(units) for b in sorted(adjacency[a]) if a < b])
    heapq.heapify(heap)
    while len(units) > config.p:
        while heap and not (heap[0][2] in units and heap[0][3] in units):
            heapq.heappop(heap)  # one side already merged away
        if not heap:
            raise MergeInfeasibleError(
                f"{len(units)} regions remain but no neighboring pair has a finite "
                f"SSR change to fuse, and p={config.p} were requested"
            )
        _, _, a, b, ssr = heapq.heappop(heap)
        new = pool.merge(a, b, ssr)
        adjacency[new] = (adjacency.pop(a) | adjacency.pop(b)) - {a, b}
        for x in sorted(adjacency[new]):
            adjacency[x].discard(a)
            adjacency[x].discard(b)
            adjacency[x].add(new)
        # ids only grow, so the new region's id is the larger of each pair
        for entry in _settle(pool, [(0, x, new) for x in sorted(adjacency[new])]):
            heapq.heappush(heap, entry)

    ordered = [_fit(dataset, u) for u in sorted(units.values(), key=lambda u: u[0])]
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


def _separates(neighbors, labels: list[int], v: int, starts: list[int]) -> tuple[bool, int]:
    """Whether the region ``labels[v]`` without ``v`` splits ``starts``; and the pops.

    ``starts`` are at least two of ``v``'s neighbors in its region. One
    breadth-first search grows from each inside the region without ``v``,
    the live searches popping one unit each in turn (Even & Shiloach 1981,
    JACM 28(1)), and two searches merge when one reaches a unit the other
    found. A search that runs dry while another is still apart has swept
    a whole component of the region without ``v``, so ``v`` is a cut
    vertex; once all have merged, the starts share one component. A cut
    costs about ``len(starts)`` times the smallest side it cuts off, not
    the region; a unit that is no cut costs what the searches pop before
    they meet. Returns the answer and the number of units popped.
    """
    region = labels[v]
    owner = dict(zip(starts, range(len(starts))))
    group = list(range(len(starts)))  # union-find over the searches
    queues = [deque([s]) for s in starts]
    apart = len(starts)
    pops = 0
    labels[v] = -1  # search the region without v
    try:
        while True:
            for i, queue in enumerate(queues):
                if group[i] != i:
                    continue  # merged into another search
                if not queue:
                    return True, pops
                u = queue.popleft()
                pops += 1
                for w in neighbors[u]:
                    if labels[w] != region:
                        continue
                    r = owner.get(w)
                    if r is None:
                        owner[w] = i
                        queue.append(w)
                        continue
                    while group[r] != r:
                        r = group[r]
                    if r != i:
                        group[r] = i
                        queue.extend(queues[r])
                        apart -= 1
                        if apart == 1:
                            return False, pops
    finally:
        labels[v] = region


class _LocalSearch:
    """Region state and loop shared by AZP and Regional-K-Models.

    It grows ``p`` connected regions, fits each one, and then keeps the
    unit labels ``assign``, a table of the regions' state indexed by
    region (below), and the trace of the total SSR. A step policy draws
    its proposals in shuffled order and hands them to ``move_first``, the
    one move path of both policies: it refuses a proposal whose unit is a
    cut vertex of its donor, and one marked exact whose refitted change
    (``refit_delta``) is not below ``-SSR_TOLERANCE``, and moves the
    first one left. ``run`` calls the policy until a step moves nothing
    (``stop_reason`` ``"converged"``) or ``max_iter`` steps have run
    (``"max_iter"``), and appends the total SSR to the trace after every
    step, so ``iterations_used == len(trace) - 1``. ``touch[u, r]``
    counts the units of u's closed neighborhood (u and its neighbors) in
    region r; it is built once (``_region_counts``) and only ``move`` updates it.
    Both step policies read their candidates from it with numpy
    (``_azp_candidates``, ``_rkm_candidates``).

    Region ``r``'s state is stored once, in ``units[r]`` (its ascending
    member array), ``ssr[r]`` (its SSR, a Python float) and four arrays
    indexed by region: ``sizes`` (member counts), ``beta`` (``(p, m+1)``
    coefficients), ``gram_inv`` (``(p, m+1, m+1)`` inverse Grams, nan
    where there is none) and ``usable`` (the model has an inverse, so the
    rank-one identities apply). ``_write`` is their one writer: at
    start-up for every region, and in ``move`` for the two regions a move
    refits. ``move`` inserts the unit into one member array, drops it
    from the other and fits both (``moved_fits``), also when
    ``refit_delta`` fitted them to score the move. ``run`` builds the
    returned models from the table.

    ``screen`` scores moving each of a region's candidates into it with
    the rank-one identities, one add call against the region's model and
    one removal call against the stack of the candidates' donor models,
    both read from the arrays, and marks the candidates that only a full
    refit (``refit_delta``) can decide: every candidate a degenerate model
    scores, and every candidate when either call breaks down.

    Cut rule: ``is_cut(v, d)`` asks whether region ``d`` without ``v``
    is disconnected. ``labels``, a Python list kept equal to ``assign``,
    is what every cut search reads. A cached cut set of ``d`` answers by
    lookup. Otherwise a unit with at most one neighbor in ``d`` is never a
    cut, and any other is answered by local searches from its neighbors
    in ``d`` (``_separates``), whose pops are charged to ``d``. Once the
    charge since ``d``'s cut set was last dropped reaches
    ``CUT_SEARCH_SHARE * |d|``, the next search walks the whole region
    instead (``_articulation_points``) and caches its cut set. A move
    drops the cut sets and clears the charges of the two regions it
    touches. Both routes decide the same predicate, so the budget changes
    only the cost. The step policies ask only about units that passed
    every cheaper check (for AZP the size and the SSR screen). Regions
    stay connected, and a donor keeps at least ``min_obs >= m+1 >= 2``
    units, so the donor minus ``v`` is connected exactly when ``v`` is not
    a cut vertex.

    ``check_invariants`` asserts after every move that the unit touches
    its new region, that ``labels``, ``touch`` and every member array
    match ``assign``, and that every region is connected and at least
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
        self.labels = self.assign.tolist()
        self.touch = _region_counts(graph, self.assign, config.p)
        p, k = config.p, dataset.m + 1
        self.units: list[np.ndarray] = [None] * p
        self.ssr: list[float] = [0.0] * p
        self.sizes = np.empty(p, dtype=np.int64)
        self.beta = np.empty((p, k))
        self.gram_inv = np.empty((p, k, k))
        self.usable = np.empty(p, dtype=bool)
        for r, fit in enumerate(_fit_labels(dataset, self.assign, p)):
            self._write(r, fit)
        self.trace = [float(sum(self.ssr))]
        self.cuts: list[set[int] | None] = [None] * p
        self.charge = [0] * p

    def _write(self, r: int, fit: _Fit):
        """Store region ``r``'s ``fit`` in the table."""
        units, model, ssr = fit
        self.units[r], self.ssr[r] = units, ssr
        self.sizes[r] = len(units)
        self.beta[r] = model.beta
        self.usable[r] = model.gram_inv is not None
        self.gram_inv[r] = model.gram_inv if self.usable[r] else np.nan

    def is_cut(self, v: int, d: int) -> bool:
        """True when region ``d`` without its unit ``v`` is disconnected."""
        cuts = self.cuts[d]
        if cuts is not None:
            return v in cuts
        labels = self.labels
        starts = [w for w in self.graph.neighbors[v] if labels[w] == d]
        if len(starts) < 2:
            return False
        if self.charge[d] >= CUT_SEARCH_SHARE * len(self.units[d]):
            self.cuts[d] = _articulation_points(self.graph, labels, v)
            return v in self.cuts[d]
        cut, pops = _separates(self.graph.neighbors, labels, v, starts)
        self.charge[d] += pops
        return cut

    def moved_fits(self, v: int, src: int, dst: int) -> tuple[_Fit, _Fit]:
        """Fits of regions ``src`` without unit ``v`` and ``dst`` with it."""
        loss, gain = self.units[src], self.units[dst]
        at = int(np.searchsorted(gain, v))
        return (_fit(self.dataset, loss[loss != v]),
                _fit(self.dataset, np.concatenate((gain[:at], [v], gain[at:]))))

    def screen(self, candidates: np.ndarray, donors: np.ndarray, j: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """Total-SSR change of moving each candidate from its donor into region ``j``.

        Rank-one identities give the exact changes in O(m^2) per
        candidate, from two stacked calls over the candidates whose donor
        has a usable model, each on a ``ModelStack`` read from the table:
        ``ssr_increase_if_added`` against region ``j``'s model, and
        ``ssr_decrease_if_removed`` against each candidate's donor. Both
        score row by row, so a candidate's change does not depend on which
        others are screened with it.
        Returns ``(delta, refit)``; ``refit`` marks the candidates whose
        change only ``refit_delta`` can give, and their ``delta`` is nan.
        One rule decides them: a degenerate model leaves every candidate
        it scores to refits (for region ``j`` every candidate, for a donor
        its own), and so does a call that raises NumericalBreakdownError;
        each call scores every candidate not already left to refits, so
        then every candidate goes. The removal identity raises when any
        row has leverage ~1 in its donor; the add identity divides by
        1 + h >= 1.
        """
        delta = np.full(len(candidates), np.nan)
        scored = self.usable[donors] & self.usable[j]
        if scored.any():
            rows, owners = candidates[scored], donors[scored]
            x, y = self.dataset.X[rows], self.dataset.y[rows]
            try:
                gain = ssr_increase_if_added(ModelStack(self.beta[j], self.gram_inv[j]), x, y)
                loss = ssr_decrease_if_removed(
                    ModelStack(self.beta[owners], self.gram_inv[owners]), x, y)
            except NumericalBreakdownError:
                scored[:] = False
            else:
                delta[scored] = gain - loss
        return delta, ~scored

    def refit_delta(self, v: int, d: int, j: int) -> float:
        """Total-SSR change from moving unit v out of region d into region j, by refits."""
        new_d, new_j = self.moved_fits(v, d, j)
        return (new_j.ssr - self.ssr[j]) + (new_d.ssr - self.ssr[d])

    def move_first(self, proposals) -> tuple[int, int] | None:
        """Apply the first allowed ``(v, src, dst, exact)`` proposal and return its ``(src, dst)``.

        Proposals are read in the order given, and none after the one
        applied. A proposal is refused when ``v`` is a cut vertex of
        ``src`` (``is_cut``) or, when ``exact``, unless its refitted change
        (``refit_delta``) is below ``-SSR_TOLERANCE``. Returns None when
        every proposal is refused.
        """
        for v, src, dst, exact in proposals:
            if self.is_cut(v, src):
                continue
            if exact and not self.refit_delta(v, src, dst) < -SSR_TOLERANCE:
                continue
            self.move(v, src, dst)
            return src, dst
        return None

    def move(self, v: int, src: int, dst: int):
        """Move unit ``v`` from region ``src`` into region ``dst`` and refit both."""
        fits = self.moved_fits(v, src, dst)
        self._write(src, fits[0])
        self._write(dst, fits[1])
        self.assign[v] = self.labels[v] = dst
        for w in (*self.graph.neighbors[v], v):
            self.touch[w, src] -= 1
            self.touch[w, dst] += 1
        self.cuts[src] = self.cuts[dst] = None
        self.charge[src] = self.charge[dst] = 0
        if self.check_invariants:
            assert any(
                self.assign[w] == dst for w in self.graph.neighbors[v]
            ), "unit moved into a region it does not touch"
            assert self.labels == self.assign.tolist(), "label list out of step with assign"
            counts = _region_counts(self.graph, self.assign, self.config.p)
            assert np.array_equal(self.touch, counts), "region-count table out of step"
            for r, units in enumerate(self.units):
                assert np.array_equal(units, np.flatnonzero(self.assign == r)), \
                    "member array out of step with assign"
                assert len(units) >= self.config.min_obs, "region dropped below the minimum size"
                assert is_connected_subset(self.graph, units), "region lost connectivity"

    def run(self, step) -> SolveResult:
        """Call ``step(self)`` until it moves nothing or ``max_iter`` times."""
        for _ in range(self.config.max_iter):
            moved = step(self)
            self.trace.append(float(sum(self.ssr)))
            if not moved:
                stop_reason = "converged"
                break
        else:
            stop_reason = "max_iter"
        models = [RegionModel(self.beta[r].copy(), self.gram_inv[r].copy() if usable else None,
                              n_obs, degenerate=not usable, ssr=self.ssr[r])
                  for r, (n_obs, usable) in enumerate(zip(self.sizes.tolist(),
                                                          self.usable.tolist()))]
        return SolveResult(partition=Partition(self.assign, self.config.p),
                           models=models, total_ssr=self.trace[-1],
                           iterations_used=len(self.trace) - 1, seed=self.config.seed,
                           wall_time=time.perf_counter() - self.start, trace=self.trace,
                           stop_reason=stop_reason)


def _region_counts(graph: AdjacencyGraph, assign: np.ndarray, p: int) -> np.ndarray:
    """``(n, p)`` count of each unit and its neighbors by region, from one ``bincount``."""
    own = np.arange(graph.n)
    holders = np.concatenate((np.repeat(own, np.diff(graph.indptr)), own))
    held = np.concatenate((graph.indices, own))
    return np.bincount(holders * p + assign[held], minlength=graph.n * p).reshape(graph.n, p)


def _azp_candidates(touch: np.ndarray, assign: np.ndarray, j: int) -> np.ndarray:
    """Units outside region ``j`` with a neighbor inside it, ascending, from ``touch[:, j]``."""
    return np.flatnonzero((touch[:, j] > 0) & (assign != j))


def _rkm_candidates(touch: np.ndarray, assign: np.ndarray, resid: np.ndarray,
                    sizes: np.ndarray, min_obs: int) -> tuple[np.ndarray, np.ndarray]:
    """RKM candidate units, ascending, and the region each would move to.

    A unit's best adjacent region is the one among its own and its
    neighbors' regions with the lowest ``resid`` entry, ties to the lower
    region index. A unit is a candidate when that region is not its own
    and its own region has more than ``min_obs`` units. ``touch > 0``
    (closed neighborhoods) marks the regions a unit may pick; ``argmin``
    over the masked residuals takes the first minimum, so ties go to the
    lower index, as in the partition stage.
    """
    best = np.argmin(np.where(touch > 0, resid, np.inf), axis=1)
    candidates = np.flatnonzero((best != assign) & (sizes[assign] > min_obs))
    return candidates, best[candidates]


def _azp_pass(search: _LocalSearch) -> bool:
    """One AZP pass: at most one unit moves into each region, in index order."""
    touch, assign, sizes = search.touch, search.assign, search.sizes
    min_obs = search.config.min_obs
    moved = False
    for j in range(search.config.p):
        candidates = _azp_candidates(touch, assign, j)
        donors = assign[candidates]
        delta, refit = search.screen(candidates, donors, j)
        viable = (sizes[donors] > min_obs) & (refit | (delta < -SSR_TOLERANCE))
        # first valid unit of a uniformly shuffled scan is a uniform
        # draw from the full valid set, without evaluating all of it
        order = search.rng.permutation(len(candidates))
        moved |= search.move_first((int(candidates[pos]), int(donors[pos]), j, refit[pos])
                                   for pos in order[viable[order]].tolist()) is not None
    return moved


def _abs_residuals(dataset: Dataset, beta: np.ndarray) -> np.ndarray:
    """``(n, k)`` absolute residuals of every unit under each of the ``(k, m+1)`` models ``beta``.

    The ``(m+1, k)`` operand is made C-contiguous, so the product and
    its columns do not depend on how ``beta`` was laid out.
    """
    return np.abs(dataset.y[:, None] - dataset.augmented @ np.ascontiguousarray(beta.T))


class _RkmStep:
    """RKM's step policy: each call moves one random candidate unit to its best region.

    ``resid`` is the ``(n, p)`` matrix of absolute residuals, kept across
    steps. A move refits only its two regions, so only their two columns
    are recomputed from the stored betas, with one ``(n, m+1) @ (m+1, 2)``
    product; its columns equal those of the full ``(n, m+1) @ (m+1, p)``
    product bit for bit, which a single-column product (a matrix-vector
    kernel) need not. Sizes and the regions a unit touches are read from
    ``_LocalSearch.sizes`` and ``_LocalSearch.touch``.
    """

    def __init__(self, search: _LocalSearch):
        self.resid = _abs_residuals(search.dataset, search.beta)

    def __call__(self, search: _LocalSearch) -> bool:
        assign = search.assign
        candidates, targets = _rkm_candidates(search.touch, assign, self.resid,
                                              search.sizes, search.config.min_obs)
        candidates, targets = candidates.tolist(), targets.tolist()
        # uniform draw from the valid set via a shuffled first-hit scan
        moved = search.move_first(
            (candidates[pos], int(assign[candidates[pos]]), targets[pos], False)
            for pos in search.rng.permutation(len(candidates)))
        if moved is None:
            return False
        self.resid[:, list(moved)] = _abs_residuals(search.dataset, search.beta[list(moved)])
        return True


def solve_azp(dataset: Dataset, graph: AdjacencyGraph, config: SolverConfig,
              check_invariants: bool = False) -> SolveResult:
    """Zoning-style local search: pull boundary units into adjacent regions.

    Each pass visits regions in fixed index order. For region j, a unit v
    adjacent to it may move in when (a) its donor stays at or above
    ``min_obs``, (b) the move strictly lowers the total SSR, and (c) the
    donor stays connected without it. The checks run in the order size,
    SSR, connectivity. Check (b) uses rank-one identities, scored for all
    of region j's candidates at once: one add call against region j's
    model and one removal call against the stack of each candidate's
    donor model (``_LocalSearch.screen``). A degenerate model leaves every
    candidate it scores to full refits, and a call that breaks down (a
    candidate of leverage ~1 in its donor) leaves every candidate to
    them. The viable candidates go to ``_LocalSearch.move_first`` in
    shuffled order, marked exact when only refits can decide them; it
    runs check (c) and then, for an exact candidate, the refits. Check
    (c) is ``_LocalSearch.is_cut``: local searches from the unit's
    neighbors in the donor, until they have popped ``CUT_SEARCH_SHARE``
    times as many units as the donor holds since it last changed, then a
    lookup in the donor's cut vertices, walked once and cached. Every
    check is a pure function of the current state, so the order does not
    change which unit moves. Donor sizes come from ``_LocalSearch.sizes``.
    One uniformly random valid unit is moved per region per pass and both
    affected models are refit immediately, so later regions in the same
    pass see the updated state. Terminates when a full pass moves nothing
    or after ``max_iter`` passes. Region j's candidates are the units
    outside it with a neighbor inside it, in ascending order, read from
    column j of ``_LocalSearch.touch`` (closed-neighborhood region counts,
    kept by ``move``) when the pass reaches j (``_azp_candidates``).

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
    affected models are refit: the candidates go to
    ``_LocalSearch.move_first`` in shuffled order, which skips the cut
    vertices of their donors and moves the first one left. Terminates
    when no candidate exists or after ``max_iter`` moves. The candidates
    come from one vectorised scan of the residual matrix, masked to the
    regions of each unit's closed neighborhood (``_LocalSearch.touch``,
    kept by ``move``; ``_rkm_candidates``), in ascending unit order. The residual matrix
    is kept across moves, and a move recomputes only its two regions'
    columns, from the betas stored in ``_LocalSearch.beta`` (``_RkmStep``).

    The connectivity check is ``_LocalSearch.is_cut``: local searches in
    the donor, until they have popped ``CUT_SEARCH_SHARE`` times as many
    units as the donor holds since it last changed, then a lookup in its
    cut vertices, walked once and cached. ``check_invariants`` asserts
    the feasibility of every region after every move (debug
    instrumentation).
    """
    search = _LocalSearch(dataset, graph, config, check_invariants)
    return search.run(_RkmStep(search))


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
