"""Spatial adjacency graphs, region partitions and random region growth.

Units are dense integer indices 0..n-1. Graphs are undirected, have no
self-loops, and must be connected as a whole; builders reject anything
else. A graph is stored as two read-only int64 arrays in compressed
sparse row (CSR) form, so building one, checking connectivity and
building the local search's region-count table create no Python object
per edge; loops that visit units one at a time (the local search's cut
tests, its count updates and its invariant checks) read a cached tuple
view. Instances are immutable and may be shared freely across
concurrent solver runs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DisconnectedGraphError, DuplicatePointsError, InitializationFailedError

__all__ = [
    "AdjacencyGraph",
    "Partition",
    "build_grid_graph",
    "build_edge_list_graph",
    "build_knn_graph",
    "read_edge_list",
    "is_connected_subset",
    "connected_components",
    "grow_initial_partition",
]


@dataclass(frozen=True, eq=False)
class AdjacencyGraph:
    """Symmetric neighborhood structure over ``n`` spatial units, in CSR form.

    Attributes
    ----------
    n : int
        Number of units.
    indptr : ndarray of int64, shape (n + 1,)
        Unit ``i``'s neighbors are ``indices[indptr[i]:indptr[i + 1]]``.
    indices : ndarray of int64
        Every unit's neighbors, row after row, each row ascending.

    Both arrays are read-only, and vectorised code indexes them
    directly: connectivity, and ``solvers._region_counts``, which builds
    the AZP/RKM ``touch`` table that both candidate scans read. One view
    is derived from them: ``neighbors``, a tuple of ascending neighbor
    tuples, one per unit, for loops that visit units one at a time, which
    walk tuples faster than CSR slices. The local search reads it in its
    cut tests, its cut-vertex DFS, ``move``'s ``touch`` updates and
    ``check_invariants``. It is built on first access and cached
    outside the dataclass fields, so equality and hashing (by value,
    over the arrays) ignore it; building it is idempotent, so a graph
    shared across runs stays safe to share.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, AdjacencyGraph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes()))

    @cached_property
    def neighbors(self) -> tuple:
        flat, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


# Target points per knn search tile at the mean density of the bounding box.
# Chosen from a sweep of 32 to 512 on 20,000 points with k=18: 64 was
# fastest, and every size gave the same neighbor sets.
_TILE_POINTS = 64
# Most entries of one distance block (64 MB of float64).
_BLOCK_ENTRIES = 8_000_000


def _finalize_graph(n: int, i: np.ndarray, j: np.ndarray) -> AdjacencyGraph:
    """Freeze directed unit pairs ``i[t] -> j[t]`` into an AdjacencyGraph.

    The pairs are symmetrized into the keys ``src * n + dst``, built in
    one array, and deduplicated by sorting them, which also leaves every
    row ascending: row ``r`` is the keys in ``[r * n, (r + 1) * n)``, and
    a key's remainder is its neighbor. Raises DisconnectedGraphError
    unless the graph is connected.
    """
    m = len(i)
    key = np.empty(2 * m, dtype=np.int64)
    np.multiply(i, n, out=key[:m], dtype=np.int64)
    np.add(key[:m], j, out=key[:m])
    np.multiply(j, n, out=key[m:], dtype=np.int64)
    np.add(key[m:], i, out=key[m:])
    key.sort()
    fresh = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    key = key[fresh]
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    indices = np.remainder(key, n, out=key)
    indptr.flags.writeable = indices.flags.writeable = False
    if not (_component_roots(indptr, indices) == 0).all():
        raise DisconnectedGraphError(
            "adjacency input does not form a single connected component"
        )
    return AdjacencyGraph(n, indptr, indices)


def build_grid_graph(rows: int, cols: int) -> AdjacencyGraph:
    """Rook-contiguity graph of a ``rows`` x ``cols`` regular grid.

    Cells sharing an edge (not merely a corner) are neighbors. Cell
    ``(r, c)`` has index ``r * cols + c``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    index = np.arange(rows * cols).reshape(rows, cols)
    i = np.concatenate([index[:, :-1].ravel(), index[:-1, :].ravel()])
    j = np.concatenate([index[:, 1:].ravel(), index[1:, :].ravel()])
    return _finalize_graph(rows * cols, i, j)


def build_edge_list_graph(n: int, pairs) -> AdjacencyGraph:
    """Graph over ``n`` units from an iterable of index pairs.

    Pairs are symmetrized and deduplicated. Indices must be integers
    (Python or numpy). Raises ValueError for any other index, naming its
    edge, IndexError for indices outside ``[0, n)``, ValueError for
    self-loops, and DisconnectedGraphError if the result is not connected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ends: list[tuple[int, int]] = []
    for i, j in pairs:
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise ValueError(f"edge ({i!r}, {j!r}) has a non-integer index") from None
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop on unit {i}")
        ends.append((i, j))
    ends_array = np.array(ends, dtype=np.int64).reshape(-1, 2)
    return _finalize_graph(n, ends_array[:, 0], ends_array[:, 1])


def build_knn_graph(points, k: int) -> AdjacencyGraph:
    """Symmetrized k-nearest-neighbor graph over 2-D points.

    Each unit is linked to its ``k`` nearest neighbors by Euclidean
    distance and the directed edge set is then symmetrized (union).
    Distance ties are broken toward the lower unit index. Squared
    distances are computed from coordinate differences, so an exact
    translation of all points leaves the graph unchanged, however far
    from the origin they lie.

    The search is exact. The points are bucketed into square tiles of
    about 64 points at the mean density, and each tile's rows are
    searched among the points inside the tile's bounding box widened by
    a margin of about twice the k-th neighbor distance at that density.
    A row is accepted only if its k-th distance is certified below the
    margin, so no point outside the box can be nearer or tie; other rows
    (outliers, sparse tiles) are searched over all ``n`` points. On
    evenly spread points each row meets a few hundred candidates, so
    the cost is near-linear in ``n``: 20,000 points with ``k=18`` take
    about 0.2 CPU-seconds. Tightly clustered points degrade toward the
    full ``n`` x ``n`` scan, in blocks of bounded memory.

    Raises ValueError on non-finite coordinates, DisconnectedGraphError
    when the union graph is not connected (the caller should raise
    ``k``) and DuplicatePointsError on repeated coordinates.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of coordinates")
    if not np.isfinite(pts).all():
        raise ValueError("points must have finite coordinates")
    n = len(pts)
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    # equal rows are adjacent after sorting; 0.0 and -0.0 compare equal
    ordered = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        raise DuplicatePointsError("coordinate list contains repeated points")

    rows, nearest = _knn_search(pts, k)
    try:
        return _finalize_graph(n, np.repeat(rows, k), nearest.ravel())
    except DisconnectedGraphError:
        raise DisconnectedGraphError(
            f"k={k} nearest neighbors leave the graph disconnected; increase k"
        ) from None


def _knn_search(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors of every point: ``(rows, nearest)``.

    ``nearest[t]`` holds the ``k`` neighbors of unit ``rows[t]``; every
    unit appears once in ``rows``, in no particular order.
    """
    n = len(pts)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = hi - lo
    # square tiles of about _TILE_POINTS points; a box of zero height is
    # cut into strips along its length
    side = max(np.sqrt(span[0] * span[1] * _TILE_POINTS / n),
               span.max() * _TILE_POINTS / n)
    # twice the radius of a disc holding k points at the mean density
    margin = 2.0 * side * np.sqrt(k / (np.pi * _TILE_POINTS))
    shape = np.maximum(np.ceil(span / side).astype(np.int64), 1)

    def tile_of(xy):
        # monotone in each coordinate, so a box's corner tiles bound the
        # tiles of every point inside it
        return np.clip(((xy - lo) / side).astype(np.int64), 0, shape - 1)

    cell = tile_of(pts)
    tile = cell[:, 1] * shape[0] + cell[:, 0]
    order = np.argsort(tile, kind="stable")
    starts = np.searchsorted(tile[order], np.arange(shape[0] * shape[1] + 1))
    slot = np.empty(n, dtype=np.int64)
    found_rows, found, fallback = [], [], []
    for t in np.flatnonzero(np.diff(starts)):
        members = order[starts[t]:starts[t + 1]]
        tile_pts = pts[members]
        tmin, tmax = tile_pts.min(axis=0), tile_pts.max(axis=0)
        box_lo, box_hi = tmin - margin, tmax + margin
        (x0, y0), (x1, y1) = tile_of(box_lo), tile_of(box_hi)
        cand = np.concatenate([
            order[starts[y * shape[0] + x0]:starts[y * shape[0] + x1 + 1]]
            for y in range(y0, y1 + 1)
        ])
        cand_pts = pts[cand]
        inside = ((cand_pts >= box_lo) & (cand_pts <= box_hi)).all(axis=1)
        cand, cand_pts = cand[inside], cand_pts[inside]
        if len(cand) <= k:
            fallback.append(members)
            continue
        # every point outside the box is farther than `reach` from every
        # member; a side of the box beyond all points hides no point
        reach = min(np.where(box_lo > lo, tmin - box_lo, np.inf).min(),
                    np.where(box_hi < hi, box_hi - tmax, np.inf).min())
        # squared distances carry at most a few ulps of rounding
        bound = reach * reach * (1.0 - 1e-12)
        slot[cand] = np.arange(len(cand))
        for block in _row_blocks(len(members), len(cand)):
            rows = members[block]
            chosen, cutoff = _nearest(pts[rows], slot[rows], cand, cand_pts, k)
            certified = cutoff < bound
            found_rows.append(rows[certified])
            found.append(chosen[certified])
            fallback.append(rows[~certified])
    rest = np.concatenate(fallback)
    everyone = np.arange(n)
    for block in _row_blocks(len(rest), n):
        rows = rest[block]
        found_rows.append(rows)
        found.append(_nearest(pts[rows], rows, everyone, pts, k)[0])
    return np.concatenate(found_rows), np.concatenate(found)


def _row_blocks(rows: int, cols: int):
    """Slices of ``range(rows)`` keeping each rows x cols block bounded."""
    step = max(1, _BLOCK_ENTRIES // cols)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _nearest(row_pts, self_col, cols, col_pts, k):
    """The ``k`` nearest of ``cols`` to each row and the k-th squared distance.

    ``self_col[r]`` is the column holding row ``r`` itself, which is
    excluded. Ties at the k-th distance go to the lower unit index. The
    k-th distance comes from a partition of the distances themselves;
    a row with exactly ``k`` columns within it keeps those, in column
    order.
    """
    dist = ((row_pts[:, None, 0] - col_pts[None, :, 0]) ** 2
            + (row_pts[:, None, 1] - col_pts[None, :, 1]) ** 2)
    dist[np.arange(len(row_pts)), self_col] = np.inf
    cutoff = np.partition(dist, k - 1, axis=1)[:, k - 1]
    within = dist <= cutoff[:, None]
    tied = np.count_nonzero(within, axis=1) > k
    within[tied] = False
    chosen = np.empty((len(row_pts), k), dtype=cols.dtype)
    chosen[~tied] = cols[np.flatnonzero(within) % len(cols)].reshape(-1, k)
    for r in np.flatnonzero(tied):
        cand = np.flatnonzero(dist[r] <= cutoff[r])
        order = np.lexsort((cols[cand], dist[r, cand]))
        chosen[r] = cols[cand[order[:k]]]
    return chosen, cutoff


def read_edge_list(path) -> list[tuple[int, int]]:
    """Parse an edge-list file: one ``i j`` pair per line, ``#`` comments."""
    pairs: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                i, j = map(int, text.split())  # a wrong count fails the unpacking
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'i j', got {text!r}") from None
            pairs.append((i, j))
    return pairs


def _component_roots(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Smallest member of each vertex's connected component, for a CSR graph.

    Array min-label hooking with pointer jumping (Shiloach & Vishkin,
    J. Algorithms 3(1), 1982). ``label`` always maps a vertex to a smaller
    or equal vertex of its component. Each round every vertex takes the
    least label among its neighbors with one ``minimum.reduceat`` over its
    row, and the roots of those that found a smaller one are hooked onto
    it; jumping then points every label at a root again. A round with no
    hook leaves every edge inside one tree, so each component is a star
    whose root is its smallest member. Hooks join whole trees, so the
    rounds do not grow with the diameter the way a level-by-level search
    does: a 25 x 25 grid takes 2 rounds and a 20,000-point knn graph 6,
    the last of each finding nothing to hook.
    """
    rows = np.flatnonzero(np.diff(indptr))  # reduceat needs non-empty rows
    starts = indptr[rows]
    label = np.arange(len(indptr) - 1)
    while len(rows):
        low = np.minimum.reduceat(label[indices], starts)
        roots = label[rows]
        hook = low < roots
        if not hook.any():
            break
        np.minimum.at(label, roots[hook], low[hook])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    return label


def _induced_roots(graph: AdjacencyGraph, subset) -> tuple[np.ndarray, np.ndarray]:
    """The ``subset`` units, ascending and distinct, and their component roots.

    The roots are ``_component_roots`` of the subgraph the units induce,
    built as a CSR graph over their positions, so each root is the
    position of its component's smallest member.
    """
    if not isinstance(subset, np.ndarray):
        subset = np.fromiter(subset, dtype=np.int64)
    units = np.unique(subset.astype(np.int64, copy=False))
    local = np.full(graph.n, -1, dtype=np.int64)
    local[units] = np.arange(len(units))
    starts = graph.indptr[units]
    lengths = graph.indptr[units + 1] - starts
    ends = np.cumsum(lengths)
    gather = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)
    nbrs = local[graph.indices[gather]]
    inside = nbrs >= 0
    kept = np.concatenate(([0], np.cumsum(inside)))
    indptr = kept[np.concatenate(([0], ends))]
    return units, _component_roots(indptr, nbrs[inside])


def is_connected_subset(graph: AdjacencyGraph, subset) -> bool:
    """True iff the subgraph induced by ``subset`` is connected."""
    units, roots = _induced_roots(graph, subset)
    if not len(units):
        raise ValueError("subset must be non-empty")
    return bool((roots == 0).all())


def connected_components(graph: AdjacencyGraph, subset) -> list[list[int]]:
    """Connected components of the induced subgraph, as sorted index lists.

    Components are ordered by their smallest member, so the result is
    deterministic for a given subset. They come from one
    ``_component_roots`` call over the induced subgraph, however many
    there are.
    """
    units, roots = _induced_roots(graph, subset)
    if not len(units):
        return []
    order = np.argsort(roots, kind="stable")
    roots = roots[order]
    flat = units[order].tolist()
    cuts = [0, *(np.flatnonzero(roots[1:] != roots[:-1]) + 1).tolist(), len(flat)]
    return [flat[a:b] for a, b in zip(cuts, cuts[1:])]


def grow_initial_partition(graph: AdjacencyGraph, count: int, min_obs: int,
                           rng: np.random.Generator, restart_limit: int = 100) -> Partition:
    """Grow ``count`` connected regions from random seed units.

    Each region starts at a distinct random unit; regions then take turns
    absorbing one randomly picked unassigned neighbor until every unit is
    assigned. If any region ends up below ``min_obs`` the whole procedure
    restarts with fresh seeds, up to ``restart_limit`` attempts. The growth
    loop walks a Python list of labels, which is converted to an int64
    array once per attempt. Each absorbed unit's CSR row is read as a
    slice of a memoryview, whose items are Python ints, so no row is
    copied into a list.
    """
    n = graph.n
    indptr, indices = graph.indptr.tolist(), memoryview(graph.indices)
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, n], got {count}")
    if count * min_obs > n:
        raise InitializationFailedError(
            f"{count} regions of at least {min_obs} units cannot cover {n} units"
        )
    for _ in range(restart_limit):
        assignment = [-1] * n
        seeds = rng.choice(n, size=count, replace=False).tolist()
        for r, s in enumerate(seeds):
            assignment[s] = r
        frontier_lists: list[list[int]] = []
        frontier_sets: list[set[int]] = []
        for s in seeds:
            fresh = [v for v in indices[indptr[s]:indptr[s + 1]] if assignment[v] == -1]
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
                    for w in indices[indptr[u]:indptr[u + 1]]:
                        if assignment[w] == -1 and w not in fset:
                            flist.append(w)
                            fset.add(w)
                    progressed = True
                    break
            if not progressed:  # unreachable on a connected graph
                break
        if remaining == 0:
            labels = np.array(assignment, dtype=np.int64)
            if np.bincount(labels, minlength=count).min() >= min_obs:
                return Partition(labels, count)
    raise InitializationFailedError(
        f"no initial partition with {count} regions of >= {min_obs} units "
        f"found in {restart_limit} attempts"
    )


@dataclass
class Partition:
    """Assignment of every unit to exactly one region label in ``0..p-1``.

    Every label must be used by at least one unit. Labels of a non-integer
    dtype (floats, say) raise ValueError instead of being truncated.
    """

    assignment: np.ndarray
    p: int = field(default=0)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment)
        if self.assignment.ndim != 1 or len(self.assignment) == 0:
            raise ValueError("assignment must be a non-empty 1-D label array")
        if not np.issubdtype(self.assignment.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {self.assignment.dtype}")
        self.assignment = self.assignment.astype(np.int64, copy=False)
        if self.assignment.min() < 0:
            raise ValueError(f"labels must be dense in 0..p-1, got {self.assignment.min()}")
        if self.p == 0:
            self.p = int(self.assignment.max()) + 1
        sizes = np.bincount(self.assignment, minlength=self.p)
        if len(sizes) != self.p or sizes.min() == 0:
            raise ValueError("labels must be dense in 0..p-1 with no empty region")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def members(self, region: int) -> np.ndarray:
        if not 0 <= region < self.p:
            raise ValueError(f"unknown region {region}")
        return np.flatnonzero(self.assignment == region)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.p)
