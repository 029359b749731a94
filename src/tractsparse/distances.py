"""Pairwise streamline distances and the endpoint-proximity graph.

Three measures, all point-to-vertex (closest sampled point, never a
projection onto a segment):

* ``mcp``  -- mean closest point, symmetrized by averaging both directions
* ``haus`` -- Hausdorff, symmetrized by taking the larger direction
* ``ep``   -- endpoints only, averaged over endpoints and both directions

A distance matrix is assembled from tiles, runs of consecutive streamlines.
For each pair of tiles one ``cdist`` block serves both directions: minima
over a column streamline's points give row -> column, minima over a row
streamline's points give column -> row. Every block holds at most
``_TILE_POINTS``² point pairs (2 MiB). The square matrix cuts tiles of at
most ``_TILE_POINTS`` points, computes only the upper triangle of tile
pairs, about n²/2 point blocks, and mirrors it. A cross block against a
small set, such as an atlas's atom streamlines, widens the other side's
tiles to fill the same budget, so it pays the per-tile cost a few times
instead of once per ``_TILE_POINTS`` points. The endpoint graph uses the
same driver.

Every entry equals the scalar ``dist_*`` call bit for bit. Minima and maxima
are exact in any order; sums are not. A directed mean adds its point minima
in point order q = 0, 1, ..., as the scalar loop does, and never through
NumPy's pairwise summation, which regroups runs of 8 or more values. Tiles
write disjoint blocks, so worker threads share them without changing a bit.

The calling thread allocates one cdist buffer per worker, sized to the
largest block, before any work starts, and every block is written into its
worker's buffer. Pool threads then never allocate a block, so their own
allocator heaps do not each keep one resident, and the calling thread works
through a share of the blocks itself.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .linalg import _row_strips
from .model import (
    _KNOWN_SYMMETRIC, Streamline, Tractogram, _adopt, _frozen_array, validate_tractogram,
)

MEASURES = ("mcp", "haus", "ep")

DEFAULT_ENDPOINT_THRESHOLD_MM = 7.0


@dataclass(frozen=True)
class DistanceMatrix:
    """Dense symmetric matrix of pairwise streamline distances in mm."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.n, self.n):
            raise ValueError(f"values must be ({self.n}, {self.n}), got {vals.shape}")
        # min and max carry any NaN or infinity, and the symmetry check
        # compares one strip of rows at a time, so no n×n mask is made. A
        # matrix the package assembled by mirroring skips that check.
        low, high = (vals.min(), vals.max()) if vals.size else (0.0, 0.0)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("distance matrix contains non-finite values")
        if low < 0:
            raise ValueError("distance matrix contains negative values")
        if np.any(np.diagonal(vals) != 0.0):
            raise ValueError("distance matrix diagonal must be exactly zero")
        if not _KNOWN_SYMMETRIC.get() and not all(
            np.array_equal(vals[i:j, i:], vals[i:, i:j].T) for i, j in _row_strips(self.n)
        ):
            raise ValueError("distance matrix must be symmetric")
        object.__setattr__(self, "values", _frozen_array(vals))


@dataclass(frozen=True)
class EndpointGraph:
    """Binary graph connecting streamlines with nearby endpoints."""

    adjacency: np.ndarray
    threshold_mm: float
    degree: np.ndarray = field(init=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        if not np.isin(adj, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        adj = adj.astype(np.uint8)
        if np.any(np.diagonal(adj) != 0):
            raise ValueError("adjacency diagonal must be zero")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if not 0 < self.threshold_mm < np.inf:
            raise ValueError("threshold_mm must be finite and positive")
        object.__setattr__(self, "adjacency", _frozen_array(adj, dtype=np.uint8))
        object.__setattr__(
            self, "degree", _frozen_array(adj.sum(axis=1), dtype=np.int64)
        )

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def _directed_mean(pa: np.ndarray, pb: np.ndarray) -> float:
    # Plain sequential accumulation, so the scalar path agrees bitwise with
    # the row-at-a-time matrix assembly (axis-0 reduce accumulates in order).
    mins = cdist(pa, pb).min(axis=1)
    total = 0.0
    for v in mins:
        total += v
    return total / mins.size


def dist_mcp(a: Streamline, b: Streamline) -> float:
    """Mean-closest-point distance, averaged over both directions.

    Each direction takes, for every point of one streamline, the distance to
    the nearest sampled point of the other, and averages those minima.
    """
    validate_tractogram(Tractogram((a, b)))
    d_ab = _directed_mean(a.points, b.points)
    d_ba = _directed_mean(b.points, a.points)
    return float((d_ab + d_ba) / 2.0)


def dist_hausdorff(a: Streamline, b: Streamline) -> float:
    """Symmetric Hausdorff distance: the worst closest-point distance."""
    validate_tractogram(Tractogram((a, b)))
    d_ab = cdist(a.points, b.points).min(axis=1).max()
    d_ba = cdist(b.points, a.points).min(axis=1).max()
    return float(max(d_ab, d_ba))


def dist_ep(a: Streamline, b: Streamline) -> float:
    """Endpoint distance: closest-endpoint matching, averaged both ways.

    Only the first and last point of each streamline participate, so two
    streamlines sharing endpoints are at distance 0 regardless of interior
    shape.
    """
    validate_tractogram(Tractogram((a, b)))
    m = cdist(a.endpoints, b.endpoints)
    d_ab = (m[0].min() + m[1].min()) / 2.0
    d_ba = (m[:, 0].min() + m[:, 1].min()) / 2.0
    return float((d_ab + d_ba) / 2.0)


def _resolve_threads(threads: int | None) -> int:
    """Worker count: ``threads``, else $TRACTSPARSE_THREADS, else the usable CPUs.

    The usable CPUs are those the process may run on
    (``os.sched_getaffinity``), or ``os.cpu_count()`` where that call does
    not exist. An empty variable counts as unset. A count below 1, or a
    variable that is not an integer, raises ValueError naming where it came
    from.
    """
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads must be a positive integer, got {threads}")
        return int(threads)
    raw = os.environ.get("TRACTSPARSE_THREADS")
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"TRACTSPARSE_THREADS={raw!r} is not a positive integer")
    return threads


# Points per square-matrix tile. No cdist block holds more than this many
# points squared (2 MiB), so temporaries keep one bounded size whatever n is
# and the allocator reuses their pages instead of mapping fresh ones.
_TILE_POINTS = 512


class _Tile:
    """A run of consecutive streamlines, laid out for block reductions.

    The streamlines are taken longest first (``ids`` holds their indices)
    and their points are stored by rank: point 0 of every streamline, then
    point 1 of those that have one, and so on. Rank q is then one run of
    rows whose k streamlines are the tile's first k, so a per-streamline
    reduction steps through the ranks in point order with slices alone.
    """

    def __init__(self, pts: list, lo: int):
        counts = np.array([p.shape[0] for p in pts])
        order = np.argsort(-counts, kind="stable")
        self.n = len(pts)
        self.ids = lo + order
        self.counts = counts[order]
        q = np.arange(self.counts[0])[:, None]
        present = q < self.counts
        starts = np.cumsum(self.counts) - self.counts
        self.points = np.concatenate([pts[i] for i in order])[(starts + q)[present]]
        live = present.sum(axis=1)
        self.runs = list(zip((np.cumsum(live) - live).tolist(), live.tolist()))

    def fold(self, ufunc, x: np.ndarray) -> np.ndarray:
        """Reduce the rows of ``x``, one per point, to one per streamline.

        Rows are combined in point order q = 0, 1, ..., so ``np.add`` sums
        exactly as the scalar loop does.
        """
        acc = x[: self.n].copy()
        for start, k in self.runs[1:]:
            ufunc(acc[:k], x[start : start + k], out=acc[:k])
        return acc


def _runs(sizes: list, limit: int) -> list:
    """Bounds (lo, hi) of runs of consecutive streamlines of at most ``limit`` points.

    A streamline longer than that is a run of its own.
    """
    runs, lo, size = [], 0, 0
    for i, k in enumerate(sizes):
        if i > lo and size + k > limit:
            runs.append((lo, i))
            lo, size = i, 0
        size += k
    runs.append((lo, len(sizes)))
    return runs


def _tiles(t: Tractogram, measure: str, limit: int = _TILE_POINTS) -> list:
    """Cut a tractogram into tiles of at most ``limit`` points (see `_runs`)."""
    pts = [s.endpoints if measure in ("ep", "near") else s.points for s in t]
    sizes = [p.shape[0] for p in pts]
    return [_Tile(pts[lo:hi], lo) for lo, hi in _runs(sizes, limit)]


def _cross_tiles(a: Tractogram, b: Tractogram, measure: str) -> tuple[list, list]:
    """Tiles of a and b whose cdist blocks hold at most ``_TILE_POINTS``² pairs.

    Cut at ``_TILE_POINTS`` points, the side with the narrower widest tile
    keeps that cut. The other side is cut at the budget over that width,
    never below ``_TILE_POINTS``: against a small set its tiles widen until
    each block fills the budget, and against a side that holds a full
    ``_TILE_POINTS``-point tile both keep the square matrix's cut.
    """
    widest = []
    for t in (a, b):
        sizes = [2] * len(t) if measure == "ep" else [len(s) for s in t]
        widest.append(max(sum(sizes[lo:hi]) for lo, hi in _runs(sizes, _TILE_POINTS)))
    wide = max(_TILE_POINTS, _TILE_POINTS**2 // min(widest))
    if widest[0] <= widest[1]:
        return _tiles(a, measure), _tiles(b, measure, wide)
    return _tiles(a, measure, wide), _tiles(b, measure)


def _block(a: _Tile, b: _Tile, measure: str, buf: np.ndarray) -> np.ndarray:
    """Symmetrized distances between two tiles from one cdist block.

    The point block is written into the front of the flat ``buf``. Minima
    over b's points give every a -> b direction, minima over a's points the
    reverse, so each point block serves both. ``near``, private to the
    endpoint graph, is each pair's smallest point distance.
    """
    size = a.points.shape[0] * b.points.shape[0]
    d = cdist(a.points, b.points, out=buf[:size].reshape(-1, b.points.shape[0]))
    to_b = b.fold(np.minimum, d.T)  # streamline of b x point of a
    if measure == "near":
        return a.fold(np.minimum, to_b.T)
    to_a = a.fold(np.minimum, d)  # streamline of a x point of b
    if measure == "haus":
        return np.maximum(
            a.fold(np.maximum, to_b.T), b.fold(np.maximum, to_a.T).T
        )
    a_to_b = a.fold(np.add, to_b.T) / a.counts[:, None]
    b_to_a = b.fold(np.add, to_a.T) / b.counts[:, None]
    return (a_to_b + b_to_a.T) / 2.0


# Tile pairs per worker below which a matrix is assembled in the calling
# thread alone: a pool costs more than it saves on a handful of blocks, such
# as a new subject against a small atlas.
_PAIRS_PER_WORKER = 8


def _assemble(rows: list, cols: list | None, measure: str, threads: int):
    """Distance matrix between two tile lists, one block per tile pair.

    With ``cols`` None the matrix is square over ``rows``: only the upper
    triangle of tile pairs is computed and each block is mirrored. Blocks
    are disjoint, so workers share them in any order without changing a
    bit. Each worker takes chunks of consecutive pairs from one queue, which
    spreads the triangle's uneven rows evenly, and writes every cdist block
    into its own buffer, allocated here. The calling thread is one of the
    workers; a pool runs the others.
    """
    square = cols is None
    cols = rows if square else cols
    out = np.empty((sum(a.n for a in rows), sum(b.n for b in cols)))
    pairs = [
        (a, b)
        for k, a in enumerate(rows)
        for b in (cols[k:] if square else cols)
    ]
    workers = max(1, min(threads, len(pairs) // _PAIRS_PER_WORKER))
    size = max(a.points.shape[0] * b.points.shape[0] for a, b in pairs)
    buffers = [np.empty(size) for _ in range(workers)]
    step = -(-len(pairs) // (workers * 8))
    todo = queue.SimpleQueue()
    for k in range(0, len(pairs), step):
        todo.put(pairs[k : k + step])

    def work(buf):
        while True:
            try:
                chunk = todo.get_nowait()
            except queue.Empty:
                return
            for a, b in chunk:
                block = _block(a, b, measure, buf)
                out[np.ix_(a.ids, b.ids)] = block
                if square:
                    out[np.ix_(b.ids, a.ids)] = block.T

    if workers == 1:
        work(buffers[0])
    else:
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            futures = [pool.submit(work, buf) for buf in buffers[1:]]
            work(buffers[0])
            for future in futures:
                future.result()
    return out


def pairwise_distances(
    t: Tractogram, measure: str = "mcp", threads: int | None = 1
) -> DistanceMatrix:
    """All pairwise distances under one measure.

    Only the upper triangle of point blocks is computed, each block once for
    both directions, so the cost is about n²/2 blocks. Entry (i, j) equals
    the scalar ``dist_*`` call bit for bit.

    Parameters
    ----------
    t : Tractogram
    measure : {"mcp", "haus", "ep"}
    threads : int or None
        Worker threads sharing the tiles. None reads TRACTSPARSE_THREADS,
        and takes the usable CPUs when it is unset or empty (see
        `_resolve_threads`). A matrix of fewer than ``_PAIRS_PER_WORKER``
        tile pairs per worker runs on fewer threads. The result is bitwise
        identical for any thread count.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    validate_tractogram(t)
    values = _assemble(_tiles(t, measure), None, measure, _resolve_threads(threads))
    return _adopt(DistanceMatrix, known_symmetric=True, n=len(t), values=values)


def cross_distances(
    a: Tractogram, b: Tractogram, measure: str = "mcp", threads: int | None = 1
) -> np.ndarray:
    """Rectangular distance block between two streamline sets.

    Entry (i, j) is the same symmetrized measure ``pairwise_distances`` uses,
    so ``cross_distances(t, t)`` equals the square matrix bit for bit. One
    pass over the a × b point blocks serves both directions. Blocks are
    bounded by point pairs, not by points per side (see `_cross_tiles`), so
    against m streamlines of P points in all it runs about one block per
    ``_TILE_POINTS``²/P points of the other side. ``threads`` is as in
    `pairwise_distances`; a new subject against a small atlas makes too
    few blocks for a pool, so it runs in the calling thread.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    validate_tractogram(a)
    validate_tractogram(b)
    rows, cols = _cross_tiles(a, b, measure)
    return _assemble(rows, cols, measure, _resolve_threads(threads))


def build_endpoint_graph(
    t: Tractogram,
    threshold_mm: float = DEFAULT_ENDPOINT_THRESHOLD_MM,
    threads: int | None = 1,
) -> EndpointGraph:
    """Connect streamline pairs whose closest endpoints lie under a threshold.

    Edge rule: the minimum over the four endpoint pairings of (i, j) must be
    strictly below ``threshold_mm``. Self-loops are never added. The minima
    come from the distance tile driver over endpoints, exact in any order,
    so the graph is the same for any ``threads`` (as in `pairwise_distances`).
    """
    if not 0 < threshold_mm < np.inf:
        raise ValueError(f"threshold_mm must be finite and positive, got {threshold_mm}")
    validate_tractogram(t)
    adj = _assemble(_tiles(t, "near"), None, "near", _resolve_threads(threads)) < threshold_mm
    np.fill_diagonal(adj, 0)
    return EndpointGraph(adjacency=adj, threshold_mm=float(threshold_mm))


def graph_laplacian(g: EndpointGraph) -> np.ndarray:
    """Combinatorial Laplacian: degree matrix minus adjacency."""
    lap = np.subtract(0.0, g.adjacency, dtype=np.float64)
    np.fill_diagonal(lap, g.degree)
    return lap
