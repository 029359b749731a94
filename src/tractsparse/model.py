"""Domain types shared by every stage of the pipeline.

All coordinates and solver arithmetic are 64-bit. Types are immutable after
construction (arrays are marked read-only), so values can be shared freely
across threads.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateStreamline,
    EmptyTractogram,
    NonFiniteCoordinate,
)


# True while `_adopt` builds an object around arrays the package just made.
_ADOPTING = contextvars.ContextVar("tractsparse_adopting", default=False)
# True while the square array `_adopt` hands over is exactly symmetric by
# construction, so the constructor need not check it again.
_KNOWN_SYMMETRIC = contextvars.ContextVar("tractsparse_known_symmetric", default=False)


def _frozen_array(values, dtype=np.float64):
    """A read-only private copy of ``values``; inside `_adopt`, the array itself."""
    if _ADOPTING.get() and isinstance(values, np.ndarray) and values.dtype == dtype:
        arr = values
    else:
        arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _adopt(cls, known_symmetric=False, **fields):
    """Build ``cls`` around arrays the caller has just made and hands over.

    Those arrays are frozen in place instead of copied, so a fresh n×n
    matrix is held once. The public constructors keep copying, so a
    caller's own array is never frozen behind their back. With
    ``known_symmetric`` the caller vouches that its square array is exactly
    symmetric, and the constructor skips its symmetry check.
    """
    adopting, symmetric = _ADOPTING.set(True), _KNOWN_SYMMETRIC.set(known_symmetric)
    try:
        return cls(**fields)
    finally:
        _KNOWN_SYMMETRIC.reset(symmetric)
        _ADOPTING.reset(adopting)


def _pages(nbytes: int):
    """``nbytes`` of fresh anonymous memory in a private map of their own.

    Private, so a forked child copies a page on write instead of sharing it.
    Where the system has transparent huge pages, the map asks for them, as
    numpy does for its own large arrays, so a matrix faults in 2-MiB pages
    rather than 4-KiB ones.
    """
    pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):  # a kernel built without them
            pages.madvise(mmap.MADV_HUGEPAGE)
    return pages


def _matrix(shape) -> np.ndarray:
    """An uninitialised C-ordered float64 array in its own memory map.

    The package's n×n matrices come from here: distances
    (`distances._assemble`), the matrices read from .dm and dense .km
    files, the kernel copies in `kernel`, a factored kernel's
    `KernelMatrix.dense`, the graph Laplacian, its per-component blocks
    (`solvers._laplacian_blocks`) and the spectral start's normalized
    Laplacian. Its pages go back to the operating system when the array is
    freed, so a freed matrix never stays resident behind the next one, and
    the C allocator never raises its threshold for serving large blocks
    from the heap. A process that runs several commands
    therefore peaks at one command's footprint. A map cannot be empty, so
    an empty shape still maps one byte.
    """
    count = math.prod(shape)
    pages = _pages(max(8 * count, 1))
    return np.frombuffer(pages, dtype=np.float64, count=count).reshape(shape)


@dataclass(frozen=True)
class Streamline:
    """An ordered 3D polyline, coordinates in millimeters.

    Points are stored as an (n_points, 3) float64 array. Consecutive points
    need not be equidistant; no resampling is assumed anywhere downstream.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"streamline points must be (n, 3), got {pts.shape}")
        object.__setattr__(self, "points", _frozen_array(pts))

    def __len__(self):
        return self.points.shape[0]

    @property
    def endpoints(self) -> np.ndarray:
        """The first and last point, shape (2, 3)."""
        return self.points[[0, -1]]


@dataclass(frozen=True)
class Tractogram:
    """A collection of streamlines, typically one subject's tractography."""

    streamlines: tuple
    subject_id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "streamlines", tuple(self.streamlines))

    def __len__(self):
        return len(self.streamlines)

    def __iter__(self):
        return iter(self.streamlines)

    def __getitem__(self, i) -> Streamline:
        return self.streamlines[i]


@dataclass(frozen=True)
class Labeling:
    """Cluster indices in [0, m) for each streamline of a tractogram."""

    labels: np.ndarray
    m: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if lab.size and (lab.min() < 0 or lab.max() >= self.m):
            raise ValueError(f"labels must lie in [0, {self.m})")
        object.__setattr__(self, "labels", _frozen_array(lab, dtype=np.int64))

    def __len__(self):
        return self.labels.size


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver settings.

    ``t_outer`` left at None means each solver applies its own default
    (100 sweeps for kernel k-means, 20 for the sparse solver, 30 for the
    ADMM solvers). A set ``t_outer``, like ``t_inner``, must be at least 1,
    since a fit without a sweep returns no clusters. ``lambda2`` weighs the
    row-group prior of the ADMM solver: a dictionary row stays live while
    it holds at least 2·λ2·√(m/n) of its members' explained energy, so
    larger values keep fewer rows and 0 turns the prior off. At None it
    takes the scale-aware default described in
    :func:`tractsparse.solvers.default_lambda2`.
    """

    m: int
    s_max: int = 3
    lambda1: float = 0.001
    lambda2: float | None = None
    lambda_l: float = 0.0
    mu: float = 0.01
    t_inner: int = 200
    t_outer: int | None = None
    eps_primal: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("mu", "lambda1", "lambda2", "lambda_l", "eps_primal"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.s_max < 1:
            raise ValueError("s_max must be >= 1")
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if self.eps_primal <= 0:
            raise ValueError("eps_primal must be > 0")
        if self.lambda1 < 0 or self.lambda_l < 0:
            raise ValueError("trade-off weights must be non-negative")
        if self.lambda2 is not None and self.lambda2 < 0:
            raise ValueError("trade-off weights must be non-negative")
        if self.t_inner < 1 or (self.t_outer is not None and self.t_outer < 1):
            raise ValueError("sweep budgets t_inner and t_outer must be >= 1")


# Largest accepted |coordinate| in mm. Below it no squared point difference
# can overflow: 3·(2·1e150)² ≈ 1.2e301, far under float64's 1.8e308.
_COORDINATE_BOUND = 1e150
# Largest accepted distance in mm: above 2√3·1e150, the farthest apart two
# in-range points can be, and below about 1.3e154, where a square overflows.
_DISTANCE_BOUND = 1e152


def validate_tractogram(t: Tractogram) -> None:
    """Check tractogram invariants, raising a ``DataError`` subclass on violation.

    One pass over the point counts and one bound check over all points find
    the first streamline that breaks a rule; a streamline with both faults
    is reported as degenerate.

    Raises:
        EmptyTractogram: no streamlines at all.
        DegenerateStreamline: a streamline with fewer than 2 points.
        NonFiniteCoordinate: any NaN or infinite coordinate, or one beyond
            ±1e150 mm, where a squared distance could overflow.
    """
    if len(t) == 0:
        raise EmptyTractogram("tractogram contains no streamlines")
    pts = [s.points for s in t]
    counts = [p.shape[0] for p in pts]
    first = next((i for i, k in enumerate(counts) if k < 2), len(counts))
    # false for NaN and ±inf as well as for overflowing magnitudes
    magnitude = np.concatenate(pts)
    bounded = np.abs(magnitude, out=magnitude) <= _COORDINATE_BOUND
    if not bounded.all():
        # the streamline holding the first bad point: the first i + 1 hold cumsum[i]
        q = np.argmin(bounded.all(axis=1))
        i = int(np.searchsorted(np.cumsum(counts), q, side="right"))
        if i < first:
            raise NonFiniteCoordinate(f"streamline {i} has a non-finite or out-of-range coordinate")
    if first < len(counts):
        raise DegenerateStreamline(f"streamline {first} has {counts[first]} point(s)")
