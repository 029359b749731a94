"""Helpers for the memory-footprint tests: traced peaks, mapped memory and a test matrix."""

import mmap
import tracemalloc

import numpy as np

from tractsparse import model
from tractsparse.distances import DistanceMatrix


def traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak bytes it allocated above what was live before.

    tracemalloc does not see memory maps, so while it traces, each
    `model._matrix` takes its pages from a ``bytearray`` of the same size,
    which it does see, and every n×n matrix is counted as before.
    """
    pages = model._pages
    model._pages = bytearray
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        model._pages = pages
    return out, peak


def mapped(arr: np.ndarray) -> bool:
    """Whether ``arr``'s memory belongs to a memory map, as `model._matrix`'s does."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return isinstance(getattr(arr, "obj", arr), mmap.mmap)


def random_distances(n: int, seed: int = 0) -> DistanceMatrix:
    """Symmetric, zero-diagonal and not a metric, so its RBF kernel is indefinite."""
    upper = np.triu(np.random.default_rng(seed).uniform(1.0, 10.0, size=(n, n)), 1)
    return DistanceMatrix(n=n, values=upper + upper.T)
