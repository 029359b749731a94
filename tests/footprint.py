"""Helpers for the memory-footprint tests: traced peaks and a test matrix."""

import tracemalloc

import numpy as np

from tractsparse.distances import DistanceMatrix


def traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak bytes it allocated above what was live before."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def random_distances(n: int, seed: int = 0) -> DistanceMatrix:
    """Symmetric, zero-diagonal and not a metric, so its RBF kernel is indefinite."""
    upper = np.triu(np.random.default_rng(seed).uniform(1.0, 10.0, size=(n, n)), 1)
    return DistanceMatrix(n=n, values=upper + upper.T)
