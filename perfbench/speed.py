"""Machine-speed probe, timed between the benchmark's operations.

The benchmark runs on a shared machine whose speed drifts by 20% or more
over tens of seconds, in CPU time as well as in wall time: a fixed piece of
NumPy work took 3.5 ms at the median of one ten-second window and 5.2 ms in
the next, on a shared two-CPU Xeon virtual machine.  A run is too short to
average that out, so a run's operation times say as much about the
machine's state as about the program.

The probe is a fixed unit of work of the kinds the program does, built from
NumPy and SciPy alone and independent of the program and of the run's seed:
a BLAS matrix product (one thread, as the benchmark runs BLAS), a sort, a
Python loop, a point-cloud distance block with a segmented minimum
(memory-bound, like the streamline distances) and small dense solves (call
overhead, like the pursuit's subproblems).  The benchmark runs it after each
set-up and each operation for ``SHARE`` of that step's duration, so the
probe samples the machine over the same stretch of time as the program, and
scales the run's times to the speed at which one unit takes
``REFERENCE_S``: scaled time = measured time × REFERENCE_S / mean unit time
of the run.  A change to the program moves the operations and not the
probe, so it shows in full; a slower stretch of machine time moves both and
cancels out.  Both sides are means, total time over count, because a
two-second operation averages over the machine's slow moments that the
median of 6-ms probe units skips.  A probe round is too short for its own
mean to be steady, so the scale is taken over the whole run, not per step.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial.distance import cdist

# Median over the recorded baseline's runs of each run's mean unit time
# (perfbench/README.md); a constant, so it cancels in any comparison.
REFERENCE_S = 0.0061
# Probe time after each set-up or operation, as a share of its duration.
SHARE = 0.25

_rng = np.random.default_rng(20260101)
_MATRIX = _rng.standard_normal((200, 200))
_VECTOR = _rng.standard_normal(50_000)
_POINTS = _rng.standard_normal((18, 3))
_CLOUD = _rng.standard_normal((18_000, 3))
_STARTS = np.arange(0, 18_000, 18)
_GRAM = _rng.standard_normal((12, 12))
_GRAM = _GRAM @ _GRAM.T + np.eye(12)
_RHS = _rng.standard_normal(12)


def unit() -> float:
    """Run one unit of reference work; return its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(4):
        _MATRIX @ _MATRIX
    for _ in range(3):
        np.sort(_VECTOR)
    total = 0
    for i in range(20_000):
        total += i
    np.minimum.reduceat(cdist(_POINTS, _CLOUD), _STARTS, axis=1).sum(axis=0)
    for _ in range(80):
        np.linalg.solve(_GRAM, _RHS)
    return time.perf_counter() - t0


class Probe:
    """Unit times collected over one run."""

    def __init__(self):
        self.samples: list[float] = []

    def run(self, seconds: float) -> None:
        """Run whole units until ``seconds`` pass, and at least one."""
        end = time.perf_counter() + seconds
        self.samples.append(unit())
        while time.perf_counter() < end:
            self.samples.append(unit())

    def scale(self) -> float:
        """Reference seconds per measured second over the run."""
        return REFERENCE_S / statistics.fmean(self.samples)
