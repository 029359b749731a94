"""Distance-to-kernel conversion and the low-rank landmark approximation.

The solvers never see raw distances: they operate on a positive
semi-definite RBF kernel, either dense or factored as K ≈ G·Gᵀ. Both forms
give their diagonal, trace and dense matrix; the solvers check
``is_factored`` and work on the factor directly where that saves forming
the n×n matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .distances import MEASURES, DistanceMatrix, cross_distances, pairwise_distances
from .errors import AllZeroDistances, RankDeficientWarning
from .linalg import _symmetric_within, sym_eig
from .model import _KNOWN_SYMMETRIC, Tractogram, _adopt, _frozen_array, validate_tractogram

_EIG_FLOOR_REL = 1e-10


@dataclass(frozen=True)
class KernelMatrix:
    """RBF kernel over streamlines, dense or as a low-rank factor.

    Exactly one of ``dense_values`` (n×n) and ``factor`` (n×r, K ≈ G·Gᵀ) is
    set. ``shift`` records the spectrum shift folded into the values.
    """

    n: int
    gamma: float
    shift: float = 0.0
    dense_values: np.ndarray | None = None
    factor: np.ndarray | None = None
    landmarks: np.ndarray | None = None

    def __post_init__(self):
        if (self.dense_values is None) == (self.factor is None):
            raise ValueError("exactly one of dense_values and factor must be set")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.dense_values is not None:
            k = np.asarray(self.dense_values, dtype=np.float64)
            if k.shape != (self.n, self.n):
                raise ValueError(f"dense kernel must be ({self.n}, {self.n})")
            if not _KNOWN_SYMMETRIC.get() and not _symmetric_within(k, 1e-12):
                raise ValueError("dense kernel must be symmetric within 1e-12")
            object.__setattr__(self, "dense_values", _frozen_array(k))
        else:
            g = np.asarray(self.factor, dtype=np.float64)
            if g.ndim != 2 or g.shape[0] != self.n:
                raise ValueError(f"factor must have {self.n} rows, got {g.shape}")
            object.__setattr__(self, "factor", _frozen_array(g))
            if self.landmarks is not None:
                object.__setattr__(
                    self,
                    "landmarks",
                    _frozen_array(np.asarray(self.landmarks), dtype=np.int64),
                )

    @property
    def is_factored(self) -> bool:
        return self.factor is not None

    def diagonal(self) -> np.ndarray:
        if self.is_factored:
            return np.einsum("ij,ij->i", self.factor, self.factor)
        return np.diagonal(self.dense_values).copy()

    def trace(self) -> float:
        return float(self.diagonal().sum())

    def dense(self) -> np.ndarray:
        """Materialize the full n×n matrix (the one expensive op here)."""
        if self.is_factored:
            return self.factor @ self.factor.T
        return np.asarray(self.dense_values)


def select_gamma(d: DistanceMatrix) -> float:
    """RBF width from the distance distribution: γ = 1/(2·median²).

    Raises AllZeroDistances when every off-diagonal distance is zero, in
    which case no scale can be inferred (callers that want the γ=1 fallback
    should go through :func:`kernel_from_distances`).
    """
    if d.n < 2:
        raise ValueError("need at least 2 streamlines to select gamma")
    # The off-diagonal entries are the strict upper triangle twice over, and
    # doubling a multiset keeps its median, to the bit.
    return _width_from_upper(_pack_upper(d.values, np.empty(d.n * (d.n - 1) // 2)))


def _pack_upper(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy the strict upper triangle row by row to the front of 1-D ``out``.

    ``out`` may be ``values``' own buffer: no row is overwritten before it
    is read. Returns the packed front of ``out``.
    """
    n, at = values.shape[0], 0
    for i in range(n - 1):
        out[at : at + n - 1 - i] = values[i, i + 1 :]
        at += n - 1 - i
    return out[:at]


def _width_from_upper(off: np.ndarray) -> float:
    """`select_gamma` of the strict upper triangle ``off``, which it reorders."""
    if not off.any():
        raise AllZeroDistances("all off-diagonal distances are zero")
    sigma = float(np.median(off, overwrite_input=True))
    if sigma == 0.0:
        # Majority of exact duplicates; fall back to the positive entries.
        sigma = float(np.median(off[off > 0]))
    return 1.0 / (2.0 * sigma * sigma)


def _rbf_values(d: np.ndarray, gamma: float) -> np.ndarray:
    """exp(−γ·d²), squared, scaled and exponentiated in place over ``d``.

    Each step is elementwise, so the bits are those of a fresh array.
    """
    np.square(d, out=d)
    d *= -gamma
    return np.exp(d, out=d)


def _psd_shift(values: np.ndarray) -> float:
    """|λ_min| of a symmetric matrix when λ_min is negative, else 0.0.

    λ_min comes from a one-pair partial eigensolve (`sym_eig` with
    ``count=1``: Lanczos for large n, LAPACK's subset driver below).
    """
    lam_min = float(sym_eig(values, count=1)[0][0])
    return -lam_min if lam_min < 0.0 else 0.0


def _shifted_rbf(values: np.ndarray, gamma=None, shift=None) -> KernelMatrix:
    """Dense exp(−γ·d²) + shift·I, built over the distances ``values``.

    ``values`` is an exactly symmetric distance array the caller hands
    over; it is overwritten and becomes the kernel, which as an elementwise
    function of it is exactly symmetric too and is adopted without a second
    symmetry check. With ``gamma`` None the width is `select_gamma`'s, taken
    inside the buffer: the triangle is packed at its front and a copy right
    behind it is partitioned; the rows are then unpacked from the last one
    back and mirrored, which restores the distances. If every distance is
    zero a warning is issued and γ falls back to 1. With ``shift`` None the
    shift is `_psd_shift` of the unshifted kernel. The shift is added to the
    diagonal alone, which gives the same floats as adding shift·I.
    """
    n = values.shape[0]
    if gamma is None:
        if n < 2:
            raise ValueError("need at least 2 streamlines to select gamma")
        flat = values.reshape(-1)
        at = _pack_upper(values, flat).size
        flat[at : 2 * at] = flat[:at]
        try:
            gamma = _width_from_upper(flat[at : 2 * at])
        except AllZeroDistances:
            warnings.warn("all distances are zero; falling back to gamma=1", stacklevel=3)
            gamma = 1.0
        for i in reversed(range(n - 1)):
            at -= n - 1 - i
            values[i, i + 1 :] = flat[at : at + n - 1 - i]
        for i in range(n):
            values[i, i] = 0.0
            values[i + 1 :, i] = values[i, i + 1 :]
    elif gamma <= 0:
        raise ValueError("gamma must be positive")
    _rbf_values(values, gamma)
    if shift is None:
        shift = _psd_shift(values)
    if shift:
        np.fill_diagonal(values, values.diagonal() + shift)
    return _adopt(
        KernelMatrix, known_symmetric=True, n=n, gamma=float(gamma), shift=shift,
        dense_values=values,
    )


def rbf_kernel(d: DistanceMatrix, gamma: float) -> KernelMatrix:
    """k(i, j) = exp(−γ·d(i, j)²); dense, no shift applied yet."""
    return _shifted_rbf(np.array(d.values), gamma, shift=0.0)


def spectrum_shift(k: KernelMatrix) -> KernelMatrix:
    """Add |λ_min|·I when the kernel is indefinite, recording the shift.

    λ_min is found as in `_psd_shift`. Only the self-similarities change;
    this is what licenses reusing the unshifted formula for cross-kernel
    rows against held-out streamlines.
    """
    if k.is_factored:
        raise ValueError("spectrum shift applies to the dense form only")
    shift = _psd_shift(k.dense_values)
    if not shift:
        return k
    values = k.dense_values.copy()
    np.fill_diagonal(values, values.diagonal() + shift)
    return _adopt(
        KernelMatrix, n=k.n, gamma=k.gamma, shift=k.shift + shift, dense_values=values
    )


def kernel_from_distances(d: DistanceMatrix, gamma: float | None = None) -> KernelMatrix:
    """Distance matrix to shifted PSD kernel in one step.

    With gamma=None the width is selected from the median distance; if every
    distance is zero a warning is issued and γ falls back to 1. The result
    equals ``spectrum_shift(rbf_kernel(d, gamma))`` bit for bit but is built
    in one copy of d's n×n array.
    """
    return _shifted_rbf(np.array(d.values), gamma)


def _kernel_in_distance_buffer(d: DistanceMatrix, gamma=None, shift=None) -> KernelMatrix:
    """`_shifted_rbf` over d's own buffer: no second n×n array is made.

    Only for a DistanceMatrix its caller made and drops at once: the buffer
    is unfrozen and overwritten, so d holds kernel values afterwards.
    """
    d.values.flags.writeable = True
    return _shifted_rbf(d.values, gamma, shift)


def _nystrom_factor(k_aa: np.ndarray, k_ab: np.ndarray):
    """Low-rank factor rows from the landmark block and the cross block.

    Keeps the landmark eigenpairs (w, V) with w above `_EIG_FLOOR_REL`·λ_max
    and returns the (p+q)×r factor [V·√w; K_abᵀ·V/√w] in landmark-first row
    order, r ≤ p, with the number of dropped eigenpairs.
    """
    w, v = sym_eig(k_aa)
    keep = w > _EIG_FLOOR_REL * w[-1]
    w, v = w[keep], v[:, keep]
    root = np.sqrt(w)
    return np.vstack([v * root, (k_ab.T @ v) / root]), int(keep.size - keep.sum())


def nystrom_kernel(
    t: Tractogram,
    measure: str = "mcp",
    gamma: float | None = None,
    p: int = 100,
    seed: int = 0,
    threads: int | None = 1,
) -> KernelMatrix:
    """Landmark approximation K ≈ G·Gᵀ without forming the full kernel.

    p landmarks are drawn uniformly at random with the given seed; the
    spectrum shift needed for definiteness is applied to the landmark block
    only, so the p = n case reproduces the dense shifted kernel. G is n×r
    with r ≤ p: landmark eigenpairs too small to invert are dropped. With
    ``gamma`` None the width is the landmark block's, chosen as for the
    dense kernel (γ = 1 with a warning when those distances are all zero,
    and for a single landmark).
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    validate_tractogram(t)
    n = len(t)
    if not 1 <= p <= n:
        raise ValueError(f"landmark count must be in [1, {n}], got {p}")

    rng = np.random.default_rng(seed)
    landmarks = np.sort(rng.choice(n, size=p, replace=False))
    rest = np.setdiff1d(np.arange(n), landmarks)

    t_land = Tractogram(tuple(t[i] for i in landmarks))
    d_aa = pairwise_distances(t_land, measure, threads=threads)
    k_aa = _kernel_in_distance_buffer(d_aa, 1.0 if gamma is None and p < 2 else gamma)

    if rest.size:
        t_rest = Tractogram(tuple(t[i] for i in rest))
        d_ab = cross_distances(t_land, t_rest, measure, threads=threads)
        k_ab = _rbf_values(d_ab, k_aa.gamma)
    else:
        k_ab = np.zeros((p, 0))

    g_blocks, dropped = _nystrom_factor(k_aa.dense_values, k_ab)
    if dropped > p / 2:
        warnings.warn(
            f"{dropped} of {p} landmark eigenvalues were dropped; the "
            "approximation is rank deficient",
            RankDeficientWarning,
            stacklevel=2,
        )
    g = np.empty((n, g_blocks.shape[1]))
    g[landmarks] = g_blocks[:p]
    g[rest] = g_blocks[p:]
    return _adopt(
        KernelMatrix, n=n, gamma=k_aa.gamma, shift=k_aa.shift, factor=g,
        landmarks=landmarks,
    )
