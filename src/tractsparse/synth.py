"""Synthetic bundle generator with known ground truth.

Each bundle is a template centerline (line, arc, U, S, or a crossing pair
of arms) plus a smooth per-streamline offset: a degree-3 polynomial in
arclength with Normal(0, jitter_sigma) coefficients, so streamlines stay
curve-like instead of turning into noise clouds. Ends are optionally
truncated and every streamline is resampled to its own point count, which
reproduces the uneven lengths and endpoints of real tractography.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from .model import Labeling, Streamline, Tractogram

TEMPLATES = ("line", "arc", "u_shape", "s_shape", "crossing_pair")

_DENSE_SAMPLES = 200
_JITTER_DEGREE = 3


@dataclass(frozen=True)
class BundleSpec:
    """Recipe for one synthetic bundle."""

    template: str
    center: tuple = (0.0, 0.0, 0.0)
    scale: float = 50.0
    streamline_count: int = 50
    jitter_sigma: float = 1.0
    length_variation: float = 0.0
    points_per_streamline: tuple = (12, 24)
    rotation_deg: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise ValueError(
                f"unknown template {self.template!r}, expected one of {TEMPLATES}"
            )
        if self.streamline_count < 1:
            raise ValueError("streamline_count must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        if not 0.0 <= self.length_variation < 1.0:
            raise ValueError("length_variation must lie in [0, 1)")
        lo, hi = self.points_per_streamline
        if lo < 2 or hi < lo:
            raise ValueError("points_per_streamline must satisfy 2 <= lo <= hi")


def _centerline(template: str, s: np.ndarray, arm: int) -> np.ndarray:
    if template == "line":
        pts = np.column_stack([s - 0.5, np.zeros_like(s), np.zeros_like(s)])
    elif template == "arc":
        theta = (s - 0.5) * 2.4
        pts = np.column_stack(
            [0.5 * np.sin(theta), 0.5 * np.cos(theta), np.zeros_like(s)]
        )
    elif template == "u_shape":
        theta = np.pi * s
        pts = np.column_stack(
            [0.5 * np.cos(theta), 0.5 * np.sin(theta), np.zeros_like(s)]
        )
    elif template == "s_shape":
        pts = np.column_stack(
            [s - 0.5, 0.25 * np.sin(2.0 * np.pi * s), np.zeros_like(s)]
        )
    elif template == "crossing_pair":
        direction = np.array([1.0, 1.0 if arm == 0 else -1.0, 0.0]) / np.sqrt(2.0)
        pts = np.outer(s - 0.5, direction)
    else:  # pragma: no cover - guarded by BundleSpec
        raise ValueError(template)
    return pts - pts.mean(axis=0)


def _resample_polyline(pts: np.ndarray, count: int) -> np.ndarray:
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    if cum[-1] == 0.0:
        return np.repeat(pts[:1], count, axis=0)
    targets = np.linspace(0.0, cum[-1], count)
    return np.column_stack([np.interp(targets, cum, pts[:, k]) for k in range(3)])


def generate(specs, seed: int = 0):
    """Build a tractogram plus its ground-truth labeling.

    Returns (Tractogram, Labeling); streamline i of bundle k carries label
    k (the position of its spec in ``specs``). Identical seeds give
    identical output.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one bundle spec")
    rng = np.random.default_rng(seed)
    s_dense = np.linspace(0.0, 1.0, _DENSE_SAMPLES)
    powers = np.column_stack([s_dense**d for d in range(_JITTER_DEGREE + 1)])

    streamlines = []
    labels = []
    for idx, spec in enumerate(specs):
        rot = Rotation.from_euler("xyz", spec.rotation_deg, degrees=True)
        center = np.asarray(spec.center, dtype=np.float64)
        for j in range(spec.streamline_count):
            base = _centerline(spec.template, s_dense, arm=j % 2)
            pts = rot.apply(base * spec.scale) + center
            coeffs = rng.normal(0.0, spec.jitter_sigma, size=(_JITTER_DEGREE + 1, 3))
            pts = pts + powers @ coeffs
            f0, f1 = rng.uniform(0.0, spec.length_variation, size=2)
            if f0 + f1 > 0.9:
                # never eat the whole curve; keep at least a tenth
                shrink = 0.9 / (f0 + f1)
                f0, f1 = f0 * shrink, f1 * shrink
            keep = (s_dense >= f0) & (s_dense <= 1.0 - f1)
            count = int(
                rng.integers(
                    spec.points_per_streamline[0], spec.points_per_streamline[1] + 1
                )
            )
            streamlines.append(Streamline(_resample_polyline(pts[keep], count)))
            labels.append(idx)
    return (
        Tractogram(tuple(streamlines)),
        Labeling(np.array(labels, dtype=np.int64), m=len(specs)),
    )


# dominant bundle first, as in real tractograms; keeps within-bundle pairs
# the majority so the median-distance RBF width lands on the within scale
_SEPARATED5_FRACTIONS = (0.72, 0.07, 0.07, 0.07, 0.07)


def _partition_counts(total, fractions):
    raw = [f * total for f in fractions]
    counts = [int(v) for v in raw]
    order = sorted(
        range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
    )
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    if min(counts) < 1:
        raise ValueError(f"total_count {total} leaves a bundle empty")
    return counts


def _bundles(layout, counts, seed, **shared):
    """Generate one bundle per (template, center, rotation) row of ``layout``,
    with that row's count and the ``shared`` settings; points per streamline
    keep their (12, 24) default."""
    specs = [
        BundleSpec(tpl, center, streamline_count=n, rotation_deg=rot, **shared)
        for (tpl, center, rot), n in zip(layout, counts)
    ]
    return generate(specs, seed=seed)


def _origin_lines(angles_deg, count, seed, jitter_sigma):
    """Equal line bundles through the origin, turned about z by ``angles_deg``."""
    layout = [("line", (0.0, 0.0, 0.0), (0.0, 0.0, a)) for a in angles_deg]
    shared = dict(scale=100.0, jitter_sigma=jitter_sigma, length_variation=0.1)
    return _bundles(layout, [count] * len(layout), seed, **shared)


def preset_separated5(seed: int = 0, total_count: int = 1000):
    """Five well-separated bundles; the easy ground-truth benchmark.

    Bundle sizes are deliberately unbalanced (three quarters of the
    streamlines in the first bundle). That mirrors real tractograms and
    keeps within-bundle pairs the majority of all pairs, so the
    median-distance kernel width resolves structure inside bundles while
    cross-bundle similarity drops to zero. Construction keeps the minimum
    cross-bundle MCP above five times the maximum within-bundle MCP.
    """
    layout = [
        ("line", (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ("arc", (160.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ("u_shape", (0.0, 160.0, 0.0), (0.0, 0.0, 0.0)),
        ("s_shape", (160.0, 160.0, 0.0), (0.0, 0.0, 0.0)),
        ("line", (80.0, 80.0, 135.0), (0.0, 0.0, 90.0)),
    ]
    counts = _partition_counts(total_count, _SEPARATED5_FRACTIONS)
    shared = dict(scale=50.0, jitter_sigma=2.0, length_variation=0.0)
    return _bundles(layout, counts, seed, **shared)


def preset_overlap3(seed: int = 0, count_per_bundle: int = 120):
    """Three long bundles crossing near the origin at shallow angles.

    The 20 degree separation makes point-based distances genuinely
    ambiguous between neighboring bundles, while endpoint neighborhoods
    remain mostly (not perfectly) bundle-pure. This is the regime where
    endpoint-graph smoothing has something to fix.
    """
    return _origin_lines((0.0, 20.0, 40.0), count_per_bundle, seed, jitter_sigma=3.0)


def preset_crossing2(seed: int = 0, count_per_bundle: int = 100):
    """Two orthogonal bundles through the same region."""
    return _origin_lines((0.0, 90.0), count_per_bundle, seed, jitter_sigma=2.0)


PRESETS = {
    "separated5": preset_separated5,
    "overlap3": preset_overlap3,
    "crossing2": preset_crossing2,
}
