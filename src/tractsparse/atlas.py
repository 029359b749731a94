"""Persisted dictionaries and the labeling of new streamline sets.

An atlas packages a trained dictionary with everything needed to
reproduce its feature space: the training streamlines, the distance
measure, the RBF width, and the spectrum shift recorded at training
time. A new streamline is labeled from its cross-kernel row against the
training set; the shift is not applied there because it only ever
altered self-similarities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .distances import MEASURES, cross_distances, pairwise_distances
from .errors import AtlasVersionMismatch, EmptyTractogram, FormatError
from .io import _atomic_write_text, read_dense_csv, read_slb, write_dense_csv, write_slb
from .kernel import _kernel_in_distance_buffer, _rbf_values
from .model import Labeling, SolverConfig, Tractogram, validate_tractogram
from .solvers import (
    Assignment,
    Dictionary,
    FitResult,
    ksc_fit,
    segment_with_dictionary,
    spectral_init,
)

ATLAS_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Atlas:
    """A trained dictionary plus the context needed to apply it."""

    training: Tractogram
    dictionary: Dictionary
    measure: str
    gamma: float
    shift: float
    s_max: int = 3

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.shift < 0:
            raise ValueError("shift must be non-negative")
        if self.s_max < 1:
            raise ValueError("s_max must be >= 1")
        if self.dictionary.a.shape[0] != len(self.training):
            raise ValueError(
                f"dictionary has {self.dictionary.a.shape[0]} rows for "
                f"{len(self.training)} training streamlines"
            )

    @property
    def m(self) -> int:
        return self.dictionary.a.shape[1]


@dataclass(frozen=True)
class SegmentResult:
    """Soft memberships and hard labels for one segmented tractogram."""

    assignment: Assignment
    labels: Labeling
    unassigned: np.ndarray


def build_atlas(
    subjects,
    cfg: SolverConfig,
    measure: str = "mcp",
    sample_per_subject: int | None = None,
    seed: int = 0,
    threads: int | None = 1,
) -> tuple[Atlas, FitResult]:
    """Pool seeded samples across subjects, fit, and package the result.

    Each subject contributes a uniform sample without replacement (all of
    its streamlines when it has fewer than requested). The pooled set is
    clustered with the sparsity-capped solver and the fitted dictionary
    becomes the atlas.
    """
    subjects = list(subjects)
    if not subjects:
        raise EmptyTractogram("no subjects to build an atlas from")
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    rng = np.random.default_rng(seed)
    pooled = []
    for t in subjects:
        validate_tractogram(t)
        if sample_per_subject is None or sample_per_subject >= len(t):
            pooled.extend(t)
        else:
            take = np.sort(rng.choice(len(t), size=sample_per_subject, replace=False))
            pooled.extend(t[i] for i in take)
    training = Tractogram(tuple(pooled))

    k = _kernel_in_distance_buffer(pairwise_distances(training, measure, threads=threads))
    init = spectral_init(k, m=cfg.m, seed=cfg.seed)
    fit = ksc_fit(k, cfg, init)
    atlas = Atlas(
        training=training,
        dictionary=fit.dictionary,
        measure=measure,
        gamma=k.gamma,
        shift=k.shift,
        s_max=cfg.s_max,
    )
    return atlas, fit


def segment_with_atlas(
    atlas: Atlas,
    new_t: Tractogram,
    measure: str | None = None,
    threads: int | None = 1,
) -> SegmentResult:
    """Label new streamlines against a trained atlas.

    Per streamline x the pursuit sees the correlations Aᵀk_x, where k_x is
    the unshifted cross-kernel row against the training set, and the atom
    Gram AᵀKA from the training kernel with its recorded shift restored.

    Distances are computed against the atlas's training set as given. An
    atlas from `load_atlas` holds only the streamlines its atoms use, so a
    ksc atlas costs m training streamlines, not the whole pool; for its
    one-non-zero columns W is bitwise the same as with the full set. For a
    hand-built dictionary with several non-zeros per column the shorter sums
    may differ in the last bits.

    The new streamlines are validated once, by `cross_distances`, before
    any distance is computed.
    """
    if measure is not None and measure != atlas.measure:
        raise AtlasVersionMismatch(
            f"atlas was built with measure {atlas.measure!r}, not {measure!r}"
        )
    d_cross = cross_distances(atlas.training, new_t, atlas.measure, threads=threads)
    cross = _rbf_values(d_cross, atlas.gamma)
    d_train = pairwise_distances(atlas.training, atlas.measure, threads=threads)
    k_train = _kernel_in_distance_buffer(d_train, atlas.gamma, atlas.shift)
    assignment, labels, unassigned = segment_with_dictionary(
        k_train, atlas.dictionary, cross, atlas.s_max
    )
    return SegmentResult(assignment=assignment, labels=labels, unassigned=unassigned)


def _atom_rows(atlas: Atlas) -> Atlas:
    """The atlas with only the training streamlines its atoms use.

    Rows of A that are zero in every column add nothing to any atom, so the
    streamlines behind them are dropped with them. An atlas whose columns
    were all pruned has no such rows and is returned unchanged.
    """
    rows = np.flatnonzero(np.any(atlas.dictionary.a != 0.0, axis=1))
    if rows.size in (0, len(atlas.training)):
        return atlas
    return replace(
        atlas,
        training=replace(
            atlas.training, streamlines=tuple(atlas.training[i] for i in rows)
        ),
        dictionary=Dictionary(atlas.dictionary.a[rows], atlas.dictionary.empty),
    )


def save_atlas(atlas: Atlas, out_dir) -> Path:
    """Write the three-file atlas directory.

    Only the training streamlines the atoms use are written, with their
    rows of A (see `_atom_rows`); ``n_training`` in ``kernel.json`` counts
    them.
    """
    atlas = _atom_rows(atlas)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_slb(atlas.training, out / "training.slb")
    write_dense_csv(atlas.dictionary.a, out / "a.csv")
    params = {
        "format_version": ATLAS_FORMAT_VERSION,
        "measure": atlas.measure,
        "gamma": atlas.gamma,
        "shift": atlas.shift,
        "s_max": atlas.s_max,
        "n_training": len(atlas.training),
        "m": atlas.m,
    }
    _atomic_write_text(out / "kernel.json", json.dumps(params, indent=2, sort_keys=True) + "\n")
    return out


def load_atlas(path) -> Atlas:
    """Read an atlas directory, keeping only the streamlines its atoms use.

    A directory that holds the whole training set (format 1 allows it) is
    read in full and then restricted the same way (see `_atom_rows`).
    """
    root = Path(path)
    params_file = root / "kernel.json"
    if not params_file.is_file():
        raise FormatError(f"{root}: not an atlas directory (kernel.json missing)")
    try:
        params = json.loads(params_file.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{params_file}: {exc}") from exc
    if not isinstance(params, dict):
        raise FormatError(f"{params_file}: expected a JSON object")
    version = params.get("format_version")
    if version != ATLAS_FORMAT_VERSION:
        raise AtlasVersionMismatch(
            f"atlas format version {version!r}, this build reads {ATLAS_FORMAT_VERSION}"
        )
    measure = params.get("measure")
    if measure not in MEASURES:
        raise AtlasVersionMismatch(f"atlas uses unknown measure {measure!r}")
    training = read_slb(root / "training.slb")
    a = read_dense_csv(root / "a.csv")
    if a.shape != (params.get("n_training"), params.get("m")):
        raise AtlasVersionMismatch(
            f"dictionary shape {a.shape} disagrees with recorded "
            f"({params.get('n_training')}, {params.get('m')})"
        )
    if len(training) != a.shape[0]:
        raise AtlasVersionMismatch(
            f"{len(training)} training streamlines for {a.shape[0]} dictionary rows"
        )
    try:
        # pruned-away atoms come back as all-zero columns; restore their flags
        empty = ~np.any(a != 0.0, axis=0)
        atlas = Atlas(
            training=training,
            dictionary=Dictionary(a, empty),
            measure=measure,
            gamma=float(params["gamma"]),
            shift=float(params["shift"]),
            s_max=int(params["s_max"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{root}: bad atlas parameters: {exc}") from exc
    return _atom_rows(atlas)
