"""Clustering quality metrics, with and without ground truth.

Pair-counting metrics (Rand index and friends) work off the contingency
table between two labelings. The silhouette works directly off the same
distance matrix the clustering consumed.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .distances import DistanceMatrix
from .errors import LengthMismatch, SingleClusterWarning
from .linalg import _row_strips
from .model import Labeling


def _as_labels(x) -> np.ndarray:
    if isinstance(x, Labeling):
        return np.asarray(x.labels)
    return np.asarray(x, dtype=np.int64)


def _contingency(a: np.ndarray, b: np.ndarray):
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.bincount(
        ia * ub.size + ib, minlength=ua.size * ub.size
    ).reshape(ua.size, ub.size)
    return table


def _pairs(x) -> int:
    x = np.asarray(x, dtype=np.int64)
    return int((x * (x - 1) // 2).sum())


def _pair_table(a, b):
    """Item-pair count and contingency table of two labelings.

    The table is None when there are fewer than two items, so no pairs.
    """
    a, b = _as_labels(a), _as_labels(b)
    if a.size != b.size:
        raise LengthMismatch(f"labelings have lengths {a.size} and {b.size}")
    total = a.size * (a.size - 1) // 2
    return total, _contingency(a, b) if total else None


def _identical_partitions(table: np.ndarray) -> bool:
    return bool(
        ((table > 0).sum(axis=0) <= 1).all() and ((table > 0).sum(axis=1) <= 1).all()
    )


def rand_index(a, b) -> float:
    """Fraction of item pairs on which two labelings agree."""
    total, table = _pair_table(a, b)
    if total == 0:
        return 1.0
    s_ab = _pairs(table.ravel())
    s_a = _pairs(table.sum(axis=1))
    s_b = _pairs(table.sum(axis=0))
    # agreements = co-clustered in both + separated in both
    return (total + 2 * s_ab - s_a - s_b) / total


def adjusted_rand_index(a, b) -> float:
    """Hubert-Arabie chance-corrected Rand index.

    When the correction denominator vanishes (both labelings all-singleton
    or both one-cluster) the value is 1 for identical partitions, else 0.
    """
    total, table = _pair_table(a, b)
    if total == 0:
        return 1.0
    s_ab = _pairs(table.ravel())
    s_a = _pairs(table.sum(axis=1))
    s_b = _pairs(table.sum(axis=0))
    expected = s_a * s_b / total
    maximum = (s_a + s_b) / 2.0
    if maximum == expected:
        return 1.0 if _identical_partitions(table) else 0.0
    return (s_ab - expected) / (maximum - expected)


def normalized_ari(truth, predicted) -> float:
    """Size-weighted chance-corrected agreement; truth comes first.

    Every ground-truth cluster contributes equally: its pairwise agreement
    rate is computed within the cluster, the rates are averaged, and the
    average is chance-corrected against the predicted cluster sizes. A
    singleton ground-truth cluster has no pairs and counts as fully agreed.
    """
    total, table = _pair_table(truth, predicted)
    if total == 0:
        return 1.0
    sizes_a = table.sum(axis=1)
    rates = np.empty(sizes_a.size)
    for k, row in enumerate(table):
        cluster_pairs = _pairs([sizes_a[k]])
        if cluster_pairs == 0:
            rates[k] = 1.0
        else:
            rates[k] = _pairs(row) / cluster_pairs
    index_w = float(rates.mean())
    p_b = _pairs(table.sum(axis=0)) / total
    if p_b == 1.0:
        return 1.0 if _identical_partitions(table) else 0.0
    return (index_w - p_b) / (1.0 - p_b)


def silhouette(d: DistanceMatrix, labels):
    """Mean and per-item silhouette scores from a distance matrix.

    s(i) compares the mean distance to co-members against the closest other
    cluster's mean distance. Singletons score 0. With fewer than two
    clusters every score is 0 and a SingleClusterWarning is issued.
    """
    lab = _as_labels(labels)
    if lab.size != d.n:
        raise LengthMismatch(f"{lab.size} labels for {d.n} streamlines")
    values = d.values
    uniq, idx, counts = np.unique(lab, return_inverse=True, return_counts=True)
    scores = np.zeros(lab.size)
    if uniq.size < 2:
        warnings.warn(
            "silhouette is undefined for a single cluster; returning 0",
            SingleClusterWarning,
            stacklevel=2,
        )
        return 0.0, scores

    # Per-cluster mean distances, one strip of rows at a time: each row's
    # mean is its own reduction, so the bits are those of whole columns.
    members = [lab == c for c in uniq]
    mean_to = np.empty((lab.size, uniq.size))
    for i, j in _row_strips(lab.size):
        strip = values[i:j]
        for col, mask in enumerate(members):
            mean_to[i:j, col] = strip[:, mask].mean(axis=1)
    items = np.arange(lab.size)
    own = mean_to[items, idx]
    mean_to[items, idx] = np.inf
    # singletons keep their score of 0
    multi = counts[idx] > 1
    size = counts[idx][multi]
    a = own[multi] * size / (size - 1)
    b = mean_to.min(axis=1)[multi]
    scores[multi] = (b - a) / np.maximum(a, b)
    return float(scores.mean()), scores


@dataclass(frozen=True)
class MetricReport:
    """One evaluation of a predicted labeling.

    ``silhouette`` and the per-cluster means are None when no distance
    matrix was supplied; ``ri``, ``ari`` and ``nari`` are None when no
    ground truth was. A None value is an empty CSV cell.
    """

    ri: float | None
    ari: float | None
    nari: float | None
    silhouette: float | None
    cluster_sizes: tuple
    cluster_silhouette: tuple | None
    single_cluster: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def csv_header() -> str:
        return "ri,ari,nari,silhouette,n_clusters,min_size,max_size"

    def to_csv_row(self) -> str:
        sizes = self.cluster_sizes or (0,)
        scores = (self.ri, self.ari, self.nari, self.silhouette)
        return ",".join([
            *("" if v is None else repr(v) for v in scores),
            str(len(self.cluster_sizes)), str(min(sizes)), str(max(sizes)),
        ])


def compute_metrics(truth, predicted, d: DistanceMatrix | None = None) -> MetricReport:
    """Bundle all four metrics into one report.

    truth/predicted are Labelings or integer arrays; d enables silhouette.
    With ``truth`` None the report leaves ``ri``, ``ari`` and ``nari`` None.
    """
    pl = _as_labels(predicted)
    ri = ari = nari = None
    if truth is not None:
        tl = _as_labels(truth)
        ri, ari, nari = (
            rand_index(tl, pl), adjusted_rand_index(tl, pl), normalized_ari(tl, pl)
        )
    uniq, counts = np.unique(pl, return_counts=True)
    sil = None
    per_cluster = None
    single = uniq.size < 2
    if d is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingleClusterWarning)
            sil, per_item = silhouette(d, pl)
        per_cluster = tuple(
            float(per_item[pl == c].mean()) for c in uniq
        )
    return MetricReport(
        ri=ri, ari=ari, nari=nari,
        silhouette=sil,
        cluster_sizes=tuple(int(c) for c in counts),
        cluster_silhouette=per_cluster,
        single_cluster=single,
    )
