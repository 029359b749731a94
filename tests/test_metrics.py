import json

import numpy as np
import pytest

from oracles import (
    naive_ari,
    naive_rand_index,
    naive_silhouette,
    table_ari,
    table_nari,
    table_rand_index,
)

from tractsparse import metrics
from tractsparse.distances import DistanceMatrix
from tractsparse.errors import LengthMismatch, SingleClusterWarning
from tractsparse.metrics import (
    MetricReport,
    adjusted_rand_index,
    compute_metrics,
    normalized_ari,
    rand_index,
    silhouette,
)


def random_distance_matrix(rng, n):
    a = np.abs(rng.normal(size=(n, n))) + 0.05
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return DistanceMatrix(n=n, values=a)


# --- Rand index ------------------------------------------------------------

def test_rand_index_identical():
    labels = np.array([0, 1, 1, 2, 0])
    assert rand_index(labels, labels) == 1.0


def test_rand_index_small_example():
    assert rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(2 / 6)


def test_rand_index_matches_pair_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        a = rng.integers(0, 6, size=n)
        b = rng.integers(0, 4, size=n)
        assert rand_index(a, b) == pytest.approx(naive_rand_index(a, b), abs=1e-12)


def test_rand_index_symmetric_and_permutation_invariant():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 5, size=80)
    b = rng.integers(0, 5, size=80)
    assert rand_index(a, b) == rand_index(b, a)
    assert rand_index(a, b) == rand_index(7 - a, b)


def test_rand_index_length_mismatch():
    with pytest.raises(LengthMismatch):
        rand_index([0, 1], [0, 1, 2])


# --- adjusted Rand index ---------------------------------------------------

def test_ari_identical():
    labels = np.array([2, 0, 1, 1, 2])
    assert adjusted_rand_index(labels, labels) == 1.0


def test_ari_single_cluster_degenerate():
    assert adjusted_rand_index([0, 0, 0], [5, 5, 5]) == 1.0
    assert adjusted_rand_index([0, 1, 2], [7, 8, 9]) == 1.0


def test_ari_chance_level_near_zero():
    rng = np.random.default_rng(2)
    vals = []
    for _ in range(100):
        a = rng.integers(0, 5, size=500)
        b = rng.integers(0, 5, size=500)
        ari = adjusted_rand_index(a, b)
        assert abs(ari) <= 0.05
        vals.append(ari)
    assert abs(np.mean(vals)) <= 0.01


def test_ari_matches_pair_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 60))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 3, size=n)
        assert adjusted_rand_index(a, b) == pytest.approx(naive_ari(a, b), abs=1e-12)


def test_ari_symmetric():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 4, size=50)
    b = rng.integers(0, 6, size=50)
    assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)


# --- normalized variant ----------------------------------------------------

def test_nari_identical():
    labels = np.array([0, 0, 1, 2, 2, 1])
    assert normalized_ari(labels, labels) == 1.0


def test_nari_equals_ari_for_balanced_partitions():
    rng = np.random.default_rng(5)
    n, k = 60, 3
    truth = np.repeat(np.arange(k), n // k)
    predicted = np.tile(np.arange(k), n // k)  # also balanced
    rng.shuffle(predicted)
    # both labelings have k clusters of identical size
    assert normalized_ari(truth, predicted) == pytest.approx(
        adjusted_rand_index(truth, predicted), abs=1e-9
    )


def test_nari_penalizes_small_cluster_errors_more():
    truth = np.array([0] * 30 + [1] * 30 + [2] * 3)
    predicted = np.array([0] * 30 + [1] * 30 + [0, 1, 0])
    nari = normalized_ari(truth, predicted)
    ari = adjusted_rand_index(truth, predicted)
    assert nari < ari


def test_nari_is_not_symmetric():
    truth = np.array([0] * 30 + [1] * 30 + [2] * 3)
    predicted = np.array([0] * 30 + [1] * 30 + [0, 1, 0])
    assert normalized_ari(truth, predicted) != normalized_ari(predicted, truth)


def test_nari_singleton_truth_cluster():
    truth = np.array([0, 0, 0, 1])
    predicted = np.array([0, 0, 0, 0])
    # defined (singleton has no pairs) and below perfect agreement
    val = normalized_ari(truth, predicted)
    assert np.isfinite(val)
    assert val < 1.0


# --- one table for all three scores ----------------------------------------

def _labeling_grid():
    """Seeded labelings, truth first, with every degenerate rule's case."""
    yield from [
        ([], []), ([3], [0]),                                  # no item pairs
        ([0, 0, 0, 0], [1, 1, 1, 1]),                          # one cluster
        ([0, 1, 2, 3], [4, 5, 6, 7]),                          # all singletons
        ([0, 0, 0, 0], [0, 1, 2, 3]), ([0, 1, 2, 3], [0, 0, 0, 0]),
        ([2, 2, 0, 1, 1], [7, 7, 3, 5, 5]),                    # identical partitions
        ([0, 0, 0, 1], [0, 0, 0, 0]), ([0, 0, 0, 1], [0, 0, 1, 1]),  # singleton truth
        ([0, 0, 1, 1, 2], [0, 1, 0, 1, 1]),
    ]
    rng = np.random.default_rng(28)
    for case in range(300):
        n = int(rng.integers(0, 120))
        a = rng.integers(0, int(rng.integers(1, 8)), size=n)
        if case % 10 == 0:
            b = rng.permutation(int(a.max(initial=0)) + 1)[a] + 3
        else:
            b = rng.integers(0, int(rng.integers(1, 8)), size=n)
        yield a, b


def test_scores_match_the_separate_table_scorers_bit_for_bit():
    for truth, pred in _labeling_grid():
        expected = (table_rand_index(truth, pred), table_ari(truth, pred),
                    table_nari(truth, pred))
        got = (rand_index(truth, pred), adjusted_rand_index(truth, pred),
               normalized_ari(truth, pred))
        report = compute_metrics(truth, pred)
        # repr tells the sign of a zero and a NumPy scalar from a float
        assert list(map(repr, got)) == list(map(repr, expected)), (truth, pred)
        assert list(map(repr, (report.ri, report.ari, report.nari))) == list(
            map(repr, expected)
        )


def test_compute_metrics_builds_one_contingency_table(monkeypatch):
    calls, contingency = [], metrics._contingency

    def counted(a, b):
        calls.append(a.size)
        return contingency(a, b)

    monkeypatch.setattr(metrics, "_contingency", counted)
    compute_metrics([0, 0, 1, 1, 2], [0, 1, 1, 1, 2])
    assert calls == [5]


# --- silhouette ------------------------------------------------------------

def test_silhouette_separated_blocks():
    n = 20
    d = np.full((n, n), 10.0)
    d[:10, :10] = 1.0
    d[10:, 10:] = 1.0
    np.fill_diagonal(d, 0.0)
    labels = np.array([0] * 10 + [1] * 10)
    mean, per_item = silhouette(DistanceMatrix(n=n, values=d), labels)
    assert mean >= 0.8
    assert per_item.shape == (n,)
    assert (per_item == per_item[0]).all()


def test_silhouette_equidistant_zero():
    n = 6
    d = np.ones((n, n)) - np.eye(n)
    labels = np.array([0, 0, 1, 1, 2, 2])
    mean, per_item = silhouette(DistanceMatrix(n=n, values=d), labels)
    assert np.allclose(per_item, 0.0, atol=1e-15)
    assert mean == pytest.approx(0.0, abs=1e-15)


def test_silhouette_matches_naive_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(8, 100))
        d = random_distance_matrix(rng, n)
        labels = rng.integers(0, 4, size=n)
        labels[0], labels[1] = 0, 1
        mean, per_item = silhouette(d, labels)
        want = naive_silhouette(d.values.tolist(), labels.tolist())
        assert mean == pytest.approx(want, abs=1e-12)


def test_silhouette_strip_means_are_the_whole_column_means():
    rng = np.random.default_rng(8)
    n = 700
    d = random_distance_matrix(rng, n)
    labels = rng.choice(4, size=n, p=[0.7, 0.2, 0.08, 0.02])
    _, per_item = silhouette(d, labels)
    uniq, idx, counts = np.unique(labels, return_inverse=True, return_counts=True)
    mean_to = np.stack([d.values[:, labels == c].mean(axis=1) for c in uniq], axis=1)
    items = np.arange(n)
    a = mean_to[items, idx] * counts[idx] / (counts[idx] - 1)
    mean_to[items, idx] = np.inf
    b = mean_to.min(axis=1)
    assert np.array_equal(per_item, (b - a) / np.maximum(a, b))


def test_silhouette_singleton_scores_zero():
    d = random_distance_matrix(np.random.default_rng(7), 5)
    labels = np.array([0, 0, 0, 0, 1])
    _, per_item = silhouette(d, labels)
    assert per_item[4] == 0.0


def test_silhouette_single_cluster_warns():
    d = random_distance_matrix(np.random.default_rng(8), 4)
    with pytest.warns(SingleClusterWarning):
        mean, per_item = silhouette(d, np.zeros(4, dtype=int))
    assert mean == 0.0
    assert np.array_equal(per_item, np.zeros(4))


def test_silhouette_label_length_checked():
    d = random_distance_matrix(np.random.default_rng(9), 4)
    with pytest.raises(LengthMismatch):
        silhouette(d, np.array([0, 1]))


def test_silhouette_permutation_invariant():
    rng = np.random.default_rng(10)
    d = random_distance_matrix(rng, 30)
    labels = rng.integers(0, 3, size=30)
    labels[:3] = [0, 1, 2]
    m1, _ = silhouette(d, labels)
    m2, _ = silhouette(d, (labels + 5) % 7)
    assert m1 == pytest.approx(m2, abs=1e-12)


# --- report ----------------------------------------------------------------

def test_compute_metrics_report_fields():
    rng = np.random.default_rng(11)
    d = random_distance_matrix(rng, 12)
    truth = np.array([0] * 6 + [1] * 6)
    predicted = np.array([0] * 5 + [1] * 7)
    report = compute_metrics(truth, predicted, d)
    assert report.cluster_sizes == (5, 7)
    assert 0.0 <= report.ri <= 1.0
    assert report.ari <= 1.0
    assert report.silhouette is not None
    assert len(report.cluster_silhouette) == 2
    assert not report.single_cluster

    data = json.loads(report.to_json())
    assert set(data) == {
        "ri", "ari", "nari", "silhouette",
        "cluster_sizes", "cluster_silhouette", "single_cluster",
    }

    row = report.to_csv_row()
    fields = row.split(",")
    assert len(fields) == len(MetricReport.csv_header().split(","))
    assert float(fields[0]) == report.ri


def test_compute_metrics_without_distances():
    truth = np.array([0, 0, 1, 1])
    predicted = np.array([0, 1, 1, 1])
    report = compute_metrics(truth, predicted)
    assert report.silhouette is None
    assert report.cluster_silhouette is None
    assert json.loads(report.to_json())["silhouette"] is None


def test_compute_metrics_without_truth():
    rng = np.random.default_rng(12)
    d = random_distance_matrix(rng, 12)
    predicted = np.array([2] * 4 + [0] * 3 + [1] * 5)
    report = compute_metrics(None, predicted, d)
    assert report.ri is None and report.ari is None and report.nari is None
    assert report.silhouette == silhouette(d, predicted)[0]
    assert report.cluster_sizes == (3, 5, 4)
    assert report.to_csv_row().startswith(",,,")


def test_compute_metrics_single_cluster_flag():
    truth = np.array([0, 0, 1, 1])
    predicted = np.zeros(4, dtype=int)
    report = compute_metrics(truth, predicted)
    assert report.single_cluster
