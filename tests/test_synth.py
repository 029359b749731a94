import numpy as np
import pytest

from oracles import preset_specs

from tractsparse import build_endpoint_graph, dist_mcp, pairwise_distances
from tractsparse.synth import (
    PRESETS,
    BundleSpec,
    _resample_polyline,
    generate,
    preset_crossing2,
    preset_overlap3,
    preset_separated5,
)


def test_bundle_spec_validation():
    with pytest.raises(ValueError):
        BundleSpec(template="helix")
    with pytest.raises(ValueError):
        BundleSpec(template="line", streamline_count=0)
    with pytest.raises(ValueError):
        BundleSpec(template="line", scale=0.0)
    with pytest.raises(ValueError):
        BundleSpec(template="line", jitter_sigma=-1.0)
    with pytest.raises(ValueError):
        BundleSpec(template="line", length_variation=1.0)
    with pytest.raises(ValueError):
        BundleSpec(template="line", points_per_streamline=(1, 5))


def test_no_jitter_gives_identical_streamlines():
    spec = BundleSpec(
        template="arc",
        streamline_count=5,
        jitter_sigma=0.0,
        length_variation=0.0,
        points_per_streamline=(16, 16),
    )
    t, lab = generate([spec], seed=3)
    assert len(t) == 5
    for s in t:
        assert np.array_equal(s.points, t[0].points)
    d = pairwise_distances(t, "mcp")
    assert np.array_equal(d.values, np.zeros((5, 5)))


def test_generate_deterministic_per_seed():
    specs = [
        BundleSpec(template="s_shape", streamline_count=4, jitter_sigma=1.5,
                   length_variation=0.2),
        BundleSpec(template="line", streamline_count=3, jitter_sigma=0.5),
    ]
    t1, l1 = generate(specs, seed=11)
    t2, l2 = generate(specs, seed=11)
    t3, _ = generate(specs, seed=12)
    assert all(np.array_equal(a.points, b.points) for a, b in zip(t1, t2))
    assert np.array_equal(l1.labels, l2.labels)
    assert any(not np.array_equal(a.points, b.points) for a, b in zip(t1, t3))


def test_labels_match_requested_counts():
    specs = [
        BundleSpec(template="line", streamline_count=7),
        BundleSpec(template="u_shape", streamline_count=3),
        BundleSpec(template="arc", streamline_count=5),
    ]
    t, lab = generate(specs, seed=0)
    assert len(t) == 15
    assert lab.m == 3
    counts = np.bincount(np.asarray(lab.labels), minlength=3)
    assert list(counts) == [7, 3, 5]


def test_generate_rejects_empty():
    with pytest.raises(ValueError):
        generate([], seed=0)


def test_point_counts_within_range():
    spec = BundleSpec(
        template="line", streamline_count=30, points_per_streamline=(8, 14)
    )
    t, _ = generate([spec], seed=1)
    lengths = {len(s) for s in t}
    assert lengths <= set(range(8, 15))
    assert len(lengths) > 1


def test_truncation_shortens_streamlines():
    kw = dict(template="line", streamline_count=40, jitter_sigma=0.0, scale=100.0,
              points_per_streamline=(20, 20))
    full, _ = generate([BundleSpec(length_variation=0.0, **kw)], seed=5)
    cut, _ = generate([BundleSpec(length_variation=0.4, **kw)], seed=5)

    def arclen(s):
        return np.linalg.norm(np.diff(s.points, axis=0), axis=1).sum()

    full_lengths = [arclen(s) for s in full]
    cut_lengths = [arclen(s) for s in cut]
    assert np.mean(cut_lengths) < np.mean(full_lengths) * 0.85
    assert np.std(cut_lengths) > np.std(full_lengths) + 1.0


def test_crossing_pair_alternates_arms():
    spec = BundleSpec(
        template="crossing_pair",
        streamline_count=4,
        jitter_sigma=0.0,
        points_per_streamline=(10, 10),
    )
    t, _ = generate([spec], seed=0)
    assert not np.allclose(t[0].points, t[1].points)
    assert np.array_equal(t[0].points, t[2].points)
    assert np.array_equal(t[1].points, t[3].points)


def test_resample_polyline_endpoints_and_spacing():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [3, 0, 0], [10, 0, 0]])
    out = _resample_polyline(pts, 6)
    assert out.shape == (6, 3)
    assert np.allclose(out[0], [0, 0, 0], atol=1e-12)
    assert np.allclose(out[-1], [10, 0, 0], atol=1e-12)
    assert np.allclose(np.diff(out[:, 0]), 2.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_separated5_separation_ratio(seed):
    t, lab = preset_separated5(seed=seed, total_count=150)
    d = pairwise_distances(t, "mcp", threads=2).values
    labels = np.asarray(lab.labels)
    intra_max = 0.0
    cross_min = np.inf
    for a in range(5):
        ia = labels == a
        intra_max = max(intra_max, d[np.ix_(ia, ia)].max())
        for b in range(a + 1, 5):
            cross_min = min(cross_min, d[np.ix_(ia, labels == b)].min())
    assert cross_min > 5.0 * intra_max


def test_presets_registry_and_counts():
    assert set(PRESETS) == {"separated5", "overlap3", "crossing2"}
    t, lab = preset_crossing2(seed=0, count_per_bundle=10)
    assert len(t) == 20 and lab.m == 2
    t, lab = preset_overlap3(seed=0, count_per_bundle=8)
    assert len(t) == 24 and lab.m == 3
    t, lab = preset_separated5(seed=0, total_count=50)
    assert len(t) == 50 and lab.m == 5
    sizes = np.bincount(np.asarray(lab.labels), minlength=5)
    assert sizes.tolist() == [36, 4, 4, 3, 3]  # dominant-first imbalance


def test_overlap3_bodies_cross_but_endpoints_mostly_separate():
    t, lab = preset_overlap3(seed=0, count_per_bundle=20)
    labels = np.asarray(lab.labels)
    # bodies overlap: cross-bundle MCP small relative to bundle extent
    d = pairwise_distances(t, "mcp", threads=2).values
    cross = d[np.ix_(labels == 0, labels == 1)]
    assert cross.min() < 40.0
    # endpoint neighborhoods are dominated by same-bundle pairs, with a
    # minority of cross-bundle edges from the shallow crossing angle
    g = build_endpoint_graph(t, 7.0)
    adj = g.adjacency
    within = sum(
        adj[np.ix_(labels == k, labels == k)].sum() for k in range(3)
    )
    across = adj.sum() - within
    assert within > 4 * across
    assert within > 0


_PRESET_COUNTS = [
    ("separated5", 150, [108, 11, 11, 10, 10]),
    ("separated5", 1000, [720, 70, 70, 70, 70]),
    ("separated5", 2000, [1440, 140, 140, 140, 140]),
    ("overlap3", 7, [7, 7, 7]),
    ("overlap3", 120, [120, 120, 120]),
    ("crossing2", 30, [30, 30]),
    ("crossing2", 100, [100, 100]),
]


@pytest.mark.parametrize("name,count,counts", _PRESET_COUNTS)
def test_presets_equal_their_written_out_specs(name, count, counts):
    for seed in range(10):
        t, lab = PRESETS[name](seed, count)
        ref_t, ref_lab = generate(preset_specs(name, counts), seed=seed)
        assert len(t) == len(ref_t)
        for got, want in zip(t, ref_t):
            assert got.points.tobytes() == want.points.tobytes()
        assert lab.m == ref_lab.m
        assert lab.labels.tobytes() == ref_lab.labels.tobytes()
