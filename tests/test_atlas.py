import json

import numpy as np
import pytest

from tractsparse import SolverConfig, Streamline, Tractogram
from tractsparse.atlas import (
    Atlas,
    build_atlas,
    load_atlas,
    save_atlas,
    segment_with_atlas,
)
from tractsparse.distances import cross_distances, pairwise_distances
from tractsparse.errors import AtlasVersionMismatch, EmptyTractogram, FormatError
from tractsparse.io import read_slb, write_dense_csv, write_slb
from tractsparse.kernel import _kernel_in_distance_buffer
from tractsparse.metrics import adjusted_rand_index
from tractsparse.solvers import Dictionary, segment_with_dictionary
from tractsparse.synth import preset_separated5


@pytest.fixture(scope="module")
def built():
    tg, truth = preset_separated5(seed=11, total_count=300)
    cfg = SolverConfig(m=5, s_max=3, seed=0)
    atlas, fit = build_atlas([tg], cfg, measure="mcp", seed=0, threads=2)
    return tg, truth, atlas, fit


def line_tract(offsets, n_pts=6):
    base = np.linspace([0.0, 0.0, 0.0], [30.0, 0.0, 0.0], n_pts)
    return Tractogram(
        tuple(Streamline(base + [0.0, off, 0.0]) for off in offsets)
    )


def test_self_segmentation_agrees(built):
    tg, _, atlas, fit = built
    seg = segment_with_atlas(atlas, tg, threads=2)
    ok = ~np.asarray(seg.unassigned)
    agree = np.mean(
        (np.asarray(seg.labels.labels) == np.asarray(fit.labels.labels)) & ok
    )
    assert agree >= 0.95


def test_disjoint_resample_matches_truth(built):
    _, _, atlas, _ = built
    tg_new, truth_new = preset_separated5(seed=12, total_count=200)
    seg = segment_with_atlas(atlas, tg_new, threads=2)
    assert adjusted_rand_index(seg.labels, truth_new) >= 0.9


def test_roundtrip_preserves_segmentation(tmp_path, built):
    _, _, atlas, _ = built
    tg_new, _ = preset_separated5(seed=13, total_count=120)
    before = segment_with_atlas(atlas, tg_new, threads=2)
    out = save_atlas(atlas, tmp_path / "pop.atlas")
    assert sorted(p.name for p in out.iterdir()) == [
        "a.csv", "kernel.json", "training.slb",
    ]
    back = load_atlas(out)
    assert back.measure == atlas.measure
    assert back.gamma == atlas.gamma and back.shift == atlas.shift
    after = segment_with_atlas(back, tg_new, threads=2)
    assert np.array_equal(before.labels.labels, after.labels.labels)
    assert np.array_equal(before.assignment.w, after.assignment.w)


def test_segmentation_equals_separately_built_kernels(tmp_path, built):
    # The training kernel from its own square distance matrix and the cross
    # rows from their own block give the same bits as the one block
    # segment_with_atlas computes, for the whole pool and for the atom rows.
    _, _, atlas, _ = built
    tg_new, _ = preset_separated5(seed=15, total_count=150)
    for a in (atlas, load_atlas(save_atlas(atlas, tmp_path / "pop.atlas"))):
        k_train = _kernel_in_distance_buffer(
            pairwise_distances(a.training, a.measure), a.gamma, a.shift
        )
        cross = np.exp(-a.gamma * cross_distances(a.training, tg_new, a.measure) ** 2)
        w, labels, unassigned = segment_with_dictionary(
            k_train, a.dictionary, cross, a.s_max
        )
        for threads in (1, 2):
            seg = segment_with_atlas(a, tg_new, threads=threads)
            assert seg.assignment.w.tobytes() == w.w.tobytes()
            assert np.array_equal(seg.labels.labels, labels.labels)
            assert np.array_equal(seg.unassigned, unassigned)


def support_rows(atlas):
    return np.flatnonzero(np.any(atlas.dictionary.a != 0.0, axis=1))


def write_full_atlas(atlas, out):
    """A directory holding the whole training set, as format 1 always allowed."""
    out.mkdir(parents=True)
    write_slb(atlas.training, out / "training.slb")
    write_dense_csv(atlas.dictionary.a, out / "a.csv")
    params = {
        "format_version": 1,
        "measure": atlas.measure,
        "gamma": atlas.gamma,
        "shift": atlas.shift,
        "s_max": atlas.s_max,
        "n_training": len(atlas.training),
        "m": atlas.m,
    }
    text = json.dumps(params, indent=2, sort_keys=True) + "\n"
    (out / "kernel.json").write_text(text)
    return out


def test_saved_atlas_keeps_only_atom_streamlines(tmp_path, built):
    _, _, atlas, _ = built
    rows = support_rows(atlas)
    assert 0 < rows.size < len(atlas.training)
    out = save_atlas(atlas, tmp_path / "pop.atlas")
    stored = read_slb(out / "training.slb")
    assert len(stored) == rows.size
    for kept, i in zip(stored, rows):
        assert np.array_equal(kept.points, atlas.training[i].points)
    assert json.loads((out / "kernel.json").read_text())["n_training"] == rows.size
    back = load_atlas(out)
    assert np.array_equal(back.dictionary.a, atlas.dictionary.a[rows])


def test_full_training_directory_loads_compacted(tmp_path, built):
    _, _, atlas, _ = built
    out = write_full_atlas(atlas, tmp_path / "full.atlas")
    back = load_atlas(out)
    assert len(back.training) == support_rows(atlas).size
    tg_new, _ = preset_separated5(seed=14, total_count=120)
    before = segment_with_atlas(atlas, tg_new, threads=2)
    after = segment_with_atlas(back, tg_new, threads=2)
    assert np.array_equal(before.assignment.w, after.assignment.w)
    assert np.array_equal(before.labels.labels, after.labels.labels)
    assert np.array_equal(before.unassigned, after.unassigned)


def test_all_pruned_atlas_keeps_its_training_set(tmp_path):
    t = line_tract([0.0, 50.0, 100.0])
    atlas = Atlas(
        training=t, dictionary=Dictionary(np.zeros((3, 2)), np.ones(2, bool)),
        measure="mcp", gamma=0.01, shift=0.3, s_max=2,
    )
    back = load_atlas(save_atlas(atlas, tmp_path / "pruned.atlas"))
    assert len(back.training) == 3
    assert back.dictionary.empty.all()
    probe = line_tract([10.0, 60.0])
    before = segment_with_atlas(atlas, probe)
    after = segment_with_atlas(back, probe)
    assert np.array_equal(before.assignment.w, after.assignment.w)
    assert np.array_equal(before.labels.labels, after.labels.labels)
    assert after.unassigned.all()


def test_training_medoid_copy_gets_its_bundle():
    # hand-built selection dictionary: column j points at one training streamline
    t = line_tract([0.0, 50.0, 100.0])
    a = np.eye(3)
    atlas = Atlas(
        training=t, dictionary=Dictionary(a), measure="mcp", gamma=0.01,
        shift=0.3, s_max=2,
    )
    probe = Tractogram((t[1],))
    seg = segment_with_atlas(atlas, probe)
    assert seg.labels.labels[0] == 1
    w = seg.assignment.w[:, 0]
    assert w[1] > 0 and w[1] == w.max()


def test_measure_mismatch_rejected(built):
    _, _, atlas, _ = built
    with pytest.raises(AtlasVersionMismatch):
        segment_with_atlas(atlas, line_tract([0.0]), measure="haus")


def test_unknown_version_rejected(tmp_path, built):
    _, _, atlas, _ = built
    out = save_atlas(atlas, tmp_path / "pop.atlas")
    params = json.loads((out / "kernel.json").read_text())
    params["format_version"] = 99
    (out / "kernel.json").write_text(json.dumps(params))
    with pytest.raises(AtlasVersionMismatch):
        load_atlas(out)


def test_undecodable_params_are_format_error(tmp_path, built):
    _, _, atlas, _ = built
    out = save_atlas(atlas, tmp_path / "pop.atlas")
    text = (out / "kernel.json").read_bytes()
    (out / "kernel.json").write_bytes(text[:20] + b"\xff" + text[20:])
    with pytest.raises(FormatError, match="kernel.json"):
        load_atlas(out)


def test_unknown_measure_rejected(tmp_path, built):
    _, _, atlas, _ = built
    out = save_atlas(atlas, tmp_path / "pop.atlas")
    params = json.loads((out / "kernel.json").read_text())
    params["measure"] = "banana"
    (out / "kernel.json").write_text(json.dumps(params))
    with pytest.raises(AtlasVersionMismatch):
        load_atlas(out)


def test_shape_disagreement_rejected(tmp_path, built):
    _, _, atlas, _ = built
    out = save_atlas(atlas, tmp_path / "pop.atlas")
    params = json.loads((out / "kernel.json").read_text())
    params["m"] = atlas.m + 2
    (out / "kernel.json").write_text(json.dumps(params))
    with pytest.raises(AtlasVersionMismatch):
        load_atlas(out)


def test_non_object_parameters_rejected(tmp_path, built):
    _, _, atlas, _ = built
    out = save_atlas(atlas, tmp_path / "pop.atlas")
    (out / "kernel.json").write_text("[1, 2]\n")
    with pytest.raises(FormatError, match="JSON object"):
        load_atlas(out)


def test_not_an_atlas_dir(tmp_path):
    with pytest.raises(FormatError):
        load_atlas(tmp_path)


def test_sampling_pools_per_subject():
    subjects = [line_tract(np.arange(8) * 10.0), line_tract(np.arange(6) * 10.0 + 3.0)]
    cfg = SolverConfig(m=2, s_max=1, seed=0)
    atlas, _ = build_atlas(
        subjects, cfg, measure="mcp", sample_per_subject=4, seed=5
    )
    assert len(atlas.training) == 8
    atlas2, _ = build_atlas(
        subjects, cfg, measure="mcp", sample_per_subject=4, seed=5
    )
    pts = [s.points for s in atlas.training]
    pts2 = [s.points for s in atlas2.training]
    assert all(np.array_equal(a, b) for a, b in zip(pts, pts2))


def test_sampling_larger_than_subject_takes_all():
    subjects = [line_tract([0.0, 10.0, 20.0])]
    cfg = SolverConfig(m=1, s_max=1, seed=0)
    atlas, _ = build_atlas(
        subjects, cfg, measure="mcp", sample_per_subject=50, seed=0
    )
    assert len(atlas.training) == 3


def test_empty_subject_list():
    with pytest.raises(EmptyTractogram):
        build_atlas([], SolverConfig(m=2), measure="mcp")


def test_atlas_validates_fields():
    t = line_tract([0.0, 10.0])
    with pytest.raises(ValueError):
        Atlas(training=t, dictionary=Dictionary(np.eye(3)), measure="mcp",
              gamma=0.1, shift=0.0)
    with pytest.raises(ValueError):
        Atlas(training=t, dictionary=Dictionary(np.eye(2)), measure="mcp",
              gamma=-1.0, shift=0.0)
    with pytest.raises(ValueError):
        Atlas(training=t, dictionary=Dictionary(np.eye(2)), measure="nope",
              gamma=0.1, shift=0.0)
