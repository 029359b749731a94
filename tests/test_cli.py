"""End-to-end checks of the command-line interface.

Everything runs in-process through cli.main so exit codes and artifact
bytes can be asserted without spawning subprocesses.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from footprint import traced_peak
from tractsparse import Streamline, Tractogram, cli, distances, linalg, synth
from tractsparse.cli import main
from tractsparse.errors import FormatError
from tractsparse.io import (
    read_dm,
    read_km,
    read_labels,
    read_slb,
    write_km,
    write_slb,
)
from tractsparse.kernel import KernelMatrix, kernel_from_distances
from tractsparse.model import SolverConfig
from tractsparse.distances import pairwise_distances
from tractsparse.metrics import adjusted_rand_index, silhouette


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def ari_files(pred, truth):
    return adjusted_rand_index(read_labels(pred), read_labels(truth))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One crossing-pair dataset plus its distance matrix, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "crossing2", "--seed", "3", "--out", str(root / "data")]) == 0
    assert main([
        "distances", "--in", str(root / "data" / "tract.slb"),
        "--out", str(root / "d.dm"), "--csv", str(root / "d.csv"),
    ]) == 0
    return root


# --- synth ------------------------------------------------------------------

def test_synth_writes_tract_labels_manifest(workdir):
    data = workdir / "data"
    tract = read_slb(data / "tract.slb")
    labels = read_labels(data / "labels.txt")
    assert len(tract) == len(labels.labels) == 200
    assert labels.m == 2
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["seed"] == 3
    # recorded hashes match the bytes actually on disk
    for name, digest in manifest["outputs"].items():
        assert sha(data / name) == digest
    assert manifest["timings_s"]


def test_synth_same_seed_same_bytes(tmp_path):
    for sub in ("a", "b"):
        assert main(["synth", "crossing2", "--seed", "9",
                     "--out", str(tmp_path / sub)]) == 0
    assert sha(tmp_path / "a" / "tract.slb") == sha(tmp_path / "b" / "tract.slb")
    assert sha(tmp_path / "a" / "labels.txt") == sha(tmp_path / "b" / "labels.txt")


def test_synth_unknown_preset_is_usage_error(tmp_path, capsys):
    assert main(["synth", "no_such_thing", "--out", str(tmp_path / "x")]) == 2
    assert "no_such_thing" in capsys.readouterr().err


def test_synth_from_spec_file(tmp_path):
    spec = [
        {"template": "line", "center": [0, 0, 0], "scale": 40.0,
         "streamline_count": 8, "jitter_sigma": 1.0},
        {"template": "arc", "center": [150, 0, 0], "scale": 40.0,
         "streamline_count": 12, "jitter_sigma": 1.0},
    ]
    spec_path = tmp_path / "bundles.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", str(spec_path), "--out", str(tmp_path / "out")]) == 0
    labels = read_labels(tmp_path / "out" / "labels.txt")
    assert labels.m == 2
    counts = np.bincount(np.asarray(labels.labels))
    assert list(counts) == [8, 12]


def test_synth_bad_spec_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"template": "dodecahedron"}]')
    assert main(["synth", str(bad), "--out", str(tmp_path / "x")]) == 3
    capsys.readouterr()
    bad.write_bytes(b'[{"template": "\xff"}]')
    assert main(["synth", str(bad), "--out", str(tmp_path / "x")]) == 3
    assert f"{bad}: 'utf-8' codec can't decode" in capsys.readouterr().err


# --- distances --------------------------------------------------------------

def test_distances_matches_library(workdir):
    d = read_dm(workdir / "d.dm")
    tract = read_slb(workdir / "data" / "tract.slb")
    expected = pairwise_distances(tract, "mcp")
    np.testing.assert_array_equal(d.values, expected.values)


def test_distances_bad_measure_is_usage_error(workdir, tmp_path, capsys):
    rc = main(["distances", "--in", str(workdir / "data" / "tract.slb"),
               "--measure", "bogus", "--out", str(tmp_path / "x.dm")])
    capsys.readouterr()
    assert rc == 2


def test_distances_threads_do_not_change_bytes(workdir, tmp_path):
    out = tmp_path / "d2.dm"
    assert main(["distances", "--in", str(workdir / "data" / "tract.slb"),
                 "--out", str(out), "--threads", "2"]) == 0
    assert sha(out) == sha(workdir / "d.dm")


def test_missing_input_is_data_error(tmp_path, capsys):
    rc = main(["distances", "--in", str(tmp_path / "ghost.slb"),
               "--out", str(tmp_path / "x.dm")])
    capsys.readouterr()
    assert rc == 3


def test_undecodable_labels_exit_3_through_data_error(workdir, tmp_path, capsys,
                                                     monkeypatch):
    pred = tmp_path / "pred.txt"
    pred.write_bytes(b"0\n1\n\xff\n")
    argv = ["metrics", "--pred", str(pred), "--truth", str(workdir / "data" / "labels.txt")]
    assert main(argv) == 3
    assert f"{pred}: not UTF-8 text" in capsys.readouterr().err
    # with the DataError branch disabled, the exit-3 catch-all of ValueError
    # (a bare UnicodeDecodeError is one) does not catch it
    monkeypatch.setattr(cli, "DataError", type("Unrelated", (Exception,), {}))
    with pytest.raises(FormatError):
        main(argv)


@pytest.fixture(scope="module")
def atlas_dir(workdir):
    """An m=2 atlas of the shared dataset, shared read-only."""
    atlas = workdir / "ref.atlas"
    assert main(["atlas-build", "--in", str(workdir / "data" / "tract.slb"),
                 "--m", "2", "--out", str(atlas)]) == 0
    return atlas


# --- cluster ----------------------------------------------------------------

def test_cluster_ksc_recovers_bundles(workdir, tmp_path):
    out = tmp_path / "fit"
    assert main(["cluster", "--in", str(workdir / "data" / "tract.slb"),
                 "--dist", str(workdir / "d.dm"),
                 "--method", "ksc", "--m", "2", "--out", str(out)]) == 0
    assert ari_files(out / "labels.txt", workdir / "data" / "labels.txt") == 1.0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["a.csv", "config.json", "labels.txt", "manifest.json",
                     "trace.csv", "w.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["result"]["non_empty_clusters"] == 2
    assert manifest["result"]["unassigned"] == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["method"] == "ksc"
    assert cfg["m"] == 2


def test_cluster_missing_m_is_usage_error(workdir, tmp_path, capsys):
    rc = main(["cluster", "--in", str(workdir / "data" / "tract.slb"),
               "--method", "ksc", "--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert rc == 2


def test_cluster_random_init(workdir, tmp_path):
    # a random start has no quality guarantee on any particular seed, so
    # only the wiring is checked: it runs, labels everything, and records
    # the init choice in the manifest
    for method in ("kkm", "ksc", "gksc", "gksc-manifold"):
        out = tmp_path / f"fit_{method}"
        assert main(["cluster", "--in", str(workdir / "data" / "tract.slb"),
                     "--dist", str(workdir / "d.dm"), "--method", method,
                     "--m", "2", "--init", "random", "--out", str(out)]) == 0
        labels = read_labels(out / "labels.txt")
        assert len(labels.labels) == 200
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["init"] == "random"
        assert manifest["result"]["non_empty_clusters"] >= 1


def test_cluster_dissolving_every_row_lists_every_streamline_unassigned(
    workdir, tmp_path
):
    # at this group weight no row is worth its price, so all are retired
    out = tmp_path / "fit"
    assert main(["cluster", "--in", str(workdir / "data" / "tract.slb"),
                 "--dist", str(workdir / "d.dm"), "--method", "gksc",
                 "--m", "2", "--lambda2", "1e6", "--out", str(out)]) == 0
    listed = (out / "unassigned.txt").read_text().split()
    assert listed == [str(i) for i in range(200)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["result"]["unassigned"] == 200
    assert "unassigned.txt" in manifest["outputs"]


def test_cluster_manifold_runs(workdir, tmp_path):
    out = tmp_path / "fit"
    assert main(["cluster", "--in", str(workdir / "data" / "tract.slb"),
                 "--dist", str(workdir / "d.dm"), "--method", "gksc-manifold",
                 "--m", "2", "--out", str(out)]) == 0
    labels = read_labels(out / "labels.txt")
    assert len(labels.labels) == 200
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["lambda_l"] > 0
    assert manifest["config"]["lambda2"] == 0.0


def test_cluster_nystrom_full_rank(workdir, tmp_path):
    out = tmp_path / "fit"
    assert main(["cluster", "--in", str(workdir / "data" / "tract.slb"),
                 "--method", "ksc", "--m", "2", "--nystrom", "200",
                 "--out", str(out)]) == 0
    assert ari_files(out / "labels.txt", workdir / "data" / "labels.txt") == 1.0


def test_cluster_nystrom_coarse_landmarks(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "separated5", "--seed", "0", "--out", str(data)]) == 0
    out = tmp_path / "fit"
    assert main(["cluster", "--in", str(data / "tract.slb"), "--method", "ksc",
                 "--m", "5", "--nystrom", "100", "--out", str(out)]) == 0
    assert ari_files(out / "labels.txt", data / "labels.txt") >= 0.9


def test_cluster_identical_streamlines_fall_back_to_gamma_one(tmp_path):
    # every distance is zero: the dense and the landmark kernel both warn and
    # take γ = 1, so the two forms of `cluster` behave alike
    same = Streamline([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [20.0, 1.0, 0.0]])
    write_slb(Tractogram(tuple(same for _ in range(30))), tmp_path / "same.slb")
    for form in ([], ["--nystrom", "10"]):
        out = tmp_path / ("nystrom" if form else "dense")
        with pytest.warns(UserWarning, match="gamma=1"):
            assert main(["cluster", "--in", str(tmp_path / "same.slb"), "--method", "ksc",
                         "--m", "2", "--save-kernel", "--out", str(out)] + form) == 0
        assert read_km(out / "kernel.km").gamma == 1.0


def test_cluster_nystrom_medoid_start_holds_no_cluster_block(tmp_path):
    # sep5's largest bundle holds 0.72n streamlines, so forming G[C]·G[C]ᵀ for
    # it alone would take 0.52·n²·8 bytes
    tract, _ = synth.preset_separated5(seed=0, total_count=2000)
    write_slb(tract, tmp_path / "tract.slb")
    n = len(tract)
    rc, peak = traced_peak(main, [
        "cluster", "--in", str(tmp_path / "tract.slb"), "--method", "ksc", "--m", "5",
        "--nystrom", "100", "--out", str(tmp_path / "fit"),
    ])
    assert rc == 0
    assert peak <= 0.4 * n * n * 8


def test_cluster_flag_conflicts(workdir, tmp_path, capsys):
    base = ["cluster", "--in", str(workdir / "data" / "tract.slb"),
            "--dist", str(workdir / "d.dm"), "--m", "2",
            "--out", str(tmp_path / "x")]
    assert main(base + ["--method", "gksc", "--lambda2", "1", "--lambdaL", "1"]) == 2
    assert main(base + ["--method", "ksc", "--lambdaL", "1"]) == 2
    assert main(base + ["--method", "ksc", "--nystrom", "50"]) == 2
    capsys.readouterr()
    assert main(base + ["--method", "gksc-manifold", "--lambda2", "5"]) == 2
    assert "--lambda2" in capsys.readouterr().err
    assert main(base + ["--method", "ksc", "--ep-threshold", "3"]) == 2
    assert "--ep-threshold" in capsys.readouterr().err
    unread = [("kkm", "--lambda1"), ("ksc", "--lambda1"), ("kkm", "--lambda2"),
              ("ksc", "--lambda2"), ("kkm", "--mu"), ("ksc", "--mu"), ("kkm", "--smax"),
              ("gksc", "--smax"), ("gksc-manifold", "--smax")]
    for method, flag in unread:
        assert main(base + ["--method", method, flag, "2"]) == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("method", ["kkm", "ksc", "gksc", "gksc-manifold"])
def test_cluster_unset_flags_record_solver_defaults(workdir, tmp_path, method):
    out = tmp_path / "fit"
    assert main(["cluster", "--in", str(workdir / "data" / "tract.slb"),
                 "--dist", str(workdir / "d.dm"), "--method", method, "--m", "2",
                 "--out", str(out)]) == 0
    defaults = SolverConfig(m=2)
    config = json.loads((out / "config.json").read_text())
    recorded = json.loads((out / "manifest.json").read_text())["config"]
    for key in ("s_max", "lambda1", "mu"):
        assert config[key] == recorded[key] == getattr(defaults, key)


@pytest.fixture(scope="module")
def separated5(tmp_path_factory):
    """`synth separated5 --seed 0` (n = 1000, where the partial eigensolves run
    Lanczos) and its ``d.dm``, shared read-only."""
    data = tmp_path_factory.mktemp("separated5")
    assert main(["synth", "separated5", "--seed", "0", "--out", str(data)]) == 0
    assert len(read_labels(data / "labels.txt").labels) >= linalg._LANCZOS_MIN_N
    assert main(["distances", "--in", str(data / "tract.slb"),
                 "--out", str(data / "d.dm")]) == 0
    return data


@pytest.mark.parametrize("method", ["kkm", "ksc", "gksc"])
@pytest.mark.parametrize("p", [50, 100, 200])
def test_cluster_nystrom_never_forms_the_kernel(separated5, tmp_path, monkeypatch,
                                                method, p):
    def refuse(self):
        raise AssertionError("the factored path formed the n×n kernel")

    monkeypatch.setattr(KernelMatrix, "dense", refuse)
    out = tmp_path / "fit"
    assert main(["cluster", "--in", str(separated5 / "tract.slb"), "--method", method,
                 "--m", "5", "--nystrom", str(p), "--out", str(out)]) == 0
    assert ari_files(out / "labels.txt", separated5 / "labels.txt") == 1.0


def test_cluster_eigensolver_failure_is_numerical_error(workdir, tmp_path,
                                                       monkeypatch, capsys):
    import scipy.linalg

    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("forced non-convergence")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    rc = main(["cluster", "--in", str(workdir / "data" / "tract.slb"),
               "--dist", str(workdir / "d.dm"), "--method", "ksc",
               "--m", "2", "--out", str(tmp_path / "fit")])
    assert rc == 4
    assert "eigensolver failed" in capsys.readouterr().err


def test_cluster_lanczos_failure_is_numerical_error(tmp_path, monkeypatch, capsys):
    import scipy.linalg
    import scipy.sparse.linalg

    tract, _ = synth.preset_separated5(seed=0, total_count=linalg._LANCZOS_MIN_N)
    write_slb(tract, tmp_path / "tract.slb")

    def stall(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "forced non-convergence", np.zeros(0), np.zeros((0, 0)))

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK must not stand in for a failed Lanczos solve")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stall)
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    rc = main(["cluster", "--in", str(tmp_path / "tract.slb"), "--method", "ksc",
               "--m", "5", "--out", str(tmp_path / "fit")])
    assert rc == 4
    assert "eigensolver failed" in capsys.readouterr().err


def test_cluster_save_kernel(workdir, tmp_path):
    out = tmp_path / "fit"
    assert main(["cluster", "--in", str(workdir / "data" / "tract.slb"),
                 "--dist", str(workdir / "d.dm"), "--method", "kkm",
                 "--m", "2", "--save-kernel", "--out", str(out)]) == 0
    k = read_km(out / "kernel.km")
    assert k.n == 200
    assert k.gamma > 0


def test_rerun_without_save_kernel_removes_stale_kernel(workdir, tmp_path):
    out = tmp_path / "fit"
    argv = ["cluster", "--in", str(workdir / "data" / "tract.slb"),
            "--dist", str(workdir / "d.dm"), "--method", "kkm", "--m", "2",
            "--out", str(out)]
    assert main(argv + ["--save-kernel"]) == 0
    assert "kernel.km" in json.loads((out / "manifest.json").read_text())["outputs"]
    assert main(argv) == 0
    assert not (out / "kernel.km").exists()
    assert "kernel.km" not in json.loads((out / "manifest.json").read_text())["outputs"]


def test_cluster_same_seed_same_bytes(workdir, tmp_path):
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["cluster", "--in", str(workdir / "data" / "tract.slb"),
                     "--dist", str(workdir / "d.dm"), "--method", "gksc",
                     "--m", "3", "--seed", "5", "--out", str(out)]) == 0
        runs.append({p.name: sha(p) for p in out.iterdir()
                     if p.name != "manifest.json"})
    assert runs[0] == runs[1]


@pytest.mark.parametrize("source", ["dist", "inline"])
def test_saved_kernel_is_the_library_kernel(separated5, tmp_path, source):
    out = tmp_path / "fit"
    argv = ["cluster", "--in", str(separated5 / "tract.slb"), "--method", "ksc",
            "--m", "5", "--save-kernel", "--out", str(out)]
    if source == "dist":
        argv += ["--dist", str(separated5 / "d.dm")]
    assert main(argv) == 0
    d = read_dm(separated5 / "d.dm")
    want = kernel_from_distances(d)
    write_km(want, tmp_path / "want.km")
    assert (out / "kernel.km").read_bytes() == (tmp_path / "want.km").read_bytes()
    assert np.array_equal(d.values, read_dm(separated5 / "d.dm").values)


def test_cluster_dist_holds_one_n_by_n_array(separated5, tmp_path):
    n = len(read_labels(separated5 / "labels.txt").labels)
    rc, peak = traced_peak(main, [
        "cluster", "--in", str(separated5 / "tract.slb"),
        "--dist", str(separated5 / "d.dm"), "--method", "ksc", "--m", "5",
        "--out", str(tmp_path / "fit"),
    ])
    assert rc == 0
    assert peak <= 1.6 * n * n * 8


def test_metrics_dist_holds_one_n_by_n_array(separated5, tmp_path):
    n = len(read_labels(separated5 / "labels.txt").labels)
    rc, peak = traced_peak(main, [
        "metrics", "--pred", str(separated5 / "labels.txt"),
        "--dist", str(separated5 / "d.dm"), "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    assert peak <= 1.25 * n * n * 8


# --- metrics ----------------------------------------------------------------

def test_metrics_perfect_prediction(workdir, capsys):
    truth = str(workdir / "data" / "labels.txt")
    assert main(["metrics", "--pred", truth, "--truth", truth,
                 "--dist", str(workdir / "d.dm")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ri"] == report["ari"] == report["nari"] == 1.0
    assert report["silhouette"] > 0


def test_metrics_silhouette_only(workdir, tmp_path):
    out = tmp_path / "report.json"
    assert main(["metrics", "--pred", str(workdir / "data" / "labels.txt"),
                 "--dist", str(workdir / "d.dm"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "ari" not in report
    assert report["silhouette"] > 0
    assert report["cluster_sizes"] == [100, 100]


def test_metrics_csv_output(workdir, tmp_path):
    truth = str(workdir / "data" / "labels.txt")
    out = tmp_path / "report.csv"
    assert main(["metrics", "--pred", truth, "--truth", truth,
                 "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "ri,ari,nari,silhouette,n_clusters,min_size,max_size"
    assert row.split(",")[1] == "1.0"


def test_metrics_silhouette_only_csv(workdir, tmp_path):
    pred = workdir / "data" / "labels.txt"
    out = tmp_path / "report.csv"
    assert main(["metrics", "--pred", str(pred), "--dist", str(workdir / "d.dm"),
                 "--out", str(out)]) == 0
    mean_sil, _ = silhouette(read_dm(workdir / "d.dm"), read_labels(pred))
    assert out.read_text() == (
        "ri,ari,nari,silhouette,n_clusters,min_size,max_size\n"
        f",,,{mean_sil!r},2,100,100\n"
    )


def test_metrics_without_truth_or_dist_is_usage_error(workdir, capsys):
    rc = main(["metrics", "--pred", str(workdir / "data" / "labels.txt")])
    capsys.readouterr()
    assert rc == 2


def test_metrics_length_mismatch_is_data_error(workdir, tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text("0\n1\n")
    rc = main(["metrics", "--pred", str(short),
               "--truth", str(workdir / "data" / "labels.txt")])
    capsys.readouterr()
    assert rc == 3


# --- atlas build + segment --------------------------------------------------

def test_atlas_build_and_segment(workdir, tmp_path):
    atlas = tmp_path / "ref.atlas"
    assert main(["atlas-build", "--in", str(workdir / "data" / "tract.slb"),
                 "--m", "2", "--out", str(atlas)]) == 0
    names = sorted(p.name for p in atlas.iterdir())
    assert names == ["a.csv", "kernel.json", "manifest.json",
                     "training.slb", "training_labels.txt"]
    seg = tmp_path / "seg"
    assert main(["segment", "--atlas", str(atlas),
                 "--in", str(workdir / "data" / "tract.slb"),
                 "--out", str(seg)]) == 0
    agree = ari_files(seg / "labels.txt", atlas / "training_labels.txt")
    assert agree >= 0.95
    manifest = json.loads((seg / "manifest.json").read_text())
    assert manifest["result"]["m"] == 2


def test_atlas_build_manifest_counts_stored_training(workdir, tmp_path):
    atlas = tmp_path / "ref.atlas"
    assert main(["atlas-build", "--in", str(workdir / "data" / "tract.slb"),
                 "--m", "2", "--out", str(atlas)]) == 0
    stored = json.loads((atlas / "kernel.json").read_text())["n_training"]
    manifest = json.loads((atlas / "manifest.json").read_text())
    assert manifest["result"]["n_training"] == stored
    assert stored == len(read_slb(atlas / "training.slb"))
    assert stored < 200  # only the atom streamlines of the 200 sampled


@pytest.mark.parametrize("flag", ["--lambda1", "--mu"])
def test_atlas_build_rejects_flags_ksc_never_reads(workdir, tmp_path, capsys, flag):
    rc = main(["atlas-build", "--in", str(workdir / "data" / "tract.slb"), "--m", "2",
               flag, "0.5", "--out", str(tmp_path / "ref.atlas")])
    assert flag in capsys.readouterr().err
    assert rc == 2


def test_overflowing_coordinate_is_data_error(workdir, atlas_dir, tmp_path, capsys):
    tract = read_slb(workdir / "data" / "tract.slb")
    pts = tract[3].points.copy()
    pts[1, 2] = 1e200
    bad = Tractogram(tract.streamlines[:3] + (Streamline(pts),) + tract.streamlines[4:])
    write_slb(bad, tmp_path / "bad.slb")
    for argv in (["distances", "--out", str(tmp_path / "d.dm")],
                 ["segment", "--atlas", str(atlas_dir), "--out", str(tmp_path / "seg")]):
        assert main(argv + ["--in", str(tmp_path / "bad.slb")]) == 3
        assert "streamline 3 " in capsys.readouterr().err
    assert not (tmp_path / "seg" / "labels.txt").exists()


def test_segment_measure_mismatch_is_data_error(workdir, tmp_path, capsys):
    atlas = tmp_path / "ref.atlas"
    assert main(["atlas-build", "--in", str(workdir / "data" / "tract.slb"),
                 "--m", "2", "--out", str(atlas)]) == 0
    rc = main(["segment", "--atlas", str(atlas),
               "--in", str(workdir / "data" / "tract.slb"),
               "--measure", "haus", "--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert rc == 3


@pytest.mark.parametrize("command", ["cluster", "segment"])
def test_rerun_removes_stale_unassigned(workdir, atlas_dir, tmp_path, command):
    out = tmp_path / "fit"
    out.mkdir()
    (out / "unassigned.txt").write_text("0\n1\n")
    tract = str(workdir / "data" / "tract.slb")
    if command == "cluster":
        argv = ["cluster", "--in", tract, "--dist", str(workdir / "d.dm"),
                "--method", "ksc", "--m", "2"]
    else:
        argv = ["segment", "--atlas", str(atlas_dir), "--in", tract]
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["result"]["unassigned"] == 0
    assert not (out / "unassigned.txt").exists()
    assert "unassigned.txt" not in manifest["outputs"]


@pytest.mark.parametrize("argv", [
    ["cluster", "--method", "ksc", "--m", "0"],
    ["cluster", "--method", "ksc", "--m", "2", "--smax", "0"],
    ["cluster", "--method", "gksc", "--m", "2", "--mu", "0"],
    ["cluster", "--method", "gksc", "--m", "2", "--lambda1", "-1"],
    ["cluster", "--method", "gksc-manifold", "--m", "2", "--ep-threshold", "-1"],
    ["atlas-build", "--m", "0"],
    ["segment", "--smax", "0"],
    ["cluster", "--method", "gksc", "--m", "2", "--mu", "nan"],
    ["cluster", "--method", "gksc", "--m", "2", "--lambda1", "inf"],
    ["cluster", "--method", "gksc", "--m", "2", "--lambda2", "nan"],
    ["cluster", "--method", "gksc-manifold", "--m", "2", "--lambdaL", "nan"],
    ["cluster", "--method", "gksc-manifold", "--m", "2", "--lambdaL", "0"],
    ["cluster", "--method", "gksc-manifold", "--m", "2", "--ep-threshold", "nan"],
    ["cluster", "--method", "gksc-manifold", "--m", "2", "--ep-threshold", "inf"],
], ids=["m", "smax", "mu", "lambda1", "ep-threshold", "atlas-m", "segment-smax",
        "mu-nan", "lambda1-inf", "lambda2-nan", "lambdaL-nan", "lambdaL-0",
        "ep-threshold-nan", "ep-threshold-inf"])
def test_bad_flag_value_is_usage_error(workdir, atlas_dir, tmp_path, capsys, argv):
    argv = argv + ["--in", str(workdir / "data" / "tract.slb"),
                   "--out", str(tmp_path / "x")]
    if argv[0] == "cluster":
        argv += ["--dist", str(workdir / "d.dm")]
    if argv[0] == "segment":
        argv += ["--atlas", str(atlas_dir)]
    rc = main(argv)
    assert "error:" in capsys.readouterr().err
    assert rc == 2


@pytest.mark.parametrize("argv, flag", [
    (["cluster", "--method", "ksc", "--m", "2", "--nystrom", "0"], "--nystrom"),
    (["cluster", "--method", "ksc", "--m", "2", "--nystrom", "-3"], "--nystrom"),
    (["cluster", "--method", "ksc", "--m", "2", "--nystrom", "201"], "--nystrom"),
    (["atlas-build", "--m", "2", "--sample", "0"], "--sample"),
    (["atlas-build", "--m", "2", "--sample", "-1"], "--sample"),
    (["cluster", "--method", "ksc", "--m", "2", "--seed", "-3"], "--seed"),
    (["atlas-build", "--m", "2", "--seed", "-1"], "--seed"),
    (["cluster", "--method", "ksc", "--m", "201"], "--m"),
    (["atlas-build", "--m", "500"], "--m"),
    (["atlas-build", "--m", "150", "--sample", "50"], "--m"),
], ids=["nystrom-0", "nystrom-negative", "nystrom-above-n", "sample-0",
        "sample-negative", "cluster-seed-negative", "atlas-seed-negative",
        "m-above-n", "atlas-m-above-pool", "atlas-m-above-sampled-pool"])
def test_count_flag_out_of_range_names_the_flag(workdir, tmp_path, capsys, argv, flag):
    rc = main(argv + ["--in", str(workdir / "data" / "tract.slb"),
                      "--out", str(tmp_path / "x")])
    assert flag in capsys.readouterr().err
    assert rc == 2


def test_synth_negative_seed_names_the_flag(tmp_path, capsys):
    rc = main(["synth", "crossing2", "--seed", "-1", "--out", str(tmp_path / "x")])
    assert "--seed" in capsys.readouterr().err
    assert rc == 2


# --- environment ------------------------------------------------------------

def test_threads_env_default(workdir, tmp_path, monkeypatch):
    monkeypatch.setenv("TRACTSPARSE_THREADS", "2")
    out = tmp_path / "d_env.dm"
    assert main(["distances", "--in", str(workdir / "data" / "tract.slb"),
                 "--out", str(out)]) == 0
    assert sha(out) == sha(workdir / "d.dm")


@pytest.mark.parametrize("env", [None, ""], ids=["unset", "empty"])
def test_threads_env_unset_or_empty_means_usable_cpus(workdir, tmp_path, monkeypatch,
                                                      env):
    if env is None:
        monkeypatch.delenv("TRACTSPARSE_THREADS", raising=False)
    else:
        monkeypatch.setenv("TRACTSPARSE_THREADS", env)
    monkeypatch.setattr(distances.os, "sched_getaffinity", lambda pid: {0, 1, 3},
                        raising=False)
    out = tmp_path / "d_default.dm"
    assert main(["distances", "--in", str(workdir / "data" / "tract.slb"),
                 "--out", str(out)]) == 0
    assert sha(out) == sha(workdir / "d.dm")
    manifest = json.loads((tmp_path / "d_default.dm.manifest.json").read_text())
    assert manifest["config"]["threads"] == 3


def test_threads_env_garbage_is_usage_error(workdir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TRACTSPARSE_THREADS", "many")
    rc = main(["distances", "--in", str(workdir / "data" / "tract.slb"),
               "--out", str(tmp_path / "x.dm")])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("value", ["0", "-1"])
def test_threads_below_one_is_usage_error(workdir, tmp_path, capsys, value):
    out = tmp_path / "x.dm"
    rc = main(["distances", "--in", str(workdir / "data" / "tract.slb"),
               "--out", str(out), "--threads", value])
    assert "argument --threads: must be a positive integer" in capsys.readouterr().err
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_threads_env_below_one_is_usage_error(workdir, tmp_path, monkeypatch, capsys,
                                              value):
    monkeypatch.setenv("TRACTSPARSE_THREADS", value)
    out = tmp_path / "x.dm"
    rc = main(["distances", "--in", str(workdir / "data" / "tract.slb"),
               "--out", str(out)])
    assert "TRACTSPARSE_THREADS" in capsys.readouterr().err
    assert rc == 2
    assert not out.exists()
