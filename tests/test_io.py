import json
import struct

import numpy as np
import pytest

from footprint import mapped, random_distances, traced_peak
from tractsparse import Labeling, SolverConfig, Streamline, Tractogram
from tractsparse.cli import main
from tractsparse.distances import DistanceMatrix, pairwise_distances
from tractsparse.errors import FormatError
from tractsparse.io import (
    _SANE_COUNT,
    read_dense_csv,
    read_dm,
    read_km,
    read_labels,
    read_sl,
    read_slb,
    read_sparse_csv,
    sha256_file,
    write_dense_csv,
    write_dm,
    write_dm_csv,
    write_fit_dir,
    write_km,
    write_labels,
    write_sl,
    write_slb,
    write_sparse_csv,
)
from tractsparse.kernel import kernel_from_distances, nystrom_kernel
from tractsparse.solvers import init_dictionary_from_labels, kkm_fit, spectral_init
from tractsparse.synth import preset_separated5


@pytest.fixture
def tract():
    rng = np.random.default_rng(3)
    return Tractogram(
        tuple(
            Streamline(rng.normal(scale=40.0, size=(rng.integers(2, 9), 3)))
            for _ in range(12)
        )
    )


def assert_tract_equal(a, b, exact=True):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        if exact:
            assert np.array_equal(sa.points, sb.points)
        else:
            assert np.allclose(sa.points, sb.points, atol=1e-9)


# --- streamline formats ----------------------------------------------------

def test_slb_roundtrip_bitexact(tmp_path, tract):
    path = tmp_path / "t.slb"
    write_slb(tract, path)
    assert_tract_equal(read_slb(path), tract)


def test_sl_roundtrip(tmp_path, tract):
    path = tmp_path / "t.sl"
    write_sl(tract, path)
    back = read_sl(path)
    # shortest-repr floats reload exactly, comfortably under the 1e-9 contract
    assert_tract_equal(back, tract)


def test_sl_skips_comments_and_extra_blanks(tmp_path):
    text = "# header\n0 0 0\n1.5 0 0\n\n\n# mid comment\n0 1 0\n0 2 0\n"
    path = tmp_path / "t.sl"
    path.write_text(text)
    t = read_sl(path)
    assert len(t) == 2
    assert t[1].points[1, 1] == 2.0


def test_sl_bad_field_count(tmp_path):
    path = tmp_path / "t.sl"
    path.write_text("0 0\n")
    with pytest.raises(FormatError):
        read_sl(path)


def test_slb_bad_magic(tmp_path):
    path = tmp_path / "t.slb"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_slb(path)


def test_slb_truncated(tmp_path, tract):
    path = tmp_path / "t.slb"
    write_slb(tract, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 5])
    with pytest.raises(FormatError):
        read_slb(path)


def _second_header(tract) -> int:
    """Byte offset of the second streamline's point count in an .slb file."""
    return 4 + 8 + 8 + 24 * len(tract[0])


@pytest.mark.parametrize(
    "corrupt, match",
    [
        pytest.param(lambda d, at: d[: at + 4], "truncated", id="cut-in-count"),
        pytest.param(lambda d, at: d[: at + 8 + 12], "truncated", id="cut-in-points"),
        pytest.param(lambda d, at: d + b"\x00" * 8, "trailing", id="trailing-bytes"),
        pytest.param(
            lambda d, at: d[:at] + struct.pack("<Q", _SANE_COUNT + 1) + d[at + 8:],
            "implausible", id="implausible-count",
        ),
    ],
)
def test_slb_corruption_is_format_error(tmp_path, tract, corrupt, match):
    path = tmp_path / "t.slb"
    write_slb(tract, path)
    path.write_bytes(corrupt(path.read_bytes(), _second_header(tract)))
    with pytest.raises(FormatError, match=match):
        read_slb(path)


def test_write_is_atomic_no_leftover_tmp(tmp_path, tract):
    write_slb(tract, tmp_path / "t.slb")
    assert [p.name for p in tmp_path.iterdir()] == ["t.slb"]


# --- labels ----------------------------------------------------------------

def test_labels_roundtrip(tmp_path):
    lab = Labeling(np.array([0, 2, 1, 1, 0]), m=3)
    path = tmp_path / "labels.txt"
    write_labels(lab, path)
    back = read_labels(path)
    assert np.array_equal(back.labels, lab.labels)
    assert back.m == 3


def test_labels_bad_line(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\nx\n")
    with pytest.raises(FormatError):
        read_labels(path)


# --- distance matrix -------------------------------------------------------

def test_dm_roundtrip(tmp_path, tract):
    d = pairwise_distances(tract, "mcp")
    path = tmp_path / "d.dm"
    write_dm(d, path)
    back = read_dm(path)
    assert np.array_equal(back.values, d.values)


def test_dm_csv_matches_binary(tmp_path, tract):
    d = pairwise_distances(tract, "haus")
    write_dm_csv(d, tmp_path / "d.csv")
    vals = read_dense_csv(tmp_path / "d.csv")
    assert np.array_equal(vals, d.values)


def test_dm_corrupt_asymmetry_rejected(tmp_path):
    # hand-build a file whose triangle encodes a negative distance
    vals = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = DistanceMatrix(n=2, values=vals)
    path = tmp_path / "d.dm"
    write_dm(d, path)
    data = bytearray(path.read_bytes())
    data[-8:] = np.array([-1.0]).tobytes()  # last triangle entry = diagonal
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_dm(path)


def dm_bytes(n, payload):
    return b"DM01" + struct.pack("<Q", n) + payload


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda good: b"DM02" + good[4:], id="bad-magic"),
        pytest.param(lambda good: good[:-8], id="truncated-triangle"),
        pytest.param(lambda good: good + b"\x00" * 8, id="trailing-bytes"),
        pytest.param(lambda good: dm_bytes(10**6, b"\x00" * 16), id="huge-n-header"),
    ],
)
def test_dm_corrupt_files_raise_format_error_and_exit_3(tmp_path, capsys, case):
    d = random_distances(4)
    path = tmp_path / "d.dm"
    write_dm(d, path)
    path.write_bytes(case(path.read_bytes()))
    with pytest.raises(FormatError):
        read_dm(path)
    labels = tmp_path / "pred.txt"
    labels.write_text("0\n1\n0\n1\n")
    assert main(["metrics", "--pred", str(labels), "--dist", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_dm_huge_header_fails_on_size_before_allocating(tmp_path):
    path = tmp_path / "d.dm"
    path.write_bytes(dm_bytes(10**6, b"\x00" * 16))

    def read():
        with pytest.raises(FormatError, match="truncated"):
            read_dm(path)

    _, peak = traced_peak(read)
    assert peak < 1 << 20


def test_write_dm_payload_is_the_upper_triangle_and_streams(tmp_path):
    n = 1000
    d = random_distances(n)
    path = tmp_path / "d.dm"
    _, peak = traced_peak(write_dm, d, path)
    assert path.read_bytes() == dm_bytes(n, d.values[np.triu_indices(n)].tobytes())
    assert peak <= 0.2 * n * n * 8


def test_read_dm_holds_at_most_triangle_and_matrix(tmp_path):
    n = 1000
    d = random_distances(n, seed=1)
    path = tmp_path / "d.dm"
    write_dm(d, path)
    back, peak = traced_peak(read_dm, path)
    assert np.array_equal(back.values, d.values)
    assert peak <= 1.6 * n * n * 8


def test_read_dm_holds_the_matrix_and_one_row(tmp_path):
    n = 1000
    d = random_distances(n, seed=1)
    path = tmp_path / "d.dm"
    write_dm(d, path)
    back, peak = traced_peak(read_dm, path)
    assert np.array_equal(back.values, d.values)
    assert peak <= 1.1 * n * n * 8


def test_traced_peak_counts_the_mapped_matrix(tmp_path):
    # tracemalloc cannot see memory maps; traced_peak must still count the
    # n×n matrix read_dm maps, or every bound above would pass blind
    n = 1000
    path = tmp_path / "d.dm"
    write_dm(random_distances(n, seed=1), path)
    _, peak = traced_peak(read_dm, path)
    assert peak >= 1.0 * n * n * 8
    assert mapped(read_dm(path).values)


def test_distance_matrix_constructor_copies_caller_array():
    vals = random_distances(5).values.copy()
    d = DistanceMatrix(n=5, values=vals)
    assert vals.flags.writeable and not np.shares_memory(vals, d.values)
    assert not d.values.flags.writeable


# --- kernel matrix ---------------------------------------------------------

def test_km_dense_roundtrip(tmp_path, tract):
    k = kernel_from_distances(pairwise_distances(tract, "mcp"))
    path = tmp_path / "k.km"
    write_km(k, path)
    back = read_km(path)
    assert not back.is_factored
    assert back.gamma == k.gamma and back.shift == k.shift
    assert np.array_equal(back.dense_values, k.dense_values)


def test_km_factored_roundtrip(tmp_path, tract):
    k = nystrom_kernel(tract, p=5, seed=0)
    path = tmp_path / "k.km"
    write_km(k, path)
    back = read_km(path)
    assert back.is_factored
    assert np.array_equal(back.factor, k.factor)
    assert np.array_equal(back.landmarks, k.landmarks)
    assert back.gamma == k.gamma and back.shift == k.shift


def test_km_unknown_form(tmp_path, tract):
    k = kernel_from_distances(pairwise_distances(tract, "mcp"))
    path = tmp_path / "k.km"
    write_km(k, path)
    data = bytearray(path.read_bytes())
    data[4] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_km(path)


def test_km_bytes_match_layout(tmp_path, tract):
    dense = kernel_from_distances(pairwise_distances(tract, "mcp"))
    factored = nystrom_kernel(tract, p=5, seed=0)
    for k, form, body, tail in (
        (dense, 0, dense.dense_values, b""),
        (factored, 1, factored.factor,
         struct.pack("<Q", 5) + b"".join(struct.pack("<Q", i) for i in factored.landmarks)),
    ):
        path = tmp_path / "k.km"
        write_km(k, path)
        head = b"KM01" + struct.pack("<BQQdd", form, k.n, body.shape[1], k.gamma, k.shift)
        assert path.read_bytes() == head + body.tobytes() + tail


def test_read_km_dense_holds_one_matrix(tmp_path):
    n = 1000
    k = kernel_from_distances(random_distances(n))
    path = tmp_path / "k.km"
    write_km(k, path)
    back, peak = traced_peak(read_km, path)
    assert np.array_equal(back.dense_values, k.dense_values)
    assert peak <= 1.2 * n * n * 8  # the matrix and its symmetry check's strips


@pytest.mark.parametrize("cut", [-8, 8], ids=["truncated", "trailing"])
def test_km_dense_size_mismatch(tmp_path, tract, cut):
    k = kernel_from_distances(pairwise_distances(tract, "mcp"))
    path = tmp_path / "k.km"
    write_km(k, path)
    data = path.read_bytes()
    path.write_bytes(data[:cut] if cut < 0 else data + b"\x00" * cut)
    with pytest.raises(FormatError):
        read_km(path)


def test_km_implausible_landmark_rejected(tmp_path, tract):
    k = nystrom_kernel(tract, p=5, seed=0)
    path = tmp_path / "k.km"
    write_km(k, path)
    data = bytearray(path.read_bytes())
    data[-8:] = struct.pack("<Q", 2**63)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="implausible"):
        read_km(path)


# --- CSV helpers -----------------------------------------------------------

def test_dense_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(4, 7))
    write_dense_csv(arr, tmp_path / "a.csv")
    assert np.array_equal(read_dense_csv(tmp_path / "a.csv"), arr)


def test_sparse_csv_roundtrip(tmp_path):
    arr = np.zeros((5, 4))
    arr[0, 3] = 1.25
    arr[4, 0] = -2.0
    write_sparse_csv(arr, tmp_path / "w.csv")
    assert np.array_equal(read_sparse_csv(tmp_path / "w.csv", (5, 4)), arr)


def test_sparse_csv_out_of_range(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("row,col,value\n9,0,1.0\n")
    with pytest.raises(FormatError):
        read_sparse_csv(path, (2, 2))


@pytest.mark.parametrize("reader", [
    read_sl, read_labels, read_dense_csv, lambda path: read_sparse_csv(path, (2, 2)),
], ids=["sl", "labels", "dense_csv", "sparse_csv"])
def test_undecodable_text_is_format_error_naming_the_file(tmp_path, reader):
    path = tmp_path / "input.txt"
    path.write_bytes(b"row,col,value\n0,1,1.0\n\xff\n")
    with pytest.raises(FormatError, match="input.txt.*UTF-8"):
        reader(path)


# --- fit directory ---------------------------------------------------------

def test_fit_dir_contents(tmp_path):
    t, _ = preset_separated5(seed=0, total_count=60)
    k = kernel_from_distances(pairwise_distances(t, "mcp", threads=2))
    cfg = SolverConfig(m=3, seed=0)
    init = spectral_init(k, m=3, seed=0)
    res = kkm_fit(k, cfg, init)
    out = write_fit_dir(res, cfg, tmp_path / "run.fit", method="kkm")
    names = sorted(p.name for p in out.iterdir())
    assert names == ["a.csv", "config.json", "labels.txt", "trace.csv", "w.csv"]
    cfg_back = json.loads((out / "config.json").read_text())
    assert cfg_back["method"] == "kkm" and cfg_back["m"] == 3
    w = read_sparse_csv(out / "w.csv", (3, len(t)))
    assert np.array_equal(w, res.assignment.w)
    a = read_dense_csv(out / "a.csv")
    assert np.array_equal(a, res.dictionary.a)
    lab = read_labels(out / "labels.txt", m=3)
    assert np.array_equal(lab.labels, res.labels.labels)
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,cost,primal_residual"
    assert len(trace) == 1 + max(len(res.cost_trace), len(res.primal_residual_trace))


def test_fit_dir_deterministic_hashes(tmp_path):
    t, _ = preset_separated5(seed=1, total_count=60)
    k = kernel_from_distances(pairwise_distances(t, "mcp", threads=2))
    cfg = SolverConfig(m=3, seed=1)
    init = spectral_init(k, m=3, seed=1)
    hashes = []
    for name in ("one", "two"):
        res = kkm_fit(k, cfg, init)
        out = write_fit_dir(res, cfg, tmp_path / name, method="kkm")
        hashes.append({p.name: sha256_file(p) for p in out.iterdir()})
    assert hashes[0] == hashes[1]
