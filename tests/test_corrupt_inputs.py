"""A seeded corruption corpus over the CLI's input files.

Each input the CLI reads is damaged 40 ways (byte flips, truncation,
appended bytes, and an inserted ``nan``, ``1e400`` or ``\\xff\\xfe`` token)
and the command that reads it is run in-process. Every case must end in a
documented exit code: 0, or a typed error's 2, 3 or 4. Exit 1 is an
exception of no documented kind, which is a bug in the program.
"""

import shutil
import struct
import warnings

import numpy as np
import pytest

from tractsparse.cli import main
from tractsparse.io import write_labels, write_slb
from tractsparse.synth import preset_crossing2

CASES_PER_INPUT = 40
TOKENS = (b"nan", b"1e400", b"\xff\xfe")


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A 30-streamline dataset, its distances and an m=2 atlas, read-only."""
    root = tmp_path_factory.mktemp("clean")
    tract, labels = preset_crossing2(seed=5, count_per_bundle=15)
    write_slb(tract, root / "tract.slb")
    write_labels(labels, root / "labels.txt")
    assert main(["distances", "--in", str(root / "tract.slb"),
                 "--out", str(root / "d.dm"), "--threads", "1"]) == 0
    assert main(["atlas-build", "--in", str(root / "tract.slb"), "--m", "2",
                 "--out", str(root / "ref.atlas"), "--threads", "1"]) == 0
    return root


def corrupt(data: bytes, case: int, rng) -> bytes:
    """One of four damages, chosen by ``case``, placed by ``rng``."""
    kind = case % 4
    if kind == 0:
        out = bytearray(data)
        for pos in rng.integers(0, len(out), size=int(rng.integers(1, 5))):
            out[pos] ^= int(rng.integers(1, 256))
        return bytes(out)
    if kind == 1:
        return data[: int(rng.integers(0, len(data)))]
    if kind == 2:
        return data + rng.integers(0, 256, size=int(rng.integers(1, 64))).astype(
            np.uint8
        ).tobytes()
    pos = int(rng.integers(0, len(data) + 1))
    return data[:pos] + TOKENS[int(rng.integers(0, len(TOKENS)))] + data[pos:]


def _inputs(clean, bad):
    """Per input: the file to damage and the command that reads it."""
    tract, labels, dm = (str(clean / f) for f in ("tract.slb", "labels.txt", "d.dm"))
    out = str(bad / "out")
    segment = ["segment", "--atlas", str(bad / "ref.atlas"), "--in", tract,
               "--out", out, "--threads", "1"]
    cluster = ["cluster", "--method", "ksc", "--m", "2", "--out", out, "--threads", "1"]
    return {
        "slb": ("tract.slb", cluster + ["--in", str(bad / "tract.slb")]),
        "dm-cluster": ("d.dm", cluster + ["--in", tract, "--dist", str(bad / "d.dm")]),
        "dm-metrics": ("d.dm", ["metrics", "--pred", labels, "--truth", labels,
                                "--dist", str(bad / "d.dm")]),
        "labels": ("labels.txt", ["metrics", "--pred", str(bad / "labels.txt"),
                                  "--truth", labels, "--dist", dm]),
        "atlas-a": ("ref.atlas/a.csv", segment),
        "atlas-kernel": ("ref.atlas/kernel.json", segment),
        "atlas-training": ("ref.atlas/training.slb", segment),
    }


@pytest.mark.parametrize("name", [
    "slb", "dm-cluster", "dm-metrics", "labels",
    "atlas-a", "atlas-kernel", "atlas-training",
])
def test_corrupt_input_ends_in_a_documented_exit_code(clean, tmp_path, capsys, name):
    shutil.copytree(clean / "ref.atlas", tmp_path / "ref.atlas")
    target, argv = _inputs(clean, tmp_path)[name]
    data = (clean / target).read_bytes()
    rng = np.random.default_rng([28, len(name), sum(name.encode())])
    undocumented, codes = [], []
    for case in range(CASES_PER_INPUT):
        (tmp_path / target).write_bytes(corrupt(data, case, rng))
        rc = main(argv)
        err = capsys.readouterr().err
        codes.append(rc)
        if rc not in (0, 2, 3, 4):
            undocumented.append((case, rc, err.strip().splitlines()[-1:]))
    assert not undocumented, undocumented
    # the damage reaches the readers: at least a quarter is caught as bad input
    assert codes.count(3) >= CASES_PER_INPUT // 4, codes


def _write_raw_dm(values, path):
    """A .dm file of ``values`` written byte by byte, past DistanceMatrix's checks."""
    n = values.shape[0]
    rows = b"".join(values[i, i:].astype("<f8").tobytes() for i in range(n))
    path.write_bytes(b"DM01" + struct.pack("<Q", n) + rows)


@pytest.mark.parametrize("scale,single,code", [
    (1e160, False, 3),   # every square overflows
    (1e200, True, 3),    # one entry's square overflows
    (1e-155, False, 0),  # 2·median² is subnormal and γ overflows
    (1e-170, False, 0),  # 2·median² underflows to zero
])
def test_distances_at_extreme_scales(clean, tmp_path, capsys, scale, single, code):
    n = 30
    values = np.ones((n, n)) if single else np.full((n, n), scale)
    values[0, 1] = values[1, 0] = scale
    np.fill_diagonal(values, 0.0)
    _write_raw_dm(values, tmp_path / "d.dm")
    argv = ["cluster", "--in", str(clean / "tract.slb"), "--dist", str(tmp_path / "d.dm"),
            "--method", "ksc", "--m", "2", "--out", str(tmp_path / "out"), "--threads", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    err = capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 3:
        assert "above 1e+152" in err
    else:
        assert any("falling back to gamma=1" in str(w.message) for w in caught)
