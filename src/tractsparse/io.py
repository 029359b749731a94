"""Readers and writers for the on-disk artifacts.

Binary formats use 4-byte magic headers and little-endian 64-bit payloads
so the same input hashes identically across platforms. Text and CSV
mirrors exist for inspection and interop; floats there are written with
shortest round-trip repr, so they reload exactly as well. Every writer
goes through a temporary file in the target directory followed by an
atomic rename. Binary matrix payloads are written a row or block at a
time and read straight into the array they fill, so neither direction
holds a second copy of an n×n matrix. A dense CSV is encoded a row at a
time, so its writer holds the encoded text and one row of Python floats,
never the whole matrix as Python objects.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from .distances import DistanceMatrix
from .errors import FormatError
from .kernel import KernelMatrix
from .model import Labeling, SolverConfig, Streamline, Tractogram, _adopt, _matrix

SLB_MAGIC = b"SLB1"
DM_MAGIC = b"DM01"
KM_MAGIC = b"KM01"

_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

# refuse to allocate for counts beyond this when a corrupt header lies
_SANE_COUNT = 10**9


class _Chunks:
    """Bytes-like pieces to write one after another, never joined in memory.

    ``len()`` is their total size in bytes, as it is for a single payload.
    """

    def __init__(self, parts):
        self.parts = parts

    def __len__(self):
        return sum(memoryview(p).nbytes for p in self.parts)


def _atomic_write_bytes(path, data):
    """Write ``data`` (bytes-like, or `_Chunks` in order) via a temp file and rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for part in data.parts if isinstance(data, _Chunks) else (data,):
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_write_text(path, text: str):
    _atomic_write_bytes(path, text.encode("utf-8"))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def _open_text(path):
    """A UTF-8 text file open for reading; undecodable bytes raise FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            yield f
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _fmt(v) -> str:
    """Shortest decimal that round-trips the float64 exactly."""
    return repr(float(v))


# --- streamline text format ------------------------------------------------

def write_sl(t: Tractogram, path):
    """Text format: one "x y z" line per point, blank line between streamlines."""
    lines = [f"# {len(t)} streamlines"]
    for idx, s in enumerate(t):
        if idx:
            lines.append("")
        for p in s.points:
            lines.append(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_sl(path) -> Tractogram:
    blocks = []
    current = []
    with _open_text(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if line.startswith("#"):
                continue
            if not line:
                if current:
                    blocks.append(current)
                    current = []
                continue
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            try:
                current.append([float(v) for v in parts])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if current:
        blocks.append(current)
    if not blocks:
        raise FormatError(f"{path}: no streamlines found")
    try:
        return Tractogram(tuple(Streamline(np.array(b)) for b in blocks))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# --- streamline binary format ----------------------------------------------

def write_slb(t: Tractogram, path):
    """Binary format: magic, u64 count, then u64 point count + f64 triples each."""
    parts = [SLB_MAGIC, _U64.pack(len(t))]
    for s in t:
        parts.append(_U64.pack(len(s)))
        parts.append(np.ascontiguousarray(s.points, dtype="<f8"))
    _atomic_write_bytes(path, _Chunks(parts))


class _Reader:
    """Sequential parser over an open binary file with out-of-data detection.

    Every read is checked against the bytes left in the file before
    anything is allocated, so a corrupt count fails as FormatError, not as
    a huge allocation.
    """

    def __init__(self, f, path):
        self.f = f
        self.path = path
        self.left = os.fstat(f.fileno()).st_size

    def _need(self, count: int):
        if count > self.left:
            raise FormatError(f"{self.path}: truncated (wanted {count} more bytes)")

    def _claim(self, count: int):
        self._need(count)
        self.left -= count

    def expect_rest(self, count: int):
        """Fail unless exactly ``count`` bytes are left; reads nothing."""
        self._need(count)
        if self.left != count:
            raise FormatError(f"{self.path}: {self.left - count} trailing bytes")

    def take(self, count: int) -> bytes:
        self._claim(count)
        out = self.f.read(count)
        if len(out) != count:
            raise FormatError(f"{self.path}: truncated while reading")
        return out

    def u64(self) -> int:
        (v,) = _U64.unpack(self.take(8))
        if v > _SANE_COUNT:
            raise FormatError(f"{self.path}: implausible count {v}")
        return v

    def f64(self) -> float:
        (v,) = _F64.unpack(self.take(8))
        return v

    def f64_array(self, shape: tuple, out=None) -> np.ndarray:
        """float64 values of ``shape`` read straight into ``out`` or a new array.

        ``out`` is a C-ordered float64 array of that shape and is returned.
        """
        count = math.prod(shape)
        self._claim(8 * count)
        arr = np.empty(shape) if out is None else out
        if self.f.readinto(memoryview(arr).cast("B")) != 8 * count:
            raise FormatError(f"{self.path}: truncated while reading")
        if sys.byteorder == "big":
            arr.byteswap(inplace=True)
        return arr

    def done(self):
        self.expect_rest(0)


@contextlib.contextmanager
def _read_binary(path, magic: bytes):
    """A `_Reader` past the magic header; the file closes when the block ends."""
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.take(len(magic)) != magic:
            raise FormatError(f"{path}: bad magic, expected {magic!r}")
        yield r


def read_slb(path) -> Tractogram:
    """Read a ``.slb`` file: one read of the payload, then a view per streamline.

    The payload is viewed as 8-byte words, and each streamline's points are
    a read-only slice of them, handed to the `Streamline` without a copy.
    Each point-count header is checked against the words left, as
    `_Reader` checks every read against the bytes left.
    """
    with _read_binary(path, SLB_MAGIC) as r:
        count = r.u64()
        payload = r.take(r.left)
    words = np.frombuffer(payload, dtype="<f8", count=len(payload) // 8)
    at, streamlines = 0, []
    for _ in range(count):
        if at == words.size:
            raise FormatError(f"{path}: truncated (wanted 8 more bytes)")
        (npts,) = _U64.unpack_from(payload, 8 * at)
        if npts > _SANE_COUNT:
            raise FormatError(f"{path}: implausible count {npts}")
        at += 1
        if at + 3 * npts > words.size:
            raise FormatError(f"{path}: truncated (wanted {24 * npts} more bytes)")
        streamlines.append(
            _adopt(Streamline, points=words[at : at + 3 * npts].reshape(npts, 3))
        )
        at += 3 * npts
    if 8 * at != len(payload):
        raise FormatError(f"{path}: {len(payload) - 8 * at} trailing bytes")
    if not streamlines:
        raise FormatError(f"{path}: no streamlines found")
    return Tractogram(tuple(streamlines))


# --- labels ----------------------------------------------------------------

def write_labels(lab: Labeling, path):
    _atomic_write_text(path, "\n".join(map(str, lab.labels.tolist())) + "\n")


def read_labels(path, m: int | None = None) -> Labeling:
    values = []
    with _open_text(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(int(line))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not values:
        raise FormatError(f"{path}: no labels found")
    arr = np.array(values, dtype=np.int64)
    try:
        return Labeling(arr, m=int(arr.max()) + 1 if m is None else m)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# --- distance matrix -------------------------------------------------------

def write_dm(d: DistanceMatrix, path):
    """Binary: magic, u64 n, upper triangle (diagonal included) row-major f64.

    Streamed row by row: each row's ``values[i, i:]`` is written in turn.
    """
    v = d.values
    rows = [np.ascontiguousarray(v[i, i:], dtype="<f8") for i in range(d.n)]
    _atomic_write_bytes(path, _Chunks([DM_MAGIC + _U64.pack(d.n), *rows]))


def read_dm(path) -> DistanceMatrix:
    """Read a ``.dm`` file row by row of the triangle into the matrix.

    The file size is checked against the header's n before anything is
    allocated. Each row of the triangle is read into a one-row array and
    copied into its row and column, so at peak the matrix and one row are
    held. The matrix is a `_matrix`, in its own memory map: the CLI builds
    its kernel in this buffer, and its pages go back to the system when
    the kernel is freed.
    """
    with _read_binary(path, DM_MAGIC) as r:
        n = r.u64()
        r.expect_rest(8 * (n * (n + 1) // 2))
        values = _matrix((n, n))
        for i in range(n):
            values[i, i:] = values[i:, i] = r.f64_array((n - i,))
    try:
        return _adopt(DistanceMatrix, known_symmetric=True, n=n, values=values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_dm_csv(d: DistanceMatrix, path):
    """Full square matrix, one row per line, for external tools."""
    write_dense_csv(d.values, path)


# --- kernel matrix ---------------------------------------------------------

_KM_DENSE = 0
_KM_FACTORED = 1


def write_km(k: KernelMatrix, path):
    """Binary: magic, u8 form tag, u64 n and width r, f64 gamma and shift, payload.

    Dense form stores the full n×n block (r written as n); the factored
    form stores the n×r factor, r ≤ p, followed by the p landmark indices.
    """
    if k.is_factored:
        form = _KM_FACTORED
        payload = np.ascontiguousarray(k.factor, dtype="<f8")
        p = payload.shape[1]
        landmarks = k.landmarks if k.landmarks is not None else np.array([], dtype=np.int64)
        tail = _U64.pack(len(landmarks)) + np.asarray(landmarks, dtype="<u8").tobytes()
    else:
        form = _KM_DENSE
        payload = np.ascontiguousarray(k.dense_values, dtype="<f8")
        p = k.n
        tail = b""
    head = KM_MAGIC + struct.pack("<B", form) + _U64.pack(k.n) + _U64.pack(p)
    head += _F64.pack(k.gamma) + _F64.pack(k.shift)
    _atomic_write_bytes(path, _Chunks([head, payload, tail]))


def read_km(path) -> KernelMatrix:
    with _read_binary(path, KM_MAGIC) as r:
        (form,) = struct.unpack("<B", r.take(1))
        n, p = r.u64(), r.u64()
        gamma, shift = r.f64(), r.f64()
        try:
            if form == _KM_DENSE:
                if p != n:
                    raise FormatError(f"{path}: dense form with p={p} != n={n}")
                r.expect_rest(8 * n * n)
                values = r.f64_array((n, n), out=_matrix((n, n)))
                return _adopt(
                    KernelMatrix, n=n, gamma=gamma, shift=shift, dense_values=values
                )
            if form == _KM_FACTORED:
                factor = r.f64_array((n, p))
                count = r.u64()
                landmarks = np.frombuffer(r.take(8 * count), dtype="<u8")
                if count and landmarks.max() > _SANE_COUNT:
                    raise FormatError(f"{path}: implausible landmark index {landmarks.max()}")
                r.done()
                return _adopt(
                    KernelMatrix, n=n, gamma=gamma, shift=shift, factor=factor,
                    landmarks=landmarks.astype(np.int64) if count else None,
                )
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    raise FormatError(f"{path}: unknown kernel form tag {form}")


# --- CSV matrix helpers ----------------------------------------------------

def write_dense_csv(arr, path):
    """One line per row, encoded a row at a time into the pieces written."""
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    rows = [(",".join(map(repr, row.tolist())) + "\n").encode() for row in arr]
    _atomic_write_bytes(path, _Chunks(rows))


def read_dense_csv(path) -> np.ndarray:
    rows = []
    with _open_text(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: empty matrix")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise FormatError(f"{path}: ragged rows")
    return np.array(rows, dtype=np.float64)


def write_sparse_csv(arr, path):
    """Triplet form "row,col,value" with a header line; zeros omitted."""
    arr = np.asarray(arr, dtype=np.float64)
    ii, jj = np.nonzero(arr)
    lines = ["row,col,value"]
    # Python ints and floats format as the NumPy scalars do, without their cost
    lines += [
        f"{i},{j},{v!r}" for i, j, v in zip(ii.tolist(), jj.tolist(), arr[ii, jj].tolist())
    ]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_sparse_csv(path, shape) -> np.ndarray:
    out = np.zeros(shape)
    with _open_text(path) as f:
        header = f.readline().strip()
        if header != "row,col,value":
            raise FormatError(f"{path}: expected triplet header, got {header!r}")
        for lineno, raw in enumerate(f, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if not (0 <= i < shape[0] and 0 <= j < shape[1]):
                raise FormatError(f"{path}:{lineno}: index ({i}, {j}) out of {shape}")
            out[i, j] = v
    return out


# --- fit result directory --------------------------------------------------

def _write_assignment(w, labels: Labeling, unassigned, out: Path):
    """W as ``w.csv``, the hard labels as ``labels.txt``, and ``unassigned.txt``.

    ``unassigned.txt`` lists by index the streamlines with no active
    coefficient. When every streamline is assigned it is removed, so a
    re-run into the same directory leaves no stale list behind.
    """
    write_sparse_csv(w, out / "w.csv")
    write_labels(labels, out / "labels.txt")
    idx = np.flatnonzero(unassigned)
    if idx.size:
        _atomic_write_text(out / "unassigned.txt", "\n".join(map(str, idx)) + "\n")
    else:
        (out / "unassigned.txt").unlink(missing_ok=True)


def write_fit_dir(result, cfg: SolverConfig, out_dir, method: str):
    """Persist a solver run: W and A matrices, labels, traces, and config.

    ``labels.txt`` holds the hard assignment; streamlines with no active
    coefficient are listed by index in ``unassigned.txt`` (absent when all
    streamlines are assigned).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_assignment(result.assignment.w, result.labels, result.unassigned, out)
    write_dense_csv(result.dictionary.a, out / "a.csv")
    cost = list(result.cost_trace)
    primal = list(result.primal_residual_trace)
    lines = ["iter,cost,primal_residual"]
    for i in range(max(len(cost), len(primal))):
        c = _fmt(cost[i]) if i < len(cost) else ""
        p = _fmt(primal[i]) if i < len(primal) else ""
        lines.append(f"{i},{c},{p}")
    _atomic_write_text(out / "trace.csv", "\n".join(lines) + "\n")
    config = dict(dataclasses.asdict(cfg), method=method)
    _atomic_write_text(out / "config.json", json.dumps(config, indent=2, sort_keys=True) + "\n")
    return out
