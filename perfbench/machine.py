"""Machine and build record attached to every benchmark result.

Uses only the standard library and NumPy: the effective BLAS thread count
is read from the OpenBLAS libraries loaded into this process.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS library will use, by file name."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def _git_commit(root: Path) -> str | None:
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py"))


def machine_record(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "TRACTSPARSE_THREADS": os.environ.get("TRACTSPARSE_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_lines": _src_lines(root / "src"),
    }
