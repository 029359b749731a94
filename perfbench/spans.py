"""In-memory spans around tractsparse's public functions.

``Tracer.install`` swaps each function named in ``WRAPPED`` for a timing
wrapper.  It replaces the defining attribute and every name that another
``tractsparse`` module imported, so calls the package makes to itself are
caught without editing it.  ``Tracer.uninstall`` puts the originals back.

Each span records a name, start, end, parent span and the operation it
belongs to; spans stay in memory until the run ends.  A span's self time is
its duration minus the time its direct children cover.  The stack is not
thread-safe: every wrapped function runs on the calling thread (distances
use one worker unless ``TRACTSPARSE_THREADS`` says otherwise, and their
worker threads call no wrapped function).
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    op: str
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- hooks: counts recorded at the layer boundary ---------------------------

def _points_per_streamline(t, measure):
    if measure == "ep":
        return np.full(len(t), 2, dtype=np.int64)
    return np.array([len(s) for s in t], dtype=np.int64)


def _measure(args, kwargs, index):
    return kwargs.get("measure", args[index] if len(args) > index else "mcp")


def _support(parent):
    """Training rows the enclosing atlas segmentation actually needs."""
    if parent is not None and parent.name == "atlas.segment_with_atlas":
        return parent.attrs["support"]
    return None


def _pairwise_counts(span, parent, args, kwargs):
    p = _points_per_streamline(args[0], _measure(args, kwargs, 1))
    total = int(p.sum())
    span.attrs["pairs"] = p.size * p.size
    span.attrs["point_pairs"] = total * total
    # each unordered pair needs its point block once; the diagonal not at all
    sup = _support(parent)
    q = p if sup is None else p[sup]
    span.attrs["useful_point_pairs"] = (int(q.sum()) ** 2 - int((q * q).sum())) // 2


def _cross_counts(span, parent, args, kwargs):
    measure = _measure(args, kwargs, 2)
    pa = _points_per_streamline(args[0], measure)
    pb = _points_per_streamline(args[1], measure)
    span.attrs["pairs"] = 2 * pa.size * pb.size
    span.attrs["point_pairs"] = 2 * int(pa.sum()) * int(pb.sum())
    sup = _support(parent)
    qa = pa if sup is None else pa[sup]
    span.attrs["useful_point_pairs"] = int(qa.sum()) * int(pb.sum())


def _endpoint_graph_counts(span, parent, args, kwargs):
    n = len(args[0])
    span.attrs["pairs"] = n * n
    span.attrs["point_pairs"] = 4 * n * n
    span.attrs["useful_point_pairs"] = 2 * n * (n - 1)


def _matrix_size(span, parent, args, kwargs):
    span.attrs["n"] = int(np.shape(args[0])[0])


def _atlas_support(span, parent, args, kwargs):
    span.attrs["support"] = np.flatnonzero(np.any(args[0].dictionary.a != 0.0, axis=1))


def _dictionary_support(span, parent, args, kwargs):
    a = args[1].a if hasattr(args[1], "a") else np.asarray(args[1])
    span.attrs["support_rows"] = int(np.count_nonzero(np.any(a != 0.0, axis=1)))
    span.attrs["n"] = a.shape[0]


def _fit_summary(span, result):
    a = result.dictionary.a
    span.attrs.update(
        sweeps=result.iterations,
        converged=int(result.converged),
        support_rows=int(np.count_nonzero(np.any(a != 0.0, axis=1))),
        atoms=int(np.count_nonzero(np.linalg.norm(result.assignment.w, axis=1))),
        n=a.shape[0],
        labels=np.asarray(result.labels.labels).copy(),
    )


def _file_size(span, parent, args, kwargs):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _written_bytes(span, parent, args, kwargs):
    span.attrs["bytes"] = len(args[1])


def _gksc_name(args, kwargs):
    laplacian = kwargs.get("laplacian", args[3] if len(args) > 3 else None)
    return "solvers.gksc_laplacian" if laplacian is not None else "solvers.gksc"


def _cli_name(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None)
    return f"cli.{argv[0]}" if argv else "cli.main"


# (module, function, span name or callable naming it, before-hook, after-hook)
WRAPPED = [
    ("synth", "generate", "synth.generate", None, None),
    ("io", "read_slb", "io.read_slb", None, None),
    ("io", "read_sl", "io.read_sl", None, None),
    ("io", "read_dm", "io.read_dm", None, None),
    ("io", "read_labels", "io.read_labels", _file_size, None),
    ("io", "read_dense_csv", "io.read_dense_csv", _file_size, None),
    ("io", "_read_binary", "io.read_binary", _file_size, None),
    ("io", "write_slb", "io.write_slb", None, None),
    ("io", "write_dm", "io.write_dm", None, None),
    ("io", "write_labels", "io.write_labels", None, None),
    ("io", "write_fit_dir", "io.write_fit_dir", None, None),
    ("io", "write_sparse_csv", "io.write_sparse_csv", None, None),
    ("io", "write_dense_csv", "io.write_dense_csv", None, None),
    ("io", "_atomic_write_bytes", "io.atomic_write", _written_bytes, None),
    ("io", "sha256_file", "io.sha256_file", _file_size, None),
    ("distances", "pairwise_distances", "distances.pairwise_distances", _pairwise_counts, None),
    ("distances", "cross_distances", "distances.cross_distances", _cross_counts, None),
    ("distances", "build_endpoint_graph", "distances.build_endpoint_graph",
     _endpoint_graph_counts, None),
    ("kernel", "rbf_kernel", "kernel.rbf_kernel", None, None),
    ("kernel", "spectrum_shift", "kernel.spectrum_shift", None, None),
    ("linalg", "sym_eig", "linalg.sym_eig", _matrix_size, None),
    ("linalg", "nnls", "linalg.nnls", None, None),
    ("linalg", "ridge_solve", "linalg.ridge_solve", None, None),
    ("linalg", "sylvester_solve", "linalg.sylvester_solve", None, None),
    ("linalg", "schur_form", "linalg.schur_form", None, None),
    ("solvers", "spectral_init", "solvers.spectral_init", None, None),
    ("solvers", "kkm_fit", "solvers.kkm", None, _fit_summary),
    ("solvers", "ksc_fit", "solvers.ksc", None, _fit_summary),
    ("solvers", "gksc_fit", _gksc_name, None, _fit_summary),
    ("solvers", "mult_update_A", "solvers.mult_update_A", None, None),
    ("solvers", "reconstruction_cost", "solvers.reconstruction_cost", None, None),
    ("solvers", "segment_with_dictionary", "solvers.segment_with_dictionary",
     _dictionary_support, None),
    ("metrics", "compute_metrics", "metrics.compute_metrics", None, None),
    ("atlas", "build_atlas", "atlas.build_atlas", None, None),
    ("atlas", "load_atlas", "atlas.load_atlas", None, None),
    ("atlas", "segment_with_atlas", "atlas.segment_with_atlas", _atlas_support, None),
    ("cli", "main", _cli_name, None, None),
]

FITS = ("kkm", "ksc", "gksc", "gksc_laplacian")
CLI_COMMANDS = ("distances", "cluster", "metrics", "segment")
LINALG = ("sym_eig", "nnls", "ridge_solve", "sylvester_solve")

# Per-layer metrics of one traced operation, in report order, with units.
LAYER_METRICS = [
    ("distances.busy_s", "s"),
    ("distances.pairs", "count"),
    ("distances.point_pairs", "count"),
    ("distances.point_pairs_per_s", "1/s"),
    ("distances.useful_ratio", "1"),
    ("kernel.rbf_s", "s"),
    ("kernel.shift_s", "s"),
    *[(f"linalg.{f}.{k}", u) for f in LINALG for k, u in (("calls", "count"), ("busy_s", "s"))],
    ("linalg.sym_eig.max_n", "count"),
    ("linalg.schur_form.busy_s", "s"),
    ("solvers.spectral_init.busy_s", "s"),
    *[
        (f"solvers.{fit}.{k}", u)
        for fit in FITS
        for k, u in (("busy_s", "s"), ("sweeps", "count"), ("converged", "1"),
                     ("ari", "1"), ("support_rows", "count"), ("atoms", "count"))
    ],
    ("solvers.support_ratio", "1"),
    ("solvers.mult_update_A.calls", "count"),
    ("solvers.mult_update_A.busy_s", "s"),
    ("solvers.reconstruction_cost.calls", "count"),
    ("solvers.reconstruction_cost.busy_s", "s"),
    ("solvers.segment_with_dictionary.busy_s", "s"),
    ("atlas.segment_with_atlas.self_s", "s"),
    ("atlas.load_atlas.busy_s", "s"),
    ("io.busy_s", "s"),
    ("io.bytes_read", "B"),
    ("io.bytes_written", "B"),
    ("io.sha256_bytes", "B"),
    ("io.sha256_s", "s"),
    *[(f"cli.{c}.wall_s", "s") for c in CLI_COMMANDS],
    ("cli.self_s", "s"),
    ("metrics.compute_s", "s"),
]

# Per-layer metrics of the workload's set-up, traced once.
SETUP_METRICS = [
    ("synth.generate_s", "s"),
    ("atlas.build_atlas.busy_s", "s"),
]

# Times repeated with BLAS at its default thread count: those of the layers
# that call BLAS.  Where they differ from the one-thread run, BLAS threading
# carries the change.
_BLAS_LAYERS = ("distances", "kernel", "linalg", "solvers", "metrics")
BLAS_METRICS = [(name, unit) for name, unit in LAYER_METRICS
                if unit == "s" and name.split(".")[0] in _BLAS_LAYERS]


class Tracer:
    """Collects spans for the operations run while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: str | None = None
        self._patches: list = []

    @contextlib.contextmanager
    def operation(self, op: str):
        """Record spans inside, attributed to operation ``op``.

        Wrapped calls made outside any operation are passed through
        unrecorded, so the benchmark's own output checks leave no spans.
        """
        previous, self._op = self._op, op
        try:
            yield
        finally:
            self._op = previous

    def _open(self, name: str, parent: Span | None) -> Span:
        span = Span(self._op, len(self.spans), parent.id if parent else None, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = tracer._open(name(args, kwargs) if callable(name) else name, parent)
            try:
                if before is not None:
                    before(span, parent, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for key, m in sys.modules.items()
                   if key == "tractsparse" or key.startswith("tractsparse.")]
        for module_name, attr, name, before, after in WRAPPED:
            original = getattr(sys.modules[f"tractsparse.{module_name}"], attr)
            wrapper = self._wrap(original, name, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def spans_of(self, op: str) -> list[Span]:
        return [s for s in self.spans if s.op == op]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id to duration minus the time its direct children cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[Span], truth_by_n: dict) -> dict[str, float]:
    """LAYER_METRICS of one operation's spans.

    ``truth_by_n`` maps a streamline count to the ground-truth labels the
    fits on that many streamlines are scored against.
    """
    from tractsparse.metrics import adjusted_rand_index

    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    out = {name: 0.0 for name, _ in LAYER_METRICS}

    def total(name, value):
        return sum(value(s) for s in spans if s.name == name)

    dist = [s for s in spans if _layer(s.name) == "distances"]
    out["distances.busy_s"] = sum(own[s.id] for s in dist)
    out["distances.pairs"] = sum(s.attrs["pairs"] for s in dist)
    out["distances.point_pairs"] = sum(s.attrs["point_pairs"] for s in dist)
    if out["distances.busy_s"] > 0:
        out["distances.point_pairs_per_s"] = out["distances.point_pairs"] / out["distances.busy_s"]
    if out["distances.point_pairs"]:
        useful = sum(s.attrs["useful_point_pairs"] for s in dist)
        out["distances.useful_ratio"] = useful / out["distances.point_pairs"]

    out["kernel.rbf_s"] = total("kernel.rbf_kernel", lambda s: s.duration)
    out["kernel.shift_s"] = total("kernel.spectrum_shift", lambda s: s.duration)
    for f in LINALG + ("schur_form",):
        calls = [s for s in spans if s.name == f"linalg.{f}"]
        out[f"linalg.{f}.busy_s"] = sum(own[s.id] for s in calls)
        if f != "schur_form":
            out[f"linalg.{f}.calls"] = len(calls)
    out["linalg.sym_eig.max_n"] = max(
        (s.attrs["n"] for s in spans if s.name == "linalg.sym_eig"), default=0)

    out["solvers.spectral_init.busy_s"] = total("solvers.spectral_init", lambda s: s.duration)
    support = n_rows = 0
    for fit in FITS:
        for s in (s for s in spans if s.name == f"solvers.{fit}"):
            key = f"solvers.{fit}"
            out[f"{key}.busy_s"] += s.duration
            for k in ("sweeps", "converged", "support_rows", "atoms"):
                out[f"{key}.{k}"] = s.attrs[k]
            truth = truth_by_n.get(s.attrs["n"])
            if truth is not None:
                out[f"{key}.ari"] = adjusted_rand_index(truth, s.attrs["labels"])
            support += s.attrs["support_rows"]
            n_rows += s.attrs["n"]
    for s in spans:
        if s.name == "solvers.segment_with_dictionary":
            support += s.attrs["support_rows"]
            n_rows += s.attrs["n"]
    if n_rows:
        out["solvers.support_ratio"] = support / n_rows
    for f in ("mult_update_A", "reconstruction_cost"):
        calls = [s for s in spans if s.name == f"solvers.{f}"]
        out[f"solvers.{f}.calls"] = len(calls)
        out[f"solvers.{f}.busy_s"] = sum(own[s.id] for s in calls)
    out["solvers.segment_with_dictionary.busy_s"] = total(
        "solvers.segment_with_dictionary", lambda s: s.duration)

    out["atlas.segment_with_atlas.self_s"] = total(
        "atlas.segment_with_atlas", lambda s: own[s.id])
    out["atlas.load_atlas.busy_s"] = total("atlas.load_atlas", lambda s: s.duration)

    def outermost_io(s):
        parent = by_id.get(s.parent)
        return _layer(s.name) == "io" and (parent is None or _layer(parent.name) != "io")

    out["io.busy_s"] = sum(s.duration for s in spans if outermost_io(s))
    out["io.bytes_read"] = sum(
        s.attrs["bytes"] for s in spans
        if s.name in ("io.read_binary", "io.read_labels", "io.read_dense_csv"))
    out["io.bytes_written"] = total("io.atomic_write", lambda s: s.attrs["bytes"])
    out["io.sha256_bytes"] = total("io.sha256_file", lambda s: s.attrs["bytes"])
    out["io.sha256_s"] = total("io.sha256_file", lambda s: s.duration)

    for c in CLI_COMMANDS:
        out[f"cli.{c}.wall_s"] = total(f"cli.{c}", lambda s: s.duration)
    out["cli.self_s"] = sum(own[s.id] for s in spans if _layer(s.name) == "cli")
    out["metrics.compute_s"] = total("metrics.compute_metrics", lambda s: s.duration)
    return {k: float(v) for k, v in out.items()}


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    return {
        "synth.generate_s": float(sum(s.duration for s in spans if s.name == "synth.generate")),
        "atlas.build_atlas.busy_s": float(sum(
            s.duration for s in spans if s.name == "atlas.build_atlas")),
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over operations; computed counts repeat exactly."""
    return {k: float(statistics.median(d[k] for d in per_op)) for k in per_op[0]}
