"""Batch command-line interface over the clustering pipeline.

Every subcommand persists its artifacts in the documented formats and
drops a ``manifest.json`` beside them recording the resolved settings,
input and output hashes, the tool version, and per-stage wall-clock
timings. Output artifacts are byte-stable for a fixed seed; the manifest
itself is not part of that contract because of the timings, which is why
it also carries the output hashes.

Exit codes: 0 success, 2 usage, 3 bad input data, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .atlas import build_atlas, load_atlas, save_atlas, segment_with_atlas
from .distances import (
    DEFAULT_ENDPOINT_THRESHOLD_MM,
    MEASURES,
    _resolve_threads,
    build_endpoint_graph,
    graph_laplacian,
    pairwise_distances,
)
from .errors import DataError, NumericalError
from .io import (
    _atomic_write_text,
    _write_assignment,
    read_dm,
    read_labels,
    read_sl,
    read_slb,
    sha256_file,
    write_dm,
    write_dm_csv,
    write_fit_dir,
    write_km,
    write_labels,
    write_slb,
    SLB_MAGIC,
)
from .kernel import _kernel_in_distance_buffer, nystrom_kernel
from .metrics import compute_metrics
from .model import SolverConfig
from .solvers import (
    DEFAULT_LAMBDA_L,
    gksc_fit,
    kkm_fit,
    ksc_fit,
    random_selection_init,
    spectral_init,
)
from .synth import PRESETS, BundleSpec, generate


class UsageError(Exception):
    """Bad flag combination or unknown name; maps to exit code 2."""


def _read_tract(path):
    """Dispatch on content: binary magic wins, otherwise text."""
    p = Path(path)
    with open(p, "rb") as f:
        head = f.read(4)
    return read_slb(p) if head == SLB_MAGIC else read_sl(p)


@contextlib.contextmanager
def _flag_values():
    """Report the library's ValueError for a flag value as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _seed(text):
    """The type of every --seed: NumPy takes non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _threads(text):
    """The type of every --threads: a worker count of at least one."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


class _Timer:
    def __init__(self):
        self.stages = {}

    @contextlib.contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        yield
        self.stages[name] = round(time.perf_counter() - t0, 6)


def _write_manifest(where, command, config, inputs, outputs, timer, extra=None):
    """Manifest next to a file output, or inside a directory output.

    ``outputs`` None lists the output directory's files but the manifest.
    """
    where = Path(where)
    path = where / "manifest.json" if where.is_dir() else where.with_name(
        where.name + ".manifest.json"
    )
    if outputs is None:
        outputs = sorted(p for p in where.iterdir() if p != path)
    manifest = {
        "tool": "tractsparse",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {Path(p).name: sha256_file(p) for p in outputs},
        "timings_s": timer.stages,
    }
    if extra:
        manifest["result"] = extra
    _atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _specs_from_file(path):
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    entries = raw.get("specs") if isinstance(raw, dict) else raw
    if not isinstance(entries, list) or not entries:
        raise DataError(f"{path}: expected a list of bundle specs")
    specs = []
    for i, entry in enumerate(entries):
        try:
            entry = dict(entry)
            for key in ("center", "rotation_deg", "points_per_streamline"):
                if key in entry:
                    entry[key] = tuple(entry[key])
            specs.append(BundleSpec(**entry))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: spec {i}: {exc}") from exc
    return specs


# --- subcommands ------------------------------------------------------------

def cmd_synth(args) -> int:
    timer = _Timer()
    if args.preset in PRESETS:
        with timer.stage("generate"):
            tract, labels = PRESETS[args.preset](seed=args.seed)
        source = args.preset
        inputs = []
    elif Path(args.preset).is_file():
        specs = _specs_from_file(args.preset)
        with timer.stage("generate"):
            tract, labels = generate(specs, seed=args.seed)
        source = str(args.preset)
        inputs = [Path(args.preset)]
    else:
        raise UsageError(
            f"unknown preset {args.preset!r} (choose from {sorted(PRESETS)}) "
            "and no such spec file"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with timer.stage("write"):
        write_slb(tract, out / "tract.slb")
        write_labels(labels, out / "labels.txt")
    _write_manifest(
        out, "synth",
        {"preset": source, "seed": args.seed},
        inputs, [out / "tract.slb", out / "labels.txt"], timer,
        extra={"n_streamlines": len(tract), "m": labels.m},
    )
    return 0


def cmd_distances(args) -> int:
    timer = _Timer()
    with timer.stage("read"):
        tract = _read_tract(args.infile)
    with timer.stage("compute"):
        d = pairwise_distances(tract, args.measure, threads=args.threads)
    out = Path(args.out)
    outputs = [out]
    with timer.stage("write"):
        write_dm(d, out)
        if args.csv:
            write_dm_csv(d, args.csv)
            outputs.append(Path(args.csv))
    _write_manifest(
        out, "distances",
        {"measure": args.measure, "threads": args.threads},
        [Path(args.infile)], outputs, timer,
        extra={"n": d.n},
    )
    return 0


def _build_kernel(args, tract, timer):
    if not 1 <= args.m <= len(tract):
        raise UsageError(f"--m must be in [1, {len(tract)}], got {args.m}")
    if args.nystrom is not None:
        if args.dist is not None:
            raise UsageError("--nystrom computes its own distances; drop --dist")
        if not 1 <= args.nystrom <= len(tract):
            raise UsageError(
                f"--nystrom must be in [1, {len(tract)}], got {args.nystrom}"
            )
        with timer.stage("kernel"):
            return nystrom_kernel(
                tract, measure=args.measure, p=args.nystrom,
                seed=args.seed, threads=args.threads,
            )
    if args.dist is not None:
        with timer.stage("read_distances"):
            d = read_dm(args.dist)
        if d.n != len(tract):
            raise DataError(
                f"distance matrix is {d.n}x{d.n} but the tractogram has "
                f"{len(tract)} streamlines"
            )
    else:
        with timer.stage("distances"):
            d = pairwise_distances(tract, args.measure, threads=args.threads)
    with timer.stage("kernel"):
        return _kernel_in_distance_buffer(d)


# The `cluster` flags that only some methods read: flag, its args name and
# those methods. Any other method rejects the flag as a usage error.
_METHOD_FLAGS = [
    ("--smax", "smax", ("ksc",)),
    ("--lambda1", "lambda1", ("gksc", "gksc-manifold")),
    ("--lambda2", "lambda2", ("gksc",)),
    ("--mu", "mu", ("gksc", "gksc-manifold")),
    ("--lambdaL", "lambdaL", ("gksc-manifold",)),
    ("--ep-threshold", "ep_threshold", ("gksc-manifold",)),
]


def cmd_cluster(args) -> int:
    timer = _Timer()
    for flag, name, methods in _METHOD_FLAGS:
        if getattr(args, name) is not None and args.method not in methods:
            raise UsageError(f"{flag} applies to {' and '.join(methods)} only")
    if args.lambdaL == 0:
        raise UsageError("--lambdaL must be > 0; without smoothing use --method gksc --lambda2 0")
    manifold = args.method == "gksc-manifold"
    lambda_l = (args.lambdaL if args.lambdaL is not None else DEFAULT_LAMBDA_L) \
        if manifold else 0.0
    ep_threshold = (args.ep_threshold if args.ep_threshold is not None
                    else DEFAULT_ENDPOINT_THRESHOLD_MM) if manifold else None
    # A flag left out takes SolverConfig's default, as the manifest records.
    given = {
        key: value
        for key, value in (("s_max", args.smax), ("lambda1", args.lambda1), ("mu", args.mu))
        if value is not None
    }
    with _flag_values():
        cfg = SolverConfig(
            m=args.m, lambda2=0.0 if manifold else args.lambda2,
            lambda_l=lambda_l, seed=args.seed, **given,
        )

    with timer.stage("read"):
        tract = _read_tract(args.infile)
    k = _build_kernel(args, tract, timer)

    with timer.stage("init"):
        if args.init == "random":
            init = random_selection_init(k, m=args.m, seed=args.seed)
        else:
            init = spectral_init(k, m=args.m, seed=args.seed)

    with timer.stage("fit"):
        if args.method == "kkm":
            result = kkm_fit(k, cfg, init)
        elif args.method == "ksc":
            result = ksc_fit(k, cfg, init)
        elif args.method == "gksc":
            result = gksc_fit(k, cfg, init)
        else:
            with _flag_values():
                graph = build_endpoint_graph(tract, ep_threshold, threads=args.threads)
            result = gksc_fit(k, cfg, init, laplacian=graph_laplacian(graph))

    out = Path(args.out)
    with timer.stage("write"):
        write_fit_dir(result, cfg, out, method=args.method)
        if args.save_kernel:
            write_km(k, out / "kernel.km")
        else:
            (out / "kernel.km").unlink(missing_ok=True)
    row_norms = np.linalg.norm(result.assignment.w, axis=1)
    _write_manifest(
        out, "cluster",
        dict(
            method=args.method, measure=args.measure, init=args.init,
            nystrom=args.nystrom, ep_threshold=ep_threshold,
            threads=args.threads, **{
                key: getattr(cfg, key)
                for key in ("m", "s_max", "lambda1", "lambda2", "lambda_l", "mu", "seed")
            },
        ),
        [Path(args.infile)] + ([Path(args.dist)] if args.dist else []),
        None, timer,
        extra={
            "non_empty_clusters": int(np.sum(row_norms > 0)),
            "unassigned": int(result.unassigned.sum()),
            "iterations": result.iterations,
            "converged": result.converged,
            "final_cost": result.cost_trace[-1] if result.cost_trace else None,
        },
    )
    return 0


def cmd_metrics(args) -> int:
    timer = _Timer()
    if args.truth is None and args.dist is None:
        raise UsageError("nothing to compute: give --truth and/or --dist")
    with timer.stage("read"):
        pred = read_labels(args.pred)
        truth = read_labels(args.truth) if args.truth else None
        d = read_dm(args.dist) if args.dist else None

    with timer.stage("compute"):
        report = compute_metrics(truth, pred, d)
    del d  # the matrix is not held while the manifest hashes the inputs
    payload_json = report.to_json() if truth is not None else json.dumps(
        {"silhouette": report.silhouette, "cluster_sizes": report.cluster_sizes},
        indent=2, sort_keys=True,
    )

    if args.out is None:
        print(payload_json)
        return 0
    out = Path(args.out)
    with timer.stage("write"):
        if out.suffix == ".csv":
            _atomic_write_text(out, report.csv_header() + "\n" + report.to_csv_row() + "\n")
        else:
            _atomic_write_text(out, payload_json + "\n")
    inputs = [Path(p) for p in (args.pred, args.truth, args.dist) if p]
    _write_manifest(out, "metrics", {"format": out.suffix.lstrip(".") or "json"},
                    inputs, [out], timer)
    return 0


def cmd_atlas_build(args) -> int:
    timer = _Timer()
    if args.sample is not None and args.sample < 1:
        raise UsageError(f"--sample must be at least 1, got {args.sample}")
    with _flag_values():
        cfg = SolverConfig(m=args.m, s_max=args.smax, seed=args.seed)
    with timer.stage("read"):
        subjects = [_read_tract(p) for p in args.infile]
    # build_atlas pools every streamline of a subject, or a sample of --sample
    pooled = sum(len(t) if args.sample is None else min(args.sample, len(t))
                 for t in subjects)
    if args.m > pooled:
        raise UsageError(f"--m must be in [1, {pooled}], got {args.m}")
    with timer.stage("fit"):
        atlas, fit = build_atlas(
            subjects, cfg, measure=args.measure,
            sample_per_subject=args.sample, seed=args.seed, threads=args.threads,
        )
    out = Path(args.out)
    with timer.stage("write"):
        save_atlas(atlas, out)
        write_labels(fit.labels, out / "training_labels.txt")
    _write_manifest(
        out, "atlas-build",
        {
            "measure": args.measure, "sample": args.sample,
            "m": cfg.m, "s_max": cfg.s_max, "seed": args.seed, "threads": args.threads,
        },
        [Path(p) for p in args.infile], None, timer,
        extra={
            # the stored count, as kernel.json records it, not the pooled sample
            "n_training": json.loads((out / "kernel.json").read_text())["n_training"],
            "gamma": atlas.gamma,
            "shift": atlas.shift,
            "converged": fit.converged,
        },
    )
    return 0


def cmd_segment(args) -> int:
    timer = _Timer()
    with timer.stage("read"):
        atlas = load_atlas(args.atlas)
        tract = _read_tract(args.infile)
    if args.smax is not None:
        with _flag_values():
            atlas = dataclasses.replace(atlas, s_max=args.smax)
    with timer.stage("segment"):
        seg = segment_with_atlas(
            atlas, tract, measure=args.measure, threads=args.threads,
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with timer.stage("write"):
        _write_assignment(seg.assignment.w, seg.labels, seg.unassigned, out)
    atlas_dir = Path(args.atlas)
    atlas_files = sorted(p for p in atlas_dir.iterdir() if p.is_file())
    _write_manifest(
        out, "segment",
        {"atlas": str(args.atlas), "s_max": args.smax, "threads": args.threads},
        atlas_files + [Path(args.infile)], None, timer,
        extra={"unassigned": int(seg.unassigned.sum()), "m": atlas.m},
    )
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tractsparse",
        description="Streamline bundle clustering via sparse kernel dictionaries.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p):
        p.add_argument(
            "--threads", type=_threads, default=None,
            help="worker threads for distance computation "
                 "(default: $TRACTSPARSE_THREADS, else the usable CPUs)",
        )

    p = sub.add_parser("synth", help="generate a synthetic tractogram")
    p.add_argument("preset", help="preset name or bundle-spec JSON file")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("distances", help="pairwise distance matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--measure", choices=sorted(MEASURES), default="mcp")
    p.add_argument("--out", required=True, help="output .dm file")
    p.add_argument("--csv", help="also write a CSV mirror here")
    add_threads(p)
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("cluster", help="fit a clustering model")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dist", help="precomputed .dm file (else computed inline)")
    p.add_argument("--measure", choices=sorted(MEASURES), default="mcp")
    p.add_argument(
        "--method", choices=["kkm", "ksc", "gksc", "gksc-manifold"], required=True,
    )
    p.add_argument("--m", type=int, required=True, help="dictionary size")
    p.add_argument("--smax", type=int, default=None,
                   help=f"atoms per streamline (ksc, default {SolverConfig.s_max})")
    p.add_argument("--lambda1", type=float, default=None,
                   help="L1 weight (gksc and gksc-manifold, "
                        f"default {SolverConfig.lambda1})")
    p.add_argument("--lambda2", type=float, default=None,
                   help="group prior weight; larger retires more dictionary rows "
                        "(default: scale-aware, see README)")
    p.add_argument("--lambdaL", type=float, default=None,
                   help=f"graph smoothing weight (default {DEFAULT_LAMBDA_L})")
    p.add_argument("--mu", type=float, default=None,
                   help="ADMM penalty (gksc and gksc-manifold, "
                        f"default {SolverConfig.mu})")
    p.add_argument("--nystrom", type=int, default=None, metavar="P",
                   help="landmark count for the low-rank kernel")
    p.add_argument("--init", choices=["spectral", "random"], default="spectral")
    p.add_argument("--ep-threshold", type=float, default=None,
                   help="endpoint graph threshold in mm (gksc-manifold, "
                        f"default {DEFAULT_ENDPOINT_THRESHOLD_MM})")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--save-kernel", action="store_true",
                   help="also persist the kernel as kernel.km")
    p.add_argument("--out", required=True, help="output directory")
    add_threads(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("metrics", help="score a predicted labeling")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth")
    p.add_argument("--dist", help=".dm file enabling silhouette")
    p.add_argument("--out", help=".json or .csv (default: print JSON)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("atlas-build", help="fit an atlas from subject tractograms")
    p.add_argument("--in", dest="infile", nargs="+", required=True)
    p.add_argument("--sample", type=int, default=None,
                   help="streamlines sampled per subject (default: all)")
    p.add_argument("--measure", choices=sorted(MEASURES), default="mcp")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--smax", type=int, default=SolverConfig.s_max,
                   help=f"atoms per streamline (default {SolverConfig.s_max})")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output atlas directory")
    add_threads(p)
    p.set_defaults(func=cmd_atlas_build)

    p = sub.add_parser("segment", help="label a tractogram against an atlas")
    p.add_argument("--atlas", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--smax", type=int, default=None,
                   help="override the atlas sparsity level")
    p.add_argument("--measure", help="safety check against the atlas measure")
    p.add_argument("--out", required=True, help="output directory")
    add_threads(p)
    p.set_defaults(func=cmd_segment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; keep its code (2 on usage)
        return int(exc.code or 0)
    try:
        if hasattr(args, "threads") and args.threads is None:
            with _flag_values():
                args.threads = _resolve_threads(None)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
