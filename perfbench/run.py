#!/usr/bin/env python3
"""tractsparse benchmark: CLI clustering, solver sweep and atlas segmentation.

Run from the repository root:

    python3 perfbench/run.py                       # all workloads, summary
    python3 perfbench/run.py --workload cli-cluster --seed 0 --seconds 20 --trace 0

Each workload is a closed loop in its own process: one caller issues the
next operation when the previous one returns.  The process runs with one
BLAS thread (``OPENBLAS_NUM_THREADS=1``), and its times are scaled to a
reference machine speed (see speed.py).  With ``--trace 0`` the last line
of standard output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, the tracing
overhead, and the same layers repeated with OpenBLAS's default of one thread
per CPU.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("cli-cluster", "solver-sweep", "atlas-segment")

SETUP_REPEATS = 3
MIN_OPS = 2  # two operations at least, so artifacts can be compared
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("streamlines_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ari", "1"),
]
# Per-layer metrics of the traced run repeated with BLAS at nproc threads.
NPROC_PREFIX = "blas_nproc."
TRACE_OVERHEAD = [
    ("trace.untraced_streamlines_per_s", "1/s"),
    ("trace.traced_streamlines_per_s", "1/s"),
    ("trace.overhead", "1"),
]


def per_layer_metrics():
    """Every metric a traced run reports, with its unit."""
    from spans import BLAS_METRICS, LAYER_METRICS, SETUP_METRICS

    return (LAYER_METRICS + SETUP_METRICS + TRACE_OVERHEAD
            + [(NPROC_PREFIX + n, u) for n, u in BLAS_METRICS]
            + [(NPROC_PREFIX + "streamlines_per_s", "1/s")])


def measure(wl, seconds, min_ops, first, tracer=None, probe=None):
    """Closed loop: run operations until ``seconds`` pass and ``min_ops`` ran.

    With a ``probe``, each operation is followed by machine-speed probe units
    for ``speed.SHARE`` of its duration (see speed.py).
    """
    import speed
    from workloads import OpOutcome

    records = []
    deadline = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() < deadline:
        i = first + len(records)
        error = raw = None
        with tracer.operation(f"op{i}") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                raw = wl.run_op(i)
            except Exception:
                error = traceback.format_exc(limit=-3)
            elapsed = time.perf_counter() - t0
        if error is None:
            try:
                outcome = wl.check(i, raw)
            except Exception:
                outcome = OpOutcome([f"output check raised: {traceback.format_exc(limit=-3)}"])
        else:
            outcome = OpOutcome([f"operation raised: {error}"])
        wl.cleanup(i)
        if probe is not None:
            probe.run(speed.SHARE * elapsed)
        records.append({
            "op": i,
            "seconds": elapsed,
            "failures": outcome.failures,
            "fits": {k: {"ari": v.ari, "labels_sha256": v.digest}
                     for k, v in outcome.fits.items()},
        })
        status = "ok" if not outcome.failures else "FAILED: " + "; ".join(outcome.failures)
        fits = " ".join(f"{k} ari={v.ari:.4f} labels={v.digest[:12]}"
                        for k, v in outcome.fits.items())
        print(f"op {i}: {elapsed:.3f} s {status} {fits}", flush=True)
    return records


def throughput(wl, records):
    """Streamlines per second of timed operation, over the operations that passed."""
    ok = [r["seconds"] for r in records if not r["failures"]] or [r["seconds"] for r in records]
    return wl.streamlines_per_op * len(ok) / sum(ok)


def quality(records):
    """The lowest ARI among an operation's fits, median over operations."""
    per_op = [min(f["ari"] for f in r["fits"].values()) for r in records if r["fits"]]
    return statistics.median(per_op) if per_op else 0.0


def run_untraced(wl, imports_s, seconds):
    """End-to-end metrics, times scaled to the probe's reference speed."""
    import speed

    probe = speed.Probe()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        probe.run(speed.SHARE * setups[-1])
    records = measure(wl, seconds, MIN_OPS, 0, probe=probe)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = probe.scale()
    wall = {
        "streamlines_per_s": throughput(wl, records),
        "setup_s": imports_s + statistics.median(setups),
    }
    metrics = {
        "streamlines_per_s": wall["streamlines_per_s"] / scale,
        "setup_s": wall["setup_s"] * scale,
        "peak_rss_mb": peak,
        "ari": quality(records),
    }
    detail = {"imports_s": imports_s, "setup_repeats_s": setups, "wall": wall,
              "probe": {"scale": scale, "units": len(probe.samples),
                        "mean_s": statistics.fmean(probe.samples),
                        "median_s": statistics.median(probe.samples),
                        "reference_s": speed.REFERENCE_S}}
    return records, metrics, detail, END_TO_END


def run_traced(wl, args):
    from spans import Tracer, layer_metrics, median_metrics, setup_metrics

    tracer = Tracer()
    tracer.install()
    with tracer.operation("setup"):
        wl.setup()
    if args.baseline_child:
        records = measure(wl, args.seconds, 1, 0, tracer)
        per_op = [layer_metrics(tracer.spans_of(f"op{r['op']}"), wl.truth_by_n())
                  for r in records]
        metrics = dict(median_metrics(per_op), streamlines_per_s=throughput(wl, records))
        return records, metrics, {}, None

    phase_s = args.seconds / 3.0
    tracer.uninstall()
    untraced = measure(wl, phase_s, 1, 0)
    tracer.install()
    traced = measure(wl, phase_s, 1, len(untraced), tracer)
    tracer.uninstall()

    per_op = [layer_metrics(tracer.spans_of(f"op{r['op']}"), wl.truth_by_n()) for r in traced]
    metrics = median_metrics(per_op)
    metrics.update(setup_metrics(tracer.spans_of("setup")))
    plain, with_spans = throughput(wl, untraced), throughput(wl, traced)
    metrics["trace.untraced_streamlines_per_s"] = plain
    metrics["trace.traced_streamlines_per_s"] = with_spans
    metrics["trace.overhead"] = 1.0 - with_spans / plain

    baseline, failures = nproc_threads_baseline(args, phase_s)
    for name, _ in per_layer_metrics():
        if name.startswith(NPROC_PREFIX):
            metrics[name] = baseline.get(name[len(NPROC_PREFIX):], 0.0)
    records = untraced + traced
    if failures:
        records.append({"op": "blas_nproc", "seconds": 0.0, "failures": failures, "fits": {}})
    return records, metrics, {}, per_layer_metrics()


def nproc_threads_baseline(args, seconds):
    """The traced run again in a child process with BLAS at its default threads."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "1",
            "--size", args.size, "--baseline-child"]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {}, [f"default-thread baseline took over {CHILD_TIMEOUT_S} s"]
    for line in proc.stdout.splitlines():
        if line.startswith("op "):
            print(f"default BLAS threads: {line}", flush=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {}, [f"default-thread baseline exited {proc.returncode}: {proc.stderr[-2000:]}"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, [] if result["correct"] else ["default-thread baseline failed its checks"]


def run_workload(args, imports_s):
    import workloads
    from machine import machine_record

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        if args.trace:
            records, metrics, detail, units = run_traced(wl, args)
        else:
            records, metrics, detail, units = run_untraced(wl, imports_s, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    failed = sum(1 for r in records if r["failures"])
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "machine": machine_record(ROOT), "ops": records, **detail}
    print("record " + json.dumps(record, sort_keys=True), flush=True)
    if units is None:  # default-thread baseline child: hand every value to the parent
        units = [(name, "") for name in metrics]
    for name, unit in units:
        print(f"{args.workload:14s} {name:42s} {metrics[name]:14.6g} {unit}")
    for name, value in detail.get("wall", {}).items():
        print(f"{args.workload:14s} {name + ' (unscaled)':42s} {value:14.6g}")
    if "probe" in detail:
        print(f"{args.workload:14s} {'probe scale':42s} {detail['probe']['scale']:14.6g}")
    print(f"{args.workload:14s} {'error_rate':42s} {failed / len(records):14.6g} 1"
          f"  ({failed} of {len(records)} operations failed)")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def run_all(args):
    """Every workload, each in a fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per run (trace runs split it in three)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test input sizes without ARI floors")
    parser.add_argument("--baseline-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, frame):
    # unwind, so scratch files are removed and child processes killed and reaped
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "tractsparse" / "__init__.py").is_file():
        print(f"error: no tractsparse sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        if not args.baseline_child:
            # On a shared machine with few CPUs, BLAS threads time the
            # neighbours: with the second of two CPUs busy elsewhere, solver
            # throughput halves.  Set before NumPy loads OpenBLAS.
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        sys.path[:0] = [str(SRC), str(HERE)]
        import workloads  # noqa: F401  (imports numpy, scipy and tractsparse)

        result = run_workload(args, time.perf_counter() - _PROCESS_START)
    if result is None:
        return 1
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
