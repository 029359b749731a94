"""Tests of the benchmark's own code, at smoke-test input sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else run.per_layer_metrics()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "error_rate" in proc.stdout


def _traced_operation(wl_class, tmp_path):
    tracer = spans.Tracer()
    wl = wl_class(0, "tiny", tmp_path)
    tracer.install()
    try:
        with tracer.operation("setup"):
            wl.setup()
        with tracer.operation("op0"):
            raw = wl.run_op(0)
    finally:
        tracer.uninstall()
    assert not wl.check(0, raw).failures
    return tracer, wl


@pytest.mark.parametrize("wl_class", list(workloads.WORKLOADS.values()))
def test_spans_nest_and_self_time_is_never_negative(wl_class, tmp_path):
    tracer, wl = _traced_operation(wl_class, tmp_path)
    by_id = {s.id: s for s in tracer.spans}
    assert tracer.spans_of("op0")
    for s in tracer.spans:
        assert s.end >= s.start
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.op == s.op
            assert parent.start <= s.start and s.end <= parent.end
    assert min(spans.self_times(tracer.spans).values()) >= -1e-9
    metrics = spans.layer_metrics(tracer.spans_of("op0"), wl.truth_by_n())
    assert [k for k in metrics] == [name for name, _ in spans.LAYER_METRICS]


def test_tracer_patches_imported_names_and_restores_them():
    import tractsparse.cli
    import tractsparse.distances
    import tractsparse.linalg
    import tractsparse.solvers

    original = tractsparse.distances.pairwise_distances
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tractsparse.cli.pairwise_distances is tractsparse.distances.pairwise_distances
        assert tractsparse.cli.pairwise_distances is not original
        assert tractsparse.solvers.nnls is tractsparse.linalg.nnls
    finally:
        tracer.uninstall()
    assert tractsparse.cli.pairwise_distances is original
    assert tractsparse.distances.pairwise_distances is original


def test_calls_outside_an_operation_leave_no_spans(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        workloads.SolverSweep(0, "tiny", tmp_path).setup()
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_truncated_input_counts_as_a_failed_operation(tmp_path):
    wl = workloads.CliCluster(0, "tiny", tmp_path)
    wl.setup()
    data = wl.slb.read_bytes()
    wl.slb.write_bytes(data[: len(data) // 2])
    records = run.measure(wl, 0.0, 2, 0)
    assert len(records) == 2
    assert all("cli distances exited 3" in r["failures"] for r in records)
    assert run.throughput(wl, records) > 0


def test_throughput_is_passing_streamlines_over_their_total_time():
    class Stub:
        streamlines_per_op = 100

    records = [{"seconds": 1.0, "failures": []}, {"seconds": 3.0, "failures": []},
               {"seconds": 50.0, "failures": ["cli segment exited 3"]}]
    assert run.throughput(Stub, records) == pytest.approx(200 / 4.0)


def test_failed_output_check_is_reported(tmp_path):
    wl = workloads.AtlasSegment(0, "tiny", tmp_path)
    wl.setup()
    wl.floors = {"segment": 1.5}  # no labeling reaches it
    records = run.measure(wl, 0.0, 1, 0)
    assert any("below floor" in f for f in records[0]["failures"])


def test_probe_scale_is_reference_over_mean_unit_time(monkeypatch):
    import speed

    unit_times = iter([0.002, 0.009, 0.004])
    monkeypatch.setattr(speed, "unit", lambda: next(unit_times))
    probe = speed.Probe()
    for _ in range(3):
        probe.run(0.0)  # one unit per round
    assert probe.samples == [0.002, 0.009, 0.004]
    assert probe.scale() == pytest.approx(speed.REFERENCE_S / 0.005)


def test_operations_are_followed_by_probe_units(tmp_path):
    import speed

    wl = workloads.SolverSweep(0, "tiny", tmp_path)
    wl.setup()
    probe = speed.Probe()
    records = run.measure(wl, 0.0, 2, 0, probe=probe)
    assert len(records) == 2 and not any(r["failures"] for r in records)
    assert len(probe.samples) >= 2 and probe.scale() > 0


def test_runs_without_sources_fail_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "solver-sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
