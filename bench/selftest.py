"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest bench/selftest.py -q

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import chnoids  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_descriptor_matches_catalogue():
    import run

    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    text = "\n".join(lines[:-2])
    for name, unit in [*expected.items(), harness.FAIL_RATIO]:
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}", text, re.M), name
    report = json.loads(lines[-2])["report"]
    facts = report["machine"]
    for key in ("cpu_count", "python", "numpy", "sympy", "git_commit", "src_sha256", "seed"):
        assert key in facts
    assert facts["seed"] == 3
    assert len(facts["cpu_affinity"]) == 1  # held to one CPU
    if not trace:
        assert re.fullmatch(r"[0-9a-f]{64}", report["cert_digest"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_expectation_is_counted_not_fatal(workload, tmp_path):
    wl = workloads.build(workload, 5, tmp_path, tiny=True)
    op = wl.rounds[0][-1]
    op.expect = "no such outcome"
    phase = harness.run_phase(wl, 0)
    assert phase.attempted == len(wl.rounds[0])
    assert phase.failed == 1
    assert len(phase.latencies) == phase.attempted - 1
    assert phase.failures and phase.failures[0].startswith(op.kind)


def test_times_are_scaled_by_the_calibrated_slowdown():
    report = harness.measure("isometry-classify", 3, 0.5, False, tiny=True)
    slow = report["slowdown"]
    assert report["calibration_samples_s"] and slow > 0
    assert slow == pytest.approx(
        sum(report["calibration_samples_s"]) / len(report["calibration_samples_s"])
        / harness.CAL_REF_S)
    for name, value in report["unscaled_metrics"].items():
        scaled = value * slow if name == "throughput_ops_s" else value / slow
        assert report["metrics"][name] == pytest.approx(scaled, rel=1e-12), name


def test_crashing_operation_is_a_counted_failure(tmp_path):
    wl = workloads.build("nnoid-certify", 5, tmp_path, tiny=True)
    Path(wl.rounds[0][0].argv[-1]).write_text("{not json")
    phase = harness.run_phase(wl, 0)
    assert phase.failed == 1 and phase.attempted == len(wl.rounds[0])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_sum_to_traced_op_time(workload, tmp_path):
    wl = workloads.build(workload, 7, tmp_path, tiny=True)
    tracer = tracing.Tracer()
    tracer.install(chnoids)
    try:
        phase = harness.run_phase(wl, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert phase.failed == 0
    m = tracer.metrics()
    assert m["trace.ops"] == phase.attempted
    layers = sum(m[f"{name}.self_ms"] for name in tracing.LAYERS)
    assert layers == pytest.approx(m["trace.op_ms"], rel=1e-9)
    assert m["trace.op_ms"] > 0
    assert tracer.wiring_errors(workload) == []
    assert tracer.unwired() == []


def test_rebound_names_are_wrapped_and_restored():
    from chnoids import ch2, cusp, exactnum, nnoid

    originals = (nnoid.resultant, ch2.poly_gcd, cusp.distance, exactnum.UniPoly.__mul__)
    tracer = tracing.Tracer()
    tracer.install(chnoids)
    try:
        assert nnoid.resultant is exactnum.resultant
        assert ch2.poly_gcd is exactnum.poly_gcd
        assert cusp.distance is ch2.distance
        for f in (nnoid.resultant, ch2.poly_gcd, cusp.distance):
            assert hasattr(f, "__wrapped__")
    finally:
        tracer.uninstall()
    assert (nnoid.resultant, ch2.poly_gcd, cusp.distance, exactnum.UniPoly.__mul__) == originals


def test_region_oracle_agrees_with_brute_force():
    weights = [{"triple": ["0", "1/3", "1/2"], "beta": "1/3", "gamma": "0"}] * 4
    got = workloads.expected_region(1, 4, weights, 12)
    from chnoids import stability

    pw = [stability.PunctureWeights.of(stability.WeightTriple.of(0, "1/3", "1/2"), "1/3", 0)] * 4
    assert [list(p) for p in stability.stability_region(stability.SurfaceData(1, 4), pw, 12)] == got
    assert got  # a non-empty region, so the comparison is not vacuous


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "nnoid-certify", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sigterm_cleans_up(tmp_path):
    cmd = [sys.executable, "bench/run.py", "--workload", "region-strip", "--seed", "3",
           "--seconds", "60", "--trace", "0", "--size", "tiny"]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    workdir = ROOT / ".bench_work" / f"region-strip-{proc.pid}"
    deadline = time.monotonic() + 60
    while not workdir.exists() and time.monotonic() < deadline:
        time.sleep(0.1)
    time.sleep(1.0)
    proc.terminate()
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 143
    assert out.strip() == ""
    assert not workdir.exists()
