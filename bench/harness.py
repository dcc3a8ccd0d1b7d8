"""Measurement: timed phases, fresh-process timings, metrics and reports.

One client runs a closed loop in this process: it sends the next
operation only after the previous one has returned and been checked.

Every end-to-end time is reported at a fixed reference speed of the
machine.  The benchmark's own calibration loop (fixed exact-rational
arithmetic that calls no program code) is timed every quarter second of
the timed phase; a run's slowdown is the mean of those samples over
``CAL_REF_S``, and each measured time is divided by it (a rate is
multiplied).  The run and the processes it starts are held to one CPU
(``pin_cpu``), so the calibration times the processor that the
operations and the fresh processes run on.  On a shared host the
processor's speed drifts by tens of percent over minutes; the
calibration sees the same drift, so the reported figures follow the
program's cost and not the host's load.
The report keeps the unscaled figures and the calibration samples.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import chnoids
import tracer as tracing
import workloads
from workloads import Workload, check, perform

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("cold_cli_s", "s"),
    ("peak_rss_mb", "MB"),
)
# fail_ratio is printed with the end-to-end metrics but is not a bounded
# metric: it is 0 on every correct run, and the result line carries it as
# failed / attempted.
FAIL_RATIO = ("fail_ratio", "ratio")

MIN_TIMED_OPS = 100  # so that >= 10 samples lie beyond op_p90_ms
# fresh processes timed per run for setup_s and for cold_cli_s
FRESH_RUNS = 3
COLD_RUNS = 7
# calibration: its time at reference speed (about its mean on a quiet
# 2.1 GHz Xeon with Python 3.11) and the operation time between samples;
# CAL_REF_S only sets the scale and must stay fixed
CAL_REF_S = 0.010
CAL_EVERY_S = 0.25
SUBPROCESS_TIMEOUT_S = 120


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    latencies: list[float] = field(default_factory=list)  # seconds, correct ops only
    round_rates: list[float] = field(default_factory=list)  # correct ops / s, per round
    outputs: dict[int, str] = field(default_factory=dict)  # first output of each op
    failures: list[str] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)  # seconds per sample

    @property
    def ops_s(self) -> float:
        """Median over rounds of correct operations per second.

        Every round holds the same mix, and the median keeps a burst of
        load from other processes from moving the figure."""
        return statistics.median(self.round_rates)

    @property
    def slowdown(self) -> float:
        """The machine's mean calibration time over its reference time.

        The mean, not the median: a sample that another process preempts
        is slowed as much as an operation of the same length would be."""
        return statistics.fmean(self.calibration) / CAL_REF_S

    def add(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: 5 - len(self.failures)]


def calibrate() -> float:
    """Wall time of a fixed product of two polynomials with rational
    coefficients, in pure Python: the kind of work the program does,
    none of its code."""
    t0 = time.perf_counter()
    p = [Fraction(k + 1, 2 * k + 3) for k in range(40)]
    q = [Fraction(2 * k + 1, k + 5) for k in range(40)]
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return time.perf_counter() - t0


def run_phase(
    wl: Workload,
    seconds: float,
    min_ops: int = 0,
    min_rounds: int = 1,
    tracer: tracing.Tracer | None = None,
    between: list | None = None,
    calibrated: bool = False,
) -> Phase:
    """Run whole rounds until ``seconds`` of rounds have passed, at least
    ``min_ops`` operations and ``min_rounds`` rounds are done.

    With ``calibrated``, the calibration loop runs before the first
    operation and then before the first operation after each
    ``CAL_EVERY_S``; its time is not part of the phase.

    The callables in ``between`` run between rounds, spread evenly over
    the phase (any left over run at its end); their time is not part of
    the phase.  Fresh-process timings taken this way see the same load
    from other processes on the machine as the operations do."""
    phase = Phase()
    perf = time.perf_counter
    width = len(wl.rounds[0])
    pending = list(between or ())
    slot = seconds / len(pending) if pending else 0.0
    gc.collect()
    r, last_cal = 0, -CAL_EVERY_S
    while True:
        base = (r % len(wl.rounds)) * width
        round_start, correct, cal_time = perf(), 0, 0.0
        for j, op in enumerate(wl.rounds[r % len(wl.rounds)]):
            if calibrated and perf() - last_cal >= CAL_EVERY_S:
                phase.calibration.append(calibrate())
                cal_time += phase.calibration[-1]
                last_cal = perf()
            if tracer:
                tracer.begin_op()
            phase.attempted += 1
            t0 = perf()
            try:
                result = perform(op)
                dt = perf() - t0
                ok, text = check(op, result)
            except Exception as exc:  # any crash is a failed operation, not a crashed run
                ok, text = False, f"{type(exc).__name__}: {exc}"
            if tracer and op.argv is not None:
                tracer.extra["cli.bytes_out"] += len(text)
            phase.outputs.setdefault(base + j, text)
            if ok:
                correct += 1
                phase.latencies.append(dt)
            else:
                phase.failed += 1
                if len(phase.failures) < 5:
                    phase.failures.append(f"{op.kind} {op.argv or ''}: {text[:200]}")
        r += 1
        took = perf() - round_start - cal_time
        phase.round_rates.append(correct / took)
        phase.elapsed += took
        done = phase.elapsed >= seconds and phase.attempted >= min_ops and r >= min_rounds
        while pending and (done or phase.elapsed >= slot * (len(between) - len(pending))):
            pending.pop(0)()
        if done:
            return phase


def warm_up(wl: Workload) -> Phase:
    """One untimed operation of each kind, so lazy imports are done."""
    first = {}
    for op in (op for ops in wl.rounds for op in ops):
        first.setdefault(op.kind, op)
    return run_phase(Workload(wl.name, [list(first.values())], wl.cold_argv), 0)


def cert_digest(phase: Phase) -> str:
    """Digest of the first output of every distinct operation, in pool order."""
    h = hashlib.sha256()
    for key in sorted(phase.outputs):
        h.update(hashlib.sha256(phase.outputs[key].encode()).digest())
    return h.hexdigest()


class FreshProcess:
    """Times ``cmd`` in a fresh process each time it is called."""

    def __init__(self, cmd: list[str]) -> None:
        self.cmd = cmd
        self.samples: list[float] = []
        self.failed = 0

    def __call__(self) -> None:
        env = dict(os.environ)
        paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL) as proc:
            # a blocking wait returns as the child exits; a wait with a
            # timeout polls, and would round each sample up to 50 ms
            timer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                self.failed += proc.wait() != 0  # killed on timeout: nonzero
            except BaseException:
                proc.kill()
                raise
            finally:
                timer.cancel()
        self.samples.append(time.perf_counter() - t0)


def pin_cpu() -> None:
    """Hold this process, and the processes it starts, to one CPU.

    On a shared host each CPU's speed drifts on its own; on one CPU the
    calibration measures the processor that does the work.  A closed loop
    with one client runs one thing at a time, so nothing waits for it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chnoids").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


class Workdir:
    """Per-process scratch directory for generated inputs, inside the checkout."""

    def __init__(self, name: str) -> None:
        self.path = ROOT / ".bench_work" / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def setup_only(name: str, seed: int, tiny: bool) -> None:
    with Workdir(name) as wd:
        workloads.build(name, seed, wd, tiny)


def _probe_cmd(name: str, seed: int, tiny: bool) -> list[str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--setup-only"]
    return cmd + (["--size", "tiny"] if tiny else [])


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the report (metrics, counts, facts)."""
    facts = machine_facts(seed)
    with Workdir(name) as wd:
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, wd, tiny)
        in_process_setup = time.perf_counter() - t0
        total = warm_up(wl)
        report = {"workload": name, "trace": int(trace), "seconds": seconds,
                  "size": "tiny" if tiny else "full"}
        if trace:
            report.update(_traced(wl, seconds, total))
        else:
            report.update(_untraced(wl, seed, seconds, tiny, total))
        report["in_process_setup_s"] = in_process_setup
    report["attempted"] = total.attempted
    report["failed"] = total.failed
    report["failures"] = total.failures
    report["fail_ratio"] = total.failed / total.attempted
    report["machine"] = facts
    return report


def _untraced(wl: Workload, seed: int, seconds: float, tiny: bool, total: Phase) -> dict:
    setup = FreshProcess(_probe_cmd(wl.name, seed, tiny))
    cold = FreshProcess([sys.executable, "-m", "chnoids.cli", *wl.cold_argv])
    counts = {setup: 1, cold: 1} if tiny else {setup: FRESH_RUNS, cold: COLD_RUNS}
    # each kind spread evenly over the phase
    slots = sorted(((i + 0.5) / k, n, f) for n, (f, k) in enumerate(counts.items())
                   for i in range(k))
    fresh = [f for _, _, f in slots]
    phase = run_phase(
        wl, seconds, min_ops=0 if tiny else MIN_TIMED_OPS, min_rounds=len(wl.rounds),
        between=fresh, calibrated=True,
    )
    # children are not counted in this process's peak
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    total.add(phase)
    for fresh in (setup, cold):
        total.attempted += len(fresh.samples)
        total.failed += fresh.failed
    lat = phase.latencies
    measured = {
        "throughput_ops_s": phase.ops_s,
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p90_ms": percentile(lat, 90) * 1e3,
        "setup_s": statistics.median(setup.samples),
        "cold_cli_s": statistics.median(cold.samples),
    }
    slow = phase.slowdown
    metrics = {name: v * slow if name == "throughput_ops_s" else v / slow
               for name, v in measured.items()}
    metrics["peak_rss_mb"] = rss_mb
    return {
        "metrics": metrics,
        "unscaled_metrics": measured,
        "slowdown": slow,
        "calibration_samples_s": phase.calibration,
        "timed_ops": phase.attempted,
        "timed_correct": len(lat),
        "timed_elapsed_s": phase.elapsed,
        "setup_samples_s": setup.samples,
        "cold_samples_s": cold.samples,
        "cold_argv": wl.cold_argv,
        "cert_digest": cert_digest(phase),
    }


def _traced(wl: Workload, seconds: float, total: Phase) -> dict:
    untraced = run_phase(wl, seconds / 2)
    total.add(untraced)
    tracer = tracing.Tracer()
    tracer.install(chnoids)
    try:
        traced = run_phase(wl, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    total.add(traced)
    metrics = tracer.metrics()
    metrics["trace.untraced_ops_s"] = untraced.ops_s
    metrics["trace.traced_ops_s"] = traced.ops_s
    metrics["trace.overhead_ratio"] = untraced.ops_s / traced.ops_s if traced.ops_s else 0.0
    tracer.save(ROOT / ".bench_out" / f"spans-{wl.name}.npz")
    return {
        "metrics": {name: metrics[name] for name, _ in tracing.PER_LAYER},
        "layer_entries": tracer.layer_entries(),
        "wiring_errors": tracer.wiring_errors(wl.name),
        "unwired": tracer.unwired(),
        "untraced_ops": untraced.attempted,
        "traced_ops": traced.attempted,
    }


def units(trace: bool) -> dict[str, str]:
    return dict(tracing.PER_LAYER if trace else END_TO_END)


def print_report(report: dict) -> None:
    """Human-readable lines, the full report as JSON, then the result line."""
    trace = bool(report["trace"])
    head = f"{report['workload']} seed {report['machine']['seed']}"
    if trace:
        print(f"{head}: traced run, {report['traced_ops']} traced ops, "
              f"{report['untraced_ops']} untraced")
    else:
        print(
            f"{head}: {report['timed_ops']} timed ops in {report['timed_elapsed_s']:.1f} s "
            f"(p90 over {report['timed_correct']} samples)"
        )
    for name, unit in units(trace).items():
        print(f"  {name:34s} {report['metrics'][name]:14.6g} {unit}")
    print(
        f"  {FAIL_RATIO[0]:34s} {report['fail_ratio']:14.6g} {FAIL_RATIO[1]}"
        f" ({report['failed']} of {report['attempted']})"
    )
    if not trace:
        print(f"  machine slowdown {report['slowdown']:.4f} (mean of "
              f"{len(report['calibration_samples_s'])} calibration samples over "
              f"{CAL_REF_S * 1e3:g} ms); times above are divided by it")
    for line in report["failures"]:
        print(f"  failed: {line}")
    print(json.dumps({"report": report}))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["metrics"][name], "unit": unit}
            for name, unit in units(trace).items()
        },
    }
    print(json.dumps(result))
