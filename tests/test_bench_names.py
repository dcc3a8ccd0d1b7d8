"""The names that ``bench/tracer.py`` reads still exist in the package.

The tracer counts and times calls by ``"module:qualname"`` and reaches some
functions through the names other modules rebind with ``from .x import y``.
A deleted or renamed target would leave its metric reading zero, so it
fails here, in the repository's own test run.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from chnoids import ch2, cusp, exactnum, nnoid

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAMED_TARGETS = sorted(load_tracer().NAMED_TARGETS)


@pytest.mark.parametrize("target", NAMED_TARGETS)
def test_named_target_resolves(target):
    layer, qualname = target.split(":")
    module = importlib.import_module(f"chnoids.{layer}")
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert inspect.isfunction(obj)
    assert obj.__module__ == module.__name__


def test_rebound_names_are_the_originals():
    assert cusp.distance is ch2.distance
    assert nnoid.resultant is exactnum.resultant
    assert ch2.poly_gcd is exactnum.poly_gcd


@pytest.mark.parametrize("workload", ["nnoid-certify", "isometry-classify", "region-strip"])
def test_traced_benchmark_is_wired(workload):
    """Each traced workload finds every layer it requires entered (linalg
    among them on isometry-classify), at the benchmark's tiny size."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", "1", "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
