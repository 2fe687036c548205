"""The traced benchmark child (perfbench/traced.py) against the package as it stands."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cayleylab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(cayleylab.__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traced = _load("traced")
workloads = _load("workloads")
SMOKE = [argv for invocations in workloads.SMOKE.values() for argv in invocations]


def run_traced(argv):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(SRC), *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_wrapped_layer_resolves():
    for module, function, _ in traced.WRAPPED:
        assert callable(getattr(importlib.import_module(f"cayleylab.{module}"), function, None)), (module, function)


@pytest.mark.parametrize("argv", SMOKE, ids=workloads.key)
def test_traced_smoke_invocation_exits_zero(argv):
    assert run_traced(argv)["exit"] == 0


def test_traced_mix_builds_and_solves_once():
    counts = run_traced(["mix", "-g", "ut:dim=3,p=5", "--format", "json"])["counts"]
    solves = sum(counts.get(f"spectral.eigen_{solver}_calls", 0) for solver in ("dense", "fourier"))
    assert (counts["spectral.context_calls"], counts["spectral.eigen_calls"], solves) == (1, 1, 1)


@pytest.mark.parametrize("group", ["cyclic:12", "ut:dim=3,p=31"])
def test_traced_spectrum_reads_the_one_cached_solve(group):
    counts = run_traced(["spectrum", "-g", group, "--format", "json"])["counts"]
    assert (counts["spectral.context_calls"], counts["spectral.eigen_calls"]) == (1, 1)


def test_traced_freenil_counts_mul_and_encode():
    # a backend whose methods the tracer cannot wrap would report 0 here; the
    # power laws' cover multiplies and encodes freenil:r=2,s=2 elements
    counts = run_traced(["nilprog", "powers", "-r", "2", "-s", "2", "-L", "1,1", "-n", "2", "-M", "2", "--format", "json"])["counts"]
    assert counts["groups.mul_calls"] > 0 and counts["groups.encode_calls"] > 0
