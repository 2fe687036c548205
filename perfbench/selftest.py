"""Smoke test of the benchmark itself.

Usage: python3 perfbench/selftest.py

Runs one reduced invocation per workload (workloads.SMOKE), untraced and
traced, and checks that every metric BENCHMARK.json names is emitted and
that the outputs pass their checks.  Then runs one invocation against a
deliberately wrong expected value and checks that it is counted as failed.
Takes about half a minute; exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run
import workloads


def expect(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json names the workloads of workloads.py")
    for name in workloads.WORKLOADS:
        expect(workloads.invocations(name, 0) == workloads.WORKLOADS[name], f"{name}: seed 0 keeps the written order")
        expect(sorted(workloads.invocations(name, 7)) == sorted(workloads.WORKLOADS[name]), f"{name}: other seeds only reorder")
        expect(all(workloads.key(a) in expected for a in workloads.WORKLOADS[name]), f"{name}: every invocation has expected values")

    for name, invs in workloads.SMOKE.items():
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, _, spans = run.measure(invs, expected, 0.1, trace, spec)
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: outputs pass their checks")
            expect(list(result["metrics"]) == [m["name"] for m in spec[group]], f"{name} trace={trace}: every {group} metric is emitted")
            expect(not trace or len(spans) > 0, f"{name}: the traced run records spans")
        print(f"ok  {name}")

    argv = workloads.SMOKE["cycle-walk"][0]
    wrong = copy.deepcopy(expected)
    wrong[workloads.key(argv)]["Tinf"] += 1
    result, _, _ = run.measure([argv], wrong, 0.1, True, spec)
    expect(not result["correct"] and result["failed"] == result["attempted"] > 0, "a wrong expected value fails every invocation")
    expect(result["metrics"]["failed_frac"]["value"] == 1.0, "a wrong expected value shows in failed_frac")
    print("ok  wrong expected value counted in failed_frac")
    return 0


if __name__ == "__main__":
    sys.exit(main())
