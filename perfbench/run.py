"""Benchmark of the cayley-lab command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs to be installed.
Every invocation is a fresh interpreter that calls `cayleylab.cli.run`
with `src` on the path, as a user's command would be.

--trace 0 measures set-up (the median of SETUP_REPEATS fresh interpreters
that import cayleylab and construct the workload's groups), then repeats the
workload's invocation list while another pass fits in S seconds, and
reports the medians over passes of its wall-clock time, CPU time and peak
RSS.  --trace 1 alternates untraced passes with traced ones (perfbench/
traced.py) and reports the per-layer split.  Every report is checked
against expected.json.  The last line of stdout is the result as JSON; the
line before it records the interpreter, numpy, scipy and BLAS set-up.
Spans and the full result go to perfbench/out/.  BLAS thread settings are
recorded, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TRACED = os.path.join(HERE, "traced.py")
EXPECTED = os.path.join(HERE, "expected.json")

# the one-line launcher: cayley-lab's entry point without an install
LAUNCH = "import sys; sys.path.insert(0, sys.argv.pop(1)); from cayleylab.cli import run; sys.exit(run(sys.argv[1:]))"
SETUP = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); import cayleylab; from cayleylab import zoo; "
    "[zoo.construct_family(s) for s in sys.argv[1:]]"
)
ENV_PROBE = """
import json, os, platform, sys, ctypes
import numpy, scipy, scipy.linalg
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = {}
try:
    libs = sorted({l.split()[-1] for l in open("/proc/self/maps") if "blas" in l.rsplit("/", 1)[-1]})
except OSError:
    libs = []
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            getattr(lib, sym).restype = ctypes.c_int
            threads[os.path.basename(path)] = getattr(lib, sym)()
            break
names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
    "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    "blas_threads": threads, "thread_env": {n: os.environ.get(n) for n in names},
}, sort_keys=True))
"""

SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end within 180 s


@dataclass
class Invocation:
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    bad_fields: list[str]
    trace: dict

    @property
    def failed(self) -> bool:
        return bool(self.bad_fields)


class Runner:
    """Spawns children one at a time and times them with os.wait4."""

    def __init__(self, expected: dict, deadline: float) -> None:
        self.expected = expected
        self.deadline = deadline
        self.out_path = os.path.join(OUT, "child.out")

    def spawn(self, cmd: list[str]) -> tuple[float, float, float, int, str]:
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.out_path, "w+b") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode("utf-8", "replace")
        # ru_maxrss is in KiB on Linux
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, text

    def invoke(self, argv: list[str], traced: bool) -> Invocation:
        if traced:
            wall, cpu, rss, code, text = self.spawn([sys.executable, TRACED, SRC, *argv])
            try:
                trace = json.loads(text.strip().splitlines()[-1])
                code, text = trace["exit"], trace["stdout"]
            except (ValueError, IndexError, KeyError):
                trace = {}
                code = code or -1
        else:
            wall, cpu, rss, code, text = self.spawn([sys.executable, "-c", LAUNCH, SRC, *argv])
            trace = {}
        want = self.expected.get(workloads.key(argv))
        got = checks.extract(argv, code, text)
        bad = ["no expected value"] if want is None else checks.mismatches(want, got)
        if bad:
            print(f"check failed: {workloads.key(argv)}: {', '.join(bad)}", file=sys.stderr)
        return Invocation(argv, wall, cpu, rss, code, bad, trace)

    def run_pass(self, invs: list[list[str]], traced: bool = False) -> list[Invocation]:
        return [self.invoke(argv, traced) for argv in invs]

    def setup_time(self, specs: list[str]) -> float:
        wall, _, _, code, _ = self.spawn([sys.executable, "-c", SETUP, SRC, *specs])
        if code != 0:
            raise RuntimeError(f"set-up exited with {code}")
        return wall


def _passes(runner: Runner, seconds: float, one_pass) -> list:
    """Repeat one_pass while another pass is expected to end within `seconds`."""
    start = time.perf_counter()
    results = [one_pass()]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds or time.monotonic() > runner.deadline:
            return results
        results.append(one_pass())


def _medians(passes: list[list[Invocation]]) -> dict:
    """Each invocation's median over passes, totalled over the list (the maximum for RSS)."""
    runs = list(zip(*passes))
    return {
        "wall_s": sum(statistics.median(i.wall_s for i in r) for r in runs),
        "cpu_s": sum(statistics.median(i.cpu_s for i in r) for r in runs),
        "peak_rss_mb": max(statistics.median(i.rss_mb for i in r) for r in runs),
    }


def _samples(passes: list[list[Invocation]]) -> list:
    return [[{"wall_s": i.wall_s, "cpu_s": i.cpu_s, "rss_mb": i.rss_mb, "exit": i.exit} for i in p] for p in passes]


def _span_metrics(inv: Invocation) -> tuple[dict, float]:
    """Per-layer self times of one traced invocation, and the time its root spans cover."""
    spans = inv.trace["spans"]
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time[s["id"]]
        self_s[s["name"] + "_s"] = self_s.get(s["name"] + "_s", 0.0) + own
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return self_s, roots


def layer_metrics(traced: list[Invocation], untraced_wall: float, names: list[str]) -> tuple[dict, bool]:
    """Per-layer metrics of one traced pass; also whether the self times add up."""
    values: dict[str, float] = {n: 0.0 for n in names}
    covered = self_total = 0.0
    for inv in traced:
        self_s, roots = _span_metrics(inv)
        covered += roots
        self_total += sum(self_s.values())
        for name, v in [*self_s.items(), *inv.trace["counts"].items()]:
            values[name] = values.get(name, 0) + v
    wall = sum(i.wall_s for i in traced)
    values["trace.wall_s"] = wall
    values["trace.remainder_s"] = wall - self_total
    values["trace.overhead_ratio"] = wall / untraced_wall
    values["growth.bfs_elements_per_s"] = values["growth.bfs_elements"] / values["growth.bfs_s"] if values["growth.bfs_s"] else 0.0
    values["mixing.walk_steps_per_s"] = values["mixing.walk_steps"] / values["mixing.walk_s"] if values["mixing.walk_s"] else 0.0
    # self times partition the time the root spans cover, and the remainder
    # (interpreter start-up, wrapping, teardown) cannot be negative
    adds_up = abs(self_total - covered) <= 1e-6 * max(1.0, covered) and values["trace.remainder_s"] >= 0
    return values, adds_up


def _counts(traced: list[Invocation]) -> list:
    return [sorted(i.trace["counts"].items()) for i in traced]


def measure(invs: list[list[str]], expected: dict, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict, list[str]]:
    """One benchmark run over an invocation list.

    Returns the result, the raw samples behind it, and the spans as JSON lines.
    """
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(expected, time.monotonic() + RUN_LIMIT_S)
    lines: list[str] = []
    if not trace:
        # the first set-up fills the page cache and writes bytecode; it is not timed
        specs = workloads.group_specs(invs)
        setups = [runner.setup_time(specs) for _ in range(SETUP_REPEATS + 1)][1:]
        passes = _passes(runner, seconds, lambda: runner.run_pass(invs))
        done = [i for p in passes for i in p]
        values = {"setup_s": statistics.median(setups), **_medians(passes)}
        consistent = True
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        samples = {"setup_s": setups, "passes": _samples(passes)}
    else:
        pairs = _passes(runner, seconds, lambda: (runner.run_pass(invs), runner.run_pass(invs, traced=True)))
        done = [i for pair in pairs for p in pair for i in p]
        untraced_wall = _medians([u for u, _ in pairs])["wall_s"]
        traced_passes = [t for _, t in pairs]
        samples = {"passes": _samples([u for u, _ in pairs]), "traced_passes": _samples(traced_passes)}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if any(not i.trace for p in traced_passes for i in p):
            values, consistent = {}, False
        else:
            # report the pass with the median traced wall time, so that its
            # self times and remainder add up to its own wall time
            chosen = sorted(traced_passes, key=lambda p: sum(i.wall_s for i in p))[(len(traced_passes) - 1) // 2]
            values, consistent = layer_metrics(chosen, untraced_wall, list(units))
            # exact counts must repeat across passes
            consistent = consistent and all(_counts(p) == _counts(chosen) for p in traced_passes)
            for n, p in enumerate(traced_passes):
                for idx, inv in enumerate(p):
                    for s in inv.trace["spans"]:
                        lines.append(json.dumps({"pass": n, "invocation": idx, "argv": inv.argv, **s}, sort_keys=True))
    failed = sum(i.failed for i in done)
    values["failed_frac"] = failed / len(done)
    if not consistent:
        print("trace check failed: self times do not add up, or counts differ between passes", file=sys.stderr)
    result = {
        "correct": failed == 0 and consistent,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    return result, samples, lines


def environment(runner: Runner) -> dict:
    _, _, _, code, text = runner.spawn([sys.executable, "-c", ENV_PROBE])
    return json.loads(text) if code == 0 else {"probe_exit": code}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cayleylab", "cli.py")):
        print(f"error: no cayley-lab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    invs = workloads.invocations(args.workload, args.seed)
    result, samples, spans = measure(invs, expected, args.seconds, bool(args.trace), spec)
    env = environment(Runner(expected, time.monotonic() + 30))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "invocations": invs, "environment": env, "samples": samples, **result}, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(os.path.join(OUT, f"spans-{tag}.jsonl"), "w") as fh:
            fh.writelines(line + "\n" for line in spans)
    print(json.dumps({"environment": env, "invocations": [workloads.key(a) for a in invs]}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
