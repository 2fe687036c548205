"""Run one cayley-lab invocation in this interpreter with per-layer spans.

Usage: python3 perfbench/traced.py SRC_DIR ARG...

Imports `cayleylab` from SRC_DIR, wraps the public functions of each layer
from outside the package, calls `cayleylab.cli.run(ARGS)` with stdout
captured, and prints one JSON object: the exit code, the captured report,
the spans and the counts.  Nothing under SRC_DIR is modified.

A span is {id, name, parent, start, end}, in perf_counter seconds; spans
nest because the code runs on one thread.  mul and encode are counted on
every Group subclass but get no spans, since they run about a million
times per workload.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import sys
import time

# (module, function, span name); nested calls give nested spans
WRAPPED = (
    ("zoo", "construct_family", "groups.construct"),
    ("growth", "enumerate_ball", "growth.bfs"),
    ("spectral", "build_context", "spectral.context"),
    ("spectral", "lambda1", "spectral.eigen"),
    ("spectral", "cheeger", "spectral.cheeger"),
    ("spectral", "verify_spectral_inequalities", "spectral.verify"),
    ("mixing", "convolution_curve", "mixing.walk"),
    ("mixing", "mixing_times", "mixing.times"),
    ("mixing", "verify_basic_mixing", "mixing.verify"),
    ("nilprog", "enumerate_progression", "nilprog.progression"),
    ("nilprog", "verify_nesting", "nilprog.verify"),
    ("nilprog", "verify_properness", "nilprog.verify"),
    ("nilprog", "verify_power_laws", "nilprog.verify"),
)


class Tracer:
    """Spans and counts of one invocation, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _record_result(tracer: Tracer, span: str, result) -> None:
    """Work counts read off a layer's return value."""
    if span == "growth.bfs":
        tracer.add("growth.bfs_elements", result.size)
    elif span == "spectral.eigen":
        tracer.add(f"spectral.eigen_{result.solver}_calls")
    elif span == "mixing.walk":
        tracer.add("mixing.walk_steps", result.steps)
    elif span == "nilprog.progression":
        tracer.add("nilprog.progression_elements", result.cardinality)


def _rebind(orig, replacement) -> None:
    """Replace every module-level copy of orig in the package.

    Modules import functions by name (spectral, zoo and nilprog hold their
    own enumerate_ball; mixing holds build_context and lambda1), so patching
    only the defining module would miss those calls.
    """
    for name, mod in list(sys.modules.items()):
        if name == "cayleylab" or name.startswith("cayleylab."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer, modules: dict) -> dict:
    """Wrap the layer functions and the Group methods; returns the mul/encode counters."""
    for mod_name, fn_name, span in WRAPPED:
        orig = getattr(modules[mod_name], fn_name)

        def wrapper(*args, _orig=orig, _span=span, **kwargs):
            with tracer.span(_span):
                result = _orig(*args, **kwargs)
            tracer.add(_span + "_calls")
            _record_result(tracer, _span, result)
            return result

        _rebind(orig, functools.wraps(orig)(wrapper))

    counters = {"groups.mul_calls": itertools.count(), "groups.encode_calls": itertools.count()}
    pending = [modules["groups"].Group]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method, key in (("mul", "groups.mul_calls"), ("encode", "groups.encode_calls")):
            if method in vars(cls):

                def counted(*args, _orig=vars(cls)[method], _next=counters[key].__next__):
                    _next()
                    return _orig(*args)

                setattr(cls, method, functools.wraps(vars(cls)[method])(counted))
    return counters


def main(argv: list[str]) -> int:
    src, args = argv[0], argv[1:]
    tracer = Tracer()
    sys.path.insert(0, src)
    with tracer.span("cli.import"):
        import cayleylab.cli
    from cayleylab import growth, groups, mixing, nilprog, spectral, zoo

    modules = {"groups": groups, "growth": growth, "spectral": spectral, "mixing": mixing, "nilprog": nilprog, "zoo": zoo}
    counters = install(tracer, modules)
    captured = io.StringIO()
    with tracer.span("cli.run"), contextlib.redirect_stdout(captured):
        code = cayleylab.cli.run(args)
    for key, counter in counters.items():
        tracer.counts[key] = next(counter)
    json.dump({"exit": code, "stdout": captured.getvalue(), "spans": tracer.spans, "counts": tracer.counts}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
