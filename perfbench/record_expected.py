"""Regenerate expected.json from the current sources.

Usage: python3 perfbench/record_expected.py

Runs every invocation of every workload, and of the self-test's reduced
lists, once through the launcher and stores the fields checks.extract
reads.  The committed expected.json was recorded from the seed code; run
this only when a change is meant to alter a checked output, and say so in
that change.
"""

from __future__ import annotations

import json
import os
import sys
import time

import checks
import run
import workloads


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "cayleylab", "cli.py")):
        print(f"error: no cayley-lab sources under {run.SRC}", file=sys.stderr)
        return 2
    os.makedirs(run.OUT, exist_ok=True)
    runner = run.Runner({}, time.monotonic() + 3600)
    expected = {}
    for lists in (workloads.WORKLOADS, workloads.SMOKE):
        for invs in lists.values():
            for argv in invs:
                _, _, _, code, text = runner.spawn([sys.executable, "-c", run.LAUNCH, run.SRC, *argv])
                expected[workloads.key(argv)] = checks.extract(argv, code, text)
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
