"""Workload definitions: the CLI invocations each workload runs.

Every invocation is the argument list of one `cayley-lab` command.  Seed 0
runs a workload's list in the order written here; any other seed runs the
same invocations in an order shuffled by `random.Random(seed)`.  The
instances themselves never change with the seed, so the work per run, and
with it every exact count, is the same on every seed (see README.md for the
same-family alternatives that were considered and why they are not swapped
in).
"""

from __future__ import annotations

import random

UT = "ut:dim=3,p=31"

WORKLOADS: dict[str, list[list[str]]] = {
    # pure-Python mul/encode in the BFS and in build_context; iterative
    # eigsh, the sweep cut, and a short walk
    "heis-pipeline": [
        ["grow", "-g", UT, "--format", "csv"],
        ["verify", "spectral", "-g", UT, "--format", "json"],
        ["mix", "-g", UT, "--format", "json"],
    ],
    # dense eigh (n <= DENSE_CAP) and the exact Cheeger scan; tiny graph builds
    "dense-spectra": [
        ["verify", "spectral", "-g", "symfp:n=4,p=5,variant=Gprime", "--format", "json"],
        ["verify", "spectral", "-g", "lamplighter:8", "--format", "json"],
        ["verify", "spectral", "-g", "symfp:n=4,p=5,variant=G", "--format", "json"],
        ["verify", "spectral", "-g", "cyclic:20", "--format", "json"],
        ["cheeger", "-g", "cyclic:22", "--format", "json"],
    ],
    # about 300 k walk steps on 512-768 vertices; trivial BFS and eigensolve
    "cycle-walk": [
        ["verify", "mixing", "-g", "cyclic:512", "--format", "json"],
        ["mix", "-g", "cyclic:768", "--format", "json"],
    ],
    # Magnus-embedding mul/encode in the progression engine, and the BFS on
    # an infinite group truncated at radius 6
    "nilprog-powers": [
        ["nilprog", "powers", "-r", "2", "-s", "2", "-L", "1,1", "-n", "2", "-M", "2", "--format", "json"],
        ["verify", "nesting", "--format", "json"],
        ["grow", "-g", "freenil:r=2,s=3", "-r", "6", "--format", "json"],
    ],
}

# One reduced invocation per workload, touching the same layers in seconds;
# the self-test runs these.
SMOKE: dict[str, list[list[str]]] = {
    "heis-pipeline": [["mix", "-g", "ut:dim=3,p=5", "--format", "json"]],
    "dense-spectra": [["verify", "spectral", "-g", "cyclic:12", "--format", "json"]],
    "cycle-walk": [["verify", "mixing", "-g", "cyclic:32", "--format", "json"]],
    "nilprog-powers": [["grow", "-g", "freenil:r=2,s=2", "-r", "3", "--format", "json"]],
}


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The workload's invocation list in the order the seed gives."""
    out = [list(argv) for argv in WORKLOADS[workload]]
    if seed != 0:
        random.Random(seed).shuffle(out)
    return out


def group_specs(invs: list[list[str]]) -> list[str]:
    """The distinct group specs the invocations name with -g, in first-use order."""
    specs: list[str] = []
    for argv in invs:
        for flag, value in zip(argv, argv[1:]):
            if flag == "-g" and value not in specs:
                specs.append(value)
    return specs


def key(argv: list[str]) -> str:
    """Stable name of one invocation, used to look up its expected output."""
    return " ".join(argv)
