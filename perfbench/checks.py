"""Output checks: which fields of a CLI report are compared, and how.

`extract` turns one invocation's exit code and stdout into the checked
fields; `mismatches` compares them with the values recorded from the seed
code in expected.json.  Checked are the exit code, exact integers, booleans,
the exact Cheeger value as a reduced rational, and lambda1 / lambda_max to
a relative tolerance.

Deliberately not checked: the bounded-mode Cheeger interval's upper end,
the sweep-cut witness, and the inequality statuses derived from them.
lambda1 is a degenerate eigenvalue on cyclic and abelian groups, so a valid
solver change may return another Fiedler vector, and with it another sweep
cut.  A chain status of "violated" still shows, through the exit code.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

REL_TOL = 1e-9
FLOAT_FIELDS = ("lambda1", "lambda_max")
# the exact Cheeger scan refuses above 63 vertices, so any true value has a
# denominator far below this; the float is then closest to exactly one
# fraction with a denominator under the limit
_RATIONAL_LIMIT = 10**6


def _rational(x: float) -> str:
    return str(Fraction(x).limit_denominator(_RATIONAL_LIMIT))


def _grow(argv: list[str], text: str) -> dict:
    if "csv" in argv:
        rows = list(csv.DictReader(io.StringIO(text)))
        return {"n": [int(r["n"]) for r in rows], "sphere": [int(r["sphere"]) for r in rows], "ball": [int(r["ball"]) for r in rows]}
    rep = json.loads(text)
    return {k: rep[k] for k in ("sphere_sizes", "ball_sizes", "diameter", "group_order", "truncated")}


def _spectral_chain(rep: dict) -> dict:
    out = {k: rep[k] for k in ("group_order", "k", "gamma", "lambda1", "lambda_max")}
    out["h_mode"] = rep["h"]["mode"]
    if out["h_mode"] == "exact":
        lo, hi = rep["h"]["interval"]
        out["h_exact"] = _rational(lo) if lo == hi else f"interval {lo} {hi}"
    return out


def _cheeger(rep: dict) -> dict:
    out = {"mode": rep["mode"]}
    if rep["mode"] == "exact":
        out["h_exact"] = _rational(rep["value"])
    return out


def _mix(rep: dict) -> dict:
    return {k: rep[k] for k in ("group_order", "k", "gamma", "T1", "T2", "Tinf", "horizon", "crossings_found")}


_INT_IN_DETAIL = re.compile(r"\b(Tinf|T2|gamma)=(\d+)")


def _basic_mixing(rep: dict) -> dict:
    out = {"group_order": rep["group_order"], "hypothesis_ok": rep["hypothesis_ok"], "items": [i["item"] for i in rep["items"]]}
    for item in rep["items"]:
        for name, value in _INT_IN_DETAIL.findall(item["detail"]):
            out[name] = int(value)
    return out


def _powers(rep: dict) -> dict:
    return {k: rep[k] for k in ("power_containment_holds", "minimal_power_m", "cover_size", "cover_verified")}


def _nesting(rep: dict) -> dict:
    return {
        "grid": [
            {"L": g["L"], "r": g["r"], "s": g["s"], "cardinalities": g["cardinalities"], "holds": [c["holds"] for c in g["containments"]]}
            for g in rep["grid"]
        ]
    }


def extract(argv: list[str], exit_code: int, text: str) -> dict:
    """Checked fields of one invocation; an unparsable report is a field too."""
    out: dict = {"exit": exit_code}
    verb = argv[0]
    try:
        if verb == "grow":
            out.update(_grow(argv, text))
            return out
        rep = json.loads(text)
        if verb == "mix":
            out.update(_mix(rep))
        elif verb == "cheeger":
            out.update(_cheeger(rep))
        elif verb == "nilprog" and argv[1] == "powers":
            out.update(_powers(rep))
        elif verb == "verify" and argv[1] == "spectral":
            out.update(_spectral_chain(rep))
        elif verb == "verify" and argv[1] == "mixing":
            out.update(_basic_mixing(rep))
        elif verb == "verify" and argv[1] == "nesting":
            out.update(_nesting(rep))
        else:
            raise ValueError(f"no output check for {' '.join(argv)}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out["parse_error"] = f"{type(exc).__name__}: {exc}"
    return out


def _close(want: float, got) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= REL_TOL * abs(want)


def mismatches(expected: dict, got: dict) -> list[str]:
    """Names of the expected fields that the output misses or gets wrong."""
    bad = [k for k in got if k not in expected]
    for name, want in expected.items():
        value = got.get(name)
        ok = _close(want, value) if name in FLOAT_FIELDS else value == want
        if not ok:
            bad.append(name)
    return bad
