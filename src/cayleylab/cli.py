"""Command-line entry point.

One verb per invocation; exit codes: 0 all assertions passed, 1 a verified
inequality failed (the report names it), 2 usage or spec parse error, 3
resource refusal.  Serialization is bit-stable: JSON keys sorted, floats at 17
significant digits, CSV with a header row.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import Optional

from . import growth, mixing, nilprog, spectral, zoo
from .groups import (
    OracleError,
    ResourceRefusal,
    SpecSemanticError,
    SpecSyntaxError,
    build_group,
)

__all__ = ["main", "run", "emit_report", "render_json", "render_csv"]

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_REFUSAL = 3


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def render_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",".join(f"{render_json(str(k))}:{render_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            v = row.get(key, "")
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, float):
                cells.append(format(v, ".17g"))
            elif v is None:
                cells.append("")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_table(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(render_table(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(render_table(v, indent) if isinstance(v, (dict, list)) else f"{pad}- {v}" for v in obj)
    return f"{pad}{obj}"


def emit_report(report, fmt: str, path: Optional[str] = None) -> None:
    if fmt == "json":
        text = render_json(report) + "\n"
    elif fmt == "csv":
        if not isinstance(report, list):
            raise ValueError("csv format needs row data")
        text = render_csv(report)
    else:
        text = render_table(report) + "\n"
    data = text.encode("utf-8")
    if path:
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Command implementations: each returns (ok, report, csv_rows or None)
# ---------------------------------------------------------------------------


def _instance(args, min_order: int = 1):
    inst = zoo.construct_family(args.group)
    if inst.order is not None and inst.order < min_order:
        raise SpecSemanticError(
            f"spectra, Cheeger constants and walks need a group of order at least {min_order}; {inst.label} has order {inst.order}"
        )
    return inst.group, inst.gens


def _cmd_grow(args):
    group, gens = _instance(args)
    profile = growth.ball_growth(group, gens, max_radius=args.radius, workers=args.workers)
    report = profile.to_dict()
    if profile.diameter is not None:
        report["doubling"] = growth.doubling_scan(profile).to_dict()
        if group.order is not None and profile.reached == group.order:
            report["flatness"] = growth.flatness_report(profile).to_dict()
            if args.eps is not None and args.delta is not None:
                report["doubling_window"] = growth.doubling_at_scale(profile, args.eps, args.delta).to_dict()
    return True, report, profile.csv_rows()


def _cmd_diam(args):
    group, gens = _instance(args)
    gamma = growth.diameter(group, gens, workers=args.workers)
    return True, {"group": group.name, "diameter": gamma}, None


def _cmd_spectrum(args):
    group, gens = _instance(args, min_order=2)
    rep = spectral.lambda1(group, gens, tol=args.tol, workers=args.workers)
    return True, rep.to_dict(), None


def _cmd_cheeger(args):
    group, gens = _instance(args, min_order=2)
    rep = spectral.cheeger(group, gens, exact_cap=args.exact_cap, workers=args.workers)
    return True, rep.to_dict(), None


def _cmd_mix(args):
    group, gens = _instance(args, min_order=2)
    ctx = spectral.build_context(group, gens)
    curves = mixing.convolution_curve(group, gens, ctx=ctx)
    rep = mixing.mixing_times(group, gens, ctx=ctx, curves=curves)
    if args.format != "csv":
        return True, rep.to_dict(), None
    rows = curves.csv_rows()
    if args.p is not None:
        keep = {"1": "d1", "2": "d2", "inf": "dinf"}[args.p]
        rows = [{"n": r["n"], keep: r[keep]} for r in rows]
    return True, rep.to_dict(), rows


def _cmd_nilprog(args):
    if args.action == "basis":
        basis = nilprog.hall_basis(args.r, args.s)
        return True, {"r": args.r, "s": args.s, "size": basis.size, "commutators": basis.texts()}, None
    if args.action == "gencomms":
        gc = nilprog.generalised_commutators(args.r, args.s)
        return True, {"r": args.r, "s": args.s, "size": gc.size, "entries": [e.text() for e in gc.entries], "convention": gc.convention}, None
    L = args.L
    if len(L) != args.r:
        raise SpecSemanticError(f"-L needs one side length per generator, {args.r} for -r {args.r}; got {len(L)}")
    if args.action == "nest":
        rep = nilprog.verify_nesting(args.r, args.s, L, workers=args.workers)
        return rep.holds, rep.to_dict(), None
    if args.action == "proper":
        spec = nilprog.progression_spec("nilpotent", args.r, args.s, L)
        rep = nilprog.verify_properness(spec, workers=args.workers)
        return True, rep.to_dict(), None
    if args.action == "powers":
        rep = nilprog.verify_power_laws(args.r, args.s, L, args.n, M=args.M)
        ok = rep.power_containment_holds and (rep.cover_verified is not False)
        return ok, rep.to_dict(), None
    raise ValueError(args.action)


def _cmd_zoo(args):
    if args.action == "list":
        rows = zoo.zoo_listing()
        return True, rows, rows
    if args.action == "lgg":
        rep = zoo.verify_lgg(args.n, args.p, workers=args.workers)
        return rep.ok, rep.to_dict(), None
    raise ValueError(args.action)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _suite_growth(args):
    group, gens = _instance(args)
    profile = growth.ball_growth(group, gens, workers=args.workers)
    balls = profile.ball_sizes
    gamma = profile.diameter
    checks = []
    submult_ok = True
    for n in range(1, gamma + 1):
        for m in range(1, gamma + 1):
            if n + m <= gamma and balls[n + m] > balls[n] * balls[m]:
                submult_ok = False
    checks.append({"name": "submultiplicativity", "ok": submult_ok})
    flat = growth.flatness_report(profile)
    checks.append({"name": "freiman_diameter_bound", "ok": gamma <= flat.freiman_bound, "gamma": gamma, "bound": flat.freiman_bound})
    ok = all(c["ok"] for c in checks)
    return ok, {"group": group.name, "checks": checks, "profile": profile.to_dict(), "flatness": flat.to_dict()}


_NESTING_GRID = ((2, 2, (1, 1)), (2, 2, (2, 2)), (2, 3, (1, 1)), (3, 2, (1, 1, 1)))


def _suite_nesting(args):
    reports = []
    ok = True
    for r, s, L in _NESTING_GRID:
        rep = nilprog.verify_nesting(r, s, L, workers=args.workers)
        reports.append(rep.to_dict())
        ok = ok and rep.holds
    return ok, {"suite": "nesting", "grid": reports}


_POWER_GRID = (
    (2, 2, (1, 1), 2, 2, True),
    (2, 2, (1, 1), 3, None, True),
    (2, 2, (2, 1), 2, None, False),
    (2, 2, (2, 1), 3, None, False),
)


def _suite_powers(args):
    reports = []
    ok = True
    for r, s, L, n, M, with_min in _POWER_GRID:
        rep = nilprog.verify_power_laws(r, s, L, n, M=M, with_min_power=with_min)
        reports.append(rep.to_dict())
        ok = ok and rep.power_containment_holds and (rep.cover_verified is not False)
    return ok, {"suite": "powers", "grid": reports}


def _suite_spectral(args):
    group, gens = _instance(args, min_order=2)
    rep = spectral.verify_spectral_inequalities(group, gens, exact_cap=args.exact_cap, workers=args.workers)
    return rep.ok, rep.to_dict()


def _suite_mixing(args):
    group, gens = _instance(args, min_order=2)
    rep = mixing.verify_basic_mixing(group, gens, workers=args.workers)
    return rep.ok, rep.to_dict()


def _suite_lgg(args):
    pairs = ((args.n, args.p),) if args.n and args.p else ((3, 7), (4, 5))
    reports = []
    ok = True
    for n, p in pairs:
        rep = zoo.verify_lgg(n, p, workers=args.workers)
        reports.append(rep.to_dict())
        ok = ok and rep.ok
    return ok, {"suite": "lgg", "towers": reports}


def _suite_commdepth(args):
    reports = []
    ratios = []
    ok = True
    for p in (11, 31):
        group = build_group(f"ut:dim=3,p={p}")
        x, y = group.raw_generators()
        spec = nilprog.progression_spec("nilprogression", 2, 2, (1, 1), group, [x, y])
        pset = nilprog.enumerate_progression(spec)
        rep = nilprog.commutator_depth(group, pset, workers=args.workers)
        d = rep.to_dict()
        d["ceiling"] = 10 * math.sqrt(rep.gamma)
        d["within_ceiling"] = rep.m <= 10 * math.sqrt(rep.gamma)
        ok = ok and d["within_ceiling"]
        ratios.append(rep.ratio)
        reports.append(d)
    coherent = max(ratios) <= 2 * min(ratios)
    ok = ok and coherent
    return ok, {"suite": "commdepth", "reports": reports, "ratio_coherent": coherent}


_SUITES = {
    "growth": (_suite_growth, True),
    "nesting": (_suite_nesting, False),
    "powers": (_suite_powers, False),
    "spectral": (_suite_spectral, True),
    "mixing": (_suite_mixing, True),
    "lgg": (_suite_lgg, False),
    "commdepth": (_suite_commdepth, False),
}


def _cmd_verify(args):
    fn, needs_group = _SUITES[args.suite]
    if needs_group and not args.group:
        raise SpecSemanticError(f"verify {args.suite} needs --group")
    ok, report = fn(args)
    report["ok"] = ok
    return ok, report, None


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _side_lengths(text: str) -> tuple[int, ...]:
    try:
        L = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if min(L) < 0:
        raise argparse.ArgumentTypeError(f"side lengths must be at least 0, got {text}")
    return L


def _add_common(p):
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; every engine runs on one thread")
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.add_argument("-o", "--output", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="cayley-lab", description="exact growth/spectral/mixing diagnostics for finite Cayley graphs")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("grow", help="ball growth profile")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("-r", "--radius", type=_int_at_least(0), default=None)
    p.add_argument("--eps", type=_positive_float, default=None)
    p.add_argument("--delta", type=_positive_float, default=None)
    _add_common(p)

    p = sub.add_parser("diam", help="exact diameter")
    p.add_argument("-g", "--group", required=True)
    _add_common(p)

    p = sub.add_parser("spectrum", help="extremal Laplacian eigenvalues")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    _add_common(p)

    p = sub.add_parser("cheeger", help="Cheeger constant (exact below the cap)")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("--exact-cap", type=int, default=spectral.EXACT_CHEEGER_CAP)
    _add_common(p)

    p = sub.add_parser("mix", help="mixing times and distance curves")
    p.add_argument("-g", "--group", required=True)
    p.add_argument("--p", choices=("1", "2", "inf"), default=None, help="restrict csv curves")
    _add_common(p)

    p = sub.add_parser("nilprog", help="commutator bases and progression checks")
    p.add_argument("action", choices=("basis", "gencomms", "nest", "proper", "powers"))
    p.add_argument("-r", type=_int_at_least(1), required=True)
    p.add_argument("-s", type=_int_at_least(1), required=True)
    p.add_argument("-L", type=_side_lengths, default="1,1")
    p.add_argument("-n", type=_int_at_least(1), default=2)
    p.add_argument("-M", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("zoo", help="family catalogue and tower diameters")
    p.add_argument("action", choices=("list", "lgg"))
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-p", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("verify", help="named verification suites")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("-g", "--group", default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-p", type=int, default=None)
    p.add_argument("--exact-cap", type=int, default=spectral.EXACT_CHEEGER_CAP)
    _add_common(p)

    return parser


_COMMANDS = {
    "grow": _cmd_grow,
    "diam": _cmd_diam,
    "spectrum": _cmd_spectrum,
    "cheeger": _cmd_cheeger,
    "mix": _cmd_mix,
    "nilprog": _cmd_nilprog,
    "zoo": _cmd_zoo,
    "verify": _cmd_verify,
}


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = _COMMANDS[args.verb](args)
        ok, report, csv_rows = result
    except (SpecSyntaxError, SpecSemanticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ResourceRefusal as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_REFUSAL
    except (OracleError, RuntimeError) as exc:
        sys.stderr.write(f"assertion failed: {exc}\n")
        return EXIT_ASSERTION

    if args.verb == "diam" and args.format == "table" and not args.output:
        sys.stdout.write(f"{report['diameter']}\n")
    elif args.format == "csv" and csv_rows is not None:
        emit_report(csv_rows, "csv", args.output)
    else:
        emit_report(report, args.format if args.format != "csv" else "json", args.output)
    return EXIT_OK if ok else EXIT_ASSERTION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
