"""Command-line entry point.

One verb per invocation; exit codes: 0 all assertions passed, 1 a verified
inequality failed (the report names it), 2 usage or spec parse error, 3
resource refusal.  Serialization is bit-stable: JSON keys sorted, floats at 17
significant digits, CSV with a header row.  A verb imports only the engine
modules it runs, since start-up is most of a small command's time.  The CLI
runs OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is already set,
so its bytes do not depend on the core count; importing the engine modules
alone leaves that choice to the caller.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import math
import os
import sys
from fractions import Fraction
from typing import Optional

# One BLAS thread, set before numpy loads: no spinning workers, same bytes on any core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .groups import (
    ResourceRefusal,
    SpecSemanticError,
    SpecSyntaxError,
    build_group,
    order_cap,
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


def _plain(obj):
    """A report as the dicts, lists and scalars that the renderers print.

    A dataclass gives its fields shown in its repr and the properties its
    class lists in ``_shown``, each under its own name; a class whose shape
    differs writes its own ``to_dict``.
    """
    if hasattr(obj, "to_dict"):
        return _plain(obj.to_dict())
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj) if f.repr] + list(getattr(obj, "_shown", ()))
        return {name: _plain(getattr(obj, name)) for name in names}
    if isinstance(obj, Fraction):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


def render_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",".join(f"{render_json(str(k))}:{render_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, list):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return "" if v is None else str(v)


def render_csv(columns: dict):
    """The lines of a table given as columns, header name to sequence: the header, then one line per row."""
    yield ",".join(columns) + "\n"
    for row in zip(*columns.values()):
        yield ",".join(map(_csv_cell, row)) + "\n"


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
    """Write a report to path, or to stdout: csv line by line from a table of columns (see render_csv), json and table as one text."""
    if fmt == "csv":
        lines = render_csv(report)
    elif fmt == "json":
        lines = [render_json(_plain(report)) + "\n"]
    else:
        lines = [render_table(_plain(report)) + "\n"]
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(lines)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise SpecSemanticError(f"cannot write -o {path}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(lines)
        sys.stdout.flush()  # a closed pipe fails here, inside run, not at exit


# ---------------------------------------------------------------------------
# Command implementations: each returns (ok, report, csv columns or None)
# ---------------------------------------------------------------------------


def _instance(args, min_order: int = 1):
    from . import zoo

    inst = zoo.construct_family(args.group)
    if inst.order is not None and inst.order < min_order:
        raise SpecSemanticError(
            f"spectra, Cheeger constants and walks need a group of order at least {min_order}; {inst.label} has order {inst.order}"
        )
    return inst.group, inst.gens


def _context(args):
    """The one Cayley graph a spectral or walk command reads.

    Above DENSE_CAP elements every such command solves lambda1 or refuses,
    so lambda1's refusals come first, before the graph is built.
    """
    from . import spectral

    group, gens = _instance(args, min_order=2)
    if group.order is not None:
        spectral.fourier_split(group)
    return spectral.build_context(group, gens)


def _cmd_grow(args):
    from . import growth

    if (args.eps is None) != (args.delta is None):
        raise SpecSemanticError(f"grow needs --eps and --delta together; got only {'--eps' if args.delta is None else '--delta'}")
    group, gens = _instance(args)
    # the doubling window reads the diameter of the whole group
    if args.eps is not None and group.order is None:
        raise SpecSemanticError(f"--eps and --delta need a finite group; {group.name} is infinite")
    profile = growth.count_spheres(group, gens, args.radius)
    whole = profile.complete and profile.size == group.order
    if args.eps is not None and not whole:
        why = f"stopped at radius {profile.radius}" if profile.truncated else f"closes on a subgroup of order {profile.size}"
        raise SpecSemanticError(f"--eps and --delta need the whole group; the BFS of {group.name} {why}")
    if profile.capped:
        # only an infinite group reaches the cap, and it needs -r
        sys.stderr.write(f"note: stopped at the order cap CAYLEY_LAB_CAP={order_cap()}, before radius {args.radius}\n")
    report = _plain(profile)
    if profile.complete:
        report["doubling"] = growth.doubling_scan(profile)
        if whole:
            report["flatness"] = growth.flatness_report(profile)
            if args.eps is not None:
                report["doubling_window"] = growth.doubling_at_scale(profile, args.eps, args.delta)
    return True, report, profile.columns()


def _cmd_diam(args):
    from . import growth

    group, gens = _instance(args)
    gamma = growth.diameter(group, gens)
    return True, {"group": group.name, "diameter": gamma}, None


def _cmd_spectrum(args):
    return True, _context(args).spectrum, None


def _cmd_cheeger(args):
    from . import spectral

    return True, spectral.cheeger(_context(args)), None


def _cmd_mix(args):
    from . import mixing

    if args.p is not None and args.format != "csv":
        raise SpecSemanticError("--p restricts the csv curves; it needs --format csv")
    ctx = _context(args)
    if args.format != "csv":
        return True, mixing.mixing_times(ctx), None
    # the csv lists every step, so only the walk serves it
    columns = mixing.convolution_curve(ctx).columns()
    if args.p is not None:  # the column d1, d2 or dinf
        columns = {"n": columns["n"], "d" + args.p: columns["d" + args.p]}
    return True, None, columns


def _cmd_nilprog(args):
    from . import nilprog

    if args.action == "basis":
        basis = [e.text() for e in nilprog.hall_basis(args.r, args.s)]
        return True, {"r": args.r, "s": args.s, "size": len(basis), "commutators": basis}, None
    if args.action == "gencomms":
        gc = [e.text() for e in nilprog.generalised_commutators(args.r, args.s)]
        return True, {"r": args.r, "s": args.s, "size": len(gc), "entries": gc, "convention": nilprog.GENCOMM_CONVENTION}, None
    L = args.L
    if len(L) != args.r:
        raise SpecSemanticError(f"-L needs one side length per generator, {args.r} for -r {args.r}; got {len(L)}")
    if args.action == "nest":
        rep = nilprog.verify_nesting(args.r, args.s, L)
        return rep.holds, rep, None
    if args.action == "proper":
        spec = nilprog.progression_spec("nilpotent", args.r, args.s, L)
        return True, nilprog.verify_properness(spec), None
    if args.action == "powers":
        rep = nilprog.verify_power_laws(args.r, args.s, L, args.n, M=args.M)
        ok = rep.power_containment_holds and (rep.cover_verified is not False)
        return ok, rep, None
    raise ValueError(args.action)


def _cmd_zoo(args):
    from . import zoo

    if args.action == "list":
        rows = zoo.zoo_listing()
        return True, rows, {key: [row[key] for row in rows] for key in rows[0]}
    if args.action == "lgg":
        pair = _lgg_pair(args)
        if pair is None:
            raise SpecSemanticError("zoo lgg needs -n and -p")
        rep = zoo.verify_lgg(*pair)
        return rep.ok, rep, None
    raise ValueError(args.action)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _submultiplicative(balls) -> bool:
    """|S^(n+m)| <= |S^n| |S^m| for all n, m >= 1 with n + m at most the last radius.

    Take n <= m.  A pair whose product reaches the last ball holds, as no ball
    is larger, so only the m below the first such one (by bisect) are checked.
    """
    gamma = len(balls) - 1
    for n in range(1, gamma // 2 + 1):
        hi = min(bisect.bisect_left(balls, -(-balls[-1] // balls[n])), gamma - n + 1)
        if hi <= n:
            break  # the first such m only falls as n grows
        if any(balls[n + m] > balls[n] * balls[m] for m in range(n, hi)):
            return False
    return True


def _suite_growth(args):
    from . import growth

    group, gens = _instance(args)
    profile = growth.count_spheres(group, gens)
    gamma = profile.diameter
    checks = [{"name": "submultiplicativity", "ok": _submultiplicative(profile.ball_sizes)}]
    flat = growth.flatness_report(profile)
    checks.append({"name": "freiman_diameter_bound", "ok": gamma <= flat.freiman_bound, "gamma": gamma, "bound": flat.freiman_bound})
    ok = all(c["ok"] for c in checks)
    return ok, {"group": group.name, "checks": checks, "profile": profile, "flatness": flat}


_NESTING_GRID = ((2, 2, (1, 1)), (2, 2, (2, 2)), (2, 3, (1, 1)), (3, 2, (1, 1, 1)))


def _suite_nesting(args):
    from . import nilprog

    reports = []
    ok = True
    for r, s, L in _NESTING_GRID:
        rep = nilprog.verify_nesting(r, s, L)
        reports.append(rep)
        ok = ok and rep.holds
    return ok, {"suite": "nesting", "grid": reports}


_POWER_GRID = (
    (2, 2, (1, 1), 2, 2, True),
    (2, 2, (1, 1), 3, None, True),
    (2, 2, (2, 1), 2, None, False),
    (2, 2, (2, 1), 3, None, False),
)


def _suite_powers(args):
    from . import nilprog

    reports = []
    ok = True
    for r, s, L, n, M, with_min in _POWER_GRID:
        rep = nilprog.verify_power_laws(r, s, L, n, M=M, with_min_power=with_min)
        reports.append(rep)
        ok = ok and rep.power_containment_holds and (rep.cover_verified is not False)
    return ok, {"suite": "powers", "grid": reports}


def _suite_spectral(args):
    from . import spectral

    rep = spectral.verify_spectral_inequalities(_context(args))
    return rep.ok, rep


def _suite_mixing(args):
    from . import mixing

    rep = mixing.verify_basic_mixing(_context(args))
    return rep.ok, rep


def _lgg_pair(args) -> Optional[tuple[int, int]]:
    """The tower named by -n and -p, or None when neither is given."""
    if (args.n is None) != (args.p is None):
        raise SpecSemanticError(f"{args.verb} lgg needs -n and -p together; got only {'-n' if args.p is None else '-p'}")
    return None if args.n is None else (args.n, args.p)


def _suite_lgg(args):
    from . import zoo

    pair = _lgg_pair(args)
    pairs = (pair,) if pair else ((3, 7), (4, 5))
    reports = []
    ok = True
    for n, p in pairs:
        rep = zoo.verify_lgg(n, p)
        reports.append(rep)
        ok = ok and rep.ok
    return ok, {"suite": "lgg", "towers": reports}


def _suite_commdepth(args):
    from . import nilprog

    reports = []
    ratios = []
    ok = True
    for p in (11, 31):
        group = build_group(f"ut:dim=3,p={p}")
        x, y = group.raw_generators()
        spec = nilprog.progression_spec("nilprogression", 2, 2, (1, 1), group, [x, y])
        pset = nilprog.enumerate_progression(spec)
        rep = nilprog.commutator_depth(group, pset)
        d = _plain(rep)
        d["ceiling"] = 10 * math.sqrt(rep.gamma)
        d["within_ceiling"] = rep.m <= 10 * math.sqrt(rep.gamma)
        ok = ok and d["within_ceiling"]
        ratios.append(rep.ratio)
        reports.append(d)
    coherent = max(ratios) <= 2 * min(ratios)
    ok = ok and coherent
    return ok, {"suite": "commdepth", "reports": reports, "ratio_coherent": coherent}


# each suite with the verify flags it reads (argparse dest names); a suite
# that reads "group" needs it
_SUITES = {
    "growth": (_suite_growth, ("group",)),
    "nesting": (_suite_nesting, ()),
    "powers": (_suite_powers, ()),
    "spectral": (_suite_spectral, ("group",)),
    "mixing": (_suite_mixing, ("group",)),
    "lgg": (_suite_lgg, ("n", "p")),
    "commdepth": (_suite_commdepth, ()),
}
_VERIFY_FLAGS = {"group": "--group", "n": "-n", "p": "-p"}


def _cmd_verify(args):
    fn, reads = _SUITES[args.suite]
    for dest, flag in _VERIFY_FLAGS.items():
        if dest not in reads and getattr(args, dest) is not None:
            raise SpecSemanticError(f"verify {args.suite} does not read {flag}")
    if "group" in reads and not args.group:
        raise SpecSemanticError(f"verify {args.suite} needs --group")
    ok, report = fn(args)
    return ok, {**_plain(report), "ok": ok}, None


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
    _add_common(p)

    p = sub.add_parser("cheeger", help="Cheeger constant (exact up to 24 vertices)")
    p.add_argument("-g", "--group", required=True)
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
    p.add_argument("-M", type=_int_at_least(0), default=None)
    _add_common(p)

    p = sub.add_parser("zoo", help="family catalogue and tower diameters")
    p.add_argument("action", choices=("list", "lgg"))
    p.add_argument("-n", type=_int_at_least(1), default=None)
    p.add_argument("-p", type=_int_at_least(1), default=None)
    _add_common(p)

    p = sub.add_parser("verify", help="named verification suites")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("-g", "--group", default=None)
    p.add_argument("-n", type=_int_at_least(1), default=None)
    p.add_argument("-p", type=_int_at_least(1), default=None)
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
        ok, report, columns = _COMMANDS[args.verb](args)
        if args.verb == "diam" and args.format == "table" and not args.output:
            sys.stdout.write(f"{report['diameter']}\n")
        elif args.format == "csv" and columns is not None:
            emit_report(columns, "csv", args.output)
        else:
            emit_report(report, args.format if args.format != "csv" else "json", args.output)
    except (SpecSyntaxError, SpecSemanticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ResourceRefusal as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_REFUSAL
    except MemoryError:
        # the caps bound elements, not bytes, so a run they admit can still
        # exhaust memory; refusing on predicted bytes (ROADMAP item 17) is the fix
        sys.stderr.write("refused: out of memory; a smaller group, radius or CAYLEY_LAB_CAP needs less\n")
        return EXIT_REFUSAL
    except RuntimeError as exc:
        sys.stderr.write(f"assertion failed: {exc}\n")
        return EXIT_ASSERTION
    except BrokenPipeError:  # the reader closed the pipe, as `| head` does: what is buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if ok else EXIT_ASSERTION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
