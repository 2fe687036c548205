"""Convolution-power random-walk analysis: distance curves and mixing times.

The walk measure is uniform on the symmetric generating set (identity
included, so the walk is lazy) and one step is the gather
v <- (1/k) sum_s v[perm_s], iterated from the point mass at the identity in
double precision with a fixed generator order.  Norms follow the counting
measure on the group: ||mu_G||_1 = 1, ||mu_G||_2 = |G|^(-1/2),
||mu_G||_inf = 1/|G|.

Mixing times use the 1/10 threshold with ties pushed later: a crossing is
declared only when the distance is below the threshold by more than 1e-12,
so float noise can only make reported times conservative (later), which never
falsifies the lower-bound facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import GeneratingSet, Group
from .growth import doubling_scan
from .spectral import CayleyContext, SpectralReport, build_context, lambda1

__all__ = [
    "WalkCurves",
    "convolution_curve",
    "MixingReport",
    "mixing_times",
    "BasicMixingItem",
    "BasicMixingReport",
    "verify_basic_mixing",
    "ScanRow",
    "quadratic_scan",
    "exact_calibration",
    "default_n_max",
]

TIE_EPS = 1e-12
SLACK = 1e-9


def default_n_max(k: int, gamma: int, order: int) -> int:
    """Horizon that provably suffices for T2 (and hence for Tinf)."""
    return max(16, 16 * k * max(gamma, 1) ** 2 * max(1, math.ceil(math.log(max(order, 2)))))


@dataclass(frozen=True)
class WalkCurves:
    """Distances ||mu^(n) - mu_G||_p for n = 0..N and p in {1, 2, inf}."""

    group_order: int
    k: int
    gamma: int
    d1: np.ndarray
    d2: np.ndarray
    dinf: np.ndarray
    last: Optional[np.ndarray] = field(default=None, repr=False, compare=False)  # the walk vector at the last step

    @property
    def steps(self) -> int:
        return len(self.d1) - 1

    def norm_mu_g(self, p) -> float:
        n = self.group_order
        if p == 1:
            return 1.0
        if p == 2:
            return n**-0.5
        return 1.0 / n

    def curve(self, p) -> np.ndarray:
        if p == 1:
            return self.d1
        if p == 2:
            return self.d2
        return self.dinf

    def crossing(self, p) -> Optional[int]:
        threshold = self.norm_mu_g(p) / 10.0 - TIE_EPS
        hits = np.nonzero(self.curve(p) <= threshold)[0]
        return int(hits[0]) if hits.size else None

    def csv_rows(self) -> list[dict]:
        return [
            {"n": i, "d1": float(self.d1[i]), "d2": float(self.d2[i]), "dinf": float(self.dinf[i])}
            for i in range(len(self.d1))
        ]


def _run_walk(ctx: CayleyContext, n_max: int, stop_when_mixed: bool, start: Optional[WalkCurves] = None) -> WalkCurves:
    """Walk out to step n_max, from the point mass or onward from start's last step."""
    n = ctx.n
    k = ctx.k
    uniform = 1.0 / n
    d1, d2, dinf = [], [], []
    thresh_inf = (1.0 / n) / 10.0 - TIE_EPS

    def record() -> float:
        w = v - uniform
        aw = np.abs(w)
        d1.append(float(aw.sum()))
        d2.append(float(math.sqrt(float(w @ w))))
        dinf.append(float(aw.max()))
        return dinf[-1]

    if start is None:
        v = np.zeros(n)
        v[0] = 1.0
        record()
        first = 1
    else:
        v = start.last
        first = start.steps + 1
    for step in range(first, n_max + 1):
        acc = np.zeros(n)
        for p in ctx.perms:
            acc += v[p]
        v = acc / k
        total = float(v.sum())
        if not (abs(total - 1.0) <= 1e-12 and float(v.min()) >= -1e-15):
            raise RuntimeError(f"walk left the simplex at step {step}: sum={total}, min={float(v.min())}")
        last_inf = record()
        # the infinity norm dominates the others relative to its threshold,
        # so once it has crossed, all three crossings are in the record
        if stop_when_mixed and last_inf <= thresh_inf:
            break
    curves = [np.array(d) for d in (d1, d2, dinf)]
    if start is not None:
        curves = [np.concatenate([old, new]) for old, new in zip((start.d1, start.d2, start.dinf), curves)]
    return WalkCurves(n, k, ctx.diameter, *curves, last=v)


def convolution_curve(
    group: Group,
    gens: GeneratingSet,
    n_max: Optional[int] = None,
    workers: int = 1,
    ctx: Optional[CayleyContext] = None,
    extend_to: Optional[Callable[[WalkCurves], int]] = None,
) -> WalkCurves:
    """Distance curves out to n_max steps (default: the provable T2 horizon).

    With extend_to, the walk then continues from where it stopped out to
    step extend_to(curves), so no step is walked twice.
    """
    if ctx is None:
        ctx = build_context(group, gens, workers=workers)
    horizon = n_max if n_max is not None else default_n_max(ctx.k, ctx.diameter, ctx.n)
    curves = _run_walk(ctx, horizon, stop_when_mixed=n_max is None)
    if extend_to is not None:
        curves = _run_walk(ctx, extend_to(curves), stop_when_mixed=False, start=curves)
    return curves


@dataclass(frozen=True)
class MixingReport:
    group_name: str
    group_order: int
    k: int
    gamma: int
    T1: Optional[int]
    T2: Optional[int]
    Tinf: Optional[int]
    T_rel: float
    beta_S: float
    beta_valid: bool
    horizon: int

    @property
    def crossings_found(self) -> bool:
        return None not in (self.T1, self.T2, self.Tinf)

    def to_dict(self) -> dict:
        return {
            "group": self.group_name,
            "group_order": self.group_order,
            "k": self.k,
            "gamma": self.gamma,
            "T1": self.T1,
            "T2": self.T2,
            "Tinf": self.Tinf,
            "T_rel": self.T_rel,
            "beta_S": self.beta_S,
            "beta_valid": self.beta_valid,
            "crossings_found": self.crossings_found,
            "horizon": self.horizon,
        }


def mixing_times(
    group: Group,
    gens: GeneratingSet,
    workers: int = 1,
    ctx: Optional[CayleyContext] = None,
    curves: Optional[WalkCurves] = None,
    spectral: Optional[SpectralReport] = None,
) -> MixingReport:
    """First 1/10-threshold crossings for p = 1, 2, inf plus the relaxation time."""
    if ctx is None:
        ctx = build_context(group, gens, workers=workers)
    if curves is None:
        curves = convolution_curve(group, gens, ctx=ctx)
    if spectral is None:
        spectral = lambda1(group, gens, ctx=ctx)
    t1, t2, tinf = curves.crossing(1), curves.crossing(2), curves.crossing("inf")
    t_rel = ctx.k / spectral.lambda1
    return MixingReport(
        group.name,
        ctx.n,
        ctx.k,
        ctx.diameter,
        t1,
        t2,
        tinf,
        t_rel,
        spectral.beta_S,
        spectral.beta_valid,
        curves.steps,
    )


# ---------------------------------------------------------------------------
# The basic facts on mixing times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicMixingItem:
    number: int
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    def to_dict(self) -> dict:
        return {"item": self.number, "name": self.name, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class BasicMixingReport:
    group_name: str
    group_order: int
    items: tuple[BasicMixingItem, ...]
    hypothesis_ok: bool

    @property
    def ok(self) -> bool:
        return all(i.status != "fail" for i in self.items)

    def to_dict(self) -> dict:
        return {
            "group": self.group_name,
            "group_order": self.group_order,
            "hypothesis_ok": self.hypothesis_ok,
            "items": [i.to_dict() for i in self.items],
            "ok": self.ok,
        }


def verify_basic_mixing(
    group: Group,
    gens: GeneratingSet,
    workers: int = 1,
    slack: float = SLACK,
) -> BasicMixingReport:
    """Numerical check of the nine standard mixing-time facts.

    Requires lambda1 <= 2 for the spectral items; items needing beta_S are
    skipped with notice when the walk-operator norm is not 1 - lambda1/k.
    """
    ctx = build_context(group, gens, workers=workers)
    spec = lambda1(group, gens, ctx=ctx)
    hypothesis_ok = spec.lambda1 <= 2.0 + 1e-12

    def squaring_horizon(walked: WalkCurves) -> int:
        # extend so that item (4) sees pairs (n, 2n) past the T2 crossing
        return max(2 * (walked.crossing(2) or 0), walked.crossing("inf") or 0, 2 * ctx.diameter, 16)

    curves = convolution_curve(group, gens, ctx=ctx, extend_to=squaring_horizon)
    report = mixing_times(group, gens, ctx=ctx, curves=curves, spectral=spec)

    n_steps = curves.steps
    norms = {p: curves.norm_mu_g(p) for p in (1, 2, "inf")}
    normalized = {p: curves.curve(p) / norms[p] for p in (1, 2, "inf")}
    beta = spec.beta_S
    items: list[BasicMixingItem] = []

    def add(number: int, name: str, ok: Optional[bool], detail: str = "", skipped: str = ""):
        if skipped:
            items.append(BasicMixingItem(number, name, "skipped", skipped))
        else:
            items.append(BasicMixingItem(number, name, "pass" if ok else "fail", detail))

    # (1) each curve non-increasing in n
    worst = max(float(np.max(np.diff(curves.curve(p)))) for p in (1, 2, "inf"))
    add(1, "monotone_in_n", worst <= slack, f"max increase {worst:.2e}")

    # (2) normalized distance non-decreasing in p at every step
    gap21 = float(np.max(normalized[1] - normalized[2]))
    gap_inf2 = float(np.max(normalized[2] - normalized["inf"]))
    add(2, "monotone_in_p", max(gap21, gap_inf2) <= slack, f"max defect {max(gap21, gap_inf2):.2e}")

    steps = np.arange(n_steps + 1)
    if not hypothesis_ok:
        add(3, "beta_power_lower", None, skipped="lambda1 > 2")
    elif not spec.beta_valid:
        add(3, "beta_power_lower", None, skipped="beta_S is not the walk norm")
    else:
        powers = beta**steps
        worst3 = max(float(np.max(powers - normalized[p])) for p in (1, 2, "inf"))
        add(3, "beta_power_lower", worst3 <= slack, f"max defect {worst3:.2e}")

    # (4) squaring bound d_p(2n)/||mu||_p <= (d_2(n)/||mu||_2)^2
    worst4 = 0.0
    half = n_steps // 2
    for p in (1, 2, "inf"):
        lhs = normalized[p][2 * np.arange(half + 1)]
        rhs = normalized[2][: half + 1] ** 2
        worst4 = max(worst4, float(np.max(lhs - rhs)))
    add(4, "squaring_bound", worst4 <= slack, f"max defect {worst4:.2e}")

    if not hypothesis_ok:
        add(5, "l2_beta_upper", None, skipped="lambda1 > 2")
    elif not spec.beta_valid:
        add(5, "l2_beta_upper", None, skipped="beta_S is not the walk norm")
    else:
        worst5 = float(np.max(curves.d2 - beta**steps))
        add(5, "l2_beta_upper", worst5 <= slack, f"max defect {worst5:.2e}")

    if report.crossings_found:
        add(6, "tinf_vs_t2", report.Tinf <= 2 * report.T2, f"Tinf={report.Tinf}, T2={report.T2}")
        gamma = ctx.diameter
        ok7 = all(t >= gamma / 2 for t in (report.T1, report.T2, report.Tinf)) and report.Tinf >= gamma
        add(7, "half_diameter_lower", ok7, f"gamma={gamma}")
        bound8 = 8 * ctx.k * gamma**2 * math.log(ctx.n)
        bound8b = 8 * ctx.k * math.log(ctx.k) * gamma**3 if ctx.k > 1 else math.inf
        add(8, "t2_upper", report.T2 <= bound8 + slack and bound8 <= bound8b + slack, f"T2={report.T2}, bound={bound8:.1f}")
        if not hypothesis_ok:
            add(9, "trel_upper", None, skipped="lambda1 > 2")
        elif not spec.beta_valid:
            add(9, "trel_upper", None, skipped="beta_S is not the walk norm")
        else:
            bound9 = min(float(report.T1), 8 * ctx.k * gamma**2)
            add(9, "trel_upper", report.T_rel <= bound9 + slack, f"T_rel={report.T_rel:.3f}, bound={bound9:.1f}")
    else:
        add(6, "tinf_vs_t2", None, skipped="crossing not reached within horizon")
        add(7, "half_diameter_lower", None, skipped="crossing not reached within horizon")
        add(8, "t2_upper", None, skipped="crossing not reached within horizon")
        add(9, "trel_upper", None, skipped="crossing not reached within horizon")

    return BasicMixingReport(group.name, ctx.n, tuple(items), hypothesis_ok)


# ---------------------------------------------------------------------------
# Quadratic-mixing scan across a family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    label: str
    group_order: int
    k: int
    gamma: int
    doubling_scale: Optional[int]
    scale_below_gamma_23: Optional[bool]
    T1: Optional[int]
    T2: Optional[int]
    Tinf: Optional[int]
    tinf_over_gamma_sq: Optional[float]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "group_order": self.group_order,
            "k": self.k,
            "gamma": self.gamma,
            "doubling_scale": self.doubling_scale,
            "scale_below_gamma_23": self.scale_below_gamma_23,
            "T1": self.T1,
            "T2": self.T2,
            "Tinf": self.Tinf,
            "tinf_over_gamma_sq": self.tinf_over_gamma_sq,
        }


def quadratic_scan(instances: Sequence[tuple[str, Group, GeneratingSet]], K: float = 4.0, workers: int = 1) -> list[ScanRow]:
    """Per-instance: gamma, first K-doubling scale, whether it is <= gamma^(2/3),
    and the mixing-time-to-diameter-squared ratios."""
    rows = []
    for label, group, gens in instances:
        ctx = build_context(group, gens, workers=workers)
        profile = ctx.profile()
        scan = doubling_scan(profile)
        scale = scan.first_scale(K)
        gamma = ctx.diameter
        report = mixing_times(group, gens, ctx=ctx)
        ratio = report.Tinf / gamma**2 if (report.Tinf is not None and gamma > 0) else None
        rows.append(
            ScanRow(
                label,
                ctx.n,
                ctx.k,
                gamma,
                scale,
                None if scale is None else scale <= gamma ** (2.0 / 3.0),
                report.T1,
                report.T2,
                report.Tinf,
                ratio,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Exact-rational calibration of the float walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationReport:
    steps: int
    max_err_d1: float
    max_err_dinf: float

    def to_dict(self) -> dict:
        return {"steps": self.steps, "max_err_d1": self.max_err_d1, "max_err_dinf": self.max_err_dinf}


def exact_calibration(group: Group, gens: GeneratingSet, steps: int = 32, workers: int = 1) -> CalibrationReport:
    """Run the walk in exact rationals (|G| <= 256) and bound the float error."""
    ctx = build_context(group, gens, workers=workers)
    n = ctx.n
    if n > 256:
        raise ValueError("exact mode is limited to 256 vertices")
    curves = convolution_curve(group, gens, n_max=steps, ctx=ctx)
    k = Fraction(ctx.k)
    uniform = Fraction(1, n)
    v = [Fraction(0)] * n
    v[0] = Fraction(1)
    err1 = errinf = 0.0
    for step in range(1, steps + 1):
        acc = [Fraction(0)] * n
        for p in ctx.perms:
            for i in range(n):
                acc[i] += v[int(p[i])]
        v = [a / k for a in acc]
        assert sum(v) == 1
        diffs = [x - uniform for x in v]
        d1 = sum(abs(d) for d in diffs)
        dinf = max(abs(d) for d in diffs)
        err1 = max(err1, abs(float(d1) - float(curves.d1[step])))
        errinf = max(errinf, abs(float(dinf) - float(curves.dinf[step])))
    return CalibrationReport(steps, err1, errinf)
