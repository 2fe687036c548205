"""Convolution-power random-walk analysis: distance curves and mixing times.

The walk measure is uniform on the symmetric generating set (identity
included, so the walk is lazy) and one step is the gather
v <- (1/k) sum_s v[perm_s], iterated from the point mass at the identity in
double precision with a fixed generator order.  Norms follow the counting
measure on the group: ||mu_G||_1 = 1, ||mu_G||_2 = |G|^(-1/2),
||mu_G||_inf = 1/|G|.

The walk runs in blocks.  Each step is one gather of the stacked (k, |G|)
successor table, one sum over the generators in their fixed order and one
divide by k, written into the next row of a block of 1 MiB (or one row of |G|
doubles, if that is larger).  Besides the block, the walk holds the (k, |G|)
gather buffer and, while the norms run, one temporary the size of the block.
The check that every step stays on the simplex, the three distances and the
stop at the first mixed step then run once per pass over the block as row
reductions.  The passes fill 1, 2, 4, ... rows until they fill the block, so
a walk that stops when mixed computes fewer extra steps than it kept.
The curves are three doubles per step, and joining the passes into them
holds them twice, six doubles per step: the peak of ``verify_basic_mixing``,
whose checks of items 1-5 hold at most two step-length temporaries besides
the curves.
This is the same per-step arithmetic as a loop of acc += v[perm_s], so the
curves and the last vector are bit-identical to it; the tests keep that
loop as the oracle.

The walk and mixing engines take the CayleyContext that
spectral.build_context returns and read lambda1 from its cached
``spectrum``, so a command that walks and solves enumerates its graph once
and solves once.

Mixing times use the 1/10 threshold with ties pushed later: a crossing is
declared only when the distance is below the threshold by more than 1e-12,
so float noise can only make reported times conservative (later), which never
falsifies the lower-bound facts.  On a group whose abelian split has index 1
(cyclic and abelian groups and their products) the walk operator is
diagonal in the characters, so ``mixing_times`` reads T1, T2 and Tinf from
them: mu^(*t) is one inverse FFT of w^t, where w_chi = 1 - B_chi/k comes
from the 1x1 Fourier blocks in the context's ``blocks``, the eigenvalues
lambda1 reads too, and each crossing is a bisection over t, since the
distances never increase.  ``mix`` in json and table format takes this
path; ``mix --format csv`` and ``verify mixing`` need every step and walk,
and so does every other group, whose blocks are not scalars.  Each probe
carries a bound on its rounding in each norm (``_probe_bound``): through the
2-norm for d1 and d2, and through the 1-norm of the spectrum's error for
dinf; if any probe lies within its bound of the threshold, the report comes
from the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .spectral import CayleyContext

__all__ = [
    "WalkCurves",
    "convolution_curve",
    "MixingReport",
    "mixing_times",
    "BasicMixingItem",
    "BasicMixingReport",
    "verify_basic_mixing",
    "default_n_max",
]

TIE_EPS = 1e-12
SLACK = 1e-9
_EPS = float(np.finfo(float).eps)
_BLOCK_BYTES = 1 << 20  # the walk's block of steps; a single step when one vector is larger


def _norm_mu_g(order: int, p) -> float:
    if p == 1:
        return 1.0
    if p == 2:
        return order**-0.5
    return 1.0 / order


def _threshold(order: int, p) -> float:
    """The level d_p must reach for a crossing: ||mu_G||_p / 10, less TIE_EPS."""
    return _norm_mu_g(order, p) / 10.0 - TIE_EPS


def default_n_max(k: int, gamma: int, order: int) -> int:
    """Horizon that provably suffices for T2 (and hence for Tinf)."""
    return max(16, 16 * k * max(gamma, 1) ** 2 * max(1, math.ceil(math.log(max(order, 2)))))


@dataclass(frozen=True)
class WalkCurves:
    """Distances ||mu^(n) - mu_G||_p for n = 0..N and p in {1, 2, inf}."""

    group_order: int
    d1: np.ndarray
    d2: np.ndarray
    dinf: np.ndarray
    last: Optional[np.ndarray] = field(default=None, repr=False, compare=False)  # the walk vector at the last step

    @property
    def steps(self) -> int:
        return len(self.d1) - 1

    def norm_mu_g(self, p) -> float:
        return _norm_mu_g(self.group_order, p)

    def curve(self, p) -> np.ndarray:
        if p == 1:
            return self.d1
        if p == 2:
            return self.d2
        return self.dinf

    def crossing(self, p) -> Optional[int]:
        below = self.curve(p) <= _threshold(self.group_order, p)
        first = int(np.argmax(below))  # the first True, without an index per step below
        return first if below[first] else None

    def csv_rows(self) -> list[dict]:
        return [
            {"n": i, "d1": float(self.d1[i]), "d2": float(self.d2[i]), "dinf": float(self.dinf[i])}
            for i in range(len(self.d1))
        ]


def _distances(block: np.ndarray, uniform: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise d1, d2 and dinf of walk vectors against the uniform measure."""
    w = block - uniform
    # vecdot is BLAS ddot row by row, rounding as w @ w does; OpenBLAS splits a
    # long row across its threads, so the CLI runs it on one
    d2 = np.sqrt(np.vecdot(w, w))
    np.abs(w, out=w)
    return w.sum(axis=1), d2, w.max(axis=1)


def _run_walk(ctx: CayleyContext, n_max: int, stop_when_mixed: bool, start: Optional[WalkCurves] = None) -> WalkCurves:
    """Walk out to step n_max, from the point mass or onward from start's last step.

    Steps are written row by row into a block of _BLOCK_BYTES (at least one
    row), filling 1, 2, 4, ... rows of it on successive passes; the simplex
    check, the norms and the stop test then run once per pass.
    """
    n = ctx.n
    k = ctx.k
    uniform = 1.0 / n
    thresh_inf = _threshold(n, "inf")
    if start is None:
        v = np.zeros(n)
        v[0] = 1.0
        parts = [[d] for d in _distances(v[None, :], uniform)]
        step = 1
    else:
        v = start.last
        parts = [[start.d1], [start.d2], [start.dinf]]
        step = start.steps + 1
    table = ctx.ball.successors
    divisor = float(k)  # a float divisor skips a conversion per call and rounds as / k does
    gathered = np.empty((k, n))
    block = np.empty((max(1, _BLOCK_BYTES // (8 * n)), n))
    size = 1  # doubles up to the block, so a stop overshoots by fewer steps than were walked
    while step <= n_max:
        rows = block[: min(size, n_max + 1 - step)]
        size = min(2 * size, len(block))
        for row in rows:
            v.take(table, out=gathered, mode="clip")  # indices are in range; "clip" skips a buffered copy
            np.add.reduce(gathered, axis=0, out=row)  # adds the generators in order, as acc += v[p] did
            np.divide(row, divisor, out=row)
            v = row
        distances = _distances(rows, uniform)
        # the infinity norm dominates the others relative to its threshold,
        # so once it has crossed, all three crossings are in the record
        crossed = np.flatnonzero(distances[2] <= thresh_inf) if stop_when_mixed else np.empty(0, dtype=np.intp)
        if crossed.size:
            rows = rows[: crossed[0] + 1]
            v = rows[-1]
        totals = rows.sum(axis=1)
        lows = rows.min(axis=1)
        left = np.flatnonzero(~((np.abs(totals - 1.0) <= 1e-12) & (lows >= -1e-15)))
        if left.size:
            i = left[0]
            raise RuntimeError(f"walk left the simplex at step {step + i}: sum={float(totals[i])}, min={float(lows[i])}")
        for part, d in zip(parts, distances):
            part.append(d[: len(rows)])
        step += len(rows)
        if crossed.size:
            break
    return WalkCurves(n, *(np.concatenate(part) for part in parts), last=v.copy())


def convolution_curve(
    ctx: CayleyContext,
    n_max: Optional[int] = None,
    extend_to: Optional[Callable[[WalkCurves], int]] = None,
) -> WalkCurves:
    """Distance curves out to n_max steps (default: the provable T2 horizon).

    With extend_to, the walk then continues from where it stopped out to
    step extend_to(curves), so no step is walked twice.
    """
    horizon = n_max if n_max is not None else default_n_max(ctx.k, ctx.diameter, ctx.n)
    curves = _run_walk(ctx, horizon, stop_when_mixed=n_max is None)
    if extend_to is not None:
        curves = _run_walk(ctx, extend_to(curves), stop_when_mixed=False, start=curves)
    return curves


@dataclass(frozen=True)
class MixingReport:
    group: str
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
    _shown = ("crossings_found",)

    @property
    def crossings_found(self) -> bool:
        return None not in (self.T1, self.T2, self.Tinf)


def _walk_eigenvalues(ctx: CayleyContext) -> tuple[np.ndarray, np.ndarray]:
    """Each character's walk eigenvalue w_chi = 1 - B_chi/k, on the grid of ctx.split.moduli, and a bound u on its rounding.

    B_chi is the 1x1 Fourier block's eigenvalue in ctx.blocks, which is the
    block's real part: the sum over S of 2 sin^2(pi theta_s), the imaginary
    part cancelling as S = S^-1.  Each term is within 6 eps of its value and
    the k nonnegative terms sum within k eps, so
    |fl(w) - w| <= u = eps (|w| + (k + 8)(1 - w)), the division and the
    subtraction included.  The trivial character's w = 1 is exact.
    """
    w = (1.0 - ctx.blocks[:, 0] / ctx.k).reshape(ctx.split.moduli)
    u = _EPS * (np.abs(w) + (ctx.k + 8) * (1.0 - w))
    u.flat[0] = 0.0
    return w, u


def _probe_bound(w: np.ndarray, u: np.ndarray, t: int) -> np.ndarray:
    """Bounds on the rounding of the probe mu^(*t) = ifftn(w^t) in the 1-norm, the 2-norm and the max norm.

    The spectrum's error is |fl(w^t) - w^t| <= e = t (|w| + u)^(t-1) u + eps |w|^t
    per character, and the inverse FFT adds at most 10 ceil(log2 n) eps
    relative to its output in the 2-norm (pocketfft's passes, or the three
    FFTs of Bluestein's method for a large prime); the 2 covers second-order
    terms.  mu^(*t) has 2-norm ||w^t||_2 / sqrt(n) (Parseval), so its error
    is at most delta = rho(t) ||w^t||_2 / sqrt(n) in the 2-norm, with
    rho(t) = 2 (||e||_2 / ||w^t||_2 + 10 ceil(log2 n) eps), and sqrt(n) delta
    in the 1-norm.  In the max norm the inverse DFT of e is at most
    ||e||_1 / n, which is never above ||e||_2 / sqrt(n); the FFT's own term
    is the same as in the 2-norm.
    """
    n = w.size
    a = np.abs(w)
    x = a**t
    e = t * (a + u) ** (t - 1) * u + _EPS * x
    fft = 10 * math.ceil(math.log2(n)) * _EPS
    scale = float(np.linalg.norm(x)) / math.sqrt(n)
    delta = 2.0 * (float(np.linalg.norm(e) / np.linalg.norm(x)) + fft) * scale
    return np.array([math.sqrt(n) * delta, delta, 2.0 * (float(e.sum()) / n + fft * scale)])


def _probe(w: np.ndarray, u: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(d1, d2, dinf) at step t from one inverse FFT, and a bound on the rounding of each.

    The probe's own error (_probe_bound) bounds each distance's, and the
    distances' own rounding adds (n + 2) eps d.
    """
    n = w.size
    mu = np.fft.ifftn(w**t).real.reshape(1, n)
    d = np.concatenate(_distances(mu, 1.0 / n))
    return d, _probe_bound(w, u, t) + (n + 2) * _EPS * d


def _character_times(ctx: CayleyContext) -> Optional[tuple[Optional[int], Optional[int], Optional[int], int]]:
    """T1, T2, Tinf and the horizon of the walk, read from the characters; None where they do not apply.

    They apply when the group's abelian split has index 1, so that G = H is
    abelian and the walk operator is diagonal in its characters: mu^(*t) is
    the inverse FFT of w^t (Saloff-Coste, "Random walks on finite groups",
    2004, section 3).  d1, d2 and dinf never increase in t (Young's
    inequality) and all exceed their thresholds at t = 0, so each crossing
    is found by bisection: Tinf on [0, default_n_max], then T1 and T2 on
    [0, horizon], the horizon being Tinf when found and default_n_max
    otherwise, where the walk that stops when mixed ends.  A probe whose
    distance lies within its rounding bound (_probe) of the threshold
    cannot be trusted to fall on the side it reads, and returns None too.
    """
    if ctx.split is None or ctx.split.index != 1:
        return None
    w, u = _walk_eigenvalues(ctx)
    thresholds = [_threshold(ctx.n, p) for p in (1, 2, "inf")]
    probes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    undecided = []

    def crossed(t: int, i: int) -> bool:
        if t not in probes:
            probes[t] = _probe(w, u, t)
        d, bound = probes[t]
        if abs(d[i] - thresholds[i]) <= bound[i]:
            undecided.append(t)
        return bool(d[i] <= thresholds[i])

    def first_crossing(i: int, hi: int) -> Optional[int]:
        if not crossed(hi, i):
            return None
        lo = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if crossed(mid, i) else (mid, hi)
        return hi

    n_max = default_n_max(ctx.k, ctx.diameter, ctx.n)
    tinf = first_crossing(2, n_max)
    horizon = n_max if tinf is None else tinf
    t1, t2 = first_crossing(0, horizon), first_crossing(1, horizon)
    return None if undecided else (t1, t2, tinf, horizon)


def mixing_times(ctx: CayleyContext, curves: Optional[WalkCurves] = None) -> MixingReport:
    """First 1/10-threshold crossings for p = 1, 2, inf, the horizon they were sought to, and the relaxation time.

    From the given curves; without them, from the characters where
    _character_times applies and decides every probe, and otherwise from
    the walk convolution_curve(ctx), which stops once mixed.  Both give the
    crossings the walk gives.
    """
    times = None if curves is not None else _character_times(ctx)
    if times is None:
        if curves is None:
            curves = convolution_curve(ctx)
        times = (curves.crossing(1), curves.crossing(2), curves.crossing("inf"), curves.steps)
    *crossings, horizon = times
    spectral = ctx.spectrum
    return MixingReport(
        ctx.group.name,
        ctx.n,
        ctx.k,
        ctx.diameter,
        *crossings,
        ctx.k / spectral.lambda1,
        spectral.beta_S,
        spectral.beta_valid,
        horizon,
    )


# ---------------------------------------------------------------------------
# The basic facts on mixing times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicMixingItem:
    item: int
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True)
class BasicMixingReport:
    group: str
    group_order: int
    items: tuple[BasicMixingItem, ...]
    hypothesis_ok: bool
    _shown = ("ok",)

    @property
    def ok(self) -> bool:
        return all(i.status != "fail" for i in self.items)


def verify_basic_mixing(ctx: CayleyContext) -> BasicMixingReport:
    """Numerical check of the nine standard mixing-time facts.

    Requires lambda1 <= 2 for the spectral items; items needing beta_S are
    skipped with notice when the walk-operator norm is not 1 - lambda1/k.
    """
    spec = ctx.spectrum
    hypothesis_ok = spec.lambda1 <= 2.0 + 1e-12
    # items 3, 5 and 9 read beta_S as the norm of the walk operator
    if not hypothesis_ok:
        beta_skip = "lambda1 > 2"
    elif not spec.beta_valid:
        beta_skip = "beta_S is not the walk norm"
    else:
        beta_skip = ""

    def squaring_horizon(walked: WalkCurves) -> int:
        # extend so that item (4) sees pairs (n, 2n) past the T2 crossing
        return max(2 * (walked.crossing(2) or 0), walked.crossing("inf") or 0, 2 * ctx.diameter, 16)

    curves = convolution_curve(ctx, extend_to=squaring_horizon)
    report = mixing_times(ctx, curves)

    n_steps = curves.steps
    ps = (1, 2, "inf")
    norms = {p: curves.norm_mu_g(p) for p in ps}
    beta = spec.beta_S
    items: list[BasicMixingItem] = []

    def add(number: int, name: str, ok: Optional[bool], detail: str = "", skipped: str = ""):
        if skipped:
            items.append(BasicMixingItem(number, name, "skipped", skipped))
        else:
            items.append(BasicMixingItem(number, name, "pass" if ok else "fail", detail))

    # Items 1-5 hold at most two step-length temporaries at once: a curve is
    # divided by its norm where it is read, and each difference is written
    # over a quotient that nothing else holds.
    def normalized(p) -> np.ndarray:
        return curves.curve(p) / norms[p]

    def excess(a: np.ndarray, p) -> float:
        """max(a - d_p / ||mu_G||_p) over the steps."""
        q = normalized(p)
        return float(np.max(np.subtract(a, q, out=q)))

    # (1) each curve non-increasing in n
    worst = max(float(np.max(np.diff(curves.curve(p)))) for p in ps)
    add(1, "monotone_in_n", worst <= SLACK, f"max increase {worst:.2e}")

    # (2) normalized distance non-decreasing in p at every step
    gap21 = excess(normalized(1), 2)
    gap_inf2 = excess(normalized(2), "inf")
    add(2, "monotone_in_p", max(gap21, gap_inf2) <= SLACK, f"max defect {max(gap21, gap_inf2):.2e}")

    if beta_skip:
        add(3, "beta_power_lower", None, skipped=beta_skip)
    else:
        # beta**n over float exponents rounds as over int ones
        powers = np.arange(n_steps + 1, dtype=float)
        np.power(beta, powers, out=powers)
        worst3 = max(excess(powers, p) for p in ps)
        add(3, "beta_power_lower", worst3 <= SLACK, f"max defect {worst3:.2e}")
        worst5 = float(np.max(np.subtract(curves.d2, powers, out=powers)))  # item 5, from the same powers
        del powers

    # (4) squaring bound d_p(2n)/||mu||_p <= (d_2(n)/||mu||_2)^2
    worst4 = 0.0
    half = n_steps // 2
    squares = curves.d2[: half + 1] / norms[2]
    np.square(squares, out=squares)
    for p in ps:
        lhs = curves.curve(p)[: 2 * half + 1 : 2] / norms[p]
        worst4 = max(worst4, float(np.max(np.subtract(lhs, squares, out=lhs))))
    add(4, "squaring_bound", worst4 <= SLACK, f"max defect {worst4:.2e}")

    if beta_skip:
        add(5, "l2_beta_upper", None, skipped=beta_skip)
    else:
        add(5, "l2_beta_upper", worst5 <= SLACK, f"max defect {worst5:.2e}")

    if report.crossings_found:
        add(6, "tinf_vs_t2", report.Tinf <= 2 * report.T2, f"Tinf={report.Tinf}, T2={report.T2}")
        gamma = ctx.diameter
        ok7 = all(t >= gamma / 2 for t in (report.T1, report.T2, report.Tinf)) and report.Tinf >= gamma
        add(7, "half_diameter_lower", ok7, f"gamma={gamma}")
        bound8 = 8 * ctx.k * gamma**2 * math.log(ctx.n)
        bound8b = 8 * ctx.k * math.log(ctx.k) * gamma**3 if ctx.k > 1 else math.inf
        add(8, "t2_upper", report.T2 <= bound8 + SLACK and bound8 <= bound8b + SLACK, f"T2={report.T2}, bound={bound8:.1f}")
        if beta_skip:
            add(9, "trel_upper", None, skipped=beta_skip)
        else:
            bound9 = min(float(report.T1), 8 * ctx.k * gamma**2)
            add(9, "trel_upper", report.T_rel <= bound9 + SLACK, f"T_rel={report.T_rel:.3f}, bound={bound9:.1f}")
    else:
        add(6, "tinf_vs_t2", None, skipped="crossing not reached within horizon")
        add(7, "half_diameter_lower", None, skipped="crossing not reached within horizon")
        add(8, "t2_upper", None, skipped="crossing not reached within horizon")
        add(9, "trel_upper", None, skipped="crossing not reached within horizon")

    return BasicMixingReport(ctx.group.name, ctx.n, tuple(items), hypothesis_ok)
