"""Laplacian spectral gap, Cheeger constant, and the spectral inequality chain.

Conventions: the Cayley multigraph has one edge per pair (x, s) with s not the
identity; the identity generator is a self-loop and contributes nothing to the
Laplacian Delta f(x) = sum_{s in S} (f(x) - f(sx)), while the degree k = |S|
still counts it.  The edge boundary of A counts pairs (x, s) with x in A and
sx outside A, so every crossing edge is counted once from its A-side endpoint.

Solvers: lambda1 with method="auto" runs dense eigh on graphs of at most
DENSE_CAP (256) vertices, and always below 8 vertices; above the cap it runs
Lanczos (scipy eigsh) on the sparse Laplacian, with the constant vector
shifted above the spectrum.  method="dense" and method="iterative" force one
path; the dense one is the oracle the tests hold the iterative one to.
coset_gap has only a dense path and refuses above COSET_GAP_CAP (4096).

Exact Cheeger constants come from an exhaustive vectorized subset scan (only
feasible for tiny groups, and refused above EXACT_SCAN_BUDGET); otherwise the
report carries the certified interval [lambda1/2, min(sweep cut,
sqrt(2 (k-1) lambda1))].  The graph is (k-1)-regular and h is not normalized
by the degree, so these are the two Cheeger inequalities in this convention;
the sweep cut is a real cut, so it bounds h from above whichever lambda1
eigenvector it sorts by.  Chain checks against an interval may come out
"indeterminate", never falsely pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .groups import GeneratingSet, Group, OracleError, ResourceRefusal, SubgroupOracle
from .growth import Ball, GrowthProfile, enumerate_ball

__all__ = [
    "CayleyContext",
    "build_context",
    "SpectralReport",
    "lambda1",
    "CheegerReport",
    "cheeger",
    "InequalityCheck",
    "SpectralChainReport",
    "verify_spectral_inequalities",
    "RayleighReport",
    "rayleigh_probe",
    "CosetGapReport",
    "coset_gap",
    "DENSE_CAP",
    "COSET_GAP_CAP",
    "EXACT_CHEEGER_CAP",
    "EXACT_SCAN_BUDGET",
]

DENSE_CAP = 256  # largest graph lambda1 solves densely unless told otherwise
COSET_GAP_CAP = 4096  # coset_gap has no iterative path
EXACT_CHEEGER_CAP = 22
EXACT_SCAN_BUDGET = 1 << 30  # bytes the exhaustive Cheeger scan may allocate
_SCAN_BYTES_PER_SUBSET = 80  # masks, boundary counts and one pass's temporaries (measured peak: 74)
SLACK = 1e-9


@dataclass(frozen=True)
class CayleyContext:
    """Fully enumerated Cayley graph with generator index permutations."""

    group: Group
    gens: GeneratingSet
    ball: Ball
    perms: tuple  # one int array per generator, aligned with gens.elements
    identity_gen: int  # position of the identity inside gens

    @property
    def n(self) -> int:
        return self.ball.size

    @property
    def k(self) -> int:
        return self.gens.k

    def nonid_perms(self) -> list:
        return [p for i, p in enumerate(self.perms) if i != self.identity_gen]

    def profile(self) -> GrowthProfile:
        return GrowthProfile(self.ball.sphere_sizes, self.group.order, self.gens.k, self.ball.truncated)

    @property
    def diameter(self) -> int:
        return self.ball.radius

    def laplacian_matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.k * v.astype(float, copy=True)
        for i, p in enumerate(self.perms):
            out -= v[p] if i != self.identity_gen else v
        return out

    def dense_laplacian(self) -> np.ndarray:
        n = self.n
        mat = np.zeros((n, n))
        rows = np.arange(n)
        for p in self.nonid_perms():
            np.add.at(mat, (rows, p), -1.0)
        mat[rows, rows] += self.k - 1  # identity self-loop cancels one unit of degree
        return mat

    def sparse_laplacian(self) -> "scipy.sparse.csr_matrix":
        import scipy.sparse

        n = self.n
        rows = np.concatenate([np.arange(n)] * max(1, len(self.nonid_perms())))
        cols = np.concatenate(self.nonid_perms()) if self.nonid_perms() else np.arange(n)
        data = -np.ones(len(rows))
        adj = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(n, n))
        diag = scipy.sparse.diags([float(self.k - 1)] * n)
        return (diag + adj).tocsr()

    def distances_from(self, start: int) -> np.ndarray:
        n = self.n
        dist = np.full(n, -1, dtype=np.int64)
        dist[start] = 0
        frontier = np.array([start], dtype=np.int64)
        d = 0
        nonid = self.nonid_perms()
        while frontier.size:
            d += 1
            nxt = np.unique(np.concatenate([p[frontier] for p in nonid])) if nonid else np.array([], dtype=np.int64)
            nxt = nxt[dist[nxt] < 0]
            dist[nxt] = d
            frontier = nxt
        return dist


def build_context(group: Group, gens: GeneratingSet, workers: int = 1, cap: Optional[int] = None) -> CayleyContext:
    """The closed BFS ball with its successor table as the generator permutations."""
    ball = enumerate_ball(group, gens, workers=workers, cap=cap)
    if ball.truncated:
        raise ResourceRefusal("group too large to enumerate")
    if group.order is not None and ball.size < group.order:
        raise ResourceRefusal(f"generating set reaches only {ball.size} of {group.order} elements (disconnected graph)")
    identity_gen = gens.codes.index(group.encode(group.identity()))
    return CayleyContext(group, gens, ball, tuple(ball.successors), identity_gen)


# ---------------------------------------------------------------------------
# Laplacian extremal eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralReport:
    lambda1: float
    lambda_max: float
    k: int
    solver: str
    residual: float
    tol: float
    fiedler: np.ndarray

    @property
    def beta_S(self) -> float:
        return 1.0 - self.lambda1 / self.k

    @property
    def beta_valid(self) -> bool:
        # beta_S is the walk-operator norm iff the bottom of the spectrum
        # does not dip below -(1 - lambda1/k)
        return 1.0 - self.lambda_max / self.k >= -(1.0 - self.lambda1 / self.k) - 1e-12

    def to_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "lambda_max": self.lambda_max,
            "k": self.k,
            "beta_S": self.beta_S,
            "beta_valid": self.beta_valid,
            "solver": self.solver,
            "residual": self.residual,
        }


def _dense_extremes(ctx: CayleyContext) -> tuple[float, float, np.ndarray]:
    # the full divide-and-conquer solve: LAPACK's index-subset routines (evr, evx) fail
    # on the two-cluster spectrum {0, n} of the complete graph, e.g. S = G on Z/8
    vals, vecs = np.linalg.eigh(ctx.dense_laplacian())
    return float(vals[1]), float(vals[-1]), vecs[:, 1]


def _iterative_extremes(ctx: CayleyContext, tol: float) -> tuple[float, float, np.ndarray]:
    import scipy.sparse.linalg

    n = ctx.n
    lap = ctx.sparse_laplacian()
    shift = 2.0 * ctx.k + 1.0
    ones = np.ones(n) / n

    def shifted(v):
        return lap @ v + shift * (ones @ v) * np.ones(n)

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=shifted, dtype=float)
    v0 = np.cos(0.7 * np.arange(n)) + 0.1
    vals, vecs = scipy.sparse.linalg.eigsh(op, k=1, which="SA", v0=v0, tol=tol * 1e-2, maxiter=50 * n)
    lam1 = float(vals[0])
    vals_top, _ = scipy.sparse.linalg.eigsh(lap, k=1, which="LA", v0=v0, tol=tol * 1e-2, maxiter=50 * n)
    return lam1, float(vals_top[0]), vecs[:, 0]


def lambda1(
    group: Group,
    gens: GeneratingSet,
    tol: float = 1e-9,
    method: str = "auto",
    workers: int = 1,
    ctx: Optional[CayleyContext] = None,
) -> SpectralReport:
    """Smallest nonzero Laplacian eigenvalue (and the largest one).

    method is "auto" (dense up to DENSE_CAP vertices, iterative above),
    "dense" or "iterative"; graphs below 8 vertices are always solved densely.
    """
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown eigensolver method {method!r}")
    if ctx is None:
        ctx = build_context(group, gens, workers=workers)
    if ctx.n < 2:
        raise ValueError("spectral gap needs at least two vertices")
    if ctx.n < 8 or method == "dense" or (method == "auto" and ctx.n <= DENSE_CAP):
        lam1, lam_max, vec = _dense_extremes(ctx)
        solver = "dense"
    else:
        lam1, lam_max, vec = _iterative_extremes(ctx, tol)
        solver = "iterative"
    resid = float(np.linalg.norm(ctx.laplacian_matvec(vec) - lam1 * vec))
    norm = float(np.linalg.norm(vec))
    if resid > 1e-8 * max(norm, 1.0):
        raise RuntimeError(f"eigenpair residual {resid:.2e} exceeds 1e-8 (solver={solver})")
    if not (0.0 < lam1 <= lam_max + 1e-12 and lam_max <= 2 * ctx.k + 1e-9):
        raise RuntimeError(f"eigenvalues out of range: lambda1={lam1}, lambda_max={lam_max}")
    return SpectralReport(lam1, lam_max, ctx.k, solver, resid, tol, vec)


# ---------------------------------------------------------------------------
# Cheeger constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheegerReport:
    mode: str  # "exact" or "bounded"
    h_lower: float
    h_upper: float
    exact_value: Optional[Fraction]
    witness_size: Optional[int]
    witness_boundary: Optional[int]

    @property
    def value(self) -> float:
        return float(self.exact_value) if self.exact_value is not None else self.h_upper

    def to_dict(self) -> dict:
        out = {"mode": self.mode, "witness_size": self.witness_size}
        if self.mode == "exact":
            out["value"] = float(self.exact_value)
            out["boundary"] = self.witness_boundary
        else:
            out["interval"] = [self.h_lower, self.h_upper]
        return out


def _popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr)


def _exact_cheeger(ctx: CayleyContext) -> tuple[Fraction, int, int]:
    n = ctx.n
    # refuse before allocating; the budget also keeps n far below the 64-bit mask width
    need = _SCAN_BYTES_PER_SUBSET << (n - 1)
    if need > EXACT_SCAN_BUDGET:
        most = (EXACT_SCAN_BUDGET // _SCAN_BYTES_PER_SUBSET).bit_length()
        raise ResourceRefusal(
            f"exact Cheeger scan of {n} vertices would allocate about {need / 2**30:.1f} GiB for 2^{n - 1} subsets;"
            f" the {EXACT_SCAN_BUDGET >> 20} MiB budget allows at most {most} vertices"
        )
    nonid = ctx.nonid_perms()
    # subsets containing vertex 0 cover all partitions by complement symmetry
    masks = (np.arange(1 << (n - 1), dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
    boundary = np.zeros(masks.shape, dtype=np.int64)
    for x in range(n):
        in_x = (masks >> np.uint64(x)) & np.uint64(1)
        for p in nonid:
            y = int(p[x])
            in_y = (masks >> np.uint64(y)) & np.uint64(1)
            boundary += (in_x & ~in_y).astype(np.int64)
    sizes = _popcount(masks).astype(np.int64)
    half = n // 2
    best_num, best_den = None, None
    for side_sizes in (sizes, n - sizes):
        ok = (side_sizes >= 1) & (side_sizes <= half)
        if not ok.any():
            continue
        ratios = np.where(ok, boundary / np.maximum(side_sizes, 1), np.inf)
        idx = int(np.argmin(ratios))
        num, den = int(boundary[idx]), int(side_sizes[idx])
        if best_num is None or Fraction(num, den) < Fraction(best_num, best_den):
            best_num, best_den = num, den
    return Fraction(best_num, best_den), best_den, best_num


def _sweep_cut(ctx: CayleyContext, fiedler: np.ndarray) -> tuple[Fraction, int, int]:
    """Best prefix cut of the Fiedler order: (ratio, |A|, |boundary|)."""
    n = ctx.n
    order = sorted(range(n), key=lambda i: (fiedler[i], ctx.ball.codes[i]))
    nonid = ctx.nonid_perms()
    neighbors = [[int(p[i]) for p in nonid] for i in range(n)]
    in_a = [False] * n
    boundary = 0
    best: Optional[tuple[Fraction, int, int]] = None
    for j, v in enumerate(order, start=1):
        for y in neighbors[v]:
            boundary += -1 if in_a[y] else 1
        in_a[v] = True
        if j <= n // 2:
            ratio = Fraction(boundary, j)
            if best is None or ratio < best[0]:
                best = (ratio, j, boundary)
    return best


def cheeger(
    group: Group,
    gens: GeneratingSet,
    exact_cap: int = EXACT_CHEEGER_CAP,
    workers: int = 1,
    ctx: Optional[CayleyContext] = None,
    spectral: Optional[SpectralReport] = None,
) -> CheegerReport:
    """Exact h by exhaustive scan when |G| <= exact_cap, certified interval otherwise."""
    if ctx is None:
        ctx = build_context(group, gens, workers=workers)
    if ctx.n < 2:
        raise ValueError("Cheeger constant needs at least two vertices")
    if ctx.n <= exact_cap:
        h, wsize, wboundary = _exact_cheeger(ctx)
        if h <= 0:
            raise RuntimeError("zero Cheeger constant on a connected graph")
        return CheegerReport("exact", float(h), float(h), h, wsize, wboundary)
    if spectral is None:
        spectral = lambda1(group, gens, ctx=ctx)
    sweep, cut_size, cut_boundary = _sweep_cut(ctx, spectral.fiedler)
    h_lower = spectral.lambda1 / 2
    h_upper = min(float(sweep), math.sqrt(2 * (ctx.k - 1) * spectral.lambda1))
    return CheegerReport("bounded", h_lower, h_upper, None, cut_size, cut_boundary)


# ---------------------------------------------------------------------------
# The spectral inequality chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: tuple[float, float]
    rhs: tuple[float, float]
    status: str  # "holds" | "indeterminate" | "violated"

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": list(self.lhs), "rhs": list(self.rhs), "status": self.status}


def _check(name: str, lhs: tuple[float, float], rhs: tuple[float, float]) -> InequalityCheck:
    if lhs[1] <= rhs[0] + SLACK:
        status = "holds"
    elif lhs[0] > rhs[1] + SLACK:
        status = "violated"
    else:
        status = "indeterminate"
    return InequalityCheck(name, lhs, rhs, status)


@dataclass(frozen=True)
class SpectralChainReport:
    group_name: str
    group_order: int
    k: int
    gamma: int
    lambda1: float
    lambda_max: float
    h_mode: str
    h_interval: tuple[float, float]
    checks: tuple[InequalityCheck, ...]
    strong_buser_ratio: float

    @property
    def ok(self) -> bool:
        return all(c.status != "violated" for c in self.checks)

    @property
    def all_hold(self) -> bool:
        return all(c.status == "holds" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "group": self.group_name,
            "group_order": self.group_order,
            "k": self.k,
            "gamma": self.gamma,
            "lambda1": self.lambda1,
            "lambda_max": self.lambda_max,
            "h": {"mode": self.h_mode, "interval": list(self.h_interval)},
            "inequalities": [c.to_dict() for c in self.checks],
            "strong_buser_ratio": self.strong_buser_ratio,
            "ok": self.ok,
        }


def verify_spectral_inequalities(
    group: Group,
    gens: GeneratingSet,
    exact_cap: int = EXACT_CHEEGER_CAP,
    workers: int = 1,
) -> SpectralChainReport:
    """Mechanical check of the diameter/Cheeger/gap inequality chain.

    With an exact h every comparison is decisive; with a certified interval a
    comparison whose truth is not forced by the interval reports
    "indeterminate" rather than passing or failing falsely.
    """
    ctx = build_context(group, gens, workers=workers)
    if ctx.n < 2:
        raise ValueError("chain needs at least two vertices")
    gamma = ctx.diameter
    spec = lambda1(group, gens, ctx=ctx)
    ch = cheeger(group, gens, exact_cap=exact_cap, ctx=ctx, spectral=spec)
    k = ctx.k
    n = ctx.n
    lam = (spec.lambda1, spec.lambda1)
    h = (ch.h_lower, ch.h_upper)
    h_sq_half = (h[0] ** 2 / 2, h[1] ** 2 / 2)
    h_sq_over_2d = (h_sq_half[0] / (k - 1), h_sq_half[1] / (k - 1))  # h^2 / (2 (k-1)): the graph is (k-1)-regular
    two_k_h = (2 * k * h[0], 2 * k * h[1])
    log_order = math.log(n)
    checks = (
        _check("diameter_lower", (1 / (8 * gamma**2),) * 2, h_sq_half),
        _check("cheeger_lower", h_sq_over_2d, lam),
        _check("buser_upper", lam, two_k_h),
        _check("diameter_upper", two_k_h, (8 * k**2 * log_order / gamma,) * 2),
        _check("expansion_vs_diameter", h, (4 * k * log_order / gamma,) * 2),
        _check("vertex_transitive_lower", (1 / (2 * gamma),) * 2, h),
    )
    ratio = spec.lambda1 * gamma**2 / k
    return SpectralChainReport(group.name, n, k, gamma, spec.lambda1, spec.lambda_max, ch.mode, h, checks, ratio)


# ---------------------------------------------------------------------------
# Rayleigh probe with the distance test function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RayleighReport:
    skipped: bool
    gamma: int
    R: Optional[float] = None
    bound: Optional[float] = None
    lambda1_value: Optional[float] = None
    mean_before: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "skipped": self.skipped,
            "gamma": self.gamma,
            "R": self.R,
            "bound": self.bound,
            "lambda1": self.lambda1_value,
            "mean_before": self.mean_before,
        }


def rayleigh_probe(group: Group, gens: GeneratingSet, workers: int = 1) -> RayleighReport:
    """Rayleigh quotient of f = d(.,a) - d(.,b) for a diametral pair (a, b).

    Asserts lambda1 <= R and R <= (9k/gamma^2) |G| / |S^(floor(gamma/3))|; the
    denominator certificate survives the explicit mean subtraction because the
    two radius-floor(gamma/3) balls contribute (gamma-2 rho +- mean)^2 whose sum
    is at least twice (gamma/3)^2.
    """
    ctx = build_context(group, gens, workers=workers)
    gamma = ctx.diameter
    if gamma < 3:
        return RayleighReport(True, gamma)
    d_a = ctx.distances_from(0)
    b = int(np.argmax(d_a))  # first index at maximal distance: BFS order tie-break
    d_b = ctx.distances_from(b)
    f = (d_a - d_b).astype(float)
    mean = float(f.mean())
    f -= mean
    grad_sq = float(f @ ctx.laplacian_matvec(f))
    norm_sq = float(f @ f)
    if norm_sq <= 0:
        raise RuntimeError("distance test function collapsed to a constant")
    R = grad_sq / norm_sq
    rho = gamma // 3
    ball_rho = ctx.profile().ball(rho)
    bound = (9 * ctx.k / gamma**2) * (ctx.n / ball_rho)
    spec = lambda1(group, gens, ctx=ctx)
    if spec.lambda1 > R + SLACK:
        raise RuntimeError(f"lambda1 {spec.lambda1} exceeded the Rayleigh quotient {R}")
    if R > bound + SLACK:
        raise RuntimeError(f"Rayleigh quotient {R} exceeded the doubling bound {bound}")
    return RayleighReport(False, gamma, R, bound, spec.lambda1, mean)


# ---------------------------------------------------------------------------
# Spectral gap on the zero-mean-per-coset subspace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetGapReport:
    gap: float
    bound: float
    gamma_H: int
    index: int
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "gap": self.gap if math.isfinite(self.gap) else "inf",
            "bound": self.bound,
            "gamma_H": self.gamma_H,
            "index": self.index,
            "degenerate": self.degenerate,
        }


def coset_gap(
    group: Group,
    gens: GeneratingSet,
    sub: SubgroupOracle,
    dense_cap: int = COSET_GAP_CAP,
    workers: int = 1,
) -> CosetGapReport:
    """Minimal Rayleigh quotient over functions with zero mean on every coset gH.

    H must be normal.  Asserts gap >= 1/gamma_H^2 where gamma_H is the diameter
    of H in the ambient graph distance.
    """
    ctx = build_context(group, gens, workers=workers)
    n = ctx.n
    if n > dense_cap:
        raise ResourceRefusal(f"coset gap uses a dense solve, capped at {dense_cap} vertices")
    members = [i for i, x in enumerate(ctx.ball.elements) if sub.contains(x)]
    if not members or 0 not in members:
        raise OracleError(f"{sub.name}: identity not a member")
    member_set = set(members)
    ball_index = ctx.ball.index()
    # normality on generators
    for i in members:
        h = ctx.ball.elements[i]
        for s in gens.elements:
            conj = group.mul(group.mul(group.inv(s), h), s)
            idx = ball_index.get(group.encode(conj))
            if idx is None or idx not in member_set:
                raise OracleError(f"{sub.name}: not normal (conjugation escapes)")
    hsize = len(members)
    if n % hsize != 0:
        raise OracleError(f"{sub.name}: size {hsize} does not divide {n}")
    index = n // hsize
    dist = ctx.distances_from(0)
    gamma_h = int(max(dist[i] for i in members))

    if hsize == 1:
        return CosetGapReport(math.inf, math.inf, gamma_h, index, True)

    # label left cosets xH
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for i, x in enumerate(ctx.ball.elements):
        if labels[i] >= 0:
            continue
        for j in members:
            y = group.mul(x, ctx.ball.elements[j])
            labels[ball_index[group.encode(y)]] = next_label
        next_label += 1
    if next_label != index:
        raise OracleError(f"{sub.name}: coset labelling found {next_label} classes, expected {index}")

    import scipy.linalg

    lap = ctx.dense_laplacian()
    proj = np.eye(n)
    for c in range(index):
        sel = labels == c
        proj[np.ix_(sel, sel)] -= 1.0 / hsize
    shift = 2.0 * ctx.k + 1.0
    mat = proj @ lap @ proj + shift * (np.eye(n) - proj)
    vals = scipy.linalg.eigh(mat, subset_by_index=(0, 0), eigvals_only=True)
    gap = float(vals[0])
    bound = 1.0 / gamma_h**2
    if gap < bound - SLACK:
        raise RuntimeError(f"coset gap {gap} fell below 1/gamma_H^2 = {bound}")
    return CosetGapReport(gap, bound, gamma_h, index, False)
