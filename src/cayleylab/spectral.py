"""Laplacian spectral gap, Cheeger constant, and the spectral inequality chain.

Conventions: the Cayley multigraph has one edge per pair (x, s) with s not the
identity; the identity generator is a self-loop and contributes nothing to the
Laplacian Delta f(x) = sum_{s in S} (f(x) - f(sx)), while the degree k = |S|
still counts it.  The edge boundary of A counts pairs (x, s) with x in A and
sx outside A, so every crossing edge is counted once from its A-side endpoint.

Every engine takes a CayleyContext, the one enumerated graph that
build_context returns.  Its cached ``spectrum`` solves lambda1 once and
serves cheeger, the inequality chain, the Rayleigh probe and the mixing
engines; its cached ``blocks`` holds every Laplacian eigenvalue, block by
block, and serves lambda1 above the cap, the walk's characters in mixing
and the coset gap.

Solvers: lambda1 runs dense eigh on graphs of at most DENSE_CAP (256)
vertices.  Above the cap it splits the Laplacian by the abelian subgroup H
of the group's ``abelian_split``: right translation by H commutes with the
left Cayley walk, so L^2(G) is the sum of |H| spaces V_chi, one per character
chi of H, and on each the Laplacian is a Hermitian block of size [G:H] (the
spectrum of a regular abelian cover; Gross-Tucker, Topological Graph Theory,
1987, ch. 2).  Characters in one orbit under conjugation by G and complex
conjugation have blocks with one spectrum, so batched eigvalsh solves one
block per orbit, a bounded chunk at a time, and ``ctx.blocks`` copies its
eigenvalues to every member; lambda1 is the least nonzero eigenvalue of
the whole spectrum, and the eigenvector of its block lifts to a real
eigenvector of the graph for the sweep cut.  Above the cap, a group with no
split, or with blocks larger than FOURIER_BLOCK_CAP, is refused;
fourier_split decides this from the group alone, so commands refuse before
they build the graph.  The dense solve is the oracle the tests hold the
blocks to.  coset_gap, the gap on the functions with zero mean on every
coset of H, reads the blocks too: those functions are the sum of the V_chi
with chi != 1, so no solve of its own is needed, at any size.

Both Cheeger computations rest on one identity: S = S^-1 and su != u for
s != e, so for u outside A, |d(A + u)| = |dA| + (k - 1) - 2 |{s != e : su in A}|.
Exact Cheeger constants come from an exhaustive scan that builds the boundary
of each of the 2^(n-1) subsets holding vertex 0 from a smaller one by this
increment.  It runs in chunks of 2^16 subsets that share their high bits, so
its memory is bounded: within a chunk the boundary is one table over the low
vertices, built once, plus a linear form and a constant set by the high ones
(the meet-in-the-middle split of Horowitz-Sahni, J. ACM 21, 1974).  Its work
still doubles with each vertex, so cheeger scans only graphs of at most
EXACT_SCAN_MAX, 24 vertices or 2^23 subsets; above that the report carries
the certified interval [lambda1/2, min(sweep cut, sqrt(2 (k-1) lambda1))].
The graph is (k-1)-regular and h is not normalized by the degree, so these
are the two Cheeger inequalities in this convention; the sweep cut is a real
cut, so it bounds h from above whichever lambda1 eigenvector it sorts by.  It
sums the same increment along the eigenvector order and scores every prefix
by its smaller side, so it tries both ends of the order.  Chain checks
against an interval may come out "indeterminate", never falsely pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from .groups import AbelianSplit, GeneratingSet, Group, ResourceRefusal
from .growth import Ball, closed_ball

__all__ = [
    "CayleyContext",
    "build_context",
    "SpectralReport",
    "lambda1",
    "fourier_split",
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
    "FOURIER_BLOCK_CAP",
    "EXACT_SCAN_MAX",
]

DENSE_CAP = 256  # largest graph lambda1 solves densely
FOURIER_BLOCK_CAP = 4096  # largest index [G:H], the size of a Fourier block lambda1 solves
_CHUNK_BYTES = 1 << 25  # working memory of one chunk of Fourier blocks
EXACT_SCAN_MAX = 24  # largest graph cheeger scans exactly: a bound on work, 2^23 subsets in about 0.1 s on one thread
_SCAN_CHUNK_BITS = 16  # the exact scan holds 2^16 subsets at a time, a 3 MB peak (tracemalloc)
SLACK = 1e-9


@dataclass(frozen=True)
class CayleyContext:
    """Fully enumerated Cayley graph: the closed ball and its successor table.

    ``ball.successors`` is the (k, n) table, one row per generator in the
    order of gens.elements; ``nonid`` is the same table without the identity
    generator's row, the (k - 1, n) edge list of the Laplacian.  Each cached
    property is computed once per graph, on first use.
    """

    ball: Ball

    @property
    def group(self) -> Group:
        return self.ball.group

    @property
    def gens(self) -> GeneratingSet:
        return self.ball.gens

    @property
    def identity_gen(self) -> int:
        """Position of the identity inside gens."""
        return self.gens.elements.index(self.group.identity())

    @property
    def n(self) -> int:
        return self.ball.size

    @property
    def k(self) -> int:
        return self.gens.k

    @cached_property
    def nonid(self) -> np.ndarray:
        return np.delete(self.ball.successors, self.identity_gen, axis=0)

    @cached_property
    def split(self) -> Optional[AbelianSplit]:
        """The group's abelian split, which ``blocks`` is taken over."""
        return self.group.abelian_split()

    @cached_property
    def blocks(self) -> np.ndarray:
        """Every Laplacian eigenvalue by Fourier block, shape (|H|, [G:H]): row c holds
        the ascending eigenvalues of the block of character c in _characters order.

        Only the least character of each orbit (_orbit_labels) is solved, in
        chunks of at most _CHUNK_BYTES; its row is copied to the other members.
        """
        orbits, members = np.unique(_orbit_labels(self), return_inverse=True)
        d = self.split.index
        chunk = max(1, _CHUNK_BYTES // (16 * d * d + 32 * self.k * d))
        chunks = (_characters(self.split.moduli, orbits[a : a + chunk]) for a in range(0, len(orbits), chunk))
        return np.concatenate([np.linalg.eigvalsh(_fourier_blocks(self, chars)) for chars in chunks])[members]

    @cached_property
    def spectrum(self) -> SpectralReport:
        """lambda1 of this graph, solved on first use."""
        return lambda1(self)

    @property
    def diameter(self) -> int:
        return self.ball.radius

    @property
    def word_lengths(self) -> np.ndarray:
        """Distance of each vertex from the identity: the ball lists its vertices sphere by sphere."""
        return np.repeat(np.arange(len(self.ball.sphere_sizes)), self.ball.sphere_sizes)

    def laplacian_matvec(self, v: np.ndarray) -> np.ndarray:
        out = (self.k - 1) * np.asarray(v, dtype=float)
        for p in self.nonid:
            out -= v[p]
        return out

    def dense_laplacian(self) -> np.ndarray:
        n = self.n
        mat = np.zeros((n, n))
        rows = np.arange(n)
        for p in self.nonid:
            np.add.at(mat, (rows, p), -1.0)
        mat[rows, rows] += self.k - 1  # identity self-loop cancels one unit of degree
        return mat

    def distances_from(self, start: int) -> np.ndarray:
        n = self.n
        dist = np.full(n, -1, dtype=np.int64)
        dist[start] = 0
        frontier = np.array([start], dtype=np.int64)
        d = 0
        while frontier.size:
            d += 1
            nxt = np.unique(self.nonid[:, frontier])
            nxt = nxt[dist[nxt] < 0]
            dist[nxt] = d
            frontier = nxt
        return dist


def build_context(group: Group, gens: GeneratingSet) -> CayleyContext:
    """The closed BFS ball, whose successor table holds the generator permutations;
    raises NonGeneratingError on a disconnected graph."""
    return CayleyContext(closed_ball(group, gens))


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
    fiedler: np.ndarray = field(repr=False)
    _shown = ("beta_S", "beta_valid")

    @property
    def beta_S(self) -> float:
        return 1.0 - self.lambda1 / self.k

    @property
    def beta_valid(self) -> bool:
        # beta_S is the walk-operator norm iff the bottom of the spectrum
        # does not dip below -(1 - lambda1/k)
        return 1.0 - self.lambda_max / self.k >= -(1.0 - self.lambda1 / self.k) - 1e-12


def _dense_extremes(ctx: CayleyContext) -> tuple[float, float, np.ndarray]:
    # the full divide-and-conquer solve: LAPACK's index-subset routines (evr, evx) fail
    # on the two-cluster spectrum {0, n} of the complete graph, e.g. S = G on Z/8
    vals, vecs = np.linalg.eigh(ctx.dense_laplacian())
    return float(vals[1]), float(vals[-1]), vecs[:, 1]


def _characters(moduli: tuple[int, ...], indices: np.ndarray) -> np.ndarray:
    """The characters of Z/m_1 x ... x Z/m_r at the given indices as rows a: chi_a(h) = exp(2 pi i sum_c a_c h_c / m_c).

    Character order is mixed-radix order, the first coordinate most significant.
    """
    return np.stack(np.unravel_index(indices, moduli), axis=1)


def _half_angles(chars: np.ndarray, h: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """pi theta for chi_a(h) = exp(2 pi i theta), one row per character and one column per row of h.

    The phase is reduced mod lcm(moduli) in integers, then taken in (-1/2, 1/2],
    so that a small angle keeps its relative accuracy.  Every product below
    stays under lcm(moduli)^2 <= |H|^2.
    """
    period = math.lcm(*moduli)
    phase = np.zeros((len(chars), len(h)), dtype=np.int64)
    for a, hc, m in zip(chars.T, h.T, moduli):
        phase = (phase + np.outer(a, hc * (period // m))) % period
    return (np.pi / period) * np.where(2 * phase > period, phase - period, phase)


def _orbit_labels(ctx: CayleyContext) -> np.ndarray:
    """Each character's orbit under conjugation by G and under chi -> conj(chi), named by its least character index.

    Conjugate characters induce equivalent representations (Clifford theory;
    Serre, Linear Representations of Finite Groups, 1977, section 7), and the
    block of conj(chi) is the complex conjugate of chi's, so every member of
    an orbit has the same eigenvalues.  H is abelian and normal, so the orbit
    of chi is {chi o c_i, conj(chi) o c_i} over the d coset representatives,
    with c_i(h) = g_i^-1 h g_i; row c of c_i's matrix A_i holds the
    H-coordinates of c_i(h_c) for the basis element h_c, which locate finds in
    coset i.  The phases P of chi, chi(h) = exp(2 pi i <P, h> / lcm(moduli)),
    map to A_i P in integers mod lcm(moduli), as in _half_angles; every sum
    stays under lcm(moduli) (m_1 + ... + m_r) <= |H|^2.  The images of a chunk
    of characters fill about _CHUNK_BYTES.
    """
    split, group = ctx.split, ctx.group
    moduli, d = split.moduli, split.index
    action = np.empty((d, len(moduli), len(moduli)), dtype=np.int64)
    for c, h in enumerate(split.basis.tolist()):
        coset, action[:, c] = split.locate(group.left_mul(h, split.reps))
        if (coset != np.arange(d)).any():
            raise RuntimeError(f"{group.name}: the subgroup of its abelian split is not normal")
    period = math.lcm(*moduli)
    scale = np.array([period // m for m in moduli], dtype=np.int64)
    count = math.prod(moduli)
    chunk = max(1, _CHUNK_BYTES // (32 * d * len(moduli)))
    labels = []
    for a in range(0, count, chunk):
        phases = _characters(moduli, np.arange(a, min(a + chunk, count))) * scale
        images = (phases @ action.transpose(0, 2, 1)) % period // scale  # (d, chunk, r): chi o c_i as rows a
        index = [np.ravel_multi_index(tuple(np.moveaxis(x, -1, 0)), moduli) for x in (images, -images % moduli)]
        labels.append(np.minimum(*index).min(axis=0))
    return np.concatenate(labels)


def _fourier_blocks(ctx: CayleyContext, chars: np.ndarray) -> np.ndarray:
    """The Laplacian's blocks on V_chi for the characters chi in chars of H, the subgroup of ctx.split; shape (len(chars), d, d).

    V_chi holds the f with f(x h) = chi(h) f(x), and f is fixed by its values
    phi_i at the representatives g_i.  s g_i = g_j h puts -chi(h) at (i, j) of
    the block kI - M_chi; where j = i, the generator's share of kI is kept with
    it, as 1 - chi(h) = 2 sin^2(pi theta) - i sin(2 pi theta).
    """
    split, k = ctx.split, ctx.k
    d = split.index
    coset, h = split.locate(np.concatenate([ctx.group.left_mul(s, split.reps) for s in ctx.gens.elements]))
    coset, h = coset.reshape(k, d), h.reshape(k, d, -1)
    rows = np.arange(d)
    moved = coset != rows
    out = np.zeros((len(chars), d, d), dtype=complex)
    out[:, rows, rows] = moved.sum(axis=0)
    # s permutes the cosets, so no (i, j) repeats within one generator; the
    # angles are taken per generator, so only one (len(chars), d) array of
    # them sits beside the blocks
    for g in range(k):
        t = _half_angles(chars, h[g], split.moduli)
        off, on = moved[g], ~moved[g]
        out[:, rows[off], coset[g, off]] -= np.exp(2j * t[:, off])
        out[:, rows[on], rows[on]] += 2 * np.sin(t[:, on]) ** 2 - 1j * np.sin(2 * t[:, on])
    return out


def _fourier_extremes(ctx: CayleyContext) -> tuple[float, float, np.ndarray]:
    """The least nonzero eigenvalue of ctx.blocks, the largest, and a lambda1 eigenvector.

    The trivial character's least eigenvalue is the constant function's 0 and
    is dropped.  The first block in character order that attains lambda1,
    the least member of its orbit and so a block ctx.blocks solved, lifts its
    eigenvector phi to f(g_i h) = chi(h) phi_i; the real or the
    imaginary part of f, whichever is longer, is a real eigenvector.
    """
    split, vals = ctx.split, ctx.blocks
    least = vals[:, 0].copy()
    least[0] = vals[0, 1] if split.index > 1 else math.inf
    best = int(np.argmin(least))  # the first minimum
    chi = _characters(split.moduli, [best])
    phi = np.linalg.eigh(_fourier_blocks(ctx, chi)[0])[1][:, 1 if best == 0 else 0]
    coset, h = split.locate(ctx.ball.rows)
    lifted = np.exp(2j * _half_angles(chi, h, split.moduli)[0]) * phi[coset]
    vec = max(lifted.real, lifted.imag, key=np.linalg.norm)
    return float(least[best]), float(vals[:, -1].max()), vec / np.linalg.norm(vec)


def fourier_split(group: Group) -> Optional[AbelianSplit]:
    """The abelian split lambda1 solves a finite group's Cayley graph by, or
    None for a dense solve (at most DENSE_CAP elements); read off the group
    alone, so its refusals come before the graph is built."""
    if group.order <= DENSE_CAP:
        return None
    split = group.abelian_split()
    if split is None:
        raise ResourceRefusal(f"{group.name} has no abelian split, and lambda1 solves densely only up to {DENSE_CAP} vertices")
    if split.index > FOURIER_BLOCK_CAP:
        raise ResourceRefusal(f"{group.name}: Fourier blocks of size {split.index} exceed the cap of {FOURIER_BLOCK_CAP}")
    return split


def lambda1(ctx: CayleyContext) -> SpectralReport:
    """Smallest nonzero Laplacian eigenvalue (and the largest one).

    Dense or from the Fourier blocks of the split that fourier_split names.
    Each call solves again; ctx.spectrum keeps one solve per graph.
    """
    if ctx.n < 2:
        raise ValueError("spectral gap needs at least two vertices")
    if fourier_split(ctx.group) is None:
        lam1, lam_max, vec = _dense_extremes(ctx)
        solver = "dense"
    else:
        lam1, lam_max, vec = _fourier_extremes(ctx)
        solver = "fourier"
    resid = float(np.linalg.norm(ctx.laplacian_matvec(vec) - lam1 * vec))
    norm = float(np.linalg.norm(vec))
    if resid > 1e-8 * max(norm, 1.0):
        raise RuntimeError(f"eigenpair residual {resid:.2e} exceeds 1e-8 (solver={solver})")
    if not (0.0 < lam1 <= lam_max + 1e-12 and lam_max <= 2 * ctx.k + 1e-9):
        raise RuntimeError(f"eigenvalues out of range: lambda1={lam1}, lambda_max={lam_max}")
    return SpectralReport(lam1, lam_max, ctx.k, solver, resid, vec)


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

    def to_dict(self) -> dict:
        out = {"mode": self.mode, "witness_size": self.witness_size}
        if self.mode == "exact":
            out["value"] = self.exact_value
            out["boundary"] = self.witness_boundary
        else:
            out["interval"] = [self.h_lower, self.h_upper]
        return out


def _doubling_sums(first, weights, out: np.ndarray) -> None:
    """out[j] = first + the sum of weights[v] over the bits v of j, by doubling; out has 2^len(weights) entries."""
    out[0] = first
    for v, w in enumerate(weights):
        np.add(out[: 1 << v], w, out=out[1 << v : 2 << v])


def _exact_cheeger(ctx: CayleyContext) -> tuple[Fraction, int, int]:
    n = ctx.n
    lap = ctx.dense_laplacian().astype(np.int64)
    # subset i holds vertex 0 and vertex v + 1 for each bit v of i; by complement
    # symmetry these cover all partitions.  Its low b bits pick Lo from the low
    # vertices 1..b, its high bits pick F, which also holds vertex 0, from the rest;
    # the chunk of one high mask has |dA| = x^T L x = x_Lo^T L x_Lo + 2 x_F^T L x_Lo + x_F^T L x_F
    b = min(_SCAN_CHUNK_BITS, n - 1)
    low = np.arange(1, b + 1)
    # x_Lo^T L x_Lo, built once from the empty set: adding u outside A changes the
    # boundary by lap[u, u] + 2 sum_{w in A} lap[u, w], the identity in the module docstring
    quad = np.zeros(1 << b, dtype=np.int64)
    step = np.empty(max(1 << (b - 1), 1), dtype=np.int64)
    for v in range(b):
        u, half = v + 1, 1 << v
        _doubling_sums(lap[u, u], 2 * lap[u, 1:u], step[:half])
        np.add(quad[:half], step[:half], out=quad[half : 2 * half])
    del step
    low_sizes = np.bitwise_count(np.arange(1 << b, dtype=np.int64))
    boundary = np.empty_like(quad)
    half = n // 2
    best = [None, None]  # per side: (float ratio, boundary, side size) of the first least ratio in index order
    for high in range(1 << (n - 1 - b)):
        f = [0] + [b + 1 + v for v in range(n - 1 - b) if high >> v & 1]
        _doubling_sums(lap[np.ix_(f, f)].sum(), 2 * lap[np.ix_(low, f)].sum(axis=1), boundary)
        boundary += quad
        sizes = low_sizes + len(f)
        for side, side_sizes in enumerate((sizes, n - sizes)):
            ok = (side_sizes >= 1) & (side_sizes <= half)
            if not ok.any():
                continue
            ratios = np.where(ok, boundary / np.maximum(side_sizes, 1), np.inf)
            idx = int(np.argmin(ratios))
            if best[side] is None or ratios[idx] < best[side][0]:
                best[side] = (ratios[idx], int(boundary[idx]), int(side_sizes[idx]))
    best_num, best_den = None, None
    for _, num, den in filter(None, best):
        if best_num is None or Fraction(num, den) < Fraction(best_num, best_den):
            best_num, best_den = num, den
    return Fraction(best_num, best_den), best_den, best_num


def _sweep_cut(ctx: CayleyContext, fiedler: np.ndarray) -> tuple[Fraction, int, int]:
    """Best cut between a prefix and a suffix of the Fiedler order: (ratio, smaller side, |boundary|).

    S is symmetric, so a prefix and its complement have the same boundary and
    each of the n - 1 cuts is scored by its smaller side; both ends of the
    order are tried, equal entries in code order.  Ties go to the shortest prefix.
    """
    n = ctx.n
    order = np.lexsort((ctx.group.codec.rank(ctx.ball.rows), fiedler))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    # appending x to the prefix before it changes the boundary by (k - 1) - 2 |{s != e : sx comes earlier}|
    earlier = (position[ctx.nonid] < position).sum(axis=0)
    boundary = np.cumsum((ctx.k - 1 - 2 * earlier)[order])[: n - 1]
    sizes = np.minimum(np.arange(1, n), np.arange(n - 1, 0, -1))
    ratios = boundary / sizes
    # rounding is monotone, so every exact minimum has the least float ratio;
    # min keeps the first of equal Fractions
    best = min(np.flatnonzero(ratios == ratios.min()), key=lambda j: Fraction(int(boundary[j]), int(sizes[j])))
    return Fraction(int(boundary[best]), int(sizes[best])), int(sizes[best]), int(boundary[best])


def cheeger(ctx: CayleyContext) -> CheegerReport:
    """Exact h by exhaustive scan when |G| <= EXACT_SCAN_MAX, certified interval otherwise."""
    if ctx.n < 2:
        raise ValueError("Cheeger constant needs at least two vertices")
    if ctx.n <= EXACT_SCAN_MAX:
        h, wsize, wboundary = _exact_cheeger(ctx)
        if h <= 0:
            raise RuntimeError("zero Cheeger constant on a connected graph")
        return CheegerReport("exact", float(h), float(h), h, wsize, wboundary)
    return _bounded_cheeger(ctx)


def _bounded_cheeger(ctx: CayleyContext) -> CheegerReport:
    """The certified interval from the graph's lambda1 eigenpair, whichever eigenvector of the eigenspace it holds."""
    spectral = ctx.spectrum
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
    group: str
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

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "group_order": self.group_order,
            "k": self.k,
            "gamma": self.gamma,
            "lambda1": self.lambda1,
            "lambda_max": self.lambda_max,
            "h": {"mode": self.h_mode, "interval": self.h_interval},
            "inequalities": self.checks,
            "strong_buser_ratio": self.strong_buser_ratio,
            "ok": self.ok,
        }


def verify_spectral_inequalities(ctx: CayleyContext) -> SpectralChainReport:
    """Mechanical check of the diameter/Cheeger/gap inequality chain.

    With an exact h every comparison is decisive; with a certified interval a
    comparison whose truth is not forced by the interval reports
    "indeterminate" rather than passing or failing falsely.
    """
    if ctx.n < 2:
        raise ValueError("chain needs at least two vertices")
    gamma = ctx.diameter
    spec = ctx.spectrum
    ch = cheeger(ctx)
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
    return SpectralChainReport(ctx.group.name, n, k, gamma, spec.lambda1, spec.lambda_max, ch.mode, h, checks, ratio)


# ---------------------------------------------------------------------------
# Rayleigh probe with the distance test function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RayleighReport:
    skipped: bool
    gamma: int
    R: Optional[float] = None
    bound: Optional[float] = None
    lambda1: Optional[float] = None
    mean_before: Optional[float] = None


def rayleigh_probe(ctx: CayleyContext) -> RayleighReport:
    """Rayleigh quotient of f = d(.,a) - d(.,b) for a diametral pair (a, b).

    Asserts lambda1 <= R and R <= (9k/gamma^2) |G| / |S^(floor(gamma/3))|; the
    denominator certificate survives the explicit mean subtraction because the
    two radius-floor(gamma/3) balls contribute (gamma-2 rho +- mean)^2 whose sum
    is at least twice (gamma/3)^2.
    """
    gamma = ctx.diameter
    if gamma < 3:
        return RayleighReport(True, gamma)
    d_a = ctx.word_lengths
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
    ball_rho = ctx.ball.ball(rho)
    bound = (9 * ctx.k / gamma**2) * (ctx.n / ball_rho)
    spec = ctx.spectrum
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


def coset_gap(ctx: CayleyContext) -> CosetGapReport:
    """Least Laplacian eigenvalue on the functions with zero mean on every coset
    of H, the normal subgroup of ctx.split.

    Those functions are the sum of the V_chi with chi != 1, so the gap is the
    least eigenvalue of the nontrivial rows of ctx.blocks.  Asserts
    gap >= 1/gamma_H^2, where gamma_H is the diameter of H in the ambient graph
    distance.
    """
    coset, _ = ctx.split.locate(ctx.ball.rows)
    gamma_h = int(ctx.word_lengths[coset == 0].max())
    gap = float(ctx.blocks[1:, 0].min())
    bound = 1.0 / gamma_h**2
    if gap < bound - SLACK:
        raise RuntimeError(f"coset gap {gap} fell below 1/gamma_H^2 = {bound}")
    return CosetGapReport(gap, bound, gamma_h, ctx.split.index)
