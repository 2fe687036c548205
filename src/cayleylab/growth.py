"""Ball enumeration and growth diagnostics for Cayley graphs.

The BFS here is the single source of truth for every cardinality in the
package: spheres and balls are exact integer counts, deduplicated on the
elements themselves, and the element order it produces (sphere by sphere,
canonical-byte order within a sphere) indexes every vector quantity
downstream.  The BFS runs on one thread, and its output is a pure function of
the group and the generating set.

There is one graph builder, the BFS on coordinate rows: a sphere is an int64
array of rows, each generator acts on all of it at once, and an integer key
per row stands in for the element.  The key is the codec's rank in canonical
byte order when the group has a codec (``group.codec``: every finite family
whose ranks fit below 2^62), and ``row_keys`` otherwise (the free nilpotent
groups, products with an infinite factor, and finite groups whose ranks pass
2^62); those spheres are put in canonical byte order once the BFS stops, by
one encode per element.  It computes s*x for every generator s and every
element x it expands, and a complete ball keeps the index of each product in
its successor table, so the Cayley graph is enumerated once per ball and never
again.  A closure on a group without a codec is refused before the BFS
starts.  A ball keeps its rows and no bytes; its elements, the rows as
tuples, are built on first read.

A ball is its own growth profile: it sums its sphere sizes once, into
``ball_sizes``, and the doubling, flatness and moderate-growth diagnostics,
the Ruzsa witness and the coset trajectory all read those totals.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from .groups import GeneratingSet, Group, OracleError, ResourceRefusal, SpecSemanticError, SubgroupOracle, order_cap, row_keys

__all__ = [
    "Ball",
    "enumerate_ball",
    "closed_ball",
    "diameter",
    "NonGeneratingError",
    "DoublingScan",
    "doubling_scan",
    "DoublingWindow",
    "doubling_at_scale",
    "FlatnessReport",
    "flatness_report",
    "ModerateGrowthFit",
    "moderate_fit",
    "RuzsaWitness",
    "approximate_group_witness",
    "CosetSaturation",
    "coset_saturation",
    "left_coset_labels",
]


class NonGeneratingError(RuntimeError):
    """BFS closed on a proper subgroup; carries the order actually reached."""

    def __init__(self, reached: int, expected: Optional[int]):
        super().__init__(f"generating set closes on a subgroup of order {reached}" + (f" < {expected}" if expected else ""))
        self.reached = reached
        self.expected = expected


@dataclass(frozen=True)
class Ball:
    """BFS enumeration of S^0, S^1, ... : the elements, sphere by sphere and
    in canonical byte order within a sphere, and the sphere sizes.  A ball is
    its own growth profile: ``ball_sizes`` sums the spheres once, and every
    growth diagnostic reads it.

    ``rows`` holds the elements as an int64 array of coordinate rows in ball
    order, and ``elements`` reads them back as tuples on first use.
    ``truncated`` means expansion stopped at max_radius or the cap first;
    otherwise the ball is ``complete`` (the BFS closed, and the last sphere is
    the full boundary).  A complete ball carries ``successors``, an int64
    array of shape (k, size) whose entry [i, j] is the index of
    gens.elements[i] * elements[j]; a truncated one carries None, since its
    last sphere was never expanded.
    """

    group: Group
    gens: GeneratingSet
    rows: np.ndarray = field(repr=False, compare=False)
    sphere_sizes: tuple[int, ...]
    truncated: bool
    capped: bool = False
    successors: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        balls = self.ball_sizes
        for n in range(1, len(balls)):
            if self.sphere_sizes[n] <= 0:
                raise ValueError("empty interior sphere")
            if balls[n] > self.gens.k * balls[n - 1]:
                raise ValueError("ball grew faster than degree allows")

    @cached_property
    def ball_sizes(self) -> tuple[int, ...]:
        """|S^0|, |S^1|, ...: the running totals of the sphere sizes."""
        return tuple(itertools.accumulate(self.sphere_sizes))

    @cached_property
    def elements(self) -> tuple:
        """The elements in ball order, as coordinate tuples."""
        return _row_tuples(self.rows)

    @property
    def complete(self) -> bool:
        return not self.truncated

    @property
    def size(self) -> int:
        return self.ball_sizes[-1]

    @property
    def radius(self) -> int:
        return len(self.sphere_sizes) - 1

    @property
    def diameter(self) -> Optional[int]:
        return None if self.truncated else self.radius

    def index(self) -> dict:
        """Each element's position in the ball."""
        return {x: i for i, x in enumerate(self.elements)}

    def ball(self, n: int) -> int:
        """|S^n|, clamped at the closure for n past the diameter."""
        if n < 0:
            raise ValueError("radius must be nonnegative")
        balls = self.ball_sizes
        if n >= len(balls):
            if self.truncated:
                raise ValueError(f"ball truncated before radius {n}")
            return balls[-1]
        return balls[n]

    def to_dict(self) -> dict:
        return {
            "sphere_sizes": self.sphere_sizes,
            "ball_sizes": self.ball_sizes,
            "diameter": self.diameter,
            "group_order": self.group.order,
            "k": self.gens.k,
            "truncated": self.truncated,
        }

    def csv_rows(self) -> list[dict]:
        # ratios only on a complete ball, where both radii are inside the closure
        scan = doubling_scan(self) if self.complete else DoublingScan((), ())
        r2, r5 = dict(scan.ratios_2n1), dict(scan.ratios_5n)
        return [
            {
                "n": n,
                "sphere": sphere,
                "ball": ball,
                "ratio_2n1": float(r2[n]) if n in r2 else "",
                "ratio_5n": float(r5[n]) if n in r5 else "",
            }
            for n, (sphere, ball) in enumerate(zip(self.sphere_sizes, self.ball_sizes))
        ]


def enumerate_ball(
    group: Group,
    gens: GeneratingSet,
    max_radius: Optional[int] = None,
    cap: Optional[int] = None,
) -> Ball:
    """BFS the ball around the identity out to max_radius (or closure).

    ``cap`` bounds the number of elements (default: the order cap); a sphere
    that would cross it stops the BFS with a capped, truncated ball.  A
    closure (no max_radius) needs a codec and is refused without one.
    """
    if max_radius is None and group.codec is None:
        why = "is infinite" if group.order is None else "has coordinate ranks past 2^62, so no codec"
        raise ResourceRefusal(f"{group.name} {why}: closure enumeration needs max_radius")
    return _bfs(group, gens, max_radius, order_cap(cap))


def _row_tuples(X: np.ndarray) -> tuple:
    """The rows of a 2-D int array (at least one column) as tuples of Python ints."""
    return tuple(zip(*X.T.tolist()))


def _bfs(group: Group, gens: GeneratingSet, max_radius: Optional[int], limit: int) -> Ball:
    """The BFS on coordinate rows, the one writer of a ball."""
    codec = group.codec
    frontier = np.array([group.identity()], dtype=np.int64)
    blocks = [frontier]  # coordinate rows, one block per sphere, each sorted by key
    ranks = None if codec is None else [codec.rank(frontier)]  # the codec's keys, per sphere
    starts = [0]
    spheres = [1]
    size = 1
    rows: list[np.ndarray] = []  # per expanded sphere: successor indices, shape (k, sphere size)
    truncated = False
    capped = False
    while True:
        if max_radius is not None and len(spheres) - 1 >= max_radius:
            truncated = True
            break
        products = np.stack([group.left_mul(s, frontier) for s in gens.elements])
        if codec is not None:
            known, keys = ranks[-2:], codec.rank(products)
        else:
            # keys of the last two spheres and the products together; they
            # order rows lexicographically, so each sphere stays sorted
            *known, keys = row_keys(*blocks[-2:], products.reshape(-1, products.shape[-1]))
            keys = keys.reshape(products.shape[:-1])
        succ = np.full(keys.shape, -1, dtype=np.int64)
        # S is symmetric and holds the identity, so the products of sphere r
        # lie in spheres r-1, r and r+1; only the last is new
        for known_keys, start in zip(known, starts[-2:]):
            at = np.minimum(np.searchsorted(known_keys, keys), len(known_keys) - 1)
            hit = known_keys[at] == keys
            succ[hit] = start + at[hit]
        new = succ < 0
        fresh, first = np.unique(keys[new], return_index=True)
        if size + len(fresh) > limit:
            truncated = True
            capped = True
            break
        succ[new] = size + np.searchsorted(fresh, keys[new])
        rows.append(succ)
        if not len(fresh):
            break
        frontier = products[new][first]
        blocks.append(frontier)
        if codec is not None:
            ranks.append(fresh)
        starts.append(size)
        spheres.append(len(fresh))
        size += len(fresh)
    # each list goes once it is joined: at 10^6 elements a copy of the rows is
    # over 100 MB, and of the successors k * 8 MB
    X = np.concatenate(blocks)
    blocks.clear()
    successors = None if truncated else np.concatenate(rows, axis=1)
    rows.clear()
    if codec is None:
        # from row order to canonical byte order, sphere by sphere in place,
        # one encode per element of each sphere that has more than one
        order = np.arange(size)
        for start, n in zip(starts, spheres):
            if n > 1:
                sphere = X[start : start + n]
                codes = list(map(group.encode, _row_tuples(sphere)))
                order[start : start + n] = np.add(sorted(range(n), key=codes.__getitem__), start)
                sphere[:] = X[order[start : start + n]]
        if successors is not None:
            successors = np.argsort(order)[successors[:, order]]
    return Ball(group, gens, X, tuple(spheres), truncated, capped, successors)


def closed_ball(group: Group, gens: GeneratingSet) -> Ball:
    """The whole group as one BFS ball, with its successor table:
    refuses a group without a codec or when the BFS stops first, and raises
    NonGeneratingError when S closes on a proper subgroup."""
    ball = enumerate_ball(group, gens)
    if ball.truncated:
        raise ResourceRefusal("ball enumeration truncated before closure")
    if ball.size < group.order:
        raise NonGeneratingError(ball.size, group.order)
    return ball


def diameter(group: Group, gens: GeneratingSet) -> int:
    """Exact diameter; raises NonGeneratingError if S closes on a proper subgroup."""
    return closed_ball(group, gens).diameter


# ---------------------------------------------------------------------------
# Doubling and flatness diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingScan:
    """Exact doubling ratios |S^{2n+1}|/|S^n| and |S^{5n}|/|S^n| over in-range n."""

    ratios_2n1: tuple[tuple[int, Fraction], ...]
    ratios_5n: tuple[tuple[int, Fraction], ...]

    def first_scale(self, K) -> Optional[int]:
        for n, ratio in self.ratios_2n1:
            if ratio <= K:
                return n
        return None


def doubling_scan(ball: Ball) -> DoublingScan:
    if ball.truncated:
        raise ValueError("doubling scan needs a complete ball")
    gamma = ball.diameter
    balls = ball.ball_sizes
    r2, r5 = [], []
    for n in range(1, gamma + 1):
        if 2 * n + 1 <= gamma:
            r2.append((n, Fraction(balls[2 * n + 1], balls[n])))
        if 5 * n <= gamma:
            r5.append((n, Fraction(balls[5 * n], balls[n])))
    return DoublingScan(tuple(r2), tuple(r5))


@dataclass(frozen=True)
class DoublingWindow:
    """Search for a five-fold doubling scale inside the window [gamma^{d/2}, gamma^d]."""

    eps: float
    delta: float
    K: float
    lo: int = field(repr=False)
    hi: int = field(repr=False)
    scale: Optional[int]
    window_empty: bool
    _shown = ("window",)

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)


def doubling_at_scale(ball: Ball, eps: float, delta: float) -> DoublingWindow:
    """Smallest n in [gamma^{delta/2}, gamma^delta] with |S^{5n}| <= K |S^n|, K = 5^{2/(eps delta)}."""
    if ball.truncated:
        raise ValueError("needs a complete ball")
    gamma = ball.diameter
    try:
        top = gamma**delta
    except OverflowError:
        limit = math.log(sys.float_info.max) / math.log(gamma)
        raise SpecSemanticError(
            f"the doubling window's top gamma^delta = {gamma}^{delta} overflows a float; with gamma = {gamma}, delta must be below about {limit:.4g}"
        ) from None
    exponent = 2.0 / (eps * delta) if eps * delta > 0 else math.inf  # eps * delta may underflow to 0
    K = math.inf if exponent > 300 else 5.0**exponent
    lo = math.ceil(gamma ** (delta / 2)) if gamma > 0 else 1
    hi = math.floor(top) if gamma > 0 else 0
    if lo > hi:
        return DoublingWindow(eps, delta, K, lo, hi, None, True)
    scale = None
    for n in range(lo, hi + 1):
        if ball.ball(min(5 * n, gamma)) <= K * ball.ball(n):
            scale = n
            break
    return DoublingWindow(eps, delta, K, lo, hi, scale, False)


@dataclass(frozen=True)
class FlatnessReport:
    """Diameter-versus-volume diagnostics: flatness exponent and Freiman bound."""

    gamma: int
    group_order: int
    k: int
    _shown = ("eps_star", "freiman_bound")

    def __post_init__(self):
        if self.gamma > self.freiman_bound:
            raise RuntimeError(f"diameter {self.gamma} exceeds the Freiman bound {self.freiman_bound}")

    @property
    def eps_star(self) -> float:
        base = self.group_order / self.k
        if base <= 1.0:
            return math.inf
        if self.gamma <= 0:
            return 0.0
        return math.log(self.gamma) / math.log(base)

    @property
    def freiman_bound(self) -> float:
        return 2.0 * (self.group_order / self.k) ** 1.75


def flatness_report(ball: Ball) -> FlatnessReport:
    order = ball.group.order
    if ball.truncated or order is None:
        raise ValueError("needs a complete ball of a finite group")
    if ball.size != order:
        raise NonGeneratingError(ball.size, order)
    return FlatnessReport(ball.diameter, order, ball.gens.k)


@dataclass(frozen=True)
class ModerateGrowthFit:
    """Smallest A with |S^n| >= (1/A)(n/gamma)^d |G| for 1 <= n <= gamma."""

    d: float
    A: object  # Fraction for integer d, float otherwise
    argmax_n: int
    exact: bool


def moderate_fit(ball: Ball, d: float) -> ModerateGrowthFit:
    """A = max over 1 <= n <= gamma of (n/gamma)^d |G| / |S^n|, exact for integer d."""
    order = ball.group.order
    if ball.truncated or order is None:
        raise ValueError("needs a complete ball of a finite group")
    gamma = ball.diameter
    balls = ball.ball_sizes
    if gamma == 0:
        return ModerateGrowthFit(d, Fraction(1), 0, True)
    exact = float(d).is_integer()
    best = None
    best_n = 1
    for n in range(1, gamma + 1):
        if exact:
            val = Fraction(n, gamma) ** int(d) * Fraction(order, balls[n])
        else:
            val = (n / gamma) ** d * (order / balls[n])
        if best is None or val > best:
            best, best_n = val, n
    return ModerateGrowthFit(d, best, best_n, exact)


# ---------------------------------------------------------------------------
# Ruzsa covering witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuzsaWitness:
    """Greedy disjoint-translate witness X in S^{4n} with verified certificates."""

    n: int
    witness: tuple = field(repr=False)
    ball_n: int
    ball_4n: int
    ball_5n: int
    disjoint_verified: bool
    covering_verified: bool
    _shown = ("witness_size", "ratio_bound")

    @property
    def witness_size(self) -> int:
        return len(self.witness)

    @property
    def ratio_bound(self) -> Fraction:
        return Fraction(self.ball_5n, self.ball_n)


def approximate_group_witness(group: Group, gens: GeneratingSet, n: int) -> RuzsaWitness:
    """Greedy maximal X in S^{4n} with the translates xS^n pairwise disjoint.

    Verifies exhaustively that S^{4n} is covered by X S^{2n} and that the
    translates are disjoint, which forces |X| <= |S^{5n}|/|S^n|.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ball = enumerate_ball(group, gens, max_radius=5 * n)
    if ball.capped or (not ball.complete and ball.radius < 5 * n):
        raise ResourceRefusal(f"ball truncated before radius {5 * n}")
    # the ball is sphere-major: radius <= r is position < |S^r|
    small = ball.elements[: ball.ball(n)]
    chosen: list = []
    occupied = set()
    for x in ball.elements[: ball.ball(4 * n)]:
        translate = {group.mul(x, b) for b in small}
        if occupied.isdisjoint(translate):
            chosen.append(x)
            occupied |= translate
    disjoint_ok = len(occupied) == len(chosen) * len(small)

    covering_ok = True
    index = ball.index()
    within_2n = ball.ball(2 * n)
    inv_chosen = [group.inv(x) for x in chosen]
    for z in ball.elements[: ball.ball(4 * n)]:
        if not any(index.get(group.mul(xi, z), math.inf) < within_2n for xi in inv_chosen):
            covering_ok = False
            break

    witness = RuzsaWitness(
        n, tuple(chosen), ball.ball(n), ball.ball(4 * n), ball.ball(5 * n), disjoint_ok, covering_ok
    )
    if witness.witness_size * witness.ball_n > witness.ball_5n:
        raise RuntimeError("disjointness bound |X||S^n| <= |S^{5n}| violated")
    return witness


# ---------------------------------------------------------------------------
# Coset saturation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetSaturation:
    """Trajectory of left cosets met by S^j and its stabilization radius."""

    r: int
    trajectory: tuple[int, ...]
    index: int


def left_coset_labels(ball: Ball, sub: SubgroupOracle) -> np.ndarray:
    """Label of the left coset xH of each element of a closed ball of G, in order of first appearance.

    H is the set of members, so the identity's coset H gets label 0.  Raises
    OracleError when the identity is not a member, when |H| does not divide
    |G|, or when two cosets overlap (H is then no subgroup).
    """
    group = ball.group
    if not sub.contains(ball.elements[0]):
        raise OracleError(f"{sub.name}: identity not a member")
    members = [h for h in ball.elements if sub.contains(h)]
    if ball.size % len(members) != 0:
        raise OracleError(f"{sub.name}: membership count {len(members)} does not divide {ball.size}")
    index = ball.index()
    labels = np.full(ball.size, -1, dtype=np.int64)
    label = 0
    for i, x in enumerate(ball.elements):
        if labels[i] >= 0:
            continue
        coset = [index[group.mul(x, h)] for h in members]
        if (labels[coset] >= 0).any():
            raise OracleError(f"{sub.name}: left cosets overlap, so it is not a subgroup")
        labels[coset] = label
        label += 1
    return labels


def coset_saturation(group: Group, gens: GeneratingSet, sub: SubgroupOracle) -> CosetSaturation:
    """Smallest r with S^{r+1} Gamma = S^r Gamma, asserting G = S^r Gamma."""
    ball = closed_ball(group, gens)
    # labels appear in ball order, so S^j meets 1 + (the largest label in S^j) cosets
    largest = np.maximum.accumulate(left_coset_labels(ball, sub))
    trajectory = tuple(int(c) + 1 for c in largest[np.subtract(ball.ball_sizes, 1)])
    index = trajectory[-1]
    r = 0
    while r + 1 < len(trajectory) and trajectory[r + 1] != trajectory[r]:
        r += 1
    if trajectory[r] != index:
        raise OracleError(f"{sub.name}: trajectory stabilized at {trajectory[r]} of {index} cosets")
    return CosetSaturation(r, trajectory, index)
