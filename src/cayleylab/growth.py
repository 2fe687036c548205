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
element x it expands.  A closure (a BFS with no max_radius) keeps the index
of each product in its successor table, so the Cayley graph is enumerated once
and never again; a ball enumerated to a radius keeps no table, even when it
completes, since only a closure becomes a Cayley graph.  A closure on a group
without a codec is refused before the BFS starts.  A ball keeps its rows and
no bytes; its elements, the rows as tuples, are built on first read.

A ball is its own growth profile: it sums its sphere sizes once, into
``ball_sizes``, and the doubling, flatness and moderate-growth diagnostics
read those totals.
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

from .groups import GeneratingSet, Group, ResourceRefusal, SpecSemanticError, order_cap, row_keys

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
    the full boundary).  A complete closure carries ``successors``, an int64
    array of shape (k, size) whose entry [i, j] is the index of
    gens.elements[i] * elements[j]; every other ball carries None: a
    truncated one never expanded its last sphere, and one enumerated to a
    radius is read for its sphere sizes alone.
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
    closure (no max_radius) needs a codec and is refused without one; it is
    the only ball that keeps its successor table.
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
    closure = max_radius is None
    frontier = np.array([group.identity()], dtype=np.int64)
    blocks = [frontier]  # coordinate rows, one block per sphere, each sorted by key
    ranks = None if codec is None else [codec.rank(frontier)]  # the codec's keys, per sphere
    starts = [0]
    spheres = [1]
    size = 1
    rows: list[np.ndarray] = []  # a closure's successor indices per expanded sphere, shape (k, sphere size)
    truncated = False
    capped = False
    while True:
        if not closure and len(spheres) - 1 >= max_radius:
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
        if closure:
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
    successors = np.concatenate(rows, axis=1) if closure and not truncated else None
    rows.clear()
    if codec is None:
        # a ball without a codec is never a closure: from row order to
        # canonical byte order, sphere by sphere in place, one encode per
        # element of each sphere that has more than one
        for start, n in zip(starts, spheres):
            if n > 1:
                sphere = X[start : start + n]
                codes = list(map(group.encode, _row_tuples(sphere)))
                sphere[:] = sphere[sorted(range(n), key=codes.__getitem__)]
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
