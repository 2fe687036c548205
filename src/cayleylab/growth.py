"""Sphere counts, ball enumeration and growth diagnostics for Cayley graphs.

The BFS here is the single source of truth for every cardinality in the
package: spheres and balls are exact integer counts, deduplicated on the
elements themselves.  It runs on one thread, and its output is a pure
function of the group and the generating set.

There is one sphere loop, the BFS on coordinate rows: a sphere is an int64
array of rows, each generator acts on all of it at once, and an integer key
per row stands in for the element.  The key is the codec's rank in canonical
byte order when the group has a codec (``group.codec``: every finite family
whose ranks fit below 2^62), and ``row_keys`` otherwise (the free nilpotent
groups, products with an infinite factor, and finite groups whose ranks pass
2^62).  S is symmetric and holds the identity, so the loop keeps only the
last two spheres.  It has two readers.  ``count_spheres`` keeps the sphere
sizes alone, a ``Growth`` profile, to a radius or to closure; ``grow``,
``diam`` and ``verify growth`` read it.  ``enumerate_ball`` runs to closure
and joins the spheres' rows, sphere by sphere in canonical byte order, and
the index of every product s*x into a successor table, so the Cayley graph is
enumerated once and never again; its ``Ball`` is a profile too, and builds
its elements, the rows as tuples, on first read.  A closure on a group
without a codec is refused before the BFS starts.

The doubling, flatness and moderate-growth diagnostics read a profile's
``ball_sizes``, summed once.
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
    "Growth",
    "count_spheres",
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
class Growth:
    """The growth profile of S: the sizes of the spheres S^0, S^1, ...
    around the identity, and ``ball_sizes``, their running totals, summed
    once; every growth diagnostic reads them.

    ``truncated`` means the BFS stopped at its radius or at the cap
    (``capped``) first; otherwise the profile is ``complete``: the BFS
    closed, and the last sphere is the full boundary.
    """

    group: Group = field(repr=False)
    gens: GeneratingSet = field(repr=False)
    sphere_sizes: tuple[int, ...]
    truncated: bool = field(repr=False)
    capped: bool = field(repr=False)
    _shown = ("ball_sizes", "diameter", "group_order", "k", "truncated")

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

    @property
    def group_order(self) -> Optional[int]:
        return self.group.order

    @property
    def k(self) -> int:
        return self.gens.k

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

    def columns(self) -> dict:
        # ratios only on a complete profile, where both radii are inside the closure
        scan = doubling_scan(self) if self.complete else DoublingScan((), ())
        r2, r5 = dict(scan.ratios_2n1), dict(scan.ratios_5n)
        n = range(len(self.sphere_sizes))
        return {
            "n": n,
            "sphere": self.sphere_sizes,
            "ball": self.ball_sizes,
            "ratio_2n1": [float(r2[i]) if i in r2 else "" for i in n],
            "ratio_5n": [float(r5[i]) if i in r5 else "" for i in n],
        }


@dataclass(frozen=True)
class Ball(Growth):
    """The closure of S, or its capped prefix: the elements, sphere by sphere
    and in canonical byte order within a sphere, with its growth profile.

    ``rows`` holds the elements as an int64 array of coordinate rows in ball
    order, and ``elements`` reads them back as tuples on first use.  A
    complete ball carries ``successors``, an int64 array of shape (k, size)
    whose entry [i, j] is the index of gens.elements[i] * elements[j]; a
    capped one, which never expanded its last sphere, carries None.
    """

    rows: np.ndarray = field(repr=False, compare=False)
    successors: Optional[np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def elements(self) -> tuple:
        """The elements in ball order, as coordinate tuples."""
        return _row_tuples(self.rows)


def _closure_needs_codec(group: Group) -> None:
    if group.codec is None:
        why = "is infinite" if group.order is None else "has coordinate ranks past 2^62, so no codec"
        raise ResourceRefusal(f"{group.name} {why}: closure enumeration needs max_radius")


def count_spheres(group: Group, gens: GeneratingSet, max_radius: Optional[int] = None, cap: Optional[int] = None) -> Growth:
    """The sphere sizes out to max_radius (or closure), and nothing else.

    ``cap`` bounds the number of elements (default: the order cap); a sphere
    that would cross it stops the count, capped.  A closure (no max_radius)
    needs a codec and is refused without one.
    """
    if max_radius is None:
        _closure_needs_codec(group)
    steps = itertools.islice(_spheres(group, gens, order_cap(cap)), max_radius)
    spheres = [1, *(len(sphere) for _, sphere in steps)]
    if not spheres[-1]:  # the ball closed
        return Growth(group, gens, tuple(spheres[:-1]), False, False)
    return Growth(group, gens, tuple(spheres), True, len(spheres) - 1 != max_radius)


def enumerate_ball(group: Group, gens: GeneratingSet, cap: Optional[int] = None) -> Ball:
    """The BFS ball of S out to closure, with its rows and successor table.

    ``cap`` bounds the number of elements (default: the order cap); a sphere
    that would cross it stops the BFS with a capped ball, which keeps no
    table.  A group without a codec is refused.
    """
    _closure_needs_codec(group)
    blocks = [np.array([group.identity()], dtype=np.int64)]  # coordinate rows, one block per sphere
    tables = []  # successor indices, one (k, sphere size) block per expanded sphere
    for succ, sphere in _spheres(group, gens, order_cap(cap)):
        tables.append(succ)
        blocks.append(sphere)
    closed = not len(blocks[-1])
    spheres = tuple(len(block) for block in blocks if len(block))
    # each list goes once it is joined: at 10^6 elements a copy of the rows is
    # over 100 MB, and of the successors k * 8 MB
    X = np.concatenate(blocks)
    blocks.clear()
    successors = np.concatenate(tables, axis=1) if closed else None
    tables.clear()
    return Ball(group, gens, spheres, not closed, not closed, X, successors)


def _row_tuples(X: np.ndarray) -> tuple:
    """The rows of a 2-D int array (at least one column) as tuples of Python ints."""
    return tuple(zip(*X.T.tolist()))


def _spheres(group: Group, gens: GeneratingSet, limit: int):
    """The sphere loop: the BFS on coordinate rows, keeping the last two spheres.

    Each expansion of the last sphere yields (succ, sphere): succ, of shape
    (k, last sphere's size), holds the ball index of gens.elements[i] times
    its j-th element, and sphere the new sphere's rows, sorted by key.  The
    loop ends after an empty sphere (the ball closed), or without a yield
    where the new sphere would take the ball past limit elements.
    """
    codec = group.codec
    frontier = np.array([group.identity()], dtype=np.int64)
    # the last two spheres, as their codec ranks or, without a codec, their
    # rows, and the ball index of their first elements
    last = [frontier if codec is None else codec.rank(frontier)]
    starts = [0]
    size = 1
    while True:
        products = np.stack([group.left_mul(s, frontier) for s in gens.elements])
        if codec is not None:
            known, keys = last, codec.rank(products)
        else:
            # keys of the last two spheres and the products together; they
            # order rows lexicographically, so each sphere stays sorted
            *known, keys = row_keys(*last, products.reshape(-1, products.shape[-1]))
            keys = keys.reshape(products.shape[:-1])
        succ = np.full(keys.shape, -1, dtype=np.int64)
        # S is symmetric and holds the identity, so the products of sphere r
        # lie in spheres r-1, r and r+1; only the last is new
        for known_keys, start in zip(known, starts):
            at = np.minimum(np.searchsorted(known_keys, keys), len(known_keys) - 1)
            hit = known_keys[at] == keys
            succ[hit] = start + at[hit]
        new = succ < 0
        fresh, first, inverse = np.unique(keys[new], return_index=True, return_inverse=True)
        if size + len(fresh) > limit:
            return
        succ[new] = size + inverse
        frontier = products[new][first]
        del products, keys  # so that the next sphere's do not sit beside them
        yield succ, frontier
        if not len(fresh):
            return
        last = [last[-1], frontier if codec is None else fresh]
        starts = [starts[-1], size]
        size += len(fresh)


def _whole_group(profile: Growth) -> Growth:
    """profile, once it is known to cover the group: refuses when the BFS
    stopped first, and raises NonGeneratingError when S closes on a proper subgroup."""
    if profile.truncated:
        raise ResourceRefusal("ball enumeration truncated before closure")
    if profile.size < profile.group.order:
        raise NonGeneratingError(profile.size, profile.group.order)
    return profile


def closed_ball(group: Group, gens: GeneratingSet) -> Ball:
    """The whole group as one BFS ball, with its successor table:
    refuses a group without a codec or when the BFS stops first, and raises
    NonGeneratingError when S closes on a proper subgroup."""
    return _whole_group(enumerate_ball(group, gens))


def diameter(group: Group, gens: GeneratingSet) -> int:
    """Exact diameter, from the sphere sizes alone; refuses as closed_ball does."""
    return _whole_group(count_spheres(group, gens)).diameter


# ---------------------------------------------------------------------------
# Doubling and flatness diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingScan:
    """Exact doubling ratios |S^{2n+1}|/|S^n| and |S^{5n}|/|S^n| over in-range n."""

    ratios_2n1: tuple[tuple[int, Fraction], ...]
    ratios_5n: tuple[tuple[int, Fraction], ...]


def doubling_scan(ball: Growth) -> DoublingScan:
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


def doubling_at_scale(ball: Growth, eps: float, delta: float) -> DoublingWindow:
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


def flatness_report(ball: Growth) -> FlatnessReport:
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


def moderate_fit(ball: Growth, d: float) -> ModerateGrowthFit:
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
