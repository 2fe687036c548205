"""Basic commutators, generalised commutators and the four progression models.

Formal commutators are nested tuples over letter indices: a leaf is an int in
[0, r) and a bracket is a pair (u, v) standing for [u, v] = u^-1 v^-1 u v.
The fixed total order on trees sorts by total weight, then weight vector
(lexicographically), then a structural encoding, so equal-weight-vector
entries are consecutive and lower weight always comes first.

A commutator is a tree with a sign in {+1,-1} attached to every letter
occurrence, and one type serves both lists.  A basic commutator is a basic
shape with every sign +1.  Generalised commutators take every shape with all
its sign patterns; brackets are formed only for canonical pairs whose first
argument is strictly later in the tree order (the reversed bracket is the
groupwise inverse, which symmetric exponent ranges already cover), and
formally trivial brackets on equal shapes are dropped.  This keeps the list
minimal: rank 2 step 2 gives x1, x2 and the four sign variants of [x2, x1].
Both lists come from one shape recursion; basic shapes add one condition on
each bracket.

The ordered, nilpotent and nilcomplete progressions are one ordered product
of power ranges over one such list (the r letters, the basic or the
generalised commutators); a commutator's side length L^chi is the product of
L over its leaves, and adjacent factors that are powers of one element merge
into one power range.  Enumeration of progressions is extensional: a
progression is the set of its elements' int64 coordinate rows, every product
a ``left_mul`` of the group, and never encoded.  The exponent-box kinds are
set products of power ranges; the nilprogression is built level by level in
word length, the words with c_i letters x_i^{+-1} being x_i^{+-1} times the
words with one such letter fewer.  Rows are deduplicated and compared through
one integer key per row.  Verification of containments and power laws is
exhaustive set comparison, never symbolic collection; the power laws walk P,
P^2, ... once, under one work meter, and only their greedy cover reads an
order, the target's canonical-byte order, on tuples.

On a finite group, nilpotency comes from one lower central series (each term
the normal closure of the commutators of the last with the generators):
progression_spec holds the generators to class at most s with it, the
class being its length.  commutator_depth needs only its first term, [G, G],
and builds just that one normal closure.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import FreeNilpotentGroup, GeneratingSet, Group, ResourceRefusal, commutator, conjugate, row_keys, symmetrize

__all__ = [
    "hall_basis",
    "GenCommutator",
    "GENCOMM_CONVENTION",
    "generalised_commutators",
    "ProgressionSpec",
    "ProgressionSet",
    "progression_spec",
    "enumerate_progression",
    "NestingReport",
    "verify_nesting",
    "PropernessReport",
    "verify_properness",
    "PowerLawReport",
    "verify_power_laws",
    "CommutatorDepthReport",
    "commutator_depth",
    "weight_vector",
    "PROGRESSION_WORK_CAP",
    "HALL_SIZE_CAP",
]

# group products one progression check may make: criterion 04's power pass
# needs 1.40 M, and the basic-commutator box of rank 3, step 3 about 7.2 M
PROGRESSION_WORK_CAP = 1_500_000
HALL_SIZE_CAP = 10**4
CLOSURE_SIZE_CAP = 10**6  # elements of a normal closure
MAX_POWER = 64  # largest m tried for P(nL) inside P(L)^m
# bytes of the block of products one set product allocates before it dedupes,
# and of the rows of one power range: the largest block the tests and the
# benchmark allocate is 55,269,864, in `nilprog proper -r 3 -s 3 -L 1,1,1`
# before its work-cap refusal, and the largest power range 12,800,032
# (freenil:r=1,s=4, bound 200,000)
SET_PRODUCT_BYTE_CAP = 1 << 28

GENCOMM_CONVENTION = "leaf-signed; canonical first-argument-major pairs; trivial brackets dropped"

KINDS = ("ordered", "nilprogression", "nilpotent", "nilcomplete")


# ---------------------------------------------------------------------------
# Commutator trees
# ---------------------------------------------------------------------------


def weight_vector(tree, r: int) -> tuple[int, ...]:
    if isinstance(tree, int):
        out = [0] * r
        out[tree] = 1
        return tuple(out)
    left = weight_vector(tree[0], r)
    right = weight_vector(tree[1], r)
    return tuple(a + b for a, b in zip(left, right))


def total_weight(tree) -> int:
    if isinstance(tree, int):
        return 1
    return total_weight(tree[0]) + total_weight(tree[1])


def tree_text(tree) -> str:
    if isinstance(tree, int):
        return f"x{tree + 1}"
    return f"[{tree_text(tree[0])},{tree_text(tree[1])}]"


def tree_key(tree, r: int) -> tuple:
    # weight vectors compare colexicographically so that x1 < x2 < ... < xr
    return (total_weight(tree), tuple(reversed(weight_vector(tree, r))), tree_text(tree))


def _shapes(r: int, s: int, basic: bool) -> list:
    """Commutator shapes of total weight <= s in tree order.

    [u, v] is a shape when u, v are shapes and v comes strictly before u; a
    basic commutator also needs the right component of a bracket u not to come
    after v.  The count is held to HALL_SIZE_CAP before anything past it is
    built: the r letters, then the r(r-1)/2 pairs of distinct letters (the
    weight-2 shapes, basic or not), then each shape as it is found.
    """
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    too_many = f"commutator shapes for (r={r}, s={s}) exceed {HALL_SIZE_CAP}"
    if r + (r * (r - 1) // 2 if s >= 2 else 0) > HALL_SIZE_CAP:
        raise ResourceRefusal(too_many)
    shapes: list = list(range(r))
    by_weight: dict[int, list] = {1: list(range(r))}
    for w in range(2, s + 1):
        layer = []
        for wu in range(1, w):
            for u in by_weight[wu]:
                ku = tree_key(u, r)
                for v in by_weight[w - wu]:
                    kv = tree_key(v, r)
                    if kv >= ku or (basic and not isinstance(u, int) and tree_key(u[1], r) > kv):
                        continue
                    layer.append((u, v))
                    if len(shapes) + len(layer) > HALL_SIZE_CAP:
                        raise ResourceRefusal(too_many)
        layer.sort(key=lambda t: tree_key(t, r))
        by_weight[w] = layer
        shapes.extend(layer)
    return shapes


# ---------------------------------------------------------------------------
# Commutators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenCommutator:
    """Commutator shape with one sign per letter occurrence (left-to-right);
    a basic commutator is one whose signs are all +1."""

    shape: object
    signs: tuple[int, ...]

    def _fold(self, leaf, bracket):
        """leaf(letter, sign) at each leaf, bracket(left, right) at each bracket."""
        it = iter(self.signs)

        def go(tree):
            if isinstance(tree, int):
                return leaf(tree, next(it))
            return bracket(go(tree[0]), go(tree[1]))

        return go(self.shape)

    def text(self) -> str:
        return self._fold(lambda i, eps: f"x{i + 1}" + ("" if eps == 1 else "^-1"), lambda a, b: f"[{a},{b}]")

    def evaluate(self, group: Group, gens: list):
        return self._fold(lambda i, eps: gens[i] if eps == 1 else group.inv(gens[i]), lambda a, b: commutator(group, a, b))


def hall_basis(r: int, s: int) -> tuple[GenCommutator, ...]:
    """Basic commutators of total weight <= s on r letters: the basic shapes, every sign +1."""
    return tuple(GenCommutator(c, (1,) * total_weight(c)) for c in _shapes(r, s, basic=True))


def generalised_commutators(r: int, s: int) -> tuple[GenCommutator, ...]:
    """Every shape with each of its sign patterns, +1 before -1 leaf by leaf
    from the left, sign variants consecutive (see GENCOMM_CONVENTION)."""
    entries: list[GenCommutator] = []
    for shape in _shapes(r, s, basic=False):
        nleaves = total_weight(shape)
        variants = [(1,)] if nleaves == 1 else list(itertools.product((1, -1), repeat=nleaves))
        if len(entries) + len(variants) > HALL_SIZE_CAP:
            raise ResourceRefusal(f"generalised commutators for (r={r}, s={s}) exceed {HALL_SIZE_CAP} entries")
        entries.extend(GenCommutator(shape, signs) for signs in variants)
    return tuple(entries)


# ---------------------------------------------------------------------------
# Progressions
# ---------------------------------------------------------------------------


def _l_chi(L: tuple[int, ...], tree) -> int:
    """L^chi for the weight vector chi of tree: the product of L over its leaves."""
    if isinstance(tree, int):
        return L[tree]
    return _l_chi(L, tree[0]) * _l_chi(L, tree[1])


class _WorkMeter:
    """Accumulated group-multiplication budget; refuses instead of approximating."""

    def __init__(self):
        self.used = 0

    def charge(self, amount: int, ahead: int = 0) -> None:
        """Record `amount` products, and refuse once they and the `ahead` more
        known to follow would pass the cap."""
        self.used += amount
        if self.used + ahead > PROGRESSION_WORK_CAP:
            raise ResourceRefusal(
                f"progression enumeration needs at least {self.used + ahead} group products, over the work cap {PROGRESSION_WORK_CAP}"
            )


@dataclass(frozen=True)
class ProgressionSpec:
    """One of the four progression models over given generators and side lengths."""

    kind: str
    r: int
    s: int
    L: tuple[int, ...]
    group: Group
    generators: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if len(self.L) != self.r or len(self.generators) != self.r:
            raise ValueError("rank mismatch between L and generators")
        if any(l < 0 for l in self.L):
            raise ValueError("side lengths must be nonnegative")


def progression_spec(
    kind: str,
    r: int,
    s: int,
    L: tuple[int, ...],
    group: Optional[Group] = None,
    generators: Optional[list] = None,
) -> ProgressionSpec:
    """Spec with the free-nilpotent backend (exact model) as the default.

    On a finite group the generators must generate a subgroup of nilpotency
    class at most s; otherwise ValueError.
    """
    if group is None:
        group = FreeNilpotentGroup(r, s)
    if generators is None:
        generators = group.raw_generators()[:r]
    spec = ProgressionSpec(kind, r, s, tuple(L), group, tuple(generators))
    if group.order is not None and len(_lower_central_series(group, list(generators))) > s:
        raise ValueError("generators do not generate an s-step nilpotent subgroup")
    return spec


@dataclass(frozen=True, eq=False)
class ProgressionSet:
    """Deduplicated element set of a progression, as int64 coordinate rows,
    with its formal exponent box."""

    spec: ProgressionSpec
    rows: np.ndarray
    formal_box: Optional[int]

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def members(self) -> frozenset:
        """The elements as coordinate tuples, built on first read."""
        return frozenset(map(tuple, self.rows.tolist()))

    @property
    def proper(self) -> Optional[bool]:
        if self.spec.kind != "nilpotent" or self.formal_box is None:
            return None
        return self.cardinality == self.formal_box


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows."""
    (key,) = row_keys(rows)
    return rows[np.unique(key, return_index=True)[1]]


def _isin(keys: np.ndarray, known: np.ndarray) -> np.ndarray:
    """For each key, whether it is among known: np.isin by a binary search.

    np.isin sorts through np.unique, whose check for a masked array imports
    numpy.ma: about 12 ms of a small command's start-up.
    """
    if not len(known):
        return np.zeros(keys.shape, dtype=bool)
    known = np.sort(known)
    return known[np.minimum(np.searchsorted(known, keys), len(known) - 1)] == keys


def _within(small: np.ndarray, big: np.ndarray) -> np.ndarray:
    """For each row of small, whether it is a row of big."""
    return _isin(*row_keys(small, big))


def _set_product(group: Group, A: np.ndarray, B: np.ndarray, meter: _WorkMeter, ahead: int) -> np.ndarray:
    """The distinct products a*b, a a row of A and b a row of B; A is the short side.

    Left multiplication by one a is injective, so each block a*B is distinct
    already when B is, and only the whole product needs a dedupe.  The block
    of all products is refused before it is allocated when its bytes pass
    SET_PRODUCT_BYTE_CAP.
    """
    meter.charge(len(A) * len(B), ahead)
    nbytes = len(A) * B.size * 8
    if nbytes > SET_PRODUCT_BYTE_CAP:
        raise ResourceRefusal(
            f"a set product of {len(A)} by {len(B)} rows needs {nbytes} bytes, over the cap of {SET_PRODUCT_BYTE_CAP} bytes"
        )
    out = np.empty((len(A), *B.shape), dtype=np.int64)
    for block, a in zip(out, A.tolist()):
        block[:] = group.left_mul(a, B)
    return _distinct(out.reshape(-1, B.shape[1]))


def _check_power_range_bytes(bound: int, width: int) -> None:
    """Refuse a power range whose 2 bound + 1 rows of width coordinates pass SET_PRODUCT_BYTE_CAP."""
    nbytes = (2 * bound + 1) * width * 8
    if nbytes > SET_PRODUCT_BYTE_CAP:
        raise ResourceRefusal(f"a power range of {2 * bound + 1} rows needs {nbytes} bytes, over the cap of {SET_PRODUCT_BYTE_CAP} bytes")


def _power_range(group: Group, x, bound: int, meter: _WorkMeter) -> np.ndarray:
    """{x^l : |l| <= bound}, each direction by doubling: x^k times the rows of
    x^0 .. x^(k-1) gives those of x^k .. x^(2k-1).  Refused before any row
    is built when the 2 bound + 1 rows pass SET_PRODUCT_BYTE_CAP."""
    meter.charge(2 * bound + 1)
    _check_power_range_bytes(bound, len(group.identity()))
    halves = []
    for step in (x, group.inv(x)):
        rows = np.array([group.identity()], dtype=np.int64)
        top = step  # x^len(rows)
        while len(rows) <= bound:
            rows = np.concatenate([rows, group.left_mul(top, rows[: bound + 1 - len(rows)])])
            if len(rows) <= bound:
                top = group.mul(top, top)
        halves.append(rows)
    return _distinct(np.concatenate(halves))


def _merge_powers(group: Group, factors: list[tuple[object, int]]) -> list[tuple[object, int]]:
    """Each run of adjacent factors whose values are equal or inverse as one
    factor whose bound is the sum of theirs: y^a y^b over |a| <= A, |b| <= B
    is y^l over |l| <= A + B."""
    merged: list[tuple[object, int]] = []
    for y, bound in factors:
        if merged and y in (merged[-1][0], group.inv(merged[-1][0])):
            merged[-1] = (merged[-1][0], merged[-1][1] + bound)
        else:
            merged.append((y, bound))
    return merged


def _ordered_product(group: Group, factors: list[tuple[object, int]], meter: _WorkMeter) -> np.ndarray:
    """Rows of the products y_1^{l_1} ... y_t^{l_t} with |l_i| <= bound_i, right-to-left.

    Adjacent powers of one element merge first.  The partial product only
    grows, so the products still to come charge at least its size times the
    sizes of their power ranges: the meter refuses on that prediction before
    the partial product outgrows it.
    """
    ranges = [_power_range(group, y, bound, meter) for y, bound in reversed(_merge_powers(group, factors))]
    if not ranges:
        return np.array([group.identity()], dtype=np.int64)
    acc = ranges[0]
    rest = sum(map(len, ranges[1:]))
    for powers in ranges[1:]:
        rest -= len(powers)
        acc = _set_product(group, powers, acc, meter, len(acc) * rest)
    return acc


def _factors_for(spec: ProgressionSpec) -> tuple[list[tuple[object, int]], int]:
    """Each commutator of an exponent-box kind, evaluated, with its side length L^chi:
    the r letters (ordered), the basic (nilpotent) or the generalised (nilcomplete).

    A power range too large for SET_PRODUCT_BYTE_CAP is refused before any
    commutator is evaluated.  Merging adjacent powers only raises a bound,
    and _ordered_product builds every range before its first set product,
    so it would refuse the same run, on these bytes or on the work cap.
    """
    if spec.kind == "ordered":
        comms = tuple(GenCommutator(i, (1,)) for i in range(spec.r))
    elif spec.kind == "nilpotent":
        comms = hall_basis(spec.r, spec.s)
    else:
        comms = generalised_commutators(spec.r, spec.s)
    bounds = [_l_chi(spec.L, e.shape) for e in comms]
    width = len(spec.group.identity())
    for bound in reversed(bounds):  # the order _ordered_product builds the ranges in
        _check_power_range_bytes(bound, width)
    gens = list(spec.generators)
    factors = [(e.evaluate(spec.group, gens), bound) for e, bound in zip(comms, bounds)]
    box = math.prod(2 * b + 1 for _, b in factors)
    return factors, box


def _word_rows(spec: ProgressionSpec, meter: _WorkMeter) -> np.ndarray:
    """Rows of the words over the x_i^{+-1} with at most L_i letters x_i^{+-1}.

    E(c), the words with exactly c_i letters x_i^{+-1}, is the identity for
    c = 0 and otherwise the union over i with c_i > 0 of y E(c - e_i), y in
    {x_i, x_i^-1}: each word split at its first letter.  The E(c) are built in
    order of |c|, and only the last level is kept.  Each product charges the
    meter 1, so E(c) charges sum_i 2 |E(c - e_i)|: by Pascal's rule at most
    the number of words it stands for.
    """
    group = spec.group
    letters = [(x, group.inv(x)) for x in spec.generators]
    level = {(0,) * spec.r: np.array([group.identity()], dtype=np.int64)}
    found = list(level.values())
    while level:
        longer = sorted({c[:i] + (c[i] + 1,) + c[i + 1 :] for c in level for i in range(spec.r) if c[i] < spec.L[i]})
        nxt = {}
        for c in longer:
            blocks = []
            for i, ci in enumerate(c):
                if ci:
                    words = level[c[:i] + (ci - 1,) + c[i + 1 :]]
                    meter.charge(2 * len(words))
                    blocks += [group.left_mul(y, words) for y in letters[i]]
            nxt[c] = _distinct(np.concatenate(blocks))
        level = nxt
        found += level.values()
    return _distinct(np.concatenate(found))


def enumerate_progression(spec: ProgressionSpec) -> ProgressionSet:
    """Exact element set of the progression."""
    meter = _WorkMeter()
    if spec.kind == "nilprogression":
        return ProgressionSet(spec, _word_rows(spec, meter), None)
    factors, box = _factors_for(spec)
    return ProgressionSet(spec, _ordered_product(spec.group, factors, meter), box)


# ---------------------------------------------------------------------------
# Verifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Containment:
    lhs: str
    rhs: str
    holds: bool
    counterexample: Optional[str] = None

    def to_dict(self) -> dict:
        out = {"lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _check_containment(group: Group, small: ProgressionSet, big: ProgressionSet, lhs: str, rhs: str) -> Containment:
    missing = small.rows[~_within(small.rows, big.rows)]
    if not len(missing):
        return Containment(lhs, rhs, True)
    return Containment(lhs, rhs, False, group.describe(min(map(tuple, missing.tolist()), key=group.encode)))


@dataclass(frozen=True)
class NestingReport:
    r: int
    s: int
    L: tuple[int, ...]
    cardinalities: dict[str, int]
    containments: tuple[Containment, ...]
    _shown = ("convention", "holds")

    @property
    def convention(self) -> str:
        return GENCOMM_CONVENTION

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.containments)


def verify_nesting(r: int, s: int, L: tuple[int, ...]) -> NestingReport:
    """Exhaustive check of ordered <= nilprogression <= nilpotent <= nilcomplete
    in the free nilpotent group of rank r and step s."""
    sets = {}
    for kind in KINDS:
        spec = progression_spec(kind, r, s, tuple(L))
        sets[kind] = enumerate_progression(spec)
    g = sets["ordered"].spec.group
    chain = [
        _check_containment(g, sets["ordered"], sets["nilprogression"], "ordered", "nilprogression"),
        _check_containment(g, sets["nilprogression"], sets["nilpotent"], "nilprogression", "nilpotent"),
        _check_containment(g, sets["nilpotent"], sets["nilcomplete"], "nilpotent", "nilcomplete"),
    ]
    return NestingReport(
        r,
        s,
        tuple(L),
        {kind: sets[kind].cardinality for kind in KINDS},
        tuple(chain),
    )


@dataclass(frozen=True)
class PropernessReport:
    r: int
    s: int
    L: tuple[int, ...]
    cardinality: int
    formal_box: int
    proper: bool


def verify_properness(spec: ProgressionSpec) -> PropernessReport:
    """Compare |P| with the product of (2 L^chi + 1) over the basic commutators."""
    if spec.kind != "nilpotent":
        raise ValueError("properness is defined for the nilpotent kind")
    pset = enumerate_progression(spec)
    return PropernessReport(spec.r, spec.s, spec.L, pset.cardinality, pset.formal_box, pset.proper)


@dataclass(frozen=True)
class PowerLawReport:
    r: int
    s: int
    L: tuple[int, ...]
    n: int
    M: int
    power_containment_holds: bool
    minimal_power_m: Optional[int]
    cover_size: Optional[int]
    cover_verified: Optional[bool]


def verify_power_laws(
    r: int,
    s: int,
    L: tuple[int, ...],
    n: int,
    M: Optional[int] = None,
    with_min_power: bool = True,
) -> PowerLawReport:
    """Power laws for the complete progression in the free nilpotent group of
    rank r and step s: asserts P(L)^n inside P(nL) exactly, reports the minimal
    m with P(nL) inside P(L)^m, and a greedy translate cover of P(ML) by P(L)
    with a verified certificate."""
    base_spec = progression_spec("nilcomplete", r, s, tuple(L))
    g = base_spec.group
    base = enumerate_progression(base_spec)
    nL = tuple(n * l for l in L)
    dilated = enumerate_progression(progression_spec("nilcomplete", r, s, nL)).rows
    P = base.rows

    # one pass over the powers P^m, each P times the last one: part (2),
    # asserted exactly, reads P^1..P^n against the dilate, and part (1),
    # reported, the least m <= MAX_POWER with the dilate inside P^m.  P holds
    # the identity, so P^(m+1) is P^m together with P times the rows that P^m
    # adds to P^(m-1)
    meter = _WorkMeter()
    known = P
    frontier = P
    m = 1
    holds = bool(_within(P, dilated).all())
    minimal_m = 1 if with_min_power and _within(dilated, P).all() else None
    while len(frontier) and (m < n or (with_min_power and minimal_m is None and m < MAX_POWER)):
        product = _set_product(g, P, frontier, meter, 0)
        new = product[~_within(product, known)]
        known = np.concatenate([known, new])
        frontier = new
        m += 1
        if m <= n:
            holds = holds and bool(_within(new, dilated).all())
        if with_min_power and minimal_m is None and m <= MAX_POWER and _within(dilated, known).all():
            minimal_m = m

    # part (3), reported with a verified greedy-cover certificate, on tuples
    cover_size = None
    cover_verified = None
    if M is not None:
        meter = _WorkMeter()
        ML = tuple(M * l for l in L)
        target = set(map(tuple, enumerate_progression(progression_spec("nilcomplete", r, s, ML)).rows.tolist()))
        base_elements = list(map(tuple, P.tolist()))
        covered = set()
        translates: list = []
        for z in sorted(target, key=g.encode):
            if z in covered:
                continue
            translates.append(z)
            meter.charge(len(base_elements))
            covered.update(g.mul(p, z) for p in base_elements)
        cover_size = len(translates)
        cover_verified = target <= covered
    return PowerLawReport(r, s, tuple(L), n, M, holds, minimal_m, cover_size, cover_verified)


# ---------------------------------------------------------------------------
# Commutator subgroup depth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommutatorDepthReport:
    m: int
    gamma: int
    commutator_order: int
    group_order: int
    _shown = ("ratio",)

    @property
    def ratio(self) -> float:
        return self.m / math.sqrt(self.gamma) if self.gamma > 0 else 0.0


def _normal_closure(group: Group, seed: list, conjugators: list) -> frozenset:
    """Smallest subgroup containing seed and closed under the given conjugations.

    The closure is the BFS ball of its generators: seed, then every conjugate
    of a generator that escapes the ball, until none escapes.  In a finite
    group, conjugates of the generators staying inside suffice.
    """
    from .growth import enumerate_ball  # here, so that progressions alone never load growth

    generators = list(seed)
    while True:
        gens = symmetrize(group, generators)
        ball = enumerate_ball(group, gens, cap=CLOSURE_SIZE_CAP)
        if ball.capped:
            raise ResourceRefusal("normal closure exceeds size cap")
        members = frozenset(ball.elements)
        escaped = {conjugate(group, h, c) for h in gens.elements for c in conjugators}.difference(members)
        if not escaped:
            return members
        generators += escaped


def derived_subgroup(group: Group, generators: list) -> frozenset:
    """[G, G] as the normal closure of the generator commutators."""
    seed = [commutator(group, a, b) for a in generators for b in generators]
    return _normal_closure(group, seed, list(generators))


def _lower_central_series(group: Group, generators: list) -> list[frozenset]:
    """gamma_2, gamma_3, ... of the finite group G the generators generate, down to
    the trivial group, so G has nilpotency class len(series).

    Each term lies inside the one before; one that equals it never shrinks
    again, so the group is not nilpotent and ValueError is raised.
    """
    series = [derived_subgroup(group, generators)]
    while len(series[-1]) > 1:
        seed = [commutator(group, h, x) for h in series[-1] for x in generators]
        nxt = _normal_closure(group, seed, list(generators))
        if nxt == series[-1]:
            raise ValueError("lower central series did not terminate: group is not nilpotent")
        series.append(nxt)
    return series


def commutator_depth(group: Group, pset: ProgressionSet) -> CommutatorDepthReport:
    """Minimal m with [G,G] inside P^m, where P generates the finite nilpotent G."""
    from .growth import enumerate_ball

    if group.order is None:
        raise ValueError("needs a finite group")
    comm = derived_subgroup(group, list(pset.spec.generators))
    # P must itself be symmetric with identity so that P^m is the BFS ball,
    # which orders itself: the order of P's elements reaches no report
    pgens = GeneratingSet(group, tuple(pset.members))

    ball = enumerate_ball(group, pgens)
    if ball.size != group.order:
        raise ValueError(f"progression generates a proper subgroup of order {ball.size}")
    gamma = ball.radius
    # the last position in the ball that holds an element of [G, G]; the
    # ball closed, so the group has a codec and its ranks stand in for the elements
    rank = group.codec.rank
    last = np.flatnonzero(_isin(rank(ball.rows), rank(np.array(list(comm), dtype=np.int64))))[-1]
    # the ball is sphere-major: the radius of position i is the number of balls S^r of size <= i
    m = bisect.bisect_right(ball.ball_sizes, int(last))
    return CommutatorDepthReport(m, gamma, len(comm), group.order)
