"""Exact finite-group arithmetic: element backends, spec parsing, generating sets.

Every backend represents a group element as one flat tuple of Python ints,
its coordinates, and provides an injective, platform-independent byte
encoding.  Coordinates are canonical (each element has exactly one tuple), so
``==`` and ``hash`` on elements are equality in the group, and every set,
dict and index is keyed on the element itself; the canonical bytes only fix
the sort orders that reach a report.

Supported families: cyclic groups, products of cyclic groups, unitriangular
matrix groups over prime fields, lamplighter groups Z/M ltimes (Z/2)^M,
semidirect products Sym(n) ltimes F_p^n (with their sum-zero and alternating
subgroups), free nilpotent groups of given rank and step (modelled exactly as
units with constant term 1 in the degree-truncated free associative ring over
Z), and binary direct products of any of these.

Every family also has an array form: the coordinate tuple of an element is
a row of int64s, and ``left_mul`` multiplies a whole array of rows on the
left by one element at a time; a row read back with ``tolist`` is the
element itself.  The BFS in ``growth`` and the progression engine in
``nilprog`` run on those arrays, and ``row_keys`` compares their rows.  A
finite family whose ranks fit below RANK_LIMIT adds a ``codec`` (an
ArrayCodec), which ranks rows in canonical byte order without writing any
bytes; the BFS needs those ranks to close a ball.

Every finite family also names an abelian subgroup H, its ``abelian_split``:
the coset representatives of G/H and the map from an element to its coset
and its coordinates in H.  ``spectral`` splits the Laplacian by the
characters of H.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

DEFAULT_ORDER_CAP = 1 << 24
FREENIL_DIM_CAP = 1 << 12  # Magnus coefficients per free nilpotent element
# ranks of coordinate rows, and the coordinates of freenil rows, stay below
# this, so the sum of two coordinates, or of a rank and a coordinate, cannot
# wrap in int64
RANK_LIMIT = 1 << 62

__all__ = [
    "SpecSyntaxError",
    "SpecSemanticError",
    "ResourceRefusal",
    "OracleError",
    "GroupSpec",
    "parse_group_spec",
    "build_group",
    "Group",
    "ArrayCodec",
    "AbelianSplit",
    "GeneratingSet",
    "symmetrize",
    "SubgroupOracle",
    "RSResult",
    "reidemeister_schreier",
    "commutator",
    "conjugate",
    "order_cap",
    "row_keys",
]


class SpecSyntaxError(ValueError):
    """Malformed group-spec string; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class SpecSemanticError(ValueError):
    """Well-formed spec with invalid parameters (composite prime, zero modulus...)."""


class ResourceRefusal(RuntimeError):
    """Requested object exceeds the configured enumeration cap."""


class OracleError(RuntimeError):
    """A SubgroupOracle contradicted itself (not closed under product/inverse)."""


def order_cap(override: Optional[int] = None) -> int:
    """Group-order cap: explicit override, else CAYLEY_LAB_CAP env, else 2**24."""
    if override is not None:
        return override
    env = os.environ.get("CAYLEY_LAB_CAP")
    if not env:
        return DEFAULT_ORDER_CAP
    if not (env.isascii() and env.isdigit()):
        raise SpecSemanticError(f"CAYLEY_LAB_CAP must be a nonnegative integer; got {env!r}")
    return int(env)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _enc_u64(values: Iterable[int]) -> bytes:
    return b"".join(v.to_bytes(8, "little") for v in values)


# ---------------------------------------------------------------------------
# Group-spec strings and their grammar
# ---------------------------------------------------------------------------

FAMILIES = ("cyclic", "abelian", "ut", "heis", "lamplighter", "symfp", "freenil")
SYMFP_VARIANTS = ("L", "Gprime", "G")


@dataclass(frozen=True)
class GroupSpec:
    """Validated description of a constructible group.

    ``family`` is one of FAMILIES or ``"product"``; ``params`` holds the
    family-specific integers; ``variant`` applies to symfp only; ``factors``
    holds the two sub-specs of a product.
    """

    family: str
    params: tuple[tuple[str, int], ...] = ()
    variant: Optional[str] = None
    factors: Optional[tuple["GroupSpec", "GroupSpec"]] = None

    def param(self, key: str) -> int:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def param_list(self, key: str) -> tuple[int, ...]:
        return tuple(v for k, v in self.params if k == key)

    def __str__(self) -> str:
        if self.family == "product":
            a, b = self.factors
            return f"product({a})x({b})"
        parts = [f"{k}={v}" for k, v in self.params]
        if self.variant is not None:
            parts.append(f"variant={self.variant}")
        return f"{self.family}:" + ",".join(parts)


_POSITIONAL = {
    "cyclic": ("n",),
    "ut": ("dim", "p"),
    "heis": ("p",),
    "lamplighter": ("m",),
    "symfp": ("n", "p"),
    "freenil": ("r", "s"),
}


def _parse_params(text: str, base: int, family: str) -> tuple[tuple[tuple[str, int], ...], Optional[str]]:
    if not text:
        raise SpecSyntaxError("empty parameter list", base)
    items = text.split(",")
    named = any("=" in it for it in items)
    params: list[tuple[str, int]] = []
    variant: Optional[str] = None
    if named:
        pos = base
        seen: set[str] = set()
        for it in items:
            if "=" not in it:
                raise SpecSyntaxError("expected key=value", pos)
            key, _, val = it.partition("=")
            # abelian lists its moduli as one repeated key
            if key in seen and key != "moduli":
                raise SpecSyntaxError(f"repeated parameter {key!r}", pos)
            seen.add(key)
            if key == "variant":
                if val not in SYMFP_VARIANTS:
                    raise SpecSemanticError(f"unknown variant {val!r} (expected one of {SYMFP_VARIANTS})")
                variant = val
            else:
                if not (val.isascii() and val.isdigit()):
                    raise SpecSyntaxError(f"expected integer value for {key!r}", pos + len(key) + 1)
                params.append((key, int(val)))
            pos += len(it) + 1
    else:
        pos = base
        values = []
        for it in items:
            if not (it.isascii() and it.isdigit()):
                raise SpecSyntaxError("expected integer", pos)
            values.append(int(it))
            pos += len(it) + 1
        if family == "abelian":
            params = [("moduli", v) for v in values]
        else:
            keys = _POSITIONAL[family]
            if len(values) != len(keys):
                raise SpecSyntaxError(f"{family} takes {len(keys)} parameter(s), got {len(values)}", base)
            params = list(zip(keys, values))
    return tuple(params), variant


def _validate_spec(spec: GroupSpec) -> GroupSpec:
    fam = spec.family
    if fam == "product":
        return spec
    have = {k for k, _ in spec.params}
    if fam == "abelian":
        moduli = spec.param_list("moduli")
        if not moduli:
            raise SpecSemanticError("abelian needs at least one modulus")
        if any(m <= 0 for m in moduli):
            raise SpecSemanticError("zero or negative modulus")
        return spec
    required = set(_POSITIONAL[fam]) if fam != "heis" else {"p"}
    if have != required:
        raise SpecSemanticError(f"{fam} needs parameters {sorted(required)}, got {sorted(have)}")
    if any(v <= 0 for _, v in spec.params):
        raise SpecSemanticError("parameters must be positive")
    if fam in ("ut", "heis"):
        p = spec.param("p")
        if not _is_prime(p):
            raise SpecSemanticError(f"p={p} must be prime")
        if fam == "ut" and spec.param("dim") < 2:
            raise SpecSemanticError("ut needs dim >= 2")
    if fam == "symfp":
        n, p = spec.param("n"), spec.param("p")
        if not _is_prime(p):
            raise SpecSemanticError(f"p={p} must be prime")
        if p <= n:
            raise SpecSemanticError(f"symfp requires p > n, got n={n}, p={p}")
        if n < 2:
            raise SpecSemanticError("symfp needs n >= 2")
    # heis is an alias for ut:dim=3
    if fam == "heis":
        return GroupSpec("ut", (("dim", 3), ("p", spec.param("p"))))
    return spec


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string (grammar: ``family:params`` or ``product(spec)x(spec)``)."""
    spec, end = _parse_spec_at(text, 0)
    if end != len(text):
        raise SpecSyntaxError("trailing characters after spec", end)
    return spec


def _parse_spec_at(text: str, base: int) -> tuple[GroupSpec, int]:
    rest = text[base:]
    if rest.startswith("product("):
        open1 = base + len("product(")
        a, mid = _parse_spec_at(text, open1)
        if not text[mid:].startswith(")x("):
            raise SpecSyntaxError("expected ')x(' in product spec", mid)
        b, end = _parse_spec_at(text, mid + 3)
        if not text[end:].startswith(")"):
            raise SpecSyntaxError("expected closing ')'", end)
        return GroupSpec("product", factors=(a, b)), end + 1
    colon = text.find(":", base)
    if colon < 0:
        raise SpecSyntaxError("expected 'family:params'", base)
    fam = text[base:colon]
    if fam not in FAMILIES:
        raise SpecSyntaxError(f"unknown family {fam!r}", base)
    # parameters run to the next unbalanced ')' (inside a product) or end
    end = colon + 1
    while end < len(text) and text[end] != ")":
        end += 1
    params, variant = _parse_params(text[colon + 1 : end], colon + 1, fam)
    if variant is not None and fam != "symfp":
        raise SpecSemanticError("variant only applies to symfp")
    if fam == "symfp" and variant is None:
        variant = "L"
    spec = GroupSpec(fam, params, variant)
    return _validate_spec(spec), end


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class Group:
    """Handle for one concrete group: identity/mul/inv plus canonical encoding.

    Immutable after construction; all operations are pure, so a result depends
    only on the arguments.  An element is the flat tuple of its coordinates,
    one canonical tuple per element.

    Every group also has an array form: an element's coordinates are one
    int64 row, and ``left_mul(s, X)`` returns the rows of s*x for every row x
    of X, for any element s.  A ``codec`` adds only the ranks the BFS needs
    to close a ball: every finite family has one unless its ranks pass
    RANK_LIMIT; the free nilpotent groups, and products with an infinite
    factor, have none.
    """

    name: str = "group"
    order: Optional[int] = None  # None means infinite (free nilpotent)
    codec: Optional["ArrayCodec"] = None

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def left_mul(self, s, X: np.ndarray) -> np.ndarray:
        """The rows of s*x for every coordinate row x of X."""
        raise NotImplementedError

    def encode(self, a) -> bytes:
        """Canonical bytes: the little-endian u64 of each coordinate, the layout
        whose order ArrayCodec's ranks follow.  A group with another layout
        overrides it."""
        return _enc_u64(a)

    def raw_generators(self) -> list:
        """Family-default generators, before symmetrization."""
        raise NotImplementedError

    def abelian_split(self) -> Optional["AbelianSplit"]:
        """An abelian subgroup H and the left cosets of G/H; None when the group names none."""
        return None

    def generating_set(self) -> "GeneratingSet":
        return symmetrize(self, self.raw_generators())

    def describe(self, a) -> str:
        return repr(a)

    def __repr__(self) -> str:
        return f"<{self.name}>"


class ArrayCodec:
    """The canonical byte order of a group's coordinate rows, as ranks.

    Coordinate c of an element lies in [0, radices[c]), and ``group.encode``
    writes the coordinates in order of c, each a little-endian u64 (a product
    adds constant length fields), so byte order is coordinate by coordinate.
    ``rank`` numbers the rows in that order, mixed radix with the first
    coordinate most significant, so sorting ranks sorts codes.  Build it with
    ``_codec``, which checks that the ranks stay below RANK_LIMIT.
    """

    def __init__(self, radices: tuple[int, ...]):
        self.radices = tuple(radices)
        # below 256 a coordinate's byte order is its numeric order; a wider
        # coordinate is keyed by its low `width` bytes read in reverse
        self._widths = tuple(0 if r <= 256 else ((r - 1).bit_length() + 7) // 8 for r in radices)
        self.key_radices = tuple(r if w == 0 else 256**w for r, w in zip(radices, self._widths))
        strides = [1] * len(radices)
        for c in range(len(radices) - 2, -1, -1):
            strides[c] = strides[c + 1] * self.key_radices[c + 1]
        self.strides = tuple(strides)

    def rank(self, X: np.ndarray) -> np.ndarray:
        """Rank of each row (last axis) in canonical byte order."""
        out = np.zeros(X.shape[:-1], dtype=np.int64)
        for c, (stride, width) in enumerate(zip(self.strides, self._widths)):
            col = X[..., c]
            if width:
                col = (col.astype(np.uint64).byteswap() >> np.uint64(64 - 8 * width)).astype(np.int64)
            out += col * stride
        return out


@dataclass(frozen=True)
class AbelianSplit:
    """G as the disjoint union of the left cosets reps[i] H of an abelian subgroup H.

    H is isomorphic to Z/m_1 x ... x Z/m_r for the ``moduli`` m_c, and an
    element of H is named by its row of residues, its H-coordinates.
    ``reps`` holds the coordinate rows of one representative per coset, the
    identity first, so its length is the index [G:H].  ``basis`` holds the
    coordinate rows of the elements h_c of H whose H-coordinates are the
    unit vectors e_c, one per modulus.  ``locate(X)`` returns, for
    coordinate rows X of G, the coset index i and the H-coordinates of h
    with x = reps[i] h.
    """

    moduli: tuple[int, ...]
    reps: np.ndarray
    basis: np.ndarray
    locate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    @property
    def index(self) -> int:
        return len(self.reps)


def _codec(radices: tuple[int, ...]) -> Optional[ArrayCodec]:
    """A family's codec, or None when its ranks would not fit (the BFS then refuses a closure)."""
    codec = ArrayCodec(radices)
    return codec if math.prod(codec.key_radices) <= RANK_LIMIT else None


def row_keys(*arrays: np.ndarray) -> list[np.ndarray]:
    """One int64 key per row of each array, equal exactly when the rows are equal,
    across all the arrays, and ordered as the rows are lexicographically.

    Columns pack in mixed radix over their spans; before a column would take
    the keys to RANK_LIMIT, the keys are re-ranked to 0, 1, ... in order (and,
    should the column's span alone still be too wide, so is the column).
    """
    rows = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    key = np.zeros(len(rows), dtype=np.int64)
    top = 1  # every key lies in [0, top)
    for col in rows.T:
        if not len(col):
            break
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if span == 1:
            continue
        if top * span > RANK_LIMIT:
            key, top = _dense_rank(key)
            if top * span > RANK_LIMIT:
                col, span = _dense_rank(col)
                lo = 0
        key = key * span + (col - lo)
        top *= span
    return np.split(key, np.cumsum([len(a) for a in arrays[:-1]]))


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Each value's position among the distinct values, and their count."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64), len(distinct)


class AbelianGroup(Group):
    """Z/m_1 x ... x Z/m_k.

    Coordinates: one residue per modulus.
    """

    def __init__(self, moduli: tuple[int, ...]):
        self.moduli = tuple(moduli)
        self.order = math.prod(self.moduli)
        self.name = "abelian:" + ",".join(map(str, self.moduli))
        self.codec = _codec(self.moduli)

    def identity(self):
        return (0,) * len(self.moduli)

    def mul(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def inv(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def left_mul(self, s, X):
        return (X + np.array(s, dtype=np.int64)) % np.array(self.moduli, dtype=np.int64)

    def abelian_split(self):
        # H = G: one coset, and the coordinates of x are its H-coordinates
        width = len(self.moduli)
        reps = np.zeros((1, width), dtype=np.int64)
        basis = np.eye(width, dtype=np.int64) % np.array(self.moduli, dtype=np.int64)
        return AbelianSplit(self.moduli, reps, basis, lambda X: (np.zeros(len(X), dtype=np.int64), X))

    def raw_generators(self):
        gens = []
        for i, m in enumerate(self.moduli):
            e = [0] * len(self.moduli)
            e[i] = 1 % m
            gens.append(tuple(e))
        return gens


class CyclicGroup(AbelianGroup):
    """Z/n, the abelian group with the one modulus n.

    Coordinates: (a,) for the residue a.
    """

    def __init__(self, n: int):
        if n <= 0:
            raise SpecSemanticError("zero modulus")
        super().__init__((n,))
        self.n = n
        self.name = f"cyclic:{n}"


class UnitriangularGroup(Group):
    """Upper unitriangular dim x dim matrices over F_p.

    Coordinates: strictly-upper entries in row-major order ((0,1),(0,2),...).
    """

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self.order = p ** (dim * (dim - 1) // 2)
        self.name = f"ut:dim={dim},p={p}"
        self._pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        self._pos = {pair: idx for idx, pair in enumerate(self._pairs)}
        self.codec = _codec((p,) * len(self._pairs))

    def identity(self):
        return (0,) * len(self._pairs)

    def mul(self, a, b):
        p, pos = self.p, self._pos
        out = []
        for i, j in self._pairs:
            v = a[pos[(i, j)]] + b[pos[(i, j)]]
            for k in range(i + 1, j):
                v += a[pos[(i, k)]] * b[pos[(k, j)]]
            out.append(v % p)
        return tuple(out)

    def inv(self, a):
        # Neumann series: (I + N)^-1 = I - N + N^2 - ... with N nilpotent
        p, pos = self.p, self._pos
        out = list(self.identity())
        # solve column by column: out = inverse entries; use that (A * out) = I
        for j in range(1, self.dim):
            for i in range(j - 1, -1, -1):
                v = -a[pos[(i, j)]]
                for k in range(i + 1, j):
                    v -= a[pos[(i, k)]] * out[pos[(k, j)]]
                out[pos[(i, j)]] = v % p
        return tuple(out)

    def left_mul(self, s, X):
        # an affine map mod p: (s*x)[i,j] = s[i,j] + x[i,j] + sum_k s[i,k] x[k,j]
        pos = self._pos
        M = np.zeros((len(pos), len(pos)), dtype=np.int64)
        for (i, j), c in pos.items():
            for k in range(i + 1, j):
                M[pos[(k, j)], c] = s[pos[(i, k)]]
        return (X + X @ M + np.array(s, dtype=np.int64)) % self.p

    def abelian_split(self):
        # H = the last column, (Z/p)^(dim-1): abelian and normal.  x = g h
        # where g is x with its last column cleared; above the diagonal, the
        # last column of x is U u, with U the upper-left (dim-1)-block of g and
        # u the last column of h.  Back substitution solves for u, bottom entry
        # first, and H-coordinate t is u[dim - 2 - t]
        d, p, pos = self.dim, self.p, self._pos
        column = [pos[(i, d - 1)] for i in range(d - 1)]
        rest = [c for c in range(len(pos)) if c not in column]
        reps = np.zeros((p ** len(rest), len(pos)), dtype=np.int64)
        reps[:, rest] = np.indices((p,) * len(rest)).reshape(len(rest), len(reps)).T
        strides = p ** np.arange(len(rest) - 1, -1, -1, dtype=np.int64)
        basis = np.zeros((d - 1, len(pos)), dtype=np.int64)
        basis[np.arange(d - 1), column[::-1]] = 1

        def locate(X):
            u = X[:, column].copy()
            for i in range(d - 3, -1, -1):
                for j in range(i + 1, d - 1):
                    u[:, i] -= X[:, pos[(i, j)]] * u[:, j]
                u[:, i] %= p
            return X[:, rest] @ strides, u[:, ::-1]

        return AbelianSplit((p,) * (d - 1), reps, basis, locate)

    def raw_generators(self):
        gens = []
        for i in range(self.dim - 1):
            e = [0] * len(self._pairs)
            e[self._pos[(i, i + 1)]] = 1
            gens.append(tuple(e))
        return gens


class LamplighterGroup(Group):
    """Z/M ltimes (Z/2)^M with cyclically permuted lamp coordinates.

    Coordinates: (position, l_0, ..., l_{M-1}) with each lamp l_i in {0, 1}.
    """

    def __init__(self, m: int):
        self.m = m
        self.order = m * (1 << m)
        self.name = f"lamplighter:{m}"
        self.codec = _codec((m,) + (2,) * m)

    def identity(self):
        return (0,) * (self.m + 1)

    def mul(self, a, b):
        m, pa = self.m, a[0]
        return ((pa + b[0]) % m,) + tuple(a[1 + i] ^ b[1 + (i - pa) % m] for i in range(m))

    def inv(self, a):
        m, pa = self.m, a[0]
        return ((-pa) % m,) + tuple(a[1 + (i + pa) % m] for i in range(m))

    def left_mul(self, s, X):
        # the lamps of x rotate by the position of s, then s's lamps flip on top
        m, ps = self.m, s[0]
        out = np.empty_like(X)
        out[:, 0] = (X[:, 0] + ps) % m
        out[:, 1:] = X[:, 1 + (np.arange(m) - ps) % m] ^ np.array(s[1:], dtype=np.int64)
        return out

    def abelian_split(self):
        # H = the lamps (Z/2)^m; x = (pos, 0) (0, l) with l the lamps of x
        # rotated back by pos: l[j] = x's lamp (j + pos) mod m
        m = self.m
        reps = np.zeros((m, m + 1), dtype=np.int64)
        reps[:, 0] = np.arange(m)
        basis = np.zeros((m, m + 1), dtype=np.int64)
        basis[:, 1:] = np.eye(m, dtype=np.int64)

        def locate(X):
            return X[:, 0], np.take_along_axis(X[:, 1:], (np.arange(m) + X[:, :1]) % m, axis=1)

        return AbelianSplit((2,) * m, reps, basis, locate)

    def raw_generators(self):
        move = (1 % self.m,) + (0,) * self.m
        switch = (0, 1) + (0,) * (self.m - 1)
        return [move, switch]


class SymFpGroup(Group):
    """Sym(n) ltimes F_p^n and its sum-zero / alternating subgroups.

    Coordinates: perm + vec, the n images of the permutation (0-based)
    followed by the n residues mod p of the vector.  Variant "L" is the full
    semidirect product, "Gprime" restricts vec to coordinate-sum zero, and "G"
    additionally restricts perm to even permutations.  All three variants
    share the same coordinates and multiplication, so elements move freely
    between them.
    """

    def __init__(self, n: int, p: int, variant: str = "L"):
        if variant not in SYMFP_VARIANTS:
            raise SpecSemanticError(f"unknown symfp variant {variant!r}")
        if p <= n:
            raise SpecSemanticError("symfp requires p > n")
        self.n = n
        self.p = p
        self.variant = variant
        full = math.factorial(n) * p**n
        if variant == "L":
            self.order = full
        elif variant == "Gprime":
            self.order = full // p
        else:
            self.order = full // (2 * p)
        self.name = f"symfp:n={n},p={p},variant={variant}"
        self.codec = _codec((n,) * n + (p,) * n)

    def identity(self):
        return tuple(range(self.n)) + (0,) * self.n

    def mul(self, a, b):
        n, p = self.n, self.p
        # a[b[i]] is the image of i under perm(a) after perm(b)
        perm = tuple(a[b[i]] for i in range(n))
        vec = list(a[n:])
        for i in range(n):
            vec[a[i]] = (vec[a[i]] + b[n + i]) % p
        return perm + tuple(vec)

    def inv(self, a):
        n, p = self.n, self.p
        inv_perm = [0] * n
        for i in range(n):
            inv_perm[a[i]] = i
        return tuple(inv_perm) + tuple((-a[n + a[i]]) % p for i in range(n))

    def left_mul(self, s, X):
        # the permutation of s composes with x's by a gather, and x's vector
        # lands permuted by s on top of s's vector
        n = self.n
        sa = np.array(s[:n], dtype=np.int64)
        perm = sa[X[:, :n]]
        vec = (X[:, n:][:, np.argsort(sa)] + np.array(s[n:], dtype=np.int64)) % self.p
        return np.concatenate([perm, vec], axis=1)

    def abelian_split(self):
        # H = the vectors of the variant: all of F_p^n for L, the sum-zero ones
        # (H-coordinates: their first n - 1 entries) for Gprime and G.
        # x = (perm, 0) (id, w) with w[i] = vec[perm[i]]; the representatives
        # are the variant's permutations in lexicographic order
        n, p = self.n, self.p
        perms = [q for q in itertools.permutations(range(n)) if self.variant != "G" or _perm_sign(q) == 1]
        reps = np.array([q + (0,) * n for q in perms], dtype=np.int64)
        radix = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        keys = reps[:, :n] @ radix
        width = n if self.variant == "L" else n - 1
        vec = np.eye(n, dtype=np.int64)[:width]
        if width < n:
            vec[:, n - 1] = p - 1  # sum zero
        basis = np.concatenate([np.tile(np.arange(n), (width, 1)), vec], axis=1)

        def locate(X):
            perm = X[:, :n]
            return np.searchsorted(keys, perm @ radix), np.take_along_axis(X[:, n:], perm, axis=1)[:, :width]

        return AbelianSplit((p,) * width, reps, basis, locate)

    def project_sum_zero(self, a):
        """Quotient by the central constant-vector subgroup, landing in Gprime."""
        n, p = self.n, self.p
        mean = (sum(a[n:]) * pow(n, -1, p)) % p
        return a[:n] + tuple((x - mean) % p for x in a[n:])

    def contains(self, a) -> bool:
        if self.variant == "L":
            return True
        if sum(a[self.n :]) % self.p != 0:
            return False
        if self.variant == "Gprime":
            return True
        return _perm_sign(a[: self.n]) == 1

    def raw_generators(self):
        n = self.n
        cycle = tuple((i + 1) % n for i in range(n))
        swap = tuple([1, 0] + list(range(2, n)))
        e1 = (1,) + (0,) * (n - 1)
        ident = tuple(range(n))
        tilde = [cycle + (0,) * n, swap + (0,) * n, ident + e1]
        if self.variant == "L":
            return tilde
        prime = [self.project_sum_zero(g) for g in tilde]
        if self.variant == "Gprime":
            return prime
        gp = SymFpGroup(self.n, self.p, "Gprime")
        sprime = symmetrize(gp, prime)
        oracle = SubgroupOracle(self.contains, name=self.name)
        return list(reidemeister_schreier(gp, sprime, oracle).generators.elements)


def _perm_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _coeff_bytes(c: int) -> bytes:
    """A Magnus coefficient's bytes: a sign byte (1 for c >= 0), the u32 length
    of the magnitude, then the magnitude little-endian (one byte for 0)."""
    mag = abs(c)
    body = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "little")
    return bytes([c >= 0]) + len(body).to_bytes(4, "little") + body


class _TermPieces(dict):
    """Coefficient -> encoded term (word piece then coefficient bytes) for one
    word; coefficients up to 4096 in size are kept once computed."""

    def __init__(self, word: tuple[int, ...]):
        super().__init__()
        self.word_piece = len(word).to_bytes(2, "little") + bytes(word)

    def __missing__(self, c: int) -> bytes:
        out = self.word_piece + _coeff_bytes(c)
        if -4096 <= c <= 4096:
            self[c] = out
        return out


class _MagnusTables:
    """What the arithmetic and the encoding of freenil:r,s share.

    ``words`` lists the words of length 1..s in (length, word) order; word i
    concatenated with word j is word k for each (j, k) in ``rows[i]``, where
    only the words shorter than s have rows.  ``by_target`` holds the same
    triples (i, j, k) sorted by k.  ``pieces[i]`` encodes a term on word i,
    and ``heads[n]`` is the count prefix and constant-term piece of an element
    with n nonzero coefficients.
    """

    def __init__(self, r: int, s: int):
        words = [w for n in range(1, s + 1) for w in itertools.product(range(r), repeat=n)]
        index = {w: i for i, w in enumerate(words)}
        self.words = tuple(words)
        # the words of length <= n are the first `upto[n]`
        upto = list(itertools.accumulate((r**n for n in range(1, s + 1)), initial=0))
        self.rows = tuple(tuple((j, index[u + v]) for j, v in enumerate(words[: upto[s - len(u)]])) for u in words if len(u) < s)
        self.by_target = tuple(sorted(((i, j, k) for i, row in enumerate(self.rows) for j, k in row), key=lambda t: t[2]))
        # each row as a pair of index arrays (the j, then the k), for left_mul
        self.row_columns = tuple(tuple(np.array(col, dtype=np.intp) for col in zip(*row)) for row in self.rows)
        self.pieces = tuple(_TermPieces(w) for w in words)
        constant = _TermPieces(())[1]
        self.heads = tuple((n + 1).to_bytes(4, "little") + constant for n in range(len(words) + 1))


@functools.cache
def _magnus_tables(r: int, s: int) -> _MagnusTables:
    """The tables of freenil:r,s, built once per process."""
    return _MagnusTables(r, s)


class FreeNilpotentGroup(Group):
    """Free s-step nilpotent group of rank r, as truncated-polynomial units.

    Elements are units with constant term 1 in the quotient of the free
    associative ring Z<X_1..X_r> by words of length > s (the Magnus
    embedding); the generators are 1 + X_i.  Multiplication is truncated
    convolution and inversion solves a * a^-1 = 1 word by word, both exact
    over arbitrary-precision integers.

    Coordinates: r + r^2 + ... + r^s Python ints, the coefficient of every
    word of length 1..s in (len(word), word) order, zeros included; the
    constant term is always 1 and is not stored.  ``terms(a)`` lists the
    nonzero terms as (word, coeff) pairs, constant term first.  ``encode``
    writes those terms: a u32 count, then per term the u16 word length, the
    letters and the coefficient bytes (see ``_coeff_bytes``).  Above
    FREENIL_DIM_CAP coefficients per element, construction is refused.  In
    the array form the coefficients are int64s, and ``left_mul`` refuses a
    product with a coefficient that could reach RANK_LIMIT (2^62).
    """

    def __init__(self, r: int, s: int):
        if r < 1 or s < 1:
            raise SpecSemanticError("freenil requires r >= 1 and s >= 1")
        if r > 256:
            raise SpecSemanticError(f"freenil encodes each letter in one byte, so r must be at most 256, got {r}")
        dim = 0
        for n in range(1, s + 1):
            dim += r**n
            if dim > FREENIL_DIM_CAP:
                raise ResourceRefusal(
                    f"freenil:r={r},s={s} needs at least {dim} Magnus coefficients per element, over the cap {FREENIL_DIM_CAP}"
                )
        self.r = r
        self.s = s
        self.order = None
        self.name = f"freenil:r={r},s={s}"
        tables = _magnus_tables(r, s)
        self._words = tables.words
        self._rows = tables.rows
        self._by_target = tables.by_target
        self._row_columns = tables.row_columns
        self._pieces = tables.pieces
        self._heads = tables.heads

    def identity(self):
        return (0,) * len(self._words)

    def mul(self, a, b):
        out = list(map(operator.add, a, b))
        for ai, row in zip(a, self._rows):
            if ai:
                for j, k in row:
                    bj = b[j]
                    if bj:
                        out[k] += ai * bj
        return tuple(out)

    def left_mul(self, s, X):
        # mul on columns: X + s, then s[i] X[:, j] added into column k for each
        # word i of s that is nonzero.  Every output coefficient is bounded
        # first, from s and the column maxima of X, so no int64 ever wraps
        s = list(map(int, s))
        top = np.abs(X).max(axis=0).tolist() if len(X) else [0] * len(s)
        bound = list(map(operator.add, map(abs, s), top))
        for si, row in zip(s, self._rows):
            if si:
                si = abs(si)
                for j, k in row:
                    bound[k] += si * top[j]
        if max(bound) >= RANK_LIMIT:
            raise ResourceRefusal(f"a product in {self.name} could reach a coefficient of {max(bound)}, past the row limit 2^62")
        out = X + np.array(s, dtype=np.int64)
        for si, (js, ks) in zip(s, self._row_columns):
            if si:
                out[:, ks] += si * X[:, js]
        return out

    def inv(self, a):
        # the coefficient of word w in a * b = 1 is a[w] + b[w] + sum over
        # splits w = uv of a[u] b[v]; solve for b[w] in order of length
        out = [-c for c in a]
        for i, j, k in self._by_target:
            ai = a[i]
            if ai:
                bj = out[j]
                if bj:
                    out[k] -= ai * bj
        return tuple(out)

    def encode(self, a) -> bytes:
        body = [piece[c] for piece, c in zip(self._pieces, a) if c]
        return self._heads[len(body)] + b"".join(body)

    def terms(self, a) -> tuple:
        """The nonzero terms of a as (word, coeff) pairs, the constant ((), 1) first."""
        return (((), 1),) + tuple((w, c) for w, c in zip(self._words, a) if c)

    def raw_generators(self):
        e = self.identity()
        return [e[:i] + (1,) + e[i + 1 :] for i in range(self.r)]

    def describe(self, a) -> str:
        pieces = []
        for w, c in self.terms(a):
            mon = "*".join(f"X{i+1}" for i in w) if w else "1"
            if c == 1 and w:
                pieces.append(mon)
            elif c == -1 and w:
                pieces.append(f"-{mon}")
            else:
                pieces.append(f"{c}*{mon}" if w else str(c))
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


class ProductGroup(Group):
    """G1 x G2.

    Coordinates: a + b, the coordinates of the G1 part followed by those of
    the G2 part; the split is at ``len(g1.identity())``.  ``encode`` is the
    u32 length of e1, then e1 and e2, the factors' encodings.
    """

    def __init__(self, g1: Group, g2: Group):
        self.g1 = g1
        self.g2 = g2
        self._d1 = len(g1.identity())
        if g1.order is None or g2.order is None:
            self.order = None
        else:
            self.order = g1.order * g2.order
        self.name = f"product({g1.name})x({g2.name})"
        c1, c2 = g1.codec, g2.codec
        if c1 is not None and c2 is not None:
            # encode is len(e1) + e1 + e2 with e1 of fixed width, so byte order is factor by factor
            self.codec = _codec(c1.radices + c2.radices)

    def identity(self):
        return self.g1.identity() + self.g2.identity()

    def mul(self, a, b):
        d = self._d1
        return self.g1.mul(a[:d], b[:d]) + self.g2.mul(a[d:], b[d:])

    def inv(self, a):
        d = self._d1
        return self.g1.inv(a[:d]) + self.g2.inv(a[d:])

    def encode(self, a) -> bytes:
        d = self._d1
        e1 = self.g1.encode(a[:d])
        return len(e1).to_bytes(4, "little") + e1 + self.g2.encode(a[d:])

    def left_mul(self, s, X):
        d = self._d1
        return np.concatenate([self.g1.left_mul(s[:d], X[:, :d]), self.g2.left_mul(s[d:], X[:, d:])], axis=1)

    def abelian_split(self):
        # H = H1 x H2; the coset (i1, i2) has index i1 [G2:H2] + i2
        s1, s2 = self.g1.abelian_split(), self.g2.abelian_split()
        if s1 is None or s2 is None:
            return None
        d, n1, n2 = self._d1, s1.index, s2.index
        reps = np.concatenate([np.repeat(s1.reps, n2, axis=0), np.tile(s2.reps, (n1, 1))], axis=1)
        # H1's basis beside G2's identity, then G1's identity beside H2's basis
        e1, e2 = (np.array(g.identity(), dtype=np.int64) for g in (self.g1, self.g2))
        basis = np.concatenate(
            [np.hstack([s1.basis, np.tile(e2, (len(s1.basis), 1))]), np.hstack([np.tile(e1, (len(s2.basis), 1)), s2.basis])]
        )

        def locate(X):
            (c1, h1), (c2, h2) = s1.locate(X[:, :d]), s2.locate(X[:, d:])
            return c1 * n2 + c2, np.concatenate([h1, h2], axis=1)

        return AbelianSplit(s1.moduli + s2.moduli, reps, basis, locate)

    def raw_generators(self):
        # the product generating set S1 x S2 over the symmetrized factors
        s1 = self.g1.generating_set()
        s2 = self.g2.generating_set()
        return [a + b for a in s1.elements for b in s2.elements]


def build_group(spec: GroupSpec | str) -> Group:
    """Construct the group handle for a spec; refuses finite orders above the order cap."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    fam = spec.family
    if fam == "product":
        g = ProductGroup(build_group(spec.factors[0]), build_group(spec.factors[1]))
    elif fam == "cyclic":
        g = CyclicGroup(spec.param("n"))
    elif fam == "abelian":
        g = AbelianGroup(spec.param_list("moduli"))
    elif fam in ("ut", "heis"):
        spec = _validate_spec(spec)
        g = UnitriangularGroup(spec.param("dim"), spec.param("p"))
    elif fam == "lamplighter":
        g = LamplighterGroup(spec.param("m"))
    elif fam == "symfp":
        g = SymFpGroup(spec.param("n"), spec.param("p"), spec.variant or "L")
    elif fam == "freenil":
        g = FreeNilpotentGroup(spec.param("r"), spec.param("s"))
    else:
        raise SpecSemanticError(f"unsupported family {fam!r}")
    limit = order_cap()
    if g.order is not None and g.order > limit:
        raise ResourceRefusal(f"|{g.name}| = {g.order} exceeds cap {limit}")
    return g


# ---------------------------------------------------------------------------
# Generating sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratingSet:
    """Symmetric generating set containing the identity.

    ``symmetrize`` lists the elements in canonical-byte order; the checks
    here (no duplicates, the identity, every inverse) run on the set of
    elements, whatever their order.
    """

    group: Group
    elements: tuple

    @property
    def k(self) -> int:
        return len(self.elements)

    def __post_init__(self):
        seen = set(self.elements)
        if len(seen) != len(self.elements):
            raise ValueError("duplicate elements in generating set")
        g = self.group
        if g.identity() not in seen:
            raise ValueError("generating set must contain the identity")
        for x in self.elements:
            if g.inv(x) not in seen:
                raise ValueError("generating set must be closed under inversion")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def symmetrize(group: Group, raw: list) -> GeneratingSet:
    """Return raw plus inverses plus identity, deduplicated, in canonical-byte order."""
    if not raw:
        raise ValueError("empty generator list")
    pool = {group.identity(), *raw, *map(group.inv, raw)}
    return GeneratingSet(group, tuple(sorted(pool, key=group.encode)))


# ---------------------------------------------------------------------------
# Word helpers
# ---------------------------------------------------------------------------


def commutator(group: Group, a, b):
    """[a, b] = a^-1 b^-1 a b, matching the collecting identity vu = uv[v,u]."""
    return group.mul(group.mul(group.inv(a), group.inv(b)), group.mul(a, b))


def conjugate(group: Group, a, g):
    """g^-1 a g."""
    return group.mul(group.mul(group.inv(g), a), g)


# ---------------------------------------------------------------------------
# Subgroups and the Reidemeister-Schreier generating set
# ---------------------------------------------------------------------------


@dataclass
class SubgroupOracle:
    """Membership predicate for a subgroup."""

    contains: Callable[[object], bool]
    name: str = "subgroup"

    def validate(self, group: Group, sample: Iterable = ()) -> None:
        if not self.contains(group.identity()):
            raise OracleError(f"{self.name}: identity not a member")
        sample = list(sample)
        for a in sample:
            if not self.contains(a):
                continue
            if not self.contains(group.inv(a)):
                raise OracleError(f"{self.name}: not closed under inverse")
            for b in sample:
                if self.contains(b) and not self.contains(group.mul(a, b)):
                    raise OracleError(f"{self.name}: not closed under product")


@dataclass(frozen=True)
class RSResult:
    """Schreier generating set for a finite-index subgroup."""

    generators: GeneratingSet
    representatives: tuple
    index: int


def reidemeister_schreier(group: Group, gens: GeneratingSet, sub: SubgroupOracle) -> RSResult:
    """Coset representatives T (BFS-first, canonical-byte tie-break) and the
    Schreier set S0 = {t s tau(ts)^-1} for the subgroup described by ``sub``.

    T is a complete set of right-coset representatives with T inside S^(d-1);
    S0 lands in the subgroup intersected with S^(2d-1) and satisfies
    |S|/d <= |S0| <= d|S|.
    """
    if not sub.contains(group.identity()):
        raise OracleError(f"{sub.name}: identity not a member")

    reps: list = [group.identity()]

    def coset_of(x) -> Optional[int]:
        hits = [i for i, t in enumerate(reps) if sub.contains(group.mul(x, group.inv(t)))]
        if len(hits) > 1:
            raise OracleError(f"{sub.name}: element matched {len(hits)} cosets")
        return hits[0] if hits else None

    frontier = [group.identity()]
    while frontier:
        candidates = sorted((group.mul(t, s) for t in frontier for s in gens.elements), key=group.encode)
        new_frontier = []
        for x in candidates:
            if coset_of(x) is None:
                reps.append(x)
                new_frontier.append(x)
        frontier = new_frontier

    d = len(reps)
    pool = set()
    for t in reps:
        for s in gens.elements:
            ts = group.mul(t, s)
            idx = coset_of(ts)
            s0 = group.mul(ts, group.inv(reps[idx]))
            if not sub.contains(s0):
                raise OracleError(f"{sub.name}: Schreier element escaped the subgroup")
            pool.add(s0)
    s0_set = GeneratingSet(group, tuple(sorted(pool, key=group.encode)))
    sub.validate(group, sample=list(s0_set.elements)[:8])
    if not (len(gens) <= d * len(s0_set) and len(s0_set) <= d * len(gens)):
        raise OracleError(f"{sub.name}: Schreier size bounds violated (|S|={len(gens)}, d={d}, |S0|={len(s0_set)})")
    return RSResult(s0_set, tuple(reps), d)
