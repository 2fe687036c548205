"""Element backends, spec parsing, canonical encodings, Schreier generators."""

import itertools
import math
import random

import numpy as np
import pytest
import sympy

from cayleylab.groups import (
    FreeNilpotentGroup,
    OracleError,
    ResourceRefusal,
    SpecSemanticError,
    SpecSyntaxError,
    SubgroupOracle,
    build_group,
    commutator,
    parse_group_spec,
    reidemeister_schreier,
    symmetrize,
)
from cayleylab.growth import enumerate_ball
from cayleylab.nilprog import hall_basis


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------


def test_parse_basic_specs():
    assert parse_group_spec("cyclic:12").param("n") == 12
    spec = parse_group_spec("symfp:n=4,p=5,variant=G")
    assert (spec.param("n"), spec.param("p"), spec.variant) == (4, 5, "G")
    assert parse_group_spec("freenil:r=2,s=4").param("s") == 4
    assert parse_group_spec("abelian:4,4,9").param_list("moduli") == (4, 4, 9)
    assert parse_group_spec("ut:dim=3,p=7").param("dim") == 3


def test_heis_alias():
    spec = parse_group_spec("heis:7")
    assert spec.family == "ut" and spec.param("dim") == 3 and spec.param("p") == 7


def test_parse_product():
    spec = parse_group_spec("product(lamplighter:3)x(cyclic:8)")
    assert spec.family == "product"
    assert spec.factors[0].family == "lamplighter"
    assert spec.factors[1].param("n") == 8


def test_parse_syntax_error_carries_offset():
    with pytest.raises(SpecSyntaxError) as err:
        parse_group_spec("cyclic:x")
    assert err.value.offset == 7
    with pytest.raises(SpecSyntaxError):
        parse_group_spec("nosuchfamily:3")


def test_parse_semantic_errors():
    with pytest.raises(SpecSemanticError):
        parse_group_spec("ut:dim=3,p=6")  # composite where prime required
    with pytest.raises(SpecSemanticError):
        parse_group_spec("symfp:n=5,p=5")  # needs p > n
    with pytest.raises(SpecSemanticError):
        parse_group_spec("cyclic:0")
    with pytest.raises(SpecSemanticError):
        parse_group_spec("cyclic:n=3,variant=G")


def test_order_cap_refusal(monkeypatch):
    with pytest.raises(ResourceRefusal):
        build_group("cyclic:20000000")
    monkeypatch.setenv("CAYLEY_LAB_CAP", str(10**8))
    assert build_group("cyclic:20000000").order == 20000000


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def test_cyclic_arithmetic():
    g = build_group("cyclic:12")
    assert g.mul((7,), (8,)) == (3,)
    assert g.inv((5,)) == (7,)
    assert g.encode(g.identity()) == (0).to_bytes(8, "little")


def test_lamplighter_order_and_generators():
    g = build_group("lamplighter:3")
    assert g.order == 3 * 2**3 == 24
    s = g.generating_set()
    # identity, move, move inverse, switch (an involution)
    assert s.k == 4
    switch = (0, 1, 0, 0)
    assert g.mul(switch, switch) == g.identity()


def test_symfp_generating_set_count():
    # identity, long cycle and inverse, transposition (involution), vector and inverse
    g = build_group("symfp:n=3,p=7")
    assert g.order == 6 * 343
    assert g.generating_set().k == 6
    raw = g.raw_generators()
    assert len(raw) == 3


def test_product_generating_set_is_cartesian():
    g = build_group("product(lamplighter:3)x(cyclic:8)")
    assert g.order == 24 * 8
    assert g.generating_set().k == 4 * 3


def test_symmetrize_examples():
    g = build_group("cyclic:12")
    s = symmetrize(g, [(1,)])
    assert set(s.elements) == {(0,), (1,), (11,)} and s.k == 3
    again = symmetrize(g, list(s.elements))
    assert again.elements == s.elements  # idempotent fixed point
    assert g.identity() in s.elements


def test_generating_set_rejects_bad_sets():
    from cayleylab.groups import GeneratingSet

    g = build_group("cyclic:12")
    with pytest.raises(ValueError):
        GeneratingSet(g, ((0,), (1,)))  # no inverse of 1


# ---------------------------------------------------------------------------
# Truncated-polynomial model against an independent symbolic expansion
# ---------------------------------------------------------------------------


def _terms_to_sympy(terms, letters):
    expr = sympy.Integer(0)
    for word, coeff in terms:
        mon = sympy.Integer(1)
        for i in word:
            mon = mon * letters[i]
        expr = expr + coeff * mon
    return sympy.expand(expr)


def _truncate(expr, letters, s):
    expr = sympy.expand(expr)
    out = sympy.Integer(0)
    for term in expr.as_ordered_terms():
        degree = 0
        for factor in term.as_ordered_factors():
            base, exp = factor.as_base_exp()
            if base in letters:
                degree += int(exp)
        if degree <= s:
            out = out + term
    return sympy.expand(out)


@pytest.mark.parametrize("s", [2, 3])
def test_freenil_products_match_symbolic_expansion(s):
    g = FreeNilpotentGroup(2, s)
    x, y = g.raw_generators()
    letters = sympy.symbols("X1 X2", commutative=False)
    sym_gens = [1 + letters[0], 1 + letters[1]]
    rng = random.Random(7)
    for _ in range(25):
        word = [rng.randrange(2) for _ in range(rng.randint(1, 5))]
        ours = g.identity()
        theirs = sympy.Integer(1)
        for i in word:
            ours = g.mul(ours, (x, y)[i])
            theirs = _truncate(theirs * sym_gens[i], letters, s)
        assert sympy.expand(_terms_to_sympy(g.terms(ours), letters) - theirs) == 0


def test_freenil_basic_products():
    g = FreeNilpotentGroup(2, 2)
    x, y = g.raw_generators()
    assert g.terms(g.mul(x, y)) == (((), 1), ((0,), 1), ((1,), 1), ((0, 1), 1))
    c = commutator(g, x, y)
    assert g.terms(c) == (((), 1), ((0, 1), 1), ((1, 0), -1))  # 1 + X1 X2 - X2 X1


def power(group, a, n: int):
    """a^n by repeated squaring, on any backend with identity, mul and inv."""
    if n < 0:
        return power(group, group.inv(a), -n)
    result = group.identity()
    base = a
    while n:
        if n & 1:
            result = group.mul(result, base)
        base = group.mul(base, base)
        n >>= 1
    return result


def decode(g: FreeNilpotentGroup, data: bytes) -> tuple:
    """The coordinate tuple a free nilpotent element's encode wrote: the inverse of encode."""
    words = [w for length in range(1, g.s + 1) for w in itertools.product(range(g.r), repeat=length)]
    index = {w: i for i, w in enumerate(words)}
    n = int.from_bytes(data[0:4], "little")
    pos = 4
    out = [0] * len(words)
    for _ in range(n):
        wl = int.from_bytes(data[pos : pos + 2], "little")
        pos += 2
        word = tuple(data[pos : pos + wl])
        pos += wl
        sign = data[pos]
        pos += 1
        bl = int.from_bytes(data[pos : pos + 4], "little")
        pos += 4
        mag = int.from_bytes(data[pos : pos + bl], "little")
        pos += bl
        if word:
            out[index[word]] = mag if sign else -mag
        elif (sign, mag) != (1, 1):
            raise ValueError("constant term must be 1")
    if pos != len(data):
        raise ValueError("trailing bytes in encoded element")
    return tuple(out)


def test_freenil_encode_roundtrip_large_coefficients():
    g = FreeNilpotentGroup(2, 3)
    x, _ = g.raw_generators()
    big = power(g, x, 2**70)
    assert dict(g.terms(big))[(0,)] == 2**70
    assert decode(g, g.encode(big)) == big


def test_freenil_encode_roundtrip_random_words():
    g = FreeNilpotentGroup(2, 3)
    x, y = g.raw_generators()
    steps = [x, y, g.inv(x), g.inv(y)]
    rng = random.Random(11)
    for _ in range(50):
        elem = g.identity()
        for _ in range(rng.randint(1, 40)):
            elem = g.mul(elem, rng.choice(steps))
        assert decode(g, g.encode(elem)) == elem


class SparseMagnus:
    """The sparse free nilpotent backend the dense coefficient tuples replaced,
    kept as their oracle.  Payload: (word, coeff) pairs with nonzero coeff,
    sorted by (len(word), word), the empty word carrying the constant 1."""

    def __init__(self, r, s):
        self.r, self.s = r, s

    def identity(self):
        return (((), 1),)

    def raw_generators(self):
        return [(((), 1), ((i,), 1)) for i in range(self.r)]

    @staticmethod
    def _normalize(acc):
        return tuple(sorted(((w, c) for w, c in acc.items() if c), key=lambda wc: (len(wc[0]), wc[0])))

    def mul(self, a, b):
        acc = {}
        for wa, ca in a:
            for wb, cb in b:
                if len(wa) + len(wb) <= self.s:
                    acc[wa + wb] = acc.get(wa + wb, 0) + ca * cb
        return self._normalize(acc)

    def inv(self, a):
        # a = 1 + x: a^-1 = 1 - x + x^2 - ... - (-x)^s, exact after truncation
        neg_x = tuple((w, -c) for w, c in a if w)
        result, term = dict(self.identity()), self.identity()
        for _ in range(self.s):
            term = self.mul(term, neg_x)
            for w, c in term:
                result[w] = result.get(w, 0) + c
        return self._normalize(result)

    def encode(self, a):
        parts = [len(a).to_bytes(4, "little")]
        for w, c in a:
            mag = abs(c)
            body = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "little")
            parts += [len(w).to_bytes(2, "little"), bytes(w), bytes([1 if c >= 0 else 0]), len(body).to_bytes(4, "little"), body]
        return b"".join(parts)

    def describe(self, a):
        pieces = []
        for w, c in a:
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


@pytest.mark.parametrize("r,s", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_freenil_matches_sparse_oracle(r, s):
    """Random words, and words times powers up to 2^70, agree with the sparse
    backend on mul, inv, encode bytes, the decode round trip and describe."""
    g, oracle = FreeNilpotentGroup(r, s), SparseMagnus(r, s)
    steps = [(x, y) for x, y in zip(g.raw_generators(), oracle.raw_generators())]
    steps += [(g.inv(x), oracle.inv(y)) for x, y in steps]
    rng = random.Random(100 * r + s)

    def random_pair():
        x, y = g.identity(), oracle.identity()
        for _ in range(rng.randint(0, 12)):
            sx, sy = rng.choice(steps)
            x, y = g.mul(x, sx), oracle.mul(y, sy)
        if rng.random() < 0.2:
            e = rng.choice([2**70, -(2**70) + 1, 3**41])
            sx, sy = rng.choice(steps)
            x, y = g.mul(x, power(g, sx, e)), oracle.mul(y, power(oracle, sy, e))
        return x, y

    for _ in range(60):
        (a, a0), (b, b0) = random_pair(), random_pair()
        assert g.terms(a) == a0
        assert g.encode(a) == oracle.encode(a0)
        assert g.describe(a) == oracle.describe(a0)
        assert decode(g, g.encode(a)) == a
        assert g.terms(g.mul(a, b)) == oracle.mul(a0, b0)
        assert g.terms(g.inv(a)) == oracle.inv(a0)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_freenil_left_mul_matches_mul_row_by_row(r, s):
    g = FreeNilpotentGroup(r, s)
    rng = random.Random(10 * r + s)
    coeffs = [0, 0, 0, 1, -1, 2, -7, 40, -(10**6)]

    def element():
        return tuple(rng.choice(coeffs) for _ in g.identity())

    for _ in range(10):
        a = element()
        X = [g.identity(), *(element() for _ in range(15))]
        got = g.left_mul(a, np.array(X, dtype=np.int64))
        assert got.dtype == np.int64
        assert [tuple(row) for row in got.tolist()] == [g.mul(a, x) for x in X]


def test_freenil_left_mul_refuses_at_two_to_the_62():
    # the coefficient of X1X1 in s*x is s[X1X1] + x[X1X1] + s[X1] x[X1]
    g = FreeNilpotentGroup(1, 2)
    s, x = (2**61, 0), (1, 0)
    assert g.left_mul(s, np.array([x], dtype=np.int64)).tolist() == [list(g.mul(s, x))]
    with pytest.raises(ResourceRefusal, match=r"2\^62"):
        g.left_mul(s, np.array([(2, 0)], dtype=np.int64))
    with pytest.raises(ResourceRefusal, match=r"2\^62"):
        g.left_mul((2**62, 0), np.zeros((1, 2), dtype=np.int64))


@pytest.mark.parametrize("r,s", [(2, 2), (2, 3)])
def test_freenil_normal_forms_distinct(r, s):
    """Hall-basis normal forms with small exponents are pairwise distinct."""
    g = FreeNilpotentGroup(r, s)
    gens = g.raw_generators()
    basis = [e.evaluate(g, gens) for e in hall_basis(r, s)]
    seen = set()
    exponents = [-2, -1, 0, 1, 2]

    def rec(idx, acc):
        if idx == len(basis):
            seen.add(g.encode(acc))
            return
        for e in exponents:
            rec(idx + 1, g.mul(acc, power(g, basis[idx], e)))

    rec(0, g.identity())
    assert len(seen) == len(exponents) ** len(basis)


# ---------------------------------------------------------------------------
# Random algebraic properties (pool-sampled triples)
# ---------------------------------------------------------------------------

BACKENDS = [
    "cyclic:12",
    "abelian:4,4,9",
    "ut:dim=3,p=7",
    "lamplighter:4",
    "symfp:n=3,p=7",
    "freenil:r=2,s=3",
    "product(cyclic:6)x(cyclic:10)",
]


def _random_pool(group, size, seed):
    rng = random.Random(seed)
    gens = group.generating_set().elements
    pool = []
    for _ in range(size):
        x = group.identity()
        for _ in range(rng.randint(0, 10)):
            x = group.mul(x, rng.choice(gens))
        pool.append(x)
    return pool


@pytest.mark.parametrize("spec", BACKENDS)
def test_associativity_and_inverses(spec):
    group = build_group(spec)
    pool = _random_pool(group, 100, seed=13)
    rng = random.Random(29)
    for _ in range(10**4):
        a, b, c = (rng.choice(pool) for _ in range(3))
        left = group.mul(group.mul(a, b), c)
        right = group.mul(a, group.mul(b, c))
        assert group.encode(left) == group.encode(right)
    for _ in range(10**4):
        g = rng.choice(pool)
        assert group.mul(g, group.inv(g)) == group.identity()


@pytest.mark.parametrize("spec", ["cyclic:30", "abelian:4,4,9", "ut:dim=3,p=5", "lamplighter:4"])
def test_encoding_injective_on_enumerated_ball(spec):
    group = build_group(spec)
    ball = enumerate_ball(group, group.generating_set())
    assert len({group.encode(x) for x in ball.elements}) == ball.size == group.order


# ---------------------------------------------------------------------------
# Reidemeister-Schreier
# ---------------------------------------------------------------------------


def test_rs_cyclic_index_three():
    g = build_group("cyclic:12")
    s = g.generating_set()
    sub = SubgroupOracle(lambda x: x[0] % 3 == 0, name="3Z/12")
    res = reidemeister_schreier(g, s, sub)
    assert res.index == 3
    assert set(res.generators.elements) <= {(0,), (3,), (9,)}
    # representatives lie in S^(d-1) = S^2
    assert all(t in {(0,), (1,), (2,), (10,), (11,)} for t in res.representatives)
    assert g.order // res.index == 4  # |H|


def test_rs_index_one_returns_s():
    g = build_group("cyclic:12")
    s = g.generating_set()
    res = reidemeister_schreier(g, s, SubgroupOracle(lambda x: True, name="G"))
    assert res.index == 1
    assert res.representatives == ((0,),)
    assert res.generators.elements == s.elements


def test_rs_symfp_index_two():
    gp = build_group("symfp:n=4,p=5,variant=Gprime")
    sp = gp.generating_set()
    gg = build_group("symfp:n=4,p=5,variant=G")
    oracle = SubgroupOracle(gg.contains, name="G_4")
    res = reidemeister_schreier(gp, sp, oracle)
    assert res.index == 2
    assert all(gg.contains(x) for x in res.generators.elements)
    assert sp.k / 2 <= res.generators.k <= 2 * sp.k
    # S0 lands inside S^(2d-1) = S^3, a prefix of the sphere-major closed ball
    ball = enumerate_ball(gp, sp)
    codes3 = {gp.encode(x) for x in ball.elements[: ball.ball(3)]}
    assert all(gp.encode(x) in codes3 for x in res.generators.elements)


def test_rs_rejects_inconsistent_oracle():
    g = build_group("cyclic:12")
    s = g.generating_set()
    bogus = SubgroupOracle(lambda x: x in ((0,), (1,), (5,)), name="bogus")
    with pytest.raises(OracleError):
        reidemeister_schreier(g, s, bogus)


# ---------------------------------------------------------------------------
# Abelian splits
# ---------------------------------------------------------------------------

SPLIT_SPECS = [
    "cyclic:12",
    "abelian:4,6",
    "ut:dim=2,p=5",
    "ut:dim=3,p=5",
    "ut:dim=4,p=3",
    "lamplighter:5",
    "symfp:n=3,p=5,variant=L",
    "symfp:n=3,p=5,variant=Gprime",
    "symfp:n=3,p=5,variant=G",
    "product(lamplighter:3)x(symfp:n=3,p=5,variant=Gprime)",
]


@pytest.mark.parametrize("spec", SPLIT_SPECS)
def test_abelian_split_factors_every_element(spec):
    g = build_group(spec)
    split = g.abelian_split()
    moduli = np.array(split.moduli)
    elements = enumerate_ball(g, g.generating_set()).elements
    assert len(elements) == g.order
    reps = [tuple(r) for r in split.reps.tolist()]
    assert reps[0] == g.identity()
    assert len(set(reps)) == split.index == g.order // math.prod(split.moduli)
    coset, h = split.locate(np.array(elements, dtype=np.int64))
    coords = [tuple(r) for r in h.tolist()]
    assert ((0 <= h) & (h < moduli)).all()
    # H is the identity's coset, and its H-coordinates name each of its elements once
    members = {coords[i]: x for i, x in enumerate(elements) if coset[i] == 0}
    assert len(members) == math.prod(split.moduli)
    assert members[(0,) * len(moduli)] == g.identity()
    # x h_c has the coordinates of x plus the unit vector e_c: so H is closed,
    # generated by the h_c, and its coordinates add, which makes it abelian
    for c in range(len(moduli)):
        unit = tuple(int(i == c) % m for i, m in enumerate(split.moduli))
        products = np.array([g.mul(x, members[unit]) for x in members.values()], dtype=np.int64)
        got_coset, got = split.locate(products)
        assert (got_coset == 0).all(), (spec, c)
        assert np.array_equal(got, (np.array(list(members)) + np.array(unit)) % moduli), (spec, c)
    # every element is its representative times the member its H-coordinates name
    for x, c, y in zip(elements, coset.tolist(), coords):
        assert g.mul(reps[c], members[y]) == x, (spec, x)


@pytest.mark.parametrize("spec", SPLIT_SPECS)
def test_abelian_split_basis_has_the_unit_coordinates(spec):
    # basis row c lies in H itself (coset 0) with H-coordinates e_c
    split = build_group(spec).abelian_split()
    coset, h = split.locate(split.basis)
    assert not coset.any()
    assert np.array_equal(h, np.eye(len(split.moduli), dtype=np.int64))


def test_infinite_groups_have_no_abelian_split():
    assert build_group("freenil:r=2,s=2").abelian_split() is None
    assert build_group("product(freenil:r=2,s=2)x(cyclic:3)").abelian_split() is None
