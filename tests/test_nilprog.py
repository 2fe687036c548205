"""Commutator bases and the four progression models."""

import bisect
import math
from collections import Counter

import numpy as np
import pytest
from sympy import divisors, mobius

from cayleylab import growth, nilprog
from cayleylab.groups import FreeNilpotentGroup, GeneratingSet, ResourceRefusal, build_group, commutator, row_keys
from cayleylab.nilprog import (
    MAX_POWER,
    PowerLawReport,
    ProgressionSet,
    commutator_depth,
    enumerate_progression,
    generalised_commutators,
    hall_basis,
    progression_spec,
    total_weight,
    tree_key,
    tree_text,
    verify_nesting,
    verify_power_laws,
    verify_properness,
    weight_vector,
)


@pytest.mark.parametrize("seed", range(6))
def test_isin_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    span = [4, 50, 1 << 62][seed % 3]
    keys = rng.integers(-span, span, size=rng.integers(0, 300))
    known = rng.integers(-span, span, size=rng.integers(0, 300))
    known = np.concatenate([known, keys[: len(keys) // 3]])  # some hits even over a wide span
    for a, b in ((keys, known), (keys, known[:0]), (keys[:0], known), (known, known)):
        assert np.array_equal(nilprog._isin(a, b), np.isin(a, b))


def texts(comms) -> list[str]:
    return [e.text() for e in comms]


def necklace_count(r: int, w: int) -> int:
    """Dimension of the degree-w layer of the free Lie algebra on r letters."""
    return sum(mobius(d) * r ** (w // d) for d in divisors(w)) // w


# ---------------------------------------------------------------------------
# Hall basis
# ---------------------------------------------------------------------------


def test_hall_basis_small_cases():
    assert texts(hall_basis(2, 2)) == ["x1", "x2", "[x2,x1]"]
    assert texts(hall_basis(2, 3)) == ["x1", "x2", "[x2,x1]", "[[x2,x1],x1]", "[[x2,x1],x2]"]
    assert len(hall_basis(3, 2)) == 6
    assert texts(hall_basis(1, 5)) == ["x1"]


def test_hall_basis_ordering_constraints():
    basis = hall_basis(3, 4)
    weights = [total_weight(e.shape) for e in basis]
    assert weights == sorted(weights)
    vectors = [weight_vector(e.shape, 3) for e in basis]
    # equal weight vectors are consecutive
    seen = []
    for v in vectors:
        if not seen or seen[-1] != v:
            assert v not in seen
            seen.append(v)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_hall_weight_counts_match_necklace_formula(r, s):
    counts = Counter(total_weight(e.shape) for e in hall_basis(r, s))
    for w in range(1, s + 1):
        assert counts.get(w, 0) == necklace_count(r, w)


def reference_value(group, gens, tree):
    """A commutator tree evaluated letter by letter with every sign +1."""
    if isinstance(tree, int):
        return gens[tree]
    return commutator(group, reference_value(group, gens, tree[0]), reference_value(group, gens, tree[1]))


@pytest.mark.parametrize("r,s", [(1, 3), (2, 3), (3, 3), (3, 4)])
def test_basic_commutators_are_all_positive_generalised_commutators(r, s):
    g = FreeNilpotentGroup(r, s)
    gens = g.raw_generators()
    basis = hall_basis(r, s)
    signed = set(generalised_commutators(r, s))
    L = tuple(range(2, r + 2))
    for entry in basis:
        value = entry.evaluate(g, gens)
        assert set(entry.signs) == {1} and entry in signed
        assert entry.text() == tree_text(entry.shape)
        assert g.encode(value) == g.encode(reference_value(g, gens, entry.shape))
        assert nilprog._l_chi(L, entry.shape) == math.prod(l**c for l, c in zip(L, weight_vector(entry.shape, r)))


def test_ordered_factors_are_the_weight_one_basis():
    spec = progression_spec("ordered", 3, 2, (1, 2, 3))
    basis = progression_spec("nilpotent", 3, 1, (1, 2, 3), spec.group)
    assert nilprog._factors_for(spec) == nilprog._factors_for(basis)
    assert [b for _, b in nilprog._factors_for(spec)[0]] == [1, 2, 3]


def test_hall_basis_size_refusal():
    with pytest.raises(ResourceRefusal):
        hall_basis(10, 5)


def test_shapes_meet_the_cap_exactly():
    # r letters alone, then r + r(r-1)/2 with the weight-2 pairs: 140 + 9730 fits, 141 + 9870 does not
    # (the shapes alone: a basis of 10^4 letters also holds 10^4 weight vectors of length 10^4)
    for basic in (True, False):
        assert len(nilprog._shapes(10**4, 1, basic)) == 10**4
        assert len(nilprog._shapes(140, 2, basic)) == 9870
    for r, s in ((10**4 + 1, 1), (141, 2), (40, 3)):
        for build in (hall_basis, generalised_commutators):
            with pytest.raises(ResourceRefusal, match=f"commutator shapes for \\(r={r}, s={s}\\) exceed 10000"):
                build(r, s)


def reference_shapes(r, s, basic):
    """The two separate recursions the shared one replaced: hall_basis's (basic) and generalised_commutators'."""
    shapes = list(range(r))
    by_weight = {1: list(range(r))}
    for w in range(2, s + 1):
        layer = []
        for wu in range(1, w):
            wv = w - wu
            for u in by_weight.get(wu, ()):
                ku = tree_key(u, r)
                for v in by_weight.get(wv, ()):
                    if tree_key(v, r) >= ku:
                        continue
                    if basic and not isinstance(u, int) and tree_key(u[1], r) > tree_key(v, r):
                        continue
                    layer.append((u, v))
        layer.sort(key=lambda t: tree_key(t, r))
        by_weight[w] = layer
        shapes.extend(layer)
    shapes.sort(key=lambda t: tree_key(t, r))
    return shapes


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_shape_recursion_matches_both_reference_recursions(r, s):
    assert [e.shape for e in hall_basis(r, s)] == reference_shapes(r, s, basic=True)
    shapes = []
    for e in generalised_commutators(r, s):
        if not shapes or shapes[-1] != e.shape:
            shapes.append(e.shape)
    assert shapes == reference_shapes(r, s, basic=False)


# ---------------------------------------------------------------------------
# Generalised commutators
# ---------------------------------------------------------------------------


def test_generalised_commutators_counts():
    assert len(generalised_commutators(2, 2)) == 6
    assert len(generalised_commutators(1, 4)) == 1
    assert len(generalised_commutators(2, 3)) == 22  # 6 plus 16 weight-3 sign variants


def test_generalised_commutators_structure():
    gc = generalised_commutators(2, 2)
    names = texts(gc)
    assert names[:2] == ["x1", "x2"]
    assert set(names[2:]) == {"[x2,x1]", "[x2,x1^-1]", "[x2^-1,x1]", "[x2^-1,x1^-1]"}
    # sign variants of one shape are consecutive and share a weight vector
    shapes = [tree_text(e.shape) for e in gc]
    assert shapes == sorted(shapes, key=shapes.index)
    weights = {weight_vector(e.shape, 2) for e in gc[2:]}
    assert weights == {(1, 1)}


def test_generalised_commutators_evaluate():
    g = FreeNilpotentGroup(2, 2)
    x, y = g.raw_generators()
    values = [e.evaluate(g, [x, y]) for e in generalised_commutators(2, 2)]
    # two-step bilinearity collapses the four sign variants onto {z, z^-1}
    z = commutator(g, y, x)
    codes = {g.encode(v) for v in values[2:]}
    assert codes == {g.encode(z), g.encode(g.inv(z))}
    assert g.encode(g.identity()) not in codes


# ---------------------------------------------------------------------------
# Progressions
# ---------------------------------------------------------------------------


def test_ordered_progression_cardinality():
    pset = enumerate_progression(progression_spec("ordered", 2, 2, (1, 1)))
    assert pset.cardinality == 9


def test_nilpotent_progression_proper():
    pset = enumerate_progression(progression_spec("nilpotent", 2, 2, (1, 1)))
    assert pset.cardinality == 27 and pset.proper and pset.formal_box == 27


def test_nilprogression_symmetric_and_contains_ordered():
    spec = progression_spec("nilprogression", 2, 2, (2, 1))
    pset = enumerate_progression(spec)
    g = spec.group
    inverses = {g.inv(x) for x in pset.members}
    assert inverses == pset.members
    ordered = enumerate_progression(progression_spec("ordered", 2, 2, (2, 1)))
    assert ordered.members <= pset.members


def test_zero_side_lengths_give_identity():
    for kind in ("ordered", "nilprogression", "nilpotent", "nilcomplete"):
        pset = enumerate_progression(progression_spec(kind, 2, 2, (0, 0)))
        assert pset.cardinality == 1


def test_progression_monotone_in_l():
    for kind in ("ordered", "nilprogression", "nilpotent", "nilcomplete"):
        small = enumerate_progression(progression_spec(kind, 2, 2, (1, 1)))
        large = enumerate_progression(progression_spec(kind, 2, 2, (2, 1)))
        assert small.members <= large.members


def test_nesting_chain_small():
    rep = verify_nesting(2, 2, (1, 1))
    assert rep.holds
    assert rep.cardinalities["ordered"] == 9
    assert rep.cardinalities["nilpotent"] == 27


def test_containment_failure_names_the_least_missing_element():
    sets = {kind: enumerate_progression(progression_spec(kind, 2, 2, (1, 1))) for kind in ("ordered", "nilcomplete")}
    g = sets["ordered"].spec.group
    rep = nilprog._check_containment(g, sets["nilcomplete"], sets["ordered"], "nilcomplete", "ordered")
    assert rep.holds is False
    assert rep.counterexample == "1 - X1*X2 + X2*X1"


def test_properness_ut_backend_pigeonhole():
    g = build_group("ut:dim=3,p=3")
    x, y = g.raw_generators()
    spec = progression_spec("nilpotent", 2, 2, (2, 2), g, [x, y])
    rep = verify_properness(spec)
    assert not rep.proper
    assert rep.cardinality <= 27 < 225 == rep.formal_box


def test_properness_degenerate_generator():
    rep = verify_properness(progression_spec("nilpotent", 2, 2, (1, 0)))
    assert rep.proper and rep.cardinality == 3


def test_non_nilpotent_backend_rejected():
    g = build_group("symfp:n=3,p=7")
    gens = g.raw_generators()[:2]
    with pytest.raises(ValueError):
        progression_spec("nilprogression", 2, 2, (1, 1), g, gens)


def test_non_nilpotent_backend_rejected_at_any_step():
    # r^(s+1) = 8192 left-normed commutators: too many to list, but the
    # lower central series of S_3 stalls at its alternating subgroup
    g = build_group("symfp:n=3,p=7")
    gens = g.raw_generators()[:2]
    with pytest.raises(ValueError, match="not nilpotent"):
        progression_spec("nilprogression", 2, 12, (1, 1), g, gens)


def test_nilpotency_class_bounds_the_step():
    g = build_group("ut:dim=4,p=3")  # class 3
    gens = g.raw_generators()
    assert len(nilprog._lower_central_series(g, gens)) == 3
    with pytest.raises(ValueError, match="s-step nilpotent"):
        progression_spec("nilprogression", 3, 2, (1, 1, 1), g, gens)
    assert progression_spec("nilprogression", 3, 3, (1, 1, 1), g, gens).s == 3


# ---------------------------------------------------------------------------
# The row engine against the set-comprehension oracle
# ---------------------------------------------------------------------------


def oracle_set_product(group, A, B, meter, ahead):
    meter.charge(len(A) * len(B), ahead)
    mul = group.mul
    return {mul(a, b) for a in A for b in B}


def oracle_power_range(group, x, bound, meter):
    meter.charge(2 * bound + 1)
    out = {group.identity()}
    for step in (x, group.inv(x)):
        cur = group.identity()
        for _ in range(bound):
            cur = group.mul(cur, step)
            out.add(cur)
    return out


def oracle_ordered_product(group, factors, meter):
    """The set-comprehension ordered product the row engine replaced: power
    ranges and set products of element tuples, one mul call per product."""
    ranges = [oracle_power_range(group, y, bound, meter) for y, bound in reversed(factors)]
    if not ranges:
        return {group.identity()}
    acc = ranges[0]
    rest = sum(map(len, ranges[1:]))
    for powers in ranges[1:]:
        rest -= len(powers)
        acc = oracle_set_product(group, powers, acc, meter, len(acc) * rest)
    return acc


def oracle_words(spec, meter):
    """The nilprogression by the word search the level-by-level row engine
    replaced: a depth-first search over per-letter budgets, one mul and one
    charge per word."""
    group = spec.group
    gens = list(spec.generators)
    inv_gens = [group.inv(x) for x in gens]
    out = {group.identity()}

    def dfs(current, budgets):
        for i in range(spec.r):
            if budgets[i] == 0:
                continue
            budgets[i] -= 1
            for step in (gens[i], inv_gens[i]):
                meter.charge(1)
                nxt = group.mul(current, step)
                out.add(nxt)
                dfs(nxt, budgets)
            budgets[i] += 1

    dfs(group.identity(), list(spec.L))
    return out


def oracle_enumerate(spec, merge=True):
    """The element set and meter charge of the tuple engines: the
    set-comprehension ordered product, or the word search for a nilprogression."""
    meter = nilprog._WorkMeter()
    if spec.kind == "nilprogression":
        return oracle_words(spec, meter), meter.used
    factors = nilprog._factors_for(spec)[0]
    if merge:
        factors = nilprog._merge_powers(spec.group, factors)
    return oracle_ordered_product(spec.group, factors, meter), meter.used


def _oracle_specs():
    specs = [progression_spec(kind, *case) for case in ((2, 2, (1, 1)), (2, 2, (2, 1)), (3, 2, (1, 1, 1))) for kind in nilprog.KINDS]
    ut = build_group("ut:dim=3,p=3")
    specs.append(progression_spec("nilpotent", 2, 2, (2, 2), ut, ut.raw_generators()))
    product = build_group("product(freenil:r=2,s=2)x(cyclic:3)")
    x1, x2 = FreeNilpotentGroup(2, 2).raw_generators()
    specs.append(progression_spec("ordered", 2, 2, (2, 3), product, [x1 + (1,), x2 + (2,)]))
    ut11 = build_group("ut:dim=3,p=11")  # the case verify commdepth runs
    specs.append(progression_spec("nilprogression", 2, 2, (1, 1), ut11, ut11.raw_generators()))
    specs.append(progression_spec("nilprogression", 2, 2, (4, 3)))
    return specs


@pytest.mark.parametrize("spec", _oracle_specs(), ids=lambda spec: f"{spec.kind}-{spec.group.name}-{spec.L}")
def test_row_engine_matches_set_oracle(spec, monkeypatch):
    meters = []

    class RecordingMeter(nilprog._WorkMeter):
        def __init__(self):
            super().__init__()
            meters.append(self)

    members, used = oracle_enumerate(spec)
    monkeypatch.setattr(nilprog, "_WorkMeter", RecordingMeter)
    pset = enumerate_progression(spec)
    assert pset.members == members and pset.cardinality == len(members)
    assert len(meters) == 1
    if spec.kind == "nilprogression":
        # one product per distinct element of the level before, not one per word
        assert meters[0].used <= used
    else:
        assert meters[0].used == used


def test_nilprogression_makes_no_mul_call(monkeypatch):
    def refuse(self, a, b):
        raise AssertionError("mul called")

    monkeypatch.setattr(FreeNilpotentGroup, "mul", refuse)
    spec = progression_spec("nilprogression", 2, 2, (2, 1))
    assert enumerate_progression(spec).cardinality == 31


_NESTING_GRID = ((2, 2, (1, 1)), (2, 2, (2, 2)), (2, 3, (1, 1)), (3, 2, (1, 1, 1)))


@pytest.mark.parametrize("r, s, L", _NESTING_GRID)
def test_merged_powers_give_the_unmerged_products(r, s, L):
    for kind in ("ordered", "nilpotent", "nilcomplete"):
        spec = progression_spec(kind, r, s, L)
        assert enumerate_progression(spec).members == oracle_enumerate(spec, merge=False)[0]


def test_merging_shortens_the_nilcomplete_products():
    counts = {}
    for r, s in ((2, 2), (2, 3), (3, 2)):
        spec = progression_spec("nilcomplete", r, s, (1,) * r)
        factors = nilprog._factors_for(spec)[0]
        counts[r, s] = (len(factors), len(nilprog._merge_powers(spec.group, factors)))
    assert counts == {(2, 2): (6, 3), (2, 3): (22, 8), (3, 2): (15, 6)}


def test_row_keys_are_equal_exactly_when_rows_are():
    """Spans of 2^32 force the keys to be re-ranked before the third column,
    and a span of 2^61 forces the fourth column to be re-ranked as well: int64
    products that wrapped would make keys collide.  The keys order the rows
    lexicographically, which the BFS of a group without a codec relies on."""
    grid = [(a, b * (2**32 - 1), c * (2**32 - 1), d * (2**61 - 1)) for a in range(12) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
    rows = np.array(grid, dtype=np.int64)
    arrays = [rows[::2], rows[:0], rows[1::3], rows[::-5]]
    keys = np.concatenate(row_keys(*arrays)).tolist()
    tuples = [tuple(row) for a in arrays for row in a.tolist()]
    assert len(keys) == len(tuples)
    assert len(set(zip(keys, tuples))) == len(set(keys)) == len(set(tuples))
    assert [row for _, row in sorted(set(zip(keys, tuples)))] == sorted(set(tuples))


def test_power_range_refuses_coefficients_at_two_to_the_62():
    # the coefficient of X1^4 in x1^l is C(l, 4): about 0.9 * 2^62 at
    # l = 100000, whose keys need both re-rankings, and past 2^62 at 200000
    assert enumerate_progression(progression_spec("ordered", 1, 4, (100000,))).cardinality == 200001
    with pytest.raises(ResourceRefusal, match=r"2\^62"):
        enumerate_progression(progression_spec("ordered", 1, 4, (200000,)))


def test_nesting_and_power_laws_never_read_members(monkeypatch):
    def unread(self):
        raise AssertionError("members read")

    monkeypatch.setattr(ProgressionSet, "members", property(unread))
    assert verify_nesting(2, 2, (1, 1)).holds
    rep = verify_power_laws(2, 2, (1, 1), 2, M=2)
    assert (rep.minimal_power_m, rep.cover_size) == (4, 63)


# ---------------------------------------------------------------------------
# Power laws
# ---------------------------------------------------------------------------


def test_power_law_degenerate_n1():
    rep = verify_power_laws(2, 2, (1, 1), 1)
    assert rep.power_containment_holds and rep.minimal_power_m == 1


def test_power_law_cover_certificate():
    rep = verify_power_laws(2, 2, (1, 1), 2, M=2)
    assert rep.power_containment_holds
    assert rep.cover_verified and rep.cover_size >= 1
    assert rep.minimal_power_m is not None


def test_power_law_cover_follows_code_order():
    """The greedy cover walks P(ML) in sorted-code order, and its size depends
    on that order: five shuffles of the same 825-element target gave covers of
    30 to 40.  So the codes, and the order they sort in, are pinned here."""
    rep = verify_power_laws(2, 2, (1, 1), 2, M=2)
    assert rep.minimal_power_m == 4
    assert rep.cover_size == 63


def test_power_laws_encode_only_to_sort(monkeypatch):
    """Every progression is a set of coordinate rows keyed on integers:
    enumeration and the nesting chain never encode, and the power laws encode
    only to sort the 825-element cover target."""
    calls = []
    encode = FreeNilpotentGroup.encode
    monkeypatch.setattr(FreeNilpotentGroup, "encode", lambda self, a: calls.append(a) or encode(self, a))
    verify_nesting(2, 2, (1, 1))
    assert calls == []
    verify_power_laws(2, 2, (1, 1), 2, M=2)
    assert len(calls) <= 825


def reference_power_laws(r, s, L, n, M=None, with_min_power=True):
    """The two-pass verify_power_laws the single pass replaced: P, P^2, ... up to
    P^n for the containment, then again from P up to the covering m.  Returns
    the report and the work each pass charged."""
    g = FreeNilpotentGroup(r, s)
    base = enumerate_progression(progression_spec("nilcomplete", r, s, tuple(L)))
    dilated = enumerate_progression(progression_spec("nilcomplete", r, s, tuple(n * l for l in L)))
    base_dict = {g.encode(x): x for x in base.members}
    dilated_codes = {g.encode(x) for x in dilated.members}
    work = []

    def grow_powers(stop_when_covers, up_to):
        known = dict(base_dict)
        frontier = dict(base_dict)
        m = 1
        used = 0
        covering = 1 if (stop_when_covers is not None and stop_when_covers <= set(known)) else None
        while m < up_to and covering is None and frontier:
            used += len(frontier) * len(base_dict)
            new = {}
            for a in frontier.values():
                for b in base_dict.values():
                    c = g.mul(a, b)
                    code = g.encode(c)
                    if code not in known and code not in new:
                        new[code] = c
            known.update(new)
            frontier = new
            m += 1
            if stop_when_covers is not None and stop_when_covers <= set(known):
                covering = m
        work.append(used)
        return known, covering

    power_known, _ = grow_powers(None, n)
    holds = set(power_known) <= dilated_codes
    minimal_m = grow_powers(dilated_codes, MAX_POWER)[1] if with_min_power else None
    cover_size = cover_verified = None
    if M is not None:
        target = enumerate_progression(progression_spec("nilcomplete", r, s, tuple(M * l for l in L)))
        covered, translates = set(), []
        for z in sorted(target.members, key=g.encode):
            if g.encode(z) in covered:
                continue
            translates.append(z)
            for p in base_dict.values():
                covered.add(g.encode(g.mul(p, z)))
        cover_size, cover_verified = len(translates), {g.encode(z) for z in target.members} <= covered
    return PowerLawReport(r, s, tuple(L), n, M, holds, minimal_m, cover_size, cover_verified), work


@pytest.mark.parametrize(
    "r, s, L, n, M, with_min",
    [
        (2, 2, (1, 1), 1, None, True),
        (2, 2, (1, 1), 2, 2, True),
        (2, 2, (0, 0), 3, None, True),
        (1, 1, (2,), 3, 2, True),
        (2, 2, (2, 1), 2, None, False),
    ],
)
def test_power_pass_matches_two_pass_reference(r, s, L, n, M, with_min, monkeypatch):
    meters = []

    class RecordingMeter(nilprog._WorkMeter):
        def __init__(self):
            super().__init__()
            meters.append(self)

    monkeypatch.setattr(nilprog, "_WorkMeter", RecordingMeter)
    rep = verify_power_laws(r, s, L, n, M=M, with_min_power=with_min)
    ref, work = reference_power_laws(r, s, L, n, M=M, with_min_power=with_min)
    assert rep == ref
    # meters: the base set's, the dilate's, then the power pass's, which
    # charges what the longer of the two old passes charged
    assert meters[2].used == max(work)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_pass_reads_each_power_at_its_step(k, monkeypatch):
    """With the dilate P(2L) swapped for P(L)^k, P^2 lies inside it exactly when
    k >= 2, and the least covering m is k."""
    g = FreeNilpotentGroup(2, 2)
    base = enumerate_progression(progression_spec("nilcomplete", 2, 2, (1, 1)))
    power = {g.encode(x): x for x in base.members}
    for _ in range(k - 1):
        power = {g.encode(c): c for c in (g.mul(a, b) for a in power.values() for b in base.members)}
    assert len(power) > base.cardinality or k == 1
    real = nilprog.enumerate_progression

    def swapped(spec):
        if spec.L != (2, 2):
            return real(spec)
        return ProgressionSet(spec, np.array(list(power.values()), dtype=np.int64), None)

    monkeypatch.setattr(nilprog, "enumerate_progression", swapped)
    rep = verify_power_laws(2, 2, (1, 1), 2)
    assert rep.power_containment_holds == (k >= 2)
    assert rep.minimal_power_m == k


def test_nilprogression_cube_ratio_blowup():
    """The tripling ratio of the rank-2 nilprogression grows with the long side."""
    g = FreeNilpotentGroup(2, 2)
    ratios = []
    for L in (1, 2, 3, 4):
        spec = progression_spec("nilprogression", 2, 2, (L, 1), g)
        pset = enumerate_progression(spec)
        current = {g.encode(x): x for x in pset.members}
        base = current
        for _ in range(2):
            nxt = {}
            for a in current.values():
                for b in base.values():
                    c = g.mul(a, b)
                    nxt[g.encode(c)] = c
            current = nxt
        ratios.append(len(current) / pset.cardinality)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


# ---------------------------------------------------------------------------
# Commutator depth
# ---------------------------------------------------------------------------


def test_commutator_depth_unitriangular():
    g = build_group("ut:dim=3,p=11")
    x, y = g.raw_generators()
    pset = enumerate_progression(progression_spec("nilprogression", 2, 2, (1, 1), g, [x, y]))
    rep = commutator_depth(g, pset)
    assert rep.commutator_order == 11  # the derived subgroup is the center
    assert rep.m <= 10 * rep.gamma**0.5


def test_commutator_depth_abelian_is_zero():
    g = build_group("abelian:4,9")
    gens = g.raw_generators()
    pset = enumerate_progression(progression_spec("nilprogression", 2, 1, (1, 1), g, gens))
    rep = commutator_depth(g, pset)
    assert rep.m == 0 and rep.commutator_order == 1


@pytest.mark.parametrize("p", [11, 31])
def test_commutator_depth_builds_only_the_derived_subgroup(p, monkeypatch):
    g = build_group(f"ut:dim=3,p={p}")
    pset = enumerate_progression(progression_spec("nilprogression", 2, 2, (1, 1), g, list(g.raw_generators())))
    closure = nilprog._normal_closure
    calls = []
    monkeypatch.setattr(nilprog, "_normal_closure", lambda *args: calls.append(args) or closure(*args))
    rep = commutator_depth(g, pset)
    # [G, G] is one normal closure; the rest of the lower central series is not needed
    assert len(calls) == 1 and rep.commutator_order == p


def test_commutator_depth_builds_no_tuples_for_its_ball(monkeypatch):
    # the P-ball has 1,331 elements; only the normal closure's own small balls build tuples
    g = build_group("ut:dim=3,p=11")
    pset = enumerate_progression(progression_spec("nilprogression", 2, 2, (1, 1), g, list(g.raw_generators())))
    sizes = []
    row_tuples = growth._row_tuples
    monkeypatch.setattr(growth, "_row_tuples", lambda X: sizes.append(len(X)) or row_tuples(X))
    rep = commutator_depth(g, pset)
    assert rep.commutator_order == 11
    assert sizes and max(sizes) < g.order == 1331


@pytest.mark.parametrize(
    "spec, s, L",
    [("ut:dim=3,p=5", 2, (1, 1)), ("ut:dim=3,p=7", 2, (2, 1)), ("ut:dim=3,p=11", 2, (1, 1)), ("abelian:4,9", 1, (1, 1))],
)
def test_commutator_depth_matches_the_element_index(spec, s, L):
    """m from the last position of [G, G] in the P-ball's element index: the reference for the rank lookup."""
    g = build_group(spec)
    pset = enumerate_progression(progression_spec("nilprogression", 2, s, L, g, list(g.raw_generators())))
    rep = commutator_depth(g, pset)
    ball = growth.enumerate_ball(g, GeneratingSet(g, tuple(pset.members)))
    index = {x: i for i, x in enumerate(ball.elements)}
    comm = nilprog.derived_subgroup(g, list(pset.spec.generators))
    assert rep.m == bisect.bisect_right(ball.ball_sizes, max(index[x] for x in comm))


def reference_normal_closure(group, seed, conjugators):
    """Closure by alternating product and conjugation passes: the reference for the BFS closure."""
    elems = {group.encode(group.identity()): group.identity()}
    hgens = {}
    for x in seed:
        for y in (x, group.inv(x)):
            hgens.setdefault(group.encode(y), y)
    changed = True
    while changed:
        changed = False
        frontier = list(elems.values())
        while frontier:
            nxt = []
            for a in frontier:
                for h in list(hgens.values()):
                    y = group.mul(a, h)
                    code = group.encode(y)
                    if code not in elems:
                        elems[code] = y
                        nxt.append(y)
            frontier = nxt
        for h in list(elems.values()):
            for c in conjugators:
                y = group.mul(group.mul(group.inv(c), h), c)
                if group.encode(y) not in elems:
                    for z in (y, group.inv(y)):
                        hgens.setdefault(group.encode(z), z)
                    changed = True
    return elems


def _closures(spec):
    """derived_subgroup as element set and the lower central series length as class, or ValueError text."""
    g = build_group(spec)
    gens = list(g.raw_generators())
    try:
        cls = len(nilprog._lower_central_series(g, gens))
    except ValueError as exc:
        cls = str(exc)
    return set(nilprog.derived_subgroup(g, gens)), cls


@pytest.mark.parametrize(
    "spec",
    [
        "ut:dim=3,p=11",
        "ut:dim=4,p=3",
        "lamplighter:4",
        "product(ut:dim=3,p=5)x(cyclic:4)",
        "cyclic:12",
        "symfp:n=2,p=3",  # not nilpotent
        "lamplighter:3",  # not nilpotent
    ],
)
def test_normal_closure_matches_closure_loop_reference(spec, monkeypatch):
    got = _closures(spec)
    # the reference keys its closure on codes; hand its elements to the series
    monkeypatch.setattr(nilprog, "_normal_closure", lambda *args: frozenset(reference_normal_closure(*args).values()))
    assert got == _closures(spec)
