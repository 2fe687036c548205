"""Family constructions: order formulas, generating sets, tower diameters."""

import math

import pytest

from cayleylab.groups import SpecSemanticError, SymFpGroup, build_group
from cayleylab.growth import closed_ball, enumerate_ball
from cayleylab.zoo import construct_family, standard_zoo, verify_lgg, zoo_listing


def test_order_formulas():
    assert construct_family("symfp:n=3,p=7,variant=L").order == math.factorial(3) * 7**3
    assert construct_family("symfp:n=3,p=7,variant=Gprime").order == math.factorial(3) * 7**2
    assert construct_family("symfp:n=3,p=7,variant=G").order == math.factorial(3) * 7**2 // 2
    assert construct_family("lamplighter:4").order == 4 * 2**4
    assert construct_family("ut:dim=3,p=5").order == 5**3
    assert construct_family("ut:dim=4,p=3").order == 3**6


def test_tower_indices():
    l = construct_family("symfp:n=4,p=5,variant=L").order
    gp = construct_family("symfp:n=4,p=5,variant=Gprime").order
    g0 = construct_family("symfp:n=4,p=5,variant=G").order
    assert l // gp == 5 and gp // g0 == 2


def test_generating_set_sizes():
    assert construct_family("symfp:n=3,p=7,variant=L").k == 6
    assert construct_family("lamplighter:3").k == 4
    assert construct_family("product(lamplighter:3)x(cyclic:8)").k == 4 * 3


def test_symfp_rejects_small_prime():
    with pytest.raises(SpecSemanticError):
        build_group("symfp:n=5,p=5")
    with pytest.raises(SpecSemanticError):
        build_group("symfp:n=4,p=3")


def test_verify_lgg_small_towers():
    rep = verify_lgg(3, 7)
    assert rep.ok
    assert (7 - 1) / 2 <= rep.gamma_L
    assert (7 ** (2 / 3) - 1) / 2 <= rep.gamma_prime
    assert 7 ** (2 / 3) / 10 <= rep.gamma_0
    smoke = verify_lgg(2, 3)
    assert smoke.ok


def central_factorization_check(n: int, p: int) -> bool:
    """The full tower group is the direct product of the sum-zero subgroup with
    the central constant-vector copy of Z/p: all |Gprime| * p products are distinct."""
    full = SymFpGroup(n, p, "L")
    prime = SymFpGroup(n, p, "Gprime")
    ball = closed_ball(prime, prime.generating_set())
    ident = tuple(range(n))
    seen = set()
    for a in range(p):
        z = ident + (a,) * n
        for g in ball.elements:
            seen.add(full.mul(g, z))
    return len(seen) == full.order


def balanced_lift(x: int, p: int) -> int:
    """Representative of x mod p in (-p/2, p/2]."""
    x %= p
    return x - p if x > p // 2 else x


def coordinate_window_check(n: int, p: int, radius: int = 10) -> bool:
    """Every element of the radius-R ball in the full tower group has all its
    vector coordinates in [-R, R] (as balanced residues), for R <= radius."""
    full = SymFpGroup(n, p, "L")
    ball = enumerate_ball(full, full.generating_set())
    start = 0
    for r, end in enumerate(ball.ball_sizes[: radius + 1]):
        for x in ball.elements[start:end]:
            if any(abs(balanced_lift(v, p)) > r for v in x[n:]):
                return False
        start = end
    return True


def test_central_factorization():
    assert central_factorization_check(3, 5)


def test_coordinate_window():
    assert coordinate_window_check(3, 7, radius=10)


def test_zoo_listing_and_filters():
    rows = zoo_listing()
    assert all(row["provenance"] for row in rows)
    small = standard_zoo(max_order=100)
    assert all(inst.order <= 100 for inst in small)
    assert any(inst.label.startswith("lamplighter") for inst in small)


def test_zoo_generating_sets_are_symmetric():
    for inst in standard_zoo():
        g = inst.group
        members = set(inst.gens.elements)
        assert g.identity() in members
        for x in inst.gens.elements:
            assert g.inv(x) in members


def sharpness_instances(alpha: float, cycle_sizes: list[int]) -> list[tuple]:
    """Product instances lamplighter(ceil(N^alpha)) x cyclic(N) for the 2/3-exponent scan."""
    out = []
    for n in cycle_sizes:
        m = max(2, math.ceil(n**alpha))
        inst = construct_family(f"product(lamplighter:{m})x(cyclic:{n})")
        out.append((inst.label, inst.group, inst.gens))
    return out


def test_sharpness_instances_shape():
    rows = sharpness_instances(0.8, [8, 16])
    assert len(rows) == 2
    label, group, gens = rows[0]
    assert group.order == max(2, math.ceil(8**0.8)) * 2 ** max(2, math.ceil(8**0.8)) * 8
