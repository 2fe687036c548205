"""Family constructions: order formulas, generating sets, tower diameters."""

import math

import pytest

from cayleylab.groups import SpecSemanticError, build_group
from cayleylab.zoo import (
    central_factorization_check,
    construct_family,
    coordinate_window_check,
    sharpness_instances,
    standard_zoo,
    verify_lgg,
    zoo_listing,
)


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


def test_sharpness_instances_shape():
    rows = sharpness_instances(0.8, [8, 16])
    assert len(rows) == 2
    label, group, gens = rows[0]
    assert group.order == max(2, math.ceil(8**0.8)) * 2 ** max(2, math.ceil(8**0.8)) * 8
