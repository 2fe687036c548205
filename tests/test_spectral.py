"""Spectral gap, Cheeger constant, inequality chain, coset-subspace gap."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cayleylab.groups import OracleError, SubgroupOracle, build_group, symmetrize
from cayleylab.growth import enumerate_ball
from cayleylab.spectral import (
    build_context,
    cheeger,
    coset_gap,
    lambda1,
    rayleigh_probe,
    verify_spectral_inequalities,
)
from cayleylab.zoo import standard_zoo


def cycle_gap(n: int) -> float:
    return 2 - 2 * math.cos(2 * math.pi / n)


def mul_encode_context(group, gens):
    """Reference context: the closed ball plus a separate mul/encode pass over it."""
    ball = enumerate_ball(group, gens)
    index = ball.index()
    id_code = group.encode(group.identity())
    perms = []
    identity_gen = -1
    for gi, s in enumerate(gens.elements):
        if gens.codes[gi] == id_code:
            identity_gen = gi
        arr = np.empty(ball.size, dtype=np.int64)
        for i, x in enumerate(ball.elements):
            arr[i] = index[group.encode(group.mul(s, x))]
        perms.append(arr)
    return group, gens, ball, tuple(perms), identity_gen


def random_generating_sets():
    """A random symmetric generating set of three raw elements on a few small groups."""
    rng = random.Random(2015)
    for spec in ("cyclic:18", "abelian:4,6", "ut:dim=3,p=5", "lamplighter:4", "symfp:n=2,p=3,variant=L"):
        g = build_group(spec)
        pool = enumerate_ball(g, g.generating_set()).elements
        while True:
            gens = symmetrize(g, rng.sample(pool, 3))
            if enumerate_ball(g, gens).size == g.order:
                yield spec, g, gens
                break


def test_bfs_permutations_match_mul_encode_reference():
    cases = [(inst.label, inst.group, inst.gens) for inst in standard_zoo(max_order=5000)]
    cases += list(random_generating_sets())
    assert len(cases) > 25
    for label, g, gens in cases:
        ctx = build_context(g, gens)
        group, ref_gens, ball, perms, identity_gen = mul_encode_context(g, gens)
        assert (ctx.group, ctx.gens, ctx.ball, ctx.identity_gen) == (group, ref_gens, ball, identity_gen), label
        assert len(ctx.perms) == len(perms) == gens.k, label
        for got, want in zip(ctx.perms, perms):
            assert got.dtype == want.dtype and np.array_equal(got, want), label
        assert ctx.ball.successors.shape == (gens.k, ctx.n), label


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_cycle_lambda1_closed_form(n):
    g = build_group(f"cyclic:{n}")
    s = g.generating_set()
    rep = lambda1(g, s)
    assert abs(rep.lambda1 - cycle_gap(n)) < 1e-9
    assert rep.solver == "dense"


def test_solvers_agree_on_small_zoo():
    for inst in standard_zoo(max_order=500):
        if inst.order < 8:
            continue
        dense = lambda1(inst.group, inst.gens, method="dense")
        iterative = lambda1(inst.group, inst.gens, method="iterative")
        assert abs(dense.lambda1 - iterative.lambda1) < 1e-8, inst.label


def test_complete_generating_set_gap():
    g = build_group("cyclic:5")
    s = symmetrize(g, [1, 2, 3, 4])
    rep = lambda1(g, s)
    assert abs(rep.lambda1 - 5.0) < 1e-9


def test_cheeger_exact_cycles():
    g8 = build_group("cyclic:8")
    rep8 = cheeger(g8, g8.generating_set())
    assert rep8.mode == "exact" and rep8.exact_value == Fraction(1, 2)
    assert rep8.witness_size == 4
    g12 = build_group("cyclic:12")
    rep12 = cheeger(g12, g12.generating_set())
    assert rep12.exact_value == Fraction(1, 3)


def test_cheeger_bounded_interval_brackets_truth():
    g = build_group("cyclic:20")
    s = g.generating_set()
    exact = cheeger(g, s, exact_cap=22)
    bounded = cheeger(g, s, exact_cap=4)
    assert bounded.mode == "bounded"
    assert bounded.h_lower - 1e-12 <= float(exact.exact_value) <= bounded.h_upper + 1e-12


def test_boundary_symmetry_random_subsets():
    g = build_group("lamplighter:4")
    ctx = build_context(g, g.generating_set())
    nonid = ctx.nonid_perms()
    rng = random.Random(5)
    n = ctx.n

    def boundary(members: set) -> int:
        return sum(1 for x in members for p in nonid if int(p[x]) not in members)

    for _ in range(100):
        size = rng.randint(1, n - 1)
        subset = set(rng.sample(range(n), size))
        complement = set(range(n)) - subset
        assert boundary(subset) == boundary(complement)


def test_rayleigh_domination_random_vectors():
    g = build_group("cyclic:30")
    ctx = build_context(g, g.generating_set())
    rep = lambda1(g, g.generating_set())
    rng = np.random.default_rng(17)
    for _ in range(100):
        f = rng.normal(size=ctx.n)
        f -= f.mean()
        quotient = float(f @ ctx.laplacian_matvec(f)) / float(f @ f)
        assert quotient >= rep.lambda1 - 1e-8


def test_self_loop_contributes_nothing():
    g = build_group("cyclic:12")
    ctx = build_context(g, g.generating_set())
    n = ctx.n
    # Laplacian rebuilt without any identity handling: degree 2, two shifts
    mat = 2.0 * np.eye(n)
    for p in ctx.nonid_perms():
        mat[np.arange(n), p] -= 1.0
    vals = np.linalg.eigvalsh(mat)
    assert abs(vals[1] - lambda1(g, g.generating_set()).lambda1) < 1e-10


def test_chain_exact_groups_all_hold():
    for inst in standard_zoo(max_order=22):
        rep = verify_spectral_inequalities(inst.group, inst.gens)
        assert rep.h_mode == "exact"
        assert rep.all_hold, (inst.label, [c.to_dict() for c in rep.checks])


def test_chain_z2_degenerate():
    rep = verify_spectral_inequalities(build_group("cyclic:2"), build_group("cyclic:2").generating_set())
    assert rep.all_hold


def test_rayleigh_probe_cycle_values():
    g = build_group("cyclic:12")
    rep = rayleigh_probe(g, g.generating_set())
    assert not rep.skipped
    assert abs(rep.R - 48 / 152) < 1e-12  # hand-expanded quotient of the distance function
    assert rep.lambda1_value <= rep.R <= rep.bound
    assert rep.R <= 0.75 * (12 / 9)  # ball of radius 4 has 9 points
    assert abs(rep.mean_before) < 1e-9


def test_rayleigh_probe_skips_small_diameter():
    g = build_group("cyclic:4")
    rep = rayleigh_probe(g, g.generating_set())
    assert rep.skipped and rep.gamma == 2


def test_rayleigh_probe_unitriangular():
    g = build_group("ut:dim=3,p=11")
    rep = rayleigh_probe(g, g.generating_set())
    assert not rep.skipped
    assert rep.lambda1_value <= rep.R + 1e-9
    assert rep.R <= rep.bound + 1e-9


# ---------------------------------------------------------------------------
# Coset gap
# ---------------------------------------------------------------------------


def test_coset_gap_lamp_subgroup():
    g = build_group("lamplighter:6")
    rep = coset_gap(g, g.generating_set(), SubgroupOracle(lambda x: x[0] == 0, name="lamps"))
    assert not rep.degenerate
    assert rep.gap >= rep.bound - 1e-9
    assert rep.index == 6


def test_coset_gap_trivial_subgroup_degenerate():
    g = build_group("cyclic:12")
    rep = coset_gap(g, g.generating_set(), SubgroupOracle(lambda x: x == 0, name="e"))
    assert rep.degenerate and math.isinf(rep.gap)


def test_coset_gap_full_group_matches_lambda1():
    g = build_group("cyclic:12")
    s = g.generating_set()
    rep = coset_gap(g, s, SubgroupOracle(lambda x: True, name="G"))
    assert abs(rep.gap - lambda1(g, s).lambda1) < 1e-8
    assert rep.bound == 1.0 / 6**2


def test_coset_gap_rejects_non_normal():
    g = build_group("symfp:n=3,p=7")
    swap = (1, 0, 2)

    def in_tau(x):
        return x[1] == (0,) * 3 and x[0] in ((0, 1, 2), swap)

    with pytest.raises(OracleError):
        coset_gap(g, g.generating_set(), SubgroupOracle(in_tau, name="tau"))
