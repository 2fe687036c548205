"""Ball growth, doubling, flatness, moderate growth, covering witnesses."""

import math
import tracemalloc
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from cayleylab import cli, growth
from cayleylab.groups import OracleError, ResourceRefusal, SubgroupOracle, build_group, symmetrize
from cayleylab.growth import (
    Ball,
    Growth,
    NonGeneratingError,
    count_spheres,
    diameter,
    doubling_at_scale,
    doubling_scan,
    enumerate_ball,
    flatness_report,
    moderate_fit,
)
from cayleylab.spectral import build_context
from cayleylab.zoo import standard_zoo
from growth_engines import CosetSaturation, approximate_group_witness, coset_saturation, first_scale


def test_cycle_profile_values():
    g = build_group("cyclic:100")
    p = enumerate_ball(g, g.generating_set())
    assert p.ball(5) == 11
    assert p.ball(50) == 100
    assert p.diameter == 50
    assert p.sphere_sizes[1:] == (2,) * 49 + (1,)  # antipode is a single vertex


def test_diameter_examples():
    g = build_group("cyclic:12")
    assert diameter(g, g.generating_set()) == 6
    trivial = build_group("cyclic:1")
    assert diameter(trivial, trivial.generating_set()) == 0


def test_infinite_group_needs_explicit_radius():
    g = build_group("freenil:r=2,s=2")
    s = g.generating_set()
    with pytest.raises(ResourceRefusal):
        diameter(g, s)
    profile = count_spheres(g, s, max_radius=6)
    assert profile.truncated and profile.ball(6) > profile.ball(5)


def test_non_generating_set_detected():
    # S = {0, +-3} closes on the 4 multiples of 3: one check, one exception, wherever the whole group is enumerated
    g = build_group("cyclic:12")
    s = symmetrize(g, [(3,)])
    everything = SubgroupOracle(lambda x: True, name="G")
    for engine in (lambda: diameter(g, s), lambda: build_context(g, s), lambda: coset_saturation(g, s, everything)):
        with pytest.raises(NonGeneratingError) as err:
            engine()
        assert err.value.reached == 4 and err.value.expected == 12


def test_profile_ball_clamps_and_truncation():
    g = build_group("cyclic:100")
    p = enumerate_ball(g, g.generating_set())
    assert p.ball(200) == 100
    truncated = count_spheres(g, g.generating_set(), max_radius=5)
    assert truncated.diameter is None
    with pytest.raises(ValueError):
        truncated.ball(10)


def test_doubling_scan_values():
    g = build_group("cyclic:100")
    scan = doubling_scan(enumerate_ball(g, g.generating_set()))
    ratios = dict(scan.ratios_2n1)
    assert ratios[5] == Fraction(23, 11)
    assert all(r >= 1 for _, r in scan.ratios_2n1)
    assert first_scale(scan, 3) is not None


def test_doubling_window_linear_growth():
    g = build_group("cyclic:100")
    profile = enumerate_ball(g, g.generating_set())
    window = doubling_at_scale(profile, 0.5, 0.5)
    assert window.K == 5.0**8
    assert not window.window_empty
    # linear growth: every five-fold ratio in the window is at most 5
    balls = profile.ball_sizes
    for n in range(window.lo, window.hi + 1):
        assert balls[min(5 * n, 50)] <= 5 * balls[n]
    assert window.scale == window.lo


def test_doubling_window_empty_is_flagged():
    g = build_group("cyclic:4")
    profile = enumerate_ball(g, g.generating_set())  # gamma = 2
    window = doubling_at_scale(profile, 0.5, 0.45)
    assert window.window_empty and window.scale is None


def test_doubling_window_huge_k_saturates():
    g = build_group("cyclic:100")
    profile = enumerate_ball(g, g.generating_set())
    window = doubling_at_scale(profile, 1e-4, 1e-4)
    assert window.K == float("inf")
    assert window.window_empty or window.scale is not None


def test_moderate_fit_z20_exact():
    g = build_group("cyclic:20")
    fit = moderate_fit(enumerate_ball(g, g.generating_set()), 1)
    assert fit.exact and fit.A == 1 and fit.argmax_n == 10


def test_moderate_fit_d_zero_collapses():
    for spec in ("cyclic:20", "lamplighter:4"):
        g = build_group(spec)
        profile = enumerate_ball(g, g.generating_set())
        fit = moderate_fit(profile, 0)
        assert fit.A == Fraction(profile.group.order, profile.gens.k)


def test_moderate_fit_nonincreasing_in_d():
    g = build_group("lamplighter:5")
    profile = enumerate_ball(g, g.generating_set())
    values = [float(moderate_fit(profile, d).A) for d in (1, 2, 3, 4)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def is_eps_flat(rep, eps: float) -> bool:
    """Whether gamma >= (|G|/k)^eps, with 1e-12 relative slack for the derived exponent."""
    return rep.gamma >= (rep.group_order / rep.k) ** eps * (1.0 - 1e-12) - 1e-12


def test_flatness_freiman_bound_on_zoo():
    for inst in standard_zoo():
        profile = enumerate_ball(inst.group, inst.gens)
        rep = flatness_report(profile)
        assert rep.gamma <= rep.freiman_bound
        assert is_eps_flat(rep, rep.eps_star) or rep.gamma == 0


def test_submultiplicativity_on_zoo():
    for inst in standard_zoo(max_order=5000):
        profile = enumerate_ball(inst.group, inst.gens)
        balls = profile.ball_sizes
        gamma = profile.diameter
        for n in range(1, gamma + 1):
            for m in range(n, gamma + 1 - n):
                assert balls[n + m] <= balls[n] * balls[m]
        for n in range(gamma):
            assert balls[n + 1] <= profile.gens.k * balls[n]


def test_ball_sizes_are_summed_once(monkeypatch):
    original = Growth.__dict__["ball_sizes"]
    sums = []

    def counted(self):
        sums.append(1)
        return original.func(self)

    wrapper = cached_property(counted)
    wrapper.__set_name__(Growth, "ball_sizes")
    monkeypatch.setattr(Growth, "ball_sizes", wrapper)
    g = build_group("cyclic:100")
    ball = count_spheres(g, g.generating_set())
    cli._plain(ball)
    ball.columns()
    doubling_scan(ball)
    doubling_at_scale(ball, 0.5, 0.5)
    flatness_report(ball)
    moderate_fit(ball, 1)
    assert len(sums) == 1


def test_doubling_window_matches_a_scan_of_the_spheres():
    g = build_group("cyclic:60000")
    ball = enumerate_ball(g, g.generating_set())
    balls, total = [], 0
    for s in ball.sphere_sizes:
        total += s
        balls.append(total)
    gamma = len(balls) - 1
    window = doubling_at_scale(ball, 100, 1)
    assert (window.lo, window.hi) == (math.ceil(gamma**0.5), gamma)
    scale = next(n for n in range(window.lo, window.hi + 1) if balls[min(5 * n, gamma)] <= window.K * balls[n])
    assert window.scale == scale


def test_only_closures_carry_successors():
    g = build_group("cyclic:100")
    s = g.generating_set()
    full = enumerate_ball(g, s)
    assert full.complete and full.successors.shape == (s.k, 100)
    capped = enumerate_ball(g, s, cap=10)
    assert capped.capped and capped.successors is None
    # a profile counted to a radius is no ball: it keeps neither rows nor a table
    for radius in (5, 100):
        profile = count_spheres(g, s, max_radius=radius)
        assert profile.sphere_sizes == full.sphere_sizes[: radius + 1] and not isinstance(profile, Ball)
    f = build_group("freenil:r=2,s=2")
    assert not isinstance(count_spheres(f, f.generating_set(), max_radius=3), Ball)


def test_every_ball_keeps_its_rows():
    g = build_group("ut:dim=3,p=5")
    s = g.generating_set()
    product = build_group("product(lamplighter:3)x(cyclic:8)")
    balls = (
        enumerate_ball(g, s),
        enumerate_ball(g, s, cap=30),
        enumerate_ball(product, product.generating_set()),
        enumerate_ball(product, product.generating_set(), cap=50),
    )
    for ball in balls:
        assert ball.rows.dtype == np.int64 and ball.rows.tolist() == [list(x) for x in ball.elements]
        assert ball.size == len(ball.rows) == len(ball.elements)


def test_closure_without_an_array_form_is_refused_before_either_bfs(monkeypatch):
    """A finite group whose ranks pass 2^62 has no codec, so its closure is
    refused before the BFS starts; its spheres are still counted to a radius."""
    monkeypatch.setenv("CAYLEY_LAB_CAP", "5000000000")
    g = build_group("abelian:257,257,257,257")
    s = g.generating_set()
    assert g.codec is None and g.order == 257**4
    profile = count_spheres(g, s, max_radius=2)
    assert profile.sphere_sizes == (1, 8, 32) and profile.truncated and not isinstance(profile, Ball)

    def no_bfs(*args):
        raise AssertionError("a BFS started")

    monkeypatch.setattr(growth, "_spheres", no_bfs)
    f = build_group("freenil:r=2,s=2")
    for engine in (enumerate_ball, count_spheres):
        with pytest.raises(ResourceRefusal, match=r"^abelian:257,257,257,257 has coordinate ranks past 2\^62"):
            engine(g, s)
        with pytest.raises(ResourceRefusal, match="^freenil:r=2,s=2 is infinite: closure enumeration needs max_radius$"):
            engine(f, f.generating_set())


def test_diameter_holds_two_spheres_not_the_ball():
    # tracemalloc's peak for diameter on cyclic:20000 was 5.3 MiB when it
    # enumerated the closed ball with its successor table, and is 0.56 MiB
    # counting spheres, most of it the profile's 10,001 sphere sizes and totals
    g = build_group("cyclic:20000")
    s = g.generating_set()
    tracemalloc.start()
    try:
        gamma = diameter(g, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gamma == 10000
    assert peak < 3 << 19, peak


def test_ball_order_is_sphere_major_canonical():
    # on cyclic:300 byte order is not numeric order: 256 sorts before 1
    for spec in ("cyclic:12", "cyclic:300"):
        g = build_group(spec)
        ball = enumerate_ball(g, g.generating_set())
        pos = 0
        for size in ball.sphere_sizes:
            layer = [g.encode(x) for x in ball.elements[pos : pos + size]]
            assert layer == sorted(layer), spec
            pos += size


# ---------------------------------------------------------------------------
# Ruzsa covering witness
# ---------------------------------------------------------------------------


def test_ruzsa_witness_cycle():
    g = build_group("cyclic:100")
    w = approximate_group_witness(g, g.generating_set(), 5)
    assert w.disjoint_verified and w.covering_verified
    assert w.witness_size <= 4
    assert w.witness_size * w.ball_n <= w.ball_5n


def test_ruzsa_witness_whole_group_absorbs():
    g = build_group("cyclic:8")
    w = approximate_group_witness(g, g.generating_set(), 4)  # S^4 = G
    assert w.witness == ((0,),)
    assert w.covering_verified


def test_ruzsa_witness_unitriangular():
    g = build_group("ut:dim=3,p=11")
    w = approximate_group_witness(g, g.generating_set(), 3)
    assert w.disjoint_verified and w.covering_verified
    assert w.witness_size * w.ball_n <= w.ball_5n


# ---------------------------------------------------------------------------
# Coset saturation
# ---------------------------------------------------------------------------


def test_coset_saturation_cycle():
    g = build_group("cyclic:12")
    s = g.generating_set()
    rep = coset_saturation(g, s, SubgroupOracle(lambda x: x[0] % 3 == 0, name="3Z"))
    assert rep.r == 1 and rep.index == 3
    assert rep.trajectory[0] == 1 and rep.trajectory[1] == 3
    assert all(a <= b for a, b in zip(rep.trajectory, rep.trajectory[1:]))


def test_coset_saturation_whole_group():
    g = build_group("cyclic:12")
    rep = coset_saturation(g, g.generating_set(), SubgroupOracle(lambda x: True, name="G"))
    assert rep.r == 0 and rep.index == 1


def reference_coset_saturation(group, gens, sub):
    """Coset trajectory by scanning every representative for every element: the reference for coset_saturation."""
    ball = enumerate_ball(group, gens)
    subgroup_size = sum(1 for x in ball.elements if sub.contains(x))
    index = ball.size // subgroup_size
    reps: list = []
    trajectory = []
    pos = 0
    for size in ball.sphere_sizes:
        for x in ball.elements[pos : pos + size]:
            hits = [t for t in reps if sub.contains(group.mul(group.inv(t), x))]
            assert len(hits) <= 1
            if not hits:
                reps.append(x)
        pos += size
        trajectory.append(len(reps))
    assert len(reps) == index
    r = 0
    while r + 1 < len(trajectory) and trajectory[r + 1] != trajectory[r]:
        r += 1
    return CosetSaturation(r, tuple(trajectory), index)


COSET_CASES = [
    ("cyclic:12", "3Z", lambda x: x[0] % 3 == 0),
    ("cyclic:12", "G", lambda x: True),
    ("cyclic:12", "e", lambda x: x == (0,)),
    ("lamplighter:5", "lamps", lambda x: x[0] == 0),
    ("lamplighter:6", "lamps", lambda x: x[0] == 0),
    ("ut:dim=3,p=7", "center", lambda x: x[0] == 0 and x[2] == 0),
    ("ut:dim=3,p=7", "a=0", lambda x: x[0] == 0),
    ("ut:dim=3,p=11", "center", lambda x: x[0] == 0 and x[2] == 0),
    ("ut:dim=3,p=11", "a=0", lambda x: x[0] == 0),
    ("symfp:n=4,p=5,variant=Gprime", "G_4", build_group("symfp:n=4,p=5,variant=G").contains),
    ("abelian:4,4,9", "2x1x3", lambda x: x[0] % 2 == 0 and x[2] % 3 == 0),
    # one lamp: a subgroup that is not normal
    ("lamplighter:4", "lamp0", lambda x: x[0] == 0 and not any(x[2:])),
]


@pytest.mark.parametrize("spec, name, member", COSET_CASES, ids=[f"{c[0]}-{c[1]}" for c in COSET_CASES])
def test_coset_saturation_matches_representative_scan(spec, name, member):
    g = build_group(spec)
    sub = SubgroupOracle(member, name=name)
    assert coset_saturation(g, g.generating_set(), sub) == reference_coset_saturation(g, g.generating_set(), sub)


@pytest.mark.parametrize("members", [{(0,), (1,), (6,), (7,)}, {(0,), (1,), (11,)}])
def test_coset_labels_reject_a_non_subgroup(members):
    g = build_group("cyclic:12")
    sub = SubgroupOracle(members.__contains__, name="not a subgroup")
    with pytest.raises(OracleError, match="overlap"):
        coset_saturation(g, g.generating_set(), sub)


def test_coset_saturation_symfp_tower():
    gp = build_group("symfp:n=4,p=5,variant=Gprime")
    gg = build_group("symfp:n=4,p=5,variant=G")
    rep = coset_saturation(gp, gp.generating_set(), SubgroupOracle(gg.contains, name="G_4"))
    assert rep.index == 2 and rep.r == 1
