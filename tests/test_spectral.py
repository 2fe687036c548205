"""Spectral gap, Cheeger constant, inequality chain, coset-subspace gap."""

import copy
import itertools
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cayleylab import cli, growth, spectral
from cayleylab.groups import GeneratingSet, ResourceRefusal, SubgroupOracle, build_group, order_cap, symmetrize
from cayleylab.growth import count_spheres, enumerate_ball
from cayleylab.mixing import convolution_curve, mixing_times, verify_basic_mixing
from cayleylab.spectral import (
    DENSE_CAP,
    EXACT_SCAN_MAX,
    SpectralReport,
    _bounded_cheeger,
    _characters,
    _dense_extremes,
    _fourier_blocks,
    _fourier_extremes,
    _orbit_labels,
    build_context,
    cheeger,
    coset_gap,
    lambda1,
    rayleigh_probe,
    verify_spectral_inequalities,
)
from cayleylab.spectral import _exact_cheeger, _sweep_cut
from cayleylab.zoo import construct_family, standard_zoo
from growth_engines import left_coset_labels
from reference_bfs import tuple_bfs


def cycle_gap(n: int) -> float:
    return 2 - 2 * math.cos(2 * math.pi / n)


def reference_ball(group, gens, max_radius=None, cap=None):
    """The tuple BFS, one mul per product and one encode per element, as
    (elements, sphere_sizes, truncated, capped): the reference for the BFS on rows."""
    return tuple_bfs(group, gens, max_radius, cap)


def mul_successors(group, gens, elements):
    """The successor table of a complete ball, one mul and encode per entry."""
    index = {group.encode(x): i for i, x in enumerate(elements)}
    return np.array([[index[group.encode(group.mul(s, x))] for x in elements] for s in gens.elements], dtype=np.int64)


def mul_encode_context(group, gens):
    """Reference context: the reference ball plus a separate mul/encode pass over it."""
    ball = reference_ball(group, gens)
    id_code = group.encode(group.identity())
    identity_gen = next((gi for gi, s in enumerate(gens.elements) if group.encode(s) == id_code), -1)
    return group, gens, ball, tuple(mul_successors(group, gens, ball[0])), identity_gen


def random_generating_sets():
    """A random symmetric generating set of three raw elements on a few small groups."""
    rng = random.Random(2015)
    for spec in ("cyclic:18", "abelian:4,6", "ut:dim=3,p=5", "lamplighter:4", "symfp:n=2,p=3,variant=L"):
        g = build_group(spec)
        pool = reference_ball(g, g.generating_set())[0]
        while True:
            gens = symmetrize(g, rng.sample(pool, 3))
            if len(reference_ball(g, gens)[0]) == g.order:
                yield spec, g, gens
                break


def test_bfs_permutations_match_mul_encode_reference():
    cases = [(inst.label, inst.group, inst.gens) for inst in standard_zoo(max_order=5000)]
    cases += list(random_generating_sets())
    assert len(cases) > 25
    for label, g, gens in cases:
        ctx = build_context(g, gens)
        group, ref_gens, ball, perms, identity_gen = mul_encode_context(g, gens)
        assert (ctx.group, ctx.gens, ctx.ball.group, ctx.ball.gens, ctx.identity_gen) == (group, ref_gens, group, ref_gens, identity_gen), label
        assert ball_fields(ctx.ball) == ball, label
        assert ctx.ball.successors.shape == (gens.k, ctx.n), label
        for got, want in zip(ctx.ball.successors, perms):
            assert got.dtype == want.dtype and np.array_equal(got, want), label
        assert np.array_equal(ctx.nonid, np.delete(np.stack(perms), identity_gen, axis=0)), label


def ball_fields(ball):
    """What the reference returns: the elements in ball order, the sphere sizes and the flags."""
    return ball.elements, ball.sphere_sizes, ball.truncated, ball.capped


def assert_same_ball(got, want, label):
    """got, a Ball, against want, the reference's (elements, sphere_sizes, truncated, capped);
    only a complete ball carries a successor table."""
    assert ball_fields(got) == want, label
    assert got.rows.dtype == np.int64 and got.rows.shape == (got.size, len(got.group.identity())), label
    if got.complete:
        table = mul_successors(got.group, got.gens, want[0])
        assert got.successors.dtype == table.dtype and np.array_equal(got.successors, table), label
    else:
        assert got.successors is None, label


def assert_same_profile(got, want, label):
    """got, a Growth, against the reference's sphere sizes and flags."""
    assert (got.sphere_sizes, got.truncated, got.capped) == want[1:], label


def test_array_bfs_matches_tuple_bfs_reference():
    cases = [(inst.label, inst.group, inst.gens) for inst in standard_zoo(max_order=5000)]
    cases += list(random_generating_sets())
    # the zoo holds only the flat product(lamplighter:3)x(cyclic:8); the
    # nested product splits its coordinates inside the inner product too, and
    # on the last three byte order differs from numeric order once a
    # coordinate reaches 256, so their ranks byteswap that coordinate
    for spec in (
        "product(cyclic:6)x(product(cyclic:5)x(lamplighter:3))",
        "cyclic:300",
        "abelian:300,7",
        "product(cyclic:300)x(cyclic:3)",
    ):
        g = build_group(spec)
        cases.append((spec, g, g.generating_set()))
    for label, g, gens in cases:
        assert g.codec is not None, label
        # bounded counts first: a BFS that re-finds old elements fails here
        # rather than growing to the order cap
        bounded = [reference_ball(g, gens, max_radius=radius) for radius in (1, 2, 3)]
        for radius, want in enumerate(bounded, 1):
            assert_same_profile(count_spheres(g, gens, max_radius=radius), want, (label, radius))
        capped = enumerate_ball(g, gens, cap=10)
        assert capped.capped == (g.order > 10), label
        want = reference_ball(g, gens, cap=10)
        assert_same_ball(capped, want, label)
        assert_same_profile(count_spheres(g, gens, cap=10), want, label)
        full = enumerate_ball(g, gens)
        assert full.complete, label
        want = reference_ball(g, gens)
        assert_same_ball(full, want, label)
        assert_same_profile(count_spheres(g, gens), want, label)
        # the ball is sphere-major, so the ball to a radius is its prefix
        for radius, (elements, *_) in enumerate(bounded, 1):
            assert full.elements[: full.ball(radius)] == elements, (label, radius)
        # without its codec the BFS keys rows by row_keys: the same spheres,
        # counted to a radius past the closure
        bare = copy.copy(g)
        bare.codec = None
        assert_same_profile(count_spheres(bare, gens, max_radius=g.order), want, label)
        assert loop_spheres(bare, gens, g.order) == reference_spheres(want), label
        # rank order is code order
        codes = [g.encode(x) for x in full.elements]
        by_code = sorted(range(full.size), key=codes.__getitem__)
        assert np.argsort(g.codec.rank(np.array(full.elements, dtype=np.int64))).tolist() == by_code, label


def loop_spheres(group, gens, radius, cap=None):
    """The sphere loop's spheres out to radius, each as a set of elements."""
    steps = itertools.islice(growth._spheres(group, gens, order_cap(cap)), radius)
    spheres = [{group.identity()}] + [set(map(tuple, sphere.tolist())) for _, sphere in steps]
    return spheres[:-1] if not spheres[-1] else spheres


def reference_spheres(want):
    """The reference's spheres, each as a set of elements."""
    elements, sizes = want[:2]
    ends = list(itertools.accumulate(sizes))
    return [set(elements[end - size : end]) for size, end in zip(sizes, ends)]


def test_bfs_without_a_codec_matches_tuple_bfs_reference(monkeypatch):
    """Infinite groups, and finite ones whose ranks pass 2^62, have no codec:
    the BFS keys their rows by row_keys, and only counts their spheres."""
    monkeypatch.setenv("CAYLEY_LAB_CAP", "5000000000")
    cases = [
        ("freenil:r=2,s=2", 8, None),
        ("freenil:r=3,s=2", 5, None),
        ("freenil:r=1,s=2", 50, None),
        ("freenil:r=1,s=1", 20, None),
        ("freenil:r=1,s=3", 20, None),
        ("freenil:r=2,s=1", 8, None),
        ("freenil:r=3,s=1", 5, None),
        ("freenil:r=3,s=3", 3, None),
        ("product(freenil:r=2,s=2)x(cyclic:3)", 4, None),
        ("product(cyclic:5)x(freenil:r=2,s=2)", 3, None),
        ("abelian:257,257,257,257", 3, None),
        ("freenil:r=2,s=3", 10, 50),
    ]
    for spec, radius, cap in cases:
        g = build_group(spec)
        gens = g.generating_set()
        assert g.codec is None, spec
        want = reference_ball(g, gens, radius, cap)
        profile = count_spheres(g, gens, max_radius=radius, cap=cap)
        assert profile.truncated and profile.capped == (cap is not None), spec
        assert_same_profile(profile, want, spec)
        assert loop_spheres(g, gens, profile.radius, cap) == reference_spheres(want), spec


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_cycle_lambda1_closed_form(n):
    g = build_group(f"cyclic:{n}")
    s = g.generating_set()
    rep = lambda1(build_context(g, s))
    assert abs(rep.lambda1 - cycle_gap(n)) < 1e-9
    assert rep.solver == "dense"


def test_identity_position_read_from_elements():
    """A generating set listed out of canonical order still finds its
    identity generator: lambda1 is the canonical set's."""
    g = build_group("cyclic:12")
    shuffled = lambda1(build_context(g, GeneratingSet(g, ((1,), (0,), (11,)))))
    canonical = lambda1(build_context(g, g.generating_set()))
    assert abs(canonical.lambda1 - (2 - math.sqrt(3))) < 1e-12
    assert abs(shuffled.lambda1 - canonical.lambda1) < 1e-12


def test_solvers_agree_on_small_zoo():
    for inst in standard_zoo(max_order=500):
        if inst.order < 8:
            continue
        ctx = build_context(inst.group, inst.gens)
        dense, fourier = _dense_extremes(ctx)[0], _fourier_extremes(ctx)[0]
        assert abs(dense - fourier) < 1e-8, inst.label


def test_fourier_matches_dense_oracle_above_the_cap():
    cases = [inst for inst in standard_zoo(max_order=5000) if inst.order > DENSE_CAP]
    assert len(cases) == 9  # ut:7, ut:11, ut:4,3, lamplighter:6 and 8, symfp:3,7 L and Gprime, symfp:4,5 Gprime and G
    cases += [construct_family(f"cyclic:{n}") for n in (257, 512, 768)]
    for inst in cases:
        ctx = build_context(inst.group, inst.gens)
        auto = lambda1(ctx)
        dense_lambda1, dense_lambda_max, _ = _dense_extremes(ctx)
        assert auto.solver == "fourier", inst.label
        assert abs(auto.lambda1 - dense_lambda1) <= 1e-9 * dense_lambda1, inst.label
        assert abs(auto.lambda_max - dense_lambda_max) <= 1e-9 * dense_lambda_max, inst.label


def every_block(ctx):
    """The block of every character of the split, in character order."""
    moduli = ctx.split.moduli
    return _fourier_blocks(ctx, _characters(moduli, np.arange(math.prod(moduli))))


def test_fourier_blocks_give_the_full_spectrum():
    """The blocks of every character together hold the dense Laplacian's spectrum, ctx.blocks holds
    each block's eigenvalues in character order, and the lifted vector is a lambda1 eigenvector.

    Only the least character of each orbit is solved: its row is its own block's
    eigvalsh bit for bit, and every other member's row lies within rounding of
    the member's own block."""
    cases = [(inst.label, inst.group, inst.gens) for inst in standard_zoo(max_order=2048)]
    cases += list(random_generating_sets())
    for label, g, gens in cases:
        ctx = build_context(g, gens)
        split = ctx.split
        blocks = every_block(ctx)
        assert blocks.shape == (g.order // split.index, split.index, split.index), label
        assert np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max() < 1e-14, label
        own = np.linalg.eigvalsh(blocks)
        labels = _orbit_labels(ctx)
        # each label is the least character of its orbit, and its own label
        assert (labels <= np.arange(len(labels))).all() and np.array_equal(labels[labels], labels), label
        solved = np.unique(labels)
        assert ctx.blocks.shape == own.shape, label
        assert np.array_equal(ctx.blocks[solved], own[solved]), label
        assert np.abs(ctx.blocks - own).max() < 1e-12, label
        got = np.sort(ctx.blocks.ravel())
        want = np.linalg.eigvalsh(ctx.dense_laplacian())
        assert np.abs(got - want).max() < 1e-10, label
        lam1, lam_max, vec = _fourier_extremes(ctx)
        assert abs(lam1 - want[1]) < 1e-10 and abs(lam_max - want[-1]) < 1e-10, label
        assert abs(np.linalg.norm(vec) - 1) < 1e-12, label
        assert np.linalg.norm(ctx.laplacian_matvec(vec) - lam1 * vec) < 1e-10, label


@pytest.mark.parametrize("spec", ["cyclic:768", "abelian:16,16,16", "product(cyclic:6)x(cyclic:5)"])
def test_orbit_blocks_are_bit_identical_on_abelian_groups(spec):
    # index 1: each block is 1 x 1, and its eigenvalue is its real part, the same for chi and its conjugate
    g = build_group(spec)
    ctx = build_context(g, g.generating_set())
    assert ctx.split.index == 1
    assert np.array_equal(ctx.blocks, np.linalg.eigvalsh(every_block(ctx)))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31])
def test_heisenberg_characters_fall_into_p_orbits(p):
    # H is the last column (x12, x02): conjugation sends (alpha, beta) to
    # (alpha + a beta, beta), so beta != 0 gives (p - 1)/2 orbits {(*, beta), (*, -beta)},
    # and beta = 0 gives (p + 1)/2 orbits {(alpha, 0), (-alpha, 0)}
    g = build_group(f"ut:dim=3,p={p}")
    ctx = build_context(g, g.generating_set())
    assert len(np.unique(_orbit_labels(ctx))) == p


@pytest.mark.parametrize("p", [31, 101])
def test_heisenberg_gap_is_the_abelianization_gap(p, capsys):
    # lambda1 is the least nontrivial character of Z/p x Z/p with generators e1, e2 and inverses
    assert cli.run(["spectrum", "-g", f"ut:dim=3,p={p}", "--format", "json"]) == cli.EXIT_OK
    got = json.loads(capsys.readouterr().out)["lambda1"]
    want = 4 * math.sin(math.pi / p) ** 2
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("argv", [["mix", "-g", "cyclic:768"], ["spectrum", "-g", "ut:dim=3,p=31"]])
def test_fourier_blocks_are_built_once_per_graph(argv, monkeypatch, capsys):
    # each orbit's least character's block once for ctx.blocks, and one more
    # for the lifted eigenvector: cyclic:768 has 385 orbits {chi, conj(chi)},
    # ut:dim=3,p=31 has 31
    orbits = {"cyclic:768": 385, "ut:dim=3,p=31": 31}[argv[-1]]
    seen = []
    blocks = spectral._fourier_blocks

    def counted(*args):
        seen.append(len(args[-1]))
        return blocks(*args)

    # wherever a module of the package holds the function
    for module in [m for name, m in sys.modules.items() if name.startswith("cayleylab.")]:
        for name, value in list(vars(module).items()):
            if value is blocks:
                monkeypatch.setattr(module, name, counted)
    assert cli.run(argv) == cli.EXIT_OK
    assert sum(seen) == orbits + 1


@pytest.mark.parametrize("n", [257, 768, 4096, 65536])
def test_cycle_gap_from_one_by_one_blocks(n):
    # H = G, so every block is 1 x 1 and lambda1 is 2 sin^2(pi/n) + 2 sin^2(-pi/n) to rounding
    g = build_group(f"cyclic:{n}")
    rep = lambda1(build_context(g, g.generating_set()))
    want = 4 * math.sin(math.pi / n) ** 2
    assert rep.solver == "fourier"
    assert abs(rep.lambda1 - want) <= 1e-12 * want


def test_lambda1_refuses_above_the_cap_without_a_split(monkeypatch):
    g = build_group(f"cyclic:{DENSE_CAP + 1}")
    ctx = build_context(g, g.generating_set())
    monkeypatch.setattr(g, "abelian_split", lambda: None)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceRefusal, match="no abelian split"):
            lambda1(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    g6 = build_group("lamplighter:6")
    monkeypatch.setattr(spectral, "FOURIER_BLOCK_CAP", 5)
    with pytest.raises(ResourceRefusal, match="blocks of size 6 exceed the cap of 5"):
        lambda1(build_context(g6, g6.generating_set()))


@pytest.mark.parametrize("n, solver", [(256, "dense"), (257, "fourier"), (300, "fourier"), (512, "fourier")])
def test_cycle_gap_on_both_sides_of_the_dense_cap(n, solver):
    g = build_group(f"cyclic:{n}")
    rep = lambda1(build_context(g, g.generating_set()))
    assert (DENSE_CAP, rep.solver) == (256, solver)
    assert abs(rep.lambda1 - cycle_gap(n)) <= 1e-9 * cycle_gap(n)


def test_complete_generating_set_gap():
    g = build_group("cyclic:5")
    s = symmetrize(g, [(1,), (2,), (3,), (4,)])
    rep = lambda1(build_context(g, s))
    assert abs(rep.lambda1 - 5.0) < 1e-9


def test_cheeger_exact_cycles():
    g8 = build_group("cyclic:8")
    rep8 = cheeger(build_context(g8, g8.generating_set()))
    assert rep8.mode == "exact" and rep8.exact_value == Fraction(1, 2)
    assert rep8.witness_size == 4
    g12 = build_group("cyclic:12")
    rep12 = cheeger(build_context(g12, g12.generating_set()))
    assert rep12.exact_value == Fraction(1, 3)


def test_cheeger_bounded_interval_brackets_truth():
    g = build_group("cyclic:20")
    ctx = build_context(g, g.generating_set())
    exact = cheeger(ctx)
    bounded = _bounded_cheeger(ctx)
    assert bounded.mode == "bounded"
    assert bounded.h_lower - 1e-12 <= float(exact.exact_value) <= bounded.h_upper + 1e-12


SMALL_SPECS = [f"cyclic:{n}" for n in range(2, 23)] + [
    "abelian:2,2",
    "abelian:2,2,2",
    "abelian:3,3",
    "abelian:2,8",
    "abelian:4,4",
    "abelian:3,6",
    "abelian:2,10",
    "ut:dim=3,p=2",
    "lamplighter:2",
    "symfp:n=2,p=3,variant=L",
    "symfp:n=2,p=3,variant=Gprime",
    "product(symfp:n=2,p=3,variant=Gprime)x(cyclic:3)",
    "product(ut:dim=3,p=2)x(cyclic:2)",
]
# the largest graphs the exact scan takes
SCAN_LIMIT_SPECS = ["cyclic:23", "cyclic:24", "lamplighter:3"]


def small_cayley_graphs(specs=SMALL_SPECS):
    """Connected Cayley graphs of the specs: S = G, and random symmetric S of 1 to 3 raw elements."""
    rng = random.Random(1506)
    for spec in specs:
        g = build_group(spec)
        assert g.order <= EXACT_SCAN_MAX, spec
        pool = enumerate_ball(g, g.generating_set()).elements
        yield f"{spec} S=G", g, symmetrize(g, pool), True
        for _ in range(2 if g.order <= 18 else 1):
            while True:
                gens = symmetrize(g, rng.sample(pool, min(len(pool), rng.randint(1, 3))))
                if enumerate_ball(g, gens).size == g.order:
                    yield f"{spec} S={sorted(map(g.encode, gens))}", g, gens, False
                    break


def mask_scan_cheeger(ctx):
    """One pass over the 2^(n-1) subset masks per (vertex, generator) pair: the scan the boundary recurrence replaced.

    Subset i holds vertex 0 and vertex v + 1 for each bit v of i; the minimizer
    selection is the one _exact_cheeger keeps.
    """
    n = ctx.n
    masks = (np.arange(1 << (n - 1), dtype=np.uint32) << 1) | 1  # n <= EXACT_SCAN_MAX bits
    sizes = np.bitwise_count(masks).astype(np.int64)
    inside = [((masks >> x) & 1).astype(bool) for x in range(n)]
    del masks  # the oracle at 24 vertices peaks near 0.4 GB; the arrays it no longer reads go first
    boundary = np.zeros(sizes.shape, dtype=np.int64)
    for x in range(n):
        for p in ctx.nonid:
            boundary += inside[x] & ~inside[int(p[x])]
    del inside
    half = n // 2
    best_num, best_den = None, None
    for side_sizes in (sizes, n - sizes):
        ok = (side_sizes >= 1) & (side_sizes <= half)
        if not ok.any():
            continue
        ratios = np.where(ok, boundary / np.maximum(side_sizes, 1), np.inf)
        idx = int(np.argmin(ratios))
        num, den = int(boundary[idx]), int(side_sizes[idx])
        if best_num is None or Fraction(num, den) < Fraction(best_num, best_den):
            best_num, best_den = num, den
    return Fraction(best_num, best_den), best_den, best_num


def test_boundary_recurrence_matches_the_mask_scan():
    graphs = 0
    for label, g, gens, _ in small_cayley_graphs():
        graphs += 1
        ctx = build_context(g, gens)
        assert _exact_cheeger(ctx) == mask_scan_cheeger(ctx), label
    assert graphs > 80


@pytest.mark.parametrize("bits", [1, 3])
def test_scan_in_small_chunks_matches_the_mask_scan(monkeypatch, bits):
    monkeypatch.setattr(spectral, "_SCAN_CHUNK_BITS", bits)
    covered = set()
    for label, g, gens, complete in small_cayley_graphs():
        high_bits = g.order - 1 - bits
        if high_bits > 12:  # at most 2^12 chunks
            continue
        ctx = build_context(g, gens)
        assert _exact_cheeger(ctx) == mask_scan_cheeger(ctx), label
        covered.add((int(np.sign(high_bits)), complete))
    # n - 1 below (n >= 2 leaves no room below one bit), equal to and above the chunk's bit count, on S = G and sparse S
    signs = (0, 1) if bits == 1 else (-1, 0, 1)
    assert covered == {(sign, complete) for sign in signs for complete in (False, True)}


def test_scan_at_its_limit_matches_the_mask_scan():
    # 2^6 and 2^7 chunks of the default size; S = G is held to its closed form by the certified-interval test
    graphs = 0
    for label, g, gens, complete in small_cayley_graphs(SCAN_LIMIT_SPECS):
        if not complete:
            graphs += 1
            ctx = build_context(g, gens)
            assert _exact_cheeger(ctx) == mask_scan_cheeger(ctx), label
    assert graphs == len(SCAN_LIMIT_SPECS)


def test_exact_scan_memory_is_one_chunk():
    g = build_group(f"cyclic:{EXACT_SCAN_MAX}")
    ctx = build_context(g, g.generating_set())
    tracemalloc.start()
    try:
        assert _exact_cheeger(ctx) == (Fraction(1, 6), 12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all 2^23 subsets at once peaked at 392 MB
    assert peak < 16 << 20


def test_certified_cheeger_interval_holds_on_small_cayley_graphs(monkeypatch):
    rng = np.random.default_rng(1506)
    graphs = 0
    for label, g, gens, complete in itertools.chain(small_cayley_graphs(), small_cayley_graphs(SCAN_LIMIT_SPECS)):
        graphs += 1
        n = g.order
        ctx = build_context(g, gens)
        exact = verify_spectral_inequalities(ctx)
        assert exact.h_mode == "exact" and all(c.status == "holds" for c in exact.checks), (label, exact)
        h = exact.h_interval[0]
        if complete:
            assert h == math.ceil(n / 2), label  # a half of the vertices against the rest
        with monkeypatch.context() as m:
            m.setattr(spectral, "EXACT_SCAN_MAX", 0)
            bounded = verify_spectral_inequalities(ctx)
        assert bounded.ok, (label, bounded)
        assert bounded.h_interval[0] - 1e-9 <= h <= bounded.h_interval[1] + 1e-9, (label, h, bounded.h_interval)
        # the sweep cut must bracket h whichever lambda1 eigenvector it sorts by
        vals, vecs = np.linalg.eigh(ctx.dense_laplacian())
        eigenspace = vecs[:, np.abs(vals - vals[1]) < 1e-8]
        for _ in range(3):
            fiedler = eigenspace @ rng.normal(size=eigenspace.shape[1])
            # seat this eigenpair as the graph's one cached solve
            vars(ctx)["spectrum"] = SpectralReport(float(vals[1]), float(vals[-1]), ctx.k, "dense", 0.0, fiedler)
            rep = _bounded_cheeger(ctx)
            assert rep.h_lower - 1e-9 <= h <= rep.h_upper + 1e-9, (label, h, rep.h_lower, rep.h_upper)
    assert graphs > 86


def bincount_sweep_cut(ctx, fiedler):
    """Prefix boundaries from bincounts of the cut's crossing pairs: the sweep the boundary recurrence replaced."""
    n = ctx.n
    values = fiedler.tolist()
    codes = [ctx.group.encode(x) for x in ctx.ball.elements]
    order = sorted(range(n), key=lambda i: (values[i], codes[i]))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    nonid = ctx.nonid
    # the pair (x, s) crosses the cut after prefix j exactly when position[x] < j <= position[sx]
    tails = np.tile(position, len(nonid))
    heads = position[nonid].ravel()
    forward = tails < heads
    starts = np.bincount(tails[forward] + 1, minlength=n + 1)
    ends = np.bincount(heads[forward] + 1, minlength=n + 1)
    boundary = np.cumsum(starts - ends)[1:n]
    sizes = np.minimum(np.arange(1, n), np.arange(n - 1, 0, -1))
    ratios = boundary / sizes
    best = min(np.flatnonzero(ratios == ratios.min()), key=lambda j: Fraction(int(boundary[j]), int(sizes[j])))
    return Fraction(int(boundary[best]), int(sizes[best])), int(sizes[best]), int(boundary[best])


def test_sweep_cut_matches_the_bincount_sweep():
    cases = [(inst.label, inst.group, inst.gens) for inst in standard_zoo(max_order=5000)]
    for spec in ("cyclic:300", "abelian:300,7", "product(cyclic:6)x(product(cyclic:5)x(lamplighter:3))"):
        g = build_group(spec)
        cases.append((spec, g, g.generating_set()))
    for label, g, gens in cases:
        ctx = build_context(g, gens)
        fiedler = ctx.spectrum.fiedler
        # a real Fiedler vector seldom ties; these tie on whole spheres, or
        # everywhere, so the order within a tie (canonical bytes) decides the cut
        lengths = ctx.word_lengths
        vectors = {
            "fiedler": fiedler,
            "-fiedler": -fiedler,
            "length mod 3": (lengths % 3 - 1).astype(float),
            "-(length mod 2)": -(lengths % 2).astype(float),
            "zeros": np.zeros(ctx.n),
        }
        for name, vec in vectors.items():
            assert _sweep_cut(ctx, vec) == bincount_sweep_cut(ctx, vec), (label, name)


def one_sided_sweep_cut(ctx, fiedler):
    """Prefixes of the Fiedler order up to n/2 only, one vertex at a time: the sweep the two-sided one replaced."""
    n = ctx.n
    codes = [ctx.group.encode(x) for x in ctx.ball.elements]
    order = sorted(range(n), key=lambda i: (fiedler[i], codes[i]))
    neighbors = [[int(p[i]) for p in ctx.nonid] for i in range(n)]
    in_a = [False] * n
    boundary = 0
    best = None
    for j, v in enumerate(order, start=1):
        for y in neighbors[v]:
            boundary += -1 if in_a[y] else 1
        in_a[v] = True
        if j <= n // 2:
            ratio = Fraction(boundary, j)
            if best is None or ratio < best[0]:
                best = (ratio, j, boundary)
    return best


def test_two_sided_sweep_never_exceeds_the_one_sided_sweep():
    improved = []
    for inst in standard_zoo(max_order=5000):
        ctx = build_context(inst.group, inst.gens)
        fiedler = lambda1(ctx).fiedler
        new = _sweep_cut(ctx, fiedler)
        old = one_sided_sweep_cut(ctx, fiedler)
        assert new[0] <= old[0], inst.group.name
        assert new[1] <= ctx.n // 2 and new[0] == Fraction(new[2], new[1])
        if new[0] == old[0]:
            assert new == old, inst.group.name  # ties keep the one-sided witness
        else:
            improved.append(inst.group.name)
    assert improved


def test_boundary_symmetry_random_subsets():
    g = build_group("lamplighter:4")
    ctx = build_context(g, g.generating_set())
    nonid = ctx.nonid
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
    rep = lambda1(ctx)
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
    for p in ctx.nonid:
        mat[np.arange(n), p] -= 1.0
    vals = np.linalg.eigvalsh(mat)
    assert abs(vals[1] - lambda1(ctx).lambda1) < 1e-10


def test_chain_exact_groups_all_hold():
    for inst in standard_zoo(max_order=22):
        rep = verify_spectral_inequalities(build_context(inst.group, inst.gens))
        assert rep.h_mode == "exact"
        assert all(c.status == "holds" for c in rep.checks), (inst.label, rep.checks)


def test_chain_z2_degenerate():
    g = build_group("cyclic:2")
    rep = verify_spectral_inequalities(build_context(g, g.generating_set()))
    assert all(c.status == "holds" for c in rep.checks)


def test_rayleigh_probe_cycle_values():
    g = build_group("cyclic:12")
    rep = rayleigh_probe(build_context(g, g.generating_set()))
    assert not rep.skipped
    assert abs(rep.R - 48 / 152) < 1e-12  # hand-expanded quotient of the distance function
    assert rep.lambda1 <= rep.R <= rep.bound
    assert rep.R <= 0.75 * (12 / 9)  # ball of radius 4 has 9 points
    assert abs(rep.mean_before) < 1e-9


def test_word_lengths_match_the_bfs_from_the_identity():
    for inst in standard_zoo(max_order=5000):
        ctx = build_context(inst.group, inst.gens)
        got = ctx.word_lengths
        assert got.dtype == np.int64 and np.array_equal(got, ctx.distances_from(0)), inst.label


def test_one_context_solves_lambda1_once(monkeypatch):
    g = build_group("lamplighter:4")
    ctx = build_context(g, g.generating_set())
    calls = []
    solve = spectral.lambda1
    monkeypatch.setattr(spectral, "lambda1", lambda c: calls.append(c) or solve(c))
    chain = verify_spectral_inequalities(ctx)  # 64 vertices: the bounded Cheeger path, which reads lambda1
    probe = rayleigh_probe(ctx)
    mixing = verify_basic_mixing(ctx)
    times = mixing_times(ctx, convolution_curve(ctx))
    assert len(calls) == 1 and calls[0] is ctx
    assert chain.lambda1 == probe.lambda1 == ctx.spectrum.lambda1
    assert mixing.ok and times.T_rel == ctx.k / ctx.spectrum.lambda1


def test_rayleigh_probe_skips_small_diameter():
    g = build_group("cyclic:4")
    rep = rayleigh_probe(build_context(g, g.generating_set()))
    assert rep.skipped and rep.gamma == 2


def test_rayleigh_probe_unitriangular():
    g = build_group("ut:dim=3,p=11")
    rep = rayleigh_probe(build_context(g, g.generating_set()))
    assert not rep.skipped
    assert rep.lambda1 <= rep.R + 1e-9
    assert rep.R <= rep.bound + 1e-9


# ---------------------------------------------------------------------------
# Coset gap
# ---------------------------------------------------------------------------


def test_coset_gap_lamp_subgroup():
    g = build_group("lamplighter:6")
    rep = coset_gap(build_context(g, g.generating_set()))
    assert rep.gap >= rep.bound - 1e-9
    assert rep.index == 6


def test_coset_gap_full_group_matches_lambda1():
    g = build_group("cyclic:12")
    ctx = build_context(g, g.generating_set())
    rep = coset_gap(ctx)
    assert abs(rep.gap - lambda1(ctx).lambda1) < 1e-8
    assert rep.bound == 1.0 / 6**2


def projected_coset_gap(ctx, sub):
    """The least eigenvalue of P L P + shift (I - P), P the projection onto zero
    mean on every coset: the dense oracle for coset_gap, for any normal H."""
    n = ctx.n
    labels = left_coset_labels(ctx.ball, sub)
    hsize = int((labels == 0).sum())
    proj = np.eye(n)
    for c in range(n // hsize):
        sel = labels == c
        proj[np.ix_(sel, sel)] -= 1.0 / hsize
    shift = 2.0 * ctx.k + 1.0
    return float(np.linalg.eigvalsh(proj @ ctx.dense_laplacian() @ proj + shift * (np.eye(n) - proj))[0])


def split_subgroup(ctx):
    """The subgroup H of ctx.split as an oracle: the elements its locate puts in coset 0."""
    return SubgroupOracle(lambda x: int(ctx.split.locate(np.array([x], dtype=np.int64))[0][0]) == 0, name="split H")


@pytest.mark.parametrize(
    "spec, name, member",
    [
        ("lamplighter:6", "lamps", lambda x: x[0] == 0),
        ("cyclic:12", "G", lambda x: True),
        ("ut:dim=3,p=7", "a=0", lambda x: x[0] == 0),
        ("ut:dim=3,p=11", "a=0", lambda x: x[0] == 0),
        ("abelian:4,4,9", "G", lambda x: True),
    ],
)
def test_coset_gap_matches_projected_formula(spec, name, member):
    g = build_group(spec)
    ctx = build_context(g, g.generating_set())
    sub = SubgroupOracle(member, name=name)
    assert [sub.contains(x) for x in ctx.ball.elements] == [split_subgroup(ctx).contains(x) for x in ctx.ball.elements]
    want = projected_coset_gap(ctx, sub)
    assert abs(coset_gap(ctx).gap - want) <= 1e-12 * want


ZOO_UP_TO_2048 = [inst for inst in standard_zoo(max_order=2048) if inst.group.abelian_split() is not None]


@pytest.mark.parametrize("inst", ZOO_UP_TO_2048, ids=[inst.label for inst in ZOO_UP_TO_2048])
def test_coset_gap_matches_the_dense_oracle_on_the_zoo(inst):
    ctx = build_context(inst.group, inst.gens)
    sub = split_subgroup(ctx)
    labels = left_coset_labels(ctx.ball, sub)
    rep = coset_gap(ctx)
    want = projected_coset_gap(ctx, sub)
    assert abs(rep.gap - want) <= 1e-12 * want
    assert rep.index == labels.max() + 1 == ctx.split.index
    assert rep.gamma_H == ctx.word_lengths[labels == 0].max()


@pytest.mark.parametrize("spec", ["ut:dim=3,p=31", "lamplighter:12"])
def test_coset_gap_on_groups_above_4096_vertices(spec):
    # 29,791 and 49,152 vertices, too many for a dense solve
    g = build_group(spec)
    ctx = build_context(g, g.generating_set())
    rep = coset_gap(ctx)
    assert ctx.n > 4096
    assert rep.gap >= 1.0 / rep.gamma_H**2 == rep.bound


def test_coset_gap_of_an_index_one_split_is_lambda1():
    # H = G, so every nontrivial block is a nontrivial character's 1 x 1 block
    g = build_group("cyclic:768")
    ctx = build_context(g, g.generating_set())
    assert ctx.split.index == 1
    assert coset_gap(ctx).gap == ctx.spectrum.lambda1


def test_every_zoo_split_subgroup_is_nontrivial():
    # so the nontrivial rows of ctx.blocks, which coset_gap reads, are never empty
    for inst in standard_zoo():
        split = inst.group.abelian_split()
        assert split is not None, inst.label
        assert math.prod(split.moduli) >= 2, inst.label


def test_coset_gap_reads_the_blocks_without_a_solve(monkeypatch):
    g = build_group("ut:dim=3,p=31")
    ctx = build_context(g, g.generating_set())
    seen = []
    blocks = spectral._fourier_blocks

    def counted(*args):
        seen.append(len(args[-1]))
        return blocks(*args)

    monkeypatch.setattr(spectral, "_fourier_blocks", counted)
    lam = ctx.spectrum.lambda1
    mixing_times(ctx)
    rep = coset_gap(ctx)
    # the 31 orbits' blocks for ctx.blocks, and one more for the lifted eigenvector
    assert sum(seen) == 31 + 1
    assert rep.gap >= lam
