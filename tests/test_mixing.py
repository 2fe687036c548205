"""Random-walk curves, mixing times, the nine basic facts."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cayleylab import cli, mixing
from cayleylab.groups import build_group, symmetrize
from cayleylab.growth import doubling_scan
from cayleylab.mixing import (
    TIE_EPS,
    WalkCurves,
    convolution_curve,
    mixing_times,
    verify_basic_mixing,
)
from cayleylab.spectral import build_context, lambda1
from cayleylab.zoo import construct_family, standard_zoo
from growth_engines import first_scale


def step_loop_walk(ctx, n_max, stop_when_mixed, start=None):
    """The walk one step at a time: the oracle the blocked kernel must match bit for bit."""
    n = ctx.n
    k = ctx.k
    uniform = 1.0 / n
    d1, d2, dinf = [], [], []
    thresh_inf = (1.0 / n) / 10.0 - TIE_EPS

    def record() -> float:
        w = v - uniform
        aw = np.abs(w)
        d1.append(float(aw.sum()))
        d2.append(float(math.sqrt(float(w @ w))))
        dinf.append(float(aw.max()))
        return dinf[-1]

    if start is None:
        v = np.zeros(n)
        v[0] = 1.0
        record()
        first = 1
    else:
        v = start.last
        first = start.steps + 1
    for step in range(first, n_max + 1):
        acc = np.zeros(n)
        for p in ctx.ball.successors:
            acc += v[p]
        v = acc / k
        total = float(v.sum())
        if not (abs(total - 1.0) <= 1e-12 and float(v.min()) >= -1e-15):
            raise RuntimeError(f"walk left the simplex at step {step}: sum={total}, min={float(v.min())}")
        last_inf = record()
        if stop_when_mixed and last_inf <= thresh_inf:
            break
    curves = [np.array(d) for d in (d1, d2, dinf)]
    if start is not None:
        curves = [np.concatenate([old, new]) for old, new in zip((start.d1, start.d2, start.dinf), curves)]
    return WalkCurves(n, *curves, last=v)


def assert_same_walk(got, want):
    assert got.steps == want.steps
    for p in (1, 2, "inf"):
        assert np.array_equal(got.curve(p), want.curve(p)), p
    assert np.array_equal(got.last, want.last)


def abelian_l2_oracle(moduli, gens_residues, k, n_steps):
    """Character-sum closed form for the L2 distance curve on an abelian product."""
    import itertools

    order = math.prod(moduli)
    eigs = []
    for char in itertools.product(*[range(m) for m in moduli]):
        if all(c == 0 for c in char):
            continue
        val = sum(
            math.cos(2 * math.pi * sum(c * s / m for c, s, m in zip(char, g, moduli)))
            for g in gens_residues
        ) / k
        eigs.append(val)
    return [math.sqrt(sum(e ** (2 * n) for e in eigs) / order) for n in range(n_steps + 1)]


def test_cycle_l2_matches_circulant_form():
    g = build_group("cyclic:5")
    s = g.generating_set()
    curves = convolution_curve(build_context(g, s), n_max=60)
    oracle = abelian_l2_oracle((5,), list(s.elements), s.k, 60)
    assert max(abs(a - b) for a, b in zip(curves.d2, oracle)) < 1e-12


def test_abelian_l2_matches_character_form():
    g = build_group("abelian:4,4,9")
    s = g.generating_set()
    curves = convolution_curve(build_context(g, s), n_max=40)
    oracle = abelian_l2_oracle((4, 4, 9), list(s.elements), s.k, 40)
    assert max(abs(a - b) for a, b in zip(curves.d2, oracle)) < 1e-10


def test_mixing_times_cycle():
    g = build_group("cyclic:12")
    ctx = build_context(g, g.generating_set())
    rep = mixing_times(ctx)
    assert rep.T1 <= rep.T2 <= rep.Tinf
    assert rep.Tinf >= rep.gamma
    assert abs(rep.T_rel - 3 / (2 - 2 * math.cos(2 * math.pi / 12))) < 1e-9


def test_mixing_times_whole_group_set():
    g = build_group("cyclic:3")
    ctx = build_context(g, symmetrize(g, [(1,), (2,)]))
    rep = mixing_times(ctx)
    assert (rep.T1, rep.T2, rep.Tinf) == (1, 1, 1)


def test_walk_symmetry_under_inversion():
    g = build_group("lamplighter:4")
    s = g.generating_set()
    ctx = build_context(g, s)
    index = {x: i for i, x in enumerate(ctx.ball.elements)}
    inv_map = np.array([index[g.inv(x)] for x in ctx.ball.elements])
    for steps in (1, 5, 20):
        v = convolution_curve(ctx, n_max=steps).last
        assert float(np.max(np.abs(v - v[inv_map]))) < 1e-12


def test_item5_at_zero_steps():
    g = build_group("cyclic:12")
    curves = convolution_curve(build_context(g, g.generating_set()), n_max=1)
    assert curves.d2[0] <= 1.0 + 1e-12


def test_walk_stays_stochastic_for_1000_steps():
    # the step itself raises if mass leaks or goes negative beyond 1e-12
    g = build_group("lamplighter:5")
    curves = convolution_curve(build_context(g, g.generating_set()), n_max=1000)
    assert curves.steps == 1000


def test_extended_walk_equals_walk_from_scratch():
    g = build_group("lamplighter:3")
    ctx = build_context(g, g.generating_set())
    mixed = convolution_curve(ctx)
    target = 3 * mixed.steps
    scratch = convolution_curve(ctx, n_max=target)
    extended = convolution_curve(ctx, extend_to=lambda walked: target)
    assert extended.steps == scratch.steps == target
    for p in (1, 2, "inf"):
        assert np.array_equal(extended.curve(p), scratch.curve(p))
    assert np.array_equal(extended.last, scratch.last)
    short = convolution_curve(ctx, extend_to=lambda walked: 1)
    assert short.steps == mixed.steps and np.array_equal(short.d1, mixed.d1)
    assert_same_walk(short, step_loop_walk(ctx, 1, stop_when_mixed=False, start=mixed))


def test_basic_mixing_pass_small_groups():
    for spec in ("cyclic:12", "lamplighter:4", "ut:dim=3,p=3"):
        g = build_group(spec)
        rep = verify_basic_mixing(build_context(g, g.generating_set()))
        assert rep.hypothesis_ok
        assert rep.ok, (spec, [i for i in rep.items if i.status == "fail"])
        assert all(i.status == "pass" for i in rep.items)


def test_basic_mixing_hypothesis_skip():
    g = build_group("cyclic:3")
    ctx = build_context(g, symmetrize(g, [(1,), (2,)]))
    assert lambda1(ctx).lambda1 > 2
    rep = verify_basic_mixing(ctx)
    assert not rep.hypothesis_ok
    statuses = {i.item: i.status for i in rep.items}
    assert statuses[3] == statuses[5] == statuses[9] == "skipped"
    assert rep.ok


def reference_items_1_to_5(ctx, curves) -> dict:
    """Items 1-5 as (ok, detail) by the formulas that normalize all three curves at once: the oracle.

    Items 3 and 5 are left out when beta_S is not the walk norm, as
    verify_basic_mixing skips them.
    """
    spec = ctx.spectrum
    n_steps = curves.steps
    norms = {p: curves.norm_mu_g(p) for p in (1, 2, "inf")}
    normalized = {p: curves.curve(p) / norms[p] for p in (1, 2, "inf")}
    beta = spec.beta_S
    with_beta = spec.lambda1 <= 2.0 + 1e-12 and spec.beta_valid
    items = {}
    worst = max(float(np.max(np.diff(curves.curve(p)))) for p in (1, 2, "inf"))
    items[1] = (worst <= mixing.SLACK, f"max increase {worst:.2e}")
    gap = max(float(np.max(normalized[1] - normalized[2])), float(np.max(normalized[2] - normalized["inf"])))
    items[2] = (gap <= mixing.SLACK, f"max defect {gap:.2e}")
    steps = np.arange(n_steps + 1)
    if with_beta:
        powers = beta**steps
        worst3 = max(float(np.max(powers - normalized[p])) for p in (1, 2, "inf"))
        items[3] = (worst3 <= mixing.SLACK, f"max defect {worst3:.2e}")
    worst4 = 0.0
    half = n_steps // 2
    for p in (1, 2, "inf"):
        lhs = normalized[p][2 * np.arange(half + 1)]
        rhs = normalized[2][: half + 1] ** 2
        worst4 = max(worst4, float(np.max(lhs - rhs)))
    items[4] = (worst4 <= mixing.SLACK, f"max defect {worst4:.2e}")
    if with_beta:
        worst5 = float(np.max(curves.d2 - beta**steps))
        items[5] = (worst5 <= mixing.SLACK, f"max defect {worst5:.2e}")
    return items


def verify_and_curves(ctx, monkeypatch):
    """verify_basic_mixing(ctx) and the curves it walked."""
    walked = []
    walk = mixing.convolution_curve
    monkeypatch.setattr(mixing, "convolution_curve", lambda *args, **kwargs: walked.append(walk(*args, **kwargs)) or walked[-1])
    report = verify_basic_mixing(ctx)
    monkeypatch.setattr(mixing, "convolution_curve", walk)
    (curves,) = walked
    return report, curves


def test_basic_mixing_items_1_to_5_match_the_reference(monkeypatch):
    contexts = [build_context(inst.group, inst.gens) for inst in standard_zoo(max_order=200)]
    g = build_group("cyclic:300")
    contexts.append(build_context(g, g.generating_set()))
    g = build_group("cyclic:3")
    contexts.append(build_context(g, symmetrize(g, [(1,), (2,)])))  # beta_S is not the walk norm
    for ctx in contexts:
        report, curves = verify_and_curves(ctx, monkeypatch)
        want = reference_items_1_to_5(ctx, curves)
        for item in report.items[:5]:
            if item.item in want:
                ok, detail = want[item.item]
                assert (item.status, item.detail) == ("pass" if ok else "fail", detail), (ctx.group.name, item)
            else:
                assert item.status == "skipped", (ctx.group.name, item)


def test_basic_mixing_checks_hold_at_most_four_step_length_arrays(monkeypatch):
    g = build_group("cyclic:512")
    ctx = build_context(g, g.generating_set())
    want, curves = verify_and_curves(ctx, monkeypatch)
    monkeypatch.setattr(mixing, "convolution_curve", lambda *args, **kwargs: curves)
    tracemalloc.start()
    try:
        got = verify_basic_mixing(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 4 * 8 * (curves.steps + 1), peak / (8 * (curves.steps + 1))


def exact_calibration(ctx, steps=32):
    """The walk in exact rationals (|G| <= 256): the oracle for the float walk.

    Returns the largest gaps between the exact and the float d1 and dinf over
    steps 1..steps.
    """
    n = ctx.n
    if n > 256:
        raise ValueError("exact mode is limited to 256 vertices")
    curves = convolution_curve(ctx, n_max=steps)
    k = Fraction(ctx.k)
    uniform = Fraction(1, n)
    v = [Fraction(0)] * n
    v[0] = Fraction(1)
    err1 = errinf = 0.0
    for step in range(1, steps + 1):
        acc = [Fraction(0)] * n
        for p in ctx.ball.successors:
            for i in range(n):
                acc[i] += v[int(p[i])]
        v = [a / k for a in acc]
        assert sum(v) == 1
        diffs = [x - uniform for x in v]
        d1 = sum(abs(d) for d in diffs)
        dinf = max(abs(d) for d in diffs)
        err1 = max(err1, abs(float(d1) - float(curves.d1[step])))
        errinf = max(errinf, abs(float(dinf) - float(curves.dinf[step])))
    return err1, errinf


def test_exact_calibration_small():
    for spec in ("cyclic:12", "lamplighter:3"):
        g = build_group(spec)
        err1, errinf = exact_calibration(build_context(g, g.generating_set()), steps=24)
        assert err1 < 1e-12 and errinf < 1e-12


def test_exact_calibration_size_guard():
    g = build_group("cyclic:300")
    with pytest.raises(ValueError):
        exact_calibration(build_context(g, g.generating_set()))


def test_quadratic_scan_rows():
    # one row of the quadratic-mixing scan per cycle: the first scale with
    # |S^{2n+1}| <= 4 |S^n| lies below gamma^(2/3), and Tinf / gamma^2 is defined
    for n in (16, 32):
        g = build_group(f"cyclic:{n}")
        ctx = build_context(g, g.generating_set())
        scale = first_scale(doubling_scan(ctx.ball), 4)
        gamma = ctx.diameter
        report = mixing_times(ctx)
        assert report.Tinf is not None and gamma > 0
        assert scale is not None
        assert scale <= gamma ** (2.0 / 3.0)


def test_mixing_invariants_across_zoo_sample():
    for inst in standard_zoo(max_order=200):
        curves = convolution_curve(build_context(inst.group, inst.gens), n_max=40)
        for p in (1, 2, "inf"):
            arr = curves.curve(p)
            assert float(np.max(np.diff(arr))) <= 1e-12


def test_blocked_walk_matches_step_loop_on_zoo():
    for inst in standard_zoo(max_order=5000):
        ctx = build_context(inst.group, inst.gens)
        short = convolution_curve(ctx, n_max=7)
        assert_same_walk(short, step_loop_walk(ctx, 7, stop_when_mixed=False))
        mixed = convolution_curve(ctx)
        oracle = step_loop_walk(ctx, mixed.steps, stop_when_mixed=True)
        assert_same_walk(mixed, oracle)
        assert mixed.dinf[-1] <= mixed.norm_mu_g("inf") / 10 - TIE_EPS  # the stop cut the walk, not the horizon
        extended = convolution_curve(ctx, extend_to=lambda walked: walked.steps + 300)
        assert_same_walk(extended, step_loop_walk(ctx, mixed.steps + 300, stop_when_mixed=False, start=oracle))


@pytest.mark.parametrize("spec", ["cyclic:300", "cyclic:512"])
def test_blocked_walk_matches_step_loop_over_many_blocks(spec):
    g = build_group(spec)
    ctx = build_context(g, g.generating_set())
    mixed = convolution_curve(ctx)
    assert mixed.steps > 8 * (1 << 20) // (8 * ctx.n)  # at least eight blocks of 1 MiB
    assert_same_walk(mixed, step_loop_walk(ctx, mixed.steps, stop_when_mixed=True))


def test_walk_off_the_simplex_raises_at_step_one():
    g = build_group("cyclic:16")
    ctx = build_context(g, g.generating_set())
    table = ctx.ball.successors.copy()
    table[0] = 0
    broken = dataclasses.replace(ctx, ball=dataclasses.replace(ctx.ball, successors=table))
    with pytest.raises(RuntimeError, match=r"left the simplex at step 1:"):
        convolution_curve(broken, n_max=50)


def test_walk_off_the_simplex_names_the_step_of_the_loop():
    # one successor redirected: mass leaks only once the walk has spread to vertex 32
    g = build_group("cyclic:64")
    ctx = build_context(g, g.generating_set())
    table = ctx.ball.successors.copy()
    row = next(i for i, p in enumerate(table) if p[32] != 33)
    table[row, 32] = 33
    broken = dataclasses.replace(ctx, ball=dataclasses.replace(ctx.ball, successors=table))
    with pytest.raises(RuntimeError, match="left the simplex") as want:
        step_loop_walk(broken, 10**6, stop_when_mixed=True)
    assert int(str(want.value).split("at step ")[1].split(":")[0]) > 16
    with pytest.raises(RuntimeError) as got:
        convolution_curve(broken)
    assert str(got.value) == str(want.value)


def _abelian(inst) -> bool:
    split = inst.group.abelian_split()
    return split is not None and split.index == 1


CHARACTER_SPECS = [inst.label for inst in standard_zoo() if _abelian(inst)] + [
    "cyclic:300",
    "cyclic:512",
    "cyclic:768",
    "abelian:300,7",
    "abelian:2,2,2,2,2,2,2,2,2,2",
    "product(cyclic:6)x(cyclic:5)",
]


@pytest.mark.parametrize("spec", CHARACTER_SPECS)
def test_character_times_match_the_walk(spec):
    inst = construct_family(spec)
    ctx = build_context(inst.group, inst.gens)
    assert mixing._character_times(ctx) is not None  # every probe decided: no fallback
    # T1, T2, Tinf and horizon, hence crossings_found, and every other field
    assert mixing_times(ctx) == mixing_times(ctx, convolution_curve(ctx))


def test_probe_error_within_its_bound():
    # exact rational distances of the walk on Z/12 against the FFT probes and their rounding bounds
    g = build_group("cyclic:12")
    ctx = build_context(g, g.generating_set())
    w, u = mixing._walk_eigenvalues(ctx)
    n, k = ctx.n, Fraction(ctx.k)
    v = [Fraction(0)] * n
    v[0] = Fraction(1)
    for t in range(1, 41):
        v = [sum((v[int(p[i])] for p in ctx.ball.successors), Fraction(0)) / k for i in range(n)]
        diffs = [x - Fraction(1, n) for x in v]
        exact = (sum(abs(d) for d in diffs), math.sqrt(sum(d * d for d in diffs)), max(abs(d) for d in diffs))
        got, bound = mixing._probe(w, u, t)
        for p in range(3):
            assert abs(got[p] - float(exact[p])) <= bound[p], (t, p)


def test_max_norm_probes_are_decided_on_cyclic_8192():
    # three dinf probes near Tinf lie within the 2-norm bound of the threshold, but outside the 1-norm one;
    # the times are the ones the walk of 15.3 M steps reports
    g = build_group("cyclic:8192")
    ctx = build_context(g, g.generating_set())
    assert mixing._character_times(ctx) == (12974304, 13509814, 15277860, 15277860)


def test_mix_json_on_abelian_groups_does_not_walk(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(mixing, "_run_walk", refuse)
    for spec in ("cyclic:768", "abelian:4,4,9", "product(cyclic:6)x(cyclic:5)"):
        for fmt in ("json", "table"):
            assert cli.run(["mix", "-g", spec, "--format", fmt]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert '"Tinf":134278' in out


def test_mix_on_a_nonabelian_group_walks(monkeypatch, capsys):
    walks = []
    run_walk = mixing._run_walk
    monkeypatch.setattr(mixing, "_run_walk", lambda *args, **kwargs: walks.append(1) or run_walk(*args, **kwargs))
    assert cli.run(["mix", "-g", "ut:dim=3,p=5", "--format", "json"]) == cli.EXIT_OK
    assert walks == [1]


def test_undecided_probe_falls_back_to_the_walk(monkeypatch):
    g = build_group("cyclic:100")
    ctx = build_context(g, g.generating_set())
    want = mixing_times(ctx, convolution_curve(ctx))
    walks = []
    run_walk = mixing._run_walk
    monkeypatch.setattr(mixing, "_run_walk", lambda *args, **kwargs: walks.append(1) or run_walk(*args, **kwargs))
    monkeypatch.setattr(mixing, "_probe_bound", lambda w, u, t: 1e300)
    assert mixing._character_times(ctx) is None
    assert mixing_times(ctx) == want
    assert walks == [1]
