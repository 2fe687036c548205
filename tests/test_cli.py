"""Command-line surface: verbs, exit codes, deterministic serialization."""

import dataclasses
import itertools
import json
import os
import pathlib
import random
import resource
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import cayleylab
from cayleylab import cli, growth, mixing, nilprog, spectral, zoo
from cayleylab.cli import EXIT_ASSERTION, EXIT_OK, EXIT_REFUSAL, EXIT_USAGE, render_csv, render_json, run
from cayleylab.groups import PRIME_LIMIT, FreeNilpotentGroup, SubgroupOracle, build_group
from cayleylab.growth import enumerate_ball
from cayleylab.zoo import standard_zoo
from growth_engines import approximate_group_witness, coset_saturation


def test_diam_prints_plain_number(capsys):
    assert run(["diam", "-g", "cyclic:12"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "6"


def test_verify_spectral_exit_zero(capsys):
    code = run(["verify", "spectral", "-g", "cyclic:12", "--format", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["ok"] is True
    assert all(c["status"] == "holds" for c in report["inequalities"])


def test_spectrum_json_17_digits(capsys):
    assert run(["spectrum", "-g", "cyclic:12", "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.2679491924311" in out  # 17 significant digits of 2 - 2cos(pi/6)


def test_nilprog_nest_exit_zero(capsys):
    code = run(["nilprog", "nest", "-r", "2", "-s", "2", "-L", "1,1", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True


def test_usage_errors_exit_two(capsys):
    assert run(["diam", "-g", "cyclic:abc"]) == EXIT_USAGE
    assert run(["diam"]) == EXIT_USAGE
    assert run(["nosuchverb"]) == EXIT_USAGE


def test_resource_refusal_exit_three(capsys):
    assert run(["diam", "-g", "cyclic:20000000"]) == EXIT_REFUSAL


# each bad input must exit 2 (usage) or 3 (refusal) naming the limit it broke
BAD_INPUTS = [
    (["spectrum", "-g", "cyclic:1"], EXIT_USAGE, "order at least 2"),
    (["cheeger", "-g", "cyclic:1"], EXIT_USAGE, "order at least 2"),
    (["mix", "-g", "cyclic:1"], EXIT_USAGE, "order at least 2"),
    (["verify", "spectral", "-g", "cyclic:1"], EXIT_USAGE, "order at least 2"),
    (["verify", "mixing", "-g", "cyclic:1"], EXIT_USAGE, "order at least 2"),
    (["nilprog", "nest", "-r", "2", "-s", "2", "-L", "1,x"], EXIT_USAGE, "comma-separated integers"),
    (["nilprog", "nest", "-r", "2", "-s", "2", "-L=-1,1"], EXIT_USAGE, "at least 0"),
    (["nilprog", "proper", "-r", "2", "-s", "2", "-L", "1"], EXIT_USAGE, "2 for -r 2"),
    (["nilprog", "powers", "-r", "2", "-s", "2", "-n", "0"], EXIT_USAGE, "at least 1"),
    (["nilprog", "basis", "-r", "0", "-s", "2"], EXIT_USAGE, "at least 1"),
    (["nilprog", "powers", "-r", "2", "-s", "2", "-M", "-1"], EXIT_USAGE, "at least 0"),
    (["grow", "-g", "cyclic:12", "-r", "-1"], EXIT_USAGE, "at least 0"),
    (["grow", "-g", "cyclic:12", "--eps", "2", "--delta", "-1"], EXIT_USAGE, "positive"),
    (["grow", "-g", "cyclic:12", "--eps", "nan", "--delta", "0.5"], EXIT_USAGE, "positive"),
    # the doubling window needs both of its parameters
    (["grow", "-g", "cyclic:12", "--eps", "0.5"], EXIT_USAGE, "--eps and --delta"),
    (["grow", "-g", "cyclic:12", "--delta", "0.5"], EXIT_USAGE, "--eps and --delta"),
    (["grow", "-g", "cyclic:12", "--seed", "3"], EXIT_USAGE, "unrecognized arguments"),
    (["spectrum", "-g", "cyclic:12", "--tol", "1e-3"], EXIT_USAGE, "unrecognized arguments"),
    (["grow", "-g", "cyclic:12", "--workers", "2"], EXIT_USAGE, "unrecognized arguments"),
    # cheeger picks exact or bounded from the graph size alone, so neither verb
    # takes --exact-cap, at any value or graph size
    (["cheeger", "-g", "cyclic:12", "--exact-cap", "-5"], EXIT_USAGE, "unrecognized arguments"),
    (["verify", "spectral", "-g", "cyclic:12", "--exact-cap", "-1"], EXIT_USAGE, "unrecognized arguments"),
    (["verify", "lgg", "--exact-cap", "5"], EXIT_USAGE, "unrecognized arguments"),
    (["cheeger", "-g", "cyclic:30", "--exact-cap", "64"], EXIT_USAGE, "unrecognized arguments"),
    (["verify", "spectral", "-g", "cyclic:25", "--exact-cap", "25"], EXIT_USAGE, "unrecognized arguments"),
    # an lgg tower needs both -n and -p; verify lgg alone runs the default towers
    (["verify", "lgg", "-n", "3"], EXIT_USAGE, "-n and -p"),
    (["verify", "lgg", "-p", "7"], EXIT_USAGE, "-n and -p"),
    (["zoo", "lgg", "-n", "3"], EXIT_USAGE, "-n and -p"),
    (["zoo", "lgg", "-p", "7"], EXIT_USAGE, "-n and -p"),
    (["zoo", "lgg"], EXIT_USAGE, "-n and -p"),
    (["zoo", "lgg", "-n", "-3", "-p", "7"], EXIT_USAGE, "at least 1"),
    (["verify", "lgg", "-n", "3", "-p", "0"], EXIT_USAGE, "at least 1"),
    # a suite refuses the verify flags it does not read, and --p needs csv curves
    (["verify", "spectral", "-g", "cyclic:12", "-n", "3"], EXIT_USAGE, "does not read -n"),
    (["verify", "nesting", "-g", "cyclic:12"], EXIT_USAGE, "does not read --group"),
    (["mix", "-g", "cyclic:12", "--p", "2", "--format", "json"], EXIT_USAGE, "needs --format csv"),
    # the basic-commutator box 3^14 is refused from the partial products
    # already built, before the one of 531,441 elements
    (["nilprog", "proper", "-r", "3", "-s", "3", "-L", "1,1,1"], EXIT_REFUSAL, "needs at least 1860081 group products"),
    # the commutator shapes are counted against the cap before they are built:
    # the r letters, then the r(r-1)/2 weight-2 shapes
    (["nilprog", "basis", "-r", "10001", "-s", "1"], EXIT_REFUSAL, "exceed 10000"),
    (["nilprog", "basis", "-r", "20000", "-s", "1"], EXIT_REFUSAL, "exceed 10000"),
    (["nilprog", "basis", "-r", "1000", "-s", "2"], EXIT_REFUSAL, "exceed 10000"),
    (["nilprog", "gencomms", "-r", "1000", "-s", "2"], EXIT_REFUSAL, "exceed 10000"),
    (["grow", "-g", "freenil:r=300,s=1", "-r", "1"], EXIT_USAGE, "r must be at most 256"),
    # a free nilpotent element holds one coefficient per word of length <= s
    (["grow", "-g", "freenil:r=20,s=4", "-r", "1"], EXIT_REFUSAL, "needs at least 8420 Magnus coefficients"),
    # gamma^delta = 25^2000 is past the float range
    (["grow", "-g", "cyclic:50", "--eps", "0.5", "--delta", "2000"], EXIT_USAGE, "delta must be below about 220.5"),
    # the doubling window reads the diameter: refused before the BFS on an
    # infinite group, and after it when the BFS stops before closing
    (["grow", "-g", "freenil:r=2,s=2", "-r", "3", "--eps", "0.5", "--delta", "0.5"], EXIT_USAGE, "--eps and --delta need a finite group; freenil:r=2,s=2 is infinite\n"),
    (["grow", "-g", "freenil:r=2,s=2", "--eps", "0.5", "--delta", "0.5"], EXIT_USAGE, "--eps and --delta need a finite group; freenil:r=2,s=2 is infinite\n"),
    (["grow", "-g", "cyclic:100", "-r", "10", "--eps", "0.5", "--delta", "0.5"], EXIT_USAGE, "--eps and --delta need the whole group; the BFS of cyclic:100 stopped at radius 10\n"),
    # a repeated parameter is an error (abelian's moduli key excepted), and
    # only ASCII digits are integers
    (["diam", "-g", "cyclic:n=3,n=4"], EXIT_USAGE, "repeated parameter 'n' (at byte 11)"),
    (["diam", "-g", "ut:p=3,dim=3,p=5"], EXIT_USAGE, "repeated parameter 'p' (at byte 13)"),
    (["diam", "-g", "symfp:n=3,p=7,variant=L,variant=G"], EXIT_USAGE, "repeated parameter 'variant' (at byte 24)"),
    (["diam", "-g", "product(cyclic:2)x(cyclic:n=3,n=3)"], EXIT_USAGE, "repeated parameter 'n' (at byte 30)"),
    (["diam", "-g", "cyclic:\u0663"], EXIT_USAGE, "expected integer (at byte 7)"),
    (["diam", "-g", "cyclic:n=\u0663"], EXIT_USAGE, "expected integer value for 'n' (at byte 9)"),
    # abelian, like every family, names a key it does not take
    (["diam", "-g", "abelian:moduli=2,n=3"], EXIT_USAGE, "abelian needs parameters ['moduli'], got ['moduli', 'n']"),
    # -o into a missing directory, and onto a directory
    (["diam", "-g", "cyclic:12", "-o", "no-such-directory/report.json"], EXIT_USAGE, "-o no-such-directory/report.json: "),
    (["cheeger", "-g", "cyclic:12", "--format", "json", "-o", "."], EXIT_USAGE, "-o .: "),
]


@pytest.mark.parametrize("argv, code, limit", BAD_INPUTS, ids=[" ".join(a) for a, _, _ in BAD_INPUTS])
def test_bad_input_exits_naming_the_limit(argv, code, limit, capsys):
    assert run(argv) == code
    err = capsys.readouterr().err
    assert limit in err


@pytest.mark.parametrize("argv", [["spectrum"], ["mix"], ["verify", "spectral"]])
def test_spectral_refusal_comes_before_the_graph_build(argv, monkeypatch, capsys):
    # ut:dim=5,p=5 has 5^10 elements and Fourier blocks of size 5^6, so
    # lambda1 refuses it; the graph build would run out of memory first
    def no_build(*args):
        raise AssertionError("the Cayley graph was built")

    monkeypatch.setattr(spectral, "build_context", no_build)
    assert run([*argv, "-g", "ut:dim=5,p=5"]) == EXIT_REFUSAL
    assert "Fourier blocks of size 15625 exceed the cap of 4096" in capsys.readouterr().err


def _python(args: list[str], base_env=None, timeout=120, **kwargs) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(cayleylab.__file__))
    base_env = os.environ if base_env is None else base_env
    env = dict(base_env, PYTHONPATH=src + os.pathsep + base_env.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout, **kwargs)


def assert_child_exits(argv: list[str], code: int, env: dict | None = None) -> str:
    """Run one `cayley-lab` child under a 2 GB address-space limit and a 20 s
    timeout; assert its exit code, one line of stderr and no traceback, and return that line."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = _python(["-m", "cayleylab", *argv], None if env is None else {**os.environ, **env}, timeout=20, preexec_fn=limit)
    assert proc.returncode == code, (proc.returncode, proc.stderr[-400:])
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr[-400:]
    return proc.stderr


_DIGITS = "9" * 5000  # past the 4300 digits that int() and str() convert
# integers too long to read or print, orders refused before anything of
# their size is built, and a key abelian does not take: each once ended in a
# traceback, an out-of-memory kill, a trial division that did not finish or a
# dropped key.  Orders short enough to print keep their messages.
LIMITED_CASES = [
    (["diam", "-g", f"cyclic:{_DIGITS}"], None, EXIT_USAGE, "error: cyclic parameter has 5000 digits; at most 4300 can be read\n"),
    (["diam", "-g", "cyclic:4"], {"CAYLEY_LAB_CAP": _DIGITS}, EXIT_USAGE, "error: CAYLEY_LAB_CAP has 5000 digits; at most 4300 can be read\n"),
    (["diam", "-g", "ut:dim=300,p=2"], None, EXIT_REFUSAL, "refused: |ut:dim=300,p=2| has more than 4300 digits and exceeds cap 16777216\n"),
    (["diam", "-g", "lamplighter:20000"], None, EXIT_REFUSAL, "refused: |lamplighter:20000| has more than 4300 digits and exceeds cap 16777216\n"),
    (["diam", "-g", "ut:dim=3000,p=2"], None, EXIT_REFUSAL, "refused: |ut:dim=3000,p=2| has more than 4300 digits and exceeds cap 16777216\n"),
    (["diam", "-g", "ut:dim=9999,p=2"], None, EXIT_REFUSAL, "refused: |ut:dim=9999,p=2| has more than 4300 digits and exceeds cap 16777216\n"),
    (["diam", "-g", "symfp:n=100000,p=100003"], None, EXIT_REFUSAL, "refused: |symfp:n=100000,p=100003,variant=L| has more than 4300 digits and exceeds cap 16777216\n"),
    (
        ["diam", "-g", "ut:dim=3,p=1000000000000000003"],
        None,
        EXIT_REFUSAL,
        "refused: |ut:dim=3,p=1000000000000000003| = 1000000000000000009000000000000000027000000000000000027 exceeds cap 16777216\n",
    ),
    (["diam", "-g", f"ut:dim=3,p={PRIME_LIMIT}"], None, EXIT_USAGE, "primality is decided exactly only below 3317044064679887385961981\n"),
    (["diam", "-g", "abelian:moduli=2,n=3"], None, EXIT_USAGE, "error: abelian needs parameters ['moduli'], got ['moduli', 'n']\n"),
    (
        ["diam", "-g", f"abelian:{_DIGITS[:400]},{_DIGITS[:400]}"],
        {"PYTHONINTMAXSTRDIGITS": "640"},
        EXIT_REFUSAL,
        "refused: |abelian:" + _DIGITS[:400] + "," + _DIGITS[:400] + "| has more than 640 digits and exceeds cap 16777216\n",
    ),
    (["diam", "-g", "cyclic:20000000"], None, EXIT_REFUSAL, "refused: |cyclic:20000000| = 20000000 exceeds cap 16777216\n"),
    (["diam", "-g", "abelian:257,257,257,257"], None, EXIT_REFUSAL, "refused: |abelian:257,257,257,257| = 4362470401 exceeds cap 16777216\n"),
]


@pytest.mark.parametrize("argv, env, code, message", LIMITED_CASES, ids=[" ".join(a)[:48] for a, _, _, _ in LIMITED_CASES])
def test_long_integers_and_large_orders_exit_with_one_line(argv, env, code, message):
    assert assert_child_exits(argv, code, env).endswith(message)


def test_grow_reports_an_infinite_K_once_eps_delta_underflows(capsys):
    # eps * delta = 1e-600 is 0.0 in floats, and K = 5^(2 / (eps delta)) overflows anyway
    assert run(["grow", "-g", "cyclic:5", "--eps", "1e-300", "--delta", "1e-300", "--format", "json"]) == EXIT_OK
    window = json.loads(capsys.readouterr().out)["doubling_window"]
    assert window["K"] == "inf" and window["scale"] == 1


def test_growth_commands_do_not_import_scipy():
    # no command pays for the scipy import, on either side of DENSE_CAP
    probe = (
        "import sys, cayleylab.cli\n"
        "assert cayleylab.cli.run(['grow', '-g', 'cyclic:12']) == 0\n"
        "assert cayleylab.cli.run(['cheeger', '-g', 'cyclic:22']) == 0\n"
        "assert cayleylab.cli.run(['verify', 'spectral', '-g', 'cyclic:20']) == 0\n"
        "assert cayleylab.cli.run(['spectrum', '-g', 'ut:dim=3,p=7']) == 0\n"
        "assert cayleylab.cli.run(['verify', 'spectral', '-g', 'lamplighter:8']) == 0\n"
        "assert cayleylab.cli.run(['mix', '-g', 'cyclic:300']) == 0\n"
        "sys.exit('scipy' in sys.modules)\n"
    )
    assert _python(["-c", probe]).returncode == 0


# each verb with the engine modules it must not load, and numpy.ma where
# nothing it runs needs it
_UNLOADED = [
    (["grow", "-g", "cyclic:12"], {"spectral", "mixing", "nilprog"}),
    (["diam", "-g", "cyclic:12"], {"spectral", "mixing", "nilprog"}),
    (["verify", "growth", "-g", "cyclic:12"], {"spectral", "mixing", "nilprog"}),
    (["spectrum", "-g", "cyclic:12"], {"mixing", "nilprog"}),
    (["cheeger", "-g", "cyclic:12"], {"mixing", "nilprog"}),
    (["verify", "spectral", "-g", "cyclic:12"], {"mixing", "nilprog"}),
    (["nilprog", "powers", "-r", "2", "-s", "2", "-L", "1,1"], {"growth", "spectral", "mixing", "numpy.ma"}),
    (["verify", "nesting"], {"growth", "spectral", "mixing", "numpy.ma"}),
    (["zoo", "list"], {"growth", "spectral", "mixing"}),
]


@pytest.mark.parametrize("argv, unloaded", _UNLOADED, ids=[" ".join(a) for a, _ in _UNLOADED])
def test_a_verb_loads_only_the_engines_it_runs(argv, unloaded):
    probe = (
        "import contextlib, io, sys\n"
        "from cayleylab.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('cayleylab.') or m == 'numpy.ma'))\n"
    )
    code, *loaded = _python(["-c", probe, *argv]).stdout.split()
    assert code == "0" and "cayleylab.cli" in loaded
    assert unloaded.isdisjoint(m.removeprefix("cayleylab.") for m in loaded)


def test_constructing_a_family_does_not_load_growth():
    probe = "import sys, cayleylab.zoo\ncayleylab.zoo.construct_family('cyclic:12')\nsys.exit('cayleylab.growth' in sys.modules)\n"
    assert _python(["-c", probe]).returncode == 0


@pytest.mark.parametrize("verb", [["cheeger"], ["verify", "spectral"]])
def test_cheeger_is_exact_up_to_the_scan_limit(verb, capsys):
    for n, mode in ((24, "exact"), (25, "bounded")):
        assert run([*verb, "-g", f"cyclic:{n}", "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report.get("h", report)["mode"] == mode


def test_python_dash_m_runs_the_command_line():
    proc = _python(["-m", "cayleylab", "diam", "-g", "cyclic:12"])
    assert proc.returncode == 0 and proc.stdout == "6\n"


def test_python_dash_m_runs_the_cli_module():
    proc = _python(["-m", "cayleylab.cli", "diam", "-g", "cyclic:12"])
    assert proc.returncode == 0 and proc.stdout == "6\n"


# this process imported cayleylab.cli, so its own environment carries the CLI's default
_ENV_UNSET = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs CPU affinity and 2 CPUs"
)
def test_the_bytes_do_not_depend_on_the_core_count():
    # the residual's norm over 12,167 vertices is a ddot, which OpenBLAS splits across its threads
    argv = ["-m", "cayleylab", "spectrum", "-g", "ut:dim=3,p=23", "--format", "json"]
    cpu = min(os.sched_getaffinity(0))
    pinned = _python(argv, _ENV_UNSET, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    free = _python(argv, _ENV_UNSET)
    assert pinned.returncode == free.returncode == 0
    assert pinned.stdout == free.stdout


_BLAS_PROBE = """
import ctypes, os, sys
for module in sys.argv[1:]:
    __import__(module)
threads = None
try:
    libs = sorted({l.split()[-1] for l in open("/proc/self/maps") if "blas" in l.rsplit("/", 1)[-1]})
except OSError:
    libs = []
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            getattr(lib, sym).restype = ctypes.c_int
            threads = getattr(lib, sym)()
            break
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""


def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise():
    env, threads = _python(["-c", _BLAS_PROBE, "cayleylab.cli"], _ENV_UNSET).stdout.split()
    assert env == "1"
    if threads != "None":
        assert threads == "1"
    env, threads = _python(["-c", _BLAS_PROBE, "cayleylab.cli"], dict(_ENV_UNSET, OPENBLAS_NUM_THREADS="2")).stdout.split()
    assert env == "2"
    # the engine modules alone leave the choice to the program that imports them
    env, _ = _python(["-c", _BLAS_PROBE, "cayleylab.spectral", "cayleylab.mixing"], _ENV_UNSET).stdout.split()
    assert env == "None"


def _child_peak(argv: list[str]) -> tuple[int, int, str]:
    """Exit code, peak RSS in KiB and stdout of one `cayley-lab` child process."""
    # a fresh wrapper waits for this one child, so RUSAGE_CHILDREN reads its peak alone
    wrapper = (
        "import resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'cayleylab', *sys.argv[1:]], capture_output=True, text=True)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        "sys.stdout.write(proc.stdout)\n"
    )
    head, out = _python(["-c", wrapper, *argv]).stdout.split("\n", 1)
    code, peak_kib = map(int, head.split())
    return code, peak_kib, out


def test_basis_at_the_letter_cap_stays_small():
    code, peak_kib, out = _child_peak(["nilprog", "basis", "-r", "10000", "-s", "1", "--format", "json"])
    report = json.loads(out)
    assert code == EXIT_OK and report["size"] == len(report["commutators"]) == 10**4
    # a stored weight vector of length r per commutator would be 10^8 references, about 800 MB
    assert peak_kib < 150 * 1024


def test_exact_cheeger_at_the_scan_limit_stays_small():
    code, peak_kib, out = _child_peak(["cheeger", "-g", "cyclic:24", "--format", "json"])
    assert code == EXIT_OK
    assert out == '{"boundary":2,"mode":"exact","value":0.16666666666666666,"witness_size":12}\n'
    # all 2^23 subsets at once took 431 MB; one chunk of 2^16 takes a few
    assert peak_kib < 80 * 1024


def test_fault_injection_exits_one(monkeypatch, capsys):
    falsified = zoo.LggReport(3, 7, gamma_L=0, gamma_prime=0, gamma_0=0, c_meas=99.0)
    monkeypatch.setattr(zoo, "verify_lgg", lambda n, p: falsified)
    assert run(["verify", "lgg", "--format", "json"]) == EXIT_ASSERTION
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert any(not tower["c_meas_ok"] for tower in report["towers"])


def double_loop_submultiplicative(balls):
    """Every pair n, m >= 1 with n + m <= gamma: the check _submultiplicative replaced."""
    gamma = len(balls) - 1
    return all(balls[n + m] <= balls[n] * balls[m] for n in range(1, gamma + 1) for m in range(1, gamma + 1 - n))


def test_submultiplicativity_matches_the_double_loop():
    profiles = [enumerate_ball(inst.group, inst.gens).ball_sizes for inst in standard_zoo(max_order=5000)]
    assert all(cli._submultiplicative(balls) and double_loop_submultiplicative(balls) for balls in profiles)
    assert not cli._submultiplicative([1, 2, 3, 10]) and not double_loop_submultiplicative([1, 2, 3, 10])
    rng = random.Random(16)
    verdicts = set()
    for _ in range(300):
        steps = [rng.randint(1, rng.choice((2, 10, 1000))) for _ in range(rng.randint(0, 30))]
        balls = list(itertools.accumulate(steps, initial=1))
        verdict = double_loop_submultiplicative(balls)
        assert cli._submultiplicative(balls) == verdict, balls
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_grow_csv_has_header(capsys):
    assert run(["grow", "-g", "cyclic:12", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,sphere,ball,ratio_2n1,ratio_5n"
    assert lines[1].startswith("0,1,1")


def test_mix_csv_curves(capsys):
    assert run(["mix", "-g", "cyclic:8", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,d1,d2,dinf"


def test_mix_builds_curve_rows_only_for_csv(monkeypatch, capsys):
    built = []
    columns = mixing.WalkCurves.columns
    monkeypatch.setattr(mixing.WalkCurves, "columns", lambda self: built.append(1) or columns(self))
    for fmt in ("json", "table"):
        assert run(["mix", "-g", "cyclic:8", "--format", fmt]) == EXIT_OK
    assert built == []
    capsys.readouterr()
    assert run(["mix", "-g", "cyclic:8", "--format", "csv", "--p", "2"]) == EXIT_OK
    assert built == [1]
    assert capsys.readouterr().out.splitlines()[0] == "n,d2"


def test_zoo_list_runs(capsys):
    assert run(["zoo", "list", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert any(r["spec"].startswith("cyclic") for r in rows)


def test_zoo_lgg_smoke(capsys):
    assert run(["zoo", "lgg", "-n", "2", "-p", "3", "--format", "json"]) == EXIT_OK


def test_render_json_deterministic_and_roundtrips():
    report = {"b": 1.0 / 3.0, "a": [1, 2, {"x": None, "y": True}], "c": "text"}
    blob1 = render_json(report)
    blob2 = render_json(json.loads(blob1))
    assert blob1 == blob2
    assert json.loads(blob1) == json.loads(blob2)


def test_render_json_nonfinite():
    assert render_json(float("inf")) == '"inf"'
    assert render_json(float("nan")) == '"nan"'


def test_emit_report_byte_identical(tmp_path):
    report = {"x": 0.1, "y": [1, 2, 3]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    cli.emit_report(report, "json", str(p1))
    cli.emit_report(report, "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def _cli_reports():
    """One report of each class the command line serializes, nested ones too, on small inputs."""
    reports = []
    for spec in ("cyclic:100", "ut:dim=3,p=5"):
        inst = zoo.construct_family(spec)
        ball = growth.count_spheres(inst.group, inst.gens)
        ctx = spectral.build_context(inst.group, inst.gens)
        chain = spectral.verify_spectral_inequalities(ctx)
        basic = mixing.verify_basic_mixing(ctx)
        reports += [
            ball,
            growth.doubling_scan(ball),
            growth.flatness_report(ball),
            growth.doubling_at_scale(ball, 0.5, 0.5),
            growth.moderate_fit(ball, 2),
            approximate_group_witness(inst.group, inst.gens, 1),
            ctx.spectrum,
            spectral.cheeger(ctx),
            chain,
            chain.checks[0],
            spectral.rayleigh_probe(ctx),
            mixing.mixing_times(ctx),
            basic,
            basic.items[0],
        ]
    g12 = build_group("cyclic:12")
    reports.append(spectral.cheeger(spectral.build_context(g12, g12.generating_set())))  # the exact mode
    reports.append(coset_saturation(g12, g12.generating_set(), SubgroupOracle(lambda x: x[0] % 3 == 0, name="3Z")))
    ut = build_group("ut:dim=3,p=5")
    pset = nilprog.enumerate_progression(nilprog.progression_spec("nilprogression", 2, 2, (1, 1), ut, list(ut.raw_generators())))
    nest = nilprog.verify_nesting(2, 2, (1, 1))
    reports += [
        nest,
        nest.containments[0],
        nilprog.verify_properness(nilprog.progression_spec("nilpotent", 2, 2, (1, 1))),
        nilprog.verify_power_laws(2, 2, (1, 1), 2, M=2),
        nilprog.commutator_depth(ut, pset),
        zoo.verify_lgg(3, 7),
    ]
    return reports


def _leaves(obj):
    if isinstance(obj, dict):
        assert all(isinstance(k, str) for k in obj), obj
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


def test_reports_serialize_to_plain_leaves():
    # no ndarray, Fraction or tuple reaches the renderers, and no field kept
    # out of the repr unless its class lists it in _shown
    reports = _cli_reports()
    assert len({type(rep) for rep in reports}) == 21
    for rep in reports:
        plain = cli._plain(rep)
        bad = [x for x in _leaves(plain) if not isinstance(x, (str, int, float, bool, type(None)))]
        assert not bad, (type(rep).__name__, bad)
        hidden = {f.name for f in dataclasses.fields(rep) if not f.repr}.difference(getattr(rep, "_shown", ()))
        assert hidden.isdisjoint(plain), (type(rep).__name__, hidden & plain.keys())


def test_render_csv_values():
    text = "".join(render_csv({"n": [1], "v": [0.5], "flag": [True], "none": [None]}))
    assert text == "n,v,flag,none\n1,0.5,true,\n"
    assert "".join(render_csv({})) == "\n"


def test_mix_csv_streams_its_curves(monkeypatch):
    # the curves are written as they are formatted, with stdout discarded: the
    # peak was 32.0 MiB when each step became a dict, a line in a list and a
    # slice of one joined string, and is 4.0 MiB with columns
    argv = ["mix", "-g", "cyclic:512", "--format", "csv"]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert run(["mix", "-g", "cyclic:8", "--format", "csv"]) == EXIT_OK  # imports outside the trace
        tracemalloc.start()
        try:
            assert run(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 8 << 20


# every csv table, a json report and a table report: -o writes the bytes stdout gets
O_FILE_CASES = [
    ["mix", "-g", "cyclic:12", "--format", "csv"],
    ["mix", "-g", "cyclic:12", "--format", "csv", "--p", "inf"],
    ["grow", "-g", "cyclic:100", "--format", "csv"],
    ["grow", "-g", "freenil:r=2,s=2", "-r", "3", "--format", "csv"],
    ["zoo", "list", "--format", "csv"],
    ["spectrum", "-g", "cyclic:12", "--format", "json"],
    ["spectrum", "-g", "cyclic:12"],
]


@pytest.mark.parametrize("argv", O_FILE_CASES, ids=" ".join)
def test_output_file_holds_the_stdout_bytes(argv, tmp_path, capsysbinary):
    assert run(argv) == EXIT_OK
    out = capsysbinary.readouterr().out
    path = tmp_path / "report"
    assert run([*argv, "-o", str(path)]) == EXIT_OK
    assert capsysbinary.readouterr().out == b""
    assert path.read_bytes() == out and out.endswith(b"\n")


def test_a_reader_that_stops_early_ends_the_run_quietly():
    # `mix --format csv | head -1`: the lines still to come meet a closed pipe,
    # and the run exits 0 with nothing on stderr
    probe = (
        "import subprocess, sys\n"
        "argv = [sys.executable, '-m', 'cayleylab', 'mix', '-g', 'cyclic:512', '--format', 'csv']\n"
        "p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
        "p.stdout.readline()\n"
        "p.stdout.close()\n"
        "print(repr(p.stderr.read()), p.wait())\n"
    )
    assert _python(["-c", probe]).stdout == "b'' 0\n"


def test_verify_requires_group_when_needed(capsys):
    assert run(["verify", "spectral"]) == EXIT_USAGE


def test_env_overrides_order_cap(monkeypatch, capsys):
    from cayleylab.groups import order_cap

    monkeypatch.setenv("CAYLEY_LAB_CAP", "40000000")
    assert order_cap() == 40000000
    # with a tiny cap even small groups are refused
    monkeypatch.setenv("CAYLEY_LAB_CAP", "10")
    assert run(["diam", "-g", "cyclic:12"]) == EXIT_REFUSAL


def test_grow_notes_the_order_cap_on_stderr(monkeypatch, capsys):
    argv = ["grow", "-g", "freenil:r=2,s=2", "-r", "1000", "--format", "json"]
    monkeypatch.setenv("CAYLEY_LAB_CAP", "100000")
    assert run(argv) == EXIT_OK
    capped = capsys.readouterr()
    assert capped.err == "note: stopped at the order cap CAYLEY_LAB_CAP=100000, before radius 1000\n"
    assert json.loads(capped.out)["truncated"] is True
    monkeypatch.setenv("CAYLEY_LAB_CAP", "1000000")
    assert run(["grow", "-g", "freenil:r=2,s=2", "-r", "4", "--format", "json"]) == EXIT_OK
    assert run(["grow", "-g", "cyclic:12", "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_set_product_over_the_byte_cap_exits_3(monkeypatch, capsys):
    # the ordered progression's one set product: 3 rows of x1 powers times 3
    # of x2 powers, 6 coordinates of 8 bytes each
    monkeypatch.setattr(nilprog, "SET_PRODUCT_BYTE_CAP", 431)
    assert run(["nilprog", "nest", "-r", "2", "-s", "2", "-L", "1,1"]) == EXIT_REFUSAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: a set product of 3 by 3 rows needs 432 bytes, over the cap of 431 bytes\n"


def test_power_range_over_the_byte_cap_exits_3(monkeypatch, capsys):
    # a power range of one generator: 3 rows of 6 coordinates of 8 bytes
    # each, refused before the set product is reached
    monkeypatch.setattr(nilprog, "SET_PRODUCT_BYTE_CAP", 143)
    assert run(["nilprog", "nest", "-r", "2", "-s", "2", "-L", "1,1"]) == EXIT_REFUSAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: a power range of 3 rows needs 144 bytes, over the cap of 143 bytes\n"
    monkeypatch.setattr(nilprog, "SET_PRODUCT_BYTE_CAP", 144)
    assert run(["nilprog", "nest", "-r", "2", "-s", "2", "-L", "1,1"]) == EXIT_REFUSAL
    assert "a set product of 3 by 3 rows" in capsys.readouterr().err


def test_oversized_power_range_is_refused_before_any_commutator_is_evaluated(monkeypatch, capsys):
    # the weight-11 basic commutators have L^chi = 3^11: 354,295 rows of the
    # 4,094 Magnus coefficients of freenil:r=2,s=11
    def evaluate(self, group, gens):
        raise AssertionError("a commutator was evaluated")

    monkeypatch.setattr(nilprog.GenCommutator, "evaluate", evaluate)
    assert run(["nilprog", "proper", "-r", "2", "-s", "11", "-L", "3,3"]) == EXIT_REFUSAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: a power range of 354295 rows needs 11603869840 bytes, over the cap of 268435456 bytes\n"


def test_closure_without_an_array_form_exits_3(monkeypatch, capsys):
    spheres = growth._spheres

    def truncated_only(group, gens, limit):
        for radius, step in enumerate(spheres(group, gens, limit)):
            # a closure here would run until memory ran out, so fail instead
            assert radius < 10 or group.codec is not None, "the BFS was asked for a closure without a codec"
            yield step

    monkeypatch.setattr(growth, "_spheres", truncated_only)
    monkeypatch.setenv("CAYLEY_LAB_CAP", "5000000000")
    spec = "abelian:257,257,257,257"
    for verb in ("diam", "grow"):
        assert run([verb, "-g", spec]) == EXIT_REFUSAL
        err = capsys.readouterr().err
        assert err == f"refused: {spec} has coordinate ranks past 2^62, so no codec: closure enumeration needs max_radius\n"
    assert run(["grow", "-g", spec, "-r", "2", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["sphere_sizes"] == [1, 8, 32]


def test_verbs_that_read_sphere_sizes_never_build_elements(monkeypatch, capsys):
    # a ball keeps rows, and builds its element tuples on first read only;
    # grow, diam and verify growth count spheres and build no ball at all
    counters = [
        ["diam", "-g", "cyclic:100"],
        ["grow", "-g", "ut:dim=3,p=5", "--format", "csv"],
        ["grow", "-g", "freenil:r=2,s=3", "-r", "6"],
        ["verify", "growth", "-g", "ut:dim=3,p=5"],
    ]
    commands = [*counters, ["verify", "spectral", "-g", "cyclic:20"]]
    outputs = []
    for argv in commands:
        assert run(argv) == EXIT_OK, argv
        outputs.append(capsys.readouterr().out)

    def fail(what):
        def raiser(*args, **kwargs):
            raise AssertionError(what)

        return raiser

    monkeypatch.setattr(growth, "_row_tuples", fail("a ball built its elements"))
    for argv, out in zip(commands, outputs):
        assert run(argv) == EXIT_OK, argv
        assert capsys.readouterr().out == out, argv
    # symmetrize sorts the generators by encode; the count itself encodes nothing
    count = growth.count_spheres

    def count_without_encoding(*args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FreeNilpotentGroup, "encode", fail("an element was encoded"))
            return count(*args, **kwargs)

    monkeypatch.setattr(growth, "enumerate_ball", fail("a ball was enumerated"))
    monkeypatch.setattr(growth, "count_spheres", count_without_encoding)
    for argv, out in zip(counters, outputs):
        assert run(argv) == EXIT_OK, argv
        assert capsys.readouterr().out == out, argv


def test_freenil_coefficient_past_the_row_limit_exits_3(capsys):
    # the BFS multiplies int64 rows, so it refuses a product whose bound on
    # some coefficient reaches 2^62; here the first refused radius is 93
    assert run(["grow", "-g", "freenil:r=1,s=16", "-r", "92"]) == EXIT_OK
    capsys.readouterr()
    assert run(["grow", "-g", "freenil:r=1,s=16", "-r", "100"]) == EXIT_REFUSAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "refused: a product in freenil:r=1,s=16 could reach a coefficient of 4984243646389009590, past the row limit 2^62\n"
    )


def test_out_of_memory_exits_3_without_a_traceback(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(growth, "count_spheres", exhausted)
    assert run(["grow", "-g", "freenil:r=2,s=2", "-r", "1000"]) == EXIT_REFUSAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: out of memory") and captured.err.count("\n") == 1


def readme_examples() -> list[tuple[list[str], str | None]]:
    """The commands of README's Examples block, each without the program name,
    with the stdout its ``# prints ...`` comment names, or None."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "cayley-lab", line
        comment = line.partition("#")[2].strip()
        examples.append((argv[1:], comment.removeprefix("prints ") + "\n" if comment.startswith("prints ") else None))
    return examples


def test_readme_examples_run(capsys):
    examples = readme_examples()
    assert len(examples) > 10
    for argv, printed in examples:
        assert run(argv) == EXIT_OK, argv
        out = capsys.readouterr().out
        assert out, argv
        if printed is not None:
            assert out == printed, argv
    assert (["diam", "-g", "cyclic:12"], "6\n") in examples


@pytest.mark.parametrize("value", ["abc", "1e6", "-5", "4.5", "١٠", _DIGITS])
def test_bad_order_cap_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("CAYLEY_LAB_CAP", value)
    assert run(["diam", "-g", "cyclic:12"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "CAYLEY_LAB_CAP" in err
    assert "Traceback" not in err
