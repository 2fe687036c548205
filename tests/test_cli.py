"""Command-line surface: verbs, exit codes, deterministic serialization."""

import json
import os
import subprocess
import sys

import pytest

import cayleylab
from cayleylab import cli
from cayleylab.cli import EXIT_ASSERTION, EXIT_OK, EXIT_REFUSAL, EXIT_USAGE, render_csv, render_json, run


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
    (["grow", "-g", "cyclic:12", "-r", "-1"], EXIT_USAGE, "at least 0"),
    (["grow", "-g", "cyclic:12", "--eps", "2", "--delta", "-1"], EXIT_USAGE, "positive"),
    (["grow", "-g", "cyclic:12", "--eps", "nan", "--delta", "0.5"], EXIT_USAGE, "positive"),
    (["spectrum", "-g", "cyclic:12", "--tol", "0"], EXIT_USAGE, "positive"),
    (["grow", "-g", "cyclic:12", "--seed", "3"], EXIT_USAGE, "unrecognized arguments"),
    # the scan would need 2^29 subsets (about 40 GiB): refused before allocating
    (["cheeger", "-g", "cyclic:30", "--exact-cap", "64"], EXIT_REFUSAL, "at most 24 vertices"),
    (["verify", "spectral", "-g", "cyclic:25", "--exact-cap", "25"], EXIT_REFUSAL, "at most 24 vertices"),
]


@pytest.mark.parametrize("argv, code, limit", BAD_INPUTS, ids=[" ".join(a) for a, _, _ in BAD_INPUTS])
def test_bad_input_exits_naming_the_limit(argv, code, limit, capsys):
    assert run(argv) == code
    err = capsys.readouterr().err
    assert limit in err


def _python(args: list[str]) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(cayleylab.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_growth_commands_do_not_import_scipy():
    probe = (
        "import sys, cayleylab.cli\n"
        "assert cayleylab.cli.run(['grow', '-g', 'cyclic:12']) == 0\n"
        "sys.exit('scipy' in sys.modules)\n"
    )
    assert _python(["-c", probe]).returncode == 0


def test_python_dash_m_runs_the_command_line():
    proc = _python(["-m", "cayleylab", "diam", "-g", "cyclic:12"])
    assert proc.returncode == 0 and proc.stdout == "6\n"


def test_python_dash_m_runs_the_cli_module():
    proc = _python(["-m", "cayleylab.cli", "diam", "-g", "cyclic:12"])
    assert proc.returncode == 0 and proc.stdout == "6\n"


def test_fault_injection_exits_one(monkeypatch, capsys):
    from cayleylab.zoo import LggReport

    falsified = LggReport(3, 7, gamma_L=0, gamma_prime=0, gamma_0=0, c_meas=99.0)
    monkeypatch.setattr(cli.zoo, "verify_lgg", lambda n, p, workers=1: falsified)
    assert run(["verify", "lgg", "--format", "json"]) == EXIT_ASSERTION
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert any(not tower["c_meas_ok"] for tower in report["towers"])


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
    rows = cli.mixing.WalkCurves.csv_rows
    monkeypatch.setattr(cli.mixing.WalkCurves, "csv_rows", lambda self: built.append(1) or rows(self))
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


def test_render_csv_values():
    rows = [{"n": 1, "v": 0.5, "flag": True, "none": None}]
    text = render_csv(rows)
    assert text == "n,v,flag,none\n1,0.5,true,\n"


def test_verify_requires_group_when_needed(capsys):
    assert run(["verify", "spectral"]) == EXIT_USAGE


def test_env_overrides_order_cap(monkeypatch, capsys):
    from cayleylab.groups import order_cap

    monkeypatch.setenv("CAYLEY_LAB_CAP", "40000000")
    assert order_cap() == 40000000
    # with a tiny cap even small groups are refused
    monkeypatch.setenv("CAYLEY_LAB_CAP", "10")
    assert run(["diam", "-g", "cyclic:12"]) == EXIT_REFUSAL
