import argparse
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from ramsums import cli
from ramsums.cli import format_element, make_instance, parse_element


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- element specs ------------------------------------------------------


def test_parse_and_format_z(zint):
    e = parse_element(zint, "12")
    assert zint.norm(e) == 12
    assert format_element(zint, e) == "12"
    assert parse_element(zint, "1").is_zero
    assert format_element(zint, parse_element(zint, "p2^2*p3")) == "12"


def test_parse_and_format_quadratic(qi):
    e = parse_element(qi, "p2r^2*p5a")
    assert qi.norm(e) == 20
    assert format_element(qi, e) == "p2r^2*p5a"
    assert parse_element(qi, "1").is_zero
    assert format_element(qi, parse_element(qi, "p5a*p2r^2")) == "p2r^2*p5a"


def test_parse_roundtrip_idempotent(zint, qi):
    for inst, spec in ((zint, "60"), (zint, "p5^2*p2"), (qi, "p5b*p5a^3"), (qi, "1")):
        e = parse_element(inst, spec)
        canon = format_element(inst, e)
        assert parse_element(inst, canon) == e
        assert format_element(inst, parse_element(inst, canon)) == canon


def test_parse_errors(zint, qi):
    with pytest.raises(cli.CLIError):
        parse_element(zint, "")
    with pytest.raises(cli.CLIError):
        parse_element(zint, "nope^2")
    with pytest.raises(cli.CLIError):
        parse_element(qi, "17")  # integers only parse over Z
    with pytest.raises(cli.CLIError):
        parse_element(qi, "p7a")  # 7 is inert in Q(i)


def test_make_instance():
    assert make_instance("z").name == "Z"
    assert make_instance("q:-1").descriptor.d == -1
    with pytest.raises(cli.CLIError):
        make_instance("galaxy")
    with pytest.raises(cli.CLIError):
        make_instance("q:twelve")
    with pytest.raises(cli.CLIError):
        make_instance("q:12")  # not squarefree


# -- subcommands ---------------------------------------------------------


def test_csum_command(capsys):
    code, out, _ = run(capsys, "csum", "--instance", "z", "--k", "6", "--m", "4")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run(capsys, "csum", "--instance", "z", "--k", "1", "--m", "7")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(
        capsys, "csum", "--instance", "q:-1", "--k", "p2r", "--m", "p2r^2"
    )
    assert code == 0 and out.strip() == "1"
    # the inert ideal above 10007 has norm 10007**2 and label p10007
    code, out, err = run(capsys, "csum", "--instance", "q:-1", "--k", "p10007", "--m", "1")
    assert (code, out, err) == (0, "-1\n", "")
    # 2**80 factors over the small primes; its square root is past the table limit
    k = str(2**80)
    code, out, err = run(capsys, "csum", "--instance", "z", "--k", k, "--m", "1")
    assert (code, out, err) == (0, "0\n", "")
    code, out, err = run(capsys, "csum", "--instance", "z", "--k", k, "--m", k)
    assert (code, out, err) == (0, "604462909807314587353088\n", "")


def test_csum_bad_spec_exits_2(capsys):
    code, _, err = run(capsys, "csum", "--instance", "z", "--k", "wat", "--m", "4")
    assert code == 2 and "error" in err
    # 10007 is inert in Q(i), and p5 splits; p007 is not canonical
    for label in ("p10007a", "p10007r", "p5", "p007"):
        code, out, err = run(capsys, "csum", "--instance", "q:-1", "--k", label, "--m", "1")
        assert (code, out) == (2, "")
        assert err == f"error: unknown atom label {label!r} in Q(sqrt(-1))\n"


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--instance", "z", "--x", "1000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,count,count_over_x"
    assert lines[-1] == "1000,1000,1"
    code, out, _ = run(capsys, "count", "--instance", "z", "--x", "1000", "--scan")
    assert [l.split(",")[0] for l in out.strip().splitlines()[1:]] == ["10", "100", "1000"]


def test_count_json_format(capsys):
    code, out, _ = run(
        capsys, "count", "--instance", "q:-1", "--x", "100", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["count"] == 79  # pi/4 * 100, roughly


def test_atoms_command(capsys):
    code, out, _ = run(capsys, "atoms", "--instance", "q:-23", "--x", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,label,norm"
    assert lines[1] == "0,p2a,2" and lines[2] == "1,p2b,2"


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--instance", "z", "--x", "4", "--y", "4")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert len(rows) == 16
    got = {(r[0], r[1]): int(r[2]) for r in rows}
    assert got[("2", "2")] == 1 and got[("2", "3")] == -1 and got[("4", "4")] == 2


def test_check_command_exit_codes(capsys):
    code, out, _ = run(
        capsys, "check", "--suite", "th1", "--instance", "z", "--bound", "100"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["checked"] == 100 and rep["failures"] == []
    code, out, _ = run(
        capsys, "check", "--suite", "oracle", "--instance", "q:-1", "--bound", "20"
    )
    assert code == 2  # oracle suite is integers-only


def test_check_all_suites_quadratic(capsys):
    code, out, _ = run(
        capsys, "check", "--suite", "all", "--instance", "q:-1",
        "--bound", "60", "--trials", "20",
    )
    assert code == 0
    rep = json.loads(out)
    assert [p["suite"] for p in rep["suites"]] == ["th1", "th2", "apostol", "holder"]
    assert rep["failures_total"] == 0


def test_check_determinism_and_workers(capsys):
    args = ["check", "--suite", "apostol", "--trials", "40", "--seed", "42"]
    _, out1, _ = run(capsys, *args, "--workers", "1")
    _, out2, _ = run(capsys, *args, "--workers", "1")
    _, out4, _ = run(capsys, *args, "--workers", "4")
    assert out1 == out2 == out4


def test_residue_command(capsys):
    code, out, _ = run(
        capsys, "residue", "--instance", "z", "--k", "2", "--x", "10000", "--grouped"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "x,estimate,target,abs_err"
    x, est, target, err = row.split(",")
    assert float(target) == pytest.approx(-math.log(2))
    assert float(err) <= 1e-3
    code, _, _ = run(capsys, "residue", "--instance", "z", "--k", "1", "--x", "10")
    assert code == 2  # identity element rejected


def test_residue_direct_mode(capsys):
    code, out, _ = run(
        capsys, "residue", "--instance", "z", "--k", "2", "--x", "2000", "--direct"
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[3]) <= 1e-3


def test_check_failure_exit_code(capsys, monkeypatch):
    # wire a failing report through the command to pin the exit-code contract
    import ramsums.checks as checks

    def fake(inst, suite, **kw):
        return {"suite": suite, "instance": inst.name, "checked": 1, "failures": ["x"]}

    monkeypatch.setattr(checks, "run_suite", fake)
    code, out, _ = run(capsys, "check", "--suite", "th1", "--instance", "z")
    assert code == 1
    assert json.loads(out)["failures"] == ["x"]


def test_internal_error_exits_3(capsys, monkeypatch):
    # an unexpected exception is a bug, not bad input or a suite failure
    from ramsums import csums

    def broken(inst, x, y):
        raise ArithmeticError("cross-check failed")

    monkeypatch.setattr(csums, "double_sum", broken)
    code, out, err = run(capsys, "sxy", "--instance", "z", "--x", "100", "--y", "5")
    assert (code, out) == (3, "")
    assert err == "internal error: ArithmeticError: cross-check failed\n"


def test_check_starts_no_thread(capsys, monkeypatch):
    # --workers is accepted and has no effect: every suite runs in the caller
    import threading

    args = ["check", "--instance", "z", "--suite", "all", "--bound", "30"]
    one = run(capsys, *args, "--workers", "1")

    def refuse(self):
        raise RuntimeError("check started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    eight = run(capsys, *args, "--workers", "8")
    assert eight[0] == 0
    assert eight == one


@pytest.mark.parametrize(
    "argv,sieves",
    [
        (["count", "--instance", "q:-1", "--x", "100000", "--scan"], 1),
        (["sxy", "--instance", "z", "--x", "10000", "--y", "50", "--scan"], 2),
        (["residue", "--instance", "z", "--k", "360", "--x", "100000", "--scan"], 1),
        (["residue", "--instance", "q:-1", "--k", "p2r^3*p5a", "--x", "100000", "--scan"], 1),
    ],
    ids=["count", "sxy", "residue-z", "residue-qi"],
)
def test_scan_builds_each_table_once(capsys, monkeypatch, argv, sieves):
    # the largest scan point is queried first and sizes every table
    from ramsums.monoid import MonoidInstance

    calls = []
    sieve = MonoidInstance._sieve

    def counted(self, bound, squarefree):
        calls.append((bound, squarefree))
        return sieve(self, bound, squarefree)

    monkeypatch.setattr(MonoidInstance, "_sieve", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert len(calls) == sieves


def test_residue_zero_target(capsys):
    # Lambda(6) = 0: the target column is 0, the estimate is still printed
    code, out, _ = run(
        capsys, "residue", "--instance", "z", "--k", "6", "--x", "10000"
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[2]) == -0.0 or float(row[2]) == 0.0
    assert abs(float(row[1])) < 1e-2


def test_sxy_command(capsys):
    code, out, _ = run(capsys, "sxy", "--instance", "z", "--x", "1000", "--y", "5")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "1000" and row[1] == "5"
    assert int(row[2]) == 999  # exact S, computed both ways internally
    assert float(row[3]) == -1.0


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "--instance", "q:-1", "--x", "100000")
    assert code == 0
    data = json.loads(out)
    assert data["h_rounded"] == 1
    assert data["residue_constant"] == pytest.approx(math.pi / 4)
    code, _, err = run(capsys, "invariants", "--instance", "z", "--x", "1000")
    assert code == 2 and "invariants" in err


def test_caps(capsys):
    code, _, err = run(capsys, "count", "--instance", "z", "--x", "100000000")
    assert code == 2 and "cap" in err
    code, _, _ = run(capsys, "sxy", "--instance", "z", "--x", "100", "--y", "5000")
    assert code == 2
    for argv in (
        ["count", "--x", "inf", "--allow-large"],
        ["table", "--x", "1e400", "--allow-large"],
        ["count", "--x", "-5"],
        ["count", "--x", "nan"],
        ["sxy", "--x", "100", "--y", "0"],
        ["check", "--suite", "apostol", "--trials", "-1"],
        ["check", "--suite", "th1", "--bound", "-5"],
        ["check", "--suite", "th1", "--workers", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:  # count reads no seed
        cli.main(["count", "--seed", "1"])
    assert exc.value.code == 2


def test_repeat_runs_are_byte_identical(capsys):
    for argv in (
        ["count", "--instance", "q:-1", "--x", "5000", "--scan"],
        ["residue", "--instance", "z", "--k", "12", "--x", "5000", "--scan"],
        ["table", "--instance", "z", "--x", "12", "--y", "12"],
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second and first


def test_out_file(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    code, out, _ = run(
        capsys, "count", "--instance", "z", "--x", "100", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[-1] == "100,100,1"


# -- README and parser agree ----------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, action.choices


def test_readme_cli_lines_parse():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    parser, subs = _subcommands()
    seen = set()
    for line in block.splitlines():
        if line.startswith("ramsums "):
            args = parser.parse_args(shlex.split(line.split("#")[0])[1:])
            cli._check_bounds(args)
            seen.add(args.command)
    assert seen == set(subs)


def test_readme_option_table_matches_parser():
    table = {}
    for row in README.read_text(encoding="utf-8").splitlines():
        m = re.match(r"\| `(\w+)` +\|(.*?)\|", row)
        if m:
            table[m.group(1)] = set(re.findall(r"--[a-z-]+", m.group(2)))
    _, subs = _subcommands()
    declared = {
        name: {a.option_strings[-1] for a in p._actions if a.option_strings}
        - {"--help", "--instance", "--out"}
        for name, p in subs.items()
    }
    assert table == declared
