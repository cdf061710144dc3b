import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsums import MonoidInstance, cli, fields
from ramsums.cli import format_element, make_instance, parse_element

ROOT = Path(__file__).resolve().parents[1]


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
    for fmt, empty in (("csv", "id,label,norm\n"), ("json", "[]\n")):
        assert run(capsys, "atoms", "--instance", "z", "--x", "1", "--format", fmt) == (0, empty, "")


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--instance", "z", "--x", "4", "--y", "4")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert len(rows) == 16
    got = {(r[0], r[1]): int(r[2]) for r in rows}
    assert got[("2", "2")] == 1 and got[("2", "3")] == -1 and got[("4", "4")] == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ["q:-23", "q:5"])
def test_table_reads_the_csum_kernel(capsys, monkeypatch, name, fmt):
    """table's rows against the scalar ramanujan_sum.  Its values come from
    csums.csum_block alone, as Python ints: a fault there shows in the rows,
    and the scalar evaluator is never called."""
    from ramsums import csums

    inst = make_instance(name)
    argv = ["table", "--instance", name, "--x", "60", "--y", "20", "--format", fmt]
    want = [
        (format_element(inst, k), format_element(inst, m), csums.ramanujan_sum(inst, k, m))
        for k in inst.enumerate_up_to(20)
        for m in inst.enumerate_up_to(60)
    ]

    def table():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        if fmt == "json":
            return [(r["k"], r["m"], r["csum"]) for r in json.loads(out)]
        lines = out.splitlines()
        assert lines[0] == "k,m,csum"
        return [(k, m, int(v)) for k, m, v in (line.split(",") for line in lines[1:])]

    def refuse(*args):
        raise AssertionError("ramanujan_sum called")

    emit, emitted = cli.emit_rows, []

    def spy(header, rows, args):
        rows = list(rows)
        emitted.extend(type(v) for _, _, v in rows)
        return emit(header, rows, args)

    monkeypatch.setattr(csums, "ramanujan_sum", refuse)
    monkeypatch.setattr(cli, "emit_rows", spy)
    assert table() == want and len(want) > 100
    assert set(emitted) == {int}
    real = csums.csum_block
    monkeypatch.setattr(csums, "csum_block", lambda inst, ks, ms: real(inst, ks, ms) + 1)
    assert table() == [(k, m, v + 1) for k, m, v in want]


def test_refuse_pairs_counts_at_doubling_bounds(zint, monkeypatch):
    asked = []
    monkeypatch.setattr(zint, "count_up_to", lambda x: asked.append(x) or int(x))
    cli.refuse_pairs(zint, (3, 2**22 + 5), 10**9, None)
    assert asked == [3, 2**20, 2**21, 2**22, 2**22 + 5]
    asked.clear()
    with pytest.raises(ValueError, match="^3 x 2097152$"):
        cli.refuse_pairs(zint, (3, 2**22 + 5), 6 * 10**6, lambda a, b: f"{a} x {b}")
    assert asked == [3, 2**20, 2**21]


def test_table_counts_a_large_x_at_2_20_first(capsys, monkeypatch):
    # counted at x = 1e9, this field's chi and S tables would hold
    # min(|D|, x + 1) = 99999971 entries each, about 0.9 GB
    real, asked = MonoidInstance.count_up_to, []

    def spy(self, x):
        if x > 2**20:
            raise AssertionError(f"counted at {x}")
        asked.append(x)
        return real(self, x)

    monkeypatch.setattr(MonoidInstance, "count_up_to", spy)
    monkeypatch.setattr(cli, "MAX_TABLE_ROWS", 1000)
    argv = ["table", "--instance", "q:-99999971", "--x", "1e9", "--y", "1", "--allow-large"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --x 1000000000.0 and --y 1 give at least 1 x ")
    assert err.endswith(" rows, above the limit of 1000; lower --x or --y\n")
    assert err.count("\n") == 1 and sorted(asked) == [1, 2**20]


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

    def broken(inst, grid):
        raise ArithmeticError("cross-check failed")

    monkeypatch.setattr(csums, "double_sums", broken)
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
        (["count", "--instance", "q:-1", "--x", "100000", "--scan"], 0),
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


def test_count_builds_no_table(capsys, monkeypatch):
    # the declared count reaches 1e7 without atoms or a counting table
    made = []

    def recorded(spec):
        made.append(make_instance(spec))
        return made[-1]

    monkeypatch.setattr(cli, "make_instance", recorded)
    code, out, _ = run(capsys, "count", "--instance", "q:-1", "--x", "1e7", "--scan")
    assert code == 0
    assert out.splitlines()[-1] == "10000000,7854006,0.7854006"
    (inst,) = made
    assert len(inst.atoms) == 0 and not inst._tables


def test_count_scan_crosses_the_list_cap(capsys):
    # the points above fields.LIST_COUNT_CAP build the numpy arrays first,
    # and the points below it count over the same arrays
    code, out, err = run(capsys, "count", "--instance", "q:-1000003", "--x", "1e7", "--scan")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "x,count,count_over_x",
        "10,3,0.3",
        "100,36,0.36",
        "1000,337,0.337",
        "10000,3308,0.3308",
        "100000,32972,0.32972",
        "1000000,329420,0.32942",
        "10000000,3299021,0.3299021",
    ]


def test_count_past_the_cap(capsys, monkeypatch):
    from oracles import lattice_ideal_count

    from ramsums import fields

    code, out, _ = run(capsys, "count", "--instance", "q:-1", "--x", "1e9", "--allow-large")
    assert code == 0
    assert int(out.splitlines()[1].split(",")[1]) == lattice_ideal_count(10**9, -4)

    def refuse(disc, n):
        raise AssertionError("character table built past the limit")

    monkeypatch.setattr(fields, "_character_table", refuse)
    code, out, err = run(capsys, "count", "--instance", "q:-1", "--x", "1e13", "--allow-large")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "limit" in err and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "d, unit", [(5, (1 + math.sqrt(5)) / 2), (13, (3 + math.sqrt(13)) / 2)]
)
def test_invariants_command_real_fields(capsys, d, unit):
    code, out, _ = run(capsys, "invariants", "--instance", f"q:{d}", "--x", "100000")
    assert code == 0
    data = json.loads(out)
    assert data["class_number_exact"] is None and data["h_rounded"] == 1
    assert data["regulator"] == pytest.approx(math.log(unit), abs=1e-12)


@pytest.mark.parametrize("d, k, m", [(-23, "p2a^2*p3b", "p2a*p3b"), (5, "p2*p5r^2", "p5r")])
def test_field_invariants_are_computed_only_when_read(capsys, monkeypatch, d, k, m):
    """h and the regulator are computed on the first read of the invariants
    or the density; commands that read neither never compute them."""
    inst = ["--instance", f"q:{d}"]
    blind = [
        ["count", *inst, "--x", "1000", "--scan"],
        ["check", *inst, "--suite", "all", "--bound", "30", "--trials", "5"],
        ["csum", *inst, "--k", k, "--m", m],
        ["atoms", *inst, "--x", "100"],
        ["table", *inst, "--x", "20", "--y", "10"],
    ]
    reading = [
        ["invariants", *inst, "--x", "10000"],
        ["residue", *inst, "--k", m, "--x", "1000"],
        ["sxy", *inst, "--x", "1000", "--y", "5"],
    ]
    expected = [run(capsys, *argv) for argv in blind]
    assert all(code == 0 for code, _, _ in expected)
    assert all(run(capsys, *argv)[0] == 0 for argv in reading)

    def refuse(disc):
        raise AssertionError("field invariant computed")

    monkeypatch.setattr(fields, "class_number_imaginary", refuse)
    monkeypatch.setattr(fields, "regulator_real", refuse)
    assert [run(capsys, *argv) for argv in blind] == expected
    assert run(capsys, *reading[0])[0] == 3


def test_caps(capsys):
    code, _, err = run(capsys, "count", "--instance", "z", "--x", "100000000")
    assert code == 2 and "cap" in err
    code, _, _ = run(capsys, "sxy", "--instance", "z", "--x", "100", "--y", "5000")
    assert code == 2
    for argv in (
        ["count", "--x", "inf", "--allow-large"],
        ["table", "--x", "1e400", "--allow-large"],
        ["table", "--instance", "z", "--x", "1e5", "--y", "1e3"],
        ["table", "--instance", "q:-23", "--x", "1e8", "--y", "1e3", "--allow-large"],
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


# Values drawn for each option a subcommand declares: valid and invalid, all
# small.  An empty tuple marks a flag.
_NUMBERS = ("nan", "inf", "-1", "0", "1", "2.5", "7", "30", "1e3")
_SPECS = ("1", "12", "0", "p2", "p3", "p2r", "p2a", "p5a^2", "p2r^2*p5a", "p23r", "p5", "p2^0",
          "p101a", "p2r*", "^2", "q7", "")
_VALUES = {
    "--x": _NUMBERS, "--y": ("nan", "-1", "0", "1", "2.5", "7", "50"), "--k": _SPECS,
    "--m": _SPECS, "--format": ("csv", "json", "xml"), "--suite": cli.SUITES + ("all", "th3"),
    "--bound": ("-1", "0", "7", "50", "nan"), "--trials": ("-1", "0", "5"), "--seed": ("0", "7"),
    "--workers": ("0", "1", "2"), "--scan": (), "--grouped": (), "--direct": (),
    "--allow-large": (),
}


@st.composite
def _argv(draw):
    _, subs = _subcommands()
    name = draw(st.sampled_from(sorted(subs)))
    instance = draw(st.sampled_from(("z", "q:-1", "q:-23", "q:5", "q:4", "q:0", "w")))
    argv = [name, "--instance", instance]
    for action in subs[name]._actions:
        option = action.option_strings[-1] if action.option_strings else None
        if option in (None, "--help", "--instance", "--out"):
            continue
        if not (action.required or draw(st.booleans())):
            continue
        values = _VALUES[option]
        argv += [option, draw(st.sampled_from(values))] if values else [option]
    return argv


@given(_argv())
@settings(max_examples=200, deadline=None)
def test_errors_are_one_line_and_never_internal(argv):
    """Exit 0, 1 or 2, never 3 and never a traceback; an exit 2 the program
    raises is one stderr line.  argparse's own usage errors (SystemExit 2)
    print their usage block as they always have."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = None
            assert exc.code == 2
    assert "Traceback" not in err.getvalue()
    assert code in (None, 0, 1, 2), (code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def test_row_paths_build_no_atom(capsys, monkeypatch):
    """atoms, table and check's apostol suite read atoms by id: with
    MonoidInstance.atom raising, each prints what it printed before."""
    runs = [
        [*argv, "--instance", name, *fmt]
        for name in ("z", "q:-1", "q:-23", "q:5")
        for argv, formats in (
            (["atoms", "--x", "2000"], (["--format", "csv"], ["--format", "json"])),
            (["table", "--x", "60", "--y", "20"], (["--format", "csv"], ["--format", "json"])),
            (["check", "--suite", "apostol", "--trials", "20"], ([],)),
        )
        for fmt in formats
    ]
    want = [run(capsys, *argv) for argv in runs]
    assert all(code == 0 and out for code, out, _ in want)

    def refuse(self, aid):
        raise AssertionError("an Atom was built")

    monkeypatch.setattr(MonoidInstance, "atom", refuse)
    assert [run(capsys, *argv) for argv in runs] == want


def test_repeat_runs_are_byte_identical(capsys):
    for argv in (
        ["count", "--instance", "q:-1", "--x", "5000", "--scan"],
        ["residue", "--instance", "z", "--k", "12", "--x", "5000", "--scan"],
        ["table", "--instance", "z", "--x", "12", "--y", "12"],
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second and first


def test_traced_benchmark_mode_runs(tmp_path, capsys):
    """perfbench/traced.py rebinds ramsums names by attribute; a renamed or
    deleted one breaks the benchmark's traced mode."""
    root = Path(__file__).resolve().parents[1]
    argv = ["check", "--suite", "all", "--bound", "30", "--instance", "q:-23", "--seed", "3"]
    stats = tmp_path / "s.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    script = root / "perfbench" / "traced.py"
    traced = subprocess.run(
        [sys.executable, str(script), str(stats), *argv],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, out, _ = run(capsys, *argv)
    assert (traced.returncode, traced.stdout) == (0, out) and code == 0
    assert json.loads(stats.read_text())["monoid.divisors.calls"] > 0


def test_out_file(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    code, out, _ = run(
        capsys, "count", "--instance", "z", "--x", "100", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[-1] == "100,100,1"


def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    """--out is checked before the work: the count is never taken."""

    def refuse(self, x):
        raise AssertionError("count_up_to called")

    monkeypatch.setattr(MonoidInstance, "count_up_to", refuse)
    for path in (tmp_path / "missing" / "counts.csv", tmp_path):
        code, out, err = run(capsys, "count", "--x", "10", "--out", str(path))
        assert (code, out) == (2, "") and not (tmp_path / "missing").exists()
        assert err.startswith(f"error: cannot write --out {str(path)!r}: ")
        assert err.count("\n") == 1


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "stdout, reason", [(None, "closed"), (_FullStdout(), "[Errno 28] No space left on device")]
)
def test_failed_stdout_exits_2(capsys, monkeypatch, stdout, reason):
    """A closed or failing stdout exits 2 with one line, and fd 1 then points
    at os.devnull, so that the flush at interpreter exit cannot fail again."""
    monkeypatch.setattr(sys, "stdout", stdout)
    saved = os.dup(1)
    try:
        code = cli.main(["count", "--x", "10"])
        on_devnull = os.path.samestat(os.fstat(1), os.stat(os.devnull))
    finally:
        os.dup2(saved, 1)
        os.close(saved)
    assert (code, capsys.readouterr().err) == (2, f"error: cannot write stdout: {reason}\n")
    assert on_devnull


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
def test_stdout_on_a_full_device_exits_2(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ramsums", "count", "--x", "1e7", "--scan"],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


def test_invariants_validates_the_rounded_class_number(capsys, monkeypatch):
    # a rounded h of 0 must not reach the residue constant
    monkeypatch.setattr(fields, "class_number_from_counting", lambda inst, x: (0.3, 0))
    code, out, err = run(capsys, "invariants", "--instance", "q:5")
    assert (code, out) == (2, "")
    assert err == "error: class number must be >= 1, got 0\n"


def test_failed_command_leaves_out_as_it_found_it(tmp_path, capsys, monkeypatch):
    def fail(self, x):
        raise RuntimeError("boom")

    monkeypatch.setattr(MonoidInstance, "count_up_to", fail)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for path in (new, old):
        code, out, err = run(capsys, "count", "--x", "10", "--out", str(path))
        assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")
    assert not new.exists() and old.read_text() == "kept\n"


def test_table_forms_every_row_before_the_output_opens(tmp_path, capsys, monkeypatch):
    """table's rows reach emit_rows as a generator over csum_block chunks; a
    fault in a later chunk still comes before any byte is written."""
    from ramsums import csums

    real, widths = csums.csum_block, []

    def fail_second(inst, ks, ms):
        widths.append(len(ks))
        if len(widths) == 2:
            raise RuntimeError("boom")
        return real(inst, ks, ms)

    monkeypatch.setattr(csums, "csum_block", fail_second)
    path = tmp_path / "old.csv"
    path.write_bytes(b"kept\n")
    code, out, err = run(capsys, "table", "--instance", "z", "--x", "300", "--y", "300", "--out", str(path))
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")
    assert path.read_bytes() == b"kept\n" and widths == [128, 128]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [["table", "--x", "2000", "--y", "50"], ["atoms", "--x", "200000"]])
def test_output_peak_is_a_few_times_its_bytes(tmp_path, argv, fmt):
    """table and atoms hold their output about once: the traced peak stays
    within 12 times the bytes written.  It read 16-17 times when each command
    kept its own list of rows and the text was joined, then copied."""
    path, opts = tmp_path / "out", ["--instance", "z", "--format", fmt, "--out"]
    assert cli.main([argv[0], "--x", "10", *opts, str(path)]) == 0  # imports, untraced
    tracemalloc.start()
    try:
        code = cli.main([*argv, *opts, str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak <= 12 * path.stat().st_size


# -- README and parser agree ----------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, action.choices


def test_check_suite_names_have_one_definition():
    from ramsums import checks

    _, subs = _subcommands()
    suite = next(a for a in subs["check"]._actions if a.dest == "suite")
    assert checks.SUITES is cli.SUITES
    assert tuple(suite.choices) == checks.SUITES + ("all",)


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


def test_every_subcommand_dispatches_through_its_parser():
    parser, subs = _subcommands()
    required = {"csum": ["--k", "1", "--m", "1"], "residue": ["--k", "2"]}
    assert len(subs) == 8
    for name in subs:
        assert parser.parse_args([name, *required.get(name, [])]).run is getattr(cli, "cmd_" + name)


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
