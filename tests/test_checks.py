import json
import math
import random

import pytest

from oracles import csum_brute, kronecker_counts, trig_csum
from ramsums import DivisorDownset, Element, IdentityReport, cli, csums, factor_integer
from ramsums import checks

BOUND = 30  # 29 is the only element of Z up to the bound that 29 divides
SEED = 5


def _patch_csum(monkeypatch, fn) -> None:
    """Replace csum everywhere the suites evaluate it."""
    monkeypatch.setattr(csums, "ramanujan_sum", fn)
    monkeypatch.setattr(checks, "ramanujan_sum", fn)


def _sabotage_csum(monkeypatch, k_bad: Element, m_bad: Element) -> None:
    """Make csum(k_bad, m_bad) off by one everywhere the suites evaluate it.
    Repeated calls stack: each wraps the csum the previous one installed."""
    real = csums.ramanujan_sum

    def faulty(inst, k, m):
        value = real(inst, k, m)
        return value + 1 if (k.exps, m.exps) == (k_bad.exps, m_bad.exps) else value

    _patch_csum(monkeypatch, faulty)


def _apostol_cases(zint, trials: int, seed: int):
    """The (root, k, n) triples suite_apostol draws for this seed."""
    rng = random.Random(seed)
    zint.ensure_atom_count(8)
    pool = [a.id for a in zint.atoms[:8]]
    return [checks._random_case(rng, zint, pool)[:3] for _ in range(trials)]


def _check(capsys, suite: str, workers: int):
    code = cli.main([
        "check", "--instance", "z", "--suite", suite, "--bound", str(BOUND),
        "--trials", "20", "--seed", str(SEED), "--workers", str(workers),
    ])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("suite", checks.SUITES)
def test_suite_reports_exactly_the_injected_fault(zint, capsys, monkeypatch, suite, workers):
    p = factor_integer(zint, 29)
    if suite == "apostol":
        # the convolution identities never evaluate csum; fail one drawn (k, n)
        cases = _apostol_cases(zint, 20, SEED)
        _, k_bad, n_bad = cases[7]
        real = checks.first_argument_convolution

        def faulty(inst, f, g, h, k, n):
            r = real(inst, f, g, h, k, n)
            return IdentityReport(r.lhs, r.rhs, False) if (k, n) == (k_bad, n_bad) else r

        monkeypatch.setattr(checks, "first_argument_convolution", faulty)
        expected = [
            f"root={root.exps} k={k.exps} n={n.exps}"
            for root, k, n in cases
            if (k, n) == (k_bad, n_bad)
        ]
    else:
        _sabotage_csum(monkeypatch, p, p)
        expected = {
            "th1": [f"k={p.exps}"],
            "th2": [f"m={p.exps} n={p.exps}"],
            "holder": [f"definition k={p.exps} m={p.exps}"],
            "oracle": ["k=29 m=29"],
        }[suite]
    code, report = _check(capsys, suite, workers)
    assert code == 1
    if suite == "holder":  # the seeded sample may draw the pair again
        assert report["failures"][:1] == expected
        assert set(report["failures"]) == set(expected)
    else:
        assert report["failures"] == expected


def test_suite_all_exits_1_on_a_fault(zint, capsys, monkeypatch):
    p = factor_integer(zint, 29)
    code, report = _check(capsys, "all", 2)
    assert (code, report["failures_total"]) == (0, 0)
    _sabotage_csum(monkeypatch, p, p)
    code, report = _check(capsys, "all", 2)
    assert code == 1
    per_suite = {part["suite"]: len(part["failures"]) for part in report["suites"]}
    assert per_suite["th1"] == per_suite["th2"] == per_suite["oracle"] == 1
    assert per_suite["apostol"] == 0 and per_suite["holder"] >= 1
    assert report["failures_total"] == sum(per_suite.values())


def _divisor_pairs_z(bound: int) -> int:
    """Sum of tau(k) over k <= bound: pairs (d, c) with d * c <= bound."""
    return sum(bound // d for d in range(1, bound + 1))


def _divisor_pairs_field(disc: int, bound: int) -> tuple[int, int]:
    """(elements, sum of tau(K)) up to bound, from the ideal counts alone."""
    cnt = kronecker_counts(disc, bound)
    prefix = [0] * (bound + 1)
    for n in range(1, bound + 1):
        prefix[n] = prefix[n - 1] + cnt[n]
    return prefix[bound], sum(cnt[a] * prefix[bound // a] for a in range(1, bound + 1))


@pytest.mark.parametrize("name,disc,bound", [("z", 1, 60), ("q:-23", -23, 40), ("q:-1", -4, 50)])
def test_checked_counts_match_independent_totals(name, disc, bound):
    inst = cli.make_instance(name)
    if name == "z":
        n, taus = bound, _divisor_pairs_z(bound)
    else:
        n, taus = _divisor_pairs_field(disc, bound)
    expected = {"th1": n, "th2": n * n, "holder": taus + min(2000, n * n), "oracle": bound**2}
    for suite, total in expected.items():
        if suite == "oracle" and name != "z":
            continue
        report = checks.run_suite(inst, suite, bound=bound, seed=3)
        assert (suite, report["checked"], report["failures"]) == (suite, total, [])


def test_divisibility_sums_match_definition(qi, q23):
    for inst in (qi, q23):
        elems = list(inst.enumerate_up_to(40))
        downset = DivisorDownset(inst, elems)
        for m in elems:
            brute = [sum(csum_brute(inst, d, m) for d in inst.divisors(n)) for n in elems]
            rhs = [inst.norm(n) if n.leq(m) else 0 for n in elems]
            assert downset.divisibility_sums(m) == brute == rhs


def test_downset_rejects_a_list_that_is_not_divisor_closed(zint):
    elems = list(zint.enumerate_up_to(30))
    DivisorDownset(zint, elems)
    with pytest.raises(ValueError, match="not divisor-closed"):
        DivisorDownset(zint, [e for e in elems if e != factor_integer(zint, 3)])


@pytest.mark.parametrize("name,bound", [("z", 30), ("q:-23", 20)])
def test_th2_evaluates_each_pair_once(monkeypatch, name, bound):
    inst = cli.make_instance(name)
    n = len(list(inst.enumerate_up_to(bound)))
    real, calls = csums.ramanujan_sum, []

    def counted(inst, k, m):
        calls.append(None)
        return real(inst, k, m)

    _patch_csum(monkeypatch, counted)
    report = checks.suite_th2(inst, bound)
    assert (report["failures"], len(calls)) == ([], n * n)


def _count_csum_calls(monkeypatch) -> list:
    real, calls = csums.ramanujan_sum, []

    def counted(inst, k, m):
        calls.append(None)
        return real(inst, k, m)

    _patch_csum(monkeypatch, counted)
    return calls


@pytest.mark.parametrize("name,disc,bound", [("z", 1, 30), ("q:-23", -23, 20)])
def test_suite_all_evaluates_the_block_once(monkeypatch, name, disc, bound):
    # th2 and oracle share one n x n block; th1 and holder's exhaustive layer
    # each evaluate sum of tau(K) pairs, and holder samples min(2000, n**2)
    if name == "z":
        n, taus = bound, _divisor_pairs_z(bound)
    else:
        n, taus = _divisor_pairs_field(disc, bound)
    calls = _count_csum_calls(monkeypatch)
    report = checks.run_suite(cli.make_instance(name), "all", bound=bound, seed=3)
    assert report["failures_total"] == 0
    assert len(calls) == n * n + 2 * taus + min(2000, n * n) == {"z": 2022, "q:-23": 3256}[name]


def test_oracle_alone_evaluates_every_pair_once(zint, monkeypatch):
    calls = _count_csum_calls(monkeypatch)
    assert checks.suite_oracle(zint, BOUND)["failures"] == []
    assert len(calls) == BOUND * BOUND


def _th2_reference(inst, bound: int) -> dict:
    """The th2 report, one column M at a time from divisibility_identity."""
    elems = list(inst.enumerate_up_to(bound))
    bad = []
    for j, m in enumerate(elems):
        for i, n in enumerate(elems):
            rep = csums.divisibility_identity(inst, m, n)
            if not rep.passed:
                bad.append((i, j, rep.context))
    failures = [ctx for _, _, ctx in sorted(bad)]
    return {"suite": "th2", "instance": inst.name, "bound": bound,
            "checked": len(elems) ** 2, "failures": failures}


def _oracle_reference(inst, bound: int) -> dict:
    """The oracle report, one column m at a time from the trigonometric sum."""
    elts = [factor_integer(inst, v) for v in range(1, bound + 1)]
    bad = []
    for m in range(1, bound + 1):
        for k in range(1, bound + 1):
            csum = csums.ramanujan_sum(inst, elts[k - 1], elts[m - 1])
            if abs(trig_csum(k, m) - csum) >= 1e-6:
                bad.append((k, m))
    return {"suite": "oracle", "instance": inst.name, "bound": bound,
            "checked": bound * bound, "failures": [f"k={k} m={m}" for k, m in sorted(bad)]}


@pytest.mark.parametrize("name,bound", [("z", 60), ("q:-1", 50), ("q:-23", 40), ("q:5", 40)])
@pytest.mark.parametrize("faults", [0, 2])
def test_block_suites_match_per_column_references(monkeypatch, name, bound, faults):
    inst = cli.make_instance(name)
    elems = list(inst.enumerate_up_to(bound))
    # a fault at (K, M) fails row N at column M for every multiple N of K
    for k, m in [(elems[2], elems[-1]), (elems[1], elems[6])][:faults]:
        _sabotage_csum(monkeypatch, k, m)
    report = checks.suite_th2(inst, bound)
    assert report == _th2_reference(inst, bound)
    assert len(report["failures"]) >= faults
    if name == "z":
        report = checks.suite_oracle(inst, bound)
        assert report == _oracle_reference(inst, bound)
        assert len(report["failures"]) == faults


@pytest.mark.parametrize("value", [2**15, 2**40])
def test_out_of_range_csum_is_an_internal_error(zint, monkeypatch, capsys, value):
    # |csum(K, M)| <= N(K) <= 30 fits int16; a larger value must not wrap
    real = csums.ramanujan_sum
    k_bad, m_bad = factor_integer(zint, 12), factor_integer(zint, 18)
    _patch_csum(
        monkeypatch,
        lambda inst, k, m: value if (k, m) == (k_bad, m_bad) else real(inst, k, m),
    )
    code = cli.main(["check", "--instance", "z", "--suite", "th2", "--bound", str(BOUND)])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err.startswith("internal error: OverflowError: ")
    assert out.err.count("\n") == 1


def test_th2_row_sums_do_not_wrap(zint, monkeypatch):
    # each offset fits the int16 block, but row 4 adds all three, 2**16 in
    # total: an int16 sum would wrap back to the right side and hide it
    real = csums.ramanujan_sum
    four = factor_integer(zint, 4)
    offsets = {factor_integer(zint, d): off for d, off in ((1, 21846), (2, 21845), (4, 21845))}
    _patch_csum(
        monkeypatch,
        lambda inst, k, m: real(inst, k, m) + (offsets.get(k, 0) if m == four else 0),
    )
    report = checks.suite_th2(zint, BOUND)
    assert report == _th2_reference(zint, BOUND)
    assert f"m={four.exps} n={four.exps}" in report["failures"]


def test_oracle_rejects_a_block_out_of_integer_order(zint):
    elems = list(zint.enumerate_up_to(BOUND))
    elems[3], elems[4] = elems[4], elems[3]
    block = checks.CsumBlock(zint, elems)
    with pytest.raises(RuntimeError, match="not the integers"):
        checks.suite_oracle(zint, BOUND, block)


def test_double_sum_evaluates_one_row_per_head(zint, monkeypatch):
    # With y = 10 the K are built from 2, 3, 5 and 7, so csum(K, M) reads
    # only the 7-smooth part of M: one row per 7-smooth m <= 1e4.
    def smooth(m):
        for p in (2, 3, 5, 7):
            while m % p == 0:
                m //= p
        return m == 1

    real, calls = csums.ramanujan_sum, []

    def counted(inst, k, m):
        calls.append(None)
        return real(inst, k, m)

    _patch_csum(monkeypatch, counted)
    rep = csums.double_sum(zint, 10**4, 10)
    assert rep.direct == rep.value
    assert len(calls) == 10 * sum(smooth(m) for m in range(1, 10**4 + 1))


def test_sxy_cross_check_catches_a_fault(zint, monkeypatch, capsys):
    two = factor_integer(zint, 2)
    _sabotage_csum(monkeypatch, two, two)
    with pytest.raises(ArithmeticError, match="cross-check failed"):
        csums.double_sum(zint, 100, 5)
    code = cli.main(["sxy", "--instance", "z", "--x", "100", "--y", "5"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("internal error: ArithmeticError: ")
    assert out.err.count("\n") == 1


def test_sxy_reports_the_last_failing_grid_point(zint, monkeypatch, capsys):
    # csum(2, 2) is off at every point with x >= 2 and y >= 2; the message
    # names the last of them in grid order
    two = factor_integer(zint, 2)
    _sabotage_csum(monkeypatch, two, two)
    code = cli.main(["sxy", "--instance", "z", "--x", "1000", "--y", "5", "--scan"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err == (
        "internal error: ArithmeticError: double-sum cross-check failed at "
        "x=1000, y=5: direct 1133 != regrouped 999\n"
    )


@pytest.mark.parametrize(
    "argv,largest",
    [
        (["sxy", "--instance", "z", "--x", "1e6", "--y", "50", "--scan"], 10**5),
        (["residue", "--instance", "q:-1", "--k", "p2r^2*p5a", "--x", "1e4", "--direct", "--scan"], 10**4),
    ],
    ids=["sxy", "residue"],
)
def test_scan_command_enumerates_once(monkeypatch, capsys, argv, largest):
    # the largest direct x of sxy's grid is 1e5 (1e5 * 10 is the budget);
    # the residue rows all come from the scan to the last point
    from ramsums.monoid import MonoidInstance

    scans = []
    scan = MonoidInstance.scan_up_to

    def counted(self, x):
        scans.append([self, x, 0])
        for item in scan(self, x):
            scans[-1][2] += 1
            yield item

    monkeypatch.setattr(MonoidInstance, "scan_up_to", counted)
    assert cli.main(argv) == 0 and capsys.readouterr().out
    assert len(scans) == 1
    inst, x, elements = scans[0]
    assert x == largest and elements == inst.count_up_to(largest)


def test_th2_lists_failures_n_major(zint, monkeypatch):
    # csum(D, M) enters the left side at (N, M) for every N that D divides:
    # (13, 7) reaches rows 13 and 26; (23, 29) and (29, 23) one row each.
    # Column order would put (26, 7) before (23, 29), and (29, 23) before
    # (23, 29).
    z = lambda v: factor_integer(zint, v)
    for k, m in ((13, 7), (23, 29), (29, 23)):
        _sabotage_csum(monkeypatch, z(k), z(m))
    report = checks.suite_th2(zint, BOUND)
    pairs = [(13, 7), (23, 29), (26, 7), (29, 23)]
    assert report["failures"] == [f"m={z(m).exps} n={z(n).exps}" for n, m in pairs]


def test_trig_sums_match_the_definition():
    for k in range(1, 61):
        trig = checks._trig_sums(k)
        assert len(trig) == k
        for r in range(k):
            assert abs(trig[r] - trig_csum(k, r)) < 1e-9, (k, r)


def test_oracle_suite_reduces_m_mod_k(zint, monkeypatch):
    # with every csum set to 0, a pair fails exactly when its trigonometric
    # sum is nonzero, i.e. when mu(k / gcd(k, m)) != 0 (Hoelder's formula);
    # m runs past k, so every residue value is read more than once
    monkeypatch.setattr(checks, "ramanujan_sum", lambda inst, k, m: 0)
    report = checks.suite_oracle(zint, 24)
    expected = [
        f"k={k} m={m}"
        for k in range(1, 25)
        for m in range(1, 25)
        if _mu(k // math.gcd(k, m))
    ]
    assert report["failures"] == expected
    assert report["checked"] == 24 * 24


def _mu(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign
